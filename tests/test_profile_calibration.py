"""Calibration guards: the service profiles must keep the relationships
the paper's figures depend on.  If a future tuning breaks one of these,
the figure benchmarks will drift — these tests fail first and point at
the responsible knob."""

import pytest

from repro.services.deployment import (
    bing_akamai_profile,
    google_like_profile,
)
from repro.testbed import sites


@pytest.fixture(scope="module")
def google():
    return google_like_profile()


@pytest.fixture(scope="module")
def bing():
    return bing_akamai_profile()


def test_backend_processing_separation(google, bing):
    """Figure 9's intercepts: bing's Tproc must dwarf google's."""
    from repro.content.keywords import Keyword

    keyword = Keyword(text="calibration", popularity=0.5, complexity=0.45)
    google_mean = google.processing.mean_for(keyword)
    bing_mean = bing.processing.mean_for(keyword)
    # Paper: ~34 ms vs ~260 ms (ratio ~7.6).
    assert 0.025 < google_mean < 0.045
    assert 0.180 < bing_mean < 0.320
    assert 5 < bing_mean / google_mean < 11


def test_static_sizes_set_the_window_counts(google, bing):
    """Figure 5's thresholds come from how many congestion windows the
    static portion spans (k=1 google-like, k=2 bing-like)."""
    iw = google.edge_tcp.initial_cwnd_bytes
    google_static = google.page_profile.static_size
    bing_static = bing.page_profile.static_size
    # google: fits in IW plus at most one extra window.
    assert iw < google_static + 500 <= 2 * iw
    # bing: needs the second *and* third windows (3 + 6 segments < size).
    assert 2 * iw < bing_static <= 2 * iw + 2 * iw
    assert bing_static > google_static * 2


def test_fe_load_separation(google, bing):
    """Figure 7: shared-CDN FEs are slower, more variable, and more
    load-sensitive than dedicated ones."""
    assert bing.fe_load.median_delay > 2 * google.fe_load.median_delay
    assert bing.fe_load.sigma > google.fe_load.sigma
    assert bing.fe_load.per_concurrent_delay > \
        google.fe_load.per_concurrent_delay


def test_processing_noise_ordering(google, bing):
    """Bing's Tproc variance exceeds google's (Figures 3, 7, 8)."""
    assert bing.processing.sigma > google.processing.sigma


def test_internal_network_quality(google, bing):
    """The dedicated backbone is cleaner than the public-Internet path."""
    assert google.route_inflation <= bing.route_inflation
    assert google.fe_be_loss <= bing.fe_be_loss
    assert google.fe_be_jitter <= bing.fe_be_jitter
    assert google.fe_be_bandwidth >= bing.fe_be_bandwidth


def test_backend_connections_pinned_for_both(google, bing):
    """Both FE-BE legs ride warm, pinned-window connections, giving the
    similar Figure-9 slopes (C ~ 3 for ~33 kB responses)."""
    for profile in (google, bing):
        assert profile.backend_window_bytes is not None
        assert profile.backend_tcp.fixed_window_bytes is not None
        windows = (profile.page_profile.dynamic_base_size
                   / profile.backend_window_bytes)
        assert 2.0 <= windows <= 4.0


def test_deployment_density(google, bing):
    """Figure 6: the CDN must field several times more FE sites."""
    akamai = sites.akamai_like_fe_sites()
    google_sites = sites.google_like_fe_sites()
    assert len(akamai) >= 2 * len(google_sites)


def test_fig9_backends_exist():
    """The Figure-9 target back-ends must stay in the site catalogues."""
    assert any("boydton" in name for name, _ in sites.BING_LIKE_BE_SITES)
    assert any("lenoir" in name
               for name, _ in sites.GOOGLE_LIKE_BE_SITES)
