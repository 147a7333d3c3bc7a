"""Tests for the keyword and page-content models."""

import hashlib

import pytest

from repro.content import page as page_module
from repro.content.keywords import Keyword, KeywordCatalog
from repro.content.page import PageGenerator, PageProfile
from repro.services.deployment import bing_akamai_profile, google_like_profile


# ---------------------------------------------------------------------------
# keywords
# ---------------------------------------------------------------------------
def test_keyword_validation():
    with pytest.raises(ValueError):
        Keyword(text="", popularity=0.5, complexity=0.5)
    with pytest.raises(ValueError):
        Keyword(text="x", popularity=1.5, complexity=0.5)
    with pytest.raises(ValueError):
        Keyword(text="x", popularity=0.5, complexity=-0.1)
    with pytest.raises(ValueError):
        Keyword(text="x", popularity=0.5, complexity=0.5, granularity=0)


def test_catalog_is_deterministic():
    a = KeywordCatalog(seed=5)
    b = KeywordCatalog(seed=5)
    assert [k.text for k in a.popular(10)] == \
           [k.text for k in b.popular(10)]
    assert [k.text for k in a.complex(5)] == \
           [k.text for k in b.complex(5)]


def test_keyword_classes_have_expected_attribute_ranges():
    catalog = KeywordCatalog(seed=1)
    for keyword in catalog.popular(20):
        assert keyword.popularity >= 0.8
        assert keyword.complexity <= 0.15
        assert keyword.suggested
    for keyword in catalog.complex(20):
        assert keyword.popularity <= 0.05
        assert keyword.complexity >= 0.7
    for keyword in catalog.mixed(20):
        assert 0.3 <= keyword.popularity <= 0.7


def test_figure3_set_has_one_of_each_class():
    kws = KeywordCatalog(seed=2).figure3_set()
    assert len(kws) == 4
    assert len({k.text for k in kws}) == 4
    # Ordered from cheapest to most expensive back-end work.
    assert kws[0].popularity > kws[3].popularity
    assert kws[3].complexity > kws[0].complexity


def test_bulk_pool_split_and_uniqueness():
    pool = KeywordCatalog(seed=3).bulk_pool(count=1000)
    assert len(pool) == 1000
    assert len({k.text for k in pool}) == 1000
    suggested = [k for k in pool if k.suggested]
    assert 400 <= len(suggested) <= 600
    assert min(k.popularity for k in suggested) >= 0.6


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------
@pytest.fixture
def generator():
    return PageGenerator("svc", PageProfile(static_size=4000,
                                            dynamic_base_size=20_000,
                                            dynamic_complexity_size=10_000))


def kw(text="test query", popularity=0.5, complexity=0.5):
    return Keyword(text=text, popularity=popularity, complexity=complexity)


def test_static_content_is_constant_and_sized(generator):
    static1 = generator.static_content()
    static2 = generator.static_content()
    assert static1 == static2
    assert len(static1) == 4000
    assert b"Videos" in static1  # the paper's static menu bar
    assert b"News" in static1


@pytest.mark.parametrize("profile_factory, seed, size, digest", [
    (google_like_profile, 0, 4300, "9f41e31acc23d117"),
    (google_like_profile, 1, 4300, "383cd1362ec3e3bb"),
    (bing_akamai_profile, 0, 13500, "518bcc8dbc996749"),
    (bing_akamai_profile, 1, 13500, "57884e2fc2c2a66c"),
])
def test_static_pages_keep_their_bytes(profile_factory, seed, size, digest):
    """Each service's static page, byte for byte as the builder made it
    before it kept a running CSS total."""
    profile = profile_factory()
    page = PageGenerator(profile.name, profile.page_profile,
                         seed=seed).static_content()
    assert len(page) == size
    assert hashlib.sha256(page).hexdigest()[:16] == digest


def test_static_differs_between_services():
    a = PageGenerator("svc-a", PageProfile(static_size=4000))
    b = PageGenerator("svc-b", PageProfile(static_size=4000))
    assert a.static_content() != b.static_content()


def test_dynamic_content_depends_on_keyword(generator):
    d1 = generator.dynamic_content(kw("alpha"))
    d2 = generator.dynamic_content(kw("beta"))
    assert d1 != d2
    # Deterministic per keyword.
    assert d1 == generator.dynamic_content(kw("alpha"))


def test_dynamic_size_grows_with_complexity(generator):
    small = generator.dynamic_content(kw("a", complexity=0.0))
    large = generator.dynamic_content(kw("b", complexity=1.0))
    assert len(large) > len(small) + 5000


def test_pages_share_static_prefix_across_keywords(generator):
    """The property the paper's content analysis exploits: responses for
    different keywords agree exactly on the static prefix and diverge
    somewhere in the dynamic part."""
    static = generator.static_content()
    page_a = static + generator.dynamic_content(kw("query one"))
    page_b = static + generator.dynamic_content(kw("query two"))
    boundary = len(static)
    assert page_a[:boundary] == page_b[:boundary]
    assert page_a[boundary:boundary + 2000] != page_b[boundary:boundary + 2000]


def test_memoized_pages_equal_a_fresh_build(generator):
    keywords = [kw("alpha"), kw("alpha", popularity=0.1),
                kw("beta query", complexity=0.9)]
    pages = [generator.dynamic_content(k) for k in keywords]
    assert all(generator.dynamic_content(k) is page
               for k, page in zip(keywords, pages))
    fresh = PageGenerator("svc", generator.profile)
    assert [fresh.dynamic_content(k) for k in reversed(keywords)] \
        == pages[::-1]
    # The target size is part of the key: same text, other popularity.
    assert [len(page) for page in pages] == [26_000, 25_200, 30_000]
    # The bytes the builder produced before pages were memoized.
    assert [hashlib.sha256(page).hexdigest()[:16] for page in pages] == \
        ["ab6e8d1f334a6458", "bc40422f87c9e24b", "ad0837382b76f8ae"]


def test_page_memo_never_exceeds_its_cap(generator, monkeypatch):
    monkeypatch.setattr(page_module, "PAGE_MEMO_LIMIT", 3)
    keywords = [kw("query %d" % i) for i in range(5)]
    pages = []
    for keyword in keywords:
        pages.append(generator.dynamic_content(keyword))
        assert len(generator._pages) <= 3
    # Evicted pages are rebuilt byte for byte.
    assert [generator.dynamic_content(k) for k in keywords] == pages
    assert len(generator._pages) == 3


def test_profile_validation():
    with pytest.raises(ValueError):
        PageProfile(static_size=10)
    with pytest.raises(ValueError):
        PageProfile(dynamic_base_size=10)


def test_dynamic_target_size_model():
    profile = PageProfile(static_size=4000, dynamic_base_size=20_000,
                          dynamic_complexity_size=10_000)
    easy = profile.dynamic_size(kw("a", complexity=0.0, popularity=0.0))
    hard = profile.dynamic_size(kw("b", complexity=1.0, popularity=0.0))
    assert easy == 20_000
    assert hard == 30_000
