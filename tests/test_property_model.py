"""Property-based tests for the model, statistics, and HTTP framing."""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.analysis import stats
from repro.analysis.boundary import chunk_spans, common_prefix_length
from repro.core.model import AbstractModel
from repro.http.message import (
    HttpResponse,
    ResponseParser,
    _url_quote,
    _url_unquote,
    encode_chunk,
    encode_last_chunk,
)
from repro.net.geo import haversine_miles

finite = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


# ---------------------------------------------------------------------------
# AbstractModel invariants
# ---------------------------------------------------------------------------
@given(fe_delay=st.floats(0, 0.1), tfetch=st.floats(0, 2.0),
       windows=st.integers(0, 5), rtt=st.floats(0, 0.5))
def test_model_bounds_always_consistent(fe_delay, tfetch, windows, rtt):
    model = AbstractModel(fe_delay=fe_delay, tfetch=tfetch,
                          static_windows=windows)
    tdelta = model.predict_tdelta(rtt)
    tdynamic = model.predict_tdynamic(rtt)
    tstatic = model.predict_tstatic(rtt)
    assert tdelta >= 0
    assert tdynamic >= tfetch - 1e-12          # never beats the fetch
    assert tdynamic >= tstatic - 1e-12         # dynamic ends last
    assert abs(tdynamic - tstatic - tdelta) < 1e-9 or tdelta == 0


@given(fe_delay=st.floats(0, 0.05), tfetch=st.floats(0.001, 1.0),
       windows=st.integers(1, 4))
def test_model_threshold_is_the_extinction_point(fe_delay, tfetch,
                                                 windows):
    model = AbstractModel(fe_delay=fe_delay, tfetch=tfetch,
                          static_windows=windows)
    threshold = model.rtt_threshold()
    assert model.predict_tdelta(threshold * 1.01 + 1e-6) == 0
    if threshold > 1e-9:
        assert model.predict_tdelta(threshold * 0.99) > 0


@given(fe_delay=st.floats(0, 0.05), tfetch=st.floats(0, 1.0),
       windows=st.integers(0, 4),
       rtt1=st.floats(0, 0.5), rtt2=st.floats(0, 0.5))
def test_model_monotonicity(fe_delay, tfetch, windows, rtt1, rtt2):
    assume(rtt1 <= rtt2)
    model = AbstractModel(fe_delay=fe_delay, tfetch=tfetch,
                          static_windows=windows)
    assert model.predict_tdelta(rtt1) >= model.predict_tdelta(rtt2)
    assert model.predict_tdynamic(rtt1) <= model.predict_tdynamic(rtt2)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_cdf_is_monotone_and_normalised(values):
    points = stats.cdf_points(values)
    fractions = [f for _, f in points]
    assert fractions == sorted(fractions)
    assert math.isclose(fractions[-1], 1.0)
    xs = [x for x, _ in points]
    assert xs == sorted(xs)


@given(values=st.lists(st.floats(-1e5, 1e5), min_size=2, max_size=200))
def test_box_stats_ordering(values):
    box = stats.box_stats(values)
    assert box.low_whisker <= box.q1 <= box.median <= box.q3 \
        <= box.high_whisker
    assert min(values) <= box.low_whisker
    assert box.high_whisker <= max(values)


@given(slope=st.floats(-100, 100), intercept=st.floats(-100, 100),
       xs=st.lists(st.floats(-100, 100), min_size=3, max_size=50,
                   unique=True))
def test_linear_fit_exact_recovery(slope, intercept, xs):
    assume(max(xs) - min(xs) > 1e-3)  # physically meaningful spread
    ys = [slope * x + intercept for x in xs]
    fit = stats.linear_fit(xs, ys)
    assert math.isclose(fit.slope, slope, abs_tol=1e-5, rel_tol=1e-5)
    assert math.isclose(fit.intercept, intercept, abs_tol=1e-4,
                        rel_tol=1e-4)


# ---------------------------------------------------------------------------
# geography
# ---------------------------------------------------------------------------
@given(lat1=st.floats(-90, 90), lon1=st.floats(-180, 180),
       lat2=st.floats(-90, 90), lon2=st.floats(-180, 180))
def test_haversine_symmetric_and_bounded(lat1, lon1, lat2, lon2):
    d12 = haversine_miles(lat1, lon1, lat2, lon2)
    d21 = haversine_miles(lat2, lon2, lat1, lon1)
    assert math.isclose(d12, d21, abs_tol=1e-6)
    assert 0 <= d12 <= 12_500.1  # half the Earth's circumference


@given(lat=st.floats(-90, 90), lon=st.floats(-180, 180))
def test_haversine_identity(lat, lon):
    assert haversine_miles(lat, lon, lat, lon) == 0.0


# ---------------------------------------------------------------------------
# URL encoding
# ---------------------------------------------------------------------------
@given(text=st.text(max_size=100))
def test_url_quote_roundtrip(text):
    assert _url_unquote(_url_quote(text)) == text


# ---------------------------------------------------------------------------
# chunked framing
# ---------------------------------------------------------------------------
chunks_strategy = st.lists(st.binary(min_size=1, max_size=500),
                           min_size=1, max_size=8)


def build_chunked_stream(chunks):
    head = HttpResponse(headers={"Transfer-Encoding": "chunked"}
                        ).encode_head()
    body = b"".join(encode_chunk(c) for c in chunks) + encode_last_chunk()
    return head + body


@given(chunks=chunks_strategy)
def test_chunk_spans_reconstruct_payload(chunks):
    stream = build_chunked_stream(chunks)
    spans = chunk_spans(stream)
    assert len(spans) == len(chunks)
    rebuilt = b"".join(stream[s.payload_start:s.payload_end]
                       for s in spans)
    assert rebuilt == b"".join(chunks)


@given(chunks=chunks_strategy)
def test_parser_and_spans_agree_on_body(chunks):
    stream = build_chunked_stream(chunks)
    parser = ResponseParser()
    (response,) = parser.feed(stream)
    assert response.body == b"".join(chunks)
    assert response.body == b"".join(stream[s.payload_start:s.payload_end]
                                     for s in chunk_spans(stream))


# ---------------------------------------------------------------------------
# common prefix
# ---------------------------------------------------------------------------
@given(prefix=st.binary(max_size=200), tails=st.lists(
    st.binary(min_size=1, max_size=50), min_size=2, max_size=5))
def test_common_prefix_at_least_shared_prefix(prefix, tails):
    streams = [prefix + tail for tail in tails]
    length = common_prefix_length(streams)
    assert length >= len(prefix)
    # All streams agree on the first `length` bytes by definition.
    head = streams[0][:length]
    assert all(s[:length] == head for s in streams)


# ---------------------------------------------------------------------------
# content generator
# ---------------------------------------------------------------------------
_keyword_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           max_codepoint=0x7F),
    min_size=1, max_size=30)


@settings(max_examples=30, deadline=None)
@given(texts=st.lists(_keyword_text, min_size=2, max_size=5,
                      unique=True))
def test_pages_share_exactly_the_static_prefix(texts):
    """Every page starts with the byte-identical static portion, and the
    dynamic portions are deterministic per keyword."""
    from repro.content.keywords import Keyword
    from repro.content.page import PageGenerator, PageProfile

    generator = PageGenerator("prop-svc",
                              PageProfile(static_size=2048,
                                          dynamic_base_size=4096,
                                          dynamic_complexity_size=1024))
    static = generator.static_content()
    keywords = [Keyword(text=t, popularity=0.5, complexity=0.5)
                for t in texts]
    pages = [static + generator.dynamic_content(k) for k in keywords]
    for page, keyword in zip(pages, keywords):
        assert page == static + generator.dynamic_content(keyword)
    assert common_prefix_length(pages) >= len(static)
