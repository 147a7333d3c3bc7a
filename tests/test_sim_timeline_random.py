"""Tests for RNG streams and unit helpers."""

import pytest

from repro.sim import units
from repro.sim.randomness import RandomStreams, derive_seed


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------
def test_named_streams_are_stable_and_independent():
    a = RandomStreams(seed=42)
    b = RandomStreams(seed=42)
    # Same name, same seed -> identical sequences.
    assert [a.get("x").random() for _ in range(5)] == \
           [b.get("x").random() for _ in range(5)]
    # Different names -> different sequences.
    assert a.get("y").random() != b.get("x").random()


def test_stream_isolation_from_new_consumers():
    """Adding a consumer must not perturb existing streams."""
    a = RandomStreams(seed=7)
    first = a.get("loss").random()
    b = RandomStreams(seed=7)
    b.get("brand-new-stream").random()  # extra consumer
    assert b.get("loss").random() == first


def test_derive_seed_is_deterministic_and_spread():
    s1 = derive_seed(1, "a")
    assert s1 == derive_seed(1, "a")
    assert s1 != derive_seed(1, "b")
    assert s1 != derive_seed(2, "a")


def test_spawn_creates_distinct_universe():
    root = RandomStreams(seed=3)
    child1 = root.spawn("rep1")
    child2 = root.spawn("rep2")
    assert child1.get("x").random() != child2.get("x").random()


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------
def test_unit_conversions_roundtrip():
    assert units.ms(250) == 0.25
    assert units.seconds_to_ms(0.25) == 250
    assert units.us(1000) == units.ms(1)
    assert units.mbps(8) == 1_000_000  # 8 Mbit/s = 1 MB/s


def test_propagation_delay_scales_linearly():
    d1 = units.propagation_delay(100)
    d2 = units.propagation_delay(200)
    assert d2 == pytest.approx(2 * d1)
    # ~100 miles of inflated fiber is on the order of 1 ms one-way.
    assert 0.0005 < d1 < 0.01


def test_propagation_delay_rejects_negative():
    with pytest.raises(ValueError):
        units.propagation_delay(-1)


def test_transmission_delay():
    assert units.transmission_delay(1_000_000, units.mbps(8)) == \
        pytest.approx(1.0)
    with pytest.raises(ValueError):
        units.transmission_delay(10, 0)
    with pytest.raises(ValueError):
        units.transmission_delay(-1, 100)
