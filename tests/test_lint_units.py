"""Unit-pack tables checked against the real :mod:`repro.sim.units`
helpers, suffix lookup, and the ``--stats`` per-pack timing plumbing.

The conversion tables in :mod:`repro.lint.unit_safety` are what
UNIT001 and UNIT004 compare suffixes against, so they must track the
helpers' semantics exactly.
"""

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lint.cli import main
from repro.lint.unit_safety import CONVERSION_RETURNS, unit_of_name
from repro.sim import units as sim_units


# ---------------------------------------------------------------------------
# conversion round trips against the real helpers
# ---------------------------------------------------------------------------
@given(st.floats(min_value=1e-6, max_value=1e9, allow_nan=False))
def test_ms_round_trip_matches_helpers(value):
    assert sim_units.seconds_to_ms(sim_units.ms(value)) == pytest.approx(value)


@given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
def test_rate_helpers_agree_on_scale(value):
    assert sim_units.mbps(value) == pytest.approx(
        sim_units.kbps(value * 1000.0))
    assert sim_units.gbps(value) == pytest.approx(
        sim_units.mbps(value * 1000.0))


def test_conversion_tables_match_helper_semantics():
    # The lint tables claim these return units; the docstrings in
    # repro.sim.units are the ground truth they must track.
    assert CONVERSION_RETURNS["units.ms"] == ("time", "s")
    assert CONVERSION_RETURNS["units.seconds_to_ms"] == ("time", "ms")
    for tail in ("units.kbps", "units.mbps", "units.gbps"):
        assert CONVERSION_RETURNS[tail] == ("rate", "bytes_per_s")


def test_suffix_lookup_is_case_insensitive():
    assert unit_of_name("SPEED_OF_LIGHT_MILES_PER_S") \
        == ("speed", "miles_per_s")
    assert unit_of_name("rtt_ms") == ("time", "ms")
    assert unit_of_name("_ms") is None  # a bare suffix is not a name


# ---------------------------------------------------------------------------
# --stats plumbing
# ---------------------------------------------------------------------------
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "lint")


def test_stats_reports_per_pack_timing(capsys):
    root = os.path.join(FIXTURES, "proj_rng_lineage")
    assert main([root, "--no-config", "--stats",
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    packs = report["stats"]["rule_pack_seconds"]
    assert {"rng_lineage", "shard_safety", "determinism"} <= set(packs)
    assert all(seconds >= 0.0 for seconds in packs.values())


def test_stats_text_table_lands_on_stderr(capsys):
    root = os.path.join(FIXTURES, "unit_bad.py")
    assert main([root, "--no-config", "--stats"]) == 1
    captured = capsys.readouterr()
    assert "analyzer time by rule pack" in captured.err
    assert "unit_safety" in captured.err
    assert "total" in captured.err
