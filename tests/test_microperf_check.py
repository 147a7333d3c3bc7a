"""Tests for the microperf trajectory checker (benchmarks/run_microperf)."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "run_microperf.py")

CALIBRATION = "test_bench_host_calibration"
BASELINE = {CALIBRATION: 8.0, "test_bench_fast": 10.0,
            "test_bench_slow": 100.0}


def stats(medians):
    """What run_benchmarks returns for runs with these medians."""
    return {name: {"min": median, "median": median, "iqr": 0.0,
                   "rounds": 5}
            for name, median in medians.items()}


@pytest.fixture()
def microperf(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_microperf", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def fake_trajectory():
        return {"benchmark": "fake", "unit": "ms", "runs": [
            {"label": "baseline", "git_sha": "unknown",
             "date": "unknown", "medians": dict(BASELINE)}]}

    monkeypatch.setattr(module, "load_trajectory", fake_trajectory)
    return module


def run_check(microperf, monkeypatch, medians):
    monkeypatch.setattr(microperf, "run_benchmarks", lambda: stats(medians))
    return microperf.main(["--check", "2.0", "--dry-run"])


def test_check_passes_within_ratio(microperf, monkeypatch, capsys):
    assert run_check(microperf, monkeypatch,
                     {CALIBRATION: 8.0, "test_bench_fast": 12.0,
                      "test_bench_slow": 150.0}) == 0
    assert "passed" in capsys.readouterr().out


def test_check_passes_on_a_uniformly_slower_host(microperf, monkeypatch,
                                                 capsys):
    """Every benchmark and the calibration 2.5x slower: the host moved,
    the code did not."""
    slower = {name: 2.5 * median for name, median in BASELINE.items()}
    assert run_check(microperf, monkeypatch, slower) == 0
    assert "passed" in capsys.readouterr().out


def test_check_fails_one_slower_benchmark_at_same_calibration(
        microperf, monkeypatch, capsys):
    medians = dict(BASELINE, test_bench_slow=250.0)
    assert run_check(microperf, monkeypatch, medians) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "2.50x" in out


def test_check_failure_prints_full_ratio_table(microperf, monkeypatch,
                                               capsys):
    assert run_check(microperf, monkeypatch,
                     {CALIBRATION: 8.0, "test_bench_fast": 9.0,
                      "test_bench_slow": 450.0,
                      "test_bench_new": 5.0}) == 1
    out = capsys.readouterr().out
    # The table names every benchmark with previous/current/ratio, not
    # just the offenders, and marks new entries and failures.
    assert "test_bench_slow" in out and "4.50x" in out
    assert "<-- FAIL" in out
    assert "test_bench_fast" in out and "0.90x" in out
    assert "test_bench_new" in out and "(new)" in out


def test_check_skips_an_entry_without_calibration(microperf, monkeypatch,
                                                  capsys):
    """An entry recorded before the calibration existed is never
    compared raw: a 10x slower benchmark against it is skipped."""
    monkeypatch.setattr(microperf, "load_trajectory",
                        lambda: {"benchmark": "fake", "unit": "ms",
                                 "runs": [{"label": "old",
                                           "medians": {
                                               "test_bench_fast": 1.0}}]})
    assert run_check(microperf, monkeypatch,
                     {CALIBRATION: 8.0, "test_bench_fast": 10.0}) == 0
    assert "skipped" in capsys.readouterr().out


def test_check_with_no_history_passes(microperf, monkeypatch, capsys):
    monkeypatch.setattr(microperf, "load_trajectory",
                        lambda: {"benchmark": "fake", "unit": "ms",
                                 "runs": []})
    assert run_check(microperf, monkeypatch,
                     {"test_bench_fast": 9.0}) == 0
    assert "nothing to regress" in capsys.readouterr().out


def test_entry_records_stats(microperf, monkeypatch, tmp_path):
    path = tmp_path / "trajectory.json"
    monkeypatch.setattr(microperf, "BASELINE_PATH", str(path))
    monkeypatch.setattr(microperf, "run_benchmarks", lambda: stats(BASELINE))
    assert microperf.main(["--label", "entry"]) == 0
    (entry,) = [run for run in json.loads(path.read_text())["runs"]
                if run["label"] == "entry"]
    assert entry["medians"] == BASELINE
    assert entry["stats"][CALIBRATION] == {"min": 8.0, "median": 8.0,
                                           "iqr": 0.0, "rounds": 5}
