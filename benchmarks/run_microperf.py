"""Record the microperf benchmarks into ``BENCH_microperf.json``.

Runs ``benchmarks/test_bench_microperf.py`` through pytest-benchmark and
*appends* a labelled entry to the repo-root ``BENCH_microperf.json``
trajectory file: each benchmark's median (``medians``) and its min,
median, IQR and round count (``stats``), in milliseconds.  Each change
that touches the hot path should append one entry so the file reads as
a performance history; see ``docs/PERFORMANCE.md`` for how to interpret
it.

Usage (from the repo root)::

    python benchmarks/run_microperf.py --label "my change"
    python benchmarks/run_microperf.py --check 2.0 --dry-run  # CI gate

``--check RATIO`` is a *regression* gate that compares like with like.
``test_bench_host_calibration`` times fixed interpreter-bound work that
no change to the program alters, so each benchmark's median divided by
the calibration median is its cost in host-independent units.  The gate
fails when that ratio is more than RATIO times the previous entry's.  A
host that is uniformly slower moves every median and the calibration
together and passes; one benchmark slower at an unchanged calibration
fails.  Benchmarks without a previous median (newly added) pass, and an
entry recorded without a calibration is skipped, never compared raw.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_microperf.json")
BENCH_FILE = os.path.join("benchmarks", "test_bench_microperf.py")
#: The benchmark that measures the host rather than the program.
CALIBRATION = "test_bench_host_calibration"


def run_benchmarks() -> dict:
    """Run the microperf file; return {benchmark_name: stats}, where
    stats holds the ``min``, ``median`` and ``iqr`` in milliseconds and
    the number of ``rounds``."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "bench.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        subprocess.run(
            [sys.executable, "-m", "pytest", BENCH_FILE,
             "--benchmark-only", "-q",
             "--benchmark-json=%s" % json_path],
            cwd=REPO_ROOT, env=env, check=True)
        with open(json_path) as handle:
            report = json.load(handle)
    return {bench["name"]: {
        "min": bench["stats"]["min"] * 1000.0,
        "median": bench["stats"]["median"] * 1000.0,
        "iqr": bench["stats"]["iqr"] * 1000.0,
        "rounds": bench["stats"]["rounds"],
    } for bench in report["benchmarks"]}


def provenance() -> dict:
    """Git SHA and date stamps for a trajectory entry.

    Either stamp degrades to ``"unknown"`` (no git, no checkout, …) —
    provenance must never fail a benchmark run.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        # Wall-clock provenance of the *host* run that produced the
        # entry; nothing inside the simulations reads it.
        date = datetime.date.today().isoformat()  # simlint: ignore[DET001]
    except (OSError, OverflowError):
        date = "unknown"
    return {"git_sha": sha, "date": date}


def load_trajectory() -> dict:
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            trajectory = json.load(handle)
        # Every entry carries provenance uniformly: runs recorded
        # before the stamps existed degrade to "unknown", exactly as a
        # stampless host run would.
        for entry in trajectory["runs"]:
            entry.setdefault("git_sha", "unknown")
            entry.setdefault("date", "unknown")
        return trajectory
    return {"benchmark": BENCH_FILE,
            "unit": "milliseconds (median wall-clock)",
            "runs": []}


def check(medians: dict, previous: dict, ratio: float) -> int:
    """The regression gate: 0 when no benchmark's calibrated median grew
    past ``ratio`` times the previous entry's, else 1."""
    calibration = medians.get(CALIBRATION)
    before_calibration = previous["medians"].get(CALIBRATION)
    if calibration is None or before_calibration is None:
        print("--check skipped: %s has no %s median, so its medians "
              "cannot be compared across hosts"
              % ("this run" if calibration is None
                 else "the previous entry %r" % previous["label"],
                 CALIBRATION))
        return 0
    # Each benchmark's median in calibration units, then and now.
    scaled = {}
    for name, median in medians.items():
        before = previous["medians"].get(name)
        if name != CALIBRATION and before is not None:
            scaled[name] = ((median / calibration)
                            / (before / before_calibration))
    failures = sorted(name for name, value in scaled.items()
                      if value > ratio)
    if not failures:
        print("--check %.2f passed (no benchmark's calibrated median "
              "regressed past %.2fx the previous entry)" % (ratio, ratio))
        return 0
    # Full ratio table, not just the offenders' names: when the gate
    # trips you want to see at a glance whether one benchmark regressed
    # or every benchmark moved.
    print("--check %.2f FAILED (calibrated median slower than %.2fx the "
          "previous entry %r; host calibration %.4fms -> %.4fms):"
          % (ratio, ratio, previous["label"], before_calibration,
             calibration))
    print("  %-42s %12s %12s %8s" % ("benchmark", "previous", "current",
                                     "ratio"))
    for name in sorted(medians):
        if name == CALIBRATION:
            continue
        before = previous["medians"].get(name)
        if before is None:
            print("  %-42s %12s %10.4fms %8s"
                  % (name, "(new)", medians[name], "-"))
            continue
        print("  %-42s %10.4fms %10.4fms %7.2fx%s"
              % (name, before, medians[name], scaled[name],
                 "  <-- FAIL" if name in failures else ""))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="unlabeled",
                        help="name for this entry in the trajectory")
    parser.add_argument("--check", type=float, metavar="RATIO",
                        help="regression gate: exit non-zero if any "
                             "benchmark's median, divided by the host "
                             "calibration's, is more than RATIO x that "
                             "of the previous trajectory entry (new "
                             "benchmarks pass); combine with --dry-run "
                             "in CI")
    parser.add_argument("--dry-run", action="store_true",
                        help="print medians without updating the file")
    args = parser.parse_args(argv)

    stats = run_benchmarks()
    medians = {name: value["median"] for name, value in stats.items()}
    trajectory = load_trajectory()
    previous = trajectory["runs"][-1] if trajectory["runs"] else None

    print()
    print("%-42s %12s %12s %7s" % ("benchmark", "median", "iqr", "rounds"))
    for name in sorted(stats):
        line = "%-42s %10.4fms %10.4fms %7d" % (
            name, stats[name]["median"], stats[name]["iqr"],
            stats[name]["rounds"])
        if previous and name in previous["medians"]:
            line += "   (%5.2fx vs %s)" % (
                previous["medians"][name] / medians[name],
                previous["label"])
        print(line)

    if args.check is not None:
        if args.check <= 0:
            print("--check: RATIO must be positive")
            return 2
        if previous is None:
            print("--check: no previous entry; nothing to regress from")
        elif check(medians, previous, args.check):
            return 1

    if not args.dry_run:
        entry = {"label": args.label, "medians": medians, "stats": stats}
        entry.update(provenance())
        trajectory["runs"].append(entry)
        with open(BASELINE_PATH, "w") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("appended %r to %s" % (args.label, BASELINE_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
