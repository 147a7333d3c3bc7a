"""Self-check: simlint must pass over this repository.

This is the test that turns the determinism / unit / event invariants
from convention into machine enforcement: any new wall-clock call,
global-random draw, unit-suffix mix-up, or event-queue hazard anywhere
in ``src/repro`` or ``tests`` fails the suite unless it carries an
explicit, reviewable ``# simlint: ignore[...]``.
"""

import os

from repro.lint import LintRunner, load_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(paths):
    config = load_config(os.path.join(REPO_ROOT, "pyproject.toml"))
    runner = LintRunner(config)
    findings = runner.run_paths([os.path.join(REPO_ROOT, p) for p in paths])
    return runner, findings


def test_src_tree_has_zero_unsuppressed_findings():
    runner, findings = _run(["src/repro"])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n".join(f.render() for f in active)
    # The walk really covered the tree, and the known intentional
    # deviations (CLI wall-clock timing, fire-and-forget timers) are
    # present as *suppressed* findings rather than invisible.
    assert runner.files_scanned >= 80
    assert any(f.suppressed for f in findings)
    # The project-scope packs run here too: the documented shard
    # deviation (obs.capture swapping the per-process tracer and
    # registry in code shard workers reach) must show up suppressed,
    # proving the cross-module analysis actually executed over the
    # real tree.
    assert "SHARD001" in {f.rule for f in findings if f.suppressed}


def test_obs_tree_is_clean_without_suppressions():
    # The observability subsystem is held to a stricter bar than the
    # rest of src/repro: exports must be byte-deterministic, so the obs
    # tree must satisfy the determinism pack with no findings at all —
    # not even suppressed ones (a suppression there would mean a wall
    # clock or entropy source one comment away from the trace format).
    runner, findings = _run(["src/repro/obs"])
    assert findings == [], "\n".join(f.render() for f in findings)
    assert runner.files_scanned >= 7


def test_tests_and_examples_have_zero_unsuppressed_findings():
    runner, findings = _run(["tests", "benchmarks", "examples"])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n".join(f.render() for f in active)
    # pyproject's [tool.simlint] exclude keeps the deliberately-bad
    # fixtures out of the self-check.
    assert not any("data/lint" in f.path.replace(os.sep, "/")
                   for f in findings)
    assert runner.files_scanned >= 40
