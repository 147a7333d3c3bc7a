#!/usr/bin/env python3
"""Reach audit: which ``src/`` functions does no user-facing run enter,
which config fields does none set, and which parameters does none pass?

The audit runs every surface a user drives, in this one process, under
:mod:`cProfile`:

* the four end-to-end benchmark bodies, as ``benchmarks/e2e/child.py``
  runs them with its counters installed, each followed by its
  workload's reference check;
* every script under ``examples/``;
* the commands README.md and ``docs/`` show: ``python -m repro`` with
  each of its flags, ``python -m repro report``, the workload CLI's
  documented flags, and simlint's text, JSON and SARIF reports,
  ``--stats`` and ``--list-rules``.

Process pools run inline (the pool :mod:`repro.parallel.pool` starts is
replaced by a loop in this process), so shard and ``--jobs`` workers are
measured too.  A function counts as reached when the profiler saw it
entered.  Dunder methods are skipped: Python calls them implicitly.

Every function no surface reaches must be on :data:`ALLOWED` with a
one-line reason (failure handling, a branch of a kept algorithm, a
name picked by string dispatch, ...); code no user run needs is deleted
instead.

The same run audits the options.  Before the surfaces run, ``__init__``
of every class in :data:`CONFIG_CLASSES` is wrapped to record each field
a surface constructs with a value other than its default
(``dataclasses.replace`` goes through ``__init__``, so overrides count).
Every field no surface sets must be on :data:`OPTIONS_ALLOWED` with a
one-line reason; a knob no user run turns is made a constant instead.

The same run audits the parameters by the same rule.  Before the
surfaces run, every module under ``src/repro`` is imported and each
function's defaulted parameters are read with their defaults (the
``figures`` set-up later rewrites ``run_load_sensitivity``'s keyword
defaults, which then counts as passing them).  A :func:`sys.settrace`
hook sees every call, those the imports make included, and records each
parameter whose value on entry differs from its default; it traces no
lines.  A default forwarded to another function's parameter counts as
not passed there either.  Every parameter no surface passes must be on
:data:`PARAMETERS_ALLOWED` with a one-line reason; one no user run sets
is made a constant instead.

The audit exits 1 when the unreached functions, the never-set fields or
the never-passed parameters and their allow-list differ in either
direction, when an allow-listed entry has no reason, and when a surface
fails.

Run from anywhere, on Python 3.11 or later (older versions take the
TOML fallback the allow-list names; about 2.5 minutes on a 2-vCPU
host)::

    python benchmarks/reach_audit.py
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import dataclasses
import gc
import importlib
import io
import os
import pkgutil
import runpy
import sys
import tempfile
import traceback
import types
from typing import Callable, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
E2E = os.path.join(ROOT, "benchmarks", "e2e")
PACKAGE = os.path.join(SRC, "repro")
sys.path.insert(0, SRC)
sys.path.insert(0, E2E)

#: ``path::qualname`` (path under ``src/repro``) -> why the function
#: stays although no surface enters it.
ALLOWED: Dict[str, str] = {
    # Failure handling: safety code on kept paths that no seeded run
    # happens to fail.
    "http/client.py::HttpFetch.on_error":
        "fails the fetch when its connection aborts",
    "http/client.py::PersistentHttpClient._fail":
        "fails the in-flight and queued requests of a dead connection",
    "http/client.py::PersistentHttpClient.on_close":
        "the back-end closed a persistent connection",
    "http/client.py::PersistentHttpClient.on_error":
        "a persistent connection aborted",
    "http/client.py::RequestHooks.failure":
        "delivers a failed request to its owner",
    "http/server.py::Responder.finished":
        "FrontEndServer._fetch_failed asks whether the reply ended",
    "http/server.py::Responder.fail":
        "FrontEndServer._fetch_failed ends a started reply short",
    "measure/emulator.py::QueryEmulator._fail":
        "records a session whose fetch failed",
    "services/frontend.py::FrontEndServer._fetch_failed":
        "answers 502 when the back-end fetch fails",
    "sim/analytic/manager.py::TieredSessionManager.expire":
        "a validation sample still open when the run ends diverges",
    "sim/replay/manager.py::SessionReplayManager.expire":
        "a recording still open when the run ends is dropped",
    "sim/replay/cache.py::ReplayCache.pop":
        "drops an entry whose validation session failed",
    "tcp/connection.py::TcpApp.on_close":
        "default callback: the peer finished sending",
    "tcp/connection.py::TcpApp.on_data":
        "default callback for an application that ignores data",
    "tcp/connection.py::TcpApp.on_error":
        "default callback: the connection aborted",
    "tcp/connection.py::TcpApp.on_established":
        "default callback for an application with nothing to send",
    "workload/trace.py::malformed":
        "the error for a trace record whose fields fail to decode",
    # Branches of kept algorithms that seeded runs do not take.
    "tcp/congestion.py::CubicController._begin_epoch":
        "CUBIC's epoch start after a loss",
    "tcp/congestion.py::CubicController._cubic_window_segments":
        "CUBIC's window growth after a loss epoch began",
    "tcp/congestion.py::CubicController.on_dup_ack":
        "CUBIC's reaction to a duplicate ACK",
    "tcp/congestion.py::CubicController.on_fast_retransmit":
        "CUBIC's reaction to a fast retransmit",
    "tcp/congestion.py::CubicController.on_recovery_exit":
        "CUBIC's exit from fast recovery",
    "tcp/congestion.py::CubicController.on_timeout":
        "CUBIC's reaction to a retransmission timeout",
    "tcp/congestion.py::FixedWindowController.on_dup_ack":
        "the pinned window ignores a duplicate ACK",
    "tcp/congestion.py::FixedWindowController.on_recovery_exit":
        "the pinned window ignores the end of recovery",
    "analysis/stats.py::_ks_paths_inside":
        "the exact two-sample KS p-value for small samples",
    "analysis/sketch.py::QuantileSketch.state":
        "QuantileSketch.__eq__ compares sketches through it",
    "obs/metrics.py::MetricsSnapshot.empty":
        "obs.merge_metrics' answer when no shard returned metrics",
    "obs/metrics.py::MetricsSnapshot.scoped":
        "a traced stream's fingerprint hashes its sim-scope metrics",
    # Interfaces: the base class declares what each subclass overrides.
    "tcp/congestion.py::CongestionController.in_recovery":
        "interface that every congestion controller implements",
    "tcp/congestion.py::CongestionController.on_ack":
        "interface that every congestion controller implements",
    "tcp/congestion.py::CongestionController.on_dup_ack":
        "interface that every congestion controller implements",
    "tcp/congestion.py::CongestionController.on_fast_retransmit":
        "interface that every congestion controller implements",
    "tcp/congestion.py::CongestionController.on_recovery_exit":
        "interface that every congestion controller implements",
    "tcp/congestion.py::CongestionController.on_timeout":
        "interface that every congestion controller implements",
    "workload/arrivals.py::ArrivalProcess.intensity":
        "interface that every arrival process implements",
    "workload/arrivals.py::ArrivalProcess.peak":
        "interface that every arrival process implements",
    "lint/project.py::ProjectRule.check":
        "interface that every project-scope rule implements",
    # Names picked by string dispatch or listed in a table.
    "experiments/common.py::ExperimentScale.small":
        "picked by `python -m repro --scale small`",
    "experiments/common.py::ExperimentScale.paper":
        "picked by `python -m repro --scale paper`",
    "sim/units.py::us":
        "a conversion in simlint's unit table (CONVERSION_RETURNS)",
    "sim/units.py::kbps":
        "a conversion in simlint's unit table (CONVERSION_RETURNS)",
    "sim/units.py::transmission_delay":
        "a conversion in simlint's unit table (CONVERSION_RETURNS)",
    # The observability switch docs/OBSERVABILITY.md documents.
    "obs/__init__.py::disable": "documented library API",
    "obs/__init__.py::reset": "documented library API",
    "obs/runtime.py::disable": "what obs.disable calls",
    "obs/runtime.py::reset": "what obs.reset calls",
    # Benchmark assertions outside tests/.
    "experiments/ablation.py::CacheAblationResult.ttfb_improvement":
        "asserted by benchmarks/test_bench_ablations.py",
    "experiments/fig4.py::Fig4Result.gap_shrinks_with_rtt":
        "asserted by benchmarks/test_bench_fig4.py",
    "experiments/fig5.py::Fig5Result.thresholds_ms":
        "asserted by benchmarks/test_bench_fig5.py",
    "experiments/residential.py::ResidentialResult.row":
        "asserted by benchmarks/test_bench_extensions.py",
    # simlint: parts that run only on code that violates a rule, and
    # the TOML fallback CI's Python 3.9 job runs.
    "lint/determinism.py::_grows_plan":
        "DET005 on a set loop that adds to a query plan",
    "lint/determinism.py::_is_schedule_call":
        "DET005 on a set loop whose body schedules",
    "lint/project.py::_body_accumulates":
        "SHARD002 on a set loop that accumulates",
    "lint/rng_lineage.py::_short":
        "names the other consumers in an RNG002 finding",
    "lint/unit_safety.py::ArgumentUnitRule._callee_label":
        "names the callee in a UNIT finding",
    "lint/unit_safety.py::describe":
        "names a unit in a UNIT finding",
    "lint/unit_safety.py::mismatch_kind":
        "classifies the mismatch in a UNIT finding",
    "lint/framework.py::Finding.render":
        "prints a finding in the text report",
    "lint/framework.py::_parse_simlint_table":
        "reads [tool.simlint] where tomllib is missing (Python < 3.11)",
}

#: The config classes whose fields the options section audits, as
#: (module, class).
CONFIG_CLASSES = (
    ("repro.tcp.config", "TcpConfig"),
    ("repro.testbed.scenario", "ScenarioConfig"),
    ("repro.services.deployment", "ServiceProfile"),
    ("repro.services.load", "FrontEndLoadModel"),
    ("repro.services.load", "ProcessingModel"),
    ("repro.content.page", "PageProfile"),
    ("repro.cache.spec", "CacheSpec"),
    ("repro.cache.spec", "CacheHierarchySpec"),
    ("repro.workload.generator", "WorkloadSpec"),
    ("repro.experiments.common", "ExperimentScale"),
)

#: ``Class.field`` -> why the field stays although no surface sets it.
OPTIONS_ALLOWED: Dict[str, str] = {
    # The transport mechanisms' parameters: unit tests set them to
    # reach segmentation, slow start, congestion avoidance and flow
    # control in small transfers.
    "TcpConfig.mss":
        "segmentation: tests cut small payloads into many segments",
    "TcpConfig.initial_window_segments":
        "slow start: tests widen the initial window",
    "TcpConfig.initial_ssthresh_bytes":
        "congestion avoidance: a finite ssthresh reaches the fast "
        "paths' congestion-model bypass",
    "TcpConfig.receive_window_bytes":
        "flow control: tests cap the flight with a small window",
    "ScenarioConfig.client_tcp":
        "tests put a non-default client stack on a path (tcp-knobs)",
}

#: ``path::qualname(parameter=)`` -> why the parameter stays although
#: no surface passes it a value other than its default.
PARAMETERS_ALLOWED: Dict[str, str] = {
    # Interfaces a command line fills in; the audit's runs give the
    # default.
    "experiments/common.py::ExperimentScale.small(seed=)":
        "`python -m repro --scale small --seed N`",
    "experiments/common.py::ExperimentScale.paper(seed=)":
        "`python -m repro --scale paper --seed N`",
    "experiments/interactive.py::run_interactive(phrase=)":
        "examples/interactive_search.py types the phrase its command "
        "line gives",
    "parallel/campaigns.py::run_dataset_a_sharded(shards=)":
        "`python -m repro --shards N`; tests cut the fleet in 2 and 3",
    "parallel/campaigns.py::run_streaming_sharded(shards=)":
        "the workload CLI's --shards",
    "parallel/campaigns.py::run_streaming_sharded(batch_events=)":
        "the workload CLI's --batch",
    "parallel/campaigns.py::run_streaming_sharded(lookahead=)":
        "the workload CLI's --lookahead",
    "parallel/campaigns.py::run_streaming_sharded(tier=)":
        "the workload CLI's --tier",
    # Kept mechanisms that tests reach through the parameter.
    "parallel/campaigns.py::run_dataset_a_sharded(processes=)":
        "serial == sharded: tests run the shards on a pool and inline",
    "parallel/campaigns.py::run_dataset_a_sharded(services=)":
        "serial == sharded: tests shard one-service campaigns",
    "parallel/campaigns.py::run_dataset_a_sharded(tier=)":
        "serial == sharded: tests shard the analytic tier",
    "parallel/campaigns.py::run_dataset_a_sharded(replay_cache=)":
        "serial == sharded: tests shard with the replay cache on",
    "measure/driver.py::run_dataset_b(tier=)":
        "packet == analytic: tests run Dataset B on the analytic tier",
    "measure/driver.py::run_dataset_b(replay_cache=)":
        "packet == replay: tests replay Dataset B sessions",
    "sim/analytic/gate.py::DivergenceGate.__init__(tolerance=)":
        "the gate boundary: tests demote beyond 0 and 1e-6 s",
    "sim/replay/cache.py::ReplayCache.__init__(capacity=)":
        "LRU eviction: tests fill one- and two-entry caches",
    "sim/engine.py::Simulator.__init__(start_time=)":
        "relative scheduling: a test starts the clock at 100 s",
    "net/link.py::Link.__init__(queue_limit_bytes=)":
        "tail drop: a test overflows a 250-byte queue",
    "tcp/buffers.py::Reassembler.__init__(window_bytes=)":
        "flow control: TcpConfig.receive_window_bytes, which tests set",
    "analysis/sketch.py::QuantileSketch.__init__(subbuckets=)":
        "merge rejects a sketch of another resolution (tested)",
    "cache/policy.py::ContentCache._evict_until(protect=)":
        "a resident key re-offered to a finite cache never evicts itself",
    "workload/arrivals.py::DiurnalArrivals.__init__(amplitude=)":
        "the diurnal curve's swing, which a test checks",
    "workload/arrivals.py::DiurnalArrivals.__init__(period=)":
        "the diurnal curve's period, which a test checks",
    "workload/arrivals.py::FlashCrowdArrivals.__init__(at=)":
        "where the burst starts, which a test checks",
    "workload/arrivals.py::FlashCrowdArrivals.__init__(burst=)":
        "how long the burst lasts, which a test checks",
    "workload/arrivals.py::FlashCrowdArrivals.__init__(multiplier=)":
        "how hard the burst is, which a test checks",
    # Failure handling and simlint paths that fire only on bad input.
    "http/server.py::Responder.send_head(status=)":
        "FrontEndServer._fetch_failed answers 502 before the static part",
    "lint/framework.py::FileContext.report(line=)":
        "META001 for a crashed rule or an unknown rule in a suppression",
}

#: ``python -m repro`` runs; ``{tmp}`` is a scratch directory.
MAIN_RUNS = (
    ["fig678", "--trace", "{tmp}/trace.jsonl", "--metrics"],
    ["fig678", "--trace-chrome", "{tmp}/chrome.json"],
    ["report", "{tmp}/trace.jsonl"],
    ["fig5", "fig678", "--jobs", "2", "--trace", "{tmp}/jobs.jsonl"],
    ["fig678", "--shards", "2", "--trace", "{tmp}/shards.jsonl"],
    ["fig678", "--tier", "auto"],
    ["fig678", "--tier", "analytic"],
    ["fig678", "--no-replay-cache"],
    ["lint", "src/repro"],
)
#: ``python -m repro workload`` runs, small enough to take seconds.
WORKLOAD_RUNS = (
    ["--users", "1000", "--duration", "120", "--rate", "2",
     "--events", "150", "--summary", "{tmp}/summary.json"],
    ["--arrivals", "flash", "--alpha", "1.2", "--shards", "2",
     "--events", "150"],
    ["--arrivals", "diurnal", "--events", "150", "--tier", "auto",
     "--services", "google-like,bing-akamai"],
    ["--sweep-alpha", "0.6,1.2", "--events", "100"],
    ["--events", "150", "--trace-out", "{tmp}/run.jsonl"],
    ["--trace-in", "{tmp}/run.jsonl"],
    ["--shards", "2", "--verify-serial", "--events", "150",
     "--replay-cache", "--processes", "2"],
    ["--fe-cache", "lru:131072", "--events", "150", "--batch", "32",
     "--lookahead", "60", "--keywords", "64", "--vps", "6"],
)
#: ``python -m repro.lint`` runs, from the repository root.
LINT_RUNS = (
    ["src", "tests", "benchmarks", "examples"],
    ["src", "tests", "--format", "json"],
    ["src", "--format", "sarif"],
    ["src", "--stats"],
    ["--list-rules"],
)
#: The seed the e2e bodies and their reference checks run at.
E2E_SEED = 1


class InlinePool:
    """Stands in for ``multiprocessing.Pool``: maps in this process."""

    def __init__(self, processes=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, iterable):
        return [func(item) for item in iterable]


def run_pools_inline() -> None:
    """Make :mod:`repro.parallel.pool` start no worker process.

    Replacing ``default_processes`` would not do: ``--jobs N`` and the
    workload CLI's ``--processes`` pass a pool size explicitly.
    """
    import multiprocessing
    import types

    from repro.parallel import pool

    pool.multiprocessing = types.SimpleNamespace(
        Pool=InlinePool, current_process=multiprocessing.current_process)


# ----------------------------------------------------------------------
# the functions under src/
# ----------------------------------------------------------------------
def src_functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """(file, first line) -> (``path::qualname``, lines) for every
    non-dunder function under ``src/repro``.

    The first line is the first decorator's, as a code object's
    ``co_firstlineno`` has it; lines count from the ``def``.
    """
    found = {}
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            rel = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
            _collect(tree, path, rel, "", found)
    return found


def _collect(node, path, rel, prefix, found) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, path, rel, prefix + child.name + ".", found)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            name = child.name
            if not (name.startswith("__") and name.endswith("__")):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[(path, first)] = (
                    "%s::%s" % (rel, qualname),
                    child.end_lineno - child.lineno + 1)
            _collect(child, path, rel, qualname + ".<locals>.", found)
        else:
            _collect(child, path, rel, prefix, found)


# ----------------------------------------------------------------------
# the options
# ----------------------------------------------------------------------
def record_options() -> Tuple[set, set]:
    """Wrap ``__init__`` of every config class.

    Returns (every ``Class.field``, the set the wrappers fill with each
    field constructed with a value other than its default).  Defaults
    are computed here, before wrapping, so comparing with them builds
    nothing; a field without a default counts as set.
    """
    fields, changed = set(), set()
    for module, name in CONFIG_CLASSES:
        cls = getattr(importlib.import_module(module), name)
        names, defaults = [], {}
        for field in dataclasses.fields(cls):
            names.append(field.name)
            fields.add("%s.%s" % (name, field.name))
            if field.default is not dataclasses.MISSING:
                defaults[field.name] = field.default
            elif field.default_factory is not dataclasses.MISSING:
                defaults[field.name] = field.default_factory()
        cls.__init__ = _recording_init(cls.__init__, name, names,
                                       defaults, changed)
    return fields, changed


def _recording_init(init, name, names, defaults, changed):
    missing = object()

    def recording(self, *args, **kwargs):
        for field, value in list(zip(names, args)) + list(kwargs.items()):
            if defaults.get(field, missing) is missing \
                    or value != defaults[field]:
                changed.add("%s.%s" % (name, field))
        init(self, *args, **kwargs)
    return recording


# ----------------------------------------------------------------------
# the parameters
# ----------------------------------------------------------------------
def trace_imports() -> list:
    """Install a hook that keeps (code, arguments) of every call into
    ``src/repro``: the calls the imports make run before the defaults
    can be read, so :func:`record_parameters` checks them later."""
    calls = []
    prefix = PACKAGE + os.sep

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            calls.append((frame.f_code, dict(frame.f_locals)))
        return None  # trace no lines
    sys.settrace(trace)
    return calls


def src_parameters() -> Dict[int, tuple]:
    """``id`` of a code object -> (the code, ((parameter, default,
    ``path::qualname(parameter=)``), ...)) for every function under
    ``src/repro`` with defaulted parameters.

    Imports every module first, so that every module-level function and
    method exists; the defaults are what the functions hold now.  The
    entry keeps its code object alive, so no other object takes its id.
    """
    for module in pkgutil.walk_packages([PACKAGE], "repro."):
        importlib.import_module(module.name)
    found = {}
    for func in gc.get_objects():
        if not isinstance(func, types.FunctionType):
            continue
        code = func.__code__
        if not code.co_filename.startswith(PACKAGE + os.sep):
            continue
        names = code.co_varnames[:code.co_argcount]
        defaults = func.__defaults__ or ()
        pairs = list(zip(names[len(names) - len(defaults):], defaults))
        pairs += sorted((func.__kwdefaults__ or {}).items())
        if pairs:
            label = "%s::%s(%%s=)" % (
                os.path.relpath(code.co_filename, PACKAGE).replace(
                    os.sep, "/"), func.__qualname__)
            found[id(code)] = (code, tuple(
                (name, default, label % name) for name, default in pairs))
    return found


def record_parameters(parameters: Dict[int, tuple], imports: list) -> set:
    """Install the trace hook; the set it fills with the label of each
    parameter entered with a value other than its default, starting
    with the calls ``imports`` kept."""
    passed = set()
    for code, values in imports:
        entry = parameters.get(id(code))
        if entry is not None:
            _record_passed(entry[1], values, passed)

    def trace(frame, event, arg):
        entry = parameters.get(id(frame.f_code))
        if entry is not None:
            _record_passed(entry[1], frame.f_locals, passed)
        return None  # trace no lines
    sys.settrace(trace)
    return passed


def _record_passed(pairs: tuple, values: dict, passed: set) -> None:
    for name, default, label in pairs:
        value = values[name]
        if value is not default and value != default:
            passed.add(label)


# ----------------------------------------------------------------------
# the surfaces
# ----------------------------------------------------------------------
def surfaces(tmp: str) -> List[Tuple[str, Callable[[], int]]]:
    """(label, run) for every surface; ``run`` returns an exit code."""
    from repro.__main__ import main as repro_main
    from repro.lint.cli import main as lint_main

    def fill(argv):
        return [arg.format(tmp=tmp) for arg in argv]

    runs = []
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            runs.append(("examples/" + name,
                         _example(os.path.join(examples, name))))
    for argv in MAIN_RUNS:
        runs.append(("python -m repro " + " ".join(argv),
                     _call(repro_main, fill(argv))))
    for argv in WORKLOAD_RUNS:
        runs.append(("python -m repro workload " + " ".join(argv),
                     _call(repro_main, ["workload"] + fill(argv))))
    for argv in LINT_RUNS:
        runs.append(("python -m repro.lint " + " ".join(argv),
                     _call(lint_main, fill(argv))))
    # Last: the harness patches the emulator and load sweep for good.
    runs.append(("e2e counters", _install_counters))
    from workloads import WORKLOADS
    for name in WORKLOADS:
        runs.append(("e2e " + name, _e2e(name)))
    return runs


def _call(main, argv) -> Callable[[], int]:
    return lambda: main(list(argv)) or 0


def _example(path) -> Callable[[], int]:
    def run():
        argv = sys.argv
        sys.argv = [path]
        try:
            runpy.run_path(path, run_name="__main__")
        finally:
            sys.argv = argv
        return 0
    return run


_COUNTS: Dict[str, int] = {}


def _install_counters() -> int:
    import child

    child.install_counters(_COUNTS)
    return 0


def _e2e(name) -> Callable[[], int]:
    def run():
        from profiler import null_span
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        workload.prepare()
        raw = workload.run(workload.setup(E2E_SEED), null_span)
        workload.outcome(raw)
        problems = workload.verify(E2E_SEED, raw)
        for problem in problems:
            print(problem)
        return 1 if problems else 0
    return run


def run_surfaces(profile: cProfile.Profile) -> List[str]:
    """Run every surface under ``profile``; the failures."""
    from repro import obs

    failures = []
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as tmp:
        # Import-time calls (registration decorators, tables) count.
        profile.enable()
        runs = surfaces(tmp)
        profile.disable()
        for label, run in runs:
            environ = dict(os.environ)
            output = io.StringIO()
            try:
                with contextlib.redirect_stdout(output), \
                        contextlib.redirect_stderr(output):
                    profile.enable()
                    try:
                        code = run()
                    finally:
                        profile.disable()
            except SystemExit as stop:
                code = stop.code
            except Exception:  # a surface that raises is reported
                code = "raised\n" + traceback.format_exc()
            finally:
                # Outside the profile: the CLI leaves REPRO_* variables
                # and the observability switch set behind it.
                os.environ.clear()
                os.environ.update(environ)
                obs.disable()
                obs.reset()
            print("%-4s %s" % ("ok" if code in (0, None) else "FAIL",
                               label), flush=True)
            if code not in (0, None):
                failures.append("%s: exit %s\n%s"
                                % (label, code, output.getvalue()[-2000:]))
    return failures


def reached_code(profile: cProfile.Profile) -> set:
    """(file, first line) of every function the profile saw entered."""
    reached = set()
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str):
            reached.add((code.co_filename, code.co_firstlineno))
    return reached


def main() -> int:
    os.chdir(ROOT)
    profile = cProfile.Profile()
    profile.enable()
    imports = trace_imports()
    try:
        run_pools_inline()
        fields, changed = record_options()
        parameters = src_parameters()
    finally:
        sys.settrace(None)
    profile.disable()
    passed = record_parameters(parameters, imports)
    try:
        failures = run_surfaces(profile)
    finally:
        sys.settrace(None)
    functions = src_functions()
    reached = reached_code(profile)
    unreached = {name: lines for key, (name, lines) in functions.items()
                 if key not in reached}
    unlisted = sorted(set(unreached) - set(ALLOWED))
    stale = sorted(set(ALLOWED) - set(unreached))
    blank = sorted(name for name, reason in ALLOWED.items()
                   if not reason.strip())

    print("%d functions under src/repro, %d unreached (%d lines), "
          "%d on the allow-list"
          % (len(functions), len(unreached), sum(unreached.values()),
             len(ALLOWED)))
    for failure in failures:
        print("surface failed: " + failure)
    for name in unlisted:
        print("unreached, not allow-listed: %s (%d lines)"
              % (name, unreached[name]))
    for name in stale:
        print("allow-listed, but reached or gone: " + name)
    for name in blank:
        print("allow-listed without a reason: " + name)
    problems = len(failures) + len(unlisted) + len(stale) + len(blank)
    problems += options_problems(fields, changed)
    problems += parameters_problems(parameters, passed)
    print("%d problem(s)" % problems)
    return 1 if problems else 0


def options_problems(fields: set, changed: set) -> int:
    """Print the options section; the number of problems it found."""
    unset = fields - changed
    unlisted = sorted(unset - set(OPTIONS_ALLOWED))
    stale = sorted(set(OPTIONS_ALLOWED) - unset)
    blank = sorted(name for name, reason in OPTIONS_ALLOWED.items()
                   if not reason.strip())
    print("%d fields in %d config classes, %d never set, "
          "%d on the options allow-list"
          % (len(fields), len(CONFIG_CLASSES), len(unset),
             len(OPTIONS_ALLOWED)))
    for name in unlisted:
        print("never set, not allow-listed: " + name)
    for name in stale:
        print("allow-listed option, but set or gone: " + name)
    for name in blank:
        print("allow-listed option without a reason: " + name)
    return len(unlisted) + len(stale) + len(blank)


def parameters_problems(parameters: Dict[int, tuple], passed: set) -> int:
    """Print the parameters section; the number of problems it found."""
    labels = {label for _, pairs in parameters.values()
              for _, _, label in pairs}
    unpassed = labels - passed
    unlisted = sorted(unpassed - set(PARAMETERS_ALLOWED))
    stale = sorted(set(PARAMETERS_ALLOWED) - unpassed)
    blank = sorted(name for name, reason in PARAMETERS_ALLOWED.items()
                   if not reason.strip())
    print("%d defaulted parameters in %d functions, %d never passed, "
          "%d on the allow-list"
          % (len(labels), len(parameters), len(unpassed),
             len(PARAMETERS_ALLOWED)))
    for name in unlisted:
        print("never passed, not allow-listed: " + name)
    for name in stale:
        print("allow-listed parameter, but passed or gone: " + name)
    for name in blank:
        print("allow-listed parameter without a reason: " + name)
    return len(unlisted) + len(stale) + len(blank)


if __name__ == "__main__":
    sys.exit(main())
