#!/usr/bin/env python3
"""Mutation audit of simlint: which seeded bug does each rule alone catch?

Each entry of :data:`MUTATIONS` is one edit at a real ``src/`` site (not
a lint fixture) that plants the bug class a rule targets, with the
verdict recorded for it: the rules whose unsuppressed findings the
mutant raises, whether tier-1 catches it, and whether the end-to-end
goldens do.  A rule earns its place when at least one mutation is
caught by that rule and by nothing else; ``docs/LINTING.md`` carries
the table.

The default run applies every edit to a scratch copy of ``src/repro``,
lints the copy and checks its findings against the recorded verdict,
so a rule that stops firing on its mutation, or a refactor that moves a
site, fails CI.  ``--full`` also measures the runtime checks on a
scratch copy of the repository: tier-1 without the ``test_lint_*``
files (``pytest -x``) and, when tier-1 misses, ``benchmarks/e2e/run.py
--seed 1 --seconds 1``.  It prints the verdict table and fails when a
recorded verdict moved.  Nothing is ever edited in place.

Run from anywhere (``--full`` takes about 90 minutes on a 2-vCPU
host)::

    python benchmarks/lint_audit.py
    python benchmarks/lint_audit.py --full
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Iterable, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.lint import LintRunner, all_rules, load_config  # noqa: E402

CAUGHT, MISSED = "caught", "missed"

#: The rules this audit deleted; each keeps two recorded mutations.
DELETED_RULES = ("UNIT005", "UNIT006", "UNIT007", "UNIT008", "UNIT009",
                 "DET006", "DET007", "DET008",
                 "EFF001", "EFF002", "EFF003", "RNG001", "SHARD003")

#: Bug classes the goldens cannot vouch for: the bug is a dependence
#: the e2e harness holds fixed, so a golden recorded with the bug
#: present would never show it, and a golden catch only flags the edit.
#: The children pin ``PYTHONHASHSEED=0`` (salted hashes, set order),
#: and a key namespace is fixed when a golden is recorded (RNG lineage).
GOLDEN_BLIND = ("DET004", "DET005", "RNG002", "RNG003")

#: Limits on one runtime check of one mutant (a hang counts as caught).
TIER1_TIMEOUT = 1800.0
GOLDENS_TIMEOUT = 900.0


@dataclasses.dataclass(frozen=True)
class Mutation:
    """One seeded bug and what catches it."""

    id: str
    #: the rule whose bug class the edit plants
    rule: str
    #: file under the repository root
    path: str
    old: str
    new: str
    #: rules with unsuppressed findings on the mutant, sorted
    lint: Tuple[str, ...]
    tier1: str
    #: "" when tier-1 already catches it (the goldens are not run)
    goldens: str
    note: str

    def only_catcher(self) -> Optional[str]:
        """The one rule that alone catches this mutation, if any."""
        if len(self.lint) != 1 or self.tier1 == CAUGHT:
            return None
        if self.goldens == CAUGHT and self.rule not in GOLDEN_BLIND:
            return None
        return self.lint[0]


def _m(id, rule, path, old, new, lint, tier1, goldens, note):
    return Mutation(id, rule, "src/repro/" + path, old, new,
                    tuple(sorted(lint)), tier1, goldens, note)


C, M = CAUGHT, MISSED

MUTATIONS: Tuple[Mutation, ...] = (
    # -- determinism: kept DET001-DET005 ---------------------------------
    _m("C1", "DET001", "__main__.py",
       'parser.add_argument("--seed", type=int, default=1)',
       'parser.add_argument("--seed", type=int,\n'
       '                        default=int(time.time()) % 1000)',
       ["DET001"], M, M,
       "the CLI's default seed comes from the host clock: two runs "
       "without --seed differ; every test and golden passes a seed"),
    _m("C2", "DET002", "workload/cli.py",
       '    parser.add_argument("--seed", type=int, default=1,',
       '    import os\n'
       '    parser.add_argument("--seed", type=int,\n'
       '                        default=os.urandom(1)[0],',
       ["DET002"], M, M,
       "the workload CLI's default seed is OS entropy; every test and "
       "golden passes a seed"),
    _m("M1", "DET003", "content/page.py",
       "            selector = css_rng.choice(selectors)",
       "            selector = random.choice(selectors)",
       ["DET003"], M, M,
       "static page bytes come from the global generator: they differ "
       "from run to run and shard to shard, but only sizes are compared"),
    _m("D1", "DET004", "tcp/host.py",
       '        seed = derive_seed(self.streams.seed, "isn/%s" % flow)',
       '        seed = hash("isn/%s" % flow)',
       ["DET004"], M, C,
       "ISNs from the salted hash(): stable within a process, so "
       "in-process comparisons agree; the golden flags only the edit"),
    _m("O1", "DET005", "measure/streaming.py",
       "        for event in batch:\n"
       "            # Absolute-time scheduling",
       "        for event in set(batch):\n"
       "            # Absolute-time scheduling",
       ["DET005"], C, "",
       "equal-time submissions (one VP's services in a round) reach the "
       "queue in salted hash order; the sharded-vs-serial trace test "
       "catches it"),
    _m("O2", "DET005", "experiments/fig4.py",
       "            for keyword in CALIBRATION_KEYWORDS[:2]:",
       "            for keyword in set(CALIBRATION_KEYWORDS[:2]):",
       ["DET005"], M, M,
       "Fig. 4's two calibration queries enter its plan in salted hash "
       "order: which keyword goes first differs between processes"),
    # -- units: kept UNIT001-UNIT004 -------------------------------------
    _m("U1", "UNIT006", "services/backend.py",
       "        self.sim.schedule(tproc, self._respond, responder, keyword,",
       "        from repro.sim import units\n"
       "        self.sim.schedule(units.seconds_to_ms(tproc), "
       "self._respond,\n"
       "                          responder, keyword,",
       ["UNIT001"], C, "",
       "Tproc scheduled in ms; before its deletion UNIT006 did not "
       "fire, UNIT001 did"),
    _m("U4", "UNIT009", "experiments/fig9.py",
       "    points = build_distance_points(metrics_by_fe, distances,\n"
       "                                   max_client_rtt=units.ms(40))",
       "    points = build_distance_points(metrics_by_fe, distances,\n"
       "                                   max_client_rtt=units.ms(units.ms("
       "40)))",
       ["UNIT001"], C, "",
       "a double conversion; before its deletion UNIT009 fired with "
       "UNIT001"),
    _m("U9", "UNIT004", "experiments/fig9.py",
       "    points = build_distance_points(metrics_by_fe, distances,\n"
       "                                   max_client_rtt=units.ms(40))\n"
       "    samples = build_sample_pairs(metrics_by_fe, distances,\n"
       "                                 max_client_rtt=units.ms(40))",
       "    max_rtt_ms = units.ms(40)\n"
       "    points = build_distance_points(metrics_by_fe, distances,\n"
       "                                   max_client_rtt=max_rtt_ms)\n"
       "    samples = build_sample_pairs(metrics_by_fe, distances,\n"
       "                                 max_client_rtt=max_rtt_ms)",
       ["UNIT004"], M, M,
       "a name that lies: max_rtt_ms holds seconds; behaviour is "
       "unchanged until someone trusts the suffix"),
    _m("U11", "UNIT001", "cache/tier.py",
       "                    self._fill_above(key, cache.size_of(key), level)",
       "                    size_kb = cache.size_of(key)\n"
       "                    self._fill_above(key, size_kb, level)",
       ["UNIT001"], M, M,
       "a KB-named local carries bytes into a bytes parameter; "
       "behaviour is unchanged until someone trusts the suffix"),
    _m("U12", "UNIT002", "net/link.py",
       "        backlog = busy - now\n"
       "        backlog = backlog * bandwidth if backlog > 0.0 else 0.0\n"
       "        if backlog + size > self.queue_limit_bytes:",
       "        backlog_s = busy - now\n"
       "        if backlog_s + packet.size_bytes > self.queue_limit_bytes:",
       ["UNIT002"], C, "",
       "tail drop compares seconds plus bytes with a byte limit, so the "
       "queue limit never binds"),
    _m("U13", "UNIT002", "net/link.py",
       "        backlog = busy - now\n"
       "        backlog = backlog * bandwidth if backlog > 0.0 else 0.0\n"
       "        if backlog + size > self.queue_limit_bytes:",
       "        backlog_kb = busy - now\n"
       "        backlog_kb = backlog_kb * bandwidth if backlog_kb > 0.0 "
       "else 0.0\n"
       "        if backlog_kb + packet.size_bytes > self.queue_limit_bytes:",
       ["UNIT002"], M, M,
       "a name that lies: backlog_kb holds bytes; behaviour is "
       "unchanged until someone trusts the suffix"),
    _m("U10", "UNIT003", "cache/policy.py",
       "            self.used_bytes += size_bytes - entry.size_bytes\n"
       "            entry.size_bytes = size_bytes",
       "            growth_kb = size_bytes - entry.size_bytes\n"
       "            self.used_bytes += growth_kb\n"
       "            entry.size_bytes = size_bytes",
       ["UNIT003"], M, M,
       "a name that lies: growth_kb holds bytes; behaviour is unchanged "
       "until someone trusts the suffix"),
    # -- units: deleted UNIT005-UNIT009 ----------------------------------
    _m("U3", "UNIT005", "core/threshold.py",
       "        threshold = min(threshold, zero_bin_rtt + bin_width)",
       "        from repro.sim import units\n"
       "        threshold = min(threshold,\n"
       "                        zero_bin_rtt + units.seconds_to_ms(bin_width))",
       [], M, C,
       "s + ms in the Fig. 5 threshold clamp; the figures golden "
       "catches it"),
    _m("U6", "UNIT005", "net/link.py",
       "        tx_done = start + size / bandwidth",
       "        from repro.sim import units\n"
       "        tx_done = start + units.seconds_to_ms(size / bandwidth)",
       [], C, "",
       "serialization time added in ms"),
    _m("U7", "UNIT006", "measure/streaming.py",
       '            _obs.metrics.observe("stream.session.duration", '
       'duration,',
       '            _obs.metrics.observe("stream.session.duration",\n'
       '                                 units.seconds_to_ms(duration),',
       [], C, "",
       "the duration histogram, bounded in seconds, is fed ms"),
    _m("U14", "UNIT007", "cache/tier.py",
       "        return self.spec.regional_fetch_delay",
       "        from repro.sim import units\n"
       "        return units.seconds_to_ms(self.spec.regional_fetch_delay)",
       [], C, "",
       "a regional-tier hit returns its extra delay in ms, a top-tier "
       "hit 0.0"),
    _m("U15", "UNIT007", "measure/session.py",
       "        return self.completed_at - self.started_at",
       "        from repro.sim import units\n"
       "        if self.failed:\n"
       "            return units.seconds_to_ms(self.completed_at\n"
       "                                       - self.started_at)\n"
       "        return self.completed_at - self.started_at",
       [], M, M,
       "failed sessions report their duration in ms; nothing reads "
       "it, and UNIT007 did not fire on it either"),
    _m("U2", "UNIT008", "sim/executor.py",
       "        guard = isolation_guard(session.path_rtt)",
       "        from repro.sim import units\n"
       "        guard = isolation_guard(units.seconds_to_ms("
       "session.path_rtt))",
       [], C, "",
       "the fast-path isolation guard gets an RTT in ms"),
    _m("U16", "UNIT008", "sim/executor.py",
       "            session.events = materialize_events(\n"
       "                timeline, start, session.vp_name, session.fe_name,",
       "            from repro.sim import units\n"
       "            session.events = materialize_events(\n"
       "                timeline, units.seconds_to_ms(start),\n"
       "                session.vp_name, session.fe_name,",
       [], C, "",
       "materialized packet events are shifted by a start in ms"),
    _m("U17", "UNIT009", "tcp/config.py",
       "    min_rto: float = units.ms(200)",
       "    min_rto: float = units.ms(units.ms(200))",
       ["UNIT001"], C, "",
       "a 0.2 ms minimum RTO; UNIT001 fires too"),
    _m("U5", "UNIT009", "tcp/config.py",
       "    delayed_ack_timeout: float = units.ms(40)",
       "    delayed_ack_timeout: float = 40",
       [], C, "",
       "a 40 s delayed-ACK timer; the delayed-ACK tests catch it since "
       "they check the ACK's arrival time; no unit rule ever could"),
    # -- determinism flow: deleted DET006-DET008 -------------------------
    _m("F1", "DET006", "services/frontend.py",
       "        static_level = 0\n"
       "        if self.cache_static:",
       "        import time\n"
       "        delay = delay + time.monotonic() % 1e-6\n"
       "        static_level = 0\n"
       "        if self.cache_static:",
       ["DET001"], C, "",
       "host time flows into the FE's schedule() delay; DET001 fires "
       "at the source"),
    _m("F2", "DET006", "services/backend.py",
       "        self.sim.schedule(tproc, self._respond, responder, keyword,",
       "        import random\n"
       "        tproc = tproc + random.random() * 1e-6\n"
       "        self.sim.schedule(tproc, self._respond, responder, keyword,",
       ["DET003"], C, "",
       "a module-random jitter flows into Tproc's schedule(); DET003 "
       "fires at the source"),
    _m("F3", "DET007", "tcp/host.py",
       '        seed = derive_seed(self.streams.seed, "isn/%s" % flow)',
       "        import time\n"
       '        seed = derive_seed(int(time.time()), "isn/%s" % flow)',
       ["DET001"], C, "",
       "a clock value seeds the ISN; DET001 fires at the source"),
    _m("F4", "DET007", "cache/policy.py",
       "        self._admit_seq += 1\n"
       "        rng = random.Random(derive_seed(",
       "        import os\n"
       "        self._admit_seq += 1\n"
       "        rng = random.Random(os.urandom(1)[0] + derive_seed(",
       ["DET002"], C, "",
       "OS entropy seeds the admission draw; DET002 fires at the source"),
    _m("F5", "DET008", "obs/export.py",
       '    header = {"kind": "header", "schema": SCHEMA_NAME,',
       "    import time\n"
       '    header = {"kind": "header", "schema": SCHEMA_NAME,\n'
       '              "exported_at": time.time(),',
       ["DET001"], C, "",
       "host time in the JSONL export header; DET001 fires at the "
       "source"),
    _m("F6", "DET008", "obs/export.py",
       "        span_id = len(records)",
       "        import uuid\n"
       "        span_id = uuid.uuid4().hex",
       ["DET002"], C, "",
       "random span ids in the JSONL export; DET002 fires at the "
       "source"),
    # -- events: kept EVT001-EVT003 --------------------------------------
    _m("A1", "EVT001", "experiments/ablation.py",
       "            if end is not None:\n"
       "                direct_durations.append(end - start)\n",
       "            if end is not None:\n"
       "                direct_durations.append(end - start)\n"
       "            else:\n"
       "                sim.run()  # drain the failed fetch first\n",
       ["EVT001"], M, M,
       "a failed direct fetch re-enters Simulator.run() from its "
       "callback, which raises; no test or golden fails a fetch there"),
    _m("A2", "EVT002", "experiments/ablation.py",
       "            if end is not None:\n"
       "                direct_durations.append(end - start)\n"
       "            sim.schedule(scale.interval, split_query, index + 1)",
       "            if end is None:\n"
       "                sim.schedule(-1.0, split_query, index + 1)\n"
       "                return\n"
       "            direct_durations.append(end - start)\n"
       "            sim.schedule(scale.interval, split_query, index + 1)",
       ["EVT002"], M, M,
       "a failed direct fetch retries with a negative delay, which "
       "raises; no test or golden fails a fetch there"),
    _m("V1", "EVT003", "tcp/connection.py",
       "                self._delack_timer = self.sim.schedule(\n"
       "                    self.config.delayed_ack_timeout, "
       "self._delack_fire)",
       "                self.sim.schedule(\n"
       "                    self.config.delayed_ack_timeout, "
       "self._delack_fire)",
       ["EVT003"], C, "",
       "every segment arms another delayed-ACK timer; the pinned "
       "pure-ACK count of the bulk delayed-ACK test catches it"),
    _m("V2", "EVT003", "tcp/connection.py",
       "            # the remainder.\n"
       "            self._rto_timer = self.sim.call_at(deadline, "
       "self._on_rto)",
       "            # the remainder.\n"
       "            self.sim.call_at(deadline, self._on_rto)",
       ["EVT003"], M, M,
       "the re-armed RTO wake-up is orphaned: _cancel_rto cannot cancel "
       "it, so it keeps the queue busy past quiesce"),
    # -- shards: kept SHARD001-SHARD002 ----------------------------------
    _m("H1", "SHARD001", "sim/analytic/manager.py",
       "def tier_mode(explicit: Optional[str] = None) -> str:",
       "def tier_mode(explicit: Optional[str] = None) -> str:\n"
       "    global _LAST_TIER\n"
       "    _LAST_TIER = explicit",
       ["SHARD001"], M, M,
       "a worker records module state the parent never sees; inert "
       "until something reads it"),
    _m("H2", "SHARD002", "obs/metrics.py",
       "            for name, value in snap.counters.items():\n"
       "                counters[name] = counters.get(name, 0) + value",
       "            for name in set(snap.counters):\n"
       "                counters.setdefault(name, 0)\n"
       "                counters[name] += snap.counters[name]",
       ["SHARD002"], M, M,
       "merged counters come out in salted set order; every exporter "
       "sorts today, so only dict order moves"),
    # -- shards: deleted SHARD003 ----------------------------------------
    _m("S4", "SHARD003", "parallel/pool.py",
       "        return [_call_captured(call) for call in calls]",
       "        return [worker(arg) for arg in shard_args]",
       [], C, "",
       "inline shard calls record into the caller's capture, which then "
       "absorbs the merged shard captures too: every span and metric "
       "counts twice; the inline-fallback obs tests catch it"),
    _m("S5", "SHARD003", "__main__.py",
       "    with obs.capture() as captured:\n"
       "        text = EXPERIMENTS[name](scale)\n",
       "    text = EXPERIMENTS[name](scale)\n"
       "    captured = obs.Capture() if obs.enabled() else None\n"
       "    if captured is not None:\n"
       "        captured.tracer.absorb(obs.runtime.tracer.spans)\n"
       "        captured.metrics.absorb(obs.runtime.metrics.snapshot())\n",
       [], C, "",
       "the experiment worker returns a copy of the live runtime: "
       "`python -m repro --trace` without --jobs exports every session "
       "again for each later experiment; the CLI trace test catches "
       "it"),
    # -- RNG lineage: kept RNG001-RNG003 ---------------------------------
    _m("R1", "RNG001", "services/load.py",
       "            keyed = streams.keyed(stream_name, key)\n"
       "            noise = keyed.lognormvariate(0.0, self.sigma)\n"
       "        else:\n"
       "            noise = streams.lognormal(stream_name, 0.0, self.sigma)",
       "            noise = streams.lognormal(stream_name, 0.0, self.sigma)\n"
       "        else:\n"
       "            noise = streams.lognormal(stream_name, 0.0, self.sigma)",
       [], C, "",
       "Tproc noise from the shared stream; RNG001 missed it, since "
       "the BE handler is not on the resolved shard call graph"),
    _m("G2", "RNG001", "testbed/scenario.py",
       "        rng = random.Random(derive_seed(\n"
       '            self.streams.seed, "dns/%s/%s" % (service_name, '
       "vp.name)))",
       '        rng = self.streams.get("dns/%s/%s" % (service_name, '
       "vp.name))",
       [], C, "",
       "with dns_variance > 0 the FE mapping follows lookup order; "
       "the DNS determinism test catches it, as RNG001 did"),
    _m("G1", "RNG002", "testbed/scenario.py",
       '            self.streams.seed, "dns/%s/%s" % (service_name, '
       "vp.name)))",
       '            self.streams.seed, "%s/%s" % (service_name, '
       "vp.name)))",
       ["RNG002"], M, M,
       "a prefix-less DNS key namespace can collide with every other "
       "keyed namespace"),
    _m("K1", "RNG003", "cache/policy.py",
       "        self._evict_seq += 1\n"
       "        rng = random.Random(derive_seed(\n"
       '            self._seed, "cache/%s/evict#%d" % (self.name, '
       "self._evict_seq)))",
       "        rng = random.Random(derive_seed(\n"
       '            self._seed, "cache/%s/evict#%d" % (self.name, '
       "self._admit_seq)))",
       ["RNG003"], M, C,
       "random-policy victims are keyed by the admission counter, so "
       "every eviction between two admissions reuses one key"),
    # -- effect parity: deleted EFF001-EFF003 ----------------------------
    _m("E1", "EFF001", "measure/emulator.py",
       "        service.register_keywords([keyword])\n"
       "        session = QuerySession(",
       "        session = QuerySession(",
       [], C, "",
       "no session registers its keyword, on any path: the back-end "
       "builds pages from fallback keyword attributes the analytic model "
       "does not use; the analytic-vs-packet test catches it"),
    _m("E2", "EFF001", "sim/executor.py",
       "            frontend.record_replayed_fetch(\n"
       "                query_id, start + timeline.forward_offset,\n"
       "                start + timeline.fetch_completed_offset,\n"
       "                timeline.fetch_size)\n",
       "",
       [], C, "",
       "fast-path sessions leave no FE fetch record or counters"),
    _m("E3", "EFF002", "sim/executor.py",
       "        def server_effects() -> None:\n",
       "        def server_effects() -> None:\n"
       "            backend.record_replayed_query(\n"
       "                query_id, timeline.keyword_text,\n"
       "                start + timeline.be_arrival_offset, timeline.tproc,\n"
       "                timeline.be_response_size,\n"
       "                start + timeline.be_completed_offset)\n",
       [], C, "",
       "every fast-path query counted twice at the BE; EFF002 missed "
       "it (the signature is in the contract); the footprint test "
       "catches it"),
    _m("E4", "EFF002", "sim/executor.py",
       "        def complete() -> None:\n",
       "        def complete() -> None:\n"
       "            frontend.static_hit_log[query_id] = 0\n",
       [], C, "",
       "fast-path sessions fabricate static-cache ground truth"),
    _m("E5", "EFF003", "services/frontend.py",
       "            # Keeps fe.requests == requests_served under replay too.\n"
       '            _obs.metrics.inc("fe.requests")',
       "            # Keeps fe.requests == requests_served under replay too.\n"
       "            from repro.obs.metrics import SCOPE_SIM\n"
       '            _obs.metrics.inc("fe.requests", scope=SCOPE_SIM)',
       [], M, M,
       "unobservable: the replayed fe.requests write is sim-scope, but "
       "the registry keeps the scope of a name's first write, always "
       "a packet-path session"),
    _m("E6", "EFF003", "services/backend.py",
       "            # Keeps be.queries == queries_served under replay too.\n"
       '            _obs.metrics.inc("be.queries")',
       "            # Keeps be.queries == queries_served under replay too.\n"
       "            from repro.obs.metrics import SCOPE_SIM\n"
       '            _obs.metrics.inc("be.queries", scope=SCOPE_SIM)',
       [], M, M,
       "unobservable, as E5, for be.queries"),
)


# ---------------------------------------------------------------------------
# applying mutations
# ---------------------------------------------------------------------------
def _copy(dest: str, full: bool) -> None:
    """Copy the repository (or only its ``src/``) to ``dest``."""
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache",
        ".benchmarks", ".e2e_results*", "*.egg-info")
    if full:
        shutil.copytree(ROOT, dest, ignore=ignore)
    else:
        shutil.copytree(os.path.join(ROOT, "src"),
                        os.path.join(dest, "src"), ignore=ignore)


def apply(mutation: Mutation, root: str) -> str:
    """Edit ``mutation`` into the copy at ``root``; returns the original
    text of the file so the caller can restore it."""
    path = os.path.join(root, mutation.path)
    with open(path) as handle:
        text = handle.read()
    count = text.count(mutation.old)
    if count != 1:
        raise SystemExit("%s: the edit's old text occurs %d times in %s"
                         % (mutation.id, count, mutation.path))
    with open(path, "w") as handle:
        handle.write(text.replace(mutation.old, mutation.new))
    return text


def restore(mutation: Mutation, root: str, text: str) -> None:
    with open(os.path.join(root, mutation.path), "w") as handle:
        handle.write(text)


def lint_rules(root: str) -> Tuple[str, ...]:
    """Rules with unsuppressed findings on the ``src/repro`` at ``root``."""
    runner = LintRunner(load_config(os.path.join(ROOT, "pyproject.toml")))
    findings = runner.run_paths([os.path.join(root, "src", "repro")])
    if runner.errors:
        raise SystemExit("simlint could not analyze %s" % root)
    return tuple(sorted({f.rule for f in findings if not f.suppressed}))


def _run(argv: List[str], root: str, timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("REPRO_TIER", None)
    try:
        result = subprocess.run(argv, cwd=root, env=env, timeout=timeout,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return CAUGHT
    return CAUGHT if result.returncode else MISSED


def tier1(root: str) -> str:
    return _run([sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider",
                 "--ignore-glob=*/test_lint_*.py"], root, TIER1_TIMEOUT)


def goldens(root: str) -> str:
    return _run([sys.executable, "benchmarks/e2e/run.py", "--seed", "1",
                 "--seconds", "1"], root, GOLDENS_TIMEOUT)


# ---------------------------------------------------------------------------
# checks and report
# ---------------------------------------------------------------------------
def coverage_problems(mutations: Iterable[Mutation]) -> List[str]:
    """What the recorded table fails to show: a kept rule without a
    mutation only it catches, or a deleted rule still registered or
    with fewer than two mutations."""
    mutations = list(mutations)
    kept = set(all_rules())
    problems = []
    for rule in sorted(kept):
        if not any(m.only_catcher() == rule for m in mutations):
            problems.append("%s: no recorded mutation only it catches"
                            % rule)
    for rule in DELETED_RULES:
        if rule in kept:
            problems.append("%s is still registered" % rule)
        if sum(1 for m in mutations if m.rule == rule) < 2:
            problems.append("%s: fewer than two recorded mutations"
                            % rule)
    for m in mutations:
        if m.rule not in kept and m.rule not in DELETED_RULES:
            problems.append("%s aims at unknown rule %s" % (m.id, m.rule))
    return problems


def table(mutations: Iterable[Mutation]) -> str:
    """The verdict table of docs/LINTING.md, in Markdown."""
    lines = ["| id | aimed at | site | simlint | tier-1 | goldens "
             "| only catcher | what the edit does |",
             "|---|---|---|---|---|---|---|---|"]
    for m in mutations:
        golden = m.goldens or "–"
        if m.goldens == CAUGHT and m.rule in GOLDEN_BLIND:
            golden += " (does not count)"
        lines.append("| %s | %s | `%s` | %s | %s | %s | %s | %s |" % (
            m.id, m.rule, m.path[len("src/repro/"):],
            ", ".join(m.lint) or "–", m.tier1, golden,
            m.only_catcher() or "–", m.note))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seed each rule's bug class into a scratch copy of "
                    "src/ and check what catches it.")
    parser.add_argument("--full", action="store_true",
                        help="also run tier-1 and the e2e goldens on "
                             "every mutant and print the verdict table")
    args = parser.parse_args(argv)
    problems = coverage_problems(MUTATIONS)
    measured = []
    with tempfile.TemporaryDirectory(prefix="lint-audit-") as tmp:
        scratch = os.path.join(tmp, "repo")
        _copy(scratch, args.full)
        if lint_rules(scratch):
            problems.append("the unmutated tree has findings")
        for mutation in MUTATIONS:
            original = apply(mutation, scratch)
            try:
                seen = dataclasses.replace(mutation,
                                           lint=lint_rules(scratch))
                if args.full:
                    caught = tier1(scratch)
                    seen = dataclasses.replace(
                        seen, tier1=caught,
                        goldens=goldens(scratch) if caught == MISSED
                        else "")
            finally:
                restore(mutation, scratch, original)
            measured.append(seen)
            print("%-4s %-8s %s" % (seen.id, seen.rule, " | ".join(
                [", ".join(seen.lint) or "-"]
                + ([seen.tier1, seen.goldens or "-"] if args.full
                   else []))), flush=True)
            if seen.lint != mutation.lint:
                problems.append("%s: simlint reports %s, recorded %s"
                                % (seen.id, seen.lint or "nothing",
                                   mutation.lint or "nothing"))
            if args.full and (seen.tier1, seen.goldens) \
                    != (mutation.tier1, mutation.goldens):
                problems.append("%s: tier-1 %s, goldens %s; recorded %s, %s"
                                % (seen.id, seen.tier1, seen.goldens or "-",
                                   mutation.tier1,
                                   mutation.goldens or "-"))
    if args.full:
        print()
        print(table(measured))
    for problem in problems:
        print("PROBLEM " + problem)
    print("%d mutation(s), %d problem(s)" % (len(MUTATIONS),
                                            len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
