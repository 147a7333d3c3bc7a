"""Command-line entry point: regenerate the paper's evaluation.

Runs every figure/section experiment at the requested scale and prints
the full report.

Usage::

    python -m repro                     # all experiments, tiny scale
    python -m repro --scale small       # larger campaign
    python -m repro fig5 fig9           # a subset
    python -m repro --jobs 4            # experiments in parallel
    python -m repro fig678 --shards 4   # shard the Dataset-A campaign
    python -m repro lint src/repro      # static analysis (simlint)
    python -m repro workload --users 10000 --shards 4   # open-loop
    python -m repro workload --sweep-alpha 0.6,0.8,1.0,1.2
    python -m repro fig678 --trace t.jsonl --metrics   # observability
    python -m repro report t.jsonl      # summarize a trace export
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obs
from repro.experiments import (
    ExperimentScale,
    run_cache_ablation,
    run_cache_lab,
    run_idle_reset_ablation,
    run_keyword_effects,
    run_residential,
    run_caching_experiment,
    run_dataset_a_experiment,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_interactive,
    run_loss_ablation,
    run_placement_ablation,
    run_split_tcp_ablation,
    run_validation,
)
from repro.experiments import report


def _dataset_a_bundle(scale):
    experiment = run_dataset_a_experiment(scale)
    return "\n\n".join([
        report.render_fig6(run_fig6(experiment=experiment)),
        report.render_fig7(run_fig7(experiment=experiment)),
        report.render_fig8(run_fig8(experiment=experiment)),
    ])


#: name -> callable(scale) -> rendered text
EXPERIMENTS = {
    "fig3": lambda scale: report.render_fig3(run_fig3(scale)),
    "fig4": lambda scale: report.render_fig4(run_fig4(scale)),
    "fig5": lambda scale: report.render_fig5(run_fig5(scale)),
    "fig678": _dataset_a_bundle,
    "fig9": lambda scale: report.render_fig9(run_fig9(scale)),
    "caching": lambda scale: "\n\n".join([
        report.render_caching(run_caching_experiment(scale)),
        report.render_caching(run_caching_experiment(
            scale, fe_caches_results=True))]),
    "cachelab": lambda scale: report.render_cache_lab(
        run_cache_lab(scale)),
    "bounds": lambda scale: report.render_validation(
        run_validation(scale)),
    "interactive": lambda scale: report.render_interactive(
        run_interactive(scale)),
    "ablations": lambda scale: "\n".join([
        report.render_split_tcp(run_split_tcp_ablation(scale)),
        report.render_cache_ablation(run_cache_ablation(scale)),
        report.render_placement(run_placement_ablation(scale)),
        report.render_idle_reset(run_idle_reset_ablation(scale)),
        report.render_loss(run_loss_ablation(scale))]),
    "residential": lambda scale: _render_residential(scale),
    "keywords": lambda scale: _render_keyword_effects(scale),
    "whatif": lambda scale: _render_whatif(scale),
    "load": lambda scale: _render_load(scale),
}


def _render_residential(scale):
    from repro.experiments.residential import render_residential
    return render_residential(run_residential(scale))


def _render_keyword_effects(scale):
    from repro.experiments.keyword_effects import render_keyword_effects
    return render_keyword_effects(run_keyword_effects(scale))


def _render_whatif(scale):
    from repro.experiments.whatif import render_whatif, run_whatif
    return render_whatif(run_whatif(scale))


def _render_load(scale):
    from repro.experiments.load_sensitivity import (
        render_load_sensitivity,
        run_load_sensitivity,
    )
    return render_load_sensitivity(run_load_sensitivity(scale))


def _experiment_worker(task):
    """Run one experiment (pool worker; must stay module-level).

    Returns the experiment's name, text, wall time and its
    :func:`repro.obs.capture` (None with tracing off), which main()
    absorbs whether the worker ran inline or in a --jobs process.
    """
    name, scale = task
    # Wall-clock here times the CLI itself, not the simulation.
    start = time.time()  # simlint: ignore[DET001]
    with obs.capture() as captured:
        text = EXPERIMENTS[name](scale)
    elapsed = time.time() - start  # simlint: ignore[DET001]
    return name, text, elapsed, captured


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main
        return lint_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.obs.report import main as report_main
        return report_main(argv[1:])
    if argv and argv[0] == "workload":
        from repro.workload.cli import main as workload_main
        return workload_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures from the simulated "
                    "measurement universe.  The `lint` subcommand runs "
                    "simlint instead (see `python -m repro lint --help`).")
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="subset to run (default: all); one of: %s"
                             % ", ".join(EXPERIMENTS))
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "paper"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the selected experiments in up to N "
                             "worker processes (default: 1, inline)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="shard campaign simulations across N "
                             "processes where supported (Dataset A; "
                             "same results as serial, see "
                             "docs/PERFORMANCE.md)")
    parser.add_argument("--no-replay-cache", action="store_true",
                        help="disable the session-replay cache "
                             "(repro.sim.replay), which memoizes "
                             "repeated query timelines and serves "
                             "packet-tier sessions under every --tier; "
                             "equivalent to REPRO_REPLAY_CACHE=0.  The "
                             "cache changes no results, only wall-clock "
                             "time (see docs/PERFORMANCE.md)")
    parser.add_argument("--tier", default=None,
                        choices=("analytic", "packet", "auto"),
                        help="campaign execution tier (repro.sim."
                             "analytic): 'packet' puts every session on "
                             "the packet tier (default), 'auto' serves "
                             "admitted sessions from the closed-form "
                             "model with seeded packet-level validation "
                             "and divergence gating, 'analytic' trusts "
                             "the model outright; on every tier the "
                             "replay cache serves packet-tier sessions "
                             "it can; equivalent to REPRO_TIER (see "
                             "docs/PERFORMANCE.md)")
    parser.add_argument("--trace", metavar="PATH",
                        help="enable observability (repro.obs) and "
                             "write the JSONL span/metric export here; "
                             "equivalent to REPRO_TRACE=PATH (see "
                             "docs/OBSERVABILITY.md)")
    parser.add_argument("--trace-chrome", metavar="PATH",
                        help="enable observability and write a Chrome "
                             "trace-event JSON viewable in "
                             "about:tracing / Perfetto")
    parser.add_argument("--metrics", action="store_true",
                        help="enable observability and print the "
                             "plain-text campaign summary (span "
                             "counts, engine/TCP/replay-cache "
                             "metrics) after the experiments")
    args = parser.parse_args(argv)

    unknown = [name for name in args.experiments
               if name not in EXPERIMENTS]
    if unknown:
        parser.error("unknown experiment(s) %s; choose from %s"
                     % (", ".join(unknown), ", ".join(EXPERIMENTS)))
    if args.shards is not None:
        if args.shards < 1:
            parser.error("--shards must be >= 1")
        # Plumbed via the environment so every runner (and the worker
        # processes of --jobs) sees it without new signatures.
        os.environ["REPRO_CAMPAIGN_SHARDS"] = str(args.shards)
    if args.no_replay_cache:
        os.environ["REPRO_REPLAY_CACHE"] = "0"
    if args.tier is not None:
        # Plumbed via the environment so drivers and campaign shards
        # pick it up without new signatures on every runner.
        os.environ["REPRO_TIER"] = args.tier
    trace_path = args.trace or obs.env_trace_path()
    if args.trace or args.trace_chrome or args.metrics:
        # map_shards hands the switch to --jobs and --shards workers.
        obs.enable()
    scale = getattr(ExperimentScale, args.scale)(seed=args.seed)
    names = args.experiments or list(EXPERIMENTS)

    tasks = [(name, scale) for name in names]
    if args.jobs > 1:
        from repro.parallel import map_shards
        results = map_shards(_experiment_worker, tasks,
                             processes=args.jobs)
    else:
        # Inline keeps output streaming as each experiment finishes.
        results = map(_experiment_worker, tasks)
    for name, text, elapsed, captured in results:
        print("=" * 72)
        print(text)
        print("[%s completed in %.1fs]" % (name, elapsed))
        print()
        if captured is not None:
            obs.absorb(captured)
    if obs.enabled():
        if trace_path:
            obs.export_jsonl(trace_path)
            print("[trace: wrote JSONL schema v1 to %s]" % trace_path)
        if args.trace_chrome:
            obs.export_chrome(args.trace_chrome)
            print("[trace: wrote Chrome trace-event JSON to %s]"
                  % args.trace_chrome)
        if args.metrics:
            print(obs.render_summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
