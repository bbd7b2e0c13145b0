"""Command-line interface for the KML reproduction.

Subcommands mirror the paper's workflow stages:

    repro collect    collect labeled training windows (tracepoints -> features)
    repro train      train the readahead classifier and save a .kml model
    repro sweep      build the workload -> best-readahead table
    repro run        run a workload vanilla vs with the KML agent, then
                     report where the KML run's time went (metrics, spans)
    repro inspect    describe a saved .kml model file
    repro faults     inject faults: named scenarios or the crash matrix

Invoke as ``python -m repro <subcommand> --help``.

Exit codes are distinct by failure class so scripts can branch on them:
0 success, 1 unexpected error, 2 usage error, 3 file/I-O error, 4
damaged model file, 5 bad configuration value.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__

__all__ = ["main", "build_parser"]

#: Exit codes (stable; scripts and tests rely on the distinction).
EXIT_ERROR = 1          # unexpected failure
EXIT_USAGE = 2          # bad arguments (argparse uses 2 as well)
EXIT_IO = 3             # missing file / OS-level I/O failure
EXIT_MODEL_FORMAT = 4   # damaged or unreadable .kml model image
EXIT_CONFIG = 5         # semantically invalid configuration value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KML (HotStorage '21) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="collect training data")
    collect.add_argument("--output", required=True, help=".npz output path")
    collect.add_argument("--device", default="nvme", choices=("nvme", "ssd"))
    collect.add_argument("--num-keys", type=int, default=60_000)
    collect.add_argument("--value-size", type=int, default=400)
    collect.add_argument("--cache-pages", type=int, default=512)
    collect.add_argument("--windows-per-value", type=int, default=3)
    collect.add_argument("--seed", type=int, default=42)

    train = sub.add_parser("train", help="train the readahead classifier")
    train.add_argument("--data", required=True, help=".npz from `collect`")
    train.add_argument("--output", required=True, help=".kml model path")
    train.add_argument("--epochs", type=int, default=400)
    train.add_argument("--kfold", type=int, default=0,
                       help="also report k-fold CV accuracy (0 = skip)")
    train.add_argument("--model", default="nn", choices=("nn", "tree"))
    train.add_argument("--dtype", default="float32",
                       choices=("float32", "float64", "fixed32"))
    train.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="build the best-readahead table")
    sweep.add_argument("--output", required=True, help="tuning .json path")
    sweep.add_argument("--devices", default="nvme,ssd")
    sweep.add_argument("--ra-values", default="8,32,128,512",
                       help="comma-separated, or 'paper' for the 20-value sweep")
    sweep.add_argument("--num-keys", type=int, default=60_000)
    sweep.add_argument("--value-size", type=int, default=400)
    sweep.add_argument("--cache-pages", type=int, default=512)
    sweep.add_argument("--ops-per-point", type=int, default=3000)
    sweep.add_argument("--seed", type=int, default=42)

    run = sub.add_parser("run", help="run a workload vanilla vs KML, "
                                     "then report the KML run's metrics")
    run.add_argument("--model", required=True, help=".kml model from `train`")
    run.add_argument("--tuning", required=True, help=".json from `sweep`")
    run.add_argument("--workload", default="mixgraph")
    run.add_argument("--device", default="nvme", choices=("nvme", "ssd"))
    run.add_argument("--num-keys", type=int, default=60_000)
    run.add_argument("--value-size", type=int, default=400)
    run.add_argument("--cache-pages", type=int, default=512)
    run.add_argument("--sim-seconds", type=float, default=1.5)
    run.add_argument("--window", type=float, default=0.1)
    run.add_argument("--smoothing", type=int, default=3)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--prom-out", default=None,
                     help="also write the KML run's Prometheus export here")
    run.add_argument("--jsonl-out", default=None,
                     help="also write a JSONL dump (metrics + spans) here")

    inspect = sub.add_parser("inspect", help="describe a .kml model file")
    inspect.add_argument("path")

    faults = sub.add_parser(
        "faults",
        help="run a fault-injection scenario or the crash-recovery matrix",
    )
    faults.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list named scenarios and exit")
    faults.add_argument("--scenario", default=None,
                        help="run a KV workload under this named scenario")
    faults.add_argument("--crash-matrix", action="store_true",
                        help="crash minikv at every registered crash point "
                             "and verify recovery")
    faults.add_argument("--sites", default=None,
                        help="comma-separated site filter for --crash-matrix")
    faults.add_argument("--seeds", type=int, default=8,
                        help="seeds per site in the crash matrix")
    faults.add_argument("--ops", type=int, default=2000,
                        help="KV operations in the scenario workload")
    faults.add_argument("--num-keys", type=int, default=500)
    faults.add_argument("--value-size", type=int, default=100)
    faults.add_argument("--device", default="nvme", choices=("nvme", "ssd"))
    faults.add_argument("--seed", type=int, default=42)

    report = sub.add_parser(
        "report", help="assemble benchmark results into one summary"
    )
    report.add_argument(
        "--results-dir",
        default=None,
        help="defaults to benchmarks/results next to the package checkout",
    )

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def _cmd_collect(args) -> int:
    from .readahead import CollectionConfig, collect_training_data

    config = CollectionConfig(
        device=args.device,
        num_keys=args.num_keys,
        value_size=args.value_size,
        cache_pages=args.cache_pages,
        windows_per_value=args.windows_per_value,
        seed=args.seed,
    )
    dataset = collect_training_data(
        config,
        on_progress=lambda name, n: print(f"  {name}: {n} windows"),
    )
    np.savez(args.output, x=dataset.x, y=dataset.y)
    print(
        f"wrote {args.output}: {len(dataset)} windows, "
        f"class counts {dataset.class_counts().tolist()}"
    )
    return 0


def _cmd_train(args) -> int:
    from .kml import save_model
    from .kml.metrics import k_fold_cross_validate
    from .readahead import ReadaheadClassifier, build_tree

    blob = np.load(args.data)
    x, y = blob["x"], blob["y"]
    print(f"loaded {len(x)} samples from {args.data}")

    if args.model == "nn":
        clf = ReadaheadClassifier(
            dtype=args.dtype,
            rng=np.random.default_rng(args.seed),
            epochs=args.epochs,
        )
        clf.fit(x, y)
        deployable = clf.to_deployable()
        print(f"training accuracy: {clf.accuracy(x, y) * 100:.1f}%")
        if args.kfold >= 2:
            result = k_fold_cross_validate(
                lambda: ReadaheadClassifier(
                    dtype=args.dtype,
                    rng=np.random.default_rng(args.seed + 1),
                    epochs=args.epochs,
                ),
                x, y, k=args.kfold, rng=np.random.default_rng(args.seed + 2),
            )
            print(result)
        save_model(deployable, args.output)
    else:
        tree = build_tree().fit(x, y)
        print(f"training accuracy: {tree.accuracy(x, y) * 100:.1f}%")
        if args.kfold >= 2:
            result = k_fold_cross_validate(
                build_tree, x, y, k=args.kfold,
                rng=np.random.default_rng(args.seed + 2),
            )
            print(result)
        save_model(tree, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_sweep(args) -> int:
    from .readahead import PAPER_RA_VALUES, TuningTable, sweep_best_readahead
    from .readahead.model import WORKLOAD_CLASSES

    if args.ra_values == "paper":
        ra_values = PAPER_RA_VALUES
    else:
        ra_values = tuple(int(v) for v in args.ra_values.split(","))
    table = TuningTable()
    for device in args.devices.split(","):
        partial, result = sweep_best_readahead(
            device,
            WORKLOAD_CLASSES,
            ra_values=ra_values,
            num_keys=args.num_keys,
            value_size=args.value_size,
            cache_pages=args.cache_pages,
            ops_per_point=args.ops_per_point,
            seed=args.seed,
        )
        for workload, ra in partial.table[device].items():
            table.set(device, workload, ra)
            print(f"  {device}/{workload}: best ra = {ra}")
    table.save(args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_run(args) -> int:
    """Vanilla vs the KML closed loop; the KML run fully instrumented."""
    from . import obs
    from .hooks import detach
    from .kml import load_model, matrix, network
    from .readahead import ReadaheadAgent, TuningTable
    from .readahead.model import WORKLOAD_CLASSES
    from .workloads import load_stack, run_closed_loop

    deployable = load_model(args.model)
    tuning = TuningTable.load(args.tuning)
    for name in WORKLOAD_CLASSES:
        tuning.best_ra(args.device, name)  # fail before any simulation
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer(max_spans=4096)

    class TracedAgent(ReadaheadAgent):
        """The agent with each tick, one decision, as one span."""

        def on_tick(self, sim_time, rate):
            with tracer.span("agent_tick", sim_time=sim_time) as span:
                decision = super().on_tick(sim_time, rate)
                span.tags.update(predicted=decision.predicted_name,
                                 ra_pages=decision.ra_pages)
            return decision

    def leg(policy=None):
        loaded = load_stack(args.device, args.num_keys, args.value_size,
                            args.cache_pages, seed=args.seed)
        if policy is not None:
            obs.instrument_stack(loaded.stack, registry)
            obs.instrument_minikv(loaded.db, registry)
        return run_closed_loop(
            loaded, args.workload, policy=policy, ra_pages=128,
            sim_seconds=args.sim_seconds, window=args.window,
        )

    vanilla, _ = leg()
    obs.instrument_matrix_ops(registry)
    obs.instrument_network(registry)
    try:
        tuned, agent = leg(lambda stack: TracedAgent(
            stack, deployable, tuning, args.device, smoothing=args.smoothing
        ))
    finally:
        detach(matrix)
        detach(network)
    print(f"{args.workload} on {args.device}:")
    print(f"  vanilla (ra=128): {vanilla.throughput:,.0f} ops/s")
    print(f"  KML closed loop : {tuned.throughput:,.0f} ops/s "
          f"({tuned.throughput / vanilla.throughput:.2f}x)")
    print(f"  classified as   : {agent.predicted_class_counts()}")
    print()
    print(obs.format_report(registry, tracer=tracer))
    if args.prom_out:
        with open(args.prom_out, "w") as f:
            f.write(obs.prometheus_text(registry))
        print(f"wrote {args.prom_out}")
    if args.jsonl_out:
        n = obs.dump_jsonl(registry, args.jsonl_out, tracer=tracer)
        print(f"wrote {args.jsonl_out} ({n} records)")
    return 0


def _cmd_inspect(args) -> int:
    from .kml import DecisionTreeClassifier, Sequential, load_model

    model = load_model(args.path)
    if isinstance(model, Sequential):
        print(model.summary())
    elif isinstance(model, DecisionTreeClassifier):
        print(
            f"DecisionTreeClassifier: {model.num_classes} classes, "
            f"{model.num_features} features, depth {model.depth}, "
            f"{model.num_nodes} nodes"
        )
    return 0


def _unreachable_sites(plane) -> List[str]:
    """Sites ``plane`` arms that a ``faults --scenario`` KV run never reaches.

    The KV run attaches the file system, the device and minikv only.
    """
    from .faults import SITES

    return [
        site for site in SITES
        if plane.rules_for(site)
        and not site.startswith(("vfs.", "device.", "minikv."))
    ]


def _cmd_faults(args) -> int:
    """Run a fault scenario against a KV workload, or the crash matrix."""
    from .faults import (
        ALL_CRASH_SITES,
        CrashRecoveryHarness,
        SCENARIOS,
        InjectedFault,
        SimCrash,
        build_scenario,
        scenario_names,
    )

    if args.list_scenarios:
        width = max(len(name) for name in scenario_names())
        for name in scenario_names():
            unreachable = _unreachable_sites(build_scenario(name, seed=args.seed))
            mark = (f"  [not runnable: arms {', '.join(unreachable)}]"
                    if unreachable else "")
            print(f"{name:<{width}}  {SCENARIOS[name][1]}{mark}")
        return 0

    if args.crash_matrix:
        if args.seeds < 1:
            print(f"--seeds must be at least 1, got {args.seeds}", file=sys.stderr)
            return EXIT_USAGE
        harness = CrashRecoveryHarness()
        sites = ALL_CRASH_SITES
        if args.sites is not None:
            wanted = [s.strip() for s in args.sites.split(",") if s.strip()]
            if not wanted:
                print(f"--sites names no site: {args.sites!r}", file=sys.stderr)
                return EXIT_USAGE
            unknown = [s for s in wanted if s not in ALL_CRASH_SITES]
            if unknown:
                print(f"unknown sites: {', '.join(unknown)}", file=sys.stderr)
                print(f"known: {', '.join(ALL_CRASH_SITES)}", file=sys.stderr)
                return EXIT_USAGE
            sites = tuple(wanted)
        seeds = range(args.seed, args.seed + args.seeds)
        reports = harness.run_matrix(sites=sites, seeds=seeds)
        by_site = {}
        for report in reports:
            by_site.setdefault(report.site, []).append(report)
        failures = [r for r in reports if not r.ok]
        width = max(len(site) for site in sites)
        for site in sites:
            site_reports = by_site[site]
            ok = sum(1 for r in site_reports if r.ok)
            pending_kept = sum(1 for r in site_reports if r.pending_included)
            print(
                f"{site:<{width}}  {ok}/{len(site_reports)} recovered"
                f"  (pending survived in {pending_kept})"
            )
        print(
            f"\n{len(reports)} cases, {len(reports) - len(failures)} ok, "
            f"{len(failures)} failed"
        )
        for report in failures:
            print(f"  FAIL {report.site} seed={report.seed}: {report.detail}")
        return 1 if failures else 0

    if args.scenario is None:
        print(
            "nothing to do: pass --list, --scenario NAME, or --crash-matrix",
            file=sys.stderr,
        )
        return EXIT_USAGE
    for flag, value in (("--ops", args.ops), ("--num-keys", args.num_keys)):
        if value < 1:
            print(f"{flag} must be at least 1, got {value}", file=sys.stderr)
            return EXIT_USAGE

    from .minikv import DBOptions, MiniKV
    from .obs import (
        MetricsRegistry,
        format_report,
        instrument_faults,
        instrument_minikv,
        instrument_stack,
    )
    from .os_sim import make_stack

    plane = build_scenario(args.scenario, seed=args.seed)
    unreachable = _unreachable_sites(plane)
    if unreachable:
        print(
            f"scenario {args.scenario!r} arms {', '.join(unreachable)}, "
            "which a KV workload never reaches",
            file=sys.stderr,
        )
        return EXIT_USAGE
    registry = MetricsRegistry()
    instrument_faults(plane, registry)
    stack = make_stack(args.device)
    plane.attach(stack.fs)
    plane.attach(stack.device)
    instrument_stack(stack, registry)
    db = MiniKV(stack, DBOptions(memtable_bytes=4096))
    plane.attach(db)
    # Wall-clock latencies differ run to run: time nothing, so the
    # seeded report prints only what the seed determines.
    instrument_minikv(db, registry, sample_mask=-1)

    rng = np.random.default_rng(args.seed)
    errors = crashes = 0
    for _ in range(args.ops):
        key = b"key-%06d" % rng.integers(0, args.num_keys)
        try:
            if rng.random() < 0.5:
                db.put(key, rng.bytes(args.value_size))
            else:
                db.get(key)
        except SimCrash:
            crashes += 1
            # Recovery opens a store whose stats start at zero: carry the
            # run's counts over, so the report covers every op.
            counts = vars(db.stats)
            db = MiniKV(stack, DBOptions(memtable_bytes=4096))
            for name, value in counts.items():
                setattr(db.stats, name, getattr(db.stats, name) + value)
            plane.attach(db)
            instrument_minikv(db, registry, sample_mask=-1)  # rebinds
        except InjectedFault:
            errors += 1

    print(f"scenario {args.scenario!r}: {args.ops} ops on {args.device}")
    print(plane.describe())
    print(
        f"ops failed with injected errors: {errors}; "
        f"simulated crashes (+ recoveries): {crashes}"
    )
    print(
        f"db stats: io_retries={db.stats.io_retries} "
        f"io_giveups={db.stats.io_giveups} "
        f"wal_records_replayed={db.stats.wal_records_replayed} "
        f"orphans_removed={db.stats.orphans_removed}"
    )
    registry.collect()
    print(f"injections by site/kind: {plane.injection_counts()}")
    print()
    print(format_report(registry))
    return 0


def _cmd_report(args) -> int:
    import glob
    import os

    results_dir = args.results_dir
    if results_dir is None:
        here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        results_dir = os.path.join(here, "benchmarks", "results")
    files = sorted(glob.glob(os.path.join(results_dir, "*.txt")))
    if not files:
        print(
            f"no results in {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
        return 1
    for path in files:
        title = os.path.basename(path)
        print("=" * 72)
        print(f"== {title}")
        print("=" * 72)
        with open(path) as f:
            print(f.read().rstrip())
        print()
    return 0


_COMMANDS = {
    "collect": _cmd_collect,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "run": _cmd_run,
    "inspect": _cmd_inspect,
    "faults": _cmd_faults,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .kml.model_io import ModelFormatError

    try:
        return _COMMANDS[args.command](args)
    except ModelFormatError as exc:
        print(f"repro: damaged model file: {exc}", file=sys.stderr)
        return EXIT_MODEL_FORMAT
    except OSError as exc:
        # Covers FileNotFoundError, PermissionError, disk-level failures.
        print(f"repro: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"repro: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary, exit code 1
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
