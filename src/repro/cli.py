"""Command-line entry point: ``python -m repro <experiment> [options]``.

Runs any of the paper's experiments or the ablation suite with
adjustable parameters, printing the same paper-comparable report the
benchmark harness records.
"""

from __future__ import annotations

import argparse
import sys

from .apps.dnn import DatasetSpec
from .units import MiB


def _cmd_fig1(args) -> int:
    from .experiments import fig1_filler

    config = fig1_filler.Fig1Config(duration=args.duration,
                                    seed=args.seed)
    fungible = fig1_filler.run_fig1(config)
    static = fig1_filler.run_fig1(
        fig1_filler.Fig1Config(duration=args.duration, seed=args.seed,
                               fungible=False))
    print(fig1_filler.report(fungible, static))
    return 0


def _cmd_fig2(args) -> int:
    from .experiments import fig2_imbalance

    if args.full_scale:
        dataset = DatasetSpec()
    else:
        dataset = DatasetSpec(count=args.images, mean_bytes=1 * MiB,
                              mean_cpu=0.1)
    rows = fig2_imbalance.run_fig2(dataset=dataset, seed=args.seed)
    print(fig2_imbalance.report(rows))
    return 0


def _cmd_fig3(args) -> int:
    from .experiments import fig3_gpu_adapt

    config = fig3_gpu_adapt.Fig3Config(duration=args.duration,
                                       seed=args.seed)
    print(fig3_gpu_adapt.report(fig3_gpu_adapt.run_fig3(config)))
    return 0


def _cmd_ablations(args) -> int:
    from .experiments import ablations

    results, report = ablations.run_ablation_grid(
        jobs=args.jobs, cache=args.cache_dir)
    print(ablations.format_report(results))
    print(report.summary())
    return _check_budget(report.wall_s, args.budget)


def _parse_seeds(text: str):
    """Parse ``"1-5"`` / ``"0,3,7"`` / ``"4"`` into a seed list."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:  # allow negative singletons
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def _check_budget(wall_s: float, budget) -> int:
    """Enforce ``--budget SECONDS`` on the exec phase (0 = off)."""
    if budget and wall_s > budget:
        print(f"WALL-CLOCK BUDGET EXCEEDED: {wall_s:.1f}s > "
              f"{budget:.1f}s budget")
        return 1
    return 0


def _cmd_sweep(args) -> int:
    from .experiments import sweep_burst
    from .exec import results_digest

    points, report = sweep_burst.run_sweep_exec(
        seed=args.seed, jobs=args.jobs, cache=args.cache_dir)
    print(sweep_burst.report(points))
    print(report.summary())
    print(f"sweep digest: {results_digest(report.values())}")
    return _check_budget(report.wall_s, args.budget)


def _cmd_chaos(args) -> int:
    """Seeded chaos scenarios: one detailed run, a parallel seed grid,
    or the parallel differential-oracle campaign."""
    from .chaos import ChaosConfig, run_chaos

    if args.differential:
        return _chaos_differential(args)
    if args.seeds:
        return _chaos_grid(args)

    config = ChaosConfig(seed=args.seed, machines=args.machines,
                         duration=args.duration, oracle=args.oracle,
                         invariant_stride=args.stride,
                         recovery_policy=args.recovery,
                         autoscale=args.autoscale)
    result = run_chaos(config)
    print(result.report())
    if args.check_determinism:
        replay = run_chaos(config)
        if replay.digest() != result.digest():
            print("DETERMINISM FAILURE: replay digest "
                  f"{replay.digest()} != {result.digest()}")
            return 1
        print(f"replay digest matches ({result.digest()[:16]}...): "
              "run is deterministic")
    return 0


def _chaos_grid(args) -> int:
    """Fan a grid of chaos seeds out through repro.exec.  A cell that
    raises is reported as a row; the grid then exits non-zero."""
    from .chaos import run_chaos_cell
    from .exec import RunSpec, run_specs

    seeds = _parse_seeds(args.seeds)
    specs = [
        RunSpec(run_chaos_cell,
                {"seed": seed, "machines": args.machines,
                 "duration": args.duration, "oracle": args.oracle,
                 "invariant_stride": args.stride,
                 "recovery_policy": args.recovery,
                 "autoscale": args.autoscale},
                name=f"chaos.seed={seed}"
                     + (f".rec={args.recovery}" if args.recovery else "")
                     + (".autoscale" if args.autoscale else ""))
        for seed in seeds
    ]
    report = run_specs(specs, jobs=args.jobs, cache=args.cache_dir)
    failed = [row for row in report.values() if "error" in row]
    for row in report.values():
        if "error" in row:
            now = row["virtual_time"]
            print(f"seed {row['seed']:>4d}: FAILED {row['error']} at "
                  f"t={'?' if now is None else f'{now:.6f}'}s in "
                  f"{' <- '.join(row['frames'])}: {row['message']}")
            continue
        print(f"seed {row['seed']:>4d}: digest {row['digest'][:16]}... "
              f"faults={row['injected']} crashes={row['machines_crashed']} "
              f"tasks={row['tasks_done']} checks={row['invariant_checks']}")
    print(report.summary())
    wall = report.wall_s
    if args.check_determinism:
        # Replay the whole grid fresh (no cache — a cached replay would
        # compare a result with itself) and require identical digests.
        replay = run_specs(specs, jobs=args.jobs, cache=None)
        wall += replay.wall_s
        if replay.digest() != report.digest():
            for a, b in zip(report.values(), replay.values()):
                if a != b:
                    print(f"DETERMINISM FAILURE: seed {a['seed']} "
                          f"digest {a['digest']} != {b['digest']}")
            return 1
        print(f"replay grid digest matches ({report.digest()[:16]}...): "
              f"{len(seeds)} seeds deterministic")
    if failed:
        print(f"CHAOS GRID FAILED: {len(failed)} of {len(seeds)} cells "
              f"raised (seeds {', '.join(str(r['seed']) for r in failed)})")
        return 1
    return _check_budget(wall, args.budget)


def _chaos_differential(args) -> int:
    """Fan the fluid-vs-oracle differential seeds out through repro.exec."""
    from .chaos import differential_task
    from .exec import RunSpec, run_specs

    seeds = _parse_seeds(args.differential)
    specs = [RunSpec(differential_task, {"seed": seed, "steps": args.steps},
                     name=f"chaos.diff.seed={seed}")
             for seed in seeds]
    report = run_specs(specs, jobs=args.jobs, cache=args.cache_dir)
    bad = [row for row in report.values() if row["divergences"]]
    for row in bad:
        print(f"seed {row['seed']}: ENGINE/ORACLE DIVERGENCE")
        for line in row["divergences"]:
            print(f"  {line}")
    print(report.summary())
    print(f"differential: {len(seeds) - len(bad)}/{len(seeds)} seeds "
          f"agree with the oracle")
    if bad:
        return 1
    return _check_budget(report.wall_s, args.budget)


def _cmd_cloning(args) -> int:
    """Cloning grid vs the closed-form PS oracle (CI's second
    differential suite)."""
    from .experiments import cloning

    seeds = _parse_seeds(args.seeds)
    cells, report = cloning.run_cloning_exec(
        seeds=seeds, seed=args.seed, duration=args.duration,
        jobs=args.jobs, cache=args.cache_dir)
    print(cloning.report(cells))
    print(report.summary())
    digest = cloning.cells_digest(cells)
    print(f"cloning digest: {digest}")
    wall = report.wall_s
    if args.check_determinism:
        # Replay the whole grid fresh (no cache) and require identical
        # cell digests — serial-vs-parallel equivalence is CI's job.
        _cells2, replay = cloning.run_cloning_exec(
            seeds=seeds, seed=args.seed, duration=args.duration,
            jobs=args.jobs, cache=None)
        wall += replay.wall_s
        if replay.digest() != report.digest():
            print(f"DETERMINISM FAILURE: replay digest "
                  f"{replay.digest()} != {report.digest()}")
            return 1
        print(f"replay grid digest matches ({report.digest()[:16]}...): "
              f"{len(cells)} cells deterministic")
    divergences = cloning.differential(cells)
    if divergences:
        for d in divergences:
            print(f"ORACLE DIVERGENCE: {d}")
        return 1
    return _check_budget(wall, args.budget)


def _cmd_serving(args) -> int:
    """Multi-tenant serving grid: fungible Quicksand vs static VM
    carve-up, with the goodput-ratio gate CI pins."""
    from .experiments import serving

    seeds = _parse_seeds(args.seeds)
    cells, report = serving.run_serving_exec(
        seeds=seeds, seed=args.seed, machines=args.machines,
        n_tenants=args.tenants, duration=args.duration,
        jobs=args.jobs, cache=args.cache_dir)
    print(serving.report(cells))
    print(report.summary())
    digest = serving.cells_digest(cells)
    print(f"serving digest: {digest}")
    wall = report.wall_s
    if args.check_determinism:
        # Replay the whole grid fresh (no cache) and require identical
        # cell digests — serial-vs-parallel equivalence is CI's job.
        _cells2, replay = serving.run_serving_exec(
            seeds=seeds, seed=args.seed, machines=args.machines,
            n_tenants=args.tenants, duration=args.duration,
            jobs=args.jobs, cache=None)
        wall += replay.wall_s
        if replay.digest() != report.digest():
            print(f"DETERMINISM FAILURE: replay digest "
                  f"{replay.digest()} != {report.digest()}")
            return 1
        print(f"replay grid digest matches ({report.digest()[:16]}...): "
              f"{len(cells)} cells deterministic")
    starved = [v for cell in cells for v in cell["starvation_violations"]]
    if starved:
        for v in starved:
            print(f"STARVATION VIOLATION: {v}")
        return 1
    if args.min_ratio > 0:
        ratio = serving.goodput_ratio(cells)
        if ratio < args.min_ratio:
            print(f"GOODPUT RATIO GATE FAILED: {ratio:.3f} < "
                  f"{args.min_ratio:g}")
            return 1
        print(f"goodput ratio gate passed: {ratio:.3f} >= "
              f"{args.min_ratio:g}")
    return _check_budget(wall, args.budget)


def _cmd_autoscale(args) -> int:
    """Hand-tuned controller vs ShardAutoscaler parity, plus the
    autoscaled chaos fault grid."""
    from .experiments import autoscale

    rows = autoscale.run_autoscale_fig2(seed=args.seed)
    grid = None
    wall = 0.0
    if not args.no_grid:
        seeds = _parse_seeds(args.seeds)
        grid, exec_report = autoscale.run_autoscale_grid(
            seeds=seeds, duration=args.duration,
            jobs=args.jobs, cache=args.cache_dir)
        wall = exec_report.wall_s
        print(autoscale.report(rows, grid))
        print(exec_report.summary())
    else:
        print(autoscale.report(rows))
    if args.max_ratio > 0:
        worst = max(r.ratio for r in rows)
        if worst > args.max_ratio:
            print(f"PARITY GATE FAILED: worst ratio {worst:.3f} > "
                  f"{args.max_ratio:g}")
            return 1
        print(f"parity gate passed: worst ratio {worst:.3f} <= "
              f"{args.max_ratio:g}")
    return _check_budget(wall, args.budget)


def _cmd_recovery(args) -> int:
    """Kill-mid-run experiment: full policy ablation or one policy."""
    from .experiments import recovery

    if args.policy is not None:
        rows = [recovery.run_recovery_fig2(policy=None, kill_at=None,
                                           seed=args.seed),
                recovery.run_recovery_fig2(policy=args.policy,
                                           kill_at=args.kill_at,
                                           seed=args.seed)]
    else:
        rows = recovery.run_recovery_ablation(seed=args.seed,
                                              kill_at=args.kill_at)
    print(recovery.report(rows))
    return 0


def _cmd_trace(args) -> int:
    """Run one experiment under span capture; export trace + profile."""
    import json

    from .experiments.tracedrun import run_traced

    run = run_traced(args.experiment, seed=args.seed)
    digest = run.digest()
    if args.check_determinism:
        replay = run_traced(args.experiment, seed=args.seed)
        if replay.digest() != digest:
            print("DETERMINISM FAILURE: replay digest "
                  f"{replay.digest()} != {digest}")
            return 1
        print(f"replay digest matches ({digest[:16]}...): "
              "trace is deterministic")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(run.chrome(), f, indent=1)
            f.write("\n")
        with open(args.out + ".digest", "w") as f:
            f.write(digest + "\n")
        print(f"[chrome trace written to {args.out}; "
              f"digest to {args.out}.digest]")
    if not args.no_profile:
        print(run.profile(top=args.top))
    print(f"{run.span_count()} spans across "
          f"{len(run.spans.tracers)} simulator(s)")
    print(f"trace digest: {digest}")
    return 0


def _cmd_all(args) -> int:
    """Regenerate every figure and ablation; optionally write a file."""
    from .experiments import ablations, fig1_filler, fig2_imbalance
    from .experiments import fig3_gpu_adapt

    sections = []
    fungible, static = fig1_filler.run_fig1_both()
    sections.append(fig1_filler.report(fungible, static))
    dataset = (DatasetSpec() if args.full_scale
               else DatasetSpec(count=1200, mean_bytes=1 * MiB,
                                mean_cpu=0.1))
    sections.append(fig2_imbalance.report(
        fig2_imbalance.run_fig2(dataset=dataset)))
    sections.append(fig3_gpu_adapt.report(fig3_gpu_adapt.run_fig3()))
    sections.append(ablations.report_all())
    text = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"\n[report written to {args.out}]")
    return 0


def _add_exec_args(parser) -> None:
    """Shared repro.exec knobs for commands that fan out run grids."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent runs "
                             "(1 = serial; results are identical)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache; re-runs "
                             "of unchanged grids are served from disk")
    parser.add_argument("--budget", type=float, default=0.0,
                        metavar="SECONDS",
                        help="fail if the run-execution phase exceeds "
                             "this wall-clock budget (0 = no budget)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quicksand (HotOS '23) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("fig1", help="filler migration experiment")
    p1.add_argument("--duration", type=float, default=0.2,
                    help="measured window in virtual seconds")
    p1.add_argument("--seed", type=int, default=0)
    p1.set_defaults(fn=_cmd_fig1)

    p2 = sub.add_parser("fig2", help="imbalanced-machines table")
    p2.add_argument("--images", type=int, default=1200,
                    help="dataset size (default: 10x-reduced scale)")
    p2.add_argument("--full-scale", action="store_true",
                    help="use the paper's 12000-image scale")
    p2.add_argument("--seed", type=int, default=0)
    p2.set_defaults(fn=_cmd_fig2)

    p3 = sub.add_parser("fig3", help="GPU-adaptation experiment")
    p3.add_argument("--duration", type=float, default=1.6)
    p3.add_argument("--seed", type=int, default=0)
    p3.set_defaults(fn=_cmd_fig3)

    pa = sub.add_parser("ablations", help="run all DESIGN.md ablations")
    _add_exec_args(pa)
    pa.set_defaults(fn=_cmd_ablations)

    ps = sub.add_parser("sweep",
                        help="EXT-SWEEP: fungibility gain vs burst period")
    ps.add_argument("--seed", type=int, default=0)
    _add_exec_args(ps)
    ps.set_defaults(fn=_cmd_sweep)

    pc = sub.add_parser(
        "chaos",
        help="seeded fault-injection run with invariant checking")
    pc.add_argument("--seed", type=int, default=42)
    pc.add_argument("--seeds", default=None,
                    help="seed grid (e.g. '1-5' or '1,3,9') fanned out "
                         "through repro.exec")
    pc.add_argument("--differential", default=None, metavar="SEEDS",
                    help="run the fluid-vs-oracle differential campaign "
                         "over this seed range instead of full scenarios")
    pc.add_argument("--steps", type=int, default=25,
                    help="mutations per differential seed")
    pc.add_argument("--machines", type=int, default=4)
    pc.add_argument("--duration", type=float, default=2.0)
    pc.add_argument("--oracle", action="store_true",
                    help="also diff every fluid scheduler against the "
                         "brute-force water-fill oracle (slow)")
    pc.add_argument("--stride", type=int, default=1,
                    help="check invariants every N-th event")
    pc.add_argument("--check-determinism", action="store_true",
                    help="run the scenario twice and require identical "
                         "digests")
    pc.add_argument("--recovery", default=None,
                    choices=["none", "restart", "checkpoint", "replicate",
                             "lineage"],
                    help="run under the repro.ft recovery subsystem with "
                         "this policy on the map shards (default: legacy "
                         "application-level healing, byte-identical to "
                         "previous releases)")
    pc.add_argument("--autoscale", action="store_true",
                    help="trigger reshards from the periodic "
                         "ShardAutoscaler instead of the heap-change "
                         "ShardSizeController, and add a range-sharded "
                         "map under routed churn (faults land at every "
                         "two-phase reshard phase boundary)")
    _add_exec_args(pc)
    pc.set_defaults(fn=_cmd_chaos)

    pcl = sub.add_parser(
        "cloning",
        help="request-cloning grid differentially compared against the "
             "closed-form PS oracle")
    pcl.add_argument("--seed", type=int, default=0,
                     help="master seed mixed into every cell's stream")
    pcl.add_argument("--seeds", default="0",
                     help="replication seeds per grid cell "
                          "(e.g. '0-2' or '0,5')")
    pcl.add_argument("--duration", type=float, default=6.0,
                     help="virtual seconds per cell")
    pcl.add_argument("--check-determinism", action="store_true",
                     help="replay the grid uncached and require "
                          "identical digests")
    _add_exec_args(pcl)
    pcl.set_defaults(fn=_cmd_cloning)

    psv = sub.add_parser(
        "serving",
        help="multi-tenant serving grid: fungible vs static carve-up "
             "with SLO goodput gates")
    psv.add_argument("--seed", type=int, default=0,
                     help="master seed mixed into every cell's stream")
    psv.add_argument("--seeds", default="0-2",
                     help="replication seeds (e.g. '0-2' or '0,5')")
    psv.add_argument("--machines", type=int, default=24,
                     help="cluster size (2-core machines)")
    psv.add_argument("--tenants", type=int, default=8,
                     help="tenant count (staggered diurnal phases)")
    psv.add_argument("--duration", type=float, default=2.0,
                     help="virtual seconds per cell")
    psv.add_argument("--min-ratio", type=float, default=0.0,
                     help="fail unless fungible/static goodput ratio "
                          "meets this floor (0 = report only)")
    psv.add_argument("--check-determinism", action="store_true",
                     help="replay the grid uncached and require "
                          "identical digests")
    _add_exec_args(psv)
    psv.set_defaults(fn=_cmd_serving)

    pas = sub.add_parser(
        "autoscale",
        help="hand-tuned controller vs ShardAutoscaler parity + "
             "autoscaled chaos fault grid")
    pas.add_argument("--seed", type=int, default=0)
    pas.add_argument("--seeds", default="1-3",
                     help="chaos grid seeds (e.g. '1-5' or '1,3,9')")
    pas.add_argument("--duration", type=float, default=0.4,
                     help="virtual seconds per chaos grid cell")
    pas.add_argument("--no-grid", action="store_true",
                     help="skip the chaos fault grid (parity table only)")
    pas.add_argument("--max-ratio", type=float, default=0.0,
                     help="fail if any autoscaled/hand-tuned completion "
                          "ratio exceeds this ceiling (0 = report only)")
    _add_exec_args(pas)
    pas.set_defaults(fn=_cmd_autoscale)

    pr = sub.add_parser(
        "recovery",
        help="kill-a-machine-mid-Fig.2 experiment and recovery-policy "
             "ablation")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--kill-at", type=float, default=0.4,
                    help="virtual seconds after preprocessing starts")
    pr.add_argument("--policy", default=None,
                    choices=["none", "restart", "checkpoint", "replicate",
                             "lineage"],
                    help="run a single policy instead of the full "
                         "ablation (baseline is always included)")
    pr.set_defaults(fn=_cmd_recovery)

    pt = sub.add_parser(
        "trace",
        help="run an experiment with span tracing; export Chrome "
             "trace_event JSON + virtual-time profile")
    pt.add_argument("experiment",
                    choices=["fig1", "fig2", "fig3", "chaos"],
                    help="experiment to run at trace scale")
    pt.add_argument("--out", default=None,
                    help="write Perfetto-loadable JSON here "
                         "(plus <out>.digest)")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--top", type=int, default=8,
                    help="profile lines shown per track")
    pt.add_argument("--no-profile", action="store_true",
                    help="skip the text profile")
    pt.add_argument("--check-determinism", action="store_true",
                    help="run twice and require identical trace digests")
    pt.set_defaults(fn=_cmd_trace)

    pall = sub.add_parser("all", help="regenerate every figure + ablation")
    pall.add_argument("--out", default=None,
                      help="also write the report to this file")
    pall.add_argument("--full-scale", action="store_true")
    pall.set_defaults(fn=_cmd_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
