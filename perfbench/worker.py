"""One benchmark process: set up a workload, run it, report as JSON.

``run.py`` starts this script in fresh interpreters.  Set-up is the
interpreter start, the ``repro`` imports and building the workload's
cells; when it is done the worker prints ``READY <CLOCK_MONOTONIC>``.
With ``--setup-only`` it stops there.  Otherwise it runs whole passes
over the cells (every cell once per pass, in order, serially, no result
cache) until ``--seconds`` is spent, with at least two passes so every
cell is repeated, and prints ``RESULT <json>``.

With ``--trace 0`` every cell is timed under a :class:`speed.SpeedProbe`.
With ``--trace 1`` the passes alternate plain / sampled; the sampled
ones run under :class:`sampler.LayerSampler`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from sampler import OUTSIDE, LayerSampler
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent

#: Layers reported by name; samples in any other ``repro`` package are
#: booked to ``repro_other``.
LAYERS = ("sim", "cluster", "runtime", "core", "ds", "apps", "hedge",
          "chaos", "autoscale", "ft", "exec", "metrics", "experiments")
OTHER = "repro_other"
#: A layer with fewer samples than this has a share too coarse to read
#: (relative error about 1/sqrt(n), so 20% here); it is flagged
#: unresolved and reported as an upper bound, never as zero.
MIN_SAMPLES = 25
KERNEL_METRICS = ("events", "cancellations", "tombstones_popped",
                  "compactions", "wheel_inserts", "overflow_to_heap")


class SimRecorder:
    """Remembers the simulators a cell builds, to read virtual time.

    Uses the kernel's public new-simulator hook; the hook only records
    the instance, so the run is unchanged."""

    def __enter__(self):
        from repro.sim import simulator

        self.sims = []
        self._previous = simulator.get_tracer_factory()
        simulator.set_tracer_factory(self.sims.append)
        return self

    def __exit__(self, *exc):
        from repro.sim import simulator

        simulator.set_tracer_factory(self._previous)

    def virtual_s(self) -> float:
        return sum(sim.now for sim in self.sims)


def describe_failure(exc, sims) -> str:
    """Exception type, virtual time, innermost frames and message."""
    frames = traceback.extract_tb(exc.__traceback__)[-3:]
    where = " <- ".join(f"{Path(f.filename).name}:{f.lineno} {f.name}"
                        for f in reversed(frames))
    now = sims.sims[-1].now if sims.sims else float("nan")
    return f"{type(exc).__name__} at t={now!r} s in {where}: {exc}"


def run_cell(spec, workload, instrument):
    """Run one cell through ``repro.exec`` under *instrument* (a
    :class:`SpeedProbe`, a :class:`LayerSampler` or a null context);
    never raises."""
    from repro.exec import run_specs
    from repro.sim import kernel_totals

    before = kernel_totals()
    failure = None
    with SimRecorder() as sims, instrument:
        start = time.perf_counter()
        try:
            report = run_specs([spec], jobs=1, cache=None)
        except Exception as exc:  # a failed operation, recorded below
            wall = time.perf_counter() - start
            failure = describe_failure(exc, sims)
    cell = {"name": spec.name, "virtual_s": sims.virtual_s(),
            "error": failure}
    if failure is None:
        value = cell["value"] = report.values()[0]
        wall = report.results[0].wall_s
        cell["kernel"] = report.kernel_totals()
        cell["problems"] = workload.problems(value)
        cell["digest"] = workload.digest(value)
    else:
        after = kernel_totals()
        cell["value"] = None
        cell["kernel"] = {k: after[k] - before[k] for k in KERNEL_METRICS}
        cell["problems"] = []
        cell["digest"] = hashlib.sha256(failure.encode()).hexdigest()
    if isinstance(instrument, SpeedProbe):
        wall -= instrument.overhead_s
        cell["ref_s"] = instrument.reference_s(wall)
    cell["wall_s"] = wall
    return cell


def run_passes(specs, workload, seconds, trace):
    """Whole passes until *seconds* is spent (at least two).

    Untraced runs time every cell under a :class:`SpeedProbe`; traced
    runs alternate plain and sampled passes."""
    sampler = LayerSampler() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        cells = [run_cell(spec, workload,
                          sampler if traced
                          else nullcontext() if trace else SpeedProbe())
                 for spec in specs]
        passes.append({"traced": traced, "cells": cells,
                       "wall_s": sum(c["wall_s"] for c in cells),
                       "max_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= 2 and elapsed + typical > seconds:
            return passes, sampler


def judge(passes, workload):
    """Failed operations and correctness over all passes.

    A cell execution fails if it raised, failed an output check, or gave
    a digest other than the first execution of the same cell.  Output
    checks, golden checks and digest mismatches also make the run
    incorrect; a raise alone is a loud failure, not a wrong answer."""
    first = {}
    failed = []
    problems = []
    for number, p in enumerate(passes):
        for cell in p["cells"]:
            expected = first.setdefault(cell["name"], cell["digest"])
            bad = list(cell["problems"])
            if cell["digest"] != expected:
                bad.append(f"digest {cell['digest'][:16]} != first run "
                           f"{expected[:16]}")
            problems += [f"pass {number} {cell['name']}: {b}" for b in bad]
            if bad or cell["error"]:
                failed.append(f"pass {number} {cell['name']}: "
                              + (cell["error"] or "; ".join(bad)))
        values = [c["value"] for c in p["cells"]]
        if all(v is not None for v in values):
            problems += [f"pass {number}: {b}"
                         for b in workload.pass_problems(values)]
    return failed, problems


def layer_metrics(sampler, untraced_wall, traced_wall):
    """Per-layer self time from the samples, plus the sample table.

    A resolved layer's ``self_s`` is its sample share of one untraced
    pass's host seconds.  An unresolved one (fewer than
    :data:`MIN_SAMPLES` samples) reports an upper bound instead: the
    share of ``n + 2*sqrt(n) + 3`` samples, about a 95% Poisson bound
    (3 samples' worth when none was seen)."""
    counts = dict.fromkeys(LAYERS + (OTHER, OUTSIDE), 0)
    for layer, n in sampler.counts.items():
        counts[layer if layer in counts else OTHER] += n
    total = sum(counts.values())
    metrics = {}
    table = []
    for name, n in counts.items():
        resolved = n >= MIN_SAMPLES
        booked = n if resolved else n + 2 * math.sqrt(n) + 3
        metrics[f"{name}.self_s"] = booked / total * untraced_wall
        table.append({"layer": name, "samples": n, "share": n / total,
                      "resolved": resolved})
    metrics["trace.samples"] = total
    metrics["trace.overhead"] = traced_wall / untraced_wall
    metrics["trace.unresolved_layers"] = sum(
        not row["resolved"] for row in table)
    return metrics, table


def pass_time(passes, traced, key):
    """One pass's *key* seconds: the sum over cells of each cell's median
    over the (un)traced passes."""
    times = {}
    for p in passes:
        if p["traced"] == traced:
            for cell in p["cells"]:
                times.setdefault(cell["name"], []).append(cell[key])
    return sum(statistics.median(t) for t in times.values())


def measure(workload, specs, seed, seconds, trace):
    from workloads import COUNTERS

    passes, sampler = run_passes(specs, workload, seconds, trace)
    failed, problems = judge(passes, workload)
    first = passes[0]["cells"]
    values = [c["value"] for c in first]
    if all(v is not None for v in values):
        try:
            problems += workload.parity(seed, values)
        except Exception as exc:  # a crashed check is a wrong answer
            problems.append(f"CLI parity check raised {exc!r}")

    wall_s = pass_time(passes, False, "wall_s")
    virtual_s = sum(c["virtual_s"] for c in first)
    out = {
        "passes": len(passes),
        "cells_per_pass": len(specs),
        "attempted": sum(len(p["cells"]) for p in passes),
        "failed": failed,
        "problems": problems,
        "digests": {c["name"]: c["digest"] for c in first},
        "wall_s": wall_s,
        "virtual_s": virtual_s,
        "headline": workload.headline(values),
    }
    if not trace:
        ref_s = out["ref_s"] = pass_time(passes, False, "ref_s")
        # Peak RSS over the first pass, as one CLI invocation would see
        # it; later passes only add allocator high-water noise.
        out["metrics"] = {"ref_s_per_sim_s": ref_s / virtual_s,
                          "peak_rss_mb": passes[0]["max_rss_mb"]}
        return out
    metrics = {f"sim.{k}": sum(c["kernel"][k] for c in first)
               for k in KERNEL_METRICS}
    metrics["sim.events_per_s"] = metrics["sim.events"] / wall_s
    metrics["sim.virt_per_wall"] = virtual_s / wall_s
    metrics["exec.cells"] = len(specs)
    metrics["exec.wall_s"] = wall_s
    counters = workload.counters(values)
    out["unavailable"] = [c for c in COUNTERS if c not in counters]
    metrics.update(dict.fromkeys(out["unavailable"], 0))
    metrics.update(counters)
    layers, out["layers"] = layer_metrics(
        sampler, wall_s, pass_time(passes, True, "wall_s"))
    metrics.update(layers)
    out["metrics"] = metrics
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    specs = workload.specs(args.seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, specs, args.seed, args.seconds,
                     bool(args.trace))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
