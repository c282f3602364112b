"""The benchmark's workloads, built on the public experiment functions.

Each workload turns ``--seed`` into a list of cells (one
:class:`repro.exec.RunSpec` each) through the same functions the
``python -m repro`` subcommands call.  A workload also knows how to
digest a cell's result, which output checks a cell must pass, which
per-layer counters the results carry, and how to confirm that its cells
match what the CLI produces for the same seed.

Import this module only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import math
from typing import Dict, List, Tuple

from repro.apps.dnn import DatasetSpec
from repro.chaos import ChaosConfig, run_chaos
from repro.exec import RunSpec, results_digest
from repro.experiments import cloning, fig2_imbalance, serving
from repro.hedge.oracle import compare_cells
from repro.units import MiB

#: Fig. 2's golden shape: every split within 1% of the baseline.
FIG2_SLOWDOWN_GOLDEN = 1.01
#: Virtual seconds per cloning cell (the CLI's ``--duration``).  The
#: canonical grid uses 6 s; 2 s keeps one pass of the four cells near
#: 5 s on a 2-core box while every cell stays inside the oracle band.
CLONING_DURATION = 2.0
#: The faults workload's chaos seeds: the ``repro chaos`` default (42)
#: and the three seeds on which this scenario is known to fail (0: DRAM
#: ledger invariant, 2: KeyError, 8: OutOfMemory in a reshard split).
#: Fixed rather than taken from ``--seed``: host cost per simulated
#: second differs by about 25% between fault schedules, more than the
#: changes the benchmark has to resolve.
CHAOS_SEEDS = (42, 0, 2, 8)


def _chaos_config(seed: int) -> ChaosConfig:
    # As ``repro chaos --autoscale --recovery checkpoint --seed <seed>``.
    return ChaosConfig(seed=seed, autoscale=True,
                       recovery_policy="checkpoint")


def _capture_cli(argv: List[str]) -> Tuple[int, str]:
    """Exit code and standard output of ``repro <argv>``.  A non-zero
    code is returned, not raised: ``repro serving`` exits 1 on a
    starvation violation, which the cell checks report themselves."""
    from repro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


#: Every per-layer counter a workload may report; a workload that does
#: not exercise a layer reports its counters as 0.
COUNTERS = (
    "core.migrations", "core.scale_ups", "core.scale_downs",
    "runtime.migrations", "runtime.migrations_retried",
    "runtime.migrations_failed",
    "apps.requests", "apps.offered", "apps.slo_ok_frac",
    "apps.failed_requests",
    "hedge.clones_launched", "hedge.clones_cancelled", "hedge.useful_frac",
    "chaos.invariant_checks", "chaos.faults_injected", "chaos.tasks_done",
    "chaos.lost_calls",
    "autoscale.decisions", "autoscale.splits", "autoscale.merges",
    "autoscale.aborts",
    "ft.recoveries", "ft.failed_recoveries", "ft.call_retries",
)


class Workload:
    """Base: cells from a seed, plus checks and counters over results.

    ``values`` arguments are one pass's cell results in cell order, with
    ``None`` for a cell that raised.
    """

    name = ""

    def specs(self, seed: int) -> List[RunSpec]:
        raise NotImplementedError

    def digest(self, value) -> str:
        return results_digest([value])

    def problems(self, value) -> List[str]:
        """Output checks one completed cell must pass."""
        return []

    def pass_problems(self, values) -> List[str]:
        """Golden checks over a whole pass."""
        return []

    def headline(self, values) -> Dict[str, float]:
        """Simulated end-to-end results (virtual time, not host time)."""
        return {}

    def counters(self, values) -> Dict[str, float]:
        """Per-layer counters read from the cells' public results."""
        return {}

    def parity(self, seed: int, values) -> List[str]:
        """Differences between these cells and the CLI's, same seed."""
        return []


class Fig2(Workload):
    """The four paper configs at the CLI's 1200-image scale."""

    name = "fig2"

    @staticmethod
    def dataset() -> DatasetSpec:
        # The CLI's default (10x-reduced) scale for ``repro fig2``.
        return DatasetSpec(count=1200, mean_bytes=1 * MiB, mean_cpu=0.1)

    def specs(self, seed):
        return [RunSpec(fig2_imbalance.run_fig2,
                        {"dataset": self.dataset(),
                         "configs": [(name, machines)], "seed": seed},
                        name=f"fig2.{name}")
                for name, machines in fig2_imbalance.PAPER_CONFIGS]

    def problems(self, value):
        (row,) = value
        if not (math.isfinite(row.time_s) and row.time_s > 0):
            return [f"{row.name}: time_s={row.time_s!r}"]
        return []

    def headline(self, values):
        if any(v is None for v in values):
            return {}
        rows = [row for value in values for row in value]
        base = next(r.time_s for r in rows if r.name == "baseline")
        return {"fig2_slowdown": max(r.time_s for r in rows) / base}

    def pass_problems(self, values):
        slowdown = self.headline(values)["fig2_slowdown"]
        if slowdown > FIG2_SLOWDOWN_GOLDEN:
            return [f"fig2_slowdown {slowdown:.4f} > "
                    f"{FIG2_SLOWDOWN_GOLDEN} golden"]
        return []

    def parity(self, seed, values):
        rows = [row for value in values for row in value]
        code, printed = _capture_cli(["fig2", "--seed", str(seed)])
        if printed.rstrip("\n") != fig2_imbalance.report(rows):
            return [f"fig2: rows differ from `repro fig2` output "
                    f"(exit {code})"]
        return []


class Cloning(Workload):
    """6 one-core PS servers at load 0.7, c in {1, 3}, exp + hyperexp."""

    name = "cloning"
    grid = {"loads": (0.7,), "clones": (1, 3),
            "dists": (cloning.DIST_EXP, cloning.DIST_HYPER), "seeds": (0,)}

    def specs(self, seed):
        return cloning.build_specs(duration=CLONING_DURATION, seed=seed,
                                   **self.grid)

    def digest(self, value):
        return cloning.cells_digest([value])

    def problems(self, value):
        return [str(d) for d in compare_cells([value])]

    def counters(self, values):
        cells = [v for v in values if v]
        launched = sum(c["clones_launched"] for c in cells)
        cancelled = sum(c["clones_cancelled"] for c in cells)
        return {
            "apps.requests": sum(c["requests"] for c in cells),
            "apps.failed_requests": sum(c["failed_requests"] for c in cells),
            "hedge.clones_launched": launched,
            "hedge.clones_cancelled": cancelled,
            "hedge.useful_frac": ((launched - cancelled) / launched
                                  if launched else 0.0),
        }

    def parity(self, seed, values):
        # ``repro cloning`` cannot select this sub-grid, so call the
        # function it calls.  Cell seeds come from named streams keyed on
        # the cell's coordinates, so a one-cell grid reproduces the cell.
        cells, _report = cloning.run_cloning_exec(
            loads=(0.7,), clones=(1,), dists=(cloning.DIST_EXP,),
            seeds=(0,), duration=CLONING_DURATION, seed=seed)
        mine = [v for v in values if v and v["cell"] == cells[0]["cell"]]
        if cloning.cells_digest(mine) != cloning.cells_digest(cells):
            return [f"cloning: {cells[0]['cell']} differs from "
                    "run_cloning_exec"]
        return []


class Serving(Workload):
    """Fungible + static cells, 24 machines x 8 tenants x 2 s virtual."""

    name = "serving"

    def specs(self, seed):
        return serving.build_specs(seeds=(0,), seed=seed)

    def digest(self, value):
        return serving.cells_digest([value])

    def problems(self, value):
        return [f"{value['cell']}: starvation {v}"
                for v in value["starvation_violations"]]

    def headline(self, values):
        if any(v is None for v in values):
            return {}
        return {"goodput_ratio": serving.goodput_ratio(values)}

    def pass_problems(self, values):
        ratio = self.headline(values)["goodput_ratio"]
        if ratio < serving.GOODPUT_RATIO_FLOOR:
            return [f"goodput_ratio {ratio:.3f} < "
                    f"{serving.GOODPUT_RATIO_FLOOR} floor"]
        return []

    def counters(self, values):
        cells = [v for v in values if v]
        offered = sum(c["offered"] for c in cells)
        return {
            "core.migrations": sum(c["migrations"] for c in cells),
            "core.scale_ups": sum(c["scale_ups"] for c in cells),
            "core.scale_downs": sum(c["scale_downs"] for c in cells),
            "apps.requests": offered,
            "apps.offered": offered,
            "apps.slo_ok_frac": (sum(c["slo_ok"] for c in cells) / offered
                                 if offered else 0.0),
        }

    def parity(self, seed, values):
        code, printed = _capture_cli(["serving", "--seeds", "0",
                                      "--seed", str(seed)])
        line = next((ln for ln in printed.splitlines()
                     if ln.startswith("serving digest: ")), "")
        if line.split(": ", 1)[-1] != serving.cells_digest(list(values)):
            return [f"serving: cells differ from `repro serving` output "
                    f"(exit {code})"]
        return []


class Faults(Workload):
    """``repro chaos --autoscale --recovery checkpoint`` at the default
    4 machines x 2 s, for each of :data:`CHAOS_SEEDS`."""

    name = "faults"

    def specs(self, seed):
        return [RunSpec(run_chaos, {"config": _chaos_config(s)},
                        name=f"chaos.seed={s}")
                for s in CHAOS_SEEDS]

    def digest(self, value):
        return value.digest()

    def counters(self, values):
        results = [v for v in values if v]

        def total(field):
            return sum(getattr(r, field) for r in results)

        return {
            "runtime.migrations": total("migrations"),
            "runtime.migrations_retried": total("migrations_retried"),
            "runtime.migrations_failed": total("migrations_failed"),
            "chaos.invariant_checks": total("invariant_checks"),
            "chaos.faults_injected": total("injected"),
            "chaos.tasks_done": total("tasks_done"),
            "chaos.lost_calls": total("lost_calls"),
            "autoscale.decisions": total("autoscale_decisions"),
            "autoscale.splits": total("reshard_splits"),
            "autoscale.merges": total("reshard_merges"),
            "autoscale.aborts": total("reshard_aborts"),
            "ft.recoveries": total("recoveries"),
            "ft.failed_recoveries": total("failed_recoveries"),
            "ft.call_retries": total("call_retries"),
        }


WORKLOADS = {w.name: w for w in (Fig2(), Cloning(), Serving(), Faults())}
