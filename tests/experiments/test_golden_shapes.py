"""Golden shape tests: the paper's reproduced figures, enforced.

EXPERIMENTS.md's claims about Figs. 1–3 live here as assertions, at
fast scale, so a regression in the *shape* of a result (not just a
crash) fails CI instead of waiting for someone to regenerate and read
the report:

* Fig. 1 — fungible placement sustains ≈1.9x the goodput of static
  placement, on ≈full cluster utilisation, with ≈1 ms migrations.
* Fig. 2 — Quicksand makes imbalanced clusters perform within 1% of a
  balanced baseline of identical aggregate capacity.
* Fig. 3 — the training pool adapts to every GPU up/down toggle and
  returns to equilibrium latency.

The Fig. 1, Fig. 2 and Fig. 3 results are also pinned by literal
digests of the same fixtures: a change that moves any of these
trajectories must re-pin them deliberately.

The bands are deliberately generous around the measured values (see
EXPERIMENTS.md) — tight enough to catch a broken mechanism, loose
enough to survive benign scheduling-order changes.
"""

import pytest

from repro.apps.dnn import DatasetSpec
from repro.exec.engine import results_digest
from repro.experiments.fig1_filler import Fig1Config, run_fig1
from repro.experiments.fig2_imbalance import run_fig2
from repro.experiments.fig3_gpu_adapt import Fig3Config, run_fig3
from repro.units import MS, MiB


@pytest.fixture(scope="module")
def fig1_pair():
    fungible = run_fig1(Fig1Config(duration=60 * MS, fungible=True, seed=0))
    static = run_fig1(Fig1Config(duration=60 * MS, fungible=False, seed=0))
    return fungible, static


@pytest.fixture(scope="module")
def fig2_rows():
    # 240 images is too coarse for the 1% claim (quantisation noise
    # alone is ~3%); 1200 matches the CLI's reduced scale and converges.
    dataset = DatasetSpec(count=1200, mean_bytes=1 * MiB, mean_cpu=0.1)
    return run_fig2(dataset=dataset, seed=0)


@pytest.fixture(scope="module")
def fig3_result():
    return run_fig3(Fig3Config(duration=0.9, seed=0))


class TestFig1GoldenShape:
    def test_fungible_static_goodput_ratio_near_1_9x(self, fig1_pair):
        fungible, static = fig1_pair
        ratio = fungible.mean_goodput_cores / static.mean_goodput_cores
        # Measured 1.92x (paper: ~1.9x).  Below 1.75 the migration
        # machinery stopped reclaiming the idle machine; above 2.05
        # static placement broke, which is just as wrong.
        assert 1.75 <= ratio <= 2.05, f"fungible/static ratio {ratio:.3f}"

    def test_fungible_run_uses_nearly_the_whole_cluster(self, fig1_pair):
        fungible, static = fig1_pair
        assert fungible.mean_goodput_cores >= 0.90 * fungible.config.cores
        # Static placement is pinned to half the cluster (plus epsilon).
        assert static.mean_goodput_cores <= 0.56 * static.config.cores

    def test_migration_p99_under_a_millisecond(self, fig1_pair):
        fungible, _static = fig1_pair
        assert fungible.migrations > 0
        assert fungible.migration_latency.p99 < 1 * MS

    def test_fungible_actually_migrated(self, fig1_pair):
        fungible, static = fig1_pair
        assert fungible.migrations >= 8
        assert static.migrations == 0

    def test_results_digest_pinned(self, fig1_pair):
        # Pins the LocalScheduler starvation path (observe, patience
        # check, migrate) bit for bit.
        assert results_digest(list(fig1_pair)) == (
            "197412e61686b1a6cd2a15c197deaee6ed9164646579f6d6dee303ad742758e1")


class TestFig2GoldenShape:
    def test_all_configs_within_1pct_of_baseline(self, fig2_rows):
        baseline = next(r for r in fig2_rows if r.name == "baseline")
        for row in fig2_rows:
            overhead = row.time_s / baseline.time_s
            assert overhead <= 1.01, (
                f"{row.name}: {row.time_s:.4f}s is "
                f"{(overhead - 1) * 100:.2f}% over baseline "
                f"{baseline.time_s:.4f}s (claim: <= 1%)")

    def test_every_paper_config_ran(self, fig2_rows):
        assert {r.name for r in fig2_rows} == {
            "baseline", "cpu-unbalanced", "mem-unbalanced",
            "both-unbalanced"}

    def test_results_digest_pinned(self, fig2_rows):
        assert results_digest(fig2_rows) == (
            "837c9208d5a86b61feff4b4194e4c3f1925af355a162c5b8c14f6e10dc9db4ff")

    def test_imbalance_did_not_speed_things_up(self, fig2_rows):
        # Sanity on the sanity check: an "unbalanced faster than
        # balanced" result means the baseline regressed, not that
        # Quicksand improved.
        baseline = next(r for r in fig2_rows if r.name == "baseline")
        for row in fig2_rows:
            assert row.time_s >= baseline.time_s * 0.999


class TestFig3GoldenShape:
    def test_adapts_to_every_gpu_toggle(self, fig3_result):
        assert fig3_result.toggles, "no GPU capacity toggles happened"
        assert fig3_result.adaptation_success_rate == 1.0

    def test_returns_to_equilibrium_latency(self, fig3_result):
        assert fig3_result.equilibrium_latencies
        assert fig3_result.latency_summary.p90 < 25 * MS

    def test_gpus_stay_busy(self, fig3_result):
        assert fig3_result.gpu_idle_fraction < 0.10
        assert fig3_result.batches_trained > 0

    def test_results_digest_pinned(self, fig3_result):
        assert results_digest([fig3_result]) == (
            "8d5d09d3e98ac9f10c9fef2ecc853d57977eca6839f01139fa7a0b403aa93ef4")
