"""FIG1 benchmark: filler goodput under anti-phased HIGH bursts.

Regenerates Figure 1.  Shape assertions:
* the fungible filler migrates in well under 1 ms;
* its goodput approaches one full machine (>85% of 8 cores);
* the static baseline is pinned near 50%;
* fungible/static ratio is ~2x.
"""

from repro.experiments.fig1_filler import Fig1Config, run_fig1, report
from repro.units import MS

from .conftest import record_report

_DURATION = 100 * MS


def _fungible():
    return run_fig1(Fig1Config(fungible=True, duration=_DURATION))


def _static():
    return run_fig1(Fig1Config(fungible=False, duration=_DURATION))


def test_fig1_fungible_filler(benchmark):
    result = benchmark.pedantic(_fungible, rounds=1, iterations=1)
    # Migration latency: the paper's "<1 ms between machines".
    assert result.migrations > 0
    assert result.migration_latency.p99 < 1 * MS
    # Goodput: nearly one whole machine's worth, continuously.
    assert result.goodput_fraction_of_one_machine > 0.85
    benchmark.extra_info["goodput_cores"] = result.mean_goodput_cores
    benchmark.extra_info["migration_p50_ms"] = \
        result.migration_latency.p50 * 1e3


def test_fig1_static_baseline(benchmark):
    """ABL-STATIC: the classic cloud leaves ~50% idle (§2)."""
    result = benchmark.pedantic(_static, rounds=1, iterations=1)
    assert result.migrations == 0
    assert 0.40 < result.goodput_fraction_of_one_machine < 0.60
    benchmark.extra_info["goodput_cores"] = result.mean_goodput_cores


def test_fig1_fungible_vs_static(benchmark):
    def both():
        return _fungible(), _static()

    fungible, static = benchmark.pedantic(both, rounds=1, iterations=1)
    ratio = fungible.mean_goodput_cores / static.mean_goodput_cores
    assert ratio > 1.6, f"fungibility should ~double goodput, got {ratio:.2f}x"
    record_report("FIG1", report(fungible, static))
    benchmark.extra_info["fungible_over_static"] = ratio

