"""Shape tests of harvesting: the tenant keeps its tail, the filler
keeps its goodput, on every seed.

* EXT-ISOLATION — a HIGH-priority latency-critical service keeps its
  tail latency while a fungible filler saturates every leftover cycle on
  the same machine.  This is what distinguishes Quicksand-style
  harvesting from naive oversubscription.
* Fig. 1 seed robustness — the fungible/static goodput gap holds on
  seeds 0–2, not only on the seed the goldens pin.
"""

from repro import ClusterSpec, GiB, MachineSpec, Quicksand, QuicksandConfig
from repro.apps import FillerApp, LatencyService
from repro.experiments.fig1_filler import Fig1Config, run_fig1
from repro.units import MS, US


def _isolation_run(with_filler: bool):
    qs = Quicksand(
        ClusterSpec(machines=[
            MachineSpec(name="m0", cores=8, dram_bytes=4 * GiB),
        ]),
        config=QuicksandConfig(enable_local_scheduler=False,
                               enable_global_scheduler=False,
                               enable_split_merge=False),
    )
    m0 = qs.machines[0]
    svc = LatencyService(m0, arrival_rate=4000.0, service_cpu=500 * US,
                         rng_stream="svc")
    svc.start()
    filler = (FillerApp(qs, proclets=8, work_unit=100 * US, machine=m0)
              if with_filler else None)
    qs.run(until=1.0)
    goodput = filler.goodput_cores(0.2, 1.0) if filler else 0.0
    return svc.latency_summary(), goodput


def test_isolation_under_harvesting():
    alone, _g = _isolation_run(with_filler=False)
    shared, goodput = _isolation_run(with_filler=True)
    # The tenant's tail is (nearly) untouched ...
    assert shared.p99 <= alone.p99 * 1.25 + 50e-6
    assert shared.p50 <= alone.p50 * 1.25 + 50e-6
    # ... while the filler soaks up most of the idle capacity
    # (offered service load is ~2 of 8 cores).
    assert goodput > 4.5


def test_fig1_seed_robustness():
    """The Fig. 1 shape must not depend on the seed."""
    for seed in (0, 1, 2):
        fungible = run_fig1(Fig1Config(fungible=True, duration=60 * MS,
                                       seed=seed))
        static = run_fig1(Fig1Config(fungible=False, duration=60 * MS,
                                     seed=seed))
        assert (fungible.mean_goodput_cores
                > 1.6 * static.mean_goodput_cores)
