"""Literal pins of the request paths in ``apps/service.py`` and
``apps/serving.py``.

Every request path completes a request at a fixed point in the
same-instant event order: a clone set finishes when its first clone's
completion is processed, a hedge is decided one zero-delay hop after its
timer fires, and a clone lost to a machine crash re-arms the hedge timer
from the crash instant.  A change to any of those orderings moves at
least one of these digests, so they pin the trajectories bit for bit
(samples, in completion order, plus every counter).
"""

import pytest

from repro import ClusterSpec, GiB, MachineSpec, Quicksand, QuicksandConfig
from repro.apps import (CloneService, FillerApp, LatencyService,
                        ServingScenario, default_tenants)
from repro.exec.engine import results_digest
from repro.hedge import Deterministic, Exponential, HyperExp
from repro.units import MS, US

_DISTS = {
    "exp": Exponential(mean=1 * MS),
    "hyper": HyperExp(p=0.9, mean_fast=0.5 * MS, mean_slow=5.5 * MS),
    "det": Deterministic(value=1 * MS),
    "det5": Deterministic(value=5 * MS),
}


def _qs(servers: int, cores: float = 1, seed: int = 0) -> Quicksand:
    machines = [MachineSpec(name=f"s{i}", cores=cores, dram_bytes=1 * GiB)
                for i in range(servers)]
    return Quicksand(ClusterSpec(machines=machines, seed=seed),
                     config=QuicksandConfig(enable_local_scheduler=False,
                                            enable_global_scheduler=False,
                                            enable_split_merge=False))


def _counters(svc: CloneService) -> dict:
    return {"requests_done": svc.requests_done,
            "failed_requests": svc.failed_requests,
            "clones_launched": svc.clones_launched,
            "clones_cancelled": svc.clones_cancelled,
            "hedges_fired": svc.hedges_fired,
            "budget_denied": svc.budget_denied}


def _clone_digest(svc: CloneService) -> str:
    return results_digest([svc.samples, _counters(svc)])


def _clone_run(servers=6, c=1, dist="exp", rate=None, until=0.5,
               fail_at=None, fail=(0,), **kwargs) -> CloneService:
    qs = _qs(servers)
    dist_obj = _DISTS[dist]
    if rate is None:
        rate = 0.7 * servers / dist_obj.mean
    svc = CloneService(qs.machines, rate, dist_obj, clone_factor=c,
                       **kwargs)
    svc.start()
    if fail_at is not None:
        # Crash mid-flight, then bring the servers straight back (empty):
        # in-flight clones there fail with MachineFailed, and no later
        # clone is routed to a down server.
        qs.run(until=fail_at)
        victims = [qs.machines[i] for i in fail]
        for m in victims:
            qs.runtime.fail_machine(m)
        for m in victims:
            qs.runtime.restore_machine(m)
    qs.run(until=until)
    return svc


class TestCloneServicePins:
    @pytest.mark.parametrize("c,dist,want", [
        (1, "exp",
         "c5789d17f58ea00c3c7f4c941ce751111d969295e1f26d335422d90fb14bc292"),
        (2, "exp",
         "b62c1a996eae33a2555af755b5437233a68439ea6728b81a8206eed12379c1f6"),
        (3, "exp",
         "45570917d5e7c0837a9c40f3731a5d0e542f58ba1ff2287ff3b1a54ab8c5c047"),
        (1, "hyper",
         "6cf08dfa0d26126f68b61412476ba96d5564454b7d554b441482e59893135c66"),
        (2, "hyper",
         "9ac4dceaf468b785985b83bb34c4badcda7ea242b03b102bac4e05598327f22a"),
        (3, "hyper",
         "6a5d69f84b872979b0c3b14a0ad3dc111c235ffb300aaae7729093f380702e1f"),
        (1, "det",
         "72eee0ffe6b6ed843e303692b10f29a78f184fdc84de863bd84ac29e03601d88"),
        (2, "det",
         "8b070cb6d65788c59dd96f6715629bc3f23b240b912bebfeb53e16f30a36767a"),
        (3, "det",
         "335462a671f46b8e9e3f458484827f7c592a5d2f422450a353acf5ac61831568"),
    ])
    def test_clone_factor_by_distribution(self, c, dist, want):
        assert _clone_digest(_clone_run(c=c, dist=dist)) == want

    def test_hedge_timer_tied_with_completion(self):
        """The hedge timer and the primary's completion land on the
        same instant: the hedge decision runs one hop after the timer,
        so it sees the finished primary and does not fire."""
        svc = _clone_run(servers=4, c=2, dist="det5", rate=20.0,
                         until=2.0, hedge_after=5 * MS)
        assert svc.hedges_fired == 4
        assert svc.clones_launched == 56
        assert svc.clones_cancelled == 4
        assert _clone_digest(svc) == (
            "294360cd2b68afac307a1a3142799d7c69649ce2af38b60d5514b7ef5f85b7cc")

    def test_hedged_with_budget(self):
        svc = _clone_run(c=3, dist="hyper", hedge_after=1 * MS,
                         clone_budget=2)
        assert _clone_digest(svc) == (
            "1cd127063f45454cc1095db707e20b079483e345631b52303211137aa2e690a2")

    @pytest.mark.parametrize("c,fail,want", [
        (1, (0,),
         "35f861fb1f65a70cf39a1025cab342367c90160736f0cdc9f58980b7e6f6e3f7"),
        (2, (0,),
         "36fac86037e24e74b747febd67933c84cd8102718a5cdb0164cf55b1151d3901"),
        (2, (0, 1),
         "834dc408474a7e6a1549bbea63c048b5e0272531804a6288a861dc0e42957c31"),
    ])
    def test_machine_failure_mid_flight(self, c, fail, want):
        svc = _clone_run(c=c, dist="exp", fail_at=0.2, fail=fail)
        assert _clone_digest(svc) == want

    def test_hedged_machine_failure_mid_flight(self):
        """A clone lost to the crash re-arms the hedge timer from the
        crash instant; only requests losing every clone fail."""
        svc = _clone_run(c=3, dist="hyper", hedge_after=1 * MS,
                         fail_at=0.2, fail=(1,))
        assert _clone_digest(svc) == (
            "def3bff131db845486d7f508ab4100f7dabd722c5274b422f8e5c439723c0f68")

    def test_crashed_clone_does_not_block_the_hedge(self, monkeypatch):
        """Only a finished clone makes a hedge pointless: a hedge hop
        whose set lost a clone to the crash, with none finished, still
        launches the next clone instead of re-arming forever."""
        from repro.apps import service

        exposed = []
        on_hop = service._CloneSet._on_hop

        def audited_hop(clone_set, hop):
            dones = [item.done for _server, item in clone_set.items]
            blocked_before = (
                any(d.triggered and not d.ok for d in dones)
                and not any(d.triggered and d.ok for d in dones)
                and not clone_set.budget_blocked
                and clone_set.tried < len(clone_set.group))
            tried = clone_set.tried
            on_hop(clone_set, hop)
            if blocked_before:
                exposed.append(clone_set.tried - tried)

        monkeypatch.setattr(service._CloneSet, "_on_hop", audited_hop)
        svc = _clone_run(c=3, dist="det5", rate=600.0, hedge_after=1 * MS,
                         fail_at=0.2, fail=(0,))
        assert exposed and all(n == 1 for n in exposed)
        assert _clone_digest(svc) == (
            "190838a6380eb5fb78b591687ca47878132f52f900d138770176b8d253647fa7")


class TestLatencyServicePins:
    # The same digest twice: strict priority hides the NORMAL filler
    # from the HIGH requests bit for bit.
    @pytest.mark.parametrize("with_filler,want", [
        (False,
         "d2ecf06839f764563da4a34b4d9ca172d12427f18a2249d8c71e20d8f8fe4b70"),
        (True,
         "d2ecf06839f764563da4a34b4d9ca172d12427f18a2249d8c71e20d8f8fe4b70"),
    ])
    def test_samples(self, with_filler, want):
        qs = _qs(1, cores=8)
        m0 = qs.machines[0]
        svc = LatencyService(m0, arrival_rate=4000.0, service_cpu=500 * US,
                             rng_stream="svc")
        svc.start()
        if with_filler:
            FillerApp(qs, proclets=8, work_unit=100 * US, machine=m0)
        qs.run(until=0.2)
        assert results_digest([svc.samples, svc.requests_done]) == want


class TestServingPins:
    def test_cell_with_machine_crash(self):
        sc = ServingScenario(default_tenants(4), machines=8,
                             mode="fungible", seed=0, duration=0.6,
                             warmup=0.1, sched_interval=20 * MS)

        def crash():
            yield sc.qs.sim.timeout(0.25)
            for m in sc.qs.machines[:2]:
                sc.qs.runtime.fail_machine(m)
        sc.qs.sim.process(crash(), name="crash")
        sc.run()
        failed = [t.failed for t in sc.tenants]
        assert sum(failed) > 0
        samples = [t.samples for t in sc.tenants]
        assert results_digest([sc.results(), failed, samples]) == (
            "1aae32345da54fd47383786c68235135b7cf866e67c4a7f1362f1885be62c736")
