"""Edge-case tests for the Quicksand facade and config switches."""

import pytest

from repro import (
    Cluster,
    MachineSpec,
    MemoryProclet,
    Proclet,
    Quicksand,
    QuicksandConfig,
    ResourceKind,
    symmetric_cluster,
)
from repro.units import GiB, MiB

from ..conftest import make_qs


class TestSpawnEdges:
    def test_hybrid_proclet_places_by_memory(self, qs_quiet):
        class Plain(Proclet):
            pass

        ref = qs_quiet.spawn(Plain())
        assert ref.machine in qs_quiet.machines

    def test_spawn_accepts_prebuilt_cluster(self):
        cluster = Cluster(symmetric_cluster(2, cores=4, dram_bytes=GiB))
        qs = Quicksand(cluster)
        assert qs.cluster is cluster
        assert qs.sim is cluster.sim

    def test_named_spawn(self, qs_quiet):
        ref = qs_quiet.spawn_memory(name="my-shard")
        assert ref.proclet.name == "my-shard"

    def test_resource_kind_flags(self):
        from repro.core.computeproclet import ComputeProclet

        assert MemoryProclet().is_memory
        assert not MemoryProclet().is_compute
        assert ComputeProclet().is_compute
        assert ComputeProclet().kind is ResourceKind.COMPUTE


class TestSchedulerSwitches:
    def test_all_controllers_disabled_runs_clean(self):
        qs = make_qs(enable_local_scheduler=False,
                     enable_global_scheduler=False,
                     enable_split_merge=False)
        assert qs.local_schedulers == []
        assert qs.global_scheduler is None
        assert qs.shard_controller is None
        vec = qs.sharded_vector()
        events = [vec.append(i, 1 * MiB) for i in range(40)]
        qs.run(until_event=qs.sim.all_of(events))
        qs.run(until=qs.sim.now + 0.1)
        assert vec.shard_count == 1  # nothing split it
        assert qs.splits == 0

    def test_local_only(self):
        qs = make_qs(enable_global_scheduler=False)
        assert len(qs.local_schedulers) == 2
        assert qs.global_scheduler is None

    def test_global_runs_periodically(self):
        qs = make_qs(enable_local_scheduler=False,
                     enable_split_merge=False,
                     global_interval=0.01)
        qs.run(until=0.055)
        assert qs.global_scheduler.rounds == 5


class TestSplitMergeEdges:
    def test_split_on_busy_shard_returns_none(self, qs_quiet):
        qs = qs_quiet
        m = qs.sharded_map(name="kv", initial_machine=qs.machines[0])
        for i in range(8):
            qs.run(until_event=m.put(i, None, 1 * MiB))
        pid = m.shards[0].ref.proclet_id
        first = m.reshard_split_by_id(pid)
        second = m.reshard_split_by_id(pid)  # starts while first gates
        r1 = qs.run(until_event=first)
        r2 = qs.run(until_event=second)
        outcomes = [r1, r2]
        assert sum(1 for r in outcomes if r is not None) == 1
        assert m.shard_count == 2

    def test_merge_without_partner_is_declined(self, qs_quiet):
        qs = qs_quiet
        m = qs.sharded_map(name="kv", initial_machine=qs.machines[0])
        qs.run(until_event=m.put(1, None, 1024))
        # A lone shard has no neighbour to merge into: nothing starts,
        # and the shard survives.
        assert m.reshard_merge_by_id(m.shards[0].ref.proclet_id) is None
        assert m.shard_count == 1
        assert m.shards[0].proclet.object_count == 1
        assert qs.runtime.reshard_ledger.counters["merge_started"] == 0

    def test_compute_split_preserves_source_object(self, qs_quiet):
        qs = qs_quiet

        class CountingSource:
            def __init__(self):
                self.pulls = 0

            def pull(self, ctx):
                yield ctx.cpu(1e-6)
                self.pulls += 1
                if self.pulls > 10:
                    return None
                from repro import Task

                return Task(work=0.001)

        src = CountingSource()
        ref = qs.spawn_compute(parallelism=1, source=src)
        new_ref = qs.run(until_event=qs.split_compute(ref))
        assert new_ref is not None
        assert new_ref.proclet.source is src  # shared stream


class TestConfigDefaults:
    def test_frozen(self):
        cfg = QuicksandConfig()
        with pytest.raises(Exception):
            cfg.max_shard_bytes = 1

    def test_ablation_switch_combinations(self):
        for local in (True, False):
            for global_ in (True, False):
                qs = make_qs(enable_local_scheduler=local,
                             enable_global_scheduler=global_)
                qs.run(until=0.01)  # must simply not crash