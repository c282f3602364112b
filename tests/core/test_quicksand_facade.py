"""Tests for the Quicksand facade: placement, split/merge primitives."""

import pytest

from repro import (
    ClusterSpec,
    MachineSpec,
    ProcletStatus,
    Quicksand,
    QuicksandConfig,
    Task,
)
from repro.runtime.errors import InvalidPlacement
from repro.units import GiB, KiB, MiB

from ..conftest import gpu_machine, make_qs, storage_machine


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


class TestPlacement:
    def test_memory_proclet_goes_to_most_free_dram(self):
        qs = make_qs(machines=[
            MachineSpec(name="small", cores=8, dram_bytes=1 * GiB),
            MachineSpec(name="big", cores=8, dram_bytes=8 * GiB),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        ref = qs.spawn_memory()
        assert ref.machine.name == "big"

    def test_compute_proclet_goes_to_most_free_cpu(self):
        qs = make_qs(machines=[
            MachineSpec(name="weak", cores=2, dram_bytes=4 * GiB),
            MachineSpec(name="beefy", cores=40, dram_bytes=4 * GiB),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        ref = qs.spawn_compute()
        assert ref.machine.name == "beefy"

    def test_compute_fallback_when_all_busy(self, qs):
        from repro.cluster import Priority

        for m in qs.machines:
            m.cpu.hold(threads=m.cpu.cores, priority=Priority.HIGH)
        ref = qs.spawn_compute()  # falls back to least-loaded
        assert ref.machine in qs.machines

    def test_gpu_proclet_requires_gpus(self, qs):
        with pytest.raises(InvalidPlacement):
            qs.spawn_gpu()

    def test_gpu_proclet_goes_to_gpu_machine(self):
        qs = make_qs(machines=[
            MachineSpec(name="cpuonly", cores=8, dram_bytes=4 * GiB),
            gpu_machine(name="gpubox"),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        ref = qs.spawn_gpu()
        assert ref.machine.name == "gpubox"

    def test_storage_proclet_requires_device(self, qs):
        with pytest.raises(InvalidPlacement):
            qs.spawn_storage()

    def test_explicit_machine_overrides_policy(self, qs):
        m0 = qs.machines[0]
        ref = qs.spawn_memory(machine=m0)
        assert ref.machine is m0


def _filled_map(qs, n=16, size=1 * MiB, machine=None):
    """A one-shard map holding keys ``0..n-1`` of *size* bytes each."""
    m = qs.sharded_map(name="kv", initial_machine=machine)
    for k in range(n):
        qs.sim.run(until_event=m.put(k, f"v{k}", size))
    return m


def _split(qs, m, idx=0):
    return qs.sim.run(until_event=m.reshard_split_by_id(
        m.shards[idx].ref.proclet_id))


def _crowd(machine, leave):
    """Reserve *machine*'s DRAM until only *leave* bytes stay free, which
    steers (or denies) child-shard placement."""
    machine.memory.reserve(machine.memory.free - leave)


class TestSplitMemory:
    """Memory shards split through the two-phase reshard protocol."""

    def test_split_halves_bytes(self, qs):
        m = _filled_map(qs, n=16)
        split_key, new_ref = _split(qs, m)
        assert m.shards[0].proclet.heap_bytes == pytest.approx(8 * MiB)
        assert new_ref.proclet.heap_bytes == pytest.approx(8 * MiB)
        assert split_key == 8
        assert m.shards[1].ref is new_ref
        assert qs.splits == 1

    def test_split_preserves_all_objects(self, qs):
        m = _filled_map(qs, n=10)
        old_ref = m.shards[0].ref
        split_key, new_ref = _split(qs, m)
        total = old_ref.proclet.object_count + new_ref.proclet.object_count
        assert total == 10
        # and every key readable, from the right shard
        for k in range(10):
            target = new_ref if k >= split_key else old_ref
            assert qs.sim.run(until_event=target.call("mp_get", k)) \
                == f"v{k}"
            assert qs.sim.run(until_event=m.get(k)) == f"v{k}"

    def test_split_blocks_invocations_until_done(self, qs):
        m0, m1 = qs.machines
        m = _filled_map(qs, n=64, machine=m0)
        # Crowd m0 so the new half goes to m1 and the transfer is slow
        # enough to observe the gate.
        _crowd(m0, 1 * GiB)
        donor = m.shards[0].ref
        split_ev = m.reshard_split_by_id(donor.proclet_id)
        qs.sim.run(until=qs.sim.now + 150e-6)  # inside the split window
        assert donor.proclet.status is ProcletStatus.MIGRATING
        read = m.get(0)
        assert not read.triggered
        _key, new_ref = qs.sim.run(until_event=split_ev)
        assert new_ref.machine is m1
        assert qs.sim.run(until_event=read) == "v0"  # unblocked

    def test_split_too_small_returns_none(self, qs):
        m = _filled_map(qs, n=1, size=10)
        assert _split(qs, m) is None
        assert m.shard_count == 1

    def test_split_in_place_when_cluster_is_tight(self):
        """With one nearly-full machine the split still succeeds locally:
        re-granularization does not need new DRAM for the data itself."""
        qs = make_qs(machines=[
            MachineSpec(name="only", cores=4, dram_bytes=1 * GiB),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        m = _filled_map(qs, n=8, size=64 * MiB)
        only = qs.machines[0]
        _crowd(only, 1 * MiB)
        split_key, new_ref = _split(qs, m)
        assert new_ref.machine is only
        assert sum(s.proclet.object_count for s in m.shards) == 8

    def test_split_to_full_destination_undoes(self, qs):
        m0, m1 = qs.machines
        m = _filled_map(qs, n=8, machine=m0)
        # Neither machine can take the upper half plus a shard's base
        # footprint, even counting the bytes the split frees on m0.
        _crowd(m0, 1 * KiB)
        _crowd(m1, 1 * MiB)
        donor = m.shards[0].ref
        assert _split(qs, m) is None
        assert m.shard_count == 1
        assert donor.proclet.object_count == 8
        assert donor.proclet.status is ProcletStatus.RUNNING
        assert qs.runtime.reshard_ledger.counters["split_aborted"] == 1
        assert qs.sim.run(until_event=m.get(7)) == "v7"


class TestMergeMemory:
    def _two_shards(self, qs, n=8, size=100 * KiB):
        """A map split once, its two shards on different machines."""
        m0, m1 = qs.machines
        m = _filled_map(qs, n=n, size=size, machine=m0)
        m0.memory.reserve(1 * GiB)  # the child goes to m1
        assert _split(qs, m) is not None
        m0.memory.release(1 * GiB)
        left, right = m.shards
        assert (left.ref.machine, right.ref.machine) == (m0, m1)
        return m, left, right

    def test_merge_moves_objects_and_destroys_source(self, qs):
        m, left, right = self._two_shards(qs)
        ok = qs.sim.run(until_event=m.reshard_merge_by_id(
            right.ref.proclet_id))
        assert ok is True
        assert m.shard_count == 1
        assert left.proclet.object_count == 8
        assert qs.merges == 1
        from repro.runtime import DeadProclet

        with pytest.raises(DeadProclet):
            qs.sim.run(until_event=right.ref.call("mp_get", 7))
        assert qs.sim.run(until_event=m.get(7)) == "v7"

    def test_merge_declined_when_destination_full(self, qs):
        m, left, right = self._two_shards(qs, size=8 * MiB)
        _crowd(left.ref.machine, 1 * MiB)
        result = qs.sim.run(until_event=m.reshard_merge_by_id(
            right.ref.proclet_id))
        assert result is None
        assert m.shard_count == 2
        assert right.proclet.object_count == 4


class TestSplitCompute:
    def test_split_divides_queue(self, qs):
        ref = qs.spawn_compute(parallelism=1, machine=qs.machines[0])
        events = []
        for i in range(9):
            t = Task(work=0.05, key=i, done=qs.sim.event())
            ref.call("cp_submit", t)
            events.append(t.done)
        qs.sim.run(until=0.01)
        new_ref = qs.sim.run(until_event=qs.split_compute(ref))
        assert new_ref is not None
        assert new_ref.proclet.queue_length + ref.proclet.queue_length \
            + ref.proclet.busy_workers + new_ref.proclet.busy_workers == 9 - ref.proclet.tasks_done
        # all tasks still complete exactly once
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert ref.proclet.tasks_done + new_ref.proclet.tasks_done == 9

    def test_split_finishes_faster_than_serial(self, qs):
        ref = qs.spawn_compute(parallelism=1, machine=qs.machines[0])
        events = []
        for i in range(8):
            t = Task(work=0.1, key=i, done=qs.sim.event())
            ref.call("cp_submit", t)
            events.append(t.done)
        qs.sim.run(until=0.01)
        qs.sim.run(until_event=qs.split_compute(ref))
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert qs.sim.now < 0.55  # serial would be 0.8s

    def test_split_denied_without_cpu_headroom(self, qs):
        from repro.cluster import Priority

        for m in qs.machines:
            m.cpu.hold(threads=m.cpu.cores, priority=Priority.HIGH)
        ref = qs.spawn_compute()
        result = qs.sim.run(until_event=qs.split_compute(ref))
        assert result is None


class TestMergeCompute:
    def test_merge_transfers_queue_and_destroys(self, qs):
        a = qs.spawn_compute(parallelism=1, machine=qs.machines[0])
        b = qs.spawn_compute(parallelism=1, machine=qs.machines[1])
        events = []
        for i in range(6):
            t = Task(work=0.02, key=i, done=qs.sim.event())
            b.call("cp_submit", t)
            events.append(t.done)
        qs.sim.run(until=0.005)
        ok = qs.sim.run(until_event=qs.merge_compute(a, b))
        assert ok is True
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert a.proclet.tasks_done + 1 >= 6 - 1  # b finished its in-flight


class TestFacadeMisc:
    def test_repr(self, qs):
        assert "Quicksand" in repr(qs)

    def test_machine_lookup(self, qs):
        assert qs.machine("m0") is qs.machines[0]

    def test_storage_machines_listed(self):
        qs = make_qs(machines=[storage_machine()],
                     enable_local_scheduler=False,
                     enable_global_scheduler=False,
                     enable_split_merge=False)
        assert len(qs.placement.storage_machines()) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuicksandConfig(max_shard_bytes=1.0, min_shard_bytes=2.0)
        with pytest.raises(ValueError):
            QuicksandConfig(memory_watermark=0.0)
        with pytest.raises(ValueError):
            QuicksandConfig(autoscale_period=0.0)
