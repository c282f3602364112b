"""Tests for the invariant checker: it passes on healthy runs and
catches deliberately corrupted state."""

import pytest

from repro import MachineSpec
from repro.chaos import (ChaosConfig, InvariantChecker, InvariantViolation,
                         run_chaos)
from repro.ft import RecoveryConfig, RecoveryPolicy
from repro.runtime import ProcletStatus
from repro.units import GiB, MiB

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


def checked(qs, **kw):
    return InvariantChecker(qs.runtime, **kw).attach(qs.sim)


class TestHealthyRuns:
    def test_clean_workload_passes(self, qs):
        checker = checked(qs)
        pool = qs.compute_pool(initial_members=2)
        ref = qs.spawn_memory()
        ref.call("mp_put", "k", 10 * MiB)
        for _ in range(5):
            pool.run(0.001)
        qs.run(until=0.1)
        assert checker.checks > 0
        checker.check()  # final state also holds

    def test_holds_across_migration(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        qs.run(until_event=ref.call("mp_put", "k", 50 * MiB))
        qs.run(until_event=qs.runtime.migrate(ref.proclet, m1))
        assert checker.checks > 0

    def test_holds_across_machine_failure(self, qs):
        checker = checked(qs)
        m0, _ = qs.machines
        ref = qs.spawn_memory(machine=m0)
        ref.call("mp_put", "k", 10 * MiB)
        qs.run(until=0.01)
        qs.runtime.fail_machine(m0)
        qs.run(until=0.02)
        qs.runtime.restore_machine(m0)
        qs.run(until=0.03)
        assert checker.checks > 0

    def test_stride_reduces_check_frequency(self, qs):
        every = checked(qs)
        sparse = InvariantChecker(qs.runtime, stride=10).attach(qs.sim)
        qs.compute_pool(initial_members=2).run(0.001)
        qs.run(until=0.05)
        assert 0 < sparse.checks < every.checks
        sparse.detach()
        every.detach()
        n = every.checks
        qs.run(until=0.06)
        assert every.checks == n  # detached checkers stop counting

    def test_oracle_mode_runs_comparisons(self, qs):
        checker = checked(qs, oracle=True)
        qs.compute_pool(initial_members=2).run(0.005)
        qs.run(until=0.05)
        assert checker.oracle_comparisons > 0

    def test_bad_stride_rejected(self, qs):
        with pytest.raises(ValueError):
            InvariantChecker(qs.runtime, stride=0)


class TestCorruptionDetected:
    def test_double_placement(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        loc = qs.runtime.locator
        loc._by_machine.setdefault(m1, set()).add(ref.proclet_id)
        with pytest.raises(InvariantViolation, match="double-placed|disagree"):
            checker.check()

    def test_locator_proclet_disagreement(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        ref.proclet._machine = m1  # locator still says m0
        with pytest.raises(InvariantViolation, match="locator says"):
            checker.check()

    def test_memory_leak_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        m0.memory.reserve(64 * MiB)  # bytes nobody accounts for
        with pytest.raises(InvariantViolation, match="DRAM ledger"):
            checker.check()

    def test_memory_underaccounting_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.spawn_memory(machine=m0)
        m0.memory.release(32 * 1024)  # bytes released out of thin air
        with pytest.raises(InvariantViolation, match="DRAM ledger"):
            checker.check()

    def test_crashed_machine_with_residual_memory(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.runtime.fail_machine(m0)
        m0.memory.used = 10.0  # corrupt the wiped ledger
        with pytest.raises(InvariantViolation, match="crashed"):
            checker.check()

    def test_fluid_rate_corruption_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        item = m0.cpu.sched.submit(work=10.0, demand=1.0)
        qs.run(until=0.001)
        item._rate = 1e9  # corrupt: far beyond demand and capacity
        with pytest.raises(InvariantViolation, match="rate|load"):
            checker.check()

    def test_stale_load_cache_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        m0.cpu.sched.submit(work=10.0, demand=2.0)
        qs.run(until=0.001)
        m0.cpu.sched._load = 123.0  # corrupt the cached aggregate
        with pytest.raises(InvariantViolation, match="cached load"):
            checker.check()

    def test_permanently_gated_proclet_detected(self, qs):
        checker = checked(qs, gate_timeout=0.01)
        ref = qs.spawn_memory()
        proclet = ref.proclet
        # Simulate a stuck migration: gate never opens.
        from repro.runtime import ProcletStatus

        proclet._status = ProcletStatus.MIGRATING
        proclet._migration_gate = qs.sim.event()
        checker.check()  # first sighting: starts the clock
        qs.sim.run(until=0.1)
        with pytest.raises(InvariantViolation, match="gated"):
            checker.check()

    def test_violation_surfaces_through_run(self, qs):
        """Attached checker fails the run at the first bad event."""
        checked(qs)
        m0 = qs.machines[0]
        qs.sim.call_at(0.01, m0.memory.reserve, 64 * MiB)
        with pytest.raises(InvariantViolation):
            qs.run(until=0.02)


def ticks(qs, every=0.004, until=0.1):
    """Idle events at exact instants: the checker skips re-derivation
    on all of them until something writes checked state."""
    for i in range(1, int(round(until / every)) + 1):
        qs.sim.call_at(i * every, lambda: None)


class TestObserverPathDetection:
    """Attached checkers re-derive only after events that reported a
    write through a versioned mutator or a subscribed listener.  Each
    corruption here goes through one family of such mutators inside
    ``sim.call_at`` while idle events keep the gated path busy, and
    ``qs.run`` itself must raise at that event."""

    def test_locator_move(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        ticks(qs)
        qs.sim.call_at(0.01, qs.runtime.locator.move, ref.proclet_id, m1)
        with pytest.raises(InvariantViolation,
                           match=r"^t=0\.010000s: .*locator says m1"):
            qs.run(until=0.05)
        assert checker.derivations < checker.checks

    def test_status_migrating_behind_a_gate_that_never_opens(self, qs):
        checker = checked(qs, gate_timeout=0.005)
        ref = qs.spawn_memory()
        ticks(qs)

        def stick():
            proclet = ref.proclet
            qs.runtime.set_status(proclet, ProcletStatus.MIGRATING)
            proclet._migration_gate = qs.sim.event()

        qs.sim.call_at(0.01, stick)
        # Gated at 0.010; the tick at 0.012 is inside the timeout and the
        # one at 0.016 is the first past it — both skip re-derivation, so
        # the O(1) oldest-gate test is what must catch it.
        with pytest.raises(InvariantViolation,
                           match=r"^t=0\.016000s: .* gated for 0\.006s"):
            qs.run(until=0.05)
        assert checker.derivations < checker.checks

    def test_shard_table_edit(self, qs):
        checker = checked(qs)
        ds = qs.sharded_map(name="kv")
        ticks(qs)
        qs.sim.call_at(0.01, ds._remove_shard, ds.shards[0])
        with pytest.raises(InvariantViolation,
                           match=r"^t=0\.010000s: kv: empty routing table"):
            qs.run(until=0.05)
        assert checker.derivations < checker.checks

    def test_destroyed_shard_under_a_reshard_op(self, qs):
        # Every reshard retires a shard from the routing table before
        # destroying it, so an active ledger op on the shard does not
        # excuse a destroyed table entry: only a lost one is legal.
        checker = checked(qs)
        ds = qs.sharded_map(name="kv")
        ticks(qs)
        shard_ref = ds.shards[0].ref

        def destroy_under_op():
            qs.runtime.reshard_ledger.begin("merge", ds,
                                            shard_ref.proclet_id)
            qs.runtime.destroy(shard_ref)

        qs.sim.call_at(0.01, destroy_under_op)
        with pytest.raises(InvariantViolation,
                           match=r"^t=0\.010000s: kv: routing table entry "
                                 r"#\d+ is destroyed but not lost"):
            qs.run(until=0.05)
        assert checker.derivations < checker.checks

    def test_checkpoint_ledger_edit(self):
        qs = make_qs(
            machines=[MachineSpec(name=f"m{i}", cores=4, dram_bytes=4 * GiB)
                      for i in range(3)],
            enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        manager = qs.enable_recovery(RecoveryConfig(
            heartbeat_interval=1e-3, checkpoint_interval=10e-3))
        ref = qs.spawn_memory(machine=qs.machines[0], name="state")
        qs.run(until_event=ref.call("mp_put", 0, 8 * MiB, "v"))
        manager.protect(ref, RecoveryPolicy.CHECKPOINT)
        qs.run(until=0.1)
        checker = checked(qs)

        def prune():
            # The crash hook drops the peer's snapshots from the ledger;
            # run against a peer that is still up, the bytes stay
            # reserved in its DRAM with nothing accounting for them.
            (snap,) = manager._snapshots.values()
            manager._on_machine_failure(snap.peer, [])

        qs.sim.call_at(0.11, prune)
        with pytest.raises(InvariantViolation,
                           match=r"^t=0\.110000s: m\d DRAM ledger"):
            qs.run(until=0.2)
        assert checker.derivations < checker.checks

    def test_faults_seed_0_fails_at_the_same_first_bad_event(self):
        with pytest.raises(InvariantViolation) as err:
            run_chaos(ChaosConfig(seed=0, autoscale=True,
                                  recovery_policy="checkpoint"))
        assert str(err.value) == (
            "t=1.218345s: m0 DRAM ledger 3862150936.4 B != 3929765994.6 B "
            "(residents 2414685752.0 + ballast 0.0 + in-flight 0.0 + "
            "checkpoints 1515080242.6)")
