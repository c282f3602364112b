"""Missed-hook differential test for the change-driven invariant checker.

The checker's per-event path splits the inputs of invariants 1, 2, 4-7
and 9 into two groups.  A move in the *structural* group (the locator,
``state_version``, the reshard ledger) runs the full derivation; a move
in the *DRAM* group (memory ledgers and heap footprints) re-derives
invariant 2 for the machines the writes marked; otherwise both are
skipped.  That is exact only if *every* write to those inputs is
reported, to the right group and for the right machine.  This suite
fingerprints each group after every event of real chaos runs and
asserts that, whenever the checker skipped a group, its fingerprint
did not move — for the DRAM group, per machine not re-derived — and
that the full sweep ``check()`` passes on that event too.  A new write
to checked state that bypasses the versioned mutators and listeners
fails here.
"""

import pytest

from repro.chaos import ChaosConfig, InvariantViolation, run_chaos
from repro.chaos import scenario
from repro.chaos.invariants import InvariantChecker
from repro.cluster import OutOfMemory


def _structural_fingerprint(runtime):
    """Every input of the gated invariants outside the DRAM group, as
    comparable plain data (objects without ``__eq__`` compare by
    identity)."""
    loc = runtime.locator
    recovery = runtime.recovery
    migration = runtime.migration
    ledger = runtime.reshard_ledger
    registry = []
    for pid, p in runtime._proclets.items():
        d = p.__dict__
        gate = p._migration_gate
        registry.append((pid, p, p._status, p._machine.id,
                         d.get("range_lo"), d.get("range_hi"),
                         d.get("shard_owner"), gate,
                         gate is not None and gate.triggered))
    parts = [
        tuple((pid, m.id) for pid, m in loc._table.items()),
        tuple((m.id, frozenset(pids)) for m, pids in loc._by_machine.items()),
        tuple(registry),
        frozenset(runtime._lost),
        tuple(runtime._incarnations.items()),
        recovery,
        tuple((pid, dst.id, nbytes, inc)
              for pid, (dst, nbytes, inc) in migration._inflight.items()),
    ]
    for m in runtime.cluster.machines:
        parts.append((migration.inflight_reserved_on(m),
                      recovery.reserved_on(m) if recovery else None))
    if recovery is not None:
        parts.append((
            recovery.checkpoint_bytes_held,
            tuple((pid, peer.id, nbytes, inc) for pid, (peer, nbytes, inc)
                  in recovery._pending.items()),
            tuple((pid, s.peer.id, s.nbytes, s.peer_incarnation)
                  for pid, s in recovery._snapshots.items()),
            frozenset(recovery._restoring),
            tuple(recovery.convergence_errors)))
    parts.append(tuple((op, op.child_id, op.phase)
                       for op in ledger.active_ops()))
    parts.append(frozenset(ledger.protected_ids()))
    for ds in ledger.structures():
        parts.append((
            ds,
            tuple(getattr(s, "ref", s).proclet_id for s in ds.shards),
            tuple(getattr(s, "lo", None) for s in ds.shards),
            tuple(getattr(ds, "_los", ()))))
    return tuple(parts)


def _dram_fingerprint(runtime):
    """The DRAM group per machine id: up flag, ledger, ballast and the
    footprints of the proclets it hosts."""
    footprints = {m.id: [] for m in runtime.cluster.machines}
    for pid, p in runtime._proclets.items():
        footprints[p._machine.id].append((pid, p.footprint))
    return {m.id: (m.up, m.incarnation, m.memory.used, m.memory.ballast,
                   tuple(footprints[m.id]))
            for m in runtime.cluster.machines}


class _AuditedChecker(InvariantChecker):
    """The chaos scenario's checker plus an observer, attached right
    behind it, that audits every event on which the checker skipped an
    input group."""

    last = None

    def attach(self, sim=None):
        super().attach(sim)
        self.audited = 0
        self.partial_audited = 0
        self._structural = self._dram = None
        self._rederived = set()
        self._seen_derivations = None
        (sim or self.runtime.sim).add_observer(self._audit)
        _AuditedChecker.last = self
        return self

    def _check_memory_conservation(self, machines=None):
        if machines is not None:  # a DRAM-only re-derivation
            self._rederived.update(m.id for m in machines)
        super()._check_memory_conservation(machines)

    def _audit(self, _sim):
        now = self.runtime.sim.now
        structural = _structural_fingerprint(self.runtime)
        dram = _dram_fingerprint(self.runtime)
        if self.derivations == self._seen_derivations:
            if structural != self._structural:
                moved = [i for i, (a, b) in
                         enumerate(zip(self._structural, structural))
                         if a != b]
                raise AssertionError(
                    f"t={now:.6f}s: structural state moved (fingerprint "
                    f"parts {moved}) but the checker skipped the full "
                    f"derivation: a write bypassed the versioned mutators")
            missed = sorted(mid for mid, fp in dram.items()
                            if fp != self._dram[mid]
                            and mid not in self._rederived)
            if missed:
                raise AssertionError(
                    f"t={now:.6f}s: DRAM state of machines {missed} moved "
                    f"but the checker did not re-derive invariant 2 there: "
                    f"a write bypassed the memory and heap listeners")
            self.check()  # the full sweep must agree on this event
            self.audited += 1
            self.partial_audited += bool(self._rederived)
        self._structural, self._dram = structural, dram
        self._rederived = set()
        self._seen_derivations = self.derivations


@pytest.fixture
def audited(monkeypatch):
    monkeypatch.setattr(scenario, "InvariantChecker", _AuditedChecker)
    _AuditedChecker.last = None
    return _AuditedChecker


def _run(audited, **config):
    """Run one chaos config under audit; returns (result, error, now)."""
    try:
        result, error = run_chaos(ChaosConfig(**config)), None
    except (InvariantViolation, OutOfMemory) as exc:
        result, error = None, exc
    checker = audited.last
    # The audit must actually have exercised skipped events, including
    # DRAM-only re-derivations.
    assert checker.audited > 0
    assert checker.partial_audited > 0
    return result, error, checker.runtime.sim.now


_FAULTS = dict(autoscale=True, recovery_policy="checkpoint")


class TestFaultsSeeds:
    """The benchmark's faults cells at their full horizons, known
    defects included."""

    def test_seed_42_completes(self, audited):
        result, error, _now = _run(audited, seed=42, **_FAULTS)
        assert error is None
        assert result.invariant_derivations < result.invariant_checks

    def test_seed_0_dram_ledger_defect(self, audited):
        _result, error, now = _run(audited, seed=0, **_FAULTS)
        assert isinstance(error, InvariantViolation)
        assert str(error).startswith("t=1.218345s: m0 DRAM ledger ")
        assert f"{now:.6f}" == "1.218345"

    def test_seed_2_completes(self, audited):
        result, error, _now = _run(audited, seed=2, **_FAULTS)
        assert error is None
        assert result.invariant_derivations < result.invariant_checks

    def test_seed_8_reshard_out_of_memory(self, audited):
        _result, error, now = _run(audited, seed=8, **_FAULTS)
        assert isinstance(error, OutOfMemory)
        assert f"{now:.6f}" == "0.745320"


class TestOtherPaths:
    def test_legacy_healer_seed_7(self, audited):
        result, error, _now = _run(audited, seed=7)
        assert error is None

    def test_restart_recovery(self, audited):
        result, error, _now = _run(audited, seed=3,
                                   recovery_policy="restart")
        assert error is None
        assert result.recoveries > 0

    def test_oracle_run(self, audited):
        result, error, _now = _run(audited, seed=5, oracle=True,
                                   duration=0.5)
        assert error is None
        assert result.oracle_comparisons > 0
