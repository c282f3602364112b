"""Missed-hook differential test for the change-driven invariant checker.

The checker's per-event path skips re-deriving invariants 1, 2, 4-7
and 9 when no versioned mutator or subscribed listener reported a
write since the last derivation.  That is exact only if *every* write
to their inputs is reported.  This suite fingerprints those inputs
after every event of real chaos runs and asserts that, whenever the
checker skipped, the fingerprint did not move — and that the full
sweep ``check()`` passes on that event too.  A new write to checked
state that bypasses the versioned mutators fails here.
"""

import pytest

from repro.chaos import ChaosConfig, InvariantViolation, run_chaos
from repro.chaos import scenario
from repro.chaos.invariants import InvariantChecker
from repro.cluster import OutOfMemory


def _fingerprint(runtime):
    """Every input of the gated invariants, as comparable plain data
    (objects without ``__eq__`` compare by identity)."""
    loc = runtime.locator
    recovery = runtime.recovery
    migration = runtime.migration
    ledger = runtime.reshard_ledger
    registry = []
    for pid, p in runtime._proclets.items():
        d = p.__dict__
        gate = p._migration_gate
        registry.append((pid, p, p._status, p._machine.id, p.footprint,
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
        parts.append((m.up, m.incarnation, m.memory.used, m.memory.ballast,
                      migration.inflight_reserved_on(m),
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


class _AuditedChecker(InvariantChecker):
    """The chaos scenario's checker plus an observer, attached right
    behind it, that audits every event the checker settled without a
    full derivation."""

    last = None

    def attach(self, sim=None):
        super().attach(sim)
        self.audited = 0
        self._fp = None
        self._seen_derivations = None
        (sim or self.runtime.sim).add_observer(self._audit)
        _AuditedChecker.last = self
        return self

    def _audit(self, _sim):
        fp = _fingerprint(self.runtime)
        if self.derivations == self._seen_derivations:
            if fp != self._fp:
                moved = [i for i, (a, b) in enumerate(zip(self._fp, fp))
                         if a != b]
                raise AssertionError(
                    f"t={self.runtime.sim.now:.6f}s: checked state moved "
                    f"(fingerprint parts {moved}) but the checker skipped "
                    f"re-derivation: a write bypassed the versioned "
                    f"mutators")
            self.check()  # the full sweep must agree on this event
            self.audited += 1
        self._fp = fp
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
    # The audit must actually have exercised skipped events.
    assert checker.audited > 0
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
