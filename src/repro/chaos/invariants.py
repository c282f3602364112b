"""Global-invariant checking as a DES observer.

An :class:`InvariantChecker` hooks :meth:`Simulator.add_observer` and
re-derives, after every processed event, the properties that must hold
at *every* instant of a correct simulation, no matter what faults were
injected:

1. **No double placement** — the locator's per-machine sets partition
   its table; every entry maps to a live proclet whose ``machine``
   agrees with the table.
2. **Conservation of heap bytes** — each live machine's DRAM ledger
   equals the footprints of its resident proclets, plus fault ballast,
   plus destination reservations of in-flight migrations.  A crashed
   machine holds exactly zero.
3. **Fluid sanity** — for every scheduler: rates are within
   ``[0, demand]``, their sum matches the cached ``load`` aggregate and
   never exceeds capacity, and priority is strict (a hungry class
   starves everything below it).  Optionally each scheduler is also
   diffed against the brute-force oracle (:mod:`repro.chaos.oracle`).
4. **No permanently-gated proclet** — a MIGRATING proclet always has an
   untriggered gate, and no single gate stays closed longer than
   ``gate_timeout`` virtual seconds.
8. **Clone-set hygiene** (:mod:`repro.hedge`) — every cloned call has
   at most one winner; once a call is decided and virtual time has
   advanced past the decision instant, every losing attempt has
   actually terminated and none of its cancelled CPU work items is
   still active on a scheduler (cancelled clones must not leak
   capacity, DRAM-backed work, or gated proclets — the DRAM and gate
   invariants above apply to clone losers like everything else).
9. **Reshard integrity** (:mod:`repro.runtime.reshard`) — for every
   tracked sharded structure: the routing table covers the full key
   space at every instant (first bound is BOTTOM, bounds strictly
   sorted, parallel arrays agree — *routable-keys-always*); every table
   entry resolves to a live or recoverably-lost proclet (a destroyed
   entry is never legal: reshards retire a shard from the table before
   destroying it);
   each settled shard proclet's enforced ``range_lo``/``range_hi``
   agrees with its table neighbours; and no live shard proclet is
   absent from its owner's table unless an active op protects it (no
   orphaned child shards, including across aborts).

The checker is read-only: schedulers with a *pending* coalesced
reassignment are skipped for that event (forcing a flush mid-instant
would perturb the run) and re-checked after the flush lands, which is
always before virtual time advances.

**Change-driven checking.**  :meth:`InvariantChecker.check` is the full
derivation of every invariant.  The per-event observer path re-derives
only what the writes since the last derivation can have moved.  Every
write to state invariants 1, 2, 4-7 and 9 read is reported, in one of
two input groups:

* *structural* — the locator's listeners, ``NuRuntime.state_version``
  and ``ReshardLedger.version``.  Any move runs the full derivation.
* *DRAM* — the memory ledgers' listeners (reserve, release, wipe,
  ballast) and ``NuRuntime.on_heap_change`` (footprints).  These feed
  invariant 2 only, and each marks one machine: the ledger's own, or
  the machine of the proclet whose heap changed.  When only this group
  moved, invariant 2 is re-derived for the marked machines alone.

Invariant 2 on one machine reads only that machine's ledger, ballast
and up flag, its residents' footprints (all DRAM-group inputs, which
mark it) and its residency set, in-flight and checkpoint reservations
(structural inputs).  So a machine that is not marked, when no
structural input moved since the last derivation (which passed), has
unchanged inputs and passes again; the other skipped invariants are
pure functions of unchanged inputs too.  On every event the checker
also re-checks what moves without a write — the gate timeout (against
the oldest open gate, O(1)), clone hygiene (8), and fluid sanity (3)
for the schedulers that reassigned or changed capacity or demand since
their last check — in the full sweep's order.  The verdict, and the
message of the first violation, is therefore the same the full
derivation would give at every event.  Any new write to checked state
must go through a versioned mutator or a subscribed listener;
``tests/chaos/test_missed_hooks.py`` fails otherwise.

On violation it raises :class:`InvariantViolation` from inside the event
loop, failing the run at the first bad state — the chaos analogue of an
assertion compiled into the kernel.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from . import oracle as _oracle

#: Rate/aggregate slack: a few ulps of a realistic capacity.
_RATE_EPS = 1e-9
#: DRAM ledger slack in bytes (footprints are floats; 1 B is generous).
_MEM_EPS = 1.0


class InvariantViolation(Exception):
    """A global invariant failed to hold after an event."""


class InvariantChecker:
    """Asserts global invariants over a :class:`NuRuntime` after every
    simulator event (or every ``stride``-th event)."""

    def __init__(self, runtime, oracle: bool = False, stride: int = 1,
                 gate_timeout: float = 1.0):
        if stride < 1:
            raise ValueError(f"stride must be >= 1: {stride}")
        self.runtime = runtime
        self.oracle = oracle
        self.stride = stride
        self.gate_timeout = gate_timeout
        self.checks = 0
        #: Full derivations run (:meth:`check` calls, and observed
        #: events whose structural inputs changed); ``checks`` minus
        #: this is the number of events the gated path settled without
        #: one.
        self.derivations = 0
        #: Observed events that re-derived invariant 2 for the machines
        #: marked by DRAM-group writes only (no full derivation).
        self.partial_derivations = 0
        self.events_seen = 0
        self.oracle_comparisons = 0
        # id(gate) -> first time the gate was seen closed.  Insertion
        # order is time order, so the first entry is the oldest gate.
        self._gate_seen: Dict[int, float] = {}
        # pid -> highest incarnation ever observed (must never regress).
        self._incarnation_seen: Dict[int, int] = {}
        self._attached_to = None
        # Locator changes reported by the subscribed listener.
        self._hooked = 0
        # Structural input version at the last passing full derivation
        # (None: derive on the next observed event).
        self._derived_at: Optional[int] = None
        # Ids of the machines whose DRAM-group inputs (ledger, ballast,
        # up flag, resident footprints) moved since invariant 2 was
        # last derived for them.
        self._mem_marked: set = set()
        # Scheduler -> position in the full sweep's order; set when the
        # listeners are subscribed (first attach).
        self._sched_rank: Optional[Dict] = None
        # Schedulers to re-check: reassigned, or capacity/demand moved.
        self._sched_changed: set = set()

    # -- observer plumbing ---------------------------------------------------
    def attach(self, sim=None) -> "InvariantChecker":
        sim = sim or self.runtime.sim
        if self._sched_rank is None:
            self._subscribe()
        self._derived_at = None  # state may have moved while detached
        sim.add_observer(self._on_event)
        self._attached_to = sim
        return self

    def _subscribe(self) -> None:
        runtime = self.runtime
        mark = self._mem_marked.add
        for m in runtime.cluster.machines:
            m.memory.add_listener(
                lambda _memory, machine_id=m.id: mark(machine_id))
        runtime.locator.add_listener(self._note_change)
        runtime.on_heap_change(lambda proclet: mark(proclet._machine.id))
        self._sched_rank = {}
        note = self._sched_changed.add
        for sched in self._schedulers():
            self._sched_rank[sched] = len(self._sched_rank)
            sched.add_observer(note)
            sched.add_input_observer(note)

    def _note_change(self, *_args) -> None:
        self._hooked += 1

    def _version(self) -> int:
        # The structural group: a sum of monotone counters moves iff
        # one of them does.
        runtime = self.runtime
        return (runtime.state_version + runtime.reshard_ledger.version
                + self._hooked)

    def detach(self) -> None:
        if self._attached_to is not None:
            self._attached_to.remove_observer(self._on_event)
            self._attached_to = None

    def _on_event(self, _sim) -> None:
        self.events_seen += 1
        if self.events_seen % self.stride:
            return
        if self._version() != self._derived_at:
            self.check()
            return
        # Structural inputs are unchanged since the last derivation,
        # which passed.  Re-derive invariant 2 where a DRAM-group write
        # marked a machine, then what moves without a write, in the full
        # sweep's order so the first violation (and its message) is the
        # one check() would report.
        self.checks += 1
        marked = self._mem_marked
        if marked:
            self.partial_derivations += 1
            self._check_memory_conservation(
                [m for m in self.runtime.cluster.machines
                 if m.id in marked])
            marked.clear()
        if self._sched_changed:
            self._check_fluid(sorted(self._sched_changed,
                                     key=self._sched_rank.__getitem__))
        gates = self._gate_seen
        if gates and (self.runtime.sim.now - next(iter(gates.values()))
                      > self.gate_timeout):
            self._check_gates()
        self._check_clones()

    # -- the invariants ------------------------------------------------------
    def check(self) -> None:
        """Run every invariant once (the full derivation, whatever
        changed); raises :class:`InvariantViolation`."""
        self.checks += 1
        self.derivations += 1
        version = self._version()
        self._check_placement()
        self._check_memory_conservation()
        self._check_fluid(self._schedulers())
        self._check_gates()
        self._check_recovery()
        self._check_clones()
        self._check_resharding()
        self._derived_at = version
        self._mem_marked.clear()

    def _fail(self, what: str) -> None:
        raise InvariantViolation(
            f"t={self.runtime.sim.now:.6f}s: {what}")

    def _check_placement(self) -> None:
        loc = self.runtime.locator
        proclets = self.runtime._proclets
        seen: set = set()
        for machine, pids in loc._by_machine.items():
            for pid in pids:
                if pid in seen:
                    self._fail(f"proclet #{pid} double-placed")
                seen.add(pid)
                if loc._table.get(pid) is not machine:
                    self._fail(
                        f"proclet #{pid} in {machine.name}'s residency set "
                        f"but table says "
                        f"{getattr(loc._table.get(pid), 'name', None)}")
        if seen != set(loc._table):
            self._fail("locator table and residency sets disagree: "
                       f"{sorted(seen ^ set(loc._table))}")
        for pid, machine in loc._table.items():
            proclet = proclets.get(pid)
            if proclet is None:
                self._fail(f"locator maps dead proclet #{pid}")
            if proclet._machine is not machine:
                self._fail(
                    f"{proclet.name}: locator says {machine.name}, proclet "
                    f"says {getattr(proclet._machine, 'name', None)}")
        for pid, proclet in proclets.items():
            if pid not in loc._table:
                self._fail(f"live proclet {proclet.name} missing from "
                           f"locator")

    def _check_memory_conservation(self, machines=None) -> None:
        """Invariant 2 on *machines* (default: every machine)."""
        loc = self.runtime.locator
        migration = self.runtime.migration
        proclets = self.runtime._proclets
        if machines is None:
            machines = self.runtime.cluster.machines
        for m in machines:
            if not m.up:
                if m.memory.used != 0.0:
                    self._fail(f"crashed {m.name} holds "
                               f"{m.memory.used:.0f} B of DRAM")
                if loc.proclets_on(m):
                    self._fail(f"crashed {m.name} still hosts proclets "
                               f"{loc.proclets_on(m)}")
                continue
            resident = sum(proclets[pid].footprint
                           for pid in loc.proclets_on(m))
            recovery = self.runtime.recovery
            ckpt = recovery.reserved_on(m) if recovery is not None else 0.0
            expected = (resident + m.memory.ballast
                        + migration.inflight_reserved_on(m) + ckpt)
            if not math.isclose(m.memory.used, expected,
                                rel_tol=1e-9, abs_tol=_MEM_EPS):
                self._fail(
                    f"{m.name} DRAM ledger {m.memory.used:.1f} B != "
                    f"{expected:.1f} B (residents {resident:.1f} + ballast "
                    f"{m.memory.ballast:.1f} + in-flight "
                    f"{migration.inflight_reserved_on(m):.1f} + "
                    f"checkpoints {ckpt:.1f})")
            if m.memory.used > m.memory.capacity + _MEM_EPS:
                self._fail(f"{m.name} DRAM oversubscribed: "
                           f"{m.memory.used:.0f} / "
                           f"{m.memory.capacity:.0f} B")

    def _schedulers(self):
        for m in self.runtime.cluster.machines:
            yield m.cpu.sched
            yield m.nic.tx
            if m.gpus is not None:
                yield m.gpus.sched
            if m.storage is not None:
                yield m.storage.iops
                yield m.storage.read_bw
                yield m.storage.write_bw

    def _check_fluid(self, schedulers) -> None:
        for sched in schedulers:
            if sched._dirty:
                # A coalesced reassignment is pending; it will flush
                # before time advances and the next event re-checks.
                continue
            self._sched_changed.discard(sched)
            eps = _RATE_EPS * max(1.0, sched.capacity)
            total = 0.0
            hungriest: Optional[int] = None
            for it in sched._items:
                rate = it._rate
                if rate < -eps or rate > it.demand + eps:
                    self._fail(f"{sched.name}/{it.name}: rate {rate!r} "
                               f"outside [0, demand={it.demand!r}]")
                total += rate
                if rate < it.demand - eps and (hungriest is None
                                               or it.priority < hungriest):
                    hungriest = it.priority
            if total > sched.capacity + eps:
                self._fail(f"{sched.name}: rates sum to {total!r} > "
                           f"capacity {sched.capacity!r}")
            if not math.isclose(total, sched._load,
                                rel_tol=1e-9, abs_tol=eps):
                self._fail(f"{sched.name}: cached load {sched._load!r} != "
                           f"rate sum {total!r}")
            if hungriest is not None:
                for it in sched._items:
                    if it.priority > hungriest and it._rate > eps:
                        self._fail(
                            f"{sched.name}/{it.name}: class {it.priority} "
                            f"served while class {hungriest} is hungry")
            if self.oracle and sched._items:
                self.oracle_comparisons += 1
                divergences = _oracle.compare(sched)
                if divergences:
                    self._fail(f"oracle divergence: "
                               + "; ".join(map(str, divergences)))

    def _check_gates(self) -> None:
        from ..runtime.proclet import ProcletStatus

        now = self.runtime.sim.now
        live_gates: set = set()
        for proclet in self.runtime._proclets.values():
            if proclet._status is ProcletStatus.DEAD:
                self._fail(f"{proclet.name} is DEAD but still registered")
            if proclet._status is ProcletStatus.MIGRATING:
                gate = proclet._migration_gate
                if gate is None:
                    self._fail(f"{proclet.name} MIGRATING without a gate")
                if gate.triggered:
                    self._fail(f"{proclet.name} MIGRATING behind an "
                               f"already-open gate")
                key = id(gate)
                live_gates.add(key)
                first = self._gate_seen.setdefault(key, now)
                if now - first > self.gate_timeout:
                    self._fail(
                        f"{proclet.name} gated for "
                        f"{now - first:.3f}s > {self.gate_timeout:.3f}s "
                        f"(permanently gated?)")
        # Forget gates that opened, so ids can be reused safely.
        for key in list(self._gate_seen):
            if key not in live_gates:
                del self._gate_seen[key]

    def _check_recovery(self) -> None:
        """Fault-tolerance invariants (cheap no-ops without repro.ft).

        5. **No double incarnation** — an id is never simultaneously
           live and lost, and its incarnation number never regresses.
        6. **Checkpoint byte conservation** — the per-machine view of
           checkpoint reservations sums exactly to the manager's
           authoritative held-bytes ledger.
        7. **Recovered-state convergence** — every completed restore
           matched its expected state (the manager records divergences).
        """
        runtime = self.runtime
        for pid in runtime.lost_proclets():
            if pid in runtime._proclets:
                self._fail(f"proclet #{pid} is both live and lost "
                           f"(double incarnation)")
        for pid, inc in runtime._incarnations.items():
            seen = self._incarnation_seen.get(pid, 0)
            if inc < seen:
                self._fail(f"proclet #{pid} incarnation regressed "
                           f"{seen} -> {inc}")
            self._incarnation_seen[pid] = inc
        recovery = runtime.recovery
        if recovery is None:
            return
        per_machine = sum(recovery.reserved_on(m)
                          for m in runtime.cluster.machines)
        if not math.isclose(per_machine, recovery.checkpoint_bytes_held,
                            rel_tol=1e-9, abs_tol=_MEM_EPS):
            self._fail(
                f"checkpoint bytes not conserved: machines hold "
                f"{per_machine:.1f} B, manager ledger says "
                f"{recovery.checkpoint_bytes_held:.1f} B")
        if recovery.convergence_errors:
            self._fail("recovered state diverged: "
                       + "; ".join(recovery.convergence_errors))

    def _check_clones(self) -> None:
        """Clone-set hygiene (invariant 8; cheap no-op without cloned
        calls in flight)."""
        now = self.runtime.sim.now
        for call in self.runtime._clone_calls:
            winners = sum(1 for att in call.attempts if att.won)
            if winners > 1:
                self._fail(f"{call!r} has {winners} winners")
            if not call.decided:
                continue
            if winners == 0 and call.process is not None \
                    and call.process.triggered and call.process.ok:
                self._fail(f"{call!r} decided successfully without a "
                           f"winning attempt")
            if now <= call.decided_at:
                # Cancellation lands within the decision instant; give
                # the interrupt wakeups this timestamp to process.
                continue
            for att in call.attempts:
                if att.won:
                    continue
                if not att.process.triggered:
                    self._fail(
                        f"{call!r}: losing clone {att.index} still alive "
                        f"{now - call.decided_at:.6f}s after the "
                        f"decision (cancel leaked)")
                for item in att.work_items:
                    if item.active:
                        self._fail(
                            f"{call!r}: cancelled clone {att.index} "
                            f"leaked active work item {item.name!r}")

    def _check_resharding(self) -> None:
        """Reshard integrity (invariant 9; cheap no-op without tracked
        sharded structures)."""
        runtime = self.runtime
        ledger = getattr(runtime, "reshard_ledger", None)
        if ledger is None or not ledger._structures:
            return
        from ..ds.sharding import _Bottom
        from ..runtime.proclet import ProcletStatus

        structures = ledger.structures()
        protected = ledger.protected_ids()
        lost = set(runtime.lost_proclets())
        recovery = runtime.recovery
        table_pids: Dict[int, set] = {}
        for ds in structures:
            shards = list(ds.shards)
            table_pids[id(ds)] = {getattr(s, "ref", s).proclet_id
                                  for s in shards}
            los = getattr(ds, "_los", None)
            if los is not None:
                # Range-sharded: full key-space coverage at every
                # instant (routable-keys-always).
                if not shards:
                    self._fail(f"{ds.name}: empty routing table "
                               f"(every key unroutable)")
                if len(los) != len(shards):
                    self._fail(f"{ds.name}: lo array has {len(los)} "
                               f"entries for {len(shards)} shards")
                if not isinstance(shards[0].lo, _Bottom):
                    self._fail(
                        f"{ds.name}: first shard starts at "
                        f"{shards[0].lo!r}, not BOTTOM — keys below it "
                        f"are unroutable")
                for i, shard in enumerate(shards):
                    if shard.lo != los[i]:
                        self._fail(f"{ds.name}: shard {i} lower bound "
                                   f"{shard.lo!r} != lo array {los[i]!r}")
                    if i > 0 and not los[i - 1] < los[i]:
                        self._fail(f"{ds.name}: lower bounds out of "
                                   f"order at {i}: {los[i - 1]!r} !< "
                                   f"{los[i]!r}")
            for i, shard in enumerate(shards):
                pid = getattr(shard, "ref", shard).proclet_id
                proclet = runtime._proclets.get(pid)
                if proclet is None:
                    # Only a machine failure (recovery's problem) may
                    # leave a dead entry: every reshard retires a shard
                    # from the table before destroying it.
                    if pid not in lost:
                        self._fail(
                            f"{ds.name}: routing table entry #{pid} is "
                            f"destroyed but not lost (unroutable range)")
                    continue
                if los is None or pid in protected:
                    continue
                if proclet._status is not ProcletStatus.RUNNING:
                    continue  # gated by an op; ranges settle at cleanup
                if recovery is not None and recovery.restoring(pid):
                    continue
                lo = shard.lo
                want_lo = None if isinstance(lo, _Bottom) else lo
                want_hi = (shards[i + 1].lo if i + 1 < len(shards)
                           else None)
                if proclet.range_lo != want_lo \
                        or proclet.range_hi != want_hi:
                    self._fail(
                        f"{ds.name}/{proclet.name}: enforced range "
                        f"[{proclet.range_lo!r}, {proclet.range_hi!r}) "
                        f"disagrees with the routing table "
                        f"[{want_lo!r}, {want_hi!r})")
        # No orphaned children: a live shard proclet outside its owner's
        # routing table is legal only mid-reshard (ledger-protected).
        for pid, proclet in runtime._proclets.items():
            owner = getattr(proclet, "shard_owner", None)
            if owner is None or id(owner) not in table_pids:
                continue
            if pid in table_pids[id(owner)]:
                continue
            if ledger.protects_child(pid):
                continue
            self._fail(
                f"{owner.name}: live shard {proclet.name} is missing "
                f"from the routing table and no active reshard op "
                f"protects it (orphaned child shard)")

    def __repr__(self) -> str:
        return (f"<InvariantChecker checks={self.checks} "
                f"oracle={'on' if self.oracle else 'off'} "
                f"stride={self.stride}>")
