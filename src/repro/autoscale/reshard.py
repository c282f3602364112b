"""Two-phase, crash-safe reshard protocol for range-sharded structures.

This is the only way a range-sharded memory structure
(:class:`~repro.ds.ShardedBase` and its subclasses) changes shape.  Both
triggers drive it through ``reshard_split_by_id`` /
``reshard_merge_by_id``: the heap-change
:class:`~repro.core.splitmerge.ShardSizeController` (the default) and
the periodic :class:`~repro.autoscale.ShardAutoscaler`.  Each op runs
three phases:

``PREPARE``
    Gate the donor shard (reusing the migration-gate mechanism, so
    callers block rather than fail), carve off the moving half, spawn
    the child *gated* on a health-eligible machine, and copy the bytes.
    The old routing table stays authoritative throughout — this is the
    dual-route window, accounted against
    :meth:`MigrationEngine.note_gate_window` so tests can prove no key
    was unroutable for longer than one migration gate.

``COMMIT``
    The atomic range-map flip: insert the child (split) or retire the
    donor (merge) in the routing table.  No simulator yield separates
    the table update from the range push-down, so no observer — the
    chaos invariant checker runs after *every* event — ever sees a
    half-flipped table.

``CLEANUP``
    Open the gates, retire the donor proclet (merge), settle the
    ledger op.

A ``MachineFailed`` at any yield point rolls back explicitly: the donor
reinstalls its items and reopens (if it survived), a spawned child is
destroyed, and the op is recorded as aborted in the runtime's
:class:`~repro.runtime.reshard.ReshardLedger` — the old shard stays
authoritative, which the chaos invariants verify after every event.
"""

from __future__ import annotations

from typing import Generator

from ..runtime.errors import MachineFailed
from ..runtime.proclet import ProcletStatus
from ..runtime.reshard import ReshardPhase


def reshard_split(ds, proclet_id: int):
    """Split shard *proclet_id* of structure *ds* through the two-phase
    protocol; returns the completion process event (value:
    ``(split_key, child_ref)`` or ``None`` when declined/aborted), or
    ``None`` when the shard is unknown."""
    idx = ds._find_by_id(proclet_id)
    if idx is None:
        return None
    shard = ds.shards[idx]
    return ds.qs.sim.process(_split_proc(ds, shard),
                             name=f"reshard-split:{ds.name}")


def reshard_merge(ds, proclet_id: int):
    """Merge shard *proclet_id* into its preferred partner through the
    two-phase protocol; returns the completion event (value ``True`` or
    ``None``), or ``None`` when there is nothing to merge."""
    idx = ds._find_by_id(proclet_id)
    if idx is None or len(ds.shards) < 2:
        return None
    shard = ds.shards[idx]
    partner = ds._merge_partner(idx)
    if partner is None:
        return None
    return ds.qs.sim.process(_merge_proc(ds, shard, partner),
                             name=f"reshard-merge:{ds.name}")


def _split_proc(ds, shard) -> Generator:
    qs = ds.qs
    sim = qs.sim
    runtime = qs.runtime
    ledger = runtime.reshard_ledger
    src = runtime._proclets.get(shard.ref.proclet_id)
    if src is None or src.status is not ProcletStatus.RUNNING \
            or src.object_count < 2:
        return None

    op = ledger.begin("split", ds, src.id)
    tr = sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("split", f"split {src.name}",
                        track=f"proclet:{src.name}", kind="memory")
    m = qs.metrics

    def abort(reason: str, outcome: str):
        ledger.abort(op, reason)
        if m is not None:
            m.count("autoscale.reshard.split.abort")
        if tr is not None:
            tr.end(span, outcome=outcome)
        return None

    gate_t0 = sim.now
    gate = qs._block(src)

    def close_gate_window():
        runtime.migration.note_gate_window("reshard.split",
                                           sim.now - gate_t0)

    # -- PREPARE ------------------------------------------------------------
    yield sim.timeout(qs.config.split_overhead)
    if src.status is not ProcletStatus.MIGRATING:
        # The source machine failed while we held the gate: the fail
        # path marked the proclet DEAD and opened the gate.  The old
        # (now lost) shard stays in the table for recovery to handle.
        return abort("source machine failed in prepare", "machine-failed")
    if src.object_count < 2:
        qs._unblock(src, gate)
        close_gate_window()
        return abort("stale: shard shrank below two keys", "stale")

    split_key = src.split_point()
    items, nbytes = src.extract_upper(split_key)
    child = type(src)()
    child.shard_owner = ds
    # Health-gated placement: with recovery enabled best_for_memory only
    # considers machines the failure detector holds ALIVE.
    dst = qs.placement.best_for_memory(nbytes + child.BASE_FOOTPRINT)
    if dst is None or not dst.memory.can_fit(nbytes + child.BASE_FOOTPRINT):
        src.install(items)  # rollback: nowhere to put the upper half
        qs._unblock(src, gate)
        close_gate_window()
        return abort("no room for the child shard", "no-room")

    child_ref = runtime.spawn(child, dst, name=f"{src.name}.hi")
    ledger.add_child(op, child_ref.proclet_id)
    # The child stays gated (dark) until commit: nothing can observe it
    # half-filled, and a concurrent controller cannot merge it away.
    child_gate = qs._block(child)

    def rollback_to_parent(reason: str):
        if child.status is not ProcletStatus.DEAD:
            qs._unblock(child, child_gate)
            runtime.destroy(child_ref)
        if src.status is not ProcletStatus.DEAD:
            src.install(items)
            qs._unblock(src, gate)
            close_gate_window()
        return abort(reason, "machine-failed")

    if dst is not src.machine:
        try:
            yield qs.cluster.fabric.transfer(
                src.machine, dst, nbytes, name=f"reshard:{src.name}")
        except MachineFailed:
            return rollback_to_parent("machine failed during transfer")
        if src.status is not ProcletStatus.MIGRATING \
                or child.status is not ProcletStatus.MIGRATING:
            return rollback_to_parent("endpoint died during transfer")
    child.install(items)

    # -- COMMIT (atomic: no yields until the gates reopen) ------------------
    ledger.advance(op, ReshardPhase.COMMIT)
    from ..ds.sharding import Shard

    ds._insert_shard(Shard(lo=split_key, ref=child_ref))
    qs.splits += 1
    if m is not None:
        m.count("quicksand.splits.memory")
        m.count("autoscale.reshard.split.commit")

    # -- CLEANUP ------------------------------------------------------------
    ledger.advance(op, ReshardPhase.CLEANUP)
    qs._unblock(child, child_gate)
    qs._unblock(src, gate)
    close_gate_window()
    ledger.complete(op)
    runtime.tracer.emit(
        "split", f"{src.name} at {split_key!r} -> {child.name}",
        moved_bytes=int(nbytes), dst=dst.name)
    if tr is not None:
        tr.end(span, moved_bytes=int(nbytes), dst=dst.name,
               new=child.name)
    return split_key, child_ref


def _merge_proc(ds, shard, partner) -> Generator:
    qs = ds.qs
    sim = qs.sim
    runtime = qs.runtime
    ledger = runtime.reshard_ledger
    src = runtime._proclets.get(shard.ref.proclet_id)       # merging away
    dst = runtime._proclets.get(partner.ref.proclet_id)     # survivor
    if src is None or dst is None or src is dst:
        return None
    if src.status is not ProcletStatus.RUNNING \
            or dst.status is not ProcletStatus.RUNNING:
        return None
    if not dst.machine.memory.can_fit(src.heap_bytes):
        return None

    op = ledger.begin("merge", ds, src.id)
    ledger.add_child(op, dst.id)
    tr = sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("merge", f"merge {src.name} -> {dst.name}",
                        track=f"proclet:{dst.name}", kind="memory")
    m = qs.metrics

    def abort(reason: str, outcome: str):
        ledger.abort(op, reason)
        if m is not None:
            m.count("autoscale.reshard.merge.abort")
        if tr is not None:
            tr.end(span, outcome=outcome)
        return None

    gate_t0 = sim.now
    src_gate = qs._block(src)
    dst_gate = qs._block(dst)

    def close_gate_window():
        runtime.migration.note_gate_window("reshard.merge",
                                           sim.now - gate_t0)

    def unblock_survivors(reinstall: bool):
        if reinstall and src.status is ProcletStatus.MIGRATING:
            src.install(items)
        if src.status is ProcletStatus.MIGRATING:
            qs._unblock(src, src_gate)
        if dst.status is ProcletStatus.MIGRATING:
            qs._unblock(dst, dst_gate)
        close_gate_window()

    # -- PREPARE ------------------------------------------------------------
    items = []
    yield sim.timeout(qs.config.split_overhead)
    if src.status is not ProcletStatus.MIGRATING \
            or dst.status is not ProcletStatus.MIGRATING:
        # An endpoint's machine failed while gated.  A dead donor's
        # items died with it (fail-stop); a dead survivor just means the
        # merge never happened.  Either way the table is untouched.
        unblock_survivors(reinstall=False)
        return abort("endpoint machine failed in prepare", "machine-failed")

    items, nbytes = src.extract_all()
    if dst.machine is not src.machine and nbytes > 0:
        try:
            yield qs.cluster.fabric.transfer(
                src.machine, dst.machine, nbytes,
                name=f"reshard:{src.name}")
        except MachineFailed:
            unblock_survivors(reinstall=True)
            return abort("machine failed during transfer", "machine-failed")
        if src.status is not ProcletStatus.MIGRATING \
                or dst.status is not ProcletStatus.MIGRATING:
            unblock_survivors(reinstall=True)
            return abort("endpoint died during transfer", "machine-failed")
    dst.install(items)

    # -- COMMIT (atomic range-map flip) -------------------------------------
    ledger.advance(op, ReshardPhase.COMMIT)
    ds._absorb_shard(shard, partner)
    qs.merges += 1
    if m is not None:
        m.count("quicksand.merges.memory")
        m.count("autoscale.reshard.merge.commit")

    # -- CLEANUP ------------------------------------------------------------
    ledger.advance(op, ReshardPhase.CLEANUP)
    qs._unblock(dst, dst_gate)
    qs._unblock(src, src_gate)
    close_gate_window()
    runtime.destroy(shard.ref)
    ledger.complete(op)
    runtime.tracer.emit(
        "merge", f"{src.name} -> {dst.name}", moved_bytes=int(nbytes))
    if tr is not None:
        tr.end(span, moved_bytes=int(nbytes))
    return True
