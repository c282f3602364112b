"""Sharded queue (§3.2, §4): the producer/consumer coupling element.

The Fig. 2/3 pipeline connects CPU preprocessing (producers) to GPU
training (consumers) through this queue.  Elements live in queue-shard
memory proclets that charge DRAM for buffered data, so the queue can
"absorb bursts in producer output by storing it in memory proclets that
can split and migrate" (§4).  Ordering is FIFO per shard; global order is
relaxed, as usual for distributed queues.
"""

from __future__ import annotations

import collections
from typing import Any, Deque, Generator, List, Optional, Tuple

from ..cluster import Machine
from ..runtime import MachineFailed, Payload, ProcletStatus
from ..units import US
from ..core.resource import ResourceKind, ResourceProclet

_OP_CPU = 0.2 * US
_EMPTY = object()


class QueueShardProclet(ResourceProclet):
    """One FIFO shard of a sharded queue (a memory-kind proclet)."""

    kind = ResourceKind.MEMORY

    def __init__(self):
        super().__init__()
        self._items: Deque[Tuple[float, Any]] = collections.deque()

    @property
    def length(self) -> int:
        return len(self._items)

    # -- proclet methods -----------------------------------------------------
    def qp_push(self, ctx, nbytes: float, value: Any):
        yield ctx.cpu(_OP_CPU)
        ctx.alloc(nbytes)
        self._items.append((float(nbytes), value))
        owner = self.shard_owner
        if owner is not None:
            owner._note_push()

    def qp_pop(self, ctx):
        """Pop the oldest element, or the EMPTY sentinel."""
        yield ctx.cpu(_OP_CPU)
        if not self._items:
            return Payload(_EMPTY, nbytes=0.0)
        nbytes, value = self._items.popleft()
        self.heap_free(nbytes)
        owner = self.shard_owner
        if owner is not None:
            owner._note_pop()
        return Payload(value, nbytes=nbytes)

    def qp_len(self, ctx):
        yield ctx.cpu(_OP_CPU)
        return len(self._items)

    # -- split/merge primitives (queue-specific, §3.3) --------------------------
    def extract_back_half(self) -> Tuple[List[Tuple[float, Any]], float]:
        n = len(self._items) // 2
        moved = [self._items.pop() for _ in range(n)]
        moved.reverse()
        total = sum(nbytes for nbytes, _v in moved)
        if total > 0:
            self.heap_free(total)
        return moved, total

    def extract_everything(self) -> Tuple[List[Tuple[float, Any]], float]:
        moved = list(self._items)
        self._items.clear()
        total = sum(nbytes for nbytes, _v in moved)
        if total > 0:
            self.heap_free(total)
        return moved, total

    def install_items(self, items: List[Tuple[float, Any]]) -> None:
        total = sum(nbytes for nbytes, _v in items)
        if total > 0:
            self.heap_alloc(total)
        self._items.extend(items)


class ShardedQueue:
    """Multi-shard FIFO connecting pipeline stages."""

    def __init__(self, qs, name: str = "queue", initial_shards: int = 1,
                 machines: Optional[List[Machine]] = None):
        if initial_shards < 1:
            raise ValueError("a queue needs at least one shard")
        self.qs = qs
        self.name = name
        self.shards: List = []
        self.pushed = 0
        self.popped = 0
        #: Times a consumer found the queue empty and had to block —
        #: the "downstream is starving" signal for the autoscaler (§3.3).
        self.waits = 0
        self._rr_push = 0
        self._rr_pop = 0
        self._waiters: List = []
        self._initial_shards = initial_shards
        for i in range(initial_shards):
            machine = machines[i % len(machines)] if machines else None
            self._add_shard(machine)
        qs.runtime.reshard_ledger.track(self)

    # -- shard management ---------------------------------------------------
    def _add_shard(self, machine: Optional[Machine] = None):
        proclet = QueueShardProclet()
        proclet.shard_owner = self
        ref = self.qs.spawn(proclet, machine,
                            name=f"{self.name}.q{len(self.shards)}")
        self.shards.append(ref)
        self.qs.runtime.state_version += 1
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.register(ref, self)
        return ref

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def length(self) -> int:
        return self.pushed - self.popped

    # -- producer side ----------------------------------------------------------
    def push(self, value: Any, nbytes: float, ctx=None):
        """Enqueue one element; returns the completion event.

        Producers inside proclets push to a shard on their own machine
        when one exists (locality); otherwise round-robin.  A shard
        merged away between routing and execution is retried against the
        current shard list (stale-routing semantics, as for the map).
        """
        from ..runtime import DeadProclet

        def attempt():
            last_exc = None
            for _try in range(8):
                ref = self._pick_push_shard(ctx)
                ev = (ctx.call(ref, "qp_push", nbytes, value,
                               req_bytes=nbytes)
                      if ctx is not None
                      else ref.call("qp_push", nbytes, value))
                try:
                    return (yield ev)
                except DeadProclet as exc:
                    last_exc = exc
            raise last_exc

        return self.qs.sim.process(attempt(), name=f"{self.name}.push")

    @staticmethod
    def _routable(ref):
        """The shard's live proclet, or None while it is lost to a
        machine failure (awaiting recovery) — routing must skip it
        rather than crash; the invocation layer handles retries."""
        from ..runtime import DeadProclet

        try:
            proclet = ref.proclet
        except DeadProclet:
            return None
        return None if proclet.status is ProcletStatus.DEAD else proclet

    def _pick_push_shard(self, ctx):
        live = [s for s in self.shards if self._routable(s) is not None]
        candidates = live or self.shards
        if ctx is not None and live:
            local = [s for s in live if s.machine is ctx.machine]
            if local:
                return min(local, key=lambda s: s.proclet.length)
        ref = candidates[self._rr_push % len(candidates)]
        self._rr_push += 1
        return ref

    def _note_push(self) -> None:
        self.pushed += 1
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def _note_pop(self) -> None:
        self.popped += 1

    # -- consumer side -------------------------------------------------------------
    def pop(self, ctx=None):
        """Dequeue one element, waiting if the queue is empty.

        Returns a process event whose value is the element.
        """
        return self.qs.sim.process(self._pop_proc(ctx),
                                   name=f"{self.name}.pop")

    def _pop_proc(self, ctx) -> Generator:
        from ..runtime import DeadProclet

        while True:
            # Scan shards round-robin, preferring the local one.
            order = self._pop_order(ctx)
            for ref in order:
                ev = (ctx.call(ref, "qp_pop") if ctx is not None
                      else ref.call("qp_pop"))
                try:
                    value = yield ev
                except DeadProclet:
                    continue  # shard merged away mid-scan; move on
                if value is not _EMPTY:
                    return value
            # All empty: block until a push lands anywhere.
            self.waits += 1
            waiter = self.qs.sim.event()
            self._waiters.append(waiter)
            yield waiter

    def _pop_order(self, ctx):
        shards = [s for s in self.shards if self._routable(s) is not None]
        nonempty = [s for s in shards if s.proclet.length > 0]
        candidates = nonempty or shards
        if ctx is not None:
            candidates = sorted(
                candidates, key=lambda s: s.machine is not ctx.machine)
        else:
            self._rr_pop += 1
            k = self._rr_pop % max(1, len(candidates))
            candidates = candidates[k:] + candidates[:k]
        return candidates

    def try_pop(self, ctx=None):
        """Non-blocking pop: event value is the element or ``None``."""
        return self.qs.sim.process(self._try_pop_proc(ctx),
                                   name=f"{self.name}.try_pop")

    def _try_pop_proc(self, ctx) -> Generator:
        from ..runtime import DeadProclet

        for ref in self._pop_order(ctx):
            ev = (ctx.call(ref, "qp_pop") if ctx is not None
                  else ref.call("qp_pop"))
            try:
                value = yield ev
            except DeadProclet:
                continue
            if value is not _EMPTY:
                return value
        return None

    # -- reshard interface (oversize queue shards split, §4) ------------------------
    # Queues have no key ranges, so they keep their own split/merge
    # processes instead of the range-map protocol in
    # :mod:`repro.autoscale.reshard`; both follow the same crash-safe
    # shape (gate, build fully before publishing, rollback into a
    # surviving source) and register their ops in the reshard ledger.
    def reshard_split_by_id(self, proclet_id: int):
        """Split the named shard; the completion event's value is
        ``(None, child_ref)`` (a queue split has no split key) or
        ``None`` when declined/aborted."""
        shard = self._ref_by_id(proclet_id)
        if shard is None:
            return None
        return self.qs.sim.process(self._split_proc(shard),
                                   name=f"{self.name}.split")

    def _split_proc(self, shard) -> Generator:
        src = shard.proclet
        if src.status is not ProcletStatus.RUNNING or src.length < 2:
            return None
        ledger = self.qs.runtime.reshard_ledger
        op = ledger.begin("split", self, src.id)
        tr = self.qs.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("split", f"split {src.name}",
                            track=f"proclet:{src.name}", kind="queue")
        gate = self.qs._block(src)
        yield self.qs.sim.timeout(self.qs.config.split_overhead)
        if src.status is ProcletStatus.DEAD:
            ledger.abort(op, "source machine failed in prepare")
            if tr is not None:
                tr.end(span, outcome="machine-failed")
            return None
        items, nbytes = src.extract_back_half()
        dst = self.qs.placement.best_for_memory(
            nbytes + QueueShardProclet.BASE_FOOTPRINT)
        if dst is None:
            src.install_items(items)
            self.qs._unblock(src, gate)
            ledger.abort(op, "no room for the child shard")
            if tr is not None:
                tr.end(span, outcome="no-room")
            return None
        # Build the new shard fully (spawn, gate, move bytes, install)
        # BEFORE publishing it to the shard list and the controller —
        # otherwise the controller may see an empty registered shard and
        # merge it away mid-split, losing the extracted items.
        new = QueueShardProclet()
        new.shard_owner = self
        new_ref = self.qs.spawn(new, dst,
                                name=f"{self.name}.q{len(self.shards)}")
        ledger.add_child(op, new_ref.proclet_id)
        new_gate = self.qs._block(new)
        if dst is not src.machine:
            try:
                yield self.qs.cluster.fabric.transfer(
                    src.machine, dst, nbytes, name=f"{self.name}.split")
            except MachineFailed:
                # An endpoint crashed mid-copy: abandon the split.  A
                # dead endpoint's gate was opened by the fail path; a
                # surviving source keeps its items.
                if new.status is not ProcletStatus.DEAD:
                    self.qs.runtime.destroy(new_ref)
                if src.status is not ProcletStatus.DEAD:
                    src.install_items(items)
                    self.qs._unblock(src, gate)
                ledger.abort(op, "endpoint failed during copy")
                if tr is not None:
                    tr.end(span, outcome="machine-failed")
                return None
        new.install_items(items)
        self.qs._unblock(new, new_gate)
        self.qs._unblock(src, gate)
        self.shards.append(new_ref)
        self.qs.runtime.state_version += 1
        ledger.complete(op)
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.register(new_ref, self)
        self.qs.splits += 1
        if tr is not None:
            tr.end(span, moved_bytes=int(nbytes), dst=dst.name,
                   new=new.name)
        return None, new_ref

    def wants_merge(self, proclet_id: int) -> bool:
        if len(self.shards) <= self._initial_shards:
            return False
        shard = self._ref_by_id(proclet_id)
        return shard is not None and shard.proclet.length == 0

    def reshard_merge_by_id(self, proclet_id: int):
        shard = self._ref_by_id(proclet_id)
        if shard is None or len(self.shards) <= self._initial_shards:
            return None
        return self.qs.sim.process(self._merge_proc(shard),
                                   name=f"{self.name}.merge")

    def _merge_proc(self, shard) -> Generator:
        src = shard.proclet
        if src.status is not ProcletStatus.RUNNING \
                or all(s is shard for s in self.shards):
            return None
        ledger = self.qs.runtime.reshard_ledger
        op = ledger.begin("merge", self, src.id)
        tr = self.qs.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("merge", f"merge {src.name}",
                            track=f"proclet:{src.name}", kind="queue")
        gate = self.qs._block(src)
        yield self.qs.sim.timeout(self.qs.config.split_overhead)
        if src.status is ProcletStatus.DEAD:
            # The source died while gated (machine failure); the fail
            # path already opened the gate, and the items died with it.
            ledger.abort(op, "source machine failed in prepare")
            if tr is not None:
                tr.end(span, outcome="machine-failed")
            return None

        def pick_survivor():
            # Chosen fresh after every yield: a shard picked before a
            # wait may itself have been merged away (and destroyed) in
            # the meantime, and installing into a dead shard loses items.
            return next(
                (s for s in self.shards
                 if s is not shard
                 and s.proclet.status is ProcletStatus.RUNNING),
                None)

        def abort():
            src.install_items(items)
            self.qs._unblock(src, gate)
            ledger.abort(op, "no live survivor shard")
            if tr is not None:
                tr.end(span, outcome="aborted")
            return None

        items, nbytes = src.extract_everything()
        survivor = pick_survivor()
        if survivor is None:
            return abort()
        if survivor.machine is not src.machine and nbytes > 0:
            try:
                yield self.qs.cluster.fabric.transfer(
                    src.machine, survivor.machine, nbytes,
                    name=f"{self.name}.merge")
            except MachineFailed:
                # An endpoint crashed mid-copy.  If the source survives
                # it keeps its items; if it died they die with it.
                if src.status is not ProcletStatus.DEAD:
                    return abort()
                ledger.abort(op, "source machine failed during copy")
                if tr is not None:
                    tr.end(span, outcome="machine-failed")
                return None
            survivor = pick_survivor()  # may have died during the copy
            if survivor is None:
                return abort()
        ledger.add_child(op, survivor.proclet_id)
        survivor.proclet.install_items(items)
        self.qs._unblock(src, gate)
        self.shards.remove(shard)
        self.qs.runtime.state_version += 1
        if self.qs.shard_controller is not None:
            self.qs.shard_controller.unregister(shard)
        self.qs.runtime.destroy(shard)
        ledger.complete(op)
        self.qs.merges += 1
        if tr is not None:
            tr.end(span, moved_bytes=int(nbytes),
                   survivor=survivor.name)
        return True

    def _ref_by_id(self, proclet_id: int):
        for ref in self.shards:
            if ref.proclet_id == proclet_id:
                return ref
        return None

    def destroy(self) -> None:
        for ref in list(self.shards):
            if self.qs.shard_controller is not None:
                self.qs.shard_controller.unregister(ref)
            self.qs.runtime.destroy(ref)
        self.shards.clear()
        self.qs.runtime.state_version += 1
        self.qs.runtime.reshard_ledger.untrack(self)

    def __repr__(self) -> str:
        return (f"<ShardedQueue {self.name!r} shards={len(self.shards)} "
                f"len={self.length}>")
