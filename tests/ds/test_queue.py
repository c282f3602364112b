"""Tests for the sharded queue: FIFO, blocking pop, burst absorption."""

import pytest

from repro import Proclet
from repro.units import KiB, MiB

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(max_shard_bytes=1 * MiB, min_shard_bytes=16 * KiB,
                   enable_local_scheduler=False,
                   enable_global_scheduler=False)


class TestBasics:
    def test_push_pop_fifo_single_shard(self, qs):
        q = qs.sharded_queue(name="q", initial_shards=1)
        for i in range(5):
            qs.sim.run(until_event=q.push(i, 1 * KiB))
        assert q.length == 5
        got = [qs.sim.run(until_event=q.pop()) for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]
        assert q.length == 0

    def test_try_pop_empty_returns_none(self, qs):
        q = qs.sharded_queue()
        assert qs.sim.run(until_event=q.try_pop()) is None

    def test_pop_blocks_until_push(self, qs):
        q = qs.sharded_queue()
        popped = q.pop()
        qs.sim.run(until=0.01)
        assert not popped.triggered
        q.push("late", 1 * KiB)
        value = qs.sim.run(until_event=popped)
        assert value == "late"

    def test_queue_memory_accounting(self, qs):
        q = qs.sharded_queue(initial_shards=1)
        qs.sim.run(until_event=q.push("x", 100 * KiB))
        shard = q.shards[0].proclet
        assert shard.heap_bytes == 100 * KiB
        qs.sim.run(until_event=q.pop())
        assert shard.heap_bytes == 0

    def test_multiple_shards_spread(self, qs):
        q = qs.sharded_queue(initial_shards=2)
        assert q.shard_count == 2
        for i in range(10):
            qs.sim.run(until_event=q.push(i, 1 * KiB))
        lengths = [s.proclet.length for s in q.shards]
        assert sum(lengths) == 10
        assert all(n > 0 for n in lengths)  # round-robin used both

    def test_validation(self, qs):
        with pytest.raises(ValueError):
            qs.sharded_queue(initial_shards=0)


class TestProducersConsumers:
    def test_producer_consumer_through_proclets(self, qs):
        q = qs.sharded_queue()

        class Producer(Proclet):
            def produce(self, ctx, queue, n):
                for i in range(n):
                    yield ctx.cpu(1e-5)
                    yield queue.push(i, 10 * KiB, ctx=ctx)

        class Consumer(Proclet):
            def __init__(self):
                super().__init__()
                self.got = []

            def consume(self, ctx, queue, n):
                for _ in range(n):
                    v = yield queue.pop(ctx)
                    self.got.append(v)

        prod = qs.spawn(Producer(), qs.machines[0])
        cons = qs.spawn(Consumer(), qs.machines[1])
        done = cons.call("consume", q, 20)
        prod.call("produce", q, 20)
        qs.sim.run(until_event=done)
        assert sorted(cons.proclet.got) == list(range(20))
        assert q.popped == 20

    def test_producers_prefer_local_shard(self, qs):
        m0, m1 = qs.machines
        q = qs.sharded_queue(initial_shards=2, machines=[m0, m1])

        class Producer(Proclet):
            def produce(self, ctx, queue, n):
                for i in range(n):
                    yield queue.push(i, 1 * KiB, ctx=ctx)

        prod = qs.spawn(Producer(), m0)
        qs.sim.run(until_event=prod.call("produce", q, 10))
        local_shard = next(s for s in q.shards if s.machine is m0)
        assert local_shard.proclet.length == 10


class TestBurstAbsorption:
    def test_oversized_queue_shard_splits(self, qs):
        """§4: the queue absorbs bursts by splitting memory proclets."""
        q = qs.sharded_queue(initial_shards=1)
        events = [q.push(i, 64 * KiB) for i in range(64)]  # 4 MiB burst
        qs.sim.run(until_event=qs.sim.all_of(events))
        qs.sim.run(until=qs.sim.now + 0.2)
        assert q.shard_count > 1
        # no element lost
        got = []
        for _ in range(64):
            got.append(qs.sim.run(until_event=q.pop()))
        assert sorted(got) == list(range(64))

    def test_drained_extra_shards_merge_away(self, qs):
        q = qs.sharded_queue(initial_shards=1)
        events = [q.push(i, 64 * KiB) for i in range(64)]
        qs.sim.run(until_event=qs.sim.all_of(events))
        qs.sim.run(until=qs.sim.now + 0.2)
        assert q.shard_count > 1
        for _ in range(64):
            qs.sim.run(until_event=q.pop())
        qs.sim.run(until=qs.sim.now + 0.5)
        assert q.shard_count == 1  # back to the initial footprint

    def test_concurrent_merges_do_not_orphan_a_shard(self, qs):
        """Two shards merging at once: the second merge's survivor must
        be re-chosen after the overhead wait, because the shard picked
        before the wait may itself have been merged away (regression:
        this left a shard permanently gated and lost its items)."""
        from repro.runtime import ProcletStatus

        # Controller off: this test scripts the two merges itself.
        qs = make_qs(enable_split_merge=False,
                     enable_local_scheduler=False,
                     enable_global_scheduler=False)
        q = qs.sharded_queue(name="q", initial_shards=1)
        q._add_shard()
        q._add_shard()
        q0, q1, q2 = q.shards
        qs.sim.run(until_event=q2.call("qp_push", 1 * KiB, "survive-me"))
        # Merge q0 first (its survivor is q1), then q2 — whose survivor,
        # chosen naively up front, would be the soon-to-be-destroyed q0.
        ev0 = q.reshard_merge_by_id(q0.proclet_id)
        ev2 = q.reshard_merge_by_id(q2.proclet_id)
        qs.sim.run(until_event=qs.sim.all_of([ev0, ev2]))
        assert q.shard_count == 1
        assert all(s.proclet.status is ProcletStatus.RUNNING
                   for s in q.shards)
        assert qs.sim.run(until_event=q.try_pop()) == "survive-me"
        # The queue must still accept pushes (no shard stuck gated).
        qs.sim.run(until_event=q.push("after", 1 * KiB))
        assert q.length == 1

    def test_destroy(self, qs):
        before = sum(m.memory.used for m in qs.machines)
        q = qs.sharded_queue(initial_shards=2)
        qs.sim.run(until_event=q.push("x", 1 * KiB))
        q.destroy()
        after = sum(m.memory.used for m in qs.machines)
        assert after == pytest.approx(before)
