"""Unit tests for memory proclets and distributed pointers."""

import pytest

from repro import MemoryProclet, Proclet
from repro.cluster import OutOfMemory
from repro.core.memproclet import DistPtr
from repro.units import KiB, MiB

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


def run(qs, ev):
    return qs.sim.run(until_event=ev)


class TestObjectStore:
    def test_put_get_roundtrip(self, qs):
        ref = qs.spawn_memory(name="mp")
        run(qs, ref.call("mp_put", 1, 100 * KiB, "image-1"))
        value = run(qs, ref.call("mp_get", 1))
        assert value == "image-1"
        assert ref.proclet.heap_bytes == 100 * KiB

    def test_overwrite_adjusts_heap(self, qs):
        ref = qs.spawn_memory()
        run(qs, ref.call("mp_put", "k", 10 * KiB, "a"))
        run(qs, ref.call("mp_put", "k", 30 * KiB, "b"))
        assert ref.proclet.heap_bytes == 30 * KiB
        assert ref.proclet.object_count == 1

    def test_get_missing_key_fails(self, qs):
        ref = qs.spawn_memory()
        with pytest.raises(KeyError):
            run(qs, ref.call("mp_get", "nope"))

    def test_delete_frees_heap(self, qs):
        ref = qs.spawn_memory()
        run(qs, ref.call("mp_put", 5, 1 * MiB, None))
        freed = run(qs, ref.call("mp_delete", 5))
        assert freed == 1 * MiB
        assert ref.proclet.heap_bytes == 0
        assert ref.proclet.object_count == 0

    def test_delete_missing_fails(self, qs):
        ref = qs.spawn_memory()
        with pytest.raises(KeyError):
            run(qs, ref.call("mp_delete", "nope"))

    def test_contains(self, qs):
        ref = qs.spawn_memory()
        run(qs, ref.call("mp_put", 1, 10, None))
        assert run(qs, ref.call("mp_contains", 1)) is True
        assert run(qs, ref.call("mp_contains", 2)) is False

    def test_keys_stay_sorted(self, qs):
        ref = qs.spawn_memory()
        for k in [5, 1, 3, 2, 4]:
            run(qs, ref.call("mp_put", k, 10, None))
        assert ref.proclet.keys == [1, 2, 3, 4, 5]
        assert ref.proclet.key_range() == (1, 5)

    def test_get_range_batches(self, qs):
        ref = qs.spawn_memory()
        for k in range(10):
            run(qs, ref.call("mp_put", k, 1 * KiB, f"v{k}"))
        batch = run(qs, ref.call("mp_get_range", 3, 7))
        assert batch == [(3, "v3"), (4, "v4"), (5, "v5"), (6, "v6")]

    def test_get_range_remote_pays_bulk_not_per_object(self, qs):
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m1)
        for k in range(64):
            run(qs, ref.call("mp_put", k, 200 * KiB, None))
        t0 = qs.sim.now
        run(qs, ref.call("mp_get_range", 0, 64, caller_machine=m0))
        batch_time = qs.sim.now - t0
        # One RPC + one bulk transfer of 12.8 MB: ~1.1ms, far less than
        # 64 individual RPCs (>0.64ms fixed overhead alone + transfers).
        expected_bulk = 64 * 200 * KiB / m1.nic.bandwidth
        assert batch_time < 2.5 * expected_bulk

    def test_stats(self, qs):
        ref = qs.spawn_memory()
        run(qs, ref.call("mp_put", 1, 512, None))
        stats = run(qs, ref.call("mp_stats"))
        assert stats["objects"] == 1
        assert stats["heap_bytes"] == 512


class TestSplitPrimitives:
    def _filled(self, qs, n=10, size=1 * MiB):
        ref = qs.spawn_memory()
        for k in range(n):
            run(qs, ref.call("mp_put", k, size, f"v{k}"))
        return ref

    def test_split_point_balances_bytes(self, qs):
        ref = self._filled(qs)
        split = ref.proclet.split_point()
        assert 3 <= split <= 7

    def test_split_point_needs_two_objects(self, qs):
        ref = qs.spawn_memory()
        run(qs, ref.call("mp_put", 1, 10, None))
        with pytest.raises(ValueError):
            ref.proclet.split_point()

    def test_extract_upper_and_install(self, qs):
        ref = self._filled(qs, n=10)
        p = ref.proclet
        items, nbytes = p.extract_upper(5)
        assert [k for k, _n, _v in items] == [5, 6, 7, 8, 9]
        assert nbytes == 5 * MiB
        assert p.object_count == 5
        assert p.heap_bytes == 5 * MiB

        other = qs.spawn_memory()
        other.proclet.install(items)
        assert other.proclet.object_count == 5
        assert other.proclet.heap_bytes == 5 * MiB

    def test_install_duplicate_key_rejected(self, qs):
        ref = self._filled(qs, n=3)
        with pytest.raises(ValueError):
            ref.proclet.install([(1, 10.0, None)])

    def test_extract_all(self, qs):
        ref = self._filled(qs, n=4)
        items, nbytes = ref.proclet.extract_all()
        assert len(items) == 4
        assert nbytes == 4 * MiB
        assert ref.proclet.object_count == 0
        assert ref.proclet.heap_bytes == 0

    def test_empty_key_range_raises(self, qs):
        ref = qs.spawn_memory()
        with pytest.raises(ValueError):
            ref.proclet.key_range()

    def test_put_that_runs_out_of_dram_changes_nothing(self, qs):
        """A put whose allocation fails leaves keys, objects and heap as
        they were, so the shard can still be split afterwards."""
        ref = self._filled(qs, n=4)
        p = ref.proclet
        machine = ref.machine
        machine.memory.reserve(machine.memory.free - 1 * MiB)
        for key, size in ((9, 4 * MiB), (2, 8 * MiB)):  # insert, overwrite
            with pytest.raises(OutOfMemory):
                run(qs, ref.call("mp_put", key, size, "too-big"))
            assert p.keys == sorted(p._objects) == [0, 1, 2, 3]
            assert p.heap_bytes == 4 * MiB
        assert run(qs, ref.call("mp_get", 2)) == "v2"
        assert p.split_point() == 2


class TestDistPtr:
    def test_deref_through_worker(self, qs):
        m0 = qs.machines[0]
        mem = qs.spawn_memory(machine=m0)
        run(qs, mem.call("mp_put", "obj", 64 * KiB, "payload"))
        ptr = DistPtr(shard=mem, key="obj")

        class Reader(Proclet):
            def __init__(self):
                super().__init__()
                self.seen = None

            def read(self, ctx, p):
                self.seen = yield p.deref(ctx)

        reader = qs.spawn(Reader(), qs.machines[1])
        run(qs, reader.call("read", ptr))
        assert reader.proclet.seen == "payload"

    def test_store_through_ptr(self, qs):
        mem = qs.spawn_memory()
        run(qs, mem.call("mp_put", "obj", 10, "old"))
        ptr = DistPtr(shard=mem, key="obj")

        class Writer(Proclet):
            def write(self, ctx, p):
                yield p.store(ctx, "new", 20)

        w = qs.spawn(Writer(), qs.machines[0])
        run(qs, w.call("write", ptr))
        assert run(qs, mem.call("mp_get", "obj")) == "new"
