"""Global accounting invariants under random churn.

The strongest whole-system property: after ANY interleaving of writes,
deletes, splits, merges, and migrations, the sum of DRAM reserved on all
machines equals the sum of live proclet footprints — bytes are never
leaked, double-charged, or lost in flight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import MigrationFailed, ProcletStatus
from repro.units import KiB, MiB

from ..conftest import make_qs

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 200),
                  st.integers(1, 512)),      # key, KiB
        st.tuples(st.just("delete"), st.integers(0, 200)),
        st.tuples(st.just("migrate_shard"), st.integers(0, 5)),
        st.tuples(st.just("advance"), st.floats(0.001, 0.02)),
    ),
    min_size=5, max_size=50,
)


def _total_footprint(qs) -> float:
    return sum(p.footprint for p in qs.runtime._proclets.values())


def _total_reserved(qs) -> float:
    return sum(m.memory.used for m in qs.machines)


@settings(max_examples=25, deadline=None)
@given(ops=_ops)
def test_memory_never_leaks_under_churn(ops):
    qs = make_qs(max_shard_bytes=512 * KiB, min_shard_bytes=64 * KiB,
                 enable_local_scheduler=False,
                 enable_global_scheduler=False)
    m = qs.sharded_map(name="kv")
    for op in ops:
        if op[0] == "put":
            _k, key, kib = op
            qs.sim.run(until_event=m.put(f"k{key:04d}", key, kib * KiB))
        elif op[0] == "delete":
            try:
                qs.sim.run(until_event=m.delete(f"k{op[1]:04d}"))
            except KeyError:
                pass
        elif op[0] == "migrate_shard":
            shards = [s for s in m.shards
                      if s.proclet.status is ProcletStatus.RUNNING]
            if shards:
                shard = shards[op[1] % len(shards)]
                dst = next(mm for mm in qs.machines
                           if mm is not shard.ref.machine)
                ev = qs.runtime.migrate(shard.ref, dst)
                try:
                    qs.sim.run(until_event=ev)
                except MigrationFailed:
                    pass
        else:
            qs.sim.run(until=qs.sim.now + op[1])
    # Drain all deferred controller work.
    qs.sim.run(until=qs.sim.now + 0.5)
    assert _total_reserved(qs) == pytest.approx(_total_footprint(qs))
    # No proclet stuck mid-operation.
    for p in qs.runtime._proclets.values():
        assert p.status is ProcletStatus.RUNNING


@settings(max_examples=20, deadline=None)
@given(
    n_items=st.integers(1, 60),
    item_kib=st.integers(16, 256),
    when=st.floats(0.0001, 0.01),
)
def test_migration_mid_write_conserves_bytes(n_items, item_kib, when):
    """Interrupting a write burst with a migration never corrupts the
    ledger (writes gate on the migration and land afterwards)."""
    qs = make_qs(enable_local_scheduler=False,
                 enable_global_scheduler=False,
                 enable_split_merge=False)
    ref = qs.spawn_memory(machine=qs.machines[0])

    def writer():
        for i in range(n_items):
            yield ref.call("mp_put", i, item_kib * KiB, None)

    done = qs.sim.process(writer(), name="writer")
    qs.sim.run(until=when)
    if ref.proclet.status is ProcletStatus.RUNNING:
        try:
            qs.sim.run(until_event=qs.runtime.migrate(
                ref.proclet, qs.machines[1]))
        except MigrationFailed:
            pass
    qs.sim.run(until_event=done)
    assert ref.proclet.object_count == n_items
    assert ref.proclet.heap_bytes == pytest.approx(n_items * item_kib * KiB)
    assert _total_reserved(qs) == pytest.approx(_total_footprint(qs))


@settings(max_examples=20, deadline=None)
@given(
    split_sizes=st.lists(st.integers(32, 512), min_size=4, max_size=30),
)
def test_explicit_split_merge_roundtrip_conserves(split_sizes):
    """split then merge returns to an equivalent single-shard state."""
    qs = make_qs(enable_local_scheduler=False,
                 enable_global_scheduler=False,
                 enable_split_merge=False)
    m = qs.sharded_map(name="kv", initial_machine=qs.machines[0])
    total = 0
    for i, kib in enumerate(split_sizes):
        qs.sim.run(until_event=m.put(i, i, kib * KiB))
        total += kib * KiB
    ref = m.shards[0].ref
    result = qs.sim.run(until_event=m.reshard_split_by_id(ref.proclet_id))
    assert result is not None
    _split_key, new_ref = result
    assert ref.proclet.heap_bytes + new_ref.proclet.heap_bytes == \
        pytest.approx(total)
    ok = qs.sim.run(until_event=m.reshard_merge_by_id(new_ref.proclet_id))
    assert ok is True
    assert m.shards[0].ref is ref
    assert ref.proclet.heap_bytes == pytest.approx(total)
    assert ref.proclet.object_count == len(split_sizes)
    for i in range(len(split_sizes)):
        assert qs.sim.run(until_event=m.get(i)) == i
    assert _total_reserved(qs) == pytest.approx(_total_footprint(qs))
