"""The Memory Manager: caching, LRU eviction, offloading, pinning (§3.3)."""

import itertools

import numpy as np
import pytest

from repro import cl
from repro.monetdb import Catalog, make_bat
from repro.ocelot.memory import BufferKind, MemoryManager, OcelotOOM


def make_manager(capacity_bytes: int, data_scale: float = 1.0):
    catalog = Catalog()
    ctx = cl.Context(
        cl.NVIDIA_GTX460.with_memory(capacity_bytes), data_scale=data_scale
    )
    queue = cl.CommandQueue(ctx)
    return MemoryManager(ctx, queue, catalog), catalog


class TestRegistry:
    def test_upload_then_cache_hit(self):
        mm, _ = make_manager(4096)
        bat = make_bat(np.arange(16, dtype=np.int32))
        first = mm.buffer_for_bat(bat)
        assert np.array_equal(first.array, bat.values)
        assert mm.stats.cache_misses == 1
        second = mm.buffer_for_bat(bat)
        assert second is first
        assert mm.stats.cache_hits == 1
        assert mm.queue.stats.transfers_to_device == 1  # only once

    def test_link_result_transfers_ownership(self):
        mm, _ = make_manager(4096)
        buffer = mm.allocate(16, np.int32, BufferKind.RESULT, tag="r")
        bat = make_bat(np.zeros(16, np.int32))
        mm.link_result(bat, buffer)
        assert bat.device_ref is buffer
        from repro.monetdb import Owner

        assert bat.owner is Owner.OCELOT

    def test_sync_to_host(self):
        mm, _ = make_manager(4096)
        buffer = mm.allocate(8, np.int32, BufferKind.RESULT)
        buffer.array[:] = 7
        bat = make_bat(np.zeros(8, np.int32))
        mm.link_result(bat, buffer)
        host = mm.sync_to_host(bat, buffer)
        assert np.all(host == 7)
        assert bat.has_host_values
        # device copy stays cached for later Ocelot reuse
        assert bat.device_ref is buffer and not buffer.released


class TestEvictionPolicy:
    def test_base_evicted_before_results_offloaded(self):
        mm, _ = make_manager(1000)
        base = make_bat(np.zeros(100, np.uint8))
        mm.buffer_for_bat(base)                   # 100 bytes BASE
        mm.allocate(100, np.uint8, BufferKind.RESULT, tag="res")
        # force pressure: base should be *evicted* (dropped), not offloaded
        mm.allocate(850, np.uint8, BufferKind.RESULT, tag="big")
        assert mm.stats.evictions == 1
        assert mm.stats.offloads == 0

    def test_aux_offloaded_before_results(self):
        mm, _ = make_manager(1000)
        aux = mm.allocate(400, np.uint8, BufferKind.AUX, tag="hash")
        mm.link_result(make_bat(np.zeros(400, np.uint8)), aux)
        result = mm.allocate(400, np.uint8, BufferKind.RESULT, tag="res")
        mm.allocate(500, np.uint8, BufferKind.RESULT, tag="big")
        assert mm.stats.offloads == 1
        assert not result.released  # the result survived

    def test_lru_order_among_bases(self):
        mm, _ = make_manager(1000)
        old = make_bat(np.zeros(300, np.uint8), tag="old")
        new = make_bat(np.zeros(300, np.uint8), tag="new")
        mm.buffer_for_bat(old)
        new_buf = mm.buffer_for_bat(new)
        mm.buffer_for_bat(new)  # touch: 'new' is more recent
        mm.allocate(500, np.uint8, BufferKind.RESULT)
        assert not new_buf.released  # LRU evicted 'old'

    def test_offloaded_result_restored_on_demand(self):
        mm, _ = make_manager(1000, data_scale=1.0)
        buffer = mm.allocate(400, np.uint8, BufferKind.RESULT, tag="r")
        buffer.array[:] = 9
        bat = make_bat(np.zeros(400, np.uint8))
        mm.link_result(bat, buffer)
        mm.allocate(700, np.uint8, BufferKind.RESULT, tag="big")
        assert buffer.released  # offloaded
        assert mm.stats.offloads == 1
        # free room, then request the BAT again -> restored with contents
        for entry in list(mm.entries()):
            if entry.tag == "big":
                mm.release(entry.buffer)
        restored = mm.buffer_for_bat(bat)
        assert np.all(restored.array == 9)
        assert mm.stats.restores == 1

    def test_evicted_base_reuploaded(self):
        mm, _ = make_manager(1000)
        base = make_bat(np.full(400, 5, np.uint8))
        mm.buffer_for_bat(base)
        mm.allocate(900, np.uint8, BufferKind.RESULT, tag="big")
        again = mm.buffer_for_bat(base)
        assert np.all(again.array == 5)
        assert mm.queue.stats.transfers_to_device >= 2

    def test_oom_when_nothing_evictable(self):
        mm, _ = make_manager(100)
        with pytest.raises(OcelotOOM):
            mm.allocate(200, np.uint8, BufferKind.RESULT)


class TestPinning:
    def test_pinned_buffers_never_evicted(self):
        mm, _ = make_manager(1000)
        precious = mm.allocate(400, np.uint8, BufferKind.RESULT, tag="p")
        mm.pin(precious)
        with pytest.raises(OcelotOOM):
            mm.allocate(700, np.uint8, BufferKind.RESULT)
        assert not precious.released
        mm.unpin(precious)
        mm.allocate(700, np.uint8, BufferKind.RESULT)
        assert precious.released or mm.stats.offloads == 1

    def test_unbalanced_unpin_raises(self):
        mm, _ = make_manager(1000)
        buffer = mm.allocate(16, np.uint8, BufferKind.RESULT)
        with pytest.raises(RuntimeError):
            mm.unpin(buffer)

    def test_operator_scope_pins_touched_buffers(self):
        mm, _ = make_manager(1000)
        base = make_bat(np.zeros(300, np.uint8))
        with mm.operator_scope():
            held = mm.buffer_for_bat(base)
            # allocation pressure must not evict the in-use base buffer
            with pytest.raises(OcelotOOM):
                mm.allocate(900, np.uint8, BufferKind.RESULT)
            assert not held.released
        # outside the scope the base is evictable again
        mm.allocate(900, np.uint8, BufferKind.RESULT)
        assert held.released


class TestBugfixSweep:
    """Regressions for the memory-manager audit that preceded the
    heterogeneous scheduler (each failed on the code it fixed)."""

    def test_evict_detaches_stale_device_ref(self):
        mm, _ = make_manager(1000)
        buffer = mm.allocate(300, np.uint8, BufferKind.BASE, tag="linked")
        bat = make_bat(np.zeros(300, np.uint8))
        mm.link_result(bat, buffer)
        # pressure evicts the BASE copy; the BAT's direct reference must
        # not keep dangling on the released buffer
        mm.allocate(900, np.uint8, BufferKind.RESULT, tag="big")
        assert mm.stats.evictions == 1
        assert buffer.released
        assert bat.device_ref is None

    def test_offload_detaches_and_restore_relinks_device_ref(self):
        mm, _ = make_manager(1000)
        buffer = mm.allocate(400, np.uint8, BufferKind.RESULT, tag="res")
        buffer.array[:] = 5
        bat = make_bat(np.zeros(400, np.uint8))
        mm.link_result(bat, buffer)
        mm.allocate(700, np.uint8, BufferKind.RESULT, tag="big")
        assert mm.stats.offloads == 1 and buffer.released
        # while offloaded the ref stays readable metadata (see Buffer)
        assert bat.device_ref is buffer
        for entry in list(mm.entries()):
            if entry.tag == "big":
                mm.release(entry.buffer)
        restored = mm.buffer_for_bat(bat)
        assert np.all(restored.array == 5)
        # ... and the direct link comes back with the restore
        assert bat.device_ref is restored

    def test_release_of_pinned_buffer_defers_the_free(self):
        mm, _ = make_manager(1000)
        buffer = mm.allocate(100, np.uint8, BufferKind.RESULT, tag="shared")
        mm.pin(buffer)            # a concurrent operator's working set
        mm.release(buffer)        # the producer drops its interest
        assert not buffer.released  # still pinned: must survive
        mm.unpin(buffer)
        assert buffer.released      # deferred free ran at the last unpin
        assert mm._entry_for_buffer(buffer) is None

    def test_release_inside_foreign_scope_keeps_outer_working_set(self):
        """An inner operator releasing a buffer an outer scope still has
        pinned must not corrupt the outer operator's working set."""
        mm, _ = make_manager(1000)
        bat = make_bat(np.zeros(64, np.uint8))
        with mm.operator_scope():
            held = mm.buffer_for_bat(bat)
            with mm.operator_scope():
                mm.release(held)       # inner scope holds no pin on it
            assert not held.released   # outer scope still uses it
            np.copyto(held.array, 7)   # ... and may still touch it
        assert held.released           # freed once the outer scope ended

    def test_release_of_own_scope_pin_frees_immediately(self):
        mm, _ = make_manager(1000)
        with mm.operator_scope():
            temp = mm.allocate(100, np.uint8, BufferKind.AUX, tag="t")
            mm.release(temp)       # the operator's own mid-flight free
            assert temp.released   # room is reclaimed immediately

    def test_scope_exit_does_not_mask_operator_exception(self):
        mm, _ = make_manager(1000)
        bat = make_bat(np.zeros(64, np.uint8))
        with pytest.raises(ValueError, match="operator failed"):
            with mm.operator_scope():
                held = mm.buffer_for_bat(bat)
                mm.unpin(held)     # operator unbalances its own pins ...
                raise ValueError("operator failed")   # ... then dies

    def test_scope_exit_still_surfaces_imbalance(self):
        mm, _ = make_manager(1000)
        bat = make_bat(np.zeros(64, np.uint8))
        with pytest.raises(RuntimeError, match="unbalanced"):
            with mm.operator_scope():
                held = mm.buffer_for_bat(bat)
                mm.unpin(held)

    def test_base_reupload_is_not_counted_as_restore(self):
        mm, _ = make_manager(1000)
        base = make_bat(np.full(400, 3, np.uint8))
        mm.buffer_for_bat(base)
        mm.allocate(900, np.uint8, BufferKind.RESULT, tag="big")
        assert mm.stats.evictions == 1
        mm.buffer_for_bat(base)    # re-upload of the host master
        assert mm.stats.restores == 0
        assert mm.stats.restores <= mm.stats.offloads


class TestCallbacks:
    def test_bat_delete_drops_buffers(self):
        mm, catalog = make_manager(4096)
        catalog.create_table("t", {"a": np.zeros(16, np.int32)})
        bat = catalog.bat("t", "a")
        buffer = mm.buffer_for_bat(bat)
        catalog.drop_table("t")
        assert buffer.released
        # next request is a fresh upload
        assert mm.buffer_for_bat(bat) is not buffer

    def test_hash_table_cache(self):
        mm, _ = make_manager(4096)
        tk = mm.allocate(64, np.uint32, BufferKind.AUX)
        table = {"tkeys": tk, "m": 64}
        mm.cache_hash_table((1, "join"), table)
        assert mm.cached_hash_table((1, "join")) is table
        assert mm.stats.hash_cache_hits == 1
        assert mm.cached_hash_table((2, "join")) is None
        # released buffers invalidate the entry
        mm.release(tk)
        assert mm.cached_hash_table((1, "join")) is None

    def test_recycle_releases_aux_annotations(self):
        mm, catalog = make_manager(4096)
        bat = make_bat(np.zeros(16, np.int32))
        aux = mm.allocate(32, np.uint8, BufferKind.RESULT)
        bat.aux["oid_view"] = aux
        catalog.notify_recycled(bat)
        assert aux.released
        assert bat.aux == {}


# -- the eviction pick: one scan, same victim order ---------------------------

def _use_clock(mm) -> dict:
    """entry_id -> the stamp of its last use, as ``CacheEntry.last_use``
    held it before the per-kind LRU order left nothing reading it:
    stamped where it was written, on ``allocate`` and ``_touch``."""
    last_use, clock = {}, itertools.count(1)
    allocate, touch = mm.allocate, mm._touch

    def stamped_allocate(*args, **kwargs):
        buffer = allocate(*args, **kwargs)
        last_use[mm._entry_for_buffer(buffer).entry_id] = next(clock)
        return buffer

    def stamped_touch(entry):
        last_use[entry.entry_id] = next(clock)
        touch(entry)

    mm.allocate, mm._touch = stamped_allocate, stamped_touch
    return last_use


def _old_free_some_pick(mm, last_use):
    """The victim the three-scan ``_free_some`` chose — the body it had
    before the single ``min((tier, last_use))`` scan, kept verbatim
    (returning the victim instead of evicting / offloading it)."""
    for kinds, offload in (
        ((BufferKind.BASE,), False),
        ((BufferKind.AUX,), True),
        ((BufferKind.RESULT,), True),
    ):
        victim = _old_lru_victim(mm, kinds, last_use)
        if victim is not None:
            return victim, offload
    return None, False


def _old_lru_victim(mm, kinds, last_use):
    candidates = [
        e for e in mm._entries.values()
        if e.kind in kinds and e.evictable
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda e: last_use[e.entry_id])


class TestEquivalenceWithOldBodies:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_scan_picks_the_old_victims_in_the_old_order(self, seed):
        rng = np.random.default_rng(seed)
        mm, _ = make_manager(1 << 20)
        last_use = _use_clock(mm)
        kinds = list(BufferKind)
        buffers = []
        for index in range(60):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind is BufferKind.BASE:
                bat = make_bat(np.zeros(8, np.uint8), tag=f"b{index}")
                buffers.append(mm.buffer_for_bat(bat))
            else:
                buffers.append(mm.allocate(8, np.uint8, kind, tag=f"x{index}"))
                if rng.random() < 0.5:
                    mm.link_result(make_bat(np.zeros(8, np.uint8)),
                                   buffers[-1])
        for buffer in rng.permutation(buffers)[:25]:     # recency shuffle
            mm._touch(mm._entry_for_buffer(buffer))
        for buffer in rng.permutation(buffers)[:10]:     # some in use
            mm.pin(buffer)
        picks = 0
        while True:
            expected, offload = _old_free_some_pick(mm, last_use)
            evictions, offloads = mm.stats.evictions, mm.stats.offloads
            assert mm._free_some() is (expected is not None)
            if expected is None:
                break
            picks += 1
            assert not expected.resident
            # same victim; one no BAT could ask back is now dropped
            # rather than copied to the host first
            offload = offload and expected.bat is not None
            assert (mm.stats.evictions, mm.stats.offloads) == (
                evictions + (not offload), offloads + offload)
        assert picks == 50


#: the tiers of the one-scan pick, as memory.py had them
_PARENT_EVICTION_TIER = {BufferKind.BASE: 0, BufferKind.AUX: 1,
                         BufferKind.RESULT: 2}


def _parent_free_some_pick(mm, last_use):
    """The victim the one-scan ``_free_some`` chose — its
    ``min((tier, last_use))`` before the per-tier LRU order, kept
    verbatim (returning the victim instead of freeing it)."""
    victim = min(
        (e for e in mm._entries.values() if e.evictable),
        key=lambda e: (_PARENT_EVICTION_TIER[e.kind], last_use[e.entry_id]),
        default=None,
    )
    return victim


def _checked_picks(mm) -> list:
    """Make every ``_free_some`` of ``mm`` — an allocation's or a
    restore's included — assert that it freed the victim both former
    bodies pick; returns the victims' ids in eviction order."""
    real, picks, last_use = mm._free_some, [], _use_clock(mm)

    def checked():
        expected = _parent_free_some_pick(mm, last_use)
        assert _old_free_some_pick(mm, last_use)[0] is expected
        resident = [e for e in mm._entries.values() if e.resident]
        assert real() is (expected is not None)
        assert [e for e in resident if not e.resident] == (
            [] if expected is None else [expected])
        if expected is not None:
            picks.append(expected.entry_id)
        return expected is not None

    mm._free_some = checked
    return picks


class TestLruOrder:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_histories_evict_the_scanned_victims_in_order(self, seed):
        """Allocations, uses, pins, releases, restores of offloaded and
        evicted contents, and buffers released behind the registry's
        back, under a budget that evicts all along."""
        rng = np.random.default_rng(seed)
        mm, _ = make_manager(1536)
        picks = _checked_picks(mm)
        bats, loose, pinned = [], [], []

        def current(bat):
            entry = mm._entries.get(mm._bat_entries.get(bat.bat_id, -1))
            return None if entry is None else entry.buffer

        for step in range(400):
            op = rng.choice(("base", "alloc", "use", "touch", "pin",
                             "unpin", "release", "behind", "free"))
            size = int(rng.integers(16, 160))
            try:
                if op == "base":
                    bat = make_bat(np.full(size, step % 251, np.uint8))
                    mm.buffer_for_bat(bat)
                    bats.append(bat)
                elif op == "alloc":
                    kind = (BufferKind.AUX, BufferKind.RESULT)[
                        int(rng.integers(2))]
                    buffer = mm.allocate(size, np.uint8, kind, tag=f"x{step}")
                    if rng.random() < 0.5:
                        bat = make_bat(np.zeros(size, np.uint8))
                        mm.link_result(bat, buffer)
                        bats.append(bat)
                    else:
                        loose.append(buffer)
                elif op == "use" and bats:
                    # a hit touches; an evicted / offloaded one restores
                    mm.buffer_for_bat(bats[int(rng.integers(len(bats)))])
                elif op == "touch" and loose:
                    entry = mm._entry_for_buffer(
                        loose[int(rng.integers(len(loose)))])
                    if entry is not None:
                        mm._touch(entry)
                elif op == "pin" and len(pinned) < 3:
                    pool = loose + [current(b) for b in bats]
                    buffer = pool[int(rng.integers(len(pool)))] if pool \
                        else None
                    if buffer is not None and not buffer.released:
                        mm.pin(buffer)
                        pinned.append(buffer)
                elif op == "unpin" and pinned:
                    mm.unpin(pinned.pop(int(rng.integers(len(pinned)))))
                elif op == "release" and loose:
                    mm.release(loose.pop(int(rng.integers(len(loose)))))
                elif op == "behind" and bats:
                    # a context release the registry does not see
                    buffer = current(bats[int(rng.integers(len(bats)))])
                    if buffer is not None and not buffer.released:
                        buffer.release()
                elif op == "free":
                    mm._free_some()
            except OcelotOOM:
                pass        # everything pinned, or nothing to restore
        assert len(picks) > 40


# -- ownership: scratch, query-owned, caches ----------------------------------

class TestOwnership:
    def test_scratch_dies_with_its_operator_scope(self):
        mm, _ = make_manager(4096)
        with mm.operator_scope():
            scratch = mm.allocate(16, np.uint8, BufferKind.AUX, tag="tmp")
            kept = mm.allocate(16, np.uint8, BufferKind.RESULT, tag="view")
            mm.keep(kept)
            result = mm.allocate(16, np.uint8, BufferKind.RESULT, tag="out")
            mm.link_result(make_bat(np.zeros(16, np.uint8)), result)
        assert scratch.released
        assert not kept.released and not result.released
        assert mm.stats.intermediates_allocated == 3
        assert mm.stats.intermediates_freed == 1

    def test_scratch_dies_when_the_operator_raises_too(self):
        mm, _ = make_manager(4096)
        with pytest.raises(RuntimeError, match="boom"):
            with mm.operator_scope():
                scratch = mm.allocate(16, np.uint8, BufferKind.AUX)
                raise RuntimeError("boom")
        assert scratch.released and not list(mm.entries())

    def test_end_query_frees_what_the_query_owns_and_only_that(self):
        mm, catalog = make_manager(1 << 16)
        catalog.create_table("t", {"a": np.zeros(16, np.int32)})
        base = catalog.bat("t", "a")
        outside = mm.allocate(8, np.uint8, BufferKind.RESULT, tag="nobody")
        query, other = object(), object()
        mm.owner = other
        foreign = mm.allocate(8, np.uint8, BufferKind.RESULT, tag="other")
        mm.owner = query
        cached_base = mm.buffer_for_bat(base)
        temporary = mm.buffer_for_bat(make_bat(np.zeros(8, np.int32)))
        with mm.operator_scope():
            table = {"tkeys": mm.allocate(8, np.uint32, BufferKind.AUX),
                     "m": 8}
            mm.cache_hash_table((base.bat_id, "join"), table)
            result = mm.allocate(8, np.uint8, BufferKind.RESULT)
            bat = mm.link_result(make_bat(np.zeros(8, np.uint8)), result)
            view = mm.allocate(8, np.uint8, BufferKind.RESULT)
            mm.keep(view)
            bat.aux["oid_view"] = view
        mm.end_query(query)
        assert temporary.released and result.released and view.released
        assert not (cached_base.released or table["tkeys"].released
                    or outside.released or foreign.released)
        assert mm.owner is None
        mm.end_query(other)
        assert foreign.released
        # dropping the column takes the hash table's buffers with it
        catalog.drop_table("t")
        assert cached_base.released and table["tkeys"].released
        assert [e.tag for e in mm.entries()] == ["nobody"]

    def test_restore_keeps_the_owner(self):
        mm, catalog = make_manager(1000)
        catalog.create_table("t", {"a": np.zeros(400, np.uint8)})
        base = catalog.bat("t", "a")
        mm.owner = "q1"
        mm.buffer_for_bat(base)
        big = mm.allocate(900, np.uint8, BufferKind.RESULT, tag="big")
        assert mm.stats.evictions == 1
        mm.end_query("q1")
        assert big.released
        mm.owner = "q2"
        again = mm.buffer_for_bat(base)         # re-upload under q2 ...
        mm.end_query("q2")
        assert not again.released               # ... is still the cache

    def test_an_unlinked_victim_is_dropped_not_offloaded(self):
        """No BAT could ever ask for its contents back: no transfer is
        charged and no host copy is kept for nobody."""
        mm, _ = make_manager(1000)
        aux = mm.allocate(400, np.uint8, BufferKind.AUX, tag="hash")
        reads = mm.queue.stats.transfers_from_device
        mm.allocate(700, np.uint8, BufferKind.RESULT, tag="big")
        assert aux.released
        assert (mm.stats.evictions, mm.stats.offloads) == (1, 0)
        assert mm.queue.stats.transfers_from_device == reads
        assert [e.tag for e in mm.entries()] == ["big"]
