"""Ocelot operator host code (paper §3.2, §4.1).

Each function is the *host code* of one drop-in MAL operator: it checks
inputs, sets up buffers through the Memory Manager, schedules kernels via
Context Management, and returns a new BAT linked to the result buffer.
Host code is written completely device-independently — every
device-dependent decision lives in the kernel library's pre-processor
specialisation, the device cost model, or the Memory Manager.

Scratch needs no bookkeeping here: whatever an operator allocates and
does not return linked to a BAT is freed when its operator scope exits
(see :mod:`repro.ocelot.memory`, "Ownership").  The ``engine.release``
calls that remain are the *early* ones — in helpers that run mid-
operator, before the next large allocation — which hold the peak down.

Operator catalogue (module-level ``HOST_CODE`` maps MAL names here):

=================  ======================================================
``select``         bitmap selection (§4.1.1); candidates AND-combined
``projection``     left fetch join: gather, after bitmap materialisation
``join``           hash join over the multi-stage lookup table (§4.1.5)
``thetajoin``      two-step nested-loop join
``semijoin`` /
``antijoin``       probe-only membership joins
``sort``           binary radix sort, width by device (§4.1.3); one
                   work-group-local launch when the input fits
``group`` /
``subgroup``       hash grouping with dense ascending ids (§4.1.6)
``sum``/...        binary-reduction scalar aggregates (§4.1.7)
``subsum``/...     hierarchical grouped aggregates (§4.1.7)
``add``/...        element-wise batcalc replacements: one host code,
                   ``_ewise``, for every ``ewise`` row of the operator
                   table but ``ifthenelse``; its kernels compute
                   through :func:`repro.monetdb.calc.elementwise`, as
                   MonetDB's ``batcalc`` and fused pipes do
``pipe``           generated single-pass fused region (repro.fuse)
``sync``           ownership hand-over to MonetDB (§3.4)
=================  ======================================================
"""

from __future__ import annotations

import functools

import numpy as np

from ..cl import Local
from ..kernels.aggregation import accumulators_for
from ..kernels.hashing import EMPTY, MARKER_FLAG, MarkerKey, TableFull
from ..kernels.radix_sort import key_dtype_for, key_kind_for, num_passes
from ..kernels.selection import bitmap_nbytes
from ..fuse.dispatch import op_pipe
from ..monetdb.bat import BAT, OID_DTYPE, Owner, Role
from ..monetdb.backends import select_bounds_to_op
from ..monetdb.calc import calc_result_dtype, grouped_dtype, ifthenelse_dtype
from ..monetdb.ops import of_class
from .engine import OcelotEngine
from .memory import BufferKind

_ACC_INT = np.dtype(np.int64)
_ACC_FLOAT = np.dtype(np.float64)

# ---------------------------------------------------------------------------
# shared host-code helpers
# ---------------------------------------------------------------------------

def _count_of(bat: BAT) -> int:
    return bat.count


def _as_candidate_bitmap(engine: OcelotEngine, cand: BAT, n_bits: int):
    """Candidate input as a device bitmap.

    Bitmap BATs pass their buffer through the Memory Manager reference;
    oid-list candidates (e.g. handed over from MonetDB) are converted.
    """
    if cand.role is Role.BITMAP:
        return engine.buffer_of(cand)
    oid_buf = engine.buffer_of(cand)
    bm = engine.temp(bitmap_nbytes(n_bits), np.uint8, tag="cand_bm")
    engine.launch("oids_to_bitmap", bm, oid_buf, cand.count, n_bits)
    return bm


def materialize_launches(total: int = 1) -> int:
    """Kernels :func:`_materialize_bitmap` launches for ``total`` set
    bits: the offsets, and the writes when there is something to write."""
    return 2 if total else 1


def _materialize_bitmap(engine: OcelotEngine, bitmap_buf, n_bits: int,
                        tag: str = "oids"):
    """Bitmap -> qualifying-oid list (paper §4.1.2): the launch that
    counts per partition also scans the counts into unique write offsets
    (the total, read back, sizes the result), then offset-addressed
    writes (:func:`materialize_launches`).

    Returns ``(oids_buffer, count)``.
    """
    parts = engine.invocations
    offsets = engine.temp(parts + 1, np.uint32, tag="bm_offsets")
    engine.launch("bitmap_offsets", offsets, bitmap_buf,
                  bitmap_nbytes(n_bits), parts)
    total = int(engine.readback(offsets)[parts])
    oids = engine.result_buffer(max(total, 1), OID_DTYPE, tag=tag)
    if total:
        engine.launch("bitmap_write_oids", oids, bitmap_buf, offsets,
                      n_bits, parts)
    engine.release(offsets)
    return oids, total


def _oid_view(engine: OcelotEngine, bat: BAT):
    """Materialised oid list of a bitmap BAT, cached on the BAT so that
    the many projections against one selection pay for it once."""
    cached = bat.aux.get("oid_view")
    if cached is not None and not cached.released:
        engine.memory.scope_pin(cached)
        return cached, bat.aux["oid_view_count"]
    bitmap_buf = engine.buffer_of(bat)
    oids, total = _materialize_bitmap(engine, bitmap_buf, bat.count)
    engine.memory.keep(oids)
    bat.aux["oid_view"] = oids
    bat.aux["oid_view_count"] = total
    return oids, total


def _oids_of(engine: OcelotEngine, bat: BAT):
    """(buffer, count, unique?) of an oid-bearing input (oid list or
    bitmap)."""
    if bat.role is Role.BITMAP:
        buf, count = _oid_view(engine, bat)
        return buf, count, True
    return engine.buffer_of(bat), bat.count, bat.key


def _encode_keys(engine: OcelotEngine, bat_or_buf, n: int, dtype):
    """Column -> order-preserving unsigned keys (radix sort / hashing).

    Four-byte columns encode to uint32; eight-byte aggregate results
    (float64/int64 tails) encode to uint64 so ORDER BY over aggregates
    works.
    """
    col = (
        engine.buffer_of(bat_or_buf)
        if isinstance(bat_or_buf, BAT)
        else bat_or_buf
    )
    ukeys = engine.temp(max(n, 1), key_dtype_for(dtype), tag="ukeys")
    engine.launch("key_encode", ukeys, col, n, key_kind_for(dtype))
    return ukeys


def sort_launches(engine: OcelotEngine, n: int, key_itemsize: int):
    """Which way :func:`_radix_sort` sorts ``n`` keys of ``key_itemsize``
    bytes on ``engine``'s device, and how many kernels that launches:
    ``("none", 0)``, ``("local", 1)`` or ``("radix", 3 * passes)``.

    Chosen from what the host knows before the first launch — ``n``, the
    key width, the context's ``data_scale`` and the device's local
    memory size (``CL_DEVICE_LOCAL_MEM_SIZE``) — the same rule on every
    device.  The HET placer prices a sort with this function too, so
    estimate and operator cannot disagree.  The ladder's width
    (:func:`radix_parts`) moves no launch: three per pass at any width.
    """
    if n <= 1:
        return "none", 0
    pair_bytes = key_itemsize + OID_DTYPE.itemsize
    nominal = n * pair_bytes * engine.context.data_scale
    if nominal <= engine.device.profile.local_mem_bytes:
        return "local", 1
    passes = num_passes(engine.radix_bits, key_itemsize * 8)
    return "radix", 3 * passes


def radix_parts(n: int, radix_bits: int, invocations: int) -> int:
    """How many partitions the radix ladder sorts ``n`` keys on: the
    device's ``invocations`` (4 · nc · na, §4.2), but no more than
    ``⌈n / 2^radix_bits⌉`` — a partition's private histogram has
    ``2^radix_bits`` bins, so the histograms never hold a partition's
    worth more counters than there are keys.  From
    ``n ≥ invocations · 2^radix_bits`` on this is the device's width.
    :func:`repro.ocelot.autotune.estimate_sort_cost` prices a sort with
    the same rule."""
    return min(invocations, -(-n // (1 << radix_bits)))


def _radix_sort(engine: OcelotEngine, keys_buf, n: int):
    """Sort ``keys_buf`` (uint32/uint64) with the launches its size needs
    (:func:`sort_launches`): none for ``n <= 1``; one ``local_sort`` when
    the nominal keys and positions fit one work-group's local memory;
    else the full binary radix sort (paper §4.1.3), three kernels per
    pass — the first pass's reorder writes the positions as its payload,
    so nothing initialises one.  The ladder's histograms are sized to
    ``n`` (:func:`radix_parts`), not to the device.  All three give the
    stable order.

    Consumes ``keys_buf``; returns ``(sorted_keys, order)`` — the sorted
    keys and the sort permutation, buffers owned by the caller.
    """
    exit_, _launches = sort_launches(engine, n, keys_buf.dtype.itemsize)
    if exit_ == "none":
        order = engine.result_buffer(1, OID_DTYPE, tag="sort_pay",
                                     zeroed=True)
        return keys_buf, order
    if exit_ == "local":
        sorted_keys = engine.result_buffer(n, keys_buf.dtype,
                                           tag="sort_keys_b")
        order = engine.result_buffer(n, OID_DTYPE, tag="sort_pay")
        engine.launch("local_sort", sorted_keys, order, keys_buf, n)
        engine.release(keys_buf)
        return sorted_keys, order
    bits = engine.radix_bits
    radix = 1 << bits
    parts = radix_parts(n, bits, engine.invocations)
    keys_a, pay_a = keys_buf, None
    keys_b = engine.result_buffer(n, keys_buf.dtype, tag="sort_keys_b")
    pay_b = engine.result_buffer(n, OID_DTYPE, tag="sort_pay")
    hist = engine.temp(parts * radix, np.uint32, tag="radix_hist")
    offsets = engine.temp(parts * radix, np.uint32, tag="radix_offsets")
    for p in range(num_passes(bits, keys_buf.dtype.itemsize * 8)):
        shift = p * bits
        engine.launch("radix_histogram", hist, keys_a, n, shift, parts)
        engine.launch("radix_offsets", offsets, hist, parts)
        if pay_a is None:
            engine.launch("radix_reorder_first", keys_b, pay_b, keys_a,
                          offsets, n, shift, parts)
            # the payload ping-pong's other half, written from pass two
            pay_a = engine.result_buffer(n, OID_DTYPE, tag="sort_pay_b")
        else:
            engine.launch(
                "radix_reorder", keys_b, pay_b, keys_a, pay_a, offsets,
                n, shift, parts,
            )
        keys_a, keys_b = keys_b, keys_a
        pay_a, pay_b = pay_b, pay_a
    engine.release(hist, offsets)
    # After an even number of swaps the result may sit in the originals;
    # the caller owns whatever we return and we release the other pair.
    engine.release(keys_b, pay_b)
    return keys_a, pay_a


def hash_build_launches(failures: bool = False) -> int:
    """Kernels one :func:`_build_hash_table` attempt launches: ``fill``
    (the key column only), optimistic round, check round, and the
    pessimistic round when the check found ``failures``."""
    return 4 if failures else 3


def _build_hash_table(engine: OcelotEngine, keys_buf, n: int,
                      size_hint: int | None = None):
    """Optimistic/pessimistic parallel hash build (paper §4.1.4) over
    ``keys_buf``; a slot's value is the row index of its key, so a caller
    with ranks or run ids to look up passes the keys in that order.

    ``fill`` of the key column, optimistic round, check round — which
    counts the keys it finds missing, so the pessimistic round is
    launched only when that count, read back, is non-zero
    (:func:`hash_build_launches`).  The value column is never
    initialised: a free slot's value is undefined and nothing reads it.

    Over-allocates 1.4x for the observed ~75 % fill rate; restarts with a
    doubled table on pessimistic failure.  Returns ``(tkeys, tvals, m)``;
    raises :class:`MarkerKey` when a key is the free-slot marker.
    """
    base = size_hint if size_hint is not None else n
    m = max(16, int(1.4 * base) + 1)
    attempts = 0
    while True:
        attempts += 1
        tkeys = engine.temp(m, np.uint32, tag="ht_keys")
        tvals = engine.temp(m, np.uint32, tag="ht_vals")
        engine.launch("fill", tkeys, m, EMPTY)
        engine.launch("ht_insert_optimistic", tkeys, tvals, keys_buf, n, m)
        fail_bm = engine.temp(bitmap_nbytes(n), np.uint8, tag="ht_fail")
        fail_count = engine.temp(1, np.uint32, tag="ht_fail_total",
                                 zeroed=True)
        engine.launch("ht_check", fail_bm, fail_count, tkeys, keys_buf, n, m)
        failed = int(engine.readback_scalar(fail_count))
        engine.release(fail_count)
        if failed & MARKER_FLAG:
            engine.release(fail_bm, tkeys, tvals)
            raise MarkerKey("a key equals the hash tables' free-slot marker")
        unplaced = 0
        if failed:
            stats = engine.temp(2, np.uint32, tag="ht_stats", zeroed=True)
            engine.launch("ht_insert_pessimistic", tkeys, tvals, stats,
                          keys_buf, fail_bm, n, m)
            unplaced = int(engine.readback(stats)[1])
            engine.release(stats)
        engine.release(fail_bm)
        if unplaced:
            if attempts > 8:
                raise TableFull(
                    f"hash build failed after {attempts} restarts"
                )
            engine.release(tkeys, tvals)
            m = 2 * m + 1
            continue
        return tkeys, tvals, m


def dense_ids_launches() -> int:
    """Kernels :func:`_dense_ids` launches when no build fails and the
    distinct keys fit local memory (a grouping's usually do): two
    builds, the occupied-slot bitmap and its materialisation, the gather
    of the distinct keys, their one-launch sort and the probe."""
    return 2 * hash_build_launches() + materialize_launches() + 4


def _dense_ids(engine: OcelotEngine, ukeys_buf, n: int):
    """Dense group ids (ascending key order) for encoded uint32 keys.

    Hash grouping (paper §4.1.6): a hash table for the distinct set
    (its values unused), a second one over the *sorted* distinct keys —
    whose values, being row indices, are the ranks — and assignment via
    look-ups.  Returns ``(gids_buffer, ngroups)``.
    """
    if n == 0:
        return engine.result_buffer(1, np.uint32, tag="gids"), 0
    tkeys, tvals, m = _build_hash_table(engine, ukeys_buf, n)
    occupied = engine.temp(bitmap_nbytes(m), np.uint8, tag="ht_occ")
    engine.launch("select_bitmap", occupied, tkeys, m, "!=", EMPTY, None, False)
    slots, n_unique = _materialize_bitmap(engine, occupied, m, tag="ht_slots")
    unique = engine.temp(n_unique, np.uint32, tag="uniq_keys")
    engine.launch("gather", unique, tkeys, slots, n_unique)
    engine.release(occupied, slots, tkeys, tvals)
    sorted_unique, ranks_payload = _radix_sort(engine, unique, n_unique)
    engine.release(ranks_payload)
    rk, rv, m2 = _build_hash_table(
        engine, sorted_unique, n_unique, size_hint=n_unique
    )
    gids = engine.result_buffer(n, np.uint32, tag="gids")
    found = engine.temp(bitmap_nbytes(n), np.uint8, tag="gids_found",
                        zeroed=True)
    engine.launch("ht_probe", gids, found, rk, rv, ukeys_buf, n, m2)
    engine.release(found, sorted_unique, rk, rv)
    return gids, n_unique


# ---------------------------------------------------------------------------
# selection (§4.1.1)
# ---------------------------------------------------------------------------

def op_select(engine: OcelotEngine, b: BAT, cand, lo, hi, li, hi_incl, anti):
    op, lo_v, hi_v = select_bounds_to_op(lo, hi, bool(li), bool(hi_incl))
    return _select_common(engine, b, cand, op, lo_v, hi_v, bool(anti))


def op_thetaselect(engine: OcelotEngine, b: BAT, cand, val, op: str):
    return _select_common(engine, b, cand, op, val, None, False)


def _select_common(engine, b, cand, op, lo, hi, anti):
    n = _count_of(b)
    col = engine.buffer_of(b)
    bitmap = engine.result_buffer(bitmap_nbytes(n), np.uint8, tag="sel_bm")
    engine.launch("select_bitmap", bitmap, col, n, op, lo, hi, anti)
    if cand is not None:
        cand_bm = _as_candidate_bitmap(engine, cand, n)
        combined = engine.result_buffer(
            bitmap_nbytes(n), np.uint8, tag="sel_bm_and"
        )
        engine.launch(
            "bitmap_binop", combined, bitmap, cand_bm, bitmap_nbytes(n),
            "and",
        )
        bitmap = combined
    return engine.device_bat(bitmap, Role.BITMAP, count=n)


# ---------------------------------------------------------------------------
# projection — the left fetch join (§4.1.2)
# ---------------------------------------------------------------------------

def projection_launches(oids) -> int:
    """Kernels :func:`op_projection` launches: one gather — which also
    decodes a dict or FOR column — after materialising a bitmap of oids
    that has no cached oid list yet."""
    bitmap = isinstance(oids, BAT) and oids.role is Role.BITMAP
    cached = bitmap and oids.aux.get("oid_view") is not None
    return 1 + (materialize_launches() if bitmap and not cached else 0)


def _project_encoded(engine: OcelotEngine, oids: BAT, b: BAT):
    """Device-side projection against a compressed base column.

    Late materialisation without a host decode, in one launch: the
    gather decodes as it fetches — through the (tiny) dictionary table
    for dict (``out[i] = dict[codes[oids[i]]]``), adding the frame at
    the column's width for FOR.  The code buffer is what the Memory
    Manager caches, so the device working set stays at payload width.
    RLE has no run-lookup kernel; those columns return ``None`` and take
    the ordinary upload path.
    """
    encoding = getattr(b, "encoding", None)
    if encoding is None or encoding.kind not in ("dict", "for"):
        return None
    codes_buf = engine.buffer_of(b.code_bat())
    oid_buf, count, unique = _oids_of(engine, oids)
    out = engine.result_buffer(max(count, 1), b.dtype, tag="proj")
    if encoding.kind == "dict":
        dict_buf = engine.buffer_of(b.dict_bat())
        if count:
            engine.launch("gather2", out, dict_buf, codes_buf, oid_buf,
                          count)
    elif count:
        engine.launch("gather_add", out, codes_buf, oid_buf, count,
                      encoding.frame)
    return engine.device_bat(
        out, Role.VALUES, count=count, key=bool(b.key and unique)
    )


def op_projection(engine: OcelotEngine, oids: BAT, b: BAT):
    if b.role is not Role.BITMAP:
        projected = _project_encoded(engine, oids, b)
        if projected is not None:
            return projected
    if b.role is Role.BITMAP:
        # A bitmap used as the fetch source (row-map composition): its
        # value column is the materialised oid list.
        col, _count = _oid_view(engine, b)
        source_key = True
        dtype = col.dtype
    else:
        col = engine.buffer_of(b)
        source_key = b.key
        dtype = b.dtype
    oid_buf, count, unique = _oids_of(engine, oids)
    out = engine.result_buffer(max(count, 1), dtype, tag="proj")
    if count:
        engine.launch("gather", out, col, oid_buf, count)
    return engine.device_bat(
        out, Role.VALUES, count=count, key=bool(source_key and unique)
    )


# ---------------------------------------------------------------------------
# joins (§4.1.5)
# ---------------------------------------------------------------------------

def join_launches(engine: OcelotEngine, n_build: int) -> int:
    """Kernels :func:`op_join` launches over a key build side of
    ``n_build`` rows whose table is not cached.  The table
    (:func:`_join_table_for`): encode, sort (four-byte keys), run ids 3,
    run counts 2, run starts, distinct keys, build; then encode, probe,
    materialise and the two-level gather of the hits."""
    table = (1 + sort_launches(engine, n_build, 4)[1] + 7
             + hash_build_launches())
    return table + 2 + materialize_launches() + 1


def membership_launches(keep_matching: bool = True) -> int:
    """Kernels a semijoin launches (an antijoin inverts the hits first):
    encode and build one side, encode and probe the other, materialise."""
    return (1 + hash_build_launches() + 2 + (0 if keep_matching else 1)
            + materialize_launches())


def _join_table_for(engine: OcelotEngine, r: BAT):
    """The multi-stage hash lookup table of the build side.

    Base-column tables are cached in the Memory Manager (§5.2.6: building
    is expensive compared to probing, so Ocelot keeps them); a table
    over an intermediate is the join's scratch and goes with it."""
    cache_key = (r.bat_id, "join") if r.is_base else None
    if cache_key is not None:
        cached = engine.memory.cached_hash_table(cache_key)
        if cached is not None:
            from ..cl import Buffer

            for value in cached.values():
                if isinstance(value, Buffer):
                    engine.memory.scope_pin(value)
            return cached

    n = _count_of(r)
    ukeys = _encode_keys(engine, r, n, r.dtype)
    sorted_keys, build_oids = _radix_sort(engine, ukeys, n)
    # run boundaries -> dense run ids
    bounds = engine.temp(max(n, 1), np.uint32, tag="jt_bounds")
    engine.launch("group_boundaries", bounds, sorted_keys, n)
    rid_excl = engine.temp(max(n, 1) + 1, np.uint32, tag="jt_rid_x")
    engine.launch("prefix_sum", rid_excl, bounds, n)
    rids = engine.temp(max(n, 1), np.uint32, tag="jt_rids")
    engine.launch("ewise", rids, rid_excl, bounds, n, "add")
    n_runs = int(engine.readback(rid_excl)[n]) + (1 if n else 0)
    engine.release(bounds, rid_excl)
    # per-run counts and starts (runs are consecutive in the sorted keys)
    parts = engine.device.profile.num_work_groups
    partials = engine.temp((parts, max(n_runs, 1)), _ACC_INT,
                           tag="jt_partials", zeroed=True)
    engine.launch(
        "grouped_agg_partial", partials, rids, rids, n, n_runs, "count", 1,
        True,
    )
    run_counts = engine.temp(max(n_runs, 1), np.uint32, tag="jt_counts")
    engine.launch("grouped_agg_final", run_counts, partials, n_runs, "count")
    engine.release(partials, rids)
    run_starts = engine.temp(max(n_runs, 1) + 1, np.uint32, tag="jt_starts")
    engine.launch("prefix_sum", run_starts, run_counts, n_runs)
    unique = engine.temp(max(n_runs, 1), np.uint32, tag="jt_unique")
    if n_runs:
        engine.launch("gather", unique, sorted_keys, run_starts, n_runs)
    # a run's id is its key's row in ``unique``: the table's own value
    tkeys, tvals, m = _build_hash_table(
        engine, unique, n_runs, size_hint=n_runs
    )
    engine.release(sorted_keys, unique)
    table = {
        "tkeys": tkeys, "tvals": tvals, "m": m,
        "run_starts": run_starts, "run_counts": run_counts,
        "build_oids": build_oids, "n_runs": n_runs, "n_build": n,
        "unique_build": n_runs == n,
    }
    if cache_key is not None:
        engine.memory.cache_hash_table(cache_key, table)
    return table


def op_join(engine: OcelotEngine, l: BAT, r: BAT):
    """Hash equi-join; returns (left positions, right positions)."""
    table = _join_table_for(engine, r)
    n = _count_of(l)
    ukeys = _encode_keys(engine, l, n, l.dtype)
    run_idx = engine.temp(max(n, 1), np.uint32, tag="probe_runs")
    found = engine.temp(bitmap_nbytes(n), np.uint8, tag="probe_found",
                        zeroed=True)
    engine.launch(
        "ht_probe", run_idx, found, table["tkeys"], table["tvals"],
        ukeys, n, table["m"],
    )
    if table["unique_build"]:
        # §4.1.5 fast path: key build side, one match per hit, size known.
        lpos, total = _materialize_bitmap(engine, found, n, tag="join_l")
        rpos = engine.result_buffer(max(total, 1), OID_DTYPE, tag="join_r")
        if total:
            # through the found rows only: a miss holds the EMPTY
            # sentinel, which must never be dereferenced
            engine.launch("gather2", rpos, table["build_oids"], run_idx,
                          lpos, total)
    else:
        counts = engine.temp(max(n, 1), np.uint32, tag="join_counts")
        engine.launch(
            "join_gather_counts", counts, table["run_counts"], run_idx,
            found, n,
        )
        offsets = engine.temp(max(n, 1) + 1, np.uint32, tag="join_offsets")
        engine.launch("prefix_sum", offsets, counts, n)
        total = int(engine.readback(offsets)[n])
        lpos = engine.result_buffer(max(total, 1), OID_DTYPE, tag="join_l")
        rpos = engine.result_buffer(max(total, 1), OID_DTYPE, tag="join_r")
        if total:
            engine.launch(
                "join_expand", lpos, rpos, offsets, run_idx,
                table["run_starts"], table["run_counts"],
                table["build_oids"], found, n,
            )
    return (
        engine.device_bat(lpos, Role.OIDS, count=total),
        engine.device_bat(rpos, Role.OIDS, count=total,
                          key=table["unique_build"]),
    )


def op_semijoin(engine: OcelotEngine, l: BAT, r: BAT):
    return _membership(engine, l, r, keep_matching=True)


def op_antijoin(engine: OcelotEngine, l: BAT, r: BAT):
    return _membership(engine, l, r, keep_matching=False)


def _membership(engine, l, r, keep_matching):
    n_r = _count_of(r)
    rkeys = _encode_keys(engine, r, n_r, r.dtype)
    tkeys, tvals, m = _build_hash_table(engine, rkeys, n_r)
    n = _count_of(l)
    lkeys = _encode_keys(engine, l, n, l.dtype)
    hits = engine.temp(max(n, 1), np.uint32, tag="semi_hits")
    found = engine.temp(bitmap_nbytes(n), np.uint8, tag="semi_found",
                        zeroed=True)
    engine.launch("ht_probe", hits, found, tkeys, tvals, lkeys, n, m)
    if not keep_matching:
        inverted = engine.temp(bitmap_nbytes(n), np.uint8, tag="semi_not")
        engine.launch("bitmap_not", inverted, found, n, bitmap_nbytes(n))
        engine.release(found)
        found = inverted
    pos, total = _materialize_bitmap(engine, found, n, tag="semi_pos")
    return engine.device_bat(pos, Role.OIDS, count=total, key=True)


def op_thetajoin(engine: OcelotEngine, l: BAT, r: BAT, op: str):
    """Two-step nested-loop join (count, prefix sum, write) — §4.1.5."""
    nl, nr = _count_of(l), _count_of(r)
    lbuf, rbuf = engine.buffer_of(l), engine.buffer_of(r)
    counts = engine.temp(max(nl, 1), np.uint32, tag="nlj_counts")
    engine.launch("nlj_count", counts, lbuf, rbuf, nl, nr, op)
    offsets = engine.temp(max(nl, 1) + 1, np.uint32, tag="nlj_offsets")
    engine.launch("prefix_sum", offsets, counts, nl)
    total = int(engine.readback(offsets)[nl])
    lpos = engine.result_buffer(max(total, 1), OID_DTYPE, tag="nlj_l")
    rpos = engine.result_buffer(max(total, 1), OID_DTYPE, tag="nlj_r")
    if total:
        engine.launch(
            "nlj_write", lpos, rpos, offsets, lbuf, rbuf, nl, nr, op,
        )
    return (
        engine.device_bat(lpos, Role.OIDS, count=total),
        engine.device_bat(rpos, Role.OIDS, count=total),
    )


# ---------------------------------------------------------------------------
# sort (§4.1.3)
# ---------------------------------------------------------------------------

def op_sort(engine: OcelotEngine, b: BAT, descending):
    n = _count_of(b)
    col = engine.buffer_of(b)
    ukeys = _encode_keys(engine, b, n, b.dtype)
    if descending:
        flipped = engine.temp(max(n, 1), ukeys.dtype, tag="sort_desc")
        all_ones = (1 << (ukeys.dtype.itemsize * 8)) - 1
        engine.launch("ewise_scalar", flipped, ukeys, n, "xor", all_ones)
        engine.release(ukeys)
        ukeys = flipped
    sorted_keys, order = _radix_sort(engine, ukeys, n)
    engine.release(sorted_keys)
    out = engine.result_buffer(max(n, 1), b.dtype, tag="sorted")
    if n:
        engine.launch("gather", out, col, order, n)
    return (
        engine.device_bat(out, Role.VALUES, count=n,
                          sorted_=not descending),
        engine.device_bat(order, Role.OIDS, count=n, key=True),
    )


# ---------------------------------------------------------------------------
# grouping (§4.1.6)
# ---------------------------------------------------------------------------

def _sorted_group_ids(engine: OcelotEngine, b: BAT, n: int):
    """Sorted-input strategy (paper §4.1.6): each thread compares its
    value with its predecessor to flag boundaries, then a prefix sum
    yields dense group ids."""
    col = engine.buffer_of(b)
    bounds = engine.temp(max(n, 1), np.uint32, tag="grp_bounds")
    engine.launch("group_boundaries", bounds, col, n)
    excl = engine.temp(max(n, 1) + 1, np.uint32, tag="grp_excl")
    engine.launch("prefix_sum", excl, bounds, n)
    gids = engine.result_buffer(max(n, 1), np.uint32, tag="gids")
    engine.launch("ewise", gids, excl, bounds, n, "add")
    ngroups = int(engine.readback(excl)[n]) + (1 if n else 0)
    engine.release(bounds, excl)
    return gids, ngroups


def group_launches(function: str, sorted_input: bool) -> int:
    """Kernels ``group`` / ``subgroup`` launch: boundaries, scan and add
    over a sorted column, else encode + :func:`_dense_ids`; a subgroup
    then combines with the outer ids and densifies the pairs."""
    inner = 3 if sorted_input else 1 + dense_ids_launches()
    if function == "group":
        return inner
    return inner + 1 + dense_ids_launches()


def _group_id_buffer(engine: OcelotEngine, b: BAT, n: int):
    """Dense group ids for one column, as a bare device buffer."""
    if b.sorted:
        # algorithm variant: boundary detection beats hashing on sorted
        # inputs (ascending order also matches the dense-id convention)
        return _sorted_group_ids(engine, b, n)
    ukeys = _encode_keys(engine, b, n, b.dtype)
    gids, ngroups = _dense_ids(engine, ukeys, n)
    engine.release(ukeys)
    return gids, ngroups


def op_group(engine: OcelotEngine, b: BAT):
    n = _count_of(b)
    gids, ngroups = _group_id_buffer(engine, b, n)
    return engine.device_bat(gids, Role.VALUES, count=n), ngroups


def op_subgroup(engine: OcelotEngine, b: BAT, gids: BAT, ngroups):
    """Multi-column grouping: recursively group the combined ids."""
    n = _count_of(b)
    inner, n_inner = _group_id_buffer(engine, b, n)
    combined = engine.temp(max(n, 1), np.uint32, tag="comb_ids")
    engine.launch(
        "combine_ids", combined, engine.buffer_of(gids),
        inner, n, max(n_inner, 1),
    )
    out, n_out = _dense_ids(engine, combined, n)
    return engine.device_bat(out, Role.VALUES, count=n), n_out


# ---------------------------------------------------------------------------
# aggregation (§4.1.7)
# ---------------------------------------------------------------------------

def _acc_dtype(op: str, dtype: np.dtype) -> np.dtype:
    if op == "count":
        return _ACC_INT
    if op == "sum":
        return _ACC_FLOAT if dtype.kind == "f" else _ACC_INT
    return np.dtype(dtype)


def _scalar_reduce(engine: OcelotEngine, b: BAT, op: str):
    n = _count_of(b)
    if n == 0:
        if op == "sum":  # SQL NULL stand-in, same rule as MonetDB
            return b.dtype.type(0)
        raise ValueError(f"aggr.{op} over empty input")
    col = engine.buffer_of(b)
    acc = _acc_dtype(op, b.dtype)
    groups = engine.device.profile.num_work_groups
    partials = engine.temp(groups, acc, tag="red_part")
    engine.launch("reduce_partial", partials, col, n, op)
    result = engine.temp(1, acc, tag="red_out")
    engine.launch("reduce_final", result, partials, groups, op)
    return engine.readback_scalar(result)


def op_sum(engine, b):
    value = _scalar_reduce(engine, b, "sum")
    return float(value) if b.dtype.kind == "f" else int(value)


def op_min(engine, b):
    return _scalar_reduce(engine, b, "min").item()


def op_max(engine, b):
    return _scalar_reduce(engine, b, "max").item()


def op_count(engine, b):
    if isinstance(b, BAT) and b.role is Role.BITMAP:
        # cardinality of a selection result = set bits in the bitmap
        parts = engine.invocations
        bitmap_buf = engine.buffer_of(b)
        counts = engine.temp(parts, np.uint32, tag="cnt_parts")
        engine.launch(
            "bitmap_count", counts, bitmap_buf, bitmap_nbytes(b.count), parts
        )
        total = engine.temp(1, np.uint32, tag="cnt_total")
        engine.launch("reduce_final", total, counts, parts, "sum")
        return int(engine.readback_scalar(total))
    return int(_count_of(b))


def op_avg(engine, b):
    if _count_of(b) == 0:
        return 0.0
    total = _scalar_reduce(engine, b, "sum")
    return float(total) / _count_of(b)


def _grouped_buffer(engine: OcelotEngine, vals, gids, ngroups: int, op: str):
    """Hierarchical grouped aggregation: per-work-group partial tables
    with (emulated) atomics, then one thread per group for the final
    fold.  Returns ``(result_buffer, true_group_count)``."""
    n = _count_of(gids)
    # device buffers are never zero-sized: an empty grouping allocates
    # (and launches over) one slot, but reports its true group count
    true_groups = int(ngroups)
    ngroups = max(true_groups, 1)
    gid_buf = engine.buffer_of(gids)
    if op == "count":
        val_buf = gid_buf
        acc = _ACC_INT
        out_dtype = grouped_dtype("count", np.uint32)
    else:
        val_buf = engine.buffer_of(vals)
        acc = _acc_dtype(op, vals.dtype)
        out_dtype = grouped_dtype(op, vals.dtype)
    accums, in_local = accumulators_for(
        ngroups, engine.device.profile.local_mem_bytes
    )
    groups = engine.device.profile.num_work_groups
    partials = engine.temp((groups, ngroups), acc, tag="gagg_part",
                           zeroed=True)
    engine.launch(
        "grouped_agg_partial", partials, gid_buf, val_buf, n, ngroups, op,
        accums, in_local,
    )
    result = engine.result_buffer(ngroups, out_dtype, tag="gagg_out")
    engine.launch("grouped_agg_final", result, partials, ngroups, op)
    engine.release(partials)
    return result, true_groups


def _grouped_reduce(engine: OcelotEngine, vals, gids, ngroups: int, op: str):
    result, true_groups = _grouped_buffer(engine, vals, gids, ngroups, op)
    return engine.device_bat(result, Role.VALUES, count=true_groups)


def op_subsum(engine, vals, gids, ngroups):
    return _grouped_reduce(engine, vals, gids, int(ngroups), "sum")


def op_submin(engine, vals, gids, ngroups):
    return _grouped_reduce(engine, vals, gids, int(ngroups), "min")


def op_submax(engine, vals, gids, ngroups):
    return _grouped_reduce(engine, vals, gids, int(ngroups), "max")


def op_subcount(engine, gids, ngroups):
    return _grouped_reduce(engine, None, gids, int(ngroups), "count")


def op_subavg(engine, vals, gids, ngroups):
    ngroups = int(ngroups)
    sums, _ = _grouped_buffer(engine, vals, gids, ngroups, "sum")
    counts, _ = _grouped_buffer(engine, None, gids, ngroups, "count")
    out = engine.result_buffer(max(ngroups, 1), _ACC_FLOAT, tag="gavg")
    engine.launch("ewise", out, sums, counts, ngroups, "div")
    return engine.device_bat(out, Role.VALUES, count=ngroups)


# ---------------------------------------------------------------------------
# batcalc replacements
# ---------------------------------------------------------------------------

#: a constant on the left: the op the kernel runs with the operands
#: swapped (``intdiv`` has none; the lowering never puts one there)
_SWAPPED = {"add": "add", "mul": "mul", "sub": "rsub", "div": "rdiv",
            "and": "and", "or": "or", "eq": "eq", "ne": "ne",
            "lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}


def _ewise(engine: OcelotEngine, a, b, op: str):
    """Every element-wise ``batcalc`` operator but ``ifthenelse``,
    comparisons and logic included: a result of
    :func:`calc_result_dtype` written by ``ewise`` (two columns) or
    ``ewise_scalar`` (a column and a constant) — the operand shape alone
    picks the kernel, and both compute through
    :func:`~repro.monetdb.calc.elementwise`, as MonetDB does."""
    a_is_bat, b_is_bat = isinstance(a, BAT), isinstance(b, BAT)
    if not (a_is_bat or b_is_bat):
        raise TypeError("batcalc needs at least one BAT operand")
    n = _count_of(a if a_is_bat else b)
    dtype = calc_result_dtype(*(
        v.dtype if isinstance(v, BAT) else np.min_scalar_type(v)
        for v in (a, b)
    ), op)
    out = engine.result_buffer(max(n, 1), dtype, tag=f"calc_{op}")
    if a_is_bat and b_is_bat:
        engine.launch("ewise", out, engine.buffer_of(a), engine.buffer_of(b),
                      n, op)
    elif a_is_bat:
        engine.launch("ewise_scalar", out, engine.buffer_of(a), n, op, b)
    else:
        engine.launch("ewise_scalar", out, engine.buffer_of(b), n,
                      _SWAPPED[op], a)
    return engine.device_bat(out, Role.VALUES, count=n)


def op_ifthenelse(engine: OcelotEngine, cond: BAT, a, b):
    n = _count_of(cond)
    cond_buf = engine.buffer_of(cond)
    a_is_bat, b_is_bat = isinstance(a, BAT), isinstance(b, BAT)
    dtype = ifthenelse_dtype(a.dtype if a_is_bat else a,
                             b.dtype if b_is_bat else b)
    out = engine.result_buffer(max(n, 1), dtype, tag="where")
    if a_is_bat and b_is_bat:
        engine.launch(
            "where_vv", out, cond_buf, engine.buffer_of(a),
            engine.buffer_of(b), n,
        )
    elif a_is_bat:
        engine.launch("where_vs", out, cond_buf, engine.buffer_of(a), n, b)
    elif b_is_bat:
        inverted = engine.temp(max(n, 1), np.uint8, tag="where_not")
        engine.launch("ewise_scalar", inverted, cond_buf, n, "eq", 0)
        engine.launch("where_vs", out, inverted, engine.buffer_of(b), n, a)
    else:
        engine.launch("where_ss", out, cond_buf, n, a, b)
    return engine.device_bat(out, Role.VALUES, count=n)


def _oid_combine(engine: OcelotEngine, a: BAT, b: BAT, op: str) -> BAT:
    """Union / intersection of two selection results as bitmap algebra —
    the cheap combination of complex predicates the bitmap encoding buys
    (paper §4.1.1, the Fig. 3 example query's OR)."""
    if a.role is Role.BITMAP:
        n = a.count
    elif b.role is Role.BITMAP:
        n = b.count
    else:
        raise TypeError("ocelot oid combine needs at least one bitmap input")
    a_bm = _as_candidate_bitmap(engine, a, n)
    b_bm = _as_candidate_bitmap(engine, b, n)
    out = engine.result_buffer(bitmap_nbytes(n), np.uint8, tag=f"bm_{op}")
    engine.launch("bitmap_binop", out, a_bm, b_bm, bitmap_nbytes(n), op)
    return engine.device_bat(out, Role.BITMAP, count=n)


def op_oidunion(engine, a, b):
    return _oid_combine(engine, a, b, "or")


def op_oidintersect(engine, a, b):
    return _oid_combine(engine, a, b, "and")


def op_hashbuild(engine: OcelotEngine, b: BAT):
    """Build (and discard) a parallel hash table over ``b`` (§4.1.4) —
    the paper's hashing microbenchmark (Fig. 5(e)/(f))."""
    n = _count_of(b)
    ukeys = _encode_keys(engine, b, n, b.dtype)
    _tkeys, _tvals, m = _build_hash_table(engine, ukeys, n)
    return int(m)


def op_mirror(engine: OcelotEngine, b: BAT):
    n = _count_of(b)
    return engine.device_bat(engine.iota(n), Role.OIDS, count=n, key=True)


# ---------------------------------------------------------------------------
# synchronisation (§3.4)
# ---------------------------------------------------------------------------

def op_sync(engine: OcelotEngine, b):
    """Hand ownership of a BAT back to MonetDB.

    Waits on the buffer's producer events and transfers (or maps) it to
    the host.  Bitmap results are transparently materialised into lists
    of qualifying tuple ids first (paper §4.1.1).  Scalars pass through.
    """
    if not isinstance(b, BAT):
        return b
    if b.owner is Owner.MONETDB:
        return b
    if b.role is Role.BITMAP:
        oid_buf, count = _oid_view(engine, b)
        host, _ = engine.queue.enqueue_read(oid_buf)
        engine.queue.finish()
        b.role = Role.OIDS
        b.return_to_monetdb(host[:count].copy() if count else
                            np.empty(0, OID_DTYPE))
        b.device_ref = oid_buf
        b.key = True
        return b
    # buffer_of restores the tail if the eviction policy offloaded it
    # between the producing operator and this sync
    engine.memory.sync_to_host(b, engine.buffer_of(b))
    return b


HOST_CODE = {
    "select": op_select,
    "thetaselect": op_thetaselect,
    "projection": op_projection,
    "join": op_join,
    "thetajoin": op_thetajoin,
    "semijoin": op_semijoin,
    "antijoin": op_antijoin,
    "sort": op_sort,
    "group": op_group,
    "subgroup": op_subgroup,
    "sum": op_sum,
    "min": op_min,
    "max": op_max,
    "count": op_count,
    "avg": op_avg,
    "subsum": op_subsum,
    "submin": op_submin,
    "submax": op_submax,
    "subcount": op_subcount,
    "subavg": op_subavg,
    "oidunion": op_oidunion,
    "oidintersect": op_oidintersect,
    # the element-wise rows, one host code
    **{row.function: functools.partial(_ewise, op=row.function)
       for row in of_class("ewise") if row.function != "ifthenelse"},
    "ifthenelse": op_ifthenelse,
    "mirror": op_mirror,
    "hashbuild": op_hashbuild,
    "pipe": op_pipe,
    "sync": op_sync,
}
