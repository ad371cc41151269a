"""Partitioned execution: one slicer, one merger.

Parallelism is the runtime's job, done one way at every level: cut the
input, run the *unmodified* operator per piece, merge what the pieces
returned.  Devices (:mod:`repro.sched.partition`), morsels
(:mod:`repro.morsel.run`) and nodes (:mod:`repro.shard.backend`) keep
what is theirs — who runs a piece where, how it reaches the host, what
that costs in simulated time.  How a column is cut and how partials
combine is here, by **output kind**: values :func:`concat`; positions
take their partition's offset first (:func:`offset_positions`); scalar
aggregates :func:`fold_scalars`; tables over shared group ids
:func:`fold_tables`; tables over partition-local ids scatter through a
slot map (:func:`scatter_tables`, slots from :func:`group_keys` and
:func:`merge_groups`); ``avg`` is never merged itself but as its
``(sum, count)`` pair (:func:`components`, :func:`finish_avg`).  What
an empty partition contributes is :func:`repro.kernels.fold_identity`,
the work-group level of the same scheme.  Every merge is host
arithmetic over partials read by :func:`host_array`: the only operator
a merge runs is the sync that brings a partial to the host.
ARCHITECTURE.md
§"Partitioned execution: one slicer, one merger" maps kinds to
executors and lists what must not move.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from ..kernels import fold_identity
from .bat import BAT, Role
from .ops import OPS

_FOLDS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


# -- cutting ----------------------------------------------------------------

def slice_rows(bat: BAT, lo: int, hi: int) -> BAT:
    """Rows ``[lo, hi)`` of a host-resident BAT as a new BAT over a view
    (uncached — the one slice cache, :meth:`Catalog.slice`, calls this on
    a miss)."""
    cut = getattr(bat, "slice_rows", None)
    if cut is not None:
        # an encoded column slices in the code domain — never decode a
        # whole column just to cut a piece of it
        sliced = cut(lo, hi)
    else:
        values = bat.peek_values()
        if values is None:
            raise ValueError(f"cannot slice device-only BAT {bat.tag!r}")
        sliced = BAT(values[lo:hi], Role.VALUES, key=bat.key,
                     sorted_=bat.sorted, tag=f"{bat.tag}[{lo}:{hi}]")
    # a slice of a persistent column is as cache-persistent as the
    # column itself (placement treats its upload as amortised)
    sliced.is_base = bat.is_base
    return sliced


def host_tail(bat: BAT) -> np.ndarray:
    """Host values of a synced BAT, cut to its logical count: device
    results are backed by ``max(count, 1)``-element buffers, so a
    count-0 partial (a piece whose filter matched nothing) carries one
    element of padding a merge must not take for a row."""
    values = np.asarray(bat.peek_values())
    return values[:bat.count] if values.shape[0] != bat.count else values


def offsets_of(counts) -> np.ndarray:
    """Where each partition starts in the concatenated layout."""
    return np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int64)


# -- row-shaped outputs -----------------------------------------------------

def concat(pieces, dtype) -> np.ndarray:
    """Partition order is row order (every member operator preserves
    it), so the concatenation is the whole-column result; no piece at
    all is the empty column of ``dtype``."""
    return np.concatenate(pieces) if len(pieces) else np.empty(0, dtype)


def offset_positions(local, offset) -> np.ndarray:
    """Partition-local positions in the concatenated layout (int64: a
    uint32 oid plus an offset must not wrap before the cast back)."""
    return np.asarray(local).astype(np.int64, copy=False) + int(offset)


def owner_of(positions, offsets) -> np.ndarray:
    """Partition each concatenated-layout position falls in — the
    inverse of :func:`offset_positions` (``side="right"``: a position
    equal to a start belongs to the partition starting there, and empty
    partitions own nothing)."""
    return np.searchsorted(offsets, positions, side="right") - 1


# -- aggregates -------------------------------------------------------------

def components(fn: str, args) -> list:
    """``[(aggregate, its arguments)]`` whose partials merge exactly
    into ``fn(*args)``: itself — except that partial averages do not
    merge, so ``avg`` is the parts its row names (its sum and count;
    ``subcount`` takes no values column), folded separately and finished
    by :func:`finish_avg`."""
    row = OPS.get(fn)
    if row is None or not row.parts:        # (a fused pipe is no row)
        return [(fn, args)]
    return [(part, args[row.nargs - OPS[part].nargs:]) for part in row.parts]


def fold_of(fn: str) -> str:
    """The fold merging ``fn``'s partials (count partials add up)."""
    return OPS[fn].fold


def finish_avg(sums, counts):
    """The merged average of folded ``(sum, count)`` partials —
    ``sums / max(counts, 1)`` like the whole-column kernels, so a group
    no partition saw is 0, not 0/0.  Scalars stay Python floats."""
    if np.ndim(sums) == 0:
        return float(sums) / max(counts, 1)
    return sums.astype(np.float64) / np.maximum(counts, 1)


def fold_scalars(fold: str, parts):
    """Scalar partials fold left to right with Python's own ``+`` /
    ``min`` / ``max``: float sums keep partition order and Python ints
    do not wrap.  A NaN partial is the ``min`` / ``max`` — what the
    whole-column operators answer (Python's own pick would depend on
    where the NaN's partition comes in the order)."""
    if fold == "sum":
        return functools.reduce(operator.add, parts)
    for part in parts:
        if part != part:
            return part
    return min(parts) if fold == "min" else max(parts)


def fold_tables(fold: str, tables) -> np.ndarray:
    """Tables over *shared* group ids fold element-wise, in partition
    order.  A group a partition never saw holds the fold identity there
    (0 for sum/count, the dtype extreme for min/max), so the fold is
    exact."""
    return functools.reduce(_FOLDS[fold], tables)


def scatter_tables(fold: str, n: int, parts, empty_dtype=np.float64):
    """Tables over *partition-local* group ids fold into ``n`` merged
    groups through slot maps: ``parts`` yields ``(slots, table)`` per
    partition, ``slots[g]`` being the merged group of local group ``g``.

    Slots are distinct within one partition (its local groups have
    distinct keys), which is what makes plain fancy indexing exact —
    ``acc[slots] = fold(acc[slots], table)`` drops nothing, so no
    ``ufunc.at`` is needed.  Partitions apply in order (float sums)."""
    parts = list(parts)
    dtype = (np.result_type(*[table.dtype for _slots, table in parts])
             if parts else np.dtype(empty_dtype))
    acc = np.full(n, fold_identity(fold, dtype), dtype=dtype)
    for slots, table in parts:
        acc[slots] = _FOLDS[fold](acc[slots], table)
    return acc


# -- aligning partition-local groups by key ---------------------------------

def group_keys(gids, columns) -> list:
    """Per column, the value at the first row of every dense local group
    id: ids ascend, so entry ``g`` of each array is group ``g``'s key.

    One reversed scatter finds each id's first row: of the writes to one
    slot the last wins, and reversed, the last is the first row.  Ids
    with gaps keep only the ids present, as ``np.unique`` does."""
    gids = np.asarray(gids)
    n = gids.shape[0]
    first = np.full(int(gids.max(initial=0)) + 1, n, dtype=np.int64)
    first[gids[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    first = first[first < n]
    return [np.asarray(column)[first] for column in columns]


def distinct_keys(values) -> np.ndarray:
    """``np.unique(values)``, the sorted distinct values of one key
    column.  An integer column spanning fewer than ``2n + 64`` values
    marks each value present with one scatter and reads them back in
    order; any other column takes ``np.unique``."""
    values = np.asarray(values)
    n = values.shape[0]
    if n == 0 or values.dtype.kind not in "iu":
        return np.unique(values)
    low, high = int(values.min()), int(values.max())
    if high - low >= 2 * n + 64:
        return np.unique(values)
    base = values.dtype.type(low)
    present = np.zeros(high - low + 1, dtype=bool)
    # no value is below ``base``: an unsigned column subtracts in its
    # own type, a signed one in int64
    present[values - base if values.dtype.kind == "u"
            else values.astype(np.int64) - low] = True
    # offsets and minimum wrap and unwrap in the column's own type
    return np.flatnonzero(present).astype(values.dtype) + base


#: a packed key stays below this, so ``packed`` never meets int64's edge
_PACKED_LIMIT = 1 << 62


def merge_groups(tables) -> "tuple[np.ndarray, int]":
    """``(merged id of every local group, merged group count)`` from one
    key table per partition (:func:`group_keys` output), ids partition
    after partition and ascending with the key tuple — the numbering
    every engine's ``group`` / ``subgroup`` chain gives the whole column.

    Integer and bool key tuples whose columns' spans multiply to less
    than ``2**62`` pack into one int64 (:func:`_packed_keys`), numbered
    by one stable argsort: a partition's local groups already ascend, so
    the sort merges sorted runs.  Other tuples take :func:`_lexsort_ids`.
    Either way the numbering is that of the distinct tuples in order."""
    columns = [np.concatenate(column) for column in zip(*tables)]
    if not columns:
        return np.empty(0, dtype=np.int64), 0
    packed = _packed_keys(columns)
    if packed is None:
        return _lexsort_ids(columns)
    order = np.argsort(packed, kind="stable")
    ordered = packed[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids, int(np.count_nonzero(starts))


def _packed_keys(columns) -> "np.ndarray | None":
    """Each row's key tuple as one int64 that orders like the tuple —
    column 0 most significant, each column offset by its own minimum —
    or ``None`` when a column is not integer / bool or the spans'
    product reaches ``2**62``.  A ``uint64`` column subtracts its
    minimum in its own type, where values ``>= 2**63`` do not wrap."""
    if columns[0].size == 0 or any(c.dtype.kind not in "iub"
                                   for c in columns):
        return None
    lows, spans, total = [], [], 1
    for column in columns:
        low, high = int(column.min()), int(column.max())
        lows.append(low)
        spans.append(high - low + 1)
        total *= spans[-1]
        if total >= _PACKED_LIMIT:
            return None
    packed = np.zeros(columns[0].size, dtype=np.int64)
    for column, low, span in zip(columns, lows, spans):
        packed *= span
        if column.dtype == np.uint64:
            packed += (column - np.uint64(low)).astype(np.int64)
        else:       # int64 wraps and unwraps: the sum is below 2**62
            packed += column
            packed -= low
    return packed


def _lexsort_ids(columns) -> "tuple[np.ndarray, int]":
    """:func:`merge_groups` for any key columns: equal key tuples share
    an id — ``==`` per column, so ``-0.0`` meets ``0.0``, and a NaN
    meets a NaN: every engine's ``group`` puts the NaNs of a column in
    one group, sorted last.  One stable lexsort over the **separate**
    columns brings equal tuples together — never a common-dtype matrix:
    float64 cannot tell adjacent int64 keys beyond 2**53 apart."""
    order = np.lexsort(columns[::-1])
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        differ = ordered[1:] != ordered[:-1]
        if ordered.dtype.kind == "f":
            nan = np.isnan(ordered)
            differ &= ~(nan[1:] & nan[:-1])
        starts[1:] |= differ
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids, int(np.count_nonzero(starts))


# -- reading a partial on the host ------------------------------------------

def synced(owner, value):
    """``value``, a device-resident BAT's tail handed back to the host
    first through the ``ocelot.sync`` of ``owner`` — the backend (or
    shard child) that produced it, so the transfer lands on that
    backend's clock.  Reads nothing: an encoded column stays encoded."""
    if isinstance(value, BAT) and not value.has_host_values:
        owner.resolve("ocelot.sync")(value)
    return value


def host_array(owner, value) -> np.ndarray:
    """A partial's values on the host (:func:`synced`), cut to its
    logical count (:func:`host_tail`)."""
    value = synced(owner, value)
    return host_tail(value) if isinstance(value, BAT) else np.asarray(value)
