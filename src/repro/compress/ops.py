"""``compress.*`` — operators that execute on compressed columns.

Registered on every *leaf* backend (MonetDB MS/MP, Ocelot, HET; the
sharded backend fans the instructions to its children untouched).  Each
operator re-checks its input at runtime: a plain BAT, or an encoding
the connection's ``compression=`` mode does not admit, simply
**delegates to the ordinary operator** — which reads ``values`` and
thereby takes the whole-column decode fallback.  That makes the
rewritten plan correct for any storage state, keeps prepared/cached
plans valid across tables, and means the compressed paths are pure
opportunism:

* **dictionary selections** translate value bounds into *code* bounds
  (binary search over the sorted dictionary) and run the ordinary
  select over the narrow code payload — on Ocelot devices the codes
  are what gets uploaded and cached, which is the GPU-ceiling win,
* **frame-of-reference selections** shift the bounds by the frame and
  scan the narrow deltas,
* **RLE selections and aggregations** touch ``n_runs`` elements
  instead of ``n`` rows, expanding qualifying runs into row oids,
* **scalar aggregates** fold over the payload (``sum`` via
  code-histogram · dictionary, run-value · run-length dot, frame
  arithmetic) with the same result dtypes as the native operators,
* **grouped aggregation over dictionary codes**: the dictionary is
  sorted, so grouping the codes yields exactly the dense
  ascending-key gids of grouping the values, and per-group code
  min/max map back through the dictionary — returned still encoded
  (late materialisation all the way to the result set).
"""

from __future__ import annotations

import numpy as np

from ..monetdb.bat import oid_bat
from ..monetdb.costmodel import OpCost
from ..monetdb.ops import COMPRESS_MODULE, DEVICE_MODULE, OPS
from ..monetdb.partials import host_array
from .codecs import DictEncoding, FOREncoding, RLEEncoding, _narrowest_uint
from .encoded import EncodedBAT


def _encoding(b, mode: str):
    """The input's codec payload, if the mode admits executing on it."""
    if not isinstance(b, EncodedBAT):
        return None
    if mode != "auto" and b.encoding.kind != mode:
        return None
    return b.encoding


def _resolver(backend, fn: str):
    """The delegate for ``fn``: the Ocelot form when the backend has
    one (device execution over the narrow payload), else the native
    host operator."""
    ocelot = f"{DEVICE_MODULE}.{fn}"
    if backend.supports(ocelot):
        return backend.resolve(ocelot)
    return backend.resolve(OPS[fn].op)


def _charge(backend, op: str, elements: int, per_ns_attr: str = "agg_ns",
            merge_bytes: int = 0) -> None:
    """Charge simulated time on cost-modelled backends (no-op on
    backends whose delegates do their own accounting)."""
    model = getattr(backend, "model", None)
    charge = getattr(backend, "_charge", None)
    if model is None or charge is None:
        return
    charge(OpCost(
        op=op,
        work=model.ns(elements, getattr(model, per_ns_attr)),
        merge_bytes=merge_bytes,
    ))


# -- selections ------------------------------------------------------------

_EMPTY_RANGE = (1, 0, True, True)      # a predicate no value satisfies


def _dict_code_bounds(dictionary, lo, hi, li, hi_incl):
    """Translate value bounds into an inclusive code range (or the
    empty range): the dictionary is sorted, so a value predicate is a
    contiguous code interval."""
    cl = 0
    if lo is not None:
        cl = int(np.searchsorted(dictionary, lo,
                                 side="left" if li else "right"))
    ch = len(dictionary) - 1
    if hi is not None:
        side = "right" if hi_incl else "left"
        ch = int(np.searchsorted(dictionary, hi, side=side)) - 1
    if cl > ch:
        return _EMPTY_RANGE
    return cl, ch, True, True


def _for_shifted_bounds(frame, payload_dtype, lo, hi, li, hi_incl):
    """Shift value bounds into the unsigned delta domain, clamping
    out-of-range integer bounds (the payload dtype cannot represent
    them, and numpy 2 refuses out-of-bound ordered comparisons)."""
    dmax = int(np.iinfo(payload_dtype).max)
    lo_s = None if lo is None else lo - frame
    hi_s = None if hi is None else hi - frame
    if isinstance(lo_s, (int, np.integer)):
        if lo_s > dmax:
            return _EMPTY_RANGE
        if lo_s < 0:
            lo_s, li = 0, True
    if isinstance(hi_s, (int, np.integer)):
        if hi_s < 0:
            return _EMPTY_RANGE
        if hi_s > dmax:
            hi_s = None
    if lo_s is None and hi_s is None:
        # both bounds degenerated to always-true
        lo_s, li = 0, True
    return lo_s, hi_s, li, hi_incl


def _rle_row_oids(encoding: RLEEncoding, run_idx: np.ndarray) -> np.ndarray:
    """Expand qualifying run indices into ascending row positions."""
    ends = encoding.ends
    starts = (ends - encoding.run_lengths).astype(np.int64)
    sel_starts = starts[run_idx]
    sel_lens = encoding.run_lengths[run_idx].astype(np.int64)
    total = int(sel_lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(sel_starts, sel_lens)
    offsets = np.concatenate(([0], np.cumsum(sel_lens)[:-1]))
    out += np.arange(total, dtype=np.int64) - np.repeat(offsets, sel_lens)
    return out


def _compressed_select(backend, b, cand, lo, hi, li, hi_incl, anti, mode):
    encoding = _encoding(b, mode)
    select = _resolver(backend, "select")
    if encoding is None:
        return select(b, cand, lo, hi, li, hi_incl, anti)

    if isinstance(encoding, DictEncoding):
        cl, ch, cli, chi = _dict_code_bounds(
            encoding.dictionary, lo, hi, li, hi_incl
        )
        return select(b.code_bat(), cand, cl, ch, cli, chi, anti)

    if isinstance(encoding, FOREncoding):
        code_bat = b.code_bat()
        lo_s, hi_s, li_s, hi_incl_s = _for_shifted_bounds(
            encoding.frame, code_bat.dtype, lo, hi, li, hi_incl
        )
        return select(code_bat, cand, lo_s, hi_s, li_s, hi_incl_s, anti)

    # RLE: select over the run values (n_runs elements), then expand
    # qualifying runs into row oids; candidates intersect afterwards
    # because they are row positions, not run positions.
    run_idx = host_array(
        backend, select(b.run_value_bat(), None, lo, hi, li, hi_incl, anti)
    ).astype(np.int64, copy=False)
    oids = _rle_row_oids(encoding, run_idx)
    if cand is not None:
        oids = np.intersect1d(
            oids, cand.values.astype(np.int64, copy=False)
        )
    _charge(backend, "compress.select", oids.size,
            per_ns_attr="select_result_ns", merge_bytes=int(oids.nbytes))
    return oid_bat(oids, tag=f"{b.tag}#sel")


def _theta_bounds(val, op: str):
    """A thetaselect predicate as (lo, hi, li, hi_incl, anti)."""
    return {
        "==": (val, val, True, True, False),
        "!=": (val, val, True, True, True),
        "<":  (None, val, True, False, False),
        "<=": (None, val, True, True, False),
        ">":  (val, None, False, True, False),
        ">=": (val, None, True, True, False),
    }[op]


# -- scalar aggregation -----------------------------------------------------


def _dict_sum(encoding: DictEncoding):
    counts = np.bincount(
        encoding.codes.astype(np.int64, copy=False),
        minlength=len(encoding.dictionary),
    )
    d = encoding.dictionary
    if d.dtype.kind == "f":
        return float(np.dot(counts, d.astype(np.float64)))
    return int(np.dot(counts, d.astype(np.int64)))


def _rle_sum(encoding: RLEEncoding):
    v, n = encoding.run_values, encoding.run_lengths
    if v.dtype.kind == "f":
        return float(np.dot(n.astype(np.float64), v.astype(np.float64)))
    return int(np.dot(n.astype(np.int64), v.astype(np.int64)))


def _for_sum(encoding: FOREncoding):
    total = encoding.frame * encoding.count + int(
        np.sum(encoding.deltas, dtype=np.int64)
    )
    if encoding.dtype.kind == "f":      # pragma: no cover - int-only codec
        return float(total)
    return int(total)


def _compressed_scalar_agg(backend, b, agg: str, mode: str):
    encoding = None if agg == "count" else _encoding(b, mode)
    if agg == "count" and isinstance(b, EncodedBAT):
        # never decode just to count: the row count is metadata
        _charge(backend, "compress.count", b.count)
        return int(b.count)
    if encoding is None:
        return _resolver(backend, agg)(b)

    if agg in ("sum", "avg"):
        if isinstance(encoding, DictEncoding):
            total = _dict_sum(encoding)
            _charge(backend, f"compress.{agg}", encoding.count)
        elif isinstance(encoding, RLEEncoding):
            total = _rle_sum(encoding)
            _charge(backend, f"compress.{agg}", encoding.n_runs)
        else:
            total = _for_sum(encoding)
            _charge(backend, f"compress.{agg}", encoding.count)
        if agg == "sum":
            return total
        return float(total) / float(b.count)

    # min / max
    if isinstance(encoding, DictEncoding):
        if b.full_column:
            # a base column's dictionary holds exactly the values
            # present, sorted: min/max are its end points
            _charge(backend, f"compress.{agg}", len(encoding.dictionary))
            d = encoding.dictionary
            return (d[0] if agg == "min" else d[-1]).item()
        code = encoding.codes.min() if agg == "min" else encoding.codes.max()
        _charge(backend, f"compress.{agg}", encoding.count)
        return encoding.dictionary[int(code)].item()
    if isinstance(encoding, RLEEncoding):
        # fold over the run values (the delegate charges n_runs work)
        return _resolver(backend, agg)(b.run_value_bat())
    # FOR: fold the deltas, add the frame back
    reduced = _resolver(backend, agg)(b.code_bat())
    return (np.int64(encoding.frame) + np.int64(reduced)).astype(
        encoding.dtype
    ).item()


# -- grouping / grouped aggregation ----------------------------------------


def _compressed_group(backend, b, mode: str):
    encoding = _encoding(b, mode)
    if isinstance(encoding, (DictEncoding, FOREncoding)):
        # codes/deltas are order-isomorphic to the values (sorted
        # dictionary, positive frame offsets): grouping them yields the
        # same dense ascending-key gids and group count
        return _resolver(backend, "group")(b.code_bat())
    return _resolver(backend, "group")(b)


def _compressed_grouped_minmax(backend, b, gids, ngroups, agg: str,
                               mode: str):
    encoding = _encoding(b, mode)
    if not isinstance(encoding, DictEncoding):
        return _resolver(backend, agg)(b, gids, ngroups)
    # per-group min/max commute with the monotone code -> value map:
    # reduce the codes, map the winners through the dictionary, and
    # return the result *still dictionary-encoded* (late
    # materialisation: it only decodes if the result set reads it)
    reduced = host_array(
        backend,
        _resolver(backend, agg)(b.code_bat(), gids, ngroups),
    )
    codes = reduced.astype(
        _narrowest_uint(max(len(encoding.dictionary) - 1, 0)), copy=False
    )
    return EncodedBAT(
        DictEncoding(dictionary=encoding.dictionary, codes=codes),
        tag=f"{b.tag}#{agg}", stats=b.stats, full_column=False,
    )


# -- registration -----------------------------------------------------------


def register_compress_ops(backend) -> None:
    """Register the ``compress.*`` operator set on a leaf backend."""

    def op_select(b, cand, lo, hi, li, hi_incl, anti, mode):
        return _compressed_select(
            backend, b, cand, lo, hi, bool(li), bool(hi_incl), bool(anti),
            mode,
        )

    def op_thetaselect(b, cand, val, op, mode):
        lo, hi, li, hi_incl, anti = _theta_bounds(val, op)
        return _compressed_select(
            backend, b, cand, lo, hi, li, hi_incl, anti, mode
        )

    def op_group(b, mode):
        return _compressed_group(backend, b, mode)

    backend.register("compress.select", op_select)
    backend.register("compress.thetaselect", op_thetaselect)
    backend.register("compress.group", op_group)
    for row in OPS.values():
        if row.compressed and row.cls == "scalar_agg":
            def op(b, mode, _agg=row.function):
                return _compressed_scalar_agg(backend, b, _agg, mode)
        elif row.compressed and row.cls == "grouped_agg":
            def op(b, gids, ngroups, mode, _agg=row.function):
                return _compressed_grouped_minmax(
                    backend, b, gids, ngroups, _agg, mode
                )
        else:
            continue
        backend.register(f"{COMPRESS_MODULE}.{row.function}", op)
