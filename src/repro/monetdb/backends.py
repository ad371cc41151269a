"""The MonetDB operator backends: **MS** (sequential) and **MP** (parallel).

These are the paper's baselines.  Operators execute for real on numpy
arrays (their results are the ground truth the Ocelot operators are tested
against) and charge simulated time to the backend clock through the cost
model (:mod:`repro.monetdb.costmodel`).

MS and MP share one operator set; they differ only in how an operator's
:class:`~repro.monetdb.costmodel.OpCost` is converted to seconds — MP
divides parallelisable work across cores (Mitosis), pays a per-operator
dataflow overhead, and pays to merge partial results (``mat.pack``),
which is why MonetDB's oid-list selection gets *more* expensive with
selectivity while Ocelot's bitmaps stay flat (Fig. 5(a)/(b)).

Conventions shared with Ocelot (drop-in contract):

* selections return oid lists — **global** positions into the base BAT,
* joins return position pairs ordered by (left position, right position),
* group ids are dense and assigned in ascending key order,
* descending sorts are the exact reversal of the stable ascending sort.
"""

from __future__ import annotations

import numpy as np

from ..kernels.aggregation import segmented_reduce
from ..kernels.selection import predicate_mask
from .bat import BAT, OID_DTYPE, Role, bitmap_bat, make_bat, oid_bat
from .calc import ELEMENTWISE, elementwise, grouped_dtype, ifthenelse
from .costmodel import DEFAULT_COST_MODEL, MonetDBCostModel, OpCost
from .interpreter import Backend
from .mal import ColumnRef
from .ops import of_class
from .storage import Catalog


def select_bounds_to_op(lo, hi, li: bool, hi_incl: bool) -> tuple[str, object, object]:
    """Translate MonetDB ``select`` bounds into a predicate op."""
    if lo is not None and hi is not None:
        op = {"tt": "[]", "tf": "[)", "ft": "(]", "ff": "()"}[
            ("t" if li else "f") + ("t" if hi_incl else "f")
        ]
        return op, lo, hi
    if lo is not None:
        return (">=" if li else ">"), lo, None
    if hi is not None:
        return ("<=" if hi_incl else "<"), hi, None
    raise ValueError("select needs at least one bound")


def hash_join_pairs(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join positions in canonical (left asc, right asc) order."""
    if left.size == 0 or right.size == 0:
        return np.empty(0, OID_DTYPE), np.empty(0, OID_DTYPE)
    order = np.argsort(right, kind="stable").astype(np.int64)
    sorted_right = right[order]
    starts = np.searchsorted(sorted_right, left, side="left")
    ends = np.searchsorted(sorted_right, left, side="right")
    counts = (ends - starts).astype(np.int64)
    total = int(counts.sum())
    lpos = np.repeat(np.arange(left.size, dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    rpos = order[np.repeat(starts.astype(np.int64), counts) + intra]
    return lpos.astype(OID_DTYPE), rpos.astype(OID_DTYPE)


def group_ids(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense group ids in ascending key order (engine-wide convention)."""
    unique = np.unique(values)
    gids = np.searchsorted(unique, values).astype(OID_DTYPE)
    return gids, int(unique.size)


class MonetDBBackend(Backend):
    """Operator set + cost accounting for the MonetDB baselines."""

    label = "MS"
    parallel = False

    def __init__(
        self,
        catalog: Catalog,
        cost_model: MonetDBCostModel = DEFAULT_COST_MODEL,
        data_scale: float = 1.0,
    ):
        self.model = cost_model
        #: nominal scaling (one in-process element stands for this many
        #: modelled elements; see DESIGN.md §2)
        self.data_scale = float(data_scale)
        self._clock = 0.0
        #: per-op cost trace of the last query (benchmarks consume this to
        #: e.g. exclude hash-build or merge components, paper footnotes).
        self.trace: list[tuple[OpCost, float]] = []
        super().__init__(catalog)

    # -- clock ---------------------------------------------------------------

    def begin(self) -> None:
        self._clock = 0.0
        self.trace = []

    def _charge(self, cost: OpCost) -> None:
        if cost.scaled and self.data_scale != 1.0:
            cost = OpCost(
                op=cost.op,
                work=cost.work * self.data_scale,
                serial=cost.serial * self.data_scale,
                merge_bytes=int(cost.merge_bytes * self.data_scale),
                scaled=False,
            )
        seconds = (
            cost.parallel_seconds(self.model)
            if self.parallel
            else cost.sequential_seconds(self.model)
        )
        self._clock += seconds
        self.trace.append((cost, seconds))

    def elapsed(self) -> float:
        return self._clock

    # -- registration -----------------------------------------------------------

    def _register_ops(self) -> None:
        m = self
        reg = self.register
        reg("sql.bind", m.op_bind)
        reg("algebra.select", m.op_select)
        reg("algebra.thetaselect", m.op_thetaselect)
        reg("algebra.projection", m.op_projection)
        reg("algebra.join", m.op_join)
        reg("algebra.thetajoin", m.op_thetajoin)
        reg("algebra.semijoin", m.op_semijoin)
        reg("algebra.antijoin", m.op_antijoin)
        reg("algebra.sort", m.op_sort)
        reg("algebra.firstn", m.op_firstn)
        reg("algebra.oidunion", m.op_oidunion)
        reg("algebra.oidintersect", m.op_oidintersect)
        reg("algebra.hashbuild", m.op_hashbuild)
        reg("bat.mirror", m.op_mirror)
        reg("group.group", m.op_group)
        reg("group.subgroup", m.op_subgroup)
        for row in of_class("scalar_agg"):
            reg(row.op, self._make_scalar_agg(row.agg))
        for row in of_class("grouped_agg"):
            # counting group ids takes no values column
            reg(row.op, m.op_subcount if row.nargs == 2
                else self._make_grouped_agg(row.agg))
        for op in ELEMENTWISE:
            reg(f"batcalc.{op}", self._make_elementwise(op))
        reg("batcalc.ifthenelse", m.op_ifthenelse)
        reg("fuse.pipe", m.op_fuse_pipe)
        # host-side scalar arithmetic (MAL's calc module)
        reg("calc.add", lambda a, b: a + b)
        reg("calc.sub", lambda a, b: a - b)
        reg("calc.mul", lambda a, b: a * b)
        reg("calc.div", lambda a, b: a / b)
        # compressed-execution forms (delegate back to the ops above
        # when a column is stored plain)
        from ..compress.ops import register_compress_ops

        register_compress_ops(self)

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _tail(value) -> np.ndarray:
        if isinstance(value, BAT):
            return value.values
        return value

    # -- operators ---------------------------------------------------------------

    def op_bind(self, ref: ColumnRef) -> BAT:
        return self.catalog.bat(ref.table, ref.column)

    def op_select(self, b: BAT, cand, lo, hi, li, hi_incl, anti) -> BAT:
        op, lo_v, hi_v = select_bounds_to_op(lo, hi, bool(li), bool(hi_incl))
        return self._select_common(b, cand, op, lo_v, hi_v, bool(anti))

    def op_thetaselect(self, b: BAT, cand, val, op: str) -> BAT:
        return self._select_common(b, cand, op, val, None, False)

    def _select_common(self, b, cand, op, lo, hi, anti) -> BAT:
        values = b.values
        if cand is not None:
            base = cand.values.astype(np.int64, copy=False)
            scanned = values[base]
        else:
            base = None
            scanned = values
        mask = predicate_mask(scanned, op, lo, hi)
        if anti:
            mask = ~mask
        hits = np.nonzero(mask)[0]
        oids = (base[hits] if base is not None else hits).astype(OID_DTYPE)
        model = self.model
        self._charge(
            OpCost(
                op="algebra.select",
                work=model.ns(scanned.size, model.select_scan_ns)
                + model.ns(oids.size, model.select_result_ns),
                merge_bytes=oids.nbytes,
            )
        )
        return oid_bat(oids)

    def op_projection(self, oids: BAT, b: BAT) -> BAT:
        idx = oids.values.astype(np.int64, copy=False)
        gather_rows = getattr(b, "gather_rows", None)
        if gather_rows is not None:
            # encoded source: materialise only the fetched rows through
            # the codec instead of decoding the whole tail first
            out = gather_rows(idx)
        else:
            out = b.values[idx]
        model = self.model
        self._charge(
            OpCost(
                op="algebra.projection",
                work=model.ns(idx.size, model.fetch_ns),
                merge_bytes=out.nbytes,
            )
        )
        return make_bat(out)

    def op_join(self, l: BAT, r: BAT) -> tuple[BAT, BAT]:
        lv, rv = l.values, r.values
        lpos, rpos = hash_join_pairs(lv, rv)
        model = self.model
        self._charge(
            OpCost(
                op="algebra.join",
                serial=model.ns(rv.size, model.hash_build_ns),
                work=model.ns(lv.size, model.hash_probe_ns)
                + model.ns(lpos.size, model.fetch_ns),
                merge_bytes=lpos.nbytes + rpos.nbytes,
            )
        )
        return oid_bat(lpos), oid_bat(rpos)

    def op_thetajoin(self, l: BAT, r: BAT, op: str) -> tuple[BAT, BAT]:
        lv, rv = l.values, r.values
        lpos_parts, rpos_parts = [], []
        block = 8192
        for lo_i in range(0, lv.size, block):
            chunk = lv[lo_i : lo_i + block]
            li, ri = np.nonzero(predicate_mask(chunk[:, None], op, rv, None))
            lpos_parts.append((lo_i + li).astype(OID_DTYPE))
            rpos_parts.append(ri.astype(OID_DTYPE))
        lpos = np.concatenate(lpos_parts) if lpos_parts else np.empty(0, OID_DTYPE)
        rpos = np.concatenate(rpos_parts) if rpos_parts else np.empty(0, OID_DTYPE)
        model = self.model
        scale = self.data_scale
        nominal_pairs = (lv.size * scale) * max(rv.size * scale, 1)
        self._charge(
            OpCost(
                op="algebra.thetajoin",
                work=model.ns(nominal_pairs, model.nl_pair_ns),
                merge_bytes=int((lpos.nbytes + rpos.nbytes) * scale),
                scaled=False,
            )
        )
        return oid_bat(lpos), oid_bat(rpos)

    def op_semijoin(self, l: BAT, r: BAT) -> BAT:
        return self._membership(l, r, keep_matching=True)

    def op_antijoin(self, l: BAT, r: BAT) -> BAT:
        return self._membership(l, r, keep_matching=False)

    def _membership(self, l: BAT, r: BAT, keep_matching: bool) -> BAT:
        lv, rv = l.values, r.values
        member = np.isin(lv, rv)
        if not keep_matching:
            member = ~member
        pos = np.nonzero(member)[0].astype(OID_DTYPE)
        model = self.model
        self._charge(
            OpCost(
                op="algebra.semijoin" if keep_matching else "algebra.antijoin",
                serial=model.ns(rv.size, model.hash_build_ns),
                work=model.ns(lv.size, model.hash_probe_ns),
                merge_bytes=pos.nbytes,
            )
        )
        return oid_bat(pos)

    def op_sort(self, b: BAT, descending) -> tuple[BAT, BAT]:
        values = b.values
        if descending:
            # Stable-descending convention shared with Ocelot: ties keep
            # their original (ascending-position) order, which equals a
            # stable ascending sort on order-complemented keys.
            from ..kernels.radix_sort import encode_keys

            keys = np.bitwise_not(encode_keys(values))
            order = np.argsort(keys, kind="stable").astype(OID_DTYPE)
        else:
            order = np.argsort(values, kind="stable").astype(OID_DTYPE)
        out = values[order.astype(np.int64)]
        model = self.model
        nominal = int(values.size * self.data_scale)
        result_bytes = int((out.nbytes + order.nbytes) * self.data_scale)
        self._charge(
            OpCost(
                op="algebra.sort",
                work=model.sort_work(nominal) + model.materialize(result_bytes),
                merge_bytes=result_bytes,
                scaled=False,
            )
        )
        return make_bat(out, sorted_=not descending), oid_bat(order)

    def op_firstn(self, b: BAT, n, asc) -> BAT:
        """Top-N (MonetDB-only; Ocelot lacks an efficient top-k, App. A)."""
        values = b.values
        n = min(int(n), values.size)
        order = np.argsort(values, kind="stable")
        if not asc:
            order = order[::-1]
        pos = order[:n].astype(OID_DTYPE)
        model = self.model
        self._charge(
            OpCost(
                op="algebra.firstn",
                work=model.sort_work(int(values.size * self.data_scale)),
                scaled=False,
            )
        )
        return oid_bat(pos)

    def op_mirror(self, b: BAT) -> BAT:
        model = self.model
        self._charge(
            OpCost(op="bat.mirror", work=model.materialize(4 * b.count))
        )
        return oid_bat(np.arange(b.count, dtype=OID_DTYPE))

    def op_hashbuild(self, b: BAT) -> int:
        """Build (and discard) a hash table over ``b`` — MonetDB's
        ``bat.hash``; sequential in MonetDB (paper §5.2.4)."""
        values = b.values
        model = self.model
        self._charge(
            OpCost(
                op="algebra.hashbuild",
                serial=model.ns(values.size, model.hash_build_ns),
            )
        )
        return int(np.unique(values).size)

    def op_oidunion(self, a: BAT, b: BAT) -> BAT:
        """Union of two sorted candidate lists (disjunctive predicates)."""
        out = np.union1d(a.values, b.values).astype(OID_DTYPE)
        model = self.model
        self._charge(
            OpCost(
                op="algebra.oidunion",
                work=model.materialize(a.values.nbytes + b.values.nbytes)
                + model.ns(out.size, model.select_result_ns),
                merge_bytes=out.nbytes,
            )
        )
        return oid_bat(out)

    def op_oidintersect(self, a: BAT, b: BAT) -> BAT:
        """Intersection of two sorted candidate lists."""
        out = np.intersect1d(a.values, b.values).astype(OID_DTYPE)
        model = self.model
        self._charge(
            OpCost(
                op="algebra.oidintersect",
                work=model.materialize(a.values.nbytes + b.values.nbytes)
                + model.ns(out.size, model.select_result_ns),
                merge_bytes=out.nbytes,
            )
        )
        return oid_bat(out)

    def op_group(self, b: BAT) -> tuple[BAT, int]:
        values = b.values
        gids, ngroups = group_ids(values)
        model = self.model
        # sorted inputs group by neighbour comparison, not hashing
        per_ns = model.calc_ns if b.sorted else model.group_ns
        self._charge(
            OpCost(
                op="group.group",
                work=model.ns(values.size, per_ns),
                merge_bytes=gids.nbytes,
            )
        )
        return BAT(gids, Role.VALUES, tag=""), ngroups

    def op_subgroup(self, b: BAT, gids: BAT, ngroups) -> tuple[BAT, int]:
        values = b.values
        inner, n_inner = group_ids(values)
        combined = gids.values.astype(np.uint64) * np.uint64(n_inner) + inner
        out, n_out = group_ids(combined)
        model = self.model
        self._charge(
            OpCost(
                op="group.subgroup",
                work=model.ns(2 * values.size, model.group_ns),
                merge_bytes=out.nbytes,
            )
        )
        return BAT(out, Role.VALUES, tag=""), n_out

    # -- aggregation -------------------------------------------------------------

    def _make_scalar_agg(self, agg: str):
        def op(b: BAT):
            model = self.model
            if agg == "count":
                # metadata answers this — never touch (or decode) the tail
                n = int(b.count)
                self._charge(
                    OpCost(op="aggr.count", work=model.ns(n, model.agg_ns))
                )
                return n
            values = b.values
            self._charge(
                OpCost(
                    op=f"aggr.{agg}",
                    work=model.ns(values.size, model.agg_ns),
                )
            )
            if values.size == 0:
                # SQL returns NULL for empty SUM/AVG; without NULLs the
                # engines agree on 0 (min/max stay undefined).
                if agg in ("sum", "avg"):
                    return 0.0 if values.dtype.kind == "f" or agg == "avg" else 0
                raise ValueError(f"aggr.{agg} over empty input")
            if agg == "sum":
                return float(np.sum(values, dtype=np.float64)) if (
                    values.dtype.kind == "f"
                ) else int(np.sum(values, dtype=np.int64))
            if agg == "avg":
                return float(np.mean(values, dtype=np.float64))
            reduced = values.min() if agg == "min" else values.max()
            return reduced.item()

        op.__name__ = f"op_aggr_{agg}"
        return op

    def _make_grouped_agg(self, agg: str):
        def op(vals: BAT, gids: BAT, ngroups):
            values, groups = vals.values, gids.values
            ngroups_i = int(ngroups)
            model = self.model
            self._charge(
                OpCost(
                    op=f"aggr.sub{agg}",
                    work=model.ns(values.size, model.grouped_agg_ns),
                    merge_bytes=8 * ngroups_i * model.cores,
                )
            )
            if agg == "avg":
                sums = segmented_reduce(groups, values, ngroups_i, "sum", np.float64)
                counts = segmented_reduce(groups, None, ngroups_i, "count", np.int64)
                out = sums / np.maximum(counts, 1)
            else:
                dtype = grouped_dtype(agg, values.dtype)
                out = segmented_reduce(groups, values, ngroups_i, agg, dtype)
            return make_bat(out)

        op.__name__ = f"op_aggr_sub{agg}"
        return op

    def op_subcount(self, gids: BAT, ngroups) -> BAT:
        groups = gids.values
        ngroups_i = int(ngroups)
        model = self.model
        self._charge(
            OpCost(
                op="aggr.subcount",
                work=model.ns(groups.size, model.grouped_agg_ns),
                merge_bytes=8 * ngroups_i * model.cores,
            )
        )
        return make_bat(segmented_reduce(groups, None, ngroups_i, "count", np.int64))

    # -- batcalc -------------------------------------------------------------------

    def _make_elementwise(self, op: str):
        def fn(a, b):
            a_v, b_v = self._tail(a), self._tail(b)
            n = a_v.size if isinstance(a_v, np.ndarray) else b_v.size
            out = elementwise(op, a_v, b_v)
            model = self.model
            self._charge(
                OpCost(
                    op=f"batcalc.{op}",
                    work=model.ns(n, model.calc_ns),
                    merge_bytes=out.nbytes,
                )
            )
            return make_bat(out)

        fn.__name__ = f"op_batcalc_{op}"
        return fn

    def op_fuse_pipe(self, spec, *inputs):
        """One fused element-wise region, evaluated in a single pass
        (see :mod:`repro.fuse`): one cost charge for the whole chain
        instead of one materialisation per operator."""
        from ..fuse.dispatch import monetdb_pipe

        return monetdb_pipe(self, spec, *inputs)

    def op_ifthenelse(self, cond: BAT, a, b) -> BAT:
        cond_v = cond.values
        out = ifthenelse(cond_v, self._tail(a), self._tail(b))
        model = self.model
        self._charge(
            OpCost(
                op="batcalc.ifthenelse",
                work=model.ns(cond_v.size, model.calc_ns),
                merge_bytes=out.nbytes,
            )
        )
        return make_bat(out)


class MonetDBSequential(MonetDBBackend):
    """The paper's **MS** configuration: one core, no parallelism."""

    label = "MS"
    parallel = False


class MonetDBParallel(MonetDBBackend):
    """The paper's **MP** configuration: Mitosis + Dataflow parallelism."""

    label = "MP"
    parallel = True
