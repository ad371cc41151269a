"""The SHARD merges against the bodies they replaced.

``ShardedBackend`` used to fold scalar and grouped partials, align
shard-local groups by key, gather rows and fetch remote rows with
bodies of its own; they are now calls into ``repro.monetdb.partials``
around one ``_global_layout``, and the four position flags of a
``ShardedValue`` are one ``space`` field.  The replaced bodies are kept
verbatim below (PR 14's ``TestEquivalenceWithOldBodies`` pattern) and
every case runs the same statement through both: result columns, the
simulated clock, the interconnect counters, and a log of every merge
charge (bytes, pattern, physical bytes), every folded table and every
gathered or fetched BAT (tag, role, dtype, bytes, row space) must agree
bit for bit — on key columns whose common numpy type loses nothing,
which is where old and new are *meant* to agree (the other case is the
bug ``test_sharded_backend.py::TestGroupKeysKeepTheirWidth`` pins).
"""

from dataclasses import asdict

import numpy as np
import pytest

import repro
from repro import shard as shard_module
from repro.monetdb.bat import BAT, OID_DTYPE, Role, make_bat, oid_bat
from repro.monetdb.interpreter import UnsupportedOperator
from repro.monetdb.mal import MALBuilder
from repro.shard import backend as backend_module
from repro.shard.backend import (
    CONCAT,
    GATHERED,
    REPLICATED,
    ShardedBackend,
    ShardedValue,
    _Grouping,
)
from repro.tpch import WORKLOAD


# ---- verbatim from src/repro/shard/backend.py at PR 18 --------------------

class OldGrouping(_Grouping):
    def keys_matrix(self, shard: int) -> np.ndarray:
        """(ngroups_s, n_key_columns) matrix of shard-local group keys,
        row ``g`` holding local group ``g``'s key tuple (ascending)."""
        cached = self._key_cache.get(shard)
        if cached is not None:
            return cached
        values = self.backend._host_values(shard, self.key_bats[shard])
        if self.outer is None:
            keys = np.unique(values).reshape(-1, 1)
        else:
            gids = self.backend._host_values(
                shard, self.gids_bats[shard]
            ).astype(np.int64, copy=False)
            outer_gids = self.backend._host_values(
                shard, self.outer_gids[shard]
            ).astype(np.int64, copy=False)
            # first row of each dense id; ids ascend in key order, so
            # np.unique's sorted ids line up with row positions 0..n-1
            _ids, first = np.unique(gids, return_index=True)
            outer_keys = self.outer.keys_matrix(shard)
            keys = np.column_stack(
                [outer_keys[outer_gids[first]], values[first]]
            )
        if keys.shape[0] != int(self.ngroups[shard]):
            raise AssertionError(
                "shard group keys out of step with dense ids"
            )
        self._key_cache[shard] = keys
        if len(self._key_cache) == len(self.key_bats):
            held, self._held = self._held, []
            for value in held:
                value.holds -= 1
                self.backend._let_go(value)
        return keys

    def merged(self):
        """``(n_global, maps)``: global group count and, per shard, the
        ``local gid -> global index`` translation (global groups sorted
        ascending by key tuple — the single-node output convention)."""
        if self._merged is None:
            mats = [
                self.keys_matrix(s)
                for s in range(len(self.key_bats))
            ]
            common = np.result_type(*[m.dtype for m in mats])
            stacked = np.vstack([m.astype(common, copy=False)
                                 for m in mats])
            uniq, inverse = np.unique(
                stacked, axis=0, return_inverse=True
            )
            inverse = np.asarray(inverse).reshape(-1)
            maps, offset = [], 0
            for m in mats:
                maps.append(inverse[offset:offset + m.shape[0]])
                offset += m.shape[0]
            self._merged = (uniq.shape[0], maps)
            self.backend._charge_merge(int(stacked.nbytes))
        return self._merged


def _fold_identity(op: str, dtype: np.dtype):
    if op == "sum":
        return 0
    info = (np.finfo(dtype) if np.issubdtype(dtype, np.floating)
            else np.iinfo(dtype))
    return info.max if op == "min" else info.min


class OldShardedBackend(ShardedBackend):
    def _fold_scalar(self, value: ShardedValue):
        if value.merge == "avg":
            total = self._fold_scalar(value.pair[0])
            count = self._fold_scalar(value.pair[1])
            return float(total) / max(float(count), 1.0)
        # empty shards were skipped at fan-out time (None = identity)
        parts = [p for p in value.parts if p is not None]
        if value.merge == "sum":
            total = parts[0]
            for part in parts[1:]:
                total = total + part
            return total
        if value.merge == "min":
            return min(parts)
        if value.merge == "max":
            return max(parts)
        if value.merge == "first" or not value.partitioned:
            return parts[0]
        raise UnsupportedOperator(
            "partitioned scalar without merge semantics reached a "
            "merge point (unsupported plan shape for SHARD)"
        )

    def _fold_grouped(self, value: ShardedValue) -> np.ndarray:
        """Key-aligned fold of an ngroups-wide partial across shards,
        in ascending global key order (the single-node convention)."""
        grouping = value.group
        n_global, maps = grouping.merged()
        if value.merge == "avg":
            sums = self._fold_grouped(value.pair[0]).astype(np.float64)
            counts = self._fold_grouped(value.pair[1]).astype(np.float64)
            avg = sums / np.maximum(counts, 1.0)
            return avg.astype(value.avg_dtype or np.float64)
        arrays = [
            self._host_values(shard, part)
            for shard, part in enumerate(value.parts)
        ]
        dtype = np.result_type(*[np.asarray(a).dtype for a in arrays])
        out = np.full(n_global, _fold_identity(value.merge, dtype),
                      dtype=dtype)
        for shard, vals in enumerate(arrays):
            idx = maps[shard]
            if value.merge == "sum":
                out[idx] = out[idx] + vals
            elif value.merge == "min":
                out[idx] = np.minimum(out[idx], vals)
            else:
                out[idx] = np.maximum(out[idx], vals)
        return out

    def _gather_rows(self, value: ShardedValue) -> ShardedValue:
        """Concatenate a partitioned row-space value on the driver and
        broadcast it to every shard (sort / broadcast-join path).

        Every gathered column of one row space concatenates in shard
        order, so gathered layouts are mutually consistent; *position*
        columns additionally translate shard-local positions into that
        layout via their space's per-shard row counts (``base_rows``).
        """
        if value._gathered is None:
            arrays = [
                self._host_values(shard, part)
                for shard, part in enumerate(value.parts)
            ]
            positions = (
                value.base_rows is not None or value.remote_oids
                or value.global_oids or value.repl_space
                or any(isinstance(p, BAT) and p.role is Role.OIDS
                       for p in value.parts)
            )
            if positions:
                if value.global_oids or value.remote_oids \
                        or value.repl_space:
                    # already valued in a global (or shard-agnostic)
                    # layout — no per-shard offset translation to apply
                    pass
                elif value.base_rows is None:
                    raise UnsupportedOperator(
                        "cannot gather a sharded position column whose "
                        "row space is unknown (unsupported plan shape "
                        "for SHARD)"
                    )
                else:
                    offsets = np.concatenate(
                        ([0], np.cumsum(value.base_rows[:-1]))
                    ).astype(np.int64)
                    arrays = [
                        a.astype(np.int64) + offsets[s]
                        for s, a in enumerate(arrays)
                    ]
                merged = np.concatenate(arrays)
                bats = [
                    oid_bat(merged.astype(OID_DTYPE), tag="shard_gather")
                    for _ in range(self.n_shards)
                ]
                physical = int(merged.nbytes)
            else:
                merged = np.concatenate(arrays)
                bats = [
                    make_bat(merged, tag="shard_gather")
                    for _ in range(self.n_shards)
                ]
                # encoded parts would ship (and re-broadcast) their
                # codec payloads, not the decoded arrays
                physical = self._physical_nbytes(value.parts, arrays)
            self._charge_merge(int(merged.nbytes) * (1 + self.n_shards),
                               kind="broadcast",
                               physical_nbytes=physical
                               * (1 + self.n_shards))
            gathered = ShardedValue(bats, partitioned=False)
            # offset-translated positions now live in the gathered
            # (global) layout — consumers must gather their sources too
            gathered.global_oids = positions
            value._gathered = gathered
        return value._gathered

    def _remote_project(self, oids: ShardedValue, source: ShardedValue):
        """Targeted cross-shard fetch: project remote positions through
        a partitioned source, moving only the referenced rows.

        The source's per-shard parts concatenate (positions translating
        by their space's offsets) into the layout the remote positions
        are valued in; each shard then fetches its hit rows, and only
        rows owned by *another* shard are charged to the interconnect —
        the second half of the shuffle join's traffic win."""
        counts = self._counts(source)
        offsets = np.concatenate(
            ([0], np.cumsum(counts[:-1]))
        ).astype(np.int64)
        arrays = [
            np.asarray(self._host_values(shard, part))
            for shard, part in enumerate(source.parts)
        ]
        # the source's *values* are positions into some other space when
        # it carries that space's per-shard counts or one of the
        # position-layout flags (role alone is not enough: a projected
        # row map is a VALUES-role BAT of positions)
        positions = (
            source.base_rows is not None or source.remote_oids
            or source.global_oids or source.repl_space
            or any(isinstance(p, BAT) and p.role is Role.OIDS
                   for p in source.parts)
        )
        if positions and not (source.global_oids or source.remote_oids
                              or source.repl_space):
            if source.base_rows is None:
                raise UnsupportedOperator(
                    "cannot re-partition a sharded position column "
                    "whose row space is unknown (unsupported plan "
                    "shape for SHARD)"
                )
            space = np.concatenate(
                ([0], np.cumsum(source.base_rows[:-1]))
            ).astype(np.int64)
            arrays = [
                a.astype(np.int64) + space[s]
                for s, a in enumerate(arrays)
            ]
        concat = np.concatenate(arrays)
        # an encoded source would ship fetched rows in its stored form;
        # approximate with the source's overall physical/nominal ratio
        # (position columns are never encoded, so their ratio is 1)
        src_nominal = sum(int(np.asarray(a).nbytes) for a in arrays)
        src_ratio = (self._physical_nbytes(source.parts, arrays)
                     / src_nominal) if src_nominal else 1.0
        bounds = np.append(offsets, len(concat)).astype(np.int64)
        parts, moved = [], 0
        for shard in range(self.n_shards):
            pos = np.asarray(
                self._host_values(shard, oids.parts[shard])
            ).astype(np.int64, copy=False)
            values = concat[pos]
            owner = np.searchsorted(bounds, pos, side="right") - 1
            moved += int(values[owner != shard].nbytes)
            if positions:
                parts.append(oid_bat(values.astype(OID_DTYPE),
                                     tag="shard_fetch"))
            else:
                parts.append(make_bat(values, tag="shard_fetch"))
        self._charge_merge(moved, kind="shuffled",
                           physical_nbytes=int(moved * src_ratio))
        out = ShardedValue(parts, partitioned=True)
        if positions:
            # fetched values are positions in the source space's own
            # concatenated layout — still remote for the next hop (or
            # global / shard-agnostic when the source's values already
            # were)
            out.global_oids = source.global_oids
            out.repl_space = source.repl_space
            out.remote_oids = not (source.global_oids
                                   or source.repl_space)
        return out


# ---- glue: the four flags the old bodies read, over ``space`` -------------

def _flag(marker):
    def get(self):
        return self.space == marker

    def set_(self, on):
        if on:
            self.space = marker
        elif self.space == marker:
            self.space = None

    return property(get, set_)


OLD_FLAGS = {
    "global_oids": _flag(GATHERED),
    "remote_oids": _flag(CONCAT),
    "repl_space": _flag(REPLICATED),
    "base_rows": property(
        lambda self: self.space if isinstance(self.space, tuple) else None),
    # always float64: ``grouped_dtype("avg", ...)`` has one answer
    "avg_dtype": property(lambda self: None),
}


# ---- the harness ----------------------------------------------------------

def described(parts):
    return [(p.tag, p.role, str(p.dtype), p.values.tobytes())
            if isinstance(p, BAT) else p for p in parts]


class Recording:
    """Log what a query merges, gathers and fetches, and at what charge."""

    def __init__(self, *args, **kwargs):
        self.log = []
        super().__init__(*args, **kwargs)

    def _charge_merge(self, nbytes, kind="gathered", physical_nbytes=None):
        self.log.append(("charge", int(nbytes), kind,
                         None if physical_nbytes is None
                         else int(physical_nbytes)))
        super()._charge_merge(nbytes, kind, physical_nbytes)

    def _fold_scalar(self, value):
        out = super()._fold_scalar(value)
        self.log.append(("scalar", type(out).__name__, repr(out)))
        return out

    def _fold_grouped(self, value):
        out = super()._fold_grouped(value)
        self.log.append(("table", str(out.dtype), out.tobytes()))
        return out

    def _gather_rows(self, value):
        fresh = value._gathered is None
        out = super()._gather_rows(value)
        if fresh:
            self.log.append(("gather", out.space, out.partitioned,
                             described(out.parts)))
        return out

    def _remote_project(self, oids, source):
        out = super()._remote_project(oids, source)
        self.log.append(("fetch", out.space, out.partitioned,
                         described(out.parts)))
        return out


class New(Recording, ShardedBackend):
    pass


class Old(Recording, OldShardedBackend):
    pass


def tables(seed=11, n_fact=3000, n_dim=600):
    rng = np.random.default_rng(seed)
    return {
        "fact": {
            "f_key": rng.integers(0, n_dim, n_fact).astype(np.int32),
            "v": rng.random(n_fact).astype(np.float32),
            "g": rng.integers(0, 6, n_fact).astype(np.int32),
            "h": (rng.integers(0, 3, n_fact) / 2).astype(np.float32),
            "p": rng.integers(-2, 2, n_fact).astype(np.int32),
        },
        "dim": {
            "d_key": np.arange(n_dim, dtype=np.int32),
            "w": rng.random(n_dim).astype(np.float32),
            "c": rng.integers(0, 4, n_dim).astype(np.int32),
        },
    }


def outcome(monkeypatch, old: bool, make_db, spec, statements):
    """Per statement (SQL text or MAL program): result columns, simulated
    seconds, the merge log and the query's interconnect counters — or
    the exception, if it raised."""
    monkeypatch.setattr(shard_module, "ShardedBackend", Old if old else New)
    monkeypatch.setattr(backend_module, "_Grouping",
                        OldGrouping if old else _Grouping)
    if old:
        for name, flag in OLD_FLAGS.items():
            monkeypatch.setattr(ShardedValue, name, flag, raising=False)
    with make_db() as db:
        con = db.connect(spec)
        out = []
        for statement in statements:
            del con.backend.log[:]
            run = con.execute if isinstance(statement, str) else con.run_plan
            try:
                result = run(statement)
            except Exception as error:     # both bodies must fail alike
                out.append((type(error), str(error)))
                continue
            out.append((
                {name: (str(values.dtype), values.tobytes())
                 for name, values in result.columns.items()},
                result.elapsed,
                list(con.backend.log),
                asdict(con.backend.traffic.query),
            ))
        return out


def sorted_candidates():
    """``sort`` over a selection's shard-local positions."""
    b = MALBuilder("sorted_candidates")
    cand = b.emit("algebra", "thetaselect",
                  (b.bind("fact", "v"), None, 0.1, "<"))
    positions, order = b.emit("algebra", "sort", (cand, True), n_results=2)
    return b.returns([("p", positions), ("o", order)])


def row_map_behind_a_shuffle():
    """Join against a *selected* dim: the dim side of the pair list
    points into the selection, whose row map (positions into ``dim``,
    partitioned) is fetched through remotely, then ``w`` through that."""
    b = MALBuilder("row_map")
    w = b.bind("dim", "w")
    cand = b.emit("algebra", "thetaselect", (w, None, 0.5, "<"))
    keys = b.emit("algebra", "projection", (cand, b.bind("dim", "d_key")))
    _lpos, rpos = b.emit("algebra", "join",
                         (b.bind("fact", "f_key"), keys), n_results=2)
    dim_rows = b.emit("algebra", "projection", (rpos, cand))
    picked = b.emit("algebra", "projection", (dim_rows, w))
    return b.returns([("w", picked)])


def small_db():
    db = repro.Database()
    for name, columns in tables().items():
        db.create_table(name, columns)
    return db


AGGREGATES = ("sum(v) AS sv, sum(f_key) AS sk, count(*) AS n, avg(v) AS mv, "
              "avg(f_key) AS mk, min(v) AS lo, max(f_key) AS hi")
STATEMENTS = [
    f"SELECT {AGGREGATES} FROM fact WHERE g > 1",
    f"SELECT g, {AGGREGATES} FROM fact GROUP BY g",
    f"SELECT g, h, {AGGREGATES} FROM fact WHERE v < 0.9 GROUP BY g, h",
    f"SELECT h, p, g, {AGGREGATES} FROM fact GROUP BY h, p, g",
    "SELECT g, sum(v) AS s FROM fact GROUP BY g HAVING sum(v) > 200 "
    "ORDER BY s DESC",
    "SELECT f_key, v FROM fact WHERE v < 0.05 ORDER BY v",
    "SELECT g, sum(v * w) AS s FROM fact JOIN dim ON f_key = d_key "
    "GROUP BY g ORDER BY g",
    "SELECT c, g, avg(v + w) AS m, count(*) AS n FROM fact "
    "JOIN dim ON f_key = d_key WHERE w < 0.5 GROUP BY c, g",
    "SELECT v, w, c FROM fact JOIN dim ON f_key = d_key WHERE v < 0.03",
    "SELECT min(v) AS lo FROM fact WHERE g > 99",        # refused alike
]
SPECS = [
    "SHARD:2xMS", "SHARD:3xMS:hash", "SHARD:3xMS:replicas=2",
    "SHARD:3xMS:join=broadcast", "SHARD:3xMS:key=dim.d_key",
    "SHARD:3xMS:key=fact.f_key:key=dim.d_key", "SHARD:2xCPU",
]


class TestEquivalenceWithOldBodies:
    @pytest.mark.parametrize("spec", SPECS)
    def test_statements(self, monkeypatch, spec):
        old = outcome(monkeypatch, True, small_db, spec, STATEMENTS)
        new = outcome(monkeypatch, False, small_db, spec, STATEMENTS)
        for sql, before, after in zip(STATEMENTS, old, new):
            assert after == before, sql
        kinds = {entry[0] for result in new if len(result) == 4
                 for entry in result[2]}
        assert {"charge", "scalar", "table"} <= kinds

    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:3xMS:hash",
                                      "SHARD:2xCPU"])
    def test_position_columns_through_gathers_and_fetches(self, monkeypatch,
                                                          spec):
        """Plans SQL does not produce: a *position* column is gathered
        (shard-local positions translate by their space's row counts —
        and are charged at 8 bytes each) and fetched through remotely
        (positions into a space that stays partitioned)."""
        plans = [sorted_candidates(), row_map_behind_a_shuffle()]
        old = outcome(monkeypatch, True, small_db, spec, plans)
        new = outcome(monkeypatch, False, small_db, spec, plans)
        assert new == old
        (gathered, fetched) = ([e for e in result[2] if e[0] == kind]
                               for result, kind
                               in zip(new, ("gather", "fetch")))
        assert [e[1] for e in gathered] == [GATHERED]
        rows = len(gathered[0][3][0][3]) // OID_DTYPE.itemsize
        n = len(gathered[0][3])
        # translated: int64 width in the charge, oids in the BAT
        assert ("charge", rows * 8 * (1 + n), "broadcast",
                rows * 8 * (1 + n)) in new[0][2]
        assert [e[1] for e in fetched] == [CONCAT, None]
        assert all(p[1] is Role.OIDS for p in fetched[0][3])

    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:3xCPU",
                                      "SHARD:3xMS:join=broadcast"])
    def test_tpch(self, monkeypatch, spec):
        def make_db():
            return repro.tpch_database(sf=0.1)

        statements = list(WORKLOAD.values())
        old = outcome(monkeypatch, True, make_db, spec, statements)
        new = outcome(monkeypatch, False, make_db, spec, statements)
        for query, before, after in zip(WORKLOAD, old, new):
            assert after == before, query
            assert len(after) == 4, (query, after)
        seen = {entry[:2] for result in new for entry in result[2]
                if entry[0] in ("gather", "fetch")}
        if "broadcast" in spec:
            assert seen == {("gather", None)}
        else:
            # values, and row maps into partitioned and replicated spaces
            assert {("fetch", None), ("fetch", CONCAT),
                    ("fetch", REPLICATED)} <= seen
