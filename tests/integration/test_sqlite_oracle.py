"""A fixed-table differential oracle: every engine against ``sqlite3``.

A dozen small adversarial tables × select / filter / ``JOIN … ON`` /
``GROUP BY`` / aggregate / ``ORDER BY`` / ``LIMIT`` texts × every engine
spec of a matrix derived from the registry and ``KNOBS``, through
``execute()`` plus one four-in-flight ``submit()`` batch.  The reference
is the standard library's SQLite on the same rows — an implementation
that shares no code with the engines.  Integers (keys beyond 2⁵³
included) must agree exactly, floats to a tolerance, and the one
difference in data model is stated once, in :func:`reference`: the
engines have no NULL, so a NaN is an ordinary value that aggregates
propagate.  The engines run under whatever ``REPRO_*`` environment the
process has, which is how CI's knob A/B cells reach every spec here.

(The fixed-table slice of ROADMAP item 1's oracle; the generated
statements are ``test_generated_oracle.py``.)
"""

import math
import re
import sqlite3

import numpy as np
import pytest

import repro
from repro.engines import KNOBS, default_registry
from test_resident_set import ocelot_specs

#: the tables hold NaN and ±inf on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")

#: the tables are far smaller than a default morsel: every leaf also
#: runs with morsels small enough to cut them
SMALL_MORSELS = f"{KNOBS['morsel'].name}=64"


# -- the matrix, derived ------------------------------------------------------

def engine_specs() -> "list[str]":
    """The resident-set test's Ocelot-backed shapes, the leaves that are
    not Ocelot-backed, every composite family over two nodes of the
    first such leaf and of each leaf that is a device pool itself, and
    every leaf under :data:`SMALL_MORSELS`."""
    registry = default_registry
    ocelot = ocelot_specs()
    leaves = [f.name for f in registry.families() if not f.takes_child]
    plain = [name for name in leaves if not registry.resolve(name).is_ocelot]
    pooled = [spec.split(":")[0] for spec in ocelot if ":admission=" in spec]
    composites = [
        f"{family.name}:2x{child}"
        for family in registry.families() if family.takes_child
        for child in plain[:1] + pooled
    ]
    return ocelot + plain + composites + [
        f"{name}:{SMALL_MORSELS}" for name in leaves
    ]


SPECS = engine_specs()


def test_the_matrix_is_the_one_the_issue_names():
    assert set(SPECS) == {
        "MS", "MP", "CPU", "GPU", "HET", "HET:admission=4", "SHARD:2xMS",
        "SHARD:2xCPU", "SHARD:4xCPU", "SHARD:2xHET",
        "SHARD:3xCPU:replicas=2", "MS:morsel=64", "MP:morsel=64",
        "CPU:morsel=64", "GPU:morsel=64", "HET:morsel=64",
    }


# -- the tables ---------------------------------------------------------------

BIG = 2 ** 53
NAN, INF = float("nan"), float("inf")


def ramp(n: int, dtype=np.int32) -> np.ndarray:
    return np.arange(n, dtype=dtype)


def tables() -> "dict[str, dict[str, np.ndarray]]":
    rng = np.random.default_rng(21)
    noisy = rng.normal(0, 100, 900).astype(np.float32)
    noisy[[100, 700]] = INF, NAN    # the NaN: last shard, a late morsel
    # a float *key* with NaNs on every shard and in every morsel (its
    # own generator: the columns above keep their values)
    nan_key = np.random.default_rng(24).normal(0, 2, 900).round(0)
    nan_key[::7] = NAN
    return {
        # eight-byte integer keys: negatives, beyond 2**32, neighbours
        # beyond 2**53 (which a float64 detour would merge), duplicates
        "wide": {
            "id": ramp(12),
            "k": np.array([-BIG - 1, -BIG, -2 ** 32, -1, 0, 1, 2 ** 32,
                           2 ** 32 + 1, BIG, BIG + 1, BIG + 1, 2 ** 62],
                          np.int64),
            "v": (ramp(12) * 3 - 7).astype(np.int32),
        },
        "wide_dim": {
            "k": np.array([BIG + 1, BIG, -BIG - 1, 2 ** 32, 7, -1], np.int64),
            "w": (ramp(6) * 10).astype(np.int32),
        },
        # eight-byte float keys
        "real": {
            "id": ramp(9),
            "k": np.array([-1e300, -2.5, -0.0, 0.0, 2.5, 2.5, float(BIG),
                           float(BIG + 2), 1e300], np.float64),
            "v": ramp(9, np.float32) / 4,
        },
        "real_dim": {
            "k": np.array([2.5, float(BIG + 2), -1e300, 0.0, 3.5], np.float64),
            "w": ramp(5) + 100,
        },
        # value columns a NULL-less engine must still get right
        "odd": {
            "id": ramp(10),
            "g": np.array([0, 0, 1, 1, 2, 2, 3, 3, 3, 4], np.int32),
            "x": np.array([1.5, NAN, -INF, 2.0, INF, 3.0, -0.0, 0.0, -1.0,
                           7.25], np.float32),
            "y": np.array([INF, 1.0, -INF, NAN, 5.0, -5.0, 0.0, -0.0, 1e300,
                           -1e300], np.float64),
        },
        # the replication boundary: SHARD replicates below 256 rows
        "t255": {
            "id": ramp(255),
            "k": (ramp(255) % 17).astype(np.int32),
            "v": rng.integers(-1000, 1000, 255).astype(np.int32),
        },
        "t256": {
            "id": ramp(256),
            "k": (ramp(256) % 19).astype(np.int32),
            "v": rng.integers(-1000, 1000, 256).astype(np.int32),
        },
        # spans several shards and several morsels' worth of groups
        "t900": {
            "id": ramp(900),
            "k": rng.integers(0, 40, 900).astype(np.int32),
            "f": rng.normal(0, 100, 900).astype(np.float32),
            "kk": rng.integers(-2 ** 40, 2 ** 40, 900).astype(np.int64),
            "n": noisy,
            "q": nan_key.astype(np.float32),
        },
        "dim": {
            "k": ramp(24),
            "w": (ramp(24) * ramp(24) - 50).astype(np.int32),
        },
        "edges": {
            "id": ramp(6),
            "v": np.array([-2 ** 31, -1, 0, 1, 2 ** 31 - 2, 2 ** 31 - 1],
                          np.int32),
        },
        # 2**31 - 1 encodes to the device hash tables' free-slot marker
        "edges_dim": {
            "k": np.array([2 ** 31 - 1, 1, -2 ** 31, 5, 2 ** 31 - 1],
                          np.int32),
            "w": ramp(5),
        },
        "one": {"id": ramp(1), "k": np.array([5], np.int32),
                "v": np.array([2.5], np.float32)},
        "none": {"id": ramp(0), "k": ramp(0), "v": ramp(0, np.float32)},
    }


# -- the texts ----------------------------------------------------------------

#: int32 arithmetic with a constant its result type widens to int64 adds
#: in int64 on every executor — ``batcalc``, a fused pipe, the ``ewise``
#: kernels — instead of wrapping or refusing the constant
WIDENING = [
    ("SELECT id, v + 2147483647 AS s FROM edges", False),
    ("SELECT id FROM edges WHERE v + 2147483647 > 2147483647", False),
    ("SELECT id, max(v) + 2147483647 AS s FROM edges GROUP BY id", False),
    ("SELECT id, v + 2147483648 AS a, v * 3000000000 AS b, "
     "v - 2147483649 AS c FROM edges", False),
    ("SELECT id FROM edges WHERE v + 2147483648 > 2147483648", False),
    ("SELECT id, (v + 2147483648) * 2 AS s FROM edges", False),
]

#: ``(sql, ordered)`` — ``ordered``: the text orders by a unique column,
#: so rows compare position by position; otherwise as multisets
CASES = [
    # wide integer keys
    ("SELECT id, k, v FROM wide WHERE k > 4294967296", False),
    ("SELECT id FROM wide WHERE k = 9007199254740993", False),
    ("SELECT k, count(*) AS c, sum(v) AS s FROM wide GROUP BY k ORDER BY k",
     True),
    ("SELECT min(k) AS lo, max(k) AS hi, count(k) AS c FROM wide", True),
    # grouped sums of eight-byte integers beyond 2**53 stay exact
    ("SELECT k, sum(k) AS s FROM wide_dim GROUP BY k", False),
    ("SELECT w, sum(k) AS s, avg(k) AS a FROM wide_dim GROUP BY w", False),
    ("SELECT wide.id AS id, wide_dim.w AS w FROM wide "
     "JOIN wide_dim ON wide.k = wide_dim.k", False),
    ("SELECT wide.id AS id FROM wide SEMI JOIN wide_dim "
     "ON wide.k = wide_dim.k ORDER BY id", True),
    ("SELECT wide.id AS id FROM wide ANTI JOIN wide_dim "
     "ON wide.k = wide_dim.k ORDER BY id", True),
    ("SELECT k, v FROM wide ORDER BY k DESC LIMIT 4", False),
    ("SELECT kk, count(*) AS c FROM t900 GROUP BY kk ORDER BY kk LIMIT 5",
     True),
    ("SELECT k, kk, sum(f) AS s FROM t900 WHERE id < 300 GROUP BY k, kk",
     False),
    # float keys
    ("SELECT k, count(*) AS c, sum(v) AS s FROM real GROUP BY k ORDER BY k",
     True),
    ("SELECT real.id AS id, real_dim.w AS w FROM real "
     "JOIN real_dim ON real.k = real_dim.k", False),
    ("SELECT id FROM real WHERE k >= 0 AND k < 9007199254740993.5 "
     "ORDER BY id", True),
    ("SELECT id, k FROM real ORDER BY id DESC LIMIT 3", True),
    # NaN, ±inf, ±0.0 as values
    ("SELECT id, x, y FROM odd WHERE x > 0", False),
    ("SELECT id FROM odd WHERE x = 0 OR y = 0", False),
    ("SELECT id FROM odd WHERE y BETWEEN -10 AND 10 ORDER BY id", True),
    ("SELECT min(x) AS a, max(x) AS b, sum(x) AS c, count(x) AS d FROM odd",
     True),
    ("SELECT min(y) AS a, max(y) AS b FROM odd WHERE id > 3", True),
    ("SELECT g, min(x) AS a, max(x) AS b, sum(y) AS c, avg(x) AS d "
     "FROM odd GROUP BY g ORDER BY g", True),
    ("SELECT id, x * 2 AS d, y + 1 AS e FROM odd ORDER BY id", True),
    ("SELECT min(n) AS a, max(n) AS b FROM t900", True),
    ("SELECT min(n) AS a, max(n) AS b, sum(n) AS c FROM t900 WHERE k < 50",
     True),
    ("SELECT k, min(n) AS a, max(n) AS b FROM t900 GROUP BY k ORDER BY k",
     True),
    # NaN as a group key: one group (SQLite: the NULL group, which it
    # sorts first and the engines last — compared as multisets)
    ("SELECT q, count(*) AS c, sum(f) AS s FROM t900 GROUP BY q", False),
    ("SELECT q, sum(id) AS s, min(n) AS lo FROM t900 WHERE k < 20 "
     "GROUP BY q", False),
    ("SELECT k, q, count(*) AS c FROM t900 WHERE id > 100 GROUP BY k, q",
     False),
    ("SELECT q, k, max(f) AS hi FROM t900 WHERE k < 4 GROUP BY q, k", False),
    ("SELECT x, count(*) AS c, sum(id) AS s FROM odd GROUP BY x", False),
    # the replication boundary, both sides of a join
    ("SELECT k, count(*) AS c, sum(v) AS s, min(v) AS lo FROM t255 "
     "GROUP BY k ORDER BY k", True),
    ("SELECT k, count(*) AS c, sum(v) AS s, max(v) AS hi FROM t256 "
     "GROUP BY k ORDER BY k", True),
    ("SELECT t255.id AS a, t256.id AS b FROM t255 "
     "JOIN t256 ON t255.v = t256.v", False),
    ("SELECT t256.id AS id, dim.w AS w FROM t256 JOIN dim ON t256.k = dim.k "
     "WHERE dim.w > 100 ORDER BY id", True),
    ("SELECT dim.k AS k, sum(t900.f) AS s, count(*) AS c FROM t900 "
     "JOIN dim ON t900.k = dim.k WHERE t900.f > 0 GROUP BY dim.k "
     "ORDER BY k", True),
    ("SELECT k, avg(f) AS a FROM t900 GROUP BY k ORDER BY a DESC LIMIT 3",
     False),
    ("SELECT id, f FROM t900 WHERE f > 150 OR f < -150 ORDER BY id", True),
    ("SELECT sum(f) AS s, avg(f) AS a, min(f) AS lo, max(f) AS hi, "
     "count(*) AS c FROM t900 WHERE k < 30", True),
    # LIMIT alone: the first rows in base order, partitioned or not
    ("SELECT id, k FROM t900 LIMIT 5", True),
    ("SELECT id, f FROM t900 WHERE k > 30 LIMIT 4", True),
    ("SELECT id, v FROM t255 LIMIT 300", True),
    # build sides that are empty after their filter
    ("SELECT t256.id AS id FROM t256 JOIN dim ON t256.k = dim.k "
     "WHERE dim.w > 100000", False),
    ("SELECT wide.id AS id FROM wide JOIN wide_dim ON wide.k = wide_dim.k "
     "WHERE wide_dim.w < 0", False),
    ("SELECT t255.k AS k, count(*) AS c FROM t255 JOIN none "
     "ON t255.k = none.k GROUP BY t255.k", False),
    # int32 edges
    ("SELECT id, v FROM edges WHERE v >= 2147483646 OR v <= -2147483648",
     False),
    ("SELECT min(v) AS lo, max(v) AS hi, sum(v) AS s FROM edges", True),
    ("SELECT id, v FROM edges ORDER BY v DESC LIMIT 2", True),
    # int32 2**31 - 1 as a hashed key: a group, a join key on both sides,
    # a probe key with no partner
    ("SELECT v, count(*) AS c FROM edges GROUP BY v", False),
    ("SELECT id, v, count(*) AS c FROM edges GROUP BY id, v", False),
    ("SELECT k, sum(w) AS s FROM edges_dim GROUP BY k", False),
    ("SELECT edges.id AS id, edges_dim.w AS w FROM edges "
     "JOIN edges_dim ON edges.v = edges_dim.k", False),
    ("SELECT edges.id AS id FROM edges SEMI JOIN dim "
     "ON edges.v = dim.k ORDER BY id", True),
    ("SELECT edges.id AS id FROM edges ANTI JOIN edges_dim "
     "ON edges.v = edges_dim.k ORDER BY id", True),
    # a constant the column's type cannot hold, on either side
    ("SELECT sum(v * 0.5) AS a, sum(v + 2.5) AS b FROM t255", True),
    ("SELECT sum(v - 0.25) AS s FROM t256 WHERE k < 10", True),
    ("SELECT id, 1.5 - v AS d, v * 100000 AS e FROM t255 WHERE k < 3 "
     "ORDER BY id", True),
    ("SELECT t256.k AS k, sum(1.5 - t256.v) AS s, sum(t900.f * 3) AS t "
     "FROM t900 JOIN t256 ON t900.id = t256.id GROUP BY t256.k ORDER BY k",
     True),
    *WIDENING,
    # shapes around the operators: HAVING, IN, NOT, CASE, subqueries
    ("SELECT k, sum(v) AS s FROM t256 GROUP BY k HAVING sum(v) > 0 "
     "ORDER BY k", True),
    ("SELECT id FROM t255 WHERE k IN (1, 5, 16) AND NOT v < 0 ORDER BY id",
     True),
    # negative numbers in a list: the sign stays outside the placeholder
    ("SELECT id, v FROM t255 WHERE v IN (1, -5) ORDER BY id", True),
    ("SELECT id FROM odd WHERE y IN (1, -5) ORDER BY id", True),
    ("SELECT count(*) AS c, sum(v) AS s FROM t255 WHERE v NOT IN (-5, 2)",
     True),
    # constant expressions wherever a literal goes
    ("SELECT id, v FROM t255 WHERE k IN (1 + 1, 3) ORDER BY id", True),
    ("SELECT count(*) AS c, sum(v) AS s FROM t255 "
     "WHERE v NOT IN (5, -16 - 100.0, 2 * -3)", True),
    ("SELECT id FROM odd WHERE y BETWEEN 0 - 10 AND 2 * 5 ORDER BY id", True),
    ("SELECT id FROM t256 WHERE NOT k IN (7 - 1, -(0 - 4)) AND v > 1 - 2 "
     "ORDER BY id", True),
    # NOT over a conjunction or a disjunction selects by De Morgan
    ("SELECT id FROM t255 WHERE NOT (v < 0 OR k > 5) ORDER BY id", True),
    ("SELECT id FROM t255 WHERE NOT (v < 0 AND NOT k IN (2, 3)) "
     "ORDER BY id", True),
    ("SELECT id, CASE WHEN v > 0 THEN v ELSE 0 END AS p FROM t255 "
     "WHERE id < 40 ORDER BY id", True),
    # CASE over two constants: their own type, not the smallest one
    # holding their range (uint16 / float16: refused on MonetDB, and
    # -1000.25 rounded to -1000.0 on Ocelot)
    ("SELECT id, CASE WHEN v > 0 THEN 2.5 ELSE -1000.25 END AS p, "
     "CASE WHEN v > 0 THEN 5 ELSE 1000 END AS q FROM t255 WHERE id < 40 "
     "ORDER BY id", True),
    # ... and a constant the column's type cannot hold is not wrapped
    ("SELECT id, CASE WHEN k < 3 THEN k ELSE 2147483648 END AS p FROM t255 "
     "WHERE id < 40 ORDER BY id", True),
    # an unfused comparison against a constant beyond the column's type
    ("SELECT dim.k AS k, count(CASE WHEN t900.id <= 2147483648 THEN 1 "
     "ELSE 0 END) AS c FROM t900 JOIN dim ON t900.k = dim.k GROUP BY dim.k",
     False),
    # HAVING over constant expressions, IN and BETWEEN
    ("SELECT k, count(*) AS c FROM t256 GROUP BY k "
     "HAVING k IN (-(-3), 2 + 2) AND count(*) > -(5) ORDER BY k", True),
    ("SELECT k, sum(v) AS s FROM t256 GROUP BY k "
     "HAVING k NOT BETWEEN -(-3) AND 2 * 8 ORDER BY k", True),
    # an aggregate inside an expression, grouped or not, and a group key
    # however it is spelled: one expression compiler for every scope
    ("SELECT -sum(v) AS s, -(count(*)) AS c FROM t255", True),
    ("SELECT sum(v) * -1 AS s, max(v) - min(v) AS r FROM t256", True),
    ("SELECT k, CASE WHEN sum(v) > 0 THEN 1 ELSE 0 END AS p FROM t256 "
     "GROUP BY k ORDER BY k", True),
    ("SELECT k, count(*) AS c FROM t255 GROUP BY t255.k ORDER BY k", True),
    ("SELECT t255.k AS k, sum(v) AS s FROM t255 GROUP BY k "
     "HAVING t255.k > 3 ORDER BY k", True),
    ("SELECT x.k AS k, -sum(x.v) + 1 AS s FROM t256 x GROUP BY k "
     "ORDER BY k", True),
    # an ANTI JOIN's own WHERE stays outside the reference's subquery
    ("SELECT t255.id AS id FROM t255 ANTI JOIN dim ON t255.k = dim.k "
     "WHERE t255.v > 3 ORDER BY id", True),
    ("SELECT id FROM t900 WHERE f > (SELECT avg(f) FROM t900) ORDER BY id",
     True),
    ("SELECT s.k AS k, s.c AS c FROM (SELECT k, count(*) AS c FROM t900 "
     "GROUP BY k) s WHERE s.c > 25 ORDER BY k", True),
    ("SELECT k, x FROM (SELECT g AS k, max(x) AS x FROM odd GROUP BY g) m "
     "WHERE x > 2", False),
    ("SELECT g, count(*) AS c FROM odd WHERE y > 0 OR x < 0 GROUP BY g "
     "ORDER BY g", True),
    ("SELECT x, count(*) AS c FROM odd WHERE x > -1000 AND x < 1000 "
     "GROUP BY x ORDER BY x", True),
    ("SELECT y, id FROM odd WHERE y > -1 ORDER BY y", False),
    ("SELECT wide.k AS k, sum(wide_dim.w) AS s FROM wide JOIN wide_dim "
     "ON wide.k = wide_dim.k GROUP BY wide.k ORDER BY k DESC LIMIT 2", True),
    ("SELECT t900.kk AS kk, dim.w AS w FROM t900 JOIN dim "
     "ON t900.k = dim.k WHERE dim.w < -40 AND t900.kk > 0 ORDER BY kk",
     True),
    # one literal at two sites the binder matches structurally
    ("SELECT k + 1 AS x, sum(v) AS s FROM t256 GROUP BY k + 1 ORDER BY x",
     True),
    # ORDER BY / LIMIT over an ungrouped aggregate's one row
    ("SELECT count(k) AS c FROM dim ORDER BY c", True),
    ("SELECT count(*) AS c, sum(v) AS s FROM t255 ORDER BY s DESC LIMIT 1",
     True),
    ("SELECT min(k) AS lo, max(k) AS hi FROM wide LIMIT 3", True),
    # ... and LIMIT 0 of it: no row
    ("SELECT count(*) AS c, sum(v) AS s, avg(v) AS a FROM t255 "
     "WHERE v > 3 LIMIT 0", True),
    # single-row and empty tables
    ("SELECT k, sum(v) AS s, count(*) AS c FROM one GROUP BY k", True),
    ("SELECT min(v) AS lo, max(v) AS hi, avg(v) AS a FROM one", True),
    ("SELECT one.id AS id, dim.w AS w FROM one JOIN dim ON one.k = dim.k",
     True),
    ("SELECT id, k FROM none WHERE k > 0", False),
    ("SELECT k, sum(v) AS s FROM none GROUP BY k", False),
]


# -- the reference ------------------------------------------------------------

class _Propagating:
    """A SQL aggregate under the engines' NULL-less data model: every
    row counts, and a NULL (a NaN, on the way in) is a value that the
    result propagates.  SQLite's own aggregates skip NULLs."""

    def __init__(self):
        self.values = []

    def step(self, value):
        self.values.append(NAN if value is None else value)

    def finalize(self):
        out = self.fold(self.values)
        return None if isinstance(out, float) and math.isnan(out) else out


def _aggregate(fold):
    return type("Aggregate", (_Propagating,), {"fold": staticmethod(fold)})


def _extreme(pick):
    def fold(values):
        if not values:
            return None
        return NAN if any(v != v for v in values) else pick(values)
    return fold


def _sum(values):
    if all(isinstance(v, int) for v in values):
        return sum(values)
    return math.fsum(values) if all(map(math.isfinite, values)) \
        else float(np.sum(np.array(values, np.float64)))


#: what ``sum`` / ``avg`` / ``count`` of no rows answer on the engines
_EMPTY_ANSWER = {"sum": "0", "avg": "0.0", "count": "0"}
_AGGREGATE_CALL = re.compile(r"\b(sum|avg|count)\(", re.IGNORECASE)


def answering_empty_input(sql: str) -> str:
    """``f(…)`` -> ``coalesce(f(…), CASE count(*) WHEN 0 THEN <zero>
    END)`` for ``sum`` / ``avg`` / ``count``: Python's ``sqlite3`` hands
    back NULL for a user aggregate that never stepped, without calling
    its ``finalize``.  The zero stands only when the aggregate saw no
    rows, so a NaN result (a NULL) stays one."""
    out, at = [], 0
    for match in _AGGREGATE_CALL.finditer(sql):
        if sql.startswith("*)", match.end()):
            continue
        depth, end = 1, match.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(sql[end], 0)
            end += 1
        zero = _EMPTY_ANSWER[match.group(1).lower()]
        out += [sql[at:match.start()], "coalesce(", sql[match.start():end],
                f", CASE count(*) WHEN 0 THEN {zero} END)"]
        at = end
    return "".join(out) + sql[at:]


class _Reference(sqlite3.Connection):
    def execute(self, sql, *args):
        return super().execute(answering_empty_input(sql), *args)


def reference(data) -> sqlite3.Connection:
    """The same rows in SQLite.  **NaN = NULL**, said here once: SQLite
    stores a NaN as NULL and hands a NaN result back as NULL, so
    :func:`same_value` takes the two for equal, and the aggregates are
    replaced by ones that treat a NULL the way the engines treat a NaN
    (and answer 0 for an empty ``sum`` / ``avg`` / ``count``, where SQL
    says NULL — see :func:`answering_empty_input`).  ``min`` / ``max``
    of no rows have no NULL-less answer: every spec raises
    ``ValueError`` (single-node semantics), where SQL answers NULL."""
    con = sqlite3.connect(":memory:", factory=_Reference)
    con.create_aggregate("min", 1, _aggregate(_extreme(min)))
    con.create_aggregate("max", 1, _aggregate(_extreme(max)))
    con.create_aggregate("sum", 1, _aggregate(_sum))
    con.create_aggregate("count", 1, _aggregate(len))
    con.create_aggregate("avg", 1, _aggregate(
        lambda values: _sum(values) / len(values) if values else 0.0))
    for name, columns in data.items():
        kinds = ", ".join(
            f"{column} {'REAL' if values.dtype.kind == 'f' else 'INTEGER'}"
            for column, values in columns.items()
        )
        con.execute(f"CREATE TABLE {name} ({kinds})")
        rows = zip(*(values.tolist() for values in columns.values()))
        con.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            rows,
        )
    return con


#: ``ON <key> = <key>`` [``WHERE <predicate>``] and what follows
_SEMI_TAIL = re.compile(
    r"(?P<left>\S+) = (?P<right>\S+)(?: WHERE (?P<where>.*?))?"
    r"(?P<tail>(?: GROUP BY | ORDER BY | LIMIT ).*)?$")


def reference_text(sql: str) -> str:
    """The dialect's ``SEMI`` / ``ANTI JOIN … ON`` in SQLite's words: a
    ``[NOT] IN`` subquery, conjoined with the statement's own
    ``WHERE``."""
    for kind, test in (("SEMI", "IN"), ("ANTI", "NOT IN")):
        marker = f" {kind} JOIN "
        if marker in sql:
            head, rest = sql.split(marker)
            table, rest = rest.split(" ON ", 1)
            on = _SEMI_TAIL.match(rest)
            where = f"{on['left']} {test} (SELECT {on['right']} FROM {table})"
            if on["where"]:
                where += f" AND ({on['where']})"
            return f"{head} WHERE {where}{on['tail'] or ''}"
    return sql


def same_value(got, want) -> bool:
    if want is None:            # NaN = NULL
        return isinstance(got, float) and math.isnan(got)
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-5, abs_tol=1e-6)
    return got == want


def rows_of(result) -> list:
    return list(zip(*(column.tolist() for column in result.columns.values())))


def sort_key(row) -> tuple:
    return tuple((value is None or value != value, value if value == value
                  else 0) for value in row)


def disagreement(sql, ordered, got, want) -> "str | None":
    if not ordered:
        got, want = sorted(got, key=sort_key), sorted(want, key=sort_key)
    if len(got) == len(want) and all(
            len(g) == len(w) and all(map(same_value, g, w))
            for g, w in zip(got, want)):
        return None
    return f"{sql}\n    engine: {got[:12]}\n    sqlite: {want[:12]}"


# -- the oracle ---------------------------------------------------------------

@pytest.fixture(scope="module")
def data():
    return tables()


@pytest.fixture(scope="module")
def db(data):
    with repro.Database() as database:
        for name, columns in data.items():
            database.create_table(name, columns)
        yield database


@pytest.fixture(scope="module")
def expected(data):
    con = reference(data)
    try:
        return {sql: con.execute(reference_text(sql)).fetchall()
                for sql, _ordered in CASES}
    finally:
        con.close()


@pytest.mark.parametrize("spec", SPECS)
def test_every_engine_agrees_with_sqlite(db, expected, spec):
    con = db.connect(spec)
    wrong = []
    for sql, ordered in CASES:
        try:
            got = rows_of(con.execute(sql))
        except Exception as error:      # a refusal is a disagreement too
            wrong.append(f"{sql}\n    engine raised {error!r}")
            continue
        wrong.append(disagreement(sql, ordered, got, expected[sql]))
    wrong = [text for text in wrong if text]
    assert not wrong, f"{spec}: {len(wrong)} of {len(CASES)} texts " \
        f"disagree with sqlite3:\n" + "\n".join(wrong)


@pytest.mark.parametrize("spec", SPECS)
def test_a_batch_in_flight_agrees_too(db, expected, spec):
    """One door is enough (``execute()`` is ``submit().result()``); this
    keeps one batch of four in flight together, and the
    :data:`WIDENING` texts beside them."""
    con = db.connect(spec)
    batch = CASES[::len(CASES) // 4][:4] + WIDENING
    futures = [con.submit(sql) for sql, _ordered in batch]
    con.drain()
    wrong = [
        disagreement(sql, ordered, rows_of(future.result()), expected[sql])
        for (sql, ordered), future in zip(batch, futures)
    ]
    assert not any(wrong), f"{spec}:\n" + "\n".join(filter(None, wrong))


@pytest.mark.parametrize("spec", SPECS)
def test_the_four_byte_rule_wraps_on_every_spec(db, spec):
    """The four-byte rule (``calc_result_dtype``): ``v + 1`` stays int32
    and wraps at 2³¹ - 1 on every spec, where SQLite widens — so no
    ``CASES`` text holds it, and the generated oracle draws around it."""
    got = rows_of(db.connect(spec).execute(
        "SELECT id, v + 1 AS s FROM edges ORDER BY id"))
    assert [s for _id, s in got] == [-2 ** 31 + 1, 0, 1, 2, 2 ** 31 - 1,
                                     -2 ** 31]


def test_the_reference_answers_empty_input_as_the_engines_do():
    """``sum`` / ``avg`` / ``count`` of no rows are 0, not SQLite's
    NULL; a NaN result stays NULL (= NaN)."""
    con = reference({"t": {"a": ramp(4)},
                     "f": {"x": np.array([NAN, 1.0])}})
    empty = "SELECT sum(a), avg(a), count(a) FROM t WHERE a > 10"
    assert con.execute(empty).fetchall() == [(0, 0.0, 0)]
    assert con.execute("SELECT sum(x), avg(x), count(x) FROM f"
                       ).fetchall() == [(None, None, 2)]
    assert con.execute("SELECT a, sum(a) FROM t WHERE a > 1 GROUP BY a"
                       ).fetchall() == [(2, 2), (3, 3)]


#: shapes no operator here answers: each is a ``BindError`` at compile
#: on every spec, never a run-time error or a wrong answer
REFUSED = {
    # an aggregate over a constant folds no column
    "SELECT sum(1) AS s FROM t255": "aggregate over a constant",
    "SELECT count(1) AS c FROM t255": "aggregate over a constant",
    "SELECT k, sum(2) AS s FROM t255 GROUP BY k":
        "aggregate over a constant",
    # one group's HAVING keeps or drops the one row (SQLite: no row)
    "SELECT sum(v) AS s FROM t255 HAVING sum(v) > 100000":
        "HAVING needs GROUP BY",
    # an ungrouped aggregate's element-wise is calc: + - * / alone
    "SELECT sum(v) > 0 AS p FROM t255": "'gt'",
    # a result is keyed by its output names: a second column of one
    # name would replace the first
    "SELECT k AS x, v AS x FROM t255": "duplicate output name 'x'",
    "SELECT k, k FROM t255": "duplicate output name 'k'",
    "SELECT k AS v, v FROM t255": "duplicate output name 'v'",
}


@pytest.mark.parametrize("sql", REFUSED)
def test_refused_shapes_are_refused_at_compile(db, sql):
    from repro.sql import BindError, compile_sql

    with pytest.raises(BindError, match=REFUSED[sql]):
        compile_sql(sql, db.schema)
    for spec in SPECS:
        con = db.connect(spec)
        with pytest.raises(BindError, match=REFUSED[sql]):
            con.execute(sql)
        with pytest.raises(BindError, match=REFUSED[sql]):
            con.submit(sql).result()


def test_min_and_max_of_nothing_are_refused(db):
    """The one aggregate with no NULL-less answer: every engine refuses
    it instead of inventing a value."""
    for spec in SPECS:
        with pytest.raises(Exception, match="empty"):
            db.connect(spec).execute("SELECT min(v) AS lo FROM none")
