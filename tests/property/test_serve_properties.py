"""Serve-layer properties (hypothesis).

Two contracts the serving layer must never bend:

* **plan-cache transparency** — a cached plan produces a
  ``QueryResult`` identical to compiling the
  same SQL fresh, on every engine; DDL invalidates the plans that read
  the table it touched, so a recreated table is never served from a
  stale plan — under any interleaving of DDL, roster changes and
  ``execute``/``submit``/``explain`` (the last property below);
* **session isolation** — N queries interleaved by the round-robin
  session scheduler return exactly what they return serially, even when
  a tiny-memory GPU forces the Memory Manager to evict/offload one
  session's intermediates while another session runs, and the memory
  bookkeeping invariants (``restores <= offloads``, no released buffer
  in the registry) hold throughout.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import cl
from repro.api import Database
from repro.ocelot.memory import OcelotOOM
from repro.sched import HeterogeneousBackend
from repro.serve import PlanCache
from repro.sql.lower import compile_sql
from repro.sql.params import parameterise

N_ROWS = 1 << 14


def _database(ngroups: int, data_scale: float = 1.0) -> Database:
    rng = np.random.default_rng(41)
    db = Database(data_scale=data_scale)
    # stored plain: the memory-pressure tests size their GPU budgets
    # against two uncompressed 64 KB columns (~4 MB at scale 64), and
    # the eviction guard below needs that working set to stay real
    previous = os.environ.get("REPRO_COMPRESSION")
    os.environ["REPRO_COMPRESSION"] = "off"
    try:
        db.create_table("t", {
            "v": rng.integers(0, 1 << 30, N_ROWS).astype(np.int32),
            "g": rng.integers(0, ngroups, N_ROWS).astype(np.int32),
        })
    finally:
        if previous is None:
            del os.environ["REPRO_COMPRESSION"]
        else:
            os.environ["REPRO_COMPRESSION"] = previous
    return db


def _compare(expected, got, context=""):
    assert set(expected.columns) == set(got.columns), context
    for col in expected.columns:
        assert np.allclose(
            expected.columns[col].astype(np.float64),
            got.columns[col].astype(np.float64),
            rtol=1e-5, atol=1e-9,
        ), (context, col)


@given(
    engine=st.sampled_from(["MS", "CPU", "HET"]),
    hi=st.integers(1, 1 << 30),
    ngroups=st.integers(2, 64),
)
@settings(max_examples=8, deadline=None)
def test_cached_plan_is_transparent(engine, hi, ngroups):
    db = _database(ngroups)
    con = db.connect(engine)
    sql = f"SELECT g, sum(v) AS s FROM t WHERE v <= {hi} GROUP BY g"
    first = con.execute(sql)            # compiles (miss)
    cached = con.execute(sql)           # cache hit
    assert db.plan_cache.stats.hits >= 1
    fresh = con.run_plan(compile_sql(sql, db.schema))   # never cached
    _compare(fresh, first, (engine, "first"))
    _compare(fresh, cached, (engine, "cached"))


@given(
    engine=st.sampled_from(["MS", "CPU", "HET"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=6, deadline=None)
def test_ddl_invalidates_instead_of_serving_stale_plans(engine, seed):
    db = _database(8)
    con = db.connect(engine)
    sql = "SELECT sum(v) AS s FROM t"
    before = con.execute(sql).column("s")[0]
    misses = db.plan_cache.stats.misses
    rng = np.random.default_rng(seed)
    replacement = rng.integers(0, 1000, 256).astype(np.int32)
    db.drop_table("t")
    db.create_table("t", {
        "v": replacement,
        "g": np.zeros(256, np.int32),
    })
    assert db.plan_cache.stats.invalidations >= 1
    after = con.execute(sql)
    assert db.plan_cache.stats.misses == misses + 1   # recompiled
    assert after.column("s")[0] == replacement.astype(np.int64).sum()
    assert (before == after.column("s")[0]) == bool(
        before == replacement.astype(np.int64).sum()
    )


def _pressure_connection(db: Database, gpu_mem_mb: float):
    """Swap the HET connection's pool for one with a tiny-memory GPU
    (and drop the plans compiled before)."""
    con = db.connect("HET")
    gpu = cl.Device(cl.NVIDIA_GTX460.with_memory(int(gpu_mem_mb * cl.MB)))
    con.backend = HeterogeneousBackend(
        db.catalog,
        devices=(cl.Device(cl.INTEL_XEON_E5620), gpu),
        data_scale=db.data_scale,
    )
    con._scheduler = None
    db.plan_cache.clear()
    return con


@given(
    gpu_mem_mb=st.floats(2.0, 24.0),
    hi=st.integers(1, 1 << 30),
    ngroups=st.integers(2, 32),
)
@settings(max_examples=6, deadline=None)
def test_concurrent_submits_isolated_under_memory_pressure(
    gpu_mem_mb, hi, ngroups
):
    # data_scale 64: two 64 KB columns stand for ~4 MB each, so the
    # 2-24 MB GPU budgets range from "nothing fits" to "barely fits"
    db = _database(ngroups, data_scale=64.0)
    con = _pressure_connection(db, gpu_mem_mb)
    ms = db.connect("MS")
    workload = [
        f"SELECT sum(v) AS s FROM t WHERE v <= {hi}",
        "SELECT g, sum(v) AS s FROM t GROUP BY g",
        "SELECT max(v) AS m FROM t",
        f"SELECT g, count(*) AS n FROM t WHERE v > {hi} GROUP BY g",
    ]
    futures = [con.submit(sql) for sql in workload]
    con.drain()
    for sql, future in zip(workload, futures):
        error = future.exception()
        if error is not None:
            # transient pressure is retried serially; a query may only
            # fail if it fails *without* concurrency too — serving never
            # introduces new failures
            assert isinstance(error, OcelotOOM), sql
            with pytest.raises(OcelotOOM):
                con.execute(sql)
        else:
            _compare(ms.execute(sql), future.result(), sql)
    for engine in con.backend.pool.engines:
        stats = engine.memory.stats
        assert stats.restores <= stats.offloads
        for entry in engine.memory.entries():
            if entry.buffer is not None:
                assert not entry.buffer.released


def test_pressure_interleaving_actually_evicts():
    """Guard that the property above exercises eviction/offload (not
    vacuously green because everything fit).  21 MB: the grouped query
    evicts from 23 MB down and still completes down to 20 (24 MB was
    tight while a bitmap materialisation held per-partition counters
    beside its offsets — 0.3 MB nominal at this scale)."""
    db = _database(16, data_scale=64.0)
    con = _pressure_connection(db, gpu_mem_mb=21.0)
    workload = [
        "SELECT g, sum(v) AS s FROM t GROUP BY g",
        "SELECT sum(v) AS s FROM t WHERE v <= 536870912",
    ] * 2
    futures = [con.submit(sql) for sql in workload]
    con.drain()
    for future in futures:
        assert future.exception() is None
    activity = sum(
        e.memory.stats.evictions + e.memory.stats.offloads
        for e in con.backend.pool.engines
    )
    assert activity > 0


# -- per-table validity under DDL interleavings -------------------------------

#: engine specs the interleaving runs under (``keys=infer`` is drawn on
#: top of the sharded ones)
ENGINES = ("MS", "CPU", "HET", "SHARD:2xCPU", "SHARD:3xCPU,replicas=2")

#: row counts on both sides of the sharded engine's replicate/partition
#: threshold (``min_partition_rows`` = 256)
ROW_COUNTS = (8, 255, 256, 700)

COLOURS = (None, ["red", "blue", "green"], ["blue", "green", "red"])


def _table(name: str, rows: int, dtype, colours, seed: int):
    """``(columns, dictionaries)`` of one variant of table ``name``."""
    rng = np.random.default_rng(seed)
    if name == "t":
        columns = {
            "t_k": rng.integers(0, 64, rows).astype(np.int32),
            "g": rng.integers(0, 5, rows).astype(np.int32),
            "v": rng.integers(0, 1000, rows).astype(dtype),
            "c": rng.integers(0, 3, rows).astype(np.int32),
        }
        return columns, ({"c": colours} if colours else None)
    if name == "u":
        return {
            "u_k": rng.permutation(max(rows, 64))[:rows].astype(np.int32),
            "w": rng.integers(0, 100, rows).astype(dtype),
        }, None
    if name == "x":
        # no statement reads it; keyed into ``t`` / ``u``'s domain its
        # far wider keys move their band cuts
        return {"x_k": rng.integers(-50000, 50000, rows).astype(dtype)}, None
    return {"z": rng.integers(0, 9, rows).astype(dtype)}, None


#: statement id -> (tables it reads, text); ``{hi}`` makes literal
#: variants of one template
STATEMENTS = {
    "filter": (("t",), "SELECT g, sum(v) AS s, count(*) AS n FROM t "
                       "WHERE t_k <= {hi} GROUP BY g ORDER BY g"),
    "scan": (("u",), "SELECT sum(w) AS s, count(*) AS n FROM u"),
    "join": (("t", "u"), "SELECT g, sum(w) AS s FROM t JOIN u "
                         "ON t_k = u_k GROUP BY g ORDER BY g"),
    "string": (("t",), "SELECT count(*) AS n FROM t WHERE c = 'blue'"),
    "folded": (("t",), "SELECT sum(v) AS s FROM t WHERE t_k < 100 + 28"),
    "other": (("other",), "SELECT sum(z) AS s, count(*) AS n FROM other"),
}

_tables = st.sampled_from(("t", "u", "other", "x"))
# the join twice: it is what ``keys=infer`` adopts a key from
_statements = st.tuples(st.sampled_from(sorted(STATEMENTS) + ["join"]),
                        st.sampled_from((5, 31, 63)))
_steps = st.one_of(
    st.tuples(st.just("create"), _tables, st.sampled_from(ROW_COUNTS),
              st.sampled_from((np.int32, np.int64, np.float32)),
              st.sampled_from(COLOURS), st.integers(0, 3)),
    st.tuples(st.just("drop"), _tables),
    st.tuples(st.just("key"), st.sampled_from(("t", "u", "x")),
              st.sampled_from((None, "own"))),
    st.tuples(st.just("resize"), st.sampled_from((+1, -1))),
    st.tuples(st.just("execute"), _statements),
    st.tuples(st.just("execute"), _statements),
    st.tuples(st.just("submit"), _statements, st.integers(0, 6)),
    st.tuples(st.just("explain"), _statements),
    st.tuples(st.just("drain")),
)


def _outcome(fn):
    """``fn()``'s value, or what it raised."""
    try:
        return fn()
    except Exception as error:
        return type(error), str(error)


class _Interleaving:
    """One database, one connection under test, and the bookkeeping the
    invariants need."""

    def __init__(self, engine: str):
        self.db = Database()
        self.con = self.db.connect(engine)
        self.ms = self.db.connect("MS")
        self.sharded = self.con.backend.cluster is not None
        #: statement ids issued so far: each owns at most one entry
        self.issued: set = set()
        #: in flight: (future, tables, reference outcome at submit)
        self.flying: list = []

    def sql(self, statement) -> "tuple[tuple, str]":
        name, hi = statement
        tables, text = STATEMENTS[name]
        self.issued.add(name)
        return tables, text.format(hi=hi)

    def reference(self, sql: str):
        """The MS answer through a compile no cache ever sees."""
        return _outcome(lambda: self.ms.run_plan(
            compile_sql(sql, self.db.schema)
        ).columns)

    def touch(self, table) -> None:
        """DDL on ``table``: a query in flight over it reads a mix of
        old and new storage — its answer is its own business, finishing
        is not.  ``t`` and ``u`` count as one: keyed in one domain
        (declared, or adopted by ``keys=infer``) they co-partition, and
        DDL on either re-slices both at once.  ``x`` counts as itself
        alone, though keyed into that domain a DDL on it re-slices
        ``t`` and ``u`` too: statements over them must still answer as
        they would have at submission."""
        tables = {"t", "u"} if table in ("t", "u") else {table}
        self.flying = [
            (future, read, None if tables & set(read) else expected)
            for future, read, expected in self.flying
        ]

    # -- steps ----------------------------------------------------------------

    def create(self, table, rows, dtype, colours, seed):
        self.drop(table)
        columns, dictionaries = _table(table, rows, dtype, colours, seed)
        self.touch(table)
        self.db.create_table(table, columns, dictionaries)

    def drop(self, table):
        if self.db.catalog.has_table(table):
            self.touch(table)
            self.db.drop_table(table)

    def key(self, table, domain):
        if self.db.catalog.has_table(table):
            self.touch(table)
            self.db.declare_shard_key(
                table, f"{table}_k", domain and f"{domain}:{table}"
            )

    def resize(self, delta):
        if not self.sharded or (
                delta < 0 and self.con.backend.cluster.nodes <= 1):
            return
        if delta > 0:
            self.db.add_shard()
        else:
            self.db.remove_shard()

    def execute(self, statement):
        _tables, sql = self.sql(statement)
        expected = self.reference(sql)
        got = _outcome(lambda: self.con.execute(sql).columns)
        self.same_answer(expected, got, sql)

    def submit(self, statement, turns):
        tables, sql = self.sql(statement)
        expected = self.reference(sql)
        try:
            future = self.con.submit(sql)
        except Exception as error:
            assert (type(error), str(error)) == expected, sql
            return
        self.flying.append((future, tables, expected))
        for _ in range(turns):
            self.con.scheduler.step()

    def explain(self, statement):
        _tables, sql = self.sql(statement)
        fresh = self.fresh_plan(sql)
        got = _outcome(lambda: self.con.explain(sql))
        if isinstance(fresh, str):
            assert isinstance(got, str) and got.startswith(fresh), sql
        else:
            assert got == fresh, sql

    def drain(self):
        self.con.drain()
        for future, _tables, expected in self.flying:
            assert future.done()
            if expected is None:
                continue            # DDL landed on its tables mid-flight
            error = future.exception()
            got = ((type(error), str(error)) if error is not None
                   else future.result().columns)
            self.same_answer(expected, got, future.name)
        self.flying = []

    # -- invariants -----------------------------------------------------------

    def fresh_plan(self, sql: str):
        return _outcome(lambda: PlanCache(self.db.catalog).prepare(
            sql, self.con.config, self.db.schema
        )[1].format())

    def same_answer(self, expected, got, context):
        if not isinstance(expected, dict) or not isinstance(got, dict):
            assert got == expected, context
            return
        assert list(got) == list(expected), context
        for name, values in expected.items():
            assert got[name].shape == values.shape, (context, name)
            assert np.allclose(
                got[name].astype(np.float64), values.astype(np.float64),
                rtol=1e-4, atol=1e-6,
            ), (context, name)

    def check(self):
        """After every step: whatever the cache serves is what a fresh
        compile yields, statement by statement."""
        cache = self.db.plan_cache
        for name in sorted(STATEMENTS):
            _tables, sql = self.sql((name, 31))
            try:
                entry, program = cache.prepare(
                    sql, self.con.config, self.db.schema)
            except Exception as error:
                served = type(error), str(error)
            else:
                served = program.format()
                # one template each, ``folded``'s constant arithmetic too
                assert entry.key[0] == parameterise(sql)[0], sql
            assert served == self.fresh_plan(sql), sql
        assert len(cache) <= len(self.issued)


@given(
    engine=st.sampled_from(ENGINES),
    infer=st.booleans(),
    steps=st.lists(_steps, min_size=4, max_size=14),
)
@example(      # the first join adopts an inferred key: the epoch moves
    engine="SHARD:2xCPU", infer=True,
    steps=[("execute", ("join", 31)), ("execute", ("join", 5)),
           ("create", "other", 8, np.int64, None, 2),
           ("execute", ("join", 63)), ("execute", ("other", 31))],
)
@example(      # DDL and a roster change while two statements are in flight
    engine="SHARD:3xCPU,replicas=2", infer=False,
    steps=[("submit", ("join", 31), 4), ("submit", ("string", 31), 2),
           ("create", "other", 700, np.float32, None, 3), ("resize", -1),
           ("key", "u", None), ("execute", ("string", 31)),
           ("create", "t", 255, np.float32, COLOURS[2], 1),
           ("execute", ("string", 31)), ("drain",)],
)
@example(      # a DDL on x re-slices t and u under a join in flight
    engine="SHARD:2xCPU", infer=False,
    steps=[("key", "t", None), ("key", "u", None),
           ("create", "x", 700, np.int32, None, 0),
           ("submit", ("join", 31), 4), ("key", "x", None), ("drain",)],
)
@settings(max_examples=80, deadline=None)
def test_ddl_interleavings_never_serve_a_stale_plan(engine, infer, steps):
    if infer and engine.startswith("SHARD"):
        engine += ",keys=infer"
    run = _Interleaving(engine)
    try:
        # start from a populated schema so early statements have plans
        # for the DDL to spare or to stale
        run.create("t", 700, np.int32, COLOURS[1], 0)
        run.create("u", 256, np.int32, None, 1)
        run.check()
        for kind, *args in steps:
            getattr(run, kind)(*args)
            run.check()
        run.drain()
        run.check()
    finally:
        run.db.close()
