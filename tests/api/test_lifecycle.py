"""Connection/Database lifecycle: close(), context managers, helpful
connect errors, and plan-cache routing of explain()/Database.execute."""

import numpy as np
import pytest

import repro
from repro.engines import EngineSpecError


@pytest.fixture
def db():
    rng = np.random.default_rng(11)
    database = repro.Database()
    database.create_table("points", {
        "x": rng.integers(0, 4, 2000).astype(np.int32),
        "y": rng.random(2000).astype(np.float32),
    })
    return database


SQL = "SELECT x, sum(y) AS s FROM points GROUP BY x"


class TestClose:
    def test_close_is_idempotent_and_rejects_use(self, db):
        con = db.connect("CPU")
        con.execute(SQL)
        con.close()
        con.close()
        assert con.closed
        with pytest.raises(RuntimeError, match="closed"):
            con.execute(SQL)

    def test_close_releases_device_buffers(self, db):
        con = db.connect("CPU")
        con.execute(SQL)
        manager = con.backend.engine.memory
        assert len(list(manager.entries())) > 0
        con.close()
        assert len(list(manager.entries())) == 0

    def test_close_releases_het_pool(self, db):
        con = db.connect("HET")
        con.execute(SQL)
        managers = [e.memory for e in con.backend.pool.engines]
        con.close()
        for manager in managers:
            assert len(list(manager.entries())) == 0

    def test_close_drains_pending_sessions(self, db):
        con = db.connect("HET")
        future = con.submit(SQL)
        con.close()
        assert future.done()
        assert future.result().n_rows == 4

    def test_reconnect_after_close_opens_fresh_backend(self, db):
        con = db.connect("CPU")
        old_backend = con.backend
        con.close()
        fresh = db.connect("CPU")
        assert fresh is not con
        assert fresh.backend is not old_backend
        fresh.execute(SQL)

    def test_closed_connection_callbacks_unsubscribed(self, db):
        before = len(db.catalog._delete_callbacks)
        con = db.connect("CPU")
        con.execute(SQL)
        con.close()
        assert len(db.catalog._delete_callbacks) == before

    def test_shard_close_releases_children(self, db):
        con = db.connect("SHARD:2xCPU")
        con.execute(SQL)
        managers = [c.engine.memory for c in con.backend.children]
        con.close()
        for manager in managers:
            assert len(list(manager.entries())) == 0


class TestContextManagers:
    def test_connection_context_manager(self, db):
        with db.connect("MS") as con:
            result = con.execute(SQL)
            assert result.n_rows == 4
        assert con.closed

    def test_database_context_manager_closes_connections(self, db):
        with db:
            con = db.connect("CPU")
            con.execute(SQL)
        assert con.closed
        assert db._connections == {}


class TestConnectErrors:
    def test_unknown_engine_lists_registered_specs(self, db):
        with pytest.raises(EngineSpecError) as excinfo:
            db.connect("TPU")
        message = str(excinfo.value)
        assert "registered engines" in message
        for fragment in ("MS", "HET", "SHARD:<N>x<CHILD>"):
            assert fragment in message


class TestPlanCacheRouting:
    def test_explain_goes_through_plan_cache(self, db):
        con = db.connect("CPU")
        plan_text = con.explain(SQL)
        assert con.plan_cache.stats.misses == 1
        assert "function user.query" in plan_text
        con.execute(SQL)               # same compiled plan: a cache hit
        assert con.plan_cache.stats.misses == 1
        assert con.plan_cache.stats.hits == 1
        assert con.explain(SQL) == plan_text
        assert con.plan_cache.stats.hits == 2

    def test_database_execute_forwards_name(self, db):
        result = db.execute(SQL, engine="MS", name="grouped")
        assert result.program.name == "grouped"
        # same statement under the default name is a distinct cache key
        db.execute(SQL, engine="MS")
        assert db.plan_cache.stats.misses == 2


class TestDropTable:
    """Regression: ``drop_table`` left the table's string dictionaries
    registered, so a recreated table with a plain integer column of
    the same name still compiled string literals through the dead
    dictionary and silently answered with the rows holding its code."""

    SQL = "SELECT sum(v) AS s FROM t WHERE c = {}"

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    def test_drop_forgets_the_tables_dictionaries(self, engine):
        db = repro.Database()
        v = np.arange(100, dtype=np.int32)
        db.create_table("t", {"c": (v % 2).astype(np.int32), "v": v},
                        dictionaries={"c": ["red", "blue"]})
        con = db.connect(engine)
        blue = con.execute(self.SQL.format("'blue'")).column("s")[0]
        assert blue == v[v % 2 == 1].sum()
        db.drop_table("t")
        # same names, but `c` is a plain number now
        db.create_table("t", {"c": (v % 5).astype(np.int32), "v": v})
        with pytest.raises(ValueError, match="not a string column"):
            con.execute(self.SQL.format("'blue'"))
        one = con.execute(self.SQL.format(1)).column("s")[0]
        assert one == v[v % 5 == 1].sum() != blue
        db.drop_table("t")
        assert not db.schema.column_dicts and not db.schema.dictionaries
        db.close()

    def test_drop_keeps_other_tables_dictionaries(self):
        db = repro.Database()
        codes = np.array([0, 1, 1], dtype=np.int32)
        for name in ("t", "u"):
            db.create_table(name, {"c": codes, "v": codes},
                            dictionaries={"c": ["red", "blue"]})
        db.drop_table("t")
        result = db.connect("MS").execute(
            "SELECT sum(v) AS s FROM u WHERE c = 'blue'"
        )
        assert result.column("s")[0] == 2
        db.close()
