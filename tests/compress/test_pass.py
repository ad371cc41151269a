"""The compression rewrite pass and its serve-layer integration (the
``compression`` knob's grammar: tests/engines/test_registry.py)."""

import numpy as np
import pytest

import repro
from repro.compress import compress_program
from repro.monetdb.mal import MALBuilder


def _select_plan():
    builder = MALBuilder("plan")
    column = builder.bind("t", "v")
    selected = builder.emit(
        "algebra", "select", (column, None, 0, 10, True, True, False)
    )
    # a second selection over the *result* — not bind-direct
    narrowed = builder.emit(
        "algebra", "select", (selected, None, 0, 5, True, True, False)
    )
    total = builder.emit("aggr", "sum", (column,))
    return builder.returns([("s", total), ("oids", narrowed)])


class TestPass:
    def test_bind_direct_consumers_rewritten(self):
        program = compress_program(_select_plan(), "auto")
        ops = [i.op for i in program.instructions]
        assert "compress.select" in ops
        assert "compress.sum" in ops
        # the non-bind-direct selection stays an ordinary operator
        assert ops.count("compress.select") == 1
        assert "algebra.select" in ops

    def test_mode_literal_appended(self):
        program = compress_program(_select_plan(), "dict")
        rewritten = [
            i for i in program.instructions if i.module == "compress"
        ]
        assert rewritten and all(i.args[-1] == "dict" for i in rewritten)

    def test_off_is_a_no_op(self):
        plan = _select_plan()
        assert compress_program(plan, "off") is plan

    def test_idempotent(self):
        once = compress_program(_select_plan(), "auto")
        assert compress_program(once, "auto") is once


@pytest.mark.needs_encoded_storage
class TestServeIntegration:
    @pytest.fixture()
    def db(self):
        rng = np.random.default_rng(13)
        database = repro.Database()
        database.create_table("t", {
            "v": rng.integers(0, 100, 4096).astype(np.int32),
        })
        yield database
        database.close()

    def test_modes_are_distinct_plan_cache_entries(self, db):
        sql = "SELECT sum(v) AS s FROM t"
        on = db.connect("CPU").explain(sql)
        off = db.connect("CPU:compression=off").explain(sql)
        assert "compress.sum" in on
        assert "compress." not in off
        misses = db.plan_cache.stats.misses
        assert misses >= 2          # one compilation per mode

    def test_explain_annotates_encodings(self, db):
        text = db.connect("MS").explain("SELECT sum(v) AS s FROM t")
        assert "# encodings:" in text
        assert "t.v=for(uint8)" in text

    def test_no_annotation_for_plain_storage(self):
        rng = np.random.default_rng(17)
        with repro.Database() as db:
            db.create_table("t", {
                "v": rng.integers(0, 1 << 62, 4096).astype(np.int64),
            })
            text = db.connect("MS").explain("SELECT sum(v) AS s FROM t")
            assert "# encodings:" not in text

    def test_connection_compression_counters(self, db):
        snap = db.connect("MS").metrics.snapshot()
        assert snap["compress.columns_encoded"] == 1
        assert snap["compress.bytes_physical"] < snap["compress.bytes_nominal"]

    def test_shard_folds_child_catalogs(self, db):
        snap = db.connect("SHARD:2xMS").metrics.snapshot()
        # driver catalog + two shard partitions, re-encoded per shard
        assert snap["compress.columns_encoded"] == 3
