"""Compressed execution end to end: zero-decode guarantees on the
covered operator paths, auto-vs-off result equality on every engine
family, and physical (encoded) interconnect accounting on SHARD."""

import numpy as np
import pytest

import repro

ENGINES = ("MS", "MP", "CPU", "GPU", "HET", "SHARD:2xMS")


def _off_spec(engine: str) -> str:
    return (f"{engine},compression=off" if ":" in engine
            else f"{engine}:compression=off")


def _assert_equal(a_result, b_result, context):
    assert set(a_result.columns) == set(b_result.columns), context
    for column in a_result.columns:
        a = a_result.columns[column]
        b = b_result.columns[column]
        assert a.shape == b.shape, (context, column)
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            np.testing.assert_allclose(
                a.astype(np.float64), b.astype(np.float64),
                rtol=1e-4, atol=1e-6, err_msg=f"{context}:{column}",
            )
        else:
            np.testing.assert_array_equal(
                a, b, err_msg=f"{context}:{column}"
            )


@pytest.mark.needs_encoded_storage
class TestZeroDecode:
    """The covered paths execute in the compressed domain: no encoded
    base column is ever fully materialised."""

    @pytest.fixture(scope="class")
    def dict_db(self):
        rng = np.random.default_rng(23)
        palette = np.linspace(1.0, 640.0, 64).astype(np.float32)
        db = repro.Database()
        db.create_table("t", {
            "v": rng.choice(palette, 1 << 14),
        })
        assert db.catalog.bat("t", "v").encoding.kind == "dict"
        yield db
        db.close()

    @pytest.fixture(scope="class")
    def rle_db(self):
        db = repro.Database()
        db.create_table("t", {
            "v": np.repeat(
                np.arange(100, dtype=np.int32) * 7, 1 << 8
            ),
        })
        assert db.catalog.bat("t", "v").encoding.kind == "rle"
        yield db
        db.close()

    @pytest.mark.parametrize("engine", ("MS", "CPU", "GPU", "HET"))
    def test_dict_selection_never_decodes(self, dict_db, engine):
        con = dict_db.connect(engine)
        before = con.metrics.snapshot()
        got = con.execute(
            "SELECT count(*) AS n FROM t WHERE v <= 320.0"
        )
        assert "compress.decode_events" not in con.metrics.diff(before)
        raw = dict_db.catalog.bat("t", "v").encoding.decode()
        assert int(got.column("n")[0]) == int((raw <= 320.0).sum())

    @pytest.mark.parametrize("engine", ("MS", "CPU", "GPU", "HET"))
    def test_rle_aggregation_never_decodes(self, rle_db, engine):
        con = rle_db.connect(engine)
        before = con.metrics.snapshot()
        got = con.execute(
            "SELECT sum(v) AS s, min(v) AS lo, max(v) AS hi FROM t"
        )
        assert "compress.decode_events" not in con.metrics.diff(before)
        raw = rle_db.catalog.bat("t", "v").encoding.decode()
        assert int(got.column("s")[0]) == int(raw.astype(np.int64).sum())
        assert int(got.column("lo")[0]) == int(raw.min())
        assert int(got.column("hi")[0]) == int(raw.max())

    def test_dict_sum_stays_in_code_domain(self, dict_db):
        con = dict_db.connect("CPU")
        before = con.metrics.snapshot()
        got = con.execute("SELECT sum(v) AS s FROM t")
        assert "compress.decode_events" not in con.metrics.diff(before)
        raw = dict_db.catalog.bat("t", "v").encoding.decode()
        assert got.column("s")[0] == pytest.approx(
            raw.astype(np.float64).sum(), rel=1e-6
        )

    def test_result_materialisation_does_decode(self, dict_db):
        """Late materialisation: projecting the column out decodes it
        (once — the decoded tail is cached)."""
        con = dict_db.connect("MS")
        before = con.metrics.snapshot()
        con.execute("SELECT v FROM t WHERE v <= 20.0")
        moved = con.metrics.diff(before)
        assert (
            moved.get("compress.decode_events", 0)
            + moved.get("compress.partial_decodes", 0)
        ) > 0


class TestAutoVsOff:
    """Identical results with compression on and off, every family.

    The ``off`` connections run plain plans over the *same* encoded
    storage, exercising the whole-column decode fallback; the CI
    ``knob-ab`` job additionally runs the suites with
    ``REPRO_COMPRESSION=off`` so plain storage cannot rot either.
    """

    @pytest.fixture(scope="class")
    def db(self):
        database = repro.tpch_database(sf=0.2)
        yield database
        database.close()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query_id", ("Q1", "Q6", "Q12", "Q15"))
    def test_fast_subset(self, db, engine, query_id):
        from repro.tpch import WORKLOAD

        sql = WORKLOAD[query_id]
        auto = db.connect(engine).execute(sql, name=query_id)
        off = db.connect(_off_spec(engine)).execute(sql, name=query_id)
        _assert_equal(auto, off, f"{engine}/{query_id}")


class TestShardPhysicalTraffic:
    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(29)
        n = 1 << 14
        database = repro.Database()
        database.create_table("big", {
            "k": rng.integers(0, 64, n).astype(np.int32),
            "v": rng.integers(0, 200, n).astype(np.int32),
        })
        yield database
        database.close()

    @pytest.mark.needs_encoded_storage
    def test_gathered_bytes_physical_below_nominal(self, db):
        con = db.connect("SHARD:2xMS")
        con.execute("SELECT v FROM big")
        snap = con.metrics.snapshot()
        nominal = snap["interconnect.query.bytes_gathered"]
        assert nominal > 0
        # the uint8 FOR payload crosses the wire, not the int32 tail
        assert snap["interconnect.query.bytes_gathered_physical"] \
            < nominal / 2

    def test_plain_storage_keeps_physical_equal(self):
        rng = np.random.default_rng(31)
        with repro.Database() as db:
            db.create_table("big", {
                "v": rng.integers(0, 1 << 62, 1 << 14).astype(np.int64),
            })
            con = db.connect("SHARD:2xMS")
            con.execute("SELECT v FROM big")
            snap = con.metrics.snapshot()
            nominal = snap["interconnect.query.bytes_gathered"]
            assert nominal > 0
            assert snap["interconnect.query.bytes_gathered_physical"] \
                == nominal
