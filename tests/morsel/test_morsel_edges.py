"""Morsel boundary edge cases, plus the memory-behaviour guarantees:
liveness release on the whole-column path and the Q1 peak-intermediate
reduction the morsel executor exists to deliver."""

import numpy as np
import pytest

import repro
from repro.tpch import WORKLOAD

SQL = (
    "SELECT k, sum(v) AS total, count(*) AS n "
    "FROM t WHERE v > 0 GROUP BY k ORDER BY k"
)


@pytest.fixture(autouse=True)
def _morsel_gate_neutral(monkeypatch):
    """These tests pick the switch per spec (``morsel=<rows>`` vs
    ``morsel=off``): neutralise the global gate so they compare what
    they mean to — also under the CI job's REPRO_MORSEL=off run."""
    monkeypatch.delenv("REPRO_MORSEL", raising=False)


def _make_db(n_rows: int) -> repro.Database:
    rng = np.random.default_rng(n_rows + 1)
    db = repro.Database()
    db.create_table("t", {
        "k": (rng.integers(0, 5, n_rows).astype(np.int32)
              if n_rows else np.empty(0, dtype=np.int32)),
        "v": (rng.integers(-3, 100, n_rows).astype(np.int32)
              if n_rows else np.empty(0, dtype=np.int32)),
    })
    return db


def _assert_equal(a, b, context):
    assert set(a.columns) == set(b.columns), context
    for column in a.columns:
        x, y = a.columns[column], b.columns[column]
        assert x.shape == y.shape, (context, column)
        if x.dtype.kind == "f" or y.dtype.kind == "f":
            np.testing.assert_allclose(
                x.astype(np.float64), y.astype(np.float64),
                rtol=1e-4, atol=1e-6, err_msg=f"{context}:{column}",
            )
        else:
            np.testing.assert_array_equal(
                x, y, err_msg=f"{context}:{column}"
            )


class TestBoundaries:
    """Every way a fixed-size grid can disagree with a table."""

    CASES = [
        (0, 64),      # empty table: zero morsels
        (1, 64),      # single row, morsel far larger
        (7, 64),      # morsel > table: exactly one short morsel
        (100, 10),    # dividing evenly
        (100, 7),     # non-dividing: a short tail morsel
        (100, 1),     # single-row morsels
        (100, 99),    # one full morsel plus a one-row tail
        (100, 100),   # morsel == table
    ]

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    @pytest.mark.parametrize("n_rows,size", CASES)
    def test_grid_vs_table_shapes(self, engine, n_rows, size):
        db = _make_db(n_rows)
        on = db.connect(f"{engine}:morsel={size}").execute(SQL)
        off = db.connect(f"{engine}:morsel=off").execute(SQL)
        _assert_equal(on, off, f"{engine}/{n_rows}rows/{size}")
        db.close()

    @pytest.mark.parametrize("n_rows,size", [(0, 8), (5, 2), (16, 16)])
    def test_grid_vs_table_shapes_sharded(self, n_rows, size):
        db = _make_db(n_rows)
        on = db.connect(f"SHARD:2xCPU,morsel={size}").execute(SQL)
        off = db.connect("SHARD:2xCPU,morsel=off").execute(SQL)
        _assert_equal(on, off, f"SHARD/{n_rows}rows/{size}")
        db.close()


class TestLivenessRelease:
    """The interpreter releases a variable at its last static use —
    on the whole-column path too, not only inside morsel regions."""

    def test_whole_column_path_frees_mid_query(self):
        from repro.monetdb.interpreter import ProgramRun

        db = repro.tpch_database(sf=0.1)
        con = db.connect("CPU:morsel=off")
        plan = con.plan_cache.lookup(
            WORKLOAD["Q1"], con.config, db.schema, name="Q1"
        ).program
        stats = con.backend.engine.memory.stats
        con.backend.begin()
        run = ProgramRun(plan, con.backend)
        freed_mid_query = False
        while run.step():
            if stats.intermediates_freed > 0:
                freed_mid_query = True   # released before end of query
        assert freed_mid_query
        run.collect(con.backend.elapsed())
        assert stats.intermediates_allocated > 0
        db.close()
        # everything handed out came back once the connection closed
        assert stats.intermediate_bytes == 0
        assert stats.intermediates_freed == stats.intermediates_allocated

    def test_morsel_path_frees_everything_too(self):
        db = repro.tpch_database(sf=0.1)
        con = db.connect("CPU:morsel=2048")
        con.execute(WORKLOAD["Q1"])
        stats = con.backend.engine.memory.stats
        assert stats.intermediates_freed > 0
        db.close()
        assert stats.intermediates_freed == stats.intermediates_allocated
        assert stats.intermediate_bytes == 0


class TestPeakIntermediates:
    def test_q1_peak_drops_at_least_3x(self):
        """The acceptance criterion: morsel-driven Q1 peaks at least 3x
        below the whole-column run (measured in nominal intermediate
        bytes on the CPU device)."""

        def peak(spec):
            db = repro.tpch_database(sf=0.5)
            con = db.connect(spec)
            result = con.execute(WORKLOAD["Q1"])
            value = con.backend.engine.memory.stats.intermediate_bytes_peak
            db.close()
            return value, result

        off_peak, off_result = peak("CPU:morsel=off")
        on_peak, on_result = peak("CPU:morsel=4096")
        assert on_peak > 0
        assert off_peak / on_peak >= 3.0
        _assert_equal(on_result, off_result, "Q1 peak run")


class TestEncodedInputs:
    @pytest.mark.parametrize("engine", ("MS", "CPU", "HET"))
    def test_a_sliced_region_never_decodes_an_input_whole(self, engine):
        """Bringing a region's sliced inputs host-side syncs the
        device-resident ones and reads nothing: an encoded base column
        is cut in its code domain, morsel by morsel, and never
        materialised whole (a read there decoded every encoded input —
        14 MB more peak RSS on ``tpch_het_sf8``)."""
        db = _make_db(4000)
        stats = db.catalog.compression
        before = stats.snapshot()
        db.connect(f"{engine}:morsel=64").execute(SQL)
        assert stats.decode_events == before.decode_events
