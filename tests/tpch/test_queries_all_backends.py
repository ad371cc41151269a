"""The flagship integration test: every workload query returns identical
results on MS, MP, Ocelot-CPU, Ocelot-GPU and the heterogeneous HET
scheduler (the paper's drop-in claim, end to end through SQL, optimizer
pipelines, rewriter and engines)."""

import numpy as np
import pytest

from repro.bench.configs import HET_LABELS
from repro.engines import default_registry
from repro.monetdb import Catalog, run_program
from repro.tpch import WORKLOAD, compile_query, generate


@pytest.fixture(scope="module")
def contexts():
    data = generate(sf=0.5)
    catalog = Catalog()
    data.install(catalog)
    configs = map(default_registry.resolve, HET_LABELS)
    return {
        config.label: (config, config.make(catalog, data.data_scale))
        for config in configs
    }


@pytest.mark.parametrize("query_id", list(WORKLOAD))
def test_query_agrees_across_all_configurations(contexts, query_id):
    program = compile_query(query_id)
    results = {}
    for label, (config, backend) in contexts.items():
        results[label] = run_program(config.plan(program), backend)

    base = results["MS"]
    assert base.n_rows >= 0
    for label in ("MP", "CPU", "GPU", "HET"):
        other = results[label]
        assert set(base.columns) == set(other.columns), label
        for col in base.columns:
            a, b = base.columns[col], other.columns[col]
            assert a.shape == b.shape, (label, col)
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                assert np.allclose(
                    a.astype(np.float64), b.astype(np.float64),
                    rtol=1e-4, atol=1e-6,
                ), (label, col)
            else:
                assert np.array_equal(a, b), (label, col)


def test_simulated_times_positive_and_ordered(contexts):
    """On the SF-scaled workload the broad ordering MS > MP holds."""
    program = compile_query("Q1")
    elapsed = {}
    for label, (config, backend) in contexts.items():
        elapsed[label] = run_program(config.plan(program), backend).elapsed
    assert all(t > 0 for t in elapsed.values())
    assert elapsed["MS"] > elapsed["MP"]


class TestEmptyGroupedResults:
    """At SF 0.1 the grouped results of Q7, Q8, Q11 and Q21 are empty:
    every engine returns zero rows like MS — the Ocelot grouped
    aggregates used to report the one slot they allocate as a group
    (one sentinel row, plus a divide warning on Q8)."""

    SPECS = ("CPU", "GPU", "HET", "SHARD:2xCPU")
    VARIANTS = ("", "morsel=off", "fusion=off")

    @pytest.fixture(scope="class")
    def db(self):
        import repro

        return repro.tpch_database(sf=0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("query_id", ["Q7", "Q8", "Q11", "Q21"])
    def test_zero_rows_with_the_reference_dtypes(self, db, query_id):
        sql = WORKLOAD[query_id]
        base = db.connect("MS").execute(sql)
        assert base.n_rows == 0
        for spec in self.SPECS:
            for variant in self.VARIANTS:
                separator = "," if ":" in spec else ":"
                spec_v = spec + (separator + variant if variant else "")
                other = db.connect(spec_v).execute(sql)
                assert list(other.columns) == list(base.columns), spec_v
                for col, expected in base.columns.items():
                    got = other.columns[col]
                    assert got.shape == (0,), (spec_v, col)
                    assert got.dtype == expected.dtype, (spec_v, col)
