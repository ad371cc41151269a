"""Fig. 7 (a)-(d): the TPC-H evaluation (paper §5.3).

Four panels:

* (a) SF 1  — Ocelot-CPU is the worst configuration on every query
  (the Intel SDK's ~1 s fixed overhead); the GPU is competitive with or
  ahead of parallel MonetDB.
* (b) SF 8  — the picture balances: Ocelot-CPU becomes competitive for
  several queries but stays slow where hashing dominates (Q10, Q11,
  Q17, Q21); the GPU lead shrinks (device-memory swapping).
* (c) SF 50 — MS/MP/CPU only (the GPU's 2 GB cannot host the working
  set); Ocelot-CPU is on par with or better than MS for most queries.
* (d) Q1 against the scale factor — linear for all; ~1 s CPU intercept;
  a non-linear GPU step once swapping starts.
"""

import pytest

from conftest import column, emit, val
from repro.bench.tpchbench import q1_scaling, tpch_queries
from repro.tpch import WORKLOAD

pytestmark = pytest.mark.slow

HASH_HEAVY = ("Q10", "Q11", "Q17", "Q21")


@pytest.fixture(scope="module", autouse=True)
def _whole_column_engines():
    """The figures reproduce the paper's 2013 engines, which executed
    whole-column: pin the morsel pass off so the asserted shapes stay
    the paper's (at mini-scale a fixed morsel grid crosses the
    one-morsel boundary between scale factors, bending fig. 7d's
    linearity).  The morsel trade-off is measured separately by
    ``perf/`` (``morsel.*``, ``peak_rss_mb``) and the ``tests/morsel``
    suite."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_MORSEL", "off")
    yield
    patcher.undo()


@pytest.fixture(scope="module")
def sf1():
    return tpch_queries(sf=1, runs=2)


def test_fig7a_tpch_sf1(sf1, benchmark):
    emit(sf1)
    for point in sf1.points:
        cpu = point.millis["CPU"]
        # "not a single query where any other configuration is slower
        # than Ocelot on the CPU" — allow small jitter on the cheapest
        assert cpu >= 0.85 * max(
            point.millis["MS"], point.millis["MP"]
        ), point.x
        # the GPU outperforms parallel MonetDB at SF 1
        assert point.millis["GPU"] < point.millis["MP"], point.x
    benchmark.pedantic(
        lambda: tpch_queries(sf=1, runs=1, queries=("Q6",)),
        rounds=1, iterations=1,
    )


def test_fig7b_tpch_sf8(benchmark):
    series = tpch_queries(sf=8, runs=1)
    emit(series)
    # more balanced: Ocelot-CPU within 2x of MS for at least half the
    # queries...
    competitive = [
        p.x for p in series.points
        if p.millis["CPU"] < 2.0 * p.millis["MS"]
    ]
    assert len(competitive) >= len(series.points) // 2
    # ... but the hash-heavy queries remain clearly behind MP (§5.3.2)
    for query_id in HASH_HEAVY:
        assert val(series, "CPU", query_id) > 1.4 * val(series, "MP",
                                                        query_id)
    benchmark.pedantic(
        lambda: tpch_queries(sf=8, runs=1, queries=("Q6",)),
        rounds=1, iterations=1,
    )


def test_fig7c_tpch_sf50(benchmark):
    """The GPU sits this one out (2 GB device memory, §5.3.3)."""
    series = tpch_queries(sf=50, runs=1, labels=("MS", "MP", "CPU"))
    emit(series)
    on_par = [
        p.x for p in series.points if p.millis["CPU"] <= 1.15 * p.millis["MS"]
    ]
    # "apart from three queries, Ocelot is on par or outperforms MonetDB"
    assert len(on_par) >= len(series.points) - 4, on_par
    benchmark.pedantic(
        lambda: tpch_queries(sf=50, runs=1, labels=("MS", "CPU"),
                             queries=("Q6",)),
        rounds=1, iterations=1,
    )


def test_fig7d_q1_scaling(benchmark):
    series = q1_scaling(scale_factors=(1, 2, 4, 8, 10), runs=2)
    emit(series)
    # linear growth for the MonetDB configurations
    ms = column(series, "MS")
    assert 1.7 < ms[1] / ms[0] < 2.3
    assert 1.7 < ms[3] / ms[2] < 2.3
    # extrapolated intercept: Ocelot-CPU ~1 s, everyone else near zero
    cpu = column(series, "CPU")
    cpu_intercept = cpu[0] - (cpu[1] - cpu[0])  # back-extrapolate to SF 0
    assert cpu_intercept > 400  # ms
    mp_intercept = val(series, "MP", 1) - (
        val(series, "MP", 2) - val(series, "MP", 1)
    )
    assert abs(mp_intercept) < 150
    # the CPU's better scaling: it crosses below MS as SF grows (§5.3.2)
    assert cpu[0] > ms[0]
    assert cpu[-1] < ms[-1]
    # non-linear GPU step once swapping starts (§5.3.2)
    gpu = column(series, "GPU")
    early_slope = (gpu[2] - gpu[1]) / 2.0
    late_slope = (gpu[3] - gpu[2]) / 4.0
    assert late_slope > 1.2 * early_slope
    benchmark.pedantic(
        lambda: q1_scaling(scale_factors=(1,), runs=1), rounds=1,
        iterations=1,
    )


def test_workload_is_the_paper_figure_set():
    assert list(WORKLOAD) == [
        "Q1", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q10", "Q11", "Q12",
        "Q15", "Q17", "Q19", "Q21",
    ]
