"""The benchmark harness and reporting helpers."""

import numpy as np
import pytest

from repro.bench import (
    Measurement,
    Series,
    format_series,
    monotone_increasing,
    roughly_flat,
    speedup,
    uniform_column,
)


def test_uniform_column_scaling_math():
    values, scale = uniform_column(64, actual_elems=1 << 16)
    assert values.size == 1 << 16
    nominal_elems = 64 * 1024 * 1024 // 4
    assert values.size * scale == pytest.approx(nominal_elems)


def test_uniform_column_small_nominal_not_padded():
    values, scale = uniform_column(0.001, actual_elems=1 << 20)
    assert values.size < 1 << 20
    assert scale == pytest.approx(1.0)


def test_uniform_column_distinct_domain():
    values, _ = uniform_column(1, distinct=7, actual_elems=4096)
    assert values.min() >= 0 and values.max() < 7


def _series():
    s = Series(name="demo", x_label="MB", labels=("MS", "GPU"))
    s.points.append(Measurement(64, {"MS": 10.0, "GPU": 2.0}))
    s.points.append(Measurement(128, {"MS": 20.0, "GPU": None}))
    return s


def test_format_series_renders_oom_dash():
    text = format_series(_series())
    assert "demo" in text and "-" in text
    assert "10.0" in text


def test_speedup_and_helpers():
    s = _series()
    assert speedup(s, fast="GPU", slow="MS", at=64) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        speedup(s, fast="GPU", slow="MS", at=128)
    assert monotone_increasing([1, 2, 3, 2.95])
    assert not monotone_increasing([3, 1])
    assert roughly_flat([10, 11, 12], ratio=1.3)
    assert not roughly_flat([10, 30], ratio=1.3)


def test_configs_cover_the_paper():
    # the paper's four configurations plus the §7 HET extension
    from repro.bench.configs import ALL_LABELS, HET_LABELS
    from repro.engines import default_registry

    assert set(HET_LABELS) == {"MS", "MP", "CPU", "GPU", "HET"}
    resolve = default_registry.resolve
    assert resolve("CPU").is_ocelot and not resolve("MS").is_ocelot
    assert resolve("HET").is_ocelot
    # the reproduced figures sweep exactly the paper's configurations
    assert ALL_LABELS == ("MS", "MP", "CPU", "GPU")


def test_trace_exclusions():
    """Footnotes 11/12: merge / hash-build components can be excluded."""
    from repro.bench.harness import BenchContext
    from repro.monetdb import Catalog, MALBuilder

    catalog = Catalog()
    catalog.create_table("t", {"a": np.arange(50_000, dtype=np.int32)})
    ctx = BenchContext(catalog, labels=("MP",))
    builder = MALBuilder("q")
    a = builder.bind("t", "a")
    lpos, rpos = builder.emit("algebra", "join", (a, a), n_results=2)
    program = builder.returns([("n", builder.emit("aggr", "count", (lpos,)))])
    full, _ = ctx.run_query("MP", program, runs=1)
    no_build = ctx.trace_seconds("MP", exclude_serial=True)
    no_merge = ctx.trace_seconds("MP", exclude_merge=True)
    assert no_build < full
    assert no_merge < full
