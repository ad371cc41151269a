"""``repro.bench`` — the benchmark harness (S7): the figure shapes,
microbenchmark and TPC-H drivers, and paper-style reporting.  A leaf:
the figure reproductions under ``benchmarks/`` import it, nothing in
``repro`` does.  (Layer map: ARCHITECTURE.md; figure recipes:
README.md.)"""

from .configs import ALL_LABELS, EngineConfig
from .harness import BenchContext, Measurement, Series, uniform_column
from .report import (
    format_series,
    monotone_increasing,
    print_series,
    roughly_flat,
    speedup,
)

__all__ = [
    "ALL_LABELS",
    "BenchContext",
    "EngineConfig",
    "Measurement",
    "Series",
    "format_series",
    "monotone_increasing",
    "print_series",
    "roughly_flat",
    "speedup",
    "uniform_column",
]
