"""Benchmark harness: runs plans across configurations, paper-style.

Measurement protocol follows §5 of the paper:

* microbenchmarks: ten runs averaged, synthetic uniform data, GPU times
  exclude host<->device transfer (hot device cache, operator time only),
* TPC-H: average of five hot-cache runs — each query runs once unmeasured
  so base columns are device-cached, then measured runs still pay for
  uncached data and the result transfer,
* when the GPU runs out of device memory the harness records ``None``
  ("if a line ends midway, we reached the device memory limit").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..monetdb.interpreter import Backend, run_program
from ..monetdb.mal import MALProgram
from ..monetdb.storage import Catalog
from ..ocelot.memory import OcelotOOM
from ..engines import EngineConfig, default_registry
from .configs import ALL_LABELS


@dataclass
class Measurement:
    """Simulated milliseconds per configuration for one data point."""

    x: object                      # sweep coordinate (MB, groups, SF, ...)
    millis: dict = field(default_factory=dict)   # label -> float | None
    #: auxiliary per-point metrics beyond milliseconds (e.g. the shard
    #: engine's interconnect bytes per strategy); carried into the
    #: machine-readable benchmark report (``REPRO_BENCH_JSON``)
    extra: dict = field(default_factory=dict)

    def __getitem__(self, label: str):
        return self.millis[label]


@dataclass
class Series:
    """One figure: a sweep of measurements."""

    name: str
    x_label: str
    points: list[Measurement] = field(default_factory=list)
    labels: tuple = ALL_LABELS

    def column(self, label: str) -> list:
        return [p.millis.get(label) for p in self.points]


class BenchContext:
    """Catalog + per-configuration backend cache for one dataset."""

    def __init__(self, catalog: Catalog, data_scale: float = 1.0,
                 labels: tuple = ALL_LABELS, operator_timing: bool = False):
        self.catalog = catalog
        self.data_scale = data_scale
        self.labels = labels
        #: microbenchmark mode (paper §5.2): timings bracket the operator
        #: via mtime.msec(), excluding per-query SQL/framework overhead —
        #: unlike the §5.3 TPC-H timings from the SQL frontend.
        self.operator_timing = operator_timing
        self._backends: dict[str, Backend] = {}

    def backend(self, label: str) -> Backend:
        if label not in self._backends:
            self._backends[label] = self.config(label).make(
                self.catalog, self.data_scale
            )
        return self._backends[label]

    def config(self, label: str) -> EngineConfig:
        return default_registry.resolve(label)

    # -- measurement ---------------------------------------------------------

    def run_query(self, label: str, program: MALProgram, runs: int = 5,
                  warmup: int = 1):
        """Average hot-cache simulated seconds; None on device OOM."""
        backend = self.backend(label)
        plan = self.config(label).plan(program)
        try:
            for _ in range(warmup):
                run_program(plan, backend)
            total = 0.0
            for _ in range(runs):
                result = run_program(plan, backend)
                overhead = (
                    backend.query_overhead_s() if self.operator_timing
                    else 0.0
                )
                total += max(result.elapsed - overhead, 0.0)
            return total / runs, result
        except OcelotOOM:
            return None, None

    def measure(self, program: MALProgram, runs: int = 5,
                warmup: int = 1) -> dict:
        """Run one plan on every configuration -> label -> millis."""
        out = {}
        for label in self.labels:
            seconds, _ = self.run_query(label, program, runs, warmup)
            out[label] = None if seconds is None else seconds * 1e3
        return out

    # -- cost-component exclusions (paper footnotes) ------------------------------

    def trace_seconds(self, label: str, *, exclude_serial: bool = False,
                      exclude_merge: bool = False) -> float:
        """Recompute the last query's time from the MonetDB trace,
        optionally excluding serial (hash-build) or merge components.

        Used by Fig. 5(c) (footnote 11: MP merge excluded) and
        Fig. 5(i) (footnote 12: hash-table build excluded)."""
        backend = self.backend(label)
        if not hasattr(backend, "trace"):
            raise TypeError(f"{label} has no cost trace")
        model = backend.model
        total = 0.0
        for cost, _seconds in backend.trace:
            work = (
                cost.work / model.par_speedup + model.par_op_overhead_s
                if backend.parallel
                else cost.work
            )
            serial = 0.0 if exclude_serial else cost.serial
            merge = (
                0.0
                if (exclude_merge or not backend.parallel)
                else model.merge(cost.merge_bytes)
            )
            total += work + serial + merge
        return total


def uniform_column(nominal_mb: float, *, distinct: int | None = None,
                   dtype=np.int32, actual_elems: int = 1 << 21,
                   seed: int = 11) -> tuple[np.ndarray, float]:
    """Synthetic uniform test column (paper §5.2).

    Returns ``(values, data_scale)`` where the array has
    ``min(actual_elems, nominal)`` elements standing for a
    ``nominal_mb`` MB column.
    """
    dtype = np.dtype(dtype)
    nominal_elems = int(nominal_mb * 1024 * 1024 / dtype.itemsize)
    actual = min(actual_elems, nominal_elems)
    rng = np.random.default_rng(seed)
    if distinct is not None:
        values = rng.integers(0, distinct, actual).astype(dtype)
    elif dtype.kind == "f":
        values = rng.random(actual).astype(dtype)
    else:
        values = rng.integers(0, 2**30, actual).astype(dtype)
    return values, nominal_elems / actual
