"""Host-time spans around the layers' public entry points.

Everything here is installed *from the benchmark*: :func:`install`
replaces the entry points listed in it with timing wrappers, in place,
so connections that are already open are traced from the next call on.
Nothing under ``src/`` knows about it, and an untraced run never imports
this module's wrappers into the program.

A span is (name, start, end, parent span, op id) on the host clock
(``time.perf_counter``).  Spans stay in memory in five parallel arrays
and are reduced after the measured loop: a span's *self time* is its
duration minus the duration of its direct children, so the self times
of all spans of one op add up to the duration of the op's root span.
A span's layer is the part of its name before the first dot — the
package under ``src/repro/`` it times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

#: spans written to the Chrome trace file; the reductions use all of them
CHROME_EXPORT_SPANS = 100_000


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        #: index of the innermost open span, -1 outside any span
        self.current = -1
        #: the load generator's op being served, -1 between ops
        self.op_id = -1

    def intern(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, fn, name: str):
        """``fn`` timed as one span called ``name``."""
        name_id = self.intern(name)
        names, parents, ops = self.name_id, self.parent, self.op
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(self.current)
            ops.append(self.op_id)
            ends.append(0.0)
            self.current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                self.current = parents[index]

        traced.perf_span = name
        return traced

    # -- reductions ---------------------------------------------------------

    def reduce(self) -> "tuple[dict[str, float], dict[str, int], float]":
        """``(self seconds by name, calls by name, root-span seconds)``
        over the spans that belong to an op."""
        if not self.names:
            return {}, {}, 0.0
        name_id = np.frombuffer(self.name_id, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        keep = np.frombuffer(self.op, dtype=np.intc) >= 0
        nested = keep & (parent >= 0)
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=duration.size
        )
        own = (duration - children)[keep]
        size = len(self.names)
        seconds = np.bincount(name_id[keep], weights=own, minlength=size)
        calls = np.bincount(name_id[keep], minlength=size)
        roots = float(duration[keep & (parent < 0)].sum())
        return (
            {name: float(seconds[i]) for i, name in enumerate(self.names)},
            {name: int(calls[i]) for i, name in enumerate(self.names)},
            roots,
        )

    def write_chrome_trace(self, path) -> int:
        """Chrome trace-event JSON of the first spans; returns how many."""
        count = min(len(self.start), CHROME_EXPORT_SPANS)
        origin = self.start[0] if count else 0.0
        events = []
        for index in range(count):
            name = self.names[self.name_id[index]]
            events.append({
                "name": name,
                "cat": name.partition(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (self.start[index] - origin) * 1e6,
                "dur": (self.end[index] - self.start[index]) * 1e6,
                "args": {
                    "span": index,
                    "parent": self.parent[index],
                    "op": self.op[index],
                },
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return count


# -- installation -----------------------------------------------------------

def _wrap_methods(recorder: Recorder, cls, methods, name: str) -> None:
    for method in methods:
        original = cls.__dict__[method]
        traced = functools.wraps(original)(recorder.wrap(original, name))
        setattr(cls, method, traced)


def _wrap_function(recorder: Recorder, module: str, attr: str,
                   name: str) -> None:
    """Replace a module-level function wherever ``repro`` bound it
    (``from .x import f`` copies the reference into the importer)."""
    original = getattr(importlib.import_module(module), attr)
    traced = functools.wraps(original)(recorder.wrap(original, name))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _wrap_resolve(recorder: Recorder, cls, name: str) -> None:
    """Time the callables ``cls.resolve(op)`` hands to the interpreter.

    They are attributed to the backend class that resolved them, except
    that the compressed-execution and fused-pipeline operators of the
    leaf backends belong to the ``compress`` and ``fuse`` layers."""
    original = cls.resolve
    by_prefix = name != "shard.fan"
    for span in (name, "compress.ops", "fuse.pipe"):
        recorder.intern(span)

    @functools.wraps(original)
    def resolve(self, op):
        fn = original(self, op)
        if by_prefix and op.startswith("compress."):
            return recorder.wrap(fn, "compress.ops")
        if by_prefix and op in ("fuse.pipe", "ocelot.pipe"):
            return recorder.wrap(fn, "fuse.pipe")
        return recorder.wrap(fn, name)

    cls.resolve = resolve


def _wrap_kernel(recorder: Recorder, definition) -> None:
    """Time a kernel's numpy body and its cost-model estimator.
    ``KernelDef`` is frozen, and the queue reads both off the shared
    definition at launch time, so they are replaced on the object."""
    if hasattr(definition.vec_fn, "perf_span"):
        return
    object.__setattr__(
        definition, "vec_fn", recorder.wrap(definition.vec_fn, "kernels.vec")
    )
    object.__setattr__(
        definition, "work_fn",
        recorder.wrap(definition.work_fn, "kernels.work_fn"),
    )


def install(recorder: Recorder) -> None:
    """Wrap every layer's public entry points (see perf/README.md)."""
    from repro.api import Connection, Database
    from repro.cl.queue import CommandQueue
    from repro.fuse.codegen import KernelCache
    from repro.kernels import KERNEL_LIBRARY
    from repro.monetdb.backends import MonetDBBackend
    from repro.monetdb.interpreter import ProgramRun
    from repro.monetdb.storage import Catalog
    from repro.morsel.run import MorselRun
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.ocelot import operators
    from repro.ocelot.engine import OcelotBackend, OcelotEngine
    from repro.ocelot.memory import MemoryManager
    from repro.sched.backend import HeterogeneousBackend
    from repro.sched.placer import CostPlacer
    from repro.serve.plancache import PlanCache
    from repro.serve.session import QueryFuture, SessionScheduler
    from repro.shard.backend import ShardedBackend
    from repro.shard.partition import ShardPartitioner

    engines = importlib.import_module("repro.engines")

    # api: the calls the load generator issues are the root spans
    _wrap_methods(recorder, Connection,
                  ("execute", "submit", "explain"), "api")
    _wrap_methods(recorder, QueryFuture, ("result",), "api")
    _wrap_methods(recorder, Database, ("create_table", "drop_table"), "api")

    # engines + the four rewrite passes EngineConfig.plan calls
    _wrap_methods(recorder, engines.EngineConfig, ("plan",), "engines.plan")
    _wrap_function(recorder, "repro.compress.passes", "compress_program",
                   "compress.pass")
    _wrap_function(recorder, "repro.fuse.passes", "fuse_program",
                   "fuse.pass")
    _wrap_function(recorder, "repro.ocelot.rewriter", "rewrite_for_ocelot",
                   "ocelot.rewriter")
    _wrap_function(recorder, "repro.morsel.passes", "morselize_program",
                   "morsel.pass")

    # serve
    _wrap_methods(
        recorder, PlanCache,
        ("prepare", "lookup", "invalidate_schema", "invalidate_placements"),
        "serve.plancache",
    )
    _wrap_methods(recorder, SessionScheduler, ("submit",), "serve.scheduler")
    _wrap_methods(recorder, SessionScheduler, ("step",),
                  "serve.scheduler.step")

    # sql
    _wrap_function(recorder, "repro.sql.params", "parameterise",
                   "sql.parameterise")
    _wrap_function(recorder, "repro.sql.lower", "compile_sql", "sql.compile")
    _wrap_function(recorder, "repro.sql.params", "bind_program", "sql.bind")

    # monetdb: interpreter, scalar operator set, storage
    _wrap_function(recorder, "repro.monetdb.interpreter", "run_program",
                   "monetdb.interpreter")
    _wrap_methods(recorder, ProgramRun, ("__init__", "collect"),
                  "monetdb.interpreter")
    _wrap_methods(recorder, ProgramRun, ("step",), "monetdb.interpreter.step")
    _wrap_resolve(recorder, MonetDBBackend, "monetdb.backends")
    _wrap_methods(recorder, Catalog, ("create_table", "drop_table"),
                  "monetdb.storage")
    _wrap_function(recorder, "repro.compress.codecs", "choose_encoding",
                   "compress.encode")

    # morsel
    _wrap_methods(recorder, MorselRun, ("step",), "morsel.run")

    # ocelot: operators (via the single-device backend's resolve, and via
    # the HOST_CODE table the heterogeneous dispatcher indexes directly),
    # kernel launches, memory manager
    _wrap_resolve(recorder, OcelotBackend, "ocelot.operators")
    for op_name, host_code in list(operators.HOST_CODE.items()):
        operators.HOST_CODE[op_name] = recorder.wrap(
            host_code, "ocelot.operators"
        )
    _wrap_methods(recorder, OcelotEngine, ("launch",), "ocelot.launch")
    _wrap_methods(
        recorder, MemoryManager,
        ("buffer_for_bat", "link_result", "allocate", "allocate_like",
         "allocate_filled", "release", "shutdown", "scope_pin", "pin",
         "unpin", "sync_to_host", "cached_hash_table", "cache_hash_table",
         "has_entry", "has_resident"),
        "ocelot.memory",
    )

    # sched
    _wrap_resolve(recorder, HeterogeneousBackend, "sched.dispatch")
    _wrap_methods(recorder, CostPlacer, ("choose",), "sched.placer")

    # shard
    _wrap_resolve(recorder, ShardedBackend, "shard.fan")
    _wrap_methods(recorder, ShardedBackend, ("collect_results",),
                  "shard.collect")
    _wrap_methods(recorder, ShardPartitioner, ("sync",), "shard.partition")

    # kernels: the library's, and the fused ones generated on demand
    for definition in KERNEL_LIBRARY.values():
        _wrap_kernel(recorder, definition)
    kernel_for = KernelCache.kernel_for

    @functools.wraps(kernel_for)
    def traced_kernel_for(self, spec):
        definition = kernel_for(self, spec)
        _wrap_kernel(recorder, definition)
        return definition

    KernelCache.kernel_for = traced_kernel_for

    # cl
    _wrap_methods(
        recorder, CommandQueue,
        ("enqueue_kernel", "enqueue_write", "enqueue_read", "enqueue_copy",
         "enqueue_marker"),
        "cl.enqueue",
    )
    _wrap_methods(recorder, CommandQueue, ("finish",), "cl.finish")

    # obs (tracing is off in every workload: only the query counter runs)
    _wrap_methods(recorder, MetricsRegistry, ("record_query",), "obs")
    _wrap_methods(recorder, Tracer, ("begin", "end", "event"), "obs")
