"""repro — a reproduction of *Hardware-Oblivious Parallelism for
In-Memory Column-Stores* (Heimel et al., PVLDB 6(9), 2013: **Ocelot**).

One hardware-oblivious operator set, written against a (simulated) OpenCL
kernel programming model, integrated as drop-in MAL operators into a
MonetDB-style column-store, evaluated against sequential and parallel
MonetDB baselines on calibrated CPU/GPU device models.

Quick start::

    import repro

    db = repro.tpch_database(sf=1)
    for engine in ("MS", "MP", "CPU", "GPU"):
        result = db.execute(repro.tpch.WORKLOAD["Q6"], engine=engine)
        print(engine, result.columns["revenue"], f"{result.elapsed*1e3:.1f} ms")

See README.md for the quickstart and how to reproduce each figure, and
ARCHITECTURE.md for the layer map (sql -> monetdb/MAL -> ocelot -> cl
-> sched -> serve) and the lifecycle of a query on each engine.
"""

from . import (
    cl,
    fuse,
    kernels,
    monetdb,
    obs,
    ocelot,
    serve,
    shard,
    sql,
    tpch,
)
from .api import CatalogSchema, Connection, Database, tpch_database
# NOTE: ``repro.engines`` is deliberately rebound from the submodule to
# the listing *function* — ``repro.engines()`` is the public registry
# listing; the module stays importable as ``repro.engines`` via the
# import system (sys.modules) for ``from repro.engines import ...``.
from .engines import (
    EngineSpecError,
    engine_table_markdown,
    engines,
    register_engine,
)
from .monetdb.interpreter import QueryResult

__version__ = "1.0.0"

__all__ = [
    "CatalogSchema",
    "Connection",
    "Database",
    "EngineSpecError",
    "QueryResult",
    "cl",
    "engine_table_markdown",
    "engines",
    "kernels",
    "monetdb",
    "obs",
    "ocelot",
    "register_engine",
    "serve",
    "shard",
    "sql",
    "tpch",
    "tpch_database",
]
