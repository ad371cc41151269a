"""``repro.serve`` — the pipelined query-serving layer.

The paper's engine executes one operator-at-a-time plan per query; this
package turns the stack into a *serving* system (ROADMAP north star:
heavy concurrent traffic) with two pieces, both documented end-to-end
in ARCHITECTURE.md:

* :class:`~repro.serve.plancache.PlanCache` — memoises the whole front
  half of a query's lifecycle: parse -> lower -> engine rewrite,
  keyed by ``(template, engine)`` — the template is the parsed
  statement with every literal a bind parameter, keyed by its
  serialisation — and valid while the tables the statement reads
  stand.  Repeat queries skip straight to dispatch; DDL
  invalidates the plans that read the table it touched, no others.
* :class:`~repro.serve.session.SessionScheduler` — the one driver:
  ``Connection.submit(sql)`` returns a
  :class:`~repro.serve.session.QueryFuture` and ``execute(sql)`` is
  ``submit(sql).result()``; in-flight queries advance one MAL
  instruction per turn, round-robin, and on the HET engine their
  cross-device sync points are session-scoped, so independent queries
  overlap on the DevicePool's per-device timelines
  (``benchmarks/test_fig9_concurrency.py``).

Since PR 7 the package is a full *front door* (ARCHITECTURE.md "Front
door"): statements are parsed once and auto-parameterised before the
cache lookup (:mod:`repro.sql.params` — one template plan per query
shape, values bound at execute), the scheduler runs admission control with bounded
OOM re-parks and deadlines/cancellation, and per-node circuit breakers
(:mod:`repro.serve.resilience`) trip on repeated transient failures
and route reads around the sick shard or device — fault-injected
end-to-end by :mod:`repro.serve.faults` in ``tests/faults/``.

Neither piece changes query *results* — only when work is (re)done and
how simulated timelines interleave; both are property-tested against
fresh serial execution.
"""

from .faults import (
    FaultyBackend,
    NodeFault,
    RetryableFault,
    TransientFault,
)
from .plancache import CachedPlan, CacheStats, PlanCache
from .resilience import BreakerBoard, CircuitBreaker, CircuitOpen
from .session import (
    MAX_PARKS,
    QueryCancelled,
    QueryFuture,
    QueryTimeout,
    SessionScheduler,
)

__all__ = [
    "BreakerBoard",
    "CachedPlan",
    "CacheStats",
    "CircuitBreaker",
    "CircuitOpen",
    "FaultyBackend",
    "MAX_PARKS",
    "NodeFault",
    "PlanCache",
    "QueryCancelled",
    "QueryFuture",
    "QueryTimeout",
    "RetryableFault",
    "SessionScheduler",
    "TransientFault",
]
