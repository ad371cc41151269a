"""One metrics namespace over the stack's counters.

:class:`MetricsRegistry` is a *live facade*: it does not duplicate any
counter, it reads the stat objects where they live — the plan cache's
``stats``, whatever the backend's ``counters()`` hands over
(compression, memory managers, interconnect, cluster), the breaker
board, the session scheduler — and flattens them into one
``snapshot()`` dict keyed ``plan_cache.hits``,
``interconnect.bytes_shuffled_physical``, ``compress.decode_events``,
``mm.intermediates_allocated``, ``breaker.<node>.state``,
``scheduler.parked``, … — so dashboards and tests diff one dict
instead of chasing five objects.  The field names are the stats
classes' own: a dataclass contributes every field, a mapping every key.

The registry also keeps the connection's **slow-query log**: every
completed query is counted (``obs.queries``) and queries slower than
the engine spec's ``obs_slow_ms=`` threshold are appended to
:attr:`slow_queries` with their name, engine and elapsed milliseconds.
"""

from __future__ import annotations

import dataclasses


class MetricsRegistry:
    """Unified, live counter namespace for one connection."""

    def __init__(self, connection):
        self._connection = connection
        #: completed queries observed through :meth:`record_query`
        self.queries = 0
        #: queries over the ``obs_slow_ms=`` threshold, in completion
        #: order: dicts with ``name`` / ``engine`` / ``elapsed_ms``
        self.slow_queries: list[dict] = []

    # -- the slow-query log ----------------------------------------------

    @property
    def slow_threshold_ms(self) -> float:
        return self._connection.config.effective("obs_slow_ms")

    def record_query(self, name: str, elapsed_s: float) -> None:
        """Count one completed query; log it when over the threshold."""
        self.queries += 1
        threshold = self.slow_threshold_ms
        if threshold > 0 and elapsed_s * 1e3 >= threshold:
            self.slow_queries.append({
                "name": name,
                "engine": self._connection.config.spec,
                "elapsed_ms": elapsed_s * 1e3,
            })

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict:
        """A flat dict of every counter the stack currently exposes.

        Values are plain ints/floats (breaker states are strings).
        Sections for subsystems the engine does not have (interconnect
        on single-node engines, memory managers on MS/MP) are absent
        rather than zero."""
        connection = self._connection
        backend = connection.backend
        sources = {
            "plan_cache": connection.plan_cache.stats,
            **backend.counters(),
            "breaker": backend.health.counters(),
            "scheduler": connection.scheduler.counters(),
            "obs": {
                "queries": self.queries,
                "slow_queries": len(self.slow_queries),
            },
        }
        out: dict[str, object] = {}
        for namespace, stats in sources.items():
            if dataclasses.is_dataclass(stats):
                stats = {
                    f.name: getattr(stats, f.name)
                    for f in dataclasses.fields(stats)
                }
            for key, value in stats.items():
                out[f"{namespace}.{key}"] = value
        return out

    def diff(self, before: dict, after: dict | None = None) -> dict:
        """What changed since ``before`` (an earlier :meth:`snapshot`).

        Numeric keys map to their delta (zero deltas are dropped);
        non-numeric keys (breaker states) map to their new value when
        it changed.  Keys absent from ``before`` diff against 0/None."""
        if after is None:
            after = self.snapshot()
        changed: dict[str, object] = {}
        for key, value in after.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                if before.get(key) != value:
                    changed[key] = value
                continue
            delta = value - before.get(key, 0)
            if delta:
                changed[key] = delta
        return changed
