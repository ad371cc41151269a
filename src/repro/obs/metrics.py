"""One metrics namespace over the stack's historically ad-hoc counters.

:class:`MetricsRegistry` is a *live facade*: it does not duplicate any
counter, it reads the same stat objects the legacy accessors expose
(``Connection.plan_cache.stats``, ``Connection.interconnect``,
``Connection.compression``, the memory managers behind the backend,
the breaker board, the session scheduler) and flattens them into one
``snapshot()`` dict keyed ``plan_cache.hits``,
``interconnect.bytes_shuffled_physical``, ``compress.decode_events``,
``mm.intermediates_allocated``, ``breaker.<node>.state``,
``scheduler.parked``, … — so dashboards and tests diff one dict
instead of chasing five objects.

The registry also keeps the connection's **slow-query log**: every
completed query is counted (``obs.queries``) and queries slower than
the engine spec's ``obs_slow_ms=`` threshold are appended to
:attr:`slow_queries` with their name, engine and elapsed milliseconds.
"""

from __future__ import annotations

#: memory-manager counter fields surfaced under the ``mm.`` prefix,
#: summed across every device the backend owns
_MM_FIELDS = (
    "evictions", "offloads", "restores",
    "cache_hits", "cache_misses",
    "hash_cache_hits", "hash_cache_misses",
    "intermediates_allocated", "intermediates_freed",
    "intermediate_bytes", "intermediate_bytes_peak",
    "intermediate_bytes_physical", "intermediate_bytes_physical_peak",
)

_CACHE_FIELDS = ("hits", "misses", "invalidations", "placement_reuses")

_TRAFFIC_FIELDS = (
    "bytes_broadcast", "bytes_shuffled", "bytes_gathered",
    "bytes_broadcast_physical", "bytes_shuffled_physical",
    "bytes_gathered_physical",
)

_COMPRESS_FIELDS = (
    "columns_encoded", "columns_plain", "bytes_physical",
    "bytes_nominal", "decode_events", "partial_decodes",
)

_CLUSTER_FIELDS = (
    "nodes", "replicas", "promotions", "recoveries",
    "degraded_reads", "retries", "ranges_migrated",
    "topology_changes", "reads_balanced",
)


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
        out: dict[str, object] = {}

        stats = connection.plan_cache.stats
        for fields in _CACHE_FIELDS:
            out[f"plan_cache.{fields}"] = getattr(stats, fields)

        traffic = backend.interconnect_traffic()
        if traffic is not None:
            for fields in _TRAFFIC_FIELDS:
                out[f"interconnect.{fields}"] = getattr(
                    traffic.total, fields
                )
                out[f"interconnect.query.{fields}"] = getattr(
                    traffic.query, fields
                )
            out["interconnect.bytes_total"] = traffic.total.bytes_total
            out["interconnect.bytes_total_physical"] = (
                traffic.total.bytes_total_physical
            )

        compression = backend.compression_stats()
        if compression is not None:
            for fields in _COMPRESS_FIELDS:
                out[f"compress.{fields}"] = getattr(compression, fields)

        cluster = backend.cluster_stats()
        if cluster is not None:
            for fields in _CLUSTER_FIELDS:
                out[f"cluster.{fields}"] = getattr(cluster, fields)

        managers = list(backend.memory_managers())
        if managers:
            for fields in _MM_FIELDS:
                out[f"mm.{fields}"] = sum(
                    getattr(m.stats, fields) for m in managers
                )
            out["mm.resident_bytes"] = sum(
                m.resident_bytes for m in managers
            )
            out["mm.resident_bytes_physical"] = sum(
                m.resident_bytes_physical for m in managers
            )

        for breaker in backend.breakers():
            prefix = f"breaker.{breaker.name}"
            out[f"{prefix}.state"] = breaker.state
            out[f"{prefix}.trips"] = breaker.trips
            out[f"{prefix}.failures"] = breaker.failures

        scheduler = connection._scheduler
        if scheduler is not None:
            out["scheduler.parked"] = sum(
                1 for _, op in scheduler.turn_log if op == "parked"
            )
            out["scheduler.turns"] = len(scheduler.turn_log)
            out["scheduler.in_flight"] = len(scheduler)
            out["scheduler.pending"] = len(scheduler._pending)

        out["obs.queries"] = self.queries
        out["obs.slow_queries"] = len(self.slow_queries)
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
