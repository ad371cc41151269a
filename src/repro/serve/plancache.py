"""The plan cache: memoised ``compile_sql`` -> rewrite -> placement.

Repeat queries are the common case in a serving system, and everything
between the SQL text and the first dispatched instruction is
deterministic here: parsing, lowering, the engine's optimizer pipeline
(the Ocelot rewriter), and — for the heterogeneous engine — the cost
placer's per-instruction decisions, which depend only on the measured
device characteristics and the (immutable) base data.  So the whole
front half of the query lifecycle is cacheable:

* **key** — ``(SQL text, canonical engine spec, program name, schema
  version)`` plus :meth:`repro.engines.EngineConfig.plan_key`.  The
  engine component is :attr:`repro.engines.EngineConfig.spec` — e.g.
  ``"CPU"`` or ``"SHARD:4xHET"`` — so differently-parameterized
  instances of one family never share plans; the plan key holds the
  effective value of every knob a compiled plan depends on (fusion,
  morsel size, compression mode — spec setting *and* environment
  override), so plans compiled under different settings of one
  statement stay apart.
  The schema version is :attr:`repro.monetdb.storage.Catalog.version`,
  bumped on every DDL statement, so a ``CREATE``/``DROP`` implicitly
  invalidates every plan compiled against the old schema.
* **value** — the *rewritten* :class:`~repro.monetdb.mal.MALProgram`
  (plans are immutable and re-runnable), plus the backend's recorded
  decision sequence from the latest run, installed as a replay on the
  next one through the backend's ``sessions`` capability
  (:class:`repro.monetdb.interpreter.QuerySessions`): the HET
  placer's per-instruction placements
  or the sharded engine's per-join-site strategies
  (co-located / shuffle / broadcast, see
  :meth:`repro.shard.backend.ShardedBackend._plan_join`) — a repeat
  query replays the chosen join strategy instead of re-planning, and a
  DDL-bumped schema version invalidates trace and plan together.
* **eviction** — least-recently-used beyond ``max_entries``; explicitly
  stale versions are purged (and counted) by :meth:`invalidate_schema`.

Counters live in :class:`CacheStats`, surfaced as
``Connection.plan_cache.stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..sql.lower import sql_cache_key

#: bound (value-substituted) programs kept per parameterised entry, so
#: repeat executions with the same argument values reuse the identical
#: program object instead of re-substituting
BOUND_PLANS_PER_ENTRY = 16


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one :class:`PlanCache`
    (``plan_cache.*`` in ``Connection.metrics``)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: placer decisions replayed from a cached trace instead of scored
    placement_reuses: int = 0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"invalidations={self.invalidations} "
            f"placement_reuses={self.placement_reuses}"
        )


@dataclass
class CachedPlan:
    """One memoised plan plus its latest placement trace."""

    key: tuple
    program: object                    # rewritten MALProgram
    #: [(function, Placement), ...] recorded by the HET backend on the
    #: most recent run of this plan; None until the plan first executes
    #: on the heterogeneous engine
    placements: list | None = None
    hits: int = 0
    #: bound-program LRU for parameterised plans: values tuple -> the
    #: executable program with those values substituted
    binds: OrderedDict = field(default_factory=OrderedDict)


class PlanCache:
    """LRU cache of compiled, rewritten, placement-annotated plans."""

    def __init__(self, catalog, max_entries: int = 256):
        self.catalog = catalog
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        #: (template, schema version) pairs whose parameterised form
        #: cannot compile (the plan needs the concrete value); those
        #: statements fall back to literal-text compilation
        self._no_param: set = set()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, sql: str, config, name: str) -> tuple:
        return (sql_cache_key(sql), config.spec, name,
                self.catalog.version) + config.plan_key()

    def lookup(self, sql: str, config, schema, name: str = "query"
               ) -> CachedPlan:
        """The cached plan for ``sql`` under ``config``, compiling (and
        running the config's optimizer pipeline) on a miss."""
        key = self._key(sql, config, name)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            entry.hits += 1
            self._entries.move_to_end(key)
            return entry
        from ..sql.lower import compile_sql

        self.stats.misses += 1
        program = config.plan(compile_sql(sql, schema, name=name))
        entry = CachedPlan(key=key, program=program)
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def prepare(self, sql: str, config, schema, name: str = "query"
                ) -> "tuple[CachedPlan, object]":
        """Parameterised lookup: ``(entry, executable program)``.

        Literals in ``sql`` are normalised into bind parameters first,
        so every literal variation of one query shape shares a single
        cached template plan; the concrete values are substituted into
        a bound copy here (memoised per values tuple).  Statements
        whose template cannot compile — the plan genuinely depends on
        a literal's value — are negative-cached and served through the
        legacy literal-text path.
        """
        from ..sql.params import ParamBindError, bind_program, parameterise

        template, values = parameterise(sql)
        if not values:
            # zero-parameter statements still benefit: the template is
            # whitespace/comment-normalised, and the entry's program is
            # the executable program
            entry = self.lookup(template, config, schema, name=name)
            return entry, entry.program
        if (template, self.catalog.version) in self._no_param:
            entry = self.lookup(sql, config, schema, name=name)
            return entry, entry.program
        try:
            entry = self.lookup(template, config, schema, name=name)
        except ParamBindError:
            self._no_param.add((template, self.catalog.version))
            entry = self.lookup(sql, config, schema, name=name)
            return entry, entry.program
        bound = entry.binds.get(values)
        if bound is None:
            bound = bind_program(entry.program, values, schema)
            entry.binds[values] = bound
            while len(entry.binds) > BOUND_PLANS_PER_ENTRY:
                entry.binds.popitem(last=False)
        else:
            entry.binds.move_to_end(values)
        return entry, bound

    def invalidate_placements(self, engine_spec: str) -> int:
        """Eagerly purge one engine's entries on a topology change.

        A shard promotion or a committed re-shard makes every memoised
        placement/join-strategy trace of that engine refer to a
        departed roster member.  The accompanying version bump already
        prevents stale *lookups*, but the stale entries — and their
        placement traces, which the retry path writes back into even
        mid-failover — must not linger until a lazy
        :meth:`invalidate_schema` sweep: the whole engine's entries are
        dropped the moment the topology moves (they are all unreachable
        under the bumped version anyway)."""
        stale = [
            key for key in self._entries if key[1] == engine_spec
        ]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def invalidate_schema(self) -> int:
        """Purge entries compiled against a stale schema version.

        Correctness never depends on this — stale versions can no longer
        be *looked up* because the key embeds the current version — but
        purging bounds memory and feeds the invalidation counter."""
        current = self.catalog.version
        stale = [k for k in self._entries if k[3] != current]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
        self._no_param.clear()
