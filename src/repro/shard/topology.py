"""The sharded engine's ``cluster`` capability: its topology state machine.

:class:`ShardTopology` decides which physical node serves which layout
slot and is the only place that ever changes it.  Three things move the
layout, all of them applied **at query boundaries only** (in-flight
values hold parts fanned over the old roster):

* **failover** — a tripped shard breaker either *promotes* the surviving
  copies of the dead node's slots (``replicas>1``: a pure routing
  change, no data moves) or *excludes* the shard and re-partitions every
  table over the healthy remainder (``replicas=1``); cooled-down nodes
  rejoin the same way in reverse;
* **read balancing** — a healthy, idle replicated cluster rotates every
  slot to its next copy once per boundary;
* **online resize** — :meth:`request_resize` stages an empty target
  layout, a few tables migrate per boundary while ``submit()`` batches
  drain against the old layout, and the swap commits at the first quiet
  boundary after the last table.

The roster itself (``partitioner``, ``copies``, ``all_children``,
``children``) stays on the backend, where the fan-out reads it; this
object rewrites it.
"""

from __future__ import annotations

from .partition import ShardPartitioner
from .replica import ClusterStats, ReplicaRouting

#: tables migrated per query boundary during an online resize
MIGRATE_TABLES_PER_BOUNDARY = 2


class ShardTopology:
    """Routing, failover, rotation and resize of one sharded backend."""

    def __init__(self, backend, replicas: int):
        self.backend = backend
        n_shards = backend.partitioner.n_shards
        #: requested replica count (a resize re-clamps to min(R, N))
        self._replicas_arg = replicas
        #: slot -> live copy routing (failover + read balancing)
        self.routing = ReplicaRouting(n_shards, backend.replicas)
        #: the ``cluster.*`` counters (promotions, migrations, retries, ...)
        self.stats = ClusterStats(nodes=n_shards, replicas=backend.replicas)
        #: staged partitioner of an in-progress online resize
        self.staged: "ShardPartitioner | None" = None
        #: physical shard ids currently routed around (open breakers;
        #: only used without replicas — promotions replace exclusion)
        self.excluded: set[int] = set()
        #: a routing/roster change waits for the next query boundary
        self._stale = False
        #: round-robin step counter for read load balancing
        self._balance = 0

    # -- what the serve layer asks ---------------------------------------------

    @property
    def nodes(self) -> int:
        """Current node count; a staged resize reports its *target*, so
        repeated resizes compose."""
        if self.staged is not None:
            return self.staged.n_shards
        return self.backend.partitioner.n_shards

    @property
    def pending(self) -> bool:
        """Whether a change (staged resize, deferred failover) is
        waiting on future query boundaries to complete."""
        return self.staged is not None or self._stale

    def settle(self) -> None:
        """Drive every pending change to completion, one boundary's
        worth at a time.  Only valid with nothing in flight: the serve
        layer calls it once a batch has drained, ``Database.add_shard``
        on an idle connection — so migrations always conclude even once
        traffic stops, and no partial layout survives a batch."""
        for _ in range(100_000):
            if not self.pending:
                return
            self.backend.query_boundary()
        raise RuntimeError(  # pragma: no cover - invariant
            f"topology change of {self.backend.label!r} did not converge"
        )

    # -- failover ----------------------------------------------------------------

    def node_failed(self, node: int) -> str:
        """Charge ``node``'s breaker; route around it on trip.  Returns
        the serve layer's next move (see ``Backend.note_node_failure``).

        What a trip (or an already-open breaker) means depends on the
        topology:

        * **with replicas** the dead node's key ranges are already
          resident on other nodes — each affected slot *promotes* its
          next healthy copy.  No data moves and no table re-partitions;
          the child roster swap waits for the next query boundary.
          Only when some slot has no healthy copy left does the query
          fail.
        * **without replicas** the shard is *excluded* and every table
          re-partitions over the healthy remainder at the next query
          boundary.  The last healthy shard is never excluded: with
          nowhere left to route, the query fails."""
        backend = self.backend
        breaker = backend.health.breaker(("shard", node))
        tripped = breaker.record_failure()
        if not tripped and breaker.allow():
            return "retry"
        if backend.replicas > 1:
            plan = self.routing.plan_failover(node, self._node_healthy)
            if plan is None:
                return "fail"
            if plan:
                promoted, _ = self.routing.apply(plan)
                self.stats.promotions += promoted
                self._stale = True
            return "rerouted"
        if node not in self.excluded:
            if len(backend.all_children) - len(self.excluded) <= 1:
                return "fail"
            self.excluded.add(node)
            self._stale = True
        return "rerouted"

    def _node_healthy(self, node: int) -> bool:
        """Whether a physical node's breaker admits work."""
        return self.backend.health.breaker(("shard", node)).allow()

    def boundary(self, idle: bool) -> None:
        """One query boundary: route back to nodes whose breakers
        cooled down (half-open probes re-trip with doubled backoff on
        the next failure), apply any pending routing change, migrate a
        few tables of a staged resize, and — with no session in flight
        (``idle``) — commit a finished resize and rotate reads."""
        if self.backend.replicas > 1:
            plan = self.routing.rejoin_plan(self._node_healthy)
            if plan:
                _, recovered = self.routing.apply(plan)
                self.stats.recoveries += recovered
                self._stale = True
        else:
            for node in sorted(self.excluded):
                if self._node_healthy(node):
                    self.excluded.discard(node)
                    self._stale = True
        if self._stale:
            self._apply()
        self._advance_resize(idle)
        if idle:
            self._rotate_reads()

    def _rebuild_children(self) -> None:
        """Swap the live child roster to match routing + active set."""
        backend = self.backend
        if backend.replicas > 1:
            backend.children = [
                backend.copies[slot][self.routing.copy_of[slot]]
                for slot in range(backend.partitioner.n_shards)
            ]
        else:
            backend.children = [
                backend.all_children[phys]
                for phys in backend.partitioner.active
            ]

    def _apply(self) -> None:
        """Apply a pending routing/roster change.

        With replicas this is *purely* a routing change: the promoted
        copies already hold their slots' slices, so the partitioner
        (and every layout signature) is untouched — the asserted
        zero-re-partition failover.  Without replicas the healthy
        remainder re-partitions every table."""
        backend = self.backend
        self._stale = False
        if backend.replicas <= 1:
            backend.partitioner.set_active([
                phys for phys in range(len(backend.all_children))
                if phys not in self.excluded
            ])
        self._rebuild_children()
        self._changed()

    def _changed(self) -> None:
        """The roster moved — counted, and told to nobody: cached plans
        carry no layout."""
        self.stats.topology_changes += 1

    # -- read load balancing across healthy replicas ----------------------------

    def _rotate_reads(self) -> None:
        """Round-robin reads over each slot's copies, one rotation per
        query boundary — only on a fully healthy cluster (no
        promotions, no staged resize, no open breakers), so balancing
        never interferes with failover or migration."""
        if self.backend.replicas <= 1 or self.pending:
            return
        if self.routing.degraded or self.backend.health.open_nodes():
            return
        self._balance += 1
        if self.routing.rotate(self._balance):
            self._rebuild_children()
            self.stats.reads_balanced += 1

    # -- online re-sharding ------------------------------------------------------

    def request_resize(self, n_new: int) -> None:
        """Stage an online resize to ``n_new`` shards.

        Builds the target layout *empty* and migrates key ranges
        incrementally at query boundaries: in-flight queries keep
        draining against the old layout, and the swap commits only once
        every table is installed and no session is in flight.  New
        admissions after the commit route to the new topology, running
        the plans they already had."""
        if n_new < 1:
            raise ValueError("need at least one shard")
        current = self.backend.partitioner
        staged = ShardPartitioner(
            self.backend.catalog, n_new, mode=current.mode,
            min_partition_rows=current.min_partition_rows_raw,
            use_declared_keys=current.use_declared_keys,
            replicas=min(self._replicas_arg, n_new),
            eager=False,
        )
        staged._local_keys = dict(current._local_keys)
        staged.begin_migration()
        self.staged = staged

    def schema_changed(self) -> None:
        """DDL voids a staged resize's layout plan: restart it from the
        new schema."""
        if self.staged is not None:
            self.request_resize(self.staged.n_shards)

    def _advance_resize(self, idle: bool) -> None:
        staged = self.staged
        if staged is None:
            return
        if not staged.migration_done:
            moved = staged.migrate_step(MIGRATE_TABLES_PER_BOUNDARY)
            self.stats.ranges_migrated += moved
        if staged.migration_done and idle:
            self._commit_resize(staged)

    def _commit_resize(self, staged: ShardPartitioner) -> None:
        """Swap the fully-migrated layout in; a fresh roster and
        routing, and the timeline clocks re-seeded at the old makespan
        so the simulated time base stays monotonic."""
        backend = self.backend
        self.staged = None
        backend.partitioner = staged
        backend.replicas = staged.replicas
        backend.copies = [
            [backend.child_config.make(copy_catalog, backend.data_scale)
             for copy_catalog in row]
            for row in staged.copies
        ]
        backend.all_children = [row[0] for row in backend.copies]
        self.routing = ReplicaRouting(staged.n_shards, staged.replicas)
        self.excluded = set()
        self._stale = False
        self._rebuild_children()
        backend.sessions.timeline.reseed()
        self.stats.nodes = staged.n_shards
        self.stats.replicas = staged.replicas
        self._changed()
