"""The sharded engine's ``cluster`` capability: its topology state machine.

A cluster is a set of physical **nodes**.  A node keeps its id, its
catalogs, its child backends, its circuit breaker and any fault wrapper
for as long as it is a member.  A layout is a **roster**: the ids of the
nodes holding data, in slot order — slot ``i`` lives on ``roster[i]``,
copy ``k`` of slot ``s`` on ``roster[(s + k) % len(roster)]``.

Every layout change is one move: queue a roster, and let the next query
boundary with no session in flight install it with one in-place
:meth:`~repro.shard.partition.ShardPartitioner.sync`:

* **exclusion** (``replicas=1``) — a tripped node leaves the roster;
* **rejoin** — a node whose breaker admits work again comes back;
* **resize** — :meth:`request_resize` gives new nodes fresh ids and
  puts them on the roster, or retires members (an excluded node first,
  else the highest id);
* **key adoption** (``keys=infer``) — a join that could not co-locate
  queues its columns as shard keys, adopted before any roster install.

A failover parks every statement in flight, so the boundary after it is
quiet and an exclusion lands there; statements in flight during a
resize keep draining against the installed layout.  Two changes only
re-route over the installed roster, at any boundary:

* **promotion** (``replicas>1``) — a tripped node's slots read their
  next healthy copy, no data moves; rejoin routes them back;
* **read balancing** — a healthy, idle replicated cluster rotates every
  slot to its next copy once per boundary.

The node grid (``backend.grid``) and the fan-out list
(``backend.children``) stay on the backend, where the fan-out reads
them; this object rewrites them.
"""

from __future__ import annotations

from .replica import ClusterStats, ReplicaRouting


class ShardTopology:
    """Routing, failover, rotation and resize of one sharded backend."""

    def __init__(self, backend):
        self.backend = backend
        roster = backend.partitioner.roster
        #: every node id in the cluster once the queued changes land,
        #: excluded nodes included
        self.members: tuple = roster
        #: the roster the next install puts in place (the installed one
        #: is ``backend.partitioner.roster``)
        self.roster: tuple = roster
        #: the id the next added node gets: ids are never reused, since a
        #: node's breaker outlives it on the board
        self._next_id = max(roster) + 1
        #: slot -> live copy routing (failover + read balancing)
        self.routing = ReplicaRouting(len(roster), backend.replicas)
        #: the ``cluster.*`` counters (promotions, migrations, retries, ...)
        self.stats = ClusterStats(nodes=len(roster), replicas=backend.replicas)
        #: a routing change waits for the next query boundary
        self._stale = False
        #: round-robin step counter for read load balancing
        self._balance = 0
        self._route()

    # -- what the serve layer asks ---------------------------------------------

    @property
    def nodes(self) -> int:
        """Node count once the queued changes land, so repeated resizes
        compose."""
        return len(self.members)

    @property
    def excluded(self) -> frozenset:
        """The members the roster leaves out (tripped ``replicas=1``
        nodes)."""
        return frozenset(self.members) - frozenset(self.roster)

    @property
    def pending(self) -> bool:
        """Whether a change (a queued roster, a deferred re-route, a
        ``keys=infer`` observation to adopt) waits for a query
        boundary."""
        return (self._stale or self._queued()
                or bool(self.backend.observed_joins))

    def _queued(self) -> bool:
        """Whether the roster or the membership differs from the
        installed layout (node ids only ever grow, so both the members
        and the grid's keys are in ascending order)."""
        backend = self.backend
        return (self.roster != backend.partitioner.roster
                or self.members != tuple(backend.grid))

    def settle(self) -> None:
        """Install whatever is queued.  Only valid with nothing in
        flight: the serve layer calls it once a batch has drained,
        ``Database.add_shard`` on an idle connection — so no queued
        layout outlives a batch."""
        if self.pending:
            self.backend.query_boundary()

    # -- failover ----------------------------------------------------------------

    def node_failed(self, node: int) -> str:
        """Charge ``node``'s breaker; route around it on trip.  Returns
        the serve layer's next move (see ``Backend.note_node_failure``).

        What a trip (or an already-open breaker) means depends on the
        topology:

        * **with replicas** the dead node's key ranges are already
          resident on other nodes — each affected slot *promotes* its
          next healthy copy.  No data moves and no table re-partitions;
          the child list follows at the next query boundary.  Only when
          some slot has no healthy copy left does the query fail.
        * **without replicas** the node leaves the roster, and every
          table re-partitions over the rest at the next quiet boundary.
          The last node on the roster never leaves: with nowhere left to
          route, the query fails."""
        backend = self.backend
        breaker = backend.health.breaker(("shard", node))
        tripped = breaker.record_failure()
        if not tripped and breaker.allow():
            return "retry"
        if backend.replicas > 1:
            plan = self.routing.plan_failover(
                backend.partitioner.roster.index(node), self._healthy_at
            )
            if plan is None:
                return "fail"
            if plan:
                promoted, _ = self.routing.apply(plan)
                self.stats.promotions += promoted
                self._stale = True
            return "rerouted"
        if node in self.roster:
            if len(self.roster) <= 1:
                return "fail"
            self.roster = tuple(n for n in self.roster if n != node)
        return "rerouted"

    def _node_healthy(self, node: int) -> bool:
        """Whether a physical node's breaker admits work."""
        return self.backend.health.breaker(("shard", node)).allow()

    def _healthy_at(self, position: int) -> bool:
        """Whether the node at a position of the installed roster (the
        routing's node numbering) admits work."""
        return self._node_healthy(self.backend.partitioner.roster[position])

    def boundary(self, idle: bool) -> None:
        """One query boundary: route back to nodes whose breakers
        cooled down (half-open probes re-trip with doubled backoff on
        the next failure); with no session in flight (``idle``) install
        a queued roster and rotate reads; otherwise apply a pending
        re-route."""
        if self.backend.replicas > 1:
            plan = self.routing.rejoin_plan(self._healthy_at)
            if plan:
                _, recovered = self.routing.apply(plan)
                self.stats.recoveries += recovered
                self._stale = True
        elif self.roster != self.members:
            rejoined = set(filter(self._node_healthy, self.excluded))
            if rejoined:
                self.roster = tuple(n for n in self.members
                                    if n in self.roster or n in rejoined)
        if idle and self._queued():
            self._install()
        elif self._stale:
            self._route()
            self.stats.topology_changes += 1
        if idle and self.backend.replicas > 1:
            self._rotate_reads()

    def _install(self) -> None:
        """Put the queued roster in place: every table re-slices in
        place over it, new members get child backends, retired ones are
        shut down, and the routing starts afresh — promoting away from
        any node whose breaker is still open."""
        backend = self.backend
        partitioner = backend.partitioner
        partitioner.roster = self.roster
        self.stats.ranges_migrated += partitioner.sync()
        for node in set(backend.grid) - set(self.members):
            del partitioner.nodes[node]
            for child in backend.grid.pop(node):
                child.shutdown()
        backend.make_children()
        self.routing = ReplicaRouting(len(self.roster), backend.replicas)
        if backend.replicas > 1:
            down = set(backend.health.open_nodes())
            for position, node in enumerate(self.roster):
                if ("shard", node) in down:
                    plan = self.routing.plan_failover(position,
                                                      self._healthy_at)
                    if plan:
                        self.stats.promotions += self.routing.apply(plan)[0]
        self.stats.nodes = len(self.members)
        self.stats.replicas = backend.replicas
        self._route()
        self.stats.topology_changes += 1

    def _route(self) -> None:
        """Point ``children`` at every slot's live copy (cached plans
        carry no layout, so nobody else is told)."""
        backend = self.backend
        host = backend.partitioner.host
        self._stale = False
        backend.children = [
            backend.grid[host(slot, copy)][copy]
            for slot, copy in enumerate(self.routing.copy_of)
        ]

    # -- read load balancing across healthy replicas ----------------------------

    def _rotate_reads(self) -> None:
        """Round-robin reads over each slot's copies, one rotation per
        idle query boundary (after any queued change landed) — only on
        a fully healthy cluster (no promotions, no open breakers), so
        balancing never interferes with failover."""
        if self.routing.degraded or self.backend.health.open_nodes():
            return
        self._balance += 1
        if self.routing.rotate(self._balance):
            self._route()
            self.stats.reads_balanced += 1

    # -- resize ----------------------------------------------------------------

    def request_resize(self, n_new: int) -> None:
        """Queue a resize to ``n_new`` nodes.

        New nodes get fresh ids and join the roster; a shrink retires
        an excluded node first, else the highest id.  Statements in
        flight keep draining against the installed layout; the next
        boundary with none in flight installs the new one, and later
        admissions run the plans they already had over it.  A shrink
        that would leave no healthy node is refused."""
        if n_new < 1:
            raise ValueError("need at least one shard")
        members = list(self.members)
        excluded = self.excluded
        while len(members) > n_new:
            off_roster = [n for n in members if n in excluded]
            members.remove(max(off_roster or members))
        while len(members) < n_new:
            members.append(self._next_id)
            self._next_id += 1
        down = set(self.backend.health.open_nodes())
        if all(("shard", node) in down for node in members):
            raise ValueError(
                f"{self.backend.label!r} cannot retire a node: no healthy "
                f"node would be left"
            )
        self.members = tuple(members)
        self.roster = tuple(n for n in members if n not in excluded)
