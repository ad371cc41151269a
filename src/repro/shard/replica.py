"""Replicated shard topology: routing, failover, and cluster counters.

Each key-range *slot* of the partitioned layout lives on a primary node
and ``R - 1`` replicas placed by chained declustering: copy ``k`` of
slot ``s`` resides on node ``(s + k) % n``.  Routing is therefore pure
arithmetic — no placement table needs to move when a node dies, the
surviving copies are already resident and failover reduces to choosing
a different ``copy_of[slot]``.

``ReplicaRouting`` owns that choice.  It is deliberately free of any
backend state so the failover logic stays unit-testable:
:class:`~repro.shard.topology.ShardTopology` hands it a health
predicate and applies the returned plan.

``ClusterStats`` is the ``cluster.*`` metrics carrier
(``ShardTopology.stats``, handed to the obs snapshot by
``ShardedBackend.counters()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional


@dataclass
class ClusterStats:
    """Counters for the ``cluster.*`` observability namespace."""

    nodes: int = 0
    replicas: int = 1
    promotions: int = 0
    recoveries: int = 0
    degraded_reads: int = 0
    retries: int = 0
    ranges_migrated: int = 0
    topology_changes: int = 0
    reads_balanced: int = 0


class ReplicaRouting:
    """Maps layout slots to the physical node currently serving them.

    ``copy_of[slot]`` selects which of the slot's ``replicas`` copies is
    live; the host node follows from chained declustering.  ``base`` is
    the read balancer's current rotation position — on a healthy
    cluster every slot reads copy ``base`` — and ``promoted`` tracks
    slots routed *away* from it by failover, i.e. the cluster is
    *degraded* while the set is non-empty.
    """

    def __init__(self, n_slots: int, replicas: int = 1):
        if n_slots < 1:
            raise ValueError("need at least one slot")
        if not 1 <= replicas <= n_slots:
            raise ValueError(
                f"replicas must be in 1..{n_slots}, got {replicas}"
            )
        self.n_slots = n_slots
        self.replicas = replicas
        self.copy_of = [0] * n_slots
        self.base = 0
        self.promoted: set[int] = set()

    # -- placement arithmetic -------------------------------------------

    def host(self, slot: int, copy: Optional[int] = None) -> int:
        """Physical node hosting ``copy`` of ``slot`` (live copy if
        ``copy`` is None)."""
        k = self.copy_of[slot] if copy is None else copy
        return (slot + k) % self.n_slots

    def slots_on(self, node: int) -> list[int]:
        """Slots whose *live* copy is currently served by ``node``."""
        return [s for s in range(self.n_slots) if self.host(s) == node]

    @property
    def degraded(self) -> bool:
        return bool(self.promoted)

    # -- failover planning ----------------------------------------------

    def plan_failover(
        self, node: int, healthy: Callable[[int], bool]
    ) -> Optional[Dict[int, int]]:
        """Plan promotions that route every slot off ``node``.

        Returns ``{slot: new_copy}`` for the affected slots, or ``None``
        when some slot has no healthy copy left (the caller must fail
        the query rather than half-promote).
        """
        plan: Dict[int, int] = {}
        for slot in self.slots_on(node):
            current = self.copy_of[slot]
            for step in range(1, self.replicas):
                candidate = (current + step) % self.replicas
                target = self.host(slot, candidate)
                if target != node and healthy(target):
                    plan[slot] = candidate
                    break
            else:
                return None
        return plan

    def rejoin_plan(
        self, healthy: Callable[[int], bool]
    ) -> Dict[int, int]:
        """Plan demotions back to the rotation-base copies whose host
        recovered."""
        return {
            slot: self.base
            for slot in sorted(self.promoted)
            if healthy(self.host(slot, self.base))
        }

    def apply(self, plan: Dict[int, int]) -> tuple[int, int]:
        """Apply a promotion/demotion plan; returns the number of
        (promotions, recoveries) actually performed.  A slot landing
        back on the rotation base is a recovery; anything else is a
        promotion away from it."""
        promotions = recoveries = 0
        for slot, copy in plan.items():
            if self.copy_of[slot] == copy:
                continue
            self.copy_of[slot] = copy
            if copy == self.base:
                self.promoted.discard(slot)
                recoveries += 1
            else:
                self.promoted.add(slot)
                promotions += 1
        return promotions, recoveries

    # -- read load balancing --------------------------------------------

    def rotate(self, turn: int) -> bool:
        """Route every slot to copy ``turn % replicas`` — the read
        load-balancer's round-robin step.  Only valid on a healthy
        cluster (no promotions in flight).  Returns True if any slot's
        route changed."""
        copy = turn % self.replicas
        if copy == self.base and not any(
            c != copy for c in self.copy_of
        ):
            return False
        self.base = copy
        changed = False
        for slot in range(self.n_slots):
            if self.copy_of[slot] != copy:
                self.copy_of[slot] = copy
                changed = True
        return changed
