"""Fault injection for the serving tier's resilience tests.

:class:`FaultyBackend` wraps any Backend and injects scheduled
exceptions at operator granularity: the wrapper counts every operator
execution and raises the scheduled error when the count matches.  The
``tests/faults/`` harness uses it to script OOMs, timeouts, and
node failures deterministically, and the differential suite asserts
query results are identical with and without the schedule.

:class:`TransientFault` is the retry-eligible error class the serving
layer understands: the scheduler and the synchronous execute path
consult the backend's circuit breakers (``note_node_failure``) and
retry or re-route instead of failing the query outright.
:class:`NodeFault` carries the identity of the failed node (a shard
index, a device index) so tiered backends can charge the right
breaker.  :class:`RetryableFault` refines it further: a blip brief
enough that the sharded fan-out site absorbs it with an in-place
retry (simulated backoff) *before* the breaker is ever charged —
schedules mix the two classes to script transient-vs-hard fault
sequences.
"""

from __future__ import annotations


class TransientFault(RuntimeError):
    """A retry-eligible failure (network blip, node hiccup)."""


class NodeFault(TransientFault):
    """A transient failure attributed to one node."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class RetryableFault(NodeFault):
    """A blip the fan-out call site absorbs with an in-place retry.

    Distinguished from a *hard* :class:`NodeFault` by class: the
    sharded backend retries these (with simulated backoff) before the
    breaker sees anything; only a blip outliving the retry budget
    escalates to the breaker path like a hard fault."""


class FaultyBackend:
    """A Backend proxy that injects scheduled failures.

    ``schedule`` maps a 1-based operator-execution count to the
    exception to raise (or a zero-argument factory producing one) when
    that many operators have run.  All other attribute access delegates
    to the wrapped backend, so the proxy is drop-in anywhere a Backend
    is expected::

        con.backend = FaultyBackend(con.backend, {5: OcelotOOM("boom")})
        con._scheduler = None          # rebuild over the new backend

    With ``node`` set, injected :class:`TransientFault` instances that
    do not already carry a node are attributed to it — in place when
    the error is already a :class:`NodeFault` subclass (preserving
    e.g. :class:`RetryableFault`), by re-wrapping otherwise (used when
    wrapping one shard's child backend).

    ``always`` — an exception or factory — kills the node outright:
    every operator raises it until cleared (the chaos harness's
    kill/recover windows), independent of the counted schedule.
    """

    def __init__(self, inner, schedule: dict | None = None, node=None):
        self.inner = inner
        self.schedule = dict(schedule or {})
        self.node = node
        self.ops_seen = 0
        #: when set, every operator raises this (kill window)
        self.always = None
        #: [(count, op, error), ...] for every fault actually raised
        self.injected: list = []

    #: what the proxy keeps for itself; every other attribute is the
    #: wrapped backend's, written as well as read — a traced run or a
    #: shard fan-out sets ``backend.tracer`` on whatever it was handed
    _OWN = frozenset(("inner", "schedule", "node", "ops_seen", "always",
                      "injected"))

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __setattr__(self, name, value):
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self.inner, name, value)

    def _raise_scheduled(self, op: str) -> None:
        self.ops_seen += 1
        error = self.always
        if error is None:
            error = self.schedule.get(self.ops_seen)
        if error is None:
            return
        if callable(error):
            error = error()
        if (self.node is not None and isinstance(error, TransientFault)
                and getattr(error, "node", None) is None):
            if isinstance(error, NodeFault):
                error.node = self.node
            else:
                error = NodeFault(str(error), node=self.node)
        self.injected.append((self.ops_seen, op, error))
        raise error

    def resolve(self, op: str):
        fn = self.inner.resolve(op)

        def guarded(*args, **kwargs):
            self._raise_scheduled(op)
            return fn(*args, **kwargs)

        return guarded


def _wrap(backend, node: int, copy: int,
          schedule: dict | None) -> FaultyBackend:
    """Wrap one child of a sharded backend's node grid in place.  The
    grid is what every later re-route or layout install reads, so the
    wrap lasts as long as the node does; the live child list is patched
    too."""
    row = backend.grid[node]
    child = row[copy]
    faulty = row[copy] = FaultyBackend(child, schedule, node=node)
    backend.children = [faulty if live is child else live
                        for live in backend.children]
    return faulty


def wrap_shard_child(backend, shard: int,
                     schedule: dict | None = None) -> FaultyBackend:
    """Wrap the primary child of physical node ``shard`` of a
    :class:`~repro.shard.backend.ShardedBackend` in a
    :class:`FaultyBackend` attributed to that node, in place, so
    injected faults carry the node id and the breaker board can route
    around it.
    """
    return _wrap(backend, shard, 0, schedule)


def wrap_shard_node(backend, node: int,
                    schedule: dict | None = None) -> list:
    """Wrap every copy *hosted* on one physical node of a
    :class:`~repro.shard.backend.ShardedBackend`, in place.

    Chained declustering puts copy ``k`` of slot ``s`` on roster node
    ``(s + k) % N``, so killing a node means failing several slots'
    copies at once; the returned wrappers all carry ``node`` so every
    injected fault charges that node's breaker.
    """
    return [_wrap(backend, node, copy, schedule)
            for copy in range(len(backend.grid[node]))]
