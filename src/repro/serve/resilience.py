"""Circuit breakers for the serving tier.

One :class:`CircuitBreaker` guards one *node* — a shard, a device, or
a whole single-node backend — and trips after repeated failures so the
serving layer stops sending work to it ("open"), probes it again after
a cooldown ("half-open"), and resumes once a probe succeeds
("closed").  A :class:`BreakerBoard` holds the breakers of one backend,
keyed by node identity.

Everything here is deterministic: the breaker clock is a query
counter, advanced by :meth:`BreakerBoard.tick` at query boundaries,
not wall time — the simulation has no real clock, and tests must be
able to script trip/recover sequences exactly.

This module is deliberately dependency-free: every
:class:`~repro.monetdb.interpreter.Backend` creates its board (the
``health`` capability) in its constructor.
"""

from __future__ import annotations


class CircuitOpen(RuntimeError):
    """The target node's breaker is open; the request was not admitted."""


#: consecutive failures that trip a closed breaker
DEFAULT_THRESHOLD = 3
#: query-boundary ticks an open breaker waits before allowing a probe
DEFAULT_COOLDOWN = 4


class CircuitBreaker:
    """Three-state (closed / open / half-open) failure gate for one node."""

    def __init__(self, name, threshold: int = DEFAULT_THRESHOLD,
                 cooldown: int = DEFAULT_COOLDOWN):
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"
        self.failures = 0          # consecutive, reset on success
        self.trips = 0             # lifetime trip count
        self._clock = 0
        self._opened_at = 0
        self._backoff = cooldown

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name!r}, {self.state}, "
                f"failures={self.failures})")

    def allow(self) -> bool:
        """Whether the node may receive work right now."""
        return self.state != "open"

    def tick(self) -> None:
        """Advance the breaker clock one query boundary; promote an
        open breaker to half-open (one probe allowed) after cooldown."""
        self._clock += 1
        if self.state == "open" and \
                self._clock - self._opened_at >= self._backoff:
            self.state = "half-open"
            self.failures = 0

    def record_failure(self) -> bool:
        """Count one failure; returns True iff the breaker just tripped."""
        self.failures += 1
        if self.state == "half-open":
            # the probe failed: back off twice as long before retrying
            self._trip(escalate=True)
            return True
        if self.state == "closed" and self.failures >= self.threshold:
            self._trip()
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        if self.state == "half-open":
            self.state = "closed"
            self._backoff = self.cooldown

    def _trip(self, escalate: bool = False) -> None:
        self.state = "open"
        self.trips += 1
        self._opened_at = self._clock
        if escalate:
            self._backoff *= 2
        self.failures = 0


class BreakerBoard:
    """The circuit breakers of one backend, keyed by node identity."""

    def __init__(self, threshold: int = DEFAULT_THRESHOLD,
                 cooldown: int = DEFAULT_COOLDOWN):
        self.threshold = threshold
        self.cooldown = cooldown
        self._breakers: dict = {}

    def breaker(self, node) -> CircuitBreaker:
        found = self._breakers.get(node)
        if found is None:
            found = CircuitBreaker(node, self.threshold, self.cooldown)
            self._breakers[node] = found
        return found

    def __iter__(self):
        return iter(self._breakers.values())

    def __len__(self) -> int:
        return len(self._breakers)

    def tick(self) -> None:
        for breaker in self._breakers.values():
            breaker.tick()

    def admit(self, label: str) -> None:
        """Raise :class:`CircuitOpen` when the backend as a whole
        refuses work: its own breaker (key ``"self"``, charged by
        failures no node can be blamed for) is open."""
        breaker = self._breakers.get("self")
        if breaker is not None and not breaker.allow():
            raise CircuitOpen(
                f"backend {label!r} circuit breaker is open "
                f"(trips={breaker.trips})"
            )

    def record_success(self) -> None:
        """A query completed cleanly: every node that served it (i.e.
        every non-open breaker) counts a success."""
        for breaker in self._breakers.values():
            if breaker.state != "open":
                breaker.record_success()

    def open_nodes(self) -> list:
        return [b.name for b in self._breakers.values()
                if b.state == "open"]

    def counters(self) -> dict:
        """``<node>.state`` / ``.trips`` / ``.failures`` per breaker
        (the ``breaker.*`` metrics namespace)."""
        out = {}
        for breaker in self._breakers.values():
            out[f"{breaker.name}.state"] = breaker.state
            out[f"{breaker.name}.trips"] = breaker.trips
            out[f"{breaker.name}.failures"] = breaker.failures
        return out

