"""The OpenCL event model (simulated).

Events are the backbone of Ocelot's lazy execution model (paper §3.4):
operators only *schedule* kernels and transfers; ordering constraints are
the producer and consumer events each buffer registers
(:class:`~repro.cl.buffer.Buffer`), so independent work can overlap.
In this simulation, results are computed eagerly (numpy), so an event
is complete when it is created; what it carries is its place on the
*simulated timeline* — submit / start / end timestamps, like
``CL_PROFILING_COMMAND_*`` — derived from the dependency graph and the
device cost model, including transfer/compute overlap.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable


class CommandType(enum.Enum):
    KERNEL = "kernel"
    WRITE_BUFFER = "write_buffer"
    READ_BUFFER = "read_buffer"
    COPY_BUFFER = "copy_buffer"
    MARKER = "marker"


_event_ids = itertools.count(1)


class Event:
    """Record of one enqueued command, complete when created.

    Attributes
    ----------
    t_submit, t_start, t_end:
        Simulated timestamps in seconds on the queue's timeline.

    An event holds no reference to the events it waited for: they only
    bound ``t_start``, which the queue computes when it schedules the
    command, so a finished command's ancestors are free to be collected.
    """

    __slots__ = (
        "event_id",
        "command_type",
        "label",
        "t_submit",
        "t_start",
        "t_end",
        "engine",
    )

    def __init__(self, command_type: CommandType, label: str):
        self.event_id = next(_event_ids)
        self.command_type = command_type
        self.label = label
        self.t_submit = 0.0
        self.t_start = 0.0
        self.t_end = 0.0
        self.engine = ""

    @property
    def duration(self) -> float:
        """Simulated execution seconds (``end - start``)."""
        return self.t_end - self.t_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Event #{self.event_id} {self.command_type.value} {self.label!r} "
            f"[{self.t_start * 1e3:.3f}ms..{self.t_end * 1e3:.3f}ms]>"
        )


def latest_end(events: Iterable[Event]) -> float:
    """Largest simulated end time among ``events`` (0.0 when empty)."""
    latest = 0.0
    for event in events:
        if event.t_end > latest:
            latest = event.t_end
    return latest
