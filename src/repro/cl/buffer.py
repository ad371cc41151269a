"""``cl_mem``-style device buffers.

A :class:`Buffer` owns a numpy array standing in for device-resident
storage, plus the per-buffer event registry the paper describes in §3.4:
*producer* events are tied to operations writing the buffer, *consumer*
events to operations reading it.  New commands wait on the producers of
their inputs (and, to order write-after-read, on the consumers of their
outputs); the Memory Manager consults consumers to decide when a buffer can
safely be discarded.

Buffer sizes are accounted in **nominal bytes** (actual bytes times the
context's ``data_scale``), so that device-capacity effects — eviction,
offloading, out-of-memory — trigger at the paper's data volumes even when
benchmarks run on proportionally smaller arrays (DESIGN.md §2).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .errors import DeviceLost
from .event import Event, latest_end

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context

_buffer_ids = itertools.count(1)


class Buffer:
    """A device-resident memory object holding a typed array."""

    __slots__ = (
        "buffer_id", "context", "_array", "tag", "nominal_nbytes", "_dtype",
        "_size", "_nbytes", "producer_events", "consumer_events",
        "_released",
    )

    def __init__(self, context: "Context", array: np.ndarray, tag: str,
                 nominal_nbytes: int):
        """Only :meth:`Context.create_buffer` makes buffers: it hands in a
        C-contiguous ``array`` and its nominal size, which it has already
        charged against the device's capacity."""
        self.buffer_id = buffer_id = next(_buffer_ids)
        self.context = context
        self._array: np.ndarray | None = array
        self.tag = tag or f"buf{buffer_id}"
        self.nominal_nbytes = nominal_nbytes
        # metadata survives release/offload (host code may still inspect
        # the shape of an offloaded buffer before restoring it)
        self._dtype = array.dtype
        self._size = array.size
        self._nbytes = array.nbytes
        # Event registry (paper §3.4).
        self.producer_events: list[Event] = []
        self.consumer_events: list[Event] = []
        self._released = False

    # -- data access -------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The device-side contents.  Only kernels and transfer commands
        should touch this; host code goes through ``enqueue_read``."""
        if self._released or self._array is None:
            raise DeviceLost(f"buffer {self.tag!r} was released")
        return self._array

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def size(self) -> int:
        """Element count."""
        return self._size

    @property
    def nbytes(self) -> int:
        """Actual (in-process) byte size."""
        return self._nbytes

    @property
    def released(self) -> bool:
        return self._released

    # -- event registry ------------------------------------------------------

    def record_producer(self, event: Event) -> None:
        """Register ``event`` as the (new) producer of this buffer.

        A write defines fresh contents; earlier producer/consumer events
        are superseded and dropped from the registry.
        """
        self.producer_events = [event]
        self.consumer_events = []

    def record_consumer(self, event: Event) -> None:
        """Register ``event`` as a reader of the current contents.

        Readers that end no later than ``event`` are dropped: a later
        write waits for the latest reader only, and a long-lived buffer
        (a cached base column, a cached join table) would otherwise
        collect one event per query for ever.
        """
        consumers = self.consumer_events
        if consumers:
            t_end = event.t_end
            self.consumer_events = consumers = [
                e for e in consumers if e.t_end > t_end
            ]
        consumers.append(event)

    def forget_events(self) -> None:
        """Empty the registry.  The queue calls this once it has joined
        its timelines past every registered event (``finish``): a buffer
        that is never touched again must not keep its last events alive."""
        self.producer_events = []
        self.consumer_events = []

    def last_write(self) -> float:
        """Simulated time at which the current contents are complete:
        the earliest a command reading this buffer may start."""
        return latest_end(self.producer_events)

    def last_activity(self) -> float:
        """Simulated time at which the last registered operation ends:
        the earliest a command writing this buffer may start."""
        return max(latest_end(self.producer_events),
                   latest_end(self.consumer_events))

    # -- lifecycle ---------------------------------------------------------

    def release(self) -> None:
        """Free the device allocation.  Idempotent."""
        if not self._released:
            self._released = True
            self._array = None
            self.context._on_buffer_released(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else f"{self.nominal_nbytes}B nominal"
        return f"<Buffer #{self.buffer_id} {self.tag!r} {state}>"
