"""A fixed unit of host work, timed between ops, that says how fast the
machine is running right now.

The sandbox this benchmark runs in shares its cores: the same code runs
up to 1.4x slower for tens of seconds at a time (measured with this
unit: 5-second medians between 0.8x and 1.2x of the session median, with
``wall / cpu`` near 1, so it is slower execution, not lost time slices).
Ten runs of one commit then spread by 20-35 % — wider than any bound the
benchmark could fix.  The slow-downs are slow compared with an op and
hit this unit as they hit the program (correlation 0.94-0.97 per run),
so host times are reported **at reference speed**: each timed interval
is multiplied by ``REFERENCE_UNIT_S / (median of the last units)``.

The unit does what the program does, in fixed amounts and with code that
never changes with the program: interpreter dispatch and small-object
allocation, pointer chasing over a heap larger than the L2 cache, numpy
kernels over cache-sized columns and a pass over a column that is not.
Pure interpreter work slows down more than the program under contention
and the numpy parts less; the mix (about a third interpreter time) was
chosen so the unit and the program slow down alike.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: one unit on the machine the baseline in perf/README.md was taken on,
#: running undisturbed; calibrated times are times on *that* machine
REFERENCE_UNIT_S = 0.0060

_HEAP_NODES = 50_000
_COLUMN_ROWS = 100_000
_BIG_ROWS = 500_000


class _Node:
    __slots__ = ("key", "value", "next")


def _plus(x):
    return x + 1


def _pair(x):
    return (x, x)


def _boxed(x):
    return {"v": x}


def _tripled(x):
    return [x] * 3


def _text(x):
    return str(x)


def _folded(x):
    return x % 7


_DISPATCH = dict(enumerate((_plus, _pair, _boxed, _tripled, _text, _folded)))


class Calibrator:
    """Owns the unit's data (about 8 MB) and runs it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        nodes = [_Node() for _ in range(_HEAP_NODES)]
        order = rng.permutation(_HEAP_NODES)
        for position, index in enumerate(order):
            node = nodes[index]
            node.key = int(index)
            node.value = 0.0
            node.next = nodes[order[(position + 1) % _HEAP_NODES]]
        self._cursor = nodes[0]
        self._column = rng.random(_COLUMN_ROWS).astype(np.float32)
        self._positions = rng.integers(0, _COLUMN_ROWS, _COLUMN_ROWS)
        self._big = rng.random(_BIG_ROWS).astype(np.float32)

    def unit(self) -> float:
        """Run the unit once; its host seconds.

        The garbage collector is off for the duration: the unit's
        allocations would otherwise advance the collector's counters
        and buy the program full collections (75-170 ms each on a
        workload's heap) that it would not have had."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._unit()
        finally:
            if enabled:
                gc.enable()

    def _unit(self) -> float:
        started = time.perf_counter()
        count = len(_DISPATCH)
        made = [_DISPATCH[i % count](i) for i in range(7000)]
        node, total = self._cursor, len(made)
        for _ in range(5000):
            total += node.key
            node.value = total * 0.5
            node = node.next
        self._cursor = node
        column = self._column
        for _ in range(2):
            scaled = column * 1.5 + column
            kept = scaled[scaled > 1.0]
            np.cumsum(column[self._positions])
        total += int((self._big * 2.0 + 1.0 > 1.5).sum()) + kept.size
        return time.perf_counter() - started
