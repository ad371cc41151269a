"""``repro.sched`` — the heterogeneous multi-device scheduler ("HET").

The paper's §7 future work, second item: after making single-device
operators hardware-oblivious, "distribute operators across multiple
devices", with placement driven by automatically generated device
profiles.  This package owns *both* simulated devices at once and
schedules one MAL plan across them.  (Where it sits in the stack:
ARCHITECTURE.md §"repro.sched"; the serving layer that multiplexes
whole *queries* over it is :mod:`repro.serve`.)

Placement policy (:class:`~repro.sched.placer.CostPlacer`)
----------------------------------------------------------

For every dispatched instruction the placer scores each device with

``predicted run time (measured characteristics) + transfer cost of
non-resident operands + wake-up charge``

and picks the minimum:

* **measured profiles** — at pool construction every device is probed
  by :func:`repro.ocelot.autotune.autotune`; the resulting
  :class:`~repro.ocelot.autotune.DeviceCharacteristics` (streaming and
  gather rates, host-link bandwidth and latency, launch overhead,
  memory capacity) are the *only* device knowledge the scheduler uses —
  it never reads a device's cost model directly, which is what keeps
  the policy hardware-oblivious;
* **data gravity** — the transfer term prices moving each operand to
  the candidate device *now*: zero if the operand is homed there (live,
  offloaded or evicted-but-restorable), a host upload if it is a cold
  intermediate, a read-back *plus* upload if it lives on the other
  device, and zero for persistent base columns (their upload is paid
  once and amortised across queries, paper §5 protocol).  Chains of
  operators therefore stay on the device holding their intermediates,
  and cold host data flows to the zero-copy CPU unless the work is
  large enough to amortise the PCIe hop;
* **wake-up charges** — a device that has not yet run anything in this
  query still owes its fixed per-query framework cost (the Intel SDK's
  ~0.6 s, §5.3.2); adding it to the score keeps cheap instructions from
  dragging that intercept into a query that otherwise runs entirely on
  the GPU;
* **capacity** — placements whose working set exceeds a fraction of the
  device's memory are scored infeasible, so "GPU line ends at 2 GB"
  becomes "the scheduler stops considering the GPU".

Partitioned fan-out (:mod:`~repro.sched.partition`)
---------------------------------------------------

Row-independent operators (element-wise calc, selections, grouped
aggregation partials — :data:`repro.monetdb.ops.ROW_INDEPENDENT`)
are additionally offered to the fan-out
planner: the input oid-range is split across devices proportionally to
measured throughput (a water-filling balance that accounts for each
device's fixed launch/sync cost), capped by memory capacity, executed
on the devices' *own* queues concurrently, and merged on the host
(concatenation for values, offset-merge for oid lists, partial-fold for
grouped aggregates).  The split is chosen only when its predicted
makespan beats the best single device by a safety margin — the
single-device plan is always in the feasible set, so HET never
schedules a predictably worse plan — *or* when nothing fits any single
device, which is how HET keeps scaling past the GPU's 2 GB limit
(fig. 8).

Execution mechanics
-------------------

* :class:`~repro.sched.pool.DevicePool` — one
  :class:`~repro.ocelot.engine.OcelotEngine` per device over the shared
  catalog; cross-device BAT migration through the host with a clock
  join at the hand-over (the dynamic equivalent of a rewriter-inserted
  sync boundary); the catalog's cached slices so fan-out enjoys hot
  device caches; per-queue makespan joins — global for one-query-at-a-time
  execution, *session-scoped* when the serve layer interleaves queries
  (each session carries its own floors, see
  :meth:`repro.cl.queue.CommandQueue.advance_session_to`);
* :class:`~repro.sched.backend.HeterogeneousBackend` — the fifth engine
  configuration (``db.connect("HET")``): routes
  every ``ocelot.*`` instruction through the placer, keeps per-query
  scheduling state per session, charges framework overheads per device
  on first use, runs ``ocelot.sync`` on the device homing the operand,
  and falls back to embedded sequential MonetDB for unsupported
  operators (mixed execution, §3.2).

``examples/heterogeneous.py`` walks the three regimes (small data rides
the GPU; data gravity keeps chains together; fan-out scales past device
memory) and ``examples/concurrency.py`` adds the serving layer on top.
"""

from .backend import HeterogeneousBackend
from .placer import CostPlacer, Placement
from .pool import DevicePool
from .stats import SelectivityStats

__all__ = [
    "CostPlacer",
    "DevicePool",
    "HeterogeneousBackend",
    "Placement",
    "SelectivityStats",
]
