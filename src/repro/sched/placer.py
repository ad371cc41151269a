"""Cost-based placement: which device — or which split — runs an op.

For every MAL instruction the placer scores each device with the
measured-characteristics estimate of the operator's run time *plus* the
transfer cost of operands not already resident there — data gravity is a
first-class scheduling input, so chains of operators naturally stay on
the device holding their intermediates, and cold host data flows to the
zero-copy CPU unless the work is large enough to amortise the PCIe hop.

Row-independent operators (selection, element-wise calc, grouped
aggregation partials — see
:data:`repro.monetdb.ops.ROW_INDEPENDENT`) are additionally
offered to the **fan-out planner**: the input oid-range is split across
devices proportionally to their measured throughput (a water-filling
balance that accounts for each device's fixed launch/sync cost), capped
by device-memory capacity, and the split is chosen only when its
predicted makespan beats the best single device by a safety margin (the
planner always has the single-device plan in its feasible set, so HET
never schedules a predictably worse plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cl import GB
from ..monetdb.bat import BAT
from ..monetdb.ops import ROW_INDEPENDENT, class_of
from .costs import (
    EST_SELECTIVITY,
    bat_nominal_bytes,
    shape_seconds,
    shapes_of,
)
from .pool import DevicePool
from .stats import SelectivityStats

#: a split must beat the best single device by this factor to be chosen
#: (absorbs estimation error so HET stays <= min(CPU, GPU))
SPLIT_MARGIN = 0.9

#: keep the previous split boundaries while their predicted makespan is
#: within this factor of the fresh optimum — base-column slices stay hot
#: in the device caches only if the boundaries stay put, and that
#: amortisation (which plan_split deliberately does not price) is worth
#: more than a few percent of predicted balance
SPLIT_STICKINESS = 1.25

#: never plan more device-resident bytes than this fraction of capacity
MEMORY_FRACTION = 0.7

#: fan-out needs at least this many actual rows per participating device
MIN_SPLIT_ROWS = 64


@dataclass
class Placement:
    """The placer's decision for one instruction."""

    device: int                                   # best single device
    predicted_s: float
    #: fan-out plan: (device index, lo row, hi row) per participant;
    #: ``None`` means run whole on ``device``
    split: list[tuple[int, int, int]] | None = None


class CostPlacer:
    """Scores devices and plans fan-outs for one :class:`DevicePool`.

    ``stats`` carries observed per-(column, op) selectivities fed back
    by the backend after every selection; the fan-out planner prices a
    split's download/merge legs with the learned value instead of the
    fixed 15 % guess (which blocks profitable splits of selective
    predicates at large sizes, fig. 8a)."""

    def __init__(self, pool: DevicePool,
                 stats: SelectivityStats | None = None):
        self.pool = pool
        self.stats = stats if stats is not None else SelectivityStats()
        #: devices routed around by a tripped circuit breaker (the
        #: backend's ``note_node_failure``): scored infinite, excluded
        #: from fan-out plans, unbanned when the breaker cools down
        self.banned: set[int] = set()
        #: (function, column tag, n) -> last chosen fan-out boundaries
        self._split_memo: dict[tuple, list] = {}

    def _selectivity(self, function: str, args) -> float:
        bats = [a for a in args if isinstance(a, BAT)]
        if not bats:
            return EST_SELECTIVITY
        return self.stats.estimate(
            bats[0].tag, function, EST_SELECTIVITY
        )

    # -- single-device scoring ------------------------------------------------

    def _operands(self, args) -> list[tuple[BAT, float, int | None]]:
        """``(bat, nominal bytes, home device)`` per BAT operand: what
        every device's score reads, found once per instruction."""
        pool = self.pool
        scale = pool.data_scale
        return [(a, bat_nominal_bytes(a, scale), pool.home_of(a))
                for a in args if isinstance(a, BAT)]

    def operand_transfer_s(self, bat: BAT, nbytes: float, home: int | None,
                           device: int) -> float:
        """Cost of making one operand consumable on ``device`` now."""
        if home == device:
            return 0.0
        pool = self.pool
        chars = pool.characteristics[device]
        if home is not None and not bat.has_host_values:
            # homed on the other device (resident or offloaded there):
            # read back / restore there, then upload here
            src = pool.characteristics[home]
            return src.transfer_seconds(nbytes) + chars.transfer_seconds(
                nbytes
            )
        if pool.engines[device].memory.has_resident(bat):
            return 0.0
        if bat.is_base:
            # persistent columns stay hot in the device cache across
            # queries (paper §5 protocol); their one-time upload is paid
            # on the real timeline but not held against the placement
            return 0.0
        return chars.transfer_seconds(nbytes)

    def score_single(self, shape, operands, device: int) -> float:
        """Predicted seconds of ``shape`` whole on ``device``, operand
        transfers included (``operands`` as :meth:`_operands`)."""
        if device in self.banned:
            return float("inf")
        chars = self.pool.characteristics[device]
        if chars.global_mem_bytes:
            budget = MEMORY_FRACTION * chars.global_mem_bytes
            need = shape.out_bytes + sum(
                nbytes for _bat, nbytes, _home in operands
            )
            if need > budget:
                return float("inf")
        t = shape_seconds(chars, shape)
        for bat, nbytes, home in operands:
            t += self.operand_transfer_s(bat, nbytes, home, device)
        return t

    # -- fan-out planning --------------------------------------------------------

    def _splittable(self, function: str, args) -> bool:
        cls = class_of(function)
        if function == "pipe":
            # fused regions stay element-wise per row, so pure-value
            # pipes fan out like any batcalc; a fused *selection*
            # output is device-shaped (bitmap) and is placed whole
            if any(o.is_select for o in args[0].outputs):
                return False
        elif cls not in ROW_INDEPENDENT:
            return False
        if len(self.pool) - len(self.banned) < 2:
            return False
        if cls == "select" and len(args) > 1 and args[1] is not None:
            return False   # candidate-constrained selections stay whole
        bats = [a for a in args if isinstance(a, BAT)]
        if not bats:
            return False
        n = bats[0].count
        if n < 2 * MIN_SPLIT_ROWS:
            return False
        for b in bats:
            if not b.has_host_values or b.count != n:
                return False
        return True

    def plan_split(self, function: str, args, shapes,
                   charged: frozenset = frozenset()
                   ) -> tuple[list, float, float] | None:
        """Water-filling shares + predicted makespan, or ``None``.

        ``shapes`` holds the operator's shape on each device.  Returns
        ``(plan, with_wake_s, work_s)``: the makespan including the
        wake-up cost of still-idle devices, and the pure-work makespan
        used for the margin test (wake costs are step functions that
        would distort a multiplicative margin).
        """
        pool = self.pool
        scale = pool.data_scale
        bats = [a for a in args if isinstance(a, BAT)]
        n = bats[0].count
        bytes_per_row = sum(b.dtype.itemsize for b in bats) * scale

        # per-row downloaded partial bytes and merged host bytes by class
        cls = class_of(function)
        if cls == "select":
            selectivity = self._selectivity(function, args)
            down_per_row = 4.0 * selectivity * scale
            merge_bytes = selectivity * n * 4.0 * scale
        elif cls == "grouped_agg":
            down_per_row = 0.0     # partials are ngroups-wide
            merge_bytes = 0.0      # folded below via the shape's out
        elif function == "pipe":
            # every live output of the fused region comes back per row
            down_per_row = 4.0 * len(args[0].outputs) * scale
            merge_bytes = n * down_per_row
        else:
            down_per_row = 4.0 * scale
            merge_bytes = n * 4.0 * scale

        rates, fixed, wake, caps = [], [], [], []
        for idx, engine in enumerate(pool.engines):
            chars = pool.characteristics[idx]
            shape = shapes[idx]
            var_s = shape_seconds(chars, shape) \
                - shape.launches * chars.launch_overhead_s
            per_row = max(var_s / n, 1e-15)
            # the partial result comes back over the host link
            if down_per_row and math.isfinite(chars.transfer_gbs):
                per_row += down_per_row / (chars.transfer_gbs * GB)
            rates.append(per_row)
            fix = (shape.launches + 4) * chars.launch_overhead_s \
                + 2 * chars.transfer_latency_s
            if cls == "grouped_agg":
                fix += chars.transfer_seconds(shape.out_bytes)
                merge_bytes = max(merge_bytes, shape.out_bytes)
            fixed.append(fix)
            # fanning out to a still-idle device wakes it: its fixed
            # per-query framework cost lands on this instruction
            wake.append(
                0.0 if idx in charged
                else engine.device.profile.framework_overhead_s
            )
            if idx in self.banned:
                caps.append(0)
            elif chars.global_mem_bytes:
                caps.append(int(
                    MEMORY_FRACTION * chars.global_mem_bytes / bytes_per_row
                ))
            else:
                caps.append(n)

        shares = _water_fill(n, rates, fixed, caps)
        if shares is None or sum(1 for x in shares if x > 0) < 2:
            return None

        # contiguous bounds in device order
        plan, lo = [], 0
        for idx, rows in enumerate(shares):
            if rows <= 0:
                continue
            hi = min(n, lo + rows)
            plan.append((idx, lo, hi))
            lo = hi
        if lo < n and plan:
            idx, plo, _ = plan[-1]
            plan[-1] = (idx, plo, n)

        work_span, wake_span = self._plan_spans(
            plan, bats, rates, fixed, wake, scale
        )

        # sticky boundaries: a re-balance (e.g. after a selectivity
        # observation shifted the rates) that predicts only marginally
        # better must not move the cut points — moving them invalidates
        # every device-cached base-column slice, a real re-upload the
        # prediction deliberately amortises away
        memo_key = (function, bats[0].tag, n)
        previous = self._split_memo.get(memo_key)
        if previous is not None and previous != plan \
                and all(phi - plo <= caps[idx]
                        for idx, plo, phi in previous):
            prev_work, prev_wake = self._plan_spans(
                previous, bats, rates, fixed, wake, scale
            )
            if prev_work <= work_span * SPLIT_STICKINESS:
                plan, work_span, wake_span = previous, prev_work, prev_wake
        self._split_memo[memo_key] = plan

        merge_s = pool.merge_seconds(merge_bytes)
        return plan, wake_span + merge_s, work_span + merge_s

    def _plan_spans(self, plan, bats, rates, fixed, wake, scale
                    ) -> tuple[float, float]:
        """Predicted makespan of one fan-out plan, charging uploads per
        operand for not-yet-cached slices (base-column slices stay hot
        across runs, like whole columns; intermediates pay every time)."""
        pool = self.pool
        work_span, wake_span = 0.0, 0.0
        for idx, plo, phi in plan:
            chars = pool.characteristics[idx]
            rows = phi - plo
            t = fixed[idx] + rates[idx] * rows
            for b in bats:
                if not b.is_base and not pool.slice_cached_on(
                        b, plo, phi, idx):
                    t += chars.transfer_seconds(
                        rows * b.dtype.itemsize * scale
                    )
            work_span = max(work_span, t)
            wake_span = max(wake_span, t + wake[idx])
        return work_span, wake_span

    # -- the decision -----------------------------------------------------------

    def choose(self, function: str, args,
               charged: frozenset = frozenset()) -> Placement:
        """Pick the cheapest plan; ``charged`` lists devices whose fixed
        per-query framework cost the running query has already paid —
        waking a still-idle device adds its overhead to the score, so
        zero-cost instructions never drag the Intel SDK's ~1 s intercept
        into a query that otherwise runs entirely on the GPU."""
        pool = self.pool
        count = len(pool)
        shapes = shapes_of(function, args, pool.data_scale, pool.engines)
        operands = self._operands(args)
        work = [
            self.score_single(shapes[idx], operands, idx)
            for idx in range(count)
        ]
        totals = []
        for idx in range(count):
            extra = 0.0
            if idx not in charged:
                extra = pool.engines[idx].device.profile \
                    .framework_overhead_s
            totals.append(work[idx] + extra)
        best = min(range(count), key=totals.__getitem__)
        decision = Placement(device=best, predicted_s=totals[best])
        if self._splittable(function, args):
            planned = self.plan_split(function, args, shapes, charged)
            if planned is not None:
                plan, with_wake, work_only = planned
                if ((work_only < SPLIT_MARGIN * work[best]
                        and with_wake < totals[best])
                        or totals[best] == float("inf")):
                    # a predicted-cheaper split — or nothing fits whole
                    # anywhere, so fan out regardless of margin
                    decision.split = plan
                    decision.predicted_s = with_wake
        return decision


def _water_fill(n: int, rates, fixed, caps) -> list[int] | None:
    """Balance ``max_d(fixed_d + rate_d * x_d)`` subject to ``sum x = n``.

    Devices whose fixed cost exceeds the balanced finish time are dropped
    (their marginal benefit cannot pay for their overhead); capacity caps
    push overflow onto the remaining devices.
    """
    active = [i for i in range(len(rates)) if caps[i] > 0]
    while active:
        inv = sum(1.0 / rates[i] for i in active)
        t = (n + sum(fixed[i] / rates[i] for i in active)) / inv
        drop = [i for i in active if t <= fixed[i]]
        if not drop:
            break
        active = [i for i in active if i not in drop]
    if not active:
        return None
    shares = [0] * len(rates)
    for i in active:
        shares[i] = int((t - fixed[i]) / rates[i])
    # memory caps, overflow to the least-loaded remaining device
    overflow = 0
    for i in active:
        if shares[i] > caps[i]:
            overflow += shares[i] - caps[i]
            shares[i] = caps[i]
    assigned = sum(shares)
    remainder = n - assigned
    if remainder > 0:
        order = sorted(
            active, key=lambda i: fixed[i] + rates[i] * shares[i]
        )
        for i in order:
            room = caps[i] - shares[i]
            take = min(room, remainder)
            shares[i] += take
            remainder -= take
            if remainder <= 0:
                break
        if remainder > 0:
            return None   # does not fit anywhere
    elif remainder < 0:
        for i in active:
            cut = min(shares[i], -remainder)
            shares[i] -= cut
            remainder += cut
            if remainder >= 0:
                break
    return shares
