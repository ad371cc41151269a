"""The load generator, the measured loop, and the metrics made from it.

Two clocks, always named: **host** time is ``time.perf_counter`` around
a public API call (what a user of this Python system waits for), brought
to reference speed (see :mod:`.calibrate`); **simulated** time is
``QueryResult.elapsed`` (the paper's figures — it is deterministic and
must repeat exactly for one seed).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .calibrate import REFERENCE_UNIT_S

_clock = time.perf_counter

#: host seconds between two calibration units (a unit takes about 5 ms)
CALIBRATE_EVERY_S = 0.06
#: units whose median is the machine's current speed
CALIBRATION_WINDOW = 5


def reference_speed(units) -> float:
    """Factor that brings a host time taken while the calibration unit
    ran in ``units`` seconds to reference speed."""
    return REFERENCE_UNIT_S / statistics.median(units)


class LoadGenerator:
    """Closed loop, one client, one thread: issues one API call at a
    time, times it on the host clock, and checks its result outside the
    timed interval.  ``busy`` is the host time spent inside API calls —
    the generator's own time (building statements, checking) is not on
    it, so latencies taken as differences of ``busy`` exclude it.

    With a ``calibrator``, a calibration unit runs between ops whenever
    the last one is ``CALIBRATE_EVERY_S`` old, and ``busy`` advances at
    reference speed; ``raw_busy`` is the same clock as measured."""

    def __init__(self, calibrator=None, recorder=None):
        self.calibrator = calibrator
        self.recorder = recorder
        #: every calibration unit taken, in host seconds
        self.units: list[float] = []
        self._recent: deque = deque(maxlen=CALIBRATION_WINDOW)
        self._calibrated_at = 0.0
        self._speed = 1.0
        self.raw_busy = 0.0
        self.kind: list[str] = []
        self.wall: list[float] = []
        self.sim: list[float] = []
        self.pass_of: list[int] = []
        self.pass_index = 0
        self.busy = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self._begun = 0

    @property
    def attempted(self) -> int:
        return len(self.kind)

    def calibrate(self, units: int = 1) -> None:
        for _ in range(units):
            seconds = self.calibrator.unit()
            self.units.append(seconds)
            self._recent.append(seconds)
        self._speed = reference_speed(self._recent)
        self._calibrated_at = _clock()

    def _timed(self, op_id: int, fn, args, kwargs):
        """``(result, raised)`` of one API call, its time added to
        ``busy``.  An op that raises is a failed op, not the end of the
        run, so every exception is caught and kept for the report."""
        if (self.calibrator is not None
                and _clock() - self._calibrated_at > CALIBRATE_EVERY_S):
            self.calibrate()
        recorder = self.recorder
        if recorder is not None:
            recorder.op_id = op_id
        raised = False
        result = None
        started = _clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            raised = True
            if len(self.errors) < 5:
                self.errors.append(f"{type(error).__name__}: {error}")
        seconds = _clock() - started
        self.raw_busy += seconds
        self.busy += seconds * self._speed
        if recorder is not None:
            recorder.op_id = -1
        return result, raised

    def _record(self, kind: str, wall: float, result, raised: bool,
                check) -> None:
        ok = not raised and (check is None or bool(check(result)))
        if not ok:
            self.failed += 1
            if not raised and len(self.errors) < 5:
                self.errors.append(f"{kind}: result differs from reference")
        self.kind.append(kind)
        self.wall.append(wall)
        self.sim.append(float(getattr(result, "elapsed", 0.0)))
        self.pass_of.append(self.pass_index)

    def op(self, kind: str, fn, *args, check=None, **kwargs):
        """One synchronous op: a single API call."""
        before = self.busy
        op_id, self._begun = self._begun, self._begun + 1
        result, raised = self._timed(op_id, fn, args, kwargs)
        self._record(kind, self.busy - before, result, raised, check)

    def begin(self, kind: str, submit, *args, **kwargs):
        """First half of an asynchronous op: ``submit()``."""
        before = self.busy
        op_id, self._begun = self._begun, self._begun + 1
        future, raised = self._timed(op_id, submit, args, kwargs)
        return kind, op_id, before, future, raised

    def finish(self, pending, check) -> None:
        """Second half: ``result()``.  The op's latency runs from the
        start of its ``submit()`` to the return of its ``result()``."""
        kind, op_id, before, future, raised = pending
        result = None
        if not raised:
            result, raised = self._timed(op_id, future.result, (), {})
        self._record(kind, self.busy - before, result, raised, check)


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _live_objects() -> "tuple[int, int]":
    """``(gc-tracked objects, simulated cl events among them)``."""
    from repro.cl.event import Event

    objects = gc.get_objects()
    return len(objects), sum(1 for item in objects if type(item) is Event)


@dataclass
class Phase:
    """One measured loop and what was read around it."""

    gen: LoadGenerator
    #: host seconds of each pass: as measured (the time box runs on it),
    #: and inside API calls at reference speed
    pass_wall: list = field(default_factory=list)
    pass_busy: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_growth_mb: float = 0.0
    peak_rss_fixed_mb: float = 0.0
    objects_growth: int = 0
    events_growth: int = 0
    #: ``Connection.metrics.diff`` over the loop, and the snapshot after
    counters: dict = field(default_factory=dict)
    snapshot: dict = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return len(self.pass_wall)


def run_phase(workload, gen: LoadGenerator, seconds: float, first_pass: int,
              min_passes: int, exact_passes: "int | None" = None) -> Phase:
    """Run whole passes for ``seconds`` of host time: at least
    ``min_passes``, then for as long as one more pass of the length of
    the last still fits.  ``exact_passes`` replaces the time box."""
    phase = Phase(gen)
    metrics = workload.con.metrics
    if gen.calibrator is not None:
        gen.calibrate(CALIBRATION_WINDOW)
    gc.collect()
    objects, events = _live_objects()
    before = metrics.snapshot()
    rss = _current_rss_mb()
    cpu = time.process_time()
    loop_started = _clock()
    while True:
        gen.pass_index = phase.passes
        started, busy = _clock(), gen.busy
        workload.run_pass(first_pass + phase.passes, gen)
        phase.pass_wall.append(_clock() - started)
        phase.pass_busy.append(gen.busy - busy)
        if phase.passes == min_passes:
            phase.peak_rss_fixed_mb = _peak_rss_mb()
        if exact_passes is not None:
            if phase.passes >= exact_passes:
                break
        elif phase.passes >= min_passes and (
            _clock() - loop_started + phase.pass_wall[-1] > seconds
        ):
            break
    phase.wall_s = _clock() - loop_started
    phase.cpu_s = time.process_time() - cpu
    phase.rss_growth_mb = _current_rss_mb() - rss
    phase.snapshot = metrics.snapshot()
    phase.counters = metrics.diff(before, phase.snapshot)
    gc.collect()
    objects_after, events_after = _live_objects()
    phase.objects_growth = objects_after - objects
    phase.events_growth = events_after - events
    return phase


# -- end-to-end metrics -------------------------------------------------------

def _medians_by_kind(gen: LoadGenerator) -> "dict[str, float]":
    wall_ms = np.asarray(gen.wall) * 1e3
    kinds = np.asarray(gen.kind)
    return {
        kind: float(np.median(wall_ms[kinds == kind]))
        for kind in dict.fromkeys(gen.kind)
    }


def end_to_end(phase: Phase, fixed_passes: int, setup_s: float) -> dict:
    gen = phase.gen
    wall_ms = np.asarray(gen.wall) * 1e3
    medians = _medians_by_kind(gen)
    fixed = np.asarray(gen.pass_of) < fixed_passes
    return {
        "setup_s": setup_s,
        "ops_per_s": gen.attempted / gen.busy,
        "op_wall_ms_p50": float(np.percentile(wall_ms, 50)),
        "op_wall_ms_p75": float(np.percentile(wall_ms, 75)),
        "op_wall_ms_geomean": math.exp(
            sum(math.log(value) for value in medians.values()) / len(medians)
        ),
        "sim_ms_per_pass": float(np.asarray(gen.sim)[fixed].sum())
        * 1e3 / fixed_passes,
        "peak_rss_mb": phase.peak_rss_fixed_mb,
    }


# -- per-layer metrics ----------------------------------------------------------

#: span names folded into another name's ``self_ms_per_op`` metric (they
#: exist so that their calls can be counted on their own)
FOLDED_SPANS = {
    "monetdb.interpreter.step": "monetdb.interpreter",
    "serve.scheduler.step": "serve.scheduler",
    "ocelot.launch": "ocelot.operators",
    "cl.enqueue": "cl.queue",
    "cl.finish": "cl.queue",
}

CHURN_OPS = ("create_table", "explain", "staging_query", "drop_table")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def untraced_layers(phase: Phase, import_s: float) -> dict:
    """The per-layer metrics that come from the untraced loop."""
    from repro.tpch import WORKLOAD

    gen = phase.gen
    medians = _medians_by_kind(gen)
    kinds = np.asarray(gen.kind)
    sim_ms = np.asarray(gen.sim) * 1e3
    out = {}
    for qid in WORKLOAD:
        out[f"query.{qid}.wall_ms_p50"] = medians.get(qid, 0.0)
        mine = sim_ms[kinds == qid]
        out[f"query.{qid}.sim_ms"] = float(mine.mean()) if mine.size else 0.0
    for kind in CHURN_OPS:
        out[f"op.{kind}.wall_ms_p50"] = medians.get(kind, 0.0)
    third = max(1, phase.passes // 3)
    out["host.op_wall_ms_p90"] = float(
        np.percentile(np.asarray(gen.wall) * 1e3, 90)
    )
    out["host.import_s"] = import_s
    out["host.wall_over_cpu"] = _ratio(phase.wall_s, phase.cpu_s)
    out["host.pass_wall_drift"] = float(
        np.median(phase.pass_busy[-third:])
        / np.median(phase.pass_busy[:third])
    )
    out["host.rss_growth_mb_per_pass"] = phase.rss_growth_mb / phase.passes
    out["host.gc_objects_growth_per_pass"] = (
        phase.objects_growth / phase.passes
    )
    out["host.generator_overhead_frac"] = 1.0 - gen.raw_busy / phase.wall_s
    out["host.calibration_slowdown"] = 1.0 / reference_speed(gen.units)
    out["cl.events_retained_per_pass"] = phase.events_growth / phase.passes
    return out


def traced_layers(phase: Phase, reduced, untraced: Phase) -> dict:
    """The per-layer metrics that come from the traced loop: self times
    and call counts from the spans (``reduced`` is ``Recorder.reduce()``),
    ratios from the counters ``Connection.metrics`` moved over the same
    loop."""
    gen = phase.gen
    ops, passes = gen.attempted, phase.passes
    seconds, calls, roots = reduced
    out: dict[str, float] = {}
    for span, own in seconds.items():
        name = FOLDED_SPANS.get(span, span) + ".self_ms_per_op"
        out[name] = out.get(name, 0.0) + own * 1e3 / ops

    out["serve.scheduler.steps_per_op"] = calls["serve.scheduler.step"] / ops
    out["monetdb.interpreter.instructions_per_op"] = (
        calls["monetdb.interpreter.step"] / ops
    )
    out["ocelot.launches_per_op"] = calls["ocelot.launch"] / ops
    out["shard.fan.calls_per_op"] = calls["shard.fan"] / ops
    out["cl.events_per_op"] = calls["cl.enqueue"] / ops
    out["fuse.pipe.calls_per_pass"] = calls["fuse.pipe"] / passes
    out["morsel.steps_per_pass"] = calls["morsel.run"] / passes
    out["sched.placer.choices_per_pass"] = calls["sched.placer"] / passes

    moved = phase.counters.get
    hits, misses = moved("plan_cache.hits", 0), moved("plan_cache.misses", 0)
    reuses = moved("plan_cache.placement_reuses", 0)
    out["serve.plancache.hit_rate"] = _ratio(hits, hits + misses)
    out["serve.plancache.compiles_per_pass"] = misses / passes
    out["serve.plancache.invalidations_per_pass"] = (
        moved("plan_cache.invalidations", 0) / passes
    )
    out["serve.plancache.placement_reuses_per_pass"] = reuses / passes
    # the counter is shared with the sharded engine's join-strategy
    # replays; it is the placer's only where the dispatcher ran
    out["sched.placement_reuse_rate"] = _ratio(
        reuses, reuses + calls["sched.placer"]
    ) if calls["sched.dispatch"] else 0.0
    out["compress.decode_events_per_pass"] = (
        moved("compress.decode_events", 0) / passes
    )
    out["compress.partial_decodes_per_pass"] = (
        moved("compress.partial_decodes", 0) / passes
    )
    now = phase.snapshot.get
    out["compress.stored_ratio"] = _ratio(
        now("compress.bytes_physical", 0), now("compress.bytes_nominal", 0)
    )
    mm_hits, mm_misses = moved("mm.cache_hits", 0), moved("mm.cache_misses", 0)
    out["ocelot.mm.cache_hit_rate"] = _ratio(mm_hits, mm_hits + mm_misses)
    out["ocelot.mm.evictions_per_pass"] = moved("mm.evictions", 0) / passes
    out["ocelot.mm.offloads_per_pass"] = moved("mm.offloads", 0) / passes
    out["ocelot.mm.intermediates_unfreed_per_pass"] = (
        moved("mm.intermediates_allocated", 0)
        - moved("mm.intermediates_freed", 0)
    ) / passes
    # nominal (simulated-device) megabytes, the unit eviction decides on
    out["ocelot.mm.resident_mb"] = now("mm.resident_bytes", 0) / 2**20
    for kind in ("broadcast", "shuffled", "gathered"):
        out[f"shard.interconnect.mb_{kind}_per_pass"] = (
            moved(f"interconnect.bytes_{kind}", 0) / 2**20 / passes
        )

    per_op = gen.busy / ops
    per_op_untraced = untraced.gen.busy / untraced.gen.attempted
    out["host.trace_overhead_frac"] = per_op / per_op_untraced - 1.0
    out["host.unattributed_frac"] = 1.0 - roots / gen.raw_busy
    return out
