"""``cl`` events do not accumulate with the number of queries run.

An :class:`~repro.cl.event.Event` is needed only until the command it
stands for can no longer delay another one.  What may keep it alive
after that is the queue's fixed-length recent history
(``QueueStats.events``) — not the events that waited for it, not the
registry of a cached base column that every query reads, and not the
registry of a buffer nobody touches again.
"""

import gc

import repro
from repro.cl.event import Event
from repro.cl.queue import TIMELINE_EVENTS
from repro.ocelot.memory import BufferKind
from repro.tpch import WORKLOAD


def live_events() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Event)


def run_pass(con) -> None:
    for name in ("Q1", "Q3"):
        con.execute(WORKLOAD[name], name=name)


def test_events_and_consumer_lists_do_not_grow_with_passes():
    con = repro.tpch_database(sf=0.02).connect("HET")
    managers = [engine.memory for engine in con.backend.pool.engines]
    run_pass(con)                       # cold: uploads, compiles, caches
    baseline = live_events()
    counts = []
    # as many warm passes as it takes to launch several times what the
    # histories hold
    enough = 6 * len(managers) * TIMELINE_EVENTS
    while sum(m.queue.stats.kernels_launched for m in managers) <= enough:
        assert len(counts) < 30, "a pass launches next to nothing"
        run_pass(con)
        counts.append(live_events())
        cached = [entry.buffer for manager in managers
                  for entry in manager.entries()
                  if entry.kind is BufferKind.BASE and entry.resident]
        assert cached
        assert max(len(b.consumer_events) for b in cached) <= 2
    assert len(counts) >= 5
    # a queue's history may still be filling up; nothing else may grow
    # (one pass schedules more events than both histories hold)
    assert max(counts) <= baseline + len(managers) * TIMELINE_EVENTS, (
        baseline, counts)

    for manager in managers:
        timeline = manager.queue.timeline()
        assert len(timeline) <= TIMELINE_EVENTS
        starts = [event.t_start for event in timeline]
        assert starts == sorted(starts)
    assert any(manager.queue.timeline() for manager in managers)


def test_consumers_dominated_by_a_later_reader_are_dropped():
    """Between two ``finish()`` calls a buffer read again and again
    keeps the readers a later write would still have to wait for."""
    import numpy as np

    from repro import cl
    from repro.kernels import KERNEL_LIBRARY

    ctx = cl.Context(cl.get_device("gpu"))
    queue = cl.CommandQueue(ctx)
    program = cl.build(ctx, KERNEL_LIBRARY)
    col = ctx.create_buffer(np.arange(64, dtype=np.int32))
    out = ctx.empty(64, np.int32)
    latest = 0.0
    for k in range(50):
        event = queue.enqueue_kernel(
            program.kernel("ewise_scalar"), (out, col, 64, "add", k)
        )
        latest = max(latest, event.t_end)
        assert len(col.consumer_events) == 1
        assert col.last_activity() == latest
    _host, read = queue.enqueue_read(col)      # the copy engine: overlaps
    assert read in col.consumer_events
    assert col.last_activity() == max(latest, read.t_end)
    rewrite = queue.enqueue_write(col, np.zeros(64, np.int32))
    assert rewrite.t_start >= max(latest, read.t_end)
    queue.finish()
    assert col.producer_events == [] and col.consumer_events == []
