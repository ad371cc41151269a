"""Partitioned fan-out execution with a host-side merge.

Each participating device runs the *unmodified* Ocelot host code on a
cached sub-range view of the input (the devices' queues advance
independently, so the partitions genuinely overlap in simulated time);
the per-device partials are synced to the host on their own queues, the
pool joins the timelines (the barrier before the merge), and a cheap
host merge — by output kind, :mod:`repro.monetdb.partials` — produces
one MonetDB-owned BAT per output.

Mirrors the partition-parallel OLAP pattern of Hespe et al.: big
partition-local work, small merge.
"""

from __future__ import annotations

import numpy as np

from ..monetdb import partials
from ..monetdb.bat import BAT, OID_DTYPE, Role
from ..monetdb.ops import OPS, class_of
from ..ocelot.operators import HOST_CODE
from .pool import DevicePool


def execute_split(pool: DevicePool, function: str, args,
                  plan: list[tuple[int, int, int]],
                  charge_overhead=None):
    """Run ``ocelot.<function>`` split per ``plan`` and merge on host."""
    merged = [
        _fan_out(pool, name, part_args, plan, charge_overhead)
        for name, part_args in partials.components(function, args)
    ]
    if len(merged) == 1:
        return merged[0]
    sums, counts = (bat.peek_values() for bat in merged)
    return BAT(partials.finish_avg(sums, counts), Role.VALUES,
               tag=f"het_{function}")


def _fan_out(pool, function, args, plan, charge_overhead):
    """One operator: a partial per participating device (concurrent
    queues), every output merged by its kind."""
    if charge_overhead is not None:
        # wake every participating device *before* enqueueing the first
        # partial: a wake-up charge is a joined-timeline barrier, which
        # mid-loop would serialize partials already in flight
        for device, _lo, _hi in plan:
            charge_overhead(device)
    shares = []
    for device, lo, hi in plan:
        engine = pool.engines[device]
        sliced = [
            pool.catalog.slice(a, lo, hi) if isinstance(a, BAT) else a
            for a in args
        ]
        with engine.memory.operator_scope():
            out = HOST_CODE[function](engine, *sliced)
        shares.append((engine, lo, out if isinstance(out, tuple)
                       else (out,)))
    # a fused region has one output per live definition (pure values —
    # the placer never splits a pipe with a selection output)
    merged = [
        _merge_output(function, [
            (lo, _to_host(engine, outs[index]))
            for engine, lo, outs in shares
        ])
        for index in range(len(shares[0][2]))
    ]
    # join the queues and charge the host-side merge
    merged_bytes = sum(int(bat.peek_values().nbytes) for bat in merged)
    pool.charge_host(pool.merge_seconds(merged_bytes * pool.data_scale))
    for _engine, _lo, outs in shares:
        for out in outs:
            if isinstance(out, BAT):
                pool.release_device_bat(out)
    return merged[0] if len(merged) == 1 else tuple(merged)


def _to_host(engine, bat: BAT) -> np.ndarray:
    """Sync one partial back on its own device's queue."""
    with engine.memory.operator_scope():
        HOST_CODE["sync"](engine, bat)
    return partials.host_tail(bat)


def _merge_output(function: str, pieces) -> BAT:
    """``pieces``: ``(first row, host partial)`` per partition."""
    cls = class_of(function)
    if cls == "select":
        # per-partition lists ascend and partitions are disjoint ranges,
        # so the concatenation is the globally ascending oid list MS
        # produces
        oids = partials.concat(
            [partials.offset_positions(local, lo) for lo, local in pieces],
            np.int64,
        )
        return BAT(oids.astype(OID_DTYPE), Role.OIDS, key=True,
                   tag="het_sel")
    tables = [partial for _lo, partial in pieces]
    if cls == "grouped_agg":
        values = partials.fold_tables(OPS[function].fold, tables)
        tag = f"het_{function}"
    else:
        values = np.concatenate(tables)
        tag = "het_pipe" if function == "pipe" else "het_ewise"
    return BAT(np.ascontiguousarray(values), Role.VALUES, tag=tag)
