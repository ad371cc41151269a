"""Per-instruction cost estimation from measured device profiles.

The placement policy needs a *relative* ranking of the devices for one
MAL instruction, not exact times, so every operator is reduced to a
coarse :class:`OpShape` — streamed bytes, gathered bytes, atomic traffic
and launch count — and converted to seconds purely through the
:class:`~repro.ocelot.autotune.DeviceCharacteristics` that
``probe_device`` measured.  Nothing here reads a device's analytic cost
model: the scheduler stays hardware-oblivious end to end.

All byte quantities are **nominal** (actual array bytes times the
context's ``data_scale``), matching what the simulated devices charge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cl import GB
from ..kernels.radix_sort import key_dtype_for, num_passes
from ..monetdb.bat import BAT, Role
from ..ocelot.autotune import DeviceCharacteristics
from ..ocelot.engine import OcelotEngine
from ..ocelot.operators import (
    group_launches,
    hash_build_launches,
    join_launches,
    membership_launches,
    projection_launches,
    sort_launches,
)

#: assumed selectivity when a selection's output size is unknown
EST_SELECTIVITY = 0.15


@dataclass(frozen=True)
class OpShape:
    """Coarse resource demand of one operator invocation."""

    stream_bytes: float = 0.0     # sequentially read + written
    gather_bytes: float = 0.0     # data-dependent accesses
    atomic_ops: float = 0.0
    atomic_addresses: float = 1.0
    launches: int = 1
    out_bytes: float = 0.0        # device-resident result footprint


def bat_rows(value) -> int:
    return int(value.count) if isinstance(value, BAT) else 0


def bat_nominal_bytes(bat: BAT, scale: float) -> float:
    """Nominal tail footprint (bitmaps store one bit per row)."""
    if bat.role is Role.BITMAP:
        return (bat.count / 8.0) * scale
    try:
        itemsize = bat.dtype.itemsize
    except Exception:
        itemsize = 4
    return bat.count * itemsize * scale


def _bats(args) -> list[BAT]:
    return [a for a in args if isinstance(a, BAT)]


def shape_of(function: str, args, scale: float,
             engine: OcelotEngine) -> OpShape:
    """Estimate the resource demand of ``ocelot.<function>`` on ``args``."""
    bats = _bats(args)
    in_bytes = sum(bat_nominal_bytes(b, scale) for b in bats)
    n = max((bat_rows(b) for b in bats), default=0)
    nominal_rows = n * scale

    if function in ("select", "thetaselect"):
        out = (n / 8.0) * scale
        extra = 2 if (len(args) > 1 and args[1] is not None) else 0
        return OpShape(stream_bytes=in_bytes + out, launches=1 + extra,
                       out_bytes=out)
    if function == "projection":
        oids, source = args[0], args[1]
        rows = bat_rows(oids)
        if isinstance(oids, BAT) and oids.role is Role.BITMAP:
            rows = int(rows * EST_SELECTIVITY)
        item = source.dtype.itemsize if isinstance(source, BAT) else 4
        out = rows * item * scale
        return OpShape(stream_bytes=rows * 4 * scale + out,
                       gather_bytes=rows * item * scale,
                       launches=projection_launches(oids), out_bytes=out)
    if function in ("join", "semijoin", "antijoin"):
        if function == "join":
            launches = join_launches(engine, bat_rows(args[1]))
        else:
            launches = membership_launches(function == "semijoin")
        return OpShape(stream_bytes=8 * in_bytes, gather_bytes=in_bytes,
                       atomic_ops=nominal_rows,
                       atomic_addresses=nominal_rows,
                       launches=launches, out_bytes=in_bytes)
    if function == "thetajoin":
        l_rows, r_rows = bat_rows(args[0]), bat_rows(args[1])
        pairs = (l_rows * scale) * max(r_rows * scale, 1.0)
        return OpShape(stream_bytes=4.0 * pairs, launches=5,
                       out_bytes=8 * l_rows * scale)
    if function == "sort":
        # the operator's own rule: key encode + what the sort launches at
        # this size and key width on this device + the final gather; a
        # sort that skips the radix ladder is priced as one pass of it
        key_itemsize = key_dtype_for(bats[0].dtype).itemsize
        exit_, launches = sort_launches(engine, n, key_itemsize)
        passes = (num_passes(engine.radix_bits, 8 * key_itemsize)
                  if exit_ == "radix" else 1)
        return OpShape(stream_bytes=4.0 * passes * in_bytes,
                       gather_bytes=in_bytes,
                       launches=2 + launches, out_bytes=2 * in_bytes)
    if function in ("group", "subgroup"):
        sorted_input = bool(bats) and bats[0].sorted
        factor = 2 if function == "subgroup" else 1
        launches = group_launches(function, sorted_input)
        if sorted_input and function == "group":
            return OpShape(stream_bytes=3 * in_bytes, launches=launches,
                           out_bytes=n * 4 * scale)
        return OpShape(stream_bytes=factor * 8 * in_bytes,
                       atomic_ops=factor * nominal_rows,
                       atomic_addresses=max(nominal_rows, 1.0),
                       launches=launches, out_bytes=n * 4 * scale)
    if function in ("subsum", "submin", "submax", "subcount", "subavg"):
        gids = args[0] if function == "subcount" else args[1]
        ngroups = float(args[-1]) if args else 1.0
        rows = bat_rows(gids)
        passes = 2 if function == "subavg" else 1
        out = max(ngroups, 1.0) * 8 * scale
        return OpShape(
            stream_bytes=passes * in_bytes + out,
            atomic_ops=passes * rows * scale,
            atomic_addresses=max(ngroups, 1.0),
            launches=2 * passes,
            out_bytes=out,
        )
    if function in ("sum", "min", "max", "avg"):
        return OpShape(stream_bytes=in_bytes, launches=2, out_bytes=8)
    if function == "count":
        if bats and bats[0].role is Role.BITMAP:
            return OpShape(stream_bytes=in_bytes, launches=2)
        return OpShape(stream_bytes=0.0, launches=0)
    if function == "hashbuild":
        return OpShape(stream_bytes=6 * in_bytes,
                       atomic_ops=nominal_rows,
                       atomic_addresses=max(nominal_rows, 1.0),
                       launches=1 + hash_build_launches())  # + key encode
    if function == "mirror":
        out = n * 4 * scale
        return OpShape(stream_bytes=out, launches=1, out_bytes=out)
    if function in ("oidunion", "oidintersect"):
        return OpShape(stream_bytes=3 * in_bytes, launches=3,
                       out_bytes=in_bytes)
    if function == "pipe":
        # a fused region (repro.fuse) is one launch streaming every
        # input once and writing only the live outputs — the placer
        # prices it as one transfer-in/one-out with the chain's summed
        # compute, so fusion changes placement decisions, not just
        # launch counts (intermediates cost nothing anywhere)
        spec = args[0]
        out = sum(
            (n / 8.0) * scale if output.is_select else n * 4 * scale
            for output in spec.outputs
        )
        return OpShape(stream_bytes=in_bytes + out, launches=1,
                       out_bytes=out)
    # element-wise calc / compare / ifthenelse and anything unmodelled:
    # stream everything once and write one output column
    out = n * 4 * scale
    return OpShape(stream_bytes=in_bytes + out, launches=1, out_bytes=out)


def shapes_of(function: str, args, scale: float, engines) -> list[OpShape]:
    """:func:`shape_of` on each of ``engines`` — computed once where the
    shape does not depend on the device (only join and sort launches do)."""
    if function in ("join", "sort"):
        return [shape_of(function, args, scale, engine) for engine in engines]
    return [shape_of(function, args, scale, engines[0])] * len(engines)


def shape_seconds(chars: DeviceCharacteristics, shape: OpShape) -> float:
    """Measured-profile prediction of one operator's device seconds."""
    t = shape.launches * chars.launch_overhead_s
    t += shape.stream_bytes / (chars.stream_gbs * GB)
    if shape.gather_bytes:
        t += shape.gather_bytes / (chars.gather_gbs * GB)
    if shape.atomic_ops:
        t += shape.atomic_ops * chars.atomic_ns(shape.atomic_addresses) * 1e-9
    return t
