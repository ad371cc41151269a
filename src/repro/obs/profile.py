"""``EXPLAIN ANALYZE`` rendering: a per-operator profile table.

Input is a :class:`~repro.obs.tracer.Tracer` carried on the executed
query's :class:`~repro.monetdb.interpreter.QueryResult` (``.trace``).
The table shows, per MAL operator: call count, simulated time and its
share of the wall time, device-side launches, output rows, nominal
megabytes, and the devices/encodings observed at runtime — the analyze
path reports what each shard/device *actually did*, not the driver
catalog's static view.
"""

from __future__ import annotations

_HEADER = (
    "operator", "calls", "time_ms", "%", "launches", "rows", "MB",
    "device",
)


def _fmt_row(cells) -> str:
    widths = (24, 6, 10, 6, 9, 10, 9, 16)
    out = []
    for cell, width in zip(cells, widths):
        text = str(cell)
        out.append(text.ljust(width) if cell is cells[0]
                   else text.rjust(width))
    return "  ".join(out).rstrip()


def render_profile(tracer, header: str = "EXPLAIN ANALYZE") -> str:
    """The per-operator profile table for one traced query."""
    profile = tracer.profile()
    wall_s = profile["wall_s"] or 0.0
    lines = [
        f"# {header} engine={profile['engine']} "
        f"wall={wall_s * 1e3:.3f} ms "
        f"spans={profile['spans']}",
        _fmt_row(_HEADER),
    ]
    operators = sorted(
        profile["operators"].items(),
        key=lambda item: item[1]["seconds"],
        reverse=True,
    )
    total_s = 0.0
    for name, row in operators:
        total_s += row["seconds"]
        share = 100.0 * row["seconds"] / wall_s if wall_s else 0.0
        device = ",".join(row["devices"]) or "-"
        if row["encodings"]:
            device += " [" + ",".join(row["encodings"]) + "]"
        lines.append(_fmt_row((
            name,
            row["calls"],
            f"{row['seconds'] * 1e3:.3f}",
            f"{share:.1f}",
            row["launches"],
            row["rows"],
            f"{row['bytes'] / 1e6:.2f}",
            device,
        )))
    share = 100.0 * total_s / wall_s if wall_s else 0.0
    lines.append(
        f"# operators {total_s * 1e3:.3f} ms of {wall_s * 1e3:.3f} ms "
        f"wall ({share:.1f}%)"
    )
    lines.extend(_notes(tracer))
    return "\n".join(lines)


def _notes(tracer) -> list[str]:
    """Footnotes: cache decisions, runtime encodings, the sharded
    engine's join strategies, interconnect."""
    notes = []
    for event in tracer.events:
        if event["name"] == "plan_cache.lookup":
            hit = event["args"].get("hit")
            notes.append(f"# plan cache: {'hit' if hit else 'miss'}")
    encodings = observed_encodings(tracer)
    if encodings:
        notes.append("# encodings (observed): " + ", ".join(
            f"{column}={codes}" for column, codes in encodings.items()
        ))
    joins = [f"{span.name}={span.args['strategy']}"
             for span in tracer.walk() if "strategy" in span.args]
    if joins:
        notes.append("# joins: " + ", ".join(joins))
    charges = [e for e in tracer.events
               if e["cat"] == "interconnect"]
    if charges:
        nominal = sum(e["args"].get("bytes", 0) for e in charges)
        physical = sum(e["args"].get("bytes_physical", 0)
                       for e in charges)
        notes.append(
            f"# interconnect: {len(charges)} transfers, "
            f"{nominal / 1e6:.2f} MB nominal / "
            f"{physical / 1e6:.2f} MB physical"
        )
    return notes


def observed_encodings(tracer) -> dict[str, str]:
    """``table.column -> per-shard observed codecs`` from bind spans.

    This is the runtime truth: each shard catalog encodes its own
    partition, so the codec a shard actually read can differ from the
    driver catalog's whole-column choice that plain ``explain()``
    renders."""
    out: dict[str, str] = {}
    for span in tracer.walk():
        column = span.args.get("column")
        if not column:
            continue
        shard_encodings = span.args.get("shard_encodings")
        if shard_encodings:
            out[column] = ",".join(
                f"shard{i}:{kind or 'plain'}"
                for i, kind in enumerate(shard_encodings)
            )
        elif span.args.get("encoding") is not None:
            out[column] = str(span.args["encoding"])
    return out
