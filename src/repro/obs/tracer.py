"""A zero-dependency, query-scoped tracer.

The clock is the engine's **simulated** clock (``backend.elapsed``),
so span durations are the same quantity every figure plots; spans
therefore nest exactly (the clock is monotone within a query) and
per-operator times reconcile with the query's wall time.

Spans close LIFO through :meth:`Tracer.end`; a span abandoned by an
exception is closed implicitly when an enclosing span ends, so a query
killed mid-plan still exports a well-formed tree.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from ..monetdb.bat import BAT, Role

# ---------------------------------------------------------------------------
# value description (rows / bytes / encoding), shared by every span site
# ---------------------------------------------------------------------------

def _bat_nominal_nbytes(bat: BAT) -> int:
    nominal = getattr(bat, "nominal_nbytes", None)
    if nominal is not None:
        return int(nominal)
    if bat.role is Role.BITMAP:
        return (int(bat.count) + 7) // 8
    try:
        itemsize = bat.dtype.itemsize
    except Exception:
        return 0
    return int(bat.count) * int(itemsize)


def describe_value(value) -> dict:
    """Rows / nominal + physical bytes / encoding of an operator result.

    Duck-typed so it covers plain and encoded BATs, sharded values
    (anything with a ``parts`` sequence of per-shard values), tuples of
    outputs, and scalars — without importing the shard layer.
    """
    if isinstance(value, BAT):
        nominal = _bat_nominal_nbytes(value)
        physical = getattr(value, "physical_nbytes", None)
        encoding = getattr(value, "encoding", None)
        return {
            "rows": int(value.count),
            "bytes": nominal,
            "bytes_physical": int(physical) if physical is not None
            else nominal,
            "encoding": getattr(encoding, "kind", None),
        }
    parts = getattr(value, "parts", None)
    if parts is not None and isinstance(parts, (list, tuple)):
        described = [describe_value(part) for part in parts]
        encodings = sorted({d["encoding"] for d in described
                            if d.get("encoding")})
        return {
            "rows": sum(d.get("rows", 0) for d in described),
            "bytes": sum(d.get("bytes", 0) for d in described),
            "bytes_physical": sum(d.get("bytes_physical", 0)
                                  for d in described),
            "encoding": ",".join(encodings) or None,
            "shards": len(described),
        }
    if isinstance(value, tuple):
        described = [describe_value(part) for part in value]
        return {
            "rows": max((d.get("rows", 0) for d in described), default=0),
            "bytes": sum(d.get("bytes", 0) for d in described),
            "bytes_physical": sum(d.get("bytes_physical", 0)
                                  for d in described),
            "encoding": None,
        }
    if isinstance(value, (int, float, np.integer, np.floating)):
        return {"rows": 1, "bytes": 8, "bytes_physical": 8,
                "encoding": None}
    return {"rows": 0, "bytes": 0, "bytes_physical": 0, "encoding": None}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span:
    """One timed interval; children nest strictly inside the parent."""

    __slots__ = ("name", "cat", "tid", "t0", "t1", "args", "parent",
                 "children")

    def __init__(self, name: str, cat: str = "op", tid: str = "driver",
                 t0: float = 0.0, args: dict | None = None,
                 parent: "Span | None" = None):
        self.name = name
        self.cat = cat
        self.tid = tid
        self.t0 = t0
        self.t1 = t0
        self.args = args or {}
        self.parent = parent
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def structure(self):
        """(name, (child structures…)) — timing-free shape for tests."""
        return (self.name, tuple(c.structure() for c in self.children))

    def find(self, name: str) -> "list[Span]":
        return [span for span in self.walk() if span.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name!r} cat={self.cat} tid={self.tid} "
                f"{self.duration * 1e3:.3f}ms children={len(self.children)}>")


class Tracer:
    """Query-scoped span collector.

    ``clock`` is a zero-arg callable returning simulated seconds; the
    interpreter installs the backend's per-query clock before opening
    the root span.  Instant happenings (interconnect charges, device
    transfers, cache decisions) are recorded as :meth:`event`\\ s.
    """

    def __init__(self, clock=None, engine: str = ""):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.engine = engine
        self.roots: list[Span] = []
        self.events: list[dict] = []
        self.wall_s: float | None = None
        self._stack: list[Span] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, cat: str = "op", tid: str = "driver",
              **args) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, cat=cat, tid=tid, t0=self.clock(),
                    args=args, parent=parent)
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **args) -> None:
        """Close ``span`` (and any deeper spans an exception abandoned)."""
        if span not in self._stack:
            return
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            top.t1 = now
            if top is span:
                break
        if args:
            span.args.update(args)

    @contextmanager
    def span(self, name: str, cat: str = "op", tid: str = "driver",
             **args):
        span = self.begin(name, cat=cat, tid=tid, **args)
        try:
            yield span
        finally:
            self.end(span)

    def event(self, name: str, cat: str = "event", tid: str = "driver",
              **args) -> None:
        self.events.append({"name": name, "cat": cat, "tid": tid,
                            "ts": self.clock(), "args": args})

    def annotate(self, **args) -> None:
        """Attach args to the innermost open span (no-op outside one)."""
        if self._stack:
            self._stack[-1].args.update(args)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def close_open(self) -> None:
        """Close anything an aborted query left open."""
        while self._stack:
            self.end(self._stack[-1])

    # -- reading ---------------------------------------------------------

    def root(self) -> Span | None:
        return self.roots[0] if self.roots else None

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def instruction_spans(self) -> list[Span]:
        return [s for s in self.walk() if s.cat == "instruction"]

    # -- export ----------------------------------------------------------

    def export_chrome(self, path: str | None = None) -> dict:
        """Chrome trace-event JSON (the ``chrome://tracing`` / Perfetto
        format): ``X`` complete events per span on one lane (``tid``)
        per device/shard, ``i`` instants for events, ``M`` metadata
        naming the lanes.  Timestamps are simulated microseconds."""
        self.close_open()
        tids: dict[str, int] = {}

        def tid_of(name: str) -> int:
            return tids.setdefault(name, len(tids))

        trace_events = []
        for span in self.walk():
            trace_events.append({
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": round(span.t0 * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 0,
                "tid": tid_of(span.tid),
                "args": _jsonable(span.args),
            })
        for event in self.events:
            trace_events.append({
                "name": event["name"],
                "cat": event["cat"],
                "ph": "i",
                "s": "t",
                "ts": round(event["ts"] * 1e6, 3),
                "pid": 0,
                "tid": tid_of(event["tid"]),
                "args": _jsonable(event["args"]),
            })
        metadata = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"repro {self.engine}".strip()}},
        ] + [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": lane}}
            for lane, tid in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        document = {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "engine": self.engine,
                "wall_s": self.wall_s,
            },
        }
        if path is not None:
            with open(path, "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
        return document

    def profile(self) -> dict:
        """Structured per-operator profile (what ``EXPLAIN ANALYZE``
        renders and the bench harness embeds into ``BENCH_*.json``)."""
        self.close_open()
        operators: dict[str, dict] = {}
        for span in self.instruction_spans():
            row = operators.setdefault(span.name, {
                "calls": 0, "seconds": 0.0, "rows": 0,
                "bytes": 0, "bytes_physical": 0, "launches": 0,
                "devices": set(), "encodings": set(),
            })
            row["calls"] += 1
            row["seconds"] += span.duration
            row["rows"] += int(span.args.get("rows", 0))
            row["bytes"] += int(span.args.get("bytes", 0))
            row["bytes_physical"] += int(span.args.get("bytes_physical", 0))
            launches = sum(
                1 for child in span.walk()
                if child is not span and child.cat in (
                    "dispatch", "morsel", "shard")
            )
            row["launches"] += max(launches, 1)
            for child in span.walk():
                device = child.args.get("device")
                if device:
                    row["devices"].add(str(device))
                encoding = child.args.get("encoding")
                if encoding:
                    row["encodings"].add(str(encoding))
        for row in operators.values():
            row["devices"] = sorted(row["devices"])
            row["encodings"] = sorted(row["encodings"])
        return {
            "engine": self.engine,
            "wall_s": self.wall_s,
            "operators": operators,
            "events": len(self.events),
            "spans": sum(1 for _ in self.walk()),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):          # numpy scalar
        return value.item()
    return str(value)
