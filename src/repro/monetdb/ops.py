"""The operator table: every MAL operator function, declared once.

Ocelot's operators are bound into MAL *by name* as drop-in replacements
and whatever it cannot run stays on MonetDB (paper §3.1–3.2): which
operators exist, what each returns, which has a device or a compressed
form and how its partials fold are facts about the operator, written
here — one :class:`Op` row per *function* (``select`` covers
``algebra.select``, ``ocelot.select`` and ``compress.select``) — and
read by the rewriter, the passes, the placer and the executors.  The
implementations stay with the backends that run them;
``tests/engines/test_operator_table.py`` holds their keys equal to the
rows, and ARCHITECTURE.md §"The operator table" prints the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

#: the modules the device forms (the MAL binding) and the compressed-
#: execution forms (:mod:`repro.compress`) are bound under
DEVICE_MODULE = "ocelot"
COMPRESS_MODULE = "compress"


class Result(NamedTuple):
    """What one result holds: ``values`` or ``positions`` (BATs) or a
    ``scalar`` (a host value: never device-owned, never synced).
    Positions index the rows *of* argument ``of`` — or, ``same_space``,
    whatever that argument's own positions index."""

    kind: str
    of: Optional[int] = None
    same_space: bool = False

    def __str__(self) -> str:
        if self.kind != "positions":
            return self.kind
        return f"positions({'as' if self.same_space else 'of'} arg {self.of})"


VALUES = Result("values")
SCALAR = Result("scalar")


def positions(of: int, same_space: bool = False) -> Result:
    return Result("positions", of, same_space)


@dataclass(frozen=True)
class Op:
    """One operator function."""

    function: str
    #: MonetDB module of the baseline form (:attr:`op` is what runs
    #: when an Ocelot engine hands the operator back)
    module: str
    #: the kind of operator — what the passes, the placer and the
    #: partitioned executors reason in
    cls: str
    #: argument count (a compressed form takes a trailing mode literal)
    nargs: int
    results: tuple = (VALUES,)
    #: has a host-code form ``ocelot.<function>`` / a compressed-
    #: execution form ``compress.<function>``
    device: bool = True
    compressed: bool = False
    #: aggregates: the aggregate computed (``sum`` for ``subsum`` too);
    #: how its partials fold (``sum`` / ``min`` / ``max``) or, where
    #: they do not merge (``avg``), the aggregates whose partials do
    agg: str = ""
    fold: str = ""
    parts: tuple = ()
    #: operands the device form hashes — as *four-byte* keys: an
    #: eight-byte one sends the operator back to MonetDB
    hashed: tuple = ()

    @property
    def op(self) -> str:
        return f"{self.module}.{self.function}"


def _aggregate(agg: str, fold: str = "", parts: tuple = (),
               grouped_compressed: bool = False):
    """The scalar and the grouped row of one aggregate (``subcount``
    counts group ids and takes no values column)."""
    yield Op(agg, "aggr", "scalar_agg", 1, (SCALAR,), compressed=True,
             agg=agg, fold=fold, parts=parts)
    yield Op("sub" + agg, "aggr", "grouped_agg", 2 if agg == "count" else 3,
             compressed=grouped_compressed, agg=agg, fold=fold,
             parts=tuple("sub" + part for part in parts))


def _rows():
    of0, both = positions(0), (positions(0), positions(1))
    yield Op("select", "algebra", "select", 7, (of0,), compressed=True)
    yield Op("thetaselect", "algebra", "select", 4, (of0,), compressed=True)
    yield Op("projection", "algebra", "gather", 2)
    yield Op("join", "algebra", "join", 2, both, hashed=(0, 1))
    yield Op("thetajoin", "algebra", "nljoin", 3, both)
    yield Op("semijoin", "algebra", "membership", 2, (of0,), hashed=(0, 1))
    yield Op("antijoin", "algebra", "membership", 2, (of0,), hashed=(0, 1))
    yield Op("sort", "algebra", "sort", 2, (VALUES, of0))
    # MonetDB-only: Ocelot lacks an efficient top-k (paper App. A)
    yield Op("firstn", "algebra", "topn", 3, (of0,), device=False)
    yield Op("mirror", "bat", "mirror", 1, (of0,))
    for function in ("oidunion", "oidintersect"):
        yield Op(function, "algebra", "oidcombine", 2,
                 (positions(0, same_space=True),))
    yield Op("hashbuild", "algebra", "build", 1, (SCALAR,), hashed=(0,))
    yield Op("group", "group", "group", 1, (VALUES, SCALAR),
             compressed=True, hashed=(0,))
    yield Op("subgroup", "group", "group", 3, (VALUES, SCALAR), hashed=(0,))
    yield from _aggregate("sum", "sum")
    # dictionary order isomorphism: min/max commute with the code mapping
    yield from _aggregate("min", "min", grouped_compressed=True)
    yield from _aggregate("max", "max", grouped_compressed=True)
    yield from _aggregate("count", "sum")        # count partials add up
    yield from _aggregate("avg", parts=("sum", "count"))
    for function in ("add", "sub", "mul", "div", "intdiv", "and", "or",
                     "eq", "ne", "lt", "le", "gt", "ge"):
        yield Op(function, "batcalc", "ewise", 2)
    yield Op("ifthenelse", "batcalc", "ewise", 3)


#: every operator function, by name
OPS: dict[str, Op] = {row.function: row for row in _rows()}

#: classes whose operators are row-independent: a device split runs the
#: unmodified operator per piece and merges — values by concatenation,
#: positions by offsetting, grouped tables by folding
ROW_INDEPENDENT = ("ewise", "select", "grouped_agg")

#: the structural instructions that yield BATs (no rows: nothing about
#: them varies by engine); ``morsel.run`` yields what its region says,
#: ``calc.*`` is host arithmetic on scalars
BAT_STRUCTURAL = ("sql.bind", "ocelot.sync", "fuse.pipe", "ocelot.pipe")


def lookup(module: str, function: str) -> Optional[Op]:
    """The row ``module.function`` is a form of — the MonetDB, the
    device or the compressed one — else ``None``."""
    row = OPS.get(function)
    if row is not None and (
            module == row.module
            or (module == DEVICE_MODULE and row.device)
            or (module == COMPRESS_MODULE and row.compressed)):
        return row
    return None


def of_class(cls: str) -> list[Op]:
    return [row for row in OPS.values() if row.cls == cls]


def class_of(function: str) -> Optional[str]:
    """Class of operator ``function`` (``None``: a fused pipe or
    ``sync``, which are not operators of the table)."""
    row = OPS.get(function)
    return row.cls if row is not None else None


def bat_results(instruction) -> tuple:
    """Per result of ``instruction``, whether it holds a BAT — the
    producer whitelist that keeps scalar-valued variables (``aggr.sum``,
    ``group.group``'s ngroups, ``calc.*``) out of plan regions and tells
    the rewriter what may be device-owned."""
    row = lookup(instruction.module, instruction.function)
    if row is not None:
        return tuple(result is not SCALAR for result in row.results)
    return (instruction.op in BAT_STRUCTURAL,) * len(instruction.results)


def operator_table_markdown() -> str:
    """ARCHITECTURE.md's operator table, generated from :data:`OPS`."""
    lines = [
        "| Function | MonetDB module | Class | Args | Results "
        "| Device form | Compressed form | Partials fold | Hashes |",
        "|----------|----------------|-------|------|---------"
        "|-------------|-----------------|---------------|--------|",
    ]
    for row in OPS.values():
        fold = row.fold or " + ".join(row.parts) or "—"
        hashed = ", ".join(f"arg {index}" for index in row.hashed) or "—"
        lines.append(
            f"| `{row.function}` | `{row.module}` | {row.cls} | {row.nargs} "
            f"| {', '.join(map(str, row.results))} "
            f"| {'yes' if row.device else '—'} "
            f"| {'yes' if row.compressed else '—'} | {fold} | {hashed} |"
        )
    return "\n".join(lines)
