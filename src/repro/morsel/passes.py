"""The morsel pass: carve pipeline-safe regions out of a MAL plan.

A dataflow pass over a :class:`~repro.monetdb.mal.MALProgram` (mirroring
the fusion pass, :mod:`repro.fuse.passes`) that finds maximal *pipelined
regions* — chains of selections, gathers (``algebra.projection``),
element-wise ``batcalc`` / fused ``fuse.pipe`` work and terminal
aggregations — and replaces each region with a single ``morsel.run``
instruction carrying a :class:`MorselRegion` spec.

At execution time the interpreter hands the spec to a
:class:`repro.morsel.run.MorselRun`, which breaks
the driving row space into fixed-size morsels and streams each morsel
through the whole region: intermediates stay morsel-sized and are
released at last use instead of end-of-query, which is exactly the
memory-stall-dominated access pattern morsel-driven pipelining removes.

Two region shapes share one machinery:

*table-driven*
    Inputs are ``sql.bind`` results over one driving table; a single
    ``[lo, hi)`` oid range slices them all consistently.

*positions-driven*
    The drive is a previously-materialised positions column (a select
    result, sort order, or escaped output of an earlier region); the
    region's gathers read **whole** base columns at the sliced drive
    positions, element-wise work runs over the gathered morsels, and
    grouped aggregates (``aggr.subsum``/…) fold per-morsel partial
    tables that combine exactly (:mod:`repro.monetdb.partials` has the
    rules, by output kind).  This is the shape that keeps a query's
    post-``group`` projection→calc→aggregate pipeline morsel-sized.

Grouping itself (``group.group``/``group.subgroup``) may join a region
too: each morsel is grouped *locally* with the backend's own operators,
the run keeps every morsel's local key tuples, and the grouped-aggregate
partials are scattered through the local→merged id mapping.  Dense
group-id numbering in every backend ascends with the key tuple
(``subgroup`` ranks lexicographic ``(parent, inner)`` pairs), so
ranking the collected key tuples on the host at finalize
(:func:`repro.monetdb.partials.merge_groups`) reproduces the
whole-column ids exactly, with no operator dispatched.  The gids
column and the full-width grouping hash table never materialise unless
a gids definition actually escapes the region.

The pass understands both operator vocabularies — the MonetDB modules
(``algebra``/``batcalc``/``aggr``/``fuse``) and the post-rewrite Ocelot
module — so it runs *after* the Ocelot rewriter in every engine's
optimizer pipeline (:meth:`repro.engines.EngineConfig.plan`).

What joins a region (:class:`_Region`), and what a component may
become:

* every member is row-order-preserving (selections emit ascending
  positions, gathers and element-wise kernels preserve row order), so
  concatenating per-morsel outputs reproduces the whole-column result
  exactly,
* each definition is tracked with its *row space*: the driving space
  (``D`` for the bound table, ``proj:<drive>`` for a positions drive;
  slice-local positions offset by ``lo`` on escape) or a derived space
  created by each in-region projection; element-wise members require
  all operands in one space,
* an *external* BAT operand of an element-wise or grouped-aggregate
  member may join as an **aligned input** (sliced with the drive) only
  when the member's in-region operands live in the drive space itself —
  the one space fixed ``[lo, hi)`` ranges actually cut; plan validity
  guarantees the positional pairing that slicing preserves, and one
  value is never used both sliced and whole,
* a component is left exactly in place when an escaping positions
  column lives in a derived space (its morsel-local offsets are not
  reconstructible).

When a region seals (a non-member reads one of its values, or an
instruction over a different drive starts a pipeline of its own), how
it splits into variable-connected components, and which of those are
large enough (``MIN_REGION``) and have something escaping, is the
shared region finder's (:func:`repro.monetdb.dataflow.collapse_regions`),
the one the fusion pass uses.

An escaping positions column is a host oid list on every engine; an oid
combination outside the region that meets two of them runs on MonetDB
by the Ocelot engines' one hand-back rule
(:meth:`repro.ocelot.engine.MixedExecutionBackend._hand_back`), so the
pass need not know which engine it plans for.

Gated and sized by the ``morsel`` engine knob
(:data:`repro.engines.KNOBS`) — the whole-column path stays the A/B
baseline, and the serve layer's plan cache keys on the effective value
so the two compilations never mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..monetdb import ops
from ..monetdb.dataflow import bat_var_names, collapse_regions, is_literal
from ..monetdb.mal import MALInstruction, MALProgram, Var

#: default morsel size (rows per batch) — L2-friendly for 4-byte tails
DEFAULT_MORSEL_SIZE = 65536

#: minimum component size worth streaming (a single operator gains
#: nothing from morsel-at-a-time execution)
MIN_REGION = 2

#: operator classes whose positions result may drive a
#: positions-driven region (a select result, a combined candidate list,
#: a sort order)
_DRIVING = ("select", "oidcombine", "sort")


def _class_of(instruction: MALInstruction) -> "str | None":
    """The operator class the pass treats ``instruction`` as, in either
    vocabulary (the MonetDB modules or the post-rewrite Ocelot module).
    Compressed-execution forms are opaque leaves — except selections,
    which stream like plain ones."""
    row = ops.lookup(instruction.module, instruction.function)
    if row is None or (instruction.module == ops.COMPRESS_MODULE
                       and row.cls != "select"):
        return None
    return row.cls


#: the driving row space of a table-driven region (the bound oid space)
_DRIVE = "D"


@dataclass(frozen=True)
class MorselOutput:
    """One escaping definition of a region: what the run must rebuild."""

    name: str
    #: "value" | "positions" | "scalar" | "gagg" | "ggids" | "gscalar"
    kind: str
    fn: str = ""         # aggregate fold: sum/min/max/count/avg
    module: str = ""     # agg module ("aggr"/"ocelot"), for partials


@dataclass(frozen=True)
class MorselRegion:
    """One pipelined region: members, inputs and escaping outputs.

    Appears as the first argument of a ``morsel.run`` instruction, so
    ``explain()`` renders region boundaries through :meth:`__repr__`.
    """

    table: str                       # driving table or positions column
    size: int                        # rows per morsel
    members: tuple = ()              # member MALInstructions, in order
    inputs: tuple = ()               # region input Vars, first-use order
    outputs: tuple = ()              # MorselOutput per escaping def
    #: positions outputs valued in the driving space (offsettable by lo)
    drive_positions: frozenset = field(default_factory=frozenset)
    #: parallel to ``inputs``: True = cut per morsel, False = pass whole
    sliced: tuple = ()

    def __repr__(self) -> str:
        members = "; ".join(m.op for m in self.members)
        outs = ", ".join(
            f"{o.name}:{o.fn or o.kind}" for o in self.outputs
        )
        return (
            f"region<{self.table}, {self.size} rows/morsel | "
            f"{members} | out: {outs}>"
        )


def _space_of_drive(drive) -> "str | None":
    if drive is None:
        return None
    return _DRIVE if drive[0] == "table" else f"proj:{drive[1]}"


class _Region:
    """An open pipelined region: its definitions with their row spaces,
    its drive, and how each input is passed."""

    def __init__(self, bind_table: dict[str, str], positions_vars: set[str],
                 bat_vars: set[str]):
        self.bind_table = bind_table
        self.positions_vars = positions_vars
        self.bat_vars = bat_vars
        #: member def -> (kind, row space); spaces: _DRIVE, "proj:<oids>", …
        self.defs: dict[str, tuple[str, str]] = {}
        #: ("table", name) | ("positions", var)
        self.drive = None
        #: region input name -> "sliced" | "whole"
        self.input_mode: dict[str, str] = {}

    def admit(self, index: int, instruction: MALInstruction) -> bool:
        plan = self._plan(instruction)
        if plan is None:
            return False
        kinds, modes, self.drive = plan
        self.input_mode.update(modes)
        for var, entry in zip(instruction.results, kinds):
            self.defs[var.name] = entry
        return True

    def _plan(self, instruction: MALInstruction):
        """``(kinds, modes, drive)`` if the instruction can join this
        region right now, else ``None``.  ``kinds`` holds one
        ``(kind, space)`` per result; ``modes`` the input-mode
        assignments the member relies on; ``drive`` the (possibly newly
        proposed) region drive."""
        defs, input_mode = self.defs, self.input_mode
        bind_table, bat_vars = self.bind_table, self.bat_vars
        cls = _class_of(instruction)
        modes: list[tuple[str, str]] = []
        proposal: list = [self.drive]

        def mode_ok(name: str, mode: str) -> bool:
            prev = input_mode.get(name)
            if prev is not None and prev != mode:
                return False
            for n, m in modes:
                if n == name and m != mode:
                    return False
            modes.append((name, mode))
            return True

        def vspace(arg) -> "str | None":
            """Row space of a value operand: an in-region definition, a
            drive-table bind, or an already-aligned sliced input."""
            if not isinstance(arg, Var):
                return None
            entry = defs.get(arg.name)
            if entry is not None:
                return entry[1] if entry[0] == "value" else None
            table = bind_table.get(arg.name)
            if table is not None:
                if proposal[0] is None:
                    proposal[0] = ("table", table)
                if proposal[0] == ("table", table) \
                        and mode_ok(arg.name, "sliced"):
                    return _DRIVE
                return None
            if input_mode.get(arg.name) == "sliced":
                space = _space_of_drive(proposal[0])
                if space is not None and mode_ok(arg.name, "sliced"):
                    return space
            return None

        def align(args):
            """Admit external BAT operands as aligned (sliced) inputs:
            sound only when the member's in-region space is the drive
            space itself.  Returns the shared space or None."""
            spaces: set = set()
            ext: list[Var] = []
            for arg in args:
                if not isinstance(arg, Var):
                    return None
                space = vspace(arg)
                if space is None:
                    if arg.name in defs or arg.name not in bat_vars:
                        return None
                    ext.append(arg)
                    continue
                spaces.add(space)
            if len(spaces) != 1:
                return None
            space = spaces.pop()
            if ext:
                if space != _space_of_drive(proposal[0]):
                    return None
                for arg in ext:
                    if not mode_ok(arg.name, "sliced"):
                        return None
            return space

        if cls == "select":
            src, cand = instruction.args[0], instruction.args[1]
            space = align((src,)) if isinstance(src, Var) else None
            if space is None:
                return None
            if cand is not None:
                if not isinstance(cand, Var):
                    return None
                if defs.get(cand.name) != ("positions", space):
                    return None
            if any(not is_literal(a) for a in instruction.args[2:]):
                return None
            return ((("positions", space),), tuple(modes), proposal[0])

        if cls == "gather":
            oids, src = instruction.args[0], instruction.args[1]
            if not isinstance(oids, Var):
                return None
            entry = defs.get(oids.name)
            if entry is not None:
                if entry[0] != "positions":
                    return None
                space = vspace(src)
                if space is None and entry[1] == _space_of_drive(proposal[0]):
                    # gather through drive-space (slice-local) positions
                    # from an aligned external column
                    space = align((src,)) if isinstance(src, Var) else None
                if space != entry[1]:
                    return None
                kinds = (("value", f"proj:{oids.name}"),)
                return (kinds, tuple(modes), proposal[0])
            # a gather through an external positions column drives (or
            # joins) a positions-driven region: the sources stay whole,
            # the positions are cut into morsels
            if oids.name not in self.positions_vars:
                return None
            if proposal[0] is None:
                proposal[0] = ("positions", oids.name)
            elif proposal[0] != ("positions", oids.name):
                return None
            if not mode_ok(oids.name, "sliced"):
                return None
            if not isinstance(src, Var) or src.name in defs \
                    or src.name not in bat_vars:
                return None
            if not mode_ok(src.name, "whole"):
                return None
            kinds = (("value", f"proj:{oids.name}"),)
            return (kinds, tuple(modes), proposal[0])

        if cls == "ewise" and len(instruction.results) == 1:
            var_args = instruction.var_args()
            if not var_args:
                return None
            space = align(var_args)
            if space is None:
                return None
            return ((("value", space),), tuple(modes), proposal[0])

        if instruction.function == "pipe":
            spec = instruction.args[0]
            var_args = instruction.var_args()
            if not var_args:
                return None
            space = align(var_args)
            if space is None:
                return None
            kinds = tuple(
                ("positions" if out.is_select else "value", space)
                for out in spec.outputs
            )
            return (kinds, tuple(modes), proposal[0])

        if cls == "oidcombine":
            a, b = instruction.args[0], instruction.args[1]
            if not isinstance(a, Var) or not isinstance(b, Var):
                return None
            ea, eb = defs.get(a.name), defs.get(b.name)
            if ea is None or ea != eb or ea[0] != "positions":
                return None
            return ((("positions", ea[1]),), tuple(modes), proposal[0])

        if (cls == "group"
                and len(instruction.results) == 2
                and len(instruction.args) == 1
                and isinstance(instruction.args[0], Var)):
            space = align(instruction.args)
            if space is None:
                return None
            # per-morsel local grouping; the run ranks the morsels' key
            # tuples at finalize.  Neither result may be
            # consumed except by subgroup / grouped aggregates below.
            kinds = (("ggids", space), ("gscalar", space))
            return (kinds, tuple(modes), proposal[0])

        if (cls == "group"
                and len(instruction.results) == 2
                and len(instruction.args) == 3):
            col, parent, ngroups = instruction.args
            if not isinstance(parent, Var) \
                    or defs.get(parent.name, ("",))[0] != "ggids":
                return None
            if not isinstance(ngroups, Var) \
                    or defs.get(ngroups.name, ("",))[0] != "gscalar":
                return None
            if not isinstance(col, Var):
                return None
            space = align((col,))
            if space is None or space != defs[parent.name][1]:
                return None
            kinds = (("ggids", space), ("gscalar", space))
            return (kinds, tuple(modes), proposal[0])

        if cls == "grouped_agg" and len(instruction.results) == 1:
            args = instruction.args
            expect = ops.OPS[instruction.function].nargs
            if len(args) != expect:
                return None
            gids, ngroups = args[-2], args[-1]
            gentry = defs.get(gids.name) if isinstance(gids, Var) else None
            if gentry is not None and gentry[0] == "ggids":
                # in-region grouping: per-morsel local partials, merged
                # through the run's ranked key tuples at finalize
                if not isinstance(ngroups, Var) \
                        or defs.get(ngroups.name, ("",))[0] != "gscalar":
                    return None
                space = gentry[1]
                if expect == 3 and align(args[:1]) != space:
                    return None
                kinds = (("gagg", space),)
                return (kinds, tuple(modes), proposal[0])
            if isinstance(ngroups, Var):
                if ngroups.name in defs or ngroups.name in bat_vars:
                    return None
                if not mode_ok(ngroups.name, "whole"):
                    return None
            space = align(args[:-1])
            if space is None:
                return None
            # the per-group partial table lives in its own space that
            # no later member may consume (it only exists at finalize)
            kinds = (("gagg", space),)
            return (kinds, tuple(modes), proposal[0])

        if (cls == "scalar_agg"
                and len(instruction.args) == 1
                and isinstance(instruction.args[0], Var)):
            if vspace(instruction.args[0]) is None:
                return None
            return ((("scalar", _DRIVE),), tuple(modes), proposal[0])

        return None


def morselize_program(program: MALProgram,
                      size: int = DEFAULT_MORSEL_SIZE,
                      min_region: int = MIN_REGION) -> MALProgram:
    """Rewrite ``program``, collapsing pipelined regions to ``morsel.run``."""
    instructions = program.instructions
    if any(i.module == "morsel" for i in instructions):
        return program      # already morselized: the pass is a no-op
    bat_vars = bat_var_names(instructions)
    bind_table: dict[str, str] = {}
    positions_vars: set[str] = set()
    for instruction in instructions:
        if instruction.op == "sql.bind" and instruction.results:
            ref = instruction.args[0]
            table = getattr(ref, "table", None)
            if table is not None:
                bind_table[instruction.results[0].name] = table
        if _class_of(instruction) in _DRIVING:
            for var, result in zip(
                    instruction.results,
                    ops.OPS[instruction.function].results):
                if result.kind == "positions":
                    positions_vars.add(var.name)
        elif instruction.function == "pipe":
            for var, out in zip(instruction.results,
                                instruction.args[0].outputs):
                if out.is_select:
                    positions_vars.add(var.name)
    return collapse_regions(
        program,
        lambda: _Region(bind_table, positions_vars, bat_vars),
        lambda region, members, inputs, escaping: _build_region(
            region, members, inputs, escaping, size
        ),
        min_region,
    )


def _build_region(region, members, inputs, escaping,
                  size) -> "MALInstruction | None":
    """One ``morsel.run`` instruction for a component (or ``None`` when
    an escaping positions column cannot be rebuilt — emit unchanged)."""
    drive_space = _space_of_drive(region.drive)
    sliced: list[bool] = []
    for var in inputs:
        mode = region.input_mode.get(var.name)
        if mode is None:
            return None    # classification hole — stay safe
        sliced.append(mode == "sliced")

    outputs: list[MorselOutput] = []
    drive_positions: set[str] = set()
    for member, var in escaping:
        kind, space = region.defs[var.name]
        if kind == "positions":
            if space != drive_space:
                # morsel-local offsets into a derived space are not
                # reconstructible base oids: leave the region alone
                return None
            drive_positions.add(var.name)
        if kind in ("scalar", "gagg"):
            outputs.append(MorselOutput(
                var.name, kind, fn=ops.OPS[member.function].agg,
                module=member.module,
            ))
        else:
            outputs.append(MorselOutput(var.name, kind))
    spec = MorselRegion(
        table=region.drive[1], size=int(size), members=tuple(members),
        inputs=tuple(inputs), outputs=tuple(outputs),
        drive_positions=frozenset(drive_positions),
        sliced=tuple(sliced),
    )
    return MALInstruction(
        tuple(var for _, var in escaping), "morsel", "run",
        (spec,) + tuple(inputs),
    )


def count_regions(program: MALProgram) -> int:
    """Number of ``morsel.run`` instructions in a plan (test helper)."""
    return sum(1 for i in program.instructions if i.op == "morsel.run")
