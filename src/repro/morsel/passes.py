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

Safety rules, in order:

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
  guarantees the positional pairing that slicing preserves,
* a region is sealed the moment any non-member consumes one of its
  definitions (the fusion pass's rule) and split into variable-connected
  components,
* a component is dropped — left exactly in place — when an escaping
  positions column lives in a derived space (its morsel-local offsets
  are not reconstructible), when one value is used both sliced and
  whole, or when the component is smaller than ``MIN_REGION``.

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
from ..monetdb.dataflow import (
    bat_var_names,
    collapse,
    connected_components,
    is_literal,
    var_uses,
)
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


def morselize_program(program: MALProgram,
                      size: int = DEFAULT_MORSEL_SIZE,
                      min_region: int = MIN_REGION) -> MALProgram:
    """Rewrite ``program``, collapsing pipelined regions to ``morsel.run``."""
    instructions = program.instructions
    if any(i.module == "morsel" for i in instructions):
        return program      # already morselized: the pass is a no-op
    result_vars = {var.name for _, var in program.result_columns}

    total_uses = var_uses(instructions)
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

    # -- phase 1: sealed super-regions ---------------------------------------
    #: (member indices, drive) per sealed region
    regions: list[tuple[list[int], tuple]] = []
    members: list[int] = []
    #: member def -> (kind, row space); spaces: _DRIVE, "proj:<oids>", …
    defs: dict[str, tuple[str, str]] = {}
    #: the open region's drive: ("table", name) | ("positions", var)
    drive: list = [None]
    #: region input name -> "sliced" | "whole"
    input_mode: dict[str, str] = {}
    member_kinds: dict[int, tuple] = {}
    member_modes: dict[int, tuple] = {}

    def space_of_drive(d) -> "str | None":
        if d is None:
            return None
        return _DRIVE if d[0] == "table" else f"proj:{d[1]}"

    def classify(instruction: MALInstruction):
        """``(kinds, modes, drive)`` if the instruction can join the open
        region right now, else ``None``.  ``kinds`` holds one
        ``(kind, space)`` per result; ``modes`` the input-mode
        assignments the member relies on; ``drive`` the (possibly newly
        proposed) region drive."""
        cls = _class_of(instruction)
        modes: list[tuple[str, str]] = []
        proposal: list = [drive[0]]

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
                space = space_of_drive(proposal[0])
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
                if space != space_of_drive(proposal[0]):
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
                if space is None and entry[1] == space_of_drive(proposal[0]):
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
            if oids.name not in positions_vars:
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

    def seal():
        if members and drive[0] is not None:
            regions.append((list(members), drive[0]))
        members.clear()
        defs.clear()
        input_mode.clear()
        drive[0] = None

    def admit(index: int, instruction: MALInstruction, plan) -> None:
        kinds, modes, proposed = plan
        members.append(index)
        drive[0] = proposed
        for name, mode in modes:
            input_mode[name] = mode
        for var, entry in zip(instruction.results, kinds):
            defs[var.name] = entry
        member_kinds[index] = kinds
        member_modes[index] = modes

    for index, instruction in enumerate(instructions):
        plan = classify(instruction)
        if members and plan is None and any(
            isinstance(a, Var) and a.name in defs
            for a in instruction.args
        ):
            seal()
            plan = classify(instruction)
        elif members and plan is None:
            # the instruction may be unable to join only because the
            # open region is driven elsewhere (a new pipeline over a
            # different table): if it could *start* a region, seal the
            # open one and let it.  Tried against cleared state and
            # rolled back when it changes nothing, so instructions that
            # are no member under any drive (binds, joins, sorts) never
            # cut a region short.
            saved = (dict(defs), dict(input_mode), drive[0])
            defs.clear()
            input_mode.clear()
            drive[0] = None
            plan = classify(instruction)
            defs.update(saved[0])
            input_mode.update(saved[1])
            drive[0] = saved[2]
            if plan is not None:
                seal()
        if plan is not None:
            admit(index, instruction, plan)
    seal()

    # -- phase 2: variable-connected components ------------------------------
    components: list[list[int]] = []
    drive_of: dict[int, tuple] = {}     # by a component's last member
    for indices, region_drive in regions:
        for component in connected_components(indices, instructions):
            components.append(component)
            drive_of[component[-1]] = region_drive

    # -- phase 3: emit -------------------------------------------------------
    return collapse(
        program, components,
        lambda component: _build_region(
            component, instructions, drive_of[component[-1]],
            member_kinds, member_modes,
            total_uses, result_vars, size,
        ),
        min_region,
    )


def _build_region(indices, instructions, drive, member_kinds, member_modes,
                  total_uses, result_vars, size) -> "MALInstruction | None":
    """One ``morsel.run`` instruction for a component (or ``None`` when
    the component is unsafe or has no live output — emit unchanged)."""
    members = [instructions[i] for i in indices]
    drive_space = _DRIVE if drive[0] == "table" else f"proj:{drive[1]}"

    defs: dict[str, tuple[str, str]] = {}
    for i in indices:
        for var, entry in zip(instructions[i].results, member_kinds[i]):
            defs[var.name] = entry
    mode: dict[str, str] = {}
    for i in indices:
        for name, m in member_modes[i]:
            if name in defs:
                continue
            if mode.get(name, m) != m:
                return None    # one value used both sliced and whole
            mode[name] = m

    inputs: list[Var] = []
    sliced: list[bool] = []
    seen: set[str] = set()
    for member in members:
        for arg in member.var_args():
            if arg.name in defs or arg.name in seen:
                continue
            m = mode.get(arg.name)
            if m is None:
                return None    # classification hole — stay safe
            seen.add(arg.name)
            inputs.append(arg)
            sliced.append(m == "sliced")

    internal = var_uses(members)

    outputs: list[MorselOutput] = []
    out_vars: list[Var] = []
    drive_positions: set[str] = set()
    for member in members:
        for var in member.results:
            kind, space = defs[var.name]
            external = total_uses[var.name] - internal[var.name]
            if external <= 0 and var.name not in result_vars:
                continue
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
            out_vars.append(var)
    if not outputs:
        return None
    spec = MorselRegion(
        table=drive[1], size=int(size), members=tuple(members),
        inputs=tuple(inputs), outputs=tuple(outputs),
        drive_positions=frozenset(drive_positions),
        sliced=tuple(sliced),
    )
    return MALInstruction(
        tuple(out_vars), "morsel", "run", (spec,) + tuple(inputs)
    )


def count_regions(program: MALProgram) -> int:
    """Number of ``morsel.run`` instructions in a plan (test helper)."""
    return sum(1 for i in program.instructions if i.op == "morsel.run")
