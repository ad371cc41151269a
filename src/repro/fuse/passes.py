"""The fusion pass: collapse element-wise chains into ``fuse.pipe``.

A dataflow pass over a :class:`~repro.monetdb.mal.MALProgram` that finds
maximal DAG regions of fusable instructions — element-wise ``batcalc``
operations, plus ``algebra.select``/``algebra.thetaselect`` consuming an
in-region value — and replaces each region with **one** ``fuse.pipe``
instruction carrying the region's expression tree
(:class:`~repro.fuse.expr.FusedPipe`).

Safety rules, in order:

* an instruction only joins a region if every BAT operand is *known* to
  be a BAT (producer whitelist — a ``batcalc`` over an aggregate scalar
  variable stays unfused),
* a region is **sealed** the moment any non-member consumes one of its
  definitions; values consumed outside the region become *live outputs*
  of the pipe (written by the single pass), values consumed only inside
  become intermediates and are never materialised,
* a sealed region is split into **connected components** (instructions
  sharing a variable, transitively).  Element-wise operators require
  equal-length operands, so a connected component provably lives in one
  row space — the single row count its generated kernel iterates over;
  two unrelated chains (a lineitem predicate and a HAVING filter over
  an ngroups-wide column) never share a pass,
* selection members are terminal: their (oid/bitmap) result never feeds
  a calc node inside the same region — the region seals first,
* components below ``MIN_REGION`` instructions are left exactly in
  place (fusing a single operator saves nothing).

Each fused component replaces its members with one ``fuse.pipe`` at the
*last* member's position; every other instruction keeps its place.
That placement is safe by construction: operands are defined before
their consuming member, and the seal rule guarantees no external
consumer appears before the seal point.  The pass is **idempotent** —
a plan already containing ``fuse.pipe`` instructions is returned
unchanged.  It runs inside every engine's optimizer pipeline
(:meth:`repro.engines.EngineConfig.plan`), *before* the Ocelot
rewriter, which then reroutes ``fuse.pipe`` to ``ocelot.pipe`` — so
the serve layer's plan cache memoises fused plans and HET places each
region as one operator.

Gated by the ``fusion`` engine knob (:data:`repro.engines.KNOBS`): the
CI knob A/B job runs the whole TPC-H correctness suite with it off so
the non-fused path cannot rot.
"""

from __future__ import annotations

from ..monetdb import ops
from ..monetdb.backends import select_bounds_to_op
from ..monetdb.dataflow import (
    bat_var_names,
    collapse,
    connected_components,
    is_literal,
    var_uses,
)
from ..monetdb.mal import MALInstruction, MALProgram, Var
from .expr import FConst, FIn, FOp, FSelect, FusedOutput, FusedPipe

#: minimum region size worth replacing with a fused instruction
MIN_REGION = 2


def _member_class(instruction: MALInstruction) -> "str | None":
    """The class of a MonetDB-form operator the pass may fold into a
    region — element-wise ``batcalc`` and selections — else ``None``."""
    row = ops.lookup(instruction.module, instruction.function)
    if row is not None and instruction.module == row.module \
            and row.cls in ("ewise", "select"):
        return row.cls
    return None


def fuse_program(program: MALProgram,
                 min_region: int = MIN_REGION) -> MALProgram:
    """Rewrite ``program``, replacing fusable regions with ``fuse.pipe``."""
    instructions = program.instructions
    if any(i.module == "fuse" for i in instructions):
        return program     # already fused: the pass is a no-op
    result_vars = {var.name for _, var in program.result_columns}
    total_uses = var_uses(instructions)
    bat_vars = bat_var_names(instructions)

    # -- phase 1: sealed super-regions (member indices) ---------------------
    regions: list[list[int]] = []
    members: list[int] = []
    region_defs: set[str] = set()       # all member result variables
    select_defs: set[str] = set()       # results of fused selections

    def classify(instruction: MALInstruction):
        """``"calc"`` / ``"select"`` if the instruction can join the
        open region (or start one, for calcs) right now, else ``None``."""
        cls = _member_class(instruction)
        if cls == "ewise" and len(instruction.results) == 1:
            var_args = instruction.var_args()
            if not var_args:
                return None
            if any(a.name in select_defs for a in var_args):
                return None        # selection results are terminal
            if all(a.name in bat_vars for a in var_args):
                return "calc"
            return None
        if cls == "select":
            args = instruction.args
            src = args[0]
            if not isinstance(src, Var) or src.name not in region_defs \
                    or src.name in select_defs:
                return None        # only selections over in-region values
            if args[1] is not None:     # candidate-constrained: keep whole
                return None
            if any(not is_literal(a) for a in args[2:]):
                return None
            return "select"
        return None

    def seal():
        if members:
            regions.append(list(members))
        members.clear()
        region_defs.clear()
        select_defs.clear()

    for index, instruction in enumerate(instructions):
        kind = classify(instruction)
        if members and kind is None and any(
            isinstance(a, Var) and a.name in region_defs
            for a in instruction.args
        ):
            # a non-member consumes a region value: seal the region so
            # its live outputs materialise before this consumer
            seal()
            kind = classify(instruction)
        if kind is not None:
            members.append(index)
            region_defs.add(instruction.results[0].name)
            if kind == "select":
                select_defs.add(instruction.results[0].name)
    seal()

    # -- phase 2: connected components within each sealed region ------------
    # (shared variables, transitively: element-wise operators require
    # equal-length operands, so each component lives in one row space)
    components: list[list[int]] = []
    for region in regions:
        components.extend(connected_components(region, instructions))

    # -- phase 3: emit, collapsing each large-enough component to one
    # fuse.pipe at its last member's position --------------------------------
    return collapse(
        program, components,
        lambda component: _build_pipe(
            [instructions[i] for i in component], total_uses, result_vars
        ),
        min_region,
    )


def _build_pipe(members, total_uses, result_vars):
    """One ``fuse.pipe`` instruction for a closed region (or ``None``
    when the region has no live output — emit unchanged, stay safe)."""
    exprs: dict[str, object] = {}
    inputs: list[Var] = []
    input_index: dict[str, int] = {}

    def as_node(arg):
        if isinstance(arg, Var):
            node = exprs.get(arg.name)
            if node is not None:
                return node
            slot = input_index.get(arg.name)
            if slot is None:
                slot = len(inputs)
                input_index[arg.name] = slot
                inputs.append(arg)
            return FIn(slot)
        return FConst(arg)

    for member in members:
        if member.module == "batcalc":
            node = FOp(
                member.function, tuple(as_node(a) for a in member.args)
            )
        elif member.function == "thetaselect":
            src, _cand, value, op = member.args
            node = FSelect(as_node(src), op, value)
        else:
            src, _cand, lo, hi, li, hi_incl, anti = member.args
            op, lo_v, hi_v = select_bounds_to_op(
                lo, hi, bool(li), bool(hi_incl)
            )
            node = FSelect(as_node(src), op, lo_v, hi_v, bool(anti))
        exprs[member.results[0].name] = node

    internal = var_uses(members)
    outputs, out_vars = [], []
    for member in members:
        var = member.results[0]
        external = total_uses[var.name] - internal[var.name]
        if external > 0 or var.name in result_vars:
            outputs.append(FusedOutput(var.name, exprs[var.name]))
            out_vars.append(var)
    if not outputs:
        return None
    spec = FusedPipe(outputs=tuple(outputs), inputs=tuple(inputs))
    return MALInstruction(
        tuple(out_vars), "fuse", "pipe", (spec,) + tuple(inputs)
    )


def count_pipes(program: MALProgram) -> int:
    """Number of fused instructions in a plan (test helper).

    Counts top-level ``fuse.pipe`` instructions plus any absorbed into
    ``morsel.run`` regions by the later morsel pass (a pipe inside a
    region is still one fused kernel launch per morsel)."""
    count = sum(1 for i in program.instructions if i.op == "fuse.pipe")
    for instruction in program.instructions:
        if instruction.op == "morsel.run":
            spec = instruction.args[0]
            count += sum(
                1 for member in spec.members if member.op == "fuse.pipe"
            )
    return count
