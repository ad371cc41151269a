"""The fusion pass: collapse element-wise chains into ``fuse.pipe``.

A dataflow pass over a :class:`~repro.monetdb.mal.MALProgram` that finds
maximal DAG regions of fusable instructions — element-wise ``batcalc``
operations, plus ``algebra.select``/``algebra.thetaselect`` consuming an
in-region value — and replaces each region with **one** ``fuse.pipe``
instruction carrying the region's expression tree
(:class:`~repro.fuse.expr.FusedPipe`).

What joins a region (:class:`_Region`):

* an element-wise instruction whose every operand is *known* to be a BAT
  (producer whitelist — a ``batcalc`` over an aggregate scalar variable
  stays unfused),
* a selection over one of the region's values, unconstrained by a
  candidate list, with literal bounds.  Selections are terminal: their
  (oid/bitmap) result never feeds a calc inside the same region.

Everything else is the shared region finder's
(:func:`repro.monetdb.dataflow.collapse_regions`): when a region seals,
how it splits into connected components (element-wise operators need
equal-length operands, so each component lives in one row space — two
unrelated chains, a lineitem predicate and a HAVING filter over an
ngroups-wide column, never share a pass), which values escape, and
where the ``fuse.pipe`` lands.  Escaping values become the pipe's live
outputs (written by the single pass); values read only inside it are
never materialised.  Components below ``MIN_REGION`` instructions stay
in place (fusing a single operator saves nothing).

The pass is **idempotent** — a plan already containing ``fuse.pipe``
instructions is returned unchanged.  It runs inside every engine's
optimizer pipeline (:meth:`repro.engines.EngineConfig.plan`), *before*
the Ocelot rewriter, which then reroutes ``fuse.pipe`` to
``ocelot.pipe`` — so the serve layer's plan cache memoises fused plans
and HET places each region as one operator.

Gated by the ``fusion`` engine knob (:data:`repro.engines.KNOBS`): the
CI knob A/B job runs the whole TPC-H correctness suite with it off so
the non-fused path cannot rot.
"""

from __future__ import annotations

from ..monetdb import ops
from ..monetdb.backends import select_bounds_to_op
from ..monetdb.dataflow import bat_var_names, collapse_regions, is_literal
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


class _Region:
    """An open fusion region: what its members define, and which of
    those are selection results (terminal)."""

    def __init__(self, bat_vars: set[str]):
        self.bat_vars = bat_vars
        self.defs: set[str] = set()
        self.select_defs: set[str] = set()

    def admit(self, index: int, instruction: MALInstruction) -> bool:
        kind = self._kind(instruction)
        if kind is None:
            return False
        name = instruction.results[0].name
        self.defs.add(name)
        if kind == "select":
            self.select_defs.add(name)
        return True

    def _kind(self, instruction: MALInstruction) -> "str | None":
        """``"calc"`` / ``"select"`` if the instruction can join this
        region right now, else ``None``."""
        cls = _member_class(instruction)
        if cls == "ewise" and len(instruction.results) == 1:
            var_args = instruction.var_args()
            if not var_args:
                return None
            if any(a.name in self.select_defs for a in var_args):
                return None        # selection results are terminal
            if all(a.name in self.bat_vars for a in var_args):
                return "calc"
            return None
        if cls == "select":
            args = instruction.args
            src = args[0]
            if not isinstance(src, Var) or src.name not in self.defs \
                    or src.name in self.select_defs:
                return None        # only selections over in-region values
            if args[1] is not None:     # candidate-constrained: keep whole
                return None
            if any(not is_literal(a) for a in args[2:]):
                return None
            return "select"
        return None


def fuse_program(program: MALProgram,
                 min_region: int = MIN_REGION) -> MALProgram:
    """Rewrite ``program``, replacing fusable regions with ``fuse.pipe``."""
    if any(i.module == "fuse" for i in program.instructions):
        return program     # already fused: the pass is a no-op
    bat_vars = bat_var_names(program.instructions)
    return collapse_regions(
        program, lambda: _Region(bat_vars), _build_pipe, min_region
    )


def _build_pipe(region, members, inputs, escaping) -> MALInstruction:
    """One ``fuse.pipe`` instruction for a component: its expression
    tree over ``inputs``, with one live output per escaping value."""
    slot = {var.name: i for i, var in enumerate(inputs)}
    exprs: dict[str, object] = {}

    def as_node(arg):
        if isinstance(arg, Var):
            node = exprs.get(arg.name)
            return node if node is not None else FIn(slot[arg.name])
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

    outputs = tuple(
        FusedOutput(var.name, exprs[var.name]) for _, var in escaping
    )
    spec = FusedPipe(outputs=outputs, inputs=tuple(inputs))
    return MALInstruction(
        tuple(var for _, var in escaping), "fuse", "pipe",
        (spec,) + tuple(inputs),
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
