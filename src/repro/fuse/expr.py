"""Fused expression trees: the payload of a ``fuse.pipe`` instruction.

A fused region of element-wise MAL instructions is summarised as a small
DAG over the region's *inputs* (columns flowing in from outside) and
*constants* (literals baked into the original instructions).  Node kinds:

* :class:`FIn` — the i-th input column of the fused instruction,
* :class:`FConst` — a literal operand (``1`` in ``1 - l_discount``),
* :class:`FOp` — one ``batcalc`` operation (arithmetic, comparison,
  logical, ``ifthenelse``),
* :class:`FSelect` — a selection consuming an in-region value; its
  predicate vocabulary is the shared one of
  :func:`repro.kernels.selection.predicate_mask`.

The same tree drives every backend: the scalar engines evaluate it
directly (:func:`evaluate`), the Ocelot kernel generator compiles it
into a single-pass kernel (:mod:`repro.fuse.codegen`), and ``explain``
renders it inline (:meth:`FusedPipe.__repr__`).  Per-node result dtypes
follow exactly the rules the *unfused* operators use
(:func:`repro.monetdb.calc.calc_result_dtype` and friends), so fusing a
chain never changes its numeric result.

Shared sub-expressions are shared *objects* — the evaluator memoises by
object identity, which is what makes the single pass single-pass even
for diamond-shaped regions (Q1's ``1 - l_discount`` feeds two outputs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..kernels.selection import predicate_mask
from ..monetdb.calc import (
    calc_result_dtype, elementwise, ifthenelse, ifthenelse_dtype,
)

_OP_SYMBOL = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "intdiv": "//",
    "and": "&", "or": "|", "eq": "==", "ne": "!=", "lt": "<",
    "le": "<=", "gt": ">", "ge": ">=",
}


@dataclass(frozen=True)
class FIn:
    """The ``index``-th input column of the fused instruction."""

    index: int


@dataclass(frozen=True)
class FConst:
    """A literal operand baked into the fused kernel."""

    value: object


@dataclass(frozen=True)
class FOp:
    """One element-wise ``batcalc`` operation over child nodes."""

    op: str
    args: tuple


@dataclass(frozen=True)
class FSelect:
    """A selection over an in-region value column.

    ``op`` is the shared predicate vocabulary (``"<"`` ... ``"[]"``);
    the scalar engines materialise the qualifying positions as an oid
    list, the Ocelot kernel writes the paper's selection bitmap.
    """

    child: object
    op: str
    lo: object
    hi: object = None
    anti: bool = False


def node_dtype(node, input_dtypes) -> np.dtype:
    """Result dtype of ``node`` — the unfused operators' exact rules."""
    if isinstance(node, FIn):
        return np.dtype(input_dtypes[node.index])
    if isinstance(node, FConst):
        return np.min_scalar_type(node.value)
    if isinstance(node, FOp):
        if node.op == "ifthenelse":
            return ifthenelse_dtype(*(
                arg.value if isinstance(arg, FConst)
                else node_dtype(arg, input_dtypes)
                for arg in node.args[1:]
            ))
        return calc_result_dtype(
            node_dtype(node.args[0], input_dtypes),
            node_dtype(node.args[1], input_dtypes),
            node.op,
        )
    raise TypeError(f"no value dtype for {type(node).__name__}")


def evaluate(node, inputs, memo: Optional[dict] = None):
    """Evaluate one node over the input arrays (scalar engines + the
    generated kernels' ``vec_fn`` both run through here).

    Every ``FOp`` is :func:`~repro.monetdb.calc.elementwise` (or
    ``ifthenelse``), the call the unfused operators make, so results
    agree with unfused execution bit for bit.  ``FSelect`` nodes return
    the boolean mask; the caller encodes it (oid list or bitmap) per
    its backend's selection convention.
    """
    if memo is None:
        memo = {}
    key = id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, FIn):
        out = inputs[node.index]
    elif isinstance(node, FConst):
        out = node.value
    elif isinstance(node, FSelect):
        child = evaluate(node.child, inputs, memo)
        mask = predicate_mask(child, node.op, node.lo, node.hi)
        if node.anti:
            mask = ~mask
        out = mask
    elif isinstance(node, FOp):
        vals = [evaluate(a, inputs, memo) for a in node.args]
        if node.op == "ifthenelse":
            out = ifthenelse(*vals)
        else:
            out = elementwise(node.op, *vals)
    else:
        raise TypeError(f"cannot evaluate {node!r}")
    memo[key] = out
    return out


def render(node, names) -> str:
    """Human-readable (and canonical) text of one expression node.

    ``names`` maps input slots to display names — the original MAL
    variables for ``explain``, canonical ``%i`` slots for the
    structural key.
    """
    if isinstance(node, FIn):
        return names[node.index]
    if isinstance(node, FConst):
        return repr(node.value)
    if isinstance(node, FSelect):
        bounds = render(node.child, names) + f" {node.op} {node.lo!r}"
        if node.hi is not None:
            bounds += f":{node.hi!r}"
        prefix = "antiselect" if node.anti else "select"
        return f"{prefix}({bounds})"
    if node.op == "ifthenelse":
        inner = ", ".join(render(a, names) for a in node.args)
        return f"if({inner})"
    a, b = (render(arg, names) for arg in node.args)
    return f"({a} {_OP_SYMBOL[node.op]} {b})"


@dataclass(frozen=True)
class FusedOutput:
    """One live output of a fused region.

    ``name`` is the original MAL variable, kept so downstream
    instructions (and ``explain``) reference the fused result without
    renaming.
    """

    name: str
    expr: object

    @property
    def is_select(self) -> bool:
        return isinstance(self.expr, FSelect)


@dataclass(frozen=True)
class FusedPipe:
    """The complete payload of one ``fuse.pipe`` instruction."""

    outputs: tuple          # of FusedOutput, in original program order
    inputs: tuple           # of Var, the external operand columns

    # -- identity ---------------------------------------------------------

    def structural_key(self) -> str:
        """Canonical text of the region's shape (kernel-cache key).

        Input slots are positional and constants are included — two
        regions share a generated kernel exactly when they compute the
        same expressions over the same operand layout.
        """
        slots = [f"%{i}" for i in range(len(self.inputs))]
        return ";".join(
            ("sel:" if o.is_select else "val:") + render(o.expr, slots)
            for o in self.outputs
        )

    def kernel_name(self) -> str:
        digest = hashlib.md5(self.structural_key().encode()).hexdigest()
        return f"fuse_{digest[:10]}"

    def node_count(self) -> int:
        """Unique operation nodes — the per-row work of the single pass."""
        seen: set[int] = set()

        def walk(node):
            if id(node) in seen:
                return
            if isinstance(node, FOp):
                seen.add(id(node))
                for arg in node.args:
                    walk(arg)
            elif isinstance(node, FSelect):
                seen.add(id(node))
                walk(node.child)

        for output in self.outputs:
            walk(output.expr)
        return len(seen)

    # -- rendering (explain) ------------------------------------------------

    def __repr__(self) -> str:
        names = [var.name for var in self.inputs]
        body = "; ".join(
            f"{o.name}={render(o.expr, names)}" for o in self.outputs
        )
        return "{" + body + "}"
