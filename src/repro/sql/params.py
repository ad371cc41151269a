"""Auto-parameterisation: literals become bind parameters at parse time.

The serve layer's plan cache used to key compiled plans on raw SQL
text, so a thousand clients sending ``WHERE o_orderdate >= '<their
date>'`` triggered a thousand compiles of the same query shape.  This
module normalises a statement's literals into positional bind
parameters *before* the cache key is computed:

* :func:`parameterise` parses the statement once and walks its tree
  once: every :class:`~repro.sql.ast.Literal` and (folded)
  :class:`~repro.sql.ast.DateLiteral` becomes an
  :class:`~repro.sql.ast.Param`, and the walk serialises the result.
  The :class:`Template` it returns is that tree, compared and hashed by
  the serialisation, plus the extracted values.  Identical literals
  share one parameter index, so frozen-AST equality between occurrences
  (group keys, ORDER BY targets) survives the rewrite.
* The binder (``lower.py``) lowers the template's tree directly and
  compiles :class:`~repro.sql.ast.Param` nodes into :class:`ParamRef`
  placeholders that flow into MAL instruction arguments exactly where
  the literal value would sit, recording any plan-time arithmetic
  (negation, interval folds, dictionary lookups) as a replayable step
  list.  A step's operand may itself be a parameter, so constant
  arithmetic (``x < 1 + 2``) binds like a lone literal and every
  template compiles.
* :func:`bind_program` substitutes concrete values for every
  :class:`ParamRef` in a compiled template — including inside fused
  expression trees and morsel regions — producing the executable plan
  for one set of arguments.  A template without parameters binds to
  the *same* program object, so identity-based caching still works.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import ast

# NOTE: the parser is imported inside :func:`parameterise` — ``lower.py``
# imports this module, and the parser's top-level ``tpch.schema`` import
# would close an import cycle through ``tpch.workload``.


@dataclass(frozen=True)
class ParamRef:
    """A placeholder for parameter ``index`` inside a compiled plan.

    ``steps`` records plan-time arithmetic the binder performed on the
    literal it replaced — e.g. ``1 - ?0f`` folds to a ParamRef with a
    ``("sub~", 1)`` step — replayed over the concrete values at bind
    time by :meth:`apply`.  A step's operand may be another ParamRef
    (``?0i + ?1i``), resolved from the same values.  A ``("dict",
    name)`` step resolves a string parameter to its dictionary code.
    """

    index: int
    steps: tuple = ()

    # -- bind-time evaluation ------------------------------------------------

    def apply(self, values: tuple, schema=None):
        out = values[self.index]
        for op, arg in self.steps:
            if isinstance(arg, ParamRef):
                arg = arg.apply(values, schema)
            if op == "dict":
                out = schema.dictionary_code(arg, out)
            elif op == "neg":
                out = -out
            elif op == "add":
                out = out + arg
            elif op == "add~":
                out = arg + out
            elif op == "sub":
                out = out - arg
            elif op == "sub~":
                out = arg - out
            elif op == "mul":
                out = out * arg
            elif op == "mul~":
                out = arg * out
            elif op == "div":
                out = out / arg
            elif op == "div~":
                out = arg / out
            elif op == "intdiv":
                out = out // arg
            else:  # pragma: no cover - steps are built below
                raise ValueError(f"unknown parameter step {op!r}")
        return out

    # -- plan-time constant folding (mirrors _fold in lower.py) --------------

    def _step(self, op: str, arg) -> "ParamRef":
        return ParamRef(self.index, self.steps + ((op, arg),))

    def intdiv(self, arg: int) -> "ParamRef":
        return ParamRef(self.index, self.steps + (("intdiv", arg),))

    def __neg__(self):
        return ParamRef(self.index, self.steps + (("neg", None),))

    def __add__(self, other):
        return self._step("add", other)

    def __radd__(self, other):
        return self._step("add~", other)

    def __sub__(self, other):
        return self._step("sub", other)

    def __rsub__(self, other):
        return self._step("sub~", other)

    def __mul__(self, other):
        return self._step("mul", other)

    def __rmul__(self, other):
        return self._step("mul~", other)

    def __truediv__(self, other):
        return self._step("div", other)

    def __rtruediv__(self, other):
        return self._step("div~", other)


# =======================================================================
# text -> (template, values)
# =======================================================================

@dataclass(frozen=True)
class Template:
    """A parsed statement with every literal an :class:`ast.Param`.

    It compares and hashes by ``text``, the serialisation of ``query``
    that :func:`parameterise` builds, which is what the plan cache keys
    on: two statements that differ only in their literals' values (or
    in whitespace and comments) have equal templates.
    """

    text: str
    query: ast.Query = field(compare=False, repr=False)


#: distinct statement texts :func:`parameterise` remembers
PARAMETERISED_TEXTS = 1024


@lru_cache(maxsize=PARAMETERISED_TEXTS)
def parameterise(text: str) -> "tuple[Template, tuple]":
    """Parse ``text`` into a :class:`Template` + the extracted values.

    Literals the plan genuinely depends on stay inline: the ``LIMIT``
    row count (the plan's ``firstn`` argument) is not a literal node.

    Placeholders are numbered by ``(kind, value)`` in the order the
    literals are written, and that is load-bearing: the binder matches
    SELECT expressions against GROUP BY / ORDER BY ones structurally, so
    ``SELECT a + 1 … GROUP BY a + 1`` only binds if both ``1`` s are the
    same ``?0i``.  The cost: literals that are equal by coincidence
    share an index too, so ``WHERE v <= 1 AND g < 1`` (``?0i … ?0i``)
    and ``WHERE v <= 0 AND g < 1`` (``?0i … ?1i``) are two templates —
    two compiles, two cache entries, each answering as its literal text
    does.

    A pure function of the text, so it is memoised: a repeated statement
    costs one look-up.  A text that raises (an
    :class:`~repro.sql.lexer.SQLSyntaxError`, at an offset into
    ``text``) is not remembered, and raises again on every call.
    """
    from .parser import parse

    out: list[str] = []
    values: list = []
    query = _template(parse(text), out, values, {})
    return Template("".join(out), query), tuple(values)


_KINDS = {int: "i", float: "f", str: "s"}


def _template(node, out: list, values: list, index_of: dict):
    """``node`` with every literal under it an :class:`ast.Param`,
    appending its serialisation to ``out``.

    The serialisation is the node's type and its fields in order, so
    two trees serialise alike only if they are alike.  The walk spends
    one Python frame per tree level, as the binder does: a 400-term
    constant chain walks where a dataclass ``repr`` overflows the stack.
    """
    if isinstance(node, (ast.Literal, ast.DateLiteral)):
        value = node.value
        kind = "d" if isinstance(node, ast.DateLiteral) \
            else _KINDS[type(value)]
        index = index_of.get((kind, value))
        if index is None:
            index = index_of[kind, value] = len(values)
            values.append(value)
        out.append(f"?{index}{kind}")
        return ast.Param(index, kind)
    if isinstance(node, (list, tuple)):
        out.append("[")
        items = []
        for item in node:
            if items:
                out.append(",")
            items.append(_template(item, out, values, index_of))
        out.append("]")
        return type(node)(items)
    names = getattr(node, "__dataclass_fields__", None)
    if names is None:
        out.append(repr(node))      # a name, a flag, LIMIT's row count
        return node
    out.append(type(node).__name__ + "(")
    parts = []
    for name in names:
        if parts:
            out.append(",")
        parts.append(_template(getattr(node, name), out, values, index_of))
    out.append(")")
    return type(node)(*parts)


# =======================================================================
# (template program, values) -> executable program
# =======================================================================

def bind_program(program, values: tuple, schema):
    """Substitute concrete ``values`` for every ParamRef in ``program``.

    Rebuilds only what changed: a zero-parameter template returns the
    *same* program object (identity-cached plans stay identical), and
    untouched instructions/expression nodes are shared between the
    template and every bound copy.
    """
    changed = False
    instructions = []
    for instruction in program.instructions:
        bound = _bind_instruction(instruction, values, schema)
        changed = changed or bound is not instruction
        instructions.append(bound)
    if not changed:
        return program
    return replace(program, instructions=instructions)


def _bind_instruction(instruction, values, schema):
    args = tuple(_bind_arg(arg, values, schema) for arg in instruction.args)
    if all(new is old for new, old in zip(args, instruction.args)):
        return instruction
    return replace(instruction, args=args)


def _bind_arg(arg, values, schema):
    if isinstance(arg, ParamRef):
        return arg.apply(values, schema)
    # fused expression trees and morsel regions carry nested payloads;
    # imported lazily to keep this module free of heavyweight deps
    from ..fuse.expr import FusedPipe

    if isinstance(arg, FusedPipe):
        return _bind_pipe(arg, values, schema)
    from ..morsel.passes import MorselRegion

    if isinstance(arg, MorselRegion):
        members = tuple(
            _bind_instruction(member, values, schema)
            for member in arg.members
        )
        if all(new is old for new, old in zip(members, arg.members)):
            return arg
        return replace(arg, members=members)
    return arg


def _bind_pipe(pipe, values, schema):
    from ..fuse.expr import FusedOutput, FusedPipe

    memo: dict = {}
    outputs = []
    changed = False
    for output in pipe.outputs:
        expr = _bind_node(output.expr, memo, values, schema)
        if expr is output.expr:
            outputs.append(output)
        else:
            outputs.append(FusedOutput(output.name, expr))
            changed = True
    if not changed:
        return pipe
    return FusedPipe(tuple(outputs), pipe.inputs)


def _bind_node(node, memo, values, schema):
    if id(node) in memo:
        return memo[id(node)]
    from ..fuse.expr import FConst, FOp, FSelect

    out = node
    if isinstance(node, FConst):
        if isinstance(node.value, ParamRef):
            out = FConst(node.value.apply(values, schema))
    elif isinstance(node, FOp):
        args = tuple(
            _bind_node(child, memo, values, schema) for child in node.args
        )
        if any(new is not old for new, old in zip(args, node.args)):
            out = FOp(node.op, args)
    elif isinstance(node, FSelect):
        child = _bind_node(node.child, memo, values, schema)
        lo = node.lo
        hi = node.hi
        if isinstance(lo, ParamRef):
            lo = lo.apply(values, schema)
        if isinstance(hi, ParamRef):
            hi = hi.apply(values, schema)
        if child is not node.child or lo is not node.lo or hi is not node.hi:
            out = FSelect(child, node.op, lo, hi, node.anti)
    memo[id(node)] = out
    return out
