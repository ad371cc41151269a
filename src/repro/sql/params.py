"""Auto-parameterisation: literals become bind parameters at parse time.

The serve layer's plan cache used to key compiled plans on raw SQL
text, so a thousand clients sending ``WHERE o_orderdate >= '<their
date>'`` triggered a thousand compiles of the same query shape.  This
module normalises a statement's literals into positional bind
parameters *before* the cache key is computed:

* :func:`parameterise` rewrites the token stream — every int, float,
  string, and (folded) ``DATE '...' [± INTERVAL ...]`` literal becomes
  a ``?<index><kind>`` marker — and returns the canonical template
  text plus the extracted values.  Identical literals share one
  parameter index, so frozen-AST equality between occurrences (group
  keys, ORDER BY targets) survives the rewrite.
* The binder (``lower.py``) compiles :class:`repro.sql.ast.Param`
  nodes into :class:`ParamRef` placeholders that flow into MAL
  instruction arguments exactly where the literal value would sit,
  recording any plan-time arithmetic (negation, interval folds,
  dictionary lookups) as a replayable step list.  A step's operand may
  itself be a parameter, so constant arithmetic (``x < 1 + 2``) binds
  like a lone literal and every template compiles.
* :func:`bind_program` substitutes concrete values for every
  :class:`ParamRef` in a compiled template — including inside fused
  expression trees and morsel regions — producing the executable plan
  for one set of arguments.  A template without parameters binds to
  the *same* program object, so identity-based caching still works.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lexer import SQLSyntaxError, Token, tokenize

# NOTE: the ``tpch.schema`` date helpers are imported inside the
# functions that need them — ``lower.py`` imports this module, and a
# top-level tpch import would close an import cycle through
# ``tpch.workload``.


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

_INTERVAL_UNITS = ("day", "month", "year")


def _fold_interval(value: int, sign: int, count: int, unit: str) -> int:
    """Replicate the parser's ``DATE ± INTERVAL`` arithmetic exactly."""
    from ..tpch.schema import date_add_days

    if unit == "day":
        return date_add_days(value, sign * count)
    if unit == "month":
        return date_add_days(value, sign * count * 30)
    return value + sign * count * 10000


def parameterise(text: str) -> "tuple[str, tuple]":
    """Rewrite ``text`` into a parameterised template + extracted values.

    The template re-tokenizes to the same statement with literals
    replaced by ``?<index><kind>`` markers; it doubles as the plan-cache
    key text (whitespace- and comment-insensitive by construction).
    Literals the plan genuinely depends on stay inline: the ``LIMIT``
    row count (the plan's ``firstn`` argument) and any date/interval
    shape the parser could not fold.

    Placeholders are numbered by ``(kind, value)``, not by position,
    and that is load-bearing: the binder matches SELECT expressions
    against GROUP BY / ORDER BY ones structurally, so ``SELECT a + 1 …
    GROUP BY a + 1`` only binds if both ``1`` s are the same ``?0i``.
    The cost: literals that are equal by coincidence share an index
    too, so ``WHERE v <= 1 AND g < 1`` (``?0i … ?0i``) and ``WHERE v <=
    0 AND g < 1`` (``?0i … ?1i``) are two templates — two compiles, two
    cache entries, each answering as its literal text does.
    """
    from ..tpch.schema import date_literal

    tokens = tokenize(text)
    rendered: list[str] = []
    values: list = []
    index_of: dict = {}

    def placeholder(kind: str, value) -> str:
        key = (kind, value)
        if key not in index_of:
            index_of[key] = len(values)
            values.append(value)
        return f"?{index_of[key]}{kind}"

    def verbatim(token: Token) -> str:
        if token.kind == "string":
            return f"'{token.value}'"
        if token.kind == "param":
            raise SQLSyntaxError(
                "parameter markers are internal; pass literal SQL"
            )
        return token.value

    i = 0
    while tokens[i].kind != "eof":
        token = tokens[i]
        if (token.kind == "kw" and token.value == "limit"
                and tokens[i + 1].kind == "int"):
            rendered.append("limit")
            rendered.append(tokens[i + 1].value)
            i += 2
            continue
        if (token.kind == "kw" and token.value == "date"
                and tokens[i + 1].kind == "string"):
            try:
                value = date_literal(tokens[i + 1].value)
            except (ValueError, KeyError):
                rendered.append("date")
                rendered.append(verbatim(tokens[i + 1]))
                i += 2
                continue
            j = i + 2
            if (tokens[j].kind == "punct" and tokens[j].value in ("+", "-")
                    and tokens[j + 1].kind == "kw"
                    and tokens[j + 1].value == "interval"
                    and tokens[j + 2].kind == "string"
                    and tokens[j + 2].value.isdigit()
                    and tokens[j + 3].kind == "kw"
                    and tokens[j + 3].value in _INTERVAL_UNITS):
                sign = 1 if tokens[j].value == "+" else -1
                value = _fold_interval(
                    value, sign, int(tokens[j + 2].value),
                    tokens[j + 3].value,
                )
                j += 4
            rendered.append(placeholder("d", value))
            i = j
            continue
        if token.kind == "int":
            rendered.append(placeholder("i", int(token.value)))
            i += 1
            continue
        if token.kind == "float":
            rendered.append(placeholder("f", float(token.value)))
            i += 1
            continue
        if token.kind == "string":
            rendered.append(placeholder("s", token.value))
            i += 1
            continue
        rendered.append(verbatim(token))
        i += 1
    return " ".join(rendered), tuple(values)


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
