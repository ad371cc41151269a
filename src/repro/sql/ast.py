"""Abstract syntax tree for the reproduction SQL dialect.

The dialect covers the Appendix-A-modified TPC-H workload in
pre-decorrelated form (DESIGN.md §2): explicit left-deep ``JOIN ... ON``
chains, ``SEMI JOIN`` / ``ANTI JOIN`` for (de-correlated) EXISTS / NOT
EXISTS, derived tables, CTEs, uncorrelated scalar subqueries, CASE
expressions, BETWEEN / IN lists, and single-column ORDER BY.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# -- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: object  # int | float | str


@dataclass(frozen=True)
class DateLiteral:
    """``DATE 'YYYY-MM-DD' [+/- INTERVAL 'n' DAY]`` -> YYYYMMDD int."""

    value: int


@dataclass(frozen=True)
class Param:
    """Bind parameter ``index`` standing in for a literal.

    The parser never makes one: :func:`repro.sql.params.parameterise`
    swaps it in for each :class:`Literal` / :class:`DateLiteral` of a
    parsed statement, and the template it returns is that tree, keyed
    by its serialisation (where this node reads ``?<index><kind>``).
    ``kind`` mirrors the literal it replaced: ``i`` int, ``f`` float,
    ``s`` string, ``d`` date (already folded to a YYYYMMDD int).
    Identical literals share one index, so frozen-AST equality between
    occurrences — which the binder relies on for group keys and ORDER BY
    — is preserved.
    """

    index: int
    kind: str


@dataclass(frozen=True)
class Column:
    qualifier: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / and or = <> < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class Between:
    operand: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    operand: "Expr"
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class Case:
    condition: "Expr"
    then: "Expr"
    otherwise: "Expr"


@dataclass(frozen=True)
class Agg:
    func: str             # sum | avg | min | max | count
    argument: Optional["Expr"]  # None for COUNT(*)


@dataclass(frozen=True)
class ExtractYear:
    operand: "Expr"


@dataclass(frozen=True)
class ScalarSubquery:
    query: "Select"


Expr = Union[
    Literal, DateLiteral, Param, Column, BinOp, Neg, Not, Between, InList,
    Case, Agg, ExtractYear, ScalarSubquery,
]

#: the ``BinOp`` operators of ``+ - * /``
ARITHMETIC = ("add", "sub", "mul", "div")


def is_arithmetic(expr) -> bool:
    """A sign, or ``+ - * /`` of two operands."""
    return isinstance(expr, Neg) or \
        isinstance(expr, BinOp) and expr.op in ARITHMETIC


def children(expr) -> tuple:
    """The expressions directly under ``expr`` — none inside a scalar
    subquery, which is a statement of its own."""
    if isinstance(expr, BinOp):
        return expr.left, expr.right
    if isinstance(expr, (Neg, Not, ExtractYear)):
        return (expr.operand,)
    if isinstance(expr, Between):
        return expr.operand, expr.low, expr.high
    if isinstance(expr, InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, Case):
        return expr.condition, expr.then, expr.otherwise
    if isinstance(expr, Agg) and expr.argument is not None:
        return (expr.argument,)
    return ()


def walk(expr):
    """``expr`` and every expression under it, parents first."""
    yield expr
    for child in children(expr):
        yield from walk(child)


# -- relations ----------------------------------------------------------------

@dataclass(frozen=True)
class TableRef:
    table: str
    alias: str


@dataclass(frozen=True)
class SubqueryRef:
    query: "Select"
    alias: str


FromItem = Union[TableRef, SubqueryRef]


@dataclass(frozen=True)
class Join:
    kind: str  # inner | semi | anti
    item: FromItem
    condition: Expr


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str]


@dataclass(frozen=True)
class OrderSpec:
    expr: Expr
    descending: bool


@dataclass
class Select:
    items: list[SelectItem] = field(default_factory=list)
    base: Optional[FromItem] = None
    joins: list[Join] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: Optional[OrderSpec] = None
    limit: Optional[int] = None


@dataclass
class Query:
    """Top level: optional CTEs + a select."""

    ctes: list[tuple[str, Select]] = field(default_factory=list)
    select: Select = None
