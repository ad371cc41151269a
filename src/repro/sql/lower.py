"""Lowering: SQL AST -> MAL plans (binder + planner + code generator).

The lowering mirrors how MonetDB's SQL frontend compiles queries into
column-at-a-time MAL:

* per-table **selection chains** — sargable WHERE conjuncts become
  ``algebra.select`` / ``algebra.thetaselect`` calls threaded through a
  candidate variable; disjunctions become ``algebra.oidunion``,
* a **left-deep join pipeline** in the written JOIN order; after every
  join the surviving tables' row maps are re-projected (the paper's
  observation that the *left fetch join* is the most frequent operator
  falls out of exactly this),
* **residual predicates** (multi-table or non-sargable) are evaluated in
  value space and folded back into positions with a theta-select,
* **grouping** via ``group.group`` / ``group.subgroup`` and the
  ``aggr.sub*`` family; group keys are representative-reduced with
  ``submin`` (all values within a group are equal),
* **one expression compiler**, :meth:`Compiler._value_expr`, over three
  scopes — a row, a group, an ungrouped aggregate's one row — that
  differ only in what a column and an aggregate compile to and which
  module element-wise arithmetic emits,
* ORDER BY sorts one column and re-projects the remaining outputs.

Strings exist only as dictionary codes: the binder translates string
literals against the referenced column's dictionary, so only equality
survives — matching Ocelot's string support (paper Appendix A).

Compilation is pure: the same statement against the same schema always
yields the same program, which is what lets the serve layer's plan
cache (:mod:`repro.serve.plancache`) memoise ``compile_sql`` keyed by
the :class:`~repro.sql.params.Template` that
:func:`~repro.sql.params.parameterise` returns: the parsed statement
with every literal an ``ast.Param``, keyed by its serialisation, which
``compile_sql`` lowers without parsing again.  The schema
is consulted only through the :class:`SchemaProvider` calls, and only
for the base tables resolved in FROM; the program lists them
(``MALProgram.tables``), so the cache can keep a plan for exactly as
long as *those* tables stand.  (Layer map: ARCHITECTURE.md §"sql".)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from ..monetdb.mal import MALBuilder, MALProgram, Var
from . import ast
from .lexer import SQLSyntaxError
from .params import ParamRef, Template


class BindError(ValueError):
    """Name-resolution or typing failure during lowering."""


class SchemaProvider(Protocol):
    """What the binder needs to know about the database."""

    def has_table(self, table: str) -> bool: ...

    def columns(self, table: str) -> list[str]: ...

    def dictionary(self, table: str, column: str) -> Optional[str]: ...

    def dictionary_code(self, dictionary: str, literal: str) -> int: ...


_CMP_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}
_CMP_TO_THETA = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                 "gt": ">", "ge": ">="}


@dataclass
class Bound:
    """One relation bound into the current pipeline."""

    alias: str
    table: Optional[str] = None               # base table name
    derived_columns: Optional[dict] = None    # derived: column -> Var
    cand: Optional[Var] = None                # selection candidate
    rowmap: Optional[Var] = None              # positions into cand space
    source_cache: dict = field(default_factory=dict)
    value_cache: dict = field(default_factory=dict)

    @property
    def is_base(self) -> bool:
        return self.table is not None


class Compiler:
    """Compiles one :class:`ast.Query` into a MAL program."""

    def __init__(self, schema: SchemaProvider, name: str = "query"):
        self.schema = schema
        self.b = MALBuilder(name)
        self.ctes: dict[str, dict] = {}
        #: base tables resolved in any FROM, in first-use order
        self.tables: dict[str, None] = {}

    # ===================================================================
    # entry point
    # ===================================================================

    def compile(self, query: ast.Query) -> MALProgram:
        for cte_name, cte_select in query.ctes:
            self.ctes[cte_name] = self._compile_derived(cte_select)
        outputs = self._compile_select(query.select)
        program = self.b.returns(outputs)
        program.tables = tuple(self.tables)
        return program

    # ===================================================================
    # SELECT pipeline
    # ===================================================================

    def _compile_select(self, select: ast.Select) -> list[tuple[str, Var]]:
        bounds = self._bind_from(select)
        conjuncts = _flatten_and(select.where)
        residuals = self._apply_sargable(bounds, conjuncts)
        pipeline = _Pipeline(self, [bounds[0]])
        for join in select.joins:
            new_bound = self._bound_for(join.item, bounds)
            self._apply_join(pipeline, join, new_bound)
        pipeline.complete = True
        self._apply_residuals(pipeline, residuals)
        outputs = self._projection_phase(pipeline, select)
        outputs = self._order_limit_phase(select, outputs)
        return outputs

    def _compile_derived(self, select: ast.Select) -> dict:
        outputs = self._compile_select(select)
        return {name: var for name, var in outputs}

    # -- FROM binding -----------------------------------------------------

    def _bind_from(self, select: ast.Select) -> list[Bound]:
        if select.base is None:
            raise BindError("SELECT without FROM")
        items = [select.base] + [j.item for j in select.joins]
        bounds = []
        seen = set()
        for item in items:
            bound = self._make_bound(item)
            if bound.alias in seen:
                raise BindError(f"duplicate alias {bound.alias!r}")
            seen.add(bound.alias)
            bounds.append(bound)
        return bounds

    def _make_bound(self, item: ast.FromItem) -> Bound:
        if isinstance(item, ast.SubqueryRef):
            columns = self._compile_derived(item.query)
            return Bound(alias=item.alias, derived_columns=columns)
        if item.table in self.ctes:
            return Bound(alias=item.alias,
                         derived_columns=dict(self.ctes[item.table]))
        if not self.schema.has_table(item.table):
            raise BindError(f"unknown table {item.table!r}")
        self.tables[item.table] = None
        return Bound(alias=item.alias, table=item.table)

    def _bound_for(self, item: ast.FromItem, bounds: list[Bound]) -> Bound:
        alias = item.alias
        for bound in bounds:
            if bound.alias == alias:
                return bound
        raise BindError(f"unbound alias {alias!r}")  # pragma: no cover

    # -- column resolution ---------------------------------------------------

    def _bound_columns(self, bound: Bound) -> list[str]:
        if bound.is_base:
            return self.schema.columns(bound.table)
        return list(bound.derived_columns)

    def _resolve(self, column: ast.Column,
                 bounds: list[Bound]) -> tuple[Bound, str]:
        if column.qualifier is not None:
            for bound in bounds:
                if bound.alias == column.qualifier:
                    if column.name not in self._bound_columns(bound):
                        raise BindError(f"no column {column}")
                    return bound, column.name
            raise BindError(f"unknown alias {column.qualifier!r}")
        matches = [
            bound for bound in bounds
            if column.name in self._bound_columns(bound)
        ]
        if not matches:
            raise BindError(f"unknown column {column.name!r}")
        if len(matches) > 1:
            raise BindError(f"ambiguous column {column.name!r}")
        return matches[0], column.name

    def _column_source(self, bound: Bound, column: str) -> Var:
        """Table-level (candidate-projected) value column."""
        if column in bound.source_cache:
            return bound.source_cache[column]
        if bound.is_base:
            base = self.b.bind(bound.table, column)
            if bound.cand is not None:
                base = self.b.emit(
                    "algebra", "projection", (bound.cand, base)
                )
        else:
            base = bound.derived_columns[column]
        bound.source_cache[column] = base
        return base

    # -- literals against dictionary columns --------------------------------------

    def _literal_for(self, bound: Bound, column: str, literal) -> object:
        """What a constant (:func:`_is_constant`) compares with
        ``column`` as: a number or dictionary code, or a ParamRef that
        binds to one.  A constant reads no column, so a fresh row scope
        over ``bound`` serves."""
        return self._value_expr(_Pipeline(self, [bound]), literal,
                                (bound, column))

    def _dictionary(self, against, literal) -> str:
        """The dictionary a string literal compared with ``against`` —
        a ``(bound, column)`` — is a code of."""
        if against is None:
            raise BindError(f"string literal {literal!r} outside a "
                            f"comparison")
        bound, column = against
        if not bound.is_base:
            raise BindError(f"string literal {literal!r} compared with "
                            f"non-base column {column!r}")
        dictionary = self.schema.dictionary(bound.table, column)
        if dictionary is None:
            raise BindError(f"{bound.table}.{column} is not a string column")
        return dictionary

    # ===================================================================
    # WHERE: sargable selection chains
    # ===================================================================

    def _apply_sargable(self, bounds: list[Bound],
                        conjuncts: list[ast.Expr]) -> list[ast.Expr]:
        """Fold single-table predicates into candidate chains; return the
        residual conjuncts."""
        residuals = []
        local_residuals: dict[str, list[ast.Expr]] = {}
        for conjunct in conjuncts:
            aliases = self._aliases_of(conjunct, bounds)
            if len(aliases) == 1:
                bound = next(b for b in bounds if b.alias in aliases)
                if bound.is_base and self._is_sargable(conjunct, bound):
                    bound.cand = self._compile_sarg(bound, conjunct,
                                                    bound.cand)
                    continue
                local_residuals.setdefault(bound.alias, []).append(conjunct)
                continue
            residuals.append(conjunct)
        # table-local value-space predicates (e.g. l_commitdate <
        # l_receiptdate) fold into a rowmap before any join
        for bound in bounds:
            for predicate in local_residuals.get(bound.alias, []):
                pipeline = _Pipeline(self, [bound])
                mask = self._value_expr(pipeline, predicate)
                positions = self.b.emit(
                    "algebra", "thetaselect", (mask, None, 0, "!=")
                )
                pipeline.remap(positions)
        return residuals

    def _aliases_of(self, expr: ast.Expr, bounds: list[Bound]) -> set:
        return {self._resolve(node, bounds)[0].alias
                for node in ast.walk(expr) if isinstance(node, ast.Column)}

    def _is_sargable(self, expr: ast.Expr, bound: Bound) -> bool:
        if isinstance(expr, ast.BinOp):
            if expr.op in ("and", "or"):
                return self._is_sargable(expr.left, bound) and \
                    self._is_sargable(expr.right, bound)
            if expr.op in _CMP_OPS:
                return (
                    isinstance(expr.left, ast.Column)
                    and _is_constant(expr.right)
                ) or (
                    isinstance(expr.right, ast.Column)
                    and _is_constant(expr.left)
                )
            return False
        if isinstance(expr, ast.Between):
            return isinstance(expr.operand, ast.Column) and _is_constant(
                expr.low) and _is_constant(expr.high)
        if isinstance(expr, ast.InList):
            return isinstance(expr.operand, ast.Column) and all(
                map(_is_constant, expr.items))
        if isinstance(expr, ast.Not):
            return self._is_sargable(expr.operand, bound)
        return False

    def _compile_sarg(self, bound: Bound, expr: ast.Expr,
                      cand: Optional[Var], anti: bool = False) -> Var:
        """Candidate chain for a sargable predicate on one table."""
        if isinstance(expr, ast.Not):
            return self._compile_sarg(bound, expr.operand, cand, not anti)
        if isinstance(expr, ast.BinOp) and expr.op in ("and", "or"):
            # De Morgan: under NOT an AND selects as an OR, and back
            left = self._compile_sarg(bound, expr.left, cand, anti)
            if (expr.op == "and") != anti:
                return self._compile_sarg(bound, expr.right, left, anti)
            right = self._compile_sarg(bound, expr.right, cand, anti)
            return self.b.emit("algebra", "oidunion", (left, right))
        if isinstance(expr, ast.BinOp) and expr.op in _CMP_OPS:
            column, op, literal = self._normalise_cmp(expr)
            src = self.b.bind(bound.table, column.name)
            value = self._literal_for(bound, column.name, literal)
            theta = _CMP_TO_THETA[op]
            if anti:
                theta = _CMP_TO_THETA[_INVERT[op]]
            return self.b.emit(
                "algebra", "thetaselect", (src, cand, value, theta)
            )
        if isinstance(expr, ast.Between):
            column = expr.operand
            src = self.b.bind(bound.table, column.name)
            lo = self._literal_for(bound, column.name, expr.low)
            hi = self._literal_for(bound, column.name, expr.high)
            return self.b.emit(
                "algebra", "select",
                (src, cand, lo, hi, True, True, anti != expr.negated),
            )
        if isinstance(expr, ast.InList):
            column = expr.operand
            src = self.b.bind(bound.table, column.name)
            negated = anti != expr.negated
            if negated:
                # NOT IN: chain of anti-equality selections
                current = cand
                for item in expr.items:
                    value = self._literal_for(bound, column.name, item)
                    current = self.b.emit(
                        "algebra", "thetaselect", (src, current, value, "!=")
                    )
                return current
            branches = [
                self.b.emit(
                    "algebra", "thetaselect",
                    (src, cand,
                     self._literal_for(bound, column.name, item), "=="),
                )
                for item in expr.items
            ]
            union = branches[0]
            for branch in branches[1:]:
                union = self.b.emit("algebra", "oidunion", (union, branch))
            return union
        raise BindError(f"cannot compile sargable predicate {expr!r}")

    @staticmethod
    def _normalise_cmp(expr: ast.BinOp):
        if isinstance(expr.left, ast.Column):
            return expr.left, expr.op, expr.right
        swapped = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le",
                   "eq": "eq", "ne": "ne"}[expr.op]
        return expr.right, swapped, expr.left

    # ===================================================================
    # joins
    # ===================================================================

    def _apply_join(self, pipeline: "_Pipeline", join: ast.Join,
                    new_bound: Bound) -> None:
        conjuncts = _flatten_and(join.condition)
        equality = None
        extras = []
        for conjunct in conjuncts:
            if (
                equality is None
                and isinstance(conjunct, ast.BinOp)
                and conjunct.op == "eq"
                and isinstance(conjunct.left, ast.Column)
                and isinstance(conjunct.right, ast.Column)
            ):
                sides = self._classify_join_sides(
                    pipeline, new_bound, conjunct
                )
                if sides is not None:
                    equality = sides
                    continue
            extras.append(conjunct)
        if equality is None:
            raise BindError(
                f"join ON must contain an equality between the two sides: "
                f"{join.condition!r}"
            )
        (left_col, right_col) = equality
        left_keys = pipeline.value_of_column(left_col)
        right_keys = _Pipeline(self, [new_bound]).value_of_column(right_col)
        if join.kind == "inner":
            lpos, rpos = self.b.emit(
                "algebra", "join", (left_keys, right_keys), n_results=2
            )
            pipeline.remap(lpos)
            new_pipeline = _Pipeline(self, [new_bound])
            new_pipeline.remap(rpos)
            pipeline.bounds.append(new_bound)
        elif join.kind in ("semi", "anti"):
            fn = "semijoin" if join.kind == "semi" else "antijoin"
            lpos = self.b.emit("algebra", fn, (left_keys, right_keys))
            pipeline.remap(lpos)
        else:  # pragma: no cover
            raise BindError(f"unknown join kind {join.kind!r}")
        if extras:
            if join.kind != "inner":
                raise BindError(
                    "semi/anti join ON supports only the equality; move "
                    "extra predicates into the subquery"
                )
            self._apply_residuals(pipeline, extras)

    def _classify_join_sides(self, pipeline, new_bound, conjunct):
        """Orient ``a.x = b.y`` as (current side, new side) columns."""
        current = pipeline.bounds
        try:
            left_bound, _ = self._resolve(conjunct.left,
                                          current + [new_bound])
            right_bound, _ = self._resolve(conjunct.right,
                                           current + [new_bound])
        except BindError:
            return None
        if left_bound in current and right_bound is new_bound:
            return conjunct.left, conjunct.right
        if right_bound in current and left_bound is new_bound:
            return conjunct.right, conjunct.left
        return None

    # ===================================================================
    # residual predicates
    # ===================================================================

    def _apply_residuals(self, pipeline: "_Pipeline",
                         residuals: list[ast.Expr]) -> None:
        applicable = [
            r for r in residuals
            if self._aliases_of(r, pipeline.bounds) <= pipeline.alias_set()
        ]
        pending = [r for r in residuals if r not in applicable]
        if pending and pipeline.complete:
            raise BindError(f"unplaceable predicates: {pending!r}")
        if not applicable:
            return
        mask = self._value_expr(pipeline, applicable[0])
        for predicate in applicable[1:]:
            other = self._value_expr(pipeline, predicate)
            mask = self.b.emit("batcalc", "and", (mask, other))
        positions = self.b.emit(
            "algebra", "thetaselect", (mask, None, 0, "!=")
        )
        pipeline.remap(positions)
        for predicate in applicable:
            residuals.remove(predicate)

    # ===================================================================
    # expressions: one compiler, three scopes
    # ===================================================================

    def _value_expr(self, scope, expr: ast.Expr, against=None):
        """Compile ``expr`` in ``scope``: a row (:class:`_Pipeline`), a
        group (:class:`_GroupEnv`) or an ungrouped aggregate's one row
        (:class:`_ScalarEnv`).  What a column and an aggregate compile
        to, and what element-wise arithmetic emits, are the scope's;
        every other node compiles here, once for all three.  A scope's
        ``keys`` are the expressions besides columns it answers as it
        does a column (a group's ``GROUP BY k + 1``).

        Returns a Var, or a Python scalar or ParamRef for a constant.
        ``against`` is the ``(bound, column)`` a constant compares with,
        which a string literal is a dictionary code of.
        """
        if isinstance(expr, ast.Column) or expr in scope.keys:
            return scope.column(expr)
        if isinstance(expr, ast.Agg):
            return scope.aggregate(expr)
        if isinstance(expr, ast.Literal):
            if isinstance(expr.value, str):
                return self.schema.dictionary_code(
                    self._dictionary(against, expr.value), expr.value)
            return expr.value
        if isinstance(expr, ast.DateLiteral):
            return expr.value
        if isinstance(expr, ast.Param):
            if expr.kind != "s":
                return ParamRef(expr.index)
            # resolve the dictionary at plan time, the code at bind time
            dictionary = self._dictionary(against, f"?{expr.index}s")
            return ParamRef(expr.index, (("dict", dictionary),))
        if isinstance(expr, ast.Neg):
            operand = self._value_expr(scope, expr.operand, against)
            if not isinstance(operand, Var):
                return -operand
            return scope.elementwise("sub", (0, operand))
        if isinstance(expr, ast.ExtractYear):
            operand = self._value_expr(scope, expr.operand)
            if isinstance(operand, ParamRef):
                return operand.intdiv(10000)
            if not isinstance(operand, Var):
                return int(operand) // 10000
            return scope.elementwise("intdiv", (operand, 10000))
        if isinstance(expr, ast.Case):
            condition = self._value_expr(scope, expr.condition)
            then = self._value_expr(scope, expr.then)
            otherwise = self._value_expr(scope, expr.otherwise)
            return scope.elementwise("ifthenelse",
                                     (condition, then, otherwise))
        if isinstance(expr, ast.ScalarSubquery):
            return self._compile_scalar_subquery(expr.query)
        if isinstance(expr, (ast.Between, ast.InList)):
            return self._value_expr(scope, _comparisons(expr))
        if isinstance(expr, ast.Not):
            operand = self._value_expr(scope, expr.operand)
            return scope.elementwise("eq", (operand, 0))
        if isinstance(expr, ast.BinOp):
            if expr.op in ("and", "or"):
                left = self._value_expr(scope, expr.left)
                right = self._value_expr(scope, expr.right)
                return scope.elementwise(expr.op, (left, right))
            if expr.op in _CMP_OPS:
                left, right = self._compile_cmp_operands(scope, expr)
                if not isinstance(left, Var) and not isinstance(right, Var):
                    raise BindError("comparison of two constants")
                return scope.elementwise(expr.op, (left, right))
            # arithmetic
            left = self._value_expr(scope, expr.left, against)
            right = self._value_expr(scope, expr.right, against)
            if not isinstance(left, Var) and not isinstance(right, Var):
                return _fold(expr.op, left, right)
            return scope.elementwise(expr.op, (left, right))
        raise BindError(f"cannot compile expression {expr!r}")

    def _compile_cmp_operands(self, scope, expr: ast.BinOp):
        """Comparison operands; a constant compared with a column is a
        dictionary code where the column is a string column."""
        if isinstance(expr.left, ast.Column) and _is_constant(expr.right):
            against = self._resolve(expr.left, scope.bounds)
            return (
                scope.column(expr.left),
                self._value_expr(scope, expr.right, against),
            )
        if isinstance(expr.right, ast.Column) and _is_constant(expr.left):
            against = self._resolve(expr.right, scope.bounds)
            return (
                self._value_expr(scope, expr.left, against),
                scope.column(expr.right),
            )
        return (
            self._value_expr(scope, expr.left),
            self._value_expr(scope, expr.right),
        )

    def _aggregated(self, pipeline: "_Pipeline", agg: ast.Agg) -> Var:
        """What an aggregate folds: its argument over the rows, never a
        constant."""
        argument = self._value_expr(pipeline, agg.argument)
        if not isinstance(argument, Var):
            raise BindError("aggregate over a constant")
        return argument

    # ===================================================================
    # projection / aggregation phase
    # ===================================================================

    def _projection_phase(self, pipeline: "_Pipeline",
                          select: ast.Select) -> list[tuple[str, Var]]:
        if select.having is not None and not select.group_by:
            # one group's HAVING would keep or drop the one row, which
            # no operator here expresses
            raise BindError("HAVING needs GROUP BY")
        if select.group_by:
            return self._grouped_outputs(pipeline, select, select.group_by)
        if _one_row(select) and select.limit == 0:
            # one row of scalars has no empty form: grouped by a column,
            # the aggregate has rows for the LIMIT to cut
            return self._grouped_outputs(pipeline, select,
                                         [pipeline.anchor()])
        if _one_row(select):
            return self._outputs(_ScalarEnv(self, pipeline), select)
        outputs = self._outputs(pipeline, select)
        if not all(isinstance(var, Var) for _name, var in outputs):
            raise BindError("constant select items need an aggregate context")
        return outputs

    def _outputs(self, scope, select) -> list[tuple[str, Var]]:
        names = [_output_name(item, index)
                 for index, item in enumerate(select.items)]
        for name in names:
            if names.count(name) > 1:
                # a result is keyed by name: the later column would
                # silently replace the earlier one
                raise BindError(f"duplicate output name {name!r}")
        return [(name, self._value_expr(scope, item.expr))
                for name, item in zip(names, select.items)]

    def _grouped_outputs(self, pipeline, select,
                         group_by) -> list[tuple[str, Var]]:
        key_vars = [self._value_expr(pipeline, key) for key in group_by]
        for var in key_vars:
            if not isinstance(var, Var):
                raise BindError("GROUP BY over a constant")
        gids, ngroups = self.b.emit(
            "group", "group", (key_vars[0],), n_results=2
        )
        for key_var in key_vars[1:]:
            gids, ngroups = self.b.emit(
                "group", "subgroup", (key_var, gids, ngroups), n_results=2
            )
        group_env = _GroupEnv(self, pipeline, group_by, key_vars,
                              gids, ngroups)
        outputs = self._outputs(group_env, select)
        if select.having is not None:
            mask = self._value_expr(group_env, select.having)
            positions = self.b.emit(
                "algebra", "thetaselect", (mask, None, 0, "!=")
            )
            outputs = [
                (name, self.b.emit("algebra", "projection",
                                   (positions, var)))
                for name, var in outputs
            ]
        return outputs

    def _compile_scalar_subquery(self, select: ast.Select):
        outputs = self._compile_select(select)
        if len(outputs) != 1:
            raise BindError("scalar subquery must produce one column")
        return outputs[0][1]

    # ===================================================================
    # ORDER BY / LIMIT
    # ===================================================================

    def _order_limit_phase(self, select: ast.Select, outputs):
        """``ORDER BY`` one output column, then ``LIMIT``.  An ungrouped
        aggregate's one row is in order already and survives any
        ``LIMIT`` but 0 (compiled grouped, see :meth:`_projection_phase`,
        and cut here)."""
        if _one_row(select) and select.limit != 0:
            if select.order_by is not None:
                self._sort_index(select, outputs)
            return outputs
        if select.order_by is not None:
            sort_index = self._sort_index(select, outputs)
            sort_var = outputs[sort_index][1]
            sorted_var, order = self.b.emit(
                "algebra", "sort", (sort_var, select.order_by.descending),
                n_results=2,
            )
            new_outputs = []
            for index, (name, var) in enumerate(outputs):
                if index == sort_index:
                    new_outputs.append((name, sorted_var))
                else:
                    new_outputs.append(
                        (name, self.b.emit("algebra", "projection",
                                           (order, var)))
                    )
            outputs = new_outputs
        if select.limit is not None:
            # the first n rows in the outputs' own order — the n
            # smallest row ids, whatever the columns hold
            rows = self.b.emit("bat", "mirror", (outputs[0][1],))
            top = self.b.emit(
                "algebra", "firstn", (rows, select.limit, True)
            )
            outputs = [
                (name, self.b.emit("algebra", "projection", (top, var)))
                for name, var in outputs
            ]
        return outputs

    @staticmethod
    def _sort_index(select: ast.Select, outputs) -> int:
        """The output column ``ORDER BY`` names."""
        target = select.order_by.expr
        for index, (name, _var) in enumerate(outputs):
            if isinstance(target, ast.Column) and target.name == name:
                return index
            if select.items[index].expr == target:
                return index
        raise BindError("ORDER BY must reference an output column")


# =======================================================================
# helper environments
# =======================================================================

class _Pipeline:
    """The joined relation under construction, and the scope of a row
    expression over it (see :meth:`Compiler._value_expr`): a column is
    its value at each row; an aggregate has no place."""

    keys = ()

    def __init__(self, compiler: Compiler, bounds: list[Bound]):
        self.compiler = compiler
        self.bounds = bounds
        self.complete = False

    def alias_set(self) -> set:
        return {bound.alias for bound in self.bounds}

    def anchor(self) -> ast.Column:
        """The first bound relation's first column: one value per row."""
        bound = self.bounds[0]
        return ast.Column(bound.alias,
                          self.compiler._bound_columns(bound)[0])

    def value_of_column(self, column: ast.Column) -> Var:
        bound, name = self.compiler._resolve(column, self.bounds)
        cached = bound.value_cache.get(name)
        if cached is not None:
            return cached
        source = self.compiler._column_source(bound, name)
        if bound.rowmap is not None:
            value = self.compiler.b.emit(
                "algebra", "projection", (bound.rowmap, source)
            )
        else:
            value = source
        bound.value_cache[name] = value
        return value

    column = value_of_column

    def aggregate(self, agg: ast.Agg):
        raise BindError("aggregate in a non-aggregate context")

    def elementwise(self, op: str, args: tuple) -> Var:
        return self.compiler.b.emit("batcalc", op, args)

    def remap(self, positions: Var) -> None:
        """Fold new positions into every bound table's row map."""
        for bound in self.bounds:
            if bound.rowmap is None:
                bound.rowmap = positions
            else:
                bound.rowmap = self.compiler.b.emit(
                    "algebra", "projection", (positions, bound.rowmap)
                )
            bound.value_cache = {}


class _GroupEnv:
    """The scope of a ``GROUP BY`` output or ``HAVING``: a column is the
    group key it resolves to, read with ``aggr.submin`` (every value of
    a group is the key); an aggregate is ``aggr.sub*``; element-wise is
    ``batcalc``, as over rows."""

    def __init__(self, compiler, pipeline, group_by, key_vars, gids,
                 ngroups):
        self.compiler = compiler
        self.pipeline = pipeline
        self.bounds = pipeline.bounds
        self.keys = tuple(key for key in group_by
                          if not isinstance(key, ast.Column))
        self._identities = [self._identity(key) for key in group_by]
        self.key_vars = key_vars
        self.gids = gids
        self.ngroups = ngroups
        self._key_cache: dict[int, Var] = {}

    def _identity(self, expr):
        """A column by what it resolves to, any other key by its
        spelling (``SELECT k + 1 … GROUP BY k + 1``)."""
        if isinstance(expr, ast.Column):
            bound, name = self.compiler._resolve(expr, self.bounds)
            return bound.alias, name
        return expr

    def column(self, expr) -> Var:
        identity = self._identity(expr)
        if identity not in self._identities:
            raise BindError(f"{expr} is neither a group key nor in an "
                            f"aggregate")
        index = self._identities.index(identity)
        if index not in self._key_cache:
            self._key_cache[index] = self.compiler.b.emit(
                "aggr", "submin",
                (self.key_vars[index], self.gids, self.ngroups),
            )
        return self._key_cache[index]

    def aggregate(self, agg: ast.Agg) -> Var:
        b = self.compiler.b
        if agg.argument is None:        # count(*)
            return b.emit("aggr", "subcount", (self.gids, self.ngroups))
        argument = self.compiler._aggregated(self.pipeline, agg)
        if agg.func == "count":
            return b.emit("aggr", "subcount", (self.gids, self.ngroups))
        return b.emit("aggr", f"sub{agg.func}",
                      (argument, self.gids, self.ngroups))

    elementwise = _Pipeline.elementwise


class _ScalarEnv:
    """The scope of an ungrouped aggregate's one row of scalars: an
    aggregate is ``aggr.*``, a bare column has no one value, and
    element-wise is host arithmetic, ``calc``."""

    keys = ()

    def __init__(self, compiler, pipeline):
        self.compiler = compiler
        self.pipeline = pipeline
        self.bounds = pipeline.bounds

    def column(self, expr) -> Var:
        raise BindError(f"non-aggregate {expr} in a scalar select")

    def aggregate(self, agg: ast.Agg) -> Var:
        if agg.argument is None:        # count(*): of any one column
            argument = self.pipeline.value_of_column(self.pipeline.anchor())
        else:
            argument = self.compiler._aggregated(self.pipeline, agg)
        return self.compiler.b.emit("aggr", agg.func, (argument,))

    def elementwise(self, op: str, args: tuple) -> Var:
        if op not in ast.ARITHMETIC:
            raise BindError(f"{op!r} over ungrouped aggregates: calc has "
                            f"only + - * /")
        return self.compiler.b.emit("calc", op, args)


# =======================================================================
# small helpers
# =======================================================================

_INVERT = {"eq": "ne", "ne": "eq", "lt": "ge", "le": "gt", "gt": "le",
           "ge": "lt"}


def _flatten_and(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinOp) and expr.op == "and":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _comparisons(expr: "ast.Between | ast.InList") -> ast.Expr:
    """``[NOT] BETWEEN`` / ``[NOT] IN`` as the comparisons it means."""
    if isinstance(expr, ast.Between):
        combined = ast.BinOp("and", ast.BinOp("ge", expr.operand, expr.low),
                             ast.BinOp("le", expr.operand, expr.high))
    else:
        eqs = [ast.BinOp("eq", expr.operand, item) for item in expr.items]
        combined = eqs[0]
        for eq in eqs[1:]:
            combined = ast.BinOp("or", combined, eq)
    return ast.Not(combined) if expr.negated else combined


def _one_row(select: ast.Select) -> bool:
    """An ungrouped aggregate: one row of scalars, whatever the input."""
    return not select.group_by and any(
        isinstance(node, ast.Agg)
        for item in select.items for node in ast.walk(item.expr))


def _is_constant(expr, numeric: bool = False) -> bool:
    """A literal, or a sign or ``+ - * /`` over numeric constants: what
    may stand wherever a literal may."""
    if isinstance(expr, ast.Param):
        return not numeric or expr.kind != "s"
    if isinstance(expr, (ast.Literal, ast.DateLiteral)):
        return not numeric or not isinstance(expr.value, str)
    if not ast.is_arithmetic(expr):
        return False
    # a loop, not all(<generator>): one frame per level of a long chain
    for child in ast.children(expr):
        if not _is_constant(child, True):
            return False
    return True


def _fold(op: str, left, right):
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    if op == "div":
        return left / right
    raise BindError(f"cannot fold constant op {op!r}")


def _output_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.Column):
        return item.expr.name
    if isinstance(item.expr, ast.Agg):
        return item.expr.func
    return f"col{index + 1}"


def compile_sql(text: "str | Template", schema: SchemaProvider,
                name: str = "query") -> MALProgram:
    """Lower one SQL statement into a MAL program: SQL text is parsed
    first, a parameterised :class:`Template` is parsed already."""
    if isinstance(text, Template):
        query = text.query
    else:
        from .parser import parse

        query = parse(text)
    return Compiler(schema, name=name).compile(query)
