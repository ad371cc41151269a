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
* ORDER BY sorts one column and re-projects the remaining outputs.

Strings exist only as dictionary codes: the binder translates string
literals against the referenced column's dictionary, so only equality
survives — matching Ocelot's string support (paper Appendix A).

Compilation is pure: the same text against the same schema always
yields the same program, which is what lets the serve layer's plan
cache (:mod:`repro.serve.plancache`) memoise ``compile_sql`` keyed by
the template :func:`repro.sql.params.parameterise` renders.  The schema
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
from .params import ParamRef


class BindError(ValueError):
    """Name-resolution or typing failure during lowering."""


class SchemaProvider(Protocol):
    """What the binder needs to know about the database."""

    def has_table(self, table: str) -> bool: ...

    def columns(self, table: str) -> list[str]: ...

    def dictionary(self, table: str, column: str) -> Optional[str]: ...

    def dictionary_code(self, dictionary: str, literal: str) -> int: ...


_ARITH_OPS = {"add", "sub", "mul", "div"}

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
        binds to one; a sign or arithmetic folds here."""
        if isinstance(literal, ast.Neg):
            return -self._literal_for(bound, column, literal.operand)
        if isinstance(literal, ast.BinOp):
            return _fold(literal.op,
                         self._literal_for(bound, column, literal.left),
                         self._literal_for(bound, column, literal.right))
        if isinstance(literal, ast.Param):
            if literal.kind != "s":
                return ParamRef(literal.index)
            # resolve the dictionary at plan time, the code at bind time
            if not bound.is_base:
                raise BindError(
                    f"string literal compared with non-base "
                    f"column {column!r}"
                )
            dictionary = self.schema.dictionary(bound.table, column)
            if dictionary is None:
                raise BindError(
                    f"{bound.table}.{column} is not a string column"
                )
            return ParamRef(literal.index, (("dict", dictionary),))
        if isinstance(literal, ast.Literal):
            value = literal.value
        elif isinstance(literal, ast.DateLiteral):
            value = literal.value
        else:
            raise BindError(f"expected literal, got {literal!r}")
        if isinstance(value, str):
            if not bound.is_base:
                raise BindError(
                    f"string literal {value!r} compared with non-base "
                    f"column {column!r}"
                )
            dictionary = self.schema.dictionary(bound.table, column)
            if dictionary is None:
                raise BindError(f"{bound.table}.{column} is not a string column")
            return self.schema.dictionary_code(dictionary, value)
        return value

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
                mask = self._value_expr(pipeline, predicate, as_mask=True)
                positions = self.b.emit(
                    "algebra", "thetaselect", (mask, None, 0, "!=")
                )
                pipeline.remap(positions)
        return residuals

    def _aliases_of(self, expr: ast.Expr, bounds: list[Bound]) -> set:
        aliases: set[str] = set()

        def walk(node):
            if isinstance(node, ast.Column):
                bound, _ = self._resolve(node, bounds)
                aliases.add(bound.alias)
            elif isinstance(node, ast.BinOp):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, (ast.Neg, ast.Not)):
                walk(node.operand)
            elif isinstance(node, ast.Between):
                walk(node.operand)
                walk(node.low)
                walk(node.high)
            elif isinstance(node, ast.InList):
                walk(node.operand)
            elif isinstance(node, ast.Case):
                walk(node.condition)
                walk(node.then)
                walk(node.otherwise)
            elif isinstance(node, ast.ExtractYear):
                walk(node.operand)
            elif isinstance(node, ast.Agg) and node.argument is not None:
                walk(node.argument)

        walk(expr)
        return aliases

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
        mask = self._value_expr(pipeline, applicable[0], as_mask=True)
        for predicate in applicable[1:]:
            other = self._value_expr(pipeline, predicate, as_mask=True)
            mask = self.b.emit("batcalc", "and", (mask, other))
        positions = self.b.emit(
            "algebra", "thetaselect", (mask, None, 0, "!=")
        )
        pipeline.remap(positions)
        for predicate in applicable:
            residuals.remove(predicate)

    # ===================================================================
    # value-space expression compilation
    # ===================================================================

    def _value_expr(self, pipeline: "_Pipeline", expr: ast.Expr,
                    as_mask: bool = False):
        """Compile ``expr`` over the pipeline's current rows.

        Returns a Var (column) or a Python scalar.  With ``as_mask`` the
        result is a uint8 predicate column.
        """
        b = self.b
        if isinstance(expr, ast.Literal):
            if isinstance(expr.value, str):
                raise BindError(
                    f"string literal {expr.value!r} outside a comparison"
                )
            return expr.value
        if isinstance(expr, ast.DateLiteral):
            return expr.value
        if isinstance(expr, ast.Param):
            if expr.kind == "s":
                raise BindError("string literal outside a comparison")
            return ParamRef(expr.index)
        if isinstance(expr, ast.Column):
            return pipeline.value_of_column(expr)
        if isinstance(expr, ast.Neg):
            operand = self._value_expr(pipeline, expr.operand)
            if not isinstance(operand, Var):
                return -operand
            return b.emit("batcalc", "sub", (0, operand))
        if isinstance(expr, ast.ExtractYear):
            operand = self._value_expr(pipeline, expr.operand)
            if isinstance(operand, ParamRef):
                return operand.intdiv(10000)
            if not isinstance(operand, Var):
                return int(operand) // 10000
            return b.emit("batcalc", "intdiv", (operand, 10000))
        if isinstance(expr, ast.Case):
            condition = self._value_expr(pipeline, expr.condition,
                                         as_mask=True)
            then = self._value_expr(pipeline, expr.then)
            otherwise = self._value_expr(pipeline, expr.otherwise)
            return b.emit("batcalc", "ifthenelse",
                          (condition, then, otherwise))
        if isinstance(expr, ast.ScalarSubquery):
            return self._compile_scalar_subquery(expr.query)
        if isinstance(expr, (ast.Between, ast.InList)):
            return self._value_expr(pipeline, _comparisons(expr),
                                    as_mask=True)
        if isinstance(expr, ast.Not):
            operand = self._value_expr(pipeline, expr.operand, as_mask=True)
            return b.emit("batcalc", "eq", (operand, 0))
        if isinstance(expr, ast.BinOp):
            if expr.op in ("and", "or"):
                left = self._value_expr(pipeline, expr.left, as_mask=True)
                right = self._value_expr(pipeline, expr.right, as_mask=True)
                return b.emit("batcalc", expr.op, (left, right))
            if expr.op in _CMP_OPS:
                left, right = self._compile_cmp_operands(pipeline, expr)
                if not isinstance(left, Var) and not isinstance(right, Var):
                    raise BindError("comparison of two constants")
                return b.emit("batcalc", expr.op, (left, right))
            # arithmetic
            left = self._value_expr(pipeline, expr.left)
            right = self._value_expr(pipeline, expr.right)
            if not isinstance(left, Var) and not isinstance(right, Var):
                return _fold(expr.op, left, right)
            return b.emit("batcalc", expr.op, (left, right))
        if isinstance(expr, ast.Agg):
            raise BindError("aggregate in a non-aggregate context")
        raise BindError(f"cannot compile expression {expr!r}")

    def _compile_cmp_operands(self, pipeline, expr: ast.BinOp):
        """Comparison operands with dictionary-code resolution."""
        if isinstance(expr.left, ast.Column) and _is_constant(expr.right):
            bound, column = self._resolve(expr.left, pipeline.bounds)
            return (
                pipeline.value_of_column(expr.left),
                self._literal_for(bound, column, expr.right),
            )
        if isinstance(expr.right, ast.Column) and _is_constant(expr.left):
            bound, column = self._resolve(expr.right, pipeline.bounds)
            return (
                self._literal_for(bound, column, expr.left),
                pipeline.value_of_column(expr.right),
            )
        return (
            self._value_expr(pipeline, expr.left),
            self._value_expr(pipeline, expr.right),
        )

    # ===================================================================
    # projection / aggregation phase
    # ===================================================================

    def _projection_phase(self, pipeline: "_Pipeline",
                          select: ast.Select) -> list[tuple[str, Var]]:
        if select.group_by:
            return self._grouped_outputs(pipeline, select, select.group_by)
        if _one_row(select) and select.limit == 0:
            # one row of scalars has no empty form: grouped by a column,
            # the aggregate has rows for the LIMIT to cut
            return self._grouped_outputs(pipeline, select,
                                         [pipeline.anchor()])
        if _one_row(select):
            return self._scalar_outputs(pipeline, select)
        outputs = []
        for index, item in enumerate(select.items):
            var = self._value_expr(pipeline, item.expr)
            if not isinstance(var, Var):
                raise BindError(
                    "constant select items need an aggregate context"
                )
            outputs.append((_output_name(item, index), var))
        return outputs

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
        outputs = []
        for index, item in enumerate(select.items):
            var = group_env.compile(item.expr)
            outputs.append((_output_name(item, index), var))
        if select.having is not None:
            mask = group_env.compile(select.having)
            positions = self.b.emit(
                "algebra", "thetaselect", (mask, None, 0, "!=")
            )
            outputs = [
                (name, self.b.emit("algebra", "projection",
                                   (positions, var)))
                for name, var in outputs
            ]
        return outputs

    def _scalar_outputs(self, pipeline, select) -> list[tuple[str, Var]]:
        env = _ScalarEnv(self, pipeline)
        outputs = []
        for index, item in enumerate(select.items):
            outputs.append((_output_name(item, index),
                            env.compile(item.expr)))
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
    """The joined relation under construction."""

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
    """Compiles SELECT/HAVING expressions over a grouped relation."""

    def __init__(self, compiler, pipeline, group_exprs, key_vars, gids,
                 ngroups):
        self.compiler = compiler
        self.pipeline = pipeline
        self.group_exprs = list(group_exprs)
        self.key_vars = key_vars
        self.gids = gids
        self.ngroups = ngroups
        self._key_cache: dict[int, Var] = {}

    def compile(self, expr: ast.Expr):
        b = self.compiler.b
        for index, group_expr in enumerate(self.group_exprs):
            if expr == group_expr:
                if index not in self._key_cache:
                    self._key_cache[index] = b.emit(
                        "aggr", "submin",
                        (self.key_vars[index], self.gids, self.ngroups),
                    )
                return self._key_cache[index]
        if isinstance(expr, ast.Agg):
            if expr.func == "count" and expr.argument is None:
                return b.emit("aggr", "subcount", (self.gids, self.ngroups))
            argument = self.compiler._value_expr(self.pipeline,
                                                 expr.argument)
            if not isinstance(argument, Var):
                raise BindError("aggregate over a constant")
            if expr.func == "count":
                return b.emit("aggr", "subcount", (self.gids, self.ngroups))
            return b.emit(
                "aggr", f"sub{expr.func}",
                (argument, self.gids, self.ngroups),
            )
        if isinstance(expr, (ast.Literal, ast.DateLiteral)):
            return expr.value
        if isinstance(expr, ast.Param):
            if expr.kind == "s":
                raise BindError("string literal outside a comparison")
            return ParamRef(expr.index)
        if isinstance(expr, ast.BinOp):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            if not isinstance(left, Var) and not isinstance(right, Var):
                return _fold(expr.op, left, right)
            if expr.op in _CMP_OPS or expr.op in ("and", "or"):
                return b.emit("batcalc", expr.op, (left, right))
            return b.emit("batcalc", expr.op, (left, right))
        if isinstance(expr, ast.ScalarSubquery):
            return self.compiler._compile_scalar_subquery(expr.query)
        if isinstance(expr, ast.Not):
            operand = self.compile(expr.operand)
            return b.emit("batcalc", "eq", (operand, 0))
        if isinstance(expr, ast.Neg):
            operand = self.compile(expr.operand)
            if not isinstance(operand, Var):
                return -operand
            return b.emit("batcalc", "sub", (0, operand))
        if isinstance(expr, (ast.Between, ast.InList)):
            return self.compile(_comparisons(expr))
        raise BindError(
            f"expression {expr!r} is neither a group key nor an aggregate"
        )


class _ScalarEnv:
    """Compiles ungrouped-aggregate SELECT items (scalar results)."""

    def __init__(self, compiler, pipeline):
        self.compiler = compiler
        self.pipeline = pipeline

    def compile(self, expr: ast.Expr):
        b = self.compiler.b
        if isinstance(expr, ast.Agg):
            if expr.func == "count" and expr.argument is None:
                anchor = self.pipeline.value_of_column(
                    self.pipeline.anchor())
                return b.emit("aggr", "count", (anchor,))
            argument = self.compiler._value_expr(self.pipeline,
                                                 expr.argument)
            return b.emit("aggr", expr.func, (argument,))
        if isinstance(expr, (ast.Literal, ast.DateLiteral)):
            return expr.value
        if isinstance(expr, ast.Param):
            if expr.kind == "s":
                raise BindError("string literal outside a comparison")
            return ParamRef(expr.index)
        if isinstance(expr, ast.BinOp):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            if not isinstance(left, Var) and not isinstance(right, Var):
                return _fold(expr.op, left, right)
            return b.emit("calc", expr.op, (left, right))
        if isinstance(expr, ast.ScalarSubquery):
            return self.compiler._compile_scalar_subquery(expr.query)
        raise BindError(f"non-aggregate {expr!r} in a scalar select")


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
    return not select.group_by and (
        select.having is not None
        or any(_contains_agg(item.expr) for item in select.items))


def _contains_agg(expr) -> bool:
    if isinstance(expr, ast.Agg):
        return True
    if isinstance(expr, ast.BinOp):
        return _contains_agg(expr.left) or _contains_agg(expr.right)
    if isinstance(expr, (ast.Neg, ast.Not)):
        return _contains_agg(expr.operand)
    if isinstance(expr, ast.Case):
        return any(
            _contains_agg(e)
            for e in (expr.condition, expr.then, expr.otherwise)
        )
    if isinstance(expr, ast.ExtractYear):
        return _contains_agg(expr.operand)
    return False


def _is_constant(expr, numeric: bool = False) -> bool:
    """A literal, or a sign or ``+ - * /`` over numeric constants: what
    may stand wherever a literal may."""
    if isinstance(expr, ast.Param):
        return not numeric or expr.kind != "s"
    if isinstance(expr, (ast.Literal, ast.DateLiteral)):
        return not numeric or not isinstance(expr.value, str)
    if isinstance(expr, ast.Neg):
        return _is_constant(expr.operand, True)
    return isinstance(expr, ast.BinOp) and expr.op in _ARITH_OPS \
        and _is_constant(expr.left, True) and _is_constant(expr.right, True)


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


def compile_sql(text: str, schema: SchemaProvider,
                name: str = "query") -> MALProgram:
    """Parse and lower one SQL statement into a MAL program."""
    from .parser import parse

    return Compiler(schema, name=name).compile(parse(text))
