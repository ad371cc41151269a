"""A generated-query differential oracle: every engine against ``sqlite3``.

Hypothesis writes single-table statements over the fixed oracle's
adversarial tables (:func:`test_sqlite_oracle.tables`) and every spec of
:func:`test_sqlite_oracle.engine_specs` answers each through
``execute()`` and once more in one ``submit()`` batch in flight; the
reference is :func:`test_sqlite_oracle.reference`, whose data-model
differences (NaN = NULL, the empty ``sum`` / ``avg`` / ``count``) hold
here too.  The statements cover the constant surface a plan binds:

* predicates — comparisons either way round, ``[NOT] BETWEEN``,
  ``[NOT] IN``, ``NOT``, ``AND`` / ``OR``;
* constants — ints and floats, negatives, constant arithmetic, and the
  same constant at two sites (``parameterise`` numbers placeholders by
  *(kind, value)*, so equal literals share one);
* outputs — projections, ``GROUP BY`` with ``count`` / ``sum`` /
  ``min`` / ``max`` / ``avg``, and ungrouped aggregates.

Generated around, said once here:

* **NaN columns stay out of predicates**: a NaN is a value to the
  engines and a NULL to SQLite, so ``q NOT IN (2)`` keeps the NaN rows
  SQLite drops.
* **``/`` between two ints is true division** here (``x < 7 / 2``
  keeps ``x = 3``) and integer division in SQLite: a divisor is a
  float.
* **A float32 column compares in float32**: a constant is cast to the
  column's type, so a float constant is one float32 holds exactly.
* **Float sums** over ±1e300 add in float64 order on the engines and
  exactly (``math.fsum``) in the reference: a float ``sum`` / ``avg``
  compares to a tolerance scaled by the column's Σ|x|.
* ``min`` / ``max`` of no rows raise (see ``reference()``): they appear
  ungrouped only without ``WHERE`` over a non-empty table.

Joins, ``HAVING``, ``ORDER BY`` and ``LIMIT`` are not generated yet.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import repro
from test_sqlite_oracle import (
    SPECS, reference, rows_of, same_value, sort_key, tables,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning")

TABLES = tables()

#: literals a statement draws from: few enough that two sites often
#: share one, ``2`` and ``2.0`` apart by kind, floats exact in float32
INTS = (0, 1, 2, 3, 5, 16, 100, 255, 1000, -1, -5, -16, -1000,
        2 ** 31 - 1, -2 ** 31)
FLOATS = (0.0, 0.25, 2.0, 2.5, 100.5, -0.5, -2.5, -1000.25)


@dataclass(frozen=True)
class Constant:
    text: str
    value: object
    compound: bool = False

    def operand(self) -> str:
        return f"({self.text})" if self.compound else self.text


def _combine(parts) -> "Constant | None":
    left, op, right = parts
    if op == "/":
        if not isinstance(right.value, float) or right.value == 0:
            return None                 # int / int: true division here
        value = left.value / right.value
    else:
        value = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                 "*": lambda a, b: a * b}[op](left.value, right.value)
    if abs(value) > 2 ** 52 or isinstance(value, float) \
            and float(np.float32(value)) != value:
        return None
    return Constant(f"{left.operand()} {op} {right.operand()}", value, True)


def _negate(constant: Constant) -> Constant:
    return Constant(f"-({constant.text})", -constant.value, True)


_leaves = st.sampled_from(
    [Constant(str(v), v) for v in INTS]
    + [Constant(repr(v), v) for v in FLOATS])
constants = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(_combine)
        .filter(lambda c: c is not None),
        inner.map(_negate)),
    max_leaves=3,
)


def _has_nan(values) -> bool:
    return values.dtype.kind == "f" and bool(np.isnan(values).any())


def _summable(values) -> bool:
    """A sum the engines' int64 holds (``wide.k`` reaches 2⁶²)."""
    return values.dtype.kind == "f" or \
        float(np.abs(values.astype(np.float64)).sum()) < 2 ** 62


def _scale(values) -> float:
    """Σ|x| over a float column's finite values."""
    return float(np.abs(values[np.isfinite(values)], dtype=np.float64).sum())


@st.composite
def predicates(draw, columns):
    def atom():
        column = draw(st.sampled_from(columns))
        kind = draw(st.sampled_from(("cmp", "cmp", "between", "in")))
        if kind == "cmp":
            op = draw(st.sampled_from(("=", "<>", "<", "<=", ">", ">=")))
            value = draw(constants).text
            if draw(st.booleans()):
                return f"{value} {op} {column}"
            return f"{column} {op} {value}"
        negated = "NOT " if draw(st.booleans()) else ""
        if kind == "between":
            low, high = draw(constants).text, draw(constants).text
            return f"{column} {negated}BETWEEN {low} AND {high}"
        items = draw(st.lists(constants, min_size=1, max_size=4))
        return f"{column} {negated}IN ({', '.join(c.text for c in items)})"

    def predicate(depth):
        shape = draw(st.sampled_from(
            ("atom", "atom", "not", "and", "or") if depth else ("atom",)))
        if shape == "atom":
            return atom()
        if shape == "not":
            return f"NOT ({predicate(depth - 1)})"
        return f"({predicate(depth - 1)}) {shape.upper()} " \
               f"({predicate(depth - 1)})"

    return predicate(2)


@dataclass(frozen=True)
class Statement:
    sql: str
    #: per output column: the absolute tolerance a float sum gets
    tolerances: tuple


@st.composite
def statements(draw) -> Statement:
    table = draw(st.sampled_from(sorted(TABLES)))
    data = TABLES[table]
    names = sorted(data)
    filterable = [c for c in names if not _has_nan(data[c])]
    where = draw(st.one_of(st.none(), predicates(filterable)))
    shape = draw(st.sampled_from(("project", "group", "aggregate")))
    outputs, tolerances, group_by = [], [], ""
    if shape == "project":
        outputs = draw(st.lists(st.sampled_from(names), min_size=1,
                                max_size=3))
        tolerances = [0.0] * len(outputs)
    else:
        if shape == "group":
            keys = draw(st.lists(st.sampled_from(names), min_size=1,
                                 max_size=2, unique=True))
            outputs += keys
            tolerances += [0.0] * len(keys)
            group_by = f" GROUP BY {', '.join(keys)}"
        functions = ["count", "sum", "avg"]
        if shape == "group" or where is None and len(data[names[0]]):
            functions += ["min", "max"]
        aggregates = draw(st.lists(
            st.tuples(st.sampled_from(functions + ["count(*)"]),
                      st.sampled_from(names)), min_size=1, max_size=3))
        for function, column in aggregates:
            values = data[column]
            if function == "count(*)":
                outputs.append("count(*)")
                tolerances.append(0.0)
                continue
            if function in ("sum", "avg") and not _summable(values):
                function = "count"
            outputs.append(f"{function}({column})")
            tolerances.append(
                1e-6 * _scale(values)
                if function in ("sum", "avg") and values.dtype.kind == "f"
                else 0.0)
    items = ", ".join(f"{out} AS o{i}" for i, out in enumerate(outputs))
    sql = f"SELECT {items} FROM {table}" \
        + (f" WHERE {where}" if where else "") + group_by
    return Statement(sql, tuple(tolerances))


def _close(got, want, tolerance) -> bool:
    if same_value(got, want):
        return True
    return bool(tolerance) and want is not None and got == got \
        and math.isfinite(want) and abs(got - want) <= tolerance


def _mismatch(statement, spec, door, got, want) -> "str | None":
    got, want = sorted(got, key=sort_key), sorted(want, key=sort_key)
    if len(got) == len(want) and all(
            all(map(_close, g, w, statement.tolerances))
            for g, w in zip(got, want)):
        return None
    return (f"{spec} via {door}: {statement.sql}\n"
            f"    engine: {got[:12]}\n    sqlite: {want[:12]}")


# -- the oracle ---------------------------------------------------------------

@pytest.fixture(scope="module")
def db():
    with repro.Database() as database:
        for name, columns in TABLES.items():
            database.create_table(name, columns)
        yield database


@pytest.fixture(scope="module")
def sqlite():
    con = reference(TABLES)
    yield con
    con.close()


def agree(db, sqlite, batch):
    """Every spec answers every statement of ``batch`` through
    ``execute()``, then all of them in one ``submit()`` batch, as
    SQLite does."""
    wanted = [sqlite.execute(s.sql).fetchall() for s in batch]
    wrong = []
    for spec in SPECS:
        con = db.connect(spec)
        for statement, want in zip(batch, wanted):
            try:
                got = rows_of(con.execute(statement.sql))
            except Exception as error:  # a refusal is a disagreement too
                wrong.append(f"{spec} via execute: {statement.sql}\n"
                             f"    raised {error!r}")
                continue
            wrong.append(_mismatch(statement, spec, "execute", got, want))
        futures = [con.submit(statement.sql) for statement in batch]
        con.drain()
        for statement, want, future in zip(batch, wanted, futures):
            error = future.exception()
            wrong.append(
                f"{spec} via submit: {statement.sql}\n    raised {error!r}"
                if error is not None else _mismatch(
                    statement, spec, "submit", rows_of(future.result()),
                    want))
    wrong = [text for text in wrong if text]
    assert not wrong, "\n".join(wrong[:8])


batches = st.lists(statements(), min_size=1, max_size=4)
_settings = dict(deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.filter_too_much])


@seed(29)
@settings(max_examples=60, **_settings)
@given(batch=batches)
def test_generated_statements_agree_with_sqlite(db, sqlite, batch):
    agree(db, sqlite, batch)


@pytest.mark.slow
@seed(2029)
@settings(max_examples=500, **_settings)
@given(batch=batches)
def test_generated_statements_soak(db, sqlite, batch):
    agree(db, sqlite, batch)
