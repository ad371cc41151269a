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
  ``min`` / ``max`` / ``avg``, and ungrouped aggregates;
* order — ``ORDER BY`` one output column, ``ASC`` / ``DESC`` or neither,
  with or without a ``LIMIT``.  The ordered column's sequence must
  equal SQLite's; within a run of equal values the rows compare as a
  multiset, and the run a ``LIMIT`` cuts in two compares on the ordered
  column alone (which of the tied rows make the cut is either engine's
  to pick).

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
* **No ``LIMIT 0`` of an ungrouped aggregate**: its one row of scalars
  has no empty form, and every spec refuses the text.
* **An ordered column is exact and NaN-free**: never a column holding a
  NaN (SQLite sorts its NULL first, the engines sort a NaN last), an
  aggregate over one, a float ``sum`` / ``avg`` (compared to a
  tolerance) or an ``avg`` (the engines add eight-byte ints in float64).

Joins and ``HAVING`` are not generated yet.

The same statements run once more over :func:`ocelot_specs` on a
``Database(data_scale=100)``.  There a sort takes the one-launch local
exit only up to 61 keys on the GPU and 327 on the CPU (at the default
``data_scale=1``: 6 144 and 32 768, more rows than any table here
holds), so ``GROUP BY`` and ``ORDER BY`` reach the radix ladder.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import repro
from test_resident_set import ocelot_specs
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
    #: the output column ``ORDER BY`` names, and the ``LIMIT``
    order: "int | None" = None
    limit: "int | None" = None

    @property
    def reference_sql(self) -> str:
        """The text SQLite answers: one row past the ``LIMIT``, which
        tells whether the limit cuts a run of ties."""
        if self.limit is None:
            return self.sql
        return self.sql.rsplit(" LIMIT ", 1)[0] + f" LIMIT {self.limit + 1}"


#: what a generated ``LIMIT`` takes
LIMITS = (0, 1, 2, 3, 5, 10, 100)


@st.composite
def statements(draw) -> Statement:
    table = draw(st.sampled_from(sorted(TABLES)))
    data = TABLES[table]
    names = sorted(data)
    filterable = [c for c in names if not _has_nan(data[c])]
    where = draw(st.one_of(st.none(), predicates(filterable)))
    shape = draw(st.sampled_from(("project", "group", "aggregate")))
    outputs, tolerances, group_by = [], [], ""
    #: the outputs an ORDER BY may name
    orderable = []
    if shape == "project":
        outputs = draw(st.lists(st.sampled_from(names), min_size=1,
                                max_size=3))
        tolerances = [0.0] * len(outputs)
        orderable = [i for i, c in enumerate(outputs) if c in filterable]
    else:
        if shape == "group":
            keys = draw(st.lists(st.sampled_from(names), min_size=1,
                                 max_size=2, unique=True))
            outputs += keys
            tolerances += [0.0] * len(keys)
            orderable = [i for i, c in enumerate(keys) if c in filterable]
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
                orderable.append(len(outputs) - 1)
                continue
            if function in ("sum", "avg") and not _summable(values):
                function = "count"
            outputs.append(f"{function}({column})")
            tolerances.append(
                1e-6 * _scale(values)
                if function in ("sum", "avg") and values.dtype.kind == "f"
                else 0.0)
            if function == "count" or function in ("sum", "min", "max") \
                    and not tolerances[-1] and not _has_nan(values):
                orderable.append(len(outputs) - 1)
    items = ", ".join(f"{out} AS o{i}" for i, out in enumerate(outputs))
    sql = f"SELECT {items} FROM {table}" \
        + (f" WHERE {where}" if where else "") + group_by
    order = limit = None
    if orderable and draw(st.booleans()):
        order = draw(st.sampled_from(orderable))
        direction = draw(st.sampled_from(("", " ASC", " DESC")))
        sql += f" ORDER BY o{order}{direction}"
        limit = draw(st.one_of(st.none(), st.sampled_from(
            LIMITS[1:] if shape == "aggregate" else LIMITS)))
        if limit is not None:
            sql += f" LIMIT {limit}"
    return Statement(sql, tuple(tolerances), order, limit)


def _close(got, want, tolerance) -> bool:
    if same_value(got, want):
        return True
    return bool(tolerance) and want is not None and got == got \
        and math.isfinite(want) and abs(got - want) <= tolerance


def _same_rows(statement, got, want) -> bool:
    """``got`` and ``want`` hold the same rows, as multisets."""
    got, want = sorted(got, key=sort_key), sorted(want, key=sort_key)
    return len(got) == len(want) and all(
        all(map(_close, g, w, statement.tolerances))
        for g, w in zip(got, want))


def _ordered_agree(statement, got, want) -> bool:
    """The ordered column's sequence is SQLite's, and each run of ties
    holds the same rows — but for a run the ``LIMIT`` cuts in two.
    ``want`` is the answer to :attr:`Statement.reference_sql`."""
    column, limit = statement.order, statement.limit
    cut = limit is not None and 0 < limit < len(want) \
        and want[limit - 1][column] == want[limit][column]
    want = want[:limit]
    if [row[column] for row in got] != [row[column] for row in want]:
        return False

    def runs(rows):
        return [list(run) for _value, run in
                itertools.groupby(rows, key=lambda row: row[column])]

    pairs = list(zip(runs(got), runs(want)))
    if cut:
        pairs.pop()
    return all(_same_rows(statement, g, w) for g, w in pairs)


def _mismatch(statement, spec, door, got, want) -> "str | None":
    if statement.order is None:
        if _same_rows(statement, got, want):
            return None
        got, want = sorted(got, key=sort_key), sorted(want, key=sort_key)
    elif _ordered_agree(statement, got, want):
        return None
    return (f"{spec} via {door}: {statement.sql}\n"
            f"    engine: {got[:12]}\n    sqlite: {want[:12]}")


# -- the oracle ---------------------------------------------------------------

def database(data_scale: float = 1.0):
    with repro.Database(data_scale=data_scale) as db:
        for name, columns in TABLES.items():
            db.create_table(name, columns)
        yield db


@pytest.fixture(scope="module")
def db():
    yield from database()


@pytest.fixture(scope="module")
def db_scaled():
    yield from database(data_scale=100)


@pytest.fixture(scope="module")
def sqlite():
    con = reference(TABLES)
    yield con
    con.close()


def agree(db, sqlite, batch, specs=SPECS):
    """Every spec answers every statement of ``batch`` through
    ``execute()``, then all of them in one ``submit()`` batch, as
    SQLite does."""
    wanted = [sqlite.execute(s.reference_sql).fetchall() for s in batch]
    wrong = []
    for spec in specs:
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


@seed(31)
@settings(max_examples=60, **_settings)
@given(batch=batches)
def test_generated_statements_agree_at_data_scale_100(db_scaled, sqlite,
                                                      batch):
    agree(db_scaled, sqlite, batch, specs=ocelot_specs())


@pytest.mark.parametrize("kind", ("CPU", "GPU"))
@pytest.mark.parametrize("statement", (
    Statement("SELECT id AS o0, count(*) AS o1 FROM t900 GROUP BY id",
              (0.0, 0.0)),
    Statement("SELECT id AS o0, f AS o1 FROM t900 ORDER BY o1 DESC",
              (0.0, 0.0), order=1),
), ids=("group by", "order by"))
def test_data_scale_100_runs_the_radix_ladder(db_scaled, sqlite, kind,
                                              statement, monkeypatch):
    """What makes the run above worth its time: a ``GROUP BY`` and an
    ``ORDER BY`` of 900 rows launch ``radix_reorder`` on both devices,
    on fewer partitions than the device has invocations."""
    from repro.ocelot.engine import OcelotEngine

    reorders = []
    launch = OcelotEngine.launch

    def spy(engine, kernel_name, *args, **kwargs):
        if kernel_name == "radix_reorder":
            reorders.append((args[-1], engine.invocations))
        return launch(engine, kernel_name, *args, **kwargs)

    monkeypatch.setattr(OcelotEngine, "launch", spy)
    got = rows_of(db_scaled.connect(kind).execute(statement.sql))
    assert _mismatch(statement, kind, "execute", got,
                     sqlite.execute(statement.sql).fetchall()) is None
    assert reorders
    assert all(parts < invocations for parts, invocations in reorders)
