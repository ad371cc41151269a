"""A generated-query differential oracle: every engine against ``sqlite3``.

Hypothesis writes statements over the fixed oracle's adversarial tables
(:func:`test_sqlite_oracle.tables`) and every spec of
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
* sources — one table, or two under ``JOIN … ON``, ``SEMI JOIN`` or
  ``ANTI JOIN`` over a same-dtype key pair (:data:`JOIN_KEYS`: int32,
  int64 and float64 keys, the empty and one-row tables among them);
* column arithmetic — ``v op c`` and ``c op v`` for ``+ - * /`` as a
  projection and inside a ``WHERE`` comparison, ``c`` a literal or a
  constant that widens an int32 operand (:data:`WIDENING`);
* outputs — projections, ``GROUP BY`` with ``count`` / ``sum`` /
  ``min`` / ``max`` / ``avg``, and ungrouped aggregates; ``CASE WHEN
  <atom> THEN <column|constant> ELSE <column|constant> END`` as a
  projection and inside ``sum`` / ``count``; ``HAVING`` over a grouped
  statement, an atom over a key or an exact aggregate (``count``,
  ``min`` / ``max``, an int ``sum``) — a comparison, ``[NOT] BETWEEN``
  or ``[NOT] IN`` — perhaps under ``NOT``, or ``AND`` of two;
* aggregate expressions — ``-agg``, ``agg ± constant`` and ``agg op
  agg`` as grouped and ungrouped outputs, and ``CASE WHEN <atom over an
  exact aggregate> THEN … ELSE … END`` as a grouped one, each branch an
  aggregate or a constant;
* spelling — one table's columns bare or qualified (``t255.k``), drawn
  anew at each site, so ``SELECT``, ``GROUP BY`` and ``HAVING`` may
  name one key two ways;
* names — every output is ``o0``, ``o1``, …, so no statement can draw
  a duplicate output name (one is a ``BindError`` at compile, on every
  spec: the fixed oracle's ``REFUSED``);
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
  float, and never a zero (SQLite's NULL, the engines' ``inf``).
* **A float32 column compares in float32**: a constant is cast to the
  column's type, so a float constant is one float32 holds exactly.
* **Float sums** over ±1e300 add in float64 order on the engines and
  exactly (``math.fsum``) in the reference: a float ``sum`` / ``avg``
  compares to a tolerance scaled by the Σ|x| of the rows it adds (the
  joined rows, a ``CASE``'s branches).
* **A ``HAVING`` aggregate is exact**: no float ``sum`` and no ``avg``,
  since a tolerance cannot decide a comparison.
* ``min`` / ``max`` of no rows raise (see ``reference()``): they appear
  ungrouped only without ``WHERE`` over a non-empty table.
* **``HAVING`` needs ``GROUP BY``** (one group's ``HAVING`` is refused:
  no operator keeps or drops an ungrouped aggregate's one row), and
  **no aggregate is over a constant** (``sum(1)`` is refused): only a
  column or a ``CASE`` is aggregated.
* **An ungrouped aggregate's expressions are ``+ - * /``** (host
  ``calc``; a comparison or ``CASE`` over one is refused).
* **An int expression stays inside the four-byte range**: an int32
  ``min`` / ``max`` under a sign or a small constant stays int32 and
  wraps at ±2³¹ on every engine, as ``-v`` over a row does, so an int
  aggregate expression whose bound reaches 2³¹ is drawn as the
  aggregate alone; only ints multiply.  Column arithmetic is drawn the
  same way: ``v + 1`` stays int32 (``calc_result_dtype``) and wraps,
  ``v + 2147483648`` runs in int64, which wraps at 2⁶³, so a form
  whose bound reaches past its result type is drawn as the column
  alone.
* **A float32 result rounds in float32**: SQLite computes in float64,
  so inside a predicate (which a tolerance cannot decide) column
  arithmetic answering float32 is drawn as the column alone.
* **An ordered column is exact and NaN-free**: never a column holding a
  NaN (SQLite sorts its NULL first, the engines sort a NaN last), an
  aggregate over one, a float ``sum`` / ``avg`` (compared to a
  tolerance) or an ``avg`` (the engines add eight-byte ints in float64),
  nor a ``CASE``.

Not generated yet: ``LIMIT`` without ``ORDER BY``, and generated
tables beside the fixed ones.

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
from repro.monetdb.calc import calc_result_dtype
from test_resident_set import ocelot_specs
from test_sqlite_oracle import (
    SPECS, reference, reference_text, rows_of, same_value, sort_key, tables,
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
#: what column arithmetic takes besides the literals: constants that
#: widen an int32 operand (arithmetic with one runs in int64), and the
#: divisors (non-zero floats)
WIDENING = (2 ** 31 - 1, -(2 ** 31 - 1), 2 ** 31, -2 ** 31 - 1,
            3_000_000_000)
DIVISORS = tuple(value for value in FLOATS if value)


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


_CALC = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


@st.composite
def arithmetic(draw, data, columns, predicate=False) -> str:
    """``v op c`` or ``c op v`` (``+ - * /``) over one of ``columns``,
    or the column alone where the engines answer otherwise than SQLite
    by design: an int result whose bound reaches past the type
    :func:`calc_result_dtype` gives it (it wraps on every engine) and,
    in a ``predicate``, a float32 result."""
    column = draw(st.sampled_from(columns))
    values = data[column]
    op = draw(st.sampled_from(sorted(_CALC)))
    constant = draw(st.sampled_from(
        DIVISORS if op == "/" else draw(st.sampled_from((WIDENING,
                                                         INTS + FLOATS)))))
    left = draw(st.booleans())
    if op == "/" and (values.dtype.kind != "f" or not values.all()):
        left = False                # an int or a zero divisor
    dtype = calc_result_dtype(values.dtype, np.min_scalar_type(constant),
                              _CALC[op])
    if dtype.kind in "iu":
        magnitude = float(np.abs(values.astype(np.float64)).max(initial=0))
        bound = magnitude * abs(constant) if op == "*" \
            else magnitude + abs(constant)
        if bound >= 2.0 ** (8 * dtype.itemsize - 1):
            return column
    elif predicate and dtype == np.float32:
        return column
    return f"{constant!r} {op} {column}" if left \
        else f"{column} {op} {constant!r}"


@st.composite
def predicates(draw, columns, depth=2, data=None):
    """``data`` (a ``WHERE``'s columns): comparisons may take column
    arithmetic."""
    def atom():
        column = draw(st.sampled_from(columns))
        kinds = ("cmp", "cmp", "between", "in") + (("arith",) * bool(data))
        kind = draw(st.sampled_from(kinds))
        if kind == "arith":
            column = draw(arithmetic(data, columns, predicate=True))
        if kind in ("cmp", "arith"):
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

    return predicate(depth)


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
        """The text SQLite answers: ``SEMI`` / ``ANTI JOIN`` in its
        words, and one row past the ``LIMIT``, which tells whether the
        limit cuts a run of ties."""
        sql = reference_text(self.sql)
        if self.limit is None:
            return sql
        return sql.rsplit(" LIMIT ", 1)[0] + f" LIMIT {self.limit + 1}"


#: what a generated ``LIMIT`` takes
LIMITS = (0, 1, 2, 3, 5, 10, 100)

#: the key columns a two-table ``JOIN … ON`` pairs, by dtype
JOIN_KEYS = (
    ("t255", "k"), ("t255", "v"), ("t256", "k"), ("t256", "v"),
    ("t900", "k"), ("dim", "k"), ("edges", "v"), ("edges_dim", "k"),
    ("one", "k"), ("none", "k"),                                 # int32
    ("wide", "k"), ("wide_dim", "k"), ("t900", "kk"),            # int64
    ("real", "k"), ("real_dim", "k"),                            # float64
)


def _qualified(table, rows=slice(None)) -> dict:
    return {f"{table}.{column}": values[rows]
            for column, values in TABLES[table].items()}


@st.composite
def sources(draw):
    """``(FROM clause, {column: the values it holds})``: one table by
    its bare column names, or a ``JOIN`` / ``SEMI JOIN`` / ``ANTI
    JOIN`` of two over a same-dtype key pair by qualified names, holding
    the joined rows (which the tolerances and the empty-input rules
    need)."""
    kind = draw(st.sampled_from(("table", "table", "join", "semi", "anti")))
    if kind == "table":
        table = draw(st.sampled_from(sorted(TABLES)))
        return table, TABLES[table]
    (left, lkey) = draw(st.sampled_from(JOIN_KEYS))
    lvalues = TABLES[left][lkey]
    (right, rkey) = draw(st.sampled_from([
        (table, column) for table, column in JOIN_KEYS
        if table != left and TABLES[table][column].dtype == lvalues.dtype]))
    word = "" if kind == "join" else f"{kind.upper()} "
    clause = f"{left} {word}JOIN {right} ON {left}.{lkey} = {right}.{rkey}"
    matches = lvalues[:, None] == TABLES[right][rkey][None, :]
    if kind == "join":
        lrows, rrows = np.nonzero(matches)
        return clause, {**_qualified(left, lrows), **_qualified(right, rrows)}
    hit = matches.any(axis=1)
    return clause, _qualified(left, hit if kind == "semi" else ~hit)


@st.composite
def cases(draw, columns, filterable):
    """``(CASE WHEN <atom> THEN <column|constant> ELSE … END, the
    columns and constants its branches take)``."""
    def branch():
        if draw(st.booleans()):
            column = draw(st.sampled_from(columns))
            return column, column
        constant = draw(constants)
        return constant.operand(), constant
    then, otherwise = branch(), branch()
    text = f"CASE WHEN {draw(predicates(filterable, depth=0))} " \
        f"THEN {then[0]} ELSE {otherwise[0]} END"
    return text, (then[1], otherwise[1])


@st.composite
def havings(draw, keys, exact):
    """A ``HAVING`` predicate: an atom over a key or an exact aggregate
    (a comparison either way round, ``[NOT] BETWEEN``, ``[NOT] IN``),
    perhaps under ``NOT``, or ``AND`` of two."""
    def atom():
        over = keys if keys and draw(st.booleans()) else exact
        text = draw(predicates(over, depth=0))
        return f"NOT ({text})" if draw(st.booleans()) else text

    if draw(st.booleans()):
        return atom()
    return f"({atom()}) AND ({atom()})"


@dataclass(frozen=True)
class Term:
    """An aggregate an expression holds: its text, the tolerance its
    value compares to, and a bound on its magnitude if it is an int."""
    text: str
    tolerance: float = 0.0
    bound: "int | None" = None


def terms(data, spelled, minmax) -> "list[Term]":
    """The aggregates of ``data``'s columns an expression may hold: no
    ``avg``, no sum the engines' int64 cannot hold; ``min`` / ``max``
    only where ``minmax``."""
    rows = len(next(iter(data.values())))
    out = [Term("count(*)", bound=rows)]
    for column, values in sorted(data.items()):
        name = spelled(column)
        out.append(Term(f"count({name})", bound=rows))
        if values.dtype.kind == "f":
            out.append(Term(f"sum({name})", 1e-6 * _scale(values)))
            out += [Term(f"{f}({name})") for f in ("min", "max") if minmax]
            continue
        magnitude = np.abs(values.astype(np.float64))
        if _summable(values):
            out.append(Term(f"sum({name})", bound=int(magnitude.sum())))
        if minmax:
            out += [Term(f"{f}({name})", bound=int(magnitude.max(initial=0)))
                    for f in ("min", "max")]
    return out


@st.composite
def aggregate_expressions(draw, terms) -> "tuple[str, float]":
    """``(-agg | agg ± constant | agg op agg, its tolerance)``, or the
    aggregate alone where an int result could leave the four-byte
    range (an int32 ``min`` stays int32 under a sign or a small
    constant); ``*`` pairs ints only."""
    a = draw(st.sampled_from(terms))
    shape = draw(st.sampled_from(("neg", "constant", "pair")))
    text, tolerance, bound = f"-{a.text}", a.tolerance, a.bound
    if shape == "constant":
        op, constant = draw(st.sampled_from("+-")), draw(constants)
        text = f"{a.text} {op} {constant.operand()}"
        if isinstance(constant.value, float):
            bound = None
        elif bound is not None:
            bound += abs(constant.value)
    if shape == "pair":
        b = draw(st.sampled_from(terms))
        op = draw(st.sampled_from("+-*"))
        text, tolerance = f"{a.text} {op} {b.text}", a.tolerance + b.tolerance
        ints = a.bound is not None and b.bound is not None
        if op == "*" and not ints:
            return a.text, a.tolerance
        bound = None if not ints else \
            a.bound * b.bound if op == "*" else a.bound + b.bound
    if bound is not None and bound >= 2 ** 31:
        return a.text, a.tolerance
    return text, tolerance


@st.composite
def aggregate_cases(draw, exact, terms) -> "tuple[str, float]":
    """``(CASE WHEN <atom over an exact aggregate> THEN … ELSE … END,
    its tolerance)``, each branch an aggregate or a constant."""
    def branch():
        if draw(st.booleans()):
            term = draw(st.sampled_from(terms))
            return term.text, term.tolerance
        return draw(constants).operand(), 0.0

    (then, a), (otherwise, b) = branch(), branch()
    condition = draw(predicates(exact, depth=0))
    return f"CASE WHEN {condition} THEN {then} ELSE {otherwise} END", \
        max(a, b)


@st.composite
def statements(draw) -> Statement:
    source, data = draw(sources())
    names = sorted(data)
    rows = len(data[names[0]])
    filterable = [c for c in names if not _has_nan(data[c])]
    where = draw(st.one_of(st.none(), predicates(filterable, data=data)))
    shape = draw(st.sampled_from(("project", "group", "aggregate")))
    outputs, tolerances, group_by = [], [], ""
    #: the outputs an ORDER BY may name
    orderable = []
    if shape == "project":
        outputs = draw(st.lists(st.sampled_from(names), min_size=1,
                                max_size=3))
        tolerances = [0.0] * len(outputs)
        orderable = [i for i, c in enumerate(outputs) if c in filterable]
        if draw(st.booleans()):
            outputs.append(draw(cases(names, filterable))[0])
            tolerances.append(0.0)
        if draw(st.booleans()):
            outputs.append(draw(arithmetic(data, names)))
            tolerances.append(0.0)
    else:
        table = None if " " in source else source

        def spelled(column):
            """One table's column, bare or qualified, drawn per site."""
            return f"{table}.{column}" if table and draw(st.booleans()) \
                else column

        def exact():
            """Aggregates compared exactly: no float sum, no avg."""
            return ["count(*)"] + [
                f"{function}({spelled(column)})" for column in filterable
                for function in ("count", "min", "max")
            ] + [f"sum({spelled(column)})" for column in filterable
                 if data[column].dtype.kind != "f"
                 and _summable(data[column])]

        keys = []
        if shape == "group":
            keys = draw(st.lists(st.sampled_from(names), min_size=1,
                                 max_size=2, unique=True))
            outputs += [spelled(key) for key in keys]
            tolerances += [0.0] * len(keys)
            orderable = [i for i, c in enumerate(keys) if c in filterable]
            group_by = f" GROUP BY {', '.join(map(spelled, keys))}"
        minmax = shape == "group" or where is None and rows > 0
        functions = ["count", "sum", "avg"]
        if minmax:
            functions += ["min", "max"]
        aggregates = draw(st.lists(
            st.tuples(st.sampled_from(
                functions + ["count(*)", "case", "expression"]),
                st.sampled_from(names)), min_size=1, max_size=3))
        for function, column in aggregates:
            values = data[column]
            if function == "count(*)":
                outputs.append("count(*)")
                tolerances.append(0.0)
                orderable.append(len(outputs) - 1)
                continue
            if function == "expression":
                text, tolerance = draw(aggregate_expressions(
                    terms(data, spelled, minmax)))
                outputs.append(text)
                tolerances.append(tolerance)
                continue
            if function == "case" and shape == "group" \
                    and draw(st.booleans()):
                text, tolerance = draw(aggregate_cases(
                    exact(), terms(data, spelled, minmax)))
                outputs.append(text)
                tolerances.append(tolerance)
                continue
            if function == "case":
                text, branches = draw(cases(names, filterable))
                function = draw(st.sampled_from(("sum", "count")))
                outputs.append(f"{function}({text})")
                taken = [data[b] for b in branches if isinstance(b, str)]
                constant = sum(abs(b.value) for b in branches
                               if isinstance(b, Constant))
                if function == "sum" and not all(map(_summable, taken)):
                    outputs[-1] = f"count({text})"
                floats = function == "sum" and (
                    any(v.dtype.kind == "f" for v in taken) or any(
                        isinstance(b, Constant) and isinstance(b.value, float)
                        for b in branches))
                tolerances.append(
                    1e-6 * (sum(map(_scale, taken)) + constant * rows)
                    if floats else 0.0)
                continue
            if function in ("sum", "avg") and not _summable(values):
                function = "count"
            outputs.append(f"{function}({spelled(column)})")
            tolerances.append(
                1e-6 * _scale(values)
                if function in ("sum", "avg") and values.dtype.kind == "f"
                else 0.0)
            if function == "count" or function in ("sum", "min", "max") \
                    and not tolerances[-1] and not _has_nan(values):
                orderable.append(len(outputs) - 1)
        if shape == "group" and draw(st.booleans()):
            keys = [spelled(key) for key in keys if key in filterable]
            group_by += f" HAVING {draw(havings(keys, exact()))}"
    items = ", ".join(f"{out} AS o{i}" for i, out in enumerate(outputs))
    sql = f"SELECT {items} FROM {source}" \
        + (f" WHERE {where}" if where else "") + group_by
    order = limit = None
    if orderable and draw(st.booleans()):
        order = draw(st.sampled_from(orderable))
        direction = draw(st.sampled_from(("", " ASC", " DESC")))
        sql += f" ORDER BY o{order}{direction}"
        limit = draw(st.one_of(st.none(), st.sampled_from(LIMITS)))
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
