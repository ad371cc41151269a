"""``HAVING`` over a string group key: a dictionary code, as in ``WHERE``.

A string column holds dictionary codes, and a string literal compared
with it is the code it names.  ``HAVING l_returnflag = 'R'`` compares a
group key, read back with ``aggr.submin`` over those codes, so the
literal must become the same code there as in ``WHERE`` — one rule for
both, the comparison's operands compiled in the scope they sit in.
Under compression the grouped ``min`` over dictionary codes comes back
still encoded, which is why CI's knob A/B cells run this file too.
"""

import pytest

from repro.api import tpch_database
from test_sqlite_oracle import SPECS

OUTPUTS = "l_returnflag, l_linestatus, count(*) AS c, sum(l_quantity) AS q"
#: ``(HAVING predicate, the WHERE predicate it must answer as)``
PREDICATES = (
    ("l_returnflag = 'R'", "l_returnflag = 'R'"),
    ("'N' <> l_returnflag AND count(*) > 0", "l_returnflag <> 'N'"),
    ("l_returnflag IN ('A', 'R')", "l_returnflag IN ('A', 'R')"),
)


@pytest.fixture(scope="module")
def db():
    return tpch_database(sf=0.01)


def rows(con, sql) -> list:
    columns = con.execute(sql).columns.values()
    return sorted(zip(*(column.tolist() for column in columns)))


@pytest.mark.parametrize("having, where", PREDICATES)
@pytest.mark.parametrize("spec", SPECS)
def test_a_string_key_in_having_is_its_dictionary_code(db, spec, having,
                                                       where):
    con = db.connect(spec)
    grouped = " FROM lineitem GROUP BY l_returnflag, l_linestatus"
    got = rows(con, f"SELECT {OUTPUTS}{grouped} HAVING {having}")
    want = rows(con, f"SELECT {OUTPUTS} FROM lineitem WHERE {where} "
                     f"GROUP BY l_returnflag, l_linestatus")
    assert got and got == want
