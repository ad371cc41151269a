"""TPC-H schema, modified per the paper's Appendix A.

All ``DECIMAL`` fields are ``REAL`` (float32), all identifiers/dates are
four-byte integers, and string columns are **dictionary-encoded** int32
codes (Ocelot supports only equality on strings, which dictionary codes
preserve; the queries' LIKE/substring predicates were removed with their
queries in Appendix A).

Dates are encoded as ``YYYYMMDD`` integers: range predicates coincide
with chronological order and ``EXTRACT(YEAR)`` is an integer division by
10000.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

INT = np.dtype(np.int32)
REAL = np.dtype(np.float32)
DATE = np.dtype(np.int32)   # YYYYMMDD
CODE = np.dtype(np.int32)   # dictionary code


@dataclass(frozen=True)
class Column:
    name: str
    dtype: np.dtype
    #: column holds dictionary codes (binder maps string literals)
    dictionary: str | None = None


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]
    #: rows at scale factor 1 of the paper's TPC-H, divided by
    #: ``SCALE_DOWN`` for the mini generator (DESIGN.md §2)
    sf1_rows: int
    primary_key: str | None = None
    #: column -> (referenced table, referenced key)
    foreign_keys: dict = field(default_factory=dict)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column {self.name}.{name}")


#: The mini-scale divisor: mini-SF(s) generates sf1_rows * s / SCALE_DOWN
#: rows and runs with ``data_scale = SCALE_DOWN`` so nominal volumes (and
#: therefore simulated times and device-memory pressure) match the
#: paper's real scale factors.
SCALE_DOWN = 100


def _cols(*specs) -> tuple[Column, ...]:
    out = []
    for spec in specs:
        name, dtype = spec[0], spec[1]
        dictionary = spec[2] if len(spec) > 2 else None
        out.append(Column(name, np.dtype(dtype), dictionary))
    return tuple(out)


REGION = Table(
    name="region",
    sf1_rows=5,
    primary_key="r_regionkey",
    columns=_cols(
        ("r_regionkey", INT),
        ("r_name", CODE, "region_name"),
    ),
)

NATION = Table(
    name="nation",
    sf1_rows=25,
    primary_key="n_nationkey",
    foreign_keys={"n_regionkey": ("region", "r_regionkey")},
    columns=_cols(
        ("n_nationkey", INT),
        ("n_name", CODE, "nation_name"),
        ("n_regionkey", INT),
    ),
)

SUPPLIER = Table(
    name="supplier",
    sf1_rows=10_000,
    primary_key="s_suppkey",
    foreign_keys={"s_nationkey": ("nation", "n_nationkey")},
    columns=_cols(
        ("s_suppkey", INT),
        ("s_name", CODE, "supplier_name"),
        ("s_nationkey", INT),
        ("s_acctbal", REAL),
    ),
)

CUSTOMER = Table(
    name="customer",
    sf1_rows=150_000,
    primary_key="c_custkey",
    foreign_keys={"c_nationkey": ("nation", "n_nationkey")},
    columns=_cols(
        ("c_custkey", INT),
        ("c_name", CODE, "customer_name"),
        ("c_nationkey", INT),
        ("c_mktsegment", CODE, "mktsegment"),
        ("c_acctbal", REAL),
    ),
)

PART = Table(
    name="part",
    sf1_rows=200_000,
    primary_key="p_partkey",
    columns=_cols(
        ("p_partkey", INT),
        ("p_brand", CODE, "brand"),
        ("p_type", CODE, "part_type"),
        ("p_container", CODE, "container"),
        ("p_size", INT),
        ("p_retailprice", REAL),
    ),
)

PARTSUPP = Table(
    name="partsupp",
    sf1_rows=800_000,
    foreign_keys={
        "ps_partkey": ("part", "p_partkey"),
        "ps_suppkey": ("supplier", "s_suppkey"),
    },
    columns=_cols(
        ("ps_partkey", INT),
        ("ps_suppkey", INT),
        ("ps_availqty", INT),
        ("ps_supplycost", REAL),
    ),
)

ORDERS = Table(
    name="orders",
    sf1_rows=1_500_000,
    primary_key="o_orderkey",
    foreign_keys={"o_custkey": ("customer", "c_custkey")},
    columns=_cols(
        ("o_orderkey", INT),
        ("o_custkey", INT),
        ("o_orderstatus", CODE, "orderstatus"),
        ("o_totalprice", REAL),
        ("o_orderdate", DATE),
        ("o_orderpriority", CODE, "orderpriority"),
        ("o_shippriority", INT),
    ),
)

LINEITEM = Table(
    name="lineitem",
    sf1_rows=6_000_000,
    foreign_keys={
        "l_orderkey": ("orders", "o_orderkey"),
        "l_partkey": ("part", "p_partkey"),
        "l_suppkey": ("supplier", "s_suppkey"),
    },
    columns=_cols(
        ("l_orderkey", INT),
        ("l_partkey", INT),
        ("l_suppkey", INT),
        ("l_linenumber", INT),
        ("l_quantity", REAL),
        ("l_extendedprice", REAL),
        ("l_discount", REAL),
        ("l_tax", REAL),
        ("l_returnflag", CODE, "returnflag"),
        ("l_linestatus", CODE, "linestatus"),
        ("l_shipdate", DATE),
        ("l_commitdate", DATE),
        ("l_receiptdate", DATE),
        ("l_shipmode", CODE, "shipmode"),
        ("l_shipinstruct", CODE, "shipinstruct"),
    ),
)

TABLES: dict[str, Table] = {
    t.name: t
    for t in (REGION, NATION, SUPPLIER, CUSTOMER, PART, PARTSUPP, ORDERS,
              LINEITEM)
}


#: Fixed string dictionaries (TPC-H value domains).
DICTIONARIES: dict[str, list[str]] = {
    "region_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
    "nation_name": [
        "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
        "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
        "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
        "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
        "UNITED STATES",
    ],
    "mktsegment": [
        "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY",
    ],
    "orderpriority": [
        "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW",
    ],
    "orderstatus": ["F", "O", "P"],
    "returnflag": ["A", "N", "R"],
    "linestatus": ["F", "O"],
    "shipmode": ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"],
    "shipinstruct": [
        "COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN",
    ],
    "brand": [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)],
    "container": [
        f"{size} {kind}"
        for size in ("SM", "LG", "MED", "JUMBO", "WRAP")
        for kind in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
    ],
    "part_type": [
        f"{p1} {p2} {p3}"
        for p1 in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
        for p2 in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
        for p3 in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
    ],
    # synthetic name dictionaries are generated per scale by dbgen
}


def dict_code(dictionary: str, literal: str) -> int:
    """Dictionary code of a string literal (raises on unknown values)."""
    try:
        return DICTIONARIES[dictionary].index(literal)
    except (KeyError, ValueError):
        raise LookupError(
            f"literal {literal!r} not in dictionary {dictionary!r}"
        ) from None


def date_literal(text: str) -> int:
    """``'1994-01-01'`` -> 19940101 (the YYYYMMDD int32 encoding); a
    ValueError unless ``text`` names a calendar date."""
    year, month, day = (int(p) for p in text.split("-"))
    datetime.date(year, month, day)         # a ValueError if no such day
    return year * 10000 + month * 100 + day


def date_add_days(date: int, days: int) -> int:
    """Date arithmetic on the YYYYMMDD encoding (exact civil calendar)."""
    year, rem = divmod(int(date), 10000)
    month, day = divmod(rem, 100)
    moved = datetime.date(year, month, day) + datetime.timedelta(days=days)
    return moved.year * 10000 + moved.month * 100 + moved.day
