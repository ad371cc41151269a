"""The mini-scale TPC-H generator: determinism, integrity, distributions."""

import numpy as np
import pytest

from repro.tpch import DICTIONARIES, SCALE_DOWN, TABLES, generate
from repro.tpch.schema import date_add_days, date_literal, dict_code


@pytest.fixture(scope="module")
def data():
    return generate(sf=1)


class TestRowCounts:
    def test_scaled_cardinalities(self, data):
        assert data.rows("lineitem") == pytest.approx(
            6_000_000 // SCALE_DOWN, rel=0.05
        )
        assert data.rows("orders") == 1_500_000 // SCALE_DOWN
        assert data.rows("customer") == 150_000 // SCALE_DOWN
        assert data.rows("part") == 200_000 // SCALE_DOWN

    def test_fixed_tables_not_scaled(self, data):
        assert data.rows("region") == 5
        assert data.rows("nation") == 25

    def test_sf_scales_linearly(self):
        small, big = generate(sf=1), generate(sf=4)
        assert big.rows("orders") == 4 * small.rows("orders")

    def test_data_scale_matches_scale_down(self, data):
        assert data.data_scale == SCALE_DOWN


class TestDeterminism:
    def test_same_seed_same_data(self):
        a, b = generate(sf=1, seed=7), generate(sf=1, seed=7)
        for table in a.tables:
            for col in a.tables[table]:
                assert np.array_equal(a.tables[table][col],
                                      b.tables[table][col]), (table, col)

    def test_different_seed_different_data(self):
        a, b = generate(sf=1, seed=7), generate(sf=1, seed=8)
        assert not np.array_equal(
            a.tables["lineitem"]["l_quantity"],
            b.tables["lineitem"]["l_quantity"],
        )


class TestReferentialIntegrity:
    def test_all_foreign_keys_resolve(self, data):
        for table_name, table in TABLES.items():
            for fk_col, (ref_table, ref_col) in table.foreign_keys.items():
                fks = data.tables[table_name][fk_col]
                pks = data.tables[ref_table][ref_col]
                assert np.isin(fks, pks).all(), f"{table_name}.{fk_col}"

    def test_primary_keys_unique(self, data):
        for table_name, table in TABLES.items():
            if table.primary_key:
                keys = data.tables[table_name][table.primary_key]
                assert np.unique(keys).size == keys.size, table_name


class TestDistributions:
    def test_schema_matches_generated_columns(self, data):
        for table_name, table in TABLES.items():
            generated = data.tables[table_name]
            assert set(generated) == {c.name for c in table.columns}
            for column in table.columns:
                assert generated[column.name].dtype == column.dtype, column

    def test_dates_chronology(self, data):
        li = data.tables["lineitem"]
        assert (li["l_shipdate"] > 19920000).all()
        assert (li["l_receiptdate"] > li["l_shipdate"]).all()

    def test_dict_codes_in_domain(self, data):
        li = data.tables["lineitem"]
        assert li["l_shipmode"].max() < len(DICTIONARIES["shipmode"])
        assert li["l_returnflag"].max() < len(DICTIONARIES["returnflag"])

    def test_discounts_and_tax_ranges(self, data):
        li = data.tables["lineitem"]
        assert 0 <= li["l_discount"].min() and li["l_discount"].max() <= 0.10
        assert 0 <= li["l_tax"].min() and li["l_tax"].max() <= 0.08

    def test_appendix_a_real_not_decimal(self, data):
        """All money/quantity columns are REAL (float32), per Appendix A."""
        li = data.tables["lineitem"]
        for col in ("l_quantity", "l_extendedprice", "l_discount", "l_tax"):
            assert li[col].dtype == np.float32

    def test_lines_per_order_one_to_seven(self, data):
        counts = np.bincount(data.tables["lineitem"]["l_orderkey"])
        nonzero = counts[counts > 0]
        assert nonzero.min() >= 1 and nonzero.max() <= 7


class TestDateHelpers:
    def test_date_literal(self):
        assert date_literal("1994-01-01") == 19940101
        for bad in ("1994/01/01", "1995-13-01", "1995-02-29", "abc"):
            with pytest.raises(ValueError):
                date_literal(bad)

    def test_date_add_days_exact(self):
        assert date_add_days(19981201, -90) == 19980902
        assert date_add_days(19940101, 365) == 19950101
        assert date_add_days(19960228, 1) == 19960229  # leap year

    def test_dict_code(self):
        assert dict_code("mktsegment", "BUILDING") == 1
        with pytest.raises(LookupError):
            dict_code("mktsegment", "NOPE")

    def test_install_into_catalog(self, data):
        from repro.monetdb import Catalog

        catalog = Catalog()
        data.install(catalog)
        assert set(catalog.tables()) == set(TABLES)
        assert catalog.bat("lineitem", "l_quantity").is_base
