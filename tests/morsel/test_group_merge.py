"""The morsel group merge against the whole column.

``MorselRun`` groups every morsel with the backend's own operators and
keeps each morsel's local key tuples; at finalize one host-side rank
(:func:`repro.monetdb.partials.merge_groups`) numbers the merged groups
by ascending key tuple — the numbering a ``group`` / ``subgroup`` chain
gives the whole column — and the per-morsel partials scatter through it.
No operator runs at finalize.

Every case runs a statement sliced into 64-row morsels and compares it
with ``MS:morsel=off`` on the same table: group keys, counts, integer
sums, minima and maxima exactly, float sums and averages to a rounding
tolerance (their association order is the morsels').  The tables vary
what the merge must get right: falling keys (first-seen order is the
reverse of the ranked one), morsels where nothing passes the filter
(``lng == 0``), ``-0.0`` beside ``0.0``, NaN keys, wide int64 keys,
no surviving row at all, and key tuples that are all distinct.
"""

import numpy as np
import pytest

import repro
from repro.monetdb.mal import MALBuilder
from repro.morsel import run as run_module
from repro.morsel.run import MorselRun

ROWS = 1000
MORSEL = 64


@pytest.fixture(autouse=True)
def _neutral_gate(monkeypatch):
    """The sliced side picks its morsel size per spec; neutralise the
    global gate so it stays sliced under the CI ``REPRO_MORSEL=off``
    run (which is then the whole-column side of the comparison)."""
    monkeypatch.delenv("REPRO_MORSEL", raising=False)


def columns(keys: str, seed: int = 3) -> dict:
    """``a`` int32, ``b`` int64, ``c`` float32 group keys, and a
    selection column ``w`` laid out per ``keys``:

    ``random``   groups span every morsel, first seen in random order
    ``falling``  keys fall with the row id, so first-seen order is the
                 reverse of the ascending numbering
    ``holes``    ``w`` passes the filter in every third morsel only:
                 the morsels between contribute ``lng == 0``
    ``zeros``    ``c`` mixes ``-0.0`` and ``0.0`` (one key to ``==``)
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 5, ROWS)
    b = rng.integers(-2, 2, ROWS) * (1 << 20)
    c = rng.integers(0, 4, ROWS) / 4.0
    w = rng.integers(-5, 100, ROWS)
    if keys == "falling":
        a = np.sort(a)[::-1]
        b = np.sort(b)[::-1]
    elif keys == "holes":
        w = np.where((np.arange(ROWS) // MORSEL) % 3 == 0, w, -1)
    elif keys == "zeros":
        c = np.where(rng.integers(0, 2, ROWS) == 0, -0.0, c)
    return {
        "a": a.astype(np.int32), "b": b.astype(np.int64),
        "c": c.astype(np.float32), "w": w.astype(np.int32),
        "v": rng.random(ROWS).astype(np.float32),
    }


def assert_same(got, whole, context=""):
    assert list(got) == list(whole), context
    for name, expected in whole.items():
        values = got[name]
        assert values.shape == expected.shape, (context, name)
        if values.dtype.kind == "f" or expected.dtype.kind == "f":
            np.testing.assert_allclose(
                values.astype(np.float64), expected.astype(np.float64),
                rtol=1e-5, err_msg=f"{context}:{name}",
            )
        else:
            np.testing.assert_array_equal(values, expected,
                                          err_msg=f"{context}:{name}")


def sliced_and_whole(monkeypatch, engine, table, run):
    """``run(connection)`` on ``engine`` in 64-row morsels and on
    ``MS:morsel=off``; returns both results' columns and the tables of
    every ``merge_groups`` call the sliced run made."""
    merges, real = [], run_module.partials.merge_groups

    def recorded(tables):
        merges.append(tables)
        return real(tables)

    with repro.Database() as db:
        db.create_table("t", table)
        whole = run(db.connect("MS:morsel=off")).columns
        monkeypatch.setattr(run_module.partials, "merge_groups", recorded)
        got = run(db.connect(f"{engine}:morsel={MORSEL}")).columns
    assert_same(got, whole, engine)
    return got, merges


def merged_columns(merges) -> list:
    """How many key columns each merge ranked."""
    return [len(tables[0]) for tables in merges if tables]


def spy(monkeypatch, name) -> list:
    """Folds the run asks ``partials.<name>`` for."""
    calls, real = [], getattr(run_module.partials, name)

    def counted(fold, *args, **kwargs):
        calls.append(fold)
        return real(fold, *args, **kwargs)

    monkeypatch.setattr(run_module.partials, name, counted)
    return calls


def execute(sql):
    return lambda con: con.execute(sql)


AGGREGATES = ("sum(v) AS sv, sum(w) AS sw, count(*) AS n, min(w) AS lo, "
              "max(v) AS hi, avg(v) AS mv, avg(w) AS mw")


class TestSlicedAgainstWhole:
    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    @pytest.mark.parametrize("keys", ("random", "falling", "holes", "zeros"))
    @pytest.mark.parametrize("group_by", ("a", "c", "a, c", "c, a"))
    def test_grouped_aggregates(self, monkeypatch, engine, keys, group_by):
        sql = (f"SELECT {group_by}, {AGGREGATES} FROM t WHERE w > 3 "
               f"GROUP BY {group_by}")
        _got, merges = sliced_and_whole(monkeypatch, engine, columns(keys),
                                        execute(sql))
        # the merge really ran: one rank over every key column
        assert merged_columns(merges) == [len(group_by.split(","))]

    @pytest.mark.parametrize("keys", ("random", "falling", "holes"))
    @pytest.mark.parametrize("group_by", ("b", "a, b", "a, b, c", "c, b, a"))
    def test_int64_keys_and_three_columns(self, monkeypatch, keys, group_by):
        # MonetDB engine: an eight-byte key groups on MonetDB anyway
        sql = (f"SELECT {group_by}, {AGGREGATES} FROM t WHERE w > 3 "
               f"GROUP BY {group_by}")
        _got, merges = sliced_and_whole(monkeypatch, "MS", columns(keys),
                                        execute(sql))
        assert merged_columns(merges) == [len(group_by.split(","))]

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    def test_no_row_survives(self, monkeypatch, engine):
        """Every morsel has ``lng == 0``: nothing to rank."""
        sql = (f"SELECT a, c, {AGGREGATES} FROM t WHERE w > 1000 "
               f"GROUP BY a, c")
        got, merges = sliced_and_whole(monkeypatch, engine,
                                       columns("random"), execute(sql))
        assert merges == [[]]
        assert all(values.size == 0 for values in got.values())

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    @pytest.mark.parametrize("keys", ("random", "falling", "holes"))
    def test_escaping_group_ids_and_count(self, monkeypatch, engine, keys):
        """Group ids and the group count leave the region (``ggids`` /
        ``gscalar`` outputs) instead of feeding an aggregate."""
        builder = MALBuilder("escape")
        keep = builder.emit("algebra", "thetaselect",
                            (builder.bind("t", "w"), None, 3, ">"))
        a = builder.emit("algebra", "projection",
                         (keep, builder.bind("t", "a")))
        c = builder.emit("algebra", "projection",
                         (keep, builder.bind("t", "c")))
        gids, ngroups = builder.emit("group", "group", (a,), n_results=2)
        gids, ngroups = builder.emit("group", "subgroup",
                                     (c, gids, ngroups), n_results=2)
        count = builder.emit("calc", "add", (ngroups, 0))
        program = builder.returns([("g", gids), ("n", count)])
        _got, merges = sliced_and_whole(monkeypatch, engine, columns(keys),
                                        lambda con: con.run_plan(program))
        assert merged_columns(merges) == [2]

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    @pytest.mark.parametrize("keys", ("random", "holes"))
    def test_scalar_aggregates(self, monkeypatch, engine, keys):
        """Ungrouped: per-morsel scalars fold left to right, ``avg`` as
        its (sum, count) pair; ``holes`` leaves morsels with no row."""
        sql = f"SELECT {AGGREGATES} FROM t WHERE w > 3"
        folds = spy(monkeypatch, "fold_scalars")
        _got, merges = sliced_and_whole(monkeypatch, engine, columns(keys),
                                        execute(sql))
        assert merges == []             # no grouping, nothing ranked
        # the region really folded them: 5 plain + 2 avg pairs
        assert sorted(folds) == ["max", "min"] + ["sum"] * 7

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    def test_aggregates_over_shared_group_ids(self, monkeypatch, engine):
        """Group ids from outside the region (an aligned input, sliced
        with the drive): every morsel's table spans all groups and the
        tables fold element-wise."""
        builder = MALBuilder("aligned")
        v, w = builder.bind("t", "v"), builder.bind("t", "w")
        gids = builder.bind("t", "a")       # dense ids 0..4 as they are
        scaled = builder.emit("batcalc", "mul", (v, 2.0))
        shifted = builder.emit("batcalc", "add", (w, 1))
        outputs = [
            ("sv", builder.emit("aggr", "subsum", (scaled, gids, 5))),
            ("sw", builder.emit("aggr", "subsum", (shifted, gids, 5))),
            ("n", builder.emit("aggr", "subcount", (gids, 5))),
            ("lo", builder.emit("aggr", "submin", (shifted, gids, 5))),
            ("hi", builder.emit("aggr", "submax", (scaled, gids, 5))),
            ("mv", builder.emit("aggr", "subavg", (scaled, gids, 5))),
            ("mw", builder.emit("aggr", "subavg", (shifted, gids, 5))),
        ]
        program = builder.returns(outputs)
        table = columns("falling")
        table["a"] = table["a"].astype(np.uint32)
        folds = spy(monkeypatch, "fold_tables")
        got, merges = sliced_and_whole(monkeypatch, engine, table,
                                       lambda con: con.run_plan(program))
        assert merges == [] and len(got) == len(outputs)
        assert sorted(folds) == ["max", "min"] + ["sum"] * 7

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    def test_nan_keys_are_one_group(self, monkeypatch, engine):
        """A NaN key equals nothing, itself included, yet every engine's
        ``group`` puts a column's NaNs in one group, sorted last: the
        merge meets a NaN with a NaN and answers as the whole column."""
        table = columns("random")
        table["c"][::7] = np.nan
        sql = "SELECT c, count(*) AS n FROM t WHERE w > 3 GROUP BY c"
        got, merges = sliced_and_whole(monkeypatch, engine, table,
                                       execute(sql))
        assert np.isnan(got["c"][-1]) and got["c"].size == 5
        assert merged_columns(merges) == [1]


@pytest.mark.parametrize("engine", ("MS", "CPU", "GPU", "HET"))
def test_every_key_tuple_distinct(monkeypatch, engine):
    """Q21's shape: as many groups as rows, spread over every morsel —
    the merge ranks 1 000 local groups into 1 000 merged ones."""
    rng = np.random.default_rng(5)
    table = {
        "a": rng.permutation(ROWS).astype(np.int32),
        "c": (rng.permutation(ROWS) / 8.0).astype(np.float32),
        "w": rng.integers(0, 100, ROWS).astype(np.int32),
        "v": rng.random(ROWS).astype(np.float32),
    }
    sql = ("SELECT a, c, sum(v) AS sv, count(*) AS n, max(w) AS hi "
           "FROM t WHERE w >= 0 GROUP BY a, c")
    got, merges = sliced_and_whole(monkeypatch, engine, table, execute(sql))
    assert got["n"].size == ROWS and np.all(got["n"] == 1)
    [tables] = merges
    assert len(tables[0]) == 2
    assert sum(table[0].shape[0] for table in tables) == ROWS


@pytest.mark.parametrize("engine", ("MS", "CPU", "HET"))
def test_finalize_dispatches_no_operator(monkeypatch, engine):
    """After the last morsel a grouped region only does host arithmetic:
    no operator is resolved, and HET places nothing."""
    dispatched = []
    real_finalize = MorselRun._finalize

    def finalize(self):
        backend = self.backend
        log = getattr(backend, "decision_log", None)
        placed = len(log) if log is not None else 0

        def resolve(op):
            dispatched.append(op)
            return type(backend).resolve(backend, op)

        backend.resolve = resolve
        try:
            real_finalize(self)
        finally:
            del backend.resolve
        if log is not None:
            dispatched.extend(entry[0] for entry in log[placed:])

    monkeypatch.setattr(MorselRun, "_finalize", finalize)
    sql = (f"SELECT a, c, {AGGREGATES} FROM t WHERE w > 3 "
           f"GROUP BY a, c")
    got, merges = sliced_and_whole(monkeypatch, engine, columns("falling"),
                                   execute(sql))
    assert merged_columns(merges) == [2] and got["n"].size > 1
    assert dispatched == []


@pytest.mark.parametrize("engine, group_by, packed", [
    ("CPU", "a", True), ("MS", "a, b", True), ("CPU", "a, c", False),
])
def test_recorded_merges_replay_through_the_lexsort(monkeypatch, engine,
                                                    group_by, packed):
    """Every merge one sliced run made, replayed: the packed key numbers
    the groups as the lexsort body does, and integer key tuples (an
    int64 one too) took it, float ones not."""
    from repro.monetdb import partials

    merge_groups = partials.merge_groups        # before the recorder
    sql = (f"SELECT {group_by}, {AGGREGATES} FROM t WHERE w > 3 "
           f"GROUP BY {group_by}")
    _got, merges = sliced_and_whole(monkeypatch, engine, columns("random"),
                                    execute(sql))
    assert merges and all(len(tables) > 1 for tables in merges)
    for tables in merges:
        keys = [np.concatenate(column) for column in zip(*tables)]
        assert (partials._packed_keys(keys) is not None) is packed
        ids, n = merge_groups(tables)
        expected_ids, expected_n = partials._lexsort_ids(keys)
        np.testing.assert_array_equal(ids, expected_ids)
        assert n == expected_n
