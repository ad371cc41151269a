"""A launch budget: how many kernels each helper may enqueue.

On the simulated CPU a launch costs 1.43 ms of framework time against
microseconds of work (paper §5.3.2), and on the host every launch is a
fixed slice of Python — so launches are counted here exactly, per helper
and per TPC-H query.  A change that adds launches fails one of these and
has to say why; a change that removes some regenerates the census::

    PYTHONPATH=src python tests/ocelot/test_launch_budget.py --regen

``tests/tpch/launch_census.json`` holds the launches of each of the 14
TPC-H queries at SF 0.1, second (warm) pass, per engine, default knobs.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compress.codecs import DictEncoding, FOREncoding
from repro.compress.encoded import EncodedBAT
from repro.kernels.hashing import EMPTY
from repro.kernels.radix_sort import num_passes
from repro.monetdb import Catalog
from repro.monetdb.bat import BAT
from repro.ocelot import operators
from repro.ocelot.engine import OcelotEngine
from repro.tpch import WORKLOAD

CENSUS = Path(__file__).parent.parent / "tpch" / "launch_census.json"
ENGINES = ("CPU", "GPU", "HET", "SHARD:2xCPU")
ENV_VARS = ("REPRO_FUSION", "REPRO_MORSEL", "REPRO_COMPRESSION",
            "REPRO_TRACE")


@pytest.fixture(params=["cpu", "gpu"])
def engine(request):
    # TPC-H's scale: one stored row stands for a hundred
    return OcelotEngine(Catalog(), request.param, data_scale=100.0)


def launches(engine, fn, *args):
    """``(kernels fn launched, fn's result)``; the caller holds the
    operator scope the result's buffers live in."""
    stats = engine.queue.stats
    stats.events.clear()
    before = stats.kernels_launched
    out = fn(engine, *args)
    return stats.kernels_launched - before, out


def failed_builds(engine) -> int:
    """Builds in the last :func:`launches` whose check found failures:
    each adds the pessimistic round, and only that."""
    return sum(event.label == "ht_insert_pessimistic"
               for event in engine.queue.stats.events)


def device_keys(engine, values):
    buf = engine.temp(max(values.size, 1), values.dtype, tag="keys")
    buf.array[: values.size] = values
    return buf


def ladder(engine, key_dtype) -> int:
    """Three kernels per radix pass, nothing before the first."""
    passes = num_passes(engine.radix_bits, 8 * np.dtype(key_dtype).itemsize)
    return 3 * passes


class TestSort:
    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    def test_radix_sort_budget(self, engine, key_dtype):
        rng = np.random.default_rng(1)
        local_mem = engine.device.profile.local_mem_bytes
        fits = int(local_mem // ((np.dtype(key_dtype).itemsize + 4) * 100))
        for n, budget in ((0, 0), (1, 0), (2, 1), (16, 1), (fits, 1),
                          (fits + 1, ladder(engine, key_dtype)),
                          (5000, ladder(engine, key_dtype))):
            keys = rng.integers(0, 9, n).astype(key_dtype)
            with engine.memory.operator_scope():
                buf = device_keys(engine, keys)
                got, (sorted_keys, order) = launches(
                    engine, operators._radix_sort, buf, n)
                assert got == budget, (n, got, budget)
                expected = np.argsort(keys, kind="stable")
                assert np.array_equal(order.array[:n], expected)
                assert np.array_equal(sorted_keys.array[:n], keys[expected])

    def test_order_by_an_aggregate_of_four_groups(self, engine):
        """``ORDER BY sum(...)`` over four groups: float64 -> 64-bit keys.
        The ladder took 1 + 48 launches for this on the GPU, 1 + 24 on
        the CPU; encode + sort + gather (+ the descending flip) now."""
        totals = BAT(np.array([3.5, -1.0, 3.5, 0.0]))
        with engine.memory.operator_scope():
            got, (_values, order) = launches(
                engine, operators.op_sort, totals, False)
            assert got == 3
            assert list(engine.buffer_of(order).array[:4]) == [1, 3, 0, 2]
            got, (_values, order) = launches(
                engine, operators.op_sort, totals, True)
            assert got == 4
            assert list(engine.buffer_of(order).array[:4]) == [0, 2, 3, 1]


class TestHashBuild:
    def build(self, engine, keys):
        with engine.memory.operator_scope():
            buf = device_keys(engine, keys)
            got, (tkeys, tvals, m) = launches(
                engine, operators._build_hash_table, buf, keys.size)
            present = np.isin(keys, tkeys.array[:m])
            assert present.all() and EMPTY not in keys
            occupied = tkeys.array[:m] != EMPTY
            assert np.array_equal(keys[tvals.array[:m][occupied]],
                                  tkeys.array[:m][occupied])
            return got

    def test_three_launches_without_failures(self, engine):
        # fill (the keys only), optimistic, check
        assert operators.hash_build_launches() == 3
        assert self.build(engine, np.full(1000, 7, np.uint32)) == 3
        assert self.build(engine, np.zeros(0, np.uint32)) == 3
        assert self.build(engine, np.arange(1, dtype=np.uint32)) == 3

    def test_four_with(self, engine):
        # ... + pessimistic, because colliding keys overwrote each other
        keys = (np.arange(5000, dtype=np.uint32) * 2654435761) % 1_000_003
        assert operators.hash_build_launches(failures=True) == 4
        assert self.build(engine, keys.astype(np.uint32)) == 4


class TestMaterialise:
    @pytest.mark.parametrize("bits, budget", ((0, 1), (1, 2), (77, 2)))
    def test_offsets_then_writes(self, engine, bits, budget):
        flags = np.zeros(77, np.uint8)
        flags[:bits] = 1
        with engine.memory.operator_scope():
            bitmap = device_keys(engine, np.packbits(flags,
                                                     bitorder="little"))
            got, (oids, total) = launches(
                engine, operators._materialize_bitmap, bitmap, 77)
            assert total == bits
            assert np.array_equal(oids.array[:total], np.arange(bits))
        assert got == budget == operators.materialize_launches(bits)


class TestProjection:
    """A projection is one gather, decoding included."""

    @pytest.mark.parametrize("codec", (FOREncoding, DictEncoding))
    def test_encoded_column(self, engine, codec):
        rng = np.random.default_rng(4)
        values = (rng.integers(0, 50, 4000) * 3 + 100_000).astype(np.int32)
        column = EncodedBAT(codec.encode(values))
        oids = BAT(rng.integers(0, 4000, 900).astype(np.uint32))
        with engine.memory.operator_scope():
            got, out = launches(engine, operators.op_projection, oids, column)
            assert np.array_equal(engine.buffer_of(out).array[:900],
                                  values[oids.values])
        assert got == 1 == operators.projection_launches(oids)

    def test_bitmap_of_oids_is_materialised_once(self, engine):
        column = BAT(np.arange(100, dtype=np.int32))
        with engine.memory.operator_scope():
            selected = operators.op_thetaselect(engine, column, None, 90,
                                                ">=")
            assert operators.projection_launches(selected) == 3
            got, _out = launches(engine, operators.op_projection, selected,
                                 column)
            assert got == 3
            assert operators.projection_launches(selected) == 1
            got, _out = launches(engine, operators.op_projection, selected,
                                 column)
            assert got == 1


class TestCompositeHelpers:
    def test_dense_ids(self, engine):
        """build 3, occupied-slot bitmap 1, materialise 2, gather 1, sort
        (20 distinct keys fit) 1, build 3 + 1 (two of the 20 collide in
        the 29-slot rank table), probe 1."""
        rng = np.random.default_rng(2)
        keys = (rng.integers(0, 20, 3000) * 977).astype(np.uint32)
        with engine.memory.operator_scope():
            buf = device_keys(engine, keys)
            got, (gids, ngroups) = launches(
                engine, operators._dense_ids, buf, keys.size)
            assert ngroups == 20
            _values, dense = np.unique(keys, return_inverse=True)
            assert np.array_equal(gids.array[: keys.size], dense)
            assert failed_builds(engine) == 1
        assert got == 13 == operators.dense_ids_launches() + 1

    def test_join_table_over_an_intermediate(self, engine):
        """encode 1, sort (fits) 1, run ids 3, run counts 2, run starts 1,
        unique keys 1, build 3 (+ 1: keys collide in the table)."""
        rng = np.random.default_rng(3)
        build_side = BAT(rng.integers(0, 50, 40).astype(np.int32))
        assert not build_side.is_base
        with engine.memory.operator_scope():
            got, table = launches(
                engine, operators._join_table_for, build_side)
            assert table["n_runs"] == np.unique(build_side.values).size
            assert failed_builds(engine) == 1
        assert got == 12 + 1

    @pytest.mark.parametrize("unique_build", (True, False))
    def test_join(self, engine, unique_build):
        """Table 12, then encode 1, probe 1 and — over a key build side —
        materialise 2 and one two-level gather of the hits; else counts,
        scan and expand."""
        rng = np.random.default_rng(5)
        build = rng.permutation(60)[:40] if unique_build \
            else rng.integers(0, 30, 40)
        probe = rng.integers(0, 60, 500)
        left = BAT(probe.astype(np.int32))
        right = BAT(build.astype(np.int32))
        with engine.memory.operator_scope():
            got, (lpos, rpos) = launches(engine, operators.op_join, left,
                                         right)
            l_rows = engine.buffer_of(lpos).array[: lpos.count]
            r_rows = engine.buffer_of(rpos).array[: rpos.count]
            assert np.array_equal(probe[l_rows], build[r_rows])
            assert lpos.count == (probe[:, None] == build).sum()
            failed = failed_builds(engine)
        assert got == 12 + 5 + failed
        if unique_build:
            assert got == operators.join_launches(engine, 40) + failed

    @pytest.mark.parametrize("keep", (True, False))
    def test_membership(self, engine, keep):
        rng = np.random.default_rng(6)
        left = BAT(rng.integers(0, 60, 500).astype(np.int32))
        right = BAT(rng.integers(0, 30, 40).astype(np.int32))
        with engine.memory.operator_scope():
            got, pos = launches(engine, operators._membership, left, right,
                                keep)
            rows = engine.buffer_of(pos).array[: pos.count]
            expected = np.isin(left.values, right.values) == keep
            assert np.array_equal(rows, np.flatnonzero(expected))
            failed = failed_builds(engine)
        assert got - failed == operators.membership_launches(keep) == (
            8 if keep else 9)

    def test_group_and_subgroup(self, engine):
        rng = np.random.default_rng(7)
        a = BAT(rng.integers(0, 7, 2000).astype(np.int32))
        b = BAT(rng.integers(0, 5, 2000).astype(np.int32))
        ordered = BAT(np.sort(a.values), sorted_=True)
        with engine.memory.operator_scope():
            got, (gids, n_a) = launches(engine, operators.op_group, a)
            assert got - failed_builds(engine) == 13 == (
                operators.group_launches("group", False))
            got, (_g, n_ab) = launches(engine, operators.op_subgroup, b,
                                       gids, n_a)
            assert got - failed_builds(engine) == 26 == (
                operators.group_launches("subgroup", False))
            assert (n_a, n_ab) == (7, 35)
            got, _out = launches(engine, operators.op_group, ordered)
            assert got == operators.group_launches("group", True) == 3

    def test_hashbuild(self, engine):
        column = BAT(np.full(3000, 11, dtype=np.int32))
        with engine.memory.operator_scope():
            got, _m = launches(engine, operators.op_hashbuild, column)
            assert not failed_builds(engine)
        assert got == 1 + operators.hash_build_launches() == 4


# ---------------------------------------------------------------------------
# whole queries: the rule holds wherever the helpers are reached from
# (morsel replays, fused regions, shards, the heterogeneous dispatcher)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ("CPU", "GPU", "HET", "SHARD:2xCPU"))
def test_every_sort_and_build_in_a_query_issues_what_its_size_needs(
        label, monkeypatch):
    log = []
    launch = OcelotEngine.launch

    def recording(self, kernel_name, *args):
        log.append((self, kernel_name, args))
        return launch(self, kernel_name, *args)

    monkeypatch.setattr(OcelotEngine, "launch", recording)
    con = repro.tpch_database(sf=0.02).connect(label)
    for name in ("Q3", "Q10", "Q15"):
        con.execute(WORKLOAD[name], name=name)
    names = [kernel for _engine, kernel, _args in log]
    assert "local_sort" in names and "ht_check" in names
    # no launch only prepares an operand: one ``fill`` per build (the
    # key column), no ``iota`` ahead of a sort or a build, no scan of
    # counters a launch just wrote, no gather feeding only a gather
    filled = [args[2] for _e, kernel, args in log
              if kernel == "fill" and args[1] > 1]    # (autotune fills 1)
    assert filled == names.count("ht_insert_optimistic") * [EMPTY]
    assert "iota" not in names
    assert "gather2" in names
    if os.environ.get("REPRO_COMPRESSION") != "off":    # CI's knob-ab cell
        assert "gather_add" in names
    for (eng, kernel, args), (_e, following, _a) in zip(log, log[1:]):
        if kernel == "local_sort":
            keys, n = args[2], args[3]
            assert operators.sort_launches(
                eng, n, keys.dtype.itemsize)[0] == "local"
        if kernel == "radix_histogram":
            keys, n = args[1], args[2]
            assert operators.sort_launches(
                eng, n, keys.dtype.itemsize)[0] == "radix"
        if kernel == "ht_check":
            # the count comes back from the check itself
            assert following != "bitmap_count"
        if kernel == "bitmap_count":
            # ... and write offsets from ``bitmap_offsets``
            assert following != "prefix_sum"


# ---------------------------------------------------------------------------
# per-query census
# ---------------------------------------------------------------------------

def census(label: str) -> "dict[str, int]":
    """Kernel launches of each TPC-H query on its second pass."""
    con = repro.tpch_database(sf=0.1).connect(label)

    def launched() -> int:
        return sum(manager.queue.stats.kernels_launched
                   for manager in con.backend.memory.managers())

    out = {}
    for warm in (False, True):
        for name, sql in WORKLOAD.items():
            before = launched()
            con.execute(sql, name=name)
            if warm:
                out[name] = launched() - before
    return out


@pytest.mark.parametrize("label", ENGINES)
def test_launches_per_query_match_the_census(label, monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    committed = json.loads(CENSUS.read_text())[label]
    got = census(label)
    moved = {name: (committed[name], got[name])
             for name in WORKLOAD if got[name] != committed[name]}
    assert not moved, (
        f"{label}: launches per query moved (committed, now): {moved} — "
        f"say why, then regenerate with --regen"
    )


def regen() -> None:
    for var in ENV_VARS:
        os.environ.pop(var, None)
    table = {label: census(label) for label in ENGINES}
    CENSUS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for label, queries in table.items():
        print(f"{label}: {sum(queries.values())} launches per warm pass")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    regen()
