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
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
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
    before = stats.kernels_launched
    out = fn(engine, *args)
    return stats.kernels_launched - before, out


def device_keys(engine, values):
    buf = engine.temp(max(values.size, 1), values.dtype, tag="keys")
    buf.array[: values.size] = values
    return buf


def ladder(engine, key_dtype) -> int:
    """iota + three kernels per radix pass."""
    passes = num_passes(engine.radix_bits, 8 * np.dtype(key_dtype).itemsize)
    return 1 + 3 * passes


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
            got, (tkeys, _tvals, m) = launches(
                engine, operators._build_hash_table, buf, buf, keys.size)
            present = np.isin(keys, tkeys.array[:m])
            assert present.all() and EMPTY not in keys
            return got

    def test_four_launches_without_failures(self, engine):
        # fill, fill, optimistic, check
        assert self.build(engine, np.full(1000, 7, np.uint32)) == 4
        assert self.build(engine, np.zeros(0, np.uint32)) == 4
        assert self.build(engine, np.arange(1, dtype=np.uint32)) == 4

    def test_five_with(self, engine):
        # ... + pessimistic, because colliding keys overwrote each other
        keys = (np.arange(5000, dtype=np.uint32) * 2654435761) % 1_000_003
        assert self.build(engine, keys.astype(np.uint32)) == 5


class TestCompositeHelpers:
    def test_dense_ids(self, engine):
        """build 4, occupied-slot bitmap 1, materialise 3, gather 1, sort
        (20 distinct keys fit) 1, rank iota 1, build 5 (two of the 20
        collide in the 29-slot rank table), probe 1."""
        rng = np.random.default_rng(2)
        keys = (rng.integers(0, 20, 3000) * 977).astype(np.uint32)
        with engine.memory.operator_scope():
            buf = device_keys(engine, keys)
            got, (gids, ngroups) = launches(
                engine, operators._dense_ids, buf, keys.size)
            assert ngroups == 20
            _values, dense = np.unique(keys, return_inverse=True)
            assert np.array_equal(gids.array[: keys.size], dense)
        assert got == 17

    def test_join_table_over_an_intermediate(self, engine):
        """encode 1, sort (fits) 1, run ids 3, run counts 2, run starts 1,
        unique keys 1, run-id iota 1, build 4 — the ladder alone was 13
        (CPU) or 25 (GPU) of what used to be 29 or 41."""
        rng = np.random.default_rng(3)
        build_side = BAT(rng.integers(0, 50, 40).astype(np.int32))
        assert not build_side.is_base
        with engine.memory.operator_scope():
            got, table = launches(
                engine, operators._join_table_for, build_side)
            assert table["n_runs"] == np.unique(build_side.values).size
        assert got == 15


# ---------------------------------------------------------------------------
# whole queries: the rule holds wherever the helpers are reached from
# (morsel replays, fused regions, shards, the heterogeneous dispatcher)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ("CPU", "GPU", "HET", "SHARD:2xCPU"))
def test_every_sort_and_build_in_a_query_issues_what_its_size_needs(
        label, monkeypatch):
    log = []
    launch = OcelotEngine.launch

    def recording(self, kernel_name, *args, **kwargs):
        log.append((self, kernel_name, args))
        return launch(self, kernel_name, *args, **kwargs)

    monkeypatch.setattr(OcelotEngine, "launch", recording)
    con = repro.tpch_database(sf=0.02).connect(label)
    for name in ("Q3", "Q10", "Q15"):
        con.execute(WORKLOAD[name], name=name)
    names = [kernel for _engine, kernel, _args in log]
    assert "local_sort" in names and "ht_check" in names
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
    import os

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
