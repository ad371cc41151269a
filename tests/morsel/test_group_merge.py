"""The morsel group merge against the bodies it replaced.

``MorselRun`` used to resolve every morsel's local groups to global
slots by walking a tuple-keyed ``dict`` in Python, and rebuilt each key
column for the replay with a list comprehension.  It now collects the
morsels' key columns and merges them once at finalize with numpy.  The
contract that keeps simulated time bit-identical: slots are numbered in
first-seen order, and the replay hands the backend the same key arrays
in the same order (its hash kernels are priced from their input).

:class:`OldMorselRun` carries the replaced bodies verbatim (PR 14's
``TestEquivalenceWithOldBodies`` pattern); every case runs the same
plan through both and compares results, simulated time and the replayed
key arrays bit for bit.
"""

import numpy as np
import pytest

import repro
from repro.monetdb import bat as bat_module
from repro.monetdb.bat import BAT, oid_bat, OID_DTYPE
from repro.monetdb.mal import MALBuilder
from repro.morsel import run as run_module
from repro.morsel.run import MorselRun

#: key arrays handed to the replay, in order (both bodies build them
#: through ``make_bat(..., tag="morsel_gkeys")``)
REPLAYED: list = []


def make_bat(values, tag="", **flags):
    if tag == "morsel_gkeys":
        REPLAYED.append((str(values.dtype), values.tobytes()))
    return bat_module.make_bat(values, tag=tag, **flags)


class OldMorselRun(MorselRun):
    """``MorselRun`` with the pre-PR-17 merge bodies, verbatim."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for chain in self._gchains.values():
            chain.update(dict={}, dtypes=None)

    def _morsel_group_ids(self, chain, env, slots):
        return self._morsel_l2g(chain, env, slots)

    def _chain_gids(self, chain):
        raise AssertionError("the old bodies never merge at finalize")

    # ---- verbatim from src/repro/morsel/run.py at PR 16 -------------------

    def _morsel_l2g(self, chain, env, slots) -> np.ndarray:
        """Local-group → global-slot mapping for one morsel.

        First occurrence per dense local id yields each local group's
        key tuple; unseen tuples claim the next dictionary slot.  Memoised
        per morsel in ``env`` under ``<gids>#l2g``."""
        cached = env.get(f"{chain['gids']}#l2g")
        if cached is not None:
            return cached
        gbat = env[chain["gids"]]
        lgids = self._value_array(gbat).astype(np.int64)
        lng = int(env[chain["ng"]])
        if chain["gdtype"] is None and isinstance(gbat, BAT):
            chain["gdtype"] = gbat.dtype
        if lng == 0:
            l2g = np.empty(0, dtype=np.int64)
        else:
            _, first = np.unique(lgids, return_index=True)
            cols = [
                np.asarray(
                    self._value_array(self._value(arg, env, slots))
                )[first]
                for arg in chain["keys"]
            ]
            if chain["dtypes"] is None:
                chain["dtypes"] = tuple(c.dtype for c in cols)
            table = chain["dict"]
            l2g = np.empty(lng, dtype=np.int64)
            for i, key in enumerate(zip(*(c.tolist() for c in cols))):
                slot = table.get(key)
                if slot is None:
                    slot = len(table)
                    table[key] = slot
                l2g[i] = slot
        env[f"{chain['gids']}#l2g"] = l2g
        return l2g

    def _chain_rank(self, chain) -> np.ndarray:
        """Dictionary slot → final group id, computed once at finalize.

        Replays the grouping chain over the distinct key tuples with the
        backend's own operators: dense-id numbering is a function of the
        distinct key set alone in every backend (ascending keys;
        ``subgroup`` ranks lexicographic ``(parent, inner)`` pairs), so
        this reproduces the whole-column numbering at dictionary size."""
        rank = chain.get("rank")
        if rank is not None:
            return rank
        table = chain["dict"]
        n = len(table)
        if n == 0:
            chain["rank"] = np.empty(0, dtype=np.int64)
            return chain["rank"]
        scratch = []
        gids = ngroups = None
        for k, (member, dtype) in enumerate(
                zip(chain["members"], chain["dtypes"])):
            keys = np.array([key[k] for key in table], dtype=dtype)
            kbat = make_bat(keys, tag="morsel_gkeys")
            fn = self.backend.resolve(member.op)
            if member.function == "group":
                gids, ngroups = fn(kbat)
            else:
                gids, ngroups = fn(kbat, gids, ngroups)
            scratch.extend((kbat, gids))
        rank = self._value_array(gids).astype(np.int64)
        if int(ngroups) != n:
            raise RuntimeError(
                f"morsel group merge: {n} distinct keys but the replay "
                f"produced {int(ngroups)} groups"
            )
        self.backend.release_intermediates(scratch)
        chain["rank"] = rank
        return rank

    def _fold_lgagg(self, out, chain) -> BAT:
        rank = self._chain_rank(chain)
        n = len(chain["dict"])
        parts = self._lgagg_parts.get(out.name, [])
        if out.fn == "avg":
            sums = np.zeros(n, dtype=np.float64)
            counts = np.zeros(n, dtype=np.int64)
            for l2g, s, c in parts:
                np.add.at(sums, l2g, s.astype(np.float64))
                np.add.at(counts, l2g, c.astype(np.int64))
            acc = sums / np.maximum(counts, 1)
        elif out.fn in ("sum", "count"):
            dtype = parts[0][1].dtype if parts else np.dtype(np.int64)
            acc = np.zeros(n, dtype=dtype)
            for l2g, p in parts:
                np.add.at(acc, l2g, p)
        else:
            dtype = parts[0][1].dtype if parts else np.dtype(np.float64)
            if out.fn == "min":
                identity = (np.inf if dtype.kind == "f"
                            else np.iinfo(dtype).max)
                acc = np.full(n, identity, dtype=dtype)
                for l2g, p in parts:
                    np.minimum.at(acc, l2g, p)
            else:
                identity = (-np.inf if dtype.kind == "f"
                            else np.iinfo(dtype).min)
                acc = np.full(n, identity, dtype=dtype)
                for l2g, p in parts:
                    np.maximum.at(acc, l2g, p)
        # dictionary slots are insertion-ordered; rank renumbers them to
        # the engine's own ascending convention
        final = np.empty_like(acc)
        final[rank] = acc
        return make_bat(np.asarray(final), tag=f"morsel_{out.name}")

    def _finalize(self) -> None:
        outputs = []
        for out in self.spec.outputs:
            if out.kind == "scalar":
                outputs.append(self._fold(out))
            elif out.kind == "gagg":
                outputs.append(self._fold_gagg(out))
            elif out.kind == "gscalar":
                chain = self._ng_chains[out.name]
                self._chain_rank(chain)     # validates the replay count
                outputs.append(len(chain["dict"]))
            elif out.kind == "ggids":
                chain = self._gchains[out.name]
                rank = self._chain_rank(chain)
                chunks = self._chunks.get(out.name, [])
                ids = (np.concatenate(chunks) if chunks
                       else np.empty(0, dtype=np.int64))
                final = rank[ids] if rank.size else ids
                dtype = chain["gdtype"] or np.int64
                outputs.append(make_bat(
                    final.astype(dtype), tag=f"morsel_{out.name}"
                ))
            elif out.kind == "positions":
                chunks = self._chunks.get(out.name, [])
                oids = (np.concatenate(chunks) if chunks
                        else np.empty(0, dtype=np.int64))
                outputs.append(oid_bat(
                    oids.astype(OID_DTYPE), tag=f"morsel_{out.name}"
                ))
            else:
                chunks = self._chunks[out.name]
                outputs.append(make_bat(
                    np.concatenate(chunks), tag=f"morsel_{out.name}"
                ))
        for witness in self._agg_witness.values():
            self.backend.release_intermediates([witness])
        self.outputs = tuple(outputs)


# ---- the harness ----------------------------------------------------------

ROWS = 1000
MORSEL = 64


@pytest.fixture(autouse=True)
def _neutral_gates(monkeypatch):
    monkeypatch.delenv("REPRO_MORSEL", raising=False)
    monkeypatch.setattr(run_module, "make_bat", make_bat)


def columns(keys: str, seed: int = 3) -> dict:
    """``a`` int32, ``b`` int32 or int64, ``c`` float32 group keys, and a
    selection column ``w`` laid out per ``keys``:

    ``random``   groups span every morsel, first seen in random order
    ``falling``  keys fall with the row id, so first-seen order is the
                 reverse of the ascending numbering the replay returns
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


def outcome(monkeypatch, runner, engine, table, issue):
    """``issue(connection)`` under ``runner`` on a fresh database:
    (result columns bit for bit, simulated seconds, replayed keys), or
    the exception if it raised."""
    monkeypatch.setattr(run_module, "MorselRun", runner)
    REPLAYED.clear()
    db = repro.Database()
    try:
        db.create_table("t", table)
        try:
            result = issue(db.connect(f"{engine}:morsel={MORSEL}"))
        except Exception as error:      # both bodies must fail alike
            return type(error), str(error)
        return (
            {name: (str(values.dtype), values.tobytes())
             for name, values in result.columns.items()},
            result.elapsed,
            list(REPLAYED),
        )
    finally:
        db.close()


def assert_same(monkeypatch, engine, table, issue):
    old = outcome(monkeypatch, OldMorselRun, engine, table, issue)
    new = outcome(monkeypatch, MorselRun, engine, table, issue)
    assert new == old
    return new


AGGREGATES = ("sum(v) AS sv, sum(w) AS sw, count(*) AS n, min(w) AS lo, "
              "max(v) AS hi, avg(v) AS mv, avg(w) AS mw")


class TestEquivalenceWithOldBodies:
    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    @pytest.mark.parametrize("keys", ("random", "falling", "holes", "zeros"))
    @pytest.mark.parametrize("group_by", ("a", "c", "a, c", "c, a"))
    def test_grouped_aggregates(self, monkeypatch, engine, keys, group_by):
        sql = (f"SELECT {group_by}, {AGGREGATES} FROM t WHERE w > 3 "
               f"GROUP BY {group_by}")
        got = assert_same(monkeypatch, engine, columns(keys),
                          lambda con: con.execute(sql))
        # the merge really ran: a replayed key array per key column
        assert len(got[2]) == len(group_by.split(","))

    @pytest.mark.parametrize("keys", ("random", "falling", "holes"))
    @pytest.mark.parametrize("group_by", ("b", "a, b", "a, b, c", "c, b, a"))
    def test_int64_keys_and_three_columns(self, monkeypatch, keys, group_by):
        # MonetDB engine only: Ocelot's hash grouping takes 32-bit keys
        sql = (f"SELECT {group_by}, {AGGREGATES} FROM t WHERE w > 3 "
               f"GROUP BY {group_by}")
        got = assert_same(monkeypatch, "MS", columns(keys),
                          lambda con: con.execute(sql))
        assert len(got[2]) == len(group_by.split(","))

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    def test_no_row_survives(self, monkeypatch, engine):
        """Every morsel has ``lng == 0``: nothing to merge or replay."""
        sql = (f"SELECT a, c, {AGGREGATES} FROM t WHERE w > 1000 "
               f"GROUP BY a, c")
        got = assert_same(monkeypatch, engine, columns("random"),
                          lambda con: con.execute(sql))
        assert got[2] == []
        assert all(data == b"" for _dtype, data in got[0].values())

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
        got = assert_same(monkeypatch, engine, columns(keys),
                          lambda con: con.run_plan(program))
        assert len(got[2]) == 2

    def test_nan_keys_stay_apart(self, monkeypatch):
        """A NaN key equals nothing, itself included: the dictionary
        gave every NaN local group its own slot and so does ``!=``; the
        replay then disagrees on the count and both bodies say so."""
        table = columns("random")
        table["c"][::7] = np.nan
        sql = "SELECT c, count(*) AS n FROM t WHERE w > 3 GROUP BY c"
        got = assert_same(monkeypatch, "MS", table,
                          lambda con: con.execute(sql))
        assert got[0] is RuntimeError and "distinct keys" in got[1]
