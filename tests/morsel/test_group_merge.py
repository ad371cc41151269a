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
key arrays bit for bit.  Since PR 19 it also carries the per-morsel
partial and fold bodies (scalar, shared-id and local-id tables) that
``repro.monetdb.partials`` replaced, under the same comparison.
"""

import numpy as np
import pytest

import repro
from repro.monetdb import bat as bat_module
from repro.monetdb.bat import BAT, oid_bat, OID_DTYPE
from repro.monetdb.mal import MALBuilder, Var
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
    """``MorselRun`` with the pre-PR-17 merge bodies and the pre-PR-19
    partial and fold bodies, verbatim."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for chain in self._gchains.values():
            chain.update(dict={}, dtypes=None)
        self._lgagg_parts: dict = {}

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


    # ---- verbatim from src/repro/morsel/run.py at PR 18: the partial
    # ---- and fold bodies ``repro.monetdb.partials`` replaced ------------

    def _partial_agg(self, member, out, env, slots) -> None:
        column = self._value(member.args[0], env, slots)
        parts = self._agg_parts.setdefault(out.name, [])
        if isinstance(column, BAT) and column.count == 0:
            # keep one empty witness so a region with no surviving rows
            # reproduces the operator's own empty-input behaviour
            if out.name not in self._agg_witness:
                self._agg_witness[out.name] = column
            return
        if out.fn == "avg":
            s = self.backend.resolve(f"{out.module}.sum")(column)
            c = self.backend.resolve(f"{out.module}.count")(column)
            parts.append((s, c))
        else:
            parts.append(
                self.backend.resolve(f"{out.module}.{out.fn}")(column)
            )

    def _partial_gagg(self, member, out, env, slots) -> None:
        """Grouped aggregate: fold one morsel's per-group partial table.

        Partials combine exactly — sum/count add, min/max meet at the
        dtype identity ``segmented_reduce`` fills empty groups with, and
        avg folds per-morsel sum+count pairs (the final divide matches
        the whole-column kernels' ``sums / max(counts, 1)``)."""
        gids_arg = member.args[-2]
        chain = (self._gchains.get(gids_arg.name)
                 if isinstance(gids_arg, Var) else None)
        if chain is not None:
            self._partial_lgagg(member, out, env, slots, chain)
            return
        args = [self._value(a, env, slots) for a in member.args]
        parts = self._gagg_parts.setdefault(out.name, [])
        if out.fn == "avg":
            values, gids, ngroups = args
            sums = self.backend.resolve(f"{out.module}.subsum")(
                values, gids, ngroups
            )
            counts = self.backend.resolve(f"{out.module}.subcount")(
                gids, ngroups
            )
            parts.append((self._value_array(sums),
                          self._value_array(counts)))
            env[f"{out.name}#sum"] = sums
            env[f"{out.name}#count"] = counts
            return
        partial = self.backend.resolve(member.op)(*args)
        parts.append(self._value_array(partial))
        env[out.name] = partial

    def _partial_lgagg(self, member, out, env, slots, chain) -> None:
        """Grouped aggregate over in-region (per-morsel local) group ids:
        keep the morsel's partial table together with its groups'
        chain-wide ids; :meth:`_fold_lgagg` scatters them at finalize."""
        ids = self._morsel_group_ids(chain, env, slots)
        if ids.size == 0:
            return
        parts = self._lgagg_parts.setdefault(out.name, [])
        args = [self._value(a, env, slots) for a in member.args]
        if out.fn == "avg":
            sums = self.backend.resolve(f"{out.module}.subsum")(*args)
            counts = self.backend.resolve(f"{out.module}.subcount")(
                *args[1:]
            )
            parts.append((ids, self._value_array(sums),
                          self._value_array(counts)))
            env[f"{out.name}#sum"] = sums
            env[f"{out.name}#count"] = counts
            return
        partial = self.backend.resolve(member.op)(*args)
        parts.append((ids, self._value_array(partial)))
        env[out.name] = partial

    def _harvest(self, local, slices, lo) -> None:
        for out in self.spec.outputs:
            if out.kind in ("scalar", "gagg"):
                continue
            if out.kind == "gscalar":
                # collect the keys even when no aggregate consumed them
                self._morsel_group_ids(
                    self._ng_chains[out.name], local, slices
                )
                continue
            if out.kind == "ggids":
                chain = self._gchains[out.name]
                ids = self._morsel_group_ids(chain, local, slices)
                lgids = self._value_array(
                    local[out.name]
                ).astype(np.int64)
                self._chunks.setdefault(out.name, []).append(ids[lgids])
                continue
            value = local[out.name]
            if out.kind == "positions":
                oids = self._positions_array(value)
                self._chunks.setdefault(out.name, []).append(
                    oids.astype(np.int64) + lo
                )
            else:
                self._chunks.setdefault(out.name, []).append(
                    np.asarray(self._value_array(value))
                )

    def _fold(self, out):
        parts = self._agg_parts.get(out.name, [])
        if not parts:
            witness = self._agg_witness.get(out.name)
            if witness is None:
                raise RuntimeError(
                    f"morsel region produced no input for {out.name}"
                )
            return self.backend.resolve(
                f"{out.module}.{out.fn}"
            )(witness)
        if out.fn == "avg":
            total = parts[0][0]
            count = parts[0][1]
            for s, c in parts[1:]:
                total = total + s
                count = count + c
            return total / count
        if out.fn in ("sum", "count"):
            total = parts[0]
            for p in parts[1:]:
                total = total + p
            return total
        if out.fn == "min":
            return min(parts)
        return max(parts)

    def _fold_gagg(self, out) -> BAT:
        member = self._out_member[out.name]
        gids_arg = member.args[-2]
        chain = (self._gchains.get(gids_arg.name)
                 if isinstance(gids_arg, Var) else None)
        if chain is not None:
            return self._fold_lgagg(out, chain)
        parts = self._gagg_parts[out.name]
        if out.fn == "avg":
            total = parts[0][0].astype(np.float64)
            counts = parts[0][1].astype(np.int64)
            for sums, c in parts[1:]:
                total = total + sums
                counts = counts + c
            folded = total / np.maximum(counts, 1)
        elif out.fn in ("sum", "count"):
            folded = parts[0]
            for p in parts[1:]:
                folded = folded + p
        elif out.fn == "min":
            folded = np.minimum.reduce(parts)
        else:
            folded = np.maximum.reduce(parts)
        return make_bat(np.asarray(folded), tag=f"morsel_{out.name}")


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


def spy(monkeypatch, name) -> list:
    """Folds the new bodies ask ``partials.<name>`` for."""
    calls, real = [], getattr(run_module.partials, name)

    def counted(fold, *args, **kwargs):
        calls.append(fold)
        return real(fold, *args, **kwargs)

    monkeypatch.setattr(run_module.partials, name, counted)
    return calls


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

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    @pytest.mark.parametrize("keys", ("random", "holes"))
    def test_scalar_aggregates(self, monkeypatch, engine, keys):
        """Ungrouped: per-morsel scalars fold left to right, ``avg`` as
        its (sum, count) pair; ``holes`` leaves morsels with no row."""
        sql = f"SELECT {AGGREGATES} FROM t WHERE w > 3"
        folds = spy(monkeypatch, "fold_scalars")
        got = assert_same(monkeypatch, engine, columns(keys),
                          lambda con: con.execute(sql))
        assert got[2] == []             # no grouping, nothing replayed
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
        got = assert_same(monkeypatch, engine, table,
                          lambda con: con.run_plan(program))
        assert got[2] == [] and len(got[0]) == len(outputs)
        assert sorted(folds) == ["max", "min"] + ["sum"] * 7

    @pytest.mark.parametrize("engine", ("MS", "CPU"))
    def test_nan_keys_are_one_group(self, monkeypatch, engine):
        """The one place the bodies part, on purpose: a NaN key equals
        nothing, itself included, so the dictionary gave every NaN
        local group its own slot, the replay — where the backend's own
        ``group`` puts the NaNs in one group — disagreed on the count
        and the query was refused.  The merge now meets a NaN with a
        NaN, as every engine's ``group`` does, and answers as the whole
        column."""
        table = columns("random")
        table["c"][::7] = np.nan
        sql = "SELECT c, count(*) AS n FROM t WHERE w > 3 GROUP BY c"

        def issue(con):
            return con.execute(sql)

        old = outcome(monkeypatch, OldMorselRun, engine, table, issue)
        assert old[0] is RuntimeError and "distinct keys" in old[1]
        new = outcome(monkeypatch, MorselRun, engine, table, issue)
        with repro.Database() as db:
            db.create_table("t", table)
            whole = db.connect("MS:morsel=off").execute(sql)
        assert new[0] == {name: (str(values.dtype), values.tobytes())
                          for name, values in whole.columns.items()}
        assert np.isnan(whole.column("c")[-1]) and whole.n_rows == 5
        assert len(new[2]) == 1         # merged once, replayed once
