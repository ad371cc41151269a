"""The device-split merge against the bodies it replaced.

``sched/partition.py`` used to carry one ``_split_*`` function per
operator class, each with its own merge; it is now one
``execute_split`` that merges every output by kind through
``repro.monetdb.partials``.  The replaced bodies are kept verbatim
below (PR 14's ``TestEquivalenceWithOldBodies`` pattern) and every case
runs both: merged values, dtypes, BAT roles, tags and flags, and the
simulated clocks — which price the syncs, the barrier and the merged
byte count — must agree bit for bit.
"""

import numpy as np
import pytest

import repro
from repro.fuse.expr import FConst, FIn, FOp, FusedOutput, FusedPipe
from repro.monetdb import Catalog
from repro.monetdb.bat import BAT, OID_DTYPE, Role
from repro.monetdb.mal import Var
from repro.monetdb.calc import grouped_dtype
from repro.monetdb.ops import of_class
from repro.ocelot.operators import HOST_CODE, op_sync
from repro.sched import HeterogeneousBackend
from repro.sched import backend as backend_module
from repro.sched.partition import execute_split
from repro.sched.pool import DevicePool

# the old body's two vocabulary sets, now read off the operator table
SELECT_FUNCTIONS = {row.function for row in of_class("select")}
GROUPED_AGG_FUNCTIONS = {row.function for row in of_class("grouped_agg")}

# ---- verbatim from src/repro/sched/partition.py at PR 18 ------------------
# (``execute_split`` renamed ``old_execute_split`` at its definition only)

def old_execute_split(pool: DevicePool, function: str, args,
                  plan: list[tuple[int, int, int]],
                  charge_overhead=None):
    """Run ``ocelot.<function>`` split per ``plan`` and merge on host."""
    if function in SELECT_FUNCTIONS:
        return _split_select(pool, function, args, plan, charge_overhead)
    if function in GROUPED_AGG_FUNCTIONS:
        return _split_grouped(pool, function, args, plan, charge_overhead)
    if function == "pipe":
        return _split_pipe(pool, function, args, plan, charge_overhead)
    return _split_ewise(pool, function, args, plan, charge_overhead)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _run_partials(pool, function, args, plan, charge_overhead):
    """One partial result per participating device (concurrent queues)."""
    if charge_overhead is not None:
        # wake every participating device *before* enqueueing the first
        # partial: a wake-up charge is a joined-timeline barrier, which
        # mid-loop would serialize partials already in flight
        for device, _lo, _hi in plan:
            charge_overhead(device)
    partials = []
    for device, lo, hi in plan:
        engine = pool.engines[device]
        sliced = [
            pool.slice_bat(a, lo, hi) if isinstance(a, BAT) else a
            for a in args
        ]
        with engine.memory.operator_scope():
            out = HOST_CODE[function](engine, *sliced)
        partials.append((engine, lo, hi, out))
    return partials


def _to_host(engine, bat: BAT) -> np.ndarray:
    """Sync one partial back on its own device's queue."""
    with engine.memory.operator_scope():
        op_sync(engine, bat)
    return bat.peek_values()


def _merge_barrier(pool: DevicePool, merged_bytes: int) -> None:
    """Join the queues and charge the host-side merge."""
    pool.charge_host(pool.merge_seconds(merged_bytes * pool.data_scale))


def _discard(pool: DevicePool, partials) -> None:
    for engine, _lo, _hi, out in partials:
        if isinstance(out, BAT):
            pool.release_device_bat(out)


# ---------------------------------------------------------------------------
# selection: offset + concatenate the qualifying-oid lists
# ---------------------------------------------------------------------------

def _split_select(pool, function, args, plan, charge_overhead):
    partials = _run_partials(pool, function, args, plan, charge_overhead)
    pieces = []
    for engine, lo, _hi, out in partials:
        local = _to_host(engine, out)
        if local.size:
            pieces.append(local.astype(OID_DTYPE) + OID_DTYPE.type(lo))
    oids = (
        np.concatenate(pieces) if pieces else np.empty(0, OID_DTYPE)
    )
    _merge_barrier(pool, int(oids.nbytes))
    _discard(pool, partials)
    # per-partition lists ascend and partitions are disjoint ranges, so
    # the concatenation is the globally ascending oid list MS produces
    return BAT(oids, Role.OIDS, key=True, tag="het_sel")


# ---------------------------------------------------------------------------
# element-wise operators: concatenate the row slices
# ---------------------------------------------------------------------------

def _split_ewise(pool, function, args, plan, charge_overhead):
    partials = _run_partials(pool, function, args, plan, charge_overhead)
    pieces = [
        _to_host(engine, out) for engine, _lo, _hi, out in partials
    ]
    values = np.concatenate(pieces)
    _merge_barrier(pool, int(values.nbytes))
    _discard(pool, partials)
    return BAT(np.ascontiguousarray(values), Role.VALUES, tag="het_ewise")


# ---------------------------------------------------------------------------
# fused regions: per-output concatenation of the row slices
# ---------------------------------------------------------------------------

def _split_pipe(pool, function, args, plan, charge_overhead):
    """Fan out one fused region (pure value outputs — the placer never
    splits a pipe with a selection output) and merge each live output
    by concatenation, exactly like a plain element-wise operator."""
    partials = _run_partials(pool, function, args, plan, charge_overhead)
    n_out = len(args[0].outputs)
    merged, merged_bytes = [], 0
    for index in range(n_out):
        pieces = []
        for engine, _lo, _hi, out in partials:
            part = out[index] if isinstance(out, tuple) else out
            pieces.append(_to_host(engine, part))
        values = np.ascontiguousarray(np.concatenate(pieces))
        merged_bytes += values.nbytes
        merged.append(BAT(values, Role.VALUES, tag="het_pipe"))
    _merge_barrier(pool, merged_bytes)
    for engine, _lo, _hi, out in partials:
        for part in (out if isinstance(out, tuple) else (out,)):
            if isinstance(part, BAT):
                pool.release_device_bat(part)
    return merged[0] if n_out == 1 else tuple(merged)


# ---------------------------------------------------------------------------
# grouped aggregation: fold the ngroups-wide partials
# ---------------------------------------------------------------------------

def _fold(op: str, tables: list[np.ndarray]) -> np.ndarray:
    stack = np.stack(tables)
    if op in ("sum", "count"):
        return stack.sum(axis=0, dtype=stack.dtype)
    if op == "min":
        return stack.min(axis=0)
    return stack.max(axis=0)


def _split_grouped(pool, function, args, plan, charge_overhead):
    if function == "subavg":
        # partial averages do not merge; fold partial sums and counts
        vals, gids, ngroups = args
        sums = _split_grouped(pool, "subsum", (vals, gids, ngroups),
                              plan, charge_overhead)
        counts = _split_grouped(pool, "subcount", (gids, ngroups),
                                plan, charge_overhead)
        avg = (sums.peek_values().astype(np.float64)
               / counts.peek_values())
        return BAT(avg.astype(grouped_dtype("avg", vals.dtype)),
                   Role.VALUES, tag="het_subavg")

    op = function[3:]   # subsum -> sum, ...
    partials = _run_partials(pool, function, args, plan, charge_overhead)
    tables = [
        _to_host(engine, out) for engine, _lo, _hi, out in partials
    ]
    # per-slice empty groups hold the fold identity (0 for sum/count,
    # the dtype extreme for min/max), so the element-wise fold is exact
    merged = _fold(op, tables)
    _merge_barrier(pool, int(merged.nbytes))
    _discard(pool, partials)
    return BAT(np.ascontiguousarray(merged), Role.VALUES,
               tag=f"het_{function}")


# ---- the harness ----------------------------------------------------------

ROWS = 40_000


@pytest.fixture
def catalog():
    rng = np.random.default_rng(23)
    cat = Catalog()
    cat.create_table("t", {
        "a": rng.integers(0, 1 << 30, ROWS).astype(np.int32),
        "b": rng.random(ROWS).astype(np.float32),
        "g": rng.integers(0, 64, ROWS).astype(np.int32),
    })
    return cat


def described(out):
    bats = out if isinstance(out, tuple) else (out,)
    return [
        (bat.tag, bat.role, bat.key, bat.sorted, bat.has_host_values,
         str(bat.values.dtype), bat.values.tobytes())
        for bat in bats
    ]


def outcome(split, catalog, function, args, plan):
    """Merged output and every device clock after one forced split."""
    backend = HeterogeneousBackend(catalog)
    try:
        out = split(backend.pool, function, args, plan,
                    charge_overhead=backend._charge_overhead)
        clocks = [engine.queue.makespan() for engine in backend.pool.engines]
        resident = [len(list(engine.memory.entries()))
                    for engine in backend.pool.engines]
        return described(out), clocks, resident
    finally:
        backend.shutdown()


def pipe(*exprs) -> FusedPipe:
    """A fused region over ``(a, b)`` with one value output per expr."""
    return FusedPipe(
        outputs=tuple(FusedOutput(f"X_{k}", expr)
                      for k, expr in enumerate(exprs)),
        inputs=(Var("X_a"), Var("X_b")),
    )


DISCOUNT = FOp("mul", (FIn(0), FOp("sub", (FConst(1), FIn(1)))))

PLANS = {
    "halves": [(0, 0, ROWS // 2), (1, ROWS // 2, ROWS)],
    "uneven": [(1, 0, 1000), (0, 1000, ROWS)],
}


class TestEquivalenceWithOldBodies:
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("function, build", [
        ("thetaselect", lambda t: (t("a"), None, 1 << 29, "<")),
        ("thetaselect", lambda t: (t("a"), None, -1, "<")),   # no hit
        ("select", lambda t: (t("b"), None, 0.25, 0.5, True, False, False)),
        ("mul", lambda t: (t("b"), t("b"))),
        ("add", lambda t: (t("a"), 7)),
        ("subsum", lambda t: (t("b"), t("g"), 64)),
        ("subsum", lambda t: (t("a"), t("g"), 64)),
        ("submin", lambda t: (t("b"), t("g"), 64)),
        ("submax", lambda t: (t("a"), t("g"), 64)),
        ("subcount", lambda t: (t("g"), 64)),
        ("subavg", lambda t: (t("b"), t("g"), 64)),
        ("subavg", lambda t: (t("a"), t("g"), 64)),
        ("pipe", lambda t: (pipe(DISCOUNT), t("a"), t("b"))),
        ("pipe", lambda t: (pipe(DISCOUNT, FOp("add", (FIn(0), FIn(1))),
                                 FOp("gt", (FIn(1), FConst(0.5)))),
                            t("a"), t("b"))),
    ])
    def test_forced_split(self, catalog, function, build, plan):
        args = build(lambda column: catalog.bat("t", column))
        old = outcome(old_execute_split, catalog, function, args, PLANS[plan])
        new = outcome(execute_split, catalog, function, args, PLANS[plan])
        assert new == old

    @pytest.mark.parametrize("sql", [
        "SELECT g, sum(b * 2) AS s, avg(b) AS m, count(*) AS n FROM t "
        "WHERE a > 100 GROUP BY g",
        "SELECT a * 2 AS x, b + 1 AS y FROM t WHERE b < 0.5",
    ])
    def test_queries_the_placer_splits(self, monkeypatch, sql):
        """Whole queries on HET with the placer's own plans (columns
        that outgrow the simulated GPU, so the scan fans out): same
        results, same decisions, same simulated time."""
        monkeypatch.delenv("REPRO_MORSEL", raising=False)
        rng = np.random.default_rng(3)
        rows = 200_000
        table = {
            "a": rng.integers(0, 1 << 20, rows).astype(np.int32),
            "b": rng.random(rows).astype(np.float32),
            "g": rng.integers(0, 16, rows).astype(np.int32),
        }

        def run(split):
            monkeypatch.setattr(backend_module, "execute_split", split)
            with repro.Database(data_scale=2000) as db:
                db.create_table("t", table)
                con = db.connect("HET:morsel=off")
                result = con.execute(sql)
                return (
                    {name: (str(values.dtype), values.tobytes())
                     for name, values in result.columns.items()},
                    result.elapsed,
                    list(con.backend.decision_log),
                )

        old, new = run(old_execute_split), run(execute_split)
        assert new == old
        assert any(where == "split" for _function, where in new[2])
