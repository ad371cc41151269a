"""The resident set is bounded by queries in flight, not queries served.

After any query — finished, failed, cancelled, on ``execute()`` or
``submit()`` — every Memory Manager holds what it held before it, plus
the deliberate caches (base-column uploads, §5.2.6 base hash tables).
So once the caches are warm, a pass of the 14 TPC-H texts leaves every
measure of the resident set exactly where the pass before left it.

The matrix is derived from the engine registry and ``KNOBS``; a failure
prints the stranded entries as a ``(kind, tag, linked?)`` census, so the
message names the leak.  The 40-pass / 12-pass long-run versions are
``slow`` tests at the bottom.
"""

import collections
import gc

import numpy as np
import pytest

import repro
from repro.engines import KNOBS, default_registry
from repro.ocelot.engine import OcelotEngine
from repro.serve import FaultyBackend
from repro.serve.faults import TransientFault, wrap_shard_child
from repro.serve.session import QueryCancelled
from repro.tpch import WORKLOAD

ENV_VARS = tuple(knob.env for knob in KNOBS.values() if knob.env)


# -- the matrix, derived ------------------------------------------------------

def ocelot_specs() -> "list[str]":
    """Every Ocelot-backed engine shape the registry can name: each leaf
    family; the leaves that pipeline sessions also under an admission
    cap; each composite family over the first leaf at 2 and 4 nodes and,
    where the family takes ``replicas=``, on a replicated roster."""
    registry = default_registry
    leaves = [
        family.name for family in registry.families()
        if not family.takes_child and registry.resolve(family.name).is_ocelot
    ]
    with repro.Database() as db:
        pipelined = [
            name for name in leaves
            if db.connect(name).backend.sessions.timeline.overlaps
        ]
    specs = leaves + [f"{name}:admission=4" for name in pipelined]
    for family in registry.families():
        if not family.takes_child:
            continue
        specs += [f"{family.name}:{n}x{leaves[0]}" for n in (2, 4)]
        if "replicas" in family.allowed_params:
            specs.append(f"{family.name}:3x{leaves[0]}:replicas=2")
    return specs


#: the default plan pipeline, and each plan-shaping knob switched off
KNOB_SETTINGS = [""] + [
    f"{knob.name}=off" for knob in KNOBS.values() if knob.plan_identity
]
SPECS = [
    spec + ((":" + setting) if setting else "")
    for spec in ocelot_specs() for setting in KNOB_SETTINGS
]


def test_the_matrix_is_the_one_the_issue_names():
    assert set(ocelot_specs()) == {
        "CPU", "GPU", "HET", "HET:admission=4", "SHARD:2xCPU",
        "SHARD:4xCPU", "SHARD:3xCPU:replicas=2",
    }
    assert KNOB_SETTINGS == ["", "fusion=off", "morsel=off",
                             "compression=off"]


# -- measuring ------------------------------------------------------------------

def managers(con):
    return con.backend.memory.managers()


def resident_set(con) -> dict:
    """Everything that must not move from one warm pass to the next."""
    entries = [e for m in managers(con) for e in m.entries()]
    mm = con.backend.counters()["mm"]
    return {
        "entries": len(entries),
        "resident_bytes": mm["resident_bytes"],
        "resident_bytes_physical": mm["resident_bytes_physical"],
        "pins": sum(e.pins for e in entries),
        "unfreed": mm["intermediates_allocated"] - mm["intermediates_freed"],
    }


def census(con) -> collections.Counter:
    return collections.Counter(
        (entry.kind.value, entry.tag.split("[")[0], entry.bat is not None)
        for manager in managers(con) for entry in manager.entries()
    )


def stranded(before: collections.Counter, con) -> str:
    rows = sorted((census(con) - before).items(), key=lambda kv: -kv[1])
    return "stranded (count, (kind, tag, linked?)):\n" + "\n".join(
        f"  {count:5d}  {key}" for key, count in rows
    )


def run_pass(con, mode: str, texts=WORKLOAD) -> None:
    if mode == "execute":
        for name, sql in texts.items():
            con.execute(sql, name=name)
        return
    futures = [con.submit(sql, name=name) for name, sql in texts.items()]
    con.drain()
    for future in futures:
        future.result()


@pytest.fixture(scope="module", autouse=True)
def clean_env():
    with pytest.MonkeyPatch.context() as patch:
        for var in ENV_VARS:
            patch.delenv(var, raising=False)
        yield


@pytest.fixture(scope="module")
def tpch():
    with repro.tpch_database(sf=0.1) as db:
        yield db


# -- the matrix -------------------------------------------------------------------

@pytest.mark.parametrize("mode", ("execute", "submit"))
@pytest.mark.parametrize("spec", SPECS)
def test_resident_set_is_flat_from_pass_to_pass(tpch, spec, mode):
    con = tpch.connect(spec)
    try:
        run_pass(con, mode)                      # warm: fills the caches
        run_pass(con, mode)
        after_first, held = resident_set(con), census(con)
        run_pass(con, mode)
        run_pass(con, mode)
        assert resident_set(con) == after_first, stranded(held, con)
        assert after_first["pins"] == 0
    finally:
        con.close()


def test_create_query_drop_returns_to_the_entry_count():
    rng = np.random.default_rng(5)
    rows = 20_000
    columns = {
        "s_key": rng.integers(0, 16, rows).astype(np.int32),
        "s_flag": np.sort(rng.integers(0, 3, rows)).astype(np.int32),
        "s_val": rng.uniform(0.0, 1000.0, rows).astype(np.float32),
    }
    query = ("SELECT s_key, sum(s_val) AS total, count(*) AS n FROM staging "
             "WHERE s_flag = 1 GROUP BY s_key ORDER BY s_key")
    join = ("SELECT count(*) AS n FROM nation JOIN staging "
            "ON n_nationkey = s_key")
    with repro.tpch_database(sf=0.01) as db:
        con = db.connect("SHARD:2xCPU")
        before = held = None
        for iteration in range(6):
            db.create_table("staging", columns)
            con.execute(query, name="staging")
            # builds (and caches) a hash table over a base column of the
            # table about to be dropped
            con.execute(join, name="staging_join")
            assert any(key[1] == "ht_keys" for key in census(con))
            db.drop_table("staging")
            if iteration == 0:      # warm: nation's columns are cached now
                before, held = resident_set(con), census(con)
            assert resident_set(con) == before, stranded(held, con)
        assert not any("staging" in key[1] or key[1] == "ht_keys"
                       for key in held)


# -- the slice cache holds views of live BATs only --------------------------------

@pytest.mark.parametrize("spec", ("CPU:morsel=512", "GPU:morsel=512",
                                  "HET:morsel=512"))
def test_no_cached_slice_outlives_its_bat(small, spec, monkeypatch):
    """Morsel steps and device partitions read one slice cache, the
    catalog's, which drops a BAT's slices when the BAT is recycled: the
    slices of a dead intermediate do not pile up from pass to pass."""
    catalog, recycled, intermediates = small.catalog, set(), []
    slice_of = type(catalog).slice

    def spy(self, bat, lo, hi):
        if not bat.is_base:
            intermediates.append(bat.bat_id)
        return slice_of(self, bat, lo, hi)

    def cached():
        return sum(map(len, catalog._slices.values()))

    def note(bat):
        recycled.add(bat.bat_id)

    monkeypatch.setattr(type(catalog), "slice", spy)
    catalog.on_delete(note)
    con = small.connect(spec)
    try:
        counts = []
        for _ in range(3):
            run_pass(con, "execute")
            assert not set(catalog._slices) & recycled
            counts.append(cached())
        assert intermediates, "no morsel sliced an intermediate"
        assert counts[1] == counts[2]
    finally:
        catalog.off_delete(note)
        con.close()


# -- failure and cancel take the same release path --------------------------------

FAULT_SPECS = ("HET", "SHARD:2xCPU")


def operator_count(con, sql: str, name: str) -> int:
    """Operator executions of one run of ``sql`` — the indices a
    :class:`FaultyBackend` schedule addresses (a morsel region resolves
    its members once per morsel, so this can exceed the plan length)."""
    healthy = con.backend
    con.backend = probe = FaultyBackend(healthy)
    try:
        con.execute(sql, name=name)
    finally:
        con.backend = healthy
    return probe.ops_seen


@pytest.fixture(scope="module")
def small():
    with repro.tpch_database(sf=0.01) as db:
        yield db


@pytest.mark.parametrize("mode", ("execute", "submit"))
@pytest.mark.parametrize("spec", FAULT_SPECS)
def test_a_fault_at_every_instruction_of_q3_strands_nothing(small, spec,
                                                            mode):
    con = small.connect(spec)
    sql = WORKLOAD["Q3"]
    try:
        healthy = con.backend
        n = operator_count(con, sql, "Q3")
        run_pass(con, mode, {"Q3": sql})
        before, held = resident_set(con), census(con)
        for index in range(1, n + 1):
            for error in (RuntimeError("boom"), TransientFault("blip")):
                con.backend = FaultyBackend(healthy, {index: error})
                con._scheduler = None
                if isinstance(error, TransientFault):
                    run_pass(con, mode, {"Q3": sql})     # retried, unseen
                else:
                    with pytest.raises(RuntimeError, match="boom"):
                        run_pass(con, mode, {"Q3": sql})
                assert len(con.backend.injected) == 1, index
                assert resident_set(con) == before, (
                    f"{type(error).__name__} at instruction {index}\n"
                    + stranded(held, con))
    finally:
        con.backend, con._scheduler = healthy, None
        con.close()


def test_a_fault_inside_one_shard_strands_nothing_on_the_others(small):
    """The fan-out dies half-way: the shards before the faulty one have
    produced parts no ``ShardedValue`` ever wrapped."""
    con = small.connect("SHARD:4xCPU")
    sql = WORKLOAD["Q3"]
    try:
        n = operator_count(con, sql, "Q3")
        before, held = resident_set(con), census(con)
        faulty = wrap_shard_child(con.backend, 2)
        for index in range(1, n + 1):
            faulty.ops_seen = 0
            faulty.schedule = {index: RuntimeError("boom")}
            with pytest.raises(RuntimeError, match="boom"):
                con.execute(sql, name="Q3")
            assert resident_set(con) == before, (
                f"instruction {index}\n" + stranded(held, con))
    finally:
        con.close()


@pytest.mark.parametrize("spec", ("CPU", "HET"))
def test_a_fault_inside_an_operator_strands_nothing(small, spec,
                                                    monkeypatch):
    """The exception unwinds through the operator scope: scratch goes
    with the scope, results already linked go with the query."""
    con = small.connect(spec)
    sql = WORKLOAD["Q3"]
    try:
        con.execute(sql, name="Q3")
        before, held = resident_set(con), census(con)
        launch = OcelotEngine.launch
        state = {"seen": 0, "fail_at": 0}

        def flaky(engine, *args, **kwargs):
            state["seen"] += 1
            if state["seen"] == state["fail_at"]:
                raise RuntimeError("boom")
            return launch(engine, *args, **kwargs)

        state["fail_at"] = -1
        monkeypatch.setattr(OcelotEngine, "launch", flaky)
        con.execute(sql, name="Q3")
        launches = state["seen"]
        for fail_at in range(1, launches + 1, 7):
            state.update(seen=0, fail_at=fail_at)
            with pytest.raises(RuntimeError, match="boom"):
                con.execute(sql, name="Q3")
            assert resident_set(con) == before, (
                f"launch {fail_at}\n" + stranded(held, con))
    finally:
        con.close()


@pytest.mark.parametrize("spec", FAULT_SPECS)
def test_cancel_mid_plan_strands_nothing(small, spec):
    con = small.connect(spec)
    sql = WORKLOAD["Q3"]
    try:
        run_pass(con, "submit", {"Q3": sql, "Q6": WORKLOAD["Q6"]})
        before, held = resident_set(con), census(con)
        for steps in (1, 5, 17):
            victim = con.submit(sql, name="victim")
            bystander = con.submit(WORKLOAD["Q6"], name="Q6")
            for _ in range(2 * steps):
                con.scheduler.step()
            assert victim.cancel()
            con.drain()
            assert isinstance(victim.exception(), QueryCancelled)
            assert bystander.result().n_rows == 1
            assert resident_set(con) == before, (
                f"cancel after {steps} steps\n" + stranded(held, con))
    finally:
        con.close()


def test_a_held_result_pins_its_columns_and_nothing_else(small):
    con = small.connect("CPU")
    try:
        result = con.execute(WORKLOAD["Q3"], name="Q3")
        names = {var.name for _, var in result.program.result_columns}
        assert set(result.env) == names
        assert len(result.env) < result.instruction_count
        for value in result.env.values():
            assert value.has_host_values
            assert value.device_ref is None or value.device_ref.released
    finally:
        con.close()


# -- long runs (slow) -------------------------------------------------------------

@pytest.mark.slow
def test_forty_serve_passes_stay_flat_without_eviction():
    """The ``serve_het_sf1`` shape: four statements in flight on
    ``HET:admission=4`` at SF 1.  Before buffers died with their query
    the simulated GPU filled around pass 12 and every later pass paid
    evictions and offloads."""
    with repro.tpch_database(sf=1.0) as db:
        con = db.connect("HET:admission=4")
        per_pass = []
        for _ in range(40):
            window: collections.deque = collections.deque()
            elapsed = 0.0
            for name, sql in WORKLOAD.items():
                if len(window) == 4:
                    elapsed += window.popleft().result().elapsed
                window.append(con.submit(sql, name=name))
            while window:
                elapsed += window.popleft().result().elapsed
            per_pass.append(elapsed)
        mm = con.backend.counters()["mm"]
        assert mm["evictions"] == mm["offloads"] == 0
        # flat, not drifting: ``elapsed`` is a difference of absolute
        # simulated epochs that grow with every pass, so the last bits
        # of the float round differently — nothing more may move
        flat = per_pass[1:]
        assert max(flat) - min(flat) < 1e-9 * min(flat), per_pass


@pytest.mark.slow
def test_twelve_shard_passes_do_not_grow_the_heap():
    with repro.tpch_database(sf=1.0) as db:
        db.declare_shard_key("lineitem", "l_orderkey")
        db.declare_shard_key("orders", "o_orderkey")
        con = db.connect("SHARD:4xCPU")
        run_pass(con, "execute")
        sizes = []
        for _ in range(12):
            run_pass(con, "execute")
            gc.collect()
            sizes.append(len(gc.get_objects()))
        growth = [b - a for a, b in zip(sizes, sizes[1:])]
        assert max(growth) < 1000, growth
