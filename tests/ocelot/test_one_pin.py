"""The operator scope is the one pin.

Every host code runs inside its engine's ``MemoryManager.operator_scope``;
there ``buffer_for_bat``, ``allocate`` and ``scope_pin`` pin whatever the
operator touches until the scope exits, so no operator pins a buffer a
second time by hand (``MemoryManager.pin`` is for a hot set held across
queries).  These checks wrap every ``operators.HOST_CODE`` entry before
any backend binds it and assert that a scope is open on each call: the
TPC-H workload on CPU, GPU, HET and ``SHARD:2xCPU``, and a device split
forced the way ``tests/sched/test_split_merge.py`` forces one.
"""

import numpy as np
import pytest

import repro
from repro.monetdb import Catalog
from repro.ocelot import operators
from repro.sched import HeterogeneousBackend
from repro.sched.partition import execute_split
from repro.tpch import WORKLOAD


@pytest.fixture
def calls(monkeypatch):
    """``(host code, open operator scopes)`` of every host-code call."""
    seen = []
    for name, host_code in list(operators.HOST_CODE.items()):
        def scoped(engine, *args, _name=name, _host_code=host_code):
            seen.append((_name, len(engine.memory._scope_stack)))
            return _host_code(engine, *args)

        monkeypatch.setitem(operators.HOST_CODE, name, scoped)
    return seen


def unscoped(calls) -> list:
    return sorted({name for name, depth in calls if depth == 0})


@pytest.mark.parametrize("label", ("CPU", "GPU", "HET", "SHARD:2xCPU"))
def test_every_host_code_call_runs_in_an_operator_scope(calls, label):
    with repro.tpch_database(sf=0.02) as db:
        con = db.connect(label)
        for name, sql in WORKLOAD.items():
            con.execute(sql, name=name)
    names = {name for name, _depth in calls}
    assert {"select", "projection", "join", "sort", "sync"} <= names
    assert unscoped(calls) == []


def test_a_forced_split_runs_each_share_in_an_operator_scope(calls):
    rows = 40_000
    rng = np.random.default_rng(23)
    catalog = Catalog()
    catalog.create_table("t", {
        "a": rng.integers(0, 1 << 30, rows).astype(np.int32),
        "g": rng.integers(0, 64, rows).astype(np.int32),
    })
    a, g = catalog.bat("t", "a"), catalog.bat("t", "g")
    halves = [(0, 0, rows // 2), (1, rows // 2, rows)]
    backend = HeterogeneousBackend(catalog)
    try:
        for function, args in (("thetaselect", (a, None, 1 << 29, "<")),
                               ("subsum", (a, g, 64))):
            before = len(calls)
            execute_split(backend.pool, function, args, halves)
            # each share's one output comes home through the sync host
            # code, inside a scope of its own
            syncs = [depth for name, depth in calls[before:]
                     if name == "sync"]
            assert len(syncs) == len(halves), function
    finally:
        backend.shutdown()
    names = {name for name, _depth in calls}
    assert {"thetaselect", "subsum", "sync"} <= names
    assert unscoped(calls) == []
