"""A query has one price, whichever door it came through.

``execute(sql)`` is ``submit(sql).result()`` on the connection's session
scheduler, so on twin databases the two must agree — per statement, cold
and warm — on the simulated price to the bit, on the result, on the
engine's decision log (HET's placements, SHARD's join strategies) and on
how often a command queue was joined (``clFinish``): a second way to
drive a plan shows up as a difference in one of the four.  The matrix is derived from the
engine registry and ``KNOBS``; the whole workload runs under the default
knobs, the statements with the most morsels, joins and group merges
under each knob that changes how a flight steps (``trace=on``: the
tracer's clock; ``morsel=off``: no morsel-granular turns).  The twins
run under whatever ``REPRO_*`` environment the process has, which is
how CI's knob A/B cells reach every spec here.

At the commit before the one driver this failed on every HET and SHARD
spec: a lone HET session lost one enqueue's submit cost whenever a
queue's host clock lagged its epoch (3 of 28 cells), SHARD sessions
never paid the per-query framework overhead that ``begin()`` charges and
joined every child twice per turn (0 of 28).
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.cl.queue import CommandQueue
from repro.engines import KNOBS, default_registry
from repro.tpch import WORKLOAD

PASSES = ("cold", "warm")
#: what the knob variants run
PROBES = ("Q1", "Q3", "Q6", "Q21")
#: the knobs under which the old drivers stepped a flight differently
STEP_KNOBS = {"trace": "trace=on", "morsel": "morsel=off"}


# -- the matrix, derived ------------------------------------------------------

def engine_specs() -> "list[str]":
    """Every engine shape the registry can name: each leaf family; the
    leaves whose timeline overlaps sessions also under an admission
    cap; each composite family over two nodes of the first MonetDB
    leaf, the first Ocelot leaf and every overlapping leaf and, where
    it takes ``replicas=``, on a replicated roster."""
    registry = default_registry
    leaves = [f.name for f in registry.families() if not f.takes_child]
    ocelot = [name for name in leaves if registry.resolve(name).is_ocelot]
    plain = [name for name in leaves if name not in ocelot]
    with repro.Database() as db:
        overlapping = [
            name for name in leaves
            if db.connect(name).backend.sessions.timeline.overlaps
        ]
    specs = leaves + [f"{name}:admission=4" for name in overlapping]
    for family in registry.families():
        if not family.takes_child:
            continue
        specs += [f"{family.name}:2x{child}"
                  for child in [plain[0], ocelot[0]] + overlapping]
        if "replicas" in family.allowed_params:
            specs.append(f"{family.name}:3x{ocelot[0]}:replicas=2")
    return specs


SPECS = engine_specs()


def test_the_matrix_is_the_one_the_issue_names():
    assert set(SPECS) == {
        "MS", "MP", "CPU", "GPU", "HET", "HET:admission=4", "SHARD:2xMS",
        "SHARD:2xCPU", "SHARD:2xHET", "SHARD:3xCPU:replicas=2",
    }
    assert set(STEP_KNOBS) <= set(KNOBS)


# -- measuring ------------------------------------------------------------------

def checksum(columns: "dict[str, np.ndarray]") -> str:
    sha = hashlib.sha256()
    for name, values in columns.items():
        values = np.ascontiguousarray(values)
        sha.update(f"{name}:{values.dtype.str}:{values.shape};".encode())
        sha.update(values.tobytes())
    return sha.hexdigest()


@pytest.fixture
def joins(monkeypatch):
    """``joins[0]``: ``CommandQueue.finish`` calls so far."""
    count = [0]
    finish = CommandQueue.finish

    def counted(queue):
        count[0] += 1
        return finish(queue)

    monkeypatch.setattr(CommandQueue, "finish", counted)
    return count


def through_execute(con, sql, name):
    return con.execute(sql, name=name), None


def through_submit(con, sql, name):
    future = con.submit(sql, name=name)
    return future.result(), future


def cells(spec, door, texts, joins, sf=0.1) -> dict:
    """``{(pass, query): (repr(elapsed), checksum, decision log, queue
    joins)}`` on a fresh database."""
    out = {}
    with repro.tpch_database(sf=sf) as db:
        con = db.connect(spec)
        for label in PASSES:
            for name in texts:
                before = joins[0]
                result, future = door(con, WORKLOAD[name], name)
                out[label, name] = (
                    repr(result.elapsed), checksum(result.columns),
                    list(getattr(con.backend, "decision_log", ())),
                    joins[0] - before,
                )
                if future is not None:
                    assert (future.completion_epoch - future.submit_epoch
                            == pytest.approx(result.elapsed, rel=1e-12,
                                             abs=1e-12)), (label, name)
    return out


def assert_one_price(spec, texts, joins, sf=0.1):
    executed = cells(spec, through_execute, texts, joins, sf)
    submitted = cells(spec, through_submit, texts, joins, sf)
    wrong = [
        f"{spec} {label} {name}: execute {executed[label, name]} "
        f"!= lone submit {submitted[label, name]}"
        for label, name in executed
        if executed[label, name] != submitted[label, name]
    ]
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("spec", SPECS)
def test_execute_and_a_lone_submit_agree(spec, joins):
    assert_one_price(spec, list(WORKLOAD), joins)


@pytest.mark.parametrize("knob", STEP_KNOBS.values())
@pytest.mark.parametrize("spec", SPECS)
def test_they_agree_under_the_knobs_that_change_stepping(spec, knob, joins):
    assert_one_price(f"{spec}:{knob}", PROBES, joins)


def test_they_agree_under_memory_pressure(joins):
    """SF 8 exceeds the simulated GTX 460: morsels are stolen by the
    device whose frontier is earliest, and a session's frontier is its
    floor where a plain query's joins had moved the queue's own clocks
    (Q1 came out 10 % cheaper as a session before the pool said so)."""
    assert_one_price("HET", ("Q1", "Q4", "Q6", "Q7", "Q15"), joins, sf=8)


@pytest.mark.parametrize("spec", ("CPU", "HET", "SHARD:2xCPU"))
def test_execute_beside_flights_in_flight(spec):
    """``execute()`` is one more flight of the batch: it returns its own
    answer and the submissions it joined keep theirs."""
    with repro.tpch_database(sf=0.1) as db:
        con = db.connect(spec)
        alone = {name: checksum(con.execute(WORKLOAD[name], name=name).columns)
                 for name in ("Q1", "Q6", "Q12")}
        first = con.submit(WORKLOAD["Q1"], name="Q1")
        second = con.submit(WORKLOAD["Q12"], name="Q12")
        con.scheduler.step()                      # both are under way
        assert not (first.done() or second.done())
        got = con.execute(WORKLOAD["Q6"], name="Q6")
        assert checksum(got.columns) == alone["Q6"]
        assert checksum(first.result().columns) == alone["Q1"]
        assert checksum(second.result().columns) == alone["Q12"]
        assert con.scheduler.idle
