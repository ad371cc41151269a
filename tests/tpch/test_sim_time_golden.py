"""Golden simulated times: a host-only optimisation must not move them.

``sim_digests.json`` holds ``repr(result.elapsed)`` and a checksum of
the result columns for the 14 TPC-H queries, run in their fixed order
twice (cold, then warm caches) on one connection per engine to a fresh
SF 0.1 database.  Every cell must stay bit-identical.

The ``pipelined`` section pins the ``submit()`` path the same way: the
14 queries submitted together (four in flight on ``HET:admission=4``,
all at once on the sharded engines), cold then warm — per future the
elapsed time, submit and completion epochs and result checksum, plus
the batch makespan.

History.  The execute section was first generated at the commit
*before* PR 14 made the kernel bodies, cost estimators and enqueue path
cheaper, the pipelined section at the commit before PR 15 moved the
per-session state of HET and SHARD into one shared holder; both stayed
bit-identical through PR 17.  **Both were regenerated at PR 18**, which
removed launches (a work-group-local sort for inputs that fit local
memory, a hash build whose check round counts its own failures): a
launch is what the simulated devices charge most for, so the times
fell.  Compared cell by cell before committing — all 196 result
checksums identical, no elapsed time, completion epoch or makespan
higher (the two warm Q6 cells, which launch neither, moved by 3e-15
relative because the clock they are subtracted from moved), placement
reuses equal; summed elapsed CPU and SHARD:2xCPU -8.8 %, GPU and HET
-50.4 %, pipelined makespans -25 ... -52 % (table in CHANGES.md).
**The pipelined section was regenerated at PR 20**, which made
``execute()`` a one-flight batch of the scheduler and a session cost
what ``begin()``/``elapsed()`` cost: the 112 execute cells stayed
bit-identical through it (they were that PR's guard), all 84 pipelined
checksums and placement reuses too; the SHARD cells rose by the
per-query framework overhead their sessions had never paid (makespan
3.41 -> 11.79 s on SHARD:2xCPU, whose 14 serial executes sum to 11.80)
and the HET cells moved by <= 0.1 % (a session floored past a queue's
host clock now pays its enqueues' submit cost).  **Both were
regenerated at PR 22**, which removed the launches that only prepared an
operand for the next one (a hash table's value-column ``fill``, the
``iota``s, the scan after ``bitmap_count``, the frame ``fill`` + add and
the index-only gather of a decoding projection): all 196 checksums and
every placement-reuse count identical, no elapsed time, completion epoch
or makespan higher; summed elapsed CPU -4.6 %, SHARD:2xCPU -4.4 %, GPU
and HET -5.5 %, pipelined makespans -4.4 ... -5.7 % (comparison output
in docs/changes/PR-22.md).  **The two SHARD pipelined engines were
regenerated at PR 24**, which stopped SHARD recording and replaying its
join strategies: of the 208 fields exactly two differ, their warm
``placement_reuses`` (36 -> 0; the counter is HET's alone now) — every
time, epoch, makespan and checksum identical (docs/changes/PR-24.md).
**The pipelined section was regenerated once more** when HET stopped
replaying the placer's decisions from the plan cache: the
``placement_reuses`` field went from every cell (HET's warm 464 -> none)
and every time, epoch, makespan and checksum stayed identical.

A change that means to alter the cost model or a result deletes the
cells it moves and regenerates them (``--regen`` only adds cells that
are missing, existing ones are written back unchanged) and says so::

    PYTHONPATH=src python tests/tpch/test_sim_time_golden.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.tpch import WORKLOAD

DIGESTS = Path(__file__).with_name("sim_digests.json")

ENGINES = ("CPU", "GPU", "HET", "SHARD:2xCPU")
PIPELINED = ("HET:admission=4", "SHARD:2xCPU", "SHARD:3xCPU:replicas=2")
PASSES = ("cold", "warm")
ENV_VARS = ("REPRO_FUSION", "REPRO_MORSEL", "REPRO_COMPRESSION",
            "REPRO_TRACE")


def checksum(columns: "dict[str, np.ndarray]") -> str:
    sha = hashlib.sha256()
    for name, values in columns.items():
        values = np.ascontiguousarray(values)
        sha.update(f"{name}:{values.dtype.str}:{values.shape};".encode())
        sha.update(values.tobytes())
    return sha.hexdigest()


def cells(engine: str) -> "dict[str, dict[str, list[str]]]":
    """``{pass: {query: [repr(elapsed), checksum]}}`` for ``engine``."""
    con = repro.tpch_database(sf=0.1).connect(engine)
    out = {}
    for label in PASSES:
        out[label] = {}
        for name, sql in WORKLOAD.items():
            result = con.execute(sql, name=name)
            out[label][name] = [repr(result.elapsed),
                                checksum(result.columns)]
    return out


def pipelined_cells(engine: str) -> dict:
    """``{pass: {"queries": {query: [repr(elapsed), repr(submit epoch),
    repr(completion epoch), checksum]}, "makespan"}}`` for the whole
    workload submitted as one batch on ``engine``."""
    con = repro.tpch_database(sf=0.1).connect(engine)
    out = {}
    for label in PASSES:
        futures = {name: con.submit(sql, name=name)
                   for name, sql in WORKLOAD.items()}
        con.drain()
        queries = {}
        for name, future in futures.items():
            result = future.result()
            queries[name] = [repr(result.elapsed),
                             repr(future.submit_epoch),
                             repr(future.completion_epoch),
                             checksum(result.columns)]
        out[label] = {
            "queries": queries,
            "makespan": repr(con.scheduler.last_batch_makespan),
        }
    return out


@pytest.fixture(scope="module", autouse=True)
def clean_env():
    with pytest.MonkeyPatch.context() as patch:
        for var in ENV_VARS:
            patch.delenv(var, raising=False)
        yield


@pytest.mark.parametrize("engine", ENGINES)
def test_simulated_time_and_results_match_golden(engine):
    golden = json.loads(DIGESTS.read_text())[engine]
    got = cells(engine)
    wrong = [
        f"{engine} {label} {name}: elapsed/checksum {got[label][name]} "
        f"!= golden {golden[label][name]}"
        for label in PASSES for name in WORKLOAD
        if got[label][name] != golden[label][name]
    ]
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("engine", PIPELINED)
def test_pipelined_simulated_time_and_results_match_golden(engine):
    golden = json.loads(DIGESTS.read_text())["pipelined"][engine]
    got = pipelined_cells(engine)
    wrong = [
        f"{engine} {label} {name}: {got[label]['queries'][name]} "
        f"!= golden {golden[label]['queries'][name]}"
        for label in PASSES for name in WORKLOAD
        if got[label]["queries"][name] != golden[label]["queries"][name]
    ]
    wrong += [
        f"{engine} {label} makespan: {got[label]['makespan']!r} "
        f"!= golden {golden[label]['makespan']!r}"
        for label in PASSES
        if got[label]["makespan"] != golden[label]["makespan"]
    ]
    assert not wrong, "\n".join(wrong)


def regen() -> None:
    import os

    for var in ENV_VARS:
        os.environ.pop(var, None)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    added = []
    for engine in ENGINES:
        if engine not in table:
            table[engine] = cells(engine)
            added.append(engine)
    pipelined = table.setdefault("pipelined", {})
    for engine in PIPELINED:
        if engine not in pipelined:
            pipelined[engine] = pipelined_cells(engine)
            added.append(f"pipelined {engine}")
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"added {added or 'nothing'} to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    regen()
