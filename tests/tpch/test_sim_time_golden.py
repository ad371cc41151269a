"""Golden simulated times: a host-only optimisation must not move them.

``sim_digests.json`` holds ``repr(result.elapsed)`` and a checksum of
the result columns for the 14 TPC-H queries, run in their fixed order
twice (cold, then warm caches) on one connection per engine to a fresh
SF 0.1 database.  It was generated at the commit *before* the kernel
bodies, cost estimators and enqueue path were made cheaper; every cell
must stay bit-identical.  A change that means to alter the cost model
or a result regenerates the file and says so::

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


def regen() -> None:
    import os

    for var in ENV_VARS:
        os.environ.pop(var, None)
    table = {engine: cells(engine) for engine in ENGINES}
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(ENGINES) * len(PASSES) * len(WORKLOAD)} cells "
          f"to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    regen()
