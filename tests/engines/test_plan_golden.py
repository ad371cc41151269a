"""Golden plan digests: plans are the spec.

``plan_digests.json`` holds the sha256 of ``Connection.explain(sql)``
for every TPC-H query × engine family × knob setting, generated at the
commit *before* the plan pipeline became table-driven.  A refactor of
the passes, the knob table or the pipeline must leave every cell
byte-identical; a change that means to alter plans regenerates the
file and says so::

    PYTHONPATH=src python tests/engines/test_plan_golden.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro
from repro.tpch import WORKLOAD

DIGESTS = Path(__file__).with_name("plan_digests.json")

FAMILIES = ("MS", "MP", "CPU", "GPU", "HET", "SHARD:2xCPU")
SETTINGS = (
    "",
    "fusion=off",
    "morsel=off",
    "morsel=4096",
    "compression=off",
    "compression=dict",
    "compression=off,fusion=off,morsel=off",
)
ENV_VARS = ("REPRO_FUSION", "REPRO_MORSEL", "REPRO_COMPRESSION",
            "REPRO_TRACE")


def spec_of(family: str, setting: str) -> str:
    if not setting:
        return family
    return family + ("," if ":" in family else ":") + setting


SPECS = [spec_of(f, s) for f in FAMILIES for s in SETTINGS]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plans(db, spec: str) -> "dict[str, str]":
    con = db.connect(spec)
    return {name: con.explain(sql, name=name)
            for name, sql in WORKLOAD.items()}


def check(spec: str, golden_spec: str, texts: "dict[str, str]") -> None:
    golden = json.loads(DIGESTS.read_text())[golden_spec]
    wrong = [
        f"--- {spec} {name}: plan differs from the golden "
        f"{golden_spec!r} cell; new plan:\n{text}"
        for name, text in texts.items() if digest(text) != golden[name]
    ]
    assert not wrong, "\n".join(wrong)


@pytest.fixture(scope="module", autouse=True)
def clean_env():
    """The matrix is spec-driven; the CI knob A/B job's env var must
    not leak into it (nor into the storage mode of ``db``)."""
    with pytest.MonkeyPatch.context() as patch:
        for var in ENV_VARS:
            patch.delenv(var, raising=False)
        yield


@pytest.fixture(scope="module")
def db(clean_env):
    return repro.tpch_database(sf=0.01)


@pytest.mark.parametrize("spec", SPECS)
def test_plans_match_golden_digests(db, spec):
    check(spec, spec, plans(db, spec))


@pytest.mark.parametrize("var,value,setting", [
    ("REPRO_FUSION", "off", "fusion=off"),
    ("REPRO_MORSEL", "4096", "morsel=4096"),
])
@pytest.mark.parametrize("family", FAMILIES)
def test_env_var_equals_spec_knob(db, monkeypatch, family, var, value,
                                  setting):
    monkeypatch.setenv(var, value)
    check(f"{var}={value} {family}", spec_of(family, setting),
          plans(db, family))


@pytest.mark.parametrize("family", FAMILIES)
def test_env_compression_off_also_stores_plain(db, monkeypatch, family):
    """``REPRO_COMPRESSION=off`` compiles the ``compression=off`` plan
    and, being the storage mode too, leaves nothing to annotate."""
    spec_plans = plans(db, spec_of(family, "compression=off"))
    monkeypatch.setenv("REPRO_COMPRESSION", "off")
    env_plans = plans(repro.tpch_database(sf=0.01), family)
    for name, text in spec_plans.items():
        kept = [line for line in text.split("\n")
                if not line.startswith("# encodings:")]
        assert "\n".join(kept) == env_plans[name], (family, name)
        assert "# encodings:" not in env_plans[name]


def regen() -> None:
    import os

    for var in ENV_VARS:
        os.environ.pop(var, None)
    database = repro.tpch_database(sf=0.01)
    table = {
        spec: {name: digest(text)
               for name, text in plans(database, spec).items()}
        for spec in SPECS
    }
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    regen()
