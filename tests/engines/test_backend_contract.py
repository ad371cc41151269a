"""The ``Backend`` contract is implementable, closed, and feeds metrics.

(a) a toy engine that implements only the three abstract members plugs
into every public entry point — the example ARCHITECTURE.md shows under
"Writing an engine"; (b) the names ``Backend`` defines are exactly the
rows of ARCHITECTURE.md's protocol tables, so a new hook needs a doc
row; (c) ``Connection.metrics.snapshot()`` keeps the key sets captured
at the commit before ``counters()`` replaced the per-stat accessors.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engines import EngineConfig, EngineFamily, default_registry
from repro.monetdb.backends import MonetDBSequential
from repro.monetdb.interpreter import Backend
from repro.serve import CircuitOpen, FaultyBackend
from repro.serve.faults import TransientFault
from repro.tpch import WORKLOAD

ROOT = Path(__file__).resolve().parents[2]
QUERY = "SELECT x, sum(y) AS s FROM points GROUP BY x"


# -- (a) the toy engine: keep in step with ARCHITECTURE.md ------------------

class ToyBackend(Backend):
    """The sequential MonetDB operator set behind a new label."""

    label = "TOY"

    def __init__(self, catalog):
        self.inner = MonetDBSequential(catalog)
        super().__init__(catalog)

    def _register_ops(self):
        for op in self.inner.supported_ops():
            self.register(op, self.inner.resolve(op))

    def begin(self):
        self.inner.begin()

    def elapsed(self):
        return self.inner.elapsed()


TOY = EngineFamily(
    name="TOY",
    configure=lambda spec, registry: EngineConfig(
        label="TOY", is_ocelot=False,
        make=lambda catalog, data_scale: ToyBackend(catalog),
    ),
    description="contract-test engine", syntax="TOY",
)


@pytest.fixture
def toy_registered():
    repro.register_engine(TOY)
    yield
    del default_registry._families["TOY"]
    default_registry._configs.clear()


@pytest.fixture
def points_db():
    rng = np.random.default_rng(23)
    with repro.Database() as db:
        db.create_table("points", {
            "x": rng.integers(0, 8, 4000).astype(np.int32),
            "y": rng.random(4000).astype(np.float32),
        })
        yield db


def assert_same(expected, got):
    assert list(got.columns) == list(expected.columns)
    for name in expected.columns:
        np.testing.assert_allclose(got.columns[name],
                                   expected.columns[name], rtol=1e-6)


class TestToyEngine:
    def test_every_entry_point(self, toy_registered, points_db):
        expected = points_db.connect("MS").execute(QUERY)
        con = points_db.connect("toy")
        assert con.engine == "TOY"
        assert con.backend.cluster is None
        # the timeline it got without writing a line: serial
        assert not con.backend.sessions.timeline.overlaps
        assert_same(expected, con.execute(QUERY))
        assert_same(expected, con.submit(QUERY).result())
        assert "aggr.subsum" in con.explain(QUERY)
        snap = con.metrics.snapshot()
        assert snap["obs.queries"] == 2
        plan = con.plan_cache.prepare(QUERY, con.config, points_db.schema)[1]
        # both doors step the same flight: one turn per instruction
        assert snap["scheduler.turns"] == 2 * len(plan.instructions)
        assert "compress.decode_events" in snap
        assert not any(key.startswith(("mm.", "cluster.", "interconnect."))
                       for key in snap)

    def test_ddl_and_resize_pass_it_by(self, toy_registered, points_db):
        con = points_db.connect("TOY")
        con.execute(QUERY)
        points_db.create_table("more", {"z": np.arange(8, dtype=np.int32)})
        total = con.execute("SELECT sum(z) AS s FROM more")
        assert int(total.column("s")[0]) == 28
        with pytest.raises(RuntimeError, match="no live sharded"):
            points_db.add_shard()
        shard = points_db.connect("SHARD:2xTOY")
        expected = con.execute(QUERY)
        points_db.add_shard()                         # ignores TOY itself
        assert shard.backend.cluster.nodes == 3
        assert_same(expected, shard.execute(QUERY))

    def test_transient_fault_retry_trip_refuse(self, toy_registered,
                                               points_db):
        con = points_db.connect("TOY")
        expected = con.execute(QUERY)
        con.backend = FaultyBackend(con.backend, {
            1: TransientFault("blip"),
            **{k: TransientFault("down") for k in range(20, 23)},
        })
        con._scheduler = None
        assert_same(expected, con.execute(QUERY))     # one retry, unseen
        assert len(con.backend.injected) == 1
        con.backend.ops_seen = 19
        with pytest.raises(TransientFault):
            con.execute(QUERY)                        # three in a row
        assert con.metrics.snapshot()["breaker.self.state"] == "open"
        with pytest.raises(CircuitOpen):
            con.execute(QUERY)
        refused = con.submit(QUERY)
        assert isinstance(refused.exception(), CircuitOpen)


# -- (b) the protocol is closed over its documentation -----------------------

def documented_names() -> set:
    """First-column names of the tables between the protocol markers."""
    text = (ROOT / "ARCHITECTURE.md").read_text()
    section = text.split("<!-- backend-protocol:begin -->")[1]
    section = section.split("<!-- backend-protocol:end -->")[0]
    return set(re.findall(r"^\| `(\w+)", section, flags=re.MULTILINE))


def test_backend_names_equal_the_documented_protocol():
    defined = {
        name for name in vars(Backend)
        if not name.startswith(("__", "_abc_"))
    }
    # attributes Backend.__init__ sets on every instance
    instance = set(vars(ToyBackend(repro.Database().catalog)))
    defined |= {name for name in instance - {"inner"}
                if not name.startswith("_")}
    assert defined == documented_names()
    methods = [name for name in defined
               if callable(getattr(Backend, name, None))]
    assert len(methods) <= 20


def test_no_defaulted_probes_on_configs_or_backends():
    """``getattr(x.config, "name", default)`` hid a removed config field
    for a whole PR (``submit()`` lost ``trace=on``), and
    ``hasattr(x.backend, ...)`` is how a capability gets probed instead
    of declared: neither may come back.  Nor may ``getattr(self,
    "_private", default)`` — state an object owns is created in its
    ``__init__`` (``Backend._slice_cache`` was probed for twice)."""
    probes = re.compile(
        r"""getattr\(\s*[\w.]+\.config\s*,\s*["']\w+["']\s*,"""
        r"""|hasattr\(\s*[\w.]+\.backend\s*,"""
        r"""|getattr\(\s*self\s*,\s*["']_\w+["']\s*,"""
    )
    found = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if probes.search(line)
    ]
    assert not found, "\n".join(found)


# -- (c) the metrics key sets did not move ----------------------------------

@pytest.mark.parametrize("spec", ("MS", "HET", "SHARD:2xCPU:replicas=2"))
def test_snapshot_key_set_matches_parent_commit(spec):
    golden = json.loads(
        Path(__file__).with_name("snapshot_keys.json").read_text()
    )
    with repro.tpch_database(sf=0.01) as db:
        con = db.connect(spec)
        con.execute(WORKLOAD["Q6"], name="Q6")
        con.submit(WORKLOAD["Q6"], name="Q6").result()
        assert sorted(con.metrics.snapshot()) == golden[spec]
