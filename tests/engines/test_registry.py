"""Engine registry: spec grammar, canonicalization, registration,
override semantics, and the generated README engine table."""

import re

import numpy as np
import pytest

import repro
from repro.engines import (
    KNOBS,
    OFF_WORDS,
    EngineConfig,
    EngineFamily,
    EngineRegistry,
    EngineSpecError,
    default_registry,
    engine_table_markdown,
    knob_table_markdown,
)
from repro.morsel import DEFAULT_MORSEL_SIZE


class TestSpecGrammar:
    @pytest.mark.parametrize("text,canonical", [
        ("CPU", "CPU"),
        ("cpu", "CPU"),
        (" het ", "HET"),
        ("SHARD:4xHET", "SHARD:4xHET"),
        ("shard:4xhet", "SHARD:4xHET"),
        ("Shard:8xCpu", "SHARD:8xCPU"),
        ("SHARD:2xMS,hash", "SHARD:2xMS,hash"),
        ("shard:2xms,HASH", "SHARD:2xMS,hash"),
    ])
    def test_canonicalization(self, text, canonical):
        assert default_registry.parse(text).canonical == canonical

    def test_parse_fields(self):
        spec = default_registry.parse("shard:4xhet")
        assert spec.family == "SHARD"
        assert spec.count == 4
        assert spec.child == "HET"
        assert spec.flags == ()

    @pytest.mark.parametrize("bad", [
        "",                      # empty
        "   ",
        "TPU",                   # unknown family
        "CPU:2",                 # legacy family takes no parameters
        "CPU:4xGPU",             # replication arg on a simple family
        "SHARD:",                # empty parameter list
        "SHARD:hash",            # missing NxCHILD
        "SHARD:0xCPU",           # zero shards
        "SHARD:4xTPU",           # unknown child
        "SHARD:4xSHARD:2xCPU",   # nested composite child
        "SHARD:4xCPU,turbo",     # unknown flag
        "SHARD:4xCPU,hash,hash",  # duplicate flag
        "SHARD:4xCPU,2xMS",      # duplicate replication arg
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(EngineSpecError):
            default_registry.resolve(bad)

    def test_error_lists_registered_engines(self):
        with pytest.raises(EngineSpecError, match="SHARD:<N>x<CHILD>"):
            default_registry.parse("TPU")
        with pytest.raises(EngineSpecError, match="registered engines"):
            default_registry.parse("TPU")


class TestSpecParams:
    """NAME=VALUE parameters (PR 5): shard keys through the grammar."""

    def test_key_params_parse_and_canonicalise(self):
        spec = default_registry.parse(
            "shard:2xms,KEY=Orders.O_ORDERKEY,key=lineitem.l_orderkey"
        )
        assert spec.params == (
            ("key", "lineitem.l_orderkey"), ("key", "orders.o_orderkey"),
        )
        assert spec.canonical == (
            "SHARD:2xMS,key=lineitem.l_orderkey,key=orders.o_orderkey"
        )

    def test_param_order_does_not_split_the_engine(self):
        a = default_registry.parse(
            "SHARD:2xMS,key=orders.o_orderkey,key=lineitem.l_orderkey"
        )
        b = default_registry.parse(
            "SHARD:2xMS,key=lineitem.l_orderkey,key=orders.o_orderkey"
        )
        assert a.canonical == b.canonical

    def test_params_sort_with_flags(self):
        a = default_registry.parse("SHARD:2xMS,keys=infer,hash")
        b = default_registry.parse("SHARD:2xMS,hash,keys=infer")
        assert a.canonical == b.canonical == "SHARD:2xMS,hash,keys=infer"

    def test_param_values_accessor(self):
        spec = default_registry.parse(
            "SHARD:2xMS,key=a.x,key=b.y,join=broadcast"
        )
        assert spec.param_values("key") == ("a.x", "b.y")
        assert spec.param_values("join") == ("broadcast",)
        assert spec.param_values("nope") == ()

    def test_fusion_off_stays_a_flag(self):
        spec = default_registry.parse("SHARD:2xMS,fusion=off")
        assert "fusion=off" in spec.flags
        assert spec.params == ()

    @pytest.mark.parametrize("bad", [
        "SHARD:2xMS,key=",                # empty value
        "SHARD:2xMS,key=a.x,key=a.x",     # duplicate param
        "SHARD:2xMS,nope=1",              # unknown param name
        "CPU:key=a.x",                    # family without params
        "SHARD:2xMS,key=lineitem",        # not <table>.<column>
        "SHARD:2xMS,key=a.x,key=a.y",     # two keys for one table
        "SHARD:2xMS,keys=sideways",       # bad keys mode
        "SHARD:2xMS,keys=off,key=a.x",    # contradiction
        "SHARD:2xMS,join=zigzag",         # bad join strategy
    ])
    def test_bad_params_rejected(self, bad):
        with pytest.raises(EngineSpecError):
            default_registry.resolve(bad)

    def test_unknown_param_error_names_the_allowed_set(self):
        with pytest.raises(EngineSpecError, match="key=<value>"):
            default_registry.parse("SHARD:2xMS,nope=1")

    def test_conflicting_single_valued_params_rejected(self):
        for bad in ("SHARD:2xMS,keys=off,keys=infer",
                    "SHARD:2xMS,keys=infer,keys=off",
                    "SHARD:2xMS,join=auto,join=broadcast",
                    "SHARD:2xMS,join=broadcast,keys=infer"):
            with pytest.raises(EngineSpecError):
                default_registry.resolve(bad)

    def test_non_string_rejected(self):
        with pytest.raises(EngineSpecError):
            default_registry.parse(None)


#: per knob: the non-off words of its spec syntax with their values,
#: and malformed values — a knob added to the table needs a row here
KNOB_WORDS = {
    "fusion": ({}, ["on", "maybe"]),
    "morsel": ({"4096": 4096, "on": DEFAULT_MORSEL_SIZE},
               ["sideways", "-4", "2.5"]),
    "compression": ({"dict": "dict", "rle": "rle", "for": "for",
                     "auto": "auto", "on": "auto"}, ["zip", "lz4"]),
    "trace": ({"on": True, "1": True, "true": True, "yes": True},
              ["maybe", "always"]),
    "obs_slow_ms": ({"2.5": 2.5, "5": 5.0}, ["-1", "banana", "nan"]),
    "timeout": ({"2.5": 2.5, "1e6": 1e6}, ["-1", "zero", "never", "nan"]),
    "admission": ({"4": 4}, ["2.5", "-3", "lots"]),
}
FAMILY_SPECS = ("MS", "MP", "CPU", "GPU", "HET", "SHARD:2xMS")


def with_args(family: str, *args: str) -> str:
    return family + ("," if ":" in family else ":") + ",".join(args)


def a_setting(knob):
    """One ``(spec argument, value)`` that is not the knob's default."""
    for word, value in KNOB_WORDS[knob.name][0].items():
        if value != knob.default:
            return f"{knob.name}={word}", value
    return f"{knob.name}=off", knob.off


@pytest.mark.parametrize("knob", KNOBS.values(), ids=list(KNOBS))
class TestKnobTable:
    """The knob grammar, row by row over :data:`repro.engines.KNOBS`:
    every family accepts every knob the same way."""

    @pytest.fixture(autouse=True)
    def _no_env(self, monkeypatch):
        for other in KNOBS.values():   # the CI knob A/B job sets one
            if other.env:
                monkeypatch.delenv(other.env, raising=False)

    @pytest.mark.parametrize("family", FAMILY_SPECS)
    def test_default_when_absent(self, knob, family):
        config = default_registry.resolve(family)
        assert config.knobs[knob.name] == knob.default
        assert config.effective(knob.name) == knob.default

    @pytest.mark.parametrize("family", FAMILY_SPECS)
    def test_every_word_on_every_family(self, knob, family):
        words = {"off": knob.off, **KNOB_WORDS[knob.name][0]}
        for word, value in words.items():
            spec = with_args(family, f"{knob.name}={word}")
            assert default_registry.resolve(spec).knobs[knob.name] == value

    def test_every_off_word(self, knob):
        for word in OFF_WORDS:
            spec = f"MS:{knob.name}={word}"
            if knob.flag and f"{knob.name}={word}" != knob.flag:
                # a flag is one fixed word, so it cannot alias
                with pytest.raises(EngineSpecError, match=knob.flag):
                    default_registry.resolve(spec)
            else:
                config = default_registry.resolve(spec)
                assert config.knobs[knob.name] == knob.off

    def test_conflicting_pair_names_the_knob(self, knob):
        argument, _ = a_setting(knob)
        other = argument if knob.flag else f"{knob.name}=off"
        with pytest.raises(EngineSpecError, match=knob.name):
            default_registry.resolve(with_args("MS", argument, other))

    @pytest.mark.parametrize("family", ["MS", "SHARD:2xMS"])
    def test_malformed_value_lists_the_allowed_ones(self, knob, family):
        allowed = knob.flag or knob.values
        for word in KNOB_WORDS[knob.name][1]:
            with pytest.raises(EngineSpecError, match=re.escape(allowed)):
                default_registry.resolve(
                    with_args(family, f"{knob.name}={word}")
                )

    def test_env_beats_spec(self, knob, monkeypatch):
        if knob.env is None:
            return
        argument, value = a_setting(knob)
        config = default_registry.resolve(f"MS:{argument}")
        for word, forced in {"off": knob.off,
                             **KNOB_WORDS[knob.name][0]}.items():
            monkeypatch.setenv(knob.env, word.upper())
            assert config.effective(knob.name) == forced
            assert default_registry.resolve("MS").effective(
                knob.name) == forced
        # read per call: unset (or blank) falls back to the spec
        monkeypatch.setenv(knob.env, " ")
        assert config.effective(knob.name) == value
        monkeypatch.delenv(knob.env)
        assert config.effective(knob.name) == value

    def test_unrecognised_env_word_is_ignored(self, knob, monkeypatch):
        if knob.env is None:
            return
        argument, value = a_setting(knob)
        config = default_registry.resolve(f"MS:{argument}")
        for word in KNOB_WORDS[knob.name][1]:
            monkeypatch.setenv(knob.env, word)
            if knob.env_any_word_on:
                assert config.effective(knob.name) == knob.value_of("on")
            else:
                assert config.effective(knob.name) == value

    def test_in_plan_key_iff_part_of_plan_identity(self, knob):
        argument, _ = a_setting(knob)
        default = default_registry.resolve("MS")
        changed = default_registry.resolve(f"MS:{argument}")
        assert (changed.plan_key() != default.plan_key()) \
            == knob.plan_identity
        assert (default.with_knob_off(knob.name).plan_key()
                != default.plan_key()) \
            == (knob.plan_identity and knob.off != knob.default)


class TestKnobWiring:
    def test_every_row_has_test_words(self):
        assert set(KNOB_WORDS) == set(KNOBS)

    def test_plan_identity_is_fusion_morsel_compression(self):
        assert [k.name for k in KNOBS.values() if k.plan_identity] == [
            "fusion", "morsel", "compression"]
        assert default_registry.resolve("CPU:morsel=64").plan_key() == (
            True, 64, "auto")

    def test_knob_arguments_canonicalise_sorted(self):
        arguments = [a_setting(knob)[0] for knob in KNOBS.values()]
        a = default_registry.parse(with_args("MS", *arguments))
        b = default_registry.parse(
            with_args("ms", *reversed(arguments)).upper()
        )
        assert a.canonical == b.canonical == with_args(
            "MS", *sorted(arguments))

    def test_fusion_on_cannot_alias_the_default(self):
        with pytest.raises(EngineSpecError, match="unknown parameter"):
            default_registry.resolve("CPU:fusion=on")

    def test_serving_knobs_reach_the_scheduler(self):
        db = repro.Database()
        db.create_table("t", {"x": np.arange(16, dtype=np.int32)})
        con = db.connect("MS:admission=2,timeout=1e6")
        result = con.execute("SELECT sum(x) AS s FROM t")
        assert int(result.column("s")[0]) == 120
        assert con.scheduler.admission_limit == 2

    def test_observability_knobs_reach_the_tracer_and_the_log(self):
        db = repro.Database()
        db.create_table("t", {"x": np.arange(16, dtype=np.int32)})
        con = db.connect("MS:obs_slow_ms=0.000001,trace=on")
        result = con.execute("SELECT sum(x) AS s FROM t")
        assert int(result.column("s")[0]) == 120
        assert result.trace is not None
        assert result.trace.root().name == "query"
        assert len(con.metrics.slow_queries) == 1

    def test_ci_knob_matrix_covers_every_env_var(self):
        """The ``knob-ab`` CI job has one matrix row per environment
        override in the knob table (regex: no YAML dependency)."""
        from pathlib import Path

        ci = (Path(__file__).resolve().parents[2]
              / ".github" / "workflows" / "ci.yml").read_text()
        job = ci[ci.index("\n  knob-ab:"):]
        job = job[:re.search(r"\n  [\w-]+:\n", job[1:]).start() + 1]
        assert set(re.findall(r"REPRO_[A-Z]+", job)) == {
            knob.env for knob in KNOBS.values() if knob.env
        }


class TestRegistry:
    def _family(self, name, description="test engine"):
        def configure(spec, registry):
            return EngineConfig(
                label=name, make=lambda cat, scale: None,
                is_ocelot=False, description=description,
                spec=spec.canonical,
            )

        return EngineFamily(name=name, configure=configure,
                            description=description, syntax=name)

    def test_register_and_resolve(self):
        registry = EngineRegistry()
        registry.register(self._family("TOY"))
        config = registry.resolve("toy")
        assert config.spec == "TOY"
        assert config.description == "test engine"

    def test_duplicate_registration_rejected(self):
        registry = EngineRegistry()
        registry.register(self._family("TOY"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(self._family("TOY"))

    def test_override_replaces_and_invalidates(self):
        registry = EngineRegistry()
        registry.register(self._family("TOY", "v1"))
        first = registry.resolve("TOY")
        registry.register(self._family("TOY", "v2"), override=True)
        second = registry.resolve("TOY")
        assert first.description == "v1"
        assert second.description == "v2"

    def test_configs_memoised_per_canonical_spec(self):
        registry = EngineRegistry()
        registry.register(self._family("TOY"))
        assert registry.resolve("TOY") is registry.resolve("toy")

    def test_all_legacy_labels_connect_through_registry(self):
        db = repro.Database()
        db.create_table("t", {"x": np.arange(8, dtype=np.int32)})
        for label in ("MS", "MP", "CPU", "GPU", "HET"):
            con = db.connect(label)
            assert con.engine == label
            result = con.execute("SELECT count(*) AS n FROM t")
            assert int(result.column("n")[0]) == 8

    def test_connection_cached_per_canonical_spec(self):
        db = repro.Database()
        db.create_table("t", {"x": np.arange(300, dtype=np.int32)})
        a = db.connect("SHARD:2xMS")
        b = db.connect("shard:2xms")
        assert a is b

    def test_repro_engines_listing(self):
        names = [family.name for family in repro.engines()]
        for expected in ("MS", "MP", "CPU", "GPU", "HET", "SHARD"):
            assert expected in names


class TestReplicaGrammar:
    def test_colon_and_comma_separators_are_interchangeable(self):
        a = default_registry.parse("SHARD:4xCPU:replicas=2")
        b = default_registry.parse("SHARD:4xCPU,replicas=2")
        assert a.canonical == b.canonical == "SHARD:4xCPU,replicas=2"
        mixed = default_registry.parse("shard:4xcpu:replicas=2,hash")
        assert mixed.canonical == "SHARD:4xCPU,hash,replicas=2"

    def test_replicas_connects_and_defaults_to_one(self):
        import numpy as np

        db = repro.Database()
        db.create_table("t", {"v": np.arange(600, dtype=np.int64)})
        assert db.connect("SHARD:2xMS").backend.replicas == 1
        replicated = db.connect("SHARD:2xMS,replicas=2")
        assert replicated.backend.replicas == 2
        result = replicated.execute("SELECT sum(v) AS s FROM t")
        assert int(result.column("s")[0]) == 600 * 599 // 2

    @pytest.mark.parametrize("bad", [
        "SHARD:4xCPU,replicas=0",
        "SHARD:4xCPU,replicas=-1",
        "SHARD:4xCPU,replicas=two",
        "SHARD:4xCPU,replicas=",
        "SHARD:4xCPU,replicas=5",     # more copies than nodes
        "SHARD:4xCPU,replicas=2,replicas=3",
        "CPU:replicas=2",             # single-node engines have no copies
    ])
    def test_bad_replicas_rejected(self, bad):
        with pytest.raises(EngineSpecError):
            default_registry.resolve(bad)

    def test_replicas_error_message_names_declustering(self):
        with pytest.raises(EngineSpecError, match="chained declustering"):
            default_registry.resolve("SHARD:2xCPU,replicas=3")


class TestGeneratedDocs:
    def test_engine_table_contains_every_family(self):
        table = engine_table_markdown()
        for family in repro.engines():
            assert (family.syntax or family.name) in table

    def test_readme_engine_table_matches_registry(self):
        """The README's engine table is generated — regenerate with
        ``PYTHONPATH=src python -m repro.engines`` after registry
        changes."""
        from pathlib import Path

        readme = Path(__file__).resolve().parents[2] / "README.md"
        content = readme.read_text()
        assert engine_table_markdown() in content
        # the flag column advertises the serving parameters everywhere
        assert "`morsel=…`" in engine_table_markdown()
        assert "`timeout=…`" in engine_table_markdown()
        assert "`admission=…`" in engine_table_markdown()
        assert "`compression=…`" in engine_table_markdown()
        assert "`trace=…`" in engine_table_markdown()
        assert "`obs_slow_ms=…`" in engine_table_markdown()

    def test_readme_knob_table_matches_the_knob_table(self):
        """Generated like the engine table, by the same command."""
        from pathlib import Path

        readme = Path(__file__).resolve().parents[2] / "README.md"
        assert knob_table_markdown() in readme.read_text()
        for knob in KNOBS.values():
            assert f"`{knob.syntax}`" in knob_table_markdown()

    def test_elastic_cluster_docs_resolve(self):
        """The elastic-cluster feature (PR 10) is documented where the
        module docstrings point: ARCHITECTURE's "Elastic cluster"
        section exists and the README's generated table carries the
        ``replicas=`` grammar."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        architecture = (root / "ARCHITECTURE.md").read_text()
        assert "Elastic cluster" in architecture
        assert "chained declustering" in architecture
        assert "add_shard" in architecture
        readme = (root / "README.md").read_text()
        assert "replicas=<r>" in readme
        assert "replicas=<r>" in engine_table_markdown()

    def test_readme_references_resolve(self):
        """The README points at ARCHITECTURE.md sections by name; the
        sections must exist (and vice versa for the morsel switch)."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        architecture = (root / "ARCHITECTURE.md").read_text()
        assert "Morsel-driven execution" in architecture
        assert "Front door" in architecture
        assert "Compressed execution" in architecture
        readme = (root / "README.md").read_text()
        assert "Morsel-driven" in readme
        assert "REPRO_MORSEL" in readme
        assert "Front door" in readme
        assert "Compressed execution" in readme
        assert "REPRO_COMPRESSION" in readme
        assert "Observability" in architecture
        assert "EXPLAIN ANALYZE" in architecture
        assert "REPRO_TRACE" in readme
        assert "Plan pipeline" in architecture
