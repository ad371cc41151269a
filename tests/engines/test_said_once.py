"""Partition, run the unmodified operator, merge — said once.

The four executors that cut a column and merge partials (work-groups,
devices, morsels, shards) had each re-derived the merge rules, and the
copies drifted into wrong answers (``±inf`` groups, mixed-width group
keys).  The rules now live in ``repro.monetdb.partials`` over
``repro.kernels.fold_identity``; these checks keep a fifth copy from
growing back.
"""

import ast
import functools
import re
from pathlib import Path

from repro.monetdb.ops import OPS
from repro.shard.backend import ShardedValue

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: the one module that aligns partition-local groups and folds tables
MERGER = "monetdb/partials.py"
#: where the fold identity is defined
IDENTITY = "kernels/primitives.py"
#: the executors: they call the merger, they do not merge
EXECUTORS = ("sched/partition.py", "morsel/run.py", "shard/backend.py")


@functools.cache
def sources() -> dict:
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


def hits(pattern: str, flags=re.MULTILINE) -> list:
    """``file:line`` of every match of ``pattern`` under ``src/repro``."""
    compiled = re.compile(pattern, flags)
    return [
        f"{name}:{text.count(chr(10), 0, match.start()) + 1}"
        for name, text in sources().items()
        for match in compiled.finditer(text)
    ]


def files_of(found: list) -> set:
    return {hit.rsplit(":", 1)[0] for hit in found}


def test_one_fold_identity_and_one_slicer():
    # module level: ``EncodedBAT.slice_rows`` is the codec-domain cut the
    # one slicer delegates to
    for name, home in (("fold_identity", IDENTITY), ("slice_rows", MERGER)):
        found = hits(rf"^def {name}\(")
        assert len(found) == 1 and files_of(found) == {home}, found
    # both slice caches are lookups around it
    for name in ("monetdb/interpreter.py", "sched/pool.py"):
        assert sources()[name].count("slice_rows(bat, lo, hi)") == 1, name
        assert 'getattr(bat, "slice_rows"' not in sources()[name], name


def test_no_second_spelling_of_the_identity():
    """A dtype's extreme as a ``min`` / ``max`` starting value is what
    ``fold_identity`` is for: no ``np.finfo`` or ``np.inf`` elsewhere
    (floats), and ``np.iinfo`` only where codecs size their payloads."""
    assert files_of(hits(r"np\.finfo\(|np\.inf\b")) == {IDENTITY}
    allowed = {IDENTITY, "compress/codecs.py", "compress/ops.py"}
    assert files_of(hits(r"np\.iinfo\(")) <= allowed
    # ... and in that file, only inside the function itself
    before, rest = sources()[IDENTITY].split("def fold_identity(")
    after = rest.split("\n\n\n", 1)[1]
    assert not re.search(r"np\.(finfo|iinfo)\(|np\.inf\b", before + after)


def test_group_alignment_and_table_folds_live_in_the_merger():
    scatter = hits(r"np\.(add|minimum|maximum)\.at\(")
    matrix_unique = hits(r"np\.unique\([^()]*(\([^()]*\)[^()]*)*axis=0",
                         re.DOTALL)
    lexsort = hits(r"np\.lexsort\(")
    assert scatter == [] and matrix_unique == []
    assert files_of(lexsort) == {MERGER}


def test_a_merge_is_host_arithmetic_over_one_host_read():
    """Morsel and SHARD align partition-local groups with one
    ``partials.merge_groups`` — no executor replays a grouping through
    the backend — and read a partial on the host through one
    ``partials.host_array``; the other sync is mixed execution's own
    (a device split syncs per device on that device's queue)."""
    gone = hits(r"distinct_rows|morsel_gkeys|\b_host_values\b|"
                r"_sync_to_host|_shuffle_op|replay produced|"
                r"_value_array|name=\"scatter\"")
    assert gone == [], gone
    assert files_of(hits(r"def _to_host\(")) == {"sched/partition.py"}
    syncs = hits(r"resolve\(\"ocelot\.sync\"\)")
    assert files_of(syncs) == {MERGER, "ocelot/engine.py"}, syncs
    for name in ("morsel/run.py", "shard/backend.py"):
        assert "merge_groups(" in sources()[name], name
    assert '"members"' not in sources()["morsel/run.py"]


def test_executors_never_test_for_avg():
    """``avg`` is split into its (sum, count) pair by
    ``partials.components`` and finished by ``partials.finish_avg``;
    an executor that compares against ``"avg"`` is merging by hand."""
    found = [hit for hit in hits(r"""[!=]=\s*["']avg["']""")
             if hit.rsplit(":", 1)[0] in EXECUTORS]
    assert found == []
    for name in EXECUTORS:
        assert "components(" in sources()[name], name


def test_a_sharded_value_has_one_row_space_field():
    slots = set(ShardedValue.__slots__)
    assert "space" in slots
    assert not slots & {"global_oids", "remote_oids", "repl_space",
                        "base_rows"}
    assert len(slots) <= 12


# -- one driver: a compiled plan becomes a result one way --------------------

def docstring_line(hit: str) -> bool:
    """Whether ``file:line`` is prose: inside a docstring or a comment."""
    name, line = hit.rsplit(":", 1)
    text = sources()[name].splitlines()
    if text[int(line) - 1].lstrip().startswith("#"):
        return True
    quotes = sum(row.count('"""') for row in text[:int(line) - 1])
    return quotes % 2 == 1 or '"""' in text[int(line) - 1]


def test_one_driver_opens_runs_and_prices_a_plan():
    """``execute`` / ``submit`` / ``run_plan`` / ``explain(analyze=True)``
    are flights of the session scheduler; ``run_program`` is the same
    open → step → close sequence without a connection, for the bench
    harness and tests.  Nothing else may turn a plan into a result."""
    calls = [hit for hit in hits(r"(?<!def )\brun_program\(")
             if not docstring_line(hit)]
    assert files_of(calls) == {"bench/harness.py"}, calls
    built = hits(r"(?<![\w`])ProgramRun\(")
    assert files_of(built) == {"monetdb/interpreter.py",
                               "serve/session.py"}, built
    # whoever steps a flight opened its session: the engine's clock is
    # not restarted from the serving tier
    begun = [hit for hit in hits(r"backend\.begin\(\)")
             if hit.startswith(("api.py", "serve/"))]
    assert begun == []


def test_the_scheduler_has_one_path_and_typed_flights():
    """No second (whole-query) path for engines whose sessions cannot
    overlap — the timeline says so and the scheduler admits one flight
    at a time — and a flight's state is fields, not a string-keyed dict."""
    scheduler = sources()["serve/session.py"]
    assert not re.search(r"pipelined|fifo|\.extra\[|\.extra\.get\(",
                         scheduler, re.IGNORECASE)
    assert len(re.findall(r"^    def _step\(", scheduler, re.M)) == 1
    assert len(re.findall(r"^    def _complete\(", scheduler, re.M)) == 1


def test_one_retry_budget():
    assert hits(r"MAX_TRANSIENT_RETRIES|sessions\.arm\(|\b_armed\b") == []


def test_a_plan_holds_no_placement():
    """HET places every dispatch from the operands and residency in
    front of it: no decision trace is recorded, cached, handed to a
    session, replayed or counted."""
    gone = hits(r"next_replayed|replay_pos|\.placements\b|placement_reuses|"
                r"sessions\.trace\(|replay=")
    assert gone == [], gone


def test_a_statement_is_served_one_way():
    """Constant arithmetic binds as parameters, so the plan cache keeps
    no literal-text fork: no negative cache, no bind-failure fallback,
    no second key beside the template."""
    gone = hits(r"_no_param|_literal_only|ParamBindError|sql_cache_key")
    assert gone == [], gone


# -- a plan does not know the cluster ----------------------------------------

def test_nothing_about_a_layout_is_recorded_replayed_or_stamped():
    """SHARD decides each join from the layout in front of it, so there
    is no strategy trace to validate, no catalog-wide epoch, no roster
    observer, no key-domain stamping — and the runtime decides who runs
    a ``morsel.run`` region whole, not a backend hook."""
    gone = hits(r"bump_version|catalog\.epoch|entry\.epoch|on_change|"
                r"_join_valid|morsel_runner|_key_domain_members")
    assert gone == [], gone
    assert hits(r"\bwhole=") == []


def test_a_layout_changes_one_way():
    """Exclusion, rejoin and resize all install a roster of physical
    node ids: no active set beside it, no staged second partitioner
    migrated a few tables at a time, no renumbered roster, and one grid
    holds a node's children."""
    gone = hits(r"\bset_active\b|\bn_active\b|partitioner\.active\b|"
                r"begin_migration|migrate_step|migration_done|"
                r"_pending_tables|min_partition_rows_raw|\beager=|"
                r"_advance_resize|_commit_resize|MIGRATE_TABLES_PER_BOUNDARY|"
                r"\.staged\b|\breseed\b|all_children|_swap_child")
    assert gone == [], gone
    installed = hits(r"partitioner\.roster = ")
    assert files_of(installed) == {"shard/topology.py"}, installed


# -- one operator table: an operator's facts are declared once ---------------

#: where operator names may be spelled as a collection: the table, and
#: the per-backend *implementation* registries a contract test holds
#: equal to it (``tests/engines/test_operator_table.py``)
OPERATOR_TABLE = "monetdb/ops.py"
IMPLEMENTATIONS = {
    "ocelot/operators.py",      # HOST_CODE
    "monetdb/backends.py",      # MonetDBBackend._register_ops
    "compress/ops.py",          # register_compress_ops
    "sched/costs.py",           # shape_of
}
#: layers where the same words name something else: SQL keywords and
#: the lowerer's emit tables above MAL; numpy bodies, kernel op codes
#: and generated-kernel symbols below it
OTHER_VOCABULARIES = ("sql/", "kernels/", "monetdb/calc.py", "fuse/expr.py",
                      "fuse/codegen.py")
#: fold kinds are partials' own vocabulary, not operator names
FOLDS = {"sum", "min", "max"}


def spelled_operator_lists() -> list:
    """``file:line`` of every set / tuple / list / dict literal under
    ``src/repro`` that spells three or more operator function names
    (bare or module-qualified)."""
    found = []
    for name, text in sources().items():
        if name == OPERATOR_TABLE or name in IMPLEMENTATIONS \
                or name.startswith(OTHER_VOCABULARIES):
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = [key for key in node.keys if key is not None]
            else:
                continue
            names = {
                item.value.rsplit(".", 1)[-1] for item in items
                if isinstance(item, ast.Constant)
                and isinstance(item.value, str)
            } & set(OPS)
            if len(names) >= 3 and not names <= FOLDS:
                found.append(f"{name}:{node.lineno}: {sorted(names)}")
    return found


def test_no_second_operator_vocabulary():
    assert spelled_operator_lists() == []
    gone = hits(r"OCELOT_MAP = \{|_COMPRESS_RESULT_KINDS|BAT_RESULTS = \{|"
                r"_SCALAR_AGGS|_GROUPED_AGGS|_SCALAR_AGG_FNS|_GROUP_AGG_FNS|"
                r"_OIDCOMBINE_OPS|_PIPE_OPS|_PROJECTION_OPS|_AGG_MODULES|"
                r"FUSABLE_CALC|PARTITIONABLE_FUNCTIONS")
    assert gone == []


def test_aggregates_are_not_parsed_out_of_their_names():
    """``subavg`` is ``avg`` over groups because its row says so — not
    because of how it is spelled."""
    surgery = hits(r"""(endswith|startswith|removeprefix|removesuffix)"""
                   r"""\(["'](sub|avg|sum|count)["']\)"""
                   r"""|function\[3:\]|fn\[:-3\]|stem \+""")
    assert surgery == []


def test_shard_dispatches_by_class_without_aliased_handlers():
    shard = sources()["shard/backend.py"]
    assert not re.search(r"^    _\w+ = _\w+$", shard, re.M)
    assert "_op_" not in shard


def test_the_rewriter_has_one_retarget_branch():
    rewriter = sources()["ocelot/rewriter.py"]
    body = rewriter.split("def rewrite_for_ocelot(")[1]
    assert body.count("MALInstruction(") == 3   # sync, retarget, stays
    assert body.count("ocelot_owned.add(") == 1


def test_the_bench_harness_is_a_leaf():
    """The engine registry fills itself; nothing in ``repro`` imports
    the figure harness."""
    importers = [hit for hit in hits(r"^\s*(from|import) [\w.]*\bbench\b")
                 if not hit.startswith("bench/")]
    assert importers == []
