"""``repro.shard`` — the sharded multi-node engine (``SHARD:<N>x<CHILD>``).

ROADMAP's multi-backend sharding item: partition *tables* (not just
operators) across N simulated nodes.  The package composes over the
engine registry rather than special-casing anything:

* :class:`~repro.shard.partition.ShardPartitioner` keeps one catalog
  per shard in sync with the parent database — large tables range- (or
  hash-) partitioned, small ones replicated — and re-syncs on DDL,
  bumping every child's schema version.
* :class:`~repro.shard.backend.ShardedBackend` implements the formal
  Backend protocol by fanning each MAL instruction across N *child
  backends* of any registered family and merging aggregate partials
  mat.pack-style (scalar folds, key-aligned grouped folds, exact
  (sum, count) averages), with eager merge + re-broadcast at
  post-aggregation consumption points and broadcast joins / driver
  gathers where an operator needs global context.

Since PR 5 the backend is **shard-key-aware**: tables can declare a
shard key (catalog-level via ``Database.declare_shard_key``, spec-level
via ``key=<table>.<column>`` parameters, or inferred from observed join
columns under ``keys=infer``), rows are then placed by key value, and
the join planner runs key-aligned equi-joins entirely shard-local —
zero driver traffic — with a hash-shuffle re-partition
of the join keys covering the unaligned cases and the
broadcast-gather kept as the ``join=broadcast`` baseline.

Registered as the ``SHARD`` engine family::

    con = db.connect("SHARD:4xHET")    # 4 nodes, each running HET
    con = db.connect("SHARD:8xCPU")    # 8 single-device nodes
    con = db.connect("SHARD:4xCPU,hash")   # round-robin row placement
    con = db.connect(                  # co-partition on the order key
        "SHARD:4xMS,key=lineitem.l_orderkey,key=orders.o_orderkey"
    )
    con = db.connect("SHARD:4xMS,keys=infer")     # adopt observed keys
    con = db.connect("SHARD:4xMS,join=broadcast")  # PR-3 baseline
    con = db.connect("SHARD:4xCPU:replicas=2")    # 2 copies per range

The spec's child component is resolved through the same registry, so
anything registered with :func:`repro.register_engine` — including
other composites-to-be — can serve as the per-node engine.

The cluster is **elastic** (ARCHITECTURE.md "Elastic cluster"): every
node keeps its id, catalogs, children and breaker while it is a member,
and a layout is a roster of node ids
(:class:`~repro.shard.topology.ShardTopology`).  ``replicas=<r>`` keeps
every key range on r chained-declustered copies — reads rotate across
healthy copies, a breaker trip promotes a replica *without
re-partitioning*.  Excluding a tripped ``replicas=1`` node, its rejoin,
and ``Database.add_shard()`` / ``remove_shard()`` all queue a new
roster, installed with one in-place re-sync at the next query boundary
with nothing in flight; in-flight ``submit()`` batches drain against
the installed layout.
"""

from __future__ import annotations

from ..engines import (
    EngineConfig,
    EngineFamily,
    EngineSpec,
    EngineSpecError,
    register_engine,
)
from .backend import (
    InterconnectTraffic,
    ShardTraffic,
    ShardedBackend,
    ShardedValue,
)
from .partition import (
    DEFAULT_MIN_PARTITION_ROWS,
    ShardPartitioner,
    default_key_domain,
)

__all__ = [
    "DEFAULT_MIN_PARTITION_ROWS",
    "InterconnectTraffic",
    "ShardPartitioner",
    "ShardTraffic",
    "ShardedBackend",
    "ShardedValue",
    "default_key_domain",
]


def _parse_spec_keys(spec: EngineSpec) -> "dict[str, str]":
    """``key=<table>.<column>`` params -> {table: column}."""
    shard_keys: dict[str, str] = {}
    for value in spec.param_values("key"):
        table, dot, column = value.partition(".")
        if not dot or not table or not column:
            raise EngineSpecError(
                f"engine spec {spec.canonical!r}: key={value!r} must "
                f"name a column as <table>.<column>"
            )
        if shard_keys.get(table, column) != column:
            raise EngineSpecError(
                f"engine spec {spec.canonical!r}: table {table!r} "
                f"declares two shard keys"
            )
        shard_keys[table] = column
    return shard_keys


def _configure(spec: EngineSpec, registry) -> EngineConfig:
    if spec.count is None or spec.child is None:
        raise EngineSpecError(
            "the SHARD family requires an <N>x<CHILD> argument, "
            "e.g. SHARD:4xHET or SHARD:8xCPU"
        )
    child = registry.resolve(spec.child)
    mode = "hash" if "hash" in spec.flags else "range"
    n_shards = spec.count
    shard_keys = _parse_spec_keys(spec)

    def single_param(name: str, default: str) -> str:
        values = spec.param_values(name)
        if len(values) > 1:
            raise EngineSpecError(
                f"engine spec {spec.canonical!r}: conflicting "
                f"{name}= values {', '.join(values)}"
            )
        return values[0] if values else default

    keys_mode = single_param("keys", "declared")
    if keys_mode not in ("declared", "infer", "off"):
        raise EngineSpecError(
            f"engine spec {spec.canonical!r}: keys= must be 'infer' or "
            f"'off' (declared keys are honoured by default)"
        )
    if keys_mode == "off" and shard_keys:
        raise EngineSpecError(
            f"engine spec {spec.canonical!r}: keys=off contradicts "
            f"the spec's key= declarations"
        )
    join = single_param("join", "auto")
    if join not in ("auto", "broadcast"):
        raise EngineSpecError(
            f"engine spec {spec.canonical!r}: join= must be "
            f"'broadcast' (the planner is the default)"
        )
    if join == "broadcast" and keys_mode == "infer":
        raise EngineSpecError(
            f"engine spec {spec.canonical!r}: keys=infer is pointless "
            f"under join=broadcast (inferred keys could never be used)"
        )
    replicas_text = single_param("replicas", "1")
    if not replicas_text.isdigit() or int(replicas_text) < 1:
        raise EngineSpecError(
            f"engine spec {spec.canonical!r}: replicas= must be a "
            f"positive integer (got {replicas_text!r})"
        )
    replicas = int(replicas_text)
    if replicas > n_shards:
        raise EngineSpecError(
            f"engine spec {spec.canonical!r}: replicas={replicas} "
            f"exceeds the node count {n_shards} (chained declustering "
            f"places each copy on a distinct node)"
        )

    def make(catalog, data_scale):
        return ShardedBackend(
            catalog, child, n_shards, data_scale=data_scale,
            mode=mode, label=spec.canonical,
            shard_keys=shard_keys,
            use_declared_keys=keys_mode != "off",
            infer_keys=keys_mode == "infer",
            join_strategy=join,
            replicas=replicas,
        )

    return EngineConfig(
        label=spec.canonical,
        make=make,
        is_ocelot=child.is_ocelot,
        description=(
            f"{n_shards} simulated nodes each running {child.label}, "
            f"tables {mode}-partitioned, mat.pack-style merges"
        ),
    )


register_engine(EngineFamily(
    name="SHARD",
    configure=_configure,
    description=(
        "N-node sharded execution over any registered child engine: "
        "tables partitioned per node (by declared/inferred shard keys "
        "when given), key-aligned joins shard-local, hash-shuffle "
        "re-partition otherwise, aggregate partials merged "
        "mat.pack-style on the driver; replicas=<r> keeps each key "
        "range on r chained-declustered copies for load-balanced "
        "reads and re-partition-free failover"
    ),
    syntax=(
        "SHARD:<N>x<CHILD>[,hash][,key=<t>.<c>][,keys=infer|off]"
        "[,join=broadcast][,replicas=<r>]"
    ),
    takes_child=True,
    # range partitioning is the default and deliberately NOT a flag:
    # "SHARD:2xCPU,range" aliasing "SHARD:2xCPU" would split the plan
    # cache and the connection cache over one identical engine
    allowed_flags=frozenset({"hash"}),
    allowed_params=frozenset({"key", "keys", "join", "replicas"}),
))
