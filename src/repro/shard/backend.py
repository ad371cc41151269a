"""The sharded multi-node engine: N child backends + mat.pack merges.

``ShardedBackend`` is the engine registry's first *composable* client:
it implements the same formal :class:`~repro.monetdb.interpreter
.Backend` protocol as every single-node engine, but owns **N child
backends** (any registered family — MS, CPU, HET, ...), each bound to
its own shard catalog (:mod:`repro.shard.partition`).  The *same*
rewritten MAL program is interpreted once; every instruction fans out to
all shards through the children's own operator registries, so each shard
executes exactly the per-node plan a single-node engine would — the
paper's hardware-obliviousness lifted one level: the plan is also
*topology*-oblivious.

Values flowing through the interpreter are :class:`ShardedValue`
wrappers holding one part per shard plus merge provenance:

* values derived from **replicated** tables are identical on every
  shard — the merge takes shard 0's copy;
* row-space values from **partitioned** tables concatenate in shard
  order (with range partitioning that *is* the global base order);
* **aggregate partials** carry a fold tag: scalar aggregates fold on
  the driver; grouped aggregates are aligned **by group key** across
  shards (shard-local dense group ids are translated through each
  shard's key table) and folded mat.pack-style by the merge rules every
  partitioned executor shares (:mod:`repro.monetdb.partials`);
* a partial consumed by a *later* operator (``HAVING`` over grouped
  sums, ``ORDER BY`` over aggregates, scalar arithmetic on a ``sum``)
  is **merged eagerly at that point** and re-broadcast to every shard —
  the scatter/gather boundary of a real cluster plan — after which the
  post-aggregation tail of the query runs identically everywhere.

Operators that fundamentally need global context — ``sort`` over a
partitioned row space — gather the needed side to the driver and
broadcast it.  A join whose *both* sides are partitioned goes through a
**join planner** that picks the cheapest correct strategy:

* **co-located** — both key columns are the declared (or inferred)
  shard keys of their base tables in one key domain
  (:class:`~repro.shard.partition.ShardPartitioner`), so every matching
  pair already lives on one shard: the join fans out shard-local with
  *zero* driver traffic;
* **shuffle** — the join hash-re-partitions the
  *smaller* side's (key, oid) pairs shard-to-shard (to the keyed side's
  placement when one side is key-aligned, by value hash on both sides
  otherwise); later projections through the shuffled side's positions
  fetch only the rows a shard actually needs, instead of broadcasting
  whole columns;
* **broadcast** — the PR-3 fallback (and the ``join=broadcast``
  baseline): gather the build side to the driver and re-broadcast it
  to every shard.

The strategy is decided when the join runs, from the operands and the
live partitioner — the plan carries nothing about the layout, so a
cached plan stays valid across key declarations, failovers and resizes.
Each site's choice is logged in the query's ``decision_log`` and shown
by ``explain(analyze=True)``.  Under ``keys=infer`` a join that could
not co-locate queues its columns as shard keys, adopted at the next
quiet query boundary like every other layout change
(:mod:`repro.shard.topology`).

Gathers, shuffles and merges charge simulated interconnect + driver
time and are counted per byte moved in :class:`InterconnectTraffic`
(``interconnect.*`` in ``Connection.metrics``); ``elapsed`` is the
slowest shard's clock plus that merge time, which is what makes the
fig. 10 makespan and join-traffic sweeps meaningful.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..cl import GB
from ..engines import EngineConfig
from ..monetdb import ops, partials
from ..monetdb.bat import BAT, OID_DTYPE, Role, make_bat, oid_bat
from ..monetdb.interpreter import (
    Backend,
    QuerySessions,
    QueryState,
    UnsupportedOperator,
)
from ..monetdb.storage import Catalog
from ..ocelot.memory import QueryMemory
from .partition import DEFAULT_MIN_PARTITION_ROWS, ShardPartitioner
from .topology import ShardTopology

#: simulated interconnect between shards and the driver (10 GbE-ish)
SHARD_NET_GBS = 8.0
#: per-gather/merge round-trip latency
SHARD_LATENCY_S = 40e-6

#: in-place retries the fan-out site absorbs before a fault reaches
#: the breaker path (transient blips vs. hard faults)
FAN_RETRIES = 2
#: simulated backoff charged per in-place retry (doubles per attempt)
RETRY_BACKOFF_S = 200e-6

#: join strategies the planner can pick
JOIN_LOCAL = "local"                  # >=1 side replicated: plain fan-out
JOIN_COLOCATED = "colocated"          # key-aligned sides: zero traffic
JOIN_SHUFFLE_LEFT = "shuffle-left"    # re-partition left to right's keys
JOIN_SHUFFLE_RIGHT = "shuffle-right"  # re-partition right to left's keys
JOIN_SHUFFLE_BOTH = "shuffle-both"    # hash re-partition both sides
JOIN_BROADCAST = "broadcast"          # gather + re-broadcast (PR-3 path)


@dataclass
class InterconnectTraffic:
    """Simulated interconnect bytes moved, by transfer pattern.

    Bytes are *nominal* (scaled by the dataset's ``data_scale``, like
    the simulated clock), so counters line up with the makespan charges
    and with the paper-scale data volumes.  Each pattern additionally
    tracks a ``*_physical`` counter: the bytes a transfer would move if
    it shipped columns in their *encoded* form (:mod:`repro.compress`)
    instead of decoded arrays — equal to the nominal counter when
    nothing on the wire was compressed."""

    #: driver gather + re-broadcast to every shard (broadcast joins,
    #: eager aggregate merges re-broadcast to the shards)
    bytes_broadcast: int = 0
    #: shard-to-shard hash re-partitions and targeted row fetches
    bytes_shuffled: int = 0
    #: driver-only gathers (result collection, grouped key merges)
    bytes_gathered: int = 0
    #: encoded-wire counterparts, by the same pattern
    bytes_broadcast_physical: int = 0
    bytes_shuffled_physical: int = 0
    bytes_gathered_physical: int = 0

    @property
    def bytes_total(self) -> int:
        return (self.bytes_broadcast + self.bytes_shuffled
                + self.bytes_gathered)

    @property
    def bytes_total_physical(self) -> int:
        return (self.bytes_broadcast_physical
                + self.bytes_shuffled_physical
                + self.bytes_gathered_physical)

    def add(self, kind: str, nbytes: int,
            physical: "int | None" = None) -> None:
        setattr(self, f"bytes_{kind}",
                getattr(self, f"bytes_{kind}") + int(nbytes))
        physical = nbytes if physical is None else physical
        setattr(self, f"bytes_{kind}_physical",
                getattr(self, f"bytes_{kind}_physical") + int(physical))

    def reset(self) -> None:
        self.bytes_broadcast = self.bytes_shuffled = 0
        self.bytes_gathered = 0
        self.bytes_broadcast_physical = self.bytes_shuffled_physical = 0
        self.bytes_gathered_physical = 0

    def __str__(self) -> str:
        return (
            f"broadcast={self.bytes_broadcast} "
            f"shuffled={self.bytes_shuffled} "
            f"gathered={self.bytes_gathered} "
            f"physical={self.bytes_total_physical}"
        )


@dataclass
class ShardTraffic:
    """Per-query and cumulative interconnect counters."""

    query: InterconnectTraffic = field(default_factory=InterconnectTraffic)
    total: InterconnectTraffic = field(default_factory=InterconnectTraffic)

    def __str__(self) -> str:
        return f"query: {self.query}  total: {self.total}"

    def counters(self) -> dict:
        """``interconnect.*`` (cumulative, plus the two sums over the
        patterns) and ``interconnect.query.*`` (the last query)."""
        total = asdict(self.total)
        total["bytes_total"] = self.total.bytes_total
        total["bytes_total_physical"] = self.total.bytes_total_physical
        return {"interconnect": total, "interconnect.query": self.query}


#: ``ShardedValue.space`` of a position column not valued in one
#: shard's own rows (those carry the space's per-shard row counts):
#: positions referring to a *gathered* (global) row space — projections
#: through them must gather their source column too
GATHERED = "gathered"
#: positions valued in the shard-order-concatenated layout of a row
#: space that *stays partitioned* (a shuffled join side): projections
#: through them fetch only the referenced rows from their owner shards
#: instead of gathering the whole column
CONCAT = "concat"
#: positions into a row space that is identical on every shard (a
#: replicated table, a broadcast value): valid anywhere without
#: translation — gathers and remote fetches must not apply per-shard
#: offsets to them
REPLICATED = "replicated"


class ShardedValue:
    """One interpreter value, sharded: a part per shard + provenance."""

    __slots__ = ("parts", "partitioned", "merge", "group", "pair",
                 "space", "_gathered", "origin", "dead", "holds",
                 "shares")

    def __init__(self, parts, partitioned, merge=None, group=None,
                 pair=None):
        self.parts = parts
        self.partitioned = partitioned
        #: fold tag ("sum"/"min"/"max"/"avg") for aggregate partials
        self.merge = merge
        #: the _Grouping aligning ngroups-wide partials, if grouped
        self.group = group
        #: (sums, counts) ShardedValues for exact avg merges
        self.pair = pair
        #: for position-valued columns, the row space the positions
        #: index: the per-shard row counts of a partitioned space
        #: (shard-local positions; gathering translates them into the
        #: gathered layout by these offsets), or one of
        #: :data:`GATHERED` / :data:`CONCAT` / :data:`REPLICATED`
        self.space: "tuple[int, ...] | str | None" = None
        self._gathered = None      # cached broadcast after an eager merge
        #: (table, column) whose base values these are, tracked only
        #: while every shard's part is still a subset of that shard's
        #: *own* rows of the base table (bind, and projections through
        #: shard-local positions, preserve it; gathers, shuffles and
        #: computed values clear it).  The join planner's key-alignment
        #: checks hang off this.
        self.origin: "tuple[str, str] | None" = None
        #: lifetime (``ShardedBackend.release_intermediates``): a value
        #: owns its parts and recycles them on their shards once it is
        #: ``dead`` (its last consumer ran) and nothing ``holds`` it —
        #: a grouping that has yet to read its keys, or the output of an
        #: identity operator (``sync``), which ``shares`` these parts
        self.dead = False
        self.holds = 0
        self.shares: "ShardedValue | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "part" if self.partitioned else "repl"
        extra = f" merge={self.merge}" if self.merge else ""
        return f"<SV {kind}x{len(self.parts)}{extra}>"


class _Grouping:
    """Cross-shard alignment of one grouping's dense local group ids.

    Built when ``group.group`` / ``group.subgroup`` runs over
    partitioned rows.  Every shard assigns its own dense gids in
    ascending key order (the engine-wide convention); :meth:`merged`
    computes, lazily, the sorted global key table and each shard's
    ``local gid -> global group index`` map, which is what lets grouped
    partials fold by *key* even though the id spaces differ per shard.
    """

    def __init__(self, backend: "ShardedBackend", keys: ShardedValue,
                 gids: ShardedValue, ngroups,
                 outer: "_Grouping | None" = None,
                 outer_gids: "ShardedValue | None" = None):
        self.backend = backend
        self.key_bats = list(keys.parts)   # per-shard grouped column
        self.gids_bats = list(gids.parts)  # per-shard dense id rows
        self.ngroups = ngroups             # per-shard group counts
        self.outer = outer                 # subgroup: the outer grouping
        #: per-shard outer id rows
        self.outer_gids = (None if outer_gids is None
                           else list(outer_gids.parts))
        self._merged = None
        self._key_cache: dict[int, list] = {}
        #: the values :meth:`key_columns` reads — possibly long after
        #: their last static use — held until every shard's keys are in
        self._held = [v for v in (keys, gids, outer_gids) if v is not None]
        for value in self._held:
            value.holds += 1

    def key_columns(self, shard: int) -> list:
        """Shard-local group keys, one array per key column at its own
        width; entry ``g`` of each is local group ``g``'s key
        (ascending)."""
        cached = self._key_cache.get(shard)
        if cached is not None:
            return cached
        child = self.backend.children[shard]
        values = partials.host_array(child, self.key_bats[shard])
        if self.outer is None:
            keys = [partials.distinct_keys(values)]
        else:
            gids = partials.host_array(
                child, self.gids_bats[shard]
            ).astype(np.int64, copy=False)
            outer_gids = partials.host_array(
                child, self.outer_gids[shard]
            ).astype(np.int64, copy=False)
            outer_of, inner = partials.group_keys(gids, (outer_gids, values))
            keys = [column[outer_of]
                    for column in self.outer.key_columns(shard)] + [inner]
        if keys[0].shape[0] != int(self.ngroups[shard]):
            raise AssertionError(
                "shard group keys out of step with dense ids"
            )
        self._key_cache[shard] = keys
        if len(self._key_cache) == len(self.key_bats):
            held, self._held = self._held, []
            for value in held:
                value.holds -= 1
                self.backend._let_go(value)
        return keys

    def merged(self):
        """``(n_global, maps)``: global group count and, per shard, the
        ``local gid -> global index`` translation (global groups sorted
        ascending by key tuple — the single-node output convention)."""
        if self._merged is None:
            tables = [self.key_columns(s)
                      for s in range(len(self.key_bats))]
            ids, n = partials.merge_groups(tables)
            bounds = np.cumsum([table[0].shape[0] for table in tables])
            self._merged = (n, np.split(ids, bounds[:-1]))
            # cost-model oddity kept for the golden (ROADMAP): the key
            # tables used to be stacked into one matrix of the columns'
            # common numpy type, and that matrix is what is charged
            width = np.result_type(
                *[column.dtype for table in tables for column in table]
            ).itemsize
            self.backend._charge_merge(ids.size * len(tables[0]) * width)
        return self._merged


@dataclass
class _ShardQuery(QueryState):
    """Per-query bookkeeping, one per in-flight query (the sharded
    analogue of the heterogeneous engine's ``_QueryState``); the last
    three fields are the session's account on :class:`_ShardTimelines`."""

    #: (join op, strategy) per join site, in execution order —
    #: introspection for tests and examples
    decision_log: list = field(default_factory=list)
    #: serial driver-side merge/gather seconds of this query
    merge_s: float = 0.0
    #: the session's submit epoch
    epoch: float = 0.0
    #: child -> seconds past ``epoch`` at which its work there ends
    reach: dict = field(default_factory=dict)
    #: child -> the child-clock reading its open stretch began at
    #: (missing: the clock's origin, i.e. the child's ``begin()``)
    since: dict = field(default_factory=dict)


class _ShardTimelines:
    """The sharded engine's timeline: a session is a query on every
    child's own ``begin()``/``elapsed()`` clock, priced as ``elapsed()``
    prices it — the slowest child's total plus the driver's merges.

    Opening a session calls ``begin()`` on every child, which charges
    what a query charges (a CPU child's per-query SDK cost, a HET
    child's first-use overheads afresh).  Children are shared and the
    scheduler single-threaded: what a child's clock gains while one
    session *holds* the children is that session's work there, read off
    only when the children change hands — never for a lone session,
    whose price is therefore ``elapsed()`` to the bit.  A child's work
    serialises across sessions on its busy-until clock, and nothing
    joins the children between instructions.  Over single-queue
    children a concurrent batch gains no second device, so its makespan
    is the serial sum (fig. 9c); children that are device pools overlap
    their own queues."""

    overlaps = True

    def __init__(self, backend: "ShardedBackend"):
        self.backend = backend
        #: child -> epoch until which sessions keep it busy
        self.clocks: dict = {}
        #: the latest completion epoch (merges end past the children)
        self.driver = 0.0
        #: the session whose stretch is open on the children's clocks
        self._holder: "_ShardQuery | None" = None

    def makespan(self) -> float:
        return max(self.driver, max(self.clocks.values(), default=0.0))

    def _read(self, join: bool = False) -> dict:
        """Every child's clock — observed, or with ``join`` through
        ``elapsed()``, the sync point a query ends on."""
        return {child: child.elapsed() if join else child.elapsed_now()
                for child in self.backend.children}

    def _stretch(self, state: _ShardQuery, now: dict) -> dict:
        """Where the open stretch, ending at the child-clock readings
        ``now``, takes ``state.reach`` — per child it advanced, queued
        behind that child's other work."""
        reach = {}
        for child, reading in now.items():
            spent = reading - state.since.get(child, 0.0)
            if spent > 0.0:
                reach[child] = max(
                    state.reach.get(child, 0.0),
                    self.clocks.get(child, 0.0) - state.epoch,
                ) + spent
        return reach

    def _hand_over(self, state: "_ShardQuery | None",
                   join: bool = False) -> None:
        """Close the open stretch — charging it to its session and the
        children's clocks — and start ``state``'s (``None``: nobody's)."""
        holder, self._holder = self._holder, state
        if holder is None and state is None:
            return
        now = self._read(join)
        if holder is not None:
            reach = self._stretch(holder, now)
            holder.reach.update(reach)
            for child, seconds in reach.items():
                self.clocks[child] = holder.epoch + seconds
        if state is not None:
            state.since = now

    def open_session(self, session: str) -> float:
        backend = self.backend
        self._hand_over(None)
        state = self._holder = backend.sessions.open_states[session]
        state.epoch = self.makespan()
        for child in backend.children:
            child.begin()
        backend.traffic.query.reset()
        return state.epoch

    def set_session(self, session: "str | None") -> None:
        state = self.backend.sessions.open_states.get(session)
        if state is not None and state is not self._holder:
            self._hand_over(state)

    def session_time(self, session: str) -> float:
        state = self.backend.sessions.open_states[session]
        reach = state.reach
        if state is self._holder:
            reach = {**reach, **self._stretch(state, self._read())}
        return state.epoch + max(reach.values(), default=0.0) + state.merge_s

    def close_session(self, session: str) -> tuple[float, float]:
        state = self.backend.sessions.open_states[session]
        if state is self._holder:
            self._hand_over(None, join=True)
        elapsed = max(state.reach.values(), default=0.0) + state.merge_s
        self.driver = max(self.driver, state.epoch + elapsed)
        return state.epoch + elapsed, elapsed


class ShardedBackend(Backend):
    """MAL backend fanning every instruction across N shard backends."""

    def __init__(
        self,
        catalog: Catalog,
        child_config: EngineConfig,
        n_shards: int,
        data_scale: float = 1.0,
        mode: str = "range",
        min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
        label: str = "SHARD",
        shard_keys: "dict[str, str] | None" = None,
        use_declared_keys: bool = True,
        infer_keys: bool = False,
        join_strategy: str = "auto",
        replicas: int = 1,
    ):
        self.label = label
        self.child_config = child_config
        self.data_scale = float(data_scale)
        self.partitioner = ShardPartitioner(
            catalog, n_shards, mode=mode,
            min_partition_rows=min_partition_rows,
            shard_keys=shard_keys,
            use_declared_keys=use_declared_keys,
            replicas=replicas,
        )
        #: ``grid[node][k]`` — the child backend over node ``node``'s
        #: catalog ``k``; a node keeps its children (and any fault
        #: wrapper around them) for as long as it is in the cluster
        self.grid: dict[int, list[Backend]] = {}
        self.make_children()
        #: the live copy of every slot, in slot order: the list every
        #: fan-out/merge loop runs over
        self.children: list[Backend] = []
        #: capability: routing, failover, read rotation, online resize
        #: — everything that ever rewrites the two above
        self.cluster = ShardTopology(self)
        #: interconnect byte counters (``interconnect.*`` metrics)
        self.traffic = ShardTraffic()
        #: ``keys=infer``: adopt observed join columns as shard keys
        self.infer_keys = infer_keys
        #: ``join=broadcast`` forces the PR-3 baseline for benchmarks
        self.join_strategy = join_strategy
        #: ``keys=infer``: the base-column pairs of joins it could not
        #: co-locate, adopted at the next quiet boundary
        self.observed_joins: list[tuple] = []
        self._inferred: set[tuple] = set()
        #: capability: one :class:`_ShardQuery` per in-flight query on
        #: the children's clocks
        self.sessions = QuerySessions(self._new_query,
                                      _ShardTimelines(self))
        if self.children[0].memory is not None:
            #: capability: every copy's Memory Managers — a query owns
            #: what it allocates on any node
            self.memory = QueryMemory(lambda: [
                manager for row in self.grid.values() for child in row
                for manager in child.memory.managers()
            ])
        super().__init__(catalog)

    def make_children(self) -> None:
        """A child backend for every node catalog that has none yet."""
        for node, catalogs in self.partitioner.nodes.items():
            row = self.grid.setdefault(node, [])
            row.extend(self.child_config.make(catalog, self.data_scale)
                       for catalog in catalogs[len(row):])

    @property
    def n_shards(self) -> int:
        return len(self.children)

    @property
    def replicas(self) -> int:
        """Copies of every slot the installed layout keeps."""
        return self.partitioner.replicas

    @property
    def decision_log(self) -> list:
        return self.sessions.current.decision_log

    def _new_query(self) -> _ShardQuery:
        """State for a query that is starting (``begin`` or a session
        opening); one starting on a degraded cluster is a degraded
        read."""
        if self.cluster.routing.degraded:
            self.cluster.stats.degraded_reads += 1
        return _ShardQuery()

    # -- protocol: registration / resolution ---------------------------------

    def _register_ops(self) -> None:
        """No operator of its own: every one fans out to the children."""

    def resolve(self, op: str):
        # existence check up front so unsupported ops fail like any
        # other backend's resolve (children share one operator set)
        self.children[0].resolve(op)

        def fan(*args):
            return self._run_op(op, args)

        return fan

    def supports(self, op: str) -> bool:
        return self.children[0].supports(op)

    def supported_ops(self) -> list[str]:
        return self.children[0].supported_ops()

    # -- protocol: timing ------------------------------------------------------

    def begin(self) -> None:
        for child in self.children:
            child.begin()
        # reset in place: references to the per-query counters held
        # across queries keep reading the live object
        self.traffic.query.reset()
        self.sessions.current = self._new_query()

    def query_boundary(self) -> None:
        """Between-queries hook: breaker ticks (base class) plus
        per-query counter hygiene — a query dying mid-plan skips its
        own cleanup, and the next must start from zeroed per-query
        traffic.  Reset is in place so live references to
        ``traffic.query`` keep reading the current counters.  This is
        also where the layout moves: with no session in flight,
        ``keys=infer`` adopts the join keys it observed; cooled-down
        nodes rejoin, a queued roster is installed once no session is
        in flight, and a healthy replicated cluster rotates its read
        routing (see :class:`~repro.shard.topology.ShardTopology`)."""
        super().query_boundary()
        self.traffic.query.reset()
        idle = not self.sessions.open_states
        if idle and self.observed_joins:
            self._adopt_inferred_keys()
        self.cluster.boundary(idle=idle)

    def release_intermediates(self, values) -> None:
        """A dead value — with its ``avg`` pair and cached gather —
        recycles its parts on their shards, unless something still
        holds it (see :class:`ShardedValue`); the holder lets go later.
        """
        for value in values:
            for sv in self._component_values(value):
                sv.dead = True
                self._let_go(sv)

    def _let_go(self, sv: ShardedValue) -> None:
        if not sv.dead or sv.holds:
            return
        parts, sv.parts = sv.parts, ()
        source, sv.shares = sv.shares, None
        if source is not None:
            # the parts are the source's: it recycles them
            source.holds -= 1
            self._let_go(source)
            return
        for child, part in zip(self.children, parts):
            if isinstance(part, BAT):
                child.release_intermediates((part,))

    def elapsed(self) -> float:
        """Slowest shard + driver-side gather/merge time.

        Shards are independent nodes: their simulated clocks advance
        concurrently, so the query's makespan is the maximum, plus the
        serial driver work (merges, gathers, broadcasts)."""
        return max(child.elapsed() for child in self.children) \
            + self.sessions.current.merge_s

    def query_overhead_s(self) -> float:
        return max(child.query_overhead_s() for child in self.children)

    def _charge_merge(self, nbytes: int, kind: str = "gathered",
                      physical_nbytes: "int | None" = None) -> None:
        """Interconnect + driver cost of moving ``nbytes`` (actual array
        bytes; scaled to nominal) through the merge point.  ``kind``
        classifies the transfer pattern for the traffic counters:
        ``"broadcast"`` (gather + re-broadcast), ``"shuffled"``
        (shard-to-shard moves and targeted fetches) or ``"gathered"``
        (driver-only).  ``physical_nbytes`` — when the moved columns are
        stored encoded — is what the transfer would put on the wire in
        compressed form; it feeds the ``*_physical`` traffic counters
        only, while the simulated wire time stays charged at nominal
        width so the timing baselines are unaffected by storage mode."""
        nominal = int(nbytes * self.data_scale)
        physical = (nominal if physical_nbytes is None
                    else int(physical_nbytes * self.data_scale))
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(f"interconnect.{kind}", cat="interconnect",
                                tid="interconnect", kind=kind,
                                bytes=nominal, bytes_physical=physical)
        self.sessions.current.merge_s += (
            SHARD_LATENCY_S + nominal / (SHARD_NET_GBS * GB)
        )
        self.traffic.query.add(kind, nominal, physical)
        self.traffic.total.add(kind, nominal, physical)
        if tracer is not None:
            tracer.end(span)
            tracer.event(f"interconnect.{kind}", cat="interconnect",
                         tid="interconnect", kind=kind, bytes=nominal,
                         bytes_physical=physical)

    def counters(self) -> dict:
        """The driver's counters folded with every node's: each shard
        catalog re-encodes its own partition at ``create_table`` time,
        so the storage picture spans all of them, and the memory
        managers (none for MonetDB children, one per pooled device for
        Ocelot/HET children) are summed over the whole copy grid."""
        nodes = [child.counters()
                 for row in self.grid.values() for child in row]
        compress = self.catalog.compression.snapshot()
        for node in nodes:
            compress.add(node["compress"])
        out = {**self.traffic.counters(), "compress": compress,
               "cluster": self.cluster.stats}
        if self.memory is not None:
            out["mm"] = self.memory.counters()
        return out

    # -- protocol: lifecycle ------------------------------------------------------

    def schema_changed(self) -> bool:
        """Parent DDL: re-partition and bump every shard's catalog.

        The partitioner re-slices any table whose layout signature
        changed (a declared key, moved domain bounds), so join planning
        never sees shard slices laid out by a scheme the catalog no
        longer declares — a DDL on one table re-slices every table keyed
        in its domain, which is when this returns True.  A queued roster
        needs nothing: its install re-syncs from the schema it finds."""
        return self.partitioner.sync() > 0

    def note_node_failure(self, error) -> str:
        """A :class:`~repro.serve.faults.NodeFault` carrying a shard id
        charges that shard's breaker and, on a trip, routes around it
        (:meth:`ShardTopology.node_failed`); faults without a node fall
        back to the backend-wide breaker."""
        node = getattr(error, "node", None)
        if node is None or node not in self.grid:
            return super().note_node_failure(error)
        return self.cluster.node_failed(node)

    def shutdown(self) -> None:
        for row in self.grid.values():
            for child in row:
                child.shutdown()

    def _adopt_inferred_keys(self) -> None:
        """``keys=infer``: adopt observed join columns as shard keys.

        A join the planner could not co-locate between two base columns
        is the signal: both tables adopt those columns as keys in one
        shared domain and the partitioner re-slices them (the next run
        of the same cached plan finds the join co-located).  Each table
        is adopted at most once — the first observed join wins — so
        repeated queries cannot thrash the layout.  Called only with no
        statement in flight: those hold values laid out the old way."""
        observed, self.observed_joins = self.observed_joins, []
        adopted = False
        for (lt, lc), (rt, rc) in observed:
            if lt == rt:
                continue                      # self-joins teach nothing
            if self.partitioner.key_of(lt) or self.partitioner.key_of(rt):
                continue                      # respect existing keys
            if lt in self._inferred or rt in self._inferred:
                continue
            if not (self.partitioner.is_partitioned(lt)
                    and self.partitioner.is_partitioned(rt)):
                continue
            domain = "~".join(sorted((f"{lt}.{lc}", f"{rt}.{rc}")))
            self.partitioner.declare_key(lt, lc, domain=domain,
                                         sync=False)
            self.partitioner.declare_key(rt, rc, domain=domain,
                                         sync=False)
            self._inferred.update((lt, rt))
            adopted = True
        if adopted:
            self.partitioner.sync()

    def _component_values(self, value):
        """A value's ShardedValues incl. avg pairs and cached gathers."""
        if not isinstance(value, ShardedValue):
            return
        yield value
        if value.pair is not None:
            for sub in value.pair:
                yield from self._component_values(sub)
        if isinstance(value._gathered, ShardedValue):
            yield from self._component_values(value._gathered)

    # -- shard-local helpers -------------------------------------------------------

    def _localize(self, shard: int, args):
        return [
            a.parts[shard] if isinstance(a, ShardedValue) else a
            for a in args
        ]

    def _dispatch(self, shard: int, op: str, args):
        """Run one operator on one shard, absorbing transient blips
        with an in-place retry (simulated backoff, doubling) before
        anything reaches the breaker path.  A fault that outlives the
        retry budget is *hard*: it propagates to ``note_node_failure``
        and charges the shard's breaker like any other failure."""
        from ..serve.faults import RetryableFault

        backoff = RETRY_BACKOFF_S
        for attempt in range(FAN_RETRIES + 1):
            try:
                return self.children[shard].resolve(op)(
                    *self._localize(shard, args)
                )
            except RetryableFault:
                if attempt >= FAN_RETRIES:
                    raise
                self.cluster.stats.retries += 1
                self.sessions.current.merge_s += backoff
                backoff *= 2.0

    def _fan(self, op: str, args, partitioned=None) -> object:
        tracer = self.tracer
        if tracer is None:
            outs = [
                self._dispatch(shard, op, args)
                for shard in range(self.n_shards)
            ]
        else:
            # one span per shard lane; the child backend sees the tracer
            # too, so a composite child (SHARD:NxHET) nests its dispatch
            # spans under its shard's lane
            outs = []
            for shard in range(self.n_shards):
                child = self.children[shard]
                span = tracer.begin(op, cat="shard",
                                    tid=f"shard{shard}", shard=shard,
                                    device=f"shard{shard}")
                child.tracer = tracer
                try:
                    outs.append(self._dispatch(shard, op, args))
                finally:
                    child.tracer = None
                    tracer.end(span)
        if partitioned is None:
            partitioned = any(self._needs_gather(a) for a in args)
        first = outs[0]
        if isinstance(first, tuple):
            return tuple(
                ShardedValue([o[i] for o in outs], partitioned)
                for i in range(len(first))
            )
        out = ShardedValue(outs, partitioned)
        if isinstance(first, BAT):
            for arg in args:
                if isinstance(arg, ShardedValue) and arg.parts[0] is first:
                    # an identity operator (``sync`` returns its
                    # argument): one set of parts under two names,
                    # indexing the same row space
                    out.shares, arg.holds = arg, arg.holds + 1
                    out.space = arg.space
                    break
        return out

    # -- the dispatch ----------------------------------------------------------------

    def _run_op(self, op: str, args):
        # aggregate partials consumed by a downstream operator merge
        # here — the cluster plan's scatter/gather boundary
        args = [self._demote(a) for a in args]
        module, _, fn = op.rpartition(".")
        row = ops.lookup(module, fn)
        if row is None:
            # structural instructions: a bind and a fused region say
            # what they produce, anything else fans out as it is
            if fn == "bind":
                return self._fan_bind(op, args)
            if fn == "pipe":
                return self._fan_pipe(op, args)
            return self._fan(op, args)
        if row.agg:
            if not any(self._needs_gather(a) for a in args):
                # rows every shard holds alike: a result, not a partial
                return self._fan(op, args, partitioned=False)
            if row.cls == "scalar_agg":
                return self._scalar_agg(module, row, args)
            return self._grouped_agg(module, row, args)
        # operator classes that need global context have a handler
        handler = getattr(self, f"_fan_{row.cls}", None)
        if handler is not None:
            return handler(row, op, args)
        out = self._fan(op, args)
        self._mark_positions(row, out, args)
        return out

    def _mark_positions(self, row, out, args) -> None:
        """Annotate every positions result of a plainly fanned operator
        with its row space, as its table row says: the rows of an
        argument (shard-local positions into it), or the space another
        position column already indexes."""
        outs = out if isinstance(out, tuple) else (out,)
        for value, result in zip(outs, row.results):
            if result.kind != "positions" \
                    or not isinstance(value, ShardedValue):
                continue
            arg = args[result.of]
            if not result.same_space:
                self._mark_space(value, arg)
            elif isinstance(arg, ShardedValue):
                value.space = arg.space

    def _demote(self, value):
        """Merge an aggregate-partial argument and broadcast the result."""
        if not isinstance(value, ShardedValue) or value.merge is None:
            return value
        if value._gathered is None:
            if value.group is not None:
                merged = self._fold_grouped(value)
                self._charge_merge(int(merged.nbytes) * self.n_shards,
                                   kind="broadcast")
                value._gathered = ShardedValue(
                    [make_bat(merged, tag="shard_merge")
                     for _ in range(self.n_shards)],
                    partitioned=False,
                )
            else:
                value._gathered = self._fold_scalar(value)
                self._charge_merge(8 * self.n_shards, kind="broadcast")
        return value._gathered

    # -- aggregates -----------------------------------------------------------------

    def _scalar_agg(self, module: str, row, args):
        # shards whose filtered input is empty contribute the fold
        # identity, not a partial — single-node engines (rightly) refuse
        # e.g. min() over an empty column, and a shard must not turn a
        # non-empty global aggregate into that refusal.  When *every*
        # shard is empty, run one child anyway so the global query keeps
        # exact single-node empty-input semantics (0 for sum, an error
        # for min/max).
        b = args[0]
        active = [
            shard for shard in range(self.n_shards)
            if not (isinstance(b, ShardedValue)
                    and isinstance(b.parts[shard], BAT)
                    and b.parts[shard].count == 0)
        ] or [0]

        def fan_active(op_name: str) -> ShardedValue:
            parts = [None] * self.n_shards
            for shard in active:
                parts[shard] = self._dispatch(shard, op_name, args)
            return ShardedValue(parts, True)

        return self._tag_partials(
            [(name, fan_active(f"{module}.{name}"))
             for name, _args in partials.components(row.function, args)]
        )

    def _tag_partials(self, fanned, grouping=None):
        """Tag each ``(aggregate, fanned partial)`` with its fold; an
        ``avg`` is the value holding its (sum, count) pair."""
        for name, partial in fanned:
            partial.merge = partials.fold_of(name)
            partial.group = grouping
        if len(fanned) == 1:
            return fanned[0][1]
        return ShardedValue(
            [None] * self.n_shards, True, merge="avg", group=grouping,
            pair=tuple(partial for _name, partial in fanned),
        )

    def _grouped_agg(self, module: str, row, args):
        gids = args[row.nargs - 2]       # (..., gids, ngroups)
        grouping = getattr(gids, "group", None) if isinstance(
            gids, ShardedValue) else None
        if grouping is None:
            raise UnsupportedOperator(
                f"{module}.{row.function} over partitioned rows without a "
                f"sharded grouping "
                f"— plan shape not supported by the SHARD engine"
            )
        return self._tag_partials(
            [(name, self._fan(f"{module}.{name}", part_args,
                              partitioned=True))
             for name, part_args
             in partials.components(row.function, args)],
            grouping,
        )

    def _fold_scalar(self, value: ShardedValue):
        if value.pair is not None:
            return partials.finish_avg(*map(self._fold_scalar, value.pair))
        # empty shards were skipped at fan-out time (None = identity)
        parts = [p for p in value.parts if p is not None]
        if value.merge in ("sum", "min", "max"):
            return partials.fold_scalars(value.merge, parts)
        if value.merge == "first" or not value.partitioned:
            return parts[0]
        raise UnsupportedOperator(
            "partitioned scalar without merge semantics reached a "
            "merge point (unsupported plan shape for SHARD)"
        )

    def _fold_grouped(self, value: ShardedValue) -> np.ndarray:
        """Key-aligned fold of an ngroups-wide partial across shards,
        in ascending global key order (the single-node convention)."""
        n_global, maps = value.group.merged()
        if value.pair is not None:
            return partials.finish_avg(*map(self._fold_grouped, value.pair))
        return partials.scatter_tables(value.merge, n_global, zip(maps, (
            partials.host_array(self.children[shard], part)
            for shard, part in enumerate(value.parts)
        )))

    # -- gathers (global row-space operators) ------------------------------------

    def _global_layout(self, value: ShardedValue, verb: str):
        """``(arrays, positions, width)``: the host tail of every part
        in the shard-order concatenated layout, whether the *values*
        are positions into some row space, and the bytes an element is
        charged at on the wire.

        Every column of one row space concatenates in shard order, so
        these layouts are mutually consistent.  A column holds
        positions when it carries their space or the OIDS role (role
        alone is not enough: a projected row map is a VALUES-role BAT
        of positions); shard-local ones translate into the layout by
        their space's per-shard row counts, those already valued in a
        global or shard-agnostic layout stay as they are."""
        arrays = [
            partials.host_array(self.children[shard], part)
            for shard, part in enumerate(value.parts)
        ]
        positions = value.space is not None or any(
            isinstance(p, BAT) and p.role is Role.OIDS for p in value.parts
        )
        width = arrays[0].dtype.itemsize
        if isinstance(value.space, tuple):
            arrays = [
                partials.offset_positions(local, offset) for local, offset
                in zip(arrays, partials.offsets_of(value.space))
            ]
            # cost-model oddity kept for the golden (ROADMAP): translated
            # positions are charged at the int64 they are computed in,
            # not at the 4-byte oids that ship
            width = 8
        elif positions and value.space is None:
            raise UnsupportedOperator(
                f"cannot {verb} a sharded position column whose row "
                f"space is unknown (unsupported plan shape for SHARD)"
            )
        return arrays, positions, width

    def _gather_rows(self, value: ShardedValue) -> ShardedValue:
        """Concatenate a partitioned row-space value on the driver and
        broadcast it to every shard (sort / broadcast-join path)."""
        if value._gathered is None:
            arrays, positions, width = self._global_layout(value, "gather")
            merged = np.concatenate(arrays)
            nbytes = merged.size * width
            # encoded parts would ship (and re-broadcast) their codec
            # payloads, not the decoded arrays
            physical = (nbytes if positions
                        else self._physical_nbytes(value.parts, arrays))
            self._charge_merge(nbytes * (1 + self.n_shards),
                               kind="broadcast",
                               physical_nbytes=physical
                               * (1 + self.n_shards))
            gathered = ShardedValue(
                [(oid_bat if positions else make_bat)(
                    merged, tag="shard_gather")
                 for _ in range(self.n_shards)],
                partitioned=False,
            )
            if positions:
                # offset-translated positions now live in the gathered
                # (global) layout — consumers must gather their sources
                # too
                gathered.space = GATHERED
            value._gathered = gathered
        return value._gathered

    def _needs_gather(self, value) -> bool:
        return isinstance(value, ShardedValue) and value.partitioned

    @staticmethod
    def _physical_nbytes(parts, arrays) -> int:
        """Wire bytes if each part shipped in its *stored* form: the
        codec payload size for encoded parts (``repro.compress``), the
        plain array size otherwise."""
        total = 0
        for part, arr in zip(parts, arrays):
            physical = getattr(part, "physical_nbytes", None)
            total += int(physical if physical is not None
                         else np.asarray(arr).nbytes)
        return total

    @staticmethod
    def _counts(value) -> "tuple[int, ...] | None":
        if not isinstance(value, ShardedValue):
            return None
        if not all(isinstance(p, BAT) for p in value.parts):
            return None
        return tuple(int(p.count) for p in value.parts)

    def _mark_space(self, pos, space) -> None:
        """Annotate a position column with the row space it indexes:
        per-shard counts when the space is partitioned (gathers and
        remote fetches translate by them), or :data:`REPLICATED` when
        the space is identical on every shard (positions valid
        anywhere, translation would corrupt them)."""
        if isinstance(pos, ShardedValue):
            pos.space = (self._counts(space) if self._needs_gather(space)
                         else REPLICATED)

    # -- special operators ------------------------------------------------------------

    def _fan_bind(self, op: str, args):
        ref = args[0]
        partitioned = self.partitioner.is_partitioned(ref.table)
        out = self._fan(op, args, partitioned=partitioned)
        if partitioned and isinstance(out, ShardedValue):
            out.origin = (ref.table, ref.column)
        if self.tracer is not None and isinstance(out, ShardedValue):
            # runtime truth for EXPLAIN ANALYZE: each shard catalog
            # encodes its own partition, so the codec a shard actually
            # read can differ from the driver catalog's whole-column
            # choice that plain explain() renders
            self.tracer.annotate(
                column=f"{ref.table}.{ref.column}",
                shard_encodings=[
                    getattr(getattr(part, "encoding", None), "kind", None)
                    for part in out.parts
                ],
            )
        return out

    def _fan_pipe(self, op, args):
        """Fused regions (repro.fuse) fan out unchanged — they stay
        element-wise per row, so each shard runs the same single-pass
        kernel over its slice.  Selection outputs are shard-local
        positions like any unfused select, so they carry the input's
        per-shard row counts for a later gather."""
        out = self._fan(op, args)
        spec = args[0]
        space = next(
            (a for a in args[1:] if self._needs_gather(a)),
            next((a for a in args[1:] if isinstance(a, ShardedValue)),
                 None),
        )
        outputs = out if isinstance(out, tuple) else (out,)
        for value, fused_output in zip(outputs, spec.outputs):
            if isinstance(value, ShardedValue) and fused_output.is_select \
                    and space is not None:
                self._mark_space(value, space)
        return out

    def _fan_group(self, row, op: str, args):
        """``group`` / ``subgroup`` over partitioned rows: every shard
        numbers its own groups; a :class:`_Grouping` aligns them by key."""
        gids, ngroups = self._fan(op, args)
        if not gids.partitioned:
            return gids, ngroups
        outer = outer_gids = None
        if row.nargs == 3:          # (column, outer gids, outer ngroups)
            outer_gids = args[1]
            outer = getattr(outer_gids, "group", None)
            if outer is None:
                raise UnsupportedOperator(
                    f"{op}: subgrouping partitioned rows without a "
                    f"sharded outer grouping is not supported"
                )
        gids.group = _Grouping(
            self, args[0], gids, [int(n) for n in ngroups.parts],
            outer=outer, outer_gids=outer_gids,
        )
        return gids, ngroups

    def _fan_sort(self, row, op: str, args):
        b = args[0]
        gathered = self._needs_gather(b)
        if gathered:
            args = [self._gather_rows(b)] + list(args[1:])
        sorted_sv, order_sv = self._fan(op, args, partitioned=False)
        if gathered:
            order_sv.space = GATHERED
        return sorted_sv, order_sv

    def _fan_topn(self, row, op: str, args):
        b = args[0]
        gathered = self._needs_gather(b)
        if gathered:
            args = [self._gather_rows(b)] + list(args[1:])
        top = self._fan(op, args, partitioned=False)
        if gathered:
            top.space = GATHERED
        return top

    def _fan_oidcombine(self, row, op: str, args):
        """Two oid lists of one row space combine shard by shard —
        unless one is valued in the gathered layout (a ``firstn``
        output): then the shard-local one is gathered too, and the
        combination runs replicated in that layout."""
        if not any(isinstance(a, ShardedValue) and a.space == GATHERED
                   for a in args):
            out = self._fan(op, args)
            self._mark_positions(row, out, args)
            return out
        args = [self._gather_rows(a) if self._needs_gather(a) else a
                for a in args]
        out = self._fan(op, args, partitioned=False)
        out.space = GATHERED
        return out

    def _fan_gather(self, row, op: str, args):
        oids, source = args[0], args[1]
        source_gathered = False
        space = oids.space if isinstance(oids, ShardedValue) else None
        if space == CONCAT and self._needs_gather(source) \
                and self._counts(source) is not None:
            # positions refer to the concatenated layout of a row space
            # that is still partitioned (a shuffled join side): fetch
            # exactly the referenced rows from their owner shards
            # instead of broadcasting the whole column
            return self._remote_project(oids, source)
        if space in (GATHERED, CONCAT) and self._needs_gather(source):
            # positions refer to a gathered (global) row space: the
            # source column must be gathered the same way; whether the
            # *output* is shard-local still follows the position lists
            # (a per-shard pair list projected through a broadcast
            # column yields per-shard results)
            args = [oids, self._gather_rows(source)] + list(args[2:])
            source_gathered = True
        out = self._fan(op, args)
        if isinstance(out, ShardedValue) and isinstance(source, ShardedValue):
            # a projection's output *values* are drawn from the source,
            # so whatever space those values index (row-map composition
            # through shard-local or gathered spaces) carries over
            out.space = source.space
            if not source_gathered and isinstance(oids, ShardedValue) \
                    and oids.partitioned \
                    and space not in (GATHERED, CONCAT):
                # shard-local positions into a still-aligned source:
                # the output rows remain each shard's own base rows
                out.origin = source.origin
        return out

    def _remote_project(self, oids: ShardedValue, source: ShardedValue):
        """Targeted cross-shard fetch: project remote positions through
        a partitioned source, moving only the referenced rows.

        The source's per-shard parts concatenate (positions translating
        by their space's offsets) into the layout the remote positions
        are valued in; each shard then fetches its hit rows, and only
        rows owned by *another* shard are charged to the interconnect —
        the second half of the shuffle join's traffic win."""
        offsets = partials.offsets_of(self._counts(source))
        arrays, positions, width = self._global_layout(source,
                                                       "re-partition")
        concatenated = np.concatenate(arrays)
        # an encoded source would ship fetched rows in its stored form;
        # approximate with the source's overall physical/nominal ratio
        # (position columns are never encoded, so their ratio is 1)
        src_nominal = sum(int(a.nbytes) for a in arrays)
        src_ratio = (self._physical_nbytes(source.parts, arrays)
                     / src_nominal) if src_nominal else 1.0
        parts, moved = [], 0
        for shard, child in enumerate(self.children):
            pos = partials.host_array(
                child, oids.parts[shard]
            ).astype(np.int64, copy=False)
            remote = partials.owner_of(pos, offsets) != shard
            moved += int(np.count_nonzero(remote)) * width
            parts.append((oid_bat if positions else make_bat)(
                concatenated[pos], tag="shard_fetch"))
        self._charge_merge(moved, kind="shuffled",
                           physical_nbytes=int(moved * src_ratio))
        out = ShardedValue(parts, partitioned=True)
        if positions:
            # fetched values are positions in the source space's own
            # concatenated layout — still remote for the next hop (or
            # global / shard-agnostic when the source's values already
            # were)
            out.space = (source.space
                         if source.space in (GATHERED, REPLICATED)
                         else CONCAT)
        return out

    # -- the join planner --------------------------------------------------------

    def _aligned_key(self, value) -> "tuple[str, str] | None":
        """The value's ``(table, column)`` origin, when that column is
        its table's shard key and the rows are still shard-aligned."""
        if not isinstance(value, ShardedValue) or value.origin is None:
            return None
        if value.space in (GATHERED, CONCAT):
            return None
        table, column = value.origin
        if self.partitioner.is_key_aligned(table, column):
            return value.origin
        return None

    def _plan_join(self, op: str, left, right) -> str:
        """The strategy for one equi-join site, logged in the query's
        ``decision_log``."""
        strategy = self._decide_join(left, right)
        self.sessions.current.decision_log.append((op, strategy))
        return strategy

    def _decide_join(self, left, right) -> str:
        if not (self._needs_gather(left) and self._needs_gather(right)):
            return JOIN_LOCAL
        if self.join_strategy == "broadcast":
            # the strict PR-3 baseline: every partitioned-both-sides
            # join broadcasts, even on a key-partitioned layout
            return JOIN_BROADCAST
        lkey = self._aligned_key(left)
        rkey = self._aligned_key(right)
        if lkey and rkey and self.partitioner.co_located(lkey, rkey):
            return JOIN_COLOCATED
        if self.infer_keys and isinstance(left, ShardedValue) \
                and left.origin and isinstance(right, ShardedValue) \
                and right.origin:
            # a broadcast/shuffle between two base columns is the
            # signal keys=infer adopts, a layout change queued for the
            # next quiet boundary (``ShardTopology.pending``)
            self.observed_joins.append((left.origin, right.origin))
        lcounts, rcounts = self._counts(left), self._counts(right)
        if lkey and rcounts is not None:
            return JOIN_SHUFFLE_RIGHT
        if rkey and lcounts is not None:
            return JOIN_SHUFFLE_LEFT
        if lcounts is not None and rcounts is not None \
                and self._shuffleable(left) and self._shuffleable(right):
            return JOIN_SHUFFLE_BOTH
        return JOIN_BROADCAST

    @staticmethod
    def _shuffleable(value) -> bool:
        return all(
            isinstance(p, BAT) and p.dtype.kind in "iuf"
            for p in value.parts
        )

    def _fan_join(self, row, op: str, args):
        left, right = args[0], args[1]
        strategy = self._plan_join(op, left, right)
        if self.tracer is not None:
            self.tracer.annotate(strategy=strategy)
        if strategy == JOIN_COLOCATED:
            # key-aligned sides: every matching pair is already on one
            # shard — the join fans out with zero driver traffic
            lpos, rpos = self._fan(op, args, partitioned=True)
            self._mark_space(lpos, left)
            self._mark_space(rpos, right)
            return lpos, rpos
        if strategy in (JOIN_SHUFFLE_LEFT, JOIN_SHUFFLE_RIGHT,
                        JOIN_SHUFFLE_BOTH):
            return self._shuffle_join(op, args, strategy)
        return self._fan_nljoin(row, op, args)

    def _fan_nljoin(self, row, op: str, args):
        """Broadcast join — a theta join's only plan and the equi-join's
        PR-3 fallback: gather the build side to every shard."""
        left, right = args[0], args[1]
        gathered = False
        if self._needs_gather(left) and self._needs_gather(right):
            args = [left, self._gather_rows(right)] + list(args[2:])
            gathered = True
        lpos, rpos = self._fan(
            op, args, partitioned=True if gathered else None
        )
        self._mark_space(lpos, left)
        if gathered:
            rpos.space = GATHERED
        else:
            self._mark_space(rpos, right)
        return lpos, rpos

    def _shuffle_join(self, op: str, args, strategy: str):
        """Hash-shuffle join: re-partition the unaligned side(s) by key
        value so the join runs shard-local, moving only (key, oid)
        pairs shard-to-shard.

        With one side key-aligned the other side re-partitions to the
        aligned table's placement function; with neither aligned both
        sides re-partition by value hash.  A shuffled side's output
        positions are valued in its original concatenated row space
        (:data:`CONCAT`), so later projections fetch only the rows
        each shard holds pairs for."""
        left, right = args[0], args[1]
        if strategy == JOIN_SHUFFLE_RIGHT:
            table, _column = self._aligned_key(left)
            place = self.partitioner.key_placement(
                self.partitioner.key_of(table)[1]
            )
        elif strategy == JOIN_SHUFFLE_LEFT:
            table, _column = self._aligned_key(right)
            place = self.partitioner.key_placement(
                self.partitioner.key_of(table)[1]
            )
        else:
            place = self.partitioner.default_placement
        new_left, lmap = left, None
        new_right, rmap = right, None
        if strategy in (JOIN_SHUFFLE_LEFT, JOIN_SHUFFLE_BOTH):
            new_left, lmap = self._shuffle(left, place)
        if strategy in (JOIN_SHUFFLE_RIGHT, JOIN_SHUFFLE_BOTH):
            new_right, rmap = self._shuffle(right, place)
        lpos, rpos = self._fan(
            op, [new_left, new_right] + list(args[2:]), partitioned=True
        )
        # the shuffled key columns were made for this join alone
        self.release_intermediates(
            side for side, mapping in ((new_left, lmap), (new_right, rmap))
            if mapping is not None
        )
        lpos = self._translate_pos(lpos, lmap, left)
        rpos = self._translate_pos(rpos, rmap, right)
        return lpos, rpos

    def _translate_pos(self, pos: ShardedValue, mapping, side):
        """Map positions out of a shuffled layout back into the side's
        original (concatenated) row space via the shuffled oids."""
        if mapping is None:
            self._mark_space(pos, side)
            return pos
        parts = []
        for shard, child in enumerate(self.children):
            local = partials.host_array(
                child, pos.parts[shard]
            ).astype(np.int64, copy=False)
            parts.append(oid_bat(mapping[shard][local].astype(OID_DTYPE),
                                 tag="shard_unshuffle"))
        self.release_intermediates((pos,))
        out = ShardedValue(parts, partitioned=True)
        out.space = CONCAT
        return out

    def _shuffle(self, value: ShardedValue, place):
        """The shuffle join's primitive: re-partition a key column by
        key value.  Returns the shuffled column (a new ShardedValue) and
        the per-shard global-oid arrays mapping shuffled rows back to
        the value's original concatenated layout.  Only rows that change
        shards are charged to the interconnect."""
        offsets = partials.offsets_of(self._counts(value))
        dest_keys: list[list] = [[] for _ in range(self.n_shards)]
        dest_oids: list[list] = [[] for _ in range(self.n_shards)]
        moved = 0
        moved_physical = 0
        dtype = None
        for shard, child in enumerate(self.children):
            part = value.parts[shard]
            keys = partials.host_array(child, part)
            dtype = keys.dtype if dtype is None else dtype
            # encoded key columns ship their moved rows in stored form;
            # approximate with the part's physical/nominal ratio (oids
            # travel at full width either way)
            part_physical = getattr(part, "physical_nbytes", None)
            key_ratio = (part_physical / keys.nbytes
                         if part_physical is not None and keys.nbytes
                         else 1.0)
            ids = place(keys)
            goids = partials.offset_positions(
                np.arange(keys.shape[0]), offsets[shard]
            )
            for dest in range(self.n_shards):
                mask = ids == dest
                if not mask.any():
                    continue
                moved_keys = keys[mask]
                moved_oids = goids[mask]
                dest_keys[dest].append(moved_keys)
                dest_oids[dest].append(moved_oids)
                if dest != shard:
                    moved += int(moved_keys.nbytes) \
                        + int(moved_oids.nbytes)
                    moved_physical += \
                        int(moved_keys.nbytes * key_ratio) \
                        + int(moved_oids.nbytes)
        self._charge_merge(moved, kind="shuffled",
                           physical_nbytes=moved_physical)
        parts, mapping = [], []
        for dest in range(self.n_shards):
            parts.append(make_bat(partials.concat(dest_keys[dest], dtype),
                                  tag="shard_shuffle"))
            mapping.append(partials.concat(dest_oids[dest], np.int64))
        return ShardedValue(parts, partitioned=True), mapping

    def _fan_membership(self, row, op: str, args):
        left, right = args[0], args[1]
        lkey, rkey = self._aligned_key(left), self._aligned_key(right)
        if self._needs_gather(right) and not (
            lkey and rkey and self.partitioner.co_located(lkey, rkey)
        ):
            # membership is against the *whole* right side; gather it
            # (key-aligned sides skip this: every member is local)
            args = [left, self._gather_rows(right)] + list(args[2:])
        out = self._fan(op, args, partitioned=self._needs_gather(left))
        self._mark_space(out, left)
        return out

    # -- protocol: result collection ---------------------------------------------------

    def collect_results(self, result_columns, resolve):
        return {
            name: self._collect_value(resolve(var))
            for name, var in result_columns
        }

    def _collect_value(self, value) -> np.ndarray:
        if not isinstance(value, ShardedValue):
            return np.atleast_1d(np.asarray(value))
        if value.merge is not None:
            if value.group is not None:
                merged = self._fold_grouped(value)
                self._charge_merge(int(merged.nbytes))
                return merged
            # each shard ships its scalar partial to the driver
            self._charge_merge(8 * self.n_shards)
            return np.atleast_1d(np.asarray(self._fold_scalar(value)))
        if not value.partitioned:
            return self.children[0].collect(value.parts[0])
        if not all(isinstance(part, BAT) for part in value.parts):
            raise UnsupportedOperator(
                "per-shard scalar without merge semantics reached the "
                "result set — the SHARD engine cannot fold it (e.g. "
                "hashbuild's distinct count is not additive across "
                "shards)"
            )
        arrays = [
            np.atleast_1d(partials.host_array(self.children[shard], part))
            for shard, part in enumerate(value.parts)
        ]
        merged = np.concatenate(arrays)
        self._charge_merge(
            int(merged.nbytes),
            physical_nbytes=self._physical_nbytes(value.parts, arrays),
        )
        return merged

    def collect(self, value):
        return self._collect_value(value)
