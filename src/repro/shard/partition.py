"""Table partitioning across shard catalogs.

Each shard of the sharded engine is an independent single-node database:
it has its *own* :class:`~repro.monetdb.storage.Catalog` holding its
slice of every partitioned table (and a full copy of every replicated
one).  Positions, selections and joins inside a shard are therefore
plain shard-local operations — exactly the model of a cluster of
column-store nodes (Hespe et al.: partition the big table, replicate the
small ones, keep the merge cheap).

Row assignment, in order of precedence:

* **shard key** — a table with a declared shard key places each row by
  its *key value*.  Keys live in named **domains** (``l_orderkey`` and
  ``o_orderkey`` both default to domain ``"orderkey"``): every table
  keyed in one domain uses the *same* value-to-shard function, so equal
  keys land on equal shards across tables — the tables co-partition and
  equi-joins on the key run entirely shard-local.  In ``hash`` mode the
  function is a 64-bit mix of the key value modulo N; in ``range`` mode
  it is N value bands over the domain's *observed key histogram* (the
  union across all member tables, so the bands agree).  Bands are cut at
  weighted medians of the histogram, recursively splitting the heaviest
  band — a skewed domain still fills every shard as long as it has at
  least N distinct keys, instead of folding its load onto one band and
  leaving the rest empty.
* ``range`` (default, no key) — shard *s* holds the contiguous row range
  ``[s*n/N, (s+1)*n/N)``.  Concatenating per-shard rows in shard order
  reproduces the global base order, so even order-sensitive results
  match single-node execution exactly.
* ``hash`` (no key) — round-robin on the row id (row *i* lives on shard
  ``i % N``).  Row *sets* are preserved but unordered result row *order*
  may differ from single-node execution (as it does for keyed tables).

Tables with fewer than ``min_partition_rows`` rows are **replicated**
to every shard: dimension tables must be joinable everywhere without a
shuffle.  DDL on the parent database re-syncs every shard catalog
(creating/dropping per-shard tables bumps each child's schema version,
which is what invalidates per-shard cached state).  Every table carries
a **layout signature** (partitioned?, mode, key, band cuts, N); when a
re-sync observes a changed signature — a key was declared, a DDL
widened a range domain — the table is dropped from every shard and
re-partitioned, so a stale layout can never satisfy a co-partitioning
check it no longer honours.

**Replicas.**  With ``replicas=R`` every key-range slot keeps R
identical copy catalogs (``self.copies[slot]``); the backend maps copy
``k`` of slot ``s`` onto physical node ``(s + k) % N`` (chained
declustering) and routes reads between them.  The partitioner installs
the same slice into every copy, so a node failure never moves data —
failover is purely the backend's routing choice.  ``self.catalogs``
remains the list of primary copies, which is what every layout check
and test inspects.

**Online re-sharding.**  A partitioner built with ``eager=False`` stays
empty until :meth:`begin_migration`; :meth:`migrate_step` then installs
tables one at a time, so the backend can move key ranges incrementally
at query boundaries while in-flight work drains against the old layout.
"""

from __future__ import annotations

import numpy as np

from ..monetdb.storage import Catalog, default_key_domain

#: below this row count a table is replicated to every shard rather
#: than partitioned (dimension tables join locally without a shuffle)
DEFAULT_MIN_PARTITION_ROWS = 256


def hash_placement(values: np.ndarray, n_shards: int) -> np.ndarray:
    """Value -> shard id by a 64-bit finalizer mix, modulo ``n_shards``.

    Depends only on the value (not the table or the row position), so
    any two columns placed through it co-partition.  Floats truncate to
    int64 first — equal values still collide onto one shard, which is
    all placement needs."""
    v = np.asarray(values)
    if v.dtype.kind not in "iuf":
        raise ValueError(
            f"shard keys must be numeric, got dtype {v.dtype}"
        )
    with np.errstate(over="ignore"):
        h = v.astype(np.int64, copy=False).view(np.uint64)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
        return (h % np.uint64(n_shards)).astype(np.int64)


def skew_bands(values: np.ndarray, n_bands: int) -> np.ndarray:
    """Histogram-aware band boundaries: ``min(n_bands, n_distinct)``
    non-empty value bands over the observed keys.

    Starts from one band covering every distinct key and repeatedly
    splits the heaviest band at its weighted median, so a hot key range
    spreads over many shards while the cold tail shares the rest — the
    fix for skewed domains folding onto a single equal-width band.
    Returns the inclusive upper boundary of each band but the last
    (``n_bands - 1`` cuts); an empty result means one all-covering
    band."""
    uniq, counts = np.unique(
        np.asarray(values).astype(np.float64, copy=False),
        return_counts=True,
    )
    if uniq.size == 0:
        return np.empty(0, dtype=np.float64)
    want = min(int(n_bands), int(uniq.size))
    # bands are half-open index ranges [lo, hi) into ``uniq``
    bands = [(0, int(uniq.size))]
    cum = np.concatenate(([0], np.cumsum(counts)))
    while len(bands) < want:
        heaviest, weight = None, -1
        for i, (lo, hi) in enumerate(bands):
            if hi - lo < 2:
                continue            # one distinct key: cannot split
            if cum[hi] - cum[lo] > weight:
                heaviest, weight = i, cum[hi] - cum[lo]
        if heaviest is None:
            break
        lo, hi = bands.pop(heaviest)
        target = (cum[lo] + cum[hi]) / 2.0
        cut = int(np.searchsorted(cum[lo + 1:hi], target, side="left"))
        cut = min(max(cut + lo + 1, lo + 1), hi - 1)
        bands.extend([(lo, cut), (cut, hi)])
    bands.sort()
    return np.array(
        [uniq[hi - 1] for (lo, hi) in bands[:-1]], dtype=np.float64
    )


def band_placement(values: np.ndarray,
                   boundaries: np.ndarray) -> np.ndarray:
    """Value -> band id against :func:`skew_bands` boundaries.

    Boundary ``i`` is the inclusive upper edge of band ``i``; any value
    above the last boundary lands in the final band, so placement stays
    total for probe-side keys never seen in the domain histogram."""
    v = np.asarray(values).astype(np.float64, copy=False)
    return np.searchsorted(
        np.asarray(boundaries, dtype=np.float64), v, side="left"
    ).astype(np.int64)


class ShardPartitioner:
    """Keeps N shard catalogs (x R copies) in sync with one parent."""

    def __init__(
        self,
        parent: Catalog,
        n_shards: int,
        mode: str = "range",
        min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
        shard_keys: "dict[str, str] | None" = None,
        use_declared_keys: bool = True,
        replicas: int = 1,
        eager: bool = True,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if mode not in ("range", "hash"):
            raise ValueError(f"unknown partition mode {mode!r}")
        if not 1 <= replicas <= n_shards:
            raise ValueError(
                f"replicas must be in 1..{n_shards}, got {replicas}"
            )
        self.parent = parent
        self.n_shards = n_shards
        self.mode = mode
        self.replicas = replicas
        self.min_partition_rows_raw = int(min_partition_rows)
        self.min_partition_rows = max(int(min_partition_rows), n_shards)
        #: honour keys declared on the parent catalog (the ``keys=off``
        #: spec flag clears this: pure row-id placement, the PR-3 layout)
        self.use_declared_keys = use_declared_keys
        #: engine-local declarations (spec ``key=...`` params, inferred
        #: keys) — these override catalog-level declarations
        self._local_keys: dict[str, tuple[str, "str | None"]] = {
            table: (column, None)
            for table, column in (shard_keys or {}).items()
        }
        #: ``copies[slot][k]`` — copy ``k`` of slot ``slot``'s slice;
        #: every copy in a row holds identical data
        self.copies = [
            [Catalog() for _ in range(replicas)]
            for _ in range(n_shards)
        ]
        #: the primary copies — the list every layout check inspects
        self.catalogs = [row[0] for row in self.copies]
        #: physical shard ids currently holding data, in logical order;
        #: the circuit-breaker board shrinks this to route around a sick
        #: node (:meth:`set_active`) and restores it on recovery
        self.active: tuple = tuple(range(n_shards))
        #: table -> True if partitioned, False if replicated
        self.partitioned: dict[str, bool] = {}
        #: effective keys this sync: table -> (column, domain)
        self.keys: dict[str, tuple[str, str]] = {}
        #: domain -> (min, max) over every member table's key column
        self.domains: dict[str, tuple[float, float]] = {}
        #: domain -> skew-aware band boundaries (range mode only)
        self.bands: dict[str, np.ndarray] = {}
        #: table -> layout signature of the slices currently installed
        self._signatures: dict[str, tuple] = {}
        #: tables still to install during a staged migration
        self._pending_tables: "list[str] | None" = None
        if eager:
            self.sync()

    def is_partitioned(self, table: str) -> bool:
        return self.partitioned.get(table, False)

    @property
    def n_active(self) -> int:
        """How many shards currently hold data (placement fan-out)."""
        return len(self.active)

    def _all_catalogs(self):
        for row in self.copies:
            yield from row

    def set_active(self, active) -> None:
        """Re-partition every table over the given physical shards.

        ``active`` is the physical shard ids (in logical order) that
        should hold data; excluded shards are emptied.  Changing the
        active set changes every table's layout signature, so the next
        :meth:`sync` (run immediately) drops and re-slices everything —
        route-around is a full re-partition, exactly what an
        unreplicated cluster must pay to shed a dead node.  (With
        ``replicas > 1`` the backend never calls this on failure: the
        ranges are already resident elsewhere and failover is a pure
        routing change.)"""
        active = tuple(active)
        if not active:
            raise ValueError("need at least one active shard")
        if sorted(set(active)) != sorted(active) or not all(
                0 <= p < self.n_shards for p in active):
            raise ValueError(f"bad active shard set {active!r}")
        self.active = active
        self.sync()

    # -- shard keys ----------------------------------------------------------

    def declare_key(self, table: str, column: str,
                    domain: "str | None" = None,
                    sync: bool = True) -> None:
        """Declare a shard key locally (spec param / inferred key).

        Takes effect on the next :meth:`sync` (immediately by default):
        the table's layout signature changes, so its shard slices are
        re-partitioned by key value."""
        self._local_keys[table] = (column, domain)
        if sync:
            self.sync()

    def key_of(self, table: str) -> "tuple[str, str] | None":
        """``(column, domain)`` the table is currently partitioned by."""
        if not self.partitioned.get(table, False):
            return None
        return self.keys.get(table)

    def is_key_aligned(self, table: str, column: str) -> bool:
        """Whether ``table`` is partitioned by exactly ``column``."""
        key = self.key_of(table)
        return key is not None and key[0] == column

    def co_located(self, left: "tuple[str, str]",
                   right: "tuple[str, str]") -> bool:
        """Whether an equi-join on these ``(table, column)`` sides is
        fully shard-local: both tables partitioned by exactly those
        columns, in one shared key domain (same placement function)."""
        lkey = self.key_of(left[0])
        rkey = self.key_of(right[0])
        return (
            lkey is not None and rkey is not None
            and lkey[0] == left[1] and rkey[0] == right[1]
            and lkey[1] == rkey[1]
        )

    def key_placement(self, domain: str):
        """The value-to-shard function of one key domain."""
        if self.mode == "hash":
            return lambda values: hash_placement(values, self.n_active)
        boundaries = self.bands[domain]
        return lambda values: band_placement(values, boundaries)

    def default_placement(self, values: np.ndarray) -> np.ndarray:
        """Domain-free placement for ad-hoc shuffles (both-side hash
        re-partition of a join on undeclared columns)."""
        return hash_placement(values, self.n_active)

    def _effective_keys(self, parent_tables) -> dict:
        declared: dict[str, tuple[str, "str | None"]] = {}
        if self.use_declared_keys:
            declared.update(self.parent.shard_keys)
        declared.update(self._local_keys)
        keys: dict[str, tuple[str, str]] = {}
        for table, (column, domain) in declared.items():
            if table not in parent_tables:
                continue
            if column not in self.parent.columns(table):
                raise ValueError(
                    f"shard key {table}.{column}: no such column"
                )
            keys[table] = (column, domain or default_key_domain(column))
        return keys

    # -- row assignment ------------------------------------------------------

    def _slice_masks(self, name: str) -> "list | None":
        """Per-shard row masks for a keyed table (None = unkeyed)."""
        key = self.keys.get(name)
        if key is None:
            return None
        column, domain = key
        values = self.parent.bat(name, column).values
        ids = self.key_placement(domain)(values)
        return [ids == shard for shard in range(self.n_active)]

    def _slice(self, values: np.ndarray, shard: int) -> np.ndarray:
        n = values.shape[0]
        if self.mode == "hash":
            return values[shard::self.n_active]
        lo = shard * n // self.n_active
        hi = (shard + 1) * n // self.n_active
        return values[lo:hi]

    def _signature(self, name: str, partition: bool) -> tuple:
        key = self.keys.get(name)
        bounds = self.domains.get(key[1]) if key else None
        cuts = None
        if key is not None and self.mode == "range":
            boundaries = self.bands.get(key[1])
            if boundaries is not None:
                cuts = tuple(boundaries.tolist())
        return (partition, self.mode, key, bounds, cuts, self.active)

    # -- synchronisation -----------------------------------------------------

    def _refresh_layout(self, parent_tables) -> None:
        """Recompute keys, domain bounds and range-band boundaries."""
        self.keys = self._effective_keys(parent_tables)
        for name in list(self.keys):
            rows = self.parent.row_count(name)
            if rows < self.min_partition_rows:
                del self.keys[name]     # replicated: key is irrelevant
        self.domains = {}
        members: dict[str, list] = {}
        for name, (column, domain) in self.keys.items():
            values = self.parent.bat(name, column).values
            if values.dtype.kind not in "iuf":
                raise ValueError(
                    f"shard key {name}.{column} must be numeric, "
                    f"got dtype {values.dtype}"
                )
            lo = float(values.min()) if values.size else 0.0
            hi = float(values.max()) if values.size else 0.0
            have = self.domains.get(domain)
            if have is not None:
                lo, hi = min(lo, have[0]), max(hi, have[1])
            self.domains[domain] = (lo, hi)
            if self.mode == "range":
                members.setdefault(domain, []).append(values)
        self.bands = {}
        if self.mode == "range":
            for domain, arrays in members.items():
                observed = np.concatenate(
                    [np.asarray(a, dtype=np.float64) for a in arrays]
                )
                self.bands[domain] = skew_bands(observed, self.n_active)

    def _install_table(self, name: str) -> int:
        """(Re-)install one table's slices; returns the number of
        logical slots that received fresh data (ranges moved)."""
        rows = self.parent.row_count(name)
        partition = rows >= self.min_partition_rows
        self.partitioned[name] = partition
        signature = self._signature(name, partition)
        if self._signatures.get(name) != signature:
            for catalog in self._all_catalogs():
                if catalog.has_table(name):
                    catalog.drop_table(name)
        self._signatures[name] = signature
        for phys in set(range(self.n_shards)) - set(self.active):
            for catalog in self.copies[phys]:
                if catalog.has_table(name):
                    catalog.drop_table(name)
        masks = self._slice_masks(name) if partition else None
        installed = 0
        for shard, phys in enumerate(self.active):
            columns = None
            fresh = False
            for catalog in self.copies[phys]:
                if catalog.has_table(name):
                    continue
                if columns is None:
                    columns = {}
                    for column in self.parent.columns(name):
                        values = self.parent.bat(name, column).values
                        if not partition:
                            columns[column] = values
                        elif masks is not None:
                            columns[column] = values[masks[shard]]
                        else:
                            columns[column] = self._slice(values, shard)
                catalog.create_table(name, columns)
                fresh = True
            if fresh:
                installed += 1
        return installed

    def sync(self) -> bool:
        """Bring every shard catalog up to date with the parent; returns
        whether a table that was already installed got re-sliced (rows
        moved under whatever still reads the old slices).

        New parent tables are partitioned or replicated per the size
        policy; dropped parent tables are dropped from every shard
        (firing the per-shard delete callbacks, so shard-local device
        caches release their buffers).  A table whose layout signature
        changed — key declared, band cuts moved, partition policy
        flipped — is dropped and re-partitioned, so shard slices always
        reflect the placement function the co-partitioning checks
        assume.  Both directions bump each child catalog's schema
        version.
        """
        parent_tables = set(self.parent.tables())
        for catalog in self._all_catalogs():
            for stale in set(catalog.tables()) - parent_tables:
                catalog.drop_table(stale)
        for name in list(self.partitioned):
            if name not in parent_tables:
                del self.partitioned[name]
                self._signatures.pop(name, None)
        installed = dict(self._signatures)
        self._refresh_layout(parent_tables)
        for name in self.parent.tables():
            self._install_table(name)
        self._pending_tables = None
        return any(self._signatures[name] != signature
                   for name, signature in installed.items())

    # -- staged migration (online re-sharding) -------------------------------

    def begin_migration(self) -> None:
        """Prepare an incremental :meth:`sync`: compute the new layout
        now, but defer installing tables to :meth:`migrate_step` calls
        (one per query boundary), so a resize proceeds while queries
        keep running against the old partitioner."""
        parent_tables = set(self.parent.tables())
        self._refresh_layout(parent_tables)
        self._pending_tables = sorted(parent_tables)

    def migrate_step(self, tables: int = 1) -> int:
        """Install up to ``tables`` pending tables; returns how many
        logical key-range slots received data."""
        moved = 0
        while tables > 0 and self._pending_tables:
            name = self._pending_tables.pop(0)
            moved += self._install_table(name)
            tables -= 1
        return moved

    @property
    def migration_done(self) -> bool:
        """True once a started migration has installed every table."""
        return (
            self._pending_tables is not None
            and not self._pending_tables
        )
