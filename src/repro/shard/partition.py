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
a **layout signature** (partitioned?, mode, key, band cuts, roster);
when a re-sync observes a changed signature — a key was declared, a DDL
widened a range domain, the roster moved — the table is dropped from
every shard and re-partitioned, so a stale layout can never satisfy a
co-partitioning check it no longer honours.

**Nodes and the roster.**  Catalogs belong to physical *nodes*, keyed
by node id (``self.nodes[node][k]``), and a node keeps its catalogs for
as long as it is in the cluster.  The layout is a **roster**: the node
ids holding data, in slot order — slot ``i`` is ``roster[i]``.  With
``replicas=R`` every slot keeps R identical copies, copy ``k`` of slot
``s`` on node ``roster[(s + k) % N]`` (chained declustering,
:meth:`host`), so a node failure never moves data — failover is purely
the backend's routing choice.  Changing the layout is assigning a new
roster and calling :meth:`sync`: the roster is part of every layout
signature, so every table re-slices in place over it, and a node off
the roster is left empty.  ``self.catalogs`` is the slots' primary
copies, which is what every layout check and test inspects.
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
    """Keeps the catalogs of a roster of nodes (x R copies) in sync
    with one parent."""

    def __init__(
        self,
        parent: Catalog,
        n_shards: int,
        mode: str = "range",
        min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
        shard_keys: "dict[str, str] | None" = None,
        use_declared_keys: bool = True,
        replicas: int = 1,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if mode not in ("range", "hash"):
            raise ValueError(f"unknown partition mode {mode!r}")
        if replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        self.parent = parent
        self.mode = mode
        #: the requested copies per slot; the layout keeps
        #: ``min(R, len(roster))`` of them (:attr:`replicas`)
        self._replicas = int(replicas)
        #: the requested replication floor; the layout raises it to the
        #: slot count (:attr:`min_partition_rows`)
        self._min_partition_rows = int(min_partition_rows)
        #: honour keys declared on the parent catalog (the ``keys=off``
        #: spec flag clears this: pure row-id placement, the PR-3 layout)
        self.use_declared_keys = use_declared_keys
        #: engine-local declarations (spec ``key=...`` params, inferred
        #: keys) — these override catalog-level declarations
        self._local_keys: dict[str, tuple[str, "str | None"]] = {
            table: (column, None)
            for table, column in (shard_keys or {}).items()
        }
        #: node id -> its catalogs; catalog ``k`` holds copy ``k`` of
        #: the slot :meth:`host` places there (a node off the roster,
        #: or a copy the layout does not keep, holds nothing)
        self.nodes: dict[int, list[Catalog]] = {}
        #: the node ids holding data, in slot order
        self.roster: tuple = tuple(range(n_shards))
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
        self.sync()

    def is_partitioned(self, table: str) -> bool:
        return self.partitioned.get(table, False)

    @property
    def n_shards(self) -> int:
        """How many slots the layout has (placement fan-out)."""
        return len(self.roster)

    @property
    def replicas(self) -> int:
        """Copies the layout keeps of every slot."""
        return min(self._replicas, len(self.roster))

    @property
    def min_partition_rows(self) -> int:
        """Below this row count a table is replicated to every slot."""
        return max(self._min_partition_rows, len(self.roster))

    def host(self, slot: int, copy: int = 0) -> int:
        """The node holding copy ``copy`` of ``slot``."""
        return self.roster[(slot + copy) % len(self.roster)]

    def copies(self, slot: int) -> list:
        """``slot``'s copy catalogs, the primary first; every one holds
        identical data."""
        return [self.nodes[self.host(slot, k)][k]
                for k in range(self.replicas)]

    @property
    def catalogs(self) -> list:
        """Every slot's primary copy, in slot order."""
        return [self.nodes[node][0] for node in self.roster]

    def _all_catalogs(self):
        for row in self.nodes.values():
            yield from row

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
            return lambda values: hash_placement(values, self.n_shards)
        boundaries = self.bands[domain]
        return lambda values: band_placement(values, boundaries)

    def default_placement(self, values: np.ndarray) -> np.ndarray:
        """Domain-free placement for ad-hoc shuffles (both-side hash
        re-partition of a join on undeclared columns)."""
        return hash_placement(values, self.n_shards)

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
        return [ids == shard for shard in range(self.n_shards)]

    def _slice(self, values: np.ndarray, shard: int) -> np.ndarray:
        n = values.shape[0]
        if self.mode == "hash":
            return values[shard::self.n_shards]
        lo = shard * n // self.n_shards
        hi = (shard + 1) * n // self.n_shards
        return values[lo:hi]

    def _signature(self, name: str, partition: bool) -> tuple:
        key = self.keys.get(name)
        bounds = self.domains.get(key[1]) if key else None
        cuts = None
        if key is not None and self.mode == "range":
            boundaries = self.bands.get(key[1])
            if boundaries is not None:
                cuts = tuple(boundaries.tolist())
        return (partition, self.mode, key, bounds, cuts, self.roster)

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
                self.bands[domain] = skew_bands(observed, self.n_shards)

    def _install_table(self, name: str) -> int:
        """(Re-)install one table's slices if its layout signature
        changed; returns the number of slots that received rows."""
        rows = self.parent.row_count(name)
        partition = rows >= self.min_partition_rows
        self.partitioned[name] = partition
        signature = self._signature(name, partition)
        if self._signatures.get(name) == signature:
            return 0
        for catalog in self._all_catalogs():
            if catalog.has_table(name):
                catalog.drop_table(name)
        self._signatures[name] = signature
        masks = self._slice_masks(name) if partition else None
        for slot in range(self.n_shards):
            columns = {}
            for column in self.parent.columns(name):
                values = self.parent.bat(name, column).values
                if not partition:
                    columns[column] = values
                elif masks is not None:
                    columns[column] = values[masks[slot]]
                else:
                    columns[column] = self._slice(values, slot)
            for catalog in self.copies(slot):
                catalog.create_table(name, columns)
        return self.n_shards

    def sync(self) -> int:
        """Bring every node's catalogs up to date with the parent over
        the current roster; returns how many slots received re-sliced
        rows of a table that was already installed (rows moved under
        whatever still reads the old slices).

        A node new to the roster gets its catalogs here.  New parent
        tables are partitioned or replicated per the size policy;
        dropped parent tables are dropped from every node (firing the
        per-node delete callbacks, so node-local device caches release
        their buffers).  A table whose layout signature changed — key
        declared, band cuts moved, partition policy flipped, roster
        changed — is dropped everywhere and re-partitioned, so slices
        always reflect the placement function the co-partitioning
        checks assume.  Both directions bump each child catalog's schema
        version.
        """
        for node in self.roster:
            row = self.nodes.setdefault(node, [])
            row.extend(Catalog() for _ in range(len(row), self.replicas))
        parent_tables = set(self.parent.tables())
        for catalog in self._all_catalogs():
            for stale in set(catalog.tables()) - parent_tables:
                catalog.drop_table(stale)
        for name in list(self.partitioned):
            if name not in parent_tables:
                del self.partitioned[name]
                self._signatures.pop(name, None)
        installed = set(self._signatures)
        self._refresh_layout(parent_tables)
        moved = 0
        for name in self.parent.tables():
            fresh = self._install_table(name)
            if name in installed:
                moved += fresh
        return moved
