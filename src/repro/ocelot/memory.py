"""Ocelot's Memory Manager (paper §3.3).

The storage interface between Ocelot and MonetDB: BATs live in host
memory, kernels operate on ``cl_mem`` buffers.  The Memory Manager

* keeps a **registry** of device buffers for BATs — requesting a BAT
  returns the cached buffer or allocates + transfers a new one (a
  zero-copy mapping on unified-memory devices like the CPU),
* acts as a **device cache**: on allocation failure it frees resources
  automatically — first evicting cached base-BAT copies in LRU order
  (their master lives in host memory), then *offloading* intermediate
  buffers to the host (they contain computed content and must be copied
  back when needed), giving preference to auxiliary structures such as
  hash tables before result buffers — and dropping, rather than
  offloading, what no BAT could ask back (a cached hash table is
  rebuilt, never restored),
* uses **reference counting (pins)** so buffers in use are never evicted,
* **links result buffers to BATs** so operators can pass device references
  through MonetDB's BAT-based calling interface, and
* implements the **sync** hand-over: waiting on producer events and
  transferring/mapping the buffer back to the host (bitmap results are
  transparently materialised into oid lists first — done by the sync
  operator, which owns the kernels).

It also hosts the cache of built hash tables for base-table columns the
paper mentions in §5.2.6.

**Ownership** (who frees what, and when).  Every entry has exactly one
of three lifetimes, so the resident set is bounded by the queries *in
flight*, not the queries served:

* **operator scratch** — a non-BASE buffer allocated inside an
  :meth:`MemoryManager.operator_scope` that is neither linked to a BAT
  (:meth:`~MemoryManager.link_result`), nor cached
  (:meth:`~MemoryManager.cache_hash_table`), nor kept
  (:meth:`~MemoryManager.keep`) dies when the scope exits, on success
  and on failure alike;
* **query-owned** — everything else allocated while a query has claimed
  the manager (:attr:`MemoryManager.owner`, set by the interpreter's
  ``ProgramRun`` around every step) dies in
  :meth:`~MemoryManager.end_query`: result columns' device copies,
  uploads of host temporaries, bitmap oid views.  A BAT recycled
  earlier (the liveness pass) frees its entry earlier;
* **caches** — uploads of base columns and §5.2.6 hash tables of base
  columns belong to no query; they live until evicted, until their
  column is dropped, or until :meth:`~MemoryManager.shutdown`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..cl import Buffer, CommandQueue, Context, OutOfDeviceMemory
from ..monetdb.bat import BAT
from ..monetdb.storage import Catalog

if TYPE_CHECKING:  # pragma: no cover
    pass


class BufferKind(enum.Enum):
    BASE = "base"        # device copy of a host-resident base BAT
    RESULT = "result"    # operator output linked to an Ocelot-owned BAT
    AUX = "aux"          # auxiliary structure (hash tables, ...)


#: eviction order of the kinds (see :meth:`MemoryManager._free_some`)
_EVICTION_ORDER = (BufferKind.BASE, BufferKind.AUX, BufferKind.RESULT)


class OcelotOOM(MemoryError):
    """Nothing evictable remains and the allocation still does not fit.

    This is what ends the GPU line in the paper's figures ("if a line for
    GPU measurements ends midway, we reached the device memory limit").
    """


@dataclass(slots=True)
class CacheEntry:
    entry_id: int
    kind: BufferKind
    tag: str
    buffer: Buffer | None = None          # None while offloaded / evicted
    host_copy: np.ndarray | None = None   # offloaded contents
    pins: int = 0
    bat_id: int | None = None             # for BASE entries
    bat: BAT | None = None                # the BAT carrying ``device_ref``
    free_pending: bool = False            # released while pinned elsewhere
    intermediate: bool = False            # counted in intermediates stats
    counted_nbytes: int = 0               # nominal bytes counted as such
    counted_nbytes_physical: int = 0      # raw in-process bytes ditto
    owner: object = None                  # the query it dies with, if any
    lru: dict | None = None               # its kind's eviction order

    @property
    def resident(self) -> bool:
        return self.buffer is not None and not self.buffer.released

    @property
    def evictable(self) -> bool:
        return self.pins == 0 and self.resident


@dataclass
class MemoryManagerStats:
    """Per-device memory-manager counters.

    ``manager.stats`` is the live per-device storage; ``mm.*`` in
    ``Connection.metrics`` is :meth:`QueryMemory.counters` over every
    device the engine owns."""

    evictions: int = 0
    offloads: int = 0
    restores: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    hash_cache_hits: int = 0
    hash_cache_misses: int = 0
    #: result/aux buffers allocated while an operator scope was active —
    #: the per-operator materialisation traffic that operator fusion
    #: (repro.fuse) eliminates; base-column uploads are not counted
    intermediates_allocated: int = 0
    #: intermediate buffers freed again — anywhere between allocation
    #: and connection shutdown; the morsel executor's last-use release
    #: (repro.morsel) shows up here, as does within-scope scratch
    intermediates_freed: int = 0
    #: nominal bytes currently held by intermediate buffers, and the
    #: high-water mark — the "peak intermediate footprint" that
    #: morsel-driven execution keeps morsel-sized instead of
    #: column-sized
    intermediate_bytes: int = 0
    intermediate_bytes_peak: int = 0
    #: the same footprint in raw (in-process, unscaled) bytes.  Under
    #: compressed execution (repro.compress) operators run over narrow
    #: code payloads, so the physical footprint can sit well below what
    #: the same plan over plain columns would allocate — this pair is
    #: how that gap is observed
    intermediate_bytes_physical: int = 0
    intermediate_bytes_physical_peak: int = 0


class MemoryManager:
    """Device-buffer registry with LRU eviction and host offloading."""

    def __init__(self, context: Context, queue: CommandQueue, catalog: Catalog):
        self.context = context
        self.queue = queue
        self.catalog = catalog
        self._entries: dict[int, CacheEntry] = {}
        self._bat_entries: dict[int, int] = {}       # bat_id -> entry_id
        self._buffer_entries: dict[int, CacheEntry] = {}  # buffer_id -> entry
        #: per kind in eviction order, its resident entries least recently
        #: used first (entry_id -> entry; a use moves an entry to the end)
        self._lru: dict[BufferKind, dict[int, CacheEntry]] = {
            kind: {} for kind in _EVICTION_ORDER
        }
        self._hash_cache: dict[tuple, dict] = {}     # base-BAT hash tables
        self._ids = itertools.count(1)
        self.stats = MemoryManagerStats()
        #: the query every new entry belongs to (see :meth:`end_query`);
        #: ``None`` between queries — what is allocated then is freed by
        #: whoever allocated it, or at shutdown
        self.owner: object = None
        #: buffers auto-pinned for the duration of the running operator
        self._scope_stack: list[list[Buffer]] = []
        #: per active operator scope, the entries allocated inside it
        #: that are still the operator's scratch (freed at scope exit)
        self._scope_allocs: list[set[int]] = []
        catalog.on_delete(self._on_bat_deleted)

    # -- operator scopes (automatic reference counting, paper §3.3) -------

    class _OperatorScope:
        def __init__(self, manager: "MemoryManager"):
            self.manager = manager

        def __enter__(self):
            self.manager._scope_stack.append([])
            self.manager._scope_allocs.append(set())
            return self

        def __exit__(self, exc_type, exc, tb):
            # Teardown must not mask an exception already unwinding out of
            # the operator: unpin every scope pin first, remember the first
            # imbalance, and only raise it when the operator itself
            # succeeded.
            imbalance: RuntimeError | None = None
            manager = self.manager
            scope = manager._scope_stack.pop()
            scratch = manager._scope_allocs.pop()
            for buffer in scope:
                try:
                    manager.unpin(buffer)
                except RuntimeError as err:
                    if imbalance is None:
                        imbalance = err
            # what the operator allocated and neither returned (linked
            # to a BAT), cached nor kept cannot be reached again
            for entry_id in scratch:
                entry = manager._entries.get(entry_id)
                if entry is not None and entry.pins == 0:
                    manager._free_entry(entry)
            if imbalance is not None and exc_type is None:
                raise imbalance
            return False

    def operator_scope(self) -> "_OperatorScope":
        """Pin every buffer touched until exit — operators never lose
        their working set to the eviction policy mid-flight — and free
        the operator's scratch on the way out."""
        return MemoryManager._OperatorScope(self)

    def _escapes(self, entry: CacheEntry) -> None:
        """``entry`` outlives the operator that allocated it."""
        for frame in self._scope_allocs:
            frame.discard(entry.entry_id)

    def keep(self, buffer: Buffer) -> None:
        """Let an unlinked buffer outlive the running operator (a bitmap
        BAT's materialised oid view): it now dies with its query."""
        entry = self._entry_for_buffer(buffer)
        if entry is not None:
            self._escapes(entry)

    def _scope_pin(self, buffer: Buffer, entry: CacheEntry | None) -> None:
        """Pin ``buffer`` — registered here as ``entry``, ``None`` when it
        is not this manager's — into the running operator's scope."""
        if self._scope_stack:
            if entry is not None:
                entry.pins += 1
            self._scope_stack[-1].append(buffer)

    def scope_pin(self, buffer: Buffer) -> None:
        """Pin a cached buffer into the running operator's scope (cache
        hits hand out buffers that must survive subsequent allocations)."""
        self._scope_pin(buffer, self._entry_for_buffer(buffer))

    # -- BAT <-> buffer registry -------------------------------------------------

    def buffer_for_bat(self, bat: BAT) -> Buffer:
        """Device buffer holding ``bat``'s tail, transferring if needed."""
        # Ocelot-owned BATs carry their buffer reference directly.
        ref = bat.device_ref
        if ref is not None and not ref.released:
            entry = self._entry_for_buffer(ref)
            if entry is not None:
                self._touch(entry)
            self.stats.cache_hits += 1
            self._scope_pin(ref, entry)
            return ref

        entry_id = self._bat_entries.get(bat.bat_id)
        if entry_id is not None:
            entry = self._entries[entry_id]
            if entry.resident:
                self._touch(entry)
                self.stats.cache_hits += 1
                self._scope_pin(entry.buffer, entry)
                return entry.buffer
            # evicted base copy or offloaded result: restore below
            return self._restore(entry, bat)

        # First request: allocate and upload.
        self.stats.cache_misses += 1
        values = bat.peek_values()
        if values is None:
            raise OcelotOOM(
                f"BAT {bat.tag!r} has neither host values nor a device buffer"
            )
        buffer = self.allocate_like(values, BufferKind.BASE, tag=bat.tag)
        self.queue.enqueue_write(buffer, values)
        entry = self._entry_for_buffer(buffer)
        entry.bat_id = bat.bat_id
        entry.bat = bat
        if bat.is_base:
            # a base column's device copy is a cache, not the query's;
            # the upload of a host temporary dies with the query
            entry.owner = None
        self._bat_entries[bat.bat_id] = entry.entry_id
        return buffer

    def link_result(self, bat: BAT, buffer: Buffer) -> BAT:
        """Attach an operator's result buffer to a (new) BAT and hand the
        BAT to Ocelot (paper §3.3: operators return a newly created BAT
        linked with the generated result buffer)."""
        entry = self._entry_for_buffer(buffer)
        if entry is None:
            raise ValueError(f"buffer {buffer.tag!r} is not registry-managed")
        entry.bat_id = bat.bat_id
        entry.bat = bat
        self._escapes(entry)
        self._bat_entries[bat.bat_id] = entry.entry_id
        bat.device_ref = buffer
        bat.give_to_ocelot()
        return bat

    # -- allocation with automatic freeing ----------------------------------------

    def allocate(self, shape, dtype, kind: BufferKind = BufferKind.RESULT,
                 tag: str = "", zeroed: bool = False) -> Buffer:
        """Allocate a device buffer, evicting/offloading until it fits."""
        dtype = np.dtype(dtype)
        maker = self.context.zeros if zeroed else self.context.empty
        while True:
            try:
                buffer = maker(shape, dtype, tag=tag)
                break
            except OutOfDeviceMemory as exc:
                if not self._free_some():
                    raise OcelotOOM(
                        f"cannot allocate {tag!r}: {exc}; nothing evictable"
                    ) from exc
        entry_id = next(self._ids)
        entry = CacheEntry(
            entry_id, kind, tag, buffer, owner=self.owner,
            lru=self._lru[kind],
        )
        self._entries[entry_id] = entry
        self._buffer_entries[buffer.buffer_id] = entry
        entry.lru[entry_id] = entry
        if self._scope_allocs and kind is not BufferKind.BASE:
            # an operator allocated working storage: this is exactly the
            # per-operator materialisation traffic fusion eliminates
            # (and morsel-driven execution keeps morsel-sized)
            stats = self.stats
            stats.intermediates_allocated += 1
            self._scope_allocs[-1].add(entry_id)
            entry.intermediate = True
            entry.counted_nbytes = nominal = buffer.nominal_nbytes
            entry.counted_nbytes_physical = physical = buffer.nbytes
            stats.intermediate_bytes += nominal
            if stats.intermediate_bytes > stats.intermediate_bytes_peak:
                stats.intermediate_bytes_peak = stats.intermediate_bytes
            stats.intermediate_bytes_physical += physical
            if (stats.intermediate_bytes_physical
                    > stats.intermediate_bytes_physical_peak):
                stats.intermediate_bytes_physical_peak = (
                    stats.intermediate_bytes_physical
                )
        self._scope_pin(buffer, entry)
        return buffer

    def allocate_like(self, array: np.ndarray, kind: BufferKind,
                      tag: str = "") -> Buffer:
        return self.allocate(array.shape, array.dtype, kind, tag)

    def allocate_filled(self, array: np.ndarray, kind: BufferKind,
                        tag: str = "") -> Buffer:
        """Allocate and upload ``array`` (transfer charged)."""
        buffer = self.allocate_like(array, kind, tag)
        self.queue.enqueue_write(buffer, array)
        return buffer

    def release(self, buffer: Buffer) -> None:
        """Drop a temporary buffer from device and registry.

        Releasing only gives up the *caller's* interest: pins held by the
        current operator scope on behalf of the caller are unwound, but a
        buffer still pinned elsewhere (another operator's working set, an
        explicit :meth:`pin`) is never yanked out from under that user —
        the free is deferred until the last pin drops.
        """
        entry = self._entry_for_buffer(buffer)
        if entry is None:
            if not buffer.released:
                buffer.release()
            return
        if self._scope_stack:
            scope = self._scope_stack[-1]
            while buffer in scope and entry.pins > 0:
                scope.remove(buffer)
                entry.pins -= 1
        if entry.pins > 0:
            entry.free_pending = True
            return
        self._free_entry(entry)

    def shutdown(self) -> None:
        """Terminal release of every entry (connection close).

        Pins are moot — no operator can be in flight on a connection
        being closed — so everything is freed unconditionally, and the
        manager unsubscribes from the catalog's delete notifications so
        a closed connection leaves no dangling callbacks behind.
        """
        for entry in list(self._entries.values()):
            self._free_entry(entry)
        self._hash_cache.clear()
        self.catalog.off_delete(self._on_bat_deleted)

    def end_query(self, owner) -> None:
        """Free everything ``owner`` allocated and still holds.

        Called once per query — finished, failed or cancelled — after
        its results were synced to the host.  No operator of that query
        can be in flight, so pins are moot, as in :meth:`shutdown`;
        caches (base uploads, base hash tables) have no owner and stay.
        """
        for entry in [e for e in self._entries.values() if e.owner is owner]:
            self._free_entry(entry)
        if self.owner is owner:
            self.owner = None

    def _free_entry(self, entry: CacheEntry) -> None:
        """Unconditionally drop an entry and its device storage."""
        if entry.intermediate:
            # counted at allocation; the free may happen inside the
            # allocating scope (scratch), at a later last use (liveness
            # release, morsel streaming) or at end of query
            entry.intermediate = False
            self.stats.intermediates_freed += 1
            self.stats.intermediate_bytes -= entry.counted_nbytes
            self.stats.intermediate_bytes_physical -= (
                entry.counted_nbytes_physical
            )
        for frame in self._scope_allocs:
            if entry.entry_id in frame:
                frame.discard(entry.entry_id)
                break
        buffer = entry.buffer
        self._entries.pop(entry.entry_id, None)
        entry.lru.pop(entry.entry_id, None)
        if buffer is not None:
            self._buffer_entries.pop(buffer.buffer_id, None)
        if (entry.bat_id is not None
                and self._bat_entries.get(entry.bat_id) == entry.entry_id):
            self._bat_entries.pop(entry.bat_id, None)
        if buffer is not None and not buffer.released:
            buffer.release()

    # -- pinning (reference counting, paper §3.3) ------------------------------------

    def pin(self, buffer: Buffer) -> None:
        """Hold ``buffer`` resident until :meth:`unpin` (a hot set kept
        across queries); an operator's working set needs no call, its
        :meth:`operator_scope` pins it."""
        entry = self._entry_for_buffer(buffer)
        if entry is not None:
            entry.pins += 1

    def unpin(self, buffer: Buffer) -> None:
        entry = self._entry_for_buffer(buffer)
        if entry is not None:
            if entry.pins <= 0:
                raise RuntimeError(f"unbalanced unpin of {buffer.tag!r}")
            entry.pins -= 1
            if entry.pins == 0 and entry.free_pending:
                # a release() arrived while the buffer was pinned; the
                # deferred free happens now that the last user is gone
                self._free_entry(entry)

    # -- eviction / offloading ---------------------------------------------------------

    def _free_some(self) -> bool:
        """Free one buffer; paper §3.3 policy, least recently used first
        within each tier (the first unpinned resident entry of its
        ``_lru`` order):

        0. evict cached base-BAT copies — master is in host memory;
        1. offload auxiliary structures (hash tables) to the host;
        2. offload result/intermediate buffers to the host.

        Only a BAT can ask for offloaded contents back
        (:meth:`_restore`), so a victim no BAT is linked to — a cached
        hash table's part, a bitmap's oid view — is dropped like a base
        copy instead: its owner notices and rebuilds, and a host copy
        would be paid for and kept for nobody.
        """
        victim = next(
            (e for order in self._lru.values() for e in order.values()
             if e.evictable),
            None,
        )
        if victim is None:
            return False
        if victim.kind is BufferKind.BASE:
            self._evict(victim)
        elif victim.bat is None:
            self.stats.evictions += 1
            self._free_entry(victim)
        else:
            self._offload(victim)
        return True

    def _evict(self, entry: CacheEntry) -> None:
        """Drop a base-BAT device copy (host master still exists)."""
        self.stats.evictions += 1
        buffer = entry.buffer
        self._buffer_entries.pop(buffer.buffer_id, None)
        entry.lru.pop(entry.entry_id, None)
        if entry.bat is not None and entry.bat.device_ref is buffer:
            # Clear the BAT's direct device_ref so the next request goes
            # through the registry and re-uploads instead of dereferencing
            # a released buffer.
            entry.bat.device_ref = None
        buffer.release()
        entry.buffer = None

    def _offload(self, entry: CacheEntry) -> None:
        """Move computed contents to the host, freeing device storage.

        The paper: "we cannot simply drop these buffers, as they contain
        computed content; we offload them to the host and copy them back
        when needed."
        """
        self.stats.offloads += 1
        buffer = entry.buffer
        host, _event = self.queue.enqueue_read(buffer)
        entry.host_copy = host
        self._buffer_entries.pop(buffer.buffer_id, None)
        entry.lru.pop(entry.entry_id, None)
        # NB: the BAT's device_ref intentionally keeps pointing at the
        # released buffer — its metadata (dtype/shape) must stay readable
        # while offloaded (see Buffer), and _restore() re-links the ref.
        # Cross-device consumers resolve the true home through the
        # registry (DevicePool.home_of), never through a released ref.
        buffer.release()
        entry.buffer = None

    def _restore(self, entry: CacheEntry, bat: BAT | None = None) -> Buffer:
        """Bring an offloaded/evicted entry back onto the device."""
        if entry.host_copy is not None:
            array = entry.host_copy
            # only offloaded contents count as a *restore*: re-uploading an
            # evicted base copy is an ordinary cache miss (the master never
            # left host memory), which keeps restores <= offloads
            self.stats.restores += 1
        elif bat is not None and bat.peek_values() is not None:
            array = bat.peek_values()
        else:
            raise OcelotOOM(f"entry {entry.tag!r} has no restorable contents")
        self.stats.cache_misses += 1
        buffer = self.allocate_like(array, entry.kind, tag=entry.tag)
        self.queue.enqueue_write(buffer, array)
        # The fresh allocation created a new entry; merge bookkeeping.
        new_entry = self._entry_for_buffer(buffer)
        new_entry.bat_id = entry.bat_id
        new_entry.bat = entry.bat if bat is None else bat
        new_entry.host_copy = None
        new_entry.owner = entry.owner
        self._escapes(new_entry)
        if entry.bat_id is not None:
            self._bat_entries[entry.bat_id] = new_entry.entry_id
        if entry.intermediate:
            # the restored content is the *same* intermediate, not a new
            # one: hand the accounting to the fresh entry instead of
            # counting it twice (allocate() above may have re-counted it
            # when the restore ran inside an operator scope)
            entry.intermediate = False
            if new_entry.intermediate:
                self.stats.intermediates_allocated -= 1
                self.stats.intermediate_bytes -= new_entry.counted_nbytes
                self.stats.intermediate_bytes_physical -= (
                    new_entry.counted_nbytes_physical
                )
            new_entry.intermediate = True
            new_entry.counted_nbytes = entry.counted_nbytes
            new_entry.counted_nbytes_physical = (
                entry.counted_nbytes_physical
            )
        self._entries.pop(entry.entry_id, None)
        entry.lru.pop(entry.entry_id, None)
        if entry.buffer is not None:
            # released behind the registry's back (a context release)
            self._buffer_entries.pop(entry.buffer.buffer_id, None)
        # linked (non-BASE) BATs carried a direct device_ref before the
        # offload; re-attach it.  BASE copies never hold one — a cached
        # base upload must not hand other managers a foreign reference.
        linked = new_entry.bat
        if linked is not None and entry.kind is not BufferKind.BASE:
            linked.device_ref = buffer
        elif bat is not None and bat.device_ref is not None:
            bat.device_ref = buffer
        return buffer

    # -- sync (ownership hand-over, paper §3.4) ----------------------------------------

    def sync_to_host(self, bat: BAT, buffer: Buffer) -> np.ndarray:
        """Wait for producers and transfer/map the buffer to the host.

        The device copy stays registered (and ``device_ref`` intact) so a
        later Ocelot operator reuses it as a cache hit; MonetDB reads the
        freshly transferred host tail.  Device buffers are allocated
        ``max(count, 1)`` elements, so the hand-over truncates to the
        BAT's logical count — an empty result must not gain a phantom
        row of padding."""
        host, _event = self.queue.enqueue_read(buffer)
        self.queue.finish()
        if host.shape[0] > bat.count:
            host = host[:bat.count]
        bat.return_to_monetdb(host)
        return host

    # -- hash-table cache (paper §5.2.6) -------------------------------------------------

    def cached_hash_table(self, key: tuple) -> dict | None:
        table = self._hash_cache.get(key)
        if table is not None:
            entries = self._table_entries(table)
            if not any(isinstance(buf, Buffer) and buf.released
                       for buf in table.values()):
                self.stats.hash_cache_hits += 1
                for entry in entries:
                    self._touch(entry)
                return table
            # part of the table lost its device storage to the eviction
            # policy: the rest is of no use to anyone
            del self._hash_cache[key]
            for entry in entries:
                self._free_entry(entry)
        self.stats.hash_cache_misses += 1
        return None

    def cache_hash_table(self, key: tuple, table: dict) -> None:
        """Keep a base column's hash table across queries: its buffers
        leave the operator's scratch and the query's ownership."""
        self._hash_cache[key] = table
        for entry in self._table_entries(table):
            entry.owner = None
            self._escapes(entry)

    def _table_entries(self, table: dict) -> list[CacheEntry]:
        entries = (
            self._entry_for_buffer(value)
            for value in table.values() if isinstance(value, Buffer)
        )
        return [entry for entry in entries if entry is not None]

    # -- catalog callbacks (paper §4.3) ----------------------------------------------------

    def _on_bat_deleted(self, bat: BAT) -> None:
        """Remove buffers for deleted/recycled BATs from the device cache.

        Every device's manager receives this callback (they all subscribe
        to the shared catalog), so each one must only touch buffers of
        *its own* context: raw-releasing another device's buffer would
        leave that manager's registry pointing at a released buffer.
        """
        entry_id = self._bat_entries.pop(bat.bat_id, None)
        if entry_id is not None:
            entry = self._entries.get(entry_id)
            if entry is not None:
                # through _free_entry so intermediate accounting (bytes,
                # freed counter) is settled — this is the path every
                # catalog-recycle release takes
                self._free_entry(entry)
        ref = bat.device_ref
        if ref is not None and not ref.released \
                and ref.context is self.context:
            entry = self._entry_for_buffer(ref)
            if entry is not None:
                self._free_entry(entry)
            else:
                self._buffer_entries.pop(ref.buffer_id, None)
                ref.release()
            bat.device_ref = None
        # Operator-attached auxiliaries (e.g. a bitmap's materialised
        # oids) owned here; a foreign aux stays for its own manager.
        for key, aux in list(bat.aux.items()):
            if isinstance(aux, Buffer):
                if aux.released:
                    del bat.aux[key]
                elif aux.context is self.context:
                    self.release(aux)
                    del bat.aux[key]
        if bat.is_base:     # only base columns' hash tables are cached
            stale = [k for k in self._hash_cache if k[0] == bat.bat_id]
            for k in stale:
                for entry in self._table_entries(self._hash_cache.pop(k)):
                    self._free_entry(entry)

    # -- introspection ------------------------------------------------------------------------

    def has_entry(self, bat: BAT) -> bool:
        """Whether this manager tracks ``bat`` at all — resident,
        evicted *or* offloaded (the heterogeneous scheduler uses this to
        find the manager that can still produce the tail)."""
        entry_id = self._bat_entries.get(bat.bat_id)
        return entry_id is not None and entry_id in self._entries

    def has_resident(self, bat: BAT) -> bool:
        """Whether this manager holds a live device copy of ``bat``'s tail
        (used by the heterogeneous scheduler's data-gravity term)."""
        ref = bat.device_ref
        if ref is not None and not ref.released:
            if self._entry_for_buffer(ref) is not None:
                return True
        entry_id = self._bat_entries.get(bat.bat_id)
        if entry_id is None:
            return False
        entry = self._entries.get(entry_id)
        return entry is not None and entry.resident

    def _entry_for_buffer(self, buffer: Buffer) -> CacheEntry | None:
        return self._buffer_entries.get(buffer.buffer_id)

    def _touch(self, entry: CacheEntry) -> None:
        order = entry.lru
        if order.pop(entry.entry_id, None) is not None:
            order[entry.entry_id] = entry

    def entries(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    @property
    def resident_bytes(self) -> int:
        return self.context.allocated_nominal

    @property
    def resident_bytes_physical(self) -> int:
        """Raw (unscaled) bytes of live registry entries — the actual
        in-process footprint, as opposed to the simulated device budget
        ``resident_bytes`` is charged against."""
        return sum(
            entry.buffer.nbytes
            for entry in self._entries.values()
            if entry.resident
        )


class QueryMemory:
    """The ``memory`` capability of a backend: every Memory Manager its
    queries allocate from — one on a single-device engine, one per
    pooled device on HET, every child's on SHARD.

    The interpreter's ``ProgramRun`` is the *query*: it :meth:`claim`s
    the managers before each step (in-flight ``submit()`` sessions
    interleave on them) and calls :meth:`end_query` exactly once, however
    the query ended.
    """

    def __init__(self, managers):
        #: zero-argument callable: the managers as of now (a sharded
        #: cluster's roster changes between queries)
        self.managers = managers

    def claim(self, query) -> None:
        for manager in self.managers():
            manager.owner = query

    def end_query(self, query) -> None:
        for manager in self.managers():
            manager.end_query(query)

    def counters(self) -> dict:
        """The ``mm`` counters namespace: every
        :class:`MemoryManagerStats` field plus the resident footprint,
        summed over the managers."""
        managers = list(self.managers())
        out = {
            f.name: sum(getattr(m.stats, f.name) for m in managers)
            for f in fields(MemoryManagerStats)
        }
        out["resident_bytes"] = sum(m.resident_bytes for m in managers)
        out["resident_bytes_physical"] = sum(
            m.resident_bytes_physical for m in managers
        )
        return out
