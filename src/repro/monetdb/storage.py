"""Storage layer: aligned allocation and the BAT catalog ("BBP").

Two of the paper's §4.3 MonetDB modifications live here:

* ``aligned_empty`` returns 128-byte aligned memory — the Intel OpenCL
  SDK makes extensive use of SSE operations that require it,
* the catalog fires callbacks when BATs are deleted or recycled, so the
  Ocelot Memory Manager can drop the corresponding device buffers from
  its cache immediately.

It also keeps the row-range views of BATs (:meth:`Catalog.slice`), as
MonetDB's BBP registers its view BATs.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .bat import BAT, make_bat
from .partials import slice_rows

ALIGNMENT = 128


def aligned_empty(n: int, dtype, alignment: int = ALIGNMENT) -> np.ndarray:
    """Uninitialised 1-D array whose data pointer is ``alignment``-aligned."""
    dtype = np.dtype(dtype)
    nbytes = int(n) * dtype.itemsize
    raw = np.empty(nbytes + alignment, dtype=np.uint8)
    offset = (-raw.ctypes.data) % alignment
    # The slice keeps `raw` alive through its .base chain.
    return raw[offset : offset + nbytes].view(dtype)


def aligned_array(data: np.ndarray, alignment: int = ALIGNMENT) -> np.ndarray:
    """Aligned copy of ``data``."""
    data = np.asarray(data)
    out = aligned_empty(data.size, data.dtype, alignment)
    np.copyto(out, data.ravel())
    return out


def storage_mode() -> str:
    """The mode governing *storage-time* encoding (``create_table``):
    the ``compression`` knob's environment override, else its default
    (a spec's ``compression=`` only gates the rewrite pass)."""
    from ..engines import KNOBS

    return KNOBS["compression"].effective()


def is_aligned(array: np.ndarray, alignment: int = ALIGNMENT) -> bool:
    """Whether the data pointer is aligned (vacuously true when empty)."""
    return array.size == 0 or array.ctypes.data % alignment == 0


_PREFIX = re.compile(r"^[a-z0-9]+_")


def default_key_domain(column: str) -> str:
    """The default shard-key domain: the column name sans table prefix.

    TPC-H columns follow ``<prefix>_<name>`` (``l_orderkey``,
    ``o_orderkey``), so foreign-key pairs fall into one domain without
    any declaration beyond the per-table key itself."""
    column = column.lower()
    return _PREFIX.sub("", column) or column


class Catalog:
    """The BAT registry (MonetDB's BBP, radically simplified).

    Tables are collections of named columns; each column is a BAT.  The
    catalog is also the integration point for Ocelot's resource-management
    callbacks (paper §4.3).

    **Versions.**  What is expensive to rebuild is invalidated at the
    granularity of the thing that changed (§4.3 drops device copies
    *per BAT*): :attr:`version` counts the tables ever created and
    :meth:`table_version` is the value it took when that table was
    (``None`` for a table that does not exist; a dropped-and-recreated
    table never reuses a stamp).  A compiled plan is valid while the
    tables it reads carry the stamps it was compiled against
    (:mod:`repro.serve.plancache`).  A shard key is layout, not schema:
    declaring one stamps nothing.
    """

    def __init__(self) -> None:
        from ..compress.stats import CompressionStats

        self._tables: dict[str, dict[str, BAT]] = {}
        self._delete_callbacks: list[Callable[[BAT], None]] = []
        #: bat_id -> {(lo, hi): view BAT} (:meth:`slice`)
        self._slices: dict[int, dict[tuple[int, int], BAT]] = {}
        #: per-catalog compression counters, shared by every EncodedBAT
        #: this catalog creates (``compress.*`` in ``Connection.metrics``)
        self.compression = CompressionStats()
        #: monotonic stamp source; every ``create_table`` moves it
        self.version = 0
        #: table -> the :attr:`version` that created it
        self._table_versions: dict[str, int] = {}
        #: declared shard keys: table -> (column, domain | None).  Pure
        #: metadata at this layer — the sharded engine's partitioner
        #: reads it to co-partition tables sharing a key domain (rows
        #: placed by key value, equi-joins on the key run shard-local).
        self.shard_keys: dict[str, tuple[str, "str | None"]] = {}

    # -- schema ------------------------------------------------------------

    def create_table(self, table: str, columns: dict[str, np.ndarray]) -> None:
        """Register a table from column arrays (stored 128-byte aligned).

        Under :func:`storage_mode` settings other than ``off``, each
        column is offered to :func:`repro.compress.choose_encoding`;
        columns it accepts are stored as
        :class:`~repro.compress.encoded.EncodedBAT` — compressed at
        rest, decoded only at result materialisation — the rest stay
        plain arrays."""
        if table in self._tables:
            raise ValueError(f"table {table!r} already exists")
        if not columns:
            raise ValueError(f"table {table!r} needs at least one column")
        sizes = {arr.shape[0] for arr in columns.values()}
        if len(sizes) != 1:
            raise ValueError(f"table {table!r} columns differ in length")
        bats = {
            col: self._column_bat(arr, tag=f"{table}.{col}")
            for col, arr in columns.items()
        }
        for bat in bats.values():
            bat.is_base = True
        self._tables[table] = bats
        self.version += 1
        self._table_versions[table] = self.version

    def _column_bat(self, arr: np.ndarray, tag: str) -> BAT:
        """A base column's BAT: encoded when a codec pays off."""
        from ..compress import EncodedBAT, choose_encoding

        mode = storage_mode()
        encoding = choose_encoding(np.ascontiguousarray(arr), mode)
        stats = self.compression
        if encoding is None:
            if mode != "off":
                stats.columns_plain += 1
            return make_bat(aligned_array(arr), tag=tag)
        stats.columns_encoded += 1
        stats.bytes_physical += encoding.physical_nbytes
        stats.bytes_nominal += encoding.nominal_nbytes
        return EncodedBAT(encoding, tag=tag, stats=stats)

    def drop_table(self, table: str) -> None:
        for bat in self._tables.pop(table).values():
            self._fire_delete(bat)
        self.shard_keys.pop(table, None)
        del self._table_versions[table]

    def declare_shard_key(self, table: str, column: str,
                          domain: "str | None" = None) -> None:
        """Declare ``table.column`` as the table's shard key.

        ``domain`` names the shared key space; tables declaring keys in
        the same domain co-partition (``lineitem.l_orderkey`` and
        ``orders.o_orderkey`` both default to domain ``"orderkey"`` —
        see :func:`default_key_domain`).  Layout, not schema: no table
        is stamped and no cached plan recompiles; live sharded backends
        re-partition (:meth:`Backend.schema_changed`) and decide their
        joins against the new layout.
        """
        self.bat(table, column)     # raises on unknown table/column
        self.shard_keys[table] = (column, domain)

    def table_version(self, table: str) -> "int | None":
        """The stamp of ``table`` (see the class docstring), ``None``
        when it does not exist."""
        return self._table_versions.get(table)

    # -- lookup ----------------------------------------------------------------

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def columns(self, table: str) -> list[str]:
        return list(self._tables[table])

    def has_table(self, table: str) -> bool:
        return table in self._tables

    def bat(self, table: str, column: str) -> BAT:
        try:
            return self._tables[table][column]
        except KeyError:
            raise KeyError(f"no column {table}.{column}") from None

    def row_count(self, table: str) -> int:
        first = next(iter(self._tables[table].values()))
        return first.count

    # -- views -----------------------------------------------------------------

    def slice(self, bat: BAT, lo: int, hi: int) -> BAT:
        """Cached view of rows ``[lo, hi)`` of a host-resident BAT; the
        full range is the BAT itself.

        The one slice cache, read by morsel steps
        (:meth:`Backend.slice_base`) and device partitions (HET's fan-out
        and placer alike, so a slice already resident on a device costs
        no re-upload).  A BAT's slices go when it is deleted or recycled,
        each with its own notification (its device copies go too)."""
        if lo == 0 and hi == bat.count:
            return bat
        slices = self._slices.setdefault(bat.bat_id, {})
        sliced = slices.get((lo, hi))
        if sliced is None:
            sliced = slices[(lo, hi)] = slice_rows(bat, lo, hi)
        return sliced

    def cached_slice(self, bat: BAT, lo: int, hi: int) -> "BAT | None":
        """The cached ``[lo, hi)`` view of ``bat``, if :meth:`slice` made
        one."""
        return self._slices.get(bat.bat_id, {}).get((lo, hi))

    # -- Ocelot callbacks (paper §4.3) -------------------------------------------

    def on_delete(self, callback: Callable[[BAT], None]) -> None:
        """Subscribe to BAT delete/recycle notifications."""
        self._delete_callbacks.append(callback)

    def off_delete(self, callback: Callable[[BAT], None]) -> None:
        """Unsubscribe (a closed connection's Memory Manager must not
        keep receiving notifications); missing subscriptions are fine."""
        try:
            self._delete_callbacks.remove(callback)
        except ValueError:
            pass

    def _fire_delete(self, bat: BAT) -> None:
        # an encoded column's derived payload BATs (dictionary codes,
        # run values) may be device-cached under their own identities;
        # drop those device copies along with the column itself
        for derived in getattr(bat, "derived_bats", ()):
            self._fire_delete(derived)
        for sliced in self._slices.pop(bat.bat_id, {}).values():
            self._fire_delete(sliced)
        for callback in self._delete_callbacks:
            callback(bat)

    def notify_recycled(self, bat: BAT) -> None:
        """An intermediate BAT went out of scope (end of query)."""
        self._fire_delete(bat)
