"""Storage layer: aligned allocation and the BAT catalog ("BBP").

Two of the paper's §4.3 MonetDB modifications live here:

* ``aligned_empty`` returns 128-byte aligned memory — the Intel OpenCL
  SDK makes extensive use of SSE operations that require it,
* the catalog fires callbacks when BATs are deleted or recycled, so the
  Ocelot Memory Manager can drop the corresponding device buffers from
  its cache immediately.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

import numpy as np

from .bat import BAT, make_bat

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
    *per BAT*), so the catalog keeps three counters, all drawn from one
    monotonic sequence:

    * :attr:`version` moves on every DDL statement and every
      :meth:`bump_version` — "did anything change at all";
    * :meth:`table_version` is the value :attr:`version` took when that
      table was last created or had its shard key declared, or when a
      table in its key domain was (they co-partition, so one's layout
      moves with the other's); ``None`` for a table that does not
      exist.  A dropped-and-recreated table never reuses a stamp;
    * :attr:`epoch` moves only with :meth:`bump_version` — a layout
      change with no table to pin it on (a roster change, a sharded
      engine adopting an inferred key).

    A compiled plan is valid while the stamps of the tables it reads
    and the epoch are what they were (:mod:`repro.serve.plancache`).
    """

    def __init__(self) -> None:
        from ..compress.stats import CompressionStats

        self._tables: dict[str, dict[str, BAT]] = {}
        self._delete_callbacks: list[Callable[[BAT], None]] = []
        #: per-catalog compression counters, shared by every EncodedBAT
        #: this catalog creates (``compress.*`` in ``Connection.metrics``)
        self.compression = CompressionStats()
        #: monotonic DDL counter; every create/drop/key declaration and
        #: every :meth:`bump_version` moves it
        self.version = 0
        #: the :attr:`version` of the latest :meth:`bump_version`
        self.epoch = 0
        #: table -> the :attr:`version` that last touched it
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
        self._stamp({table})

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
        touched = self._key_domain_members(table)
        self.shard_keys.pop(table, None)
        del self._table_versions[table]
        self._stamp(touched - {table})

    def declare_shard_key(self, table: str, column: str,
                          domain: "str | None" = None) -> None:
        """Declare ``table.column`` as the table's shard key.

        ``domain`` names the shared key space; tables declaring keys in
        the same domain co-partition (``lineitem.l_orderkey`` and
        ``orders.o_orderkey`` both default to domain ``"orderkey"`` —
        see :func:`default_key_domain`).  This is DDL: it stamps the
        table and every table keyed in the domain it leaves or joins
        (cached plans over them recompile — their join strategies may
        depend on the old layout) and prompts live sharded backends to
        re-partition.
        """
        self.bat(table, column)     # raises on unknown table/column
        touched = self._key_domain_members(table)
        self.shard_keys[table] = (column, domain)
        self._stamp(touched | self._key_domain_members(table))

    def bump_version(self) -> None:
        """Move the catalog-wide :attr:`epoch` without a schema change.

        For layout changes that invalidate *every* cached plan — the
        sharded engine adopting an inferred shard key or changing its
        roster, which re-partitions tables and stales any memoised join
        strategy — and have no catalog table to pin it on."""
        self.version += 1
        self.epoch = self.version

    def table_version(self, table: str) -> "int | None":
        """The stamp of ``table`` (see the class docstring), ``None``
        when it does not exist."""
        return self._table_versions.get(table)

    def _stamp(self, tables) -> None:
        """One DDL statement: move :attr:`version`, stamp ``tables``."""
        self.version += 1
        for table in tables:
            self._table_versions[table] = self.version

    def _key_domain_members(self, table: str) -> set:
        """``table`` plus every table declared in its shard-key domain."""
        domain = self._key_domain(table)
        if domain is None:
            return {table}
        return {other for other in self.shard_keys
                if self._key_domain(other) == domain}

    def _key_domain(self, table: str) -> "str | None":
        key = self.shard_keys.get(table)
        if key is None:
            return None
        column, domain = key
        return domain or default_key_domain(column)

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

    def base_bats(self) -> Iterator[BAT]:
        for cols in self._tables.values():
            yield from cols.values()

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
        for callback in self._delete_callbacks:
            callback(bat)

    def notify_recycled(self, bat: BAT) -> None:
        """An intermediate BAT went out of scope (end of query)."""
        self._fire_delete(bat)
