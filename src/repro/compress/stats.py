"""Compression observability: per-catalog counters.

One :class:`CompressionStats` instance hangs off every
:class:`~repro.monetdb.storage.Catalog` (``catalog.compression``) and is
shared by every :class:`~repro.compress.encoded.EncodedBAT` the catalog
creates, so ``compress.*`` in ``Connection.metrics`` can answer the
questions the ISSUE cares about: how many base columns were encoded,
how many bytes that saved, and — crucially — how often an operator had
to fall back to a **full-column decode** instead of executing on the
compressed representation.  The zero-decode acceptance tests snapshot these
counters around a query and assert ``decode_events`` did not move.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CompressionStats:
    """Counters for one catalog's compressed columns.

    ``decode_events`` counts *full-column* materialisations (an encoded
    base column's whole tail rebuilt in host memory); each column decodes
    at most once per lifetime because the decoded tail is cached.
    ``partial_decodes`` counts row-range / run-subset materialisations
    (morsel slices, late-materialised grouped-aggregate results) — these
    are the *point* of late materialisation and are tracked separately
    so the zero-full-decode assertions stay meaningful.
    """

    #: base columns stored encoded vs. kept as plain arrays
    columns_encoded: int = 0
    columns_plain: int = 0
    #: tail bytes of the encoded columns: as stored (physical) and as
    #: they would be stored uncompressed (nominal)
    bytes_physical: int = 0
    bytes_nominal: int = 0
    #: full-column decompressions (late materialisation falling back to
    #: the whole tail) and partial-range decompressions
    decode_events: int = 0
    partial_decodes: int = 0

    @property
    def ratio(self) -> float:
        """Nominal / physical bytes over the encoded columns (>= 1)."""
        if self.bytes_physical <= 0:
            return 1.0
        return self.bytes_nominal / self.bytes_physical

    def snapshot(self) -> "CompressionStats":
        """An independent copy (tests diff before/after a query)."""
        return CompressionStats(
            columns_encoded=self.columns_encoded,
            columns_plain=self.columns_plain,
            bytes_physical=self.bytes_physical,
            bytes_nominal=self.bytes_nominal,
            decode_events=self.decode_events,
            partial_decodes=self.partial_decodes,
        )

    def add(self, other: "CompressionStats") -> "CompressionStats":
        """Fold another instance in (SHARD sums parent + children)."""
        self.columns_encoded += other.columns_encoded
        self.columns_plain += other.columns_plain
        self.bytes_physical += other.bytes_physical
        self.bytes_nominal += other.bytes_nominal
        self.decode_events += other.decode_events
        self.partial_decodes += other.partial_decodes
        return self

    def __str__(self) -> str:
        return (
            f"compression<{self.columns_encoded} encoded / "
            f"{self.columns_plain} plain, "
            f"{self.bytes_physical}/{self.bytes_nominal}B physical/nominal "
            f"({self.ratio:.2f}x), {self.decode_events} decodes, "
            f"{self.partial_decodes} partial>"
        )
