"""``repro.compress`` — compressed columns, executed compressed.

ROADMAP's compressed-execution item: base columns are stored under
lightweight codecs (dictionary / run-length / frame-of-reference,
:mod:`~repro.compress.codecs`) chosen per column at
``Catalog.create_table`` time, held as
:class:`~repro.compress.encoded.EncodedBAT` tails that decompress only
at result materialisation, and *executed on* directly: a rewrite pass
(:mod:`~repro.compress.passes`, mirroring ``fuse``/``morsel``) routes
bind-direct selections, groupings and aggregations to the
``compress.*`` operator set (:mod:`~repro.compress.ops`), which
evaluates them over the narrow payloads — code-domain comparisons,
run-level folds — and falls back to a whole-column decode whenever a
column turned out plain.  Gated by the ``compression`` engine knob
(:data:`repro.engines.KNOBS`); observability through ``compress.*`` in
``Connection.metrics`` (:class:`~repro.compress.stats.CompressionStats`).
"""

from .codecs import (
    CODEC_KINDS,
    DictEncoding,
    FOREncoding,
    MIN_ENCODE_ROWS,
    RLEEncoding,
    choose_encoding,
)
from .encoded import EncodedBAT
from .ops import register_compress_ops
from .passes import MODES, compress_program
from .stats import CompressionStats

__all__ = [
    "CODEC_KINDS",
    "CompressionStats",
    "DictEncoding",
    "EncodedBAT",
    "FOREncoding",
    "MIN_ENCODE_ROWS",
    "MODES",
    "RLEEncoding",
    "choose_encoding",
    "compress_program",
    "register_compress_ops",
]
