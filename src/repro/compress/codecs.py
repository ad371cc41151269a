"""Lightweight column codecs: dictionary, RLE, frame-of-reference.

The three families the compression-for-analytics playbook (PAPERS.md)
recommends for TPC-H-shaped data, implemented as plain numpy payload
holders with a uniform interface:

* :class:`DictEncoding` — sorted unique dictionary + per-row codes in
  the narrowest unsigned width the cardinality allows.  The dictionary
  being *sorted* is load-bearing: range predicates translate to code
  ranges and ``group.group`` over codes yields the same dense gids as
  over the values (both derive group ids in ascending value order).
* :class:`RLEEncoding` — run values + run lengths; selections and
  aggregations touch ``n_runs`` elements instead of ``n`` rows.
* :class:`FOREncoding` — frame of reference (minimum) + unsigned deltas
  bit-packed to the narrowest width.  Integer columns only; the
  YYYYMMDD date columns are the target (span ~60k → uint16 deltas).

Every codec supports ``encode``/``decode``/``slice_`` unconditionally —
including empty, constant, and all-distinct inputs — so the hypothesis
round-trip suite can hit each one directly; :func:`choose_encoding` is
the ``auto`` policy that decides which (if any) a base column keeps.
It decides from column statistics, not by trial compression (Lin et
al., PAPERS.md): every codec's payload size is an exact function of a
few counts — distinct values, runs, min/max — which each codec's
``physical_nbytes_of`` computes, so only the winning payload is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: columns shorter than this are never worth encoding
MIN_ENCODE_ROWS = 16

#: keep an encoding only if it beats the plain tail by at least this
#: factor (physical < nominal * MAX_PHYSICAL_FRACTION)
MAX_PHYSICAL_FRACTION = 0.75

#: the ``compression=`` modes that name a single codec
CODEC_KINDS = ("dict", "rle", "for")


def _narrowest_uint(max_value: int) -> np.dtype:
    """Smallest unsigned dtype that can hold ``max_value``."""
    if max_value < (1 << 8):
        return np.dtype(np.uint8)
    if max_value < (1 << 16):
        return np.dtype(np.uint16)
    if max_value < (1 << 32):
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


@dataclass
class DictEncoding:
    """Sorted-unique dictionary + narrow per-row codes."""

    dictionary: np.ndarray     # sorted unique values, original dtype
    codes: np.ndarray          # uint8/uint16/uint32 indexes into it

    kind = "dict"

    @classmethod
    def physical_nbytes_of(cls, values: np.ndarray) -> int:
        """``encode(values).physical_nbytes`` from the distinct count
        alone: one sort plus a boundary count, the ``!=`` semantics
        :func:`numpy.unique` dedups by (``-0.0`` equals ``0.0``)."""
        n = int(values.size)
        if n == 0:
            return 0
        ordered = np.sort(values)
        distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        width = _narrowest_uint(distinct - 1)
        return distinct * values.dtype.itemsize + n * width.itemsize

    @classmethod
    def encode(cls, values: np.ndarray) -> "DictEncoding":
        dictionary, inverse = np.unique(values, return_inverse=True)
        width = _narrowest_uint(max(len(dictionary) - 1, 0))
        return cls(dictionary=dictionary,
                   codes=inverse.astype(width, copy=False))

    @property
    def count(self) -> int:
        return int(self.codes.size)

    @property
    def dtype(self) -> np.dtype:
        return self.dictionary.dtype

    @property
    def physical_nbytes(self) -> int:
        return int(self.dictionary.nbytes + self.codes.nbytes)

    @property
    def nominal_nbytes(self) -> int:
        return int(self.count * self.dtype.itemsize)

    def decode(self) -> np.ndarray:
        if self.count == 0:
            return np.empty(0, dtype=self.dtype)
        return self.dictionary[self.codes]

    def slice_(self, lo: int, hi: int) -> "DictEncoding":
        return DictEncoding(dictionary=self.dictionary,
                            codes=self.codes[lo:hi])


@dataclass
class RLEEncoding:
    """Run-length encoding: value + length per run."""

    run_values: np.ndarray     # original dtype
    run_lengths: np.ndarray    # int32 (int64 for very long columns)
    dtype_: np.dtype = None    # tail dtype (run_values may be empty)

    kind = "rle"

    def __post_init__(self):
        if self.dtype_ is None:
            self.dtype_ = self.run_values.dtype
        self._ends = None

    @staticmethod
    def _length_dtype(n: int) -> np.dtype:
        return np.dtype(np.int64 if n >= (1 << 31) else np.int32)

    @classmethod
    def physical_nbytes_of(cls, values: np.ndarray) -> int:
        """``encode(values).physical_nbytes`` from the run count."""
        n = int(values.size)
        if n == 0:
            return 0
        runs = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
        return runs * (values.dtype.itemsize
                       + cls._length_dtype(n).itemsize)

    @classmethod
    def encode(cls, values: np.ndarray) -> "RLEEncoding":
        n = int(values.size)
        if n == 0:
            return cls(run_values=values[:0].copy(),
                       run_lengths=np.empty(0, dtype=np.int32),
                       dtype_=values.dtype)
        boundaries = np.flatnonzero(values[1:] != values[:-1])
        starts = np.concatenate(([0], boundaries + 1))
        lengths = np.diff(np.concatenate((starts, [n])))
        length_dtype = cls._length_dtype(n)
        return cls(run_values=values[starts].copy(),
                   run_lengths=lengths.astype(length_dtype, copy=False),
                   dtype_=values.dtype)

    @property
    def ends(self) -> np.ndarray:
        """Cumulative run end offsets (cached)."""
        if self._ends is None:
            self._ends = np.cumsum(self.run_lengths)
        return self._ends

    @property
    def count(self) -> int:
        return int(self.run_lengths.sum())

    @property
    def n_runs(self) -> int:
        return int(self.run_values.size)

    @property
    def dtype(self) -> np.dtype:
        return self.dtype_

    @property
    def physical_nbytes(self) -> int:
        return int(self.run_values.nbytes + self.run_lengths.nbytes)

    @property
    def nominal_nbytes(self) -> int:
        return int(self.count * self.dtype.itemsize)

    def decode(self) -> np.ndarray:
        if self.n_runs == 0:
            return np.empty(0, dtype=self.dtype)
        return np.repeat(self.run_values, self.run_lengths)

    def slice_(self, lo: int, hi: int) -> "RLEEncoding":
        if hi <= lo:
            return RLEEncoding(run_values=self.run_values[:0].copy(),
                               run_lengths=np.empty(0, dtype=np.int32),
                               dtype_=self.dtype)
        ends = self.ends
        i0 = int(np.searchsorted(ends, lo, side="right"))
        i1 = int(np.searchsorted(ends, hi, side="left"))
        values = self.run_values[i0:i1 + 1].copy()
        lengths = self.run_lengths[i0:i1 + 1].astype(
            self.run_lengths.dtype, copy=True
        )
        if i0 == i1:
            lengths[0] = hi - lo
        else:
            start0 = int(ends[i0]) - int(self.run_lengths[i0])
            lengths[0] = int(ends[i0]) - max(lo, start0)
            lengths[-1] = hi - (int(ends[i1]) - int(self.run_lengths[i1]))
        return RLEEncoding(run_values=values, run_lengths=lengths,
                           dtype_=self.dtype)


@dataclass
class FOREncoding:
    """Frame of reference + narrow unsigned deltas (integers only)."""

    frame: int                 # the reference (column minimum)
    deltas: np.ndarray         # narrow unsigned offsets from the frame
    dtype_: np.dtype = None    # original integer dtype

    kind = "for"

    def __post_init__(self):
        if self.dtype_ is None:
            self.dtype_ = np.dtype(np.int64)

    @classmethod
    def physical_nbytes_of(cls, values: np.ndarray) -> int:
        """``encode(values).physical_nbytes`` from min and max."""
        if values.size == 0:
            return 8
        spread = int(values.max()) - int(values.min())
        return int(values.size) * _narrowest_uint(spread).itemsize + 8

    @classmethod
    def encode(cls, values: np.ndarray) -> "FOREncoding":
        if values.size == 0:
            return cls(frame=0, deltas=np.empty(0, dtype=np.uint8),
                       dtype_=values.dtype)
        frame = int(values.min())
        spread = int(values.max()) - frame
        width = _narrowest_uint(spread)
        deltas = (values.astype(np.int64) - frame).astype(width)
        return cls(frame=frame, deltas=deltas, dtype_=values.dtype)

    @property
    def count(self) -> int:
        return int(self.deltas.size)

    @property
    def dtype(self) -> np.dtype:
        return self.dtype_

    @property
    def physical_nbytes(self) -> int:
        return int(self.deltas.nbytes + 8)      # + the frame itself

    @property
    def nominal_nbytes(self) -> int:
        return int(self.count * self.dtype.itemsize)

    def decode(self) -> np.ndarray:
        if self.count == 0:
            return np.empty(0, dtype=self.dtype)
        return (self.deltas.astype(np.int64) + self.frame).astype(
            self.dtype
        )

    def slice_(self, lo: int, hi: int) -> "FOREncoding":
        return FOREncoding(frame=self.frame, deltas=self.deltas[lo:hi],
                           dtype_=self.dtype)


#: the codecs in tie-break order: dict > rle > for
_CODECS = (DictEncoding, RLEEncoding, FOREncoding)


def _frameable(values: np.ndarray) -> bool:
    """Whether FOR may hold ``values``: integers inside int64, the type
    every frame computation (encode, decode, shifted bounds, folds) is
    carried out in."""
    if values.dtype.kind not in "iu":
        return False
    return (values.dtype != np.uint64
            or int(values.max()) <= np.iinfo(np.int64).max)


def choose_encoding(values: np.ndarray, mode: str = "auto"):
    """Pick the best codec for a base column, or ``None`` to stay plain.

    A column is only encoded when it is 1-D numeric, long enough to
    matter, NaN-free (NaN breaks dictionary equality), and some codec
    beats the plain tail by :data:`MAX_PHYSICAL_FRACTION`.  Ties prefer
    dict > rle > for — the dict paths cover the most operators.

    Every admissible codec is *sized* (``physical_nbytes_of``: exact,
    from counts) and only the smallest is built.
    """
    if mode == "off":
        return None
    if values.ndim != 1 or values.size < MIN_ENCODE_ROWS:
        return None
    if values.dtype.kind not in "iuf":
        return None
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        return None
    kinds = CODEC_KINDS if mode == "auto" else (mode,)
    # admission and the running minimum are one strict bound: a later
    # codec must beat the best so far, which already beat the fraction
    best, best_nbytes = None, values.nbytes * MAX_PHYSICAL_FRACTION
    for codec in _CODECS:
        if codec.kind not in kinds:
            continue
        if codec is FOREncoding and not _frameable(values):
            continue
        nbytes = codec.physical_nbytes_of(values)
        if nbytes < best_nbytes:
            best, best_nbytes = codec, nbytes
    return None if best is None else best.encode(values)
