"""Shared ``batcalc`` semantics (result types, predicate application).

Both the MonetDB baselines and Ocelot's host code use these rules, so the
four configurations produce identical expression results — the drop-in
contract of the paper.
"""

from __future__ import annotations

import numpy as np

from .bat import TAIL_DTYPES


def _logical_and(a, b):
    return np.logical_and(a, b).astype(np.uint8)


def _logical_or(a, b):
    return np.logical_or(a, b).astype(np.uint8)


#: op name -> numpy implementation, the single source of truth shared
#: by the MonetDB baselines and the fused-expression evaluator (the
#: Ocelot kernels keep their own launch-argument table in
#: :mod:`repro.kernels.primitives`, which additionally carries the
#: reversed/bitwise variants the device code needs)
CALC_FNS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "intdiv": np.floor_divide,
    "and": _logical_and,
    "or": _logical_or,
}

COMPARE_FNS = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def calc_result_dtype(a_dtype: np.dtype, b_dtype: np.dtype, op: str) -> np.dtype:
    """Result tail type of a ``batcalc`` arithmetic operation.

    Four-byte types stay four-byte (the paper's scope); integer division
    widens to ``float64`` (standing in for SQL decimal division).
    """
    a_dtype, b_dtype = np.dtype(a_dtype), np.dtype(b_dtype)
    if op in ("and", "or"):
        return np.dtype(np.uint8)
    if op == "div" and a_dtype.kind in "iu" and b_dtype.kind in "iu":
        return np.dtype(np.float64)
    return np.result_type(a_dtype, b_dtype)


def ifthenelse_dtype(then, otherwise) -> np.dtype:
    """Result tail type of ``batcalc.ifthenelse`` over two branches,
    each a column's dtype or a scalar.  A scalar beside a column takes
    the smallest type holding its range, as in arithmetic; two scalars
    keep theirs only as a tail type holding both exactly (``5`` and
    ``1000`` meet in uint16, ``2.5`` and ``-1000.25`` in a float16 that
    rounds), else the eight-byte type of their kind."""
    branches = (then, otherwise)
    dtype = np.result_type(*(
        v if isinstance(v, np.dtype) else np.min_scalar_type(v)
        for v in branches
    ))
    if any(isinstance(v, np.dtype) for v in branches) or (
            dtype in TAIL_DTYPES
            and all(np.asarray(v).astype(dtype) == v for v in branches)):
        return dtype
    return np.result_type(*(np.asarray(v).dtype for v in branches))


def ifthenelse(cond, then, otherwise) -> np.ndarray:
    """``batcalc.ifthenelse`` over host values: each branch cast to
    :func:`ifthenelse_dtype` first, so ``2**31`` beside an int32 column
    is not wrapped into it."""
    dtype = ifthenelse_dtype(*(
        v.dtype if isinstance(v, np.ndarray) else v
        for v in (then, otherwise)
    ))
    return np.where(np.asarray(cond) != 0, np.asarray(then, dtype),
                    np.asarray(otherwise, dtype))


def grouped_dtype(agg: str, values_dtype) -> np.dtype:
    """Result tail type of a grouped aggregate (shared engine rule)."""
    values_dtype = np.dtype(values_dtype)
    if agg in ("avg",):
        return np.dtype(np.float64)
    if agg == "count":
        return np.dtype(np.int64)
    if agg == "sum":
        return np.dtype(np.float64 if values_dtype.kind == "f" else np.int64)
    return values_dtype
