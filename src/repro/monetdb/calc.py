"""Shared ``batcalc`` semantics: the element-wise rule, result types.

The paper's Ocelot operators are drop-in replacements for MonetDB's, so
every configuration must answer alike.  An element-wise ``a op b`` is
therefore computed one way, by :func:`elementwise` over one table,
:data:`ELEMENTWISE`, in the type :func:`calc_result_dtype` names — and
every executor calls it: MonetDB's ``batcalc`` operators (MS, MP), the
fused evaluator (:func:`repro.fuse.expr.evaluate`: a ``fuse.pipe`` on
MS / MP and the body of every generated Ocelot kernel), and the Ocelot
``ewise`` (two columns) / ``ewise_scalar`` (a column and a constant)
kernels the host code launches, comparisons included.  The rule is defined beside those kernels, in
:mod:`repro.kernels.primitives` (the kernel library sits below this
package); the engines import it from here.
"""

from __future__ import annotations

import numpy as np

from ..kernels.primitives import ELEMENTWISE, calc_result_dtype, elementwise
from .bat import TAIL_DTYPES


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
