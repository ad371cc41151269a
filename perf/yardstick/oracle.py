"""Correctness oracle: a result is right when its columns equal the
reference's — the MS engine's answer for TPC-H statements, a numpy
computation for the staging query."""

from __future__ import annotations

import numpy as np

RTOL = 1e-3
ATOL = 1e-6


def same_columns(got: dict, expected: dict) -> bool:
    """Same column names, same row count, values equal within ``RTOL``
    (NaN equals NaN), compared row by row in result order."""
    if set(got) != set(expected):
        return False
    for name, want in expected.items():
        have = np.asarray(got[name])
        want = np.asarray(want)
        if have.shape != want.shape:
            return False
        if not np.allclose(have.astype(np.float64), want.astype(np.float64),
                           rtol=RTOL, atol=ATOL, equal_nan=True):
            return False
    return True


def self_test(columns: dict) -> None:
    """Fail loudly if the oracle would let a wrong result through:
    ``columns`` must match itself, and must not match a copy with one
    value off by 1 %, a row missing, or a column missing."""
    name = next(iter(columns))
    values = np.asarray(columns[name]).astype(np.float64)
    if values.size == 0:
        raise RuntimeError("oracle self-test needs a non-empty result")
    bumped = values.copy()
    bumped[-1] = bumped[-1] * 1.01 + 0.01
    corrupted = {
        "value off by 1%": {**columns, name: bumped},
        "row missing": {key: np.asarray(col)[:-1]
                        for key, col in columns.items()},
        "column missing": {key: col for key, col in columns.items()
                           if key != name},
    }
    if not same_columns(columns, columns):
        raise RuntimeError("oracle rejects a result equal to the reference")
    for what, wrong in corrupted.items():
        if same_columns(wrong, columns):
            raise RuntimeError(f"oracle accepts a corrupted result: {what}")
