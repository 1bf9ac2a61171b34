"""Exact and floating-point matrix helpers used across the toolkit.

Two arithmetic modes coexist:

* exact mode: numpy object arrays of rationals: a python ``int`` where the
  value is integral, a ``fractions.Fraction`` only where a division makes
  one (never a float; divide by a ``Fraction``, since int / int is a
  float).  Values are normalized once, where they enter (``rational``,
  ``frac_array``); the routines here take them as they are.  Rank, kernels
  and equality tests are exact.
* float mode: ordinary float64 arrays, SVD-based ranks, tolerance 1e-10
  unless stated otherwise.

Dispatch is by dtype: ``dtype == object`` selects the exact path.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError

TOL = 1e-10


def is_exact(a: np.ndarray) -> bool:
    return a.dtype == object


def rational(v):
    """An exact value as exact arrays hold it: an ``int`` when integral, else
    a ``Fraction``."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return int(v.numerator) if v.denominator == 1 else v


def frac_array(rows) -> np.ndarray:
    """Exact object array from nested lists / arrays of rationals."""
    arr = np.array(rows, dtype=object)
    arr.reshape(-1)[:] = [rational(v) for v in arr.flat]
    return arr


def as_float(a) -> np.ndarray:
    a = np.asarray(a)
    if is_exact(a):
        return np.array(a.tolist(), dtype=float)
    return np.asarray(a, dtype=float)


def eye(n: int, exact: bool) -> np.ndarray:
    if exact:
        return np.eye(n, dtype=int).astype(object)
    return np.eye(n)


def zeros(shape, exact: bool) -> np.ndarray:
    if exact:
        return np.zeros(shape, dtype=int).astype(object)
    return np.zeros(shape)


def max_abs(a: np.ndarray):
    if a.size == 0:
        return 0.0
    if is_exact(a):
        return max(abs(x) for x in a.reshape(-1))
    return float(np.max(np.abs(a)))


def mat_eq(a: np.ndarray, b: np.ndarray, tol: float = TOL) -> bool:
    if a.shape != b.shape:
        return False
    if is_exact(a) and is_exact(b):
        return all(x == y for x, y in zip(a.reshape(-1), b.reshape(-1)))
    return max_abs(as_float(a) - as_float(b)) <= tol


def numerators(a) -> tuple[np.ndarray, int]:
    """(N, m) with a == N / m for an exact array: m is the least common
    denominator of the entries and N holds python ints.  Builds no Fraction."""
    a = np.asarray(a, dtype=object)
    flat = a.reshape(-1)
    m = math.lcm(*(x.denominator for x in flat))
    nums = [x.numerator * (m // x.denominator) for x in flat]
    return np.array(nums, dtype=object).reshape(a.shape), m


def rref(a: np.ndarray):
    """Reduced row echelon form over the rationals.

    Returns (R, pivot_columns).  The exact input is copied as it is; pivot
    rows are divided by ``Fraction(pivot)``, so integer input stays rational.
    """
    m = np.array(a, dtype=object)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        piv = m[r, c]
        m[r] = m[r] / Fraction(piv)
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: np.ndarray, tol: float = TOL) -> int:
    if a.size == 0:
        return 0
    if is_exact(a):
        _, pivots = rref(a)
        return len(pivots)
    return int(np.linalg.matrix_rank(as_float(a), tol=tol))


def nullspace(a: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Columns form a basis of ker(a).  Float mode keeps the right singular
    vectors past the singular values above tol * s_max (orthonormal)."""
    if is_exact(a):
        red, pivots = rref(a)
        rows, cols = red.shape
        free = [c for c in range(cols) if c not in pivots]
        basis = zeros((cols, len(free)), exact=True)
        for k, fc in enumerate(free):
            basis[fc, k] = 1
            for r, pc in enumerate(pivots):
                basis[pc, k] = -red[r, fc]
        return basis
    _, s, vh = np.linalg.svd(as_float(a))
    return vh[np.sum(s > tol * s.max(initial=0.0)):].T


def solve_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b exactly; raises if the system is inconsistent."""
    squeeze = b.ndim == 1
    b = b[:, None] if squeeze else b
    red, pivots = rref(np.concatenate([a, b], axis=1))
    n = a.shape[1]
    if any(p >= n for p in pivots):
        raise ValueError("inconsistent linear system")
    x = zeros((n, b.shape[1]), exact=True)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, n:]
    return x[:, 0] if squeeze else x


def inv(a: np.ndarray) -> np.ndarray:
    if is_exact(a):
        n = a.shape[0]
        return solve_exact(a, eye(n, exact=True))
    return np.linalg.inv(as_float(a))


def min_singular_value(a: np.ndarray) -> float:
    """Smallest singular value of one matrix, 0.0 for an empty one."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(as_float(a), compute_uv=False)[-1])


def trace_rank(trace, denom: int = 1) -> int:
    """Rank of a projector P from the trace of denom * P: an exact trace must
    be a multiple of denom, a float one within 1e-6 of an integer."""
    if isinstance(trace, (int, np.integer)):
        rank, rest = divmod(int(trace), denom)
        if rest:
            raise InvalidInputError("projector trace is not an integer; invalid data")
        return rank
    r = float(trace)
    if abs(r - round(r)) > 1e-6:
        raise InvalidInputError("projector trace is not close to an integer")
    return int(round(r))


def projector_range(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a float projector p: its first
    r = trace_rank(tr p) left singular vectors.  A rank-r projector has r
    singular values >= 1 and the rest 0, so the trace picks r with no cutoff
    (one relative to s_max keeps roundoff when p = 0)."""
    r = trace_rank(np.trace(p))
    return np.linalg.svd(p)[0][:, :r] if r else np.zeros((len(p), 0))


def independent_columns(a: np.ndarray) -> list[int]:
    """Indices of a maximal independent subset of columns, left to right."""
    if is_exact(a):
        _, pivots = rref(a)
        return pivots
    af = as_float(a)
    idx: list[int] = []
    basis = np.zeros((a.shape[0], 0))
    for j in range(af.shape[1]):
        cand = np.concatenate([basis, af[:, j : j + 1]], axis=1)
        if np.linalg.matrix_rank(cand, tol=TOL) > basis.shape[1]:
            basis = cand
            idx.append(j)
    return idx


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish float orthogonal matrix (QR of a Gaussian sample)."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def random_signed_permutation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Integer orthogonal matrix: permutation with random signs."""
    perm = rng.permutation(dim)
    signs = rng.choice([-1, 1], size=dim)
    m = zeros((dim, dim), exact=True)
    m[perm, np.arange(dim)] = signs
    return m


def block_diag(blocks: list[np.ndarray], exact: bool) -> np.ndarray:
    """Block-diagonal matrix of square blocks; blocks with a leading axis
    (stacks of one block per group element) give a stack."""
    n = sum(b.shape[-1] for b in blocks)
    out = zeros(blocks[0].shape[:-2] + (n, n), exact)
    pos = 0
    for b in blocks:
        k = b.shape[-1]
        out[..., pos : pos + k, pos : pos + k] = b
        pos += k
    return out
