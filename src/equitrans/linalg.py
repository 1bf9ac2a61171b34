"""Exact and floating-point matrix helpers used across the toolkit.

Two arithmetic modes coexist:

* exact mode: numpy object arrays of rationals: a python ``int`` where the
  value is integral, a ``fractions.Fraction`` only where a division makes
  one (never a float; divide by a ``Fraction``, since int / int is a
  float).  Values are normalized once, where they enter (``rational``,
  ``frac_array``); the routines here take them as they are.  Exact work
  runs on integer numerators (``numerators``), held in int64 where the one
  bound rule (``narrow``) allows, and compared exactly (``same``); an exact
  projector's rank is read from its trace (``trace_rank``).
* float mode: ordinary float64 arrays, SVD-based ranks and kernels,
  tolerance 1e-10 unless stated otherwise; ``same`` compares within it.

``is_exact`` tells the modes apart by dtype: ``dtype == object`` is exact.
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


def max_abs(a: np.ndarray) -> float:
    """Largest |entry| of a float array, 0.0 for an empty one."""
    return float(np.max(np.abs(a), initial=0.0))


def same(a, b, exact: bool, tol: float = TOL, axes=(-2, -1)):
    """The one exact-or-tolerance verdict, per index outside ``axes``: a == b
    exactly, or every entry of a - b within tol in float mode."""
    if exact:
        return np.all(a == b, axis=axes)
    diff = a - b
    return np.abs(diff, out=diff).max(axis=axes, initial=0.0) <= tol


def narrow(nums: np.ndarray, bound: int, terms: int) -> np.ndarray:
    """The one int64 rule: integer array ``nums`` as int64 when a sum of
    ``terms`` products of two integers of size at most ``bound`` stays below
    2**63, else as python ints.  ``bound`` must cover every factor, so
    products of the result cannot overflow."""
    return nums.astype(np.int64 if bound**2 * terms < 2**63 else object, copy=False)


def numerators(a) -> tuple[np.ndarray, int]:
    """(N, m) with a == N / m for an exact array: m is the least common
    denominator of the entries and N holds python ints.  Builds no Fraction;
    an array of ints alone is its own N (a copy), with m = 1."""
    a = np.asarray(a, dtype=object)
    flat = a.reshape(-1)
    if set(map(type, flat)) <= {int}:
        return a.copy(), 1
    m = math.lcm(*(x.denominator for x in flat))
    nums = [x.numerator * (m // x.denominator) for x in flat]
    return np.array(nums, dtype=object).reshape(a.shape), m


def rank(a: np.ndarray, tol: float = TOL) -> int:
    if a.size == 0:
        return 0
    return int(np.linalg.matrix_rank(as_float(a), tol=tol))


def nullspace(a: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Columns form an orthonormal basis of ker(a): the right singular
    vectors past the singular values above tol * s_max."""
    _, s, vh = np.linalg.svd(as_float(a))
    return vh[np.sum(s > tol * s.max(initial=0.0)):].T


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


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish float orthogonal matrix (QR of a Gaussian sample)."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def block_diag(blocks: list[np.ndarray], exact: bool) -> np.ndarray:
    """Block-diagonal matrix of square blocks; blocks with a leading axis
    (stacks of one block per group element) give a stack.  Exact blocks
    keep their dtype: int64 integer blocks give an int64 result, and an
    object block an object one."""
    n = sum(b.shape[-1] for b in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, n),
                   dtype=np.result_type(*blocks) if exact else float)
    pos = 0
    for b in blocks:
        k = b.shape[-1]
        out[..., pos : pos + k, pos : pos + k] = b
        pos += k
    return out
