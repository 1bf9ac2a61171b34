"""Fredholm index of d/ds - B(s) with hyperbolic limits, by spectral flow.

The index is the eigenvalue count dim E^u(B-) - dim E^u(B+), where E^u(B)
is the invariant subspace for eigenvalues with negative real part (counted
with algebraic multiplicity; the matrices need not be symmetric), from one
``eigvals`` per dimension (``fredholm_indices``).  An independent shooting
oracle (``shooting_indices``) computes kernels as intersections of
propagated boundary-decay subspaces; the index equals the kernel of the
adjoint path minus the kernel of the path itself, and the oracle returns it
beside the eigenvalue count of its own validation pass.  Both take a list of
paths and check each once, in list order (``_validated``).  Paths are
sampled as stacks (an evaluator maps a (k, 1, 1) array of s to a (k, d, d)
stack), and RK4 sweeps in from both ends in one loop, every frame of every
path on one grid as one padded stack, one QR per chunk.

The autonomous Floer linearization in a circle weight lambda >= 1 acts on
pairs (a, b) of C^n-valued functions as

    (a, b) |-> (a' - i 2 lambda pi b + A(s) a,  b' + i 2 lambda pi a + A(s) b)

which is d/ds - B(s) with B(a, b) = (i 2 lambda pi b - A a, -i 2 lambda pi a - A b);
for ||A|| < 2 lambda pi both limit matrices are hyperbolic with unstable
dimension 2n, so the index vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError, NonHyperbolicError

HYPERBOLICITY_MARGIN = 1e-6
TAIL_TOLERANCE = 1e-6
ANGLE_THRESHOLD = 1e-6
SIGN_STEPS = 100  # scaled Newton steps allowed for the matrix sign function
MAX_STEPS = 10**5  # RK4 steps allowed per shooting sweep
_BLOCK = 128  # RK4 steps sampled and multiplied at a time
_CHUNK = 16  # RK4 steps per QR renormalization (a power of two)


# ---------------------------------------------------------------------------
# matrix paths
# ---------------------------------------------------------------------------


def _square(*mats) -> list:
    """Float copies of non-empty, finite square matrices of one size."""
    out = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
    if out[0].size == 0 or any(m.shape != (len(out[0]),) * 2 for m in out):
        raise InvalidInputError("path matrices must be non-empty, square and of "
                                f"one size, got shapes {[m.shape for m in out]}")
    if not all(np.isfinite(m).all() for m in out):
        raise InvalidInputError("path matrices must be finite")
    return out


@dataclass
class MatrixPath:
    """A path of real d x d matrices s -> B(s) with hyperbolic limits.

    ``evaluator`` maps a ``(k, 1, 1)`` float array of s to a stack that
    broadcasts to ``(k, d, d)``, so formulas written for one s
    (``b0 + np.tanh(s) * b1``, a constant) serve a stack.  It must be defined
    on all of R and stationary up to 1e-6 beyond +-horizon, where it agrees
    with ``b_minus`` / ``b_plus``.
    """

    evaluator: object
    horizon: float
    b_minus: np.ndarray
    b_plus: np.ndarray
    name: str = "path"

    def __post_init__(self):
        self.b_minus, self.b_plus = _square(self.b_minus, self.b_plus)

    @property
    def dim(self) -> int:
        return self.b_minus.shape[0]

    def at(self, s) -> np.ndarray:
        """B at s: a (d, d) matrix for a number s, a (len(s), d, d) stack for
        a 1-D array of s."""
        x = np.asarray(s, dtype=float)
        b = np.asarray(self.evaluator(x.reshape(-1, 1, 1)), dtype=float)
        if b.shape != (x.size, self.dim, self.dim):
            b = np.broadcast_to(b, (x.size, self.dim, self.dim))
        return b if x.ndim else b[0]


def constant_path(b, horizon: float = 8.0) -> MatrixPath:
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return MatrixPath(lambda s: b, horizon, b, b, name="constant")


def tanh_path(b0, b1, horizon: float = 9.0) -> MatrixPath:
    """B(s) = B0 + tanh(s) B1, interpolating B0 - B1 to B0 + B1."""
    b0, b1 = _square(b0, b1)
    return MatrixPath(lambda s: b0 + np.tanh(s) * b1, horizon, b0 - b1, b0 + b1,
                      name="tanh")


def scalar_tanh_path(horizon: float = 9.0) -> MatrixPath:
    return tanh_path([[0.0]], [[1.0]], horizon)


# ---------------------------------------------------------------------------
# eigenvalue counts and the index
# ---------------------------------------------------------------------------


def _check_hyperbolic(worst: float, what: str) -> None:
    """Raise unless ``worst``, the least |Re| of an eigenvalue, clears the margin."""
    if worst <= HYPERBOLICITY_MARGIN:
        raise NonHyperbolicError(
            f"{what} has an eigenvalue within {HYPERBOLICITY_MARGIN:g} of the "
            f"imaginary axis (closest real part {worst:.2e})"
        )


def unstable_dim(b) -> int:
    """Number of eigenvalues with negative real part, with multiplicity."""
    re = np.linalg.eigvals(np.atleast_2d(np.asarray(b, dtype=float))).real
    _check_hyperbolic(float(np.abs(re).min()), "matrix")
    return int(np.sum(re < 0))


def _validated(paths: list):
    """Check each path in list order and yield the unstable dimensions of
    its B- and B+.  The first failure raises: a horizon T that is not
    positive, B- and then B+ not hyperbolic, B off its limit by more than
    TAIL_TOLERANCE at -T and then at +T.  The limit eigenvalues come up
    front from one ``eigvals`` per dimension d over a (k, 2, d, d) stack;
    both tails of a path come from one two-point sample, taken only once
    every earlier path has passed."""
    by_dim: dict = {}
    for k, path in enumerate(paths):
        by_dim.setdefault(path.dim, []).append(k)
    limits = [None] * len(paths)
    for ks in by_dim.values():
        stack = np.stack([(paths[k].b_minus, paths[k].b_plus) for k in ks])
        re = np.linalg.eigvals(stack).real
        for k, *limit in zip(ks, stack, (re < 0).sum(axis=2).tolist(),
                             np.abs(re).min(axis=2).tolist()):
            limits[k] = limit
    for path, (b, unstable, worst) in zip(paths, limits):
        t = path.horizon
        if not t > 0:
            raise InvalidInputError(f"path horizon {t} is not positive")
        for side, x in zip("-+", worst):
            _check_hyperbolic(x, f"limit matrix B{side}")
        drift = np.abs(path.at([-t, t]) - b).max(axis=(1, 2))
        for sign, x in zip((-1.0, 1.0), drift):
            if not x <= TAIL_TOLERANCE:  # a NaN drift fails too
                raise InvalidInputError(
                    f"path is not stationary at s = {sign * t}: drift {x:.2e}")
        yield unstable


def fredholm_indices(paths: list) -> list:
    """dim E^u(B-) - dim E^u(B+) per path (a one-path list for one path),
    each path checked in list order (``_validated``)."""
    return [minus - plus for minus, plus in _validated(paths)]


# ---------------------------------------------------------------------------
# the weight-lambda linearization
# ---------------------------------------------------------------------------


def build_lambda_path(n: int, weight: int, a_path, horizon: float = 8.0) -> MatrixPath:
    """Realified path of the weight-lambda linearization for a path of
    real-linear maps A(s) on C^n, n >= 1: a stack of 4n x 4n real matrices
    [[-A, omega J], [-omega J, -A]] in the coordinates (Re a, Im a, Re b,
    Im b).  ``a_path`` follows the ``MatrixPath`` evaluator contract, with
    2n x 2n real matrices in the coordinates (Re, Im), and its shape is
    checked at every evaluation.

    Raises when ||A(+-infinity)|| >= 2 lambda pi, which would destroy the
    hyperbolicity of the limits.
    """
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    if weight < 1:
        raise InvalidInputError("weights are positive integers")
    omega = 2.0 * np.pi * weight
    j = omega * (np.eye(2 * n, k=-n) - np.eye(2 * n, k=n))
    c = np.zeros((4 * n, 4 * n))
    c[:2 * n, 2 * n:] = j
    c[2 * n:, :2 * n] = -j

    def b_at(s: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a_path(s), dtype=float))
        if a.shape[-2:] != (2 * n, 2 * n):
            raise InvalidInputError(
                f"A(s) must be a real-linear map on C^{n} "
                f"(2n x 2n real matrix), got shape {a.shape}"
            )
        b = np.empty(a.shape[:-2] + c.shape)
        b[...] = c
        b[..., :2 * n, :2 * n] -= a
        b[..., 2 * n:, 2 * n:] -= a
        return b

    limits = np.broadcast_to(b_at(np.array([[[-horizon]], [[horizon]]])),
                             (2, 4 * n, 4 * n))
    norms = np.linalg.svd(limits[:, :2 * n, :2 * n], compute_uv=False).max(axis=1)
    for side, norm in zip("-+", norms.tolist()):
        if norm >= omega:
            raise NonHyperbolicError(
                f"||A({side}inf)|| = {norm:.4f} >= "
                f"2*lambda*pi = {omega:.4f}: limits are not hyperbolic"
            )
    return MatrixPath(b_at, horizon, *limits, name=f"lambda_{weight}")


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------


def _matrix_sign(b: np.ndarray) -> np.ndarray:
    """sign(B) for each matrix of a (k, d, d) stack by the scaled Newton
    iteration S <- (mu S + (mu S)^-1) / 2, mu = |det S|^(-1/d) (Higham,
    Functions of Matrices, SIAM 2008, ch. 5).  It converges quadratically for
    hyperbolic B; it stops once no entry moved by more than 1e-6 max|S|, which
    leaves an error of order 1e-12.  A singular iterate, or no convergence in
    SIGN_STEPS steps, raises NonHyperbolicError."""
    s, d = np.asarray(b, dtype=float), b.shape[-1]
    for _ in range(SIGN_STEPS):
        try:
            inv = np.linalg.inv(s)
        except np.linalg.LinAlgError:
            break
        mu = np.exp(-np.linalg.slogdet(s)[1] / d)[:, None, None]
        s, prev = (mu * s + inv / mu) / 2, s
        if np.all(np.abs(s - prev).max(axis=(1, 2)) <= 1e-6 * np.abs(s).max(axis=(1, 2))):
            return s
    raise NonHyperbolicError("matrix sign iteration did not converge: a matrix has "
                             "an eigenvalue on the imaginary axis")


def _start_frames(path: MatrixPath) -> list:
    """Orthonormal bases of the rhp invariant subspace of B- and the lhp one
    of B+, then of the same two for -B-^T and -B+^T: ranges of the spectral
    projectors (I +- sign B) / 2, sign(-B^T) = -sign(B)^T."""
    sign = _matrix_sign(np.stack([path.b_minus, path.b_plus]))
    halves = [(1, sign[0]), (-1, sign[1]), (-1, sign[0].T), (1, sign[1].T)]
    return [linalg.projector_range((np.eye(path.dim) + e * s) / 2) for e, s in halves]


def _chunk_maps(b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Products of _CHUNK consecutive RK4 one-step maps of u' = B(s) u, later
    steps on the left, from an (f, 2k + 1, d, d) stack of B sampled every
    half step.  Step j maps u to (I + h/6 (B0 + 2 K2 + 2 K3 + K4)) u with
    K2 = Bm + h/2 Bm B0, K3 = Bm + h/2 Bm K2 and K4 = B1 + h B1 K3; the k
    maps, padded with identities, are multiplied by a pairwise tree.  The
    sums are formed in place, in the order written, so three (f, k, d, d)
    buffers hold every intermediate."""
    b0, bm, b1 = b[:, :-1:2], b[:, 1::2], b[:, 2::2]
    f, k, d = b0.shape[:3]
    k2 = bm @ b0
    k2 *= h / 2
    k2 += bm
    maps = np.empty((f, k - k % -_CHUNK, d, d))
    maps[:, k:] = np.eye(d)
    total = np.multiply(k2, 2, out=maps[:, :k])
    total += b0
    k3 = bm @ k2
    k3 *= h / 2
    k3 += bm
    k4 = np.matmul(b1, k3, out=k2)
    k4 *= h
    k4 += b1
    k3 *= 2
    total += k3
    total += k4
    total *= h / 6
    total += np.eye(d)
    del k2, k3, k4
    p = maps.reshape(f, -1, _CHUNK, d, d)
    while p.shape[2] > 1:
        p = p[:, :, 1::2] @ p[:, :, ::2]
    return p[:, :, 0]


def _propagated_frames(paths: list, starts: list, n_steps: int) -> list:
    """For each of ``paths``, all of one dim and one horizon T, its start
    frames (``_start_frames``) carried to s = 0 in n_steps RK4 steps: the
    rhp subspace of B- forward from -T and the lhp subspace of B+ backward
    from +T under u' = B(s) u, then the same two under u' = -B(s)^T u.

    The mirrored grids s_{j+1} = s_j +- h have one step count, so each block
    of _BLOCK steps samples both, every half step, in one ``path.at``
    call per path, and turns them into the path's chunk maps before the next
    path is sampled; the adjoint uses -B^T of the same samples.  All frames
    of all paths move as one zero-padded (4 len(paths), d, r_max) stack: per
    _CHUNK steps one product, one finiteness check and one QR.  The first r
    columns of a Householder Q depend only on the first r columns, so each
    frame keeps its span.
    """
    t, d = paths[0].horizon, paths[0].dim
    frames = [f for four in starts for f in four]
    widths = [f.shape[1] for f in frames]
    u = np.stack([np.pad(f, ((0, 0), (0, max(widths) - f.shape[1]))) for f in frames])
    h = np.array([[t], [-t]]) / n_steps
    end = np.array([[-t], [t]])
    last = [path.at(end.ravel())[:, None] for path in paths]
    hs = np.resize(h, (4, 1, 1, 1))
    for j in range(0, n_steps, _BLOCK):
        ends = np.cumsum(np.column_stack([end, np.tile(h, min(_BLOCK, n_steps - j))]),
                         axis=1)
        half_steps = np.stack([ends[:, :-1] + h / 2, ends[:, 1:]], axis=2).ravel()
        end = ends[:, -1:]
        maps = []
        for k, path in enumerate(paths):
            # B forward and backward, then -B^T of the same samples
            b = np.empty((4, len(half_steps) // 2 + 1, d, d))
            np.concatenate([last[k], path.at(half_steps).reshape(2, -1, d, d)],
                           axis=1, out=b[:2])
            np.negative(b[:2].swapaxes(2, 3), out=b[2:])
            last[k] = b[:2, -1:].copy()
            maps.append(_chunk_maps(b, hs))
        for chunk in np.concatenate(maps).swapaxes(0, 1):
            u = chunk @ u
            if not np.all(np.isfinite(u)):
                raise InvalidInputError("frame propagation overflowed despite "
                                        "renormalization")
            u = np.linalg.qr(u)[0]
    return [[x[:, :w] for x, w in zip(u[k:k + 4], widths[k:k + 4])]
            for k in range(0, len(frames), 4)]


def _step_count(path: MatrixPath) -> int:
    """RK4 steps of one sweep of a validated path: min(1e-3 T, 0.05 / max|B+-|)
    each; a path that needs more than MAX_STEPS of them is invalid input."""
    scale = max(np.max(np.abs(path.b_minus)), np.max(np.abs(path.b_plus)), 1.0)
    n_steps = np.ceil(path.horizon / min(1e-3 * path.horizon, 0.05 / scale))
    if not n_steps <= MAX_STEPS:
        raise InvalidInputError(f"path needs {n_steps:.3g} RK4 steps at horizon "
                                f"{path.horizon}, above the limit of {MAX_STEPS}")
    return int(n_steps)


def _kernel_dims(paths: list) -> list:
    """(eigencount index, kernel, cokernel) per path: the index that
    ``_validated`` yields beside the dimensions of the bounded solutions of
    u' = B(s) u and of the adjoint u' = -B(s)^T u.

    Solutions bounded at -infinity come from the right-half-plane subspace
    of B-, propagated forward from -horizon; solutions bounded at +infinity
    come from the left-half-plane subspace of B+, propagated backward from
    +horizon.  A kernel is their intersection at s = 0, measured by
    principal angles, an angle counting as zero when its cosine is within
    ANGLE_THRESHOLD of 1.  Each path in turn is validated (``_validated``)
    and given its step count and start frames, so the first invalid path in
    list order raises; then the paths of one (dim, horizon, step count) are
    swept together (``_propagated_frames``)."""
    groups: dict = {}
    for k, (path, (minus, plus)) in enumerate(zip(paths, _validated(paths))):
        key = (path.dim, path.horizon, _step_count(path))
        groups.setdefault(key, []).append((k, minus - plus, _start_frames(path)))
    dims = [None] * len(paths)
    for (_, _, n_steps), members in groups.items():
        ks, indices, starts = zip(*members)
        swept = _propagated_frames([paths[k] for k in ks], starts, n_steps)
        for k, index, frames in zip(ks, indices, swept):
            kernel, cokernel = (int(np.sum(1.0 - np.linalg.svd(x.T @ y, compute_uv=False)
                                           <= ANGLE_THRESHOLD))
                                for x, y in zip(frames[::2], frames[1::2]))
            dims[k] = (index, kernel, cokernel)
    return dims


def shooting_indices(paths: list) -> list:
    """Independent oracle, one (eigencount, shooting) pair per path (a
    one-path list for one path): the eigenvalue-count index from the one
    validation pass, and the kernel of the adjoint path minus the kernel of
    the path, which equals it.  The shooting index computes no eigenvalues,
    so the two stay independent."""
    return [(index, cokernel - kernel) for index, kernel, cokernel in _kernel_dims(paths)]
