"""Fredholm index of d/ds - B(s) with hyperbolic limits, by spectral flow.

The index is the eigenvalue count dim E^u(B-) - dim E^u(B+), where E^u(B)
is the invariant subspace for eigenvalues with negative real part (counted
with algebraic multiplicity; the matrices need not be symmetric).  An
independent shooting oracle computes kernels as intersections of propagated
boundary-decay subspaces; the index equals the kernel of the adjoint path
minus the kernel of the path itself.  Paths are sampled as stacks (an
evaluator maps a (k, 1, 1) array of s to a (k, d, d) stack), and RK4 on a
fixed grid sweeps in from both ends in one loop, moving every frame (path
and adjoint -B^T, from -T and from +T) as one padded stack, one QR per chunk.

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
import scipy.linalg

from .errors import InvalidInputError, NonHyperbolicError

HYPERBOLICITY_MARGIN = 1e-6
TAIL_TOLERANCE = 1e-6
ANGLE_THRESHOLD = 1e-6
_BLOCK = 128  # RK4 steps sampled and multiplied at a time
_CHUNK = 16  # RK4 steps per QR renormalization (a power of two)


# ---------------------------------------------------------------------------
# matrix paths
# ---------------------------------------------------------------------------


def _square(*mats) -> list:
    """Float copies of non-empty square matrices of one size."""
    out = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
    if out[0].size == 0 or any(m.shape != (len(out[0]),) * 2 for m in out):
        raise InvalidInputError("path matrices must be non-empty, square and of "
                                f"one size, got shapes {[m.shape for m in out]}")
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

    def sample(self, s) -> np.ndarray:
        """B at each point of the 1-D array s, as a (len(s), d, d) stack."""
        s = np.asarray(s, dtype=float).reshape(-1, 1, 1)
        b = np.asarray(self.evaluator(s), dtype=float)
        return np.broadcast_to(b, (len(s), self.dim, self.dim))

    def at(self, s: float) -> np.ndarray:
        return self.sample([s])[0]

    def validate(self) -> None:
        for b, side in ((self.b_minus, "-"), (self.b_plus, "+")):
            _assert_hyperbolic(b, f"limit matrix B{side}")
        for sign, b in ((-1.0, self.b_minus), (1.0, self.b_plus)):
            drift = np.max(np.abs(self.at(sign * self.horizon) - b))
            if drift > TAIL_TOLERANCE:
                raise InvalidInputError(
                    f"path is not stationary at s = {sign * self.horizon}: "
                    f"drift {drift:.2e}"
                )

    def adjoint(self) -> "MatrixPath":
        """The path s -> -B(s)^T, whose bounded solutions realize the
        cokernel of d/ds - B(s)."""
        return MatrixPath(lambda s: -self.sample(s).swapaxes(1, 2),
                          self.horizon, -self.b_minus.T, -self.b_plus.T,
                          name=f"adjoint({self.name})")


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


def concatenate(p1: MatrixPath, p2: MatrixPath, tol: float = 1e-5) -> MatrixPath:
    """Glue two paths whose inner limits match (B1+ = B2-) at the seam s = 0."""
    if p1.dim != p2.dim:
        raise InvalidInputError("cannot concatenate paths of different sizes")
    if np.max(np.abs(p1.b_plus - p2.b_minus)) > tol:
        raise InvalidInputError("inner limits do not match")
    t1, t2 = p1.horizon, p2.horizon
    return MatrixPath(
        lambda s: np.where(s <= 0, p1.sample(s + 2 * t1), p2.sample(s - 2 * t2)),
        2 * (t1 + t2), p1.b_minus, p2.b_plus, name="concat")


# ---------------------------------------------------------------------------
# eigenvalue counts and the index
# ---------------------------------------------------------------------------


def _assert_hyperbolic(b: np.ndarray, what: str = "matrix",
                       margin: float = HYPERBOLICITY_MARGIN) -> np.ndarray:
    eig = np.linalg.eigvals(b)
    worst = float(np.min(np.abs(eig.real))) if eig.size else 0.0
    if worst <= margin:
        raise NonHyperbolicError(
            f"{what} has an eigenvalue within {margin:g} of the imaginary "
            f"axis (closest real part {worst:.2e})"
        )
    return eig


def unstable_dim(b) -> int:
    """Number of eigenvalues with negative real part, with multiplicity."""
    b = np.atleast_2d(np.asarray(b, dtype=float))
    eig = _assert_hyperbolic(b)
    return int(np.sum(eig.real < 0))


def fredholm_index(path: MatrixPath) -> int:
    """dim E^u(B-) - dim E^u(B+)."""
    path.validate()
    return unstable_dim(path.b_minus) - unstable_dim(path.b_plus)


# ---------------------------------------------------------------------------
# the weight-lambda linearization
# ---------------------------------------------------------------------------


@dataclass
class LambdaOperatorSpec:
    """Weight-lambda linearization data: a path of real-linear maps A(s) on
    C^n, n >= 1.  ``a_path`` follows the ``MatrixPath`` evaluator contract,
    with 2n x 2n real matrices, or n x n complex ones for C-linear maps."""

    n: int
    weight: int
    a_path: object
    horizon: float = 8.0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("n must be a positive integer")
        if self.weight < 1:
            raise InvalidInputError("weights are positive integers")

    def a_at(self, s) -> np.ndarray:
        """A at the points s, realified to 2n x 2n over the last two axes."""
        a = np.asarray(self.a_path(s))
        if a.shape[-2:] == (self.n, self.n) and np.iscomplexobj(a):
            a = np.block([[a.real, -a.imag], [a.imag, a.real]])
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[-2:] != (2 * self.n, 2 * self.n):
            raise InvalidInputError(
                f"A(s) must be a real-linear map on C^{self.n} "
                f"(2n x 2n real matrix), got shape {a.shape}"
            )
        return a


def build_lambda_path(spec: LambdaOperatorSpec) -> MatrixPath:
    """Realified path for the weight-lambda block: a stack of 4n x 4n real
    matrices [[-A, omega J], [-omega J, -A]] in the coordinates (Re a, Im a,
    Re b, Im b).

    Raises when ||A(+-infinity)|| >= 2 lambda pi, which would destroy the
    hyperbolicity of the limits.
    """
    n, t = spec.n, spec.horizon
    omega = 2.0 * np.pi * spec.weight
    j = omega * (np.eye(2 * n, k=-n) - np.eye(2 * n, k=n))
    c = np.block([[np.zeros_like(j), j], [-j, np.zeros_like(j)]])

    def b_at(s: np.ndarray) -> np.ndarray:
        a = spec.a_at(s)
        b = np.broadcast_to(c, a.shape[:-2] + c.shape).copy()
        b[..., :2 * n, :2 * n] -= a
        b[..., 2 * n:, 2 * n:] -= a
        return b

    limits = np.broadcast_to(b_at(np.array([[[-t]], [[t]]])), (2, 4 * n, 4 * n))
    for side, b in zip("-+", limits):
        norm = float(np.linalg.norm(b[:2 * n, :2 * n], 2))
        if norm >= omega:
            raise NonHyperbolicError(
                f"||A({side}inf)|| = {norm:.4f} >= "
                f"2*lambda*pi = {omega:.4f}: limits are not hyperbolic"
            )
    return MatrixPath(b_at, t, *limits, name=f"lambda_{spec.weight}")


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------


def _spectral_frame(b: np.ndarray, half: str) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of b for eigenvalues in
    the open left ('lhp') or right ('rhp') half plane; b is hyperbolic."""
    t, z, sdim = scipy.linalg.schur(b, output="real", sort=half)
    return z[:, :sdim]


def _chunk_maps(b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Products of _CHUNK consecutive RK4 one-step maps of u' = B(s) u, later
    steps on the left, from an (f, 2k + 1, d, d) stack of B sampled every
    half step.  Step j maps u to (I + h/6 (B0 + 2 K2 + 2 K3 + K4)) u with
    K2 = Bm + h/2 Bm B0, K3 = Bm + h/2 Bm K2 and K4 = B1 + h B1 K3; the k
    maps, padded with identities, are multiplied by a pairwise tree."""
    b0, bm, b1 = b[:, :-1:2], b[:, 1::2], b[:, 2::2]
    k2 = bm + (h / 2) * (bm @ b0)
    k3 = bm + (h / 2) * (bm @ k2)
    k4 = b1 + h * (b1 @ k3)
    f, k, d = b0.shape[:3]
    maps = np.eye(d) + (h / 6) * (b0 + 2 * k2 + 2 * k3 + k4)
    pad = np.broadcast_to(np.eye(d), (f, -k % _CHUNK, d, d))
    p = np.concatenate([maps, pad], axis=1).reshape(f, -1, _CHUNK, d, d)
    while p.shape[2] > 1:
        p = p[:, :, 1::2] @ p[:, :, ::2]
    return p[:, :, 0]


def _propagated_frames(path: MatrixPath, step: float, adjoint: bool) -> list:
    """Frames at s = 0 of the rhp subspace of B- carried forward from -T and
    the lhp subspace of B+ carried backward from +T under u' = B(s) u, then,
    if ``adjoint``, the same two under u' = -B(s)^T u.

    The mirrored grids s_{j+1} = s_j +- h have one step count, so each block
    of _BLOCK steps samples both, every half step, in one ``path.sample``
    call; the adjoint uses -B^T of the same samples.  All frames move as one
    zero-padded (f, d, r_max) stack: per _CHUNK steps one product, one
    finiteness check and one QR.  The first r columns of a Householder Q
    depend only on the first r columns, so each frame keeps its span.
    """
    t, d = path.horizon, path.dim
    limits = [(path.b_minus, "rhp"), (path.b_plus, "lhp")]
    if adjoint:
        limits += [(-b.T, half) for b, half in limits]
    frames = [_spectral_frame(b, half) for b, half in limits]
    widths = [f.shape[1] for f in frames]
    u = np.stack([np.pad(f, ((0, 0), (0, max(widths) - f.shape[1]))) for f in frames])
    n_steps = max(1, int(np.ceil(t / step)))
    h = np.array([[t], [-t]]) / n_steps
    ends = np.cumsum(np.column_stack([[-t, t], np.tile(h, n_steps)]), axis=1)
    grid = np.stack([ends[:, :-1] + h / 2, ends[:, 1:]], axis=2)
    b, hs = path.sample([-t, t])[:, None], np.resize(h, (len(frames), 1, 1, 1))
    for j in range(0, n_steps, _BLOCK):
        half_steps = grid[:, j:j + _BLOCK].ravel()
        b = np.concatenate(
            [b[:, -1:], path.sample(half_steps).reshape(2, -1, d, d)], axis=1)
        views = np.concatenate([b, -b.swapaxes(2, 3)]) if adjoint else b
        for chunk in _chunk_maps(views, hs).swapaxes(0, 1):
            u = chunk @ u
            if not np.all(np.isfinite(u)):
                raise InvalidInputError("frame propagation overflowed despite "
                                        "renormalization")
            u = np.linalg.qr(u)[0]
    return [x[:, :w] for x, w in zip(u, widths)]


def _kernel_dims(path: MatrixPath, step: float | None, threshold: float,
                 adjoint: bool) -> list:
    """Kernel dimensions of the path and, if ``adjoint``, of s -> -B(s)^T."""
    path.validate()
    if step is None:
        scale = max(np.max(np.abs(path.b_minus)), np.max(np.abs(path.b_plus)), 1.0)
        step = min(1e-3 * path.horizon, 0.05 / scale)
    frames = _propagated_frames(path, step, adjoint)
    return [int(np.sum(1.0 - np.linalg.svd(x.T @ y, compute_uv=False) <= threshold))
            for x, y in zip(frames[::2], frames[1::2])]


def kernel_dim_oracle(path: MatrixPath, step: float | None = None,
                      threshold: float = ANGLE_THRESHOLD) -> int:
    """Dimension of the space of bounded solutions of u' = B(s) u.

    Solutions bounded at -infinity come from the right-half-plane subspace
    of B-, propagated forward from -horizon; solutions bounded at +infinity
    come from the left-half-plane subspace of B+, propagated backward from
    +horizon.  The kernel is their intersection at s = 0, measured by
    principal angles.
    """
    return _kernel_dims(path, step, threshold, adjoint=False)[0]


def index_by_shooting(path: MatrixPath, step: float | None = None) -> int:
    """Independent oracle: kernel of the adjoint path minus kernel of the
    path equals the eigenvalue-count index."""
    kernel, cokernel = _kernel_dims(path, step, ANGLE_THRESHOLD, adjoint=True)
    return cokernel - kernel
