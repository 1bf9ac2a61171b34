"""Fredholm index of d/ds - B(s) with hyperbolic limits, by spectral flow.

The index is the eigenvalue count dim E^u(B-) - dim E^u(B+), where E^u(B)
is the invariant subspace for eigenvalues with negative real part (counted
with algebraic multiplicity; the matrices need not be symmetric).  An
independent shooting oracle computes kernels as intersections of propagated
boundary-decay subspaces; the index equals the kernel of the adjoint path
minus the kernel of the path itself.  It runs RK4 on a fixed grid: B is
sampled once per half step, the one-step maps of a block of steps form a
matrix stack whose products over chunks of steps move the frames, one QR per
chunk, and the path and its adjoint -B^T share one sweep from each end.

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


@dataclass
class MatrixPath:
    """A path of real matrices s -> B(s) with hyperbolic limits.

    ``evaluator`` must be defined on all of R and stationary up to 1e-6
    beyond +-horizon, where it agrees with ``b_minus`` / ``b_plus``.
    """

    evaluator: object
    horizon: float
    b_minus: np.ndarray
    b_plus: np.ndarray
    name: str = "path"

    def __post_init__(self):
        self.b_minus = np.atleast_2d(np.asarray(self.b_minus, dtype=float))
        self.b_plus = np.atleast_2d(np.asarray(self.b_plus, dtype=float))

    @property
    def dim(self) -> int:
        return self.b_minus.shape[0]

    def at(self, s: float) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.evaluator(s), dtype=float))

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
        ev = self.evaluator
        return MatrixPath(
            lambda s: -np.atleast_2d(np.asarray(ev(s), dtype=float)).T,
            self.horizon,
            -self.b_minus.T,
            -self.b_plus.T,
            name=f"adjoint({self.name})",
        )


def constant_path(b, horizon: float = 8.0) -> MatrixPath:
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return MatrixPath(lambda s: b, horizon, b, b, name="constant")


def tanh_path(b0, b1, horizon: float = 9.0) -> MatrixPath:
    """B(s) = B0 + tanh(s) B1, interpolating B0 - B1 to B0 + B1."""
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    b1 = np.atleast_2d(np.asarray(b1, dtype=float))
    return MatrixPath(
        lambda s: b0 + np.tanh(s) * b1, horizon, b0 - b1, b0 + b1, name="tanh"
    )


def scalar_tanh_path(horizon: float = 9.0) -> MatrixPath:
    return tanh_path([[0.0]], [[1.0]], horizon)


def concatenate(p1: MatrixPath, p2: MatrixPath, tol: float = 1e-5) -> MatrixPath:
    """Glue two paths whose inner limits match (B1+ = B2-)."""
    if p1.dim != p2.dim:
        raise InvalidInputError("cannot concatenate paths of different sizes")
    if np.max(np.abs(p1.b_plus - p2.b_minus)) > tol:
        raise InvalidInputError("inner limits do not match")
    t1, t2 = p1.horizon, p2.horizon

    def ev(s):
        return p1.at(s + 2 * t1) if s <= 0 else p2.at(s - 2 * t2)

    return MatrixPath(ev, 2 * (t1 + t2), p1.b_minus, p2.b_plus, name="concat")


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


def _realify_complex_matrix(a: np.ndarray) -> np.ndarray:
    """C-linear map on C^n -> real 2n x 2n matrix in (Re, Im) coordinates."""
    re, im = a.real, a.imag
    return np.block([[re, -im], [im, re]])


@dataclass
class LambdaOperatorSpec:
    """Weight-lambda linearization data: a path of real-linear maps A(s) on
    C^n (as 2n x 2n real matrices, or n x n complex for C-linear ones)."""

    n: int
    weight: int
    a_path: object
    horizon: float = 8.0

    def __post_init__(self):
        if self.weight < 1:
            raise InvalidInputError("weights are positive integers")

    def a_at(self, s: float) -> np.ndarray:
        a = np.asarray(self.a_path(s))
        if a.shape == (self.n, self.n) and np.iscomplexobj(a):
            a = _realify_complex_matrix(a)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape != (2 * self.n, 2 * self.n):
            raise InvalidInputError(
                f"A(s) must be a real-linear map on C^{self.n} "
                f"(2n x 2n real matrix), got shape {a.shape}"
            )
        return a


def build_lambda_path(spec: LambdaOperatorSpec) -> MatrixPath:
    """Realified path for the weight-lambda block: 4n x 4n real matrices in
    the coordinates (Re a, Im a, Re b, Im b).

    Raises when ||A(+-infinity)|| >= 2 lambda pi, which would destroy the
    hyperbolicity of the limits.
    """
    n = spec.n
    omega = 2.0 * np.pi * spec.weight
    j = np.block(
        [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
    )
    zero = np.zeros((2 * n, 2 * n))

    def b_at(s: float) -> np.ndarray:
        a = spec.a_at(s)
        return np.block([[-a, omega * j], [-omega * j, -a]])

    for side in (-1.0, 1.0):
        a_inf = spec.a_at(side * spec.horizon)
        norm = float(np.linalg.norm(a_inf, 2))
        if norm >= omega:
            raise NonHyperbolicError(
                f"||A({'+' if side > 0 else '-'}inf)|| = {norm:.4f} >= "
                f"2*lambda*pi = {omega:.4f}: limits are not hyperbolic"
            )
    return MatrixPath(
        b_at,
        spec.horizon,
        b_at(-spec.horizon),
        b_at(spec.horizon),
        name=f"lambda_{spec.weight}",
    )


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------


def _spectral_frame(b: np.ndarray, half: str) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of b for eigenvalues in
    the open left ('lhp') or right ('rhp') half plane."""
    _assert_hyperbolic(b)
    t, z, sdim = scipy.linalg.schur(b, output="real", sort=half)
    return z[:, :sdim]


def _chunk_maps(b: np.ndarray, h: float) -> np.ndarray:
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


def _propagate_frames(path: MatrixPath, frames: list, s0: float, s1: float,
                      step: float) -> list:
    """RK4 from s0 to s1 of ``frames[0]`` under u' = B(s) u and of
    ``frames[1]``, if given, under the adjoint equation u' = -B(s)^T u.

    One sweep serves both: B is sampled once per half step of the grid
    s_{j+1} = s_j + h, _BLOCK steps at a time, and the adjoint uses -B^T of
    the same samples.  Each product of _CHUNK step maps moves the frames and
    is followed by a QR: it spans the same subspace as a QR per step.
    """
    frames = list(frames)
    live = [i for i, f in enumerate(frames) if f.shape[1]]
    if not live:
        return frames
    n_steps = max(1, int(np.ceil(abs(s1 - s0) / step)))
    h, s, b = (s1 - s0) / n_steps, s0, [path.at(s0)]
    for done in range(0, n_steps, _BLOCK):
        ends = np.cumsum([s] + [h] * min(_BLOCK, n_steps - done))
        grid, s = np.column_stack([ends[:-1] + h / 2, ends[1:]]).ravel(), ends[-1]
        b = np.stack([b[-1]] + [path.at(x) for x in grid.tolist()])
        views = [b if i == 0 else -b.swapaxes(1, 2) for i in live]
        for chunk in _chunk_maps(np.stack(views), h).swapaxes(0, 1):
            for m, i in zip(chunk, live):
                u = m @ frames[i]
                if not np.all(np.isfinite(u)):
                    raise InvalidInputError(
                        "frame propagation overflowed despite renormalization"
                    )
                frames[i] = np.linalg.qr(u)[0]
    return frames


def _kernel_dims(path: MatrixPath, step: float | None, threshold: float,
                 adjoint: bool) -> list:
    """Kernel dimensions of the path and, if ``adjoint``, of s -> -B(s)^T."""
    path.validate()
    t = path.horizon
    if step is None:
        scale = max(np.max(np.abs(path.b_minus)), np.max(np.abs(path.b_plus)), 1.0)
        step = min(1e-3 * t, 0.05 / scale)
    limits = ((path.b_minus, path.b_plus), (-path.b_minus.T, -path.b_plus.T))
    grow = [_spectral_frame(b, "rhp") for b, _ in limits[:1 + adjoint]]
    decay = [_spectral_frame(b, "lhp") for _, b in limits[:1 + adjoint]]
    u = _propagate_frames(path, grow, -t, 0.0, step)
    v = _propagate_frames(path, decay, t, 0.0, step)
    return [int(np.sum(1.0 - np.linalg.svd(x.T @ y, compute_uv=False) <= threshold))
            for x, y in zip(u, v)]


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
