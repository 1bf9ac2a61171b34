"""Tests for spectral-flow indices, the weight-lambda linearization, and the
shooting oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitrans import spectral
from equitrans.errors import InvalidInputError, NonHyperbolicError
from equitrans.spectral import (
    LambdaOperatorSpec,
    build_lambda_path,
    concatenate,
    constant_path,
    fredholm_index,
    index_by_shooting,
    kernel_dim_oracle,
    scalar_tanh_path,
    tanh_path,
    unstable_dim,
)


# ---------------------------------------------------------------------------
# eigenvalue counts
# ---------------------------------------------------------------------------


def test_unstable_dim_basic():
    assert unstable_dim(np.diag([-1.0, 2.0])) == 1
    assert unstable_dim(-np.eye(4)) == 4
    assert unstable_dim(np.eye(3)) == 0


def test_unstable_dim_counts_multiplicity_nonsymmetric():
    b = np.array([[-1.0, 5.0], [0.0, -1.0]])  # Jordan-ish block
    assert unstable_dim(b) == 2


def test_unstable_dim_rejects_near_axis():
    with pytest.raises(NonHyperbolicError):
        unstable_dim(np.diag([1e-9, 1.0]))
    with pytest.raises(NonHyperbolicError):
        unstable_dim(np.array([[0.0, -1.0], [1.0, 0.0]]))  # eigenvalues +-i


def test_fredholm_index_constant_zero():
    assert fredholm_index(constant_path(np.diag([-2.0, 3.0]))) == 0


def test_fredholm_index_tanh_is_one():
    assert fredholm_index(scalar_tanh_path()) == 1


def test_fredholm_index_reverse_tanh_is_minus_one():
    path = tanh_path([[0.0]], [[-1.0]])
    assert fredholm_index(path) == -1


def test_path_validation_rejects_drifting_tail():
    # the declared limit disagrees with the evaluator at +horizon
    path = spectral.MatrixPath(lambda s: np.tanh(s), 4.0, [[-1.0]], [[2.0]])
    with pytest.raises(InvalidInputError):
        path.validate()


def test_concatenation_additivity():
    p1 = scalar_tanh_path()
    p2 = tanh_path([[2.0]], [[1.0]])  # 1 -> 3, index 0
    glued = concatenate(p1, p2)
    assert fredholm_index(glued) == fredholm_index(p1) + fredholm_index(p2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        d0 = np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], size=2))
        d1 = np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], size=2))
        q1 = tanh_path(np.zeros((2, 2)), d0)
        q2 = tanh_path(2 * d0 - (d0 + d1) / 1.0, (d1 - d0) / 1.0)
        # build q2 with matching inner limit: B2- = d0
        b2_minus = q2.b_minus
        if np.max(np.abs(b2_minus - q1.b_plus)) > 1e-8:
            continue
        assert fredholm_index(concatenate(q1, q2)) == fredholm_index(
            q1
        ) + fredholm_index(q2)


def test_homotopy_invariance_under_small_perturbation():
    rng = np.random.default_rng(12)
    base = tanh_path(np.diag([0.5, -0.5]), np.diag([1.0, -1.0]))
    idx = fredholm_index(base)
    for _ in range(50):
        delta = rng.normal(size=(2, 2)) * 0.05
        pert = spectral.MatrixPath(
            lambda s, d=delta: base.at(s) + d,
            base.horizon,
            base.b_minus + delta,
            base.b_plus + delta,
        )
        assert fredholm_index(pert) == idx


def test_sample_stack_matches_pointwise_at():
    # path.sample(s)[i] == path.at(s[i]) for every path builder, on both
    # sides of the concatenation seam at s = 0 and beyond the horizons
    s = np.array([-40.0, -9.0, -1.5, -1e-3, 0.0, 1e-3, 0.7, 9.0, 40.0])
    p1 = tanh_path([[0.5, 1.0], [0.0, -0.5]], [[1.0, 0.0], [0.3, -1.0]])
    p2 = tanh_path(p1.b_plus + [[0.0, 0.5], [0.0, 0.0]], [[0.0, 0.5], [0.0, 0.0]])
    a_real = np.array([[0.3, -0.2], [0.1, 0.4]])
    a_complex = np.array([[0.3 + 0.2j, 0.1j], [-0.2, 0.1 - 0.3j]])
    paths = [
        constant_path(np.diag([-2.0, 3.0])),
        p1,
        scalar_tanh_path(),
        concatenate(p1, p2),
        p1.adjoint(),
        build_lambda_path(LambdaOperatorSpec(1, 2, lambda s: np.tanh(s) * a_real)),
        build_lambda_path(LambdaOperatorSpec(2, 1, lambda s: np.tanh(s) * a_complex)),
    ]
    for path in paths:
        stack = path.sample(s)
        assert stack.shape == (len(s), path.dim, path.dim), path.name
        for x, b in zip(s, stack):
            np.testing.assert_array_equal(b, path.at(x), err_msg=f"{path.name} {x}")
    # the glued path is p1 shifted left of the seam and p2 shifted right of it
    for x, b in zip(s, paths[3].sample(s)):
        piece = p1.at(x + 2 * p1.horizon) if x <= 0 else p2.at(x - 2 * p2.horizon)
        np.testing.assert_array_equal(b, piece, err_msg=f"seam {x}")


def _rotated_limit(rng, eig):
    q = np.linalg.qr(rng.normal(size=(len(eig), len(eig))))[0]
    return q @ np.diag(eig) @ q.T


@settings(max_examples=12, deadline=None, derandomize=True)
@given(size=st.integers(1, 2), data=st.data())
def test_index_additive_under_concatenation_by_shooting(size, data):
    # random tanh paths L0 -> L1 -> L2 with independent rotations at each
    # limit; the glued path is shot across the seam mask
    eig = st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=size,
                   max_size=size)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    l0, l1, l2 = (_rotated_limit(rng, data.draw(eig)) for _ in range(3))
    p1 = tanh_path((l0 + l1) / 2, (l1 - l0) / 2)
    p2 = tanh_path((l1 + l2) / 2, (l2 - l1) / 2)
    glued = concatenate(p1, p2)
    assert index_by_shooting(glued) == fredholm_index(p1) + fredholm_index(p2)


# ---------------------------------------------------------------------------
# weight-lambda paths
# ---------------------------------------------------------------------------


def test_lambda_path_zero_a_explicit_spectrum():
    # oracle: B^2 = (2 lambda pi)^2 I, eigenvalues +-2pi each twice for n=1
    spec = LambdaOperatorSpec(1, 1, lambda s: np.zeros((2, 2)))
    path = build_lambda_path(spec)
    b = path.at(0.0)
    assert np.allclose(b @ b, (2 * np.pi) ** 2 * np.eye(4), atol=1e-12)
    assert np.allclose(b, b.T)
    eig = np.sort(np.linalg.eigvals(b).real)
    assert np.allclose(eig, [-2 * np.pi, -2 * np.pi, 2 * np.pi, 2 * np.pi])


@pytest.mark.parametrize("weight", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_path_zero_a_index_zero(weight, n):
    spec = LambdaOperatorSpec(n, weight, lambda s: np.zeros((2 * n, 2 * n)))
    path = build_lambda_path(spec)
    assert unstable_dim(path.b_minus) == 2 * n
    assert unstable_dim(path.b_plus) == 2 * n
    assert fredholm_index(path) == 0


def test_lambda_path_small_tanh_a_index_zero():
    spec = LambdaOperatorSpec(
        1, 1, lambda s: 0.1 * np.tanh(s) * np.eye(2)
    )
    path = build_lambda_path(spec)
    assert fredholm_index(path) == 0


def test_lambda_path_seeded_small_a_index_zero():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lam = int(rng.integers(1, 6))
        a_minus = rng.normal(size=(2 * n, 2 * n))
        a_plus = rng.normal(size=(2 * n, 2 * n))
        for a in (a_minus, a_plus):
            a *= (np.pi / 2) / max(1.0, np.linalg.norm(a, 2))

        def a_path(s, am=a_minus, ap=a_plus):
            t = (np.tanh(s) + 1) / 2
            return (1 - t) * am + t * ap

        path = build_lambda_path(LambdaOperatorSpec(n, lam, a_path))
        assert unstable_dim(path.b_minus) == 2 * n
        assert unstable_dim(path.b_plus) == 2 * n
        assert fredholm_index(path) == 0


def test_lambda_path_rejects_large_a():
    spec = LambdaOperatorSpec(1, 1, lambda s: 7.0 * np.eye(2))
    with pytest.raises(NonHyperbolicError):
        build_lambda_path(spec)


def test_lambda_path_accepts_complex_a():
    spec = LambdaOperatorSpec(1, 1, lambda s: np.array([[0.3 + 0.2j]]))
    path = build_lambda_path(spec)
    assert fredholm_index(path) == 0


def test_lambda_path_blocks_from_complex_a():
    # B = [[-A, wJ], [-wJ, -A]], J = [[0, -I], [I, 0]], with the complex A
    # realified in (Re, Im) coordinates, for a stack of s at once
    a = np.array([[0.3 + 0.2j, 0.1j], [-0.2, 0.1 - 0.3j]])
    path = build_lambda_path(LambdaOperatorSpec(2, 3, lambda s: np.tanh(s) * a))
    omega, z, i2 = 6 * np.pi, np.zeros((2, 2)), np.eye(2)
    j = np.block([[z, -i2], [i2, z]])
    s = np.array([-2.0, 0.0, 0.5])
    for x, b in zip(s, path.sample(s)):
        ax = np.tanh(x) * a
        real = np.block([[ax.real, -ax.imag], [ax.imag, ax.real]])
        expected = np.block([[-real, omega * j], [-omega * j, -real]])
        np.testing.assert_allclose(b, expected, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------


def test_oracle_constant_path_no_bounded_solutions():
    assert kernel_dim_oracle(constant_path(np.diag([-1.0, 2.0]))) == 0


def test_oracle_tanh_kernels_frozen():
    # u' = tanh(s) u has only the unbounded solution cosh(s): kernel 0;
    # the adjoint path -B has the bounded solution 1/cosh(s): kernel 1
    path = scalar_tanh_path()
    assert kernel_dim_oracle(path) == 0
    assert kernel_dim_oracle(path.adjoint()) == 1
    assert index_by_shooting(path) == 1 == fredholm_index(path)


def test_oracle_lambda_path_transverse():
    spec = LambdaOperatorSpec(1, 1, lambda s: np.zeros((2, 2)))
    path = build_lambda_path(spec)
    assert kernel_dim_oracle(path) == 0
    assert kernel_dim_oracle(path.adjoint()) == 0
    assert index_by_shooting(path) == 0


def test_oracle_matches_index_on_seeded_paths():
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(20):
        size = int(rng.integers(1, 3))
        d_minus = np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], size=size))
        d_plus = np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], size=size))
        q = np.linalg.qr(rng.normal(size=(size, size)))[0]
        b0 = q @ ((d_minus + d_plus) / 2) @ q.T
        b1 = q @ ((d_plus - d_minus) / 2) @ q.T
        if np.min(np.abs(np.linalg.eigvals(b0 - b1).real)) < 0.5:
            continue
        if np.min(np.abs(np.linalg.eigvals(b0 + b1).real)) < 0.5:
            continue
        path = tanh_path(b0, b1)
        assert index_by_shooting(path) == fredholm_index(path)
        checked += 1
    assert checked >= 10


def _reference_propagation(path, frame, s0, s1, step):
    """Per-step RK4 with a QR after every step: the scheme the batched
    propagator reorganizes (B at s + h is reused as B at the next s, the
    same float since s advances by s += h)."""
    n_steps = max(1, int(np.ceil(abs(s1 - s0) / step)))
    h = (s1 - s0) / n_steps
    u, s, b0 = frame.copy(), s0, path.at(s0)
    for _ in range(n_steps):
        bm, b1 = path.at(s + h / 2), path.at(s + h)
        k1 = b0 @ u
        k2 = bm @ (u + (h / 2) * k1)
        k3 = bm @ (u + (h / 2) * k2)
        k4 = b1 @ (u + h * k3)
        u = np.linalg.qr(u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))[0]
        s, b0 = s + h, b1
    return u


def _seeded_tanh_path(rng, size, signs=None):
    # independent rotations at the two ends, so that B(s) at different s do
    # not commute and the propagated subspaces turn; ``signs`` fixes the
    # eigenvalues of B- and B+
    limits = []
    for k in range(2):
        q = np.linalg.qr(rng.normal(size=(size, size)))[0]
        eig = (rng.choice([-2.0, -1.0, 1.0, 2.0], size=size) if signs is None
               else signs[k])
        limits.append(q @ np.diag(eig) @ q.T)
    b_minus, b_plus = limits
    return tanh_path((b_minus + b_plus) / 2, (b_plus - b_minus) / 2)


def _seeded_lambda_path(rng, weight):
    a_minus, a_plus = 0.5 * rng.normal(size=(2, 2, 2))
    return build_lambda_path(LambdaOperatorSpec(
        1, weight, lambda s: a_minus + (np.tanh(s) + 1) / 2 * (a_plus - a_minus)))


def test_batched_propagation_spans_per_step_subspaces():
    # frames at s = 0 from the joint sweep against per-step RK4 + QR, for the
    # path and its adjoint, forward from -T and backward from +T.  The
    # largest principal-angle sine is bounded, which is far stronger than
    # every cosine >= 1 - 1e-9: a wrong K3 moves it to about 4e-7.
    rng = np.random.default_rng(1618)
    paths = [_seeded_tanh_path(rng, size) for size in (1, 2, 3)]
    paths += [_seeded_lambda_path(rng, weight) for weight in (1, 2)]
    # frames of widths 1, 3, 2 and 0 share one zero-padded stack
    uneven = _seeded_tanh_path(rng, 3, ([1.0, -1.0, -2.0], [-1.0, -2.0, -2.0]))
    for path in paths + [uneven]:
        t = path.horizon
        scale = max(np.max(np.abs(path.b_minus)), np.max(np.abs(path.b_plus)), 1.0)
        step = min(1e-3 * t, 0.05 / scale)
        starts = [(p, s0, spectral._spectral_frame(getattr(p, limit), half))
                  for p in (path, path.adjoint())
                  for s0, half, limit in ((-t, "rhp", "b_minus"), (t, "lhp", "b_plus"))]
        swept = spectral._propagated_frames(path, step, adjoint=True)
        assert len(swept) == 4
        if path is uneven:
            assert [u.shape[1] for u in swept] == [1, 3, 2, 0]
        for (p, s0, frame), u in zip(starts, swept):
            assert u.shape == frame.shape
            if frame.shape[1]:
                ref = _reference_propagation(p, frame, s0, 0.0, step)
                sine = np.linalg.norm(u - ref @ (ref.T @ u), 2)
                assert sine <= 1e-9, (p.name, s0, sine)


def test_oracle_matches_index_on_non_normal_near_margin_paths():
    # limits S diag(+-eps) S^-1 with independent, non-orthogonal S at the two
    # ends: slow, non-normal decay close to the hyperbolicity margin
    rng = np.random.default_rng(4242)
    for k in range(48):
        size = 2 + k % 2
        eps = (0.2, 0.1, 0.05, 0.02)[k % 4]
        limits = []
        for _ in range(2):
            s = np.eye(size) + rng.normal(size=(size, size))
            while np.linalg.cond(s) > 50:
                s = np.eye(size) + rng.normal(size=(size, size))
            signs = rng.choice([-eps, eps], size=size)
            limits.append(s @ np.diag(signs) @ np.linalg.inv(s))
        b_minus, b_plus = limits
        path = tanh_path((b_minus + b_plus) / 2, (b_plus - b_minus) / 2)
        assert index_by_shooting(path) == fredholm_index(path), (k, eps)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_oracle_reports_interior_blow_up():
    # finite, stationary limits; B leaves the floating range on (1.5, 2.5),
    # which the adjoint's decaying frame crosses on its way back from +9
    path = spectral.MatrixPath(
        lambda s: np.tanh(s) + np.where(np.abs(s - 2.0) < 0.5, 1e200, 0.0),
        9.0, [[-1.0]], [[1.0]],
    )
    path.validate()
    for shoot in (lambda p: kernel_dim_oracle(p.adjoint()), index_by_shooting):
        with pytest.raises(InvalidInputError, match="frame propagation overflowed"):
            shoot(path)
