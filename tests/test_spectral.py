"""Tests for spectral-flow indices, the weight-lambda linearization, and the
shooting oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equitrans import linalg, reps, spectral, suites
from equitrans.errors import InvalidInputError, NonHyperbolicError
from equitrans.spectral import (
    build_lambda_path,
    constant_path,
    scalar_tanh_path,
    tanh_path,
    unstable_dim,
)


def fredholm_index(path):
    return spectral.fredholm_indices([path])[0]


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
        fredholm_index(path)


def concatenate(p1, p2):
    """Glue two paths whose inner limits match (B1+ = B2-) at the seam s = 0:
    p1 shifted left of it, p2 shifted right."""
    assert np.max(np.abs(p1.b_plus - p2.b_minus)) <= 1e-5
    t1, t2 = p1.horizon, p2.horizon
    return spectral.MatrixPath(
        lambda s: np.where(s <= 0, p1.at(s + 2 * t1), p2.at(s - 2 * t2)),
        2 * (t1 + t2), p1.b_minus, p2.b_plus, name="concat")


def adjoint(path):
    """The path s -> -B(s)^T, whose bounded solutions realize the cokernel
    of d/ds - B(s)."""
    return spectral.MatrixPath(lambda s: -path.at(s).swapaxes(1, 2),
                               path.horizon, -path.b_minus.T, -path.b_plus.T,
                               name=f"adjoint({path.name})")


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


def test_stack_at_matches_pointwise_at():
    # path.at(s)[i] == path.at(s[i]) for every path builder, on both
    # sides of the concatenation seam at s = 0 and beyond the horizons
    s = np.array([-40.0, -9.0, -1.5, -1e-3, 0.0, 1e-3, 0.7, 9.0, 40.0])
    p1 = tanh_path([[0.5, 1.0], [0.0, -0.5]], [[1.0, 0.0], [0.3, -1.0]])
    p2 = tanh_path(p1.b_plus + [[0.0, 0.5], [0.0, 0.0]], [[0.0, 0.5], [0.0, 0.0]])
    a_real = np.array([[0.3, -0.2], [0.1, 0.4]])
    paths = [
        constant_path(np.diag([-2.0, 3.0])),
        p1,
        scalar_tanh_path(),
        concatenate(p1, p2),
        adjoint(p1),
        build_lambda_path(1, 2, lambda s: np.tanh(s) * a_real),
    ]
    for path in paths:
        stack = path.at(s)
        assert stack.shape == (len(s), path.dim, path.dim), path.name
        for x, b in zip(s, stack):
            np.testing.assert_array_equal(b, path.at(x), err_msg=f"{path.name} {x}")
    # the glued path is p1 shifted left of the seam and p2 shifted right of it
    for x, b in zip(s, paths[3].at(s)):
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
    path = build_lambda_path(1, 1, lambda s: np.zeros((2, 2)))
    b = path.at(0.0)
    assert np.allclose(b @ b, (2 * np.pi) ** 2 * np.eye(4), atol=1e-12)
    assert np.allclose(b, b.T)
    eig = np.sort(np.linalg.eigvals(b).real)
    assert np.allclose(eig, [-2 * np.pi, -2 * np.pi, 2 * np.pi, 2 * np.pi])


@pytest.mark.parametrize("weight", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_path_zero_a_index_zero(weight, n):
    path = build_lambda_path(n, weight, lambda s: np.zeros((2 * n, 2 * n)))
    assert unstable_dim(path.b_minus) == 2 * n
    assert unstable_dim(path.b_plus) == 2 * n
    assert fredholm_index(path) == 0


def test_lambda_path_small_tanh_a_index_zero():
    path = build_lambda_path(1, 1, lambda s: 0.1 * np.tanh(s) * np.eye(2))
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

        path = build_lambda_path(n, lam, a_path)
        assert unstable_dim(path.b_minus) == 2 * n
        assert unstable_dim(path.b_plus) == 2 * n
        assert fredholm_index(path) == 0


def test_lambda_path_rejects_a_of_wrong_shape():
    # a C-linear map on C^1 is 2 x 2 real, not 3 x 3
    with pytest.raises(InvalidInputError, match=r"2n x 2n real matrix\), got shape \(3, 3\)"):
        build_lambda_path(1, 1, lambda s: np.zeros((3, 3)))


def test_lambda_path_rejects_large_a():
    with pytest.raises(NonHyperbolicError):
        build_lambda_path(1, 1, lambda s: 7.0 * np.eye(2))


def test_lambda_path_blocks_from_realified_a():
    # B = [[-A, wJ], [-wJ, -A]], J = [[0, -I], [I, 0]], with a C-linear A
    # given realified in (Re, Im) coordinates, for a stack of s at once
    a = np.array([[0.3 + 0.2j, 0.1j], [-0.2, 0.1 - 0.3j]])
    real = np.block([[a.real, -a.imag], [a.imag, a.real]])
    path = build_lambda_path(2, 3, lambda s: np.tanh(s) * real)
    omega, z, i2 = 6 * np.pi, np.zeros((2, 2)), np.eye(2)
    j = np.block([[z, -i2], [i2, z]])
    s = np.array([-2.0, 0.0, 0.5])
    for x, b in zip(s, path.at(s)):
        ax = np.tanh(x) * real
        expected = np.block([[-ax, omega * j], [-omega * j, -ax]])
        np.testing.assert_allclose(b, expected, rtol=0, atol=1e-14)
    assert fredholm_index(path) == 0


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------


def kernel_dim_oracle(path):
    """Dimension of the bounded solutions of u' = B(s) u, by shooting."""
    return spectral._kernel_dims([path])[0][1]


def index_by_shooting(path):
    return spectral.shooting_indices([path])[0][1]



def test_oracle_constant_path_no_bounded_solutions():
    assert kernel_dim_oracle(constant_path(np.diag([-1.0, 2.0]))) == 0


def test_oracle_tanh_kernels_frozen():
    # u' = tanh(s) u has only the unbounded solution cosh(s): kernel 0;
    # the adjoint path -B has the bounded solution 1/cosh(s): kernel 1
    path = scalar_tanh_path()
    assert kernel_dim_oracle(path) == 0
    assert kernel_dim_oracle(adjoint(path)) == 1
    assert index_by_shooting(path) == 1 == fredholm_index(path)


def test_oracle_lambda_path_transverse():
    path = build_lambda_path(1, 1, lambda s: np.zeros((2, 2)))
    assert kernel_dim_oracle(path) == 0
    assert kernel_dim_oracle(adjoint(path)) == 0
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


# equivariant paths: the index splits over the isotypic types


def _isotypic_index_faults(rep, b0, b1):
    """What fails of the isotypic split of the index of B(s) = b0 +
    tanh(s) b1 on ``rep``: the index against the sum of the indices of its
    restrictions u^T B u to the isotypic ranges u (``projector_range`` of
    each character projector), each restricted index against the dimension
    of its irrep, which divides it when B is equivariant, and the shooting
    oracle against the index."""
    dims = {"fixed": 1, **{ir.label: ir.dim_V for ir in rep.group.nontrivial_irreps()}}
    projectors, denom = reps.character_projectors(rep)  # P = Q / denom
    ranges = {label: linalg.projector_range(q.astype(float) / denom)
              for label, q in projectors.items()}
    ranges = {label: u for label, u in ranges.items() if u.shape[1]}
    parts = spectral.fredholm_indices([tanh_path(u.T @ b0 @ u, u.T @ b1 @ u)
                                       for u in ranges.values()])
    ((index, shooting),) = spectral.shooting_indices([tanh_path(b0, b1)])
    faults = [("divisibility", label, part)
              for label, part in zip(ranges, parts) if part % dims[label]]
    if sum(parts) != index:
        faults.append(("sum", sum(parts), index))
    if shooting != index:
        faults.append(("shooting", shooting, index))
    return faults


@settings(max_examples=25, deadline=None, derandomize=True)
@given(group=st.sampled_from(["S_3", "S_4", "Q_8", "D_6"]), data=st.data())
def test_equivariant_index_is_the_sum_over_isotypic_types(group, data):
    # b0 and b1 are random combinations of a Hom_G(V, V) basis on 2 to 4
    # catalog blocks of at most 6 dimensions each, with limits B(+-inf) =
    # b0 +- b1 at least 0.2 from the imaginary axis
    group = reps.preset_group(group)
    catalog = reps._block_catalog(group)
    names = data.draw(st.lists(st.sampled_from(
        sorted(name for name, block in catalog.items() if block.dim <= 6)),
        min_size=2, max_size=4))
    rep = reps.block_rep(group, names)
    basis = reps.hom_G_basis(rep, rep)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b0, b1 = (np.tensordot(rng.normal(size=len(basis)), basis, 1) for _ in range(2))
    assume(min(np.abs(np.linalg.eigvals(b).real).min() for b in (b0 - b1, b0 + b1)) >= 0.2)
    assert _isotypic_index_faults(rep, b0, b1) == []


@pytest.mark.parametrize("group, names, b0, b1, fault", [
    # B = I + 2 tanh(s) u u^T with u in S_3's 2-dim irrep: index 1 there
    ("S_3", ["natural"], np.eye(3), 2 * np.outer([1, -1, 0], [1, -1, 0]) / 2,
     ("divisibility", "standard", 1)),
    # b1 couples the fixed and the sign type: index 0, but 1 + 1 restricted
    ("S_3", ["trivial", "sign"], np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]),
     ("sum", 2, 0)),
])
def test_a_non_equivariant_path_breaks_the_isotypic_split(group, names, b0, b1, fault):
    rep = reps.block_rep(reps.preset_group(group), names)
    assert _isotypic_index_faults(rep, b0, b1) == [fault]


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
    return build_lambda_path(
        1, weight, lambda s: a_minus + (np.tanh(s) + 1) / 2 * (a_plus - a_minus))


def test_batched_propagation_spans_per_step_subspaces(monkeypatch):
    # frames at s = 0 from the joint sweep against per-step RK4 + QR, for the
    # path and its adjoint, forward from -T and backward from +T, each path
    # swept on its own and all of them in one multi-path call.  The largest
    # principal-angle sine is bounded, which is far stronger than every
    # cosine >= 1 - 1e-9: a wrong K3 moves it to about 4e-7.
    rng = np.random.default_rng(1618)
    paths = [_seeded_tanh_path(rng, size) for size in (1, 2, 3)]
    paths += [_seeded_lambda_path(rng, weight) for weight in (1, 2)]
    # frames of widths 1, 3, 2 and 0 share one zero-padded stack, which in
    # the multi-path call also holds the size-3 tanh path's frames
    uneven = _seeded_tanh_path(rng, 3, ([1.0, -1.0, -2.0], [-1.0, -2.0, -2.0]))
    paths.append(uneven)
    together, honest = {}, spectral._propagated_frames

    def recording(group, starts, n_steps):
        swept = honest(group, starts, n_steps)
        together.update((id(p), frames) for p, frames in zip(group, swept))
        return swept

    monkeypatch.setattr(spectral, "_propagated_frames", recording)
    spectral.shooting_indices(paths)
    monkeypatch.undo()
    assert len(together) == len(paths)
    for path in paths:
        t = path.horizon
        scale = max(np.max(np.abs(path.b_minus)), np.max(np.abs(path.b_plus)), 1.0)
        step = min(1e-3 * t, 0.05 / scale)
        frames = spectral._start_frames(path)
        alone = spectral._propagated_frames([path], [frames], int(np.ceil(t / step)))[0]
        for swept in (alone, together[id(path)]):
            assert len(swept) == 4
            if path is uneven:
                assert [u.shape[1] for u in swept] == [1, 3, 2, 0]
            starts = zip((path, path, adjoint(path), adjoint(path)), (-t, t, -t, t),
                         frames)
            for (p, s0, frame), u in zip(starts, swept):
                assert u.shape == frame.shape
                if frame.shape[1]:
                    ref = _reference_propagation(p, frame, s0, 0.0, step)
                    sine = np.linalg.norm(u - ref @ (ref.T @ u), 2)
                    assert sine <= 1e-9, (p.name, s0, sine)


def _near_margin_paths():
    # limits S diag(+-eps) S^-1 with independent, non-orthogonal S at the two
    # ends: slow, non-normal decay close to the hyperbolicity margin
    rng = np.random.default_rng(4242)
    paths = []
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
        paths.append(tanh_path((b_minus + b_plus) / 2, (b_plus - b_minus) / 2))
    return paths


def test_oracle_matches_index_on_non_normal_near_margin_paths():
    for k, path in enumerate(_near_margin_paths()):
        assert index_by_shooting(path) == fredholm_index(path), k


def _oracle_battery_paths(monkeypatch):
    """The paths criterion 6 shoots, as its battery passes them."""
    paths, honest = [], spectral.shooting_indices
    monkeypatch.setattr(spectral, "shooting_indices",
                        lambda shot: paths.extend(shot) or honest(shot))
    assert suites.SUITES["oracle"]()["pass"]
    monkeypatch.undo()
    return paths


@pytest.mark.parametrize("family", ["oracle-battery", "near-margin"])
def test_kernel_dims_do_not_depend_on_the_sweep_company(monkeypatch, family):
    # the battery's 20 paths (dims 1 and 2) and the 48 near-margin paths
    # (dims 2 and 3), all of 1000 steps: swept together, two sweeps of 10 or
    # 24 paths, or one at a time
    paths = (_oracle_battery_paths(monkeypatch) if family == "oracle-battery"
             else _near_margin_paths())
    assert len(paths) == (20 if family == "oracle-battery" else 48)
    assert len({(p.dim, spectral._step_count(p)) for p in paths}) >= 2
    one_at_a_time = [spectral._kernel_dims([p])[0] for p in paths]
    assert spectral._kernel_dims(paths) == one_at_a_time


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_oracle_reports_interior_blow_up():
    # finite, stationary limits; B leaves the floating range on (1.5, 2.5),
    # which the adjoint's decaying frame crosses on its way back from +9
    path = spectral.MatrixPath(
        lambda s: np.tanh(s) + np.where(np.abs(s - 2.0) < 0.5, 1e200, 0.0),
        9.0, [[-1.0]], [[1.0]],
    )
    assert spectral.fredholm_indices([path]) == [1]
    for shoot in (lambda p: kernel_dim_oracle(adjoint(p)), index_by_shooting):
        with pytest.raises(InvalidInputError, match="frame propagation overflowed"):
            shoot(path)


# ---------------------------------------------------------------------------
# many paths at once: one validation for both entry points
# ---------------------------------------------------------------------------


def _mixed_paths():
    """Constant, tanh, glued, adjoint and weight-lambda paths of dims 1 to
    12 and horizons 5 to 36, dims and horizons interleaved."""
    rng = np.random.default_rng(2024)
    a3 = 0.4 * rng.normal(size=(2, 6, 6))
    a2 = 0.3 * rng.normal(size=(4, 4))
    return [
        constant_path(np.diag([-2.0, 3.0]), horizon=5.0),
        scalar_tanh_path(),
        build_lambda_path(3, 2, lambda s: a3[0] + np.tanh(s) * a3[1], horizon=10.0),
        tanh_path([[0.0]], [[-1.0]], horizon=8.0),
        _seeded_tanh_path(rng, 3),
        concatenate(scalar_tanh_path(), tanh_path([[2.0]], [[1.0]])),
        build_lambda_path(1, 1, lambda s: np.zeros((2, 2))),
        constant_path(-np.eye(12), horizon=5.0),
        adjoint(_seeded_tanh_path(rng, 2, ([1.0, -1.0], [-2.0, -1.0]))),
        build_lambda_path(2, 1, lambda s: np.tanh(s) * a2, horizon=11.0),
        _seeded_tanh_path(rng, 2),
    ]


def test_indices_of_a_mixed_list_equal_the_one_path_indices():
    paths = _mixed_paths()
    assert len({p.dim for p in paths}) == 6 and len({p.horizon for p in paths}) == 6
    alone = [fredholm_index(p) for p in paths]
    assert alone[:4] == [0, 1, 0, -1] and alone[8] == 1
    assert spectral.fredholm_indices(paths) == alone
    shot = spectral.shooting_indices(paths)
    assert [shoot for _, shoot in shot] == [index_by_shooting(p) for p in paths]
    assert shot == [(index, index) for index in alone]


def test_limit_eigenvalues_are_solved_once_per_dimension(monkeypatch):
    calls, honest = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda b: calls.append(b.shape) or honest(b))
    paths = _mixed_paths()
    calls.clear()
    spectral.fredholm_indices(paths)
    assert sorted(calls) == sorted((sum(p.dim == d for p in paths), 2, d, d)
                                   for d in {p.dim for p in paths})


def _boom(s):
    raise RuntimeError("evaluator called")


# each invalid path, the check it fails and the message; the RK4 step bound
# is checked by the shooting oracle alone
INVALID = {
    "horizon": (lambda: constant_path([[1.0]], horizon=0.0),
                InvalidInputError, "path horizon 0.0 is not positive"),
    "b-minus": (lambda: spectral.MatrixPath(_boom, 5.0, [[1e-9]], [[1.0]]),
                NonHyperbolicError, "limit matrix B- has an eigenvalue within 1e-06 of "
                "the imaginary axis (closest real part 1.00e-09)"),
    "b-plus": (lambda: spectral.MatrixPath(_boom, 5.0, -np.eye(2), [[0.0, -1.0], [1.0, 0.0]]),
               NonHyperbolicError, "limit matrix B+ has an eigenvalue within 1e-06 of "
               "the imaginary axis (closest real part 0.00e+00)"),
    "drift-minus": (lambda: spectral.MatrixPath(np.tanh, 4.0, [[-2.0]], [[1.0]]),
                    InvalidInputError, "path is not stationary at s = -4.0: drift 1.00e+00"),
    "drift-plus": (lambda: spectral.MatrixPath(np.tanh, 9.0, [[-1.0]], [[2.0]]),
                   InvalidInputError, "path is not stationary at s = 9.0: drift 1.00e+00"),
    # NaN beyond the horizon: no drift bound holds, so the path is not stationary
    "drift-nan": (lambda: spectral.MatrixPath(
        lambda s: np.where(np.abs(s) >= 9.0, np.nan, np.tanh(s)), 9.0, [[-1.0]], [[1.0]]),
                  InvalidInputError, "path is not stationary at s = -9.0: drift nan"),
    "steps": (lambda: constant_path([[1e6]]), InvalidInputError,
              "path needs 1.6e+08 RK4 steps at horizon 8.0, above the limit of 100000"),
}


def _raised(entry, paths):
    with pytest.raises(Exception) as caught:
        entry(paths)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("kind", list(INVALID))
def test_an_invalid_path_after_a_valid_one_raises_its_own_error(kind):
    make, error, message = INVALID[kind]
    entries = [spectral.shooting_indices]
    if kind == "steps":
        assert spectral.fredholm_indices([make()]) == [0]
    else:
        entries.append(spectral.fredholm_indices)
    for entry in entries:
        assert _raised(entry, [make()]) == (error, message)
        assert _raised(entry, [scalar_tanh_path(), make()]) == (error, message)
        assert _raised(entry, [make(), scalar_tanh_path()]) == (error, message)


def test_the_first_invalid_path_in_list_order_wins():
    # every ordered pair of failures behind a valid path, and a path whose
    # evaluator raises: its tails are sampled only once the paths before it
    # have passed
    for a, b in itertools.permutations(INVALID, 2):
        paths = [scalar_tanh_path(), INVALID[a][0](), INVALID[b][0]()]
        assert _raised(spectral.shooting_indices, paths) == INVALID[a][1:]
        if "steps" not in (a, b):
            assert _raised(spectral.fredholm_indices, paths) == INVALID[a][1:]
    boom = spectral.MatrixPath(_boom, 5.0, [[1.0]], [[1.0]])
    for entry in (spectral.fredholm_indices, spectral.shooting_indices):
        for kind in ("horizon", "drift-plus"):
            make, error, message = INVALID[kind]
            assert _raised(entry, [make(), boom]) == (error, message)
            assert _raised(entry, [boom, make()]) == (RuntimeError, "evaluator called")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_limits_are_invalid_input():
    with pytest.raises(InvalidInputError, match="path matrices must be finite"):
        spectral.MatrixPath(np.tanh, 9.0, [[np.inf]], [[1.0]])
    with pytest.raises(InvalidInputError, match="path matrices must be finite"):
        tanh_path([[1e308]], [[1e308]])  # B+ = B0 + B1 overflows


# ---------------------------------------------------------------------------
# start frames from the matrix sign function
# ---------------------------------------------------------------------------


def _non_normal_hyperbolic(rng, size):
    """X D X^-1 with a real block-diagonal D (some 2 x 2 rotation-scaling
    blocks), |Re lambda| in [1e-4, 3] and cond(X) up to 1e5."""
    re = rng.choice([-1.0, 1.0], size=size) * 10 ** rng.uniform(-4, 0.5, size=size)
    d = np.diag(re)
    for i in range(0, size - 1, 2):
        if rng.random() < 0.5:
            im = 10 ** rng.uniform(-1, 1.5)
            d[i + 1, i + 1] = d[i, i]
            d[i, i + 1], d[i + 1, i] = im, -im
    u, v = (np.linalg.qr(rng.normal(size=(size, size)))[0] for _ in range(2))
    x = u @ np.diag(np.geomspace(1.0, 10 ** -rng.uniform(0, 5), size)) @ v.T
    return x @ d @ np.linalg.inv(x)


def test_sign_frames_are_invariant_with_eigencount_widths():
    rng = np.random.default_rng(2718)
    for k in range(150):
        size = 1 + k % 6
        b_minus, b_plus = (_non_normal_hyperbolic(rng, size) for _ in range(2))
        path = tanh_path((b_minus + b_plus) / 2, (b_plus - b_minus) / 2)
        b_minus, b_plus = path.b_minus, path.b_plus
        frames = spectral._start_frames(path)
        # rhp of B-, lhp of B+, rhp of -B-^T, lhp of -B+^T
        u_minus, u_plus = unstable_dim(b_minus), unstable_dim(b_plus)
        assert [f.shape[1] for f in frames] == [size - u_minus, u_plus,
                                                u_minus, size - u_plus], k
        for f, b in zip(frames, (b_minus, b_plus, -b_minus.T, -b_plus.T)):
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1])), initial=0.0) <= 1e-12
            moved = b @ f
            assert np.linalg.norm(moved - f @ (f.T @ moved)) <= 1e-8 * np.linalg.norm(b), k


def test_matrix_sign_of_rotation_is_non_hyperbolic():
    # eigenvalues +-i: the first Newton step gives the zero matrix
    with pytest.raises(NonHyperbolicError):
        spectral._matrix_sign(np.array([[[0.0, 1.0], [-1.0, 0.0]]]))


def test_matrix_sign_step_bound(monkeypatch):
    # sign(B) commutes with B and squares to I: [[1, 40], [0, -1]]
    b = np.array([[[2.0, 100.0], [0.0, -3.0]]])
    assert np.allclose(spectral._matrix_sign(b), [[1.0, 40.0], [0.0, -1.0]])
    monkeypatch.setattr(spectral, "SIGN_STEPS", 1)
    with pytest.raises(NonHyperbolicError):
        spectral._matrix_sign(b)
