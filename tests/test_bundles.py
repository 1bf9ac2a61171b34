"""Tests for equivariant bundles: decomposition, group averaging of fiber
maps, section extension, the frame-extension engine and cokernel
stabilization."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from equitrans import bundles, linalg, reps
from equitrans.bundles import (
    GBundleModel,
    SimplicialBase,
    barycentric_subdivision,
    decompose_bundle,
    extend_nonvanishing_section,
    stabilize_cokernel,
)
from equitrans.errors import InvalidInputError, ObstructionError, ResampleFailureError
from test_projector_check import fraction_projectors, library_projectors, mat_eq


def z2_trivial_sign_bundle(base=None):
    z2 = reps.cyclic_group(2)
    rep = reps.rep_from_matrices(
        z2, linalg.frac_array([[[1, 0], [0, 1]], [[1, 0], [0, -1]]])
    )
    base = base or SimplicialBase.interval(1)
    return GBundleModel(base, rep)


def circle_weight_bundle(weights, base=None, n=64):
    circle = reps.CircleGroupModel(n)
    rep = reps.circle_weight_rep(circle, weights)
    base = base or SimplicialBase.interval(1)
    return GBundleModel(base, rep), circle


# ---------------------------------------------------------------------------
# simplicial machinery
# ---------------------------------------------------------------------------


def face_closed(base):
    """Whether every simplex of the base is a sorted tuple whose proper
    faces are simplices of the base too."""
    return all(tuple(sorted(s)) == s
               and all(face in base.simplices
                       for k in range(1, len(s))
                       for face in itertools.combinations(s, k))
               for s in base.simplices)


def test_face_closure_and_validation():
    base = SimplicialBase.from_maximal([(0, 1, 2)])
    assert face_closed(base)
    assert (0, 1) in base.simplices and (2,) in base.simplices
    assert base.top_dim == 2


def test_circle_base_components_and_edges():
    base = SimplicialBase.circle(4)
    assert face_closed(base)
    assert len(base.edges()) == 4
    # one component: the breadth-first tree from 0 reaches every other vertex
    assert [w for _, w in base.bfs_edges([0])] == [1, 3, 2]


def test_barycentric_subdivision_counts():
    # interval: midpoint added; triangle: 3 edge midpoints + 1 center
    sub1 = barycentric_subdivision((0, 1))
    assert len(sub1.vertices) == 3 and len(sub1.top_simplices()) == 2
    sub2 = barycentric_subdivision((0, 1, 2))
    assert len(sub2.vertices) == 7 and len(sub2.top_simplices()) == 6


def test_barycentric_grid_density():
    # the frame certificate's grid: at least 10^dim weight rows of dim+1
    # multiples of 1/m, each summing to 1
    for dim in range(4):
        grid = bundles._grid_weights(dim)
        assert grid.shape[0] >= 10**dim and grid.shape[1] == dim + 1
        m = round(1 / grid[grid > 0].min())
        parts = np.round(grid * m)
        assert np.allclose(grid * m, parts, rtol=0, atol=1e-9)
        assert np.all(parts.sum(axis=1) == m)
        assert np.allclose(grid.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert len(np.unique(grid, axis=0)) == len(grid)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_trivial_group_single_component():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    ranks = decompose_bundle(bundle)
    assert ranks == {"fixed": 3}


def test_decompose_z2_interval_ranks():
    bundle = z2_trivial_sign_bundle()
    ranks = decompose_bundle(bundle)
    assert ranks["fixed"] == 1
    assert ranks["sign"] == 1
    # the components reassemble the fiber: projectors sum to the identity
    projectors = library_projectors(bundle.rep)
    total = sum(projectors[label] for label in ranks)
    assert mat_eq(total, linalg.eye(2, True))


def test_decompose_circle_weight_blocks_cross_checked():
    # derived oracle: the quadrature projector must match the block
    # indicator of the explicit weight-block construction
    bundle, circle = circle_weight_bundle([1, 2])
    ranks = decompose_bundle(bundle)
    assert ranks["fixed"] == 0
    assert ranks["weight_1"] == 2
    assert ranks["weight_2"] == 2
    projectors = library_projectors(bundle.rep)
    block1 = np.zeros((4, 4))
    block1[:2, :2] = np.eye(2)
    assert linalg.max_abs(projectors["weight_1"] - block1) <= 1e-10
    block2 = np.zeros((4, 4))
    block2[2:, 2:] = np.eye(2)
    assert linalg.max_abs(projectors["weight_2"] - block2) <= 1e-10


# planted faults on the edge (u, v): a transition that is not orthogonal, a
# pair of orthogonal equivariant transitions that are not mutually inverse,
# and an orthogonal rotation that mixes the trivial and sign parts
PLANTED = {
    "not-orthogonal": lambda u, v: {(u, v): [[2, 0], [0, 1]]},
    "not-inverse": lambda u, v: {(u, v): [[1, 0], [0, -1]], (v, u): [[-1, 0], [0, 1]]},
    "not-equivariant": lambda u, v: {(u, v): [["3/5", "-4/5"], ["4/5", "3/5"]]},
}


def residual_oracle(rep, t):
    """max over g and entries of |rho(g) t - t rho(g)|, one element at a
    time: a Fraction or int for exact arrays, a float else."""
    worst = max(abs(x) for rho in rep.matrices for x in (rho @ t - t @ rho).flat)
    return worst if rep.exact else float(worst)


def first_fault_message(bundle, plants):
    """The message of the first planted edge in ``base.edges()`` order."""
    u, v, kind = min(plants)
    if kind == "not-orthogonal":
        return f"transition on edge ({u},{v}) not orthogonal"
    if kind == "not-inverse":
        return f"transitions on edge ({u},{v}) are not mutually inverse"
    res = residual_oracle(bundle.rep, bundle.transitions[(u, v)])
    return f"transition on edge ({u},{v}) is not equivariant (residual {res})"


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("plants", [
    # circle(4) has the edges (0,1), (0,3), (1,2), (2,3), in that order
    *[[(2, 3, kind)] for kind in PLANTED],
    *[[(0, 3, kind), (1, 2, kind)] for kind in PLANTED],
    # the first failing edge wins over an earlier check on a later edge
    [(0, 3, "not-equivariant"), (1, 2, "not-orthogonal")],
    [(1, 2, "not-inverse"), (2, 3, "not-orthogonal")],
])
def test_validate_names_the_first_failing_edge_of_a_circle(exact, plants):
    base = SimplicialBase.circle(4)
    assert base.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    rep = z2_trivial_sign_bundle().rep
    transitions = {}
    for u, v, kind in plants:
        transitions.update(PLANTED[kind](u, v))
    transitions = {e: linalg.frac_array(t) for e, t in transitions.items()}
    if not exact:
        rep = reps.RealRepresentation(rep.group, linalg.as_float(rep.matrices))
        transitions = {e: linalg.as_float(t) for e, t in transitions.items()}
    bundle = GBundleModel(base, rep, transitions)
    message = first_fault_message(bundle, plants)
    if min(plants)[2] == "not-equivariant":
        assert message.endswith("(residual 8/5)" if exact else "(residual 1.6)")
    with pytest.raises(InvalidInputError) as err:
        bundle.validate()
    assert str(err.value) == message
    # each planted edge alone fails with its own message
    for plant in plants:
        alone = GBundleModel(base, rep, {e: t for e, t in transitions.items()
                                         if set(e) == set(plant[:2])})
        with pytest.raises(InvalidInputError) as err:
            alone.validate()
        assert str(err.value) == first_fault_message(alone, [plant])


def test_validate_rejects_nonequivariant_transition():
    # a transition that mixes isotypic parts fails validate(), which
    # decompose_bundle requires, so the projectors need not check it again
    bundle = z2_trivial_sign_bundle()
    bad = linalg.frac_array([[0, 1], [1, 0]])  # swaps trivial and sign parts
    bundle2 = GBundleModel(bundle.base, bundle.rep, {(0, 1): bad})
    with pytest.raises(InvalidInputError, match=r"edge \(0,1\) is not equivariant"):
        bundle2.validate()


def test_isotypic_rank_helper():
    # the rank of an isotypic component is the trace of its projector
    g = reps.symmetric_group(3)
    nat = reps._block_catalog(g)["natural"]
    std = fraction_projectors(nat)["standard"]
    assert linalg.trace_rank(np.trace(std)) == 2
    assert reps.projector_check([nat])[0][0]["standard"] == 2


# ---------------------------------------------------------------------------
# group averaging of fiber maps (the equivariant part a hom basis is built of)
# ---------------------------------------------------------------------------


def average(rep, raw):
    """avg_g rho(g) raw rho(g)^-1, summed term by term: the equivariant part
    of a fiber map."""
    order = rep.group.order
    inverse = rep.group.inverse(np.arange(order))
    total = sum(rep.matrices[g] @ raw @ rep.matrices[inverse[g]] for g in range(order))
    return total * Fraction(1, order) if rep.exact else total / order


def in_hom_span(rep, m):
    """m lies in the span of ``reps.hom_G_basis(rep, rep)``: the Frobenius
    projection onto that orthonormal float basis gives m back."""
    basis = reps.hom_G_basis(rep, rep)
    m = linalg.as_float(m)
    return linalg.max_abs(np.tensordot(np.tensordot(basis, m), basis, axes=1) - m) <= 1e-12


def test_average_fixes_equivariant_map():
    rep = z2_trivial_sign_bundle().rep
    raw = linalg.frac_array([[2, 0], [0, 5]])
    assert mat_eq(average(rep, raw), raw)
    assert in_hom_span(rep, raw)


def test_average_of_group_element_abelian():
    z4 = reps.cyclic_group(4)
    rot = reps._block_catalog(z4)["rot90"]
    h = 1
    assert mat_eq(average(rot, rot.matrices[h]), rot.matrices[h])
    assert in_hom_span(rot, rot.matrices[h])


def test_average_kills_off_diagonal_blocks():
    # derived oracle: explicit two-element sum
    rep = z2_trivial_sign_bundle().rep
    raw = linalg.frac_array([[1, 2], [3, 4]])
    expected = (raw + rep.matrices[1] @ raw @ rep.matrices[1]) * Fraction(1, 2)
    out = average(rep, raw)
    assert mat_eq(out, expected)
    assert out[0, 1] == 0 and out[1, 0] == 0
    assert in_hom_span(rep, out) and not in_hom_span(rep, raw)


def test_average_idempotent_as_operator():
    bundle, _ = circle_weight_bundle([1, 2])
    raw = np.random.default_rng(3).normal(size=(4, 4))
    once = average(bundle.rep, raw)
    assert linalg.max_abs(once - average(bundle.rep, once)) <= 1e-10
    assert in_hom_span(bundle.rep, once)


# ---------------------------------------------------------------------------
# section extension over a simplex
# ---------------------------------------------------------------------------


def test_extend_constant_boundary_gives_constant_extension():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(2)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    c = np.array([1.0, 0.5])
    res = extend_nonvanishing_section(bundle, (0, 1), {0: c, 1: c})
    for v in res.base.vertices:
        assert np.allclose(res.section[v], c)
    assert res.min_norm > 0


def test_extend_antipodal_boundary_rotates_through_orthogonal_direction():
    # frozen expectation: s(0)=e1, s(1)=-e1 extends through the e2 axis
    # with min sampled norm >= 0.5 (the true minimum is 1/sqrt(2))
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(2)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    res = extend_nonvanishing_section(
        bundle, (0, 1), {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])}
    )
    mid = res.section[(0, 1)]
    assert abs(mid[0]) <= 1e-9 and abs(abs(mid[1]) - 1.0) <= 1e-9
    # independent re-check on a 201-point grid over the whole interval
    m = min(_grid_min_norm(np.array([res.section[u], res.section[v]]), 100)
            for u, v in [((0,), (0, 1)), ((0, 1), (1,))])
    assert m >= 0.5
    assert res.min_norm >= 0.5


def test_extend_weight1_rank4_two_simplex():
    bundle, _ = circle_weight_bundle([1, 1], base=SimplicialBase.from_maximal([(0, 1, 2)]))
    rng = np.random.default_rng(11)
    boundary = {v: rng.normal(size=4) for v in (0, 1, 2)}
    res = extend_nonvanishing_section(bundle, (0, 1, 2), boundary)
    assert res.min_norm > 0
    # agreement near the boundary: original vertices and the first ring
    for v in (0, 1, 2):
        assert np.allclose(res.section[(v,)], boundary[v])
    for pair in [(0, 1), (0, 2), (1, 2)]:
        expected = (boundary[pair[0]] + boundary[pair[1]]) / 2
        assert np.allclose(res.section[pair], expected)


def test_extend_rank_hypothesis_obstruction():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(1)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    with pytest.raises(ObstructionError):
        extend_nonvanishing_section(
            bundle, (0, 1), {0: np.array([1.0]), 1: np.array([-1.0])}
        )


def test_extend_vanishing_boundary_rejected():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(2)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    with pytest.raises(InvalidInputError, match="vanishes"):
        extend_nonvanishing_section(
            bundle, (0, 1), {0: np.zeros(2), 1: np.array([1.0, 0.0])}
        )


def _facets(vals):
    """The proper faces of one simplex of these vertex values, as the stack
    of its facets."""
    return vals[list(itertools.combinations(range(len(vals)), len(vals) - 1))]


def _clamped_edge_min(a, b):
    t = np.clip(-a @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
    return np.linalg.norm(a + t * (b - a))


def test_boundary_min_norm_is_the_clamped_edge_minimum():
    # on an edge (a, b) the minimum is at t = -a.(b - a)/|b - a|^2 in [0, 1]
    a, b = np.array([1.0, 0.0, 0.0]), np.array([-3.0, 0.0, 0.0])
    assert bundles._min_norm(_facets(np.stack([a, b, [0.0, 1.0, 0.0]]))) <= 1e-15
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = rng.normal(size=(3, 2))
        edges = [_clamped_edge_min(a, b), _clamped_edge_min(a, c), _clamped_edge_min(b, c)]
        assert bundles._min_norm(_facets(np.stack([a, b, c]))) == pytest.approx(
            min(edges), rel=1e-12, abs=1e-15)


def _grid_min_norm(vals, steps):
    """Least norm over the points of a simplex whose barycentric weights
    are multiples of 1 / steps."""
    dim = len(vals) - 1
    return min(np.linalg.norm(np.array([*w, steps - sum(w)]) / steps @ vals)
               for w in itertools.product(range(steps + 1), repeat=dim)
               if sum(w) <= steps)


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_min_norm_bounds_the_sampled_minimum(dim):
    # exact over the proper faces: at most the least norm on a fine grid of
    # every facet, and within the grid spacing times the values' spread of it
    rng = np.random.default_rng(dim)
    for _ in range(20):
        vals = rng.normal(size=(dim + 1, dim + 1))
        exact = bundles._min_norm(_facets(vals))
        sampled = min(_grid_min_norm(facet, 24) for facet in _facets(vals))
        spread = max(np.linalg.norm(u - v) for u, v in itertools.combinations(vals, 2))
        assert exact <= sampled + 1e-12
        assert sampled - exact <= spread / 24


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_section_min_norm_is_the_exact_minimum(dim):
    # over whole simplices and over a subdivision: at most the least norm on
    # a fine grid, within the grid spacing times the values' spread of it,
    # and on edges the clamped edge formula
    rng = np.random.default_rng(dim)
    simplex = tuple(range(dim + 1))
    whole = SimplicialBase.from_maximal([simplex])
    steps = (240, 48, 16)[dim - 1]
    for d, scale in ((1, 1e-3), (3, 1.0), (5, 1.0), (8, 1e3)):
        for vals in (rng.normal(size=(dim + 1, d)) * scale,
                     np.array([(-1.0) ** v * np.ones(d) for v in simplex])):  # antipodal
            exact = bundles.section_min_norm(whole, dict(zip(simplex, vals)))
            sampled = _grid_min_norm(vals, steps)
            spread = max(np.linalg.norm(u - v) for u, v in itertools.combinations(vals, 2))
            assert exact <= sampled * (1 + 1e-12) + 1e-15
            assert sampled - exact <= spread / steps
            if dim == 1:
                assert exact == pytest.approx(_clamped_edge_min(*vals), rel=1e-12, abs=1e-15)
    sub = barycentric_subdivision(simplex)
    values = {v: rng.normal(size=3) for v in sub.vertices}
    tops = [np.array([values[v] for v in sorted(top, key=str)]) for top in sub.top_simplices()]
    assert bundles.section_min_norm(sub, values) == min(
        bundles.section_min_norm(SimplicialBase.from_maximal([tuple(range(dim + 1))]),
                                 dict(enumerate(top))) for top in tops)


def test_extend_rejects_a_continuation_vanishing_between_grid_points():
    # the straight continuation [-1, 0] at the edge barycenter vanishes at
    # the middle of the half-edge from vertex 0; the orthogonal candidate is
    # kept instead, with the exact minimum 2/sqrt(5) on the half-edge [1, 0]
    # to [0, 2]
    g = reps.cyclic_group(2)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(2), np.eye(2)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    res = extend_nonvanishing_section(
        bundle, (0, 1), {0: np.array([1.0, 0.0]), 1: np.array([-3.0, 0.0])})
    np.testing.assert_allclose(res.section[(0, 1)], [0.0, 2.0], atol=1e-12)
    assert res.min_norm == pytest.approx(2 / np.sqrt(5), rel=1e-12)
    halves = [np.array([res.section[(0,)], res.section[(0, 1)]]),
              np.array([res.section[(0, 1)], res.section[(1,)]])]
    assert min(_grid_min_norm(h, 1000) for h in halves) >= res.min_norm > bundles.MIN_NORM


def trivial_bundle(d, simplex):
    """A rank-d fiber of the trivial group over one simplex."""
    rep = reps.rep_from_matrices(reps.cyclic_group(1), linalg.frac_array([np.eye(d)]))
    return GBundleModel(SimplicialBase.from_maximal([simplex]), rep)


def test_extend_near_dependent_edge_by_its_least_singular_direction():
    # the corners [1, 0] and [-1, 1e-9] span R^2 at nullspace's relative
    # tolerance, so there is no kernel vector, and the straight continuation
    # has norm 5e-10 <= MIN_NORM at the edge barycenter: the least singular
    # direction, s v = [~0, 1], extends with the minimum 1/sqrt(2) of the
    # half-edges [1, 0]-[0, 1] and [0, 1]-[-1, 0]
    boundary = {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 1e-9])}
    assert linalg.nullspace(np.stack(list(boundary.values()))).shape[1] == 0
    res = extend_nonvanishing_section(trivial_bundle(2, (0, 1)), (0, 1), boundary)
    np.testing.assert_allclose(res.section[(0, 1)], [0.0, 1.0], atol=1e-9)
    assert res.min_norm == pytest.approx(1 / np.sqrt(2), abs=1e-9)


def test_extend_orients_the_least_singular_direction_towards_the_corners():
    # a triangle whose plane passes 1.3e-9 from the origin: the boundary
    # minimum is 1.30e-9 and the straight continuation reaches 8.4e-10, so
    # the second candidate is kept; v is flipped towards the corners' sum,
    # and the opposite sign would reach only 9.9e-10 <= MIN_NORM
    corners = np.array([
        [-0.1209915004655405, -0.7094830122062676, 0.6942585341253058],
        [0.12099150049496613, 0.7094830140229622, -0.6942585322636448],
        [-0.6513802689457698, -0.47100887869030184, -0.5948566057656595]])
    simplex = (0, 1, 2)
    res = extend_nonvanishing_section(trivial_bundle(3, simplex), simplex,
                                      dict(enumerate(corners)))
    assert res.min_norm == pytest.approx(1.3006754873e-9, rel=1e-9)
    assert res.section[simplex] @ corners.sum(axis=0) >= 0
    straight = {**res.section, simplex: corners.mean(axis=0)}
    flipped = {**res.section, simplex: -res.section[simplex]}
    assert bundles.section_min_norm(res.base, straight) == pytest.approx(8.4e-10, rel=0.01)
    assert bundles.section_min_norm(res.base, flipped) == pytest.approx(9.9e-10, rel=0.01)


def _near_plane_simplices(rng, count):
    """Corners of n-simplices in R^(n+1), n = 1, 2 or 3, on an affine plane
    0.3-1.0e-9 from the origin, rotated at random, whose point nearest the
    origin has every barycentric weight >= 0.1."""
    for _ in range(count):
        n = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.normal(size=(n + 1, n + 1)))
        while True:
            y = rng.normal(size=(n + 1, n))
            weights = np.linalg.solve(np.vstack([y.T, np.ones(n + 1)]), np.eye(n + 1)[n])
            if np.all(weights >= 0.1):
                break
        yield rng.uniform(0.3e-9, 1.0e-9) * q[:, n] + y @ q[:, :n].T


def test_extend_every_near_plane_simplex_with_no_kernel():
    # each input has no kernel vector and a straight continuation that comes
    # within MIN_NORM, so only the second candidate can extend it; every one
    # extends, with v oriented towards the corners' sum
    for corners in _near_plane_simplices(np.random.default_rng(37), 300):
        simplex = tuple(range(len(corners)))
        whole = SimplicialBase.from_maximal([simplex])
        assert linalg.nullspace(corners).shape[1] == 0
        assert bundles.section_min_norm(whole, dict(enumerate(corners))) <= bundles.MIN_NORM
        res = extend_nonvanishing_section(
            trivial_bundle(len(corners), simplex), simplex, dict(enumerate(corners)))
        assert res.min_norm > bundles.MIN_NORM
        assert res.section[simplex] @ corners.sum(axis=0) >= 0


@pytest.mark.parametrize("simplex, boundary, m", [
    # antipodal corners of norm 1.2e-9: the kernel direction s v reaches
    # s / sqrt(2) = 8.5e-10 at the middle of each half-edge
    ((0, 1), {0: [1.2e-9, 0.0], 1: [-1.2e-9, 0.0]}, 1.2e-9),
    # a 0-simplex's one value, of norm in (0, MIN_NORM], scales both candidates
    ((0,), {0: [1e-10, 0.0]}, 1e-10),
])
def test_extend_raises_in_the_band_with_its_certificate(simplex, boundary, m):
    boundary = {v: np.array(x) for v, x in boundary.items()}
    with pytest.raises(ObstructionError, match="MIN_NORM") as exc:
        extend_nonvanishing_section(trivial_bundle(2, simplex), simplex, boundary)
    assert exc.value.certificate == {"boundary_min_norm": pytest.approx(m, rel=1e-12),
                                     "sigma": pytest.approx(0.0, abs=1e-24)}


def test_extend_boundary_vanishing_between_grid_points_rejected():
    # the boundary vanishes at t = 1/4 on edge (0, 1), off every grid point
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    bundle = GBundleModel(SimplicialBase.from_maximal([(0, 1, 2)]), rep)
    boundary = {0: np.array([1.0, 0.0, 0.0]), 1: np.array([-3.0, 0.0, 0.0]),
                2: np.array([0.0, 1.0, 0.0])}
    with pytest.raises(InvalidInputError, match="vanishes on the boundary"):
        extend_nonvanishing_section(bundle, (0, 1, 2), boundary)


def test_extend_boundary_vector_of_wrong_length_rejected():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(2)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    with pytest.raises(InvalidInputError, match="length 2"):
        extend_nonvanishing_section(
            bundle, (0, 1), {0: np.array([1.0, 0.0]), 1: np.array([1.0])}
        )


# ---------------------------------------------------------------------------
# the frame-extension engine
# ---------------------------------------------------------------------------


def frame_independent_on_grid(bundle, frames, expected_rank):
    """Whether the interpolated frame keeps orbit rank ``expected_rank`` on
    the whole of every top simplex, between the grid points too."""
    return all(bundles._certified(bundle, frames, s, expected_rank)
               for s in bundle.base.top_simplices())


E1 = np.array([[1.0], [0.0], [0.0]])


def extend_frame(bundle, column, seed=0):
    """Extend a seed column at vertex 0 (trivial group, so the orbit rank is
    the column count) to every vertex."""
    built = {v: np.zeros((bundle.fiber_dim, 0)) for v in bundle.base.vertices}
    return bundles._extend_frame(bundle, 0, column, built, 1,
                                 np.random.default_rng(seed))


def test_extend_frame_already_global_on_single_simplex_base():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    out = extend_frame(bundle, E1)
    for v in (0, 1):
        assert np.allclose(out[v], E1)


def test_extend_frame_around_circle_trivial_group():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    base = SimplicialBase.circle(4)
    bundle = GBundleModel(base, rep)
    out = extend_frame(bundle, E1)
    for v in base.vertices:
        assert np.linalg.norm(out[v]) > 1e-8
    assert frame_independent_on_grid(bundle, out, 1)


def edge_midpoint_orbit_ranks(bundle, frames):
    """Orbit rank of the frame at the midpoint of every edge, interpolated
    in the gauge of the edge's first vertex; no sample grid has these
    points."""
    return {
        (u, v): linalg.rank(bundles.orbit_stack(
            bundle.rep,
            (frames[u] + linalg.as_float(bundle.transport(v, u)) @ frames[v]) / 2), 1e-8)
        for u, v in bundle.base.edges()
    }


def moebius_bundle():
    # holonomy -1 around the circle: straight transport of e1 from vertex 0
    # closes up anti-aligned, e1 at vertex 2 and -e1 at vertex 3
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    twist = linalg.frac_array(
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    )
    return GBundleModel(SimplicialBase.circle(4), rep, {(3, 0): twist})


def test_extend_frame_around_moebius_twist():
    # the transported frame vanishes at the midpoint of edge (2,3), between
    # the grid points, so the repair step must route through a new direction
    bundle = moebius_bundle()
    out = extend_frame(bundle, E1, seed=4)
    assert frame_independent_on_grid(bundle, out, 1)
    assert set(edge_midpoint_orbit_ranks(bundle, out).values()) == {1}


def test_extend_frame_repair_budget_exhausted(monkeypatch):
    monkeypatch.setattr(bundles, "RETRY_BUDGET", 0)
    with pytest.raises(ResampleFailureError, match="could not repair"):
        extend_frame(moebius_bundle(), E1, seed=4)


# ---------------------------------------------------------------------------
# cokernel stabilization
# ---------------------------------------------------------------------------


def test_stabilize_surjective_gives_zero():
    bundle, _ = circle_weight_bundle([1])
    lin = {v: np.eye(2) for v in bundle.base.vertices}
    res = stabilize_cokernel(bundle, lin)
    assert res.rank == 0


def test_stabilize_single_vertex_zero_map():
    circle = reps.CircleGroupModel(64)
    rep = reps.circle_weight_rep(circle, [1])
    base = SimplicialBase.from_maximal([(0,)])
    bundle = GBundleModel(base, rep)
    lin = {0: np.zeros((2, 2))}
    res = stabilize_cokernel(bundle, lin)
    assert res.rank == 2
    orbit = bundles.orbit_stack(rep, res.frames[0])
    assert linalg.rank(orbit, 1e-8) == 2


def test_stabilize_two_vertices_different_lines_merges_rank4():
    # two vertices whose cokernels are different invariant planes inside a
    # rank-6 weight-1 bundle: the merged trivial subbundle has rank 2*dim V
    circle = reps.CircleGroupModel(64)
    rep = reps.circle_weight_rep(circle, [1, 1, 1])
    base = SimplicialBase.interval(1)
    bundle = GBundleModel(base, rep)
    d0 = np.zeros((6, 6))
    d0[2:, 2:] = np.eye(4)  # cokernel = first plane at vertex 0
    d1 = np.zeros((6, 6))
    d1[:4, :4] = np.eye(4)  # cokernel = last plane at vertex 1
    res = stabilize_cokernel(bundle, {0: d0, 1: d1}, seed=2)
    assert res.rank == 4
    for v, dmat in ((0, d0), (1, d1)):
        span = np.concatenate(
            [dmat, bundles.orbit_stack(rep, res.frames[v])], axis=1
        )
        assert linalg.rank(span, 1e-8) == 6


def stabilize_circle4_twist():
    # weight-1 pair of planes with holonomy -1 around the square: the first
    # column closes up anti-aligned across edge (2,3)
    bundle, _ = circle_weight_bundle([1, 1], base=SimplicialBase.circle(4), n=32)
    bundle = GBundleModel(bundle.base, bundle.rep, {(3, 0): -np.eye(4)})
    lin = {0: np.diag([0.0, 0, 1, 1]), 1: np.eye(4), 2: np.diag([1.0, 1, 0, 0]),
           3: np.eye(4)}
    return bundle, lin


def stabilize_triangle_rotation():
    # the second column, transported from vertex 1, lands on the first one at
    # vertex 2 (the transition (0,2) turns e1 into e2): a vertex reseed
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    turn = linalg.frac_array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    bundle = GBundleModel(SimplicialBase.circle(3), rep, {(0, 2): turn})
    lin = {0: np.diag([0.0, 1, 1]), 1: np.diag([1.0, 0, 1]), 2: np.eye(3)}
    return bundle, lin


def stabilize_two_components():
    # the seed never reaches the second component: seeded draws there
    base = SimplicialBase.from_maximal([(0, 1), (2, 3)])
    bundle, _ = circle_weight_bundle([1, 1], base=base, n=32)
    lin = {0: np.diag([0.0, 0, 1, 1]), 1: np.eye(4), 2: np.diag([1.0, 1, 0, 0]),
           3: np.diag([0.0, 0, 1, 1])}
    return bundle, lin


@pytest.mark.parametrize("make, rank", [
    (stabilize_circle4_twist, 2),
    (stabilize_triangle_rotation, 2),
    (stabilize_two_components, 2),
])
def test_stabilize_multi_vertex_frame_certified(make, rank):
    bundle, lin = make()
    res = stabilize_cokernel(bundle, lin, seed=3)
    assert res.rank == rank
    assert frame_independent_on_grid(bundle, res.frames, rank)
    assert set(edge_midpoint_orbit_ranks(bundle, res.frames).values()) == {rank}
    for v, dmat in lin.items():
        cover = np.concatenate([dmat, bundles.orbit_stack(bundle.rep, res.frames[v])], axis=1)
        assert linalg.rank(cover, 1e-8) == bundle.fiber_dim


def test_stabilize_ambient_too_small():
    circle = reps.CircleGroupModel(64)
    rep = reps.circle_weight_rep(circle, [1])
    base = SimplicialBase.interval(1)
    bundle = GBundleModel(base, rep)
    lin = {v: np.zeros((2, 2)) for v in (0, 1)}
    with pytest.raises(ObstructionError):
        stabilize_cokernel(bundle, lin)
