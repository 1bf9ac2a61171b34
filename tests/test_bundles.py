"""Tests for equivariant bundles: decomposition, averaging, complements,
section/frame extension and cokernel stabilization."""

from fractions import Fraction

import numpy as np
import pytest

from equitrans import bundles, linalg, reps
from equitrans.bundles import (
    GBundleModel,
    SimplicialBase,
    barycentric_grid,
    barycentric_subdivision,
    decompose_bundle,
    equivariant_average_bundle_map,
    extend_nonvanishing_section,
    extend_trivial_subbundle,
    invariant_complement,
    stabilize_cokernel,
)
from equitrans.errors import InvalidInputError, ObstructionError, ResampleFailureError


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


def test_face_closure_and_validation():
    base = SimplicialBase.from_maximal([(0, 1, 2)])
    base.validate()
    assert (0, 1) in base.simplices and (2,) in base.simplices
    assert base.top_dim == 2
    assert len(base.components()) == 1


def test_circle_base_components_and_edges():
    base = SimplicialBase.circle(4)
    assert len(base.edges()) == 4
    assert len(base.components()) == 1


def test_barycentric_subdivision_counts():
    # interval: midpoint added; triangle: 3 edge midpoints + 1 center
    sub1 = barycentric_subdivision((0, 1))
    assert len(sub1.vertices) == 3 and len(sub1.top_simplices()) == 2
    sub2 = barycentric_subdivision((0, 1, 2))
    assert len(sub2.vertices) == 7 and len(sub2.top_simplices()) == 6


def test_barycentric_grid_density():
    assert len(barycentric_grid(1)) >= 10
    assert len(barycentric_grid(2)) >= 100
    for pt in barycentric_grid(2):
        assert sum(pt) == 1


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_trivial_group_single_component():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    splitting = decompose_bundle(bundle)
    assert splitting.ranks == {"fixed": 3}


def test_decompose_z2_interval_ranks():
    bundle = z2_trivial_sign_bundle()
    splitting = decompose_bundle(bundle)
    assert splitting.ranks["fixed"] == 1
    assert splitting.ranks["sign"] == 1
    # the components reassemble the fiber: projectors sum to the identity
    total = sum(splitting.projectors[label] for label in splitting.ranks)
    assert linalg.mat_eq(total, linalg.eye(2, True))


def test_decompose_circle_weight_blocks_cross_checked():
    # derived oracle: the quadrature projector must match the block
    # indicator of the explicit weight-block construction
    bundle, circle = circle_weight_bundle([1, 2])
    splitting = decompose_bundle(bundle)
    assert splitting.ranks["fixed"] == 0
    assert splitting.ranks["weight_1"] == 2
    assert splitting.ranks["weight_2"] == 2
    block1 = np.zeros((4, 4))
    block1[:2, :2] = np.eye(2)
    assert linalg.max_abs(splitting.projectors["weight_1"] - block1) <= 1e-10
    block2 = np.zeros((4, 4))
    block2[2:, 2:] = np.eye(2)
    assert linalg.max_abs(splitting.projectors["weight_2"] - block2) <= 1e-10


def test_decompose_rejects_nonequivariant_transition():
    bundle = z2_trivial_sign_bundle()
    bad = linalg.frac_array([[0, 1], [1, 0]])  # swaps trivial and sign parts
    bundle2 = GBundleModel(bundle.base, bundle.rep, {(0, 1): bad})
    with pytest.raises(InvalidInputError, match=r"\(0,1\)"):
        decompose_bundle(bundle2)


def test_evaluate_section_applies_transitions_in_simplex_gauge():
    # a sign flip on the edge must show up when the far value is carried to
    # the frame of the first vertex: s(1) = e1 in its own frame is -e1 there
    bundle = z2_trivial_sign_bundle()
    flip = linalg.frac_array([[1, 0], [0, -1]])
    flipped = bundles.GBundleModel(bundle.base, bundle.rep, {(0, 1): flip})
    section = bundles.SectionModel(
        {0: linalg.frac_array([0, 1]), 1: linalg.frac_array([0, 1])}
    )
    mid = bundles.evaluate_section(
        flipped, section, (0, 1), (Fraction(1, 2), Fraction(1, 2))
    )
    # first-vertex frame: value at 0 is (0,1), value at 1 transports to (0,-1)
    assert mid[0] == 0 and mid[1] == 0
    at_zero = bundles.evaluate_section(flipped, section, (0, 1), (1, 0))
    assert at_zero[1] == 1


def test_subdivision_coordinates_average():
    coords = bundles.subdivision_coordinates((0, 2), (0, 1, 2))
    assert np.allclose(coords, [0.5, 0.0, 0.5])


def test_isotypic_rank_helper():
    g = reps.symmetric_group(3)
    nat = reps._block_catalog(g)["natural"]
    std = {ir.label: ir for ir in g.irreps}["standard"]
    assert reps.isotypic_rank(nat, std) == 2


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------


def test_average_fixes_equivariant_map():
    bundle = z2_trivial_sign_bundle()
    raw = {v: linalg.frac_array([[2, 0], [0, 5]]) for v in bundle.base.vertices}
    out = equivariant_average_bundle_map(bundle, raw)
    for v in bundle.base.vertices:
        assert linalg.mat_eq(out[v], raw[v])


def test_average_of_group_element_abelian():
    z4 = reps.cyclic_group(4)
    rot = reps._block_catalog(z4)["rot90"]
    bundle = GBundleModel(SimplicialBase.interval(1), rot)
    h = 1
    raw = {v: rot.matrices[h] for v in bundle.base.vertices}
    out = equivariant_average_bundle_map(bundle, raw)
    for v in bundle.base.vertices:
        assert linalg.mat_eq(out[v], rot.matrices[h])


def test_average_kills_off_diagonal_blocks():
    # derived oracle: explicit two-element sum
    bundle = z2_trivial_sign_bundle()
    raw_mat = linalg.frac_array([[1, 2], [3, 4]])
    raw = {v: raw_mat for v in bundle.base.vertices}
    rep = bundle.rep
    expected = (raw_mat + rep.matrices[1] @ raw_mat @ rep.matrices[1]) * Fraction(1, 2)
    out = equivariant_average_bundle_map(bundle, raw)
    for v in bundle.base.vertices:
        assert linalg.mat_eq(out[v], expected)
        assert out[v][0, 1] == 0 and out[v][1, 0] == 0


def test_average_idempotent_as_operator():
    bundle, _ = circle_weight_bundle([1, 2])
    rng = np.random.default_rng(3)
    raw = {v: rng.normal(size=(4, 4)) for v in bundle.base.vertices}
    once = equivariant_average_bundle_map(bundle, raw)
    twice = equivariant_average_bundle_map(bundle, once)
    for v in bundle.base.vertices:
        assert linalg.max_abs(once[v] - twice[v]) <= 1e-10


# ---------------------------------------------------------------------------
# invariant complements
# ---------------------------------------------------------------------------


def test_complement_of_whole_bundle_is_zero():
    bundle = z2_trivial_sign_bundle()
    whole = {v: linalg.eye(2, True) for v in bundle.base.vertices}
    res = invariant_complement(bundle, whole)
    for v in bundle.base.vertices:
        assert res.frames[v].shape[1] == 0


def test_complement_of_fixed_part_is_sign_part():
    bundle = z2_trivial_sign_bundle()
    fixed = {v: linalg.frac_array([[1], [0]]) for v in bundle.base.vertices}
    res = invariant_complement(bundle, fixed)
    for v in bundle.base.vertices:
        frame = res.frames[v]
        assert frame.shape[1] == 1
        assert frame[0, 0] == 0 and frame[1, 0] != 0
        total = res.projector_onto[v] + res.projector_complement[v]
        assert linalg.mat_eq(total, linalg.eye(2, True))


def test_complement_random_invariant_plane_circle():
    # random invariant plane inside the weight-1 isotypic pair of planes
    bundle, circle = circle_weight_bundle([1, 1])
    rng = np.random.default_rng(5)
    v0 = rng.normal(size=4)
    rep = bundle.rep
    orbit = bundles.orbit_stack(rep, v0[:, None])
    u, sv, _ = np.linalg.svd(orbit)
    basis = u[:, sv > 1e-10 * sv[0]]
    assert basis.shape[1] == 2
    sub = {v: basis for v in bundle.base.vertices}
    res = invariant_complement(bundle, sub)
    for v in bundle.base.vertices:
        assert res.frames[v].shape[1] == 2
        total = res.projector_onto[v] + res.projector_complement[v]
        assert linalg.max_abs(total - np.eye(4)) <= 1e-8
        for g in range(0, circle.order, 7):
            m = linalg.as_float(rep.matrices[g])
            for p in (res.projector_onto[v], res.projector_complement[v]):
                assert linalg.max_abs(m @ p - p @ m) <= 1e-8


def test_complement_rank_jump_reports_vertices():
    bundle = z2_trivial_sign_bundle()
    sub = {
        0: linalg.frac_array([[1], [0]]),
        1: linalg.frac_array([[0], [0]]),
    }
    with pytest.raises(InvalidInputError, match="rank jumps"):
        invariant_complement(bundle, sub)


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
        assert np.allclose(res.section.value(v), c)
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
    mid = res.section.value((0, 1))
    assert abs(mid[0]) <= 1e-9 and abs(abs(mid[1]) - 1.0) <= 1e-9
    # independent re-check on a 101-point grid over the whole interval
    grid = [(Fraction(k, 100), Fraction(100 - k, 100)) for k in range(101)]
    vals_left = {v: res.section.value(v) for v in [(0,), (0, 1)]}
    vals_right = {v: res.section.value(v) for v in [(0, 1), (1,)]}
    m = min(
        bundles.sample_min_norm(vals_left, grid),
        bundles.sample_min_norm(vals_right, grid),
    )
    assert m >= 0.5
    assert res.min_norm >= 0.5


def test_extend_weight1_rank4_two_simplex():
    bundle, _ = circle_weight_bundle([1, 1], base=SimplicialBase.from_maximal([(0, 1, 2)]))
    rng = np.random.default_rng(11)
    boundary = {v: rng.normal(size=4) for v in (0, 1, 2)}
    res = extend_nonvanishing_section(bundle, (0, 1, 2), boundary, seed=1)
    assert res.min_norm > 0
    # agreement near the boundary: original vertices and the first ring
    for v in (0, 1, 2):
        assert np.allclose(res.section.value((v,)), boundary[v])
    for pair in [(0, 1), (0, 2), (1, 2)]:
        expected = (boundary[pair[0]] + boundary[pair[1]]) / 2
        assert np.allclose(res.section.value(pair), expected)


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


def test_extend_boundary_vector_of_wrong_length_rejected():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(2)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    with pytest.raises(InvalidInputError, match="length 2"):
        extend_nonvanishing_section(
            bundle, (0, 1), {0: np.array([1.0, 0.0]), 1: np.array([1.0])}
        )


# ---------------------------------------------------------------------------
# grid certificates against per-point loops
# ---------------------------------------------------------------------------


def reference_min_norm(simplex_values, grid):
    """One grid point at a time: interpolate with sum(), take the norm."""
    verts = sorted(simplex_values, key=str)
    vals = [linalg.as_float(simplex_values[v]) for v in verts]
    best = np.inf
    for weights in grid:
        point = sum(float(w) * val for w, val in zip(weights, vals))
        best = min(best, float(np.linalg.norm(point)))
    return best


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_min_norm_certificates_match_per_point_loop(dim):
    rng = np.random.default_rng(dim)
    simplex = tuple(range(dim + 1))
    coarse = barycentric_grid(dim, min_points=7)
    for d, scale in ((1, 1e-3), (3, 1.0), (8, 1e3)):
        vals = {v: rng.normal(size=d) * scale for v in simplex}
        for grid in (None, coarse):
            expected = reference_min_norm(vals, grid or barycentric_grid(dim))
            assert bundles.sample_min_norm(vals, grid) == expected
        # antipodal vertex values: the interpolation passes near zero
        vals = {v: (-1.0) ** v * np.ones(d) for v in simplex}
        assert bundles.sample_min_norm(vals) == reference_min_norm(
            vals, barycentric_grid(dim))
    sub = barycentric_subdivision(simplex)
    values = {v: rng.normal(size=3) for v in sub.vertices}
    for grid in (None, coarse):
        expected = min(reference_min_norm({v: values[v] for v in top},
                                          grid or barycentric_grid(dim))
                       for top in sub.top_simplices())
        assert bundles.section_min_norm(sub, values, grid) == expected


def test_min_norm_on_a_caller_fraction_grid_matches_per_point_loop():
    rng = np.random.default_rng(7)
    grid = [(Fraction(k, 7), Fraction(7 - k, 7)) for k in range(8)]
    vals = {"a": rng.normal(size=4), "b": rng.normal(size=4)}
    assert bundles.sample_min_norm(vals, grid) == reference_min_norm(vals, grid)
    assert bundles.sample_min_norm(vals, []) == np.inf


# ---------------------------------------------------------------------------
# frame extension
# ---------------------------------------------------------------------------


def test_extend_frame_already_global_on_single_simplex_base():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    bundle = GBundleModel(SimplicialBase.interval(1), rep)
    frame = {0: np.array([[1.0], [0.0], [0.0]]), 1: np.array([[1.0], [0.0], [0.0]])}
    out = extend_trivial_subbundle(bundle, (0, 1), frame)
    for v in (0, 1):
        assert np.allclose(out[v], frame[v])


def test_extend_frame_around_circle_trivial_group():
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    base = SimplicialBase.circle(4)
    bundle = GBundleModel(base, rep)
    frame = {0: np.array([[1.0], [0.0], [0.0]]), 1: np.array([[1.0], [0.0], [0.0]])}
    out = extend_trivial_subbundle(bundle, (0, 1), frame)
    for v in base.vertices:
        assert np.linalg.norm(out[v]) > 1e-8
    assert bundles.frame_independent_on_grid(bundle, out, 1)


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
    # holonomy -1 around the circle: straight transport closes up
    # anti-aligned, e1 at vertex 2 and -e1 at vertex 3
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    twist = linalg.frac_array(
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    )
    bundle = GBundleModel(SimplicialBase.circle(4), rep, {(3, 0): twist})
    frame = {0: np.array([[1.0], [0.0], [0.0]]), 1: np.array([[1.0], [0.0], [0.0]])}
    return bundle, frame


def test_evaluate_section_on_moebius_edge_uses_its_own_gauge():
    # e1, e1, e1, -e1 is continuous around the twisted circle: on edge (2,3)
    # the value -e1 at vertex 3 is e1 in the frame of vertex 2, while on the
    # twisted edge (0,3) it is e1 in the frame of vertex 0.  A spanning-tree
    # gauge would carry vertex 3 to vertex 0 along (3,0) and give e1 at the
    # midpoint of (2,3) instead of 0.
    bundle, _ = moebius_bundle()
    e1 = linalg.frac_array([1, 0, 0])
    section = bundles.SectionModel({0: e1, 1: e1, 2: e1, 3: -e1})
    half = (Fraction(1, 2), Fraction(1, 2))
    assert list(bundles.evaluate_section(bundle, section, (2, 3), half)) == [0, 0, 0]
    for edge in ((0, 1), (1, 2), (0, 3)):
        assert list(bundles.evaluate_section(bundle, section, edge, half)) == [1, 0, 0]


def test_extend_frame_around_moebius_twist():
    # the transported frame vanishes at the midpoint of edge (2,3), between
    # the grid points, so the repair step must route through a new direction
    bundle, frame = moebius_bundle()
    out = extend_trivial_subbundle(bundle, (0, 1), frame, seed=4)
    assert bundles.frame_independent_on_grid(bundle, out, 1)
    assert set(edge_midpoint_orbit_ranks(bundle, out).values()) == {1}


def test_extend_frame_repair_budget_exhausted(monkeypatch):
    bundle, frame = moebius_bundle()
    monkeypatch.setattr(bundles, "RETRY_BUDGET", 0)
    with pytest.raises(ResampleFailureError, match="could not repair"):
        extend_trivial_subbundle(bundle, (0, 1), frame, seed=4)


def test_extend_frame_seed_vanishing_between_grid_points():
    # e1 and -e1 on the seed edge vanish at its midpoint, which the grid
    # (steps of 1/9) misses
    g = reps.cyclic_group(1)
    rep = reps.rep_from_matrices(g, linalg.frac_array([np.eye(3)]))
    bundle = GBundleModel(SimplicialBase.interval(2), rep)
    frame = {0: np.array([[1.0], [0.0], [0.0]]), 1: np.array([[-1.0], [0.0], [0.0]])}
    with pytest.raises(ResampleFailureError, match="seed frame is degenerate on"):
        extend_trivial_subbundle(bundle, (0, 1), frame)


@pytest.mark.parametrize("simplex, frame, error", [
    ((0, 2), {0: [1.0, 0], 2: [1.0, 0]}, InvalidInputError),  # not a simplex
    ((0, 1), {0: [1.0, 0]}, InvalidInputError),  # frame missing at vertex 1
    ((0, 1), {0: [1.0, 1.0], 1: [1.0, 1.0]}, InvalidInputError),  # mixed column
    ((0, 1), {0: [1.0, 0], 1: [1.0, 0]}, ObstructionError),  # fiber rank 1 < 3
])
def test_extend_frame_rejects(simplex, frame, error):
    bundle = z2_trivial_sign_bundle()
    frame = {v: np.array(col)[:, None] for v, col in frame.items()}
    with pytest.raises(error):
        extend_trivial_subbundle(bundle, simplex, frame)


def test_extend_frame_z2_rank_1_1():
    # trivial^3 + sign^3 fiber over a two-edge interval; one frame column in
    # each component on the first edge, extended with both components invariant
    z2 = reps.cyclic_group(2)
    mats = [np.eye(6).tolist(), np.diag([1, 1, 1, -1, -1, -1]).tolist()]
    rep = reps.rep_from_matrices(z2, linalg.frac_array(mats))
    base = SimplicialBase.interval(2)
    bundle = GBundleModel(base, rep)
    col_triv = np.array([1.0, 0, 0, 0, 0, 0])
    col_sign = np.array([0, 0, 0, 1.0, 0, 0])
    frame = {
        0: np.stack([col_triv, col_sign], axis=1),
        1: np.stack([col_triv, col_sign], axis=1),
    }
    out = extend_trivial_subbundle(bundle, (0, 1), frame)
    splitting = decompose_bundle(bundle)
    p_triv = linalg.as_float(splitting.projectors["fixed"])
    p_sign = linalg.as_float(splitting.projectors["sign"])
    for v in base.vertices:
        assert np.linalg.norm(out[v][:, 0]) > 1e-8
        assert np.linalg.norm(out[v][:, 1]) > 1e-8
        # per-component invariance: each column stays inside its component
        assert np.allclose(p_triv @ out[v][:, 0], out[v][:, 0])
        assert np.allclose(p_sign @ out[v][:, 1], out[v][:, 1])
        assert linalg.rank(bundles.orbit_stack(bundle.rep, out[v]), 1e-8) == 2


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
    assert bundles.frame_independent_on_grid(bundle, res.frames, rank)
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
