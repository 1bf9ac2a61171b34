"""Tests for lambda indices, determinantal codimensions, the index
condition, rank relations of equivariant blocks, and the perturbation
pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitrans import bundles, linalg, reps, transversality as tv
from equitrans.errors import ObstructionError


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


def test_lambda_index_cases():
    # a lambda block V^n -> V^m has real index (n - m) dim V, unit index n - m
    circle = reps.CircleGroupModel(64)
    w = circle.weight_irrep(1)
    q8 = reps.quaternion_group()
    four = {ir.label: ir for ir in q8.irreps}["four_dim"]
    for shape, irrep, expected in (((4, 4), w, (0, 0)), ((4, 6), w, (2, 1)),
                                   ((8, 4), four, (-4, -1))):
        split = tv.LinearizationSplit(np.zeros((0, 0)), {"l": np.zeros(shape)},
                                      {"l": irrep.dim_V}, {"l": irrep.endo_dim})
        assert (split.lambda_real_index("l"), split.lambda_unit_index("l")) == expected


# ---------------------------------------------------------------------------
# determinantal codimensions
# ---------------------------------------------------------------------------


def codims(spec):
    """(codim of the stratum in Hom, codim of its singularities inside it)."""
    return spec.codim, spec.singular_codim


def test_singular_codim_values():
    # statement-level formulas: (n-m+1)*d and (n-m+3)*d
    assert codims(tv.SingularStratumSpec("l", 1, 1, 1)) == (1, 3)
    assert codims(tv.SingularStratumSpec("l", 3, 2, 2)) == (4, 8)
    assert codims(tv.SingularStratumSpec("l", 2, 2, 4)) == (4, 12)
    # n < m: the stratum is everything
    assert codims(tv.SingularStratumSpec("l", 1, 2, 2)) == (0, 0)


def test_singular_codim_consistency_invariant():
    for n in range(1, 5):
        for m in range(1, n + 1):
            for d in (1, 2, 4):
                spec = tv.SingularStratumSpec("l", n, m, d)
                assert spec.singular_codim == spec.codim + 2 * d


def test_determinantal_dimension_oracle_matches_codim_formula():
    # Grassmannian-fibration count: dim{rank <= m-1} in End-units must equal
    # nm - (n-m+1), and the rank <= m-2 sub-stratum must sit (n-m+3) deeper
    for n in range(1, 5):
        for m in range(1, n + 1):
            for d in (1, 2, 4):
                spec = tv.SingularStratumSpec("l", n, m, d)
                dim_s = tv.determinantal_dimension_oracle(n, m, m - 1)
                dim_s_cols = tv.determinantal_dimension_oracle_columns(n, m, m - 1)
                assert dim_s == dim_s_cols
                assert d * dim_s == d * n * m - spec.codim
                if m >= 2:
                    dim_sing = tv.determinantal_dimension_oracle(n, m, m - 2)
                    assert d * dim_sing == d * dim_s - spec.singular_codim


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


def make_split(fixed_shape, lam_shapes, dim_v=2, endo=2):
    lam = {f"weight_{i+1}": np.zeros(s) for i, s in enumerate(lam_shapes)}
    return tv.LinearizationSplit(
        np.zeros(fixed_shape),
        lam,
        {k: dim_v for k in lam},
        {k: endo for k in lam},
    )


def test_pointwise_condition_weight_cases():
    # ind s^G = 0, ind D^lambda = 0 -> 0 < 2 holds
    split = make_split((3, 3), [(2, 2)])
    assert tv.check_pointwise_condition(split) == {"weight_1": True}
    # ind s^G = 2 -> 2 < 2 fails
    split = make_split((3, 5), [(2, 2)])
    assert tv.check_pointwise_condition(split) == {"weight_1": False}


def test_pointwise_condition_real_type():
    z2 = reps.cyclic_group(2)
    split = tv.LinearizationSplit(
        np.zeros((2, 2)), {"sign": np.zeros((3, 3))}, {"sign": 1}, {"sign": 1}
    )
    assert tv.check_pointwise_condition(split) == {"sign": True}  # 0 < 1


def test_s1_condition_cases():
    assert tv.s1_condition(1, [0]) is True  # 0 + 2 > 1
    assert tv.s1_condition(2, [0]) is False  # 0 + 2 > 2 fails
    assert tv.s1_condition(-3, [0, 0, 1]) is True


def test_s1_condition_matches_pointwise_on_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        ind_sg = int(rng.integers(-5, 6))
        ind_l = 2 * int(rng.integers(-3, 4))  # real weight indices are even
        general = ind_sg < (ind_l // 2 + 1) * 2
        circle = tv.s1_condition(ind_sg, [ind_l])
        assert general == circle


def test_condition_monotonicity():
    # increasing ind D^lambda keeps/turns the condition true; increasing
    # ind s^G can only break it
    for d, dv in ((1, 1), (2, 2), (4, 4)):
        prev = None
        for ind_units in range(-3, 4):
            rhs = (ind_units + 1) * d
            val = 0 < rhs
            if prev is not None:
                assert val >= prev
            prev = val


# ---------------------------------------------------------------------------
# rank relations of equivariant blocks
# ---------------------------------------------------------------------------


def complex_rank(matrix):
    """Rank over C of a matrix of complex entries."""
    return int(np.linalg.matrix_rank(np.asarray(matrix, dtype=complex), tol=linalg.TOL))


def quaternion_rank(quads):
    """Rank over H of an (m, n, 4) array of (1, i, j, k) entries: half the
    complex rank of the standard complex 2x2 embedding."""
    a, b, c, d = np.moveaxis(np.asarray(quads, dtype=float), -1, 0)
    return complex_rank(np.block([[a + 1j * b, c + 1j * d],
                                  [-c + 1j * d, a - 1j * b]])) // 2


def test_division_ring_rank_identity_and_zero():
    assert linalg.rank(np.eye(3), 1e-8) == 3
    assert linalg.rank(np.zeros((2, 2)), 1e-8) == 0
    assert complex_rank(np.eye(2)) == 2
    assert complex_rank(np.zeros((2, 3))) == 0
    eye_h = np.zeros((2, 2, 4))
    eye_h[0, 0, 0] = 1
    eye_h[1, 1, 0] = 1
    assert quaternion_rank(eye_h) == 2


def test_division_ring_rank_quaternion_1_j():
    # (1, j) as a 1x2 quaternion matrix: complex embedding is 2x4 of rank 2
    m = np.zeros((1, 2, 4))
    m[0, 0, 0] = 1  # 1
    m[0, 1, 2] = 1  # j
    assert quaternion_rank(m) == 1
    # (1, i) is one row over C as well
    assert complex_rank([[1, 1j]]) == 1


def preimage_rank(block, cover):
    """Rank of the preimage block^{-1}(span cover), read off the solutions
    (x, c) of block x = cover c.  When the columns of ``cover`` and the image
    of ``block`` span the target, it exceeds rank cover by the Fredholm
    index of the block (kernel-bundle rank relation)."""
    kernel = linalg.nullspace(np.concatenate([block, -cover], axis=1), bundles.RANK_TOL)
    if kernel.shape[1] == 0:
        return 0
    return linalg.rank(kernel[:block.shape[1]], bundles.RANK_TOL)


def test_real_rank_equals_unit_rank_times_dim():
    # random equivariant maps assembled from the hom basis
    circle = reps.CircleGroupModel(32)
    rep_n = reps.circle_weight_rep(circle, [1, 1, 1])
    rep_e = reps.circle_weight_rep(circle, [1, 1])
    basis = reps.hom_G_basis(rep_n, rep_e)
    rng = np.random.default_rng(17)
    for _ in range(20):
        coeffs = rng.normal(size=len(basis))
        m = sum(c * b for c, b in zip(coeffs, basis))
        real_rank = linalg.rank(m, 1e-8)
        # complex coordinates: blocks are a*I + b*J in weight-aligned bases
        cm = np.zeros((2, 3), dtype=complex)
        for i in range(2):
            for j in range(3):
                blk = m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                cm[i, j] = complex(blk[0, 0], blk[1, 0])
        unit_rank = complex_rank(cm)
        assert real_rank == 2 * unit_rank


def test_preimage_rank_relation():
    # when the cover spans the cokernel, the preimage rank exceeds the cover
    # rank by exactly the Fredholm index of the block
    rng = np.random.default_rng(70)
    for _ in range(20):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        block = rng.normal(size=(rows, cols))
        r = linalg.rank(block, 1e-8)
        deficit = rows - r
        extra = int(rng.integers(0, 3))
        cover_basis = linalg.nullspace(block.T, 1e-8)  # spans the cokernel
        if extra:
            cover_basis = np.concatenate(
                [cover_basis, rng.normal(size=(rows, extra))], axis=1
            )
        pre = preimage_rank(block, cover_basis)
        index = cols - rows
        cover_rank = linalg.rank(cover_basis, 1e-8) if cover_basis.size else 0
        assert pre - cover_rank == index


def test_preimage_rank_on_stabilization_output():
    # the covering subbundle produced by stabilization satisfies the
    # kernel-bundle rank relation at every vertex
    from equitrans.bundles import GBundleModel, SimplicialBase, orbit_stack
    from equitrans.bundles import stabilize_cokernel

    circle = reps.CircleGroupModel(32)
    rep = reps.circle_weight_rep(circle, [1, 1, 1])
    base = SimplicialBase.interval(1)
    bundle = GBundleModel(base, rep)
    d0 = np.zeros((6, 6))
    d0[2:, 2:] = np.eye(4)
    d1 = np.zeros((6, 6))
    d1[:4, :4] = np.eye(4)
    res = stabilize_cokernel(bundle, {0: d0, 1: d1}, seed=2)
    for v, dmat in ((0, d0), (1, d1)):
        cover = orbit_stack(rep, res.frames[v])
        pre = preimage_rank(dmat, cover)
        cover_rank = linalg.rank(cover, 1e-8)
        assert pre - cover_rank == 0  # square blocks: index zero


def test_real_rank_equals_unit_rank_times_dim_quaternionic():
    # equivariant endomorphisms of the quaternionic 4-dim representation are
    # right multiplications; extract the quadruple from the first column
    q8 = reps.quaternion_group()
    left = reps._block_catalog(q8)["left"]
    basis = reps.hom_G_basis(left, left)
    assert len(basis) == 4
    rng = np.random.default_rng(55)
    for _ in range(10):
        coeffs = rng.normal(size=4)
        m = sum(c * linalg.as_float(b) for c, b in zip(coeffs, basis))
        real_rank = linalg.rank(m, 1e-8)
        quad = m[:, 0]  # image of the unit quaternion
        unit_rank = quaternion_rank(quad.reshape(1, 1, 4))
        assert real_rank == 4 * unit_rank


# ---------------------------------------------------------------------------
# perturbation pipeline
# ---------------------------------------------------------------------------


def weight_model(base, circle, n_units, m_units, weight, d_fix, lam_by_vertex,
                 section=None, support=None):
    rep_n = reps.circle_weight_rep(circle, [weight] * n_units)
    rep_e = reps.circle_weight_rep(circle, [weight] * m_units)
    label = f"weight_{weight}"
    verts = base.vertices
    section = section if section is not None else {v: np.zeros(d_fix[v][0].shape[0] if False else 1) for v in verts}
    return tv.FixedLocusModel(
        base=base,
        group=circle,
        normal_reps={label: rep_n},
        fiber_reps={label: rep_e},
        section=section,
        fixed_blocks=d_fix,
        lambda_blocks={v: {label: lam_by_vertex[v]} for v in verts},
        support=support,
    )


def test_perturbation_already_transverse_keeps_zero():
    circle = reps.CircleGroupModel(32)
    base = bundles.SimplicialBase.interval(1)
    d_fix = {v: np.eye(2) for v in (0, 1)}
    lam = {v: np.eye(4) for v in (0, 1)}
    model = weight_model(base, circle, 2, 2, 1, d_fix, lam,
                         section={v: np.zeros(2) for v in (0, 1)})
    gamma, report = tv.construct_equivariant_perturbation(model, seed=5)
    corrections = list(gamma.fixed.values()) + [
        m for per in gamma.lambdas.values() for m in per.values()]
    assert all(not np.any(m) for m in corrections) and not gamma.section_shifts
    assert report.passed


def test_perturbation_single_vertex_zero_block():
    # one fixed vertex, N = E = a single weight-1 plane, D = 0:
    # any invertible equivariant correction certifies surjectivity
    circle = reps.CircleGroupModel(32)
    base = bundles.SimplicialBase.from_maximal([(0,)])
    model = weight_model(
        base, circle, 1, 1, 1,
        {0: np.zeros((0, 0))},
        {0: np.zeros((2, 2))},
        section={0: np.zeros(1)},
    )
    gamma, report = tv.construct_equivariant_perturbation(model, seed=3)
    corr = gamma.lambdas[0]["weight_1"]
    assert linalg.min_singular_value(corr) > 1e-8
    assert report.vertex_results[0]["weight_1"]["surjective"]
    assert report.equivariance_residual <= 1e-10


def test_perturbation_obstruction_certificate():
    # rank E^lambda > 0 with ind s^G >= (ind D^lambda / dim V + 1) * d and a
    # nonempty zero set must produce an obstruction certificate
    circle = reps.CircleGroupModel(32)
    base = bundles.SimplicialBase.from_maximal([(0,)])
    model = weight_model(
        base, circle, 1, 1, 1,
        {0: np.zeros((1, 3))},  # ind s^G = 2 >= 2
        {0: np.zeros((2, 2))},
        section={0: np.zeros(1)},
    )
    with pytest.raises(ObstructionError) as err:
        tv.construct_equivariant_perturbation(model, seed=0)
    certs = err.value.certificate["certificates"]
    assert certs and certs[0]["lambda"] == "weight_1"
    assert certs[0]["ind_sG"] == 2 and certs[0]["rhs"] == 2
    assert certs[0]["vertex"] == 0


def test_perturbation_respects_support():
    circle = reps.CircleGroupModel(32)
    base = bundles.SimplicialBase.interval(1)
    d_fix = {0: np.zeros((1, 2)), 1: np.eye(2)}
    lam = {0: np.zeros((2, 2)), 1: np.eye(2)}
    rep_n = reps.circle_weight_rep(circle, [1])
    model = tv.FixedLocusModel(
        base=base,
        group=circle,
        normal_reps={"weight_1": rep_n},
        fiber_reps={"weight_1": rep_n},
        section={0: np.zeros(1), 1: np.ones(1)},  # only vertex 0 is a zero
        fixed_blocks=d_fix,
        lambda_blocks={v: {"weight_1": lam[v]} for v in (0, 1)},
        support={0},
    )
    gamma, report = tv.construct_equivariant_perturbation(model, seed=9)
    assert linalg.max_abs(gamma.lambdas[1]["weight_1"]) == 0
    assert linalg.max_abs(gamma.fixed[1]) == 0
    assert report.passed


def test_perturbation_negative_fixed_index_shifts_section():
    # rank E^G > dim M^G: the fixed block cannot be surjective, so
    # transversality forces the zero set off the vertex via a section shift
    circle = reps.CircleGroupModel(32)
    base = bundles.SimplicialBase.from_maximal([(0,)])
    rep_n = reps.circle_weight_rep(circle, [1])
    model = tv.FixedLocusModel(
        base=base,
        group=circle,
        normal_reps={"weight_1": rep_n},
        fiber_reps={"weight_1": rep_n},
        section={0: np.zeros(3)},
        fixed_blocks={0: np.zeros((3, 1))},
        lambda_blocks={0: {"weight_1": np.eye(2)}},
    )
    gamma, report = tv.construct_equivariant_perturbation(model, seed=6)
    assert 0 in gamma.section_shifts
    assert np.linalg.norm(gamma.section_shifts[0]) > 0
    assert report.passed
    # no block corrections needed once the vertex left the zero set
    assert linalg.max_abs(gamma.fixed[0]) == 0
    assert linalg.max_abs(gamma.lambdas[0]["weight_1"]) == 0


def test_perturbation_reproducible():
    circle = reps.CircleGroupModel(32)
    base = bundles.SimplicialBase.interval(1)
    d_fix = {v: np.zeros((1, 2)) for v in (0, 1)}
    lam = {v: np.zeros((2, 4)) for v in (0, 1)}
    model = weight_model(base, circle, 2, 1, 1, d_fix, lam,
                         section={v: np.zeros(1) for v in (0, 1)})
    g1, r1 = tv.construct_equivariant_perturbation(model, seed=123)
    g2, r2 = tv.construct_equivariant_perturbation(model, seed=123)
    for v in (0, 1):
        assert np.array_equal(g1.fixed[v], g2.fixed[v])
        assert np.array_equal(g1.lambdas[v]["weight_1"], g2.lambdas[v]["weight_1"])
    assert r1.vertex_results == r2.vertex_results


# ---------------------------------------------------------------------------
# the stacked block sampler against the one-candidate-at-a-time loop
# ---------------------------------------------------------------------------


def _sequential_surject(block, hom_basis, rng):
    """The sampler probing one candidate per SVD: the reference for bitwise
    equality.  Candidate k reads its coefficients from row k of one
    (budget, len(hom_basis)) normal draw and entry k of one budget-long
    uniform draw.  A tall block is refused before any draw."""
    if block.shape[0] > block.shape[1]:
        return np.zeros_like(block), 0.0
    sv = linalg.min_singular_value(block)
    if sv > tv.SV_THRESHOLD:
        return np.zeros_like(block), sv
    if len(hom_basis) == 0:
        return np.zeros_like(block), sv
    best = None
    scale = max(1.0, linalg.max_abs(block))
    normals = rng.normal(size=(bundles.RETRY_BUDGET, len(hom_basis)))
    uniforms = rng.random(bundles.RETRY_BUDGET)
    for k in range(bundles.RETRY_BUDGET):
        coeffs = normals[k] * scale * (0.25 + 0.75 * uniforms[k])
        cand = np.add.accumulate(coeffs[:, None, None] * hom_basis)[-1] + 0.0
        sv = linalg.min_singular_value(block + cand)
        if sv > tv.SV_THRESHOLD:
            norm = float(np.linalg.norm(coeffs))
            if best is None or norm < best[0]:
                best = (norm, cand, sv)
    if best is None:
        return np.zeros_like(block), linalg.min_singular_value(block)
    return best[1], best[2]


def _assert_same_sampling(block, basis, seed):
    """Stacked and sequential samplers return the same bits and leave the
    generator in the same state."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    corr_a, sv_a = tv._surject_equivariant_block(block, basis, rng_a)
    corr_b, sv_b = _sequential_surject(block, basis, rng_b)
    assert corr_a.shape == corr_b.shape == block.shape
    assert corr_a.tobytes() == corr_b.tobytes()
    assert type(sv_a) is type(sv_b) is float
    assert np.float64(sv_a).tobytes() == np.float64(sv_b).tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return corr_a, sv_a


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 5), k=st.integers(0, 6),
       kind=st.sampled_from(["zero", "rank-deficient", "full"]),
       dead_row=st.booleans(), magnitude=st.sampled_from([1e-3, 1.0, 1e3]),
       data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
def test_stacked_sampler_matches_sequential_loop(rows, cols, k, kind, dead_row,
                                                 magnitude, data_seed, seed):
    data = np.random.default_rng(data_seed)
    if kind == "zero":
        block = np.zeros((rows, cols))
    elif kind == "rank-deficient":
        r = int(data.integers(0, rows))
        block = data.normal(size=(rows, r)) @ data.normal(size=(r, cols))
    else:
        block = data.normal(size=(rows, cols))
    block = block * magnitude
    basis = data.normal(size=(k, rows, cols))
    if dead_row:  # no correction reaches row 0: only a block with it can succeed
        basis[:, 0] = 0.0
    _assert_same_sampling(block, basis, seed)


def _basis(k, shape, dead_row=False):
    basis = np.random.default_rng(1).normal(size=(k,) + shape)
    if dead_row:
        basis[:, 0] = 0.0
    return basis


@pytest.mark.parametrize("block, basis, corrected, certified", [
    (np.eye(2, 3), _basis(4, (2, 3)), False, True),  # already surjective: no draw
    (np.zeros((2, 2)), _basis(0, (2, 2)), False, False),  # empty hom basis
    (np.zeros((2, 2)), _basis(4, (2, 2), dead_row=True), False, False),  # no success
    (np.zeros((2, 2)), _basis(4, (2, 2)), True, True),  # smallest-norm success
    (np.zeros((3, 2)), _basis(5, (3, 2)), False, False),  # tall: never surjective
])
def test_stacked_sampler_cases(block, basis, corrected, certified):
    corr, sv = _assert_same_sampling(block, basis, 7)
    assert (linalg.max_abs(corr) > 0) == corrected
    assert (sv > tv.SV_THRESHOLD) == certified


def test_stacked_sampler_with_no_budget(monkeypatch):
    monkeypatch.setattr(bundles, "RETRY_BUDGET", 0)
    corr, sv = _assert_same_sampling(np.zeros((2, 2)), _basis(4, (2, 2)), 7)
    assert linalg.max_abs(corr) == 0 and sv == 0.0


@pytest.mark.parametrize("block, basis, budget, draws", [
    (np.zeros((2, 2)), _basis(4, (2, 2)), 64, True),  # sampled
    (np.zeros((2, 2)), _basis(4, (2, 2), dead_row=True), 64, True),  # sampled, no success
    (np.zeros((3, 2)), _basis(5, (3, 2)), 64, False),  # tall
    (np.eye(2, 3), _basis(4, (2, 3)), 64, False),  # already surjective
    (np.zeros((2, 2)), _basis(0, (2, 2)), 64, False),  # empty hom basis
    (np.zeros((2, 2)), _basis(4, (2, 2)), 0, False),  # zero budget
])
def test_sampled_block_draws_its_budget_in_two_calls(monkeypatch, block, basis, budget,
                                                     draws):
    # one sampled block leaves the generator where normal(size=(64, k)) and
    # then random(64) leave a fresh one; every other path draws nothing
    monkeypatch.setattr(bundles, "RETRY_BUDGET", budget)
    rng, expected = np.random.default_rng(7), np.random.default_rng(7)
    tv._surject_equivariant_block(block, basis, rng)
    if draws:
        expected.normal(size=(64, len(basis)))
        expected.random(64)
        assert expected.bit_generator.state != np.random.default_rng(7).bit_generator.state
    assert rng.bit_generator.state == expected.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), rows=st.integers(1, 4), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_svd_equals_per_matrix_min_singular_value(n, rows, cols, seed):
    # the sampler takes a stack's smallest singular values in one call; each
    # must be the bits linalg.min_singular_value gives for its matrix alone
    stack = np.random.default_rng(seed).normal(size=(n, rows, cols))
    stacked = np.linalg.svd(stack, compute_uv=False)[:, -1]
    singles = np.array([linalg.min_singular_value(m) for m in stack])
    assert stacked.tobytes() == singles.tobytes()
