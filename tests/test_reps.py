"""Tests for group models, characters, projectors and equivariant hom spaces.

Derived expectations are computed by independent means (explicit permutation
matrices, brute-force group sums, orthogonal projection formulas) and frozen
here, then compared against the library's character-projector path.
"""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitrans import linalg, reps
from equitrans.errors import InvalidInputError
from test_projector_check import (cayley_orthogonal, conjugated, fraction_rref, is_zero,
                                  library_projectors, mat_eq)

ALL_PRESETS = ["Z_2", "Z_3", "Z_4", "Z_6", "S_3", "S_4", "Q_8", "D_3", "D_4", "D_6"]


def irrep_by_label(group, label):
    return {ir.label: ir for ir in group.irreps}[label]


@pytest.mark.parametrize("name", ALL_PRESETS + [f"Z_{n}" for n in range(1, 13)]
                         + [f"D_{n}" for n in range(2, 13)])
def test_preset_group_axioms(name):
    # the group law, the irrep labels and the character relations; Z_n and
    # D_n with irrational characters are compared within linalg.TOL
    g = reps.preset_group(name)
    g.validate()


@pytest.mark.parametrize("name", ["Z_5", "D_7"])
def test_float_characters_are_checked_within_tolerance(name):
    # a float character scaled by 1 + 1e-9 fails chi(e) = dim; by 1 + 1e-13,
    # inside linalg.TOL, it passes
    g = reps.preset_group(name)
    plane = irrep_by_label(g, "plane_1")
    assert not linalg.is_exact(plane.character)
    for scale, ok in ((1 + 1e-13, True), (1 + 1e-9, False)):
        bent = dataclasses.replace(plane, character=plane.character * scale)
        group = dataclasses.replace(g, irreps=tuple(
            bent if ir is plane else ir for ir in g.irreps))
        if ok:
            group.validate()
        else:
            with pytest.raises(InvalidInputError, match=r"irrep 'plane_1' has "
                               r"chi\(e\) = 2\.000000002, not its dim 2"):
                group.validate()


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_real_character_orthogonality(name):
    # <chi_l, chi_m> = endo_dim(l) * delta_lm for real irreducible characters
    g = reps.preset_group(name)
    for a in g.irreps:
        for b in g.irreps:
            inner = Fraction(sum(x * y for x, y in zip(a.character, b.character)),
                             g.order)
            expected = a.endo_dim if a.label == b.label else 0
            assert inner == Fraction(expected), (name, a.label, b.label, inner)


def character(rep):
    return np.trace(rep.matrices, axis1=1, axis2=2)


def test_character_trivial_and_sign_z2():
    z2 = reps.cyclic_group(2)
    triv = reps.one_dim_rep(z2, [1, 1])
    sign = reps.one_dim_rep(z2, [1, -1])
    assert list(character(triv)) == [1, 1]
    assert list(character(sign)) == [1, -1]


def test_character_s3_permutation_counts_fixed_points():
    # oracle: trace of an explicit permutation matrix counts fixed points
    g = reps.symmetric_group(3)
    nat = reps._block_catalog(g)["natural"]
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    fixed_counts = [sum(1 for i in range(3) if p[i] == i) for p in perms]
    assert [int(c) for c in character(nat)] == fixed_counts


def test_isotypic_projector_z2_diag():
    z2 = reps.cyclic_group(2)
    rep = reps.rep_from_matrices(
        z2, linalg.frac_array([[[1, 0], [0, 1]], [[1, 0], [0, -1]]])
    )
    p = library_projectors(rep)["sign"]
    assert mat_eq(p, linalg.frac_array([[0, 0], [0, 1]]))


def test_rep_from_matrices_takes_exactness_from_the_dtype():
    z2 = reps.cyclic_group(2)
    swap = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    exact = reps.rep_from_matrices(z2, linalg.frac_array(swap))
    assert exact.exact and all(type(x) is int for x in exact.matrices.flat)
    for floats in (np.array(swap, dtype=float), np.array(swap), [np.eye(2), swap[1]]):
        rep = reps.rep_from_matrices(z2, floats)
        assert not rep.exact and rep.matrices.dtype == float
        assert mat_eq(rep.matrices, linalg.as_float(exact.matrices), 0.0)
    for r in (exact, rep):
        assert reps.projector_check([r], linalg.TOL)[0][0]["sign"] == 1


def test_exact_projector_rejects_a_float_anywhere_in_the_character():
    # the check covers every value, not only the first
    odd = reps.IrrepDescriptor("odd", 1, np.array([1, -1.0], dtype=object), "R")
    z2 = dataclasses.replace(reps.cyclic_group(2), irreps=(odd,))
    rep = reps.rep_from_matrices(z2, linalg.frac_array([[[1]], [[-1]]]))
    with pytest.raises(InvalidInputError, match="no exact character"):
        reps.projector_check([rep])


def test_isotypic_projector_circle_weight_mismatch_is_zero():
    circle = reps.CircleGroupModel(64)
    rep = reps.circle_weight_rep(circle, [1])
    assert is_zero(library_projectors(rep)["weight_2"])


def test_isotypic_projector_s3_standard_matches_sum_zero_plane():
    # oracle 1: direct 6-term group sum; oracle 2: orthogonal projector onto
    # the plane {x : sum x_i = 0}, namely I - J/3
    g = reps.symmetric_group(3)
    nat = reps._block_catalog(g)["natural"]
    std = irrep_by_label(g, "standard")
    direct = linalg.frac_array(np.zeros((3, 3), dtype=int))
    for elem in range(6):
        direct = direct + std.character[elem] * nat.matrices[elem]
    direct = direct * Fraction(std.dim_V, std.endo_dim * 6)
    p = library_projectors(nat)["standard"]
    assert mat_eq(p, direct)
    ones = linalg.frac_array([[1, 1, 1]] * 3)
    assert mat_eq(p, linalg.eye(3, True) - ones * Fraction(1, 3))
    assert len(fraction_rref(p)[1]) == 2


def test_fixed_projector_examples():
    g = reps.symmetric_group(3)
    nat = reps._block_catalog(g)["natural"]
    pg = library_projectors(nat)["fixed"]
    ones = linalg.frac_array([[1, 1, 1]] * 3)
    assert mat_eq(pg, ones * Fraction(1, 3))
    assert len(fraction_rref(pg)[1]) == 1
    z2 = reps.cyclic_group(2)
    sign = reps.one_dim_rep(z2, [1, -1])
    assert is_zero(library_projectors(sign)["fixed"])
    triv = reps.one_dim_rep(z2, [1, 1])
    assert mat_eq(library_projectors(triv)["fixed"], linalg.eye(1, True))


def test_irrep_of_another_group_fails_validate():
    z3 = reps.cyclic_group(3)
    z2 = dataclasses.replace(reps.cyclic_group(2),
                             irreps=(irrep_by_label(z3, "plane_1"),))
    with pytest.raises(InvalidInputError,
                       match="irrep 'plane_1' has 3 character values for a group of order 2"):
        z2.validate()


def test_endo_type_trivial_is_real():
    z2 = reps.cyclic_group(2)
    triv = reps.one_dim_rep(z2, [1, 1])
    assert reps.endo_type(triv) == ("R", 1)


def test_endo_type_circle_weight_plane_is_complex():
    circle = reps.CircleGroupModel(64)
    for weight in (1, 2, 3):
        rep = reps.circle_weight_rep(circle, [weight])
        assert reps.endo_type(rep) == ("C", 2)
        # the traceless commutant element squares to a negative multiple of I
        j = None
        for b in reps.hom_G_basis(rep, rep):
            t = b - np.eye(2) * np.trace(b) / 2
            if np.max(np.abs(t)) > 1e-8:
                j = t / np.linalg.norm(t[:, 0])
                break
        assert j is not None
        assert np.allclose(j @ j, -np.eye(2), atol=1e-8)


def test_endo_type_q8_four_dim_is_quaternionic():
    q8 = reps.quaternion_group()
    left = reps._block_catalog(q8)["left"]
    assert reps.endo_type(left) == ("H", 4)
    # oracle: the traceless part of the commutant is 3-dimensional, and two
    # Frobenius-orthonormal members of it are imaginary units of a quaternion
    # algebra up to scale: each squares to -I/4, and they anticommute
    traceless = [b - np.eye(4) * np.trace(b) / 4 for b in reps.hom_G_basis(left, left)]
    u, s, _ = np.linalg.svd(np.stack([t.reshape(-1) for t in traceless], axis=1))
    assert np.sum(s > 1e-8) == 3
    x, y = u[:, 0].reshape(4, 4), u[:, 1].reshape(4, 4)
    for m in (x, y):
        np.testing.assert_allclose(m @ m, -np.eye(4) / 4, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x @ y + y @ x, 0, rtol=0, atol=1e-12)


def test_endo_type_reducible_names_a_proper_component():
    z2 = reps.cyclic_group(2)
    rep = reps.rep_from_matrices(
        z2, linalg.frac_array([[[1, 0], [0, 1]], [[1, 0], [0, -1]]])
    )
    with pytest.raises(InvalidInputError,
                       match="reducible: isotypic component 'fixed' is proper"):
        reps.endo_type(rep)


def test_endo_type_multiplicity_two_is_reducible():
    g = reps.symmetric_group(3)
    nat = reps._block_catalog(g)["natural"]
    double = reps.direct_sum(nat, nat)
    # natural = trivial + standard, so its double has a proper fixed part
    with pytest.raises(InvalidInputError,
                       match="reducible: isotypic component 'fixed' is proper"):
        reps.endo_type(double)


def test_hom_basis_schur_zero():
    z2 = reps.cyclic_group(2)
    sign = reps.one_dim_rep(z2, [1, -1])
    triv = reps.one_dim_rep(z2, [1, 1])
    assert reps.hom_G_basis(sign, triv).shape == (0, 1, 1)


def test_hom_basis_circle_weight_dimension_two():
    circle = reps.CircleGroupModel(64)
    rep = reps.circle_weight_rep(circle, [2])
    basis = reps.hom_G_basis(rep, rep)
    assert len(basis) == 2
    for m in basis:
        assert reps.equivariance_residual(rep, rep, m) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=9, max_size=9))
def test_exact_equivariance_residual_is_the_fraction_product(entries):
    # a rational rotation of the natural S_3 block has Fraction entries too
    nat = reps._block_catalog(reps.symmetric_group(3))["natural"]
    q = linalg.frac_array([[Fraction(3, 5), Fraction(-4, 5), 0],
                           [Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 1]])
    rotated = conjugated(nat, q)
    m = linalg.frac_array(np.array(entries, dtype=object).reshape(3, 3))
    pairs = [(nat, rotated), (rotated, nat), (rotated, rotated)]
    direct = [max(map(abs, (w.matrices @ m - m @ v.matrices).flat)) for v, w in pairs]
    with pytest.MonkeyPatch.context() as patch:  # exact input multiplies numerators
        for name in ("__mul__", "__rmul__"):
            patch.setattr(Fraction, name, None)
        got = [reps.equivariance_residual(v, w, m) for v, w in pairs]
    assert got == direct


def _catalog_and_circle_reps():
    """Every catalog block of every preset, exact, and circle weight
    representations with repeated and distinct weights."""
    out = [(f"{name}-{label}", rep) for name in ALL_PRESETS
           for label, rep in reps._block_catalog(reps.preset_group(name)).items()]
    circle = reps.CircleGroupModel(64)
    return out + [(f"circle-{weights}", reps.circle_weight_rep(circle, weights, fixed))
                  for weights, fixed in (([1], 0), ([3, 3], 0), ([1, 2, 2], 1), ([15], 2))]


def test_hom_basis_count_is_the_character_inner_product():
    # dim Hom_G(V, V) = <chi, chi> = avg_g chi(g)^2 for a real representation
    for name, rep in _catalog_and_circle_reps():
        chi = np.trace(rep.float_matrices, axis1=1, axis2=2)
        assert len(reps.hom_G_basis(rep, rep)) == round(chi @ chi / rep.group.order), name


def test_hom_basis_is_orthonormal_and_equivariant():
    circle = reps.CircleGroupModel(32)
    pairs = [(rep, rep) for _, rep in _catalog_and_circle_reps()] + [
        (reps.circle_weight_rep(circle, [1, 1, 1]), reps.circle_weight_rep(circle, [1, 1], 1)),
        (reps.circle_weight_rep(circle, [2], 1), reps.circle_weight_rep(circle, [1, 2]))]
    for v, w in pairs:
        basis = reps.hom_G_basis(v, w)
        assert basis.shape[1:] == (w.dim, v.dim)
        flat = basis.reshape(len(basis), -1)
        np.testing.assert_allclose(flat @ flat.T, np.eye(len(basis)), rtol=0, atol=1e-12)
        for m in basis:
            assert reps.equivariance_residual(v, w, m) <= 1e-12


def test_hom_basis_of_a_non_orthogonal_representation_raises():
    # rot90 conjugated by a shear is a representation, but not an orthogonal
    # one: the average of rho(g) (x) rho(g) is then no orthogonal projector,
    # and its range holds maps that are not equivariant
    rot90 = reps._block_catalog(reps.preset_group("Z_4"))["rot90"]
    shear = np.array([[1.0, 2.0], [0.0, 1.0]])
    sheared = reps.RealRepresentation(
        rot90.group, shear @ rot90.float_matrices @ np.linalg.inv(shear))
    with pytest.raises(InvalidInputError, match="averaged map failed the equivariance check"):
        reps.hom_G_basis(sheared, sheared)


def test_hom_basis_s3_standard_dimension_one():
    # oracle: averaging over all 6 elements of a spanning set of raw maps
    g = reps.symmetric_group(3)
    nat = reps._block_catalog(g)["natural"]
    basis = reps.hom_G_basis(nat, nat)
    # natural = trivial + standard: End_G has dimension 1 + 1 = 2,
    # so Hom_G(standard, standard) itself is 1-dimensional; isolate it by
    # compressing to the standard isotypic component
    p = linalg.as_float(library_projectors(nat)["standard"])
    compressed = [p @ b @ p for b in basis]
    flat = np.stack([c.reshape(-1) for c in compressed], axis=1)
    assert linalg.rank(flat) == 1


@pytest.mark.parametrize("name", ALL_PRESETS)
@pytest.mark.parametrize("exact", [True, False])
def test_projector_algebra_random_reps(name, exact):
    group = reps.preset_group(name)
    rng = np.random.default_rng(2024)
    for trial in range(3):
        rep = reps.random_rep(group, rng, max_dim=10, exact=exact)
        projs = library_projectors(rep)
        ident = linalg.eye(rep.dim, exact)
        total = 0 * ident
        labels = list(projs)
        for label in labels:
            p = projs[label]
            assert mat_eq(p @ p, p), (name, label, "idempotent")
            total = total + p
            for g in range(group.order):
                m = rep.matrices[g]
                assert mat_eq(m @ p, p @ m), (name, label, "commutes")
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                assert is_zero(projs[a] @ projs[b]), (name, a, b)
        assert mat_eq(total, ident), (name, "resolution of identity")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_PRESETS), st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_random_rep_conjugates_by_index_and_sign(name, seed, max_dim):
    # oracle: the same draws (a catalog multiset, rng.permutation(d), then
    # rng.choice([-1, 1], size=d)) as the matrix q with q[perm[j], j] =
    # signs[j], applied by object matmul
    group = reps.preset_group(name)
    rep = reps.random_rep(group, np.random.default_rng(seed), max_dim=max_dim)
    rng = np.random.default_rng(seed)
    catalog = reps._block_catalog(group)
    rho = linalg.block_diag([catalog[n].matrices
                             for n in reps.choose_blocks(group, rng, max_dim)], exact=True)
    d = rho.shape[-1]
    perm, signs = rng.permutation(d), rng.choice([-1, 1], size=d)
    q = linalg.frac_array(np.zeros((d, d), dtype=int))
    q[perm, np.arange(d)] = [int(s) for s in signs]
    assert rep.matrices.tolist() == (q @ rho @ q.T).tolist()
    assert all(type(x) is int for x in rep.matrices.flat)


def test_projector_algebra_circle_quadrature():
    circle = reps.CircleGroupModel(64)
    rng = np.random.default_rng(7)
    rep = reps.random_rep(circle, rng, max_dim=10)
    projs = library_projectors(rep)
    ident = np.eye(rep.dim)
    total = np.zeros((rep.dim, rep.dim))
    for label, p in projs.items():
        assert linalg.max_abs(p @ p - p) <= 1e-10
        total = total + p
    assert linalg.max_abs(total - ident) <= 1e-10


def test_rep_from_generators_matches_block():
    # S_3 generated by a transposition and a 3-cycle: feeding only the
    # generator permutation matrices must reproduce the natural rep
    import itertools

    g = reps.symmetric_group(3)
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    gen_perms = [(1, 0, 2), (1, 2, 0)]
    gen_ids = [idx[p] for p in gen_perms]

    def perm_matrix(p):
        m = [[0] * 3 for _ in range(3)]
        for col, row in enumerate(p):
            m[row][col] = 1
        return m

    rep = reps.rep_from_generators(
        g, gen_ids, linalg.frac_array([perm_matrix(p) for p in gen_perms]))
    nat = reps._block_catalog(g)["natural"]
    for e in range(g.order):
        assert mat_eq(rep.matrices[e], nat.matrices[e])


def test_rep_from_generators_rejects_non_generating_set():
    g = reps.symmetric_group(3)
    with pytest.raises(InvalidInputError, match="unreachable"):
        reps.rep_from_generators(g, [0], linalg.frac_array([np.eye(2)]))


def test_endo_type_invariant_under_orthogonal_change_of_basis():
    circle = reps.CircleGroupModel(64)
    rng = np.random.default_rng(11)
    rep = reps.circle_weight_rep(circle, [3])
    q = linalg.random_orthogonal(2, rng)
    conj = reps.conjugate_rep(rep, q)
    assert reps.endo_type(conj) == ("C", 2)
    q8 = reps.quaternion_group()
    left = reps._block_catalog(q8)["left"]
    qe = cayley_orthogonal(4, rng)
    conj2 = conjugated(left, qe)
    assert reps.endo_type(conj2) == ("H", 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_preset_permutation_blocks_follow_their_definitions(n):
    # D_n element a + n*b = r^a s^b moves vertex v to a + v (b = 0) or
    # a - v (b = 1) mod n; Z_n element g moves point x to g + x mod n
    def action(rep):
        return np.argmax(linalg.as_float(rep.matrices), axis=1)

    dihedral = reps._block_catalog(reps.preset_group(f"D_{n}"))["vertices"]
    np.testing.assert_array_equal(
        action(dihedral),
        [[(x % n + (v if x < n else -v)) % n for v in range(n)] for x in range(2 * n)])
    shift = reps._block_catalog(reps.preset_group(f"Z_{n}"))["shift"]
    np.testing.assert_array_equal(action(shift),
                                  [[(g + x) % n for x in range(n)] for g in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_group_sign_and_two_dim_characters(n):
    # sign is (-1)^inversions; on S_4, two_dim is 2, 0, 2, -1, 0 on the
    # classes of the identity, transpositions, double transpositions,
    # 3-cycles and 4-cycles, told apart by (fixed points, order)
    two_dim = {(4, 1): 2, (2, 2): 0, (0, 2): 2, (1, 3): -1, (0, 4): 0}
    group = reps.symmetric_group(n)
    chi = {ir.label: ir.character for ir in group.irreps}
    # the constructor numbers the permutations in sorted order
    for x, p in enumerate(sorted(itertools.permutations(range(n)))):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        assert chi["sign"][x] == (-1) ** inversions
        if n == 4:
            power, order = p, 1
            while power != tuple(range(n)):
                power, order = tuple(p[i] for i in power), order + 1
            fixed = sum(p[i] == i for i in range(n))
            assert chi["two_dim"][x] == two_dim[(fixed, order)]


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_group_is_built_once_per_name_and_read_only(name):
    group = reps.preset_group(name)
    assert reps.preset_group(name) is group
    with pytest.raises(ValueError):
        group.table[0, 0] = group.table[0, 1]
    for irrep in group.irreps:
        with pytest.raises(ValueError):
            irrep.character[0] = 0
    # names outside the presets build a new group on every call
    assert reps.preset_group("Z_5") is not reps.preset_group("Z_5")


def test_identity_and_inverses_are_scanned_once_and_errors_repeat():
    group = reps.symmetric_group(3)
    inverse = group.inverse(np.arange(group.order))
    assert np.all(group.compose(np.arange(group.order), inverse) == group.identity)
    assert "identity" in vars(group) and "_inverses" in vars(group)
    no_identity = reps.FiniteGroupModel("bad", np.array([[0, 0], [0, 0]]))
    no_inverse = reps.FiniteGroupModel("bad", np.array([[0, 1], [1, 1]]))
    for _ in range(2):
        with pytest.raises(InvalidInputError, match="has no identity"):
            no_identity.identity
        with pytest.raises(InvalidInputError, match="element 1 has no two-sided inverse"):
            no_inverse.inverse(0)


def _expected_blocks(name):
    """(name, dim) of every catalog block, sorted: the 1-dim irreps and the
    blocks each constructor supplies."""
    kind, n = name[0], int(name[2:])
    if kind == "Z":
        blocks = [("trivial", 1), ("shift", n)] + [("sign", 1)] * (n % 2 == 0)
        blocks += [("rot90", 2)] * (n == 4)
    elif kind == "D":
        blocks = [("trivial", 1), ("reflection_sign", 1), ("vertices", n),
                  ("regular", 2 * n)]
        blocks += [("rotation_sign", 1), ("rotation_reflection_sign", 1)] * (n % 2 == 0)
    else:
        blocks = {"S_2": [("trivial", 1), ("sign", 1), ("natural", 2)],
                  "S_3": [("trivial", 1), ("sign", 1), ("natural", 3)],
                  "S_4": [("trivial", 1), ("sign", 1), ("natural", 4),
                          ("natural_sign", 4), ("pairs", 6)],
                  "Q_8": [("trivial", 1), ("sign_i", 1), ("sign_j", 1), ("sign_k", 1),
                          ("left", 4)]}[name]
    return sorted(blocks)


@pytest.mark.parametrize("name", sorted({*ALL_PRESETS, *(f"Z_{n}" for n in range(1, 9)),
                                          *(f"D_{n}" for n in range(2, 9)), "S_2"}))
def test_block_catalog_blocks_are_integer_representations(name):
    group = reps.symmetric_group(2) if name == "S_2" else reps.preset_group(name)
    catalog = reps._block_catalog(group)
    assert sorted((label, rep.dim) for label, rep in catalog.items()) == _expected_blocks(name)
    for label, rep in catalog.items():
        rep.validate()
        assert all(type(v) is int for v in rep.matrices.flat), label


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_block_catalog_is_built_once_per_group_and_read_only(name):
    group = reps.preset_group(name)
    catalog = reps._block_catalog(group)
    assert reps._block_catalog(group) is catalog
    # a group built anew (not the shared preset) gets its own catalog
    fresh = reps._block_catalog(reps._PRESETS[name]())
    assert fresh is not catalog and sorted(fresh) == sorted(catalog)
    block = catalog["trivial"]
    assert fresh["trivial"] is not block
    with pytest.raises(ValueError):
        block.matrices[0, 0, 0] = 2
    with pytest.raises(TypeError):
        catalog["extra"] = block


def _z200_planes():
    """Z_200 acting on R^12 by rotation planes of weights 1 to 6, in float."""
    planes = reps.circle_weight_rep(reps.CircleGroupModel(200), range(1, 7))
    return reps.RealRepresentation(reps.preset_group("Z_200"), planes.matrices)


def test_float_group_law_check_memory_is_bounded():
    # all 200 x 200 pairs at once peaked at 139 MB under tracemalloc
    rep = _z200_planes()
    tracemalloc.start()
    try:
        rep.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("chunk", [reps._LAW_CHUNK, 1])
def test_group_law_names_the_first_failing_pair_in_any_chunk(monkeypatch, chunk):
    # rho(150) turned by 1e-6 in its first plane stays orthogonal; the first
    # pair (g, h) with g h = 150 is (1, 149), in the second chunk of one row
    monkeypatch.setattr(reps, "_LAW_CHUNK", chunk)
    turn = np.eye(12)
    turn[:2, :2] = [[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]]
    mats = _z200_planes().matrices.copy()
    mats[150] = mats[150] @ turn
    with pytest.raises(InvalidInputError, match=r"^group law fails at pair \(1, 149\)$"):
        reps.RealRepresentation(reps.preset_group("Z_200"), mats).validate()
