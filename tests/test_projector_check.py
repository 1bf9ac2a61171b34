"""Tests of ``reps.projector_check``, the one check of the character
projector identities.

Its exact ranks and verdicts are compared with an all-Fraction computation
written here from the character formula, on representations whose
numerators fit int64 and on ones that need python ints.  Corrupting one
character must make exactly the identity it breaks fail, in both modes; on
random representations every identity holds.  A list is checked in padded
stacks, and each member's result must be that of checking it alone.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitrans import linalg, reps, suites
from equitrans.errors import InvalidInputError


def fraction_rref(a):
    """Reduced row echelon form over the rationals, every pivot divided out
    as a Fraction: (R, pivot columns).  The pivot of a column is its first
    nonzero entry at or below the current row."""
    m = np.array(a, dtype=object)
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        below = [i for i in range(r, rows) if m[i, c] != 0]
        if not below:
            continue
        m[[r, below[0]]] = m[[below[0], r]]
        m[r] = m[r] / Fraction(m[r, c])
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
    return m, pivots


def cayley_orthogonal(dim, rng, denom=3):
    """Exact rational orthogonal matrix: the Cayley transform
    (I + A)^-1 (I - A) of a random antisymmetric A with entries in
    {-1, 0, 1} / denom.  I + A is invertible, so eliminating [I + A | I - A]
    leaves [I | (I + A)^-1 (I - A)]."""
    a = linalg.frac_array(np.zeros((dim, dim), dtype=int))
    for i in range(dim):
        for j in range(i + 1, dim):
            v = Fraction(int(rng.integers(-1, 2)), denom)
            a[i, j] = v
            a[j, i] = -v
    i_mat = linalg.eye(dim, exact=True)
    red, _ = fraction_rref(np.concatenate([i_mat + a, i_mat - a], axis=1))
    return linalg.frac_array(red[:, dim:])


def conjugated(rep, q):
    """q rho q^T for an exact orthogonal q, by object matmul: an exact
    representation with Fraction entries where q has them."""
    return reps.RealRepresentation(rep.group, q @ rep.matrices @ q.T)


def fraction_projectors(rep):
    """The character projectors of ``rep`` with every entry a Fraction,
    written out from the formula: the fixed part averages rho, and the part
    of irrep l is (dim V / endo_dim) avg_g chi_l(g) rho(g)."""
    group = rep.group
    mats = np.array([[[Fraction(x) for x in row] for row in m] for m in rep.matrices],
                    dtype=object)
    projs = {"fixed": sum(mats) * Fraction(1, group.order)}
    for ir in group.nontrivial_irreps():
        scale = Fraction(ir.dim_V, ir.endo_dim * group.order)
        projs[ir.label] = sum(Fraction(c) * m for c, m in zip(ir.character, mats)) * scale
    return projs


def library_projectors(rep):
    """The library's projectors P = Q / D (``reps.character_projectors``): exact
    arrays in exact mode, float ones in float mode."""
    projs, denom = reps.character_projectors(rep)
    if not rep.exact:
        return projs
    return {label: linalg.frac_array(q.astype(object) * Fraction(1, denom))
            for label, q in projs.items()}


def mat_eq(a, b, tol=linalg.TOL):
    """a and b have one shape and equal entries: exactly when both are exact
    arrays, else within tol (``linalg.same`` over every axis)."""
    a, b = np.asarray(a), np.asarray(b)
    exact = linalg.is_exact(a) and linalg.is_exact(b)
    if not exact:
        a, b = linalg.as_float(a), linalg.as_float(b)
    return a.shape == b.shape and bool(linalg.same(a, b, exact, tol, axes=None))


def is_zero(a):
    """Every entry is 0: exactly for an exact array, within linalg.TOL else."""
    return mat_eq(a, np.zeros_like(a))


def fraction_reference(rep):
    """(ranks, failed) from all-Fraction projectors and exact comparisons, in
    the order ``projector_check`` documents."""
    projs = fraction_projectors(rep)
    labels = sorted(projs)
    traces = {label: Fraction(np.trace(projs[label])) for label in labels}
    assert all(t.denominator == 1 for t in traces.values())
    ranks = {label: int(t) for label, t in traces.items()}
    failed = [("idempotent", label) for label in labels
              if not mat_eq(projs[label] @ projs[label], projs[label])]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if not is_zero(projs[a] @ projs[b]):
                failed.append(("pairwise-orthogonal", f"{a}|{b}"))
    if not mat_eq(sum(projs.values()), linalg.eye(rep.dim, True)):
        failed.append(("resolution-of-identity", ""))
    return ranks, failed


def with_irreps(group, **characters):
    """The group with the named irreps' characters replaced."""
    irreps = tuple(
        dataclasses.replace(ir, character=linalg.frac_array(characters[ir.label]))
        if ir.label in characters else ir
        for ir in group.irreps
    )
    return dataclasses.replace(group, irreps=irreps)


def as_mode(rep, exact):
    return rep if exact else reps.RealRepresentation(rep.group,
                                                     linalg.as_float(rep.matrices))


@pytest.mark.parametrize("name, block, denom, python_ints", [
    ("S_3", "natural", 3, False),
    ("S_3", "natural", 10**6, True),
    ("S_4", "pairs", 10**4, True),
    ("D_4", "vertices", 10**5, True),
])
def test_exact_check_matches_fraction_reference(name, block, denom, python_ints):
    group = reps.preset_group(name)
    base = reps._block_catalog(group)[block]
    q = cayley_orthogonal(base.dim, np.random.default_rng(5), denom=denom)
    reps_under_test = [conjugated(base, q)]
    # a wrong character table on the same matrices (a 1-dim irrep given the
    # trivial character) keeps integral traces but fails identities
    irrep = group.nontrivial_irreps()[0]
    wrong = with_irreps(group, **{irrep.label: [1] * group.order})
    reps_under_test.append(reps.RealRepresentation(wrong, reps_under_test[0].matrices))
    for rep in reps_under_test:
        projs, denom_q = reps.character_projectors(rep)
        assert (projs["fixed"].dtype == object) == python_ints
        if python_ints:
            assert denom_q >= 2**63
        ranks, failed = fraction_reference(rep)
        labels = len(ranks)
        checks = labels + labels * (labels - 1) // 2 + 1
        assert reps.projector_check([rep])[0] == (ranks, checks, failed)
    assert reps.projector_check(reps_under_test[:1])[0][2] == []
    assert ("pairwise-orthogonal", f"fixed|{irrep.label}") in failed


def trivial_plus_sign(group_name, signs):
    group = reps.preset_group(group_name)
    mats = [[[1, 0], [0, s]] for s in signs]
    return reps.RealRepresentation(group, linalg.frac_array(mats))


@pytest.mark.parametrize("exact", [True, False])
def test_corrupted_character_fails_resolution_only(exact):
    rep = trivial_plus_sign("Z_2", [1, -1])
    bad = reps.RealRepresentation(with_irreps(rep.group, sign=[0, 0]), rep.matrices)
    ranks, _, failed = reps.projector_check([as_mode(bad, exact)])[0]
    assert failed == [("resolution-of-identity", "")]
    assert ranks == {"fixed": 1, "sign": 0}


@pytest.mark.parametrize("exact", [True, False])
def test_non_integral_trace_is_invalid(exact):
    # P_odd = diag(3/4, 3/4, 1/4) has trace 7/4
    rep = trivial_plus_sign("Z_2", [1, -1])
    mats = linalg.frac_array([np.eye(3, dtype=int), np.diag([1, 1, -1])])
    group = with_irreps(rep.group, sign=[1, "1/2"])
    with pytest.raises(InvalidInputError, match="trace"):
        reps.projector_check([as_mode(reps.RealRepresentation(group, mats), exact)])


def test_int64_and_python_int_members_share_a_stack():
    # S_3's natural block conjugated by a Cayley matrix over 10**6 needs
    # python ints; its sign block fits int64; padded together, in either
    # order, each keeps the result of its own check
    group = reps.preset_group("S_3")
    natural = reps._block_catalog(group)["natural"]
    big = conjugated(natural, cayley_orthogonal(3, np.random.default_rng(5), denom=10**6))
    small = reps._block_catalog(group)["sign"]
    assert reps.character_projectors(big)[0]["fixed"].dtype == object
    assert reps.character_projectors(small)[0]["fixed"].dtype == np.int64
    for members in ([big, small], [small, big, small]):
        assert reps.projector_check(members) == [reps.projector_check([m])[0] for m in members]
        assert all(failed == [] for _, _, failed in reps.projector_check(members))


def z2_diagonal(group, signs):
    """The representation of (a copy of) Z_2 whose generator acts as
    diag(signs): one trivial or sign line per entry."""
    return reps.RealRepresentation(
        group, linalg.frac_array([np.eye(len(signs), dtype=int), np.diag(signs)]))


@pytest.mark.parametrize("exact", [True, False])
def test_planted_fault_stays_with_its_member(exact):
    # with the sign character zeroed, P_sign = 0: a member with a sign line
    # fails the resolution of the identity alone, and a trivial one passes;
    # padding to the largest dim neither hides a failure nor spreads one
    group = with_irreps(reps.preset_group("Z_2"), sign=[0, 0])
    signs = [[1, 1, 1, 1], [1, -1], [1], [-1, 1, -1], [1, 1]]
    members = [as_mode(z2_diagonal(group, s), exact) for s in signs]
    results = reps.projector_check(members)
    resolution = [("resolution-of-identity", "")]
    assert [failed for _, _, failed in results] == [[], resolution, [], resolution, []]
    assert [ranks for ranks, _, _ in results] == [{"fixed": s.count(1), "sign": 0}
                                                  for s in signs]
    assert results == [reps.projector_check([m])[0] for m in members]


@pytest.mark.parametrize("exact", [True, False])
def test_non_integral_trace_in_a_list_is_invalid(exact, monkeypatch):
    # under sign = [1, 1/2], diag(1, 1, -1) has trace(P_sign) = 7/4, while
    # the trivial 4-dim member has the integral traces 4 and 3 (and fails
    # identities, which raises nothing); with two members per stack, the
    # bad member raises the one-member message wherever it stands, in the
    # first stack or after a stack that raised nothing
    monkeypatch.setattr(reps, "_STACK", 2 * 2 * 4**2)
    group = with_irreps(reps.preset_group("Z_2"), sign=[1, "1/2"])
    good, bad = (as_mode(z2_diagonal(group, s), exact) for s in ([1] * 4, [1, 1, -1]))
    ranks = [ranks for ranks, _, _ in reps.projector_check([good] * 3)]
    assert ranks == [{"fixed": 4, "sign": 3}] * 3
    message = ("projector trace is not an integer; invalid data" if exact
               else "projector trace is not close to an integer")
    for members in ([bad], [bad, good], [good, bad, good], [good, good, good, bad]):
        with pytest.raises(InvalidInputError) as caught:
            reps.projector_check(members)
        assert str(caught.value) == message


def criterion_1_draws():
    """Criterion 1's 300 draws, grouped as ``suites.suite_projectors`` checks
    them: 20 per (mode, group), each group from a fresh generator."""
    finite = [reps.preset_group(name) for name in suites.PROJECTOR_GROUPS]
    circle = reps.CircleGroupModel(suites.CIRCLE_ORDER)
    return [[reps.random_rep(group, rng, max_dim=12, exact=exact) for _ in range(20)]
            for exact, groups, seed in ((True, finite, 2024), (False, finite + [circle], 2025))
            for group in groups for rng in [np.random.default_rng(seed)]]


def test_list_check_equals_checking_each_member_alone():
    # one call per group, over stacks of mixed dims, gives each draw the
    # result of a one-element list, from a list or from a generator; the
    # circle's 20 draws (16 labels, dims up to 12) take several stacks
    groups = criterion_1_draws()
    assert sum(map(len, groups)) == 300
    assert any(len({rep.dim for rep in draws}) > 1 for draws in groups)
    assert 20 * 16 * 12**2 > 2 * reps._STACK
    for draws in groups:
        alone = [reps.projector_check([rep])[0] for rep in draws]
        assert reps.projector_check(draws) == alone
        assert reps.projector_check(iter(draws)) == alone


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["Z_2", "Z_3", "Z_4", "S_3", "Q_8", "D_4", "circle"]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_projector_identities_hold_on_random_reps(name, seed, exact):
    # every identity holds, and each rank is the numerical rank of the float
    # projector; the ranks add up to the dimension
    if name == "circle":
        group, exact = reps.CircleGroupModel(32), False
    else:
        group = reps.preset_group(name)
    rep = reps.random_rep(group, np.random.default_rng(seed), max_dim=8, exact=exact)
    ranks, _, failed = reps.projector_check([rep])[0]
    assert failed == []
    assert sum(ranks.values()) == rep.dim
    for label, p in fraction_projectors(rep).items():
        assert linalg.rank(linalg.as_float(p), 1e-8) == ranks[label]
