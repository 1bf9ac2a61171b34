"""Exact mode stays rational: every entry of an exact result is a python
``int`` or a ``Fraction``, never a float, also on integer input where an
int / int true division would silently produce one."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitrans import bundles, linalg, reps
from test_bundles import average
from test_projector_check import (fraction_projectors, fraction_rref, library_projectors,
                                   mat_eq)


def rational(a) -> bool:
    return all(type(x) in (int, Fraction) for x in np.asarray(a).reshape(-1))


def exact(rows):
    return np.array(rows, dtype=object)


def test_frac_array_keeps_integers_as_ints():
    a = linalg.frac_array([0.5, 2.0, Fraction(4, 2), np.int64(3), -1])
    assert [type(x) for x in a] == [Fraction, int, int, int, int]
    assert list(a) == [Fraction(1, 2), 2, 2, 3, -1]
    assert all(type(x) is int for x in linalg.eye(3, exact=True).reshape(-1))
    assert all(type(x) is int for x in linalg.zeros((2, 3), exact=True).reshape(-1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**20, 10**20),
                          st.fractions(max_denominator=60)), max_size=12),
       st.lists(st.integers(-2**62, 2**62), max_size=6))
def test_numerators_are_python_ints_over_the_least_common_denominator(values, ints):
    # N / m is the input entry by entry, N holds python ints, and m is the
    # least common denominator: any common denominator m' = m / g leaves
    # N / g integral, so it is the least one exactly when gcd(m, N) = 1
    for a in (linalg.frac_array(values).reshape(-1, 1), np.array(ints, dtype=np.int64)):
        nums, m = linalg.numerators(a)
        assert nums.shape == a.shape
        assert type(m) is int and m >= 1
        assert all(type(n) is int for n in nums.flat)
        assert all(Fraction(n, m) == x for n, x in zip(nums.flat, a.flat))
        assert math.gcd(m, *nums.flat) == 1


def test_rref_on_int_input():
    # integer rows, each primitive with a positive pivot: row r over its
    # pivot is row r of the rational reduced echelon form
    red, pivots = linalg.rref(exact([[2, 4, 2], [1, 3, 2]]))
    assert pivots == [0, 1]
    assert all(type(x) is int for x in red.flat)
    assert red.tolist() == [[1, 0, -1], [0, 1, 1]]
    red, pivots = linalg.rref(exact([[3, 1]]))
    assert pivots == [0]
    assert red.tolist() == [[3, 1]]
    # rational input: the reduced rows are [1, 0, 2] and [0, 1, 5/2]
    red, pivots = linalg.rref(exact([[-2, 4, 6], [Fraction(1, 2), 0, 1]]))
    assert pivots == [0, 1]
    assert red.tolist() == [[1, 0, 2], [0, 2, 5]]


def test_nullspace_on_int_input():
    kern = linalg.nullspace(exact([[3, 1]]))
    assert kern.tolist() == [[-1], [3]]
    assert all(type(x) is int for x in kern.flat)


@st.composite
def exact_matrices(draw):
    """Integer or rational matrices up to 6 x 6, some columns zero or
    repeats of an earlier one, and the last row sometimes a combination of
    the first and the second-to-last, so the rank drops."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.fractions(-3, 3, max_denominator=6))
    a = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)), dtype=object)
    for j in range(cols):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "repeat"]))
        if kind == "zero":
            a[:, j] = 0
        elif kind == "repeat" and j:
            a[:, j] = a[:, draw(st.integers(0, j - 1))]
    if rows > 1 and draw(st.booleans()):
        a[-1] = draw(st.integers(-2, 2)) * a[0] + draw(st.integers(-2, 2)) * a[-2]
    return linalg.frac_array(a.tolist())


def fraction_nullspace(red, pivots):
    """Kernel columns read off a rational reduced echelon form: 1 at the free
    column, minus that column's entries at the pivot columns."""
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = linalg.zeros((cols, len(free)), exact=True)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = -red[r, fc]
    return basis


@settings(max_examples=200, deadline=None)
@given(exact_matrices())
def test_fraction_free_elimination_matches_the_fraction_oracle(a):
    red, pivots = linalg.rref(a)
    oracle, oracle_pivots = fraction_rref(a)
    assert pivots == oracle_pivots
    assert all(type(x) is int for x in red.flat)
    for r, pc in enumerate(pivots):
        assert red[r, pc] > 0 and math.gcd(*red[r]) == 1
        assert [Fraction(x, red[r, pc]) for x in red[r]] == list(oracle[r])
    assert not red[len(pivots):].any()
    assert linalg.rank(a) == len(pivots)
    kern = linalg.nullspace(a)
    expected = fraction_nullspace(oracle, pivots)
    assert kern.shape == expected.shape
    for col, ref in zip(kern.T, expected.T):
        assert all(type(x) is int for x in col) and math.gcd(*col) == 1
        assert col.tolist() == linalg.numerators(ref)[0].tolist()
    assert not (a @ kern).any()


def forbidden(*args, **kwargs):
    raise AssertionError("a Fraction was built or combined")


def test_integral_input_builds_no_fraction():
    # with Fraction construction and arithmetic raising, integral input
    # still gets its rank, kernel, pivot columns, float equivariant hom
    # basis and completed transitions
    a = exact([[2, 4, 2, 0], [1, 3, 2, 5], [3, 7, 4, 5]])
    nat = reps._block_catalog(reps.symmetric_group(3))["natural"]
    left = reps._block_catalog(reps.quaternion_group())["left"]
    rot90 = reps._block_catalog(reps.preset_group("Z_4"))["rot90"]
    quarter_turn = exact([[0, -1], [1, 0]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", forbidden)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
            patch.setattr(Fraction, name, forbidden)
        assert linalg.rank(a) == 2
        assert linalg.rref(a)[1] == [0, 1]
        kern = linalg.nullspace(a)
        assert kern.tolist() == [[1, 10], [-1, -5], [1, 0], [0, 1]]
        assert not (a @ kern).any()
        assert len(reps.hom_G_basis(nat, nat)) == 2
        assert len(reps.hom_G_basis(left, left)) == 4
        bundle = bundles.GBundleModel(bundles.SimplicialBase.from_maximal([[0, 1]]),
                                      rot90, {(1, 0): quarter_turn})
        bundle.validate()
    assert bundle.transitions[(0, 1)].tolist() == [[0, 1], [-1, 0]]


def integers(q) -> bool:
    """An exact projector numerator: int64, or python ints where int64 could
    overflow."""
    return q.dtype == np.int64 or all(type(x) is int for x in q.reshape(-1))


def test_random_rep_and_projectors_are_rational():
    for name in ("S_3", "Q_8", "D_4"):
        group = reps.preset_group(name)
        rep = reps.random_rep(group, np.random.default_rng(5), 12, exact=True)
        assert all(type(x) is int for x in rep.matrices.reshape(-1))
        rep.validate()
        _, projs, denom, _ = reps._projectors(rep, {})
        assert type(denom) is int
        reference = fraction_projectors(rep)
        total = linalg.zeros((rep.dim, rep.dim), exact=True)
        for label, p in library_projectors(rep).items():
            assert integers(projs[label])
            assert rational(p)
            assert mat_eq(p, reference[label])
            assert mat_eq(p @ p, p)
            total = total + p
        assert mat_eq(total, linalg.eye(rep.dim, exact=True))


@pytest.mark.parametrize("group", [reps.symmetric_group(3), reps.symmetric_group(4),
                                   reps.quaternion_group(), reps.dihedral_group(4)],
                         ids=lambda g: g.name)
def test_exact_projectors_hold_integral_entries_as_ints(group):
    # the catalog blocks' exact projectors are integer numerators Q over
    # one python-int denominator D, and Q / D is the character formula (the
    # S_3 natural block's sign projector is all zeros)
    for name, block in reps._block_catalog(group).items():
        _, projs, denom, _ = reps._projectors(block, {})
        assert type(denom) is int
        for label, p in fraction_projectors(block).items():
            assert integers(projs[label]), (name, label)
            assert mat_eq(projs[label].astype(object), p * denom), (name, label)


def test_s3_natural_projectors_hom_basis_and_average():
    # known answers on the permutation action of S_3 on three points:
    # fixed part J/3, standard part I - J/3; averaging E_00 gives I/3 and
    # averaging E_01 gives (J - I)/6, and the float hom basis is an
    # orthonormal basis of the span of I and J
    nat = reps._block_catalog(reps.symmetric_group(3))["natural"]
    ident = linalg.eye(3, exact=True)
    third = exact([[Fraction(1, 3)] * 3] * 3)
    projs = library_projectors(nat)
    assert rational(projs["fixed"]) and rational(projs["standard"])
    assert mat_eq(projs["fixed"], third)
    assert mat_eq(projs["standard"], ident - third)
    assert mat_eq(fraction_projectors(nat)["standard"], ident - third)
    unit = linalg.zeros((3, 3), exact=True)
    unit[0, 0] = 1
    avg = average(nat, unit)
    assert rational(avg)
    assert mat_eq(avg, ident * Fraction(1, 3))
    basis = reps.hom_G_basis(nat, nat)
    assert len(basis) == 2
    # the Frobenius projection onto the basis gives I and J back
    for m in (np.eye(3), np.ones((3, 3))):
        back = np.tensordot(np.tensordot(basis, m), basis, axes=1)
        np.testing.assert_allclose(back, m, rtol=0, atol=1e-12)
