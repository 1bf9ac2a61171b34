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
from test_projector_check import fraction_projectors, library_projectors, mat_eq


def rational(a) -> bool:
    return all(type(x) in (int, Fraction) for x in np.asarray(a).reshape(-1))


def exact(rows):
    return np.array(rows, dtype=object)


def test_frac_array_keeps_integers_as_ints():
    a = linalg.frac_array([0.5, 2.0, Fraction(4, 2), np.int64(3), -1])
    assert [type(x) for x in a] == [Fraction, int, int, int, int]
    assert list(a) == [Fraction(1, 2), 2, 2, 3, -1]
    assert all(type(x) is int for x in linalg.eye(3, exact=True).reshape(-1))


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


def forbidden(*args, **kwargs):
    raise AssertionError("a Fraction was built or combined")


def test_integral_input_builds_no_fraction():
    # with Fraction construction and arithmetic raising, integral input
    # still gets its float equivariant hom basis and completed transitions
    nat = reps._block_catalog(reps.symmetric_group(3))["natural"]
    left = reps._block_catalog(reps.quaternion_group())["left"]
    rot90 = reps._block_catalog(reps.preset_group("Z_4"))["rot90"]
    quarter_turn = exact([[0, -1], [1, 0]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", forbidden)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
            patch.setattr(Fraction, name, forbidden)
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
        projs, denom = reps.character_projectors(rep)
        assert type(denom) is int
        reference = fraction_projectors(rep)
        total = linalg.frac_array(np.zeros((rep.dim, rep.dim), dtype=int))
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
        projs, denom = reps.character_projectors(block)
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
    unit = linalg.frac_array(np.zeros((3, 3), dtype=int))
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
