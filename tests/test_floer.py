"""Tests for count tables, differentials and their truncation, the
autonomous reduction, and cohomology ranks.

Independent oracles: hand enumeration of gradient lines on circle models,
simplicial cohomology of explicit triangulations (boundary-matrix ranks
over the rationals), rational specialization q^A -> 1/2, and sympy's rank
over the fraction field Q(q) for the exact block rank.
"""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from equitrans import floer, suites
from equitrans.errors import InvalidInputError
from equitrans.floer import (
    GeneratorSet,
    HomologyLattice,
    ModuliCountTable,
    autonomous_reduce,
    betti_sum,
    build_differential,
    check_d_squared,
    cohomology_rank,
)

LAT1 = HomologyLattice(1, (Fraction(1),), (0,))
LATC = HomologyLattice(1, (Fraction(1),), (1,))
LAT0 = HomologyLattice(0, (), ())
CUT = Fraction(100)  # a cutoff above every energy the rank tests reach


# ---------------------------------------------------------------------------
# generators and tables
# ---------------------------------------------------------------------------


def sphere_gens():
    return GeneratorSet(("x", "z"), {"x": 0, "z": 2}, {"x": 0, "z": 2})


def circle4_gens():
    return GeneratorSet(
        ("m1", "m2", "M1", "M2"),
        {"m1": 0, "m2": 0, "M1": 1, "M2": 1},
        {"m1": 0, "m2": 0, "M1": 1, "M2": 1},
    )


def test_self_indexing_enforced():
    with pytest.raises(InvalidInputError):
        GeneratorSet(("a", "b"), {"a": 0, "b": 1}, {"a": 5, "b": 1})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=7),
       st.booleans())
def test_self_indexing_sort_matches_pair_scan(spec, monotone):
    # the sort decides; a failure still names the pair scan's first (x, y)
    names = tuple(f"g{k}" for k in range(len(spec)))
    index = {x: i for x, (i, _) in zip(names, spec)}
    values = {x: Fraction(i if monotone else v, 2) for x, (i, v) in zip(names, spec)}
    first = next(((x, y) for x in names for y in names
                  if (values[x] > values[y]) != (index[x] > index[y])), None)
    if first is None:
        GeneratorSet(names, index, values)
        return
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"pair ({first[0]!r}, {first[1]!r})")):
        GeneratorSet(names, index, values)


def test_count_table_energy_constraint():
    # x (index 1, H = 1) to y (index 0, H = 0) on LATC: A = (1,) sits in the
    # index-0 slot at energy H(y) - H(x) + omega(A) = 0; A = (0,) has index
    # -2 and negative energy, and is skipped before it
    gens = GeneratorSet(("x", "y"), {"x": 1, "y": 0}, {"x": 1, "y": 0})
    counts = ModuliCountTable(LATC, {("x", "y", (0,)): 1, ("x", "y", (1,)): 1})
    with pytest.raises(InvalidInputError, match=re.escape(
            "count at ('x', 'y', (1,)) has non-positive energy 0")):
        build_differential(gens, counts, cutoff=10)


@pytest.mark.parametrize("build, what, value", [
    (lambda v: ModuliCountTable(LAT1, {("x", "y", (0,)): v}), "moduli count", Fraction(1, 2)),
    (lambda v: ModuliCountTable(LAT1, {("x", "y", (0,)): v}), "moduli count", 2.7),
    (lambda v: ModuliCountTable(LAT1, {("x", "y", (v,)): 1}), "lattice point coordinate",
     Fraction(3, 2)),
    (lambda v: LAT1.check_point((v,)), "lattice point coordinate", 0.5),
    (lambda v: HomologyLattice(1, (1,), (v,)), "c1", 1.5),
    (lambda v: autonomous_reduce(ModuliCountTable(LAT1, {}), circle4_gens(),
                                 {("m1", "M1"): v}), "Morse count", Fraction(-1, 3)),
    (lambda v: ModuliCountTable(LAT1, {("x", "y", (0,)): v}), "moduli count", "3"),
])
def test_non_integral_values_are_invalid_input(build, what, value):
    # rejected, not rounded: int() would turn 2.7 into 2 and 1/2 into 0
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{what}: {value!r} is not an integer")):
        build(value)


def test_integral_values_are_kept_as_ints():
    for value in (2, 2.0, Fraction(4, 2), np.int64(2)):
        table = ModuliCountTable(LAT1, {("x", "y", (value,)): value})
        assert table.counts == {("x", "y", (2,)): 2}
        [(_, _, (k,))] = table.counts
        assert type(k) is int and all(type(c) is int for c in table.counts.values())
        assert HomologyLattice(1, (1,), (value,)).c1 == (2,)
        reduced = autonomous_reduce(ModuliCountTable(LAT1, {}), circle4_gens(),
                                    {("m1", "M1"): value})
        assert reduced.counts == {("m1", "M1", (0,)): 2}
        assert type(reduced.counts[("m1", "M1", (0,))]) is int


def test_derived_index_formula():
    gens = sphere_gens()
    t = ModuliCountTable(LATC, {})
    # ind z - ind x + 2 c1(A) - 1 with A = (1,): 2 - 0 + 2 - 1 = 3
    assert t.derived_index(gens, "x", "z", (1,)) == 3


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------


def test_empty_counts_zero_differential():
    gens = sphere_gens()
    delta = build_differential(gens, ModuliCountTable(LAT1, {}), cutoff=10)
    assert check_d_squared(delta).ok


def test_two_generator_differential():
    gens = GeneratorSet(("x", "y"), {"x": 0, "y": 1}, {"x": 0, "y": 1})
    counts = ModuliCountTable(LAT0, {("x", "y", ()): 1})
    delta = build_differential(gens, counts, cutoff=10)
    assert delta.entry("x", "y") == {(): 1}


def test_wiggly_circle_hand_enumeration():
    # hand enumeration of gradient lines for a circle with two maxima and
    # two minima m1 M1 m2 M2 in cyclic order: each maximum flows to both
    # adjacent minima with opposite signs under the standard orientations
    gens = circle4_gens()
    counts = ModuliCountTable(
        LAT0,
        {
            ("m1", "M1", ()): 1,
            ("m2", "M1", ()): -1,
            ("m1", "M2", ()): -1,
            ("m2", "M2", ()): 1,
        },
    )
    delta = build_differential(gens, counts, cutoff=10)
    assert check_d_squared(delta).ok
    ranks = cohomology_rank(delta)
    assert ranks == {0: 1, 1: 1}


def test_differential_skips_counts_off_the_index_0_slot():
    # on LATC, (x, y, (0,)) has derived index 0; (x, y, (1,)) has index 2,
    # and (y, x, (0,)) index -2 at negative energy: neither is a term
    gens = GeneratorSet(("x", "y"), {"x": 0, "y": 1}, {"x": 0, "y": 1})
    counts = ModuliCountTable(LATC, {("x", "y", (1,)): 3, ("y", "x", (0,)): 1,
                                     ("x", "y", (0,)): 2})
    delta = build_differential(gens, counts, cutoff=10)
    assert list(delta.entries) == [("x", "y")]
    assert delta.entry("x", "y") == {(0,): 2}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_index_zero_entries_are_homogeneous_of_grading_shift_one(data):
    # index 0 is ind y - ind x + 2 c1(A) - 1 = 0, so every term of entry
    # (x, y) has 2 c1(A) = 1 + ind x - ind y: the entry is homogeneous and
    # raises the grading n - ind by exactly one, whatever n is
    c1 = data.draw(st.tuples(st.sampled_from([-1, 1]), st.integers(-2, 2)))
    omega = data.draw(st.tuples(*[st.fractions(Fraction(1, 2), 3, max_denominator=4)] * 2))
    lattice = HomologyLattice(2, omega, c1)
    index = {f"g{k}": i for k, i in enumerate(
        [0, 1] + data.draw(st.lists(st.integers(0, 3), max_size=3)))}
    gens = GeneratorSet(tuple(index), index, dict(index))
    pairs = [(x, y) for x in index for y in index if (index[x] - index[y]) % 2]
    drawn = data.draw(st.dictionaries(st.tuples(st.sampled_from(pairs), st.integers(-2, 2)),
                                      st.integers(-3, 3), min_size=1, max_size=12))
    # index-0 counts: the first coordinate of A solves 2 c1(A) = 1 + ind x - ind y
    counts = {(x, y, (c1[0] * ((1 + index[x] - index[y]) // 2 - c1[1] * k), k)): c
              for ((x, y), k), c in drawn.items()}
    table = ModuliCountTable(lattice, {
        (x, y, a): c for (x, y, a), c in counts.items()
        if index[y] - index[x] + lattice.omega_of(a) > 0})
    delta = build_differential(gens, table, cutoff=data.draw(st.sampled_from([3, CUT])))
    for (x, y), entry in delta.entries.items():
        for a in entry:
            assert 2 * lattice.c1_of(a) == 1 + gens.ind(x) - gens.ind(y)


# ---------------------------------------------------------------------------
# d-squared on synthetic coherent tables
# ---------------------------------------------------------------------------


def coherent_three_level_table(rng):
    return suites.coherent_three_level_table(rng, LAT1)


def test_synthetic_coherent_tables_d_squared_zero():
    rng = np.random.default_rng(77)
    for _ in range(20):
        gens, counts = coherent_three_level_table(rng)
        delta = build_differential(gens, counts, cutoff=10)
        assert check_d_squared(delta).ok


@pytest.mark.parametrize("n0, n1, n2", [(1, 2, 1), (3, 3, 2), (2, 5, 3), (4, 4, 1)])
def test_coherent_tables_compose_at_every_size(n0, n1, n2):
    # d^2 = 0, and some level-1 generator has nonzero counts to both levels
    rng = np.random.default_rng(n0 + 10 * n1 + 100 * n2)
    for _ in range(10):
        gens, counts = suites.coherent_three_level_table(rng, LAT1, n0, n1, n2)
        assert len(gens.names) == n0 + n1 + n2
        assert check_d_squared(build_differential(gens, counts, cutoff=10)).ok
        assert ({y for x, y, _ in counts.counts if gens.ind(x) == 0}
                & {y for y, z, _ in counts.counts if gens.ind(z) == 2})


def test_perturbed_entry_fails_at_the_pair():
    # one more on a count y -> z whose middle y has nonzero level-1 counts
    gens, counts = coherent_three_level_table(np.random.default_rng(5))
    middles = {y for x, y, _ in counts.counts if gens.ind(x) == 0}
    key = next(k for k in counts.counts if k[0] in middles and gens.ind(k[1]) == 2)
    bad = dict(counts.counts)
    bad[key] = bad[key] + 1
    delta = build_differential(gens, ModuliCountTable(LAT1, bad), cutoff=10)
    report = check_d_squared(delta)
    assert not report.ok
    x, z = report.first_failure
    assert gens.ind(x) == 0 and gens.ind(z) == 2


def stepwise_d_squared_failures(delta):
    """Reference: every nonzero entry ((x, z), polynomial) of delta o delta
    in (z, x) order, summed over all middle generators densely and
    truncated at the cutoff after every product and every partial sum."""
    lattice, names = delta.lattice, delta.gens.names
    bound = lattice.energy_bound(delta.cutoff)

    def truncate(terms):
        return {a: c for a, c in terms.items() if c and lattice.energy(a) <= bound}

    failures = []
    for z in names:
        for x in names:
            acc = {}
            for y in names:
                product = {}
                for (a, ca), (b, cb) in itertools.product(delta.entry(x, y).items(),
                                                          delta.entry(y, z).items()):
                    point = tuple(i + j for i, j in zip(a, b))
                    product[point] = product.get(point, 0) + ca * cb
                for point, c in truncate(product).items():
                    acc[point] = acc.get(point, 0) + c
                acc = truncate(acc)
            if acc:
                failures.append(((x, z), acc))
    return failures


def test_d_squared_first_failure_matches_dense_loop():
    # c1 fails for both a1 and a2, c2 only for a2 (a1 cancels through
    # b1 - b2), so the first failure in (z, x) order is (a1, c1)
    names = ("a1", "a2", "b1", "b2", "c1", "c2")
    index = {"a1": 0, "a2": 0, "b1": 1, "b2": 1, "c1": 2, "c2": 2}
    gens = GeneratorSet(names, index, dict(index))
    counts = ModuliCountTable(LAT1, {
        ("a1", "b1", (0,)): 1, ("a1", "b2", (0,)): 1,
        ("a2", "b1", (0,)): 1, ("a2", "b1", (1,)): 2,
        ("b1", "c1", (1,)): 3, ("b2", "c1", (0,)): 1,
        ("b1", "c2", (0,)): 1, ("b2", "c2", (0,)): -1,
    })
    delta = build_differential(gens, counts, cutoff=10)
    failures = stepwise_d_squared_failures(delta)
    assert [p for p, _ in failures] == [("a1", "c1"), ("a2", "c1"), ("a2", "c2")]
    report = check_d_squared(delta)
    assert not report.ok
    assert report.first_failure == failures[0][0]
    assert report.defect == failures[0][1]


def gauged(rng, counts, gens):
    """``counts`` with count (x, y) moved to q^(w(y) - w(x)) for a weight w
    of 0 on level 0, 0-2 on level 1 and 2-4 on level 2: a change of basis
    x -> q^w(x) x, so delta o delta is zero exactly when it was before."""
    offset = {0: 0, 1: 0, 2: 2}
    w = {x: offset[gens.ind(x)] + int(rng.integers(3)) * (gens.ind(x) > 0)
         for x in gens.names}
    return {(x, y, (w[y] - w[x],)): c for (x, y, _), c in counts.items()}


def test_single_truncation_matches_truncating_every_step():
    # exponents 0-4 at cutoff 3: entries lose their q^4 terms where they
    # are built, and d^2 sums lose every term above q^3 when compared
    rng = np.random.default_rng(39)
    verdicts, hidden = set(), 0
    for trial in range(60):
        sizes = (int(k) for k in rng.integers(1, 5, size=3) + [0, 1, 0])
        gens, table = suites.coherent_three_level_table(rng, LAT1, *sizes)
        counts = gauged(rng, table.counts, gens)
        if trial % 2:  # one perturbed entry, at a random exponent 0-4
            x, y, _ = list(counts)[int(rng.integers(len(counts)))]
            key = (x, y, (int(rng.integers(5)),))
            counts[key] = counts.get(key, 0) + int(rng.choice([-1, 1]))
        delta = build_differential(gens, ModuliCountTable(LAT1, counts), cutoff=3)
        report = check_d_squared(delta)
        failures = stepwise_d_squared_failures(delta)
        assert report.ok == (not failures), trial
        if failures:
            assert (report.first_failure, report.defect) == failures[0], trial
        untruncated = build_differential(gens, ModuliCountTable(LAT1, counts), cutoff=CUT)
        verdicts.add(report.ok)
        hidden += report.ok and not check_d_squared(untruncated).ok
    assert verdicts == {True, False} and hidden


# ---------------------------------------------------------------------------
# autonomous reduction
# ---------------------------------------------------------------------------


def torus_like_counts():
    # ind-0 Morse entries plus a spurious index-0 entry with A != 0
    gens = circle4_gens()
    lattice = HomologyLattice(1, (Fraction(3),), (1,))
    counts = {
        ("m1", "M1", (0,)): 1,
        ("m2", "M1", (0,)): -1,
        ("m1", "M2", (0,)): -1,
        ("m2", "M2", (0,)): 1,
        # derived index: ind m1 - ind M1 + 2 c1 - 1 = 0 - 1 + 2 - 1 = 0
        ("M1", "m1", (1,)): 7,
    }
    return gens, lattice, ModuliCountTable(lattice, counts)


def test_reduce_zeroes_spurious_entries_and_matches_morse():
    gens, lattice, counts = torus_like_counts()
    morse = {
        ("m1", "M1"): 1,
        ("m2", "M1"): -1,
        ("m1", "M2"): -1,
        ("m2", "M2"): 1,
    }
    reduced = autonomous_reduce(counts, gens, morse)
    assert ("M1", "m1", (1,)) not in reduced.counts
    for (x, y), c in morse.items():
        assert reduced.counts[(x, y, lattice.zero)] == c
    again = autonomous_reduce(reduced, gens, morse)
    assert again.counts == reduced.counts  # idempotent
    # reduced complex ranks equal the Morse complex ranks
    delta = build_differential(gens, reduced, cutoff=10)
    morse_lattice_counts = ModuliCountTable(
        LAT0, {(x, y, ()): c for (x, y), c in morse.items()}
    )
    delta_m = build_differential(gens, morse_lattice_counts, cutoff=10)
    assert cohomology_rank(delta) == cohomology_rank(delta_m)


def test_reduce_morse_only_table_unchanged():
    gens = circle4_gens()
    counts = ModuliCountTable(
        LAT1, {("m1", "M1", (0,)): 1, ("m2", "M1", (0,)): -1}
    )
    morse = {("m1", "M1"): 1, ("m2", "M1"): -1}
    reduced = autonomous_reduce(counts, gens, morse)
    assert reduced.counts == counts.counts


# ---------------------------------------------------------------------------
# cohomology ranks
# ---------------------------------------------------------------------------


def simplicial_cohomology_ranks(vertices, triangles):
    """Independent oracle: rational ranks of simplicial coboundaries."""
    edges = sorted(
        {tuple(sorted(e)) for t in triangles for e in itertools.combinations(t, 2)}
    )
    tri = sorted(tuple(sorted(t)) for t in triangles)
    e_idx = {e: i for i, e in enumerate(edges)}
    d0 = np.zeros((len(edges), len(vertices)), dtype=int)
    for (u, v), i in e_idx.items():
        d0[i, vertices.index(u)] = -1
        d0[i, vertices.index(v)] = 1
    d1 = np.zeros((len(tri), len(edges)), dtype=int)
    for r, (a, b, c) in enumerate(tri):
        d1[r, e_idx[(b, c)]] = 1
        d1[r, e_idx[(a, c)]] = -1
        d1[r, e_idx[(a, b)]] = 1
    r0 = np.linalg.matrix_rank(d0)
    r1 = np.linalg.matrix_rank(d1)
    return {
        0: len(vertices) - r0,
        1: len(edges) - r1 - r0,
        2: len(tri) - r1,
    }


def test_zero_differential_degrees_0112():
    gens = GeneratorSet(
        ("a", "b1", "b2", "c"),
        {"a": 0, "b1": 1, "b2": 1, "c": 2},
        {"a": 0, "b1": 1, "b2": 1, "c": 2},
    )
    delta = build_differential(gens, ModuliCountTable(LAT1, {}), cutoff=10)
    assert cohomology_rank(delta) == {0: 1, 1: 2, 2: 1}


def test_unit_entry_kills_cohomology_with_specialization_oracle():
    # delta x = (1 - q^A) y: the coefficient is a unit, so H = 0 in both
    # degrees; oracle: specialize q^A -> 1/2 and take the rank over Q
    gens = GeneratorSet(("y", "x"), {"y": 0, "x": 1}, {"y": 0, "x": 1})
    counts = ModuliCountTable(
        LAT1, {("y", "x", (0,)): 1, ("y", "x", (1,)): -1}
    )
    delta = build_differential(gens, counts, cutoff=8)
    ranks = cohomology_rank(delta)
    assert ranks == {0: 0, 1: 0}
    specialized = sum(
        c * Fraction(1, 2) ** a[0] for a, c in delta.entry("y", "x").items()
    )
    assert specialized != 0  # rank 1 over Q after specialization


def test_sphere_model_against_simplicial_oracle():
    gens = sphere_gens()
    delta = build_differential(gens, ModuliCountTable(LAT1, {}), cutoff=10)
    ranks = cohomology_rank(delta)
    full = {d: ranks.get(d, 0) for d in (0, 1, 2)}
    # boundary of the tetrahedron as the sphere oracle
    verts = [0, 1, 2, 3]
    tris = list(itertools.combinations(verts, 3))
    assert full == simplicial_cohomology_ranks(verts, tris) == {0: 1, 1: 0, 2: 1}


def test_torus_model_against_simplicial_oracle():
    gens = GeneratorSet(
        ("a", "b1", "b2", "c"),
        {"a": 0, "b1": 1, "b2": 1, "c": 2},
        {"a": 0, "b1": 1, "b2": 1, "c": 2},
    )
    delta = build_differential(gens, ModuliCountTable(LAT1, {}), cutoff=10)
    ranks = cohomology_rank(delta)
    # 3x3 grid torus: 9 vertices, 27 edges, 18 triangles
    verts = [(i, j) for i in range(3) for j in range(3)]
    tris = []
    for i in range(3):
        for j in range(3):
            i1, j1 = (i + 1) % 3, (j + 1) % 3
            tris.append(((i, j), (i1, j), (i, j1)))
            tris.append(((i1, j), (i, j1), (i1, j1)))
    oracle = simplicial_cohomology_ranks(verts, tris)
    assert oracle == {0: 1, 1: 2, 2: 1} == ranks


def test_rank_nullity_bookkeeping():
    rng = np.random.default_rng(123)
    for _ in range(5):
        gens, counts = coherent_three_level_table(rng)
        delta = build_differential(gens, counts, cutoff=10)
        ranks = cohomology_rank(delta)
        n_gens = len(gens.names)
        # recover the two block ranks from the homology defect
        total_rank = (n_gens - betti_sum(ranks)) // 2
        assert betti_sum(ranks) + 2 * total_rank == n_gens


def test_weak_arnold_lower_bound_on_perfect_models():
    for gens, expected in (
        (sphere_gens(), {0: 1, 1: 0, 2: 1}),
        (
            GeneratorSet(
                ("a", "b1", "b2", "c"),
                {"a": 0, "b1": 1, "b2": 1, "c": 2},
                {"a": 0, "b1": 1, "b2": 1, "c": 2},
            ),
            {0: 1, 1: 2, 2: 1},
        ),
    ):
        delta = build_differential(gens, ModuliCountTable(LAT1, {}), cutoff=10)
        ranks = cohomology_rank(delta)
        assert len(gens.names) >= betti_sum(ranks)
        assert len(gens.names) == betti_sum(ranks)  # perfect models


def sympy_rank(lattice, block):
    """Independent oracle: the rank of a matrix of {point: coefficient}
    dicts over the fraction field Q(q_1, ..., q_r), by sympy's DomainMatrix."""
    qs = sympy.symbols(f"q1:{lattice.rank + 1}")
    field = sympy.QQ.frac_field(*qs)
    entries = [[field.from_sympy(sum((sympy.Rational(c.numerator, c.denominator)
                                      * sympy.Mul(*(q**k for q, k in zip(qs, a)))
                                      for a, c in e.items()), sympy.Integer(0)))
                for e in row] for row in block]
    return DomainMatrix(entries, (len(block), len(block[0])), field).rank()


def planted_rank_block(rng, lattice, n_rows, n_cols, rank):
    """An (n_rows, n_cols) product of random (n_rows, rank) and (rank, n_cols)
    Laurent-polynomial matrices with Fraction coefficients, so its rank is
    at most ``rank`` and ranks below full are common."""
    def poly():
        return {tuple(int(k) for k in rng.integers(-1, 4, size=lattice.rank)):
                Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])), int(rng.integers(1, 3)))
                for _ in range(int(rng.integers(1, 3)))}

    left = [[poly() for _ in range(rank)] for _ in range(n_rows)]
    right = [[poly() for _ in range(n_cols)] for _ in range(rank)]
    block = [[{} for _ in range(n_cols)] for _ in range(n_rows)]
    for i, j, k in itertools.product(range(n_rows), range(n_cols), range(rank)):
        for (a, c), (b, d) in itertools.product(left[i][k].items(), right[k][j].items()):
            point = tuple(map(sum, zip(a, b)))
            block[i][j][point] = block[i][j].get(point, 0) + c * d
    return block


def integer_rows(block):
    """``block`` with each row scaled by its coefficients' common
    denominator, which keeps its rank: integer polynomials, zeros dropped."""
    out = []
    for row in block:
        den = math.lcm(*(Fraction(c).denominator for e in row for c in e.values()))
        out.append([{a: int(c * den) for a, c in e.items() if c} for e in row])
    return out


LAT2 = HomologyLattice(2, (Fraction(1), Fraction(1, 2)), (0, 0))  # ties: q^(1,0), q^(0,2)


@pytest.mark.parametrize("lattice, count, size", [(LAT1, 60, 4), (LAT2, 30, 3)])
def test_matrix_rank_matches_sympy_fraction_field(lattice, count, size):
    # seeded blocks of every planted rank, on one variable and, through the
    # Kronecker substitution, two; nothing is dropped at cutoff 100
    rng = np.random.default_rng(36 + lattice.rank)
    seen = set()
    for _ in range(count):
        rank = int(rng.integers(0, size + 1))
        n_rows, n_cols = (int(k) for k in rng.integers(max(rank, 1), size + 1, size=2))
        block = planted_rank_block(rng, lattice, n_rows, n_cols, rank)
        want = sympy_rank(lattice, block)
        seen.add(want)
        assert floer.matrix_rank(integer_rows(block)) == want
    assert seen == set(range(size + 1))


def test_matrix_rank_truncates_where_elements_are_built():
    # q^20 lies above cutoff 10, so it is dropped where the entry is built
    # and [[1, 0], [1, q^20]] has rank 1; q^2 stays and [[1, 0], [1, q^2]]
    # has rank 2
    index = {"a1": 0, "a2": 0, "b1": 1, "b2": 1}
    gens = GeneratorSet(tuple(index), index, dict(index))

    def block(k):
        counts = ModuliCountTable(LAT1, {("a1", "b1", (0,)): 1, ("a2", "b1", (0,)): 1,
                                         ("a2", "b2", (k,)): 1})
        delta = build_differential(gens, counts, cutoff=10)
        return delta, [[delta.entry(x, y) for y in ("b1", "b2")] for x in ("a1", "a2")]

    delta, rows = block(20)
    assert ("a2", "b2") not in delta.entries and delta.entry("a2", "b2") == {}
    assert floer.matrix_rank(rows) == 1
    assert floer.matrix_rank(block(2)[1]) == 2
