"""Novikov-coefficient chain complexes from signed moduli-count tables.

Scalars are truncated Novikov sums: finitely many terms f_A q^A over a
homology lattice carrying linear functionals omega (rational) and c1
(integer), with q^A graded by 2 c1(A).  All arithmetic is exact rational
below an omega-cutoff, held as one precision: an element keeps only its
integer energy bound floor(cutoff * denom) and drops every term above it,
and a sum or product keeps the smaller bound of its operands.  Inverting a
scalar requires a unique omega-minimal term, and elimination pivots must be
certifiable units at the working cutoff.

Count tables are indexed by (x, y, A) with the derived Fredholm index

    ind(x, y, A) = ind y - ind x + 2 c1(A) - 1,

and the differential collects the index-0 counts, delta y = sum of
count(x, y, A) q^A x, and skips the others; a kept count may only sit where
H(y) - H(x) + omega(A) > 0.  Index 0 alone makes each entry homogeneous,
2 c1(A) = 1 + ind x - ind y on every term, and makes it raise the Floer
grading n - ind by exactly one, so neither is checked and generators carry
no half-dimension n (it cancels in every grading difference).  For
autonomous circle-symmetric data, rotating the circle coordinate forces
index-0 moduli with A != 0 to be empty and the A = 0 counts to agree with
the Morse counts; the reduction below implements exactly that replacement.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass
from fractions import Fraction

from . import linalg
from .errors import IndeterminateError, InvalidInputError

# ---------------------------------------------------------------------------
# the homology lattice and Novikov scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyLattice:
    """Finite-rank lattice with linear omega (rational) and c1 (integer).
    omega is kept as integer ``weights`` over one ``denom``, and arithmetic
    compares the integer energy denom * omega(A)."""

    rank: int
    omega: tuple
    c1: tuple

    def __post_init__(self):
        if len(self.omega) != self.rank or len(self.c1) != self.rank:
            raise InvalidInputError("omega and c1 must have one value per generator")
        omega = tuple(Fraction(w) for w in self.omega)
        weights, denom = linalg.numerators(omega)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "c1", tuple(int(c) for c in self.c1))
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "weights", tuple(weights))

    def check_point(self, a) -> tuple:
        a = tuple(int(k) for k in a)
        if len(a) != self.rank:
            raise InvalidInputError(f"lattice point {a} has wrong rank")
        return a

    def energy(self, a) -> int:
        return sum(map(operator.mul, a, self.weights))

    def energy_bound(self, cutoff) -> int:
        """The largest energy at or below omega = cutoff."""
        return math.floor(cutoff * self.denom)

    def omega_of(self, a) -> Fraction:
        return Fraction(self.energy(a), self.denom)

    def c1_of(self, a) -> int:
        return sum(k * c for k, c in zip(a, self.c1))

    @property
    def zero(self) -> tuple:
        return (0,) * self.rank


@dataclass
class NovikovElement:
    """Finite sum of terms f_A q^A, exact below the energy cutoff.

    ``cutoff`` is the guaranteed-precision level: terms with omega above it
    are dropped and results are only claimed modulo such terms.  The element
    keeps it only as ``_bound``, the largest integer energy at or below it.
    Coefficients are ``linalg.rational`` (an int when integral); arithmetic
    results skip the constructor's checks.
    """

    lattice: HomologyLattice
    terms: dict
    cutoff: InitVar[Fraction]

    def __post_init__(self, cutoff):
        clean = {}
        for a, coeff in self.terms.items():
            a = self.lattice.check_point(a)
            clean[a] = clean.get(a, 0) + linalg.rational(coeff)
        self._bound = self.lattice.energy_bound(cutoff)
        self.terms = self._checked(self.lattice, clean, self._bound).terms

    @classmethod
    def _checked(cls, lattice, terms, bound) -> "NovikovElement":
        """Element of the nonzero checked terms at or below the energy bound."""
        out = cls.__new__(cls)
        out.lattice, out._bound = lattice, bound
        out.terms = {a: linalg.rational(c) for a, c in terms.items()
                     if c != 0 and lattice.energy(a) <= bound}
        return out

    @staticmethod
    def zero(lattice, cutoff) -> "NovikovElement":
        return NovikovElement(lattice, {}, cutoff)

    @staticmethod
    def monomial(lattice, a, coeff, cutoff) -> "NovikovElement":
        return NovikovElement(lattice, {tuple(a): coeff}, cutoff)

    def is_zero(self) -> bool:
        return not self.terms

    def min_energy(self):
        """The least integer energy of a term (None for zero)."""
        return min(map(self.lattice.energy, self.terms), default=None)

    def leading(self):
        """(point, coefficient) of the unique omega-minimal term.

        Raises IndeterminateError when the minimum is attained more than
        once: such an element cannot be certified invertible by truncated
        arithmetic.
        """
        energy, low = self.lattice.energy, self.min_energy()
        hits = [a for a in self.terms if energy(a) == low]
        if len(hits) != 1:
            val = self.lattice.omega_of(hits[0]) if hits else None
            raise IndeterminateError(f"no unique omega-minimal term (tied at omega = {val})")
        return hits[0], self.terms[hits[0]]

    def __add__(self, other, sign=1):
        merged = dict(self.terms)
        for a, c in other.terms.items():
            merged[a] = merged.get(a, 0) + sign * c
        return self._checked(self.lattice, merged, min(self._bound, other._bound))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._checked(self.lattice,
                                 {a: c * other for a, c in self.terms.items()},
                                 self._bound)
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0) + ca * cb
        return self._checked(self.lattice, out, min(self._bound, other._bound))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return self.terms == other.terms

    def invert_truncated(self, cutoff) -> "NovikovElement":
        """Geometric-series inverse: self * result = 1 modulo omega > cutoff.

        A leading term of negative energy v pulls tail errors down by v, so
        the series is computed to the extended bound bound(cutoff) - min(0, v)
        and the result carries that extended bound.
        """
        if self.is_zero():
            raise InvalidInputError("cannot invert the zero Novikov element")
        lat = self.lattice
        lead_a, lead_c = self.leading()
        lead_e = lat.energy(lead_a)
        ext_bound = lat.energy_bound(cutoff) + max(0, -lead_e)
        lead_inv = linalg.rational(Fraction(1) / lead_c)

        def over_lead(terms):  # lead^{-1} * terms, without truncation
            return {tuple(k - l for k, l in zip(a, lead_a)): lead_inv * c
                    for a, c in terms.items()}

        # x := 1 - lead^{-1} * self, at self's precision: the leading term
        # is unique, so the constant terms cancel and every other term has
        # relative energy > 0
        x = (self._checked(lat, {lat.zero: 1}, self._bound)
             - self._checked(lat, over_lead(self.terms), self._bound))
        acc_bound = ext_bound + lead_e
        acc = power = self._checked(lat, {lat.zero: 1}, acc_bound)
        while not (power := self._checked(lat, (power * x).terms, acc_bound)).is_zero():
            acc = acc + power
        # shift by the leading energy, then cut at the extended bound
        return self._checked(lat, over_lead(acc.terms), ext_bound)


# ---------------------------------------------------------------------------
# generators and count tables
# ---------------------------------------------------------------------------


@dataclass
class GeneratorSet:
    """Critical points with Morse indices and critical values.

    Self-indexing is required: H(x) > H(y) exactly when ind x > ind y.
    The critical values of the named generators are kept as ``Fraction``s.
    """

    names: tuple
    morse_index: dict
    crit_values: dict

    def __post_init__(self):
        self.names = tuple(self.names)
        if len(set(self.names)) < len(self.names):
            x = next(x for i, x in enumerate(self.names) if x in self.names[:i])
            raise InvalidInputError(f"generator {x!r} is listed twice")
        for x in self.names:
            if x not in self.morse_index or x not in self.crit_values:
                raise InvalidInputError(f"generator {x!r} missing index or value")
        self.crit_values = h = {x: Fraction(self.crit_values[x]) for x in self.names}
        ind = self.morse_index
        # sorted by (value, index), neighbours' values must rise exactly where
        # their indices do; only a failure pays for the scan naming the pair
        ordered = sorted(self.names, key=lambda x: (h[x], ind[x]))
        if all((h[x] < h[y]) == (ind[x] < ind[y]) for x, y in zip(ordered, ordered[1:])):
            return
        for x in self.names:
            for y in self.names:
                if (h[x] > h[y]) != (ind[x] > ind[y]):
                    raise InvalidInputError(
                        f"not self-indexing at pair ({x!r}, {y!r})"
                    )

    def ind(self, x) -> int:
        return self.morse_index[x]


@dataclass
class ModuliCountTable:
    """Signed moduli counts indexed by (x, y, A)."""

    lattice: HomologyLattice
    counts: dict

    def __post_init__(self):
        clean = {}
        for (x, y, a), c in self.counts.items():
            c = int(c)
            if c != 0:
                clean[(x, y, self.lattice.check_point(a))] = c
        self.counts = clean

    def derived_index(self, gens: GeneratorSet, x, y, a) -> int:
        return gens.ind(y) - gens.ind(x) + 2 * self.lattice.c1_of(a) - 1


def autonomous_reduce(counts: ModuliCountTable, gens: GeneratorSet,
                      morse_counts: dict) -> ModuliCountTable:
    """Circle-rotation reduction of index-0 counts for autonomous data.

    Index-0 entries with A != 0 are zeroed (the rotation action forces the
    moduli empty); A = 0 entries are replaced by the supplied Morse counts.
    Entries of other index are untouched.  Idempotent.
    """
    lattice = counts.lattice
    zero = lattice.zero
    out = {}
    for key, c in counts.counts.items():
        x, y, a = key
        if counts.derived_index(gens, x, y, a) == 0:
            continue  # rebuilt below from the Morse table
        out[key] = c
    for (x, y), c in morse_counts.items():
        if int(c) == 0:
            continue
        key = (x, y, zero)
        if counts.derived_index(gens, x, y, zero) != 0:
            raise InvalidInputError(
                f"Morse count at ({x!r}, {y!r}) does not sit in the index-0 slot"
            )
        out[key] = int(c)
    return ModuliCountTable(lattice, out)


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


@dataclass
class Differential:
    """Lambda-matrix of the differential: entries[(x, y)] is the coefficient
    of x in delta y."""

    gens: GeneratorSet
    lattice: HomologyLattice
    entries: dict
    cutoff: Fraction

    def __post_init__(self):
        self._zero = NovikovElement.zero(self.lattice, self.cutoff)

    def entry(self, x, y) -> NovikovElement:
        return self.entries.get((x, y), self._zero)


def build_differential(gens: GeneratorSet, counts: ModuliCountTable,
                       cutoff) -> Differential:
    """delta y = sum over (x, A) of count(x, y, A) q^A x, over the counts of
    derived index 0; counts of any other index are not part of the
    differential and are skipped.  A kept count must sit where the energy
    H(y) - H(x) + omega(A) is positive.  Index 0 gives 2 c1(A) = 1 + ind x
    - ind y on every term of entry (x, y), so each entry is homogeneous and
    raises the grading n - ind by exactly one.
    """
    cutoff = Fraction(cutoff)
    lattice = counts.lattice
    terms: dict = {}  # (x, y) -> {A: count}
    for (x, y, a), c in counts.counts.items():
        if counts.derived_index(gens, x, y, a) != 0:
            continue
        energy = gens.crit_values[y] - gens.crit_values[x] + lattice.omega_of(a)
        if energy <= 0:
            raise InvalidInputError(
                f"count at ({x!r}, {y!r}, {a}) has non-positive energy {energy}"
            )
        terms.setdefault((x, y), {})[a] = c
    bound = lattice.energy_bound(cutoff)
    entries = {key: NovikovElement._checked(lattice, t, bound) for key, t in terms.items()}
    return Differential(gens, lattice, entries, cutoff)


@dataclass
class DSquaredReport:
    ok: bool
    first_failure: tuple | None = None
    defect: NovikovElement | None = None


def check_d_squared(delta: Differential) -> DSquaredReport:
    """delta o delta = 0 as Lambda-matrices, exact below the cutoff.

    Sums only the stored nonzero entries: entry (x, z) of delta o delta is
    the sum over middle generators y of entry(x, y) * entry(y, z).  The
    first failure is reported in (z, x) generator order.
    """
    gens = delta.gens.names
    zero = NovikovElement.zero(delta.lattice, delta.cutoff)
    into = {}  # y -> [(x, entry(x, y))], nonzero entries only, x in gens order
    for x in gens:
        for y in gens:
            a = delta.entries.get((x, y))
            if a is not None and not a.is_zero():
                into.setdefault(y, []).append((x, a))
    for z in gens:
        acc = {}
        for y, b in into.get(z, []):
            for x, a in into.get(y, []):
                acc[x] = acc.get(x, zero) + a * b
        for x in gens:
            if x in acc and not acc[x].is_zero():
                return DSquaredReport(False, (x, z), acc[x])
    return DSquaredReport(True)


# ---------------------------------------------------------------------------
# cohomology ranks over the Novikov field
# ---------------------------------------------------------------------------


def _novikov_matrix_rank(rows: list, cutoff) -> int:
    """Rank over the Novikov field by Gaussian elimination with
    minimal-valuation pivoting and truncated inversion.

    ``rows`` is a list of lists of NovikovElement.  An elimination step
    whose only available pivots lack a certifiable unit (no unique minimal
    term at this cutoff) raises IndeterminateError naming the entry.
    """
    if not rows or not rows[0]:
        return 0
    work = [list(r) for r in rows]
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    used_rows: set = set()
    for _ in range(min(n_rows, n_cols)):
        pivot = None
        pivot_val = None
        for i in range(n_rows):
            if i in used_rows:
                continue
            for j in range(n_cols):
                e = work[i][j]
                if e.is_zero():
                    continue
                v = e.min_energy()
                if pivot is None or v < pivot_val:
                    pivot, pivot_val = (i, j), v
        if pivot is None:
            break
        pi, pj = pivot
        try:
            inv = work[pi][pj].invert_truncated(cutoff)
        except IndeterminateError as exc:
            raise IndeterminateError(
                f"cannot certify pivot at row {pi}, column {pj}: {exc}"
            ) from None
        prow = work[pi]
        for i in range(n_rows):
            if i == pi or i in used_rows:
                continue
            factor = work[i][pj] * inv
            if factor.is_zero():
                continue
            row = work[i]
            for j, p in enumerate(prow):
                if not p.is_zero():
                    row[j] = row[j] - factor * p
                    continue
                # row[j] - factor * 0 only lowers row[j]'s bound to the
                # least of the three and drops its terms above it
                e, bound = row[j], min(factor._bound, p._bound)
                if bound < e._bound:
                    row[j] = e._checked(e.lattice, e.terms, bound)
        used_rows.add(pi)
        rank += 1
    return rank


def cohomology_rank(delta: Differential) -> dict:
    """Graded ranks of H(delta) over the Novikov field, keyed by Morse index.

    Requires delta^2 = 0.  A nonzero entry (x, y) connects ind x = ind y - 1
    (entries of nonzero q-degree would make the generator grading periodic;
    they are rejected).  delta sends index-d generators to index-(d-1)
    sources, so rank H_d = #generators(d) - rank(delta_d) - rank(delta_{d+1}).
    Elimination works at the differential's cutoff.
    """
    sq = check_d_squared(delta)
    if not sq.ok:
        raise InvalidInputError(
            f"differential does not square to zero at pair {sq.first_failure}"
        )
    gens = delta.gens
    for (x, y), val in delta.entries.items():
        if not val.is_zero() and gens.ind(x) != gens.ind(y) - 1:
            raise InvalidInputError(
                f"entry ({x!r}, {y!r}) connects non-adjacent Morse indices; "
                "graded ranks are defined for q-degree-zero differentials"
            )
    degrees = sorted({gens.ind(x) for x in gens.names})
    by_degree = {d: [x for x in gens.names if gens.ind(x) == d] for d in degrees}
    rank_from = {}
    for d in degrees:
        sources = by_degree.get(d, [])
        targets = by_degree.get(d - 1, [])
        rows = [[delta.entry(x, y) for y in sources] for x in targets]
        rank_from[d] = (_novikov_matrix_rank(rows, delta.cutoff)
                        if sources and targets else 0)
    out = {}
    for d in degrees:
        out[d] = len(by_degree[d]) - rank_from.get(d, 0) - rank_from.get(d + 1, 0)
    return out


def betti_sum(ranks: dict) -> int:
    return sum(ranks.values())
