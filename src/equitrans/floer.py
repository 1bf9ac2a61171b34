"""Novikov-coefficient chain complexes from signed moduli-count tables.

Scalars are truncated Novikov sums: finitely many terms f_A q^A over a
homology lattice carrying linear functionals omega (rational) and c1
(integer), with q^A graded by 2 c1(A).  All arithmetic is exact rational
below an omega-cutoff, held as one precision: an element keeps only its
integer energy bound floor(cutoff * denom) and drops every term above it,
and a sum or product keeps the smaller bound of its operands.  Cohomology
ranks need no series: rank does not change under field extension, so the
rank of a block over the Novikov field is its rank over Q(q), which one
exact integer evaluation gives (``matrix_rank``).

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
from .errors import InvalidInputError

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


def _bareiss_rank(rows: list) -> int:
    """Rank of an integer matrix (lists of python ints) by fraction-free
    Bareiss elimination: every division is exact, since each updated entry
    is a minor of the matrix divided by the previous pivot."""
    work = [list(r) for r in rows]
    rank, prev = 0, 1
    for j in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p, prow = work[rank][j], work[rank]
        for i in range(rank + 1, len(work)):
            row, f = work[i], work[i][j]
            work[i] = [0] * (j + 1) + [(p * row[k] - f * prow[k]) // prev
                                       for k in range(j + 1, len(row))]
        prev, rank = p, rank + 1
    return rank


def matrix_rank(rows: list) -> int:
    """Rank of a matrix of NovikovElements (a list of rows) over Q(q), which
    is its rank over the Novikov field, since rank does not change under
    field extension (Hofer-Salamon, *Floer homology and Novikov rings*,
    1995).  Entries are ranked as they are held, after the cutoff dropped
    their terms above it.

    Each row is scaled by its coefficients' common denominator and shifted
    by a power of q, so its entries are polynomials with integer
    coefficients and exponents at least 0.  The Kronecker substitution
    q_j -> t^(w_j), w_j the product of (D_i + 1) over i < j with D_i the
    row-summed exponent span in q_i, keeps every nonzero minor nonzero,
    and evaluating at t0 = H + 2 keeps it nonzero too: H, the product over
    rows (or columns, if smaller) of max(1, summed coefficient l1 norms),
    bounds every coefficient of every minor, so by Cauchy's bound no root
    of a minor reaches t0.  The rank of the integer matrix at t0 comes from
    ``_bareiss_rank`` (Bareiss, Math. Comp. 1968).
    """
    polys, spans = [], []  # per nonzero row: {point shifted to >= 0: int} per entry, spans
    for row in rows:
        terms = [t for e in row for t in e.terms.items()]
        if not terms:
            continue
        den = math.lcm(*(c.denominator for _, c in terms))
        coords = list(zip(*(a for a, _ in terms)))  # the row's values of each q_j
        low = [min(k) for k in coords]
        spans.append([max(k) - m for k, m in zip(coords, low)])
        polys.append([{tuple(map(operator.sub, a, low)): int(c * den)
                       for a, c in e.terms.items()} for e in row])
    if not polys:
        return 0
    weights, w = [], 1
    for d in map(sum, zip(*spans)):
        weights.append(w)
        w *= d + 1
    norms = [[sum(map(abs, p.values())) for p in row] for row in polys]
    height = min(math.prod(max(1, sum(r)) for r in norms),
                 math.prod(max(1, sum(c)) for c in zip(*norms)))
    t0 = height + 2
    return _bareiss_rank([[sum(c * t0 ** sum(map(operator.mul, a, weights))
                               for a, c in p.items()) for p in row] for row in polys])


def cohomology_rank(delta: Differential) -> dict:
    """Graded ranks of H(delta) over the Novikov field, keyed by Morse index.

    Requires delta^2 = 0.  A nonzero entry (x, y) connects ind x = ind y - 1
    (entries of nonzero q-degree would make the generator grading periodic;
    they are rejected).  delta sends index-d generators to index-(d-1)
    sources, so rank H_d = #generators(d) - rank(delta_d) - rank(delta_{d+1}),
    each block ranked exactly by ``matrix_rank``.
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
        rank_from[d] = matrix_rank(rows)
    out = {}
    for d in degrees:
        out[d] = len(by_degree[d]) - rank_from.get(d, 0) - rank_from.get(d + 1, 0)
    return out


def betti_sum(ranks: dict) -> int:
    return sum(ranks.values())
