"""Novikov-coefficient chain complexes from signed moduli-count tables.

Scalars are truncated Novikov sums over a homology lattice with linear
omega (rational, kept as integer weights over one denominator, so truncation
compares integer energies) and c1 (integer), q^A graded by 2 c1(A).  A
differential entry is a polynomial ``{A: int}`` of its nonzero terms at or
below the energy bound floor(cutoff * denom); a count, lattice coordinate or
c1 value that is not an integer is invalid input, never rounded.  The one
truncation rule (``_truncated``) applies where ``build_differential`` builds
the entries and once on each summed entry of delta o delta in
``check_d_squared``: it is a linear coordinate projection, so truncating the
finished sum equals truncating every product and partial sum.  Ranks need no
series: rank does not change under field extension, so a block's rank over
the Novikov field is its rank over Q(q), which one exact integer evaluation
gives (``matrix_rank``).

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
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InvalidInputError

# ---------------------------------------------------------------------------
# the homology lattice and Novikov scalars
# ---------------------------------------------------------------------------


def _integral(value, what: str) -> int:
    """``value`` as an int; a value that is not an integer (``2.7``,
    ``Fraction(1, 2)``, ``"3"``) is invalid input, not rounded."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{what}: {value!r} is not an integer")


@dataclass(frozen=True)
class HomologyLattice:
    """Finite-rank lattice with linear omega (rational) and c1 (integer).
    omega is kept as integer ``weights`` over one ``denom``, and truncation
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
        object.__setattr__(self, "c1", tuple(_integral(c, "c1") for c in self.c1))
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "weights", tuple(weights))

    def check_point(self, a) -> tuple:
        a = tuple(_integral(k, "lattice point coordinate") for k in a)
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


def _truncated(lattice: HomologyLattice, terms: dict, bound: int) -> dict:
    """The nonzero terms {A: c} of ``terms`` at or below the energy bound."""
    return {a: c for a, c in terms.items() if c and lattice.energy(a) <= bound}


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
    """Signed integer moduli counts indexed by (x, y, A)."""

    lattice: HomologyLattice
    counts: dict

    def __post_init__(self):
        clean = {}
        for (x, y, a), c in self.counts.items():
            c = _integral(c, "moduli count")
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
        c = _integral(c, "Morse count")
        if c == 0:
            continue
        key = (x, y, zero)
        if counts.derived_index(gens, x, y, zero) != 0:
            raise InvalidInputError(
                f"Morse count at ({x!r}, {y!r}) does not sit in the index-0 slot"
            )
        out[key] = c
    return ModuliCountTable(lattice, out)


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


@dataclass
class Differential:
    """Lambda-matrix of the differential: entries[(x, y)] is the coefficient
    of x in delta y, a nonzero polynomial {A: int}; absent pairs are zero."""

    gens: GeneratorSet
    lattice: HomologyLattice
    entries: dict
    cutoff: Fraction

    def entry(self, x, y) -> dict:
        return self.entries.get((x, y), {})


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
    entries = {key: e for key, t in terms.items() if (e := _truncated(lattice, t, bound))}
    return Differential(gens, lattice, entries, cutoff)


@dataclass
class DSquaredReport:
    ok: bool
    first_failure: tuple | None = None
    defect: dict | None = None


def check_d_squared(delta: Differential) -> DSquaredReport:
    """delta o delta = 0 as Lambda-matrices, exact below the cutoff.

    Sums only the stored entries: entry (x, z) of delta o delta is the sum
    over middle generators y of entry(x, y) * entry(y, z), truncated once
    when summed.  The first failure is reported in (z, x) generator order.
    """
    gens = delta.gens.names
    lattice, bound = delta.lattice, delta.lattice.energy_bound(delta.cutoff)
    into = {}  # y -> [(x, entry(x, y))], x in gens order
    for x in gens:
        for y in gens:
            if (x, y) in delta.entries:
                into.setdefault(y, []).append((x, delta.entries[(x, y)]))
    for z in gens:
        acc = {}  # x -> {A: coefficient} of entry (x, z), untruncated
        for y, b in into.get(z, []):
            for x, a in into.get(y, []):
                poly = acc.setdefault(x, {})
                for p, ca in a.items():
                    for r, cb in b.items():
                        key = tuple(map(operator.add, p, r))
                        poly[key] = poly.get(key, 0) + ca * cb
        for x in gens:
            if x in acc and (defect := _truncated(lattice, acc[x], bound)):
                return DSquaredReport(False, (x, z), defect)
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
    """Rank of a matrix of integer polynomials {A: int} (a list of rows)
    over Q(q), which is its rank over the Novikov field, since rank does not
    change under field extension (Hofer-Salamon, *Floer homology and
    Novikov rings*, 1995).  Entries are ranked as they are held, after the
    cutoff dropped their terms above it.

    Each row is shifted by a power of q, so its entries are polynomials
    with exponents at least 0.  The Kronecker substitution
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
        points = [a for e in row for a in e]
        if not points:
            continue
        coords = list(zip(*points))  # the row's values of each q_j
        low = [min(k) for k in coords]
        spans.append([max(k) - m for k, m in zip(coords, low)])
        polys.append([{tuple(map(operator.sub, a, low)): c for a, c in e.items()}
                      for e in row])
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
    for x, y in delta.entries:
        if gens.ind(x) != gens.ind(y) - 1:
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
