"""Compact-group models, real representations, characters, and isotypic projectors.

Finite groups are exact: the multiplication table is an (n, n) int index
array, and group-law checks are array comparisons on it; matrix entries are
rational (``int`` where integral, ``Fraction`` where a division makes one;
see ``linalg``).  The circle group is modeled by uniform
quadrature at N sample angles, exact on trigonometric polynomials of degree
below N; with N >= 4*max_weight + 1 every averaging operation used here is
exact up to float roundoff.

Real irreducibles are the primitive notion; each carries an endomorphism
type R, C or H of real dimension 1, 2 or 4, and the character projector

    P = (dim V / endo_dim) * avg_g chi(g) rho(g)

projects onto the corresponding isotypic component.  The projectors have one
construction, ``_projectors``: float matrices in float mode, and in exact
mode integer numerators Q = D P over one common denominator D
(``linalg.numerators``), so no entry is a Fraction.  ``projector_check`` and
the irreducibility test of ``endo_type`` both read them from there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import linalg
from .errors import InvalidInputError


def _cos2pi_exact(num: int, den: int) -> Fraction | None:
    """cos(2*pi*num/den) as a Fraction, or None when irrational: it is
    rational exactly when num/den in lowest terms has denominator 1, 2, 3, 4
    or 6, and then depends on that denominator alone."""
    values = {1: 1, 2: -1, 3: Fraction(-1, 2), 4: 0, 6: Fraction(1, 2)}
    value = values.get(Fraction(num, den).denominator)
    return None if value is None else Fraction(value)


@dataclass(frozen=True)
class IrrepDescriptor:
    """A real irreducible representation: label, dimension, character values
    per group element, and endomorphism type."""

    label: str
    dim_V: int
    character: np.ndarray
    endo_type: str  # 'R', 'C' or 'H'

    def __post_init__(self):
        if self.endo_type not in ("R", "C", "H"):
            raise InvalidInputError(f"unknown endomorphism type {self.endo_type!r}")

    @property
    def endo_dim(self) -> int:
        return {"R": 1, "C": 2, "H": 4}[self.endo_type]


@dataclass(frozen=True)
class FiniteGroupModel:
    """A finite group as an explicit multiplication table.

    ``table[i, j]`` is the index of the product g_i * g_j, an (n, n) int
    array; ``compose`` and ``inverse`` accept index arrays as well as single
    indices.  Irreps may be attached (preset groups ship with their full
    real character table).  ``build_blocks`` maps the group to its
    integer-orthogonal blocks other than the 1-dim irreps; the constructors
    of ``Z_n``, ``D_n``, ``S_n`` and ``Q_8`` supply it, and a group given by
    its table has none (``_block_catalog``).
    """

    name: str
    table: np.ndarray
    irreps: tuple[IrrepDescriptor, ...] = ()
    build_blocks: Callable[[FiniteGroupModel], dict] | None = None

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def identity(self) -> int:
        g = np.arange(self.order)
        two_sided = (np.all(self.table == g, axis=1)
                     & np.all(self.table == g[:, None], axis=0))
        if not two_sided.any():
            raise InvalidInputError("multiplication table has no identity")
        return int(np.argmax(two_sided))

    def inverse(self, g):
        t, e = self.table, self.identity
        two_sided = (t == e) & (t.T == e)
        missing = np.flatnonzero(~two_sided.any(axis=1))
        if missing.size:
            raise InvalidInputError(f"element {missing[0]} has no two-sided inverse")
        return np.argmax(two_sided, axis=1)[g]

    def compose(self, g, h):
        return self.table[g, h]

    def validate(self) -> None:
        """Check associativity on all triples and two-sided identity/inverse."""
        n = self.order
        t = self.table
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise InvalidInputError("multiplication table is not an index table")
        for a in range(n):
            # [b, c]: (ab)c against a(bc)
            bad = np.argwhere(t[t[a]] != t[a, t])
            if len(bad):
                b, c = bad[0]
                raise InvalidInputError(
                    f"multiplication not associative at ({a},{b},{c})"
                )
        self.inverse(np.arange(n))

    def nontrivial_irreps(self) -> tuple[IrrepDescriptor, ...]:
        return tuple(ir for ir in self.irreps if ir.label != "trivial")


@dataclass(frozen=True)
class CircleGroupModel:
    """The circle group sampled at N uniform angles 2*pi*k/N.

    The samples form a closed subgroup (index addition mod N), so group-law
    checks are exact on samples.  Averages over the circle are realized as
    uniform quadrature, exact for trigonometric polynomials of degree < N;
    keep N >= 4*max_weight + 1 for every weight used with the model.
    """

    quadrature_order: int

    def __post_init__(self):
        if self.quadrature_order < 4:
            raise InvalidInputError("quadrature order must be at least 4")

    @property
    def order(self) -> int:
        return self.quadrature_order

    @property
    def identity(self) -> int:
        return 0

    def inverse(self, k: int) -> int:
        return (-k) % self.quadrature_order

    def compose(self, j: int, k: int) -> int:
        return (j + k) % self.quadrature_order

    @property
    def max_weight(self) -> int:
        return (self.quadrature_order - 1) // 4

    def angles(self) -> np.ndarray:
        n = self.quadrature_order
        return 2.0 * np.pi * np.arange(n) / n

    def check_weight(self, weight: int) -> None:
        """Circle weights run from 1 to max_weight."""
        if weight < 1:
            raise InvalidInputError(f"circle weight {weight} is not a positive integer")
        if weight > self.max_weight:
            raise InvalidInputError(
                f"weight {weight} exceeds quadrature capacity "
                f"(order {self.quadrature_order} supports weights <= {self.max_weight})"
            )

    def weight_irrep(self, weight: int) -> IrrepDescriptor:
        self.check_weight(weight)
        chi = 2.0 * np.cos(weight * self.angles())
        return IrrepDescriptor(f"weight_{weight}", 2, chi, "C")

    @cached_property
    def irreps(self) -> tuple[IrrepDescriptor, ...]:
        return tuple(self.weight_irrep(w) for w in range(1, self.max_weight + 1))

    def nontrivial_irreps(self) -> tuple[IrrepDescriptor, ...]:
        return self.irreps


GroupModel = FiniteGroupModel | CircleGroupModel


# ---------------------------------------------------------------------------
# preset groups and their real character tables
# ---------------------------------------------------------------------------


_fr = linalg.frac_array


def cyclic_group(n: int) -> FiniteGroupModel:
    if n < 1:
        raise InvalidInputError("cyclic order must be positive")
    table = np.array([[(i + j) % n for j in range(n)] for i in range(n)])
    irreps = [IrrepDescriptor("trivial", 1, _fr([1] * n), "R")]
    if n % 2 == 0:
        irreps.append(
            IrrepDescriptor("sign", 1, _fr([(-1) ** j for j in range(n)]), "R")
        )
    for k in range(1, (n - 1) // 2 + 1):
        vals = [_cos2pi_exact(k * j, n) for j in range(n)]
        if all(v is not None for v in vals):
            chi = _fr([2 * v for v in vals])
        else:
            chi = 2.0 * np.cos(2.0 * np.pi * k * np.arange(n) / n)
        irreps.append(IrrepDescriptor(f"plane_{k}", 2, chi, "C"))

    def blocks(group):
        out = {"shift": regular_rep(group)}
        if n == 4:
            out["rot90"] = RealRepresentation(group, _fr(
                [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]]))
        return out

    return FiniteGroupModel(f"Z_{n}", table, tuple(irreps), blocks)


def dihedral_group(n: int) -> FiniteGroupModel:
    """Dihedral group of order 2n; element a + n*b encodes r^a s^b."""
    if n < 2:
        raise InvalidInputError("dihedral parameter must be at least 2")
    order = 2 * n

    def mul(x, y):
        a, b = x % n, x // n
        c, d = y % n, y // n
        # r^a s^b r^c s^d = r^(a + (-1)^b c) s^(b + d)
        return (a + (c if b == 0 else -c)) % n + n * ((b + d) % 2)

    table = np.array([[mul(x, y) for y in range(order)] for x in range(order)])

    def per_element(rot_val, ref_val):
        return [rot_val(x % n) if x < n else ref_val(x % n) for x in range(order)]

    irreps = [
        IrrepDescriptor("trivial", 1, _fr([1] * order), "R"),
        IrrepDescriptor(
            "reflection_sign", 1, _fr(per_element(lambda a: 1, lambda a: -1)), "R"
        ),
    ]
    if n % 2 == 0:
        irreps.append(
            IrrepDescriptor(
                "rotation_sign",
                1,
                _fr(per_element(lambda a: (-1) ** a, lambda a: (-1) ** a)),
                "R",
            )
        )
        irreps.append(
            IrrepDescriptor(
                "rotation_reflection_sign",
                1,
                _fr(per_element(lambda a: (-1) ** a, lambda a: -((-1) ** a))),
                "R",
            )
        )
        plane_max = n // 2 - 1
    else:
        plane_max = (n - 1) // 2
    for k in range(1, plane_max + 1):
        vals = [_cos2pi_exact(k * a, n) for a in range(n)]
        if all(v is not None for v in vals):
            chi = _fr([2 * v for v in vals] + [0] * n)
        else:
            chi = np.concatenate(
                [2.0 * np.cos(2.0 * np.pi * k * np.arange(n) / n), np.zeros(n)]
            )
        irreps.append(IrrepDescriptor(f"plane_{k}", 2, chi, "R"))

    def blocks(group):
        # x moves vertex v (the coset of r^v) to that of x r^v
        return {"vertices": permutation_rep(group, group.table[:, :n] % n),
                "regular": regular_rep(group)}

    return FiniteGroupModel(f"D_{n}", table, tuple(irreps), blocks)


def _perm_compose(p, q):
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_type(p) -> tuple[int, ...]:
    """Cycle lengths of a permutation, longest first."""
    seen, lengths = set(), []
    for start in range(len(p)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = p[j], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _perm_parity(p) -> int:
    return (-1) ** (len(p) - len(_cycle_type(p)))


def symmetric_group(n: int) -> FiniteGroupModel:
    """S_n with its real character table, for n in {2, 3, 4}."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.array(
        [[index[_perm_compose(p, q)] for q in perms] for p in perms]
    )
    fix = [sum(1 for i in range(n) if p[i] == i) for p in perms]
    sgn = [_perm_parity(p) for p in perms]
    irreps = [IrrepDescriptor("trivial", 1, _fr([1] * order), "R")]
    irreps.append(IrrepDescriptor("sign", 1, _fr(sgn), "R"))
    if n >= 3:
        irreps.append(
            IrrepDescriptor("standard", n - 1, _fr([f - 1 for f in fix]), "R")
        )
    if n == 4:
        irreps.append(
            IrrepDescriptor(
                "standard_sign", 3, _fr([(f - 1) * s for f, s in zip(fix, sgn)]), "R"
            )
        )
        # the 2-dim irrep factors through S_4 / V_4 ~ S_3
        cycle_type_chi = {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0}
        chi2 = [cycle_type_chi[_cycle_type(p)] for p in perms]
        irreps.append(IrrepDescriptor("two_dim", 2, _fr(chi2), "R"))

    def blocks(group):
        natural = permutation_rep(group, np.array(perms))
        out = {"natural": natural}
        if n == 4:
            odd = np.array(sgn)[:, None, None] < 0
            out["natural_sign"] = RealRepresentation(
                group, np.where(odd, -natural.matrices, natural.matrices))
            pairs = list(itertools.combinations(range(n), 2))
            pidx = {p: i for i, p in enumerate(pairs)}
            out["pairs"] = permutation_rep(group, np.array(
                [[pidx[tuple(sorted((p[a], p[b])))] for a, b in pairs] for p in perms]))
        return out

    return FiniteGroupModel(f"S_{n}", table, tuple(irreps), blocks)


def _quat_mul(a, b):
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return (
        a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4,
        a1 * b2 + a2 * b1 + a3 * b4 - a4 * b3,
        a1 * b3 - a2 * b4 + a3 * b1 + a4 * b2,
        a1 * b4 + a2 * b3 - a3 * b2 + a4 * b1,
    )


def quaternion_group() -> FiniteGroupModel:
    """Q_8; element 2a + b is (-1)^b times the unit a of 1, i, j, k."""
    units = [tuple(int(a == c) for c in range(4)) for a in range(4)]
    elems = [tuple(s * c for c in u) for u in units for s in (1, -1)]
    index = {e: i for i, e in enumerate(elems)}
    table = np.array(
        [[index[_quat_mul(a, b)] for b in elems] for a in elems]
    )

    # the three nontrivial 1-dim irreps factor through Q_8 / {+-1} = Z_2 x Z_2
    def through(kept: int):
        return _fr([1 if x // 2 in (0, kept) else -1 for x in range(8)])

    chi4 = _fr([4, -4, 0, 0, 0, 0, 0, 0])
    irreps = (
        IrrepDescriptor("trivial", 1, _fr([1] * 8), "R"),
        IrrepDescriptor("sign_i", 1, through(1), "R"),
        IrrepDescriptor("sign_j", 1, through(2), "R"),
        IrrepDescriptor("sign_k", 1, through(3), "R"),
        IrrepDescriptor("four_dim", 4, chi4, "H"),
    )

    def blocks(group):
        # left multiplication by q: column a holds q times the unit a
        return {"left": RealRepresentation(group, _fr(
            [list(zip(*(_quat_mul(q, u) for u in units))) for q in elems]))}

    return FiniteGroupModel("Q_8", table, irreps, blocks)


_PRESETS = {
    "Z_2": lambda: cyclic_group(2),
    "Z_3": lambda: cyclic_group(3),
    "Z_4": lambda: cyclic_group(4),
    "Z_6": lambda: cyclic_group(6),
    "S_3": lambda: symmetric_group(3),
    "S_4": lambda: symmetric_group(4),
    "Q_8": quaternion_group,
    "D_3": lambda: dihedral_group(3),
    "D_4": lambda: dihedral_group(4),
    "D_6": lambda: dihedral_group(6),
}


@cache
def _preset(name: str) -> FiniteGroupModel:
    group = _PRESETS[name]()
    group.table.flags.writeable = False
    for irrep in group.irreps:
        irrep.character.flags.writeable = False
    return group


def preset_group(name: str) -> FiniteGroupModel:
    """The group of a preset name, or Z_n / D_n for any other n.

    Each name in ``_PRESETS`` is built once per process and shared, and so
    is the block catalog that ``_block_catalog`` builds from its
    constructor's blocks on first use; its multiplication table and
    character arrays are read-only.  Other Z_n / D_n names build a new
    group on every call, so no input can grow the cache.
    """
    if not isinstance(name, str):
        raise InvalidInputError(f"unknown group preset {name!r}")
    if name in _PRESETS:
        return _preset(name)
    if name[2:].isdecimal():
        if name.startswith("Z_"):
            return cyclic_group(int(name[2:]))
        if name.startswith("D_"):
            return dihedral_group(int(name[2:]))
    raise InvalidInputError(f"unknown group preset {name!r}")


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


# matrix entries per stacked group-law comparison: every preset, and the
# order-64 circle at d <= 12, fits one chunk, and a float 12-dim Z_200 rep
# peaks at 25 MB under tracemalloc instead of 139 MB for all pairs at once
_LAW_CHUNK = 2**20


@dataclass(frozen=True)
class RealRepresentation:
    """An orthogonal real representation: one d x d matrix per group element
    (per sample angle for the circle).  Exact mode stores rational entries,
    ints for the integral ones (integer-orthogonal blocks are all ints)."""

    group: GroupModel
    matrices: np.ndarray  # shape (order, d, d)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def exact(self) -> bool:
        return linalg.is_exact(self.matrices)

    @cached_property
    def numerators(self) -> tuple[np.ndarray, int, int]:
        """(N, m, bound), rho = N / m, scanned once per rep: bound is the
        largest of m and every |N|, and N is narrowed for sums of dim products
        (``linalg.narrow``); a caller with larger sums narrows it again."""
        nums, m = linalg.numerators(self.matrices)
        bound = max(m, max(map(abs, nums.flat), default=0))
        return linalg.narrow(nums, bound, self.dim), m, bound

    def validate(self) -> None:
        """Identity, orthogonality and the group law as stacked
        comparisons (``linalg.same``).  Exact mode checks the law as rho(s)
        rho(h) = rho(sh) for s in a generating set and every h, which makes
        every rho(g) a product of generator images; float mode checks every
        pair (g, h), since roundoff compounds along words.  The law is
        compared in chunks of g of at most ``_LAW_CHUNK`` entries, and the
        first failing pair in (g, h) order is named."""
        group, exact = self.group, self.exact
        mats, m, _ = self.numerators if exact else (self.matrices, 1, 1)
        ident = m * np.eye(self.dim, dtype=mats.dtype)
        if not linalg.same(mats[group.identity], ident, exact):
            raise InvalidInputError("action at the identity is not the identity matrix")
        orthogonal = linalg.same(mats.transpose(0, 2, 1) @ mats, m * ident, exact)
        if not orthogonal.all():
            raise InvalidInputError(
                f"action of element {np.argmin(orthogonal)} is not orthogonal")
        gens = np.array(_generating_set(group) if exact else range(group.order), dtype=int)
        step = max(1, _LAW_CHUNK // mats[0].size // group.order)
        for start in range(0, len(gens), step):
            g = gens[start:start + step]
            products = group.compose(g[:, None], np.arange(group.order))
            law = linalg.same(mats[g, None] @ mats, m * mats[products], exact)
            if not law.all():
                s, h = np.argwhere(~law)[0]
                raise InvalidInputError(f"group law fails at pair ({g[s]}, {h})")


def _generating_set(group: GroupModel) -> list[int]:
    """Elements in index order, each outside the subgroup the earlier ones
    generate; together they generate the group."""
    gens, reached = [], np.zeros(group.order, dtype=bool)
    reached[group.identity] = True
    for g in range(group.order):
        if reached[g]:
            continue
        gens.append(g)
        while True:  # close under left multiplication by the generators
            before = reached.sum()
            reached[group.compose(np.array(gens)[:, None], np.flatnonzero(reached))] = True
            if reached.sum() == before:
                break
    return gens


def _character(rep: RealRepresentation, irrep: IrrepDescriptor) -> np.ndarray:
    """The irrep's character, checked to have one value per group element of
    ``rep`` and, in exact mode, only ``int`` and ``Fraction`` values."""
    chi = irrep.character
    if len(chi) != rep.group.order:
        raise InvalidInputError(
            "irrep does not belong to the representation's group model"
        )
    if rep.exact and not all(isinstance(c, (Fraction, int)) for c in chi):
        raise InvalidInputError(
            f"irrep {irrep.label!r} has no exact character; use float mode"
        )
    return chi


def _projectors(rep: RealRepresentation, commuting: dict):
    """(M, {label: Q}, D, {name: C}): the character projectors P_l of ``rep``
    over the fixed part and each nontrivial irrep l, as Q_l = D P_l.

    Float mode returns M = rho, Q = P, D = 1 and the matrices of
    ``commuting`` as given.  Exact mode returns integer numerators: rho =
    M / m, C a multiple of each named matrix, P = s sum_g X(g) M_g with X = c
    * chi integral and s = dim V / (endo_dim |G| c m) (s = 1 / (|G| m) for
    the fixed part), and D the common denominator of the s.  The exact arrays
    are narrowed (``linalg.narrow``) for every product ``projector_check``
    computes; the one Fraction per label is its s.  A character that
    ``_character`` rejects raises InvalidInputError.
    """
    order, irreps = rep.group.order, rep.group.nontrivial_irreps()
    if not rep.exact:
        projs = {"fixed": rep.matrices.sum(axis=0) / order}
        for ir in irreps:
            chi = linalg.as_float(np.asarray(_character(rep, ir)))
            projs[ir.label] = np.tensordot(chi, rep.matrices, axes=1) * (
                ir.dim_V / (ir.endo_dim * order))
        return rep.matrices, projs, 1, commuting
    mats, m, m_max = rep.numerators
    weights = {"fixed": (np.ones(order, dtype=object), Fraction(1, order * m))}
    for ir in irreps:
        x, c = linalg.numerators(_character(rep, ir))
        weights[ir.label] = (x, Fraction(ir.dim_V, ir.endo_dim * order * c * m))
    nums, denom = linalg.numerators([s for _, s in weights.values()])
    scales = dict(zip(weights, nums))
    named = {name: linalg.numerators(c)[0] for name, c in commuting.items()}
    # |Q|, |M|, |C| and D bound every factor; a product sums at most
    # dim terms, a sum of projectors has one term per label
    q_max = max(scales[label] * sum(map(abs, x)) * m_max
                for label, (x, _) in weights.items())
    factor = max([q_max, m_max, denom] + [abs(v) for c in named.values() for v in c.flat])
    mats = linalg.narrow(mats, factor, max(rep.dim, len(weights)))
    projs = {label: scales[label] * np.tensordot(x.astype(mats.dtype), mats, axes=1)
             for label, (x, _) in weights.items()}
    return mats, projs, denom, {name: c.astype(mats.dtype) for name, c in named.items()}


def projector_check(rep: RealRepresentation, tol: float = linalg.TOL,
                    commuting: dict | None = None) -> tuple[dict, int, list]:
    """Check the character projectors of ``rep``: (ranks, number of checks,
    failed (identity, label) pairs).

    For Q_l = D P_l (``_projectors``), over the fixed part and each
    nontrivial irrep l in sorted order, the identities are, in this order:
    Q^2 = D Q ("idempotent"), rho(g) Q = Q rho(g) ("commutes-with-action"),
    Q_a Q_b = 0 ("pairwise-orthogonal", label "a|b"), sum_l Q_l = D I
    ("resolution-of-identity", label "") and C Q = Q C for each matrix C in
    ``commuting``, under its name.  Exact mode compares integer numerators
    exactly, float mode within ``tol``.  A non-integral rank (trace of P)
    raises InvalidInputError.
    """
    mats, projs, denom, named = _projectors(rep, commuting or {})
    same = partial(linalg.same, exact=rep.exact, tol=tol)
    labels = sorted(projs)
    q = np.stack([projs[label] for label in labels])
    ranks = {label: linalg.trace_rank(tr, denom)
             for label, tr in zip(labels, np.trace(q, axis1=1, axis2=2))}
    a, b = np.triu_indices(len(labels), 1)
    verdicts = [
        ("idempotent", labels, same(q @ q, denom * q)),
        # one label at a time: an (L, |G|, d, d) stack costs more in fresh
        # memory than in arithmetic
        ("commutes-with-action", labels, [same(mats @ p, p @ mats, axes=(0, 1, 2))
                                          for p in q]),
        ("pairwise-orthogonal", [f"{labels[i]}|{labels[j]}" for i, j in zip(a, b)],
         same(q[a] @ q[b], 0)),
        ("resolution-of-identity", [""],
         [same(q.sum(axis=0), denom * np.eye(rep.dim, dtype=q.dtype))]),
    ] + [(name, labels, same(c @ q, q @ c)) for name, c in named.items()]
    results = [(check, label, ok) for check, names, oks in verdicts
               for label, ok in zip(names, oks)]
    return ranks, len(results), [(check, label) for check, label, ok in results if not ok]


def hom_G_basis(rep_v: RealRepresentation, rep_w: RealRepresentation) -> list[np.ndarray]:
    """Basis of the space of equivariant linear maps V -> W.

    Obtained by averaging the full basis of raw matrix units; the returned
    maps are linearly independent and span the averaged space.  Exact maps
    hold integers: each is a positive multiple of its average.
    """
    dv, dw, order = rep_v.dim, rep_w.dim, rep_v.group.order
    exact = rep_v.exact and rep_w.exact
    # exact sums of numerators rho_W = W / a, rho_V = V / b are a b |G| times
    # the averages; each entry sums |G| products of two numerators
    if exact:
        (wm, _, bw), (vm, _, bv) = rep_w.numerators, rep_v.numerators
        wm, vm = (linalg.narrow(x, max(bw, bv), order) for x in (wm, vm))
    else:
        wm, vm = linalg.as_float(rep_w.matrices), linalg.as_float(rep_v.matrices)
    vinv = vm[rep_v.group.inverse(np.arange(order))]
    # rho_W(g) E_ab rho_V(g)^-1 is the outer product of column a of
    # rho_W(g) with row b of rho_V(g)^-1; candidate (a, b) is its average
    total = np.einsum("gia,gbj->abij", wm, vinv)
    candidates = (total.astype(object) if exact else total / order).reshape(dw * dv, dw, dv)
    keep = linalg.independent_columns(candidates.reshape(dw * dv, -1).T)
    basis = [candidates[k] for k in keep]
    if any(equivariance_residual(rep_v, rep_w, m) > (0 if exact else linalg.TOL)
           for m in basis):
        raise InvalidInputError("averaged map failed the equivariance check")
    return basis


def equivariance_residual(rep_v: RealRepresentation, rep_w: RealRepresentation,
                          m: np.ndarray):
    """max_g || rho_W(g) m - m rho_V(g) ||, exact or float.  Exact input is
    multiplied as numerators rho_W = W / a, m = N / k, rho_V = V / b: an
    entry of (b W) N - N (a V) sums dim W + dim V products of two factors
    at most |b W|, |a V| or |N|."""
    if not (rep_w.exact and rep_v.exact and linalg.is_exact(m)):
        return linalg.max_abs(rep_w.matrices @ m - m @ rep_v.matrices)
    (w, a, bw), (v, b, bv), (n, k) = rep_w.numerators, rep_v.numerators, linalg.numerators(m)
    bound = max(bw * bv, max(map(abs, n.flat), default=0))
    w, v, n = (linalg.narrow(x, bound, rep_w.dim + rep_v.dim) for x in (w, v, n))
    defect = (b * w) @ n - n @ (a * v)
    worst, denom = int(max(map(abs, defect.flat), default=0)), a * b * k
    return Fraction(worst, denom) if worst % denom else worst // denom


def endo_type(rep: RealRepresentation) -> tuple[str, int]:
    """(type, dim) of End_G for an irreducible real representation: R, C or
    H by the real dimension 1, 2 or 4 of the commutant, which is computed by
    averaging a spanning set of matrix units.  Input that is not
    irreducible raises InvalidInputError: a proper isotypic component, an
    isotypic one with multiplicity > 1, no character projector equal to the
    identity (an incomplete irrep table), or a commutant of another dimension.
    """
    _assert_irreducible(rep)
    dim = len(hom_G_basis(rep, rep))
    label = {1: "R", 2: "C", 4: "H"}.get(dim)
    if label is None:
        raise InvalidInputError(
            f"commutant dimension {dim} is not 1, 2 or 4; input is not irreducible"
        )
    return label, dim


def _assert_irreducible(rep: RealRepresentation) -> None:
    """Exactly one character projector is the identity, the rest vanish, and
    ``rep`` has the dimension of that irrep."""
    _, projs, denom, _ = _projectors(rep, {})
    hits = []
    for label, q in projs.items():
        if linalg.same(q, 0, rep.exact):
            continue
        if not linalg.same(q, denom * np.eye(rep.dim, dtype=q.dtype), rep.exact):
            raise InvalidInputError(
                f"representation is reducible: isotypic component {label!r} is proper"
            )
        hits.append(label)
    if len(hits) != 1:
        raise InvalidInputError(
            "projector family inconsistent; group irrep table may be incomplete"
        )
    dims = {ir.label: ir.dim_V for ir in rep.group.irreps}
    if rep.dim != (1 if hits[0] == "fixed" else dims[hits[0]]):
        raise InvalidInputError("representation is isotypic with multiplicity > 1")


# ---------------------------------------------------------------------------
# representation builders
# ---------------------------------------------------------------------------


def _square_stack(matrices, count: int, what: str) -> np.ndarray:
    """``count`` square matrices of one size d >= 1 as a (count, d, d) stack:
    exact (object dtype) when every matrix is, else float."""
    mats = [np.asarray(m) for m in matrices]
    shapes = sorted({m.shape for m in mats})
    d = shapes[0][-1] if shapes and shapes[0] else 0
    if len(mats) != count or not d or shapes != [(d, d)]:
        raise InvalidInputError(
            f"{what}: need {count} square matrices of one size d >= 1, got "
            f"{len(mats)} of shapes {shapes}")
    stack = np.array(mats)
    return stack if all(map(linalg.is_exact, mats)) else stack.astype(float)


def rep_from_matrices(group: GroupModel, matrices) -> RealRepresentation:
    """Representation from one matrix per group element, exact when the
    matrices are exact arrays (normalized ``linalg`` object arrays)."""
    rep = RealRepresentation(group, _square_stack(
        matrices, group.order, "representation matrices"))
    rep.validate()
    return rep


def permutation_rep(group: FiniteGroupModel, action: np.ndarray) -> RealRepresentation:
    """Exact permutation representation from an action table (order x points)."""
    action = np.asarray(action)
    npts = action.shape[1]
    mats = np.zeros((group.order, npts, npts), dtype=int)
    mats[np.arange(group.order)[:, None], action, np.arange(npts)] = 1
    return RealRepresentation(group, mats.astype(object))


def regular_rep(group: FiniteGroupModel) -> RealRepresentation:
    return permutation_rep(group, group.table)


def rep_from_generators(group: FiniteGroupModel, generators,
                        matrices) -> RealRepresentation:
    """Representation from matrices on a generating set, exact when the
    matrices are exact arrays.

    Every group element is expressed as a word in the generators by
    breadth-first search over the multiplication table; elements not
    reachable make the input invalid.
    """
    generators = [int(g) for g in generators]
    if not all(0 <= g < group.order for g in generators):
        raise InvalidInputError(f"generators {generators} are not all group elements")
    mats = _square_stack(matrices, len(generators), "generator matrices")
    exact, d = linalg.is_exact(mats), mats.shape[1]
    e = group.identity
    assigned = {e: linalg.eye(d, exact)}
    frontier = [e]
    while frontier:
        x = frontier.pop(0)
        for g, mg in zip(generators, mats):
            y = group.compose(g, x)
            if y not in assigned:
                assigned[y] = mg @ assigned[x]
                frontier.append(y)
    if len(assigned) != group.order:
        missing = sorted(set(range(group.order)) - set(assigned))
        raise InvalidInputError(
            f"generators do not generate the group; unreachable: {missing}"
        )
    return rep_from_matrices(group, [assigned[g] for g in range(group.order)])


def one_dim_rep(group: FiniteGroupModel, values) -> RealRepresentation:
    return RealRepresentation(
        group, linalg.frac_array([[[values[g]]] for g in range(group.order)]))


def direct_sum(*reps: RealRepresentation) -> RealRepresentation:
    group = reps[0].group
    exact = all(r.exact for r in reps)
    return RealRepresentation(group, linalg.block_diag([r.matrices for r in reps], exact))


def conjugate_rep(rep: RealRepresentation, q: np.ndarray) -> RealRepresentation:
    """Conjugate by a float orthogonal matrix q: rho'(g) = q rho(g) q^T, a
    float representation."""
    return RealRepresentation(rep.group, q @ linalg.as_float(rep.matrices) @ q.T)


def circle_weight_rep(circle: CircleGroupModel, weights, fixed_dim: int = 0) -> RealRepresentation:
    """Block-diagonal circle representation: one rotation plane per weight,
    plus an optional fixed block."""
    for w in weights:
        circle.check_weight(w)
    th = circle.angles()
    blocks = [np.stack([np.cos(w * th), -np.sin(w * th),
                        np.sin(w * th), np.cos(w * th)], axis=-1).reshape(-1, 2, 2)
              for w in weights]
    blocks.append(np.zeros((circle.order, fixed_dim, fixed_dim)) + np.eye(fixed_dim))
    return RealRepresentation(circle, linalg.block_diag(blocks, exact=False))


def _block_catalog(group: FiniteGroupModel) -> Mapping[str, RealRepresentation]:
    """Integer-orthogonal building blocks of a group whose constructor
    supplies them (``FiniteGroupModel.build_blocks``), together with one
    block per 1-dim irrep, its character; a group given by its table, or
    the circle, has none and raises InvalidInputError.

    Built once per group instance and kept in its ``__dict__`` (as
    ``functools.cached_property`` does, which a frozen dataclass allows);
    the mapping and its matrices are read-only, so no caller can change
    the cached blocks.
    """
    cache = group.__dict__
    if "_block_catalog" not in cache:
        build = getattr(group, "build_blocks", None)
        if build is None:
            raise InvalidInputError(
                "the group has no integer block catalog (only preset groups have one)")
        blocks = {ir.label: one_dim_rep(group, ir.character)
                  for ir in group.irreps if ir.dim_V == 1}
        blocks.update(build(group))
        for rep in blocks.values():
            rep.matrices.flags.writeable = False
        cache["_block_catalog"] = MappingProxyType(blocks)
    return cache["_block_catalog"]


def random_rep(group: GroupModel, rng: np.random.Generator, max_dim: int = 12,
               exact: bool = True) -> RealRepresentation:
    """Seeded random orthogonal representation.

    Finite groups: a random multiset of integer-orthogonal building blocks,
    conjugated by a random orthogonal matrix (float mode) or by a random
    signed permutation q = sum_j signs[j] e_perm[j] e_j^T by index and sign:
    q rho q^T has signs[i] signs[j] rho[i, j] at (perm[i], perm[j]), so the
    entries stay the blocks' ints.  The circle: random weights plus a fixed
    block, conjugated orthogonally (float only).
    """
    if isinstance(group, CircleGroupModel):
        n_planes = int(rng.integers(1, max(2, max_dim // 2)))
        weights = [int(rng.integers(1, group.max_weight + 1)) for _ in range(n_planes)]
        fixed_dim = int(rng.integers(0, max(1, max_dim - 2 * n_planes) + 1))
        rep = circle_weight_rep(group, weights, fixed_dim)
        return conjugate_rep(rep, linalg.random_orthogonal(rep.dim, rng))
    rep = block_rep(group, choose_blocks(group, rng, max_dim))
    if not exact:
        return conjugate_rep(rep, linalg.random_orthogonal(rep.dim, rng))
    perm, signs = rng.permutation(rep.dim), rng.choice([-1, 1], size=rep.dim)
    mats = np.empty_like(rep.matrices)
    mats[:, perm[:, None], perm] = np.where(np.outer(signs, signs) < 0,
                                            -rep.matrices, rep.matrices)
    return RealRepresentation(group, mats)


def block_rep(group: FiniteGroupModel, names) -> RealRepresentation:
    """The direct sum of the named catalog blocks (``_block_catalog``), in
    order; an unknown name or an empty list raises InvalidInputError."""
    catalog = _block_catalog(group)
    for name in names:
        if not isinstance(name, str) or name not in catalog:
            raise InvalidInputError(
                f"unknown block {name!r}; available: {sorted(catalog)}"
            )
    if not names:
        raise InvalidInputError(
            "a representation needs at least one block (random: max_dim >= 1)")
    chosen = [catalog[name] for name in names]
    return chosen[0] if len(chosen) == 1 else direct_sum(*chosen)


def choose_blocks(group: FiniteGroupModel, rng: np.random.Generator,
                  max_dim: int = 12) -> list[str]:
    """Seeded random multiset of building-block names with total dim <= max
    (``random_rep`` draws these): before each pick after the first, stop
    with probability 1/4, else pick uniformly among the blocks that fit."""
    catalog = _block_catalog(group)
    names = sorted(catalog)
    chosen: list[str] = []
    total = 0
    while True:
        options = [n for n in names if total + catalog[n].dim <= max_dim]
        if not options or (chosen and rng.random() < 0.25):
            break
        pick = options[int(rng.integers(0, len(options)))]
        chosen.append(pick)
        total += catalog[pick].dim
    return chosen
