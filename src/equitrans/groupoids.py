"""Finite groupoids, translation groupoids, quotients, and quotient metrics.

A finite groupoid is an explicit category with all morphisms invertible,
stored as int index arrays: source and target per morphism, the unit per
object, the inverse per morphism, and an (m, m) composition table holding
the index of a o b where src[a] == tgt[b] and the sentinel -1 elsewhere.
Validation checks every axiom on every composable pair and triple as one
array comparison per law (associativity one first factor at a time, so
memory stays O(m^2)); an error names the first offending index in C order.

The quotient of a groupoid by a finite group acting by functors has objects
the chosen slice representatives and morphisms the tuples (x, y, g, [psi]),
where psi is an internal morphism g.x -> y witnessing the identification
and [psi] is its class modulo declared ineffective isotropy.  Isotropy
sizes multiply: |stab^Q_x| = |stab^eff_x| * |G_x|.

Quotient metrics: averaging a metric over the group makes it invariant,
and the orbit distance min_g d_G(x, g.y) is a metric on the orbit space;
for the circle the minimum is a quadrature minimum plus one golden-section
refinement pass on the best bracket.  Points travel as columns of a (d, m)
stack: ``action(g, P)`` moves every column of P (for the circle, g may be
an array of fractional sample indices, one per column) and ``metric(P, Q)``
returns the distances between matching columns, so each group average is
one pass over the group elements on all point pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import reps
from .errors import InvalidInputError

TOL = 1e-8


def _require(ok: np.ndarray, message: str) -> None:
    """Raise InvalidInputError unless ``ok`` holds everywhere; ``message`` is
    formatted with the first failing index in C order."""
    bad = np.argwhere(~ok)
    if len(bad):
        raise InvalidInputError(message.format(*bad[0]))


# ---------------------------------------------------------------------------
# finite groupoids
# ---------------------------------------------------------------------------


@dataclass
class FiniteGroupoid:
    """Objects 0..n-1 and morphisms 0..m-1 as int index arrays.

    ``src[a]`` and ``tgt[a]`` are the endpoints of morphism a, ``units[x]``
    is the unit of object x and ``inverses[a]`` the inverse of a;
    ``compose_table[a, b]`` is a o b where src[a] == tgt[b] and -1 elsewhere.
    """

    n_objects: int
    src: np.ndarray
    tgt: np.ndarray
    compose_table: np.ndarray
    units: np.ndarray
    inverses: np.ndarray

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    def compose(self, a: int, b: int) -> int:
        c = int(self.compose_table[a, b])
        if c < 0:
            raise InvalidInputError(f"morphisms {a} and {b} are not composable")
        return c

    def morphisms_between(self, x: int, y: int) -> list:
        return np.flatnonzero((self.src == x) & (self.tgt == y)).tolist()

    def stab(self, x: int) -> list:
        return self.morphisms_between(x, x)

    def isomorphic_objects(self, x: int) -> set:
        return set(self.tgt[self.src == x].tolist())

    def validate(self) -> None:
        """Category axioms on every composable pair and triple."""
        n, m = self.n_objects, self.n_morphisms
        src, tgt, t = self.src, self.tgt, self.compose_table
        units, inv = self.units, self.inverses
        if len(units) != n or len(inv) != m:
            raise InvalidInputError("units or inverses have the wrong length")
        if t.shape != (m, m):
            raise InvalidInputError("composition table is not m x m")
        x, a = np.arange(n), np.arange(m)
        _require((src[units] == x) & (tgt[units] == x),
                 "unit of object {} is not an endomorphism")
        composable, defined = src[:, None] == tgt, t >= 0
        _require(composable | ~defined, "table contains non-composable pair ({},{})")
        _require(defined | ~composable, "composable pair ({},{}) missing")
        _require(~defined | ((src[t] == src) & (tgt[t] == tgt[:, None])),
                 "composite of ({},{}) has wrong endpoints")
        _require(t[a, units[src]] == a, "right unit law fails at morphism {}")
        _require(t[units[tgt], a] == a, "left unit law fails at morphism {}")
        _require((t[a, inv] == units[tgt]) & (t[inv, a] == units[src]),
                 "inverse law fails at morphism {}")
        for i in range(m):
            b = np.flatnonzero(defined[i])
            bc = t[b]  # b o c over all c, -1 where not composable
            bad = np.argwhere((t[t[i, b]] != t[i, bc]) & (bc >= 0))
            if len(bad):
                raise InvalidInputError(
                    f"associativity fails at ({i},{b[bad[0, 0]]},{bad[0, 1]})"
                )


def discrete_groupoid(n_objects: int) -> FiniteGroupoid:
    """Units only."""
    ids = np.arange(n_objects)
    table = np.where(ids[:, None] == ids, ids, -1)
    return FiniteGroupoid(n_objects, ids, ids, table, ids, ids)


def make_translation_groupoid(group: reps.FiniteGroupModel,
                              action: np.ndarray) -> FiniteGroupoid:
    """Translation groupoid of a group action on a finite set.

    Objects are the set's points; morphism g * npts + x is the pair (g, x)
    with source x and target g.x, and (h, g.x) o (g, x) = (hg, x).
    """
    action = np.asarray(action)
    order, npts = action.shape
    if order != group.order:
        raise InvalidInputError("action table must have one row per group element")
    _require((action >= 0) & (action < npts), "action entry ({},{}) is not a point")
    e = group.identity
    if np.any(action[e] != np.arange(npts)):
        raise InvalidInputError("identity does not act as the identity")
    h = np.arange(order)[:, None]
    _require(action[h[..., None], action] == action[group.compose(h, h.T)],
             "action is not a homomorphism at ({},{},{})")
    g, x = np.divmod(np.arange(order * npts), npts)
    tgt = action[g, x]
    table = np.full((order * npts, order * npts), -1)
    table[h * npts + tgt, g * npts + x] = group.compose(h, g) * npts + x
    return FiniteGroupoid(npts, x, tgt, table, e * npts + np.arange(npts),
                          group.inverse(g) * npts + tgt)


def orbit_set(gpd: FiniteGroupoid, x: int, subset) -> list:
    """Morphisms starting at x whose target lies in the subset."""
    inside = np.isin(gpd.tgt, list(subset))
    return np.flatnonzero((gpd.src == x) & inside).tolist()


def properness_check(gpd: FiniteGroupoid, uniformizers: dict) -> dict:
    """Orbit-set cardinality criterion: for each declared uniformizer U_x,
    every y in U_x must satisfy |S_{y, U_x}| = |stab_x|.  (Closedness is
    automatic for finite models.)"""
    report = {}
    for x, subset in uniformizers.items():
        subset = set(subset)
        if x not in subset:
            raise InvalidInputError(f"uniformizer of object {x} does not contain it")
        want = len(gpd.stab(x))
        offending = None
        for y in sorted(subset):
            if len(orbit_set(gpd, y, subset)) != want:
                offending = y
                break
        report[x] = {"ok": offending is None, "offending": offending,
                     "stab_order": want}
    return report


# ---------------------------------------------------------------------------
# effective isotropy
# ---------------------------------------------------------------------------


@dataclass
class EffectivePart:
    stab: list
    kernel: list
    cosets: list  # lists of morphisms; the effective quotient's elements

    @property
    def order(self) -> int:
        return len(self.cosets)


def effective_part(gpd: FiniteGroupoid, x: int, probe_action: dict) -> EffectivePart:
    """Quotient of stab_x by the morphisms acting as the identity on probes.

    ``probe_action`` maps every stabilizer morphism to a permutation tuple
    of the probe set (the declared local action on nearby objects); it must
    be a homomorphism into bijections, otherwise the probe data is invalid.
    """
    stab = gpd.stab(x)
    if set(probe_action) != set(stab):
        raise InvalidInputError("probe action must cover exactly the stabilizer")
    size = len(next(iter(probe_action.values()), ()))
    for m, perm in probe_action.items():
        if sorted(perm) != list(range(size)):
            raise InvalidInputError(
                f"probe set is not invariant under stabilizer morphism {m}"
            )
    perms = np.array([probe_action[m] for m in stab], dtype=int)
    perms = perms.reshape(len(stab), size)
    row = np.zeros(gpd.n_morphisms, dtype=int)
    row[stab] = np.arange(len(stab))
    # [a, b, i] = perm_a[perm_b[i]] against perm_(a o b)[i]
    composed = perms[np.arange(len(stab))[:, None, None], perms]
    ab = gpd.compose_table[np.ix_(stab, stab)]
    bad = np.argwhere((composed != perms[row[ab]]).any(axis=2))
    if len(bad):
        a, b = stab[bad[0, 0]], stab[bad[0, 1]]
        raise InvalidInputError(f"probe action is not functorial at pair ({a},{b})")
    kernel = [m for m, p in zip(stab, perms) if np.all(p == np.arange(size))]
    products = np.sort(gpd.compose_table[np.ix_(stab, kernel)], axis=1).tolist()
    cosets = []
    seen = set()
    for m, coset in zip(stab, products):
        if m not in seen:
            seen.update(coset)
            cosets.append(coset)
    return EffectivePart(stab, kernel, cosets)


def translation_probe_action(gpd: FiniteGroupoid, group: reps.FiniteGroupModel,
                             action: np.ndarray, x: int, probes) -> dict:
    """Probe action of stab_x in a translation groupoid, restricted to a
    probe subset of the objects (which must be closed under the stabilizer)."""
    action = np.asarray(action)
    npts = action.shape[1]
    probes = list(probes)
    pos = {p: i for i, p in enumerate(probes)}
    out = {}
    for m in gpd.stab(x):
        g = m // npts
        perm = []
        for p in probes:
            q = int(action[g, p])
            if q not in pos:
                raise InvalidInputError(
                    f"probe set is not invariant: {p} maps to {q}"
                )
            perm.append(pos[q])
        out[m] = tuple(perm)
    return out


# ---------------------------------------------------------------------------
# group actions on groupoids and quotients
# ---------------------------------------------------------------------------


@dataclass
class GlobalActionData:
    """A finite group acting on a groupoid by strict functors, as index
    tables: ``obj_action[g, x]`` is g.x and ``mor_action[g, a]`` is g.a."""

    group: reps.FiniteGroupModel
    obj_action: np.ndarray  # (order, n_objects)
    mor_action: np.ndarray  # (order, n_morphisms)

    def validate(self, gpd: FiniteGroupoid) -> None:
        n, m = gpd.n_objects, gpd.n_morphisms
        oa = np.asarray(self.obj_action)
        ma = np.asarray(self.mor_action)
        if oa.shape != (self.group.order, n) or ma.shape != (self.group.order, m):
            raise InvalidInputError("action tables have wrong shapes")
        _require((oa >= 0) & (oa < n), "object action entry ({},{}) is out of range")
        _require((ma >= 0) & (ma < m), "morphism action entry ({},{}) is out of range")
        e = self.group.identity
        if np.any(oa[e] != np.arange(n)) or np.any(ma[e] != np.arange(m)):
            raise InvalidInputError("identity must act as the identity functor")
        g = np.arange(self.group.order)[:, None]
        gh = self.group.compose(g, g.T)
        _require(np.all(oa[g[..., None], oa] == oa[gh], axis=2)
                 & np.all(ma[g[..., None], ma] == ma[gh], axis=2),
                 "action is not a homomorphism at ({},{})")
        _require((gpd.src[ma] == oa[:, gpd.src]) & (gpd.tgt[ma] == oa[:, gpd.tgt]),
                 "functoriality fails on source/target at ({},{})")
        t = gpd.compose_table
        a, b = np.nonzero(t >= 0)
        _require(ma[:, t[a, b]] == t[ma[:, a], ma[:, b]],
                 "functoriality fails on composition at element {}")

    def isotropy(self, gpd: FiniteGroupoid, x: int) -> list:
        """G_x = group elements fixing the isomorphism class of x."""
        gx = np.asarray(self.obj_action)[:, x]
        return np.flatnonzero(np.isin(gx, gpd.tgt[gpd.src == x])).tolist()


@dataclass
class QuotientGroupoidModel:
    """The quotient groupoid plus its bookkeeping.

    ``morphism_data[m]`` is (x, y, g, witness class) for the m-th quotient
    morphism, with x and y slice positions and the class as a sorted tuple
    of original morphisms; ``stab_law`` records per object the cardinality
    identity |stab^Q| = |stab^eff| * |G_x|.
    """

    groupoid: FiniteGroupoid
    objects: tuple  # slice representatives (original object ids)
    morphism_data: tuple
    stab_law: dict


def quotient_groupoid(gpd: FiniteGroupoid, action: GlobalActionData,
                      slices, ineffective_kernels: dict | None = None
                      ) -> QuotientGroupoidModel:
    """Quotient of a groupoid by a finite group action.

    ``slices`` are object representatives meeting every orbit of the
    combined equivalence (internal isomorphism + group action); a morphism
    of the quotient from x to y is a tuple (x, y, g, [psi]) with psi an
    internal morphism g.x -> y, taken modulo precomposition with the
    declared ineffective kernel at g.x.  Structure maps compose the group
    parts and transport the witnesses; the construction validates the
    groupoid axioms exhaustively and the isotropy cardinality law.
    """
    action.validate(gpd)
    n, m, order = gpd.n_objects, gpd.n_morphisms, action.group.order
    src, tgt, t = gpd.src, gpd.tgt, gpd.compose_table
    oa = np.asarray(action.obj_action)
    ma = np.asarray(action.mor_action)
    slices = [int(s) for s in slices]
    outside = [s for s in slices if not 0 <= s < n]
    if outside:
        raise InvalidInputError(f"slices {outside} are not objects")
    sl = np.array(slices, dtype=int)
    missing = np.setdiff1d(np.arange(n), tgt[np.isin(src, oa[:, sl])])
    if missing.size:
        raise InvalidInputError(f"slices miss the orbits of objects {missing.tolist()}")
    kernels = ineffective_kernels or {}

    def kernel_at(obj: int) -> list:
        ker = list(kernels.get(obj, []))
        for k in ker:
            if not 0 <= k < m or src[k] != obj or tgt[k] != obj:
                raise InvalidInputError(
                    f"declared kernel element {k} is not in stab_{obj}"
                )
        return sorted(set(ker) | {int(gpd.units[obj])})

    kers = [kernel_at(obj) for obj in range(n)]
    kmat = np.full((n, max(map(len, kers), default=1)), -1)
    for obj, ker in enumerate(kers):
        kmat[obj, :len(ker)] = ker
    # members psi o k of each witness class, sorted and padded with the least
    # member, so equal rows are equal classes
    ks = kmat[src]
    members = np.sort(np.where(ks >= 0, t[np.arange(m)[:, None], ks], m), axis=1)
    members = np.where(members < m, members, members[:, :1])
    classes, cid = np.unique(members, axis=0, return_inverse=True)

    # candidate morphisms (x, y, g, psi) in the order x, g, y, psi
    cand = [np.empty((0, 4), dtype=int)]
    for xi, x in enumerate(slices):
        g, yi, psi = np.nonzero((src == oa[:, x, None, None]) & (tgt == sl[:, None]))
        cand.append(np.stack([np.full_like(g, xi), yi, g, psi], axis=1))
    xi, yi, g, psi = np.concatenate(cand).T
    n_slices, n_classes = len(slices), len(classes)

    def code(x, y, g, c):
        return ((x * n_slices + y) * order + g) * n_classes + c

    keys, first = np.unique(code(xi, yi, g, cid[psi]), return_index=True)
    number = np.argsort(np.argsort(first))  # quotient index of each key
    keep = np.sort(first)
    qx, qy, qg, qpsi = xi[keep], yi[keep], g[keep], psi[keep]

    def find(x, y, g, c):
        """Quotient morphisms with the given keys (arrays)."""
        want = code(x, y, g, c)
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if np.any(keys[at] != want):
            raise InvalidInputError("composition left the morphism set")
        return number[at]

    # a o b for a = (y, z, g, [pa]) and b = (x, y, h, [pb]) is
    # (x, z, gh, [pa o g.pb]), the same class for every choice of members
    pa, pb = np.nonzero(qx[:, None] == qy)
    left = members[qpsi[pa]]
    right = ma[qg[pa, None], members[qpsi[pb]]]
    comp = cid[t[left[:, :, None], right[:, None, :]]]
    if np.any(comp != comp[:, :1, :1]):
        raise InvalidInputError(
            "ineffective kernels are not coherent under composition"
        )
    table = np.full((len(keep), len(keep)), -1)
    table[pa, pb] = find(qx[pb], qy[pa], action.group.compose(qg[pa], qg[pb]),
                         comp[:, 0, 0])
    s = np.arange(n_slices)
    units = find(s, s, action.group.identity, cid[gpd.units[sl]])
    g_inv = action.group.inverse(qg)
    moved = ma[g_inv, gpd.inverses[members[qpsi, 0]]]  # g^-1.y -> x
    q = FiniteGroupoid(n_slices, qx, qy, table, units,
                       find(qy, qx, g_inv, cid[moved]))
    q.validate()
    stab_law = {}
    for xi, x in enumerate(slices):
        n_eff = len(gpd.stab(x)) // len(kers[x])
        g_x = len(action.isotropy(gpd, x))
        stab_q = len(q.stab(xi))
        stab_law[x] = {
            "stab_Q": stab_q,
            "stab_eff": n_eff,
            "G_x": g_x,
            "ok": stab_q == n_eff * g_x,
        }
    morphism_data = tuple(
        (x, y, g, tuple(sorted(set(c))))
        for x, y, g, c in zip(qx.tolist(), qy.tolist(), qg.tolist(),
                              members[qpsi].tolist())
    )
    return QuotientGroupoidModel(q, tuple(slices), morphism_data, stab_law)


# ---------------------------------------------------------------------------
# regularity (condition 1)
# ---------------------------------------------------------------------------


def regularity_check(gpd: FiniteGroupoid, local_data: dict) -> dict:
    """First regularity condition on declared uniformizer actions: a
    stabilizer morphism fixing the declared sub-neighborhood pointwise must
    fix the whole uniformizer.

    ``local_data[x]`` = {"points": [...], "sub": [...], "action":
    {morphism -> permutation of range(len(points))}}.
    """
    report = {}
    for x, data in local_data.items():
        points = list(data["points"])
        sub = set(data["sub"])
        if not sub <= set(points):
            raise InvalidInputError(
                f"sub-neighborhood of {x} is not inside its uniformizer"
            )
        pos = {p: i for i, p in enumerate(points)}
        for m, perm in data["action"].items():
            perm = tuple(perm)
            if sorted(perm) != list(range(len(points))):
                raise InvalidInputError(f"action of morphism {m} at {x} is not a "
                                        f"permutation of its {len(points)} points")
            fixes_sub = all(perm[pos[p]] == pos[p] for p in sub)
            fixes_all = perm == tuple(range(len(points)))
            ok = (not fixes_sub) or fixes_all
            report[(x, m)] = {
                "ok": ok,
                "fixes_sub": fixes_sub,
                "fixes_all": fixes_all,
            }
    return report


# ---------------------------------------------------------------------------
# quotient metrics
# ---------------------------------------------------------------------------


def _euclidean(p, q):
    return np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float),
                          axis=0)


def _validate_metric(dist: np.ndarray) -> None:
    """Metric axioms on the n x n matrix of distances between sample points."""
    off = ~np.eye(len(dist), dtype=bool)
    for bad, what in (
        (np.abs(np.diag(dist)) > 1e-12, "metric is nonzero on the diagonal at"),
        (dist < 0, "metric is negative at"),
        (np.abs(dist - dist.T) > 1e-12, "metric is asymmetric at"),
        (off & (dist <= 1e-12), "metric does not separate points"),
        (dist[:, None, :] > dist[:, :, None] + dist[None, :, :] + 1e-12,
         "triangle inequality fails at"),
    ):
        if bad.any():
            at = ",".join(str(x) for x in np.argwhere(bad)[0])
            raise InvalidInputError(f"{what} ({at})")


@dataclass
class QuotientMetricResult:
    points: list
    invariant: object  # d_G between matching columns (or two single points)
    invariant_matrix: np.ndarray
    orbit_matrix: np.ndarray


def _golden_refine(f, lo, hi, iters: int = 48):
    """Golden-section minimum of f on [lo, hi], elementwise over arrays:
    each iteration evaluates f once on the new point of every bracket."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        keep, f_keep = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - phi * (b - a), a + phi * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, keep), np.where(left, fx, f_keep)
        d, fd = np.where(left, keep, x), np.where(left, f_keep, fx)
    return np.minimum(fc, fd)


def quotient_metric(points, group: reps.GroupModel, action, metric=None
                    ) -> QuotientMetricResult:
    """Group-averaged invariant metric and the induced orbit-space metric.

    ``action(g, P)`` moves every column of a (d, m) stack of coordinates by
    the element of index g (a sample angle index for the circle; there it
    may also be an array of fractional indices, one per column).
    ``metric(P, Q)`` returns the distances between matching columns and
    defaults to Euclidean; it must satisfy the metric axioms on the sample
    points.  All n^2 pairs are evaluated at once as pair columns, so the
    action is called once per g for d_G and once per (k, g) for the orbit
    minimum.  Finite groups use exact sums and exact minima; the circle
    uses quadrature averages and a quadrature minimum refined by one
    golden-section pass on each pair's best bracket.
    """
    metric = metric or _euclidean
    points = [np.asarray(p, dtype=float) for p in points]
    n = len(points)
    i, j = np.divmod(np.arange(n * n), n)
    pts = np.stack(points, axis=1)
    p, q = pts[:, i], pts[:, j]  # column i * n + j holds the pair (i, j)
    _validate_metric(np.broadcast_to(metric(p, q), (n * n,)).reshape(n, n))
    order = group.order

    def d_g(u, v):
        """avg_g d(g.u, g.v) over matching columns of two stacks (or two
        single points), with one action call per group element."""
        both = np.column_stack([u, v])
        m = both.shape[1] // 2
        total = 0.0
        for g in range(order):
            moved = action(g, both)
            total = total + metric(moved[:, :m], moved[:, m:])
        return (total / order).reshape(np.shape(u)[1:])

    inv = d_g(p, q)
    best = np.full(n * n, np.inf)
    best_k = np.zeros(n * n)
    for k in range(order):
        vals = d_g(p, action(k, q))
        best_k = np.where(vals < best, k, best_k)
        best = np.minimum(vals, best)
    if isinstance(group, reps.CircleGroupModel):
        refined = _golden_refine(lambda t: d_g(p, action(t, q)),
                                 best_k - 1.0, best_k + 1.0)
        best = np.minimum(best, refined)
    return QuotientMetricResult(points, d_g, inv.reshape(n, n), best.reshape(n, n))


def circle_rotation_action(circle: reps.CircleGroupModel):
    """Standard rotation action of the sampled circle on R^2 coordinates,
    single points or (2, m) column stacks; the sample index may be
    fractional, and an array of indices rotates each column by its own."""
    n = circle.order

    def act(k, p):
        theta = 2.0 * np.pi * np.asarray(k, dtype=float) / n
        c, s = np.cos(theta), np.sin(theta)
        p = np.asarray(p, dtype=float)
        return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1]])

    return act
