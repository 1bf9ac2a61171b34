"""Finite groupoids, translation groupoids, quotients, and quotient metrics.

A finite groupoid is an explicit category with all morphisms invertible:
index arrays for source/target, a composition table on composable pairs,
units and inverses.  Construction helpers validate the axioms exhaustively
(every composable pair and triple).

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


# ---------------------------------------------------------------------------
# finite groupoids
# ---------------------------------------------------------------------------


@dataclass
class FiniteGroupoid:
    """Objects 0..n-1; morphisms 0..m-1 with source/target index arrays,
    a composition table on composable pairs, units and inverses."""

    n_objects: int
    src: tuple
    tgt: tuple
    compose_table: dict  # (a, b) -> a o b, defined when src[a] == tgt[b]
    units: tuple  # per object
    inverses: tuple  # per morphism

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    def compose(self, a: int, b: int) -> int:
        try:
            return self.compose_table[(a, b)]
        except KeyError:
            raise InvalidInputError(
                f"morphisms {a} and {b} are not composable"
            ) from None

    def stab(self, x: int) -> list:
        return [m for m in range(self.n_morphisms)
                if self.src[m] == x and self.tgt[m] == x]

    def morphisms_between(self, x: int, y: int) -> list:
        return [m for m in range(self.n_morphisms)
                if self.src[m] == x and self.tgt[m] == y]

    def isomorphic_objects(self, x: int) -> set:
        return {self.tgt[m] for m in range(self.n_morphisms) if self.src[m] == x}

    def validate(self) -> None:
        """Category axioms on every composable pair and triple."""
        n, m = self.n_objects, self.n_morphisms
        if len(self.units) != n or len(self.inverses) != m:
            raise InvalidInputError("units or inverses have the wrong length")
        for x in range(n):
            u = self.units[x]
            if self.src[u] != x or self.tgt[u] != x:
                raise InvalidInputError(f"unit of object {x} is not an endomorphism")
        for (a, b), c in self.compose_table.items():
            if self.src[a] != self.tgt[b]:
                raise InvalidInputError(f"table contains non-composable pair ({a},{b})")
            if self.src[c] != self.src[b] or self.tgt[c] != self.tgt[a]:
                raise InvalidInputError(f"composite of ({a},{b}) has wrong endpoints")
        for a in range(m):
            for b in range(m):
                if self.src[a] == self.tgt[b] and (a, b) not in self.compose_table:
                    raise InvalidInputError(f"composable pair ({a},{b}) missing")
        for a in range(m):
            if self.compose(a, self.units[self.src[a]]) != a:
                raise InvalidInputError(f"right unit law fails at morphism {a}")
            if self.compose(self.units[self.tgt[a]], a) != a:
                raise InvalidInputError(f"left unit law fails at morphism {a}")
            inv = self.inverses[a]
            if self.compose(a, inv) != self.units[self.tgt[a]]:
                raise InvalidInputError(f"inverse law fails at morphism {a}")
            if self.compose(inv, a) != self.units[self.src[a]]:
                raise InvalidInputError(f"inverse law fails at morphism {a}")
        for a in range(m):
            for b in range(m):
                if self.src[a] != self.tgt[b]:
                    continue
                ab = self.compose(a, b)
                for c in range(m):
                    if self.src[b] != self.tgt[c]:
                        continue
                    if self.compose(ab, c) != self.compose(a, self.compose(b, c)):
                        raise InvalidInputError(
                            f"associativity fails at ({a},{b},{c})"
                        )


def discrete_groupoid(n_objects: int) -> FiniteGroupoid:
    """Units only."""
    return FiniteGroupoid(
        n_objects,
        tuple(range(n_objects)),
        tuple(range(n_objects)),
        {(x, x): x for x in range(n_objects)},
        tuple(range(n_objects)),
        tuple(range(n_objects)),
    )


def make_translation_groupoid(group: reps.FiniteGroupModel,
                              action: np.ndarray) -> FiniteGroupoid:
    """Translation groupoid of a group action on a finite set.

    Objects are the set's points; morphisms are pairs (g, x) with source x
    and target g.x; (h, y) o (g, x) = (hg, x) when y = g.x.
    """
    action = np.asarray(action)
    order, npts = action.shape
    if order != group.order:
        raise InvalidInputError("action table must have one row per group element")
    e = group.identity
    for x in range(npts):
        if action[e, x] != x:
            raise InvalidInputError("identity does not act as the identity")
    for g in range(order):
        for h in range(order):
            gh = group.compose(g, h)
            for x in range(npts):
                if action[g, action[h, x]] != action[gh, x]:
                    raise InvalidInputError(
                        f"action is not a homomorphism at ({g},{h},{x})"
                    )

    def mid(g, x):
        return g * npts + x

    src = []
    tgt = []
    for g in range(order):
        for x in range(npts):
            src.append(x)
            tgt.append(int(action[g, x]))
    table = {}
    for h in range(order):
        for g in range(order):
            for x in range(npts):
                y = int(action[g, x])
                table[(mid(h, y), mid(g, x))] = mid(group.compose(h, g), x)
    units = tuple(mid(e, x) for x in range(npts))
    invs = tuple(
        mid(group.inverse(g), int(action[g, x]))
        for g in range(order)
        for x in range(npts)
    )
    return FiniteGroupoid(npts, tuple(src), tuple(tgt), table, units, invs)


def orbit_set(gpd: FiniteGroupoid, x: int, subset) -> list:
    """Morphisms starting at x whose target lies in the subset."""
    subset = set(subset)
    return [m for m in range(gpd.n_morphisms)
            if gpd.src[m] == x and gpd.tgt[m] in subset]


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
    size = None
    for m, perm in probe_action.items():
        perm = tuple(perm)
        if size is None:
            size = len(perm)
        if sorted(perm) != list(range(size)):
            raise InvalidInputError(
                f"probe set is not invariant under stabilizer morphism {m}"
            )
    for a in stab:
        for b in stab:
            ab = gpd.compose(a, b)
            pa, pb = probe_action[a], probe_action[b]
            composed = tuple(pa[pb[i]] for i in range(size))
            if composed != tuple(probe_action[ab]):
                raise InvalidInputError(
                    f"probe action is not functorial at pair ({a},{b})"
                )
    kernel = [m for m in stab
              if tuple(probe_action[m]) == tuple(range(size))]
    cosets = []
    seen = set()
    for m in stab:
        if m in seen:
            continue
        coset = sorted(gpd.compose(m, k) for k in kernel)
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
    """A finite group acting on a groupoid by strict functors."""

    group: reps.FiniteGroupModel
    obj_action: np.ndarray  # (order, n_objects)
    mor_action: np.ndarray  # (order, n_morphisms)

    def validate(self, gpd: FiniteGroupoid) -> None:
        g_order = self.group.order
        oa = np.asarray(self.obj_action)
        ma = np.asarray(self.mor_action)
        if oa.shape != (g_order, gpd.n_objects) or ma.shape != (g_order, gpd.n_morphisms):
            raise InvalidInputError("action tables have wrong shapes")
        e = self.group.identity
        if list(oa[e]) != list(range(gpd.n_objects)) or list(ma[e]) != list(
            range(gpd.n_morphisms)
        ):
            raise InvalidInputError("identity must act as the identity functor")
        for g in range(g_order):
            for h in range(g_order):
                gh = self.group.compose(g, h)
                if any(oa[g, oa[h]] != oa[gh]) or any(ma[g, ma[h]] != ma[gh]):
                    raise InvalidInputError(f"action is not a homomorphism at ({g},{h})")
        for g in range(g_order):
            for m in range(gpd.n_morphisms):
                gm = int(ma[g, m])
                if gpd.src[gm] != int(oa[g, gpd.src[m]]) or gpd.tgt[gm] != int(
                    oa[g, gpd.tgt[m]]
                ):
                    raise InvalidInputError(
                        f"functoriality fails on source/target at ({g},{m})"
                    )
            for (a, b), c in gpd.compose_table.items():
                if ma[g, c] != gpd.compose(int(ma[g, a]), int(ma[g, b])):
                    raise InvalidInputError(
                        f"functoriality fails on composition at element {g}"
                    )

    def isotropy(self, gpd: FiniteGroupoid, x: int) -> list:
        """G_x = group elements fixing the isomorphism class of x."""
        cls = gpd.isomorphic_objects(x)
        return [g for g in range(self.group.order)
                if int(self.obj_action[g, x]) in cls]


@dataclass
class QuotientGroupoidModel:
    """The quotient groupoid plus its bookkeeping.

    ``morphism_data[m]`` is (x, y, g, class_representative) for the m-th
    quotient morphism; ``stab_law`` records per object the cardinality
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
    slices = list(slices)
    kernels = ineffective_kernels or {}
    oa = np.asarray(action.obj_action)
    ma = np.asarray(action.mor_action)
    reachable = set()
    for s in slices:
        for g in range(action.group.order):
            reachable.update(gpd.isomorphic_objects(int(oa[g, s])))
    missing = set(range(gpd.n_objects)) - reachable
    if missing:
        raise InvalidInputError(f"slices miss the orbits of objects {sorted(missing)}")

    def kernel_at(obj: int) -> list:
        ker = list(kernels.get(obj, []))
        for k in ker:
            if gpd.src[k] != obj or gpd.tgt[k] != obj:
                raise InvalidInputError(
                    f"declared kernel element {k} is not in stab_{obj}"
                )
        unit = gpd.units[obj]
        if unit not in ker:
            ker = [unit] + ker
        return ker

    def witness_class(psi: int) -> tuple:
        """Class of a witness modulo precomposition with the kernel."""
        obj = gpd.src[psi]
        members = sorted({gpd.compose(psi, k) for k in kernel_at(obj)})
        return tuple(members)

    obj_index = {s: i for i, s in enumerate(slices)}
    mor_data = []
    mor_index = {}
    for xi, x in enumerate(slices):
        for g in range(action.group.order):
            gx = int(oa[g, x])
            for yi, y in enumerate(slices):
                for psi in gpd.morphisms_between(gx, y):
                    cls = witness_class(psi)
                    key = (xi, yi, g, cls)
                    if key not in mor_index:
                        mor_index[key] = len(mor_data)
                        mor_data.append(key)
    src = tuple(k[0] for k in mor_data)
    tgt = tuple(k[1] for k in mor_data)

    def act_on_witness(g: int, psi: int) -> int:
        return int(ma[g, psi])

    def compose_keys(ka, kb):
        # ka: (y -> z, group g), kb: (x -> y, group h): composite over gh
        yi, zi, g, cls_a = ka
        xi2, yi2, h, cls_b = kb
        if yi2 != yi:
            raise InvalidInputError("quotient morphisms not composable")
        psi_a = cls_a[0]
        results = set()
        for pa in cls_a:
            for pb in cls_b:
                moved = act_on_witness(g, pb)  # g.(h.x -> y): gh.x -> g.y
                comp = gpd.compose(pa, moved)
                results.add(witness_class(comp))
        if len(results) != 1:
            raise InvalidInputError(
                "ineffective kernels are not coherent under composition"
            )
        return (xi2, zi, action.group.compose(g, h), results.pop())

    table = {}
    for a, ka in enumerate(mor_data):
        for b, kb in enumerate(mor_data):
            if src[a] != tgt[b]:
                continue
            key = compose_keys(ka, kb)
            if key not in mor_index:
                raise InvalidInputError("composition left the morphism set")
            table[(a, b)] = mor_index[key]
    units = []
    e = action.group.identity
    for xi, x in enumerate(slices):
        key = (xi, xi, e, witness_class(gpd.units[x]))
        units.append(mor_index[key])
    invs = []
    for a, (xi, yi, g, cls) in enumerate(mor_data):
        g_inv = action.group.inverse(g)
        psi = cls[0]
        psi_inv = gpd.inverses[psi]  # y -> g.x
        moved = act_on_witness(g_inv, psi_inv)  # g^-1.y -> x
        key = (yi, xi, g_inv, witness_class(moved))
        invs.append(mor_index[key])
    q = FiniteGroupoid(len(slices), src, tgt, table, tuple(units), tuple(invs))
    q.validate()
    stab_law = {}
    for xi, x in enumerate(slices):
        n_eff = len(gpd.stab(x)) // len(kernel_at(x))
        g_x = len(action.isotropy(gpd, x))
        stab_q = len(q.stab(xi))
        stab_law[x] = {
            "stab_Q": stab_q,
            "stab_eff": n_eff,
            "G_x": g_x,
            "ok": stab_q == n_eff * g_x,
        }
    return QuotientGroupoidModel(q, tuple(slices), tuple(mor_data), stab_law)


# ---------------------------------------------------------------------------
# regularity (condition 1)
# ---------------------------------------------------------------------------


def regularity_check(gpd: FiniteGroupoid, local_data: dict) -> dict:
    """First regularity condition on declared uniformizer actions: a
    stabilizer morphism fixing the declared sub-neighborhood pointwise must
    fix the whole uniformizer.

    ``local_data[x]`` = {"points": [...], "sub": [...], "action":
    {morphism -> permutation tuple of points}}.
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
