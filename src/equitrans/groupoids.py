"""Finite groupoids, translation groupoids, quotients, and quotient metrics.

A finite groupoid is an explicit category with all morphisms invertible,
stored as int index arrays: source and target per morphism, the unit per
object, the inverse per morphism, and an (m, m) composition table holding
the index of a o b where src[a] == tgt[b] and the sentinel -1 elsewhere.
Validation checks every axiom on every composable pair and triple as one
array comparison per law (associativity over the composable triples only,
a bounded chunk of first factors at a time, so memory stays O(m^2)); an
error names the first offending index in C order.

An index table ``table[g, x]`` = g.x is an action of a finite group on
range(n) when it passes ``check_action_table``: shape, range, the identity
row and the action law, each error naming the first failure in C order.

The quotient of a groupoid by a finite group acting by functors has objects
the chosen slice representatives and morphisms the tuples (x, y, g, [psi]),
where psi is an internal morphism g.x -> y witnessing the identification
and [psi] is its class modulo declared ineffective isotropy.  Isotropy
sizes multiply: |stab^Q_x| = |stab^eff_x| * |G_x|.

Quotient metrics: a group acting by isometries has the orbit distance
min_k |x - k.y| as a metric on its orbit space; for the circle the minimum
is a quadrature minimum plus one golden-section refinement pass on the best
bracket.  An action is linear: ``action(g)`` returns the (d, d) matrices of
the elements at an index array g, and each must be orthogonal within TOL
(one stacked check, naming the first element that fails).  One call gives
every element's matrix, so the orbit minimum reads every distance from
products of those matrices with the (d, n) stack of points, a bounded chunk
of k at a time (or one k's O(d n^2) if more); each golden-section
evaluation makes one more call, at fractional indices.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import linalg, reps
from .errors import InvalidInputError

TOL = 1e-8
# entries held per step of a chunked loop: composable triples per
# associativity step, pair differences per chunk of the orbit minimum.  On
# the 336-morphism S_4 groupoid validate then peaks at 1.5 MB under
# tracemalloc, as the O(m^2) pair checks do; 2**16 gives 2.8 MB and 2**20
# 6.3 MB, no faster.
_CHUNK = 2**15


def _require(ok: np.ndarray, message: str) -> None:
    """Raise InvalidInputError unless ``ok`` holds everywhere; ``message`` is
    formatted with the first failing index in C order."""
    if not ok.all():
        raise InvalidInputError(message.format(*np.argwhere(~ok)[0]))


def _require_ids(ids, count: int, message: str) -> None:
    """Raise ``message``, formatted with the list of ids that are not indices
    in range(count), unless there are none."""
    bad = [i for i in ids if not (isinstance(i, (int, np.integer)) and 0 <= i < count)]
    if bad:
        raise InvalidInputError(message.format(bad))


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

    def morphisms_between(self, x: int, y: int) -> list:
        return np.flatnonzero((self.src == x) & (self.tgt == y)).tolist()

    def stab(self, x: int) -> list:
        return self.morphisms_between(x, x)

    def validate(self) -> None:
        """Category axioms on every composable pair and triple.

        Pair laws are one array comparison each.  Associativity visits only
        composable triples (i, b, c): b runs over the morphisms into src[i]
        and c over those into src[b], for a chunk of first factors i at a
        time, so at most 2**15 triples (or one first factor's, if more) are
        held at once besides the O(m^2) table.  The first failure in C
        order of (i, b, c) is reported.
        """
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
        # into[y]: the morphisms with target y, ascending, padded with -1;
        # the unit laws above put every endpoint in range(n)
        counts = np.bincount(tgt, minlength=n)
        width = int(counts.max(initial=0))
        into = np.full((n, width), -1)
        by_target = np.argsort(tgt, kind="stable")
        row_start = np.cumsum(counts) - counts
        into[tgt[by_target], a - row_start[tgt[by_target]]] = by_target
        step = max(1, _CHUNK // max(1, width * width))
        for start in range(0, m, step):
            i = np.arange(start, min(start + step, m))
            b = into[src[i]]  # [i, p]: every b composable with i
            c = into[src[b]]  # [i, p, q]: every c composable with b
            lhs = t[t[i[:, None], b][:, :, None], c]
            rhs = t[i[:, None, None], t[b[:, :, None], c]]
            bad = np.argwhere((lhs != rhs) & (b[:, :, None] >= 0) & (c >= 0))
            if len(bad):
                k, p, q = bad[0]
                raise InvalidInputError(
                    f"associativity fails at ({i[k]},{b[k, p]},{c[k, p, q]})"
                )


def discrete_groupoid(n_objects: int) -> FiniteGroupoid:
    """Units only, on n_objects >= 0 objects."""
    if n_objects < 0:
        raise InvalidInputError(f"a discrete groupoid needs n_objects >= 0, got {n_objects}")
    ids = np.arange(n_objects)
    table = np.where(ids[:, None] == ids, ids, -1)
    return FiniteGroupoid(n_objects, ids, ids, table, ids, ids)


def check_action_table(group, table: np.ndarray, n: int, what: str) -> None:
    """Raise unless ``table[g, x]`` = g.x is an action of the group on the
    points range(n): shape (order, n), every entry a point, the identity's
    row the identity and table[h, table[g, x]] == table[hg, x], each error
    naming the first failure in C order.  These make every row a bijection
    (row g^-1 inverts row g), so rows need no permutation check.  ``what``
    names the table in the errors."""
    if np.shape(table) != (group.order, n):
        raise InvalidInputError(f"{what} needs shape ({group.order}, {n}), one row of "
                                f"{n} points per group element, got {np.shape(table)}")
    _require((table >= 0) & (table < n), f"{what} entry ({{}},{{}}) is not in range({n})")
    _require(table[group.identity] == np.arange(n),
             f"identity does not fix point {{}} in the {what}")
    h = np.arange(group.order)[:, None]
    _require(table[h[..., None], table] == table[group.compose(h, h.T)],
             f"{what} is not an action at ({{}},{{}},{{}})")


def make_translation_groupoid(group: reps.FiniteGroupModel,
                              action: np.ndarray) -> FiniteGroupoid:
    """Translation groupoid of a group action on a finite set.

    Objects are the set's points; morphism g * npts + x is the pair (g, x)
    with source x and target g.x, and (h, g.x) o (g, x) = (hg, x).

    The result passes ``FiniteGroupoid.validate`` by construction, once the
    group is a group (a table group that passed ``FiniteGroupModel.validate``,
    or a preset) and the table passed ``check_action_table``, which is
    checked here.  Endpoints lie in range(npts) by the range check.  The
    table is defined exactly on composable pairs: it sets entry (h, y), (g,
    x) for y = g.x only, each such pair once.  The composite runs x -> (hg).x
    = h.(g.x) by the action law.  The unit (e, x) has e.x = x by the
    identity row, and (g, x) o (e, x) = (ge, x), (e, g.x) o (g, x) = (eg, x).
    The inverse (g^-1, g.x) runs g.x -> g^-1.(g.x) = x, and both composites
    are (g^-1 g, x) = (e, x) and (g g^-1, g.x) = (e, g.x).  Associativity is
    the group's: both bracketings of (k, hg.x) o (h, g.x) o (g, x) are
    ((kh)g, x) = (k(hg), x).  So loaders need not call ``validate`` on it.
    """
    action = np.asarray(action)
    npts = action.shape[-1]
    check_action_table(group, action, npts, "action table")
    order, e = group.order, group.identity
    h = np.arange(order)[:, None]
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
        _require_ids(sorted(subset), gpd.n_objects,
                     f"uniformizer of {x} holds {{}}, which are not objects")
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
        oa = np.asarray(self.obj_action)
        ma = np.asarray(self.mor_action)
        check_action_table(self.group, oa, gpd.n_objects, "object action table")
        check_action_table(self.group, ma, gpd.n_morphisms, "morphism action table")
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
    """The quotient groupoid, whose object i is the i-th slice, and per
    slice object the cardinality identity |stab^Q| = |stab^eff| * |G_x|."""

    groupoid: FiniteGroupoid
    stab_law: dict


def quotient_groupoid(gpd: FiniteGroupoid, action: GlobalActionData,
                      slices, ineffective_kernels: dict) -> QuotientGroupoidModel:
    """Quotient of a groupoid by a finite group action.

    ``slices`` are object representatives meeting every orbit of the
    combined equivalence (internal isomorphism + group action); a morphism
    of the quotient from x to y is a tuple (x, y, g, [psi]) with psi an
    internal morphism g.x -> y, taken modulo precomposition with the
    declared ineffective kernel at g.x (``ineffective_kernels[obj]`` lists
    morphisms of stab_obj; an object without an entry has only its unit).
    Structure maps compose the group parts and transport the witnesses; the
    construction validates the groupoid axioms exhaustively and the isotropy
    cardinality law.  ``gpd`` must pass ``validate()``: a discrete or
    translation groupoid does so by construction (``discrete_groupoid``,
    ``make_translation_groupoid``), and a hand-built one is checked by its
    caller.
    """
    action.validate(gpd)
    n, m, order = gpd.n_objects, gpd.n_morphisms, action.group.order
    src, tgt, t = gpd.src, gpd.tgt, gpd.compose_table
    oa = np.asarray(action.obj_action)
    ma = np.asarray(action.mor_action)
    slices = [int(s) for s in slices]
    _require_ids(slices, n, "slices {} are not objects")
    _require_ids(ineffective_kernels, n,
                 "ineffective kernels are declared at {}, which are not objects")
    sl = np.array(slices, dtype=int)
    missing = np.setdiff1d(np.arange(n), tgt[np.isin(src, oa[:, sl])])
    if missing.size:
        raise InvalidInputError(f"slices miss the orbits of objects {missing.tolist()}")

    def kernel_at(obj: int) -> list:
        ker = list(ineffective_kernels.get(obj, []))
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
        """Quotient morphisms with the given keys (arrays).  Each key is a
        candidate's, since ``gpd`` and the action are valid: a composite's
        pa o g.pb runs gh.x -> g.y -> z, a unit runs e.x = x -> x, and an
        inverse g^-1.(psi^-1) runs g^-1.y -> x."""
        return number[np.searchsorted(keys, code(x, y, g, c))]

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
    return QuotientGroupoidModel(q, stab_law)


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
    _require_ids(local_data, gpd.n_objects,
                 "regularity data is declared at {}, which are not objects")
    for x, data in local_data.items():
        _require_ids(data["action"], gpd.n_morphisms,
                     f"regularity action at {x} moves {{}}, which are not morphisms")
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


def _golden_refine(f, lo, hi):
    """Golden-section minimum of f on [lo, hi], elementwise over arrays: 48
    iterations, each evaluating f once on the new point of every bracket."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(48):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        keep, f_keep = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - phi * (b - a), a + phi * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, keep), np.where(left, fx, f_keep)
        d, fd = np.where(left, keep, x), np.where(left, f_keep, fx)
    return np.minimum(fc, fd)


@np.errstate(over="ignore")  # a distance too large to square is reported below
def quotient_metric(points, group: reps.GroupModel, action) -> np.ndarray:
    """The (n, n) orbit-space metric min_k |x_i - k.x_j| of an isometric
    linear action on distinct sample points.

    ``action(g)`` returns the (d, d) matrices of a linear action at an
    index array g, with shape g.shape + (d, d) (for the circle, sample
    angle indices, which may be fractional); any other shape is invalid
    input, and so is an element whose matrix is not orthogonal within TOL.
    An orthogonal action keeps every Euclidean distance, so the metric
    needs no group average.

    One action call gives every element's matrix.  A chunk of k holds at
    most ``_CHUNK`` entries of the (k, d, n, n) differences x_i - k.x_j (or
    one k's, if more), and the first k attaining a strict improvement wins
    a tie.  The circle refines its quadrature minimum by one golden-section
    pass on each pair's best bracket, one action call per evaluation (51
    calls in all).  A pair whose distance is not finite in floats is
    invalid input.
    """
    n = len(points)
    i, j = np.divmod(np.arange(n * n), n)
    pts = np.stack([np.asarray(p, dtype=float) for p in points], axis=1)
    close = np.linalg.norm(pts[:, i] - pts[:, j], axis=0).reshape(n, n) <= 1e-12
    _require(~close | np.eye(n, dtype=bool), "metric does not separate points ({},{})")
    order, d = group.order, pts.shape[0]

    def matrices(g):
        rho = np.asarray(action(g), dtype=float)
        if rho.shape != g.shape + (d, d):
            raise InvalidInputError(f"action returned matrices of shape {rho.shape} at "
                                    f"indices of shape {g.shape}, not {g.shape + (d, d)}")
        return rho

    rho = matrices(np.arange(order))
    _require(linalg.same(rho @ rho.swapaxes(1, 2), np.eye(d), exact=False, tol=TOL),
             "the action matrix of element {} is not orthogonal")
    best = np.full(n * n, np.inf)
    best_k = np.zeros(n * n)
    step = max(1, _CHUNK // (d * n * n))
    for start in range(0, order, step):
        ks = np.arange(start, min(start + step, order))
        kx = (rho[ks].reshape(-1, d) @ pts).reshape(len(ks), d, 1, n)  # [k, :, 0, j] = k.x_j
        vals = np.linalg.norm(pts[:, :, None] - kx, axis=1).reshape(len(ks), n * n)
        low = vals.min(axis=0)
        best_k = np.where(low < best, start + vals.argmin(axis=0), best_k)
        best = np.minimum(best, low)
    if isinstance(group, reps.CircleGroupModel):
        # a pair (i, i) is at distance exactly 0 at k = 0: refine the others;
        # t.x_j rotates each pair's x_j by its own matrix, entry by entry
        off = np.flatnonzero(i != j)
        p, q = pts[:, i[off]], pts[:, j[off]].T
        refined = _golden_refine(
            lambda t: np.linalg.norm(p - (matrices(t) * q[:, None]).sum(-1).T, axis=0),
            best_k[off] - 1.0, best_k[off] + 1.0)
        best[off] = np.minimum(best[off], refined)
    best = best.reshape(n, n)
    _require(np.isfinite(best), "the distance of points ({},{}) is not finite")
    return best


def circle_rotation_action(circle: reps.CircleGroupModel):
    """Rotation matrices of the sampled circle acting on R^2, of shape
    k.shape + (2, 2) at an array k of sample indices, which may be
    fractional.  The angle of index k is 2 pi k / order, computed at each
    call: the same bits as ``circle.angles()`` at integer k.
    """
    n = circle.order

    def act(k):
        theta = 2.0 * np.pi * np.asarray(k, dtype=float) / n
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)

    return act
