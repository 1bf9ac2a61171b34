"""Equivariant vector bundles over finite simplicial bases.

A bundle is per-vertex fibers of a single representation type with
orthogonal, equivariant transition matrices on oriented edges.  Sections
and frames are per-vertex fiber vectors, interpolated affinely across a
simplex in the gauge of its first vertex: the other vertices' values are
carried there by the transitions along the simplex's own edges.

The extension operations realize the boundary-extension and stabilization
constructions at finite scale: one barycentric subdivision provides the
"neighborhood of the boundary", generic choices come from a seeded sampler
with a retry budget of 64.  A section is certified nonvanishing by its
exact minimum norm over every face (``_min_norm``); a frame is certified
independent on a deterministic barycentric sample grid with at least 10^d
points per d-simplex, with a bound that also covers the points between the
grid points (see ``_certified``).
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np

from . import linalg, reps
from .errors import InvalidInputError, ObstructionError, ResampleFailureError

RETRY_BUDGET = 64
MIN_NORM = 1e-9  # least certified norm a section extension accepts
RANK_TOL = 1e-8  # rank cut for frames, orbit spans and cokernel coverage


# ---------------------------------------------------------------------------
# simplicial bases
# ---------------------------------------------------------------------------


def _face_closure(simplices):
    out = set()
    for s in simplices:
        s = tuple(sorted(s))
        if len(set(s)) != len(s):
            raise InvalidInputError(f"simplex {s} has repeated vertices")
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(s, k))
    return out


@dataclass(frozen=True)
class SimplicialBase:
    """A finite simplicial complex; vertices are hashable labels."""

    vertices: tuple
    simplices: frozenset

    @staticmethod
    def from_maximal(maximal) -> "SimplicialBase":
        closed = _face_closure(maximal)
        vertices = tuple(sorted({v for s in closed for v in s}, key=str))
        return SimplicialBase(vertices, frozenset(closed))

    @staticmethod
    def interval(n_edges: int = 1) -> "SimplicialBase":
        return SimplicialBase.from_maximal(
            [(i, i + 1) for i in range(n_edges)]
        )

    @staticmethod
    def circle(n_vertices: int = 3) -> "SimplicialBase":
        if n_vertices < 3:
            raise InvalidInputError("a triangulated circle needs >= 3 vertices")
        return SimplicialBase.from_maximal(
            [(i, (i + 1) % n_vertices) for i in range(n_vertices)]
        )

    @property
    def top_dim(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def top_simplices(self):
        d = self.top_dim
        return sorted(s for s in self.simplices if len(s) == d + 1)

    def edges(self):
        return sorted(s for s in self.simplices if len(s) == 2)

    def bfs_edges(self, roots):
        """Breadth-first (parent, child) edges from the given roots, visiting
        neighbours in ``str`` order of their labels."""
        adjacency: dict = {}
        for (u, v) in self.edges():
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        seen = set(roots)
        queue = collections.deque(roots)
        while queue:
            u = queue.popleft()
            for w in sorted(adjacency.get(u, []), key=str):
                if w not in seen:
                    seen.add(w)
                    yield u, w
                    queue.append(w)


def barycentric_subdivision(simplex) -> SimplicialBase:
    """One barycentric subdivision of a single simplex.

    New vertices are the nonempty subsets of the simplex's vertex set
    (as sorted tuples); simplices are strict chains of subsets.
    """
    verts = tuple(sorted(simplex))
    subsets = []
    for k in range(1, len(verts) + 1):
        subsets.extend(itertools.combinations(verts, k))
    maximal = []

    def chains(current):
        if len(current[-1]) == len(verts):
            maximal.append(tuple(current))
            return
        for s in subsets:
            if len(s) == len(current[-1]) + 1 and set(current[-1]) <= set(s):
                chains(current + [s])

    for v in verts:
        chains([(v,)])
    return SimplicialBase.from_maximal(maximal)


def barycentric_grid(dim: int):
    """Deterministic barycentric sample grid on a dim-simplex.

    Denominator m is the smallest with C(m+dim, dim) >= 10^dim.  Returns
    Fraction tuples summing to 1.  The certificates below read it as a
    cached, read-only (points, dim+1) float array of the same weights
    (``_grid_weights``).
    """
    m = 1
    while comb(m + dim, dim) < 10**dim:
        m += 1
    pts = []
    for cut in itertools.combinations(range(m + dim), dim):
        parts = []
        prev = -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(m + dim - 1 - prev)
        pts.append(tuple(Fraction(p, m) for p in parts))
    return pts


@cache
def _grid_weights(dim: int) -> np.ndarray:
    """``barycentric_grid(dim)`` as (points, dim+1) float weights, converted
    once per dim."""
    weights = np.array(barycentric_grid(dim), dtype=float)
    weights.flags.writeable = False
    return weights


def _interpolate(weights: np.ndarray, vertex_values: np.ndarray) -> np.ndarray:
    """Affine interpolation at every grid point of every simplex.

    ``vertex_values`` is (simplices, dim+1, ...) and ``weights`` is
    (points, dim+1); returns (simplices, points, ...).  Terms are added
    vertex by vertex, the order of ``sum(w * v for ...)``, so each point
    equals its one-at-a-time interpolation bit for bit.
    """
    w = weights.reshape(weights.shape + (1,) * (vertex_values.ndim - 2))
    acc = w[:, 0] * vertex_values[:, None, 0]
    for j in range(1, weights.shape[1]):
        acc += w[:, j] * vertex_values[:, None, j]
    return acc


# ---------------------------------------------------------------------------
# bundles and sections
# ---------------------------------------------------------------------------


@dataclass
class GBundleModel:
    """Equivariant bundle: uniform fiber representation plus per-oriented-edge
    orthogonal transition matrices commuting with the action.  An edge given
    in one direction gets the transpose the other way, the inverse once
    ``validate`` has checked orthogonality; an edge not given, the identity."""

    base: SimplicialBase
    rep: reps.RealRepresentation
    transitions: dict = field(default_factory=dict)

    def __post_init__(self):
        complete = {}
        edge_set = {e for e in self.base.edges()}
        edge_set |= {(v, u) for (u, v) in edge_set}
        d = self.rep.dim
        for (u, v), m in self.transitions.items():
            if (u, v) not in edge_set:
                raise InvalidInputError(
                    f"transition given for ({u},{v}), which is not an edge"
                )
            if np.shape(m) != (d, d):
                raise InvalidInputError(f"transition on edge ({u},{v}) is not {d} x {d}")
            complete[(u, v)] = m
        for (u, v) in self.base.edges():
            if (u, v) not in complete:
                complete[(u, v)] = (complete[(v, u)].T if (v, u) in complete
                                    else linalg.eye(d, self.exact))
            complete.setdefault((v, u), complete[(u, v)].T)
        self.transitions = complete

    @property
    def exact(self) -> bool:
        return self.rep.exact

    @property
    def fiber_dim(self) -> int:
        return self.rep.dim

    def transport(self, u, v) -> np.ndarray:
        """Matrix carrying fiber coordinates at u to coordinates at v
        along the oriented edge (u, v); the identity when u = v.  Every
        caller passes two vertices of one simplex of the base."""
        if u == v:
            return linalg.eye(self.fiber_dim, self.exact)
        return self.transitions[(u, v)]

    def validate(self, tol: float = linalg.TOL) -> None:
        """Orthogonality, mutual inversion and equivariance of every
        transition, each one stacked comparison over all edges on one stack
        of numerators T = N / k, or within tol in float mode.  The first
        failing edge in ``base.edges()`` order raises, for its first check."""
        edges, d, exact = self.base.edges(), self.fiber_dim, self.exact
        stack = np.array([self.transitions[e] for e in edges]
                         + [self.transitions[e[::-1]] for e in edges]).reshape(-1, d, d)
        if exact:
            (mats, _, bound), (stack, k) = self.rep.numerators, linalg.numerators(stack)
            # every factor is at most the larger bound; a product sums d terms
            bound = max(bound, k, max(map(abs, stack.flat), default=0))
            mats, stack = (linalg.narrow(x, bound, d) for x in (mats, stack))
        else:
            mats, k = self.rep.matrices, 1
        fwd, back = stack[:len(edges)], stack[len(edges):]
        ident = k * k * np.eye(d, dtype=stack.dtype)
        for (u, v), orthogonal, inverse, equivariant in zip(
                edges, linalg.same(fwd.transpose(0, 2, 1) @ fwd, ident, exact, tol),
                linalg.same(fwd @ back, ident, exact, tol),
                linalg.same(mats[:, None] @ fwd, fwd @ mats[:, None], exact, tol,
                            axes=(0, 2, 3))):
            if not orthogonal:
                raise InvalidInputError(f"transition on edge ({u},{v}) not orthogonal")
            if not inverse:
                raise InvalidInputError(
                    f"transitions on edge ({u},{v}) are not mutually inverse")
            if not equivariant:
                res = reps.equivariance_residual(self.rep, self.rep, self.transitions[(u, v)])
                raise InvalidInputError(
                    f"transition on edge ({u},{v}) is not equivariant (residual {res})")


def decompose_bundle(bundle: GBundleModel, tol: float = linalg.TOL) -> dict:
    """Split a bundle into its fixed part and isotypic components: the rank
    of each component, by label.

    Transitions commute with the action, hence with each character
    projector, so the fiber-level character projectors of ``rep``
    describe the whole family, and each rank holds on every connected
    component.  ``reps.projector_check`` verifies the projector identities
    and that every transition commutes with every projector.  A transition
    that does not is named by its edge; a failed identity means an invalid
    character table.  The first failure raises InvalidInputError, as does a
    non-integral rank.
    """
    edges = {f"({u},{v})": bundle.transitions[(u, v)] for (u, v) in bundle.base.edges()}
    ranks, _, failed = reps.projector_check(bundle.rep, tol, commuting=edges)
    if failed:
        identity, label = failed[0]
        if identity in edges:
            raise InvalidInputError(f"transition on edge {identity} does not "
                                    f"preserve the {label!r} component")
        raise InvalidInputError(f"character projectors fail the {identity} identity "
                                f"at {label!r}; invalid character table")
    return ranks


# ---------------------------------------------------------------------------
# interpolation and sampling
# ---------------------------------------------------------------------------


def _min_norm(simplices: np.ndarray) -> float:
    """Exact minimum Euclidean norm of the affine interpolation over a
    stack of closed simplices, given as (simplices, k, d) vertex values.

    Each face of each simplex, the full face included, projects the origin
    onto the affine hull of its values; a projection with nonnegative
    barycentric weights is a point of the face.  The least such norm is the
    minimum, since the nearest point lies inside the hull of a face with
    affinely independent values, and there it is that face's projection
    (Wolfe, Math. Programming 1976).  On an edge (a, b) this is
    |a + t (b - a)| at t = -a.(b - a) / |b - a|^2 clamped to [0, 1].
    """
    k, d = simplices.shape[1:]
    best = np.linalg.norm(simplices, axis=2).min()  # the faces of one vertex
    for size in range(2, k + 1):
        faces = simplices[:, list(itertools.combinations(range(k), size))]
        faces = faces.reshape(-1, size, d)
        a, steps = faces[:, 0], faces[:, 1:] - faces[:, :1]
        t = -(np.linalg.pinv(np.swapaxes(steps, 1, 2)) @ a[:, :, None])[..., 0]
        nearest = a + np.einsum("fk,fkd->fd", t, steps)
        inside = np.all(t >= 0.0, axis=1) & (t.sum(axis=1) <= 1.0)
        best = min(best, np.linalg.norm(nearest[inside], axis=1).min(initial=np.inf))
    return float(best)


def section_min_norm(base: SimplicialBase, values: dict) -> float:
    """Exact minimum interpolated norm over every top simplex of a base
    whose simplices all live in one gauge (e.g. a subdivided simplex)."""
    return _min_norm(np.array([[linalg.as_float(values[v]) for v in sorted(s, key=str)]
                               for s in base.top_simplices()], dtype=float))


# ---------------------------------------------------------------------------
# section extension over a simplex
# ---------------------------------------------------------------------------


@dataclass
class ExtensionResult:
    """A section on the once-subdivided simplex, in the simplex gauge: one
    fiber vector per vertex of ``base``."""

    base: SimplicialBase
    section: dict
    min_norm: float


def _extension_slack(n: int, dim_v: int) -> int:
    """Smallest multiple of dim_v strictly exceeding n: the fiber rank a
    generic nonvanishing extension over an n-simplex needs.  Equals
    (n+1)*dim_v when dim_v = 1."""
    return dim_v * -(-(n + 1) // dim_v)


def _single_component_dim(bundle: GBundleModel) -> int:
    """dim V of the unique isotypic type of the fiber (1 for the fixed part).

    The extension operations model sections of a lambda-bundle; mixed fibers
    are rejected.
    """
    nonzero = [(label, r) for label, r in decompose_bundle(bundle).items() if r > 0]
    if len(nonzero) != 1:
        raise InvalidInputError(
            "extension requires a single-isotypic-type fiber; "
            f"components present: {[l for l, _ in nonzero]}"
        )
    label = nonzero[0][0]
    if label == "fixed":
        return 1
    dims = {ir.label: ir.dim_V for ir in bundle.rep.group.irreps}
    return dims[label]


def extend_nonvanishing_section(bundle: GBundleModel, simplex,
                                boundary_section: dict,
                                seed: int = 0) -> ExtensionResult:
    """Extend a nowhere-vanishing boundary section across a simplex.

    The extension lives on the once-subdivided simplex in the gauge of its
    smallest vertex: barycenters of proper faces carry the interpolated
    boundary values (the first barycentric ring), only the full barycenter
    is chosen, preferring a direction orthogonal to all boundary values and
    falling back to a seeded sampler with a retry budget of 64.  Sampling
    and the certificate run in float arithmetic: each candidate is kept
    once the exact minimum norm of its interpolation over the subdivision
    (``section_min_norm``) is above the acceptance threshold ``MIN_NORM``.
    A boundary section whose exact minimum norm over the proper faces is at
    most ``MIN_NORM`` is invalid input: every face barycenter lies on a
    proper face, so no candidate could beat the threshold there.
    """
    simplex = tuple(sorted(simplex))
    if simplex not in bundle.base.simplices:
        raise InvalidInputError(f"{simplex} is not a simplex of the base")
    n = len(simplex) - 1
    dim_v = _single_component_dim(bundle)
    d = bundle.fiber_dim
    required = _extension_slack(n, dim_v)
    if d < required:
        raise ObstructionError(
            "extension rank hypothesis fails: need fiber rank "
            f">= {required} over a {n}-simplex, rank is {d}",
            {"required": required, "rank": d},
        )
    root = simplex[0]
    bdry = {}
    for v in simplex:
        if v not in boundary_section:
            raise InvalidInputError(f"boundary section missing at vertex {v}")
        if np.shape(boundary_section[v]) != (d,):
            raise InvalidInputError(
                f"boundary section at vertex {v} is not a vector of length {d}")
        bdry[v] = linalg.as_float(bundle.transport(v, root)
                                  @ np.asarray(boundary_section[v]))
    # one barycentric subdivision: proper-face barycenters (the first ring)
    # carry interpolated boundary values, only the full barycenter is free
    sub = barycentric_subdivision(simplex)
    values = {}
    for subset in sub.vertices:
        values[subset] = sum(bdry[v] for v in subset) / len(subset)
    full = tuple(sorted(simplex))
    # the boundary must be nonvanishing before extension, exactly on every
    # proper face: the faces of the facets
    corners = np.stack([bdry[v] for v in simplex])
    if n >= 1 and _min_norm(corners[list(itertools.combinations(range(n + 1), n))]) <= MIN_NORM:
        raise InvalidInputError("boundary section vanishes on the boundary")
    rng = np.random.default_rng(seed)
    scale = float(np.mean([np.linalg.norm(bdry[v]) for v in simplex])) or 1.0
    # candidate order: straight affine continuation first (so nonvanishing
    # boundary data that already extends is kept), then a direction
    # orthogonal to all boundary values, then seeded random draws
    candidates = [values[full]]
    kernel = linalg.nullspace(corners, linalg.TOL)
    if kernel.shape[1] > 0:
        candidates.append(kernel[:, 0] / np.linalg.norm(kernel[:, 0]) * scale)
    for _ in range(RETRY_BUDGET):
        cand = rng.normal(size=d)
        candidates.append(cand / np.linalg.norm(cand) * scale)
    for cand in candidates[: RETRY_BUDGET + 1]:
        values[full] = cand
        m = section_min_norm(sub, values)
        if m > MIN_NORM:
            return ExtensionResult(sub, dict(values), m)
    raise ResampleFailureError(
        "could not find a nonvanishing extension within the retry budget")


# ---------------------------------------------------------------------------
# frame extension and cokernel stabilization
# ---------------------------------------------------------------------------


def orbit_stack(rep: reps.RealRepresentation, columns) -> np.ndarray:
    """Every group translate of every column: a (..., d, k) stack of frames
    becomes (..., d, k * |G|), the translates of column j in block j.  Their
    span is the invariant subspace the columns generate."""
    mats = rep.float_matrices
    cols = linalg.as_float(columns)
    moved = mats.reshape(mats.shape[:1] + (1,) * (cols.ndim - 2) + mats.shape[1:]) @ cols
    return np.moveaxis(moved, 0, -1).reshape(cols.shape[:-1] + (-1,))


def _certified(bundle: GBundleModel, frames: dict, simplex, rank: int) -> bool:
    """Whether the frame, interpolated across ``simplex`` in the gauge of its
    first vertex, keeps orbit rank >= ``rank`` on the whole simplex, not only
    at the grid points.

    The orbit matrix O(x) = sum_j x_j O_j is affine in the barycentric point
    x (O_j is the orbit matrix at vertex j).  The grid of an
    n-simplex has denominator m (its smallest positive weight is 1/m), and
    every x lies within l1 distance rho = (n+1)/(2m) of a grid point p:
    round each m x_j down, which leaves fractional parts f_j summing to an
    integer k <= n, and round the k largest up instead.  The k largest f_j
    sum to s >= k^2/(n+1), so m ||x - p||_1 = 2(k - s) <= 2k(n+1-k)/(n+1)
    <= (n+1)/2.  The weights x - p sum to zero, so
    ||O(x) - O(p)||_2 <= rho L with L = max_j ||O_j - O_0||_2, and Weyl's
    inequality gives sigma_r(O(x)) >= sigma_r(O(p)) - rho L.  Hence
    sigma_r > rho L at every grid point certifies rank r on the simplex;
    sigma_r must also exceed the rank cut RANK_TOL.  All grid points go
    through one stacked SVD.
    """
    root = simplex[0]
    local = np.stack([
        linalg.as_float(bundle.transport(v, root)) @ linalg.as_float(frames[v])
        for v in simplex
    ])
    orbits = orbit_stack(bundle.rep, local)
    weights = _grid_weights(len(simplex) - 1)
    rho = len(simplex) / 2 * weights[weights > 0].min()
    lip = np.linalg.norm(orbits - orbits[0], ord=2, axis=(1, 2)).max()
    sigma = np.linalg.svd(_interpolate(weights, orbits[None])[0], compute_uv=False)
    return sigma.shape[1] >= rank and bool(
        np.all(sigma[:, rank - 1] > max(RANK_TOL, rho * lip)))


def _draw(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    cand = rng.normal(size=shape)
    return cand / np.linalg.norm(cand, axis=0) * scale


def _extend_frame(bundle: GBundleModel, root, column: np.ndarray, built: dict,
                  rank: int, rng: np.random.Generator) -> dict:
    """Extend a seed column at vertex ``root`` to every vertex so that with
    the columns already ``built`` it keeps orbit rank ``rank``; returns the
    new column per vertex.

    The seed is carried along ``base.bfs_edges``; a vertex out of its reach
    gets a seeded draw.  A vertex where the combined orbit rank drops is
    reseeded on arrival, so transport continues from the new value.  Then
    every top simplex must pass ``_certified``; one that fails is repaired
    by reseeding its newest vertex until every top simplex through that
    vertex passes, with RETRY_BUDGET draws per reseed.  The root is the
    oldest vertex, so only a failure at the root alone could reseed it, and
    none occurs for the seeds ``stabilize_cokernel`` passes: a column
    orthogonal to the invariant span built at the root has an orbit span
    orthogonal to it, so the two ranks add.
    """
    base, d = bundle.base, bundle.fiber_dim
    m = built[base.vertices[0]].shape[1]
    frames: dict = {}

    def arrivals():
        yield root, column
        for u, w in base.bfs_edges([root]):
            yield w, linalg.as_float(bundle.transport(u, w)) @ frames[u][:, m:]
        for w in base.vertices:
            if w not in frames:  # out of the seed's reach
                yield w, _draw(rng, (d, 1), 1.0)

    def repair(cell, cells):
        order = list(frames)
        target = max(cell, key=order.index)
        touching = [c for c in cells if target in c]
        scale = float(np.mean(np.linalg.norm(frames[target][:, m:], axis=0))) or 1.0
        for _ in range(RETRY_BUDGET):
            frames[target][:, m:] = _draw(rng, (d, 1), scale)
            if all(_certified(bundle, frames, c, rank) for c in touching):
                return
        raise ResampleFailureError(f"could not repair the frame on {cell}")

    for w, cols in arrivals():
        frames[w] = np.concatenate([built[w], linalg.as_float(cols)], axis=1)
        if not _certified(bundle, frames, (w,), rank):
            repair((w,), [(w,)])
    tops = base.top_simplices()
    for s in tops:
        if not _certified(bundle, frames, s, rank):
            repair(s, tops)
    return {v: frames[v][:, m:] for v in base.vertices}


@dataclass
class StabilizationResult:
    """A trivial invariant subbundle covering every cokernel: per-vertex
    frame columns of the target bundle, plus its constant rank."""

    frames: dict
    rank: int


def stabilize_cokernel(bundle: GBundleModel, linearizations: dict,
                       seed: int = 0) -> StabilizationResult:
    """Build a trivial invariant subbundle of ``bundle`` whose orbit span
    covers, with the image of the linearization, the fiber at every vertex.

    Vertices are visited in ``str`` order.  While the cokernel at a vertex
    is not covered, a unit direction orthogonal to the image and to the
    orbit span built so far seeds one more frame column, which the frame
    extension engine ``_extend_frame`` carries to every vertex: the
    frame keeps orbit rank dim V per column at every vertex and, by a grid
    certificate that holds between the grid points (``_certified``), on the
    whole of every top simplex.  The rank is dim V per column.
    """
    base, rep, d = bundle.base, bundle.rep, bundle.fiber_dim
    dim_v = _single_component_dim(bundle)
    lins = {}
    for v in base.vertices:
        if v not in linearizations:
            raise InvalidInputError(f"linearization missing at vertex {v}")
        lins[v] = linalg.as_float(linearizations[v])
        if lins[v].ndim != 2 or lins[v].shape[0] != d:
            raise InvalidInputError(
                f"linearization at vertex {v} must be a matrix with {d} rows")
    max_deficit = max(d - linalg.rank(lin, RANK_TOL) for lin in lins.values())
    frames = {v: np.zeros((d, 0)) for v in base.vertices}
    if max_deficit == 0:
        return StabilizationResult(frames, 0)
    slack = _extension_slack(base.top_dim, dim_v) if len(base.vertices) > 1 else 0
    if d < max_deficit + slack:
        raise ObstructionError(
            "ambient rank too small for cokernel stabilization",
            {"rank": d, "needed": max_deficit, "slack": slack},
        )
    rng = np.random.default_rng(seed)
    for v in sorted(base.vertices, key=str):
        while True:
            span = np.concatenate([lins[v], orbit_stack(rep, frames[v])], axis=1)
            if linalg.rank(span, RANK_TOL) >= d:
                break
            u = linalg.nullspace(span.T, RANK_TOL)[:, :1]
            new = _extend_frame(bundle, v, u, frames,
                                (frames[v].shape[1] + 1) * dim_v, rng)
            frames = {x: np.concatenate([frames[x], new[x]], axis=1) for x in base.vertices}
    return StabilizationResult(frames, frames[base.vertices[0]].shape[1] * dim_v)
