"""Equivariant vector bundles over finite simplicial bases.

A bundle is per-vertex fibers of a single representation type with
orthogonal, equivariant transition matrices on oriented edges.  Sections
are per-vertex fiber vectors, interpolated affinely in a spanning-tree
trivialization per connected component; transition matrices apply at
tree-crossing edges.

The extension operations realize the boundary-extension and stabilization
constructions at finite scale: one barycentric subdivision provides the
"neighborhood of the boundary", generic choices come from a seeded sampler
with a retry budget of 64, and all nonvanishing/independence postconditions
are certified on a deterministic barycentric sample grid with at least
10^d points per d-simplex.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import comb, prod

import numpy as np

from . import linalg, reps
from .errors import InvalidInputError, ObstructionError, ResampleFailureError

RETRY_BUDGET = 64
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

    def components(self) -> list[set]:
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for s in self.simplices:
            root = find(s[0])
            for v in s[1:]:
                parent[find(v)] = root
        groups: dict = {}
        for v in self.vertices:
            groups.setdefault(find(v), set()).add(v)
        return sorted(groups.values(), key=lambda c: str(min(c, key=str)))

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

    def validate(self) -> None:
        for s in self.simplices:
            if tuple(sorted(s)) != s:
                raise InvalidInputError(f"simplex {s} is not sorted")
            for k in range(1, len(s)):
                for face in itertools.combinations(s, k):
                    if face not in self.simplices:
                        raise InvalidInputError(f"face {face} of {s} is missing")


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


def subdivision_coordinates(subset, simplex) -> np.ndarray:
    """Barycentric coordinates (w.r.t. the original simplex) of the
    barycenter labeled by ``subset``."""
    verts = tuple(sorted(simplex))
    coords = np.zeros(len(verts))
    for v in subset:
        coords[verts.index(v)] = 1.0 / len(subset)
    return coords


def barycentric_grid(dim: int, min_points: int | None = None):
    """Deterministic barycentric sample grid on a dim-simplex.

    Denominator m is the smallest with C(m+dim, dim) >= min_points
    (default 10^dim).  Returns Fraction tuples summing to 1.  The
    certificates below read the default grid as a cached, read-only
    (points, dim+1) float array of the same weights (``_grid_weights``).
    """
    if min_points is None:
        min_points = 10**dim
    m = 1
    while comb(m + dim, dim) < min_points:
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
def _default_weights(dim: int) -> np.ndarray:
    weights = np.array(barycentric_grid(dim), dtype=float)
    weights.flags.writeable = False
    return weights


def _grid_weights(dim: int, grid=None) -> np.ndarray:
    """(points, dim+1) float weights: a caller's grid of weight tuples, or
    the default ``barycentric_grid(dim)``, converted once per dim."""
    if grid is None:
        return _default_weights(dim)
    return np.array(grid, dtype=float).reshape(len(grid), dim + 1)


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


def _min_norm_on_grid(vertex_values: np.ndarray, weights: np.ndarray) -> float:
    """Minimum Euclidean norm of the interpolation over every grid point of
    every simplex; inf on an empty grid.

    Norms are ``sqrt(p @ p)`` as one stacked matmul, the dot product
    ``np.linalg.norm`` takes of one vector (einsum or ``norm(axis=-1)`` may
    differ in the last ulp), and like ``min`` over floats the minimum skips
    NaN.
    """
    points = _interpolate(weights, vertex_values)
    points = points.reshape(points.shape[:2] + (prod(points.shape[2:]),))
    squares = (points[..., None, :] @ points[..., :, None])[..., 0, 0]
    return float(np.fmin.reduce(np.sqrt(squares), axis=None, initial=np.inf))


# ---------------------------------------------------------------------------
# bundles and sections
# ---------------------------------------------------------------------------


@dataclass
class GBundleModel:
    """Equivariant bundle: uniform fiber representation plus per-oriented-edge
    orthogonal transition matrices commuting with the action."""

    base: SimplicialBase
    rep: reps.RealRepresentation
    transitions: dict = field(default_factory=dict)

    def __post_init__(self):
        complete = {}
        edge_set = {e for e in self.base.edges()}
        edge_set |= {(v, u) for (u, v) in edge_set}
        for (u, v), m in self.transitions.items():
            if (u, v) not in edge_set:
                raise InvalidInputError(
                    f"transition given for ({u},{v}), which is not an edge"
                )
            complete[(u, v)] = m
        for (u, v) in self.base.edges():
            if (u, v) not in complete and (v, u) not in complete:
                complete[(u, v)] = linalg.eye(self.rep.dim, self.exact)
            if (u, v) in complete and (v, u) not in complete:
                complete[(v, u)] = linalg.inv(complete[(u, v)])
            if (v, u) in complete and (u, v) not in complete:
                complete[(u, v)] = linalg.inv(complete[(v, u)])
        self.transitions = complete

    @property
    def exact(self) -> bool:
        return self.rep.exact

    @property
    def fiber_dim(self) -> int:
        return self.rep.dim

    def transport(self, u, v) -> np.ndarray:
        """Matrix carrying fiber coordinates at u to coordinates at v
        along the oriented edge (u, v)."""
        try:
            return self.transitions[(u, v)]
        except KeyError:
            raise InvalidInputError(f"no edge between {u} and {v}") from None

    def validate(self, tol: float = linalg.TOL) -> None:
        ident = linalg.eye(self.fiber_dim, self.exact)
        for (u, v) in self.base.edges():
            t_uv = self.transitions[(u, v)]
            t_vu = self.transitions[(v, u)]
            if not linalg.mat_eq(t_uv @ t_vu, ident, tol):
                raise InvalidInputError(
                    f"transitions on edge ({u},{v}) are not mutually inverse"
                )
            if not linalg.mat_eq(t_uv.T @ t_uv, ident, tol):
                raise InvalidInputError(f"transition on edge ({u},{v}) not orthogonal")
            res = reps.equivariance_residual(self.rep, self.rep, t_uv)
            bad = (res != 0) if self.exact else (res > tol)
            if bad:
                raise InvalidInputError(
                    f"transition on edge ({u},{v}) is not equivariant "
                    f"(residual {res})"
                )

    def gauges(self) -> dict:
        """Spanning-tree trivialization: per vertex, the matrix carrying its
        fiber coordinates to the frame of its component root."""
        out = {}
        for comp in self.base.components():
            root = min(comp, key=str)
            out[root] = linalg.eye(self.fiber_dim, self.exact)
            for u, w in self.base.bfs_edges([root]):
                out[w] = out[u] @ self.transport(w, u)
        return out


@dataclass
class SectionModel:
    """Per-vertex fiber vectors; evaluation at a vertex returns the stored
    vector, interior values come from affine interpolation in a gauge."""

    values: dict

    def value(self, vertex) -> np.ndarray:
        return self.values[vertex]


def evaluate_section(bundle: GBundleModel, section: SectionModel, simplex,
                     weights) -> np.ndarray:
    """Affine interpolation of a section at barycentric coordinates inside
    a simplex, in the spanning-tree gauge of its component.

    Vertex values are carried to the component root frame (transitions
    apply at tree-crossing edges) and combined affinely; the returned
    vector lives in the root frame.
    """
    simplex = tuple(sorted(simplex))
    if simplex not in bundle.base.simplices:
        raise InvalidInputError(f"{simplex} is not a simplex of the base")
    if len(weights) != len(simplex):
        raise InvalidInputError("one barycentric weight per simplex vertex")
    gauges = bundle.gauges()
    acc = None
    for w, v in zip(weights, simplex):
        term = w * (gauges[v] @ np.asarray(section.value(v)))
        acc = term if acc is None else acc + term
    return acc


@dataclass
class IsotypicSplitting:
    """Fiberwise isotypic projector family and the rank of each component.

    Transitions commute with the action, hence with each character
    projector, so a single fiber-level projector per label describes the
    whole family, and each rank holds on every connected component.
    """

    rep: reps.RealRepresentation
    ranks: dict

    @cached_property
    def projectors(self) -> dict:
        return reps.all_projectors(self.rep)


def decompose_bundle(bundle: GBundleModel,
                     tol: float = linalg.TOL) -> IsotypicSplitting:
    """Split a bundle into its fixed part and isotypic components.

    ``reps.projector_check`` verifies the projector identities and that
    every transition commutes with every projector.  A transition that does
    not is named by its edge; a failed identity means an invalid character
    table.  The first failure raises InvalidInputError, as does a non-integral rank.
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
    return IsotypicSplitting(bundle.rep, ranks)


def equivariant_average_bundle_map(bundle: GBundleModel, raw_map: dict,
                                   target: GBundleModel | None = None) -> dict:
    """Average a per-vertex linear map over the group, vertex by vertex.

    The result is equivariant; an already-equivariant input is returned
    unchanged (averaging fixes it).
    """
    target = target or bundle
    out = {}
    for v in bundle.base.vertices:
        if v not in raw_map:
            raise InvalidInputError(f"raw map missing at vertex {v}")
        out[v] = reps.conjugation_average(target.rep, bundle.rep, raw_map[v])
    return out


def invariant_metric(rep: reps.RealRepresentation) -> np.ndarray:
    """Group-averaged fiber metric; equals the identity for orthogonal reps."""
    n = rep.group.order
    acc = (rep.matrices.transpose(0, 2, 1) @ rep.matrices).sum(axis=0)
    if rep.exact:
        return acc * Fraction(1, n)
    return acc / n


@dataclass
class ComplementResult:
    frames: dict
    projector_onto: dict
    projector_complement: dict


def invariant_complement(bundle: GBundleModel, subbundle: dict) -> ComplementResult:
    """Invariant complement of a constant-rank invariant subbundle.

    ``subbundle`` maps each vertex to a matrix whose columns span the fiber
    of the subbundle there.  Uses the group-averaged metric; returns per
    vertex a complement frame plus the complementary pair of projectors.
    """
    rep = bundle.rep
    metric = invariant_metric(rep)
    d = bundle.fiber_dim
    ranks = {}
    for v in bundle.base.vertices:
        if v not in subbundle:
            raise InvalidInputError(f"subbundle frame missing at vertex {v}")
        ranks[v] = linalg.rank(subbundle[v])
    distinct = sorted(set(ranks.values()))
    if len(distinct) > 1:
        jumps = [v for v in bundle.base.vertices if ranks[v] != distinct[0]]
        raise InvalidInputError(f"subbundle rank jumps at vertices {jumps}")
    frames, proj_f, proj_c = {}, {}, {}
    ident = linalg.eye(d, bundle.exact)
    for v in bundle.base.vertices:
        f = subbundle[v]
        for g in range(rep.group.order):
            moved = rep.matrices[g] @ f
            if linalg.rank(np.concatenate([f, moved], axis=1)) != ranks[v]:
                raise InvalidInputError(
                    f"subbundle at vertex {v} is not invariant under element {g}"
                )
        gram = f.T @ metric @ f
        p = f @ linalg.inv(gram) @ f.T @ metric
        comp = linalg.nullspace(f.T @ metric)
        frames[v] = comp
        proj_f[v] = p
        proj_c[v] = ident - p
    for (u, v) in bundle.base.edges():
        t = bundle.transitions[(u, v)]
        moved = t @ subbundle[u]
        if linalg.rank(np.concatenate([subbundle[v], moved], axis=1)) != ranks[v]:
            raise InvalidInputError(
                f"subbundle is not preserved by the transition on edge ({u},{v})"
            )
    return ComplementResult(frames, proj_f, proj_c)


# ---------------------------------------------------------------------------
# interpolation and sampling
# ---------------------------------------------------------------------------


def sample_min_norm(simplex_values: dict, grid=None) -> float:
    """Minimum Euclidean norm of the affine interpolation over a simplex.

    ``simplex_values`` maps each simplex vertex to its fiber value in a
    common gauge.  Uses the deterministic barycentric grid unless a grid of
    weight tuples (in ``sorted(key=str)`` vertex order) is given; all grid
    points are evaluated in one stacked pass, and each norm equals
    ``np.linalg.norm`` of that point.
    """
    verts = sorted(simplex_values, key=str)
    vals = np.stack([linalg.as_float(simplex_values[v]) for v in verts])
    return _min_norm_on_grid(vals[None], _grid_weights(len(verts) - 1, grid))


def section_min_norm(base: SimplicialBase, values: dict, grid_points=None) -> float:
    """Minimum interpolated norm over every top simplex of a base whose
    simplices all live in one gauge (e.g. a subdivided simplex).

    The vertex values of all top simplices are stacked and evaluated on the
    grid in one pass; the result equals the minimum of ``sample_min_norm``
    over the top simplices.
    """
    tops = base.top_simplices()
    vals = np.array([[linalg.as_float(values[v]) for v in sorted(s, key=str)]
                     for s in tops], dtype=float)
    return _min_norm_on_grid(vals, _grid_weights(base.top_dim, grid_points))


# ---------------------------------------------------------------------------
# section extension over a simplex
# ---------------------------------------------------------------------------


@dataclass
class ExtensionResult:
    """A section on the once-subdivided simplex, in the simplex gauge."""

    base: SimplicialBase
    section: SectionModel
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
    splitting = decompose_bundle(bundle)
    nonzero = [(label, r) for label, r in splitting.ranks.items() if r > 0]
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
    and the grid certificate run in float arithmetic: the boundary faces,
    and then each candidate's subdivision, are certified by stacked passes
    over all grid points of their simplices, with norms equal to
    ``np.linalg.norm`` of each point.
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
        gauge = (linalg.eye(d, bundle.exact) if v == root
                 else bundle.transport(v, root))
        bdry[v] = linalg.as_float(gauge @ np.asarray(boundary_section[v]))
    # boundary faces of the simplex must be nonvanishing before extension
    if n >= 1:
        face_min = min(
            sample_min_norm({v: bdry[v] for v in face})
            for face in itertools.combinations(simplex, len(simplex) - 1)
        )
        if face_min <= 0.0:
            raise InvalidInputError("boundary section vanishes on the boundary")
    # one barycentric subdivision: proper-face barycenters (the first ring)
    # carry interpolated boundary values, only the full barycenter is free
    sub = barycentric_subdivision(simplex)
    values = {}
    for subset in sub.vertices:
        values[subset] = sum(bdry[v] for v in subset) / len(subset)
    full = tuple(sorted(simplex))
    rng = np.random.default_rng(seed)
    scale = float(np.mean([np.linalg.norm(bdry[v]) for v in simplex])) or 1.0
    # candidate order: straight affine continuation first (so nonvanishing
    # boundary data that already extends is kept), then a direction
    # orthogonal to all boundary values, then seeded random draws
    candidates = [values[full]]
    span = np.stack([bdry[v] for v in simplex], axis=1)
    kernel = linalg.nullspace(span.T, linalg.TOL)
    if kernel.shape[1] > 0:
        candidates.append(kernel[:, 0] / np.linalg.norm(kernel[:, 0]) * scale)
    for _ in range(RETRY_BUDGET):
        cand = rng.normal(size=d)
        candidates.append(cand / np.linalg.norm(cand) * scale)
    last = None
    for cand in candidates[: RETRY_BUDGET + 1]:
        values[full] = cand
        m = section_min_norm(sub, values)
        if m > 1e-9:
            return ExtensionResult(sub, SectionModel(dict(values)), m)
        last = m
    raise ResampleFailureError(
        "could not find a nonvanishing extension within the retry budget",
        {"simplex": simplex, "last_min_norm": last},
    )


# ---------------------------------------------------------------------------
# frame extension and cokernel stabilization
# ---------------------------------------------------------------------------


def orbit_matrix(rep: reps.RealRepresentation, column: np.ndarray) -> np.ndarray:
    """All group translates of a fiber vector, stacked as columns; their span
    is the invariant subspace generated by the vector."""
    return (linalg.as_float(rep.matrices) @ linalg.as_float(column)).T


def _orbit_rank(rep, columns: list) -> int:
    if not columns:
        return 0
    mats = [orbit_matrix(rep, c) for c in columns]
    return linalg.rank(np.concatenate(mats, axis=1), RANK_TOL)


def frame_independent_on_grid(bundle: GBundleModel, frames: dict,
                              expected_rank: int) -> bool:
    """Check the interpolated frame keeps full orbit rank on the sample grid
    of every top simplex (in the simplex gauge)."""
    return all(
        _frame_ok_on_simplex(bundle, frames, s, expected_rank)
        for s in bundle.base.top_simplices()
    )


def component_subbundle(bundle: GBundleModel, label: str):
    """Compress a bundle to one isotypic component.

    Returns (sub_bundle, basis): ``basis`` has orthonormal columns spanning
    the component in every vertex frame (projectors commute with all
    transitions), and ``sub_bundle`` is the float bundle in those
    coordinates.
    """
    splitting = decompose_bundle(bundle)
    p = linalg.as_float(splitting.projectors[label])
    basis = linalg.orthonormal_columns(p)
    if basis.shape[1] == 0:
        raise InvalidInputError(f"component {label!r} has rank zero")
    sub_mats = basis.T @ linalg.as_float(bundle.rep.matrices) @ basis
    sub_rep = reps.RealRepresentation(bundle.rep.group, sub_mats)
    sub_trans = {
        e: basis.T @ linalg.as_float(t) @ basis for e, t in bundle.transitions.items()
    }
    return GBundleModel(bundle.base, sub_rep, sub_trans), basis


def _column_component(bundle: GBundleModel, splitting: IsotypicSplitting,
                      column: np.ndarray) -> str:
    """The isotypic component containing a fiber vector; mixed vectors are
    rejected (invariant frames are extended component by component)."""
    col = linalg.as_float(column)
    hits = []
    for label, p in splitting.projectors.items():
        piece = linalg.as_float(p) @ col
        if np.linalg.norm(piece) > RANK_TOL * max(1.0, np.linalg.norm(col)):
            hits.append(label)
    if len(hits) != 1:
        raise InvalidInputError(
            f"frame column is not contained in a single isotypic component: {hits}"
        )
    return hits[0]


def extend_trivial_subbundle(bundle: GBundleModel, simplex, frame: dict,
                             seed: int = 0) -> dict:
    """Extend an invariant frame given on one simplex to a global trivial
    invariant subbundle of the same rank.

    Each frame column must lie in a single isotypic component; columns are
    extended component by component, by transport along a breadth-first
    tree in running orthogonal complements.  A simplex whose interpolated
    frame drops rank is repaired by reseeding the newest vertex value
    (seeded sampler, retry budget 64).
    """
    simplex = tuple(sorted(simplex))
    if simplex not in bundle.base.simplices:
        raise InvalidInputError(f"{simplex} is not a simplex of the base")
    for v in simplex:
        if v not in frame:
            raise InvalidInputError(f"frame missing at simplex vertex {v}")
    splitting = decompose_bundle(bundle)
    dims = {ir.label: ir.dim_V for ir in bundle.rep.group.irreps}
    dims["fixed"] = 1
    n = bundle.base.top_dim
    n_cols = next(iter(frame.values())).shape[1]
    root = simplex[0]
    by_component: dict[str, list[int]] = {}
    for j in range(n_cols):
        label = _column_component(bundle, splitting, linalg.as_float(frame[root])[:, j])
        by_component.setdefault(label, []).append(j)
    for label, cols in by_component.items():
        need = len(cols) * dims[label] + _extension_slack(n, dims[label])
        if splitting.ranks[label] < need:
            raise ObstructionError(
                f"frame extension rank hypothesis fails in component {label!r}",
                {"component": label, "required": need, "rank": splitting.ranks[label]},
            )
    out = {v: np.zeros((bundle.fiber_dim, n_cols)) for v in bundle.base.vertices}
    for comp_idx, (label, cols) in enumerate(sorted(by_component.items())):
        sub_bundle, basis = component_subbundle(bundle, label)
        sub_frame = {
            v: basis.T @ linalg.as_float(frame[v])[:, cols] for v in simplex
        }
        sub_out = _extend_frame_single(
            sub_bundle, simplex, sub_frame, dims[label], seed + comp_idx
        )
        for v in bundle.base.vertices:
            out[v][:, cols] = basis @ sub_out[v]
    total = sum(len(cols) * dims[label] for label, cols in by_component.items())
    for v in bundle.base.vertices:
        if _orbit_rank(bundle.rep, [out[v][:, j] for j in range(n_cols)]) < total:
            raise ResampleFailureError(
                f"combined frame is degenerate at vertex {v}", {"vertex": v}
            )
    return out


def _extend_frame_single(bundle: GBundleModel, simplex, frame: dict,
                         dim_v: int, seed: int) -> dict:
    """Frame extension within a single-isotypic-type bundle."""
    rep = bundle.rep
    d = bundle.fiber_dim
    n_cols = next(iter(frame.values())).shape[1]
    frames = {v: linalg.as_float(frame[v]) for v in simplex}
    for u, w in bundle.base.bfs_edges(simplex):
        frames[w] = linalg.as_float(bundle.transport(u, w) @ frames[u])
    order = list(frames)
    rng = np.random.default_rng(seed)
    for w in bundle.base.vertices:
        if w not in frames:  # disconnected component: fresh seeded values
            cand = rng.normal(size=(d, n_cols))
            frames[w] = cand / np.linalg.norm(cand, axis=0)
    expected = n_cols * dim_v
    for v in bundle.base.vertices:
        if _orbit_rank(rep, [frames[v][:, j] for j in range(n_cols)]) < expected:
            raise ResampleFailureError(
                f"transported frame is degenerate at vertex {v}", {"vertex": v}
            )
    for s in bundle.base.top_simplices():
        if _frame_ok_on_simplex(bundle, frames, s, expected):
            continue
        candidates = [v for v in s if v not in simplex]
        if not candidates:
            raise ResampleFailureError(
                f"frame on the seed simplex itself is degenerate on {s}",
                {"simplex": s},
            )
        target = max(candidates, key=order.index)
        scale = float(np.mean(np.linalg.norm(frames[target], axis=0))) or 1.0
        ok = False
        for _ in range(RETRY_BUDGET):
            cand = rng.normal(size=(d, n_cols))
            cand = cand / np.linalg.norm(cand, axis=0) * scale
            old = frames[target]
            frames[target] = cand
            if _orbit_rank(rep, [cand[:, j] for j in range(n_cols)]) >= expected and all(
                _frame_ok_on_simplex(bundle, frames, s2, expected)
                for s2 in bundle.base.top_simplices()
                if target in s2
            ):
                ok = True
                break
            frames[target] = old
        if not ok:
            raise ResampleFailureError(
                f"could not repair frame degeneracy on simplex {s}",
                {"simplex": s},
            )
    if not frame_independent_on_grid(bundle, frames, expected):
        raise ResampleFailureError("extended frame degenerates on the sample grid", {})
    return frames


def _frame_ok_on_simplex(bundle, frames, s, expected) -> bool:
    root = s[0]
    local = {}
    for v in s:
        t = linalg.eye(bundle.fiber_dim, bundle.exact) if v == root else bundle.transport(v, root)
        local[v] = np.asarray(linalg.as_float(t @ frames[v]), dtype=float)
    verts = sorted(s, key=str)
    for w in _grid_weights(len(s) - 1):
        interp = sum(wi * local[v] for wi, v in zip(w, verts))
        cols = [interp[:, j] for j in range(interp.shape[1])]
        if _orbit_rank(bundle.rep, cols) < expected:
            return False
    return True


@dataclass
class StabilizationResult:
    """A trivial invariant subbundle covering every cokernel: per-vertex
    frame columns of the target bundle, plus its constant rank."""

    frames: dict
    rank: int


def stabilize_cokernel(n_bundle: GBundleModel, e_bundle: GBundleModel,
                       linearizations: dict, seed: int = 0) -> StabilizationResult:
    """Build a trivial invariant subbundle of the target covering all
    cokernels of a per-vertex equivariant linearization family.

    Deficits are collected vertex by vertex; each deficit direction is
    perturbed into the running orthogonal complement of the bundle built so
    far and extended to a global frame column.
    """
    base = n_bundle.base
    if base is not e_bundle.base and base.vertices != e_bundle.base.vertices:
        raise InvalidInputError("bundle pair must share a base")
    rep_e = e_bundle.rep
    d_e = e_bundle.fiber_dim
    dim_v = _single_component_dim(e_bundle)
    deficits = {}
    for v in base.vertices:
        if v not in linearizations:
            raise InvalidInputError(f"linearization missing at vertex {v}")
        dmat = np.asarray(linalg.as_float(linearizations[v]), dtype=float)
        deficits[v] = d_e - linalg.rank(dmat, RANK_TOL)
    max_deficit = max(deficits.values())
    if max_deficit == 0:
        return StabilizationResult({v: np.zeros((d_e, 0)) for v in base.vertices}, 0)
    slack = _extension_slack(base.top_dim, dim_v) if len(base.vertices) > 1 else 0
    if d_e < max_deficit + slack:
        raise ObstructionError(
            "ambient rank too small for cokernel stabilization",
            {"rank": d_e, "needed": max_deficit, "slack": slack},
        )
    rng = np.random.default_rng(seed)
    frames = {v: np.zeros((d_e, 0)) for v in base.vertices}
    total_cols = 0
    for v in sorted(base.vertices, key=str):
        dmat = np.asarray(linalg.as_float(linearizations[v]), dtype=float)
        while True:
            span = np.concatenate([dmat, orbit_stack(rep_e, frames[v])], axis=1)
            if linalg.rank(span, RANK_TOL) >= d_e:
                break
            # deficit direction: an element of the cokernel at v
            kernel = linalg.nullspace(span.T, RANK_TOL)
            u = kernel[:, 0]
            # perturb into the complement of the bundle built so far
            if frames[v].shape[1] > 0:
                w_span = orbit_stack(rep_e, frames[v])
                u = u - w_span @ np.linalg.lstsq(w_span, u, rcond=None)[0]
            u = u / np.linalg.norm(u)
            col = _extend_column(e_bundle, v, u, frames, rng)
            for x in base.vertices:
                frames[x] = np.concatenate([frames[x], col[x].reshape(-1, 1)], axis=1)
            total_cols += 1
    rank = total_cols * dim_v
    # certify the covering condition everywhere
    for v in base.vertices:
        dmat = np.asarray(linalg.as_float(linearizations[v]), dtype=float)
        span = np.concatenate([dmat, orbit_stack(rep_e, frames[v])], axis=1)
        if linalg.rank(span, RANK_TOL) < d_e:
            raise ResampleFailureError(
                f"stabilization failed to cover the cokernel at vertex {v}",
                {"vertex": v},
            )
    return StabilizationResult(frames, rank)


def orbit_stack(rep, columns: np.ndarray) -> np.ndarray:
    if columns.shape[1] == 0:
        return np.zeros((columns.shape[0], 0))
    return np.concatenate(
        [orbit_matrix(rep, columns[:, j]) for j in range(columns.shape[1])], axis=1
    )


def _extend_column(bundle: GBundleModel, start, vec: np.ndarray, existing: dict,
                   rng: np.random.Generator) -> dict:
    """Transport a fiber vector to every vertex, keeping its orbit span
    independent of the existing frames; reseeds where transport degenerates."""
    d = bundle.fiber_dim
    col = {start: np.asarray(vec, dtype=float)}
    for u, w in bundle.base.bfs_edges([start]):
        cand = np.asarray(linalg.as_float(bundle.transport(u, w) @ col[u]), dtype=float)
        col[w] = _ensure_independent(bundle, w, cand, existing, rng)
    for v in bundle.base.vertices:
        if v not in col:
            cand = rng.normal(size=d)
            col[v] = _ensure_independent(bundle, v, cand, existing, rng)
    return col


def _ensure_independent(bundle, vertex, cand, existing, rng):
    rep = bundle.rep
    prev = orbit_stack(rep, existing[vertex])
    norm = np.linalg.norm(cand) or 1.0
    trial = cand
    for attempt in range(RETRY_BUDGET):
        combined = np.concatenate([prev, orbit_matrix(rep, trial)], axis=1)
        target = (linalg.rank(prev, RANK_TOL)
                  + linalg.rank(orbit_matrix(rep, trial), RANK_TOL))
        if linalg.rank(combined, RANK_TOL) == target and np.linalg.norm(trial) > RANK_TOL:
            return trial
        fresh = rng.normal(size=bundle.fiber_dim)
        trial = fresh / np.linalg.norm(fresh) * norm
    raise ResampleFailureError(
        f"could not keep the new column independent at vertex {vertex}",
        {"vertex": vertex},
    )
