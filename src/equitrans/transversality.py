"""Equivariant transversality calculus near a fixed locus.

The linearization of an equivariant section at a fixed-locus zero is given
as its Schur's-lemma blocks: a fixed block T M^G -> E^G and one equivariant
block per isotypic type; transversality is surjectivity of every block.  The
non-surjective equivariant blocks form a determinantal variety: with n and m
the source/target ranks in End-units and d the real dimension of the
endomorphism division ring (R, C or H), its real codimension is
(n - m + 1) * d, the singular part sitting (n - m + 3) * d deeper inside it.

The pointwise index condition

    ind s^G < (ind D^lambda / dim V^lambda + 1) * d        for all lambda

guarantees that generic equivariant perturbations built from the equivariant
hom space reach surjectivity.  One routine certifies it per vertex and label
for the check and for the pipeline's obstruction error; the constructor
below samples each block's seeded budget as one normal and then one uniform
draw, and certifies surjectivity by the smallest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import bundles, linalg, reps
from .errors import InvalidInputError, ObstructionError, ResampleFailureError

SV_THRESHOLD = 1e-8


# ---------------------------------------------------------------------------
# linearization blocks
# ---------------------------------------------------------------------------


@dataclass
class LinearizationSplit:
    """Blocks of an equivariant linearization at one fixed-locus point.

    ``fixed_block`` maps the fixed tangent space to the fixed fiber part;
    ``lambda_blocks[label]`` is the equivariant block between the lambda
    components of the normal and fiber spaces.  Fredholm indices: the fixed
    index is dim M^G - rank E^G, a lambda index is (n - m) * dim V.
    """

    fixed_block: np.ndarray
    lambda_blocks: dict
    dim_v: dict
    endo_dim: dict

    @property
    def fixed_index(self) -> int:
        return self.fixed_block.shape[1] - self.fixed_block.shape[0]

    def lambda_real_index(self, label: str) -> int:
        blk = self.lambda_blocks[label]
        return blk.shape[1] - blk.shape[0]

    def lambda_unit_index(self, label: str) -> int:
        return self.lambda_real_index(label) // self.dim_v[label]

    def labels(self):
        return sorted(self.lambda_blocks)

    def condition_rhs(self, label: str) -> int:
        """(ind D^lambda / dim V + 1) * d, the bound on ind s^G."""
        return (self.lambda_unit_index(label) + 1) * self.endo_dim[label]


# ---------------------------------------------------------------------------
# determinantal codimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularStratumSpec:
    """Parameters of the non-surjective determinantal stratum in the space
    of equivariant maps (V^n -> V^m over a division ring of real dim d)."""

    label: str
    n: int
    m: int
    endo_dim: int

    @property
    def codim(self) -> int:
        if self.n < self.m:
            return 0  # every map fails surjectivity; the stratum is everything
        return (self.n - self.m + 1) * self.endo_dim

    @property
    def singular_codim(self) -> int:
        if self.n < self.m:
            return 0
        return (self.n - self.m + 3) * self.endo_dim


def determinantal_dimension_oracle(n: int, m: int, rank: int) -> int:
    """Dimension (in End-units) of {maps D^n -> D^m of rank <= rank},
    computed by fibering over the row-space Grassmannian.

    A rank-<= r map factors through an r-dimensional row space R in D^n:
    Gr(r, n) contributes r*(n-r), the maps D^m <- with prescribed row space
    within R contribute m*r.  Multiply by d for real dimensions.
    """
    if rank < 0:
        return -1  # empty stratum
    r = min(rank, m, n)
    return r * (n - r) + m * r


def determinantal_dimension_oracle_columns(n: int, m: int, rank: int) -> int:
    """Same count fibering over the column-space Grassmannian in D^m."""
    if rank < 0:
        return -1
    r = min(rank, m, n)
    return r * (m - r) + n * r


# ---------------------------------------------------------------------------
# pointwise conditions
# ---------------------------------------------------------------------------


def check_pointwise_condition(split: LinearizationSplit) -> dict:
    """ind s^G < (ind D^lambda / dim V + 1) * d, per lambda with rank > 0."""
    return {label: split.fixed_index < split.condition_rhs(label)
            for label in split.labels() if split.lambda_blocks[label].shape[0]}


def s1_condition(fixed_index: int, lambda_indices) -> bool:
    """Circle-action form: ind D^lambda + 2 > ind D^{S^1} for every weight."""
    return all(ind_l + 2 > fixed_index for ind_l in lambda_indices)


# ---------------------------------------------------------------------------
# the perturbation pipeline
# ---------------------------------------------------------------------------


@dataclass
class FixedLocusModel:
    """Finite model of the data near a fixed locus.

    Per-vertex: the fixed-part section value, the fixed linearization block,
    and one equivariant block per isotypic label.  The zero set is where the
    section value vanishes; a perturbation may only touch support vertices.
    """

    base: bundles.SimplicialBase
    group: reps.GroupModel
    normal_reps: dict  # label -> representation of the lambda normal part
    fiber_reps: dict  # label -> representation of the lambda fiber part
    section: dict  # vertex -> fixed-part value (vector)
    fixed_blocks: dict  # vertex -> matrix T M^G -> E^G
    lambda_blocks: dict  # vertex -> {label -> equivariant matrix}
    support: set | None = None

    def __post_init__(self):
        unknown = sorted(set(self.support or ()) - set(self.base.vertices), key=str)
        if unknown:
            raise InvalidInputError(f"support vertices {unknown} are not base vertices")
        for v, per in self.lambda_blocks.items():
            for label, blk in per.items():
                expected = (self.fiber_reps[label].dim, self.normal_reps[label].dim)
                if np.shape(blk) != expected:
                    raise InvalidInputError(
                        f"block shape {np.shape(blk)} at vertex {v} does not match "
                        f"the declared {label!r} bundle pair {expected}"
                    )

    def zero_set(self):
        out = []
        for v in self.base.vertices:
            val = np.asarray(linalg.as_float(self.section[v]), dtype=float)
            if val.size == 0 or np.linalg.norm(val) <= linalg.TOL:
                out.append(v)
        return out

    def split_at(self, vertex) -> LinearizationSplit:
        dims = {ir.label: ir.dim_V for ir in self.group.irreps}
        endos = {ir.label: ir.endo_dim for ir in self.group.irreps}
        lam = dict(self.lambda_blocks[vertex])
        return LinearizationSplit(
            np.asarray(linalg.as_float(self.fixed_blocks[vertex]), dtype=float),
            {k: np.asarray(linalg.as_float(m), dtype=float) for k, m in lam.items()},
            {k: dims[k] for k in lam},
            {k: endos[k] for k in lam},
        )


def condition_certificates(splits: dict) -> list:
    """(certificate, verdict) of the pointwise index condition per vertex
    and label of ``{vertex: LinearizationSplit}``, in its vertex order and
    then sorted label order, the verdicts from ``check_pointwise_condition``.
    A certificate holds the vertex, the label, the unit ranks n and m, d,
    ind s^G and the right-hand side (ind D^lambda / dim V + 1) * d."""
    out = []
    for v, split in splits.items():
        for label, ok in check_pointwise_condition(split).items():
            m, n = np.shape(split.lambda_blocks[label])
            dv = split.dim_v[label]
            out.append(({"lambda": label, "n": n // dv, "m": m // dv,
                         "d": split.endo_dim[label], "ind_sG": split.fixed_index,
                         "rhs": split.condition_rhs(label), "vertex": v}, ok))
    return out


@dataclass
class TransversalityReport:
    """Deterministic record of the perturbation run, with the split of
    every base vertex that the run built (``splits``)."""

    vertex_results: dict = field(default_factory=dict)
    passed: bool = True
    equivariance_residual: float = 0.0
    splits: dict = field(default_factory=dict)

    def record(self, vertex, label, min_sv, ok):
        self.vertex_results.setdefault(vertex, {})[label] = {
            "min_singular_value": float(min_sv),
            "surjective": bool(ok),
        }
        if not ok:
            self.passed = False


@dataclass
class EquivariantPerturbation:
    """Per-vertex corrections: an optional fixed-part section shift (used
    where a negative fixed index forces the zero set to move off the
    vertex), a fixed-block correction, and one equivariant correction per
    isotypic label; zero outside the support set."""

    fixed: dict
    lambdas: dict
    section_shifts: dict = field(default_factory=dict)


def construct_equivariant_perturbation(model: FixedLocusModel, seed: int = 0):
    """Build an equivariant perturbation making every linearization block
    surjective (smallest singular value above SV_THRESHOLD) at the
    zero-set vertices.

    Pipeline: first make the fixed part transverse (a vertex whose fixed
    block has negative index receives a seeded section shift and leaves the
    zero set), then verify the pointwise index condition at the remaining
    zeros (obstruction certificates otherwise), make the fixed blocks
    surjective by least-norm seeded sampling, and finally sample equivariant
    corrections from the equivariant hom basis per isotypic label.  A zero
    outside the support set is invalid input, checked before any shift or
    draw; the perturbation vanishes outside the support set and the whole
    run is reproducible from the seed.
    """
    zeros = model.zero_set()  # in base.vertices order, which is str order
    support = set(model.base.vertices) if model.support is None else model.support
    for v in zeros:
        if v not in support:
            raise InvalidInputError(f"zero-set vertex {v} lies outside the declared support")
    splits = {v: model.split_at(v) for v in model.base.vertices}
    report = TransversalityReport(splits=splits)
    shift_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EC7]))
    section_shifts = {}
    zero = {}  # vertex -> split, the zeros left after the shifts
    for v in zeros:
        blk = splits[v].fixed_block
        if blk.shape[0] > blk.shape[1]:
            # negative fixed index: transversality means the zero set avoids
            # this vertex, so shift the section value off zero
            shift = shift_rng.normal(size=blk.shape[0])
            section_shifts[v] = shift / np.linalg.norm(shift)
            report.record(v, "section-shift", np.inf, True)
        else:
            zero[v] = splits[v]
    obstructions = [cert for cert, ok in condition_certificates(zero) if not ok]
    if obstructions:
        raise ObstructionError(
            "pointwise index condition fails at "
            f"{sorted({c['vertex'] for c in obstructions})}",
            {"certificates": obstructions},
        )
    rng_root = np.random.SeedSequence(seed)
    fixed_corr = {v: None for v in model.base.vertices}
    lambda_corr = {v: {} for v in model.base.vertices}
    hom_bases = {
        label: reps.hom_G_basis(model.normal_reps[label], model.fiber_reps[label])
        for label in model.fiber_reps
    }
    for v in sorted(model.base.vertices, key=str):
        d_fix = splits[v].fixed_block
        if v not in zero:
            fixed_corr[v] = np.zeros_like(d_fix)
            for label, blk in splits[v].lambda_blocks.items():
                lambda_corr[v][label] = np.zeros_like(blk)
            continue
        child = np.random.default_rng(rng_root.spawn(1)[0])
        # zeros of negative fixed index were shifted off above: rows <= cols
        rows, cols = d_fix.shape
        if rows == 0:
            fixed_corr[v], sv_fix = np.zeros_like(d_fix), np.inf
        else:
            # the fixed part carries the trivial action: every matrix unit
            # is equivariant
            units = np.eye(rows * cols).reshape(-1, rows, cols)
            fixed_corr[v], sv_fix = _surject_equivariant_block(d_fix, units, child)
        report.record(v, "fixed", sv_fix, sv_fix > SV_THRESHOLD)
        for label, blk in splits[v].lambda_blocks.items():
            if blk.shape[0] == 0:
                lambda_corr[v][label] = np.zeros_like(blk)
                continue
            corr, sv = _surject_equivariant_block(blk, hom_bases[label], child)
            lambda_corr[v][label] = corr
            report.record(v, label, sv, sv > SV_THRESHOLD)
    if not report.passed:
        raise ResampleFailureError("sampling budget exhausted before surjectivity")
    gamma = EquivariantPerturbation(fixed_corr, lambda_corr, section_shifts)
    report.equivariance_residual = _gamma_residual(model, gamma)
    return gamma, report


def _gamma_residual(model: FixedLocusModel, gamma: EquivariantPerturbation) -> float:
    """Max equivariance defect of the lambda corrections (fixed corrections
    live on the fixed part, where the action is trivial)."""
    worst = 0.0
    for v, per in gamma.lambdas.items():
        for label, corr in per.items():
            if corr.size == 0:
                continue
            res = reps.equivariance_residual(
                model.normal_reps[label], model.fiber_reps[label], corr
            )
            worst = max(worst, float(res))
    return worst


def _surject_equivariant_block(block: np.ndarray, hom_basis: np.ndarray,
                               rng: np.random.Generator):
    """Correct a block that is not surjective by a combination of the
    equivariant hom basis, a (k, rows, cols) float stack.  Draws the whole
    RETRY_BUDGET in two calls, normal(size=(RETRY_BUDGET, k)) then
    random(RETRY_BUDGET), probes all candidates with one stacked SVD and
    returns the first smallest-norm success with its smallest singular value,
    else a zero correction and the block's own value.  A surjective block,
    empty basis or zero budget draws nothing; a tall block (rows > cols) gets
    a zero correction and the value 0.0, with no draw."""
    if block.shape[0] > block.shape[1]:
        return np.zeros_like(block), 0.0
    sv = linalg.min_singular_value(block)
    if sv > SV_THRESHOLD or len(hom_basis) == 0 or bundles.RETRY_BUDGET == 0:
        return np.zeros_like(block), sv
    scale = max(1.0, linalg.max_abs(block))
    normals = rng.normal(size=(bundles.RETRY_BUDGET, len(hom_basis)))
    coeffs = normals * scale * (0.25 + 0.75 * rng.random(bundles.RETRY_BUDGET))[:, None]
    # every candidate adds its terms one by one in basis order (np.sum adds
    # long axes pairwise, so its rounding would depend on the basis size),
    # and the stack never holds all budget x k terms at once; + 0.0 clears -0.0
    cands = coeffs[:, 0, None, None] * hom_basis[0]
    for j in range(1, len(hom_basis)):
        cands = cands + coeffs[:, j, None, None] * hom_basis[j]
    cands = cands + 0.0
    svs = np.linalg.svd(block + cands, compute_uv=False)[:, -1]
    norms = np.where(svs > SV_THRESHOLD, np.linalg.norm(coeffs, axis=1), np.inf)
    best = int(np.argmin(norms))
    if norms[best] == np.inf:
        return np.zeros_like(block), sv
    return cands[best], float(svs[best])
