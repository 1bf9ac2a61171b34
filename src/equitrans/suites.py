"""Acceptance batteries: one callable per criterion, shared by the CLI
``suite`` subcommand and the pytest acceptance module.

A battery body only states its checks: it takes one callable
``check(ok, failure, n=1)``, which counts n checks and keeps ``failure``, a
short dict naming the offending case, when ``ok`` is false.  One harness,
``_battery``, turns the body into a zero-argument callable that times the
whole body and returns the record {"criterion", "name", "anchor", "checks",
"failures" (the first 16), "n_failures", "pass", "elapsed"}.  Each battery
draws from fixed seeds, so its checks are deterministic.

Criterion 1 draws random representations through ``reps`` in both modes
and checks each group's 20 draws in one ``reps.projector_check`` call: the
projector identities on integer numerators with exact equality in exact
mode, on the float projectors within a tolerance in float mode.
"""

from __future__ import annotations

import functools
import itertools
import time
from fractions import Fraction

import numpy as np

from . import bundles, floer, groupoids, linalg, reps, spectral, transversality as tv
from .errors import EquitransError, InvalidInputError, ObstructionError

PROJECTOR_GROUPS = ("Z_2", "Z_3", "Z_4", "S_3", "S_4", "Q_8", "D_4")
CIRCLE_ORDER = 64


def _battery(criterion, name, anchor):
    """The harness: make a battery record of a body that states its checks."""
    def harness(body):
        @functools.wraps(body)
        def battery() -> dict:
            t0 = time.perf_counter()
            checks = 0
            failures = []

            def check(ok, failure, n=1):
                nonlocal checks
                checks += n
                if not ok:
                    failures.append(failure)

            body(check)
            return {
                "criterion": criterion,
                "name": name,
                "anchor": anchor,
                "checks": checks,
                "failures": failures[:16],
                "n_failures": len(failures),
                "pass": not failures,
                "elapsed": time.perf_counter() - t0,
            }
        return battery
    return harness


@_battery(1, "projector-algebra", "isotypic-character-projectors")
def suite_projectors(check):
    """Criterion 1: projector algebra, exact and float modes: 20 draws per
    group, seeded 2024 (exact) and 2025 (float)."""
    finite = [reps.preset_group(n) for n in PROJECTOR_GROUPS]
    circle = reps.CircleGroupModel(CIRCLE_ORDER)
    for mode, groups, mode_seed in (("exact", finite, 2024),
                                    ("float", finite + [circle], 2025)):
        for group in groups:
            rng = np.random.default_rng(mode_seed)
            # a generator: each draw is dropped once its projectors are built
            draws = (reps.random_rep(group, rng, max_dim=12, exact=mode == "exact")
                     for _ in range(20))
            for trial, (_, n, failed) in enumerate(reps.projector_check(draws, linalg.TOL)):
                check(True, None, n - len(failed))
                for identity, label in failed:
                    check(False, {"mode": mode, "group": getattr(group, "name", "S1"),
                                  "trial": trial, "check": identity, "component": label})


@_battery(2, "endomorphism-type-table", "division-ring-classification")
def suite_endotype(check):
    """Criterion 2: endomorphism-type table (R, 1), (C, 2), (H, 4)."""
    z2 = reps.cyclic_group(2)
    check(reps.endo_type(reps.one_dim_rep(z2, [1, 1])) == ("R", 1), {"case": "trivial"})
    circle = reps.CircleGroupModel(CIRCLE_ORDER)
    rng = np.random.default_rng(7)
    for weight in range(1, circle.max_weight + 1):
        rep = reps.circle_weight_rep(circle, [weight])
        q = linalg.random_orthogonal(2, rng)
        check(reps.endo_type(reps.conjugate_rep(rep, q)) == ("C", 2),
              {"case": f"weight_{weight}"})
    left = reps.block_rep(reps.quaternion_group(), ["left"])
    check(reps.endo_type(left) == ("H", 4), {"case": "quaternion-four-dim"})


@_battery(3, "determinantal-codimension", "rank-stratification-count")
def suite_codimension(check):
    """Criterion 3: determinantal codimensions against the Grassmannian
    fibration oracle, exact integers."""
    for n in range(1, 5):
        for m in range(1, n + 1):
            for d in (1, 2, 4):
                spec = tv.SingularStratumSpec("l", n, m, d)
                dim_rows = tv.determinantal_dimension_oracle(n, m, m - 1)
                dim_cols = tv.determinantal_dimension_oracle_columns(n, m, m - 1)
                case = {"n": n, "m": m, "d": d}
                check(dim_rows == dim_cols, {**case, "check": "fibrations"})
                check(d * dim_rows == d * n * m - (n - m + 1) * d,
                      {**case, "check": "stratum"})
                if m >= 2:
                    dim_sing = tv.determinantal_dimension_oracle(n, m, m - 2)
                    # the singular sub-stratum sits (n-m+3)*d inside the stratum
                    check(d * dim_sing == d * dim_rows - (n - m + 3) * d,
                          {**case, "check": "singular"})
                check(spec.singular_codim == spec.codim + 2 * d, {**case, "check": "offset"})


@_battery(4, "condition-consistency", "circle-index-condition")
def suite_condition(check):
    """Criterion 4: the circle inequality agrees with the general pointwise
    condition at (dim V, d) = (2, 2), on 500 seeded cases.  Each case is a
    split of zero blocks: a fixed block of index ind_sG and one weight
    block V^n -> V^m with n - m = ind_lambda / 2 and m >= 1."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        ind_sg = int(rng.integers(-8, 9))
        ind_l = 2 * int(rng.integers(-4, 5))
        m = max(1, 1 - ind_l // 2)
        n = m + ind_l // 2
        split = tv.LinearizationSplit(
            np.zeros((max(0, -ind_sg), max(0, ind_sg))),
            {"weight": np.zeros((2 * m, 2 * n))}, {"weight": 2}, {"weight": 2})
        general = tv.check_pointwise_condition(split)["weight"]
        circle = tv.s1_condition(split.fixed_index, [split.lambda_real_index("weight")])
        check(general == circle, {"ind_sG": ind_sg, "ind_lambda": ind_l})


@_battery(5, "spectral-flow-battery", "eigenvalue-count-index")
def suite_spectral_flow(check):
    """Criterion 5: eigenvalue-count index battery.  Its 76 paths are drawn
    in turn and indexed in one ``fredholm_indices`` call."""
    rng = np.random.default_rng(13)
    cases = [("tanh-scalar", spectral.scalar_tanh_path(), 1)]
    for k in range(10):
        d = int(rng.integers(1, 4))
        diag = rng.choice([-2.0, -1.0, 1.0, 2.0], size=d)
        cases.append((f"constant-{k}", spectral.constant_path(np.diag(diag)), 0))
    for weight in range(1, 6):
        for n in (1, 2, 3):
            path = spectral.build_lambda_path(n, weight, lambda s, n=n: np.zeros((2 * n,) * 2))
            cases.append((f"index-l{weight}-n{n}", path, 0))
    seeded = []
    for _ in range(50):
        n = int(rng.integers(1, 4))
        weight = int(rng.integers(1, 6))
        seeded.append((n, weight, rng.normal(size=(2, 2 * n, 2 * n))))  # A- then A+
    for n in (1, 2, 3):  # scale to ||A+-|| <= pi / 2, one stacked SVD per size
        pairs = [a for m, _, a in seeded if m == n]
        norms = np.linalg.svd(np.stack(pairs), compute_uv=False).max(axis=2)
        for a, scale in zip(pairs, (np.pi / 2) / np.maximum(1.0, norms)):
            a *= scale[:, None, None]
    for k, (n, weight, a) in enumerate(seeded):

        def a_path(s, am=a[0], ap=a[1]):
            t = (np.tanh(s) + 1.0) / 2.0
            return (1.0 - t) * am + t * ap

        cases.append((f"seeded-A-{k}", spectral.build_lambda_path(n, weight, a_path), 0))
    indices = spectral.fredholm_indices([path for _, path, _ in cases])
    for (case, path, expected), index in zip(cases, indices):
        if case.startswith("index-l"):  # zero A: unstable dimension 2n at both ends
            check(spectral.unstable_dim(path.b_minus) == path.dim // 2
                  == spectral.unstable_dim(path.b_plus),
                  {"case": case.replace("index", "unstable-dim")})
        check(index == expected, {"case": case})


@_battery(6, "oracle-equivalence", "shooting-kernel-oracle")
def suite_oracle(check):
    """Criterion 6: eigencount index equals the shooting-kernel difference,
    on 20 seeded tanh paths of dims 1 and 2 in turn, both sides from one
    ``shooting_indices`` call."""
    rng = np.random.default_rng(17)
    paths = []
    while len(paths) < 20:
        size = 1 if len(paths) % 2 == 0 else 2
        d_minus = np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], size=size))
        d_plus = np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], size=size))
        q = np.linalg.qr(rng.normal(size=(size, size)))[0]
        b0 = q @ ((d_minus + d_plus) / 2) @ q.T
        b1 = q @ ((d_plus - d_minus) / 2) @ q.T
        if np.min(np.abs(np.linalg.eigvals(b0 - b1).real)) < 0.5:
            continue
        if np.min(np.abs(np.linalg.eigvals(b0 + b1).real)) < 0.5:
            continue
        paths.append(spectral.tanh_path(b0, b1))
    for case, (idx, shoot) in enumerate(spectral.shooting_indices(paths)):
        check(idx == shoot, {"case": case, "eigencount": idx, "shooting": shoot})


def _pipeline_model(base, circle, spec_units, fixed_shape):
    """Build a fixed-locus model: spec_units maps weight -> (n_units, m_units);
    all vertices are zeros of the section."""
    normal = {}
    fiber = {}
    lam_blocks = {v: {} for v in base.vertices}
    for weight, (nu, mu) in spec_units.items():
        label = f"weight_{weight}"
        normal[label] = reps.circle_weight_rep(circle, [weight] * nu)
        fiber[label] = reps.circle_weight_rep(circle, [weight] * mu)
        for v in base.vertices:
            lam_blocks[v][label] = np.zeros((2 * mu, 2 * nu))
    return tv.FixedLocusModel(
        base=base,
        group=circle,
        normal_reps=normal,
        fiber_reps=fiber,
        section={v: np.zeros(fixed_shape[0]) for v in base.vertices},
        fixed_blocks={v: np.zeros(fixed_shape) for v in base.vertices},
        lambda_blocks=lam_blocks,
    )


@_battery(7, "equivariant-perturbation", "fixed-locus-pipeline")
def suite_perturbation(check):
    """Criterion 7: the equivariant perturbation pipeline on synthetic
    fixed-locus models, plus obstruction certificates on violating models.
    A good model whose pipeline raises adds a failure and no check."""
    circle = reps.CircleGroupModel(32)
    bases = [bundles.SimplicialBase.interval(1), bundles.SimplicialBase.circle(3)]
    good_specs = [
        {1: (1, 1)},
        {1: (2, 1)},
        {2: (1, 1)},
        {3: (2, 2)},
        {1: (1, 1), 2: (2, 1)},
    ]
    for k, (base, spec_units) in enumerate(itertools.product(bases, good_specs)):
        model = _pipeline_model(base, circle, spec_units, (2, 2))
        try:
            gamma, report = tv.construct_equivariant_perturbation(model, seed=19 + k)
        except EquitransError as exc:
            check(False, {"model": k, "error": str(exc)}, n=0)
            continue
        check(report.passed, {"model": k, "error": "report failed"})
        check(report.equivariance_residual <= 1e-10,
              {"model": k, "error": "gamma not equivariant"})
        for v, split in report.splits.items():
            fixed = split.fixed_block + gamma.fixed[v]
            check(linalg.min_singular_value(fixed) > 1e-8,
                  {"model": k, "vertex": v, "block": "fixed"})
            for label, blk in split.lambda_blocks.items():
                corr = blk + gamma.lambdas[v][label]
                check(linalg.min_singular_value(corr) > 1e-8,
                      {"model": k, "vertex": v, "block": label})
    # violating models: ind s^G = 2 >= (0/2 + 1)*2 with forced zeros
    for j in range(5):
        base = bases[j % 2]
        model = _pipeline_model(base, circle, {1 + (j % 3): (1, 1)}, (1, 3))
        try:
            tv.construct_equivariant_perturbation(model, seed=119 + j)
            check(False, {"violating_model": j, "error": "no obstruction raised"})
        except ObstructionError as exc:
            certs = exc.certificate.get("certificates", [])
            check(certs and not any(
                set(c) < {"vertex", "lambda", "n", "m", "d", "ind_sG", "rhs"}
                for c in certs
            ), {"violating_model": j, "error": "bad certificate"})


def coherent_three_level_table(rng: np.random.Generator,
                               lattice: floer.HomologyLattice,
                               n0: int = 3, n1: int = 3, n2: int = 2):
    """Random moduli counts whose differential squares to zero by
    construction (broken-gluing cancellation), for n1 >= 2.

    The level-1 -> level-0 block b and the level-2 -> level-1 block a are
    drawn with disjoint supports on the level-1 generators (b on the first
    ``split``, a on the rest), every entry nonzero there, so b @ a = 0.
    Elementary integer operations E on level 1 (b <- b E^-1, a <- E a) keep
    b @ a = 0.  The first adds +-row t of a (t in a's support) to its zero
    row s (s in b's support), so generator s has nonzero counts to both
    levels; the later ones leave s alone."""
    names = [[f"{p}{i}" for i in range(n)] for p, n in (("a", n0), ("b", n1), ("c", n2))]
    level = {x: d for d, level_names in enumerate(names) for x in level_names}
    gens = floer.GeneratorSet(tuple(level), level, level)
    split = int(rng.integers(1, n1))
    nonzero = np.array([-2, -1, 1, 2])
    b = np.zeros((n0, n1), dtype=int)
    b[:, :split] = nonzero[rng.integers(4, size=(n0, split))]
    a = np.zeros((n1, n2), dtype=int)
    a[split:] = nonzero[rng.integers(4, size=(n1 - split, n2))]
    s = int(rng.integers(split))
    rest = [y for y in range(n1) if y != s]
    ops = [(s, int(rng.integers(split, n1)))]
    if len(rest) > 1:
        ops += [rng.permutation(rest)[:2] for _ in range(2)]
    for (i, j), c in zip(ops, rng.choice([-1, 1], size=len(ops))):
        # E = I + c e_ij, E^-1 = I - c e_ij
        a[i] += c * a[j]
        b[:, j] -= c * b[:, i]
    counts = {}
    for block, (lo, hi) in ((b, names[:2]), (a, names[1:])):
        for (i, j), c in np.ndenumerate(block):
            counts[(lo[i], hi[j], lattice.zero)] = int(c)
    return gens, floer.ModuliCountTable(lattice, counts)


@_battery(8, "floer-algebra", "novikov-chain-complex")
def suite_floer(check):
    """Criterion 8: d-squared, autonomous reduction, toy-model ranks, and the
    generator lower bound."""
    lat = floer.HomologyLattice(1, (Fraction(1),), (0,))
    rng = np.random.default_rng(23)
    for k in range(20):
        gens, counts = coherent_three_level_table(rng, lat)
        delta = floer.build_differential(gens, counts, cutoff=10)
        check(floer.check_d_squared(delta).ok, {"case": f"coherent-table-{k}"})
    # autonomous reduction: entry-by-entry equality with the Morse matrix
    gens = floer.GeneratorSet(
        ("m1", "m2", "M1", "M2"),
        {"m1": 0, "m2": 0, "M1": 1, "M2": 1},
        {"m1": 0, "m2": 0, "M1": 1, "M2": 1},
    )
    lat_c = floer.HomologyLattice(1, (Fraction(3),), (1,))
    table = floer.ModuliCountTable(
        lat_c,
        {
            ("m1", "M1", (0,)): 1,
            ("m2", "M1", (0,)): -1,
            ("m1", "M2", (0,)): -1,
            ("m2", "M2", (0,)): 1,
            ("M1", "m1", (1,)): 5,  # spurious index-0 class
        },
    )
    morse = {("m1", "M1"): 1, ("m2", "M1"): -1, ("m1", "M2"): -1, ("m2", "M2"): 1}
    reduced = floer.autonomous_reduce(table, gens, morse)
    delta_r = floer.build_differential(gens, reduced, cutoff=10)
    for (x, y), c in morse.items():
        check(delta_r.entry(x, y) == {lat_c.zero: c}, {"case": f"reduction-entry-{x}-{y}"})
    check(all(a == lat_c.zero for (_, _, a) in reduced.counts),
          {"case": "reduction-left-nonzero-classes"})
    # toy models
    sphere = floer.GeneratorSet(("x", "z"), {"x": 0, "z": 2}, {"x": 0, "z": 2})
    ranks_s = floer.cohomology_rank(
        floer.build_differential(sphere, floer.ModuliCountTable(lat, {}), cutoff=10)
    )
    check({d: ranks_s.get(d, 0) for d in (0, 1, 2)} == {0: 1, 1: 0, 2: 1},
          {"case": "sphere-ranks", "got": ranks_s})
    torus = floer.GeneratorSet(
        ("a", "b1", "b2", "c"),
        {"a": 0, "b1": 1, "b2": 1, "c": 2},
        {"a": 0, "b1": 1, "b2": 1, "c": 2},
    )
    ranks_t = floer.cohomology_rank(
        floer.build_differential(torus, floer.ModuliCountTable(lat, {}), cutoff=10)
    )
    check(ranks_t == {0: 1, 1: 2, 2: 1}, {"case": "torus-ranks", "got": ranks_t})
    for gens_model, ranks in ((sphere, ranks_s), (torus, ranks_t)):
        check(len(gens_model.names) >= floer.betti_sum(ranks),
              {"case": "generator-lower-bound"})
        check(len(gens_model.names) == floer.betti_sum(ranks),
              {"case": "perfect-model-equality"})


@_battery(9, "groupoid-quotient", "isotropy-cardinality-law")
def suite_groupoid(check):
    """Criterion 9: isotropy cardinality law, properness, quotient metrics."""
    # cardinality law over a library of finite actions
    library = []
    for n_stab in (1, 2, 3, 4, 5):
        group = reps.cyclic_group(n_stab)
        act = np.zeros((n_stab, 1), dtype=int)
        gpd = groupoids.make_translation_groupoid(group, act)
        z2 = reps.cyclic_group(2)
        ident = np.arange(gpd.n_morphisms)
        action = groupoids.GlobalActionData(
            z2, np.zeros((2, 1), dtype=int), np.stack([ident, ident])
        )
        library.append((gpd, action, [0], {}))
    for npts in (2, 3, 4):
        gpd = groupoids.discrete_groupoid(npts)
        zn = reps.cyclic_group(npts)
        obj = np.array([[(x + g) % npts for x in range(npts)] for g in range(npts)])
        library.append((gpd, groupoids.GlobalActionData(zn, obj, obj), [0], {}))
    gpd = groupoids.discrete_groupoid(3)
    z2 = reps.cyclic_group(2)
    obj = np.array([[0, 1, 2], [1, 0, 2]])
    library.append((gpd, groupoids.GlobalActionData(z2, obj, obj), [0, 2], {}))
    stab4 = groupoids.make_translation_groupoid(
        reps.cyclic_group(4), np.zeros((4, 1), dtype=int)
    )
    z1 = reps.cyclic_group(1)
    action = groupoids.GlobalActionData(
        z1, np.zeros((1, 1), dtype=int), np.arange(stab4.n_morphisms).reshape(1, -1)
    )
    kernel = [m for m in stab4.stab(0) if m % 2 == 0]
    library.append((stab4, action, [0], {0: kernel}))
    for i, (g, a, slices, kern) in enumerate(library):
        model = groupoids.quotient_groupoid(g, a, slices, kern)
        for x, rec in model.stab_law.items():
            check(rec["ok"], {"library_case": i, "object": x, "law": rec})
    # properness on declared uniformizers: stabilizer orbits pass, a
    # uniformizer mixing isotropy types fails at the smaller-isotropy point
    z2 = reps.cyclic_group(2)
    act2 = np.array([[0, 1, 2], [1, 0, 2]])
    mixed = groupoids.make_translation_groupoid(z2, act2)
    rep_ok = groupoids.properness_check(mixed, {2: {2}, 0: {0}})
    check(rep_ok[2]["ok"], {"properness": 2})
    check(rep_ok[0]["ok"], {"properness": 0})
    rep_bad = groupoids.properness_check(mixed, {2: {0, 2}})
    check(not rep_bad[2]["ok"] and rep_bad[2]["offending"] == 0,
          {"properness": "mixed-isotropy-should-fail"})
    # quotient metric: negation formula on 100 sample pairs
    rng = np.random.default_rng(29)
    pts = [np.array([x]) for x in rng.normal(size=10) * 2.5]
    signs = np.array([[[1.0]], [[-1.0]]])
    orbit = groupoids.quotient_metric(pts, z2, lambda g: signs[g])
    for i in range(10):
        for j in range(10):
            expected = min(abs(pts[i][0] - pts[j][0]), abs(pts[i][0] + pts[j][0]))
            check(abs(orbit[i, j] - expected) <= 1e-12, {"metric-pair": (i, j)})
    # metric axioms: exact finite / 1e-8 circle quadrature
    circle = reps.CircleGroupModel(CIRCLE_ORDER)
    act = groupoids.circle_rotation_action(circle)
    cpts = [rng.normal(size=2) for _ in range(5)]
    orbit = groupoids.quotient_metric(cpts, circle, act)
    n = len(cpts)
    # each tested g is an isometry: |g.x_i - g.x_j| = |x_i - x_j|
    gs = np.arange(0, circle.order, 9)
    stack = np.stack(cpts, axis=1)[None]
    moved = np.concatenate([stack, act(gs) @ stack])  # the points, then g.x per g
    dist = np.linalg.norm(moved[..., :, None] - moved[..., None, :], axis=1)
    for i in range(n):
        for j in range(n):
            check(abs(orbit[i, j] - orbit[j, i]) <= 1e-8, {"circle-symmetry": (i, j)})
            radial = abs(np.linalg.norm(cpts[i]) - np.linalg.norm(cpts[j]))
            check(abs(orbit[i, j] - radial) <= 1e-6, {"circle-radial": (i, j)})
            for g, gd in zip(gs.tolist(), dist[1:]):
                check(abs(gd[i, j] - dist[0, i, j]) <= 1e-8, {"circle-isometry": (i, j, g)})
            for k in range(n):
                check(orbit[i, k] <= orbit[i, j] + orbit[j, k] + 1e-8,
                      {"circle-triangle": (i, j, k)})


SUITES = {
    "projectors": suite_projectors,
    "endotype": suite_endotype,
    "codimension": suite_codimension,
    "condition": suite_condition,
    "spectral-flow": suite_spectral_flow,
    "oracle": suite_oracle,
    "perturbation": suite_perturbation,
    "floer": suite_floer,
    "groupoid": suite_groupoid,
}


def run_suite(name: str):
    """Run one named battery, or all of them."""
    if name == "all":
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; available: {sorted(SUITES)} + ['all']"
        )
    return [SUITES[name]()]
