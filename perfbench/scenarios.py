"""Seeded request lists and golden reports for the three workloads.

A request is one ``equitrans`` command line plus the scenario file it reads,
the exit code it must return and the report it must print.  Golden reports
are derived from how each scenario is constructed, or from a small
reference computation here (character inner products, brute-force orbit
distances, eigenvalue counts of diagonal limits, polynomial matrix products
for the Novikov complexes); they are never produced by running the program.
The group presets and block catalogs are read from the program as data.
One family depends on program logic: for ``reps decompose`` of a
``random`` representation the golden ranks need the blocks the program
draws, so ``reps_decompose`` calls ``reps.choose_blocks`` with the
generator the command line builds from ``--seed``
(``numpy.random.default_rng(seed)``), and picks seeds whose draw fills the
dimension budget.  A change to how the program draws random
representations changes that family's requests with it, and a change to
how the command line seeds the draw makes that family fail.

Golden values follow the comparison rules of ``check.py``.  A certificate
value the program samples (``min_singular_value``, ``min_norm``) or measures
(``residual``, ``elapsed_s``) is one of its marker dicts instead of a
literal.

Each workload has a fixed plan of families and sizes; the seed only draws
the contents.  That keeps the cost of a pass nearly the same for every seed.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from equitrans import reps

FINITE_GROUPS = ("Z_3", "Z_4", "Z_6", "S_3", "S_4", "Q_8", "D_4")
SV_THRESHOLD = 1e-8  # transversality.SV_THRESHOLD
MIN_NORM_THRESHOLD = 1e-9  # bundles.extend_nonvanishing_section acceptance
TOLERANCE = 1e-10  # cli.Settings default tolerance
METRIC_TOL = 1e-8  # groupoids.TOL, also the cli symmetry/triangle threshold
RANK_TOL = 1e-6

ANCHOR = {
    "reps": "isotypic-character-projectors",
    "endo": "division-ring-classification",
    "bundle": "bundle-isotypic-splitting",
    "extend": "boundary-section-extension",
    "stabilize": "trivial-cover-subbundle",
    "condition": "fixed-locus-index-condition",
    "perturb": "equivariant-perturbation",
    "eigencount": "eigenvalue-count-index",
    "oracle": "shooting-kernel-oracle",
    "d2": "differential-squares-to-zero",
    "reduce": "circle-rotation-reduction",
    "ranks": "novikov-field-elimination",
    "isotropy": "isotropy-cardinality-law",
    "properness": "orbit-set-cardinality",
    "regularity": "local-action-rigidity",
    "metric": "orbit-space-metric",
}


def record(check, anchor, ok, certificate):
    return {"check": check, "anchor": ANCHOR[anchor], "pass": ok,
            "certificate": certificate}


def report(records, seed, mode):
    return {"pass": all(r["pass"] for r in records), "records": records,
            "seed": seed, "mode": mode}


class Request:
    """One command line, its scenario and its expected outcome."""

    def __init__(self, family, argv, scenario, exit_code, stdout=None,
                 stderr=None, float_tol=TOLERANCE):
        self.family = family
        self.argv = argv  # "{scenario}" marks the scenario file argument
        self.scenario = scenario  # dict, raw text, or None
        self.expect = {"exit": exit_code, "stdout": stdout, "stderr": stderr,
                       "float_tol": float_tol}

    @property
    def command(self):
        return ".".join(self.argv[:2])


# ---------------------------------------------------------------------------
# group data used by the reference computations
# ---------------------------------------------------------------------------


class GroupData:
    """Character table, block catalog and multiplication table of a preset."""

    def __init__(self, name):
        group = reps.preset_group(name)
        self.name = name
        self.order = group.order
        self.table = np.asarray(group.table, dtype=int)
        self.irreps = [(ir.label, ir.dim_V, ir.endo_dim,
                        np.array([float(c) for c in ir.character]))
                       for ir in group.nontrivial_irreps()]
        self.endo_types = {ir.label: (ir.endo_type, ir.endo_dim)
                           for ir in group.irreps}
        self.blocks = {
            label: np.array([[[int(v) for v in row] for row in m]
                             for m in rep.matrices], dtype=np.int64)
            for label, rep in reps._block_catalog(group).items()
        }
        self.identity = int(np.flatnonzero(
            (self.table == np.arange(self.order)).all(axis=1))[0])


_GROUPS: dict = {}


def group_data(name) -> GroupData:
    if name not in _GROUPS:
        _GROUPS[name] = GroupData(name)
    return _GROUPS[name]


def character_ranks(gd: GroupData, chi) -> dict:
    """Isotypic ranks from the character inner product <chi_irrep, chi>."""
    chi = np.asarray(chi, dtype=float)
    out = {"fixed": int(round(chi.sum() / gd.order))}
    for label, dim_v, endo, irr in gd.irreps:
        out[label] = int(round(dim_v / endo * float(irr @ chi) / gd.order))
    return out


def circle_ranks(order, weights, fixed_dim) -> dict:
    out = {"fixed": fixed_dim}
    for w in range(1, (order - 1) // 4 + 1):
        out[f"weight_{w}"] = 2 * list(weights).count(w)
    return out


def block_matrices(gd: GroupData, names, rng, conjugate=True):
    """Direct sum of catalog blocks, conjugated by a signed permutation."""
    mats = [gd.blocks[n] for n in names]
    d = sum(m.shape[1] for m in mats)
    out = np.zeros((gd.order, d, d), dtype=np.int64)
    pos = 0
    for m in mats:
        k = m.shape[1]
        out[:, pos:pos + k, pos:pos + k] = m
        pos += k
    if conjugate:
        q = np.zeros((d, d), dtype=np.int64)
        q[rng.permutation(d), np.arange(d)] = rng.choice([-1, 1], size=d)
        out = np.einsum("ij,gjk,lk->gil", q, out, q)
    return out


def pick_blocks(gd: GroupData, rng, dim):
    """A random multiset of catalog blocks of total dimension dim."""
    names = sorted(gd.blocks)
    chosen, total = [], 0
    while total < dim:
        options = [n for n in names if total + gd.blocks[n].shape[1] <= dim]
        pick = options[int(rng.integers(len(options)))]
        chosen.append(pick)
        total += gd.blocks[pick].shape[1]
    return chosen


def decompose_records(ranks, dim):
    recs = [record(f"component-{label}", "reps", True, {"rank": ranks[label]})
            for label in sorted(ranks) if ranks[label]]
    recs.append(record("resolution-of-identity", "reps", True, {"dim": dim}))
    return recs


# ---------------------------------------------------------------------------
# finite-group families (run in exact mode, and again in float mode)
# ---------------------------------------------------------------------------


def reps_decompose(rng, mode, group, kind, dim):
    gd = group_data(group)
    seed = int(rng.integers(1 << 16))
    if kind == "random":
        # the program draws the blocks from --seed; keep a seed whose draw
        # fills the dimension budget, so the cost barely depends on the seed
        while True:
            names = reps.choose_blocks(reps.preset_group(group),
                                       np.random.default_rng(seed), dim)
            if sum(gd.blocks[n].shape[1] for n in names) == dim:
                break
            seed = int(rng.integers(1 << 16))
        spec = {"random": {"max_dim": dim}}
    else:
        names = pick_blocks(gd, rng, dim)
        if kind == "blocks":
            spec = {"blocks": names}
    mats = block_matrices(gd, names, rng, conjugate=False)
    if kind == "matrices":
        mats = block_matrices(gd, names, rng)
        spec = {"matrices": mats.tolist()}
    chi = np.trace(mats, axis1=1, axis2=2)
    dim = mats.shape[1]
    scenario = {"group": {"preset": group}, "representation": spec}
    gold = report(decompose_records(character_ranks(gd, chi), dim), seed, mode)
    return Request(f"reps.decompose.{kind}",
                   ["reps", "decompose", "{scenario}", "--seed", str(seed)],
                   scenario, 0, gold)


# one irreducible catalog block per group, of each endomorphism type
ENDO_BLOCKS = {"Z_4": "rot90", "Q_8": "left", "S_4": "sign", "D_4": "rotation_sign"}


def reps_endotype(rng, mode, group):
    gd = group_data(group)
    mats = block_matrices(gd, [ENDO_BLOCKS[group]], rng)
    chi = np.trace(mats, axis1=1, axis2=2)
    label = next(lab for lab, r in character_ranks(gd, chi).items() if r)
    label = "trivial" if label == "fixed" else label
    etype, edim = gd.endo_types[label]
    scenario = {"group": {"preset": group},
                "representation": {"matrices": mats.tolist()}}
    gold = report([record("endomorphism-type", "endo", True,
                          {"type": etype, "endo_dim": edim})], 0, mode)
    return Request("reps.endotype", ["reps", "endotype", "{scenario}"],
                   scenario, 0, gold)


def bundle_decompose(rng, mode, group, dim):
    gd = group_data(group)
    names = pick_blocks(gd, rng, dim)
    mats = block_matrices(gd, names, rng)
    chi = np.trace(mats, axis1=1, axis2=2)
    scenario = {"group": {"preset": group},
                "representation": {"matrices": mats.tolist()},
                "base": {"interval": 1}}
    ranks = character_ranks(gd, chi)
    recs = [record(f"component-{label}", "bundle", True, {"rank": ranks[label]})
            for label in sorted(ranks)]
    return Request("bundle.decompose", ["bundle", "decompose", "{scenario}"],
                   scenario, 0, report(recs, 0, mode))


def _nonvanishing_vectors(rng, n, d):
    """n random integer vectors, nonzero and pairwise not antiparallel, so
    every edge of the boundary section is nonvanishing."""
    while True:
        vecs = rng.integers(-3, 4, size=(n, d))
        norms = np.linalg.norm(vecs, axis=1)
        if np.min(norms) == 0:
            continue
        unit = vecs / norms[:, None]
        cos = unit @ unit.T
        if np.all(cos[np.triu_indices(n, 1)] > -1 + 1e-9):
            return vecs


def bundle_extend(rng, mode, group, obstructed=False):
    """Sections of k copies of a one-dimensional block over a 2-simplex.
    A 2-simplex needs fiber rank 3, so rank 2 is an obstruction (exit 1)."""
    gd = group_data(group)
    one_dim = sorted(n for n, m in gd.blocks.items() if m.shape[1] == 1)
    block = one_dim[int(rng.integers(len(one_dim)))]
    d = 2 if obstructed else 4
    mats = block_matrices(gd, [block] * d, rng)
    seed = int(rng.integers(1 << 16))
    vecs = _nonvanishing_vectors(rng, 3, d)
    scenario = {
        "group": {"preset": group},
        "representation": {"matrices": mats.tolist()},
        "base": {"maximal_simplices": [[0, 1, 2]]},
        "sections": {"s": {str(v): vecs[v].tolist() for v in range(3)}},
        "extend": {"simplex": [0, 1, 2], "section": "s"},
    }
    if obstructed:
        rec = record("nonvanishing-extension", "extend", False,
                     {"required": 3, "rank": 2})
    else:
        rec = record("nonvanishing-extension", "extend", True,
                     {"min_norm": {"$above": MIN_NORM_THRESHOLD}})
    return Request("bundle.extend" + (".obstructed" if obstructed else ""),
                   ["bundle", "extend", "{scenario}", "--seed", str(seed)],
                   scenario, 1 if obstructed else 0, report([rec], seed, mode))


def _coset_action(gd: GroupData, rng, sub_order):
    """Left action of the group on the cosets of a random cyclic subgroup of
    the given order."""
    powers = np.zeros(gd.order, dtype=int)
    for g in range(gd.order):
        x, k = g, 1
        while x != gd.identity:
            x, k = int(gd.table[x, g]), k + 1
        powers[g] = k
    a = int(rng.choice(np.flatnonzero(powers == sub_order)))
    sub, x = [gd.identity], a
    while x != gd.identity:
        sub.append(x)
        x = int(gd.table[x, a])
    cosets, index = [], {}
    for k in range(gd.order):
        if k not in index:
            coset = sorted(int(gd.table[k, h]) for h in sub)
            for c in coset:
                index[c] = len(cosets)
            cosets.append(coset)
    return np.array([[index[int(gd.table[g, c[0]])] for c in cosets]
                     for g in range(gd.order)])


def _union_action(gd, rng, sub_orders):
    parts = [_coset_action(gd, rng, k) for k in sub_orders]
    out, offset = [], 0
    for p in parts:
        out.append(p + offset)
        offset += p.shape[1]
    return np.concatenate(out, axis=1)


def groupoid_quotient(rng, mode, group, sub_orders):
    gd = group_data(group)
    act = _union_action(gd, rng, sub_orders)
    n = act.shape[1]
    slices = sorted({int(min(act[:, x])) for x in range(n)})
    scenario = {"groupoid": {"discrete": n},
                "group_action": {"group": {"preset": group},
                                 "objects": act.tolist(),
                                 "morphisms": act.tolist()},
                "slices": slices}
    recs = []
    for x in slices:
        g_x = int(np.sum(act[:, x] == x))
        recs.append(record(f"isotropy-law-{x}", "isotropy", True,
                           {"stab_Q": g_x, "stab_eff": 1, "G_x": g_x, "ok": True}))
    return Request("groupoid.quotient", ["groupoid", "quotient", "{scenario}"],
                   scenario, 0, report(recs, 0, mode))


def groupoid_check(rng, mode, group, sub_orders, n_checks):
    """Properness on random uniformizers of a translation groupoid, plus
    regularity data; a uniformizer larger than the stabilizer allows fails
    the orbit-set criterion (exit 1)."""
    gd = group_data(group)
    act = _union_action(gd, rng, sub_orders)
    n = act.shape[1]
    xs = sorted(int(x) for x in rng.choice(n, size=min(n_checks, n), replace=False))
    uniform = {}
    recs = []
    for x in xs:
        subset = {x} | {int(y) for y in rng.choice(n, size=int(rng.integers(0, 3)))}
        uniform[str(x)] = sorted(subset)
        want = int(np.sum(act[:, x] == x))
        offending = None
        for y in sorted(subset):
            if int(np.sum(np.isin(act[:, y], sorted(subset)))) != want:
                offending = y
                break
        recs.append(record(f"properness-{x}", "properness", offending is None,
                           {"ok": offending is None, "offending": offending,
                            "stab_order": want}))
    points = list(range(4))
    regularity, reg_recs = {}, []
    for x in xs[:2]:
        action = {}
        for m in sorted(int(v) for v in rng.choice(gd.order * n, size=2, replace=False)):
            perm = [int(v) for v in rng.permutation(4)]
            if rng.random() < 0.5:
                perm = [0, 1] + [int(v) for v in rng.permutation([2, 3])]
            action[str(m)] = perm
            fixes_sub = perm[0] == 0 and perm[1] == 1
            fixes_all = perm == points
            ok = (not fixes_sub) or fixes_all
            reg_recs.append(((x, m), record(
                f"regularity-{x}-{m}", "regularity", ok,
                {"ok": ok, "fixes_sub": fixes_sub, "fixes_all": fixes_all})))
        regularity[str(x)] = {"points": points, "sub": [0, 1], "action": action}
    recs += [r for _, r in sorted(reg_recs, key=lambda kr: str(kr[0]))]
    scenario = {"groupoid": {"translation": {"group": {"preset": group},
                                             "action": act.tolist()}},
                "uniformizers": uniform, "regularity": regularity}
    rep = report(recs, 0, mode)
    return Request("groupoid.check", ["groupoid", "check", "{scenario}"],
                   scenario, 0 if rep["pass"] else 1, rep)


def _metric_golden(orbit):
    return {"orbit_matrix": orbit.tolist(), "symmetry_defect": 0.0,
            "triangle_defect": 0.0}


def metric_negation(rng, mode, n_points, dim):
    pts = np.round(rng.normal(size=(n_points, dim)), 6)
    diff = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    summ = np.linalg.norm(pts[:, None] + pts[None], axis=2)
    scenario = {"metric_points": pts.tolist(),
                "metric_action": {"type": "negation"}}
    gold = report([record("quotient-metric", "metric", True,
                          _metric_golden(np.minimum(diff, summ)))], 0, mode)
    return Request("metric.negation", ["metric", "quotient", "{scenario}"],
                   scenario, 0, gold, float_tol=METRIC_TOL)


def metric_permutation(rng, mode, n_points):
    perms = sorted(itertools.permutations(range(4)))
    pts = np.round(rng.normal(size=(n_points, 4)), 6)
    moved = pts[:, perms]  # (n, 24, 4): coordinates of q permuted by g
    orbit = np.min(np.linalg.norm(pts[:, None, None, :] - moved[None], axis=3),
                   axis=2)
    scenario = {"metric_points": pts.tolist(),
                "metric_action": {"type": "permutation",
                                  "group": {"preset": "S_4"},
                                  "table": [list(p) for p in perms]}}
    gold = report([record("quotient-metric", "metric", True,
                          _metric_golden(orbit))], 0, mode)
    return Request("metric.permutation", ["metric", "quotient", "{scenario}"],
                   scenario, 0, gold, float_tol=METRIC_TOL)


def _random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def flow_index(rng, mode, n_paths, dim):
    """tanh paths Q(diag(a) + tanh(s) diag(c))Q^T with |a -+ c| >= 0.5: the
    eigencount index is #(a - c < 0) - #(a + c < 0)."""
    paths, recs = [], []
    for i in range(n_paths):
        a = rng.uniform(-2, 2, size=dim)
        c = rng.uniform(-2, 2, size=dim)
        bad = (np.abs(a - c) < 0.5) | (np.abs(a + c) < 0.5)
        c[bad] = np.where(a[bad] >= 0, -a[bad] - 1.0, 1.0 - a[bad])
        q = _random_orthogonal(rng, dim)
        b0 = (q * a) @ q.T
        b1 = (q * c) @ q.T
        paths.append({"preset": "tanh", "b0": b0.tolist(), "b1": b1.tolist()})
        index = int(np.sum(a - c < 0) - np.sum(a + c < 0))
        recs.append(record(f"index-{i}-tanh", "eigencount", True, {"index": index}))
    return Request("flow.index", ["flow", "index", "{scenario}"],
                   {"flow": {"paths": paths}}, 0, report(recs, 0, mode))


def malformed(rng, base_request):
    """The scenario text of another request cut short: exit 2 with the parse
    position in the message."""
    text = json.dumps(base_request.scenario)
    while True:
        cut = int(rng.integers(2, len(text) - 1))
        try:
            json.loads(text[:cut])
        except json.JSONDecodeError as exc:
            msg = (f"scenario parse error at line {exc.lineno}, column "
                   f"{exc.colno}: {exc.msg}")
            break
    return Request("malformed", list(base_request.argv), text[:cut], 2,
                   stderr={"error": msg, "kind": "invalid-input"})


# ---------------------------------------------------------------------------
# Novikov complexes (exact only)
# ---------------------------------------------------------------------------


def _padd(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def _pmul(a, b):
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            out[i + j] = out.get(i + j, 0) + u * v
    return {k: v for k, v in out.items() if v}


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[{} for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if not a[i][k]:
                continue
            for j in range(p):
                if b[k][j]:
                    out[i][j] = _padd(out[i][j], _pmul(a[i][k], b[k][j]))
    return out


def _elementary(n, ops, sign):
    """Product of row operations I + c q^k E_ij (or their inverses)."""
    mat = [[({0: 1} if i == j else {}) for j in range(n)] for i in range(n)]
    seq = ops if sign > 0 else list(reversed(ops))
    for i, j, c, k in seq:
        step = [[({0: 1} if r == s else {}) for s in range(n)] for r in range(n)]
        step[i][j] = {k: sign * c}
        mat = _matmul(mat, step)
    return mat


def novikov_complex(rng, levels, size, max_exponent=4):
    """A differential that squares to zero by construction, with known
    cohomology ranks: a random pairing of generators across adjacent levels
    (each pair contributes nothing, each unpaired generator one rank in its
    level), conjugated level by level by products of elementary row
    operations with polynomial entries.  Entries keep exponents at most
    max_exponent, so delta squared stays below the default cutoff of 10.

    Returns (names per level, matrices M[d] with M[d][i][j] the coefficient
    of level-(d-1) generator i in delta of level-d generator j, ranks)."""
    names = [[f"g{d}_{i}" for i in range(size)] for d in range(levels)]
    while True:
        free = [list(rng.permutation(size)) for _ in range(levels)]
        base = {}
        for d in range(1, levels):
            for _ in range(size // 3 + 1):
                if not free[d] or not free[d - 1]:
                    break
                j, i = free[d].pop(), free[d - 1].pop()
                base[d] = base.get(d, []) + [(int(i), int(j), int(rng.choice([-2, -1, 1, 2])))]
        ranks = {d: len(free[d]) for d in range(levels)}
        change = []
        for d in range(levels):
            ops = []
            for k in range(size):
                i, j = rng.choice(size, size=2, replace=False)
                ops.append((int(i), int(j), int(rng.choice([-1, 1])), int(k < 2)))
            change.append(ops)
        mats = {}
        for d in range(1, levels):
            m0 = [[{} for _ in range(size)] for _ in range(size)]
            for i, j, c in base.get(d, []):
                m0[i][j] = {0: c}
            p = _elementary(size, change[d - 1], 1)
            p_inv = _elementary(size, change[d], -1)
            mats[d] = _matmul(_matmul(p, m0), p_inv)
        top = max((k for m in mats.values() for row in m for e in row for k in e),
                  default=0)
        if top <= max_exponent:
            return names, mats, ranks


def _floer_scenario(names, mats, omega="1", c1=0):
    levels = len(names)
    gens = [x for level in names for x in level]
    counts = []
    for d, m in sorted(mats.items()):
        for i, row in enumerate(m):
            for j, poly in enumerate(row):
                for k, c in sorted(poly.items()):
                    counts.append({"x": names[d - 1][i], "y": names[d][j],
                                   "A": [k], "count": c})
    return {
        "lattice": {"rank": 1, "omega": [omega], "c1": [c1]},
        "generators": {
            "names": gens,
            "index": {x: d for d in range(levels) for x in names[d]},
            "half_dim": levels,
            "values": {x: d for d in range(levels) for x in names[d]},
        },
        "counts": counts,
    }


def floer_ranks(rng, mode, size, levels=3):
    names, mats, ranks = novikov_complex(rng, levels, size)
    cert = {"ranks": {str(d): ranks[d] for d in sorted(ranks)},
            "betti_sum": sum(ranks.values()), "generators": levels * size}
    gold = report([record("cohomology-ranks", "ranks", True, cert)], 0, mode)
    return Request(f"floer.ranks.{size}", ["floer", "ranks", "{scenario}"],
                   _floer_scenario(names, mats), 0, gold)


def floer_d2(rng, mode, size, defect=False, levels=3):
    names, mats, _ = novikov_complex(rng, levels, size)
    cert = {}
    if defect:
        while True:
            d = int(rng.integers(1, levels))
            i, j = (int(v) for v in rng.integers(size, size=2))
            trial = {k: [list(row) for row in m] for k, m in mats.items()}
            trial[d][i][j] = _padd(trial[d][i][j], {0: 1})
            first = _first_d2_failure(names, trial)
            if first is not None:
                mats = trial
                break
        (x, z), terms = first
        cert = {"pair": [x, z],
                "defect": {f"({k},)": str(c) for k, c in sorted(terms.items())}}
    gold = report([record("d-squared", "d2", not defect, cert)], 0, mode)
    return Request(f"floer.d2.{size}" + (".defect" if defect else ""),
                   ["floer", "d2", "{scenario}"], _floer_scenario(names, mats),
                   1 if defect else 0, gold)


def _first_d2_failure(names, mats):
    """First (x, z) in the program's scan order (z outer, x inner, both in
    generator order) with a nonzero coefficient of x in delta(delta z)."""
    flat = [(d, i, x) for d, level in enumerate(names) for i, x in enumerate(level)]
    for dz, k, z in flat:
        for dx, i, x in flat:
            if dz - dx != 2:
                continue
            acc = {}
            for j in range(len(names[dz - 1])):
                acc = _padd(acc, _pmul(mats[dx + 1][i][j], mats[dz][j][k]))
            if acc:
                return (x, z), acc
    return None


def floer_reduce(rng, mode, size, levels=3):
    """Autonomous reduction: index-0 counts with A = 0 are replaced by the
    Morse table, those with A != 0 (c1 = 1 shifts the index) are dropped,
    and index-1 counts stay, so the reduced table has |index 1| + |Morse|
    entries."""
    names = [[f"g{d}_{i}" for i in range(size)] for d in range(levels)]
    counts, morse, kept = [], [], 0
    for d in range(1, levels):
        for _ in range(size):
            i, j = (int(v) for v in rng.integers(size, size=2))
            c = int(rng.choice([-1, 1]))
            counts.append({"x": names[d - 1][i], "y": names[d][j], "A": [0], "count": c})
            counts.append({"x": names[d][j], "y": names[d - 1][i], "A": [1], "count": c})
    pairs = set()
    for d in range(1, levels):
        for _ in range(size):
            pairs.add((names[d - 1][int(rng.integers(size))],
                       names[d][int(rng.integers(size))]))
    for x, y in sorted(pairs):
        morse.append({"x": x, "y": y, "count": int(rng.choice([-2, -1, 1, 2]))})
    top = set()
    for _ in range(size):
        top.add((names[0][int(rng.integers(size))], names[2][int(rng.integers(size))]))
    for x, y in sorted(top):
        counts.append({"x": x, "y": y, "A": [0], "count": 1})
        kept += 1
    scenario = _floer_scenario(names, {}, omega="2", c1=1)
    scenario["counts"] = counts
    scenario["morse_counts"] = morse
    gold = report([record("autonomous-reduction", "reduce", True,
                          {"entries": kept + len(morse)})], 0, mode)
    return Request("floer.reduce", ["floer", "reduce", "{scenario}"],
                   scenario, 0, gold)


# ---------------------------------------------------------------------------
# circle families (float only)
# ---------------------------------------------------------------------------


def circle_decompose(rng, mode, order, n_planes):
    max_w = (order - 1) // 4
    weights = sorted(int(w) for w in rng.integers(1, max_w + 1, size=n_planes))
    fixed = int(rng.integers(0, 3))
    scenario = {"group": {"circle": {"quadrature_order": order}},
                "representation": {"weights": weights, "fixed_dim": fixed}}
    ranks = circle_ranks(order, weights, fixed)
    gold = report(decompose_records(ranks, 2 * n_planes + fixed), 0, mode)
    return Request("circle.decompose", ["reps", "decompose", "{scenario}"],
                   scenario, 0, gold, float_tol=RANK_TOL)


def circle_endotype(rng, mode, order):
    w = int(rng.integers(1, (order - 1) // 4 + 1))
    scenario = {"group": {"circle": {"quadrature_order": order}},
                "representation": {"weights": [w]}}
    gold = report([record("endomorphism-type", "endo", True,
                          {"type": "C", "endo_dim": 2})], 0, mode)
    return Request("circle.endotype", ["reps", "endotype", "{scenario}"],
                   scenario, 0, gold)


def circle_bundle_decompose(rng, mode, order, n_planes):
    max_w = (order - 1) // 4
    weights = sorted(int(w) for w in rng.integers(1, max_w + 1, size=n_planes))
    scenario = {"group": {"circle": {"quadrature_order": order}},
                "representation": {"weights": weights},
                "base": {"interval": int(rng.integers(1, 4))}}
    ranks = circle_ranks(order, weights, 0)
    recs = [record(f"component-{label}", "bundle", True, {"rank": ranks[label]})
            for label in sorted(ranks)]
    return Request("circle.bundle.decompose", ["bundle", "decompose", "{scenario}"],
                   scenario, 0, report(recs, 0, mode))


def _realify(z):
    """C-linear m x n matrix as a 2m x 2n real matrix, one weight plane
    (Re, Im) per complex coordinate."""
    m, n = z.shape
    out = np.zeros((2 * m, 2 * n))
    out[0::2, 0::2] = z.real
    out[0::2, 1::2] = -z.imag
    out[1::2, 0::2] = z.imag
    out[1::2, 1::2] = z.real
    return out


def circle_stabilize(rng, mode, order, m_planes):
    """An equivariant linearization of complex rank r on m weight planes has
    an invariant cokernel of real rank 2(m - r), covered by m - r orbit
    columns."""
    w = int(rng.integers(1, (order - 1) // 4 + 1))
    r = int(rng.integers(0, m_planes))
    n_cols = int(rng.integers(max(r, 1), m_planes + 1))
    z = (rng.normal(size=(m_planes, r)) + 1j * rng.normal(size=(m_planes, r))) @ (
        rng.normal(size=(r, n_cols)) + 1j * rng.normal(size=(r, n_cols)))
    seed = int(rng.integers(1 << 16))
    scenario = {"group": {"circle": {"quadrature_order": order}},
                "representation": {"weights": [w] * m_planes},
                "base": {"maximal_simplices": [[0]]},
                "stabilize": {"linearizations": {"0": _realify(z).tolist()}}}
    gold = report([record("cokernel-stabilization", "stabilize", True,
                          {"rank": 2 * (m_planes - r)})], seed, mode)
    return Request("circle.bundle.stabilize",
                   ["bundle", "stabilize", "{scenario}", "--seed", str(seed)],
                   scenario, 0, gold)


def _fixed_locus(rng, n_vertices, labels, plan):
    """plan[v] = (zero, fixed_rows, fixed_cols, {label: (n, m)})."""
    comps = {}
    for label in labels:
        n, m = plan[0][3][label]
        comps[label] = {"n_units": n, "m_units": m}
    section, fixed_blocks, lam = {}, {}, {}
    for v in range(n_vertices):
        zero, rows, cols, _ = plan[v]
        section[str(v)] = ([0.0] * rows if zero
                           else [float(x) for x in rng.integers(1, 4, size=rows)])
        fixed_blocks[str(v)] = np.zeros((rows, cols)).tolist()
        lam[str(v)] = {label: np.zeros((2 * comps[label]["m_units"],
                                        2 * comps[label]["n_units"])).tolist()
                       for label in labels}
    return {"fixed_locus": {"base": {"interval": n_vertices - 1},
                            "quadrature_order": 32, "components": comps,
                            "section": section, "fixed_blocks": fixed_blocks,
                            "lambda_blocks": lam}}


def transversality(rng, mode, sub, n_vertices, obstructed):
    """Zero linearizations on weight components over an interval.  The
    pointwise condition at a zero of the section is ind s^G < (n - m + 1) d
    with d = 2; an obstructed model breaks it at one zero vertex (exit 1).
    Some zeros get a negative fixed index, so perturb shifts them off."""
    labels = sorted({f"weight_{int(w)}" for w in rng.integers(1, 4, size=2)})
    units = {}
    for label in labels:
        n = int(rng.integers(1, 3))
        units[label] = (n, int(rng.integers(1, n + 1)))
    min_rhs = min((n - m + 1) * 2 for n, m in units.values())
    plan, bad = {}, int(rng.integers(n_vertices)) if obstructed else -1
    for v in range(n_vertices):
        zero = v == bad or rng.random() < 0.6
        rows = int(rng.integers(1, 3))
        if v == bad:
            ind = min_rhs + int(rng.integers(0, 2))
        elif zero and rng.random() < 0.25:
            ind = -1
        else:
            ind = int(rng.integers(0, min_rhs))
        plan[v] = (zero, rows, rows + ind, units)
    scenario = _fixed_locus(rng, n_vertices, labels, plan)
    seed = int(rng.integers(1 << 16))
    recs = []
    zeros = [v for v in range(n_vertices) if plan[v][0]]

    def cert(v, label):
        n, m = units[label]
        ind = plan[v][2] - plan[v][1]
        return {"lambda": label, "n": n, "m": m, "d": 2, "ind_sG": ind,
                "rhs": (n - m + 1) * 2, "vertex": v}

    if sub == "check":
        for v in zeros:
            for label in labels:
                c = cert(v, label)
                recs.append(record(f"condition-{v}-{label}", "condition",
                                   c["ind_sG"] < c["rhs"], c))
        if not recs:
            recs.append(record("condition-vacuous", "condition", True,
                               {"note": "empty zero set"}))
    else:
        shifted = [v for v in zeros if plan[v][1] > plan[v][2]]
        staying = [v for v in zeros if v not in shifted]
        obstructions = [cert(v, label) for v in staying for label in labels
                        if cert(v, label)["ind_sG"] >= cert(v, label)["rhs"]]
        if obstructions:
            recs = [record(f"obstruction-{c['vertex']}-{c['lambda']}", "condition",
                           False, c) for c in obstructions]
        else:
            sv = {"min_singular_value": {"$above": SV_THRESHOLD}}
            per = {v: ["section-shift"] for v in shifted}
            for v in staying:
                per[v] = ["fixed"] + labels
            for v in sorted(per, key=str):
                for label in sorted(per[v]):
                    recs.append(record(f"surjective-{v}-{label}", "perturb", True, sv))
            recs.append(record("gamma-equivariance", "perturb", True,
                               {"residual": {"$at_most": TOLERANCE}}))
    rep = report(recs, seed, mode)
    return Request(f"transversality.{sub}" + (".obstructed" if obstructed else ""),
                   ["transversality", sub, "{scenario}", "--seed", str(seed)],
                   scenario, 0 if rep["pass"] else 1, rep)


def flow_oracle(rng, mode, weight):
    a_scale = float(np.round(rng.uniform(0.1, 0.5), 4))
    scenario = {"flow": {"paths": [{"preset": "lambda", "n": 1, "weight": weight,
                                    "a_scale": a_scale}]}}
    gold = report([record(f"oracle-0-lambda_{weight}", "oracle", True,
                          {"eigencount": 0, "shooting": 0})], 0, mode)
    return Request(f"flow.oracle.w{weight}", ["flow", "oracle", "{scenario}"],
                   scenario, 0, gold)


def metric_circle(rng, mode, order, n_points):
    """Rotation orbits in the plane: the orbit distance is ||p| - |q||."""
    pts = np.round(rng.normal(size=(n_points, 2)), 6)
    r = np.linalg.norm(pts, axis=1)
    scenario = {"metric_points": pts.tolist(),
                "metric_action": {"type": "circle-rotation"}}
    gold = report([record("quotient-metric", "metric", True,
                          _metric_golden(np.abs(r[:, None] - r[None])))], 0, mode)
    return Request("metric.circle",
                   ["metric", "quotient", "{scenario}", "--quadrature-order",
                    str(order)],
                   scenario, 0, gold, float_tol=METRIC_TOL)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _finite_mix(rng, mode):
    out = []
    for group in FINITE_GROUPS:
        out.append(reps_decompose(rng, mode, group, "blocks", 10))
        out.append(reps_decompose(rng, mode, group, "matrices", 12))
        out.append(reps_decompose(rng, mode, group, "random", 12))
        out.append(bundle_decompose(rng, mode, group, 6))
    out.append(reps_decompose(rng, mode, "S_4", "matrices", 16))
    for group in ENDO_BLOCKS:
        out.append(reps_endotype(rng, mode, group))
    for group in ("Z_4", "S_3", "Q_8", "D_4"):
        out.append(bundle_extend(rng, mode, group))
    out.append(bundle_extend(rng, mode, "S_4", obstructed=True))
    for group, orbits in (("S_3", (1, 2, 3)), ("D_4", (2, 2, 4)),
                          ("Q_8", (2, 4)), ("S_4", (3, 4))):
        out.append(groupoid_quotient(rng, mode, group, orbits))
        out.append(groupoid_check(rng, mode, group, orbits, 4))
    for _ in range(2):
        out.append(metric_negation(rng, mode, 8, 3))
        out.append(metric_permutation(rng, mode, 6))
        out.append(flow_index(rng, mode, 4, 3))
    return out


def _exact_only(rng, mode):
    out = []
    for size in (4, 8, 12, 16):
        out.append(floer_ranks(rng, mode, size))
    for size in (4, 8, 16):
        out.append(floer_d2(rng, mode, size))
    for size in (6, 12):
        out.append(floer_d2(rng, mode, size, defect=True))
    out.append(floer_reduce(rng, mode, 6))
    return out


def _circle_mix(rng, mode):
    out = []
    for order in (32, 48, 64):
        out.append(circle_decompose(rng, mode, order, 6))
        out.append(circle_endotype(rng, mode, order))
        out.append(circle_bundle_decompose(rng, mode, order, 4))
    for m_planes in (2, 3):
        out.append(circle_stabilize(rng, mode, 32, m_planes))
    for sub in ("check", "perturb"):
        for obstructed in (False, False, True):
            out.append(transversality(rng, mode, sub, 3, obstructed))
    for weight in (1, 2):
        out.append(flow_oracle(rng, mode, weight))
    for order in (16, 32):
        out.append(metric_circle(rng, mode, order, 5))
    return out


def _with_malformed(rng, requests, n):
    picks = rng.choice(len(requests), size=n, replace=False)
    return requests + [malformed(rng, requests[int(i)]) for i in picks]


# battery -> (criterion, record name, anchor), as the acceptance criteria
# publish them
SUITE_RECORDS = {
    "projectors": (1, "projector-algebra", "isotypic-character-projectors"),
    "endotype": (2, "endomorphism-type-table", "division-ring-classification"),
    "codimension": (3, "determinantal-codimension", "rank-stratification-count"),
    "condition": (4, "condition-consistency", "circle-index-condition"),
    "spectral-flow": (5, "spectral-flow-battery", "eigenvalue-count-index"),
    "oracle": (6, "oracle-equivalence", "shooting-kernel-oracle"),
    "perturbation": (7, "equivariant-perturbation", "fixed-locus-pipeline"),
    "floer": (8, "floer-algebra", "novikov-chain-complex"),
    "groupoid": (9, "groupoid-quotient", "isotropy-cardinality-law"),
}


def _rng(seed, stream):
    """Generator for one stream of a workload; any integer seed works."""
    return np.random.default_rng([seed % (1 << 64), stream])


def suite_all(seed):
    """The nine acceptance batteries, in a seeded order.  Batteries carry
    their own seeds, so only the order depends on the workload seed."""
    names = sorted(SUITE_RECORDS)
    out = []
    for k in _rng(seed, 0).permutation(len(names)):
        name = names[int(k)]
        crit, title, anchor = SUITE_RECORDS[name]
        rec = {"check": f"criterion-{crit}-{title}", "anchor": anchor,
               "pass": True,
               "certificate": {"checks": {"$count": True}, "failures": [],
                               "elapsed_s": {"$any": True}}}
        out.append(Request(f"suite.{name}", ["suite", name], None, 0,
                           report([rec], 0, "exact")))
    return out


def scenarios_exact(seed):
    rng = _rng(seed, 1)
    reqs = _finite_mix(rng, "exact") + _exact_only(rng, "exact")
    return _with_malformed(rng, reqs, 3)


def scenarios_float(seed):
    """The finite families of scenarios-exact with the same seed, in float
    mode, plus the circle families."""
    rng = _rng(seed, 1)
    reqs = _finite_mix(rng, "float")
    reqs += _circle_mix(_rng(seed, 2), "float")
    for r in reqs:
        r.argv.extend(["--mode", "float"])
    return _with_malformed(rng, reqs, 3)


WORKLOADS = {
    "suite-all": suite_all,
    "scenarios-exact": scenarios_exact,
    "scenarios-float": scenarios_float,
}
