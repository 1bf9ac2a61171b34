"""Command-line front end: scenario ingestion, dispatch, and reports.

Scenarios are JSON files with named sections (group, representation, base,
bundle, sections, fixed_locus, flow, lattice, generators, counts, ...).
Rationals are written as "p/q" strings in exact mode.  Reports are
deterministic given (scenario, seed, flags): records are emitted in a
canonical order and JSON is serialized with sorted keys; wall-clock timing
is attached only with --timing, keeping the default byte-identical.

Exit codes: 0 all checks pass; 1 a mathematical condition fails
(obstruction, delta squared nonzero, index condition violated); 2 malformed
input (JSON errors are reported with line and column).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import bundles, floer, groupoids, linalg, reps, spectral, suites
from . import transversality as tv
from .errors import EquitransError, InvalidInputError, ObstructionError


# ---------------------------------------------------------------------------
# scenario ingestion
# ---------------------------------------------------------------------------


class Settings:
    def __init__(self, data=None, args=None):
        data = data or {}
        self.seed = int(data.get("seed", 0))
        self.tolerance = float(data.get("tolerance", 1e-10))
        self.cutoff = _parse_scalar(data.get("cutoff", "10"), exact=True)
        self.quadrature_order = int(data.get("quadrature_order", 64))
        self.mode = data.get("mode", "exact")
        if args is not None:
            if args.seed is not None:
                self.seed = args.seed
            if args.tolerance is not None:
                self.tolerance = args.tolerance
            if args.cutoff is not None:
                self.cutoff = _parse_scalar(args.cutoff, exact=True)
            if args.quadrature_order is not None:
                self.quadrature_order = args.quadrature_order
            if args.mode is not None:
                self.mode = args.mode
        if self.mode not in ("exact", "float"):
            raise InvalidInputError(f"unknown arithmetic mode {self.mode!r}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


def _parse_scalar(x, exact: bool):
    if isinstance(x, str):
        return Fraction(x) if exact else float(Fraction(x))
    if exact:
        if isinstance(x, float) and not x.is_integer():
            raise InvalidInputError(
                f"exact mode requires integers or 'p/q' strings, got {x}"
            )
        return Fraction(x)
    return float(x)


def _parse_matrix(rows, exact: bool) -> np.ndarray:
    parsed = [[_parse_scalar(v, exact) for v in row] for row in rows]
    return linalg.frac_array(parsed) if exact else np.asarray(parsed, dtype=float)


def _parse_vector(vals, exact: bool) -> np.ndarray:
    parsed = [_parse_scalar(v, exact) for v in vals]
    return np.array(parsed, dtype=object) if exact else np.asarray(parsed, dtype=float)


def _int_table(rows, what: str) -> np.ndarray:
    """A JSON list of equal-length lists of integers as a 2-D int array;
    the models check the index ranges."""
    table = np.array(rows, dtype=object)
    if table.ndim == 2 and all(type(v) is int for v in table.flat):
        try:
            return table.astype(int)
        except OverflowError:
            pass
    raise InvalidInputError(f"{what} must be a rectangular table of integers")


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"scenario parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None


def load_group(spec, settings: Settings):
    if spec is None:
        raise InvalidInputError("scenario has no 'group' section")
    if "preset" in spec:
        return reps.preset_group(spec["preset"])
    if "circle" in spec:
        order = spec["circle"].get("quadrature_order", settings.quadrature_order)
        return reps.CircleGroupModel(int(order))
    if "table" in spec:
        table = _int_table(spec["table"], "group table")
        irreps = []
        for rec in spec.get("irreps", []):
            chi = _parse_vector(rec["character"], exact=True)
            irreps.append(
                reps.IrrepDescriptor(rec["label"], int(rec["dim"]), chi,
                                     rec["endo_type"])
            )
        g = reps.FiniteGroupModel(spec.get("name", "custom"), table, tuple(irreps))
        g.validate()
        return g
    raise InvalidInputError("group section needs 'preset', 'circle' or 'table'")


def load_representation(group, spec, settings: Settings):
    if spec is None:
        raise InvalidInputError("scenario has no 'representation' section")
    if "weights" in spec:
        if not isinstance(group, reps.CircleGroupModel):
            raise InvalidInputError("weight lists need a circle group")
        return reps.circle_weight_rep(
            group, [int(w) for w in spec["weights"]],
            int(spec.get("fixed_dim", 0))
        )
    if "blocks" in spec:
        catalog = reps._block_catalog(group)
        chosen = []
        for name in spec["blocks"]:
            if name not in catalog:
                raise InvalidInputError(
                    f"unknown block {name!r}; available: {sorted(catalog)}"
                )
            chosen.append(catalog[name])
        rep = chosen[0] if len(chosen) == 1 else reps.direct_sum(*chosen)
        if not settings.exact:
            rep = reps.RealRepresentation(group, linalg.as_float(rep.matrices))
        return rep
    if "matrices" in spec:
        mats = [_parse_matrix(m, settings.exact) for m in spec["matrices"]]
        return reps.rep_from_matrices(group, mats, exact=settings.exact)
    if "generator_matrices" in spec:
        sub = spec["generator_matrices"]
        mats = [_parse_matrix(m, settings.exact) for m in sub["matrices"]]
        return reps.rep_from_generators(group, sub["generators"], mats,
                                        exact=settings.exact)
    if "random" in spec:
        rng = np.random.default_rng(settings.seed)
        return reps.random_rep(group, rng, int(spec["random"].get("max_dim", 8)),
                               exact=settings.exact)
    raise InvalidInputError(
        "representation section needs 'weights', 'blocks', 'matrices', "
        "'generator_matrices' or 'random'"
    )


def load_base(spec) -> bundles.SimplicialBase:
    if spec is None:
        raise InvalidInputError("scenario has no 'base' section")
    if "interval" in spec:
        return bundles.SimplicialBase.interval(int(spec["interval"]))
    if "circle" in spec:
        return bundles.SimplicialBase.circle(int(spec["circle"]))
    if "maximal_simplices" in spec:
        return bundles.SimplicialBase.from_maximal(
            [tuple(s) for s in spec["maximal_simplices"]]
        )
    raise InvalidInputError("base section needs 'interval', 'circle' or "
                            "'maximal_simplices'")


def load_bundle(base, rep, spec, settings: Settings) -> bundles.GBundleModel:
    transitions = {}
    for key, mat in (spec or {}).get("transitions", {}).items():
        if key.count(",") != 1:
            raise InvalidInputError(f"transition key {key!r} is not 'u,v'")
        u, v = key.split(",")
        transitions[(_vertex(u.strip()), _vertex(v.strip()))] = _parse_matrix(
            mat, settings.exact
        )
    bundle = bundles.GBundleModel(base, rep, transitions)
    bundle.validate(settings.tolerance)
    return bundle


def load_lattice(spec) -> floer.HomologyLattice:
    if spec is None:
        raise InvalidInputError("scenario has no 'lattice' section")
    omega = [_parse_scalar(w, exact=True) for w in spec["omega"]]
    return floer.HomologyLattice(int(spec["rank"]), tuple(omega),
                                 tuple(int(c) for c in spec["c1"]))


def load_generators(spec) -> floer.GeneratorSet:
    if spec is None:
        raise InvalidInputError("scenario has no 'generators' section")
    return floer.GeneratorSet(
        tuple(spec["names"]),
        {k: int(v) for k, v in spec["index"].items()},
        int(spec["half_dim"]),
        {k: _parse_scalar(v, exact=True) for k, v in spec["values"].items()},
    )


def load_counts(lattice, spec) -> floer.ModuliCountTable:
    counts = {}
    for rec in spec or []:
        counts[(rec["x"], rec["y"], tuple(rec["A"]))] = int(rec["count"])
    return floer.ModuliCountTable(lattice, counts)


def load_fixed_locus(scenario, settings: Settings) -> tv.FixedLocusModel:
    spec = scenario.get("fixed_locus")
    if spec is None:
        raise InvalidInputError("scenario has no 'fixed_locus' section")
    base = load_base(spec.get("base"))
    circle = reps.CircleGroupModel(
        int(spec.get("quadrature_order", 32))
    )
    normal, fiber = {}, {}
    for label, rec in spec["components"].items():
        weight = int(rec.get("weight", label.split("_")[-1]))
        normal[label] = reps.circle_weight_rep(circle, [weight] * int(rec["n_units"]))
        fiber[label] = reps.circle_weight_rep(circle, [weight] * int(rec["m_units"]))
    section = {
        _vertex(k): np.asarray([float(x) for x in v])
        for k, v in spec["section"].items()
    }
    fixed_blocks = {
        _vertex(k): np.asarray(_parse_matrix(m, exact=False))
        for k, m in spec["fixed_blocks"].items()
    }
    lam = {}
    for k, per in spec["lambda_blocks"].items():
        lam[_vertex(k)] = {
            label: np.asarray(_parse_matrix(m, exact=False))
            for label, m in per.items()
        }
    support = set(_vertex(v) for v in spec["support"]) if "support" in spec else None
    return tv.FixedLocusModel(
        base=base, group=circle, normal_reps=normal, fiber_reps=fiber,
        section=section, fixed_blocks=fixed_blocks, lambda_blocks=lam,
        support=support,
    )


def _vertex(k):
    if isinstance(k, str) and k.lstrip("-").isdigit():
        return int(k)
    return k


def load_groupoid(scenario) -> groupoids.FiniteGroupoid:
    spec = scenario.get("groupoid")
    if spec is None:
        raise InvalidInputError("scenario has no 'groupoid' section")
    if "discrete" in spec:
        return groupoids.discrete_groupoid(int(spec["discrete"]))
    if "translation" in spec:
        sub = spec["translation"]
        group = load_group(sub.get("group"), Settings())
        return groupoids.make_translation_groupoid(
            group, _int_table(sub["action"], "translation action")
        )
    raise InvalidInputError("groupoid section needs 'discrete' or 'translation'")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def canonical(obj):
    """Convert a result object to deterministic JSON-serializable data.

    Fractions become 'p/q' strings, tuples become lists, numpy values
    become python scalars/lists, non-finite floats become strings.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(
            obj.numerator
        )
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            return repr(v)
        return v
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, dict):
        return {str(canonical(k)): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    return obj


def make_record(check: str, anchor: str, ok: bool, certificate=None,
                elapsed=None) -> dict:
    rec = {
        "check": check,
        "anchor": anchor,
        "pass": bool(ok),
        "certificate": canonical(certificate or {}),
    }
    if elapsed is not None:
        rec["timing_ms"] = round(1000.0 * elapsed, 3)
    return rec


def emit(records, settings, args) -> int:
    report = {
        "pass": all(r["pass"] for r in records),
        "records": records,
        "seed": settings.seed,
        "mode": settings.mode,
    }
    if args.output == "json":
        print(json.dumps(canonical(report), sort_keys=True, indent=2))
    else:
        for r in records:
            status = "pass" if r["pass"] else "FAIL"
            extra = ""
            if r["certificate"]:
                extra = " " + json.dumps(r["certificate"], sort_keys=True)
            timing = f" [{r['timing_ms']} ms]" if "timing_ms" in r else ""
            print(f"{status}  {r['check']}  ({r['anchor']}){extra}{timing}")
        print("PASS" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_reps(scenario, settings, sub):
    group = load_group(scenario.get("group"), settings)
    rep = load_representation(group, scenario.get("representation"), settings)
    records = []
    if sub == "decompose":
        projs = reps.all_projectors(rep)
        ident = linalg.eye(rep.dim, rep.exact)
        total = linalg.zeros((rep.dim, rep.dim), rep.exact)
        for label in sorted(projs):
            p = projs[label]
            total = total + p
            tr = np.trace(p)
            rank = int(tr) if rep.exact else int(round(float(tr)))
            if rank == 0:
                continue
            ok = linalg.mat_eq(p @ p, p, settings.tolerance)
            records.append(
                make_record(f"component-{label}", "isotypic-character-projectors",
                            ok, {"rank": rank})
            )
        ok = linalg.mat_eq(total, ident, settings.tolerance)
        records.append(
            make_record("resolution-of-identity", "isotypic-character-projectors",
                        ok, {"dim": rep.dim})
        )
        return records
    if sub == "endotype":
        label, dim, _ = reps.endo_type(rep)
        records.append(
            make_record("endomorphism-type", "division-ring-classification",
                        True, {"type": label, "endo_dim": dim})
        )
        return records
    raise InvalidInputError(f"unknown reps subcommand {sub!r}")


def cmd_bundle(scenario, settings, sub):
    group = load_group(scenario.get("group"), settings)
    rep = load_representation(group, scenario.get("representation"), settings)
    base = load_base(scenario.get("base"))
    bundle = load_bundle(base, rep, scenario.get("bundle"), settings)
    records = []
    if sub == "decompose":
        splitting = bundles.decompose_bundle(bundle, settings.tolerance)
        for label in sorted(splitting.ranks):
            records.append(
                make_record(f"component-{label}", "bundle-isotypic-splitting",
                            True, {"rank": splitting.ranks[label]})
            )
        return records
    if sub == "extend":
        spec = scenario.get("extend")
        if spec is None:
            raise InvalidInputError("scenario has no 'extend' section")
        simplex = tuple(spec["simplex"])
        section_name = spec.get("section", "s")
        sections = scenario.get("sections", {})
        if section_name not in sections:
            raise InvalidInputError(f"section {section_name!r} not in scenario")
        boundary = {
            _vertex(k): _parse_vector(v, exact=False)
            for k, v in sections[section_name].items()
        }
        try:
            res = bundles.extend_nonvanishing_section(
                bundle, simplex, boundary, seed=settings.seed
            )
            records.append(
                make_record("nonvanishing-extension", "boundary-section-extension",
                            True, {"min_norm": res.min_norm})
            )
        except ObstructionError as exc:
            records.append(
                make_record("nonvanishing-extension", "boundary-section-extension",
                            False, exc.certificate)
            )
        return records
    if sub == "stabilize":
        spec = scenario.get("stabilize")
        if spec is None:
            raise InvalidInputError("scenario has no 'stabilize' section")
        lin = {
            _vertex(k): np.asarray(_parse_matrix(m, exact=False))
            for k, m in spec["linearizations"].items()
        }
        try:
            res = bundles.stabilize_cokernel(bundle, bundle, lin,
                                             seed=settings.seed)
            records.append(
                make_record("cokernel-stabilization", "trivial-cover-subbundle",
                            True, {"rank": res.rank})
            )
        except ObstructionError as exc:
            records.append(
                make_record("cokernel-stabilization", "trivial-cover-subbundle",
                            False, exc.certificate)
            )
        return records
    raise InvalidInputError(f"unknown bundle subcommand {sub!r}")


def cmd_transversality(scenario, settings, sub):
    model = load_fixed_locus(scenario, settings)
    records = []
    if sub == "check":
        for v in model.zero_set():
            split = model.split_at(v)
            verdicts = tv.check_pointwise_condition(split)
            for label in sorted(verdicts):
                cert = tv.condition_certificate(split, label)
                cert["vertex"] = v
                records.append(
                    make_record(f"condition-{v}-{label}", "fixed-locus-index-condition",
                                verdicts[label], cert)
                )
        if not records:
            records.append(
                make_record("condition-vacuous", "fixed-locus-index-condition",
                            True, {"note": "empty zero set"})
            )
        return records
    if sub == "perturb":
        try:
            gamma, report = tv.construct_equivariant_perturbation(
                model, seed=settings.seed
            )
            for v in sorted(report.vertex_results, key=str):
                for label, rec in sorted(report.vertex_results[v].items()):
                    records.append(
                        make_record(
                            f"surjective-{v}-{label}", "equivariant-perturbation",
                            rec["surjective"],
                            {"min_singular_value": rec["min_singular_value"]},
                        )
                    )
            records.append(
                make_record("gamma-equivariance", "equivariant-perturbation",
                            report.equivariance_residual <= settings.tolerance,
                            {"residual": report.equivariance_residual})
            )
        except ObstructionError as exc:
            for cert in exc.certificate.get("certificates", []):
                records.append(
                    make_record(
                        f"obstruction-{cert['vertex']}-{cert['lambda']}",
                        "fixed-locus-index-condition", False, cert,
                    )
                )
        return records
    raise InvalidInputError(f"unknown transversality subcommand {sub!r}")


def _load_paths(scenario, settings):
    spec = scenario.get("flow")
    if spec is None or not spec.get("paths"):
        raise InvalidInputError("scenario has no 'flow' section with paths")
    out = []
    for rec in spec["paths"]:
        preset = rec.get("preset")
        horizon = float(rec.get("horizon", 9.0))
        if preset == "constant":
            out.append(spectral.constant_path(
                _parse_matrix(rec["matrix"], exact=False), horizon))
        elif preset == "tanh":
            out.append(spectral.tanh_path(_parse_matrix(rec["b0"], exact=False),
                                          _parse_matrix(rec["b1"], exact=False),
                                          horizon))
        elif preset == "tanh-scalar":
            out.append(spectral.scalar_tanh_path(horizon))
        elif preset == "lambda":
            n = int(rec["n"])
            weight = int(rec["weight"])
            scale = float(rec.get("a_scale", 0.0))
            spec_l = spectral.LambdaOperatorSpec(
                n, weight,
                lambda s, n=n, c=scale: c * np.tanh(s) * np.eye(2 * n),
                horizon,
            )
            out.append(spectral.build_lambda_path(spec_l))
        else:
            raise InvalidInputError(f"unknown flow preset {preset!r}")
    return out


def cmd_flow(scenario, settings, sub):
    paths = _load_paths(scenario, settings)
    records = []
    for i, path in enumerate(paths):
        if sub == "index":
            idx = spectral.fredholm_index(path)
            records.append(
                make_record(f"index-{i}-{path.name}", "eigenvalue-count-index",
                            True, {"index": idx})
            )
        elif sub == "oracle":
            idx = spectral.fredholm_index(path)
            shoot = spectral.index_by_shooting(path)
            records.append(
                make_record(
                    f"oracle-{i}-{path.name}", "shooting-kernel-oracle",
                    idx == shoot, {"eigencount": idx, "shooting": shoot},
                )
            )
        else:
            raise InvalidInputError(f"unknown flow subcommand {sub!r}")
    return records


def cmd_floer(scenario, settings, sub):
    records = []
    if "lattice" not in scenario or "generators" not in scenario:
        if sub == "d2":
            return [make_record("d-squared-vacuous", "differential-squares-to-zero",
                                True, {"note": "empty scenario"})]
        raise InvalidInputError("scenario needs 'lattice' and 'generators'")
    lattice = load_lattice(scenario.get("lattice"))
    gens = load_generators(scenario.get("generators"))
    counts = load_counts(lattice, scenario.get("counts"))
    cutoff = settings.cutoff
    if sub == "d2":
        delta = floer.build_differential(
            gens, counts.restrict_index(gens, 0), cutoff
        )
        rep = floer.check_d_squared(delta)
        cert = {} if rep.ok else {
            "pair": list(rep.first_failure),
            "defect": {str(a): c for a, c in rep.defect.terms.items()},
        }
        records.append(
            make_record("d-squared", "differential-squares-to-zero", rep.ok, cert)
        )
        return records
    if sub == "reduce":
        morse = {
            (rec["x"], rec["y"]): int(rec["count"])
            for rec in scenario.get("morse_counts", [])
        }
        reduced = floer.autonomous_reduce(counts, gens, morse)
        delta = floer.build_differential(
            gens, reduced.restrict_index(gens, 0), cutoff
        )
        zero = lattice.zero
        entrywise = all(
            delta.entry(x, y)
            == floer.NovikovElement.monomial(lattice, zero, c, cutoff)
            for (x, y), c in morse.items()
        )
        spurious = [k for k in reduced.counts
                    if reduced.derived_index(gens, *k) == 0 and k[2] != zero]
        records.append(
            make_record("autonomous-reduction", "circle-rotation-reduction",
                        entrywise and not spurious,
                        {"entries": len(reduced.counts)})
        )
        return records
    if sub == "ranks":
        delta = floer.build_differential(
            gens, counts.restrict_index(gens, 0), cutoff
        )
        ranks = floer.cohomology_rank(delta, cutoff)
        records.append(
            make_record("cohomology-ranks", "novikov-field-elimination", True,
                        {"ranks": {str(d): r for d, r in sorted(ranks.items())},
                         "betti_sum": floer.betti_sum(ranks),
                         "generators": len(gens.names)})
        )
        return records
    raise InvalidInputError(f"unknown floer subcommand {sub!r}")


def cmd_groupoid(scenario, settings, sub):
    gpd = load_groupoid(scenario)
    gpd.validate()
    records = []
    if sub == "quotient":
        action_spec = scenario.get("group_action")
        if action_spec is None:
            raise InvalidInputError("scenario has no 'group_action' section")
        group = load_group(action_spec.get("group"), settings)
        action = groupoids.GlobalActionData(
            group,
            _int_table(action_spec["objects"], "object action"),
            _int_table(action_spec["morphisms"], "morphism action"),
        )
        slices = [int(s) for s in scenario.get("slices", [])]
        kernels = {
            _vertex(k): [int(m) for m in v]
            for k, v in scenario.get("ineffective_kernels", {}).items()
        } or None
        model = groupoids.quotient_groupoid(gpd, action, slices, kernels)
        for x in sorted(model.stab_law):
            rec = model.stab_law[x]
            records.append(
                make_record(f"isotropy-law-{x}", "isotropy-cardinality-law",
                            rec["ok"], rec)
            )
        return records
    if sub == "check":
        uniform = {
            _vertex(k): set(int(p) for p in v)
            for k, v in scenario.get("uniformizers", {}).items()
        }
        if uniform:
            rep = groupoids.properness_check(gpd, uniform)
            for x in sorted(rep):
                records.append(
                    make_record(f"properness-{x}", "orbit-set-cardinality",
                                rep[x]["ok"], rep[x])
                )
        reg = scenario.get("regularity")
        if reg:
            local = {}
            for k, v in reg.items():
                local[_vertex(k)] = {
                    "points": [int(p) for p in v["points"]],
                    "sub": [int(p) for p in v["sub"]],
                    "action": {int(m): tuple(int(p) for p in perm)
                               for m, perm in v["action"].items()},
                }
            rep = groupoids.regularity_check(gpd, local)
            for key in sorted(rep, key=str):
                records.append(
                    make_record(f"regularity-{key[0]}-{key[1]}",
                                "local-action-rigidity", rep[key]["ok"], rep[key])
                )
        if not records:
            records.append(
                make_record("groupoid-axioms", "groupoid-validation", True, {})
            )
        return records
    raise InvalidInputError(f"unknown groupoid subcommand {sub!r}")


def cmd_metric(scenario, settings, sub):
    if sub != "quotient":
        raise InvalidInputError(f"unknown metric subcommand {sub!r}")
    pts = scenario.get("metric_points")
    if pts is None:
        raise InvalidInputError("scenario has no 'metric_points' section")
    points = [np.asarray([float(x) for x in p]) for p in pts]
    if len({len(p) for p in points}) > 1:
        raise InvalidInputError("metric_points must all have one dimension")
    action_spec = scenario.get("metric_action", {"type": "negation"})
    kind = action_spec.get("type")
    if kind == "negation":
        group = reps.cyclic_group(2)
        action = lambda g, p: p if g == 0 else -p  # noqa: E731
    elif kind == "circle-rotation":
        group = reps.CircleGroupModel(settings.quadrature_order)
        action = groupoids.circle_rotation_action(group)
    elif kind == "permutation":
        group = load_group(action_spec.get("group"), settings)
        table = _int_table(action_spec["table"], "permutation table")
        if (len(table) != group.order or np.any(table < 0)
                or np.any(table >= len(points[0]))):
            raise InvalidInputError(
                "permutation table needs one row of coordinate indices per "
                "group element"
            )
        action = lambda g, p: p[table[g]]  # noqa: E731
    else:
        raise InvalidInputError(f"unknown metric action type {kind!r}")
    res = groupoids.quotient_metric(points, group, action)
    orb = res.orbit_matrix
    sym = float(np.max(np.abs(orb - orb.T)))
    # orb[i, k] - orb[i, j] - orb[j, k] over every (i, j, k)
    tri = max(0.0, float(np.max(orb[:, None, :] - orb[:, :, None] - orb[None, :, :])))
    ok = sym <= groupoids.TOL and tri <= groupoids.TOL
    return [
        make_record("quotient-metric", "orbit-space-metric", ok,
                    {"orbit_matrix": res.orbit_matrix,
                     "symmetry_defect": sym, "triangle_defect": tri})
    ]


def cmd_suite(scenario, settings, name):
    results = suites.run_suite(name)
    records = []
    for r in results:
        records.append(
            make_record(f"criterion-{r['criterion']}-{r['name']}", r["anchor"],
                        r["pass"],
                        {"checks": r["checks"], "failures": r["failures"],
                         "elapsed_s": r["elapsed"]})
        )
    return records


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


COMMANDS = {
    "reps": (cmd_reps, ("decompose", "endotype")),
    "bundle": (cmd_bundle, ("decompose", "extend", "stabilize")),
    "transversality": (cmd_transversality, ("check", "perturb")),
    "flow": (cmd_flow, ("index", "oracle")),
    "floer": (cmd_floer, ("d2", "reduce", "ranks")),
    "groupoid": (cmd_groupoid, ("quotient", "check")),
    "metric": (cmd_metric, ("quotient",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equitrans",
        description="finite-scale equivariant transversality toolkit",
    )
    parser.add_argument("command", help="command group or 'suite'")
    parser.add_argument("subcommand", help="subcommand or suite name")
    parser.add_argument("scenario", nargs="?", help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--cutoff", type=str, default=None)
    parser.add_argument("--quadrature-order", type=int, default=None)
    parser.add_argument("--mode", choices=("exact", "float"), default=None)
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock timings (breaks byte-identity)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        scenario = load_scenario(args.scenario) if args.scenario else {}
        settings = Settings(scenario.get("settings"), args)
        if args.command == "suite":
            records = cmd_suite(scenario, settings, args.subcommand)
        elif args.command in COMMANDS:
            fn, subs = COMMANDS[args.command]
            if args.subcommand not in subs:
                raise InvalidInputError(
                    f"unknown subcommand {args.subcommand!r} for "
                    f"{args.command!r}; expected one of {subs}"
                )
            records = fn(scenario, settings, args.subcommand)
        else:
            raise InvalidInputError(
                f"unknown command {args.command!r}; expected one of "
                f"{sorted(COMMANDS) + ['suite']}"
            )
    except InvalidInputError as exc:
        print(json.dumps({"error": str(exc), "kind": "invalid-input"},
                         sort_keys=True), file=sys.stderr)
        return 2
    except EquitransError as exc:
        payload = {"error": str(exc), "kind": "mathematical-failure"}
        if isinstance(exc, ObstructionError):
            payload["certificate"] = canonical(exc.certificate.get("certificates", []))
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    if args.timing:
        for rec in records:
            rec.setdefault("timing_ms", round(1000 * (time.perf_counter() - t0), 3))
    return emit(records, settings, args)


if __name__ == "__main__":
    sys.exit(main())
