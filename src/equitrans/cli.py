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
import math
import re
import reprlib
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import chain

import numpy as np

from . import bundles, floer, groupoids, linalg, reps, spectral, suites
from . import transversality as tv
from .errors import EquitransError, InvalidInputError, ObstructionError


# ---------------------------------------------------------------------------
# scenario ingestion
# ---------------------------------------------------------------------------


class Settings:
    def __init__(self, data=None, args=None):
        data = {} if data is None else _object(data, "'settings' section")
        self.seed = _int(data.get("seed", 0), "settings 'seed'")
        self.tolerance = _parse_scalar(data.get("tolerance", 1e-10), False,
                                       "settings 'tolerance'")
        self.cutoff = _parse_scalar(data.get("cutoff", "10"), True, "cutoff")
        self.quadrature_order = _int(data.get("quadrature_order", 64),
                                     "settings 'quadrature_order'")
        self.mode = data.get("mode", "exact")
        if args is not None:
            if args.seed is not None:
                self.seed = args.seed
            if args.tolerance is not None:
                self.tolerance = _parse_scalar(args.tolerance, False, "--tolerance")
            if args.cutoff is not None:
                self.cutoff = _parse_scalar(args.cutoff, True, "--cutoff")
            if args.quadrature_order is not None:
                self.quadrature_order = args.quadrature_order
            if args.mode is not None:
                self.mode = args.mode
        if self.seed < 0:
            raise InvalidInputError(f"seed {self.seed} is negative")
        if self.tolerance < 0:
            raise InvalidInputError(f"tolerance {self.tolerance} is negative")
        if self.cutoff < 0:
            raise InvalidInputError(f"cutoff {self.cutoff} is negative")
        if self.mode not in ("exact", "float"):
            raise InvalidInputError(f"unknown arithmetic mode {self.mode!r}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


# error messages echo an offending entry through one capped repr: three
# levels of nesting, six items a level and 80 characters a string or number
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxstring, _ECHO.maxlong, _ECHO.maxother = 3, 80, 80, 80


def _parse_scalar(x, exact: bool, what: str):
    """A finite number: a ``linalg.rational`` in exact mode, else a float.
    A JSON boolean is not a number."""
    if exact and isinstance(x, float) and not x.is_integer():
        raise InvalidInputError(f"exact mode requires integers or 'p/q' strings, got {x}")
    try:
        if isinstance(x, bool):
            raise TypeError
        value = (linalg.rational(x) if exact
                 else float(Fraction(x) if isinstance(x, str) else x))
        if not exact and not math.isfinite(value):
            raise ValueError
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidInputError(f"{what}: {_ECHO.repr(x)} is not a number") from None
    return value


def _parse_numbers(flat: list, shape: tuple, exact: bool, what: str) -> np.ndarray:
    """The entries ``flat`` of a JSON matrix or vector as an array of
    ``shape``.  When every entry is a JSON integer (in float mode, an integer
    or a float), one conversion makes the array; the entry types decide,
    since numpy's own inference takes ``true`` for 1.  Anything else, and a
    float result that is not finite, goes entry by entry through
    ``_parse_scalar``, the one source of the error messages."""
    dtype = object if exact else float
    if set(map(type, flat)) <= ({int} if exact else {int, float}):
        try:
            arr = np.array(flat, dtype=dtype)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if exact or np.isfinite(arr).all():
                return arr.reshape(shape)
    return np.array([_parse_scalar(v, exact, what) for v in flat],
                    dtype=dtype).reshape(shape)


def _parse_matrix(rows, exact: bool, what: str) -> np.ndarray:
    """A JSON list of equal-length lists of numbers as a 2-D array (``[]``
    is 0 x 0); ``what`` names the scenario section in the error."""
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
        raise InvalidInputError(f"{what} must be a rectangular matrix")
    return _parse_numbers(list(chain.from_iterable(rows)),
                          (len(rows), len(rows[0]) if rows else 0), exact, what)


def _parse_vector(vals, exact: bool, what: str) -> np.ndarray:
    if not isinstance(vals, list):
        raise InvalidInputError(f"{what} must be a list of numbers")
    return _parse_numbers(vals, (len(vals),), exact, what)


def _object(value, what: str) -> dict:
    """A scenario section or record that must be a JSON object."""
    if not isinstance(value, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    return value


def _section(spec, name: str) -> dict:
    """A scenario section that must be present and a JSON object."""
    if spec is None:
        raise InvalidInputError(f"scenario has no {name!r} section")
    return _object(spec, f"{name!r} section")


def _list(value, what: str) -> list:
    """A scenario entry that must be a JSON list."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} must be a JSON list")
    return value


def _field(rec, key: str, what: str):
    """rec[key] for a scenario record; a missing key is invalid input."""
    if not isinstance(rec, dict) or key not in rec:
        raise InvalidInputError(f"{what} needs a {key!r} entry")
    return rec[key]


def _int(x, what: str) -> int:
    """int(x) for a scenario field; a value int() rejects, a number with a
    fractional part and a JSON boolean are invalid input."""
    try:
        if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
            raise ValueError
        return int(x)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{what}: {_ECHO.repr(x)} is not an integer") from None


def _vertices(values, what: str) -> tuple:
    """Vertex labels of a scenario simplex or base: integers or strings, one
    kind throughout."""
    vertices = tuple(_list(values, what))
    kinds = {type(v) for v in vertices}
    if not kinds <= {int, str} or len(kinds) > 1:
        raise InvalidInputError(
            f"{what}: vertex labels must be all integers or all strings, "
            f"got {list(vertices)!r}")
    return vertices


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


# arrays and objects a scenario may nest: ``json.loads`` recurses once per
# level, so without a bound the verdict on deep input would depend on the
# caller's stack
MAX_NESTING = 64
_ESCAPE = re.compile(rb"\\.", re.S)
_NOT_SYNTAX = bytes(c for c in range(256) if c not in b'[]{}"')
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


def _nests_deeper(text: str, bound: int) -> bool:
    """Whether JSON ``text`` nests arrays and objects more than ``bound``
    deep: whether the running count of [ and { less ] and } outside strings
    exceeds it.  A text with at most ``bound`` opening brackets cannot, so
    only a longer one is scanned.  With escapes dropped, a string runs from
    one quote to the next, so the brackets outside strings are the even
    pieces between quotes; dropping a pair of adjacent quotes (a string
    with no bracket) first keeps every other quote's parity."""
    raw = text.encode()
    if b"\\" in raw:
        raw = _ESCAPE.sub(b"", raw)
    syntax = raw.translate(None, _NOT_SYNTAX)
    if syntax.count(b"[") + syntax.count(b"{") <= bound:
        return False
    steps = b"".join(syntax.replace(b'""', b"").split(b'"')[::2]).translate(_BRACKET_STEPS)
    return int(np.frombuffer(steps, np.int8).cumsum().max(initial=0)) > bound


def load_scenario(path: str) -> dict:
    """The scenario object of a UTF-8 JSON file that nests at most
    ``MAX_NESTING`` levels; anything else is invalid input."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InvalidInputError(f"scenario file not found: {path}") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise InvalidInputError(
            f"scenario file cannot be read: {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"scenario file is not UTF-8 text: {path}") from None
    if _nests_deeper(text, MAX_NESTING):
        raise InvalidInputError(f"scenario nests too deeply to parse: {path}")
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"scenario parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    return _object(scenario, "scenario")


def load_group(spec, settings: Settings):
    _section(spec, "group")
    if "preset" in spec:
        return reps.preset_group(spec["preset"])
    if "circle" in spec:
        order = _object(spec["circle"], "group 'circle'").get(
            "quadrature_order", settings.quadrature_order)
        return reps.CircleGroupModel(_int(order, "circle 'quadrature_order'"))
    if "table" in spec:
        table = _int_table(spec["table"], "group table")
        irreps = []
        for rec in _list(spec.get("irreps", []), "group 'irreps'"):
            label, dim, chi, endo = (_field(rec, key, "irrep record") for key in
                                     ("label", "dim", "character", "endo_type"))
            chi = _parse_vector(chi, settings.exact, what=f"character of irrep {label!r}")
            irreps.append(reps.IrrepDescriptor(
                label, _int(dim, f"irrep {label!r} 'dim'"), chi, endo))
        g = reps.FiniteGroupModel(spec.get("name", "custom"), table, tuple(irreps))
        g.validate()
        return g
    raise InvalidInputError("group section needs 'preset', 'circle' or 'table'")


def load_representation(group, spec, settings: Settings):
    _section(spec, "representation")
    if "weights" in spec:
        if not isinstance(group, reps.CircleGroupModel):
            raise InvalidInputError("weight lists need a circle group")
        return reps.circle_weight_rep(
            group, [_int(w, "representation 'weights'")
                    for w in _list(spec["weights"], "representation 'weights'")],
            _int(spec.get("fixed_dim", 0), "representation 'fixed_dim'")
        )
    if "blocks" in spec:
        rep = reps.block_rep(group, _list(spec["blocks"], "representation 'blocks'"))
        if not settings.exact:
            rep = reps.RealRepresentation(group, rep.float_matrices)
        return rep
    if "matrices" in spec:
        mats = [_parse_matrix(m, settings.exact, "representation matrices")
                for m in _list(spec["matrices"], "representation matrices")]
        return reps.rep_from_matrices(group, mats)
    if "generator_matrices" in spec:
        sub = spec["generator_matrices"]
        mats = [_parse_matrix(m, settings.exact, "generator_matrices")
                for m in _list(_field(sub, "matrices", "generator_matrices"),
                               "generator_matrices 'matrices'")]
        gens = _list(_field(sub, "generators", "generator_matrices"),
                     "generator_matrices 'generators'")
        return reps.rep_from_generators(
            group, [_int(g, "generator_matrices 'generators'") for g in gens], mats)
    if "random" in spec:
        rng = np.random.default_rng(settings.seed)
        max_dim = _int(_object(spec["random"], "representation 'random'").get(
            "max_dim", 8), "random 'max_dim'")
        return reps.random_rep(group, rng, max_dim, exact=settings.exact)
    raise InvalidInputError(
        "representation section needs 'weights', 'blocks', 'matrices', "
        "'generator_matrices' or 'random'"
    )


def load_base(spec) -> bundles.SimplicialBase:
    _section(spec, "base")
    if "interval" in spec:
        return bundles.SimplicialBase.interval(_int(spec["interval"], "base 'interval'"))
    if "circle" in spec:
        return bundles.SimplicialBase.circle(_int(spec["circle"], "base 'circle'"))
    if "maximal_simplices" in spec:
        what = "base 'maximal_simplices'"
        simplices = _list(spec["maximal_simplices"], what)
        _vertices([v for s in simplices for v in _list(s, what)], what)
        return bundles.SimplicialBase.from_maximal([tuple(s) for s in simplices])
    raise InvalidInputError("base section needs 'interval', 'circle' or "
                            "'maximal_simplices'")


def load_bundle(base, rep, spec, settings: Settings) -> bundles.GBundleModel:
    transitions = {}
    spec = {} if spec is None else _object(spec, "'bundle' section")
    for key, mat in _object(spec.get("transitions", {}), "bundle 'transitions'").items():
        if key.count(",") != 1:
            raise InvalidInputError(f"transition key {key!r} is not 'u,v'")
        u, v = key.split(",")
        transitions[(_vertex(u.strip()), _vertex(v.strip()))] = _parse_matrix(
            mat, settings.exact, f"bundle transition {key!r}"
        )
    bundle = bundles.GBundleModel(base, rep, transitions)
    bundle.validate(settings.tolerance)
    return bundle


def load_lattice(spec) -> floer.HomologyLattice:
    _section(spec, "lattice")
    omega = [_parse_scalar(w, exact=True, what="lattice omega")
             for w in _list(_field(spec, "omega", "lattice"), "lattice 'omega'")]
    return floer.HomologyLattice(
        _int(_field(spec, "rank", "lattice"), "lattice 'rank'"), tuple(omega),
        tuple(_int(c, "lattice 'c1'")
              for c in _list(_field(spec, "c1", "lattice"), "lattice 'c1'")))


def load_generators(spec) -> floer.GeneratorSet:
    _section(spec, "generators")
    names = _list(_field(spec, "names", "generators"), "generators 'names'")
    if not all(isinstance(x, str) for x in names):
        raise InvalidInputError(f"generators 'names' must be strings, got {names!r}")
    return floer.GeneratorSet(
        tuple(names),
        {k: _int(v, "generator 'index'") for k, v in
         _object(_field(spec, "index", "generators"), "generators 'index'").items()},
        {k: _parse_scalar(v, exact=True, what="generator values") for k, v in
         _object(_field(spec, "values", "generators"), "generators 'values'").items()},
    )


def _generator(gens: floer.GeneratorSet, name, what: str):
    if not isinstance(name, str) or name not in gens.names:
        raise InvalidInputError(f"{what}: {name!r} is not a generator")
    return name


def load_counts(lattice, gens, spec) -> floer.ModuliCountTable:
    counts = {}  # a repeated (x, y, A) sums its counts
    for rec in [] if spec is None else _list(spec, "'counts' section"):
        x, y, a, c = (_field(rec, key, "count record")
                      for key in ("x", "y", "A", "count"))
        a = tuple(_int(k, "count record 'A'") for k in _list(a, "count record 'A'"))
        key = (_generator(gens, x, "count record 'x'"),
               _generator(gens, y, "count record 'y'"), a)
        counts[key] = counts.get(key, 0) + _int(c, "count record 'count'")
    return floer.ModuliCountTable(lattice, counts)


def load_fixed_locus(scenario, settings: Settings) -> tv.FixedLocusModel:
    spec = _section(scenario.get("fixed_locus"), "fixed_locus")
    base = load_base(spec.get("base"))
    circle = reps.CircleGroupModel(
        _int(spec.get("quadrature_order", 32), "fixed_locus 'quadrature_order'")
    )
    normal, fiber = {}, {}
    components = _object(_field(spec, "components", "fixed_locus"),
                         "fixed_locus 'components'")
    for label, rec in components.items():
        what = f"fixed_locus component {label!r}"
        _object(rec, what)
        weight = _int(rec.get("weight", label.split("_")[-1]), f"{what} 'weight'")
        if label != f"weight_{weight}":
            raise InvalidInputError(
                f"{what} must be labelled 'weight_{weight}' after its circle irrep")
        units = {key: _int(_field(rec, key, what), f"{what} {key!r}")
                 for key in ("n_units", "m_units")}
        normal[label] = reps.circle_weight_rep(circle, [weight] * units["n_units"])
        fiber[label] = reps.circle_weight_rep(circle, [weight] * units["m_units"])

    def per_vertex(key, parse):
        """{vertex: parse(entry)} with an entry for every base vertex."""
        what = f"fixed_locus {key!r}"
        table = {_vertex(k): parse(v)
                 for k, v in _object(_field(spec, key, "fixed_locus"), what).items()}
        for v in base.vertices:
            if v not in table:
                raise InvalidInputError(f"{what} has no entry for base vertex {v!r}")
        return table

    def lambda_blocks(per):
        for label in _object(per, "fixed_locus 'lambda_blocks'"):
            if label not in components:
                raise InvalidInputError(
                    f"fixed_locus 'lambda_blocks': {label!r} is not a declared component")
        return {label: _parse_matrix(m, False, "fixed_locus lambda_blocks")
                for label, m in per.items()}

    section = per_vertex("section", lambda v: _parse_vector(
        v, exact=False, what="fixed_locus section"))
    fixed_blocks = per_vertex("fixed_blocks", lambda m: _parse_matrix(
        m, exact=False, what="fixed_locus fixed_blocks"))
    lam = per_vertex("lambda_blocks", lambda_blocks)
    support = (set(_vertex(v) for v in _list(spec["support"], "fixed_locus 'support'"))
               if "support" in spec else None)
    return tv.FixedLocusModel(
        base=base, group=circle, normal_reps=normal, fiber_reps=fiber,
        section=section, fixed_blocks=fixed_blocks, lambda_blocks=lam,
        support=support,
    )


def _vertex(k):
    if isinstance(k, str) and k.lstrip("-").isdigit():
        return int(k)
    return k


def load_groupoid(scenario, settings: Settings) -> groupoids.FiniteGroupoid:
    spec = _section(scenario.get("groupoid"), "groupoid")
    if "discrete" in spec:
        return groupoids.discrete_groupoid(_int(spec["discrete"], "groupoid 'discrete'"))
    if "translation" in spec:
        sub = _object(spec["translation"], "groupoid 'translation'")
        group = load_group(sub.get("group"), settings)
        return groupoids.make_translation_groupoid(
            group, _int_table(_field(sub, "action", "groupoid translation"),
                              "translation action")
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
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {str(canonical(k)): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(
            obj.numerator
        )
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()  # python ints, bools and finite floats only
        return canonical(obj.tolist())
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    return obj


def make_record(check: str, anchor: str, ok: bool, certificate=None) -> dict:
    return {
        "check": check,
        "anchor": anchor,
        "pass": bool(ok),
        "certificate": canonical(certificate or {}),
    }


def emit(records, settings, args) -> int:
    report = {
        "pass": all(r["pass"] for r in records),
        "records": records,
        "seed": settings.seed,
        "mode": settings.mode,
    }
    if args.output == "json":
        # records come from make_record, whose certificates are canonical
        print(json.dumps(report, sort_keys=True, indent=2))
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
    if sub == "decompose":
        ranks, _, failed = reps.projector_check([rep], settings.tolerance)[0]
        anchor = "isotypic-character-projectors"
        # a component passes when no failed identity names it: idempotent,
        # or a pairwise-orthogonal pair 'a|b'
        failed_labels = {label for check, label in failed
                         if check != "resolution-of-identity"}

        def component_ok(label):
            names = {label} | {f"{a}|{b}" for other in ranks
                               for a, b in ((label, other), (other, label))}
            return failed_labels.isdisjoint(names)

        records = [make_record(f"component-{label}", anchor, component_ok(label),
                               {"rank": rank})
                   for label, rank in sorted(ranks.items()) if rank]
        ok = ("resolution-of-identity", "") not in failed
        return records + [make_record("resolution-of-identity", anchor, ok,
                                      {"dim": rep.dim})]
    label, dim = reps.endo_type(rep)
    return [make_record("endomorphism-type", "division-ring-classification",
                        True, {"type": label, "endo_dim": dim})]


def _unless_obstructed(check: str, anchor: str, key: str, run) -> list:
    """One record: passing with the ``key`` field of ``run()``'s result, or
    failing with the certificate of the ObstructionError it raises."""
    try:
        return [make_record(check, anchor, True, {key: getattr(run(), key)})]
    except ObstructionError as exc:
        return [make_record(check, anchor, False, exc.certificate)]


def cmd_bundle(scenario, settings, sub):
    group = load_group(scenario.get("group"), settings)
    rep = load_representation(group, scenario.get("representation"), settings)
    base = load_base(scenario.get("base"))
    bundle = load_bundle(base, rep, scenario.get("bundle"), settings)
    if sub == "decompose":
        ranks = bundles.decompose_bundle(bundle, settings.tolerance)
        return [make_record(f"component-{label}", "bundle-isotypic-splitting",
                            True, {"rank": ranks[label]}) for label in sorted(ranks)]
    if sub == "extend":
        spec = _section(scenario.get("extend"), "extend")
        simplex = _vertices(_field(spec, "simplex", "extend section"), "extend 'simplex'")
        section_name = spec.get("section", "s")
        sections = _object(scenario.get("sections", {}), "'sections' section")
        if not isinstance(section_name, str) or section_name not in sections:
            raise InvalidInputError(f"section {section_name!r} not in scenario")
        boundary = {
            _vertex(k): _parse_vector(v, exact=False,
                                      what=f"section {section_name!r}")
            for k, v in _object(sections[section_name],
                                f"section {section_name!r}").items()
        }
        return _unless_obstructed(
            "nonvanishing-extension", "boundary-section-extension", "min_norm",
            lambda: bundles.extend_nonvanishing_section(bundle, simplex, boundary))
    spec = _section(scenario.get("stabilize"), "stabilize")
    lin = {
        _vertex(k): _parse_matrix(m, exact=False, what="stabilize linearizations")
        for k, m in _object(_field(spec, "linearizations", "stabilize section"),
                            "stabilize 'linearizations'").items()
    }
    return _unless_obstructed(
        "cokernel-stabilization", "trivial-cover-subbundle", "rank",
        lambda: bundles.stabilize_cokernel(bundle, lin, seed=settings.seed))


def cmd_transversality(scenario, settings, sub):
    model = load_fixed_locus(scenario, settings)
    if sub == "check":
        records = [make_record(f"condition-{cert['vertex']}-{cert['lambda']}",
                               "fixed-locus-index-condition", ok, cert)
                   for cert, ok in tv.condition_certificates(
                       {v: model.split_at(v) for v in model.zero_set()})]
        return records or [make_record("condition-vacuous", "fixed-locus-index-condition",
                                       True, {"note": "empty zero set"})]
    records = []
    try:
        gamma, report = tv.construct_equivariant_perturbation(model, seed=settings.seed)
        for v in sorted(report.vertex_results, key=str):
            for label, rec in sorted(report.vertex_results[v].items()):
                records.append(make_record(
                    f"surjective-{v}-{label}", "equivariant-perturbation", rec["surjective"],
                    {"min_singular_value": rec["min_singular_value"]}))
        records.append(make_record("gamma-equivariance", "equivariant-perturbation",
                                   report.equivariance_residual <= settings.tolerance,
                                   {"residual": report.equivariance_residual}))
    except ObstructionError as exc:
        records += [make_record(f"obstruction-{cert['vertex']}-{cert['lambda']}",
                                "fixed-locus-index-condition", False, cert)
                    for cert in exc.certificate.get("certificates", [])]
    return records


def _load_paths(scenario, settings):
    spec = scenario.get("flow")
    if spec is None or not _object(spec, "'flow' section").get("paths"):
        raise InvalidInputError("scenario has no 'flow' section with paths")
    out = []
    for rec in _list(spec["paths"], "flow 'paths'"):
        preset = _object(rec, "flow path").get("preset")
        what = f"flow path {preset!r}"
        horizon = _parse_scalar(rec.get("horizon", 9.0), False, f"{what} 'horizon'")

        def matrix(key):
            return _parse_matrix(_field(rec, key, what), False, f"{what} {key}")
        if preset == "constant":
            out.append(spectral.constant_path(matrix("matrix"), horizon))
        elif preset == "tanh":
            out.append(spectral.tanh_path(matrix("b0"), matrix("b1"), horizon))
        elif preset == "tanh-scalar":
            out.append(spectral.scalar_tanh_path(horizon))
        elif preset == "lambda":
            n = _int(_field(rec, "n", what), f"{what} 'n'")
            weight = _int(_field(rec, "weight", what), f"{what} 'weight'")
            scale = _parse_scalar(rec.get("a_scale", 0.0), False, f"{what} 'a_scale'")
            out.append(spectral.build_lambda_path(
                n, weight, lambda s, n=n, c=scale: c * np.tanh(s) * np.eye(2 * n),
                horizon))
        else:
            raise InvalidInputError(f"unknown flow preset {preset!r}")
    return out


def cmd_flow(scenario, settings, sub):
    paths = _load_paths(scenario, settings)
    if sub == "index":
        return [make_record(f"index-{i}-{path.name}", "eigenvalue-count-index",
                            True, {"index": idx})
                for i, (path, idx) in enumerate(zip(paths, spectral.fredholm_indices(paths)))]
    return [make_record(f"oracle-{i}-{path.name}", "shooting-kernel-oracle", idx == shoot,
                        {"eigencount": idx, "shooting": shoot})
            for i, (path, (idx, shoot))
            in enumerate(zip(paths, spectral.shooting_indices(paths)))]


def cmd_floer(scenario, settings, sub):
    if "lattice" not in scenario or "generators" not in scenario:
        if sub == "d2":
            return [make_record("d-squared-vacuous", "differential-squares-to-zero",
                                True, {"note": "empty scenario"})]
        raise InvalidInputError("scenario needs 'lattice' and 'generators'")
    lattice = load_lattice(scenario.get("lattice"))
    gens = load_generators(scenario.get("generators"))
    counts = load_counts(lattice, gens, scenario.get("counts"))
    cutoff = settings.cutoff
    if sub == "reduce":
        morse = {
            tuple(_generator(gens, _field(rec, key, "morse count"), f"morse count {key!r}")
                  for key in ("x", "y")):
                _int(_field(rec, "count", "morse count"), "morse count 'count'")
            for rec in _list(scenario.get("morse_counts", []), "'morse_counts' section")
        }
        reduced = floer.autonomous_reduce(counts, gens, morse)
        delta = floer.build_differential(gens, reduced, cutoff)
        zero = lattice.zero
        entrywise = all(delta.entry(x, y) == ({zero: c} if c else {})
                        for (x, y), c in morse.items())
        spurious = [k for k in reduced.counts
                    if reduced.derived_index(gens, *k) == 0 and k[2] != zero]
        return [make_record("autonomous-reduction", "circle-rotation-reduction",
                            entrywise and not spurious, {"entries": len(reduced.counts)})]
    delta = floer.build_differential(gens, counts, cutoff)
    if sub == "d2":
        rep = floer.check_d_squared(delta)
        cert = {} if rep.ok else {
            "pair": list(rep.first_failure),
            "defect": {str(a): str(c) for a, c in rep.defect.items()},
        }
        return [make_record("d-squared", "differential-squares-to-zero", rep.ok, cert)]
    ranks = floer.cohomology_rank(delta)
    return [make_record("cohomology-ranks", "novikov-field-elimination", True,
                        {"ranks": {str(d): r for d, r in sorted(ranks.items())},
                         "betti_sum": floer.betti_sum(ranks),
                         "generators": len(gens.names)})]


def cmd_groupoid(scenario, settings, sub):
    gpd = load_groupoid(scenario, settings)  # valid by construction: no validate()
    records = []
    if sub == "quotient":
        action_spec = _section(scenario.get("group_action"), "group_action")
        group = load_group(action_spec.get("group"), settings)
        action = groupoids.GlobalActionData(
            group,
            _int_table(_field(action_spec, "objects", "group_action"), "object action"),
            _int_table(_field(action_spec, "morphisms", "group_action"),
                       "morphism action"),
        )
        slices = [_int(s, "'slices'") for s in _list(scenario.get("slices", []), "'slices'")]
        kernels = {
            _vertex(k): [_int(m, "'ineffective_kernels'")
                         for m in _list(v, "'ineffective_kernels'")]
            for k, v in _object(scenario.get("ineffective_kernels", {}),
                                "'ineffective_kernels' section").items()
        }
        model = groupoids.quotient_groupoid(gpd, action, slices, kernels)
        return [make_record(f"isotropy-law-{x}", "isotropy-cardinality-law",
                            model.stab_law[x]["ok"], model.stab_law[x])
                for x in sorted(model.stab_law)]
    uniform = {
        _vertex(k): set(_int(p, "'uniformizers'") for p in _list(v, "'uniformizers'"))
        for k, v in _object(scenario.get("uniformizers", {}),
                            "'uniformizers' section").items()
    }
    if uniform:
        rep = groupoids.properness_check(gpd, uniform)
        records += [make_record(f"properness-{x}", "orbit-set-cardinality", rep[x]["ok"],
                                rep[x]) for x in sorted(rep)]
    reg = scenario.get("regularity")
    if reg:
        local = {}
        for k, v in _object(reg, "'regularity' section").items():
            what = f"regularity of {k}"
            points, subset, act = (_field(v, key, what)
                                   for key in ("points", "sub", "action"))
            local[_vertex(k)] = {
                "points": [_int(p, f"{what} 'points'")
                           for p in _list(points, f"{what} 'points'")],
                "sub": [_int(p, f"{what} 'sub'") for p in _list(subset, f"{what} 'sub'")],
                "action": {_int(m, f"{what} 'action'"):
                           tuple(_int(p, f"{what} 'action'")
                                 for p in _list(perm, f"{what} 'action'"))
                           for m, perm in _object(act, f"{what} 'action'").items()},
            }
        rep = groupoids.regularity_check(gpd, local)
        records += [make_record(f"regularity-{key[0]}-{key[1]}", "local-action-rigidity",
                                rep[key]["ok"], rep[key]) for key in sorted(rep, key=str)]
    return records or [make_record("groupoid-axioms", "groupoid-validation", True, {})]


def _check_permutation_action(group, table: np.ndarray, dim: int) -> None:
    """The table, or its rows of the inverses, must be an action on the
    coordinate indices (``groupoids.check_action_table``), as the presets'
    sorted permutations are; p -> p[table[g]] then moves points by a right or
    a left action, with the same orbits and averages.  When both fail, the
    first error stands."""
    try:
        groupoids.check_action_table(group, table, dim, "permutation table")
    except InvalidInputError as first:
        if table.shape != (group.order, dim):
            raise
        inverse_rows = table[group.inverse(np.arange(group.order))]
        try:
            groupoids.check_action_table(group, inverse_rows, dim, "permutation table")
        except InvalidInputError:
            raise first from None


def cmd_metric(scenario, settings, sub):
    pts = scenario.get("metric_points")
    if not isinstance(pts, list) or not pts:
        raise InvalidInputError("scenario needs a non-empty 'metric_points' list")
    points = [_parse_vector(p, exact=False, what="metric_points") for p in pts]
    dims = {len(p) for p in points}
    if len(dims) > 1 or 0 in dims:
        raise InvalidInputError("metric_points must all have one dimension d >= 1")
    dim = dims.pop()
    action_spec = _object(scenario.get("metric_action", {"type": "negation"}),
                          "'metric_action' section")
    kind = action_spec.get("type")
    if kind == "negation":
        group = reps.cyclic_group(2)
        signs = np.array([np.eye(dim), -np.eye(dim)])
        action = lambda g: signs[g]  # noqa: E731
    elif kind == "circle-rotation":
        if dim != 2:
            raise InvalidInputError(f"the circle-rotation action needs planar points "
                                    f"(d = 2), got d = {dim}")
        group = reps.CircleGroupModel(settings.quadrature_order)
        action = groupoids.circle_rotation_action(group)
    elif kind == "permutation":
        group = load_group(action_spec.get("group"), settings)
        table = _int_table(_field(action_spec, "table", "permutation action"),
                           "permutation table")
        _check_permutation_action(group, table, dim)
        # row i of element g picks coordinate table[g, i]
        perms = np.eye(dim)[table]
        action = lambda g: perms[g]  # noqa: E731
    else:
        raise InvalidInputError(f"unknown metric action type {kind!r}")
    orb = groupoids.quotient_metric(points, group, action)
    sym = float(np.max(np.abs(orb - orb.T)))
    # (orb[i, k] - orb[i, j]) - orb[j, k] over every (i, k), one middle point
    # j at a time, so no n^3 array is formed
    tri = max(0.0, float(np.max([np.max(orb - orb[:, j, None] - orb[j])
                                 for j in range(len(orb))])))
    ok = sym <= groupoids.TOL and tri <= groupoids.TOL
    return [
        make_record("quotient-metric", "orbit-space-metric", ok,
                    {"orbit_matrix": orb,
                     "symmetry_defect": sym, "triangle_defect": tri})
    ]


def cmd_suite(name):  # one record per battery, and each battery's own time in ms
    runs = suites.run_suite(name)
    return ([make_record(f"criterion-{r['criterion']}-{r['name']}", r["anchor"], r["pass"],
                         {"checks": r["checks"], "failures": r["failures"],
                          "elapsed_s": round(r["elapsed"], 4)})
             for r in runs], [1000 * r["elapsed"] for r in runs])


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


@cache  # built once per process: parsing keeps no state in the parser
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
            records, battery_ms = cmd_suite(args.subcommand)
        elif args.command in COMMANDS:
            fn, subs = COMMANDS[args.command]
            if args.subcommand not in subs:
                raise InvalidInputError(
                    f"unknown subcommand {args.subcommand!r} for "
                    f"{args.command!r}; expected one of {subs}"
                )
            records, battery_ms = fn(scenario, settings, args.subcommand), None
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
    if args.timing:  # a suite record's own battery time, else the time since t0
        since = 1000 * (time.perf_counter() - t0)
        for rec, ms in zip(records, battery_ms or [since] * len(records)):
            rec["timing_ms"] = round(ms, 3)
    return emit(records, settings, args)


if __name__ == "__main__":
    sys.exit(main())
