"""Meta-tests of the acceptance batteries: the exact draws and projectors
criterion 1 certifies (int entries where integral) must agree with an
all-Fraction rebuild, batteries must be deterministic, and each battery
must report a fault planted in the kernel it checks.  Two tracemalloc
bounds cap the largest work of criteria 1 and 6."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from equitrans import (floer, groupoids, linalg, reps, spectral, suites,
                       transversality as tv)
from equitrans.errors import InvalidInputError
from test_projector_check import fraction_projectors, mat_eq


@pytest.mark.parametrize("name", ["Z_3", "S_3", "Q_8", "D_4"])
def test_integer_battery_matches_fraction_projectors(name):
    group = reps.preset_group(name)
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    rep = reps.random_rep(group, rng_a, 12, exact=True)
    # rebuild the same seeded rep with every entry a Fraction: same block
    # choices, same signed permutation
    names = reps.choose_blocks(group, rng_b, 12)
    catalog = reps._block_catalog(group)
    blocks = linalg.block_diag([catalog[n].matrices for n in names], exact=True)
    d = blocks.shape[-1]
    perm = rng_b.permutation(d)
    signs = rng_b.choice([-1, 1], size=d)
    q = np.full((d, d), Fraction(0), dtype=object)
    for j, (p, s) in enumerate(zip(perm, signs)):
        q[p, j] = Fraction(int(s))
    mats = q @ blocks @ q.T
    assert all(type(x) is Fraction for x in mats.reshape(-1))
    assert mat_eq(rep.matrices, mats)
    # the integer numerators criterion 1 certifies, Q = D P, equal the
    # all-Fraction character sums on the rebuilt rep
    _, projs, denom, _ = reps._projectors(rep, {})
    reference = fraction_projectors(reps.RealRepresentation(group, mats))
    assert sorted(projs) == sorted(reference)
    for label, ref in reference.items():
        assert mat_eq(projs[label].astype(object), ref * denom), label


def test_battery_records_are_deterministic():
    a = suites.suite_condition()
    b = suites.suite_condition()
    for key in ("criterion", "checks", "n_failures", "pass", "failures"):
        assert a[key] == b[key]


# the check count of each battery, pinned exactly: a battery that drops or
# repeats a check changes its count
CHECKS = {"projectors": 6860, "endotype": 17, "codimension": 108, "condition": 500,
          "spectral-flow": 91, "oracle": 20, "perturbation": 80, "floer": 31,
          "groupoid": 489}


def test_battery_check_counts_are_pinned():
    assert list(CHECKS) == list(suites.SUITES)
    for name, battery in suites.SUITES.items():
        record = battery()
        assert (record["checks"], record["pass"]) == (CHECKS[name], True), name


def test_harness_counts_all_failures_and_keeps_the_first_16():
    @suites._battery(0, "harness", "first-16")
    def body(check):
        check(True, None, 5)
        for i in range(20):
            check(False, {"case": i})

    record = body()
    assert list(record) == ["criterion", "name", "anchor", "checks", "failures",
                            "n_failures", "pass", "elapsed"]
    assert record["checks"] == 25 and record["n_failures"] == 20
    assert record["failures"] == [{"case": i} for i in range(16)]
    assert record["pass"] is False and record["elapsed"] >= 0


def test_condition_battery_reports_a_planted_fault(monkeypatch):
    # criterion 4 asks the library's pointwise condition, so flipping its
    # verdict for one (ind_sG, ind_lambda) pair must fail the record there
    planted = (2, 0)
    honest = tv.check_pointwise_condition

    def flipped(split):
        return {label: ok != ((split.fixed_index, split.lambda_real_index(label))
                              == planted)
                for label, ok in honest(split).items()}

    monkeypatch.setattr(tv, "check_pointwise_condition", flipped)
    record = suites.SUITES["condition"]()
    assert not record["pass"] and record["n_failures"] > 0
    assert {(f["ind_sG"], f["ind_lambda"]) for f in record["failures"]} == {planted}


# each battery reports a wrong answer planted in the kernel it checks, and
# names the case


def test_projector_battery_reports_a_planted_fault(monkeypatch):
    # one flipped off-diagonal entry in the float S_3 standard projector
    honest = reps._projectors

    def flipped(rep, commuting):
        mats, projs, denom, named = honest(rep, commuting)
        if getattr(rep.group, "name", "") == "S_3" and not rep.exact and rep.dim > 1:
            projs = dict(projs, standard=projs["standard"].copy())
            projs["standard"][0, 1] += 1.0
        return mats, projs, denom, named

    monkeypatch.setattr(reps, "_projectors", flipped)
    record = suites.SUITES["projectors"]()
    assert not record["pass"]
    assert {(f["mode"], f["group"]) for f in record["failures"]} == {("float", "S_3")}
    assert ("idempotent", "standard") in {(f["check"], f["component"])
                                          for f in record["failures"]}


def test_endotype_battery_reports_a_planted_fault(monkeypatch):
    # the four-dimensional Q_8 irrep classified as real
    honest = reps.endo_type
    monkeypatch.setattr(reps, "endo_type", lambda rep: ("R", 1) if rep.dim == 4
                        else honest(rep))
    record = suites.SUITES["endotype"]()
    assert record["failures"] == [{"case": "quaternion-four-dim"}]


def test_codimension_battery_reports_a_planted_fault(monkeypatch):
    # the column fibration count one too high at (n, m) = (3, 2)
    honest = tv.determinantal_dimension_oracle_columns
    monkeypatch.setattr(tv, "determinantal_dimension_oracle_columns",
                        lambda n, m, r: honest(n, m, r) + ((n, m) == (3, 2)))
    record = suites.SUITES["codimension"]()
    assert record["failures"] == [{"n": 3, "m": 2, "d": d, "check": "fibrations"}
                                  for d in (1, 2, 4)]


def test_spectral_flow_battery_reports_a_planted_fault(monkeypatch):
    # unstable dimensions one too low on 12x12 ends, the lambda paths with
    # n = 3 (the index, a difference of two such counts, is unchanged)
    honest = spectral.unstable_dim
    monkeypatch.setattr(spectral, "unstable_dim",
                        lambda b: honest(b) - (np.shape(b) == (12, 12)))
    record = suites.SUITES["spectral-flow"]()
    assert record["failures"] == [{"case": f"unstable-dim-l{w}-n3"} for w in range(1, 6)]


def test_oracle_battery_reports_a_planted_fault(monkeypatch):
    # the shooting index one too high on the 2x2 paths, the odd cases
    honest = spectral.shooting_indices
    monkeypatch.setattr(spectral, "shooting_indices", lambda paths: [
        (idx, shoot + (path.dim == 2)) for path, (idx, shoot) in zip(paths, honest(paths))])
    record = suites.SUITES["oracle"]()
    assert [f["case"] for f in record["failures"]] == list(range(1, 20, 2))
    assert all(f["shooting"] == f["eigencount"] + 1 for f in record["failures"])


def test_perturbation_battery_reports_a_planted_fault(monkeypatch):
    # the sampler certifies a 4x4 weight block as surjective without
    # correcting it: the battery's own singular-value check must catch it at
    # every vertex of the two {3: (2, 2)} models, 3 and 8
    honest = tv._surject_equivariant_block

    def lying(block, hom_basis, rng):
        if block.shape == (4, 4):
            return np.zeros_like(block), 1.0
        return honest(block, hom_basis, rng)

    monkeypatch.setattr(tv, "_surject_equivariant_block", lying)
    record = suites.SUITES["perturbation"]()
    assert not record["pass"]
    assert {(f["model"], f["block"]) for f in record["failures"]} == {
        (3, "weight_3"), (8, "weight_3")}
    assert len(record["failures"]) == 2 + 3  # interval and circle(3) vertices


def test_floer_battery_reports_a_planted_fault(monkeypatch):
    # a degree-1 Novikov cohomology rank one too high on the four-generator
    # torus model
    honest = floer.cohomology_rank

    def inflated(delta, *args, **kwargs):
        ranks = honest(delta, *args, **kwargs)
        if len(delta.gens.names) == 4:
            ranks = {**ranks, 1: ranks.get(1, 0) + 1}
        return ranks

    monkeypatch.setattr(floer, "cohomology_rank", inflated)
    record = suites.SUITES["floer"]()
    assert [f["case"] for f in record["failures"]] == [
        "torus-ranks", "generator-lower-bound", "perfect-model-equality"]
    assert record["failures"][0]["got"] == {0: 1, 1: 3, 2: 1}


def test_groupoid_battery_reports_a_planted_fault(monkeypatch):
    # one wrong entry of the Z_2 negation orbit metric
    honest = groupoids.quotient_metric

    def skewed(points, group, action, *args):
        orbit = honest(points, group, action, *args)
        if group.order == 2:
            orbit[2, 5] += 0.5
        return orbit

    monkeypatch.setattr(groupoids, "quotient_metric", skewed)
    record = suites.SUITES["groupoid"]()
    assert record["failures"] == [{"metric-pair": (2, 5)}]


def test_unknown_suite_name_rejected():
    with pytest.raises(InvalidInputError):
        suites.run_suite("nonsense")


def test_circle_weight_capacity_enforced():
    circle = reps.CircleGroupModel(64)
    assert circle.max_weight == 15
    with pytest.raises(InvalidInputError):
        circle.weight_irrep(16)
    with pytest.raises(InvalidInputError):
        reps.circle_weight_rep(circle, [16])


def _traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc over one call of ``run``, after a
    call that fills the caches (a group's character table)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projector_check_memory_on_criterion_1s_largest_case():
    # the float circle of order 64 at d = 12; the check's peak is its
    # pairwise-orthogonal stack of 120 pairs.  It measured 467,636 bytes
    # when each label's projector was its own tensordot, and 447,444 bytes
    # once they are one product whose unsorted stack is freed as the check
    # sorts it
    rep = reps.random_rep(reps.CircleGroupModel(suites.CIRCLE_ORDER),
                          np.random.default_rng(2025), max_dim=12, exact=False)
    assert rep.dim == 12 and len(rep.group.irreps) == 15
    assert _traced_peak(lambda: reps.projector_check(rep)) < 460_000


def test_oracle_battery_sweep_memory():
    # the 20 paths shot in two sweeps of 10; shot one at a time the battery
    # measured about 223,000 bytes, and the two sweeps about 204,000: a
    # sweep's block holds one path's samples at a time, and its RK4 sums
    # are formed in place
    assert _traced_peak(suites.SUITES["oracle"]) < 215_000
