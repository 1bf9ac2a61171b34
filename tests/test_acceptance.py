"""Acceptance criteria: one test per criterion, at the stated tolerances and
runtime budgets, printing one pass/fail line per criterion.

The batteries live in equitrans.suites and are shared with the CLI's
``suite`` subcommand; tolerances are pinned there (exact integer arithmetic
for projector/codimension/condition checks, 1e-10 float projector residuals,
1e-8 surjectivity singular values, 1e-6 shooting-oracle angles and circle
metric residuals).
"""

from equitrans import suites

BUDGETS = {
    1: 1.0,  # projector algebra
    2: 1.0,  # endomorphism-type table
    3: 0.01,  # determinantal codimension
    4: 0.1,  # condition consistency
    5: 0.25,  # spectral-flow battery
    6: 1.0,  # shooting oracle
    7: 0.25,  # perturbation pipeline
    8: 1.0,  # floer algebra
    9: 1.5,  # groupoid quotient
}


def _run(name):
    record = suites.run_suite(name)[0]
    status = "PASS" if record["pass"] else "FAIL"
    print(
        f"{status} criterion-{record['criterion']} {record['name']}: "
        f"{record['checks']} checks, {record['n_failures']} failures, "
        f"{record['elapsed']:.3f}s"
    )
    assert record["pass"], record["failures"]
    budget = BUDGETS.get(record["criterion"])
    if budget is not None:
        assert record["elapsed"] < budget, (
            f"criterion {record['criterion']} exceeded its {budget}s budget: "
            f"{record['elapsed']}s"
        )
    return record


def test_criterion_1_projector_algebra():
    record = _run("projectors")
    # 7 finite groups x 20 exact + (7 finite + circle) x 20 float
    assert record["checks"] > 5000


def test_criterion_2_endomorphism_type_table():
    record = _run("endotype")
    assert record["checks"] >= 17  # trivial + 15 weight planes + quaternion


def test_criterion_3_determinantal_codimension():
    record = _run("codimension")
    assert record["checks"] >= 100  # all 1 <= m <= n <= 4, d in {1, 2, 4}


def test_criterion_4_condition_consistency():
    record = _run("condition")
    assert record["checks"] == 500


def test_criterion_5_spectral_flow_battery():
    record = _run("spectral-flow")
    # tanh + 10 constants + 15 weight-lambda cases x 2 + 50 seeded
    assert record["checks"] >= 91


def test_criterion_6_oracle_equivalence():
    record = _run("oracle")
    assert record["checks"] == 20


def test_criterion_7_perturbation_pipeline():
    record = _run("perturbation")
    assert record["checks"] >= 15


def test_criterion_8_floer_algebra():
    record = _run("floer")
    assert record["checks"] >= 30


def test_criterion_9_groupoid_quotient():
    record = _run("groupoid")
    assert record["checks"] >= 100
