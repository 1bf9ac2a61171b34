"""Meta-tests of the acceptance batteries: the exact draws and projectors
criterion 1 certifies (int entries where integral) must agree with an
all-Fraction rebuild, and batteries must be deterministic."""

from fractions import Fraction

import numpy as np
import pytest

from equitrans import linalg, reps, suites
from equitrans.errors import InvalidInputError


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
    assert linalg.mat_eq(rep.matrices, mats)
    # the int-entry projectors criterion 1 certifies equal the all-Fraction
    # character sums
    projs = reps.all_projectors(rep)
    order = group.order
    assert linalg.mat_eq(projs["fixed"], sum(mats) * Fraction(1, order))
    for ir in group.nontrivial_irreps():
        ref = sum(Fraction(c) * m for c, m in zip(ir.character, mats))
        scale = Fraction(ir.dim_V, ir.endo_dim * order)
        assert linalg.mat_eq(projs[ir.label], ref * scale)


def test_battery_records_are_deterministic():
    a = suites.suite_condition()
    b = suites.suite_condition()
    for key in ("criterion", "checks", "n_failures", "pass", "failures"):
        assert a[key] == b[key]


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
