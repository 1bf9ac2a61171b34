"""Tests for finite groupoids, quotients, regularity, and quotient
metrics."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equitrans import cli, reps, suites
from equitrans import groupoids as gq
from equitrans.errors import InvalidInputError
from equitrans.groupoids import (
    GlobalActionData,
    circle_rotation_action,
    discrete_groupoid,
    make_translation_groupoid,
    orbit_set,
    properness_check,
    quotient_groupoid,
    quotient_metric,
    regularity_check,
)


def cyclic_action(n, npts, shift=1):
    """Z_n acting on npts points by repeated application of a shift."""
    group = reps.cyclic_group(n)
    act = np.zeros((n, npts), dtype=int)
    for g in range(n):
        for x in range(npts):
            act[g, x] = (x + g * shift) % npts
    return group, act


# ---------------------------------------------------------------------------
# translation groupoids and orbit sets
# ---------------------------------------------------------------------------


def test_trivial_group_gives_discrete_groupoid():
    group = reps.cyclic_group(1)
    act = np.arange(3).reshape(1, 3)
    gpd = make_translation_groupoid(group, act)
    gpd.validate()
    assert gpd.n_morphisms == 3
    for x in range(3):
        assert gpd.stab(x) == [gpd.units[x]]


def test_z2_free_action_on_two_points():
    group, act = cyclic_action(2, 2)
    gpd = make_translation_groupoid(group, act)
    gpd.validate()
    assert gpd.n_morphisms == 4
    assert len(gpd.stab(0)) == 1  # free action: trivial isotropy
    assert set(gpd.tgt[gpd.src == 0].tolist()) == {0, 1}  # one orbit


def test_z2_trivial_action_has_full_stabilizer():
    group = reps.cyclic_group(2)
    act = np.zeros((2, 1), dtype=int)
    gpd = make_translation_groupoid(group, act)
    gpd.validate()
    assert len(gpd.stab(0)) == 2


def test_orbit_set_examples():
    gpd = discrete_groupoid(2)
    assert orbit_set(gpd, 0, {0}) == [gpd.units[0]]
    group = reps.cyclic_group(2)
    act = np.zeros((2, 1), dtype=int)
    point_gpd = make_translation_groupoid(group, act)
    assert len(orbit_set(point_gpd, 0, {0})) == 2
    group3, act3 = cyclic_action(3, 3)
    gpd3 = make_translation_groupoid(group3, act3)
    assert len(orbit_set(gpd3, 1, {0, 1, 2})) == 3


# ---------------------------------------------------------------------------
# axiom checks: one corrupted entry per law
# ---------------------------------------------------------------------------


def _corrupt_groupoid(gpd, field, index, value):
    """Validate a copy of gpd with one entry of one index array replaced."""
    arrays = {f: getattr(gpd, f).copy()
              for f in ("src", "tgt", "compose_table", "units", "inverses")}
    arrays[field][index] = value
    gq.FiniteGroupoid(gpd.n_objects, **arrays).validate()


def _truncated_groupoid(gpd, field):
    """Validate a copy of gpd with the last entry (row) of one index array
    dropped."""
    arrays = {f: getattr(gpd, f) for f in ("src", "tgt", "compose_table", "units",
                                           "inverses")}
    arrays[field] = arrays[field][:-1]
    gq.FiniteGroupoid(gpd.n_objects, **arrays).validate()


def _z_n_on_a_point(n):
    """Z_n as a one-object groupoid: morphism g is the group element g."""
    return make_translation_groupoid(reps.cyclic_group(n),
                                     np.zeros((n, 1), dtype=int))


def _z2_swap():
    """Z_2 swapping two points: morphisms (e,0), (e,1), (s,0): 0 -> 1 and
    (s,1): 1 -> 0."""
    group, act = cyclic_action(2, 2)
    return make_translation_groupoid(group, act)


def _non_functorial_action():
    # swapping 1 and 2 in Z_4 is an involutive bijection, not a homomorphism
    gpd = _z_n_on_a_point(4)
    oa, ma = np.zeros((2, 1), dtype=int), np.array([[0, 1, 2, 3], [0, 2, 1, 3]])
    GlobalActionData(reps.cyclic_group(2), oa, ma).validate(gpd)


def _action_not_on_endpoints():
    # objects swapped, morphisms (the units) left in place
    oa, ma = np.array([[0, 1], [1, 0]]), np.array([[0, 1], [0, 1]])
    GlobalActionData(reps.cyclic_group(2), oa, ma).validate(discrete_groupoid(2))


def _non_associative_group():
    table = reps.cyclic_group(3).table.copy()
    table[1, 1] = 0  # units and inverses still hold
    reps.FiniteGroupModel("broken", table).validate()


@pytest.mark.parametrize("corrupt, match", [
    (lambda: _truncated_groupoid(_z2_swap(), "units"),
     r"units or inverses have the wrong length"),
    (lambda: _truncated_groupoid(_z2_swap(), "inverses"),
     r"units or inverses have the wrong length"),
    (lambda: _truncated_groupoid(_z2_swap(), "compose_table"),
     r"composition table is not m x m"),
    (lambda: _corrupt_groupoid(_z_n_on_a_point(2), "units", 0, 1),
     r"right unit law fails at morphism 0"),
    (lambda: _corrupt_groupoid(_z_n_on_a_point(3), "inverses", 1, 1),
     r"inverse law fails at morphism 1"),
    (lambda: _corrupt_groupoid(_z_n_on_a_point(3), "compose_table", (1, 1), 0),
     r"associativity fails at \(1,1,2\)"),
    (lambda: _corrupt_groupoid(_z2_swap(), "compose_table", (0, 0), -1),
     r"composable pair \(0,0\) missing"),
    (lambda: _corrupt_groupoid(_z2_swap(), "compose_table", (0, 1), 0),
     r"non-composable pair \(0,1\)"),
    (lambda: _corrupt_groupoid(_z2_swap(), "compose_table", (2, 0), 3),
     r"composite of \(2,0\) has wrong endpoints"),
    (lambda: _corrupt_groupoid(_z2_swap(), "units", 1, 2),
     r"unit of object 1 is not an endomorphism"),
    (lambda: make_translation_groupoid(reps.cyclic_group(2),
                                       np.array([[0, 1, 2], [1, 2, 0]])),
     r"action table is not an action at \(1,1,0\)"),
    (_non_functorial_action, r"functoriality fails on composition at element 1"),
    (_action_not_on_endpoints, r"functoriality fails on source/target at \(1,0\)"),
    (_non_associative_group, r"multiplication not associative at \(1,1,2\)"),
])
def test_broken_table_rejected(corrupt, match):
    with pytest.raises(InvalidInputError, match=match):
        corrupt()


@pytest.mark.parametrize("name", sorted(reps._PRESETS))
def test_every_preset_acts_on_itself(name):
    # table[h, table[g, x]] = h(gx) = (hg)x: associativity is the action law
    group = reps.preset_group(name)
    gq.check_action_table(group, group.table, group.order, "multiplication table")


def test_the_groupoid_battery_tables_pass_the_action_check(monkeypatch):
    checked, honest = [], gq.check_action_table

    def recording(group, table, n, what):
        checked.append(what)
        honest(group, table, n, what)

    monkeypatch.setattr(gq, "check_action_table", recording)
    assert suites.SUITES["groupoid"]()["pass"]
    # 7 translation groupoids, and 10 global actions with two tables each
    assert sorted(set(checked)) == ["action table", "morphism action table",
                                    "object action table"]
    assert [checked.count(w) for w in ("action table", "object action table")] == [7, 10]


# a Z_2 table on three points with one planted fault per check; each error
# names the first failure in C order: two bad entries, a moved point 1, and a
# row (0, 0, 2) that is no bijection, caught by the law at x = 1
ACTION_FAULTS = {
    "shape": (lambda t: t[:1], "{} needs shape (2, 3), one row of 3 points per group "
              "element, got (1, 3)"),
    "range": (lambda t: np.where([[0, 0, 0], [1, 0, 1]], [[0, 0, 0], [-1, 0, 3]], t),
              "{} entry (1,0) is not in range(3)"),
    "identity": (lambda t: np.array([[0, 2, 1], t[1]]),
                 "identity does not fix point 1 in the {}"),
    "law": (lambda t: np.array([t[0], [0, 0, 2]]), "{} is not an action at (1,1,1)"),
}


def _through_translation(table, tmp_path, capsys):
    make_translation_groupoid(reps.cyclic_group(2), table)
    return "action table"


def _through_object_action(table, tmp_path, capsys):
    GlobalActionData(reps.cyclic_group(2), table,
                     np.array([[0, 1, 2], [1, 0, 2]])).validate(discrete_groupoid(3))
    return "object action table"


def _through_morphism_action(table, tmp_path, capsys):
    GlobalActionData(reps.cyclic_group(2), np.array([[0, 1, 2], [1, 0, 2]]),
                     table).validate(discrete_groupoid(3))
    return "morphism action table"


def _through_cli(table, tmp_path, capsys):
    scenario = tmp_path / "metric.json"
    scenario.write_text(json.dumps({
        "metric_points": np.eye(3).tolist(),
        "metric_action": {"type": "permutation", "group": {"preset": "Z_2"},
                          "table": table.tolist()}}))
    code = cli.main(["metric", "quotient", str(scenario)])
    out, err = capsys.readouterr()
    if code != 0:  # invalid input: exit 2, no report and no traceback
        assert (code, out, json.loads(err)["kind"]) == (2, "", "invalid-input")
        raise InvalidInputError(json.loads(err)["error"])
    return "permutation table"


@pytest.mark.parametrize("caller, what", [
    (_through_translation, "action table"),
    (_through_object_action, "object action table"),
    (_through_morphism_action, "morphism action table"),
    (_through_cli, "permutation table"),
])
@pytest.mark.parametrize("fault", list(ACTION_FAULTS))
def test_each_action_table_fault_raises_through_every_caller(tmp_path, capsys, caller,
                                                             what, fault):
    plant, message = ACTION_FAULTS[fault]
    table = np.array([[0, 1, 2], [1, 0, 2]])
    assert caller(table, tmp_path, capsys) == what
    with pytest.raises(InvalidInputError) as caught:
        caller(plant(table), tmp_path, capsys)
    assert str(caught.value) == message.format(what)


def _first_failing_triple(t):
    """The dense triple loop, vectorized over (j, k) for each first factor
    i: the first (i, j, k) in C order over all triples with i o j and j o k
    defined and (i o j) o k != i o (j o k)."""
    for i in range(len(t)):
        bad = (t[i, :, None] >= 0) & (t >= 0) & (t[t[i]] != t[i, t])
        if bad.any():
            return (i, *np.argwhere(bad)[0].tolist())
    return None


def _renumbered(gpd, keep, n_objects, objects):
    """The full subgroupoid on the morphisms ``keep`` (in that order) and
    the objects ``objects`` (object objects[k] becomes k)."""
    obj = np.full(gpd.n_objects, -1)
    obj[objects] = np.arange(n_objects)
    new = np.full(gpd.n_morphisms, -1)
    new[keep] = np.arange(len(keep))
    t = gpd.compose_table[np.ix_(keep, keep)]
    return gq.FiniteGroupoid(n_objects, obj[gpd.src[keep]], obj[gpd.tgt[keep]],
                             np.where(t >= 0, new[t], -1), new[gpd.units[objects]],
                             new[gpd.inverses[keep]])


def _mixed_in_degrees():
    # S_3 on 3 + 1 + 6 points (natural, fixed, regular), cut down to the
    # objects 0, 1, 3, 4: in-degrees 4, 4, 6 and 1
    s3 = reps.symmetric_group(3)
    perms = np.array(sorted(itertools.permutations(range(3))))
    action = np.concatenate([perms, np.full((6, 1), 3), s3.table + 4], axis=1)
    gpd = make_translation_groupoid(s3, action)
    objects = [0, 1, 3, 4]
    keep = np.flatnonzero(np.isin(gpd.src, objects) & np.isin(gpd.tgt, objects))
    sub = _renumbered(gpd, keep, len(objects), objects)
    sub.validate()
    assert sorted(np.bincount(sub.tgt).tolist()) == [1, 4, 4, 6]
    return sub


def _s4_on_14_points():
    # S_4 on 4 points, on the 6 pairs of them and on 4 points again (m = 336,
    # every in-degree 24); the morphisms into or out of object 13 are
    # numbered last, so a composite into 13 that is changed breaks only
    # triples whose first factor comes after the first 2**16 triples
    perms = np.array(sorted(itertools.permutations(range(4))))
    pairs = list(itertools.combinations(range(4), 2))
    on_pairs = np.array([[pairs.index(tuple(sorted(p[list(q)]))) for q in pairs]
                         for p in perms])
    action = np.concatenate([perms, on_pairs + 4, perms + 10], axis=1)
    gpd = make_translation_groupoid(reps.symmetric_group(4), action)
    keep = np.argsort((gpd.src == 13) | (gpd.tgt == 13), kind="stable")
    return _renumbered(gpd, keep, gpd.n_objects, np.arange(gpd.n_objects))


@pytest.mark.parametrize("make, into, step", [
    (lambda: make_translation_groupoid(*cyclic_action(4, 2)), None, 3),
    (_mixed_in_degrees, None, 2),
    (_s4_on_14_points, 13, 300),
])
def test_associativity_error_names_first_triple_in_c_order(make, into, step):
    # replacing a o b (neither a unit, b not the inverse of a) by another
    # morphism with the same endpoints breaks associativity only; the error
    # names the first failing triple of a dense loop
    gpd = make()
    t0 = gpd.compose_table
    pairs = [(a, b) for a, b in np.argwhere(t0 >= 0)
             if a not in gpd.units and b not in gpd.units and gpd.inverses[a] != b
             and len(gpd.morphisms_between(gpd.src[b], gpd.tgt[a])) > 1
             and into in (None, gpd.tgt[a])]
    width = np.bincount(gpd.tgt).max()
    for a, b in pairs[::step]:
        t = t0.copy()
        t[a, b] = next(c for c in gpd.morphisms_between(gpd.src[b], gpd.tgt[a])
                       if c != t0[a, b])
        first = _first_failing_triple(t)
        if len(t) <= 32:
            assert first == next(
                (i, j, k) for i, j, k in itertools.product(range(len(t)), repeat=3)
                if t[i, j] >= 0 and t[j, k] >= 0 and t[t[i, j], k] != t[i, t[j, k]]
            )
        if into is not None:
            assert first[0] * width**2 > 2**16
        broken = gq.FiniteGroupoid(gpd.n_objects, gpd.src, gpd.tgt, t,
                                   gpd.units, gpd.inverses)
        with pytest.raises(InvalidInputError) as err:
            broken.validate()
        assert str(err.value) == "associativity fails at ({},{},{})".format(*first)


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------


def test_properness_stab_orbit_uniformizers_pass():
    # free Z_3 action: the stabilizer orbit of a point is the point itself,
    # and any uniformizer meeting each group orbit once passes
    group, act = cyclic_action(3, 3)
    gpd = make_translation_groupoid(group, act)
    assert properness_check(gpd, {0: {0}})[0]["ok"]
    # two free Z_2 orbits on four points: one point per orbit still passes
    z2 = reps.cyclic_group(2)
    act2 = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    gpd2 = make_translation_groupoid(z2, act2)
    assert properness_check(gpd2, {0: {0, 2}})[0]["ok"]
    # trivial action on a point: the full stabilizer counts
    point = make_translation_groupoid(z2, np.zeros((2, 1), dtype=int))
    assert properness_check(point, {0: {0}})[0]["ok"]


def test_properness_mixed_isotropy_fails_at_smaller_point():
    # Z_2 acting on 3 points: swaps 0 and 1, fixes 2; a uniformizer around
    # the fixed point 2 that also contains 0 fails at 0
    group = reps.cyclic_group(2)
    act = np.array([[0, 1, 2], [1, 0, 2]])
    gpd = make_translation_groupoid(group, act)
    report = properness_check(gpd, {2: {0, 2}})
    assert not report[2]["ok"]
    assert report[2]["offending"] == 0
    # the honest uniformizer around the fixed point passes
    assert properness_check(gpd, {2: {2}})[2]["ok"]


def test_properness_trivial_groupoid():
    gpd = discrete_groupoid(3)
    report = properness_check(gpd, {x: {x} for x in range(3)})
    assert all(r["ok"] for r in report.values())


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def fixed_object_groupoid_with_stab(n_stab):
    """One object with stabilizer Z_{n_stab} (a translation groupoid of the
    trivial action)."""
    group = reps.cyclic_group(n_stab)
    act = np.zeros((n_stab, 1), dtype=int)
    return make_translation_groupoid(group, act)


def test_quotient_free_z2_on_discrete_pair():
    gpd = discrete_groupoid(2)
    z2 = reps.cyclic_group(2)
    action = GlobalActionData(z2, np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
    model = quotient_groupoid(gpd, action, [0], {})
    assert model.groupoid.n_objects == 1
    assert len(model.groupoid.stab(0)) == 1
    assert model.stab_law[0]["ok"]


def test_quotient_fixed_object_stab3_times_g2():
    # stab^eff = Z_3 at the object, G_x = Z_2 acting trivially: |stab^Q| = 6
    gpd = fixed_object_groupoid_with_stab(3)
    z2 = reps.cyclic_group(2)
    ident_mor = np.arange(gpd.n_morphisms)
    action = GlobalActionData(
        z2,
        np.zeros((2, 1), dtype=int),
        np.stack([ident_mor, ident_mor]),
    )
    model = quotient_groupoid(gpd, action, [0], {})
    assert model.stab_law[0] == {"stab_Q": 6, "stab_eff": 3, "G_x": 2, "ok": True}


def test_quotient_trivial_group_effectivizes():
    # trivial G: quotient isotropy equals the effective isotropy
    gpd = fixed_object_groupoid_with_stab(4)
    z1 = reps.cyclic_group(1)
    action = GlobalActionData(
        z1, np.zeros((1, 1), dtype=int), np.arange(gpd.n_morphisms).reshape(1, -1)
    )
    # declare half of the stabilizer ineffective (acting as identity near x)
    stab = gpd.stab(0)
    kernel = [m for m in stab if (m // 1) % 2 == 0]  # elements 0 and 2 of Z_4
    model = quotient_groupoid(gpd, action, [0], ineffective_kernels={0: kernel})
    assert model.stab_law[0]["stab_eff"] == 2
    assert model.stab_law[0]["stab_Q"] == 2
    assert model.stab_law[0]["ok"]


def test_quotient_missing_slice_rejected():
    gpd = discrete_groupoid(3)
    z1 = reps.cyclic_group(1)
    action = GlobalActionData(
        z1, np.arange(3).reshape(1, 3), np.arange(3).reshape(1, 3)
    )
    with pytest.raises(InvalidInputError, match="miss"):
        quotient_groupoid(gpd, action, [0], {})


def test_quotient_library_cardinality_law():
    """|stab^Q| = |stab^eff| * |G_x| over a library of >= 10 finite actions."""
    cases = 0
    # translation groupoids of Z_n actions, quotiented by Z_2 functors
    for n_stab in (1, 2, 3, 4):
        gpd = fixed_object_groupoid_with_stab(n_stab)
        z2 = reps.cyclic_group(2)
        ident = np.arange(gpd.n_morphisms)
        action = GlobalActionData(
            z2, np.zeros((2, 1), dtype=int), np.stack([ident, ident])
        )
        model = quotient_groupoid(gpd, action, [0], {})
        assert model.stab_law[0]["ok"]
        cases += 1
    # free actions on discrete groupoids
    for npts in (2, 3, 4):
        gpd = discrete_groupoid(npts)
        zn = reps.cyclic_group(npts)
        obj = np.array([[(x + g) % npts for x in range(npts)] for g in range(npts)])
        action = GlobalActionData(zn, obj, obj)
        model = quotient_groupoid(gpd, action, [0], {})
        assert all(rec["ok"] for rec in model.stab_law.values())
        cases += 1
    # mixed isotropy: Z_2 acting on a 3-point discrete groupoid with a fixed pt
    gpd = discrete_groupoid(3)
    z2 = reps.cyclic_group(2)
    obj = np.array([[0, 1, 2], [1, 0, 2]])
    action = GlobalActionData(z2, obj, obj)
    model = quotient_groupoid(gpd, action, [0, 2], {})
    assert all(rec["ok"] for rec in model.stab_law.values())
    cases += 1
    # groupoid with morphisms: Z_2 x trivial action on a 2-point orbit
    grp, act = cyclic_action(2, 2)
    gpd = make_translation_groupoid(grp, act)
    z1 = reps.cyclic_group(1)
    action = GlobalActionData(
        z1, np.arange(2).reshape(1, 2), np.arange(gpd.n_morphisms).reshape(1, -1)
    )
    model = quotient_groupoid(gpd, action, [0], {})
    assert all(rec["ok"] for rec in model.stab_law.values())
    cases += 1
    # Z_2 functor swapping two components of a disjoint pair of orbits
    grp3, act3 = cyclic_action(3, 3)
    base = make_translation_groupoid(grp3, act3)
    two = _disjoint_double(base)
    z2 = reps.cyclic_group(2)
    swap_obj = np.array(
        [list(range(6)), [3, 4, 5, 0, 1, 2]]
    )
    nm = base.n_morphisms
    swap_mor = np.array(
        [list(range(2 * nm)), list(range(nm, 2 * nm)) + list(range(nm))]
    )
    action = GlobalActionData(z2, swap_obj, swap_mor)
    model = quotient_groupoid(two, action, [0], {})
    assert all(rec["ok"] for rec in model.stab_law.values())
    cases += 1
    assert cases >= 10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quotient_cardinality_law_on_random_actions(data):
    # Z_k acting trivially on n points, a declared ineffective subgroup of
    # order j in every stabilizer, and a cyclic G permuting the points by
    # the powers of a random permutation: |stab^Q_x| = (k / j) * |G_x|, with
    # |G_x| = |G| / |orbit of x|
    n = data.draw(st.integers(1, 4))
    sigma = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, 4))
    j = data.draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
    powers = [list(range(n))]
    while True:
        nxt = [sigma[x] for x in powers[-1]]
        if nxt == powers[0]:
            break
        powers.append(nxt)
    order = len(powers)
    gpd = make_translation_groupoid(reps.cyclic_group(k), np.tile(np.arange(n), (k, 1)))
    obj = np.array(powers)
    mor = np.array([[h * n + p[x] for h in range(k) for x in range(n)] for p in powers])
    action = GlobalActionData(reps.cyclic_group(order), obj, mor)
    kernels = {x: [h * n + x for h in range(0, k, k // j)] for x in range(n)}
    orbits = {x: set(obj[:, x].tolist()) for x in range(n)}
    slices = sorted({min(o) for o in orbits.values()})
    model = quotient_groupoid(gpd, action, slices, kernels)
    for xi, x in enumerate(slices):
        g_x = order // len(orbits[x])
        assert len(model.groupoid.stab(xi)) == (k // j) * g_x
        assert model.stab_law[x] == {"stab_Q": (k // j) * g_x, "stab_eff": k // j,
                                     "G_x": g_x, "ok": True}


def _disjoint_double(gpd):
    n, m = gpd.n_objects, gpd.n_morphisms
    src = np.concatenate([gpd.src, gpd.src + n])
    tgt = np.concatenate([gpd.tgt, gpd.tgt + n])
    table = np.full((2 * m, 2 * m), -1)
    table[:m, :m] = gpd.compose_table
    table[m:, m:] = np.where(gpd.compose_table >= 0, gpd.compose_table + m, -1)
    units = np.concatenate([gpd.units, gpd.units + m])
    invs = np.concatenate([gpd.inverses, gpd.inverses + m])
    return gq.FiniteGroupoid(2 * n, src, tgt, table, units, invs)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regularity_faithful_linear_model_passes():
    # sign action on symmetric points {-2,-1,0,1,2}: the only morphism
    # fixing any neighborhood of 0 pointwise is the identity
    group = reps.cyclic_group(2)
    act = np.array([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
    gpd = make_translation_groupoid(group, act)
    stab = gpd.stab(2)
    perms = {m: tuple(act[m // 5]) for m in stab}
    report = regularity_check(
        gpd, {2: {"points": [0, 1, 2, 3, 4], "sub": [1, 2, 3], "action": perms}}
    )
    assert all(rec["ok"] for rec in report.values())


def test_regularity_half_fixed_pattern_fails():
    # a stabilizer element fixing one half of the uniformizer pointwise but
    # moving the other half violates the first regularity condition
    group = reps.cyclic_group(2)
    act = np.array([[0, 1, 2, 3], [0, 1, 3, 2]])  # fixes {0,1}, swaps {2,3}
    gpd = make_translation_groupoid(group, act)
    stab = gpd.stab(0)
    perms = {m: tuple(act[m // 4]) for m in stab}
    report = regularity_check(
        gpd, {0: {"points": [0, 1, 2, 3], "sub": [0, 1], "action": perms}}
    )
    nontrivial = [rec for rec in report.values() if not rec["fixes_all"]]
    assert any(not rec["ok"] for rec in nontrivial)


def test_regularity_trivial_stab_passes():
    gpd = discrete_groupoid(2)
    report = regularity_check(
        gpd, {0: {"points": [0], "sub": [0], "action": {gpd.units[0]: (0,)}}}
    )
    assert all(rec["ok"] for rec in report.values())


# ---------------------------------------------------------------------------
# quotient metrics
# ---------------------------------------------------------------------------


def _matrix_action(mats):
    """The linear action whose element g has the matrix mats[g]."""
    mats = np.asarray(mats, dtype=float)
    return lambda g: mats[g]


def test_quotient_metric_trivial_group_is_original():
    group = reps.cyclic_group(1)
    pts = [np.array([0.0]), np.array([1.0]), np.array([2.5])]
    orbit = quotient_metric(pts, group, _matrix_action([np.eye(1)]))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert orbit[i, j] == pytest.approx(abs(p[0] - q[0]))


def test_quotient_metric_z2_negation_formula():
    group = reps.cyclic_group(2)
    rng = np.random.default_rng(8)
    pts = [np.array([x]) for x in rng.normal(size=12) * 3]
    orbit = quotient_metric(pts, group, _matrix_action([[[1.0]], [[-1.0]]]))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            expected = min(abs(p[0] - q[0]), abs(p[0] + q[0]))
            assert orbit[i, j] == pytest.approx(expected, abs=1e-12)


def test_quotient_metric_circle_radial_formula():
    circle = reps.CircleGroupModel(64)
    act = circle_rotation_action(circle)
    rng = np.random.default_rng(21)
    pts = [rng.normal(size=2) * 2 for _ in range(6)]
    orbit = quotient_metric(pts, circle, act)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            radial = abs(np.linalg.norm(p) - np.linalg.norm(q))
            assert orbit[i, j] == pytest.approx(radial, abs=1e-6)


def test_quotient_metric_invariance_and_axioms():
    group = reps.cyclic_group(4)
    theta = np.pi / 2 * np.arange(4)
    mats = np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in theta])
    rng = np.random.default_rng(3)
    pts = [rng.normal(size=2) for _ in range(6)]
    orbit = quotient_metric(pts, group, _matrix_action(mats))
    # a metric on the orbits: moving each point by any element keeps it
    for g in itertools.product(range(4), repeat=2):
        moved = [mats[g[i % 2]] @ p for i, p in enumerate(pts)]
        np.testing.assert_allclose(quotient_metric(moved, group, _matrix_action(mats)),
                                   orbit, rtol=0, atol=1e-12)
    np.testing.assert_allclose(orbit, orbit.T, rtol=0, atol=1e-12)
    n = len(pts)
    for i, j, k in itertools.product(range(n), repeat=3):
        assert orbit[i, k] <= orbit[i, j] + orbit[j, k] + 1e-10


def test_quotient_metric_s3_permutations_match_brute_force():
    # S_3 permuting the coordinates of R^3 is non-abelian and isometric, so
    # the orbit distance is the least distance from p to a coordinate
    # permutation of q
    group = reps.symmetric_group(3)
    table = np.array(sorted(itertools.permutations(range(3))))
    rng = np.random.default_rng(17)
    pts = [rng.normal(size=3) for _ in range(6)]
    orbit = quotient_metric(pts, group, _matrix_action(np.eye(3)[table]))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            brute = min(np.linalg.norm(p - q[list(perm)]) for perm in table)
            assert orbit[i, j] == pytest.approx(brute, abs=1e-12)


def _finite_linear_action(kind, size):
    """A finite group acting linearly on R^d: the group, its action and
    the matrix of each element."""
    if kind == "rotation":  # Z_size rotating R^2
        group = reps.cyclic_group(size)
        theta = 2.0 * np.pi * np.arange(size) / size
        mats = np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
                         for t in theta])
    elif kind == "permutation":  # S_size permuting the coordinates of R^size
        group = reps.symmetric_group(size)
        table = np.array(sorted(itertools.permutations(range(size))))
        mats = np.eye(size)[table]  # row i of element g picks coordinate table[g, i]
    else:  # Z_2 negating R^size
        group = reps.cyclic_group(2)
        mats = np.array([np.eye(size), -np.eye(size)])
    return group, _matrix_action(mats), mats


def _brute_force(points, mats):
    """Per-element reference: the orbit distance min_k |p - k.q|, one pair
    and one k at a time."""
    return np.array([[min(np.linalg.norm(p - m @ q) for m in mats) for q in points]
                     for p in points])


def _separated_points(data, dim):
    coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    pts = data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                             min_size=2, max_size=4))
    pts = [np.array(p) for p in pts]
    assume(all(np.linalg.norm(p - q) > 1e-3
               for p, q in itertools.combinations(pts, 2)))
    return pts


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_metric_matches_per_element_reference(data):
    kind = data.draw(st.sampled_from(["rotation", "permutation", "negation"]))
    size = data.draw(st.integers(2, 6) if kind == "rotation"
                     else st.integers(2, 4) if kind == "permutation"
                     else st.integers(1, 3))
    group, act, mats = _finite_linear_action(kind, size)
    pts = _separated_points(data, mats.shape[1])
    np.testing.assert_allclose(quotient_metric(pts, group, act), _brute_force(pts, mats),
                               rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(order=st.integers(4, 12), data=st.data())
def test_circle_quotient_metric_matches_quadrature_reference(order, data):
    # the refined orbit distance lies between the exact one, ||p| - |q||,
    # and the quadrature minimum over the sample rotations
    circle = reps.CircleGroupModel(order)
    pts = _separated_points(data, 2)
    orbit = quotient_metric(pts, circle, circle_rotation_action(circle))
    theta = circle.angles()
    mats = np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in theta])
    radii = np.linalg.norm(pts, axis=1)
    assert np.all(orbit <= _brute_force(pts, mats) + 1e-12)
    assert np.all(orbit >= np.abs(radii[:, None] - radii) - 1e-12)


@pytest.mark.parametrize("action, message", [
    (lambda g: np.eye(2), "shape"),  # one matrix for every index array
    (lambda g: np.zeros(g.shape + (1, 1)), "shape"),  # matrices of another dimension
    (lambda g: np.zeros(g.shape + (2, 3)), "shape"),  # not square
    # an involution of R^2 that is not an isometry: Z_2 acting by a shear
    (_matrix_action([np.eye(2), [[1.0, 1.0], [0.0, -1.0]]]),
     "the action matrix of element 1 is not orthogonal"),
])
def test_quotient_metric_rejects_action_of_wrong_shape(action, message):
    pts = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    with pytest.raises(InvalidInputError, match=message):
        quotient_metric(pts, reps.cyclic_group(2), action)


def test_quotient_metric_rejects_repeated_points():
    group = reps.cyclic_group(1)
    pts = [np.array([0.0]), np.array([1.0]), np.array([0.0])]
    with pytest.raises(InvalidInputError, match=r"does not separate points \(0,2\)"):
        quotient_metric(pts, group, _matrix_action([np.eye(1)]))


def _per_k_orbit_metric(points, group, action):
    """The orbit minimum one k at a time: each k moves the second points by
    its own matrix, and each golden-section evaluation rotates each second
    point by the matrix at its own index, one point at a time and entry by
    entry."""
    n, order = len(points), group.order
    i, j = np.divmod(np.arange(n * n), n)
    pts = np.stack([np.asarray(p, dtype=float) for p in points], axis=1)
    p, q = pts[:, i], pts[:, j]
    rho = action(np.arange(order))
    best = np.full(n * n, np.inf)
    best_k = np.zeros(n * n)
    for k in range(order):
        vals = np.linalg.norm(p - rho[k] @ q, axis=0)
        best_k = np.where(vals < best, k, best_k)
        best = np.minimum(vals, best)
    if isinstance(group, reps.CircleGroupModel):
        def moved(t):
            return np.stack([(action(s) * q[:, c]).sum(axis=1) for c, s in enumerate(t)],
                            axis=1)

        refined = gq._golden_refine(lambda t: np.linalg.norm(p - moved(t), axis=0),
                                    best_k - 1.0, best_k + 1.0)
        best = np.minimum(best, refined)
    return best.reshape(n, n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_metric_is_bitwise_the_per_k_orbit_minimum(data):
    kind = data.draw(st.sampled_from(["rotation", "permutation", "negation", "circle"]))
    if kind == "circle":
        group = reps.CircleGroupModel(data.draw(st.integers(4, 64)))
        act, dim = circle_rotation_action(group), 2
    else:
        size = data.draw(st.integers(2, 6) if kind == "rotation"
                         else st.integers(2, 4) if kind == "permutation"
                         else st.integers(1, 3))
        group, act, mats = _finite_linear_action(kind, size)
        dim = mats.shape[1]
    pts = _separated_points(data, dim)
    assert np.array_equal(quotient_metric(pts, group, act),
                          _per_k_orbit_metric(pts, group, act))


def test_circle_rotation_action_gives_the_bits_of_the_computed_angle():
    circle = reps.CircleGroupModel(16)
    act = circle_rotation_action(circle)
    indices = [np.arange(16) % 6 * 3, np.array([-1, -16, 0, 3, -7, 2]),
               np.array([16, 17, 40, 15, 0, 1]), np.array([0.5, 3.25, 15.99, -0.5, 16.5, 2.0]),
               np.array([[0, 3, 15], [7, 0, 9]]), np.array([[0.0, 0.5, 3.25], [7.9, 15.99, -2.0]]),
               0, 5, 15, -3, 16, 31, 2.5]
    for k in indices:
        theta = 2.0 * np.pi * np.asarray(k, dtype=float) / 16
        c, s = np.cos(theta), np.sin(theta)
        rot = act(k)
        assert rot.shape == np.shape(k) + (2, 2)
        for got, want in ((rot[..., 0, 0], c), (rot[..., 0, 1], -s),
                          (rot[..., 1, 0], s), (rot[..., 1, 1], c)):
            assert np.array_equal(got, want)


def test_quotient_metric_memory_is_bounded_for_a_large_permutation_action():
    # Z_50 cycling the coordinates of R^50, 8 points: the orbit minimum holds
    # one chunk of k's pair differences at a time besides the 50 matrices,
    # and the metric peaked at 8.0 MB when it averaged over the group
    size = 50
    table = (np.arange(size)[None, :] + np.arange(size)[:, None]) % size
    act = _matrix_action(np.eye(size)[table])
    pts = list(np.random.default_rng(0).normal(size=(8, size)))
    tracemalloc.start()
    try:
        orbit = quotient_metric(pts, reps.cyclic_group(size), act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000
    np.testing.assert_allclose(orbit, orbit.T, rtol=0, atol=1e-12)


def _counted(action, calls):
    def counted(g):
        calls.append(np.shape(g))
        return action(g)
    return counted


def test_quotient_metric_of_a_finite_group_takes_one_action_call():
    # S_3 permuting R^3 on 4 points: one call gives every element's matrix
    group, act, _ = _finite_linear_action("permutation", 3)
    calls = []
    pts = list(np.random.default_rng(2).normal(size=(4, 3)))
    quotient_metric(pts, group, _counted(act, calls))
    assert calls == [(6,)]


def test_circle_quotient_metric_takes_one_call_per_golden_section_evaluation():
    # order 64 on 5 points: one call at every sample index, then one at the
    # 20 off-diagonal pairs' fractional indices per golden-section evaluation
    circle = reps.CircleGroupModel(64)
    calls = []
    pts = list(np.random.default_rng(5).normal(size=(5, 2)))
    quotient_metric(pts, circle, _counted(circle_rotation_action(circle), calls))
    assert calls == [(64,)] + [(20,)] * 50
