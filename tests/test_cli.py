"""End-to-end tests of the command-line front end: scenario ingestion,
report shape, exit-code triage, and byte-level determinism."""

import ast
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitrans import bundles, cli, linalg, reps


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_empty_scenario_floer_d2_vacuous_pass(tmp_path, capsys):
    path = write(tmp_path, "empty.json", {})
    code, out, _ = run(capsys, ["floer", "d2", path])
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["records"][0]["check"] == "d-squared-vacuous"


def test_s3_projector_scenario_three_pass_records(tmp_path, capsys):
    path = write(
        tmp_path,
        "s3.json",
        {
            "settings": {"mode": "exact"},
            "group": {"preset": "S_3"},
            "representation": {"blocks": ["natural"]},
        },
    )
    code, out, _ = run(capsys, ["reps", "decompose", path])
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    # fixed component, standard component, resolution of identity
    assert len(report["records"]) == 3
    assert all(r["anchor"] for r in report["records"])


def test_injected_d_squared_defect_exit_1_names_pair(tmp_path, capsys):
    payload = {
        "lattice": {"rank": 1, "omega": ["1"], "c1": [0]},
        "generators": {
            "names": ["a", "b", "c"],
            "index": {"a": 0, "b": 1, "c": 2},
            "values": {"a": 0, "b": 1, "c": 2},
        },
        "counts": [
            {"x": "a", "y": "b", "A": [0], "count": 1},
            {"x": "b", "y": "c", "A": [0], "count": 1},
        ],
    }
    path = write(tmp_path, "defect.json", payload)
    code, out, _ = run(capsys, ["floer", "d2", path])
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    cert = report["records"][0]["certificate"]
    assert cert["pair"] == ["a", "c"]


def test_floer_ranks_command(tmp_path, capsys):
    payload = {
        "lattice": {"rank": 1, "omega": ["1"], "c1": [0]},
        "generators": {
            "names": ["x", "z"],
            "index": {"x": 0, "z": 2},
            "values": {"x": 0, "z": 2},
        },
        "counts": [],
    }
    path = write(tmp_path, "sphere.json", payload)
    code, out, _ = run(capsys, ["floer", "ranks", path])
    assert code == 0
    report = json.loads(out)
    ranks = report["records"][0]["certificate"]["ranks"]
    assert ranks == {"0": 1, "2": 1}


def test_floer_ranks_pivot_tie_exit_1(tmp_path, capsys):
    # two counts x -> y in classes of equal energy: the pivot has no unique
    # omega-minimal term, so its inverse cannot be certified
    payload = {
        "lattice": {"rank": 2, "omega": ["1", "1"], "c1": [0, 0]},
        "generators": {"names": ["x", "y"], "index": {"x": 0, "y": 1},
                       "values": {"x": 0, "y": 1}},
        "counts": [{"x": "x", "y": "y", "A": [1, 0], "count": 1},
                   {"x": "x", "y": "y", "A": [0, 1], "count": 1}],
    }
    code, out, err = run(capsys, ["floer", "ranks", write(tmp_path, "tie.json", payload)])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "cannot certify pivot at row 0, column 0: no unique omega-minimal "
                 "term (tied at omega = 1)",
        "kind": "mathematical-failure"}


@pytest.mark.parametrize("seed", range(6))
def test_random_circle_rep_fits_max_dim_2(tmp_path, capsys, seed):
    # max_dim 2 leaves room for one weight plane and no fixed line
    path = write(tmp_path, "c.json", {"settings": {"seed": seed}, "group": {"circle": {}},
                                      "representation": {"random": {"max_dim": 2}}})
    code, out, _ = run(capsys, ["reps", "decompose", path])
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["certificate"]["dim"] for r in records
            if r["check"] == "resolution-of-identity"] == [2]


def test_quadrature_order_flag_sets_the_circle_weight_capacity(tmp_path, capsys):
    path = write(tmp_path, "w5.json", {"group": {"circle": {}},
                                       "representation": {"weights": [5]}})
    argv = ["reps", "decompose", path, "--mode", "float", "--quadrature-order"]
    code, out, err = run(capsys, argv + ["16"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "weight 5 exceeds quadrature capacity (order 16 supports weights <= 3)",
        "kind": "invalid-input"}
    code, out, _ = run(capsys, argv + ["64"])
    assert code == 0 and json.loads(out)["pass"]


def test_parse_error_exit_2_with_line_column(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"group": }')
    code, out, err = run(capsys, ["reps", "decompose", str(p)])
    assert code == 2
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert "line 1" in msg["error"] and "column" in msg["error"]


def test_unknown_subcommand_exit_2(tmp_path, capsys):
    path = write(tmp_path, "empty.json", {})
    code, _, err = run(capsys, ["floer", "bogus", path])
    assert code == 2


def test_unknown_command_exit_2(capsys):
    code, out, err = run(capsys, ["nonsense", "all"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith("unknown command 'nonsense'")


def test_byte_identical_json_reports(tmp_path, capsys):
    path = write(
        tmp_path,
        "flow.json",
        {
            "flow": {
                "paths": [
                    {"preset": "tanh-scalar"},
                    {"preset": "lambda", "n": 1, "weight": 2, "a_scale": 0.1},
                ]
            }
        },
    )
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["flow", "index", path, "--seed", "5"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["records"][0]["certificate"]["index"] == 1
    assert report["records"][1]["certificate"]["index"] == 0


GROUPOID_QUOTIENT = {
    "groupoid": {"discrete": 2},
    "group_action": {
        "group": {"preset": "Z_2"},
        "objects": [[0, 1], [1, 0]],
        "morphisms": [[0, 1], [1, 0]],
    },
    "slices": [0],
}
GROUPOID_CHECK = {
    "groupoid": {
        "translation": {
            "group": {"preset": "Z_2"},
            "action": [[0, 1, 2], [1, 0, 2]],
        }
    },
    "uniformizers": {"2": [2], "0": [0, 2]},
}
FLOER_DEFECT = {
    "lattice": {"rank": 1, "omega": ["1"], "c1": [0]},
    "generators": {
        "names": ["a", "b", "c"],
        "index": {"a": 0, "b": 1, "c": 2},
        "half_dim": 1,  # no command reads it, and older scenarios carry it
        "values": {"a": 0, "b": 1, "c": 2},
    },
    "counts": [
        {"x": "a", "y": "b", "A": [0], "count": 1},
        {"x": "b", "y": "c", "A": [1], "count": 2},
    ],
}


def _replaced(payload, value, *keys):
    """A copy of payload with the entry at the key path set to value."""
    out = json.loads(json.dumps(payload))
    inner = out
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return out


OBJECTS = ("group_action", "objects")
MORPHISMS = ("group_action", "morphisms")
ACTION = ("groupoid", "translation", "action")
GROUP = ("groupoid", "translation", "group")


@pytest.mark.parametrize("command, payload", [
    ("quotient", _replaced(GROUPOID_QUOTIENT, [[0, 1], [7, 0]], *OBJECTS)),
    ("quotient", _replaced(GROUPOID_QUOTIENT, [[0, 1], [-1, 0]], *OBJECTS)),
    ("quotient", _replaced(GROUPOID_QUOTIENT, [[0, 1], [1, 2]], *MORPHISMS)),
    ("quotient", _replaced(GROUPOID_QUOTIENT, [[0, 1], [1]], *OBJECTS)),
    ("quotient", _replaced(GROUPOID_QUOTIENT, [5], "slices")),
    ("check", _replaced(GROUPOID_CHECK, [[0, 1, 2], [1, 0, 5]], *ACTION)),
    ("check", _replaced(GROUPOID_CHECK, [[0, 1, 2], [1, 0, -1]], *ACTION)),
    ("check", _replaced(GROUPOID_CHECK, [[0, 1, 2], [1, 0, 1.5]], *ACTION)),
    ("check", _replaced(GROUPOID_CHECK, {"table": [[0, 1], [1, 2]]}, *GROUP)),
    ("check", _replaced(GROUPOID_CHECK, {"table": [[0, 1], [1]]}, *GROUP)),
])
def test_malformed_groupoid_tables_exit_2(tmp_path, capsys, command, payload):
    path = write(tmp_path, "bad.json", payload)
    code, out, err = run(capsys, ["groupoid", command, path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize("command, payload", [
    (["groupoid", "check"],
     _replaced(GROUPOID_CHECK, {"0": {"points": [0, 1], "sub": [1],
                                      "action": {"0": [0]}}}, "regularity")),
    (["groupoid", "check"],
     _replaced(GROUPOID_CHECK, {"0": {"points": [0, 1], "sub": [1],
                                      "action": {"0": [1, 1]}}}, "regularity")),
    (["bundle", "decompose"],
     {"settings": {"mode": "float"}, "group": {"preset": "Z_2"},
      "representation": {"matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]},
      "base": {"interval": 1},
      "bundle": {"transitions": {"0": [[1, 0], [0, 1]]}}}),
    (["metric", "quotient"],
     {"metric_points": [[0.0, 1.0], [1.0]], "metric_action": {"type": "negation"}}),
    (["metric", "quotient"], {"metric_points": []}),
])
def test_malformed_regularity_transition_and_points_exit_2(tmp_path, capsys,
                                                          command, payload):
    path = write(tmp_path, "bad.json", payload)
    code, out, err = run(capsys, command + [path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize("command, flow_path", [
    ("index", {"preset": "constant", "matrix": [[1, 2, 3], [4, 5, 6]]}),
    ("oracle", {"preset": "constant", "matrix": [[1, 2, 3], [4, 5, 6]]}),
    ("oracle", {"preset": "tanh", "b0": [[1, 0]], "b1": [[1, 0]]}),
    ("index", {"preset": "tanh", "b0": [[1]], "b1": [[1, 0], [0, 1]]}),
    ("oracle", {"preset": "tanh", "b0": [[1, 0], [0, 1]], "b1": [[1, 0, 0], [0, 1, 0]]}),
    ("index", {"preset": "lambda", "n": 0, "weight": 1}),
    ("oracle", {"preset": "lambda", "n": 0, "weight": 1}),
    ("index", {"preset": "lambda", "n": -1, "weight": 1}),
    ("index", {"preset": "lambda", "n": 1, "weight": 0}),
])
def test_malformed_flow_paths_exit_2(tmp_path, capsys, command, flow_path):
    path = write(tmp_path, "bad.json", {"flow": {"paths": [flow_path]}})
    code, out, err = run(capsys, ["flow", command, path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"


def test_flow_oracle_command(tmp_path, capsys):
    path = write(
        tmp_path, "oracle.json",
        {"flow": {"paths": [{"preset": "tanh-scalar"}]}},
    )
    code, out, _ = run(capsys, ["flow", "oracle", path])
    assert code == 0
    cert = json.loads(out)["records"][0]["certificate"]
    assert cert["eigencount"] == cert["shooting"] == 1


def test_transversality_check_and_perturb(tmp_path, capsys):
    model = {
        "fixed_locus": {
            "base": {"interval": 1},
            "quadrature_order": 32,
            "components": {"weight_1": {"n_units": 1, "m_units": 1}},
            "section": {"0": [0, 0], "1": [0, 0]},
            "fixed_blocks": {"0": [[0, 0], [0, 0]], "1": [[0, 0], [0, 0]]},
            "lambda_blocks": {
                "0": {"weight_1": [[0, 0], [0, 0]]},
                "1": {"weight_1": [[0, 0], [0, 0]]},
            },
        }
    }
    path = write(tmp_path, "model.json", model)
    code, out, _ = run(capsys, ["transversality", "check", path])
    assert code == 0
    code, out, _ = run(capsys, ["transversality", "perturb", path, "--seed", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"]


def test_transversality_obstruction_exit_1(tmp_path, capsys):
    model = {
        "fixed_locus": {
            "base": {"interval": 1},
            "quadrature_order": 32,
            "components": {"weight_1": {"n_units": 1, "m_units": 1}},
            "section": {"0": [0], "1": [0]},
            "fixed_blocks": {"0": [[0, 0, 0]], "1": [[0, 0, 0]]},
            "lambda_blocks": {
                "0": {"weight_1": [[0, 0], [0, 0]]},
                "1": {"weight_1": [[0, 0], [0, 0]]},
            },
        }
    }
    path = write(tmp_path, "bad.json", model)
    code, out, _ = run(capsys, ["transversality", "check", path])
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    cert = report["records"][0]["certificate"]
    assert set(cert) >= {"vertex", "lambda", "n", "m", "d", "ind_sG", "rhs"}
    code, _, err = run(capsys, ["transversality", "perturb", path])
    assert code == 1


def test_transversality_check_and_pipeline_certify_the_same_obstructions(tmp_path,
                                                                          capsys):
    # ind s^G = 2 at both zeros: weight_1 (one unit each way) has the bound
    # (0 + 1) * 2 = 2 and fails; weight_2 (two units to one) has (1 + 1) * 2 = 4
    blocks = {"weight_1": [[0] * 2] * 2, "weight_2": [[0] * 4] * 2}
    model = {"fixed_locus": {
        "base": {"interval": 1},
        "components": {"weight_1": {"n_units": 1, "m_units": 1},
                       "weight_2": {"n_units": 2, "m_units": 1}},
        "section": {"0": [0], "1": [0]},
        "fixed_blocks": {"0": [[0, 0, 0]], "1": [[0, 0, 0]]},
        "lambda_blocks": {"0": blocks, "1": blocks},
    }}
    path = write(tmp_path, "obstructed.json", model)
    code, out, _ = run(capsys, ["transversality", "check", path])
    assert code == 1
    checked = json.loads(out)["records"]
    assert [(r["check"], r["pass"]) for r in checked] == [
        ("condition-0-weight_1", False), ("condition-0-weight_2", True),
        ("condition-1-weight_1", False), ("condition-1-weight_2", True)]
    code, out, _ = run(capsys, ["transversality", "perturb", path])
    assert code == 1
    obstructed = json.loads(out)["records"]
    assert [r["check"] for r in obstructed] == ["obstruction-0-weight_1",
                                                "obstruction-1-weight_1"]
    assert ([r["certificate"] for r in obstructed]
            == [r["certificate"] for r in checked if not r["pass"]])


def test_groupoid_quotient_command(tmp_path, capsys):
    payload = {
        "groupoid": {"discrete": 2},
        "group_action": {
            "group": {"preset": "Z_2"},
            "objects": [[0, 1], [1, 0]],
            "morphisms": [[0, 1], [1, 0]],
        },
        "slices": [0],
    }
    path = write(tmp_path, "quot.json", payload)
    code, out, _ = run(capsys, ["groupoid", "quotient", path])
    assert code == 0
    report = json.loads(out)
    assert report["records"][0]["certificate"]["stab_Q"] == 1


def test_groupoid_check_command(tmp_path, capsys):
    payload = {
        "groupoid": {
            "translation": {
                "group": {"preset": "Z_2"},
                "action": [[0, 1, 2], [1, 0, 2]],
            }
        },
        "uniformizers": {"2": [2], "0": [0]},
    }
    path = write(tmp_path, "check.json", payload)
    code, out, _ = run(capsys, ["groupoid", "check", path])
    assert code == 0


def test_groupoid_check_regularity_section(tmp_path, capsys):
    # half-fixed stabilizer action violates the rigidity condition
    payload = {
        "groupoid": {
            "translation": {
                "group": {"preset": "Z_2"},
                "action": [[0, 1, 2, 3], [0, 1, 3, 2]],
            }
        },
        "regularity": {
            "0": {
                "points": [0, 1, 2, 3],
                "sub": [0, 1],
                "action": {"0": [0, 1, 2, 3], "4": [0, 1, 3, 2]},
            }
        },
    }
    path = write(tmp_path, "reg.json", payload)
    code, out, _ = run(capsys, ["groupoid", "check", path])
    assert code == 1
    report = json.loads(out)
    failing = [r for r in report["records"] if not r["pass"]]
    assert failing and failing[0]["certificate"]["fixes_sub"]


def test_groupoid_quotient_with_ineffective_kernel(tmp_path, capsys):
    # Z_4 stabilizer with a declared Z_2 kernel, trivial outer group:
    # quotient isotropy is the effective part of order 2
    payload = {
        "groupoid": {
            "translation": {
                "group": {"preset": "Z_4"},
                "action": [[0], [0], [0], [0]],
            }
        },
        "group_action": {
            "group": {"preset": "Z_2"},
            "objects": [[0], [0]],
            "morphisms": [[0, 1, 2, 3], [0, 1, 2, 3]],
        },
        "slices": [0],
        "ineffective_kernels": {"0": [0, 2]},
    }
    path = write(tmp_path, "kern.json", payload)
    code, out, _ = run(capsys, ["groupoid", "quotient", path])
    assert code == 0
    cert = json.loads(out)["records"][0]["certificate"]
    assert cert == {"stab_Q": 4, "stab_eff": 2, "G_x": 2, "ok": True}


def test_bundle_stabilize_command(tmp_path, capsys):
    payload = {
        "settings": {"mode": "float"},
        "group": {"circle": {"quadrature_order": 32}},
        "representation": {"weights": [1]},
        "base": {"maximal_simplices": [[0]]},
        "stabilize": {
            "linearizations": {"0": [[0, 0], [0, 0]]}
        },
    }
    path = write(tmp_path, "stab.json", payload)
    code, out, _ = run(capsys, ["bundle", "stabilize", path])
    assert code == 0
    assert json.loads(out)["records"][0]["certificate"]["rank"] == 2


def test_metric_quotient_permutation_action(tmp_path, capsys):
    # Z_2 swapping the two coordinates of R^2
    payload = {
        "metric_points": [[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]],
        "metric_action": {
            "type": "permutation",
            "group": {"preset": "Z_2"},
            "table": [[0, 1], [1, 0]],
        },
    }
    path = write(tmp_path, "perm.json", payload)
    code, out, _ = run(capsys, ["metric", "quotient", path])
    assert code == 0
    mat = json.loads(out)["records"][0]["certificate"]["orbit_matrix"]
    assert mat[0][1] == pytest.approx(0.0)  # same orbit
    assert mat[1][2] == pytest.approx(1.0)


@pytest.mark.parametrize("table", [[[0, 1], [1, 2]], [[0, 1], [-1, 0]], [[0, 1]]])
def test_metric_quotient_bad_permutation_table_exit_2(tmp_path, capsys, table):
    payload = {
        "metric_points": [[0.0, 1.0], [1.0, 0.0]],
        "metric_action": {"type": "permutation", "group": {"preset": "Z_2"},
                          "table": table},
    }
    path = write(tmp_path, "perm.json", payload)
    code, out, err = run(capsys, ["metric", "quotient", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"


S3_PERMUTATIONS = np.array(sorted(itertools.permutations(range(3))))


@pytest.mark.parametrize("group, table, named", [
    # a row that is not a permutation breaks the law; the inverse rows of
    # Z_2 are its rows, so both conventions fail at (1,1,1)
    ("Z_2", [[0, 1], [0, 0]], "permutation table is not an action at (1,1,1)"),
    ("Z_2", [[1, 0], [0, 1]], "identity does not fix point 0 in the permutation table"),
    ("S_3", S3_PERMUTATIONS[[0, 3, 2, 1, 4, 5]].tolist(),
     "permutation table is not an action at (1,1,0)"),
    # too few rows: no rows of the inverses are read either
    ("S_3", S3_PERMUTATIONS[:2].tolist(), "permutation table needs shape (6, 3), one "
     "row of 3 points per group element, got (2, 3)"),
])
def test_metric_quotient_table_that_is_not_an_action_exit_2(tmp_path, capsys, group,
                                                            table, named):
    dim = len(table[0])
    payload = {"metric_points": np.eye(dim).tolist(),
               "metric_action": {"type": "permutation", "group": {"preset": group},
                                 "table": table}}
    code, out, err = run(capsys, ["metric", "quotient",
                                  write(tmp_path, "perm.json", payload)])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": named, "kind": "invalid-input"}


@pytest.mark.parametrize("table", [S3_PERMUTATIONS, np.argsort(S3_PERMUTATIONS, axis=1)])
def test_metric_quotient_accepts_left_and_right_permutation_actions(tmp_path, capsys,
                                                                    table):
    # the S_3 preset composes its sorted permutations as table[gk] =
    # table[g][table[k]]; the inverse rows compose the other way round
    pts = np.round(np.random.default_rng(2).normal(size=(4, 3)), 6)
    payload = {"metric_points": pts.tolist(),
               "metric_action": {"type": "permutation", "group": {"preset": "S_3"},
                                 "table": table.tolist()}}
    code, out, _ = run(capsys, ["metric", "quotient",
                                write(tmp_path, "perm.json", payload)])
    assert code == 0
    moved = pts[:, S3_PERMUTATIONS]  # (point, permutation, coordinate)
    brute = np.min(np.linalg.norm(pts[:, None, None] - moved[None], axis=3), axis=2)
    mat = json.loads(out)["records"][0]["certificate"]["orbit_matrix"]
    np.testing.assert_allclose(mat, brute, atol=1e-12)


def test_metric_quotient_negation(tmp_path, capsys):
    payload = {
        "metric_points": [[0.5], [1.5], [-2.0]],
        "metric_action": {"type": "negation"},
    }
    path = write(tmp_path, "metric.json", payload)
    code, out, _ = run(capsys, ["metric", "quotient", path])
    assert code == 0
    mat = json.loads(out)["records"][0]["certificate"]["orbit_matrix"]
    assert mat[0][1] == pytest.approx(1.0)  # min(|0.5-1.5|, |0.5+1.5|)
    assert mat[0][2] == pytest.approx(1.5)  # min(|0.5+2|, |0.5-2|)


def test_metric_quotient_of_distant_collinear_points_passes(tmp_path, capsys):
    # three distinct collinear points far apart: the orbit metric's triangle
    # defect is roundoff (about 4e-12), well inside the report's 1e-8
    path = write(tmp_path, "metric.json",
                 {"metric_points": [[0.1, 0.2], [1000.1, 2000.2], [10000.1, 20000.2]]})
    code, out, _ = run(capsys, ["metric", "quotient", path])
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert 0 < report["records"][0]["certificate"]["triangle_defect"] <= 1e-8


def test_metric_quotient_triangle_check_memory_is_bounded():
    # 200 points on R^1: the triangle check forms one (n, n) slice per middle
    # point; the n^3 array of every (i, j, k) peaked at 129 MB
    pts = np.random.default_rng(3).normal(size=(200, 1))
    scenario = {"metric_points": pts.tolist(), "metric_action": {"type": "negation"}}
    tracemalloc.start()
    try:
        (record,) = cli.cmd_metric(scenario, cli.Settings(), "quotient")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000
    # (orb[i, k] - orb[i, j]) - orb[j, k], one first point i at a time
    orb = np.array(record["certificate"]["orbit_matrix"])
    worst = max(np.max(orb[i] - orb[i, :, None] - orb) for i in range(len(orb)))
    assert record["certificate"]["triangle_defect"] == max(0.0, float(worst))


def test_metric_quotient_of_repeated_points_exit_2(tmp_path, capsys):
    path = write(tmp_path, "metric.json", {"metric_points": [[1.0, 2.0], [1.0, 2.0]]})
    code, out, err = run(capsys, ["metric", "quotient", path])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "metric does not separate points (0,1)",
                               "kind": "invalid-input"}


@pytest.mark.parametrize("payload, message", [
    ({"metric_points": [[]]}, "metric_points must all have one dimension d >= 1"),
])
def test_metric_quotient_of_points_the_action_cannot_move_exit_2(tmp_path, capsys,
                                                                  payload, message):
    path = write(tmp_path, "metric.json", payload)
    code, out, err = run(capsys, ["metric", "quotient", path])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {"error": message, "kind": "invalid-input"}


@pytest.mark.parametrize("sub", ["decompose", "endotype"])
@pytest.mark.parametrize("representation", [{"weights": []},
                                            {"weights": [1], "fixed_dim": -1}])
def test_circle_representation_of_no_dimension_exit_2(tmp_path, capsys, sub,
                                                      representation):
    path = write(tmp_path, "circle.json", {
        "group": {"circle": {"quadrature_order": 8}}, "representation": representation})
    code, out, err = run(capsys, ["reps", sub, path])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert "fixed_dim >= 0 and dimension >= 1" in msg["error"]


def test_bundle_stabilize_on_an_empty_base_has_rank_0(tmp_path, capsys):
    # no vertex, so no cokernel to cover
    path = write(tmp_path, "stab.json", {
        "settings": {"mode": "float"},
        "group": {"circle": {"quadrature_order": 32}},
        "representation": {"weights": [1]},
        "base": {"maximal_simplices": []},
        "stabilize": {"linearizations": {}},
    })
    code, out, err = run(capsys, ["bundle", "stabilize", path])
    assert (code, err) == (0, "")
    record = json.loads(out)["records"][0]
    assert record["pass"] and record["certificate"] == {"rank": 0}


def test_bundle_decompose_command(tmp_path, capsys):
    payload = {
        "settings": {"mode": "float"},
        "group": {"circle": {"quadrature_order": 64}},
        "representation": {"weights": [1, 2]},
        "base": {"interval": 1},
    }
    path = write(tmp_path, "bundle.json", payload)
    code, out, _ = run(capsys, ["bundle", "decompose", path])
    assert code == 0
    report = json.loads(out)
    by_check = {r["check"]: r["certificate"] for r in report["records"]}
    assert by_check["component-weight_1"]["rank"] == 2
    assert by_check["component-weight_2"]["rank"] == 2


def test_bundle_extend_command(tmp_path, capsys):
    payload = {
        "settings": {"mode": "float"},
        "group": {"preset": "Z_2"},
        "representation": {"matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]},
        "base": {"interval": 1},
        "sections": {"s": {"0": [1, 0], "1": [-1, 0]}},
        "extend": {"simplex": [0, 1], "section": "s"},
    }
    path = write(tmp_path, "extend.json", payload)
    code, out, _ = run(capsys, ["bundle", "extend", path])
    assert code == 0
    assert json.loads(out)["records"][0]["certificate"]["min_norm"] >= 0.5


def test_bundle_extend_keeps_no_continuation_that_vanishes_inside(tmp_path, capsys):
    # the straight continuation [-1, 0] at the edge barycenter vanishes at
    # the middle of the half-edge from vertex 0, between grid points; the
    # exact certificate rejects it and keeps [0, 2], whose exact minimum is
    # 2/sqrt(5)
    payload = {
        "settings": {"mode": "float"},
        "group": {"preset": "Z_2"},
        "representation": {"blocks": ["trivial", "trivial"]},
        "base": {"maximal_simplices": [[0, 1]]},
        "sections": {"s": {"0": [1, 0], "1": [-3, 0]}},
        "extend": {"simplex": [0, 1], "section": "s"},
    }
    code, out, _ = run(capsys, ["bundle", "extend", write(tmp_path, "extend.json", payload)])
    assert code == 0
    assert json.loads(out)["records"][0]["certificate"]["min_norm"] == pytest.approx(
        2 / np.sqrt(5), rel=1e-12)


def test_flow_nonhyperbolic_exit_1(tmp_path, capsys):
    # ||A|| >= 2*lambda*pi destroys hyperbolicity: a mathematical failure
    path = write(
        tmp_path, "badflow.json",
        {"flow": {"paths": [{"preset": "lambda", "n": 1, "weight": 1,
                             "a_scale": 7.0}]}},
    )
    code, _, err = run(capsys, ["flow", "index", path])
    assert code == 1
    assert json.loads(err)["kind"] == "mathematical-failure"


def test_suite_all_runs_the_nine_batteries_in_order(capsys):
    # each record's elapsed_s varies from run to run, so no bytes are compared
    code, out, _ = run(capsys, ["suite", "all"])
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["check"].split("-")[1] for r in records] == [str(k) for k in range(1, 10)]
    assert all(r["pass"] and r["certificate"]["checks"] > 0 for r in records)


def test_timing_stamps_each_suite_record_with_its_own_battery_time(capsys):
    # nine stamps of the time since main started would sum to more than the
    # whole run; each battery's own elapsed time sums to less
    start = time.perf_counter()
    code, out, _ = run(capsys, ["suite", "all", "--timing"])
    wall_ms = 1000 * (time.perf_counter() - start)
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 9
    for r in records:
        assert r["timing_ms"] == round(1000 * r["certificate"]["elapsed_s"], 3)
    assert sum(r["timing_ms"] for r in records) <= wall_ms


def test_timing_stamps_a_subcommand_record_with_the_time_of_its_run(tmp_path, capsys):
    path = write(tmp_path, "metric.json", {"metric_points": [[0.5], [1.5], [-2.0]]})
    start = time.perf_counter()
    code, out, _ = run(capsys, ["metric", "quotient", path, "--timing"])
    wall_ms = 1000 * (time.perf_counter() - start)
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert 0 < record["timing_ms"] <= wall_ms
    code, plain, _ = run(capsys, ["metric", "quotient", path])
    del record["timing_ms"]
    assert json.loads(plain)["records"] == [record]


def test_suite_command_text_output(capsys):
    code, out, _ = run(capsys, ["suite", "codimension", "--output", "text"])
    assert code == 0
    assert "criterion-3" in out and out.strip().endswith("PASS")


def test_endotype_command(tmp_path, capsys):
    payload = {
        "settings": {"mode": "float"},
        "group": {"circle": {"quadrature_order": 64}},
        "representation": {"weights": [3]},
    }
    path = write(tmp_path, "endo.json", payload)
    code, out, _ = run(capsys, ["reps", "endotype", path])
    assert code == 0
    cert = json.loads(out)["records"][0]["certificate"]
    assert cert == {"type": "C", "endo_dim": 2}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("group, representation, message", [
    ({"preset": "S_3"}, {"blocks": ["natural"]},
     "representation is reducible: isotypic component 'fixed' is proper"),
    ({"preset": "Z_2"}, {"blocks": ["trivial", "trivial"]},
     "representation is isotypic with multiplicity > 1"),
    # a group given no irreps: the sign action has a zero fixed projector
    # and nothing else to be the identity
    ({"table": [[0, 1], [1, 0]], "irreps": []}, {"matrices": [[[1]], [[-1]]]},
     "projector family inconsistent; group irrep table may be incomplete"),
])
def test_endotype_of_reducible_input_exit_2(tmp_path, capsys, mode, group,
                                            representation, message):
    payload = {"settings": {"mode": mode}, "group": group,
               "representation": representation}
    code, out, err = run(capsys, ["reps", "endotype",
                                  write(tmp_path, "reducible.json", payload)])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": message, "kind": "invalid-input"}


Z2_MATRICES = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]
CUSTOM_Z2 = {"table": [[0, 1], [1, 0]],
             "irreps": [{"label": "odd", "dim": 1, "character": ["1", "-1"],
                         "endo_type": "R"}]}
REPS_MATRICES = {"group": {"preset": "Z_2"},
                 "representation": {"matrices": Z2_MATRICES}}
FIXED_LOCUS = {
    "fixed_locus": {
        "base": {"interval": 1},
        "quadrature_order": 32,
        "components": {"weight_1": {"n_units": 2, "m_units": 1}},
        "section": {"0": [0, 0], "1": [0, 0]},
        "fixed_blocks": {"0": [[0, 0], [0, 0]], "1": [[0, 0], [0, 0]]},
        "lambda_blocks": {"0": {"weight_1": [[0, 0, 0, 0], [0, 0, 0, 0]]},
                          "1": {"weight_1": [[0, 0, 0, 0], [0, 0, 0, 0]]}},
    }
}
# (command, scenario, key path of a matrix or vector, section named in the error)
MATRIX_SITES = [
    (["reps", "decompose"], REPS_MATRICES, ("representation", "matrices", 1),
     "representation matrices"),
    (["reps", "decompose"],
     {"group": {"preset": "Z_2"},
      "representation": {"generator_matrices": {"generators": [1],
                                                "matrices": [Z2_MATRICES[1]]}}},
     ("representation", "generator_matrices", "matrices", 0), "generator_matrices"),
    (["bundle", "decompose"],
     dict(REPS_MATRICES, base={"interval": 1},
          bundle={"transitions": {"0,1": [[1, 0], [0, 1]]}}),
     ("bundle", "transitions", "0,1"), "bundle transition '0,1'"),
    (["bundle", "stabilize"],
     {"group": {"circle": {"quadrature_order": 32}},
      "representation": {"weights": [1]}, "base": {"maximal_simplices": [[0]]},
      "stabilize": {"linearizations": {"0": [[0, 0], [0, 0]]}}},
     ("stabilize", "linearizations", "0"), "stabilize linearizations"),
    (["flow", "index"],
     {"flow": {"paths": [{"preset": "constant", "matrix": [[1, 0], [0, -1]]}]}},
     ("flow", "paths", 0, "matrix"), "flow path 'constant' matrix"),
    (["flow", "index"],
     {"flow": {"paths": [{"preset": "tanh", "b0": [[0, 0], [0, 0]],
                          "b1": [[1, 0], [0, -1]]}]}},
     ("flow", "paths", 0, "b0"), "flow path 'tanh' b0"),
    (["flow", "index"],
     {"flow": {"paths": [{"preset": "tanh", "b0": [[0, 0], [0, 0]],
                          "b1": [[1, 0], [0, -1]]}]}},
     ("flow", "paths", 0, "b1"), "flow path 'tanh' b1"),
    (["transversality", "check"], FIXED_LOCUS, ("fixed_locus", "fixed_blocks", "0"),
     "fixed_locus fixed_blocks"),
    (["transversality", "check"], FIXED_LOCUS,
     ("fixed_locus", "lambda_blocks", "0", "weight_1"), "fixed_locus lambda_blocks"),
]
VECTOR_SITES = [
    (["bundle", "extend"],
     {"group": {"preset": "Z_2"}, "representation": {"matrices": Z2_MATRICES[:1] * 2},
      "base": {"interval": 1}, "sections": {"s": {"0": [1, 0], "1": [-1, 0]}},
      "extend": {"simplex": [0, 1], "section": "s"}},
     ("sections", "s", "1"), "section 's'"),
    (["transversality", "check"], FIXED_LOCUS, ("fixed_locus", "section", "0"),
     "fixed_locus section"),
    (["metric", "quotient"], {"metric_points": [[0.0, 1.0], [1.0, 2.0]]},
     ("metric_points", 1), "metric_points"),
    (["reps", "decompose"],
     {"group": CUSTOM_Z2, "representation": {"matrices": Z2_MATRICES}},
     ("group", "irreps", 0, "character"), "character of irrep 'odd'"),
]


def _entry(payload, keys):
    for key in keys:
        payload = payload[key]
    return payload


def _corrupted(entry, kind, matrix):
    """The entry with its last value made non-numeric, or its last row cut
    short (matrices) / nested (vectors)."""
    entry = json.loads(json.dumps(entry))
    row = entry[-1] if matrix else entry
    if kind == "non-numeric":
        row[-1] = "y"
    elif matrix:
        row.pop()
    else:
        row[-1] = [row[-1]]
    return entry


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind", ["ragged", "non-numeric"])
@pytest.mark.parametrize("command, payload, keys, what, matrix",
                         [site + (True,) for site in MATRIX_SITES]
                         + [site + (False,) for site in VECTOR_SITES])
def test_malformed_matrix_or_vector_exit_2_names_section(tmp_path, capsys, mode, kind,
                                                         command, payload, keys,
                                                         what, matrix):
    assert run(capsys, command + [write(tmp_path, "ok.json", payload),
                                  "--mode", mode])[0] in (0, 1)
    bad = _replaced(payload, _corrupted(_entry(payload, keys), kind, matrix), *keys)
    code, out, err = run(capsys, command + [write(tmp_path, "bad.json", bad),
                                            "--mode", mode])
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert what in msg["error"]


def _without(payload, *keys):
    out = json.loads(json.dumps(payload))
    del _entry(out, keys[:-1])[keys[-1]]
    return out


METRIC_PERMUTATION = {"metric_points": [[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]],
                      "metric_action": {"type": "permutation",
                                        "group": {"preset": "Z_2"},
                                        "table": [[0, 1], [1, 0]]}}
FLOER_RANKS = {"lattice": {"rank": 1, "omega": ["1"], "c1": [0]},
               "generators": {"names": ["x", "z"], "index": {"x": 0, "z": 2},
                              "values": {"x": 0, "z": 2}}}
BUNDLE_EXTEND = VECTOR_SITES[0][1]
COMPONENT = ("fixed_locus", "components", "weight_1")


@pytest.mark.parametrize("sub", ["check", "perturb"])
def test_transversality_of_empty_fixed_blocks(tmp_path, capsys, sub):
    # [] is a 0 x 0 fixed block: no fixed directions at either vertex
    payload = _replaced(FIXED_LOCUS, {"0": [], "1": []}, "fixed_locus", "fixed_blocks")
    code, out, err = run(capsys, ["transversality", sub, write(tmp_path, "t.json", payload)])
    assert code == 0 and err == ""
    assert json.loads(out)["pass"]


@pytest.mark.parametrize("command, payload", [
    (["reps", "decompose"], {"group": {"preset": "S_3"}, "representation": {"random": {}}}),
    (["bundle", "extend"], BUNDLE_EXTEND),
    (["transversality", "perturb"], FIXED_LOCUS),
])
def test_negative_seed_flag_exit_2(tmp_path, capsys, command, payload):
    code, out, err = run(capsys, command + [write(tmp_path, "s.json", payload),
                                            "--seed", "-1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "seed -1 is negative", "kind": "invalid-input"}


@pytest.mark.parametrize("command, payload, keys", [
    (["reps", "decompose"],
     {"group": CUSTOM_Z2, "representation": {"matrices": Z2_MATRICES}},
     ("group", "irreps", 0, key))
    for key in ("label", "dim", "character", "endo_type")
] + [
    (["flow", "index"], {"flow": {"paths": [path]}}, ("flow", "paths", 0, key))
    for path, key in (({"preset": "constant", "matrix": [[1]]}, "matrix"),
                      ({"preset": "tanh", "b0": [[0]], "b1": [[1]]}, "b0"),
                      ({"preset": "tanh", "b0": [[0]], "b1": [[1]]}, "b1"),
                      ({"preset": "lambda", "n": 1, "weight": 1}, "n"),
                      ({"preset": "lambda", "n": 1, "weight": 1}, "weight"))
] + [
    (["metric", "quotient"], METRIC_PERMUTATION, ("metric_action", "table")),
    (["groupoid", "quotient"], GROUPOID_QUOTIENT, OBJECTS),
    (["groupoid", "quotient"], GROUPOID_QUOTIENT, MORPHISMS),
    (["bundle", "extend"], BUNDLE_EXTEND, ("extend", "simplex")),
] + [
    (["floer", "ranks"], FLOER_RANKS, ("lattice", key)) for key in ("omega", "rank", "c1")
] + [
    (["transversality", "check"], FIXED_LOCUS, ("fixed_locus", key))
    for key in ("components", "section", "fixed_blocks", "lambda_blocks")
] + [
    (["transversality", "check"], FIXED_LOCUS, COMPONENT + (key,))
    for key in ("n_units", "m_units")
])
def test_missing_scenario_key_exit_2_names_key(tmp_path, capsys, command, payload, keys):
    assert run(capsys, command + [write(tmp_path, "ok.json", payload)])[0] == 0
    code, out, err = run(capsys, command + [write(tmp_path, "bad.json",
                                                  _without(payload, *keys))])
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert repr(keys[-1]) in msg["error"]


@pytest.mark.parametrize("command, payload, keys, name", [
    (["reps", "decompose"],
     {"group": CUSTOM_Z2, "representation": {"matrices": Z2_MATRICES}},
     ("group", "irreps", 0, "dim"), "dim"),
    (["floer", "ranks"], FLOER_RANKS, ("lattice", "rank"), "rank"),
    (["transversality", "check"], FIXED_LOCUS, COMPONENT + ("n_units",), "n_units"),
    (["groupoid", "quotient"], GROUPOID_QUOTIENT, ("slices", 0), "slices"),
    (["groupoid", "check"], GROUPOID_CHECK, ("uniformizers", "2", 0), "uniformizers"),
    (["groupoid", "quotient"], dict(GROUPOID_QUOTIENT, settings={"seed": 1}),
     ("settings", "seed"), "seed"),
    (["reps", "decompose"], dict(REPS_MATRICES, settings={"tolerance": 1e-10}),
     ("settings", "tolerance"), "tolerance"),
    (["flow", "index"], {"flow": {"paths": [{"preset": "tanh-scalar", "horizon": 9}]}},
     ("flow", "paths", 0, "horizon"), "horizon"),
    (["flow", "index"], {"flow": {"paths": [{"preset": "lambda", "n": 1, "weight": 1,
                                             "a_scale": 0.1}]}},
     ("flow", "paths", 0, "a_scale"), "a_scale"),
    (["flow", "index"], {"flow": {"paths": [{"preset": "lambda", "n": 1, "weight": 1}]}},
     ("flow", "paths", 0, "weight"), "weight"),
])
def test_non_numeric_scenario_field_exit_2_names_key(tmp_path, capsys, command, payload,
                                                     keys, name):
    assert run(capsys, command + [write(tmp_path, "ok.json", payload)])[0] in (0, 1)
    code, out, err = run(capsys, command + [write(tmp_path, "bad.json",
                                                  _replaced(payload, "x", *keys))])
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert repr(name) in msg["error"]


FLOER_REDUCE = {
    "lattice": {"rank": 1, "omega": ["3"], "c1": [1]},
    "generators": {"names": ["m1", "m2", "M1", "M2"],
                   "index": {"m1": 0, "m2": 0, "M1": 1, "M2": 1},
                   "values": {"m1": 0, "m2": 0, "M1": 1, "M2": 1}},
    "counts": [{"x": "m1", "y": "M1", "A": [0], "count": 1},
               {"x": "M1", "y": "m1", "A": [1], "count": 5}],
    "morse_counts": [{"x": "m1", "y": "M1", "count": 1},
                     {"x": "m2", "y": "M2", "count": 1}],
}
RANDOM_S3 = {"group": {"preset": "S_3"}, "representation": {"random": {"max_dim": 8}}}
CIRCLE_WEIGHTS = {"settings": {"mode": "float"},
                  "group": {"circle": {"quadrature_order": 64}},
                  "representation": {"weights": [1, 2]}, "base": {"interval": 2}}
BUNDLE_STABILIZE = MATRIX_SITES[3][1]


@pytest.mark.parametrize("argv, payload", [
    (["reps", "decompose"], RANDOM_S3),
    (["reps", "decompose"], dict(RANDOM_S3, settings={"mode": "float"})),
    (["reps", "endotype"], {"group": {"preset": "Q_8"},
                            "representation": {"blocks": ["left"]}}),
    (["reps", "endotype"], dict(CIRCLE_WEIGHTS, representation={"weights": [3]})),
    (["bundle", "decompose"], CIRCLE_WEIGHTS),
    (["bundle", "extend"], BUNDLE_EXTEND),
    (["bundle", "stabilize"], dict(BUNDLE_STABILIZE, settings={"mode": "float"})),
    (["transversality", "check"], FIXED_LOCUS),
    (["transversality", "perturb"], FIXED_LOCUS),
    (["groupoid", "quotient"], GROUPOID_QUOTIENT),
    (["groupoid", "check"], GROUPOID_CHECK),
    (["floer", "d2"], FLOER_DEFECT),
    (["floer", "reduce"], FLOER_REDUCE),
    (["floer", "ranks"], FLOER_RANKS),
    (["metric", "quotient"], {"metric_points": [[0.5, 1.0], [-1.5, 2.0], [2.0, 0.0]],
                              "metric_action": {"type": "negation"}}),
    (["metric", "quotient"], {"metric_points": [[0.5, 1.0], [-1.5, 2.0], [2.0, 0.0]],
                              "metric_action": {"type": "circle-rotation"}}),
    (["metric", "quotient"], METRIC_PERMUTATION),
    (["flow", "oracle"], {"flow": {"paths": [{"preset": "tanh-scalar"}]}}),
    (["flow", "oracle"], {"flow": {"paths": [
        {"preset": "lambda", "n": 1, "weight": 2, "a_scale": 0.3}]}}),
    (["flow", "index"], {"flow": {"paths": [
        {"preset": "tanh-scalar"},
        {"preset": "lambda", "n": 2, "weight": 1, "a_scale": 0.3}]}}),
])
def test_byte_identical_reports_for_every_subcommand(tmp_path, capsys, argv, payload):
    path = write(tmp_path, "scenario.json", payload)
    first, second = (run(capsys, argv + [path, "--seed", "3"]) for _ in range(2))
    assert first == second
    assert first[0] in (0, 1) and json.loads(first[1])["records"]


def _bad_character_table(dim, mode):
    """Z_2 acting on R^dim by diag(1, ..., 1, +-1) with the 'odd' character
    given as (1, 1/2): P_odd = (I + rho(g)/2)/2 is not a projector."""
    mats = [np.eye(dim, dtype=int).tolist(), np.diag([1] * (dim - 1) + [-1]).tolist()]
    return {"settings": {"mode": mode},
            "group": dict(CUSTOM_Z2, irreps=[dict(CUSTOM_Z2["irreps"][0],
                                                  character=["1", "1/2"])]),
            "representation": {"matrices": mats}, "base": {"interval": 1}}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command", [["reps", "decompose"], ["bundle", "decompose"]])
def test_non_integral_projector_trace_exit_2(tmp_path, capsys, mode, command):
    # P_odd = diag(3/4, 3/4, 1/4) has trace 7/4
    path = write(tmp_path, "bad.json", _bad_character_table(3, mode))
    code, out, err = run(capsys, command + [path])
    assert code == 2
    assert out == ""
    assert "trace" in json.loads(err)["error"]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_non_idempotent_integral_trace_projector(tmp_path, capsys, mode):
    # P_odd = diag(3/4, 1/4): integral trace, not idempotent, and not
    # orthogonal to P_fixed = diag(1, 0), so the pair fails both records
    path = write(tmp_path, "bad.json", _bad_character_table(2, mode))
    code, out, _ = run(capsys, ["reps", "decompose", path])
    assert code == 1
    anchor = "isotypic-character-projectors"
    assert json.loads(out)["records"] == [
        {"check": "component-fixed", "anchor": anchor, "pass": False,
         "certificate": {"rank": 1}},
        {"check": "component-odd", "anchor": anchor, "pass": False,
         "certificate": {"rank": 1}},
        {"check": "resolution-of-identity", "anchor": anchor, "pass": False,
         "certificate": {"dim": 2}},
    ]
    code, out, err = run(capsys, ["bundle", "decompose", path])
    assert code == 2
    assert out == ""
    assert "invalid character table" in json.loads(err)["error"]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_projectors_failing_only_commutation_fail_their_records(tmp_path, capsys, mode):
    # S_3 on R^3 by permutations, H = {e, t} for the transposition t = 1:
    # chi_a = 3 * 1_H - 1 gives P_a = P_H - P_fixed and chi_b = 6 delta_e -
    # 3 * 1_H gives P_b = I - P_H, orthogonal projectors of rank one that
    # resolve the identity; they are not class functions, so P_a and P_b do
    # not commute with the action
    s3 = reps.symmetric_group(3)
    chi_a = [2, 2, -1, -1, -1, -1]
    chi_b = [3, -3, 0, 0, 0, 0]
    irreps = [{"label": label, "dim": 1, "character": chi, "endo_type": "R"}
              for label, chi in (("a", chi_a), ("b", chi_b))]
    payload = {"settings": {"mode": mode},
               "group": {"table": s3.table.tolist(), "irreps": irreps},
               "representation": {
                   "matrices": reps._block_catalog(s3)["natural"].matrices.tolist()}}
    code, out, _ = run(capsys, ["reps", "decompose", write(tmp_path, "s3.json", payload)])
    assert code == 1
    anchor = "isotypic-character-projectors"
    assert json.loads(out)["records"] == [
        {"check": f"component-{label}", "anchor": anchor, "pass": ok,
         "certificate": {"rank": 1}}
        for label, ok in (("a", False), ("b", False), ("fixed", True))
    ] + [{"check": "resolution-of-identity", "anchor": anchor, "pass": True,
          "certificate": {"dim": 3}}]


@pytest.mark.parametrize("command, payload, keys, named", [
    (["metric", "quotient"], METRIC_PERMUTATION, ("metric_action",), "'metric_action'"),
    (["reps", "decompose"], REPS_MATRICES, ("group",), "'group'"),
    (["reps", "decompose"], REPS_MATRICES, ("representation",), "'representation'"),
    (["reps", "decompose"], dict(REPS_MATRICES, settings={}), ("settings",), "'settings'"),
    (["bundle", "extend"], BUNDLE_EXTEND, ("sections", "s"), "section 's'"),
    (["bundle", "extend"], BUNDLE_EXTEND, ("base",), "'base'"),
    (["transversality", "check"], FIXED_LOCUS, ("fixed_locus",), "'fixed_locus'"),
    (["transversality", "check"], FIXED_LOCUS, COMPONENT, "'weight_1'"),
    (["floer", "ranks"], FLOER_RANKS, ("generators", "index"), "'index'"),
    (["groupoid", "quotient"], GROUPOID_QUOTIENT, ("group_action",), "'group_action'"),
    (["groupoid", "check"], GROUPOID_CHECK, ("groupoid", "translation"), "'translation'"),
    (["groupoid", "check"], GROUPOID_CHECK, ("uniformizers",), "'uniformizers'"),
    (["flow", "index"], {"flow": {"paths": [{"preset": "tanh-scalar"}]}}, ("flow",),
     "'flow'"),
])
def test_scenario_section_that_is_not_an_object_exit_2(tmp_path, capsys, command,
                                                         payload, keys, named):
    assert run(capsys, command + [write(tmp_path, "ok.json", payload)])[0] in (0, 1)
    for value in (5, [1, 2], "x"):
        code, out, err = run(capsys, command + [write(tmp_path, "bad.json",
                                                      _replaced(payload, value, *keys))])
        assert code == 2
        assert out == ""
        msg = json.loads(err)
        assert msg["kind"] == "invalid-input"
        assert named in msg["error"] and "JSON object" in msg["error"]


@pytest.mark.parametrize("command", [["reps", "decompose"], ["groupoid", "check"],
                                     ["floer", "d2"]])
def test_scenario_that_is_not_an_object_exit_2(tmp_path, capsys, command):
    code, out, err = run(capsys, command + [write(tmp_path, "list.json", [1, 2])])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "scenario must be a JSON object",
                               "kind": "invalid-input"}


def _with_count(payload, **fields):
    count = dict({"x": "x", "y": "z", "A": [0], "count": 1}, **fields)
    return dict(payload, counts=[count])


FIXED_LOCUS_WEIGHT_0 = _replaced(
    _replaced(FIXED_LOCUS, {"weight_0": {"n_units": 2, "m_units": 1}},
              "fixed_locus", "components"),
    {v: {"weight_0": [[0] * 4] * 2} for v in ("0", "1")}, "fixed_locus", "lambda_blocks")
# a weight_1 block of shape (2, 3) where one unit each way declares (2, 2)
FIXED_LOCUS_MISSHAPED = _replaced(
    _replaced(FIXED_LOCUS, {"n_units": 1, "m_units": 1}, *COMPONENT),
    {v: {"weight_1": [[0] * 3] * 2} for v in ("0", "1")}, "fixed_locus", "lambda_blocks")


@pytest.mark.parametrize("command, payload, named", [
    # integer fields: a count's lattice point, a fractional count field
    (["floer", "ranks"], _with_count(FLOER_RANKS, A=["x"]), "'A'"),
    (["floer", "d2"], _with_count(FLOER_RANKS, A=["x"]), "'A'"),
    (["floer", "ranks"], _with_count(FLOER_RANKS, A=[1.5]), "1.5"),
    (["transversality", "check"], _replaced(FIXED_LOCUS, 1.5, *COMPONENT, "n_units"),
     "'n_units'"),
    (["groupoid", "check"], {"groupoid": {"discrete": 2.7}}, "'discrete'"),
    # generator names are strings; count and Morse-count names are generators
    (["floer", "ranks"], _replaced(FLOER_RANKS, [["x"], "z"], "generators", "names"),
     "'names'"),
    (["floer", "ranks"], _with_count(FLOER_RANKS, x="q"), "'q'"),
    (["floer", "d2"], _with_count(FLOER_RANKS, y="q"), "'q'"),
    (["floer", "reduce"], _replaced(FLOER_REDUCE, "q", "morse_counts", 1, "y"), "'q'"),
    # fixed-locus models that do not match their base or components
    (["transversality", "check"], _without(FIXED_LOCUS, "fixed_locus", "section", "1"),
     "base vertex 1"),
    (["transversality", "perturb"],
     _without(FIXED_LOCUS, "fixed_locus", "fixed_blocks", "0"), "base vertex 0"),
    (["transversality", "check"],
     _without(FIXED_LOCUS, "fixed_locus", "lambda_blocks", "1"), "base vertex 1"),
    (["transversality", "check"],
     _replaced(FIXED_LOCUS, {"weight_9": [[0, 0], [0, 0]]},
               "fixed_locus", "lambda_blocks", "0"), "'weight_9'"),
    (["transversality", "check"],
     _replaced(FIXED_LOCUS, {"foo": {"weight": 1, "n_units": 2, "m_units": 1}},
               "fixed_locus", "components"), "'foo'"),
    (["transversality", "perturb"], _replaced(FIXED_LOCUS, 2, *COMPONENT, "weight"),
     "'weight_1'"),
    # circle weights run from 1 to the quadrature capacity
    (["reps", "decompose"], dict(CIRCLE_WEIGHTS, representation={"weights": [0]}),
     "weight 0"),
    (["reps", "endotype"], dict(CIRCLE_WEIGHTS, representation={"weights": [-1]}),
     "weight -1"),
    (["transversality", "check"], FIXED_LOCUS_WEIGHT_0, "weight 0"),
    # a lambda block must have the shape of its declared bundle pair
    (["transversality", "check"], FIXED_LOCUS_MISSHAPED,
     "block shape (2, 3) at vertex 0 does not match the declared 'weight_1'"),
    (["transversality", "perturb"], FIXED_LOCUS_MISSHAPED,
     "block shape (2, 3) at vertex 0 does not match the declared 'weight_1'"),
    # vertex labels: integers or strings, one kind per base
    (["bundle", "extend"], _replaced(BUNDLE_EXTEND, {"maximal_simplices": [[[0], 1]]},
                                     "base"), "base 'maximal_simplices'"),
    (["bundle", "extend"], _replaced(BUNDLE_EXTEND, [[0], 1], "extend", "simplex"),
     "extend 'simplex'"),
    (["bundle", "extend"], _replaced(BUNDLE_EXTEND, {"maximal_simplices": [[0, "a"]]},
                                     "base"), "base 'maximal_simplices'"),
    (["bundle", "decompose"],
     _replaced(BUNDLE_EXTEND, {"maximal_simplices": [[0, 1], ["a", "b"]]}, "base"),
     "base 'maximal_simplices'"),
    # stabilize linearizations that do not match the base or the fiber
    (["bundle", "stabilize"], dict(BUNDLE_STABILIZE, base={"interval": 1}),
     "linearization missing at vertex 1"),
    (["bundle", "stabilize"],
     _replaced(BUNDLE_STABILIZE, [[0, 0, 0]], "stabilize", "linearizations", "0"),
     "linearization at vertex 0 must be a matrix with 2 rows"),
])
def test_malformed_integer_name_weight_or_vertex_exit_2(tmp_path, capsys, command,
                                                        payload, named):
    code, out, err = run(capsys, command + [write(tmp_path, "bad.json", payload)])
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert named in msg["error"]


@pytest.mark.parametrize("command, payload, named", [
    # a choice the scenario format does not offer
    (["reps", "decompose"], dict(REPS_MATRICES, settings={"mode": "rational"}),
     "unknown arithmetic mode 'rational'"),
    (["reps", "decompose"], dict(REPS_MATRICES, group={"name": "Z_2"}),
     "group section needs 'preset', 'circle' or 'table'"),
    (["reps", "decompose"], dict(REPS_MATRICES, representation={"dim": 2}),
     "representation section needs 'weights', 'blocks', 'matrices'"),
    (["reps", "decompose"], dict(REPS_MATRICES, representation={"blocks": ["nope"]}),
     "unknown block 'nope'"),
    (["bundle", "extend"], dict(BUNDLE_EXTEND, base={"simplex": 2}),
     "base section needs 'interval', 'circle' or 'maximal_simplices'"),
    (["groupoid", "check"], dict(GROUPOID_CHECK, groupoid={"free": 2}),
     "groupoid section needs 'discrete' or 'translation'"),
    (["flow", "index"], {"flow": {"paths": [{"preset": "sawtooth"}]}},
     "unknown flow preset 'sawtooth'"),
    (["metric", "quotient"],
     _replaced(METRIC_PERMUTATION, "rotation", "metric_action", "type"),
     "unknown metric action type 'rotation'"),
    # entries of the wrong kind
    (["reps", "decompose"], _replaced(REPS_MATRICES, -1.5, "representation", "matrices",
                                      1, 1, 1),
     "exact mode requires integers or 'p/q' strings, got -1.5"),
    (["reps", "decompose"], _replaced(REPS_MATRICES, 5, "representation", "matrices"),
     "representation matrices must be a JSON list"),
    (["bundle", "extend"], _replaced(BUNDLE_EXTEND, 5, "sections", "s", "1"),
     "section 's' must be a list of numbers"),
    (["reps", "decompose"], dict(REPS_MATRICES, representation={"weights": [1]}),
     "weight lists need a circle group"),
    # sections a subcommand needs
    (["bundle", "extend"], _replaced(BUNDLE_EXTEND, "t", "extend", "section"),
     "section 't' not in scenario"),
    (["bundle", "decompose"], dict(REPS_MATRICES, bundle={}), "no 'base' section"),
    (["transversality", "check"], {}, "no 'fixed_locus' section"),
    (["groupoid", "quotient"], {}, "no 'groupoid' section"),
    (["flow", "index"], {"flow": {"paths": []}}, "no 'flow' section with paths"),
    (["floer", "ranks"], _without(FLOER_RANKS, "lattice"),
     "scenario needs 'lattice' and 'generators'"),
])
def test_unoffered_choice_or_missing_section_exit_2(tmp_path, capsys, command, payload,
                                                    named):
    code, out, err = run(capsys, command + [write(tmp_path, "bad.json", payload)])
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert named in msg["error"]


def test_missing_scenario_file_exit_2(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    code, out, err = run(capsys, ["reps", "decompose", path])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": f"scenario file not found: {path}",
                               "kind": "invalid-input"}


BUNDLE_Z2_SPLIT = dict(BUNDLE_EXTEND, representation={"matrices": Z2_MATRICES})
SWAP = [[0, 1], [1, 0]]
REPS_TRIVIAL = {"group": {"preset": "Z_2"}, "representation": {"blocks": ["trivial"]}}
EYE4 = np.eye(4, dtype=int)
FOUR_CYCLE = np.roll(EYE4, 1, axis=0)
# one matrix per Q_8 element, in the order 1, -1, i, -i, j, -j, k, -k
Q8_SCALARS = [(s * EYE4).tolist() for s in (1, -1) * 4]
Q8_FOUR_CYCLE = [(s * m).tolist() for m in (EYE4, FOUR_CYCLE, EYE4, EYE4)
                 for s in (1, -1)]


KLEIN_NAMED_Z4 = {"name": "Z_4", "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1],
                                           [3, 2, 1, 0]],
                  "irreps": [{"label": "two", "dim": 2, "character": [1, 0, -1, 0],
                              "endo_type": "R"}]}


def drifting_dihedral(n=32, amplitude=1.2e-10):
    """A float D_n scenario whose matrices pass the group law on the
    generators r and s (to 5e-11) but drift along longer words: r^a turns by
    2 pi a / n + amplitude (cos(4 pi a / n) - 1), r^a s by the opposite
    drift.  With the plane irrep as the only one listed, its character
    projectors pass (to 6e-11).  Float ``validate`` checks the law on every
    pair, so the drift fails it.  Characters are decimal strings, which a
    group table takes as exact values."""
    theta = 2 * np.pi * np.arange(n) / n
    drift = amplitude * (np.cos(2 * theta) - 1)

    def rotation(a):
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

    mats = ([rotation(t + e) for t, e in zip(theta, drift)]
            + [rotation(t - e) @ np.diag([1.0, -1.0]) for t, e in zip(theta, drift)])
    plane = {"label": "plane_1", "dim": 2, "endo_type": "R",
             "character": [repr(float(c)) for c in 2 * np.cos(theta)] + ["0"] * n}
    return {"settings": {"mode": "float"},
            "group": {"table": reps.dihedral_group(n).table.tolist(), "irreps": [plane]},
            "representation": {"matrices": [m.tolist() for m in mats]}}


@pytest.mark.parametrize("command, payload, named", [
    # bases, transitions and extension data the bundle model rejects
    (["bundle", "decompose"], dict(BUNDLE_EXTEND, base={"maximal_simplices": [[0, 1, 0]]}),
     "simplex (0, 0, 1) has repeated vertices"),
    (["bundle", "decompose"], dict(BUNDLE_EXTEND, base={"circle": 2}),
     "a triangulated circle needs >= 3 vertices"),
    (["bundle", "decompose"], dict(BUNDLE_Z2_SPLIT, base={"interval": 2},
                                   bundle={"transitions": {"0,2": Z2_MATRICES[0]}}),
     "transition given for (0,2), which is not an edge"),
    (["bundle", "decompose"],
     dict(BUNDLE_Z2_SPLIT, bundle={"transitions": {"0,1": Z2_MATRICES[0], "1,0": Z2_MATRICES[1]}}),
     "transitions on edge (0,1) are not mutually inverse"),
    (["bundle", "decompose"], dict(BUNDLE_Z2_SPLIT, bundle={"transitions": {"0,1": SWAP}}),
     "transition on edge (0,1) is not equivariant (residual 2)"),
    # a transition of another size, given either way, or empty
    (["bundle", "decompose"],
     dict(BUNDLE_Z2_SPLIT, bundle={"transitions": {"0,1": Z2_MATRICES[0],
                                                   "1,0": np.eye(3).tolist()}}),
     "transition on edge (1,0) is not 2 x 2"),
    (["bundle", "decompose"], dict(BUNDLE_Z2_SPLIT, bundle={"transitions": {"0,1": []}}),
     "transition on edge (0,1) is not 2 x 2"),
    (["bundle", "extend"], BUNDLE_Z2_SPLIT,
     "extension requires a single-isotypic-type fiber; components present: "
     "['fixed', 'sign']"),
    (["bundle", "extend"], _replaced(BUNDLE_EXTEND, [0, 2], "extend", "simplex"),
     "(0, 2) is not a simplex of the base"),
    (["bundle", "extend"], _without(BUNDLE_EXTEND, "sections", "s", "1"),
     "boundary section missing at vertex 1"),
    # a boundary that vanishes only at the midpoint of edge (0, 1): off the
    # edge's sample grid, but a face barycenter that no candidate can change
    (["bundle", "extend"],
     dict(REPS_TRIVIAL, representation={"blocks": ["trivial"] * 3},
          base={"maximal_simplices": [[0, 1, 2]]},
          sections={"s": {"0": [1, 0, 0], "1": [-1, 0, 0], "2": [0, 1, 0]}},
          extend={"simplex": [0, 1, 2], "section": "s"}),
     "boundary section vanishes on the boundary"),
    # vanishing at t = 1/4 on edge (0, 1): off the sample grid and at no
    # face barycenter, so only the exact minimum over the edge sees it
    (["bundle", "extend"],
     dict(REPS_TRIVIAL, representation={"blocks": ["trivial"] * 3},
          base={"maximal_simplices": [[0, 1, 2]]},
          sections={"s": {"0": [1, 0, 0], "1": [-3, 0, 0], "2": [0, 1, 0]}},
          extend={"simplex": [0, 1, 2], "section": "s"}),
     "boundary section vanishes on the boundary"),
    # lattices, generators, counts and differentials the floer model rejects
    (["floer", "ranks"], _replaced(FLOER_RANKS, 2, "lattice", "rank"),
     "omega and c1 must have one value per generator"),
    (["floer", "ranks"], dict(FLOER_RANKS, counts=[{"x": "x", "y": "z", "A": [0, 0],
                                                     "count": 1}]),
     "lattice point (0, 0) has wrong rank"),
    (["floer", "ranks"], _without(FLOER_RANKS, "generators", "index", "z"),
     "generator 'z' missing index or value"),
    (["floer", "reduce"], dict(FLOER_REDUCE, morse_counts=[{"x": "m1", "y": "m2",
                                                           "count": 1}]),
     "Morse count at ('m1', 'm2') does not sit in the index-0 slot"),
    (["floer", "ranks"], FLOER_DEFECT,
     "differential does not square to zero at pair ('a', 'c')"),
    # x of index 1 -> y of index 0 with 2 c1(A) = 2 sits in the index-0 slot
    (["floer", "ranks"],
     {"lattice": {"rank": 1, "omega": [5], "c1": [1]},
      "generators": {"names": ["x", "y"], "index": {"x": 1, "y": 0},
                     "values": {"x": 1, "y": 0}},
      "counts": [{"x": "x", "y": "y", "A": [1], "count": 1}]},
     "entry ('x', 'y') connects non-adjacent Morse indices; graded ranks are "
     "defined for q-degree-zero differentials"),
    # a zero-set vertex whose fixed block is tall (3 x 2) needs a section
    # shift, and the support leaves it out
    (["transversality", "perturb"],
     _replaced(_replaced(_replaced(FIXED_LOCUS, [0], "fixed_locus", "support"),
                         [[0, 0]] * 3, "fixed_locus", "fixed_blocks", "1"),
               [0, 0, 0], "fixed_locus", "section", "1"),
     "zero-set vertex 1 lies outside the declared support"),
    # groupoids, group actions and local data the groupoid model rejects
    (["groupoid", "check"], _replaced(GROUPOID_CHECK, [[0, 1, 2]], *ACTION),
     "action table needs shape (2, 3), one row of 3 points per group element, "
     "got (1, 3)"),
    (["groupoid", "check"], _replaced(GROUPOID_CHECK, [[1, 0, 2], [0, 1, 2]], *ACTION),
     "identity does not fix point 0 in the action table"),
    (["groupoid", "check"], _replaced(GROUPOID_CHECK, {"0": [2]}, "uniformizers"),
     "uniformizer of object 0 does not contain it"),
    (["groupoid", "quotient"], _replaced(GROUPOID_QUOTIENT, [[0, 1]], *OBJECTS),
     "object action table needs shape (2, 2), one row of 2 points per group "
     "element, got (1, 2)"),
    (["groupoid", "quotient"],
     _replaced(_replaced(GROUPOID_QUOTIENT, SWAP[::-1], *OBJECTS), SWAP[::-1],
               *MORPHISMS), "identity does not fix point 0 in the object action table"),
    (["groupoid", "quotient"], dict(GROUPOID_QUOTIENT, ineffective_kernels={"0": [1]}),
     "declared kernel element 1 is not in stab_0"),
    # Z_2 acting trivially on Z_4 at one point, with the kernel {0, 1},
    # which is not a subgroup of Z_4
    (["groupoid", "quotient"],
     {"groupoid": {"translation": {"group": {"preset": "Z_4"}, "action": [[0]] * 4}},
      "group_action": {"group": {"preset": "Z_2"}, "objects": [[0], [0]],
                       "morphisms": [[0, 1, 2, 3]] * 2},
      "slices": [0], "ineffective_kernels": {"0": [1]}},
     "ineffective kernels are not coherent under composition"),
    (["groupoid", "check"],
     dict(GROUPOID_CHECK, uniformizers={},
          regularity={"0": {"points": [0, 1], "sub": [2], "action": {}}}),
     "sub-neighborhood of 0 is not inside its uniformizer"),
    # ids that are no object or morphism of the groupoid
    (["groupoid", "check"], {"groupoid": {"discrete": 2}, "uniformizers": {"0": [0, 5]}},
     "uniformizer of 0 holds [5], which are not objects"),
    (["groupoid", "check"], {"groupoid": {"discrete": 2}, "uniformizers": {"7": [7]}},
     "uniformizer of 7 holds [7], which are not objects"),
    (["groupoid", "check"],
     {"groupoid": {"discrete": 2},
      "regularity": {"0": {"points": [0, 1], "sub": [0], "action": {"7": [0, 1]}}}},
     "regularity action at 0 moves [7], which are not morphisms"),
    (["groupoid", "check"],
     {"groupoid": {"discrete": 2},
      "regularity": {"3": {"points": [0, 1], "sub": [0], "action": {"0": [0, 1]}}}},
     "regularity data is declared at [3], which are not objects"),
    (["groupoid", "quotient"], dict(GROUPOID_QUOTIENT, ineffective_kernels={"2": [0]}),
     "ineffective kernels are declared at [2], which are not objects"),
    # a negative seed in the settings: numpy's generators take none
    (["bundle", "extend"], dict(BUNDLE_EXTEND, settings={"seed": -5}), "seed -5 is negative"),
    # groups, irreps and representations the reps model rejects
    (["reps", "decompose"], dict(REPS_TRIVIAL, group={"preset": "Z_0"}),
     "cyclic order must be positive"),
    (["reps", "decompose"], dict(REPS_TRIVIAL, group={"preset": "D_1"}),
     "dihedral parameter must be at least 2"),
    (["reps", "decompose"], dict(REPS_TRIVIAL, group={"preset": 5}),
     "unknown group preset 5"),
    (["reps", "decompose"], dict(REPS_TRIVIAL, group={"preset": "A_5"}),
     "unknown group preset 'A_5'"),
    (["reps", "decompose"],
     dict(CIRCLE_WEIGHTS, group={"circle": {"quadrature_order": 3}}),
     "quadrature order must be at least 4"),
    (["reps", "decompose"],
     _replaced(dict(REPS_MATRICES, group=CUSTOM_Z2), "X", "group", "irreps", 0,
               "endo_type"), "unknown endomorphism type 'X'"),
    # an associative table with no identity, and one whose element 1 absorbs
    (["reps", "decompose"], _replaced(REPS_MATRICES, {"table": [[0, 0], [0, 0]]},
                                      "group"), "multiplication table has no identity"),
    (["reps", "decompose"], _replaced(REPS_MATRICES, {"table": [[0, 1], [1, 1]]},
                                      "group"), "element 1 has no two-sided inverse"),
    (["reps", "decompose"],
     _replaced(REPS_MATRICES, [[1, 1], [0, 1]], "representation", "matrices", 1),
     "action of element 1 is not orthogonal"),
    (["reps", "decompose"],
     _replaced(REPS_MATRICES, Z2_MATRICES[::-1], "representation", "matrices"),
     "action at the identity is not the identity matrix"),
    (["reps", "decompose"],
     dict(REPS_TRIVIAL, group={"preset": "Z_3"},
          representation={"generator_matrices": {"generators": [1],
                                                  "matrices": [[[-1]]]}}),
     "group law fails at pair (1, 2)"),
    # matrices that pass the identity and orthogonality checks but not the
    # group law: Q_8's elements +-i, +-j, +-k as +-P, +-I, +-I for a 4-cycle
    # P, or all as +-I; i * i = -1 fails first
    (["reps", "endotype"], dict(REPS_TRIVIAL, group={"preset": "Q_8"},
                                representation={"matrices": Q8_FOUR_CYCLE}),
     "group law fails at pair (2, 2)"),
    (["reps", "endotype"], dict(REPS_TRIVIAL, group={"preset": "Q_8"},
                                representation={"matrices": Q8_SCALARS}),
     "group law fails at pair (2, 2)"),
    (["reps", "decompose"], dict(REPS_TRIVIAL, group={"preset": "Q_8"},
                                 representation={"matrices": Q8_FOUR_CYCLE}),
     "group law fails at pair (2, 2)"),
    # a valid representation whose irrep table is wrong: Z_2 acting by +-I
    # on R^3 passes as a 3-dim irrep, and its commutant is all of M_3(R)
    (["reps", "endotype"],
     {"group": {"table": [[0, 1], [1, 0]],
                "irreps": [{"label": "s3", "dim": 3, "character": ["2/3", "-2/3"],
                            "endo_type": "C"}]},
      "representation": {"matrices": [np.eye(3, dtype=int).tolist(),
                                      (-np.eye(3, dtype=int)).tolist()]}},
     "commutant dimension 9 is not 1, 2 or 4; input is not irreducible"),
    # only a preset's constructor supplies integer blocks: a Klein four-group
    # table named "Z_4" gets no rot90 block (which squares to -I), a 2-element
    # table named "S_3" draws no S_3 block, and the circle has none
    *[(["reps", sub], {"group": group, "representation": representation},
       "the group has no integer block catalog (only preset groups have one)")
      for sub, group, representation in [
          ("decompose", KLEIN_NAMED_Z4, {"blocks": ["rot90"]}),
          ("endotype", KLEIN_NAMED_Z4, {"random": {}}),
          ("decompose", {"name": "S_3", "table": SWAP}, {"random": {"max_dim": 4}}),
          ("decompose", {"name": "S_3", "table": SWAP}, {"blocks": ["natural"]}),
          ("decompose", {"circle": {}}, {"blocks": ["trivial"]}),
      ]],
    # an empty choice of blocks, listed or drawn, is no representation
    *[(["reps", "decompose"], {"group": {"preset": "Z_2"}, "representation": representation},
       "a representation needs at least one block (random: max_dim >= 1)")
      for representation in ({"blocks": []}, {"random": {"max_dim": 0}})],
    # a circle representation holds at least one weight plane
    *[(["reps", "decompose"], {"group": {"circle": {}},
                               "representation": {"random": {"max_dim": max_dim}}},
       f"a circle representation needs max_dim >= 2, got {max_dim}")
      for max_dim in (0, 1)],
    (["reps", "endotype"], drifting_dihedral(), "group law fails at pair (2, 11)"),
    # a transition given in one direction that is singular, or invertible
    # but not orthogonal: its transpose is not its inverse
    *[(["bundle", "decompose"],
       dict(REPS_TRIVIAL, settings={"mode": mode}, base={"interval": 1},
            representation={"blocks": ["trivial", "trivial"]},
            bundle={"transitions": {"0,1": transition}}),
       "transition on edge (0,1) not orthogonal")
      for mode in ("exact", "float") for transition in ([[1, 0], [0, 0]], [[2, 0], [0, 1]])],
    # points whose distance overflows in floats, and points the circle cannot
    # rotate: the circle acts on the plane
    (["metric", "quotient"], {"metric_points": [[1e200, 0], [0, 1e200]]},
     "the distance of points (0,1) is not finite"),
    *[(["metric", "quotient"], {"metric_points": [[1.0] * dim, [2.0] * dim],
                                "metric_action": {"type": "circle-rotation"}},
       f"the circle-rotation action needs planar points (d = 2), got d = {dim}")
      for dim in (1, 3)],
])
@pytest.mark.filterwarnings("error")  # invalid input prints only its error
def test_model_rejects_inconsistent_data_exit_2(tmp_path, capsys, command, payload,
                                                named):
    code, out, err = run(capsys, command + [write(tmp_path, "bad.json", payload)])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": named, "kind": "invalid-input"}


# a transition 1e-6 away from orthogonal: valid at tolerance 1e-3 only
NEARLY_ORTHOGONAL = {"settings": {"mode": "float"}, "group": {"preset": "Z_2"},
                     "representation": {"matrices": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]},
                     "base": {"interval": 1},
                     "bundle": {"transitions": {"0,1": [[1, 1e-6], [0, 1]]}}}


@pytest.mark.parametrize("command, payload, setting, flag, codes", [
    (["bundle", "decompose"], NEARLY_ORTHOGONAL, ("tolerance", 1e-10),
     ["--tolerance", "1e-3"], (2, 0)),
    (["bundle", "decompose"], NEARLY_ORTHOGONAL, ("tolerance", 1e-3),
     ["--tolerance", "1e-10"], (0, 2)),
    # the defect of FLOER_DEFECT has energy 1: a cutoff below it truncates it
    (["floer", "d2"], FLOER_DEFECT, ("cutoff", "10"), ["--cutoff", "1/2"], (1, 0)),
    (["floer", "d2"], FLOER_DEFECT, ("cutoff", "1/2"), ["--cutoff", "10"], (0, 1)),
])
def test_tolerance_and_cutoff_flags_override_settings(tmp_path, capsys, command,
                                                      payload, setting, flag, codes):
    key, value = setting
    settings = dict(payload.get("settings", {}), **{key: value})
    path = write(tmp_path, "s.json", dict(payload, settings=settings))
    assert [run(capsys, command + [path] + extra)[0] for extra in ([], flag)] == list(codes)


def test_cutoff_flag_not_a_number_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, ["floer", "d2", write(tmp_path, "f.json", FLOER_DEFECT),
                                  "--cutoff", "abc"])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "--cutoff: 'abc' is not a number",
                               "kind": "invalid-input"}


FLOER_ARROW = {"lattice": {"rank": 1, "omega": ["1"], "c1": [0]},
               "generators": {"names": ["a", "b"], "index": {"a": 0, "b": 1},
                              "values": {"a": 0, "b": 1}},
               "counts": [{"x": "a", "y": "b", "A": [0], "count": 1}]}


@pytest.mark.parametrize("settings, flags", [
    ({"cutoff": "-1/2"}, []),
    ({}, ["--cutoff=-1/2"]),
])
def test_negative_cutoff_exit_2(tmp_path, capsys, settings, flags):
    # a cutoff below 0 would drop every q^0 term: a -> b would report
    # betti_sum 2 instead of 0
    path = write(tmp_path, "f.json", dict(FLOER_ARROW, settings=settings))
    code, out, err = run(capsys, ["floer", "ranks", path] + flags)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "cutoff -1/2 is negative",
                               "kind": "invalid-input"}
    code, out, _ = run(capsys, ["floer", "ranks", path, "--cutoff=10"])
    assert code == 0
    assert json.loads(out)["records"][0]["certificate"]["betti_sum"] == 0


NAN, INF = float("nan"), float("inf")
REPS_FLOAT = dict(REPS_MATRICES, settings={"mode": "float"})


@pytest.mark.parametrize("command, payload, flags", [
    (["flow", "index"],
     {"flow": {"paths": [{"preset": "constant", "matrix": [[NAN, 0], [0, -1]]}]}}, []),
    (["flow", "oracle"],
     {"flow": {"paths": [{"preset": "tanh-scalar", "horizon": INF}]}}, []),
    (["metric", "quotient"], {"metric_points": [[NAN, 1.0], [0.0, 1.0]]}, []),
    (["metric", "quotient"], {"metric_points": [[-INF, 1.0], [0.0, 1.0]]}, []),
    (["reps", "decompose"], REPS_FLOAT, ["--tolerance", "nan"]),
    (["reps", "decompose"], REPS_FLOAT, ["--tolerance", "-1"]),
    (["reps", "decompose"], REPS_FLOAT, ["--tolerance", "inf"]),
    (["reps", "decompose"], dict(REPS_MATRICES, settings={"tolerance": -1e-3}), []),
    (["reps", "decompose"], dict(REPS_MATRICES, settings={"tolerance": NAN}), []),
])
def test_non_finite_input_or_negative_tolerance_exit_2(tmp_path, capsys, command,
                                                       payload, flags):
    # JSON reads NaN and Infinity; they are malformed input, not a failed check
    code, out, err = run(capsys, command + [write(tmp_path, "s.json", payload)] + flags)
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize("command, payload, flags", [
    (["reps", "decompose"], REPS_FLOAT, ["--tolerance", "1e-8"]),
    (["reps", "decompose"], REPS_MATRICES, ["--tolerance", "0"]),
    (["floer", "ranks"], FLOER_RANKS, ["--cutoff", "3/2"]),
])
def test_finite_tolerance_and_cutoff_flags_accepted(tmp_path, capsys, command,
                                                    payload, flags):
    code, out, _ = run(capsys, command + [write(tmp_path, "s.json", payload)] + flags)
    assert code == 0
    assert json.loads(out)["pass"]


def test_cli_import_loads_no_scipy():
    # numpy is the only linear-algebra backend: a fresh interpreter that
    # imports the command line has not loaded scipy
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = "import sys, equitrans.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_every_public_library_name_has_a_library_caller():
    # each public module-level function and class of src/equitrans is
    # referenced in src/ besides its own def, so no routine is kept for the
    # tests alone: a bare name read in its own module, ``module.name``
    # through a package import, or ``from .module import name``.  Only a
    # name that is read counts: a field annotation of the same name stores
    src = Path(cli.__file__).resolve().parent
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(src.glob("*.py"))}
    used = set()
    for mod, tree in trees.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module:
                        used.add((node.module, alias.name))
                    else:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((mod, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
    unused = sorted(f"{mod}.{node.name}" for mod, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and (mod, node.name) not in used)
    assert unused == []


def test_every_public_method_has_a_library_caller():
    # each public method or property defined in a class body of
    # src/equitrans is read as an attribute somewhere in src/.  The check
    # goes by name only, so a method shares its callers with every same-named
    # attribute: ``validate`` and ``compose`` pass through any class's
    # library calls
    src = Path(cli.__file__).resolve().parent
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(src.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unused = sorted(f"{mod}.{cls.name}.{node.name}" for mod, tree in trees.items()
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_") and node.name not in read)
    assert unused == []


def _reps_with(mode, **representation):
    return {"settings": {"mode": mode}, "group": {"preset": "Z_2"},
            "representation": representation}


EYE2, EYE3 = [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("representation", [
    {"matrices": [EYE2, EYE3]},  # two sizes
    {"matrices": [EYE2]},  # one matrix for two elements
    {"matrices": [EYE2] * 3},  # three
    {"matrices": []},
    {"matrices": [[[1, 0]], [[1, 0]]]},  # not square
    {"matrices": [[[]], [[]]]},  # d = 0
    {"generator_matrices": {"generators": [1, 1], "matrices": [EYE2, EYE3]}},
    {"generator_matrices": {"generators": [], "matrices": []}},
    {"generator_matrices": {"generators": [1], "matrices": []}},
    {"generator_matrices": {"generators": [2], "matrices": [EYE2]}},
    {"generator_matrices": {"generators": ["x"], "matrices": [EYE2]}},
])
def test_malformed_representation_matrices_exit_2(tmp_path, capsys, mode,
                                                  representation):
    path = write(tmp_path, "bad.json", _reps_with(mode, **representation))
    code, out, err = run(capsys, ["reps", "decompose", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "invalid-input"


@pytest.mark.parametrize("command, flow_path, named", [
    ("index", {"preset": "tanh-scalar", "horizon": 0}, "not positive"),
    ("oracle", {"preset": "tanh-scalar", "horizon": 0}, "not positive"),
    ("oracle", {"preset": "tanh-scalar", "horizon": -9}, "not positive"),
    # ceil(T / min(1e-3 T, 0.05 / max|B+-|)) = 2e7 and 1.8e11 RK4 steps
    ("oracle", {"preset": "tanh-scalar", "horizon": 1e6}, "RK4 steps"),
    ("oracle", {"preset": "constant", "matrix": [[1e9]]}, "RK4 steps"),
])
def test_flow_path_whose_step_rule_cannot_run_exit_2(tmp_path, capsys, command,
                                                     flow_path, named):
    path = write(tmp_path, "bad.json", {"flow": {"paths": [flow_path]}})
    code, out, err = run(capsys, ["flow", command, path])
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert named in msg["error"]


def test_flow_index_of_long_horizon_needs_no_steps(tmp_path, capsys):
    # the eigenvalue count takes no RK4 step, so only the oracle is capped
    path = write(tmp_path, "long.json",
                 {"flow": {"paths": [{"preset": "tanh-scalar", "horizon": 1e6}]}})
    assert run(capsys, ["flow", "index", path])[0] == 0


def test_perturb_zero_outside_declared_support_exit_2(tmp_path, capsys):
    # both vertices are zeros of fixed index 0 that satisfy the index
    # condition; the support leaves vertex 1 out
    model = json.loads(json.dumps(FIXED_LOCUS))
    model["fixed_locus"]["support"] = [0]
    path = write(tmp_path, "support.json", model)
    assert run(capsys, ["transversality", "check", path])[0] == 0
    code, out, err = run(capsys, ["transversality", "perturb", path])
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["kind"] == "invalid-input"
    assert "zero-set vertex 1 lies outside the declared support" in msg["error"]


def test_perturb_exhausted_budget_exit_1(tmp_path, capsys, monkeypatch):
    # the zero fixed blocks are not surjective, and with no draws in the
    # budget no correction can be found
    monkeypatch.setattr(bundles, "RETRY_BUDGET", 0)
    path = write(tmp_path, "budget.json", FIXED_LOCUS)
    code, out, err = run(capsys, ["transversality", "perturb", path])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    msg = json.loads(err)
    assert msg == {"error": "sampling budget exhausted before surjectivity",
                   "kind": "mathematical-failure"}


@pytest.mark.parametrize("command", ["decompose", "endotype"])
def test_exact_entry_spellings_give_byte_identical_reports(tmp_path, capsys, command):
    # Z_4 acting on R^2 by quarter turns, with its plane character (2, 0, -2, 0)
    # and the matrix entries +-1 spelled as ints, integral floats, strings and
    # unreduced fractions
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    reports = set()
    for two, one in ((2, 1), (2.0, 1.0), ("2", "1"), ("4/2", "2/2")):
        minus_two, minus_one = (f"-{x}" if isinstance(x, str) else -x
                                for x in (two, one))
        irreps = [{"label": "trivial", "dim": 1, "character": [one] * 4,
                   "endo_type": "R"},
                  {"label": "sign", "dim": 1,
                   "character": [one, minus_one, one, minus_one], "endo_type": "R"},
                  {"label": "plane", "dim": 2, "character": [two, 0, minus_two, 0],
                   "endo_type": "C"}]
        turns = [[[one, 0], [0, one]], [[0, minus_one], [one, 0]],
                 [[minus_one, 0], [0, minus_one]], [[0, one], [minus_one, 0]]]
        path = write(tmp_path, "spelled.json",
                     {"group": {"table": table, "irreps": irreps},
                      "representation": {"matrices": turns}})
        code, out, err = run(capsys, ["reps", command, path])
        assert code == 0 and err == ""
        reports.add(out)
    assert len(reports) == 1
    records = json.loads(reports.pop())["records"]
    assert records[0]["certificate"] == ({"rank": 2} if command == "decompose"
                                         else {"endo_dim": 2, "type": "C"})


EXACT_SPELLINGS = st.one_of(
    st.integers(),
    st.integers(-2**60, 2**60).map(float),  # integral floats
    st.integers().map(str),
    st.tuples(st.integers(), st.integers(1, 10**6)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.fractions().map(str),
)


@settings(max_examples=200, deadline=None)
@given(x=EXACT_SPELLINGS)
def test_exact_parse_scalar_is_normalized(x):
    value = cli._parse_scalar(x, True, "x")
    assert value == Fraction(x)
    assert type(value) is (int if Fraction(x).denominator == 1 else Fraction)
