"""End-to-end tests of the command-line front end: scenario ingestion,
report shape, exit-code triage, and byte-level determinism."""

import json

import pytest

from equitrans import cli


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
            "half_dim": 1,
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
            "half_dim": 1,
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
        "half_dim": 1,
        "values": {"a": 0, "b": 1, "c": 2},
    },
    "counts": [
        {"x": "a", "y": "b", "A": [0], "count": 1},
        {"x": "b", "y": "c", "A": [1], "count": 2},
    ],
}


@pytest.mark.parametrize("argv, payload", [
    (["groupoid", "quotient"], GROUPOID_QUOTIENT),
    (["groupoid", "check"], GROUPOID_CHECK),
    (["floer", "d2"], FLOER_DEFECT),
    (["flow", "oracle"], {"flow": {"paths": [{"preset": "tanh-scalar"}]}}),
    (["flow", "oracle"], {"flow": {"paths": [
        {"preset": "lambda", "n": 1, "weight": 2, "a_scale": 0.3}]}}),
    (["flow", "index"], {"flow": {"paths": [
        {"preset": "tanh-scalar"},
        {"preset": "lambda", "n": 2, "weight": 1, "a_scale": 0.3}]}}),
])
def test_byte_identical_groupoid_and_floer_reports(tmp_path, capsys, argv, payload):
    path = write(tmp_path, "scenario.json", payload)
    first, second = (run(capsys, argv + [path, "--seed", "3"]) for _ in range(2))
    assert first == second
    assert first[0] in (0, 1) and json.loads(first[1])["records"]


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
