"""The JSON scenario examples in README.md, run through the command line, do
what the README says they do."""

import builtins
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import equitrans
from equitrans import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_scenarios():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return [json.loads(block) for block in blocks]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_has_two_scenarios():
    assert len(readme_scenarios()) == 2


def test_readme_reps_decompose_example(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(readme_scenarios()[0]))
    code, out, _ = run(capsys, ["reps", "decompose", str(path)])
    assert code == 0
    records = {r["check"]: r for r in json.loads(out)["records"]}
    assert records["component-fixed"]["certificate"] == {"rank": 1}
    assert records["component-standard"]["certificate"] == {"rank": 2}
    assert records["resolution-of-identity"]["pass"]
    assert set(records) == {"component-fixed", "component-standard",
                            "resolution-of-identity"}


def test_readme_perturbation_example(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(readme_scenarios()[1]))
    code, out, _ = run(capsys, ["transversality", "perturb", str(path), "--seed", "3"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_module_table_names_exist():
    # every backticked snake_case name in a module row names a builtin, a
    # package module, or an attribute of a module or of one of its classes
    modules = {m.name: importlib.import_module(f"equitrans.{m.name}")
               for m in pkgutil.iter_modules(equitrans.__path__)}
    owners = [*modules.values()] + [cls for mod in modules.values()
                                    for _, cls in inspect.getmembers(mod, inspect.isclass)]
    rows = re.findall(r"^\| `equitrans\.(\w+)` \|(.*)\|$", README.read_text(), re.M)
    assert len(rows) == 9 and all(name in modules for name, _ in rows)
    for module, text in rows:
        for name in re.findall(r"`([a-z_][a-z0-9_]*)`", text):
            assert (hasattr(builtins, name) or name in modules
                    or any(hasattr(owner, name) for owner in owners)), (module, name)


# module rows rewritten as contracts (inputs, outputs, exactness, error kinds
# and determinism), with their mechanism in the module docstrings: the
# largest word count each may grow to
ROW_WORD_BUDGETS = {"reps": 330, "floer": 110}


def test_contract_rows_stay_within_their_word_budgets():
    rows = dict(re.findall(r"^\| `equitrans\.(\w+)` \|(.*)\|$", README.read_text(), re.M))
    for module, budget in ROW_WORD_BUDGETS.items():
        assert len(rows[module].split()) <= budget, module
