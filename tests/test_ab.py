"""The A/B harness ``tools/ab.py`` on small request slices, without git:
both sides are source trees on disk."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_same_finds_no_difference_between_a_tree_and_itself():
    # the suite requests differ in elapsed_s from run to run, which is not
    # compared
    assert ab.same(ROOT / "src", ROOT / "src", ["scenarios-float", "suite-all"], [1],
                   first=8) == {}


def test_same_names_the_first_differing_request_per_family(tmp_path):
    # a tree whose reports are indented differently differs on every request
    # that prints one; each family is named at its first request
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "equitrans" / "cli.py"
    assert cli.read_text().count("indent=2") == 1
    cli.write_text(cli.read_text().replace("indent=2", "indent=1"))
    outcomes = ab.run_side(ROOT / "src", "scenarios-exact", 2, first=8)
    first = {}
    for i, o in enumerate(outcomes):
        if o["stdout"]:
            first.setdefault(o["family"], i)
    assert len(first) >= 3
    diffs = ab.same(ROOT / "src", src, ["scenarios-exact"], [2], first=8)
    assert diffs == {family: f"scenarios-exact seed 2 request {i}: stdout differ"
                     for family, i in first.items()}
    # a tree that adds 1e-9 to every finite float it reports, in the one
    # canonical walk each record gets, differs in float values only;
    # bundle.extend at request 33 is the first request that reports a float
    cli.write_text(cli.read_text().replace("indent=1", "indent=2"))
    finite = "return obj if math.isfinite(obj)"
    assert cli.read_text().count(finite) == 1
    cli.write_text(cli.read_text().replace(finite, "return obj + 1e-9 if math.isfinite(obj)"))
    assert ab.same(ROOT / "src", src, ["scenarios-exact"], [2], first=34) == {
        "bundle.extend": "scenarios-exact seed 2 request 33: stdout differs in float "
                         "values only, by at most 1e-09"}


def _pair(old, new):
    return {"workload": "w", "seed": 0, "first": "parent",
            **{side: {"correct": True, "failed": 0,
                      "metrics": {"m": {"value": value, "unit": "ms"}}}
               for side, value in (("parent", old), ("change", new))}}


def test_a_claim_needs_nine_wins_in_ten_beyond_the_parent_spread():
    runs = [_pair(20.0 + k % 3, 15.0 + k % 2) for k in range(10)]
    summary = ab.summarize(runs, {"m": "lower"})
    assert summary["w"]["m"]["change_better_pairs"] == 10
    assert summary["w"]["m"]["parent_quartiles"] == [20.0, 21.75]
    assert ab.claim_result(summary, "w", "m", "ms").startswith(
        "met: 10 of 10 pairs better; median 21.0 -> 15.5 ms (-26.2%)")
    runs[:2] = [_pair(20.0, 21.0), _pair(20.0, 22.0)]  # two lost pairs
    assert ab.claim_result(ab.summarize(runs, {"m": "lower"}), "w", "m",
                           "ms").startswith("not met: 8 of 10")
    runs = [_pair(20.0 + k, 19.5 + k) for k in range(10)]  # within the spread
    assert ab.claim_result(ab.summarize(runs, {"m": "lower"}), "w", "m",
                           "ms").startswith("not met: 10 of 10")
