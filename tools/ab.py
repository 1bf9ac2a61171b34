"""A/B harness: run one ``perfbench/`` against a parent tree and this one.

    python3 tools/ab.py same  --parent <rev> [--workloads ...] [--seeds 1 2 3] [--first N]
    python3 tools/ab.py pairs --parent <rev> --seeds <n> ... --out BENCH_<n>.json
                              [--seconds 6] [--claim suite-all:latency_p50_ms]
                              [--change TEXT] [--note KEY=TEXT ...]

The parent tree is the commit ``<rev>`` of this repository, exported with
``git archive`` into a temporary directory (local; nothing is fetched).  The
change tree is this checkout's ``src/``.  Both sides run this checkout's
``perfbench/``, one interpreter at a time.

``same`` builds each (workload, seed) request list on each side from
``perfbench/scenarios.py`` (its group data is read from that side's
program) and runs every request through that side's ``equitrans.cli.main``
with ``perfbench/run.py``'s ``execute``, all requests of one list in one
fresh interpreter per side.  A request must keep its command line, its
scenario, its exit code, its stdout and its stderr; a ``suite`` stdout is
compared without its ``elapsed_s`` values.  It prints the first differing
request of each family and exits 1 if there is one; a request whose stdout
differs only in float values, with the same exit code, stderr and JSON
shape, is labelled so, with the largest absolute difference.

``pairs`` copies ``src/`` and ``perfbench/`` of each side into its own
temporary tree and runs ``perfbench/run.py --trace 0`` there once per side
for each (workload, seed): odd seeds run the parent first, even seeds the
change first.  It writes every result line and, per end-to-end metric, the
medians, the quartiles and how many pairs the change won, to a JSON file in
the schema of ``BENCH_26.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("suite-all", "scenarios-exact", "scenarios-float")

# one side of ``same``: argv = [src, perfbench, workload, seed, first]; the
# requests are written to ./requests, so both sides see the same paths
_SIDE = r"""
import json, sys
src, perfbench, workload, seed, first = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import run, scenarios
from equitrans import cli
requests = scenarios.WORKLOADS[workload](int(seed))[:int(first) or None]
out = []
for req, argv in zip(requests, run.materialize(requests, "requests")):
    code, stdout, stderr, _ = run.execute(cli, argv)
    out.append({"family": req.family, "argv": req.argv, "scenario": req.scenario,
                "exit": code, "stdout": stdout, "stderr": stderr})
json.dump(out, sys.stdout)
"""


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def _comparable(outcome: dict) -> dict:
    """A request's outcome as compared: a suite stdout without elapsed_s."""
    if outcome["argv"][:1] == ["suite"] and outcome["stdout"].strip():
        outcome = dict(outcome, stdout=_without_elapsed(json.loads(outcome["stdout"])))
    return outcome


def _parsed(stdout):
    """A stdout as JSON (a suite stdout is parsed already); None if it is not."""
    if not isinstance(stdout, str):
        return stdout
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _float_gap(old, new):
    """The largest |difference| of the float leaves of two JSON values that
    match in shape and in every other leaf, else None."""
    if type(old) is not type(new):
        return None
    if isinstance(old, float):
        return abs(old - new)
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return None
        old, new = list(old.values()), [new[k] for k in old]
    if isinstance(old, list):
        if len(old) != len(new):
            return None
        gaps = [_float_gap(a, b) for a, b in zip(old, new)]
        return None if None in gaps else max(gaps, default=0.0)
    return 0.0 if old == new else None


def run_side(src: Path, workload: str, seed: int, first: int = 0) -> list:
    """Every request outcome of one (workload, seed) list on one side."""
    with tempfile.TemporaryDirectory() as work:
        return json.loads(_run([sys.executable, "-c", _SIDE, str(src), str(PERFBENCH),
                                workload, str(seed), str(first)], work))


def same(parent_src: Path, change_src: Path, workloads, seeds, first: int = 0) -> dict:
    """{family: description of its first differing request} over the lists;
    empty when every request keeps its bytes."""
    diffs: dict = {}
    for workload in workloads:
        for seed in seeds:
            sides = [run_side(src, workload, seed, first) for src in (parent_src, change_src)]
            if len(sides[0]) != len(sides[1]):
                diffs.setdefault(f"{workload}:{seed}", "the request lists differ in length")
            for i, (old, new) in enumerate(zip(*sides)):
                old, new = _comparable(old), _comparable(new)
                keys = [k for k in ("argv", "scenario", "exit", "stdout", "stderr")
                        if old[k] != new[k]]
                what = f"{', '.join(keys)} differ"
                if keys == ["stdout"]:
                    gap = _float_gap(*(_parsed(o["stdout"]) for o in (old, new)))
                    if gap:  # 0 when only the formatting differs
                        what = f"stdout differs in float values only, by at most {gap:.3g}"
                if keys and new["family"] not in diffs:
                    diffs[new["family"]] = f"{workload} seed {seed} request {i}: {what}"
    return diffs


def _export_parent(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _tree(dest: Path, src: Path) -> Path:
    """A copy of ``src`` beside this checkout's perfbench/, as run.py expects."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(src, dest / "src", ignore=skip)
    shutil.copytree(PERFBENCH, dest / "perfbench", ignore=skip)
    return dest


def _run(argv, cwd) -> str:
    """stdout of a child interpreter; its stderr if it fails."""
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv[:2])} failed in {cwd}:\n{done.stderr[-2000:]}")
    return done.stdout


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(result line, machine line) of one perfbench run in ``tree``."""
    lines = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                  str(seed), "--seconds", str(seconds), "--trace", "0"], tree).strip().splitlines()
    machine = next(json.loads(line.split(" ", 2)[2]) for line in lines
                   if line.startswith("# machine "))
    return json.loads(lines[-1]), machine


def summarize(pairs: list, better: dict) -> dict:
    """Per workload and end-to-end metric: medians, quartiles and the pairs
    the change won, in the direction ``better`` gives."""
    out: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry = {}
        for metric in runs[0]["parent"]["metrics"]:
            old = [p["parent"]["metrics"][metric]["value"] for p in runs]
            new = [p["change"]["metrics"][metric]["value"] for p in runs]
            sign = 1 if better.get(metric, "lower") == "lower" else -1
            entry[metric] = {
                "parent_median": round(statistics.median(old), 4),
                "parent_quartiles": [round(float(q), 4) for q in np.percentile(old, [25, 75])],
                "change_median": round(statistics.median(new), 4),
                "change_quartiles": [round(float(q), 4) for q in np.percentile(new, [25, 75])],
                "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(old, new)),
                "pairs": len(runs),
            }
        entry["failed"] = {side: sum(p[side]["failed"] for p in runs)
                           for side in ("parent", "change")}
        entry["correct"] = {side: all(p[side]["correct"] for p in runs)
                            for side in ("parent", "change")}
        out[workload] = entry
    return out


def claim_result(summary: dict, workload: str, metric: str, unit: str) -> str:
    """Met when the change wins at least 9 in 10 pairs and its median beats
    the parent's by more than the parent's interquartile spread."""
    m = summary[workload][metric]
    q1, q3 = m["parent_quartiles"]
    gain = m["parent_median"] - m["change_median"]
    met = m["change_better_pairs"] >= 0.9 * m["pairs"] and abs(gain) > q3 - q1
    return (f"{'met' if met else 'not met'}: {m['change_better_pairs']} of {m['pairs']} "
            f"pairs better; median {m['parent_median']} -> {m['change_median']} {unit} "
            f"({-gain / m['parent_median']:+.1%}), a difference of {abs(gain):.4g} {unit} "
            f"against the parent's interquartile spread of {q3 - q1:.4g} {unit}")


def pairs(parent_src: Path, change_src: Path, workloads, seeds, seconds: float,
          log=sys.stderr) -> tuple:
    """Alternating runs, one (workload, seed) pair at a time; returns
    (pairs, machine)."""
    out, machine = [], None
    with tempfile.TemporaryDirectory() as work:
        trees = {"parent": _tree(Path(work) / "parent", parent_src),
                 "change": _tree(Path(work) / "change", change_src)}
        for workload in workloads:
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                record = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    record[side], machine = _bench(trees[side], workload, seed, seconds)
                print(f"# {workload} seed {seed}: " + "  ".join(
                    f"{side} {record[side]['metrics'].get('latency_p50_ms', {}).get('value', 0):.3f} ms"
                    for side in ("parent", "change")), file=log)
                out.append(record)
    machine = {k: v for k, v in machine.items() if k != "commit"}
    return out, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("same", "pairs"))
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--first", type=int, default=0,
                        help="same: compare only the first N requests of each list")
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--out", help="pairs: the JSON file to write")
    parser.add_argument("--claim", help="pairs: workload:metric of the claimed gain")
    parser.add_argument("--change", default="", help="pairs: what the change does")
    parser.add_argument("--note", action="append", default=[], metavar="KEY=TEXT",
                        help="pairs: one more top-level text field")
    args = parser.parse_args(argv)
    if args.mode == "pairs" and not args.out:
        parser.error("pairs needs --out")
    with tempfile.TemporaryDirectory() as work:
        parent = Path(work) / "parent"
        _export_parent(args.parent, parent)
        if args.mode == "same":
            diffs = same(parent / "src", ROOT / "src", args.workloads, args.seeds, args.first)
            for family, what in diffs.items():
                print(f"{family}: {what}")
            print(f"# {len(diffs)} families differ")
            return 1 if diffs else 0
        runs, machine = pairs(parent / "src", ROOT / "src", args.workloads, args.seeds,
                              args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    summary = summarize(runs, better)
    doc = {"change": args.change,
           "command": ("python3 perfbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {args.seconds:g} --trace 0"),
           "protocol": ("parent and change run from separate copies of their src/ with the "
                        "same perfbench/; one pair per (workload, seed); odd seeds run the "
                        "parent first, even seeds the change first; the result object is the "
                        "last stdout line of each run; one run at a time"),
           "machine": machine,
           "seeds": {w: args.seeds for w in args.workloads}}
    if args.claim:
        workload, metric = args.claim.split(":")
        unit = next(iter(runs))["parent"]["metrics"][metric]["unit"]
        doc["claim"] = {"workload": workload, "metric": metric,
                        "result": claim_result(summary, workload, metric, unit)}
    for note in args.note:
        key, text = note.split("=", 1)
        doc[key] = text
    doc["summary"] = summary
    doc["pairs"] = runs
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.claim:
        print(doc["claim"]["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
