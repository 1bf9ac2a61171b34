"""Self-tests of the benchmark: every workload passes a short run at this
commit, a corrupted golden report is counted as a failure, the work
counters of two traced runs with one seed agree exactly, and the scaled
times follow a slowdown of the program.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import io
import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import scenarios  # noqa: E402

SEED = 7


def short(workload, seed=SEED):
    """A cheap slice of the workload: suite-all without its two slow
    batteries, every third request of the scenario lists."""
    reqs = scenarios.WORKLOADS[workload](seed)
    if workload == "suite-all":
        return [r for r in reqs if r.argv[1] not in ("oracle", "groupoid")]
    return reqs[::3]


def short_run(tmp_path, workload, requests, trace=0):
    result, detail = run.run(workload, SEED, 0.0, trace, out_dir=str(tmp_path),
                             min_passes=1, requests=requests, setup_runs=False,
                             log=io.StringIO())
    return result, detail


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_short_pass_is_correct(tmp_path, workload):
    result, _ = short_run(tmp_path, workload, short(workload))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(short(workload))
    assert set(result["metrics"]) == set(run.END_TO_END) - {"setup_s"}


def test_request_lists_repeat_for_a_seed():
    for workload, make in scenarios.WORKLOADS.items():
        a, b = make(SEED), make(SEED)
        assert [(r.argv, r.scenario, r.expect) for r in a] == [
            (r.argv, r.scenario, r.expect) for r in b]


def test_error_paths_are_in_the_scenario_workloads():
    for workload in ("scenarios-exact", "scenarios-float"):
        codes = {r.expect["exit"] for r in scenarios.WORKLOADS[workload](SEED)}
        assert codes == {0, 1, 2}


def _flip_first_pass_flag(req):
    req = copy.copy(req)
    req.expect = copy.deepcopy(req.expect)
    rec = req.expect["stdout"]["records"][0]
    rec["pass"] = not rec["pass"]
    return req


def test_corrupted_golden_is_counted(tmp_path):
    reqs = short("scenarios-exact")
    reqs[0] = _flip_first_pass_flag(reqs[0])
    result, detail = short_run(tmp_path, "scenarios-exact", reqs)
    passes = len(detail["pass_seconds"])
    assert not result["correct"]
    assert result["failed"] == passes
    assert result["attempted"] == passes * len(reqs)


def test_wrong_exit_code_is_counted(tmp_path):
    reqs = short("suite-all")
    bad = copy.copy(reqs[0])
    bad.expect = dict(bad.expect, exit=1)
    reqs[0] = bad
    result, detail = short_run(tmp_path, "suite-all", reqs)
    assert result["failed"] == len(detail["pass_seconds"])


COUNTERS = ("spectral.path_evals", "groupoids.action_evals",
            "transversality.sv_probes", "transversality.sv_success_ratio")


def test_work_counts_repeat_across_traced_runs(tmp_path):
    reqs = [r for r in scenarios.WORKLOADS["scenarios-float"](SEED)
            if r.family in ("metric.circle", "transversality.perturb",
                            "reps.decompose.random", "bundle.extend")]
    reqs = [r for r in reqs if "16" in r.argv or r.family != "metric.circle"]
    counts = []
    for k in range(2):
        result, detail = short_run(tmp_path / str(k), "scenarios-float", reqs,
                                   trace=1)
        assert result["correct"] and detail["counts_repeat"]
        metrics = result["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if name.endswith(".calls") or name in COUNTERS})
    assert counts[0] == counts[1]
    for name in ("groupoids.action_evals", "transversality.sv_probes",
                 "reps.calls", "linalg.calls"):
        assert counts[0][name] > 0
    assert set(counts[0]) >= set(COUNTERS)
    assert set(result["metrics"]) == set(run.per_layer_units())


class _SlowerCli:
    """``cli.main`` plus a fixed slice of extra work on every ``every``-th
    request, which also leaves what a slower program would leave for the
    next probe: young garbage, a growing heap and a cache swept by a 4 MB
    array."""

    def __init__(self, cli, every=1):
        self.cli = cli
        self.every = every
        self.calls = 0
        self.kept = []
        self.sweep = np.ones(1 << 19)

    def main(self, argv):
        code = self.cli.main(argv)
        self.calls += 1
        if self.calls % self.every == 0:
            acc = 0
            for i in range(600_000):
                acc += i * i
            garbage = [(i, str(i)) for i in range(20_000)]
            self.kept.append(garbage[::10])
            self.sweep *= 1.0000001
        return code


def slowdown_ratios(tmp_path, rounds=5):
    """(raw, scaled, probe): how much the extra work slows the first
    requests of scenarios-exact.  ``raw`` compares each request with its
    slowed copy run right after it, so host drift cancels; ``scaled``
    compares whole scaled passes, all slowed against none slowed; ``probe``
    compares the probes right after a slowed request with those right after
    its plain copy."""
    from equitrans import cli
    reqs = short("scenarios-exact")[:8]
    argvs = run.materialize(reqs, str(tmp_path))
    pairs = [r for r in reqs for _ in (0, 1)]
    pair_argvs = [a for a in argvs for _ in (0, 1)]
    run.run_pass(cli, reqs, argvs)
    raw, probe, base, slow = [], [], [], []
    for _ in range(rounds):
        mixed = run.run_pass(_SlowerCli(cli, every=2), pairs, pair_argvs)
        raw.append(sum(mixed.wall[1::2]) / sum(mixed.wall[0::2]))
        # probes[i] run right after request i - 1; odd requests are slowed
        after = [statistics.median(x for ps in mixed.probes[k::2] for x in ps)
                 for k in (2, 1)]
        probe.append(after[0] / after[1])
        base.append(run.run_pass(cli, reqs, argvs).seconds)
        slow.append(run.run_pass(_SlowerCli(cli), reqs, argvs).seconds)
    return (statistics.median(raw),
            statistics.median(slow) / statistics.median(base),
            statistics.median(probe))


def test_scaled_time_follows_an_injected_slowdown(tmp_path):
    """The probe scale is independent of the program: probes right after
    a request that works more and leaves garbage, heap growth and a swept
    cache behind take as long as after its plain copy, so a slower program
    raises the scaled pass time by the ratio it raises wall time.  The
    pass ratios are taken some seconds apart, so they get a wider margin."""
    raw, scaled, probe = slowdown_ratios(tmp_path)
    assert raw > 1.3
    assert probe == pytest.approx(1.0, abs=0.1)
    assert scaled == pytest.approx(raw, rel=0.2)
