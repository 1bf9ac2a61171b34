"""End-to-end benchmark of the ``equitrans`` command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client in this process calls ``equitrans.cli.main``
on each request of the workload's list in turn, with stdout and stderr
captured, and checks every outcome against its golden report
(``scenarios.py``, ``check.py``).  BLAS threads are pinned to one before
numpy is imported.

Workloads:

- ``suite-all``: the nine acceptance batteries, ``equitrans suite <name>``.
  Shooting (battery 6) and the circle quotient metric (battery 9) dominate.
- ``scenarios-exact``: finite groups in exact mode (Fraction projectors and
  hom bases, Novikov elimination, finite actions); no shooting, no circle.
- ``scenarios-float``: the finite families of scenarios-exact with the same
  seed in float mode, plus circle families (weight reps, stabilization,
  transversality, the shooting oracle, circle quotient metrics).

With ``--trace 0`` the run measures:

- one warm-up pass, then timed passes until ``--seconds`` have passed and
  at least ``MIN_PASSES`` passes are done.  ``pass_s`` is the median time
  of a pass, ``latency_p50_ms`` the median request latency and
  ``latency_tail_ms`` the latency at the workload's tail percentile: the
  highest of ``TAIL_LADDER`` with at least ten samples beyond it in
  ``MIN_PASSES`` passes.  It is fixed per workload, so a faster program
  that fits more passes does not change its meaning.  On suite-all (nine
  requests) it is p70, the third-slowest battery: the oracle and groupoid
  batteries always lie beyond it, so shooting and circle-metric changes
  show there in ``pass_s`` and in the traced ``suites.<battery>.s``;
- ``setup_s``: median wall time of fresh interpreters that import
  ``equitrans.cli`` and build the workload's preset groups and block
  catalogs, what a one-shot ``equitrans`` call pays every time.
  ``SETUP_PER_PASS`` of them run after each timed pass, so the samples
  spread over the run as the host's speed drifts;
- ``peak_rss_mb``: peak resident memory of this process.

The host is shared, and its speed drifts by tens of percent within minutes
(measured: the same pass of scenarios-exact took 3.8 s and 6.9 s a few
minutes apart on one 2-vCPU Xeon guest).  So the pass and request times
are scaled to a nominal host: ``probe()``, a fixed slice of interpreter,
Fraction and small-numpy work that does not touch ``equitrans``, runs
between requests, and each request's wall time is multiplied by
``PROBE_NOMINAL_S / median time of the probes just before and after it``.
The speed changes within a second, so the probes next to a request follow
it best (of the windows tried, this one gave the least pass-to-pass
spread of one request's scaled time).  A change to the program does not
move the probes, so it moves the scaled times as it moves wall time (the
self-tests check this with an injected slowdown that also leaves garbage
and a polluted cache behind); the raw wall times are printed and kept in
the details file.  ``setup_s`` stays raw wall time: probes in this process
just before and after a set-up interpreter did not follow its time
(correlation 0.4), and scaled samples spread more than raw ones.

``fail_share`` (failed / attempted requests) is the ``failed`` and
``attempted`` pair of the result line.  With ``--trace 1`` the timed passes
are split: untraced passes for the first half of ``--seconds``, then
traced passes (``tracing.py``), which give the per-layer metrics, in raw
wall seconds, and ``trace.overhead_ratio``.  Details, including the spans
of the first traced pass, go to ``.perfbench_out/`` in the checkout.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 4
TAIL_LADDER = (99, 95, 90, 80, 75, 70, 50)
SETUP_PER_PASS = 2
PASS_PROBES = 120
PROBE_NOMINAL_S = 0.7e-3  # median probe() on the host the bounds were set on, unloaded

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = {
    "spectral": ("kernel_dim_oracle", "fredholm_index"),
    "groupoids": ("quotient_metric", "quotient_groupoid"),
    "reps": ("all_projectors", "hom_G_basis", "endo_type", "random_rep"),
    "linalg": ("rank", "nullspace", "independent_columns"),
    "floer": ("build_differential", "check_d_squared", "cohomology_rank",
              "autonomous_reduce"),
    "transversality": ("construct_equivariant_perturbation",),
    "bundles": ("decompose_bundle", "extend_nonvanishing_section",
                "stabilize_cokernel"),
}
CALL_COUNTED = ("reps", "linalg")
BATTERIES = ("projectors", "endotype", "codimension", "condition",
             "spectral-flow", "oracle", "perturbation", "floer", "groupoid")
SUBCOMMANDS = (
    "reps.decompose", "reps.endotype", "bundle.decompose", "bundle.extend",
    "bundle.stabilize", "transversality.check", "transversality.perturb",
    "flow.index", "flow.oracle", "floer.d2", "floer.reduce", "floer.ranks",
    "groupoid.quotient", "groupoid.check", "metric.quotient", "suite",
)


def per_layer_units() -> dict:
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    out = {}
    for layer in ("spectral", "groupoids", "reps", "linalg", "floer",
                  "transversality", "bundles"):
        out[f"{layer}.self_s"] = "s"
        if layer in CALL_COUNTED:
            out[f"{layer}.calls"] = "count"
        for fn in LAYER_FUNCTIONS[layer]:
            out[f"{layer}.{fn}.s"] = "s"
        if layer == "spectral":
            out["spectral.kernel_dim_oracle.calls"] = "count"
            out["spectral.path_evals"] = "count"
        elif layer == "groupoids":
            out["groupoids.action_evals"] = "count"
        elif layer == "linalg":
            out["linalg.min_singular_value.calls"] = "count"
        elif layer == "transversality":
            out["transversality.sv_probes"] = "count"
            out["transversality.sv_success_ratio"] = "ratio"
    out["suites.self_s"] = "s"
    for battery in BATTERIES:
        out[f"suites.{battery}.s"] = "s"
    out["cli.self_s"] = "s"
    out["cli.load_s"] = "s"
    out["cli.emit_s"] = "s"
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.p50_ms"] = "ms"
    out["cli.report_byte_mismatch"] = "count"
    out["trace.overhead_ratio"] = "ratio"
    return out


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def tail_percentile(n_requests: int) -> int:
    for p in TAIL_LADDER:
        if n_requests * MIN_PASSES * (100 - p) / 100 >= 10:
            return p
    return TAIL_LADDER[-1]


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def materialize(requests, directory):
    """Write each scenario file and return the final argv per request."""
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for i, req in enumerate(requests):
        argv = list(req.argv)
        if req.scenario is not None:
            path = os.path.join(directory, f"{i:03d}-{req.family}.json")
            with open(path, "w") as fh:
                fh.write(req.scenario if isinstance(req.scenario, str)
                         else json.dumps(req.scenario))
            argv = [path if a == "{scenario}" else a for a in argv]
        argvs.append(argv)
    with open(os.path.join(directory, "expected.json"), "w") as fh:
        json.dump([{"family": r.family, "argv": a, "expect": r.expect}
                   for r, a in zip(requests, argvs)], fh, indent=1)
    return argvs


def execute(cli, argv):
    """One request: (exit code, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


_PROBE_MATRIX = numpy.eye(3) + 0.1


def probe() -> float:
    """Seconds for a fixed slice of interpreter, Fraction and small-numpy
    work that does not touch ``equitrans``.  Its time follows the speed the
    shared host gives this process at the moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    f = Fraction(1, 3)
    for i in range(60):
        f = f * Fraction(i + 1, i + 2) + 1
    for _ in range(20):
        numpy.linalg.svd(_PROBE_MATRIX, compute_uv=False)
    return perf_counter() - t0


def host_factor(probes) -> float:
    """Scale from wall time on the host as it is now to the nominal host:
    the median probe took 1 / factor times its nominal time.  The median
    ignores probes the host descheduled outright."""
    return PROBE_NOMINAL_S / statistics.median(probes)


class Pass:
    """One pass over the request list.  ``probes[i]`` are the probes run
    just before request i and ``probes[-1]`` those after the last one; each
    request's wall time is scaled by the probes just before and after it."""

    def __init__(self, wall, probes, outputs, failures):
        self.wall = wall
        self.probes = probes
        self.latencies = [t * host_factor(probes[i] + probes[i + 1])
                          for i, t in enumerate(wall)]
        self.factor = sum(self.latencies) / sum(wall)
        self.seconds = sum(self.latencies)
        self.outputs = outputs
        self.failures = failures


def run_pass(cli, requests, argvs, tracer=None):
    from check import mismatches
    # keep the benchmark's own objects out of the program's collections
    gc.collect()
    gc.freeze()
    wall, probes, outputs, failures = [], [], [], []
    per_request = -(-PASS_PROBES // len(requests))
    for i, (req, argv) in enumerate(zip(requests, argvs)):
        probes.append([probe() for _ in range(per_request)])
        if tracer is not None:
            tracer.request = i
        code, out, err, elapsed = execute(cli, argv)
        wall.append(elapsed)
        outputs.append((code, out, err))
        bad = mismatches(req.expect, code, out, err)
        if bad:
            failures.append((i, req.family, bad[:3]))
    probes.append([probe() for _ in range(per_request)])
    return Pass(wall, probes, outputs, failures)


def setup_command(groups, orders):
    """Command line of a fresh interpreter paying the one-shot set-up."""
    code = (
        "import equitrans.cli\n"
        "from equitrans import reps\n"
        f"for name in {sorted(groups)!r}:\n"
        "    reps._block_catalog(reps.preset_group(name))\n"
        f"for order in {sorted(orders)!r}:\n"
        "    reps.CircleGroupModel(order).irreps\n"
    )
    return [sys.executable, "-c", code]


def time_setup(argv) -> float:
    """Wall seconds of one set-up interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    # wait() without a timeout blocks in waitpid; with one it polls and
    # rounds the time up to steps of 50 ms
    with subprocess.Popen(argv, cwd=ROOT, env=env) as proc:
        status = proc.wait()
    wall = perf_counter() - t0
    if status:
        raise subprocess.CalledProcessError(status, argv)
    return wall


def workload_groups(name, requests):
    from equitrans import suites
    groups, orders = set(), set()
    if name == "suite-all":
        groups.update(suites.PROJECTOR_GROUPS)
    for req in requests:
        sc = req.scenario if isinstance(req.scenario, dict) else {}
        for spec in (sc.get("group"), (sc.get("group_action") or {}).get("group"),
                     ((sc.get("groupoid") or {}).get("translation") or {}).get("group"),
                     (sc.get("metric_action") or {}).get("group")):
            if spec and "preset" in spec:
                groups.add(spec["preset"])
            if spec and "circle" in spec:
                orders.add(spec["circle"]["quadrature_order"])
    return groups, orders


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def timed_passes(cli, requests, argvs, seconds, min_passes, setup_argv=None):
    """Timed passes until ``seconds`` have passed and ``min_passes`` are
    done, each followed by ``SETUP_PER_PASS`` set-up runs when
    ``setup_argv`` is given.  Returns the passes and set-up samples."""
    passes, setup, t0 = [], [], perf_counter()
    while len(passes) < min_passes or perf_counter() - t0 < seconds:
        passes.append(run_pass(cli, requests, argvs))
        if setup_argv is not None:
            setup += [time_setup(setup_argv) for _ in range(SETUP_PER_PASS)]
    return passes, setup


def layer_metrics(summaries, traced, untraced, requests, mismatch):
    """Per-layer metrics: times are medians over traced passes, counts come
    from the first traced pass (they repeat exactly)."""
    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    first = summaries[0]
    out = {}
    for name in per_layer_units():
        parts = name.split(".")
        if name.endswith(".self_s"):
            value = med(lambda s: s["self_s"].get(parts[0], 0.0))
        elif name.endswith(".calls") and len(parts) == 2:
            value = first["calls"].get(parts[0], 0)
        elif name == "linalg.min_singular_value.calls":
            value = first["counts"].get(name, 0)
        elif name.endswith(".calls"):
            value = first["n_calls"].get(".".join(parts[:2]), 0)
        elif parts[0] == "suites" and name.endswith(".s"):
            value = med(lambda s: s["incl_s"].get(f"suites.battery.{parts[1]}", 0.0))
        elif name in ("cli.load_s", "cli.emit_s"):
            fn = {"cli.load_s": "cli.load_scenario", "cli.emit_s": "cli.emit"}[name]
            value = med(lambda s: s["incl_s"].get(fn, 0.0))
        elif name.endswith(".p50_ms"):
            sub = name[len("cli."):-len(".p50_ms")]
            lat = [t for p in traced for req, t in zip(requests, p.wall)
                   if req.command == sub or (sub == "suite" and req.argv[0] == "suite")]
            value = 1000 * statistics.median(lat) if lat else 0.0
        elif name.endswith(".s"):
            value = med(lambda s: s["incl_s"].get(name[:-2], 0.0))
        elif name == "transversality.sv_success_ratio":
            probes = first["counts"].get("transversality.sv_probes", 0)
            value = (first["counts"].get("transversality.sv_success", 0) / probes
                     if probes else 0.0)
        elif name == "cli.report_byte_mismatch":
            value = mismatch
        elif name == "trace.overhead_ratio":
            value = (statistics.median(p.seconds for p in traced)
                     / statistics.median(p.seconds for p in untraced))
        else:
            value = first["counts"].get(name, 0)
        out[name] = value
    return out


def self_time_table(summaries):
    from tracing import LAYERS
    totals = {layer: statistics.median(s["self_s"].get(layer, 0.0) for s in summaries)
              for layer in LAYERS}
    whole = sum(totals.values()) or 1.0
    return {layer: totals[layer] / whole for layer in LAYERS}


def byte_mismatches(reference, passes):
    """Requests whose output bytes differ between two passes of the same code."""
    return sum(
        any(p.outputs[i] != reference.outputs[i] for p in passes)
        for i in range(len(reference.outputs))
    )


def run(workload, seed, seconds, trace, out_dir=OUT, min_passes=MIN_PASSES,
        requests=None, setup_runs=True, log=sys.stdout):
    from equitrans import cli

    import scenarios
    import tracing

    if requests is None:
        requests = scenarios.WORKLOADS[workload](seed)
    argvs = materialize(requests, os.path.join(out_dir, f"{workload}-{seed}"))
    info = machine_info()
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": info, "requests": len(requests)}
    print(f"# machine {json.dumps(info, sort_keys=True)}", file=log)

    setup_argv = None
    if setup_runs and not trace:
        setup_argv = setup_command(*workload_groups(workload, requests))
        time_setup(setup_argv)  # the first run also writes the bytecode caches

    warm = run_pass(cli, requests, argvs)
    untraced_seconds = seconds / 2 if trace else seconds
    passes, setup = timed_passes(cli, requests, argvs, untraced_seconds,
                                 1 if trace else min_passes, setup_argv)
    detail["setup_samples"] = setup
    traced, summaries, starts = [], [], []
    if trace:
        tracer = tracing.Tracer()
        t0 = perf_counter()
        with tracer:
            while not traced or perf_counter() - t0 < seconds - untraced_seconds:
                start, counts = tracer.mark()
                starts.append(start)
                traced.append(run_pass(cli, requests, argvs, tracer))
                summaries.append(tracer.pass_summary(start, counts))
    measured = passes + traced
    attempted = len(requests) * len(measured)
    failures = [f for p in measured for f in p.failures]
    for i, family, bad in failures[:10]:
        print(f"# FAIL request {i} ({family}): {'; '.join(bad)}", file=log)
    mismatch = byte_mismatches(warm, measured)

    if trace:
        metrics = layer_metrics(summaries, traced, passes, requests, mismatch)
        units = per_layer_units()
        shares = self_time_table(summaries)
        detail["self_time_share"] = shares
        print("# self-time share by layer: " + "  ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()), file=log)
        detail["counts_repeat"] = all(s["counts"] == summaries[0]["counts"]
                                      and s["n_calls"] == summaries[0]["n_calls"]
                                      for s in summaries)
        # the first traced pass
        detail["spans"] = tracer.spans[:starts[1] if len(starts) > 1 else None]
    else:
        lat = [t for p in passes for t in p.latencies]
        p_tail = tail_percentile(len(requests))
        metrics = {
            "pass_s": statistics.median(p.seconds for p in passes),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * float(numpy.percentile(lat, p_tail)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if setup:
            metrics = {"setup_s": statistics.median(setup), **metrics}
        units = END_TO_END
        detail["tail_percentile"] = p_tail
        n_beyond = sum(t > metrics["latency_tail_ms"] / 1000 for t in lat)
        print(f"# {workload}: {len(passes)} passes of {len(requests)} requests, "
              f"{len(lat)} latency samples, tail = p{p_tail} "
              f"({n_beyond} samples beyond)", file=log)
        if setup:
            print(f"# setup_s from {len(setup)} interpreters", file=log)
        print(f"# raw wall pass_s = "
              f"{statistics.median(sum(p.wall) for p in passes):.6g} s, host speed "
              f"factor {statistics.median(p.factor for p in passes):.4g}", file=log)
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}", file=log)
    print(f"# fail_share = {len(failures) / attempted:.6g} share "
          f"({len(failures)} of {attempted} requests)", file=log)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail["result"] = result
    detail["pass_seconds"] = [p.seconds for p in measured]
    detail["pass_wall_seconds"] = [sum(p.wall) for p in measured]
    detail["host_speed_factors"] = [p.factor for p in measured]
    detail["probes"] = [p.probes for p in measured]
    detail["wall"] = [p.wall for p in measured]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-{seed}-trace{trace}.json"), "w") as fh:
        json.dump(detail, fh)
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-all", "scenarios-exact", "scenarios-float"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "equitrans", "cli.py")):
        print(f"equitrans sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    result, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
