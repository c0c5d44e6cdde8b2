"""vhlift benchmark: closed-loop workloads timed from outside the package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen): pipeline, grid, sweep.

--trace 0 prints the end-to-end metrics.  The measuring time is split over
SHARDS fresh processes run one after another, so that how fast one process
happens to be (thread placement, OpenBLAS start-up) is averaged out; each
process imports the package, builds its inputs and warms up, which gives one
setup_s sample.  After each, COLD_PER_SHARD fresh `python -m vhlift.cli
solve` processes on a fixed input give cold_solve_s samples.

--trace 1 runs in one process: untraced passes for half the time, then the
same passes again with spans around every public vhlift function.  It prints
the per-layer metrics of the traced passes and the tracing overhead (traced
minus untraced wall time of the same passes).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The package is imported from src/ of the
checkout; without it the benchmark exits 2 and prints no result.  The
benchmark never sets a BLAS thread variable: it measures the program as a
user runs it.  Spans, result records and scratch files go under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # setup_s starts before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SHARDS = 4              # measuring processes per untraced run
COLD_PER_SHARD = 3      # fresh `vhlift solve` processes after each one
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["pipeline", "grid", "sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny problem sizes, for the smoke test")
    p.add_argument("--shard", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message: str):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "vhlift", "__init__.py")):
        fail("no src/vhlift under %s; run from a source checkout" % ROOT)
    sys.path.insert(0, SRC)
    import vhlift
    if not os.path.abspath(vhlift.__file__).startswith(SRC + os.sep):
        fail("imported vhlift from %s, not from %s" % (vhlift.__file__, SRC))
    return vhlift


def environment() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = "%s %s" % (deps["blas"]["name"], deps["blas"]["version"])
        lapack = "%s %s" % (deps["lapack"]["name"],
                            deps["lapack"]["version"])
    except (KeyError, TypeError, ValueError):
        blas = lapack = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # a checkout that is not itself a git work tree has no commit of its own
    top_is_root = len(out) == 2 and os.path.realpath(out[0]) == \
        os.path.realpath(ROOT)
    env = {"numpy": np.__version__, "blas": blas, "lapack": lapack}
    env.update({v: os.environ.get(v, "unset") for v in BLAS_VARS})
    env.update({"nproc": os.cpu_count(),
                "python": platform.python_version(),
                "commit": out[1] if top_is_root else "unknown"})
    return env


def tail(values):
    """Highest percentile with at least ten samples beyond it; the maximum
    when there are fewer than eleven.  Returns (value, percentile, n)."""
    s = sorted(values)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100 * (n - 10) // n, n
    return s[-1], 100, n


def run_passes(wl, shard, seconds, count=None):
    """Closed loop of passes: stop before a pass would end past `seconds`
    (at least one pass), or after exactly `count` passes."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(shard, len(passes)))
        if count is not None:
            if len(passes) == count:
                return passes
            continue
        wall = passes[-1].wall
        if wall != wall or time.perf_counter() - t0 + wall > seconds:
            return passes


def sub_run(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)


# ---------------------------------------------------------------- untraced

def measure_shard(args, workdir):
    """One measuring process: set up, run passes, report them as JSON."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    wl.warm_up()
    setup_s = time.perf_counter() - _T_START
    passes = run_passes(wl, args.shard, args.seconds)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "passes": [vars(p) for p in passes]}))


def run_shard(args, i):
    """Run measuring process i; return its JSON report."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / SHARDS), "--shard", str(i)]
    if args.tiny:
        cmd.append("--tiny")
    proc = sub_run(cmd)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:  # the process's own reports, if any
        print(line)
    if proc.returncode != 0:
        raise RuntimeError("measuring process %d exited %d: %s"
                           % (i, proc.returncode, proc.stderr))
    return json.loads(lines[-1])


def cold_solve(model, y, d):
    """Wall time of one fresh `python -m vhlift.cli solve` process, and
    whether it ended with exit code 0 or 3 and a readable report."""
    report = os.path.join(d, "report.json")
    if os.path.exists(report):  # never check the previous process's report
        os.remove(report)
    t0 = time.perf_counter()
    proc = sub_run([sys.executable, "-m", "vhlift.cli", "solve",
                    "--model", model, "--y", y, "--out-dir", d])
    seconds = time.perf_counter() - t0
    try:
        with open(report) as fh:
            ok = proc.returncode in (0, 3) and json.load(fh)["iters"] >= 1
    except (OSError, ValueError, KeyError):
        ok = False
    return seconds, ok


def end_to_end(args, workdir):
    from workloads import WORKLOADS, PassResult, make_cold_input
    cold_input = make_cold_input(workdir, args.tiny)
    docs, cold = [], []
    for i in range(SHARDS):
        docs.append(run_shard(args, i))
        # cold solves are spread over the run, like the measuring processes
        cold += [cold_solve(*cold_input) for _ in range(COLD_PER_SHARD)]
    passes = [PassResult(**p) for d in docs for p in d["passes"]]
    setup_s = [d["setup_s"] for d in docs]
    cold_times = [t for t, _ in cold]
    lat = [x for p in passes for x in p.latencies]
    ops = sum(p.ops for p in passes)
    t_val, t_pct, t_n = tail(lat)
    unit = WORKLOADS[args.workload].unit
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        # median over passes, so that one stalled pass does not set it
        "ops_per_s": (statistics.median(p.ops / p.wall for p in passes),
                      "ops/s"),
        "op_s_p50": (statistics.median(lat), "s"),
        "op_s_tail": (t_val, "s"),
        "cold_solve_s": (statistics.median(cold_times), "s"),
        "recovery_rate": (sum(p.recovered for p in passes) / ops,
                          "recovered/ops"),
        "peak_rss_mb": (max(d["peak_rss_mb"] for d in docs), "MB"),
    }
    quality = [q for p in passes for q in p.quality]
    details = {
        "passes": len(passes), "ops": ops, "op_unit": unit,
        "op_s_tail_percentile": t_pct, "latency_samples": t_n,
        "setup_samples_s": setup_s, "cold_solve_samples_s": cold_times,
        "freq_err_mean_cycles":
            sum(quality) / len(quality) if quality else None,
    }
    notes = {"op_s_tail": "p%d of %d samples" % (t_pct, t_n),
             "ops_per_s": "%s/s" % unit}
    attempted = ops + len(cold)
    failed = sum(p.failed for p in passes) + sum(not ok for _, ok in cold)
    return metrics, details, notes, attempted, failed


# ---------------------------------------------------------------- traced

def traced(args, vhlift, workdir):
    """Untraced passes for half the time, then the same passes traced."""
    from tracer import Tracer, summarize
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    wl.warm_up()
    plain = run_passes(wl, 0, args.seconds / 2)
    tracer = Tracer(vhlift)
    tracer.install()
    wl.tracer = tracer
    try:
        cpu0 = time.process_time()
        spanned = run_passes(wl, 0, None, count=len(plain))
        cpu = time.process_time() - cpu0
    finally:
        tracer.restore()
        wl.tracer = None
    wall = sum(p.wall for p in spanned)
    base = sum(p.wall for p in plain)
    metrics = summarize(tracer, wall, wl.workers, cpu, os.cpu_count() or 1)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - base, "s")
    path = os.path.join(OUT, "spans-%s.csv" % args.workload)
    tracer.write_csv(path)
    details = {"passes": len(plain), "untraced_wall_s": base,
               "spans_file": os.path.relpath(path, ROOT)}
    passes = plain + spanned
    return (metrics, details, {}, sum(p.ops for p in passes),
            sum(p.failed for p in passes))


def main(argv=None) -> int:
    args = parse_args(argv)
    vhlift = import_package()
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.shard is not None:
            measure_shard(args, workdir)
            return 0
        env = environment()
        if args.trace:
            out = traced(args, vhlift, workdir)
        else:
            out = end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, details, notes, attempted, failed = out
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "details": details, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + ", ".join("%s=%s" % kv for kv in env.items()))
    print("workload %s seed %d: %s" % (args.workload, args.seed,
                                      ", ".join("%s=%s" % kv
                                                for kv in details.items())))
    print("ops attempted %d, failed %d" % (attempted, failed))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-36s %.6g %s%s" % (name, value, unit,
                                   " (%s)" % note if note else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
