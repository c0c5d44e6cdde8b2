"""The three benchmark workloads and their output checks.

Every workload is a closed loop run by one client: a pass starts only after
the previous one has returned.  Pass j of measuring process i, for workload
seed S, draws its inputs from SeedSequence([S, 0, i, j, ...]); the program
sees only those inputs.  A pass returns its wall time, its ops, how many
failed and how many recovered, and the latency of each user-visible request
in it.

An op fails when a call raises, a CLI command exits with a code other than
the documented 0 and 3, or an output is non-finite or does not parse.  An op
that runs cleanly but does not recover (exit 3, or relative error at or
above the 1e-3 grid threshold) is not a failure; it lowers recovery_rate.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from vhlift import bench, cli, io
from vhlift.bench import hausdorff_distance, relative_error
from vhlift.solver import SolverConfig

RECOVERY_THRESHOLD = 1e-3  # the phase-transition grid's default threshold
# Warm-up runs on one fixed input (the README quick start seed), not on the
# workload seed, so that setup_s measures set-up and not how hard the
# warm-up instance happens to be.
WARM_UP_SEED = 7


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class PassResult:
    wall: float
    ops: int
    failed: int
    recovered: int
    latencies: list
    quality: list = field(default_factory=list)  # frequency errors, cycles


class Workload:
    """Base: subclasses set `name`, `unit` and `workers`, and
    implement `warm_up` and `run_pass`."""

    workers = 0  # harness worker threads; 0 = the main thread does the work

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.tracer = None  # set by the runner for the traced pass

    def timed(self, fn, *args):
        """Run fn(*args) with tracing on (if installed); return (out, s)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.active = False

    def set_op(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.op = op


# ---------------------------------------------------------------- pipeline

class Pipeline(Workload):
    """README quick start in process: `vhlift synth` -> `solve` -> `music
    --svg` through cli.main, one instance at a time on fresh seeds.

    Why: this is how users run the tool.  It drives a mid-size lift (96x33
    at n=64 s=3 r=4) where the solver is about 80% of an op, and it is the
    only workload that exercises io, figures and cli.  Stresses solver and
    lift at s=3; a slower first solve, io or SVG writer shows in op_s_p50.
    A pass is a batch of BATCH instances; each instance is one op.
    """

    name = "pipeline"
    unit = "instances"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.n, self.s, self.r = (16, 2, 2) if tiny else (64, 3, 4)
        self.batch = 2 if tiny else 4
        self.dir = os.path.join(workdir, "pipeline")
        os.makedirs(self.dir, exist_ok=True)

    def _argv(self, seed_int):
        d = self.dir
        return (
            ["synth", "--n", str(self.n), "--s", str(self.s),
             "--r", str(self.r), "--seed", str(seed_int), "--out-dir", d],
            ["solve", "--model", os.path.join(d, "model.json"),
             "--y", os.path.join(d, "y.csv"), "--out-dir", d],
            ["music", "--x", os.path.join(d, "Xhat.csv"),
             "--r", str(self.r), "--svg", "--out-dir", d],
        )

    def _instance(self, seed_int):
        # progress and summary lines are captured, not printed
        codes = []
        sink = _stdio.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self._argv(seed_int):
                code = cli.main(argv)
                codes.append(code)
                if code not in (0, 3):
                    break
        return codes

    def warm_up(self):
        self._instance(WARM_UP_SEED)

    def run_pass(self, shard: int, k: int) -> PassResult:
        latencies, failed, recovered, errs = [], 0, 0, []
        for j in range(self.batch):
            self.set_op(k * self.batch + j)
            try:
                codes, dt = self.timed(self._instance,
                                       derive_seed(self.seed, 0, shard, k, j))
                ok, rec, ferr = check_pipeline(self.dir, codes, self.n,
                                               self.s, self.r)
            except Exception as exc:  # a raising op is a failed op
                print("pipeline op %d/%d raised %r" % (k, j, exc))
                dt, ok, rec, ferr = math.nan, False, False, None
            latencies.append(dt)
            failed += not ok
            recovered += bool(ok and rec)
            if ferr is not None:
                errs.append(ferr)
        return PassResult(sum(x for x in latencies if x == x), self.batch,
                          failed, recovered, latencies, errs)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=np.complex128))))


def _pairs(doc, key, length):
    pairs = doc[key]
    if len(pairs) != length or any(len(p) != 2 for p in pairs):
        raise ValueError("%s has the wrong length" % key)
    return np.array([complex(a, b) for a, b in pairs])


def check_pipeline(d, codes, n, s, r):
    """Parse every file of one quick-start instance (FORMATS.md).

    Returns (ok, recovered, frequency error).  ok is False on a bad exit
    code or a missing, unparsable or non-finite output.
    """
    if len(codes) != 3 or codes[0] != 0 or codes[1] not in (0, 3) \
            or codes[2] != 0:
        print("pipeline exit codes %s" % (codes,))
        return False, False, None
    try:
        with open(os.path.join(d, "model.json")) as fh:
            prob = json.load(fh)
        taus = np.array(prob["taus"], dtype=np.float64)
        B = _pairs(prob, "B", n * s).reshape((n, s), order="F")
        if (prob["n"], prob["s"], prob["r"]) != (n, s, r) or taus.size != r \
                or not (_finite(taus) and _finite(B)) \
                or taus.min() < 0 or taus.max() >= 1:
            raise ValueError("model.json content")
        X = io.read_complex_matrix_csv(os.path.join(d, "X.csv"))
        y = io.read_complex_vector_csv(os.path.join(d, "y.csv"))
        if X.shape != (s, n) or y.shape != (n,) or not (_finite(X)
                                                         and _finite(y)):
            raise ValueError("X.csv or y.csv shape or values")
        with open(os.path.join(d, "report.json")) as fh:
            rep = json.load(fh)
        X_rep = _pairs(rep, "X_hat", s * n).reshape((s, n), order="F")
        Xhat = io.read_complex_matrix_csv(os.path.join(d, "Xhat.csv"))
        if (rep["s"], rep["n"]) != (s, n) or rep["iters"] < 1 \
                or not isinstance(rep["converged"], bool) \
                or rep["converged"] != (codes[1] == 0) \
                or not all(math.isfinite(rep[k]) for k in
                           ("primal_residual", "dual_residual",
                            "nuclear_norm")) \
                or Xhat.shape != (s, n) or not _finite(Xhat) \
                or not np.array_equal(Xhat, X_rep):
            raise ValueError("report.json or Xhat.csv")
        # every iterate is feasible: B[j, :] Xhat[:, j] = y[j]
        resid = np.abs(np.einsum("jl,lj->j", B, Xhat) - y).max()
        if not resid <= 1e-8 * max(1.0, np.abs(y).max()):
            raise ValueError("Xhat violates the measurements by %g" % resid)
        with open(os.path.join(d, "sources.json")) as fh:
            src = json.load(fh)
        taus_hat = np.array(src["taus_hat"], dtype=np.float64)
        if taus_hat.size != r or len(src["amps_hat"]) != r \
                or not _finite(src["amps_hat"]) or min(src["amps_hat"]) < 0 \
                or not _finite(_pairs(src, "orients_hat", s * r)) \
                or not math.isfinite(src["residual"]) \
                or not isinstance(src["padded_peaks"], bool) \
                or taus_hat.min() < 0 or taus_hat.max() >= 1:
            raise ValueError("sources.json content")
        with open(os.path.join(d, "pseudospectrum.csv")) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "tau,f" or len(lines) != 10001:
            raise ValueError("pseudospectrum.csv header or length")
        curve = np.array([[float(x) for x in ln.split(",")]
                          for ln in lines[1:]])
        # f = inf marks an exact blow-up on the grid; NaN never appears
        if np.isnan(curve).any() or not np.isfinite(curve[:, 0]).all() \
                or (curve[:, 1] <= 0).any():
            raise ValueError("pseudospectrum.csv values")
        with open(os.path.join(d, "pseudospectrum.svg")) as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            raise ValueError("pseudospectrum.svg is not an SVG document")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("pipeline output check failed: %s" % (exc,))
        return False, False, None
    recovered = codes[1] == 0 and relative_error(Xhat, X) < RECOVERY_THRESHOLD
    return True, recovered, hausdorff_distance(taus, taus_hat)


# ---------------------------------------------------------------- grid

class Grid(Workload):
    """One in-process phase-transition at --threads 2 per pass: r in {1, 8}
    by s in {4, 8} at n=64, one trial per cell, iteration cap 1000.

    Why: the grid mixes recovering cells (r=1, a few hundred iterations)
    with failing cells (r=8), which run to the iteration cap and take most
    of the wall time.  Iteration count (adaptive rho), tall lifts (s=8 gives
    256x33, where Gram SVT helps most) and BLAS/worker thread contention all
    show here.  The cap is 1000 rather than the default 5000 so that the
    failing cells, which need 3000-5000 iterations, always stop at the cap:
    their work is then the same on every seed and a run of a few passes is
    steady.  --threads 2 equals nproc on the reference box.  It bypasses
    estimate, io, figures and cli: the grid does no estimation.
    One op is one trial; the request a user waits for is one grid call.
    """

    name = "grid"
    unit = "trials"
    workers = 2

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.n = 16 if tiny else 64
        self.r_values = (1, 2) if tiny else (1, 8)
        self.s_values = (1, 2) if tiny else (4, 8)
        self.max_iters = 200 if tiny else 1000

    def config(self, base_seed, max_iters):
        return bench.PhaseTransitionConfig(
            axis1_name="r", axis1_values=self.r_values,
            axis2_name="s", axis2_values=self.s_values,
            fixed={"n": self.n}, trials=1, base_seed=base_seed,
            solver=SolverConfig(max_iters=max_iters))

    def warm_up(self):
        # 100 iterations per cell: enough compute that setup_s is not only
        # the import and thread start-up, which swing most on a shared box
        bench.run_phase_transition(
            self.config(WARM_UP_SEED, 100), workers=self.workers)

    def run_pass(self, shard: int, k: int) -> PassResult:
        self.set_op(k)
        config = self.config(derive_seed(self.seed, 0, shard, k),
                             self.max_iters)
        ops = len(self.r_values) * len(self.s_values) * config.trials
        lines = []
        try:
            grid, dt = self.timed(bench.run_phase_transition, config,
                                  self.workers, lines.append)
        except Exception as exc:
            print("grid pass %d raised %r" % (k, exc))
            return PassResult(math.nan, ops, ops, 0, [math.nan])
        err = np.asarray(grid.errors)
        # a trial that raised inside the harness is recorded as +inf
        bad = ~np.isfinite(err) | (err < 0)
        if err.shape != (len(self.r_values), len(self.s_values),
                         config.trials) or len(lines) != ops:
            print("grid pass %d: bad result shape or progress" % k)
            return PassResult(dt, ops, ops, 0, [dt])
        recovered = int(((err < config.threshold) & ~bad).sum())
        return PassResult(dt, ops, int(bad.sum()), recovered, [dt])


# ---------------------------------------------------------------- sweep

class Sweep(Workload):
    """One in-process snr-sweep at --threads 2 per pass: the default
    estimators vhm:1,2,4,6 at n=64 s=6 r=4, SNR 10, 20 and 30 dB, two trials
    per level, default 1e-4 frequency grid.

    Why: pseudospectrum is about 94% of the time here and no solver runs, so
    a pseudospectrum change (FFT, off-grid refinement) shows here and not on
    grid, and a solver change shows on grid and not here.  Its many short,
    GIL-bound tasks go through the same bench._run_tasks executor as grid's
    long BLAS-bound ones, so an executor change that adds start-up cost per
    task shows here.  It bypasses solver, io, figures and cli.
    One op is one trial x estimator pair; the request is one sweep call.
    An op recovers when its Hausdorff frequency error is below 1e-3 cycles.
    """

    name = "sweep"
    unit = "pairs"
    workers = 2

    def config(self, base_seed):
        if self.tiny:
            return bench.SweepConfig(n=16, s=2, r=2, snr_db=(20.0,),
                                     estimators=("vhm:1", "vhm:2"), trials=1,
                                     delta=1.0 / 16, grid_step=1e-3,
                                     base_seed=base_seed)
        return bench.SweepConfig(n=64, s=6, r=4, snr_db=(10.0, 20.0, 30.0),
                                 trials=2, base_seed=base_seed)

    def warm_up(self):
        bench.run_snr_sweep(self.config(WARM_UP_SEED), workers=self.workers)

    def run_pass(self, shard: int, k: int) -> PassResult:
        self.set_op(k)
        config = self.config(derive_seed(self.seed, 0, shard, k))
        shape = (len(config.estimators), len(config.snr_db), config.trials)
        ops = shape[0] * shape[1] * shape[2]
        lines = []
        try:
            result, dt = self.timed(bench.run_snr_sweep, config,
                                    self.workers, lines.append)
        except Exception as exc:
            print("sweep pass %d raised %r" % (k, exc))
            return PassResult(math.nan, ops, ops, 0, [math.nan])
        err = np.asarray(result.errors)
        if err.shape != shape or len(lines) != shape[1] * shape[2]:
            print("sweep pass %d: bad result shape or progress" % k)
            return PassResult(dt, ops, ops, 0, [dt])
        # plain Hausdorff distance between sets in [0, 1) lies in [0, 1)
        bad = ~np.isfinite(err) | (err < 0) | (err >= 1)
        recovered = int(((err < RECOVERY_THRESHOLD) & ~bad).sum())
        return PassResult(dt, ops, int(bad.sum()), recovered, [dt],
                          err[~bad].tolist())


WORKLOADS = {w.name: w for w in (Pipeline, Grid, Sweep)}


def make_cold_input(workdir: str, tiny: bool) -> tuple[str, str, str]:
    """Fixed solve input for the cold-process measurement: the README quick
    start instance (seed 7), the same on every run."""
    d = os.path.join(workdir, "cold")
    os.makedirs(d, exist_ok=True)
    n, s, r = (16, 2, 2) if tiny else (64, 3, 4)
    with contextlib.redirect_stdout(_stdio.StringIO()):
        code = cli.main(["synth", "--n", str(n), "--s", str(s), "--r", str(r),
                         "--seed", "7", "--out-dir", d])
    if code != 0:
        raise RuntimeError("synth for the cold-solve input exited %d" % code)
    return os.path.join(d, "model.json"), os.path.join(d, "y.csv"), d

