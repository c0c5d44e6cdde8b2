"""Metrics and Monte Carlo experiment harnesses.

Two experiment drivers: a phase-transition grid that sweeps two of (n, r, s)
while the third is fixed, counting exact-recovery successes of the convex
program per cell, and an SNR sweep that measures frequency-estimation error
(Hausdorff distance) of several estimators on a shared noisy instance per
trial.

Determinism contract: trial t of cell c draws its generator from
SeedSequence((base_seed, c, t)), and per-trial results land in preallocated
arrays indexed by (cell, trial) before any reduction, so outputs are
byte-identical regardless of worker count or scheduling order.  Progress
lines are emitted in task order for the same reason.

Trials run on a thread pool of at most one thread per core, with BLAS on
one thread.  At these matrix sizes BLAS threading gains nothing, and worker
threads that each wake a BLAS pool of nproc threads oversubscribe the
cores: at 2 workers on 2 cores that made a grid slower than a serial run.
Only speed depends on the thread counts; the outputs are the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .estimate import (
    GRID_STEP,
    grid_size,
    noise_subspace,
    parse_estimator,
    pick_peaks,
    pseudospectrum,
)
from .figures import heatmap_svg, sweep_svg
from .lift import LiftShape
from .model import (
    add_noise,
    apply_measurement,
    check_snr,
    min_separation,
    sample_model,
    sample_subspace,
    synthesize_data_matrix,
)
from .solver import SolverConfig, solve_vhl

__all__ = [
    "PhaseTransitionConfig",
    "TrialGrid",
    "SweepConfig",
    "SweepResult",
    "relative_error",
    "hausdorff_distance",
    "run_phase_transition",
    "run_snr_sweep",
    "grid_to_csv",
    "grid_to_svg",
    "sweep_to_csv",
    "sweep_to_svg",
]


# ---------------------------------------------------------------- metrics

def relative_error(X_hat: np.ndarray, X_ref: np.ndarray) -> float:
    """||X_hat - X_ref||_F / ||X_ref||_F, with 0/0 = 0 and x/0 = inf."""
    X_hat = np.asarray(X_hat)
    X_ref = np.asarray(X_ref)
    if X_hat.shape != X_ref.shape:
        raise ValueError("shape mismatch")
    # both sides over max|X_ref|, so that no norm overflows at large scales
    peak = float(np.max(np.abs(X_ref), initial=0.0))
    if peak == 0.0:
        return np.inf if np.any(X_hat) else 0.0
    return float(np.linalg.norm(X_hat / peak - X_ref / peak)
                 / np.linalg.norm(X_ref / peak))


def hausdorff_distance(taus, taus_hat, metric: str = "plain") -> float:
    """Symmetric worst-case nearest-neighbor distance between two
    frequency sets; metric "plain" uses |a - b|, "wraparound" the circular
    distance min(|a - b|, 1 - |a - b|)."""
    if metric not in ("plain", "wraparound"):
        raise ValueError("metric must be 'plain' or 'wraparound'")
    a = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    b = np.atleast_1d(np.asarray(taus_hat, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("frequency sets must be nonempty")
    D = np.abs(a[:, None] - b[None, :])
    if metric == "wraparound":
        D = np.minimum(D, 1.0 - D)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


# ---------------------------------------------------------------- phase grid

PARAM_NAMES = ("n", "r", "s")


@dataclass
class PhaseTransitionConfig:
    """Grid over two of (n, r, s); the remaining parameter sits in fixed."""

    axis1_name: str = "r"
    axis1_values: tuple = (1, 2, 4, 8)
    axis2_name: str = "s"
    axis2_values: tuple = (1, 2, 4, 8)
    fixed: dict = field(default_factory=lambda: {"n": 64})
    trials: int = 20
    threshold: float = 1e-3
    base_seed: int = 0
    distribution: str = "gaussian"
    delta: float | None = None
    orient_law: str = "gaussian"
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        self.axis1_values = tuple(int(v) for v in self.axis1_values)
        self.axis2_values = tuple(int(v) for v in self.axis2_values)
        names = {self.axis1_name, self.axis2_name, *self.fixed}
        if names != set(PARAM_NAMES) or len(self.fixed) != 1 \
                or self.axis1_name == self.axis2_name:
            raise ValueError("axes plus fixed must cover n, r, s exactly once")
        if not self.axis1_values or not self.axis2_values:
            raise ValueError("axis value lists must be nonempty")
        if min(self.axis1_values + self.axis2_values) < 1 \
                or min(self.fixed.values()) < 1:
            raise ValueError("grid parameters must be positive")
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        values = {name: (v,) for name, v in self.fixed.items()}
        values.update({self.axis1_name: self.axis1_values,
                       self.axis2_name: self.axis2_values})
        min_separation(max(values["r"]), self.delta)
        s_max, n_min = max(values["s"]), min(values["n"])
        if s_max > n_min:
            raise ValueError("a cell with s=%d > n=%d has no n x s sensing "
                             "matrix; every cell needs n >= s" % (s_max, n_min))

    def cell_params(self, i: int, j: int) -> dict:
        p = dict(self.fixed)
        p[self.axis1_name] = self.axis1_values[i]
        p[self.axis2_name] = self.axis2_values[j]
        return p


@dataclass
class TrialGrid:
    """Per-trial relative errors for every grid cell, plus the producing
    config; success counts derive from the stored errors."""

    config: PhaseTransitionConfig
    errors: np.ndarray  # (len(axis1), len(axis2), trials)

    @property
    def counts(self) -> np.ndarray:
        return (self.errors < self.config.threshold).sum(axis=2)


def _phase_trial(config: PhaseTransitionConfig, cell: int, params: dict,
                 t: int) -> float:
    rng = np.random.default_rng(
        np.random.SeedSequence((config.base_seed, cell, t)))
    n, r, s = params["n"], params["r"], params["s"]
    try:
        model = sample_model(r, s, seed=rng, delta=config.delta,
                             orient_law=config.orient_law)
        B = sample_subspace(config.distribution, n, s, seed=rng)
        X = synthesize_data_matrix(model, n)
        y = apply_measurement(X, B)
        rep = solve_vhl(y, B, LiftShape.default(n, s), config.solver)
        return relative_error(rep.X_hat, X)
    except (ValueError, ArithmeticError):
        # a failed trial is a non-success, never a dead grid; other
        # exceptions are bugs and propagate
        return np.inf


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheel bundles, or None when there is none (MKL, Accelerate, a source
    build).  OpenBLAS reads OPENBLAS_NUM_THREADS only while numpy is
    imported, so a library can change the count only through these."""
    numpy_dir = os.path.dirname(np.__file__)
    # Linux wheels: site-packages/numpy.libs; macOS wheels: numpy/.dylibs
    for libdir in (numpy_dir + ".libs", os.path.join(numpy_dir, ".dylibs")):
        try:
            names = sorted(f for f in os.listdir(libdir) if "openblas" in f)
        except OSError:
            continue
        for name in names:
            try:
                lib = ctypes.CDLL(os.path.join(libdir, name))
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                get = getattr(lib, prefix + "_get_num_threads64_", None)
                put = getattr(lib, prefix + "_set_num_threads64_", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


# harness calls running in this process, and the BLAS thread count from
# before the first of them; the count is process-wide state
_pin_lock = threading.Lock()
_pin = {"calls": 0, "threads": None}


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the
    count it had before.  The setting is process-wide: while the body runs,
    BLAS calls from other threads of the process run on one thread too.
    Without a bundled OpenBLAS this does nothing."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _pin_lock:
        if _pin["calls"] == 0:
            _pin["threads"] = get()
            put(1)
        _pin["calls"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["calls"] -= 1
            if _pin["calls"] == 0:
                put(_pin["threads"])


def _run_tasks(tasks, runner, workers, progress):
    """Execute (slot, label) tasks on at most `workers` threads, and never
    more than the core count, with BLAS on one thread (see the module
    docstring); results are keyed by slot and consumed in task order, so
    neither the output arrays nor the progress lines depend on scheduling.
    Leaving early, on an exception, drops the tasks not yet started."""
    workers = min(workers, os.cpu_count() or 1)
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [(slot, label, pool.submit(runner, slot))
                       for slot, label in tasks]
            for slot, label, fut in futures:
                value = fut.result()
                yield slot, value
                if progress is not None:
                    progress("%s: %.3e" % (label, np.max(value)))
        finally:
            pool.shutdown(cancel_futures=True)


def run_phase_transition(config: PhaseTransitionConfig, workers: int = 1,
                         progress=None) -> TrialGrid:
    """Run the success-count grid; per-trial failures count as errors of
    +inf (non-success) and never abort the run."""
    n1, n2 = len(config.axis1_values), len(config.axis2_values)
    errors = np.full((n1, n2, config.trials), np.inf)
    tasks = []
    for i in range(n1):
        for j in range(n2):
            cell = i * n2 + j
            params = config.cell_params(i, j)
            label = " ".join("%s=%d" % (k, params[k]) for k in PARAM_NAMES)
            for t in range(config.trials):
                tasks.append(((i, j, t),
                              "%s trial %d/%d" % (label, t + 1, config.trials)))

    def runner(slot):
        i, j, t = slot
        return _phase_trial(config, i * n2 + j, config.cell_params(i, j), t)

    for (i, j, t), err in _run_tasks(tasks, runner, workers, progress):
        errors[i, j, t] = err
    return TrialGrid(config=config, errors=errors)


# ---------------------------------------------------------------- SNR sweep

def estimate_frequencies(X: np.ndarray, r: int, estimator: str,
                         step: float = GRID_STEP) -> np.ndarray:
    """Run one named estimator on a data matrix and return r frequencies."""
    return pick_peaks(pseudospectrum(noise_subspace(X, r, estimator), step),
                      r).taus


@dataclass
class SweepConfig:
    """Estimator comparison across SNR levels on a shared noisy instance
    per trial."""

    n: int = 64
    s: int = 6
    r: int = 4
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    estimators: tuple = ("vhm:1", "vhm:2", "vhm:4", "vhm:6")
    trials: int = 100
    delta: float | None = 1.0 / 64
    orient_law: str = "gaussian"
    metric: str = "plain"
    grid_step: float = GRID_STEP
    base_seed: int = 0

    def __post_init__(self):
        self.snr_db = tuple(check_snr(v) for v in self.snr_db)
        self.estimators = tuple(self.estimators)
        if self.n < 1 or self.s < 1 or self.r < 1 or self.trials < 1:
            raise ValueError("n, s, r, trials must be positive")
        if not self.snr_db or not self.estimators:
            raise ValueError("need at least one SNR level and one estimator")
        if self.metric not in ("plain", "wraparound"):
            raise ValueError("metric must be 'plain' or 'wraparound'")
        min_separation(self.r, self.delta)
        grid_size(self.grid_step)
        for est in self.estimators:
            parse_estimator(est, self.s, self.r)


@dataclass
class SweepResult:
    config: SweepConfig
    errors: np.ndarray  # (len(estimators), len(snr_db), trials)

    @property
    def mean_errors(self) -> np.ndarray:
        return self.errors.mean(axis=2)


def _sweep_trial(config: SweepConfig, si: int, t: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence((config.base_seed, si, t)))
    model = sample_model(config.r, config.s, seed=rng, delta=config.delta,
                         orient_law=config.orient_law)
    X = synthesize_data_matrix(model, config.n)
    Xn = add_noise(X, config.snr_db[si], seed=rng)
    out = np.empty(len(config.estimators))
    for e, est in enumerate(config.estimators):
        taus_hat = estimate_frequencies(Xn, config.r, est, config.grid_step)
        out[e] = hausdorff_distance(model.taus, taus_hat, config.metric)
    return out


def run_snr_sweep(config: SweepConfig, workers: int = 1,
                  progress=None) -> SweepResult:
    """All estimators see the same noisy matrix within a trial, so the
    comparison across estimators is paired."""
    errors = np.full((len(config.estimators), len(config.snr_db),
                      config.trials), np.inf)
    tasks = [((si, t), "snr=%g trial %d/%d" % (snr, t + 1, config.trials))
             for si, snr in enumerate(config.snr_db)
             for t in range(config.trials)]

    def runner(slot):
        return _sweep_trial(config, *slot)

    for (si, t), vals in _run_tasks(tasks, runner, workers, progress):
        errors[:, si, t] = vals
    return SweepResult(config=config, errors=errors)


# ---------------------------------------------------------------- output

def grid_to_csv(grid: TrialGrid, path) -> None:
    cfg = grid.config
    counts = grid.counts
    lines = ["%s,%s,count" % (cfg.axis1_name, cfg.axis2_name)]
    for i, v1 in enumerate(cfg.axis1_values):
        for j, v2 in enumerate(cfg.axis2_values):
            lines.append("%d,%d,%d" % (v1, v2, counts[i, j]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def grid_to_svg(grid: TrialGrid, path) -> None:
    cfg = grid.config
    fixed = ", ".join("%s=%d" % kv for kv in sorted(cfg.fixed.items()))
    title = "successful recoveries out of %d trials (%s)" \
        % (cfg.trials, fixed)
    svg = heatmap_svg(cfg.axis1_name, cfg.axis1_values, cfg.axis2_name,
                      cfg.axis2_values, grid.counts, cfg.trials, title)
    with open(path, "w") as fh:
        fh.write(svg)


def sweep_to_csv(result: SweepResult, path) -> None:
    cfg = result.config
    me = result.mean_errors
    lines = ["snr,estimator,mean_error"]
    for si, snr in enumerate(cfg.snr_db):
        for e, est in enumerate(cfg.estimators):
            lines.append("%g,%s,%r" % (snr, est, float(me[e, si])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sweep_to_svg(result: SweepResult, path) -> None:
    cfg = result.config
    title = "mean frequency error vs SNR (n=%d, s=%d, r=%d, %d trials)" \
        % (cfg.n, cfg.s, cfg.r, cfg.trials)
    svg = sweep_svg(cfg.snr_db, cfg.estimators, result.mean_errors, title)
    with open(path, "w") as fh:
        fh.write(svg)
