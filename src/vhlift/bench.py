"""Metrics and Monte Carlo experiment harnesses.

Two experiment drivers: a phase-transition grid that sweeps two of (n, r, s)
while the third is fixed, counting exact-recovery successes of the convex
program per cell, and an SNR sweep that measures frequency-estimation error
(Hausdorff distance) of several estimators on a shared noisy instance per
trial.

Both drivers run their trials through `_run_tasks`, which alone holds the
determinism contract: trial t of cell c draws its generator from
SeedSequence((base_seed, c, t)), results come back in (cell, trial) order
and land in preallocated arrays before any reduction, and progress lines
are written in that order too.  So outputs are byte-identical regardless
of worker count or scheduling order.

Trials run on a thread pool of at most one thread per core, with BLAS on
one thread.  At these matrix sizes BLAS threading gains nothing, and worker
threads that each wake a BLAS pool of nproc threads oversubscribe the
cores: at 2 workers on 2 cores that made a grid slower than a serial run.
Only speed depends on the thread counts; the outputs are the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .estimate import (
    GRID_STEP,
    check_grid,
    noise_subspace,
    parse_estimator,
    pick_peaks,
    pseudospectrum,
)
from .lift import LiftShape
from .model import (
    add_noise,
    apply_measurement,
    check_distribution,
    check_integer,
    check_orient_law,
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
]


# ---------------------------------------------------------------- metrics

METRICS = ("plain", "wraparound")  # the distances hausdorff_distance takes


def check_metric(metric) -> None:
    if metric not in METRICS:
        raise ValueError("metric must be %s"
                         % " or ".join(map(repr, METRICS)))


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
    check_metric(metric)
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
        self.axis1_values = tuple(check_integer("axis1_values", v)
                                  for v in self.axis1_values)
        self.axis2_values = tuple(check_integer("axis2_values", v)
                                  for v in self.axis2_values)
        self.fixed = {k: check_integer("fixed " + str(k), v)
                      for k, v in self.fixed.items()}
        self.trials = check_integer("trials", self.trials)
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
        if not 0 < self.threshold < np.inf:
            raise ValueError("threshold must be positive and finite, got %r"
                             % (self.threshold,))
        check_distribution(self.distribution)
        check_orient_law(self.orient_law)
        values = {name: (v,) for name, v in self.fixed.items()}
        values.update({self.axis1_name: self.axis1_values,
                       self.axis2_name: self.axis2_values})
        min_separation(max(values["r"]), self.delta)
        s_max, n_min = max(values["s"]), min(values["n"])
        if s_max > n_min:
            raise ValueError("a cell with s=%d > n=%d has no n x s sensing "
                             "matrix; every cell needs n >= s" % (s_max, n_min))


@dataclass
class TrialGrid:
    """Per-trial relative errors for every grid cell, plus the producing
    config; success counts derive from the stored errors."""

    config: PhaseTransitionConfig
    errors: np.ndarray  # (len(axis1), len(axis2), trials)

    @property
    def counts(self) -> np.ndarray:
        return (self.errors < self.config.threshold).sum(axis=2)


def _phase_trial(config: PhaseTransitionConfig, params: dict,
                 rng: np.random.Generator) -> float:
    n, r, s = params["n"], params["r"], params["s"]
    # the config is validated, so drawing the instance cannot fail; an
    # error here is a bug and propagates
    model = sample_model(r, s, seed=rng, delta=config.delta,
                         orient_law=config.orient_law)
    B = sample_subspace(config.distribution, n, s, seed=rng)
    X = synthesize_data_matrix(model, n)
    y = apply_measurement(X, B)
    try:
        rep = solve_vhl(y, B, LiftShape.default(n, s), config.solver)
        return relative_error(rep.X_hat, X)
    except (np.linalg.LinAlgError, ArithmeticError):
        # a failed solve is a non-success, never a dead grid; other
        # exceptions, a ValueError included, are bugs and propagate
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


def _run_tasks(base_seed, cells, trials, trial, workers, progress):
    """Run trial(cell, rng) for every trial t of every (cell, label) pair
    in `cells`, on at most `workers` threads and never more than the core
    count, with BLAS on one thread (see the module docstring).  Trial t of
    the c-th cell draws from SeedSequence((base_seed, c, t)).  Results are
    yielded as (c, t, value) and "<label> trial t+1/trials: max(value)"
    goes to `progress`, both in (cell, trial) order, so neither depends on
    scheduling.  Leaving early, on an exception, drops the trials not yet
    started."""
    workers = min(workers, os.cpu_count() or 1)
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(trial, cell, np.random.default_rng(
                           np.random.SeedSequence((base_seed, c, t))))
                       for c, (cell, _) in enumerate(cells)
                       for t in range(trials)]
            for k, fut in enumerate(futures):
                c, t = divmod(k, trials)
                value = fut.result()
                yield c, t, value
                if progress is not None:
                    progress("%s trial %d/%d: %.3e"
                             % (cells[c][1], t + 1, trials, np.max(value)))
        finally:
            pool.shutdown(cancel_futures=True)


def run_phase_transition(config: PhaseTransitionConfig, workers: int = 1,
                         progress=None) -> TrialGrid:
    """Run the success-count grid; per-trial failures count as errors of
    +inf (non-success) and never abort the run."""
    n2 = len(config.axis2_values)
    errors = np.full((len(config.axis1_values), n2, config.trials), np.inf)
    cells = []
    for v1, v2 in itertools.product(config.axis1_values, config.axis2_values):
        params = {**config.fixed, config.axis1_name: v1, config.axis2_name: v2}
        cells.append((params, " ".join("%s=%d" % (k, params[k])
                                       for k in PARAM_NAMES)))
    for c, t, err in _run_tasks(config.base_seed, cells, config.trials,
                                functools.partial(_phase_trial, config),
                                workers, progress):
        errors[c // n2, c % n2, t] = err
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
        for name in ("n", "s", "r", "trials"):
            setattr(self, name, check_integer(name, getattr(self, name)))
        if self.n < 1 or self.s < 1 or self.r < 1 or self.trials < 1:
            raise ValueError("n, s, r, trials must be positive")
        if not self.snr_db or not self.estimators:
            raise ValueError("need at least one SNR level and one estimator")
        check_metric(self.metric)
        check_orient_law(self.orient_law)
        min_separation(self.r, self.delta)
        check_grid(self.grid_step, self.r)
        for est in self.estimators:
            parse_estimator(est, self.n, self.s, self.r)


@dataclass
class SweepResult:
    config: SweepConfig
    errors: np.ndarray  # (len(estimators), len(snr_db), trials)

    @property
    def mean_errors(self) -> np.ndarray:
        return self.errors.mean(axis=2)


def _sweep_trial(config: SweepConfig, snr: float,
                 rng: np.random.Generator) -> np.ndarray:
    model = sample_model(config.r, config.s, seed=rng, delta=config.delta,
                         orient_law=config.orient_law)
    X = synthesize_data_matrix(model, config.n)
    Xn = add_noise(X, snr, seed=rng)
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
    cells = [(snr, "snr=%g" % snr) for snr in config.snr_db]
    for si, t, vals in _run_tasks(config.base_seed, cells, config.trials,
                                  functools.partial(_sweep_trial, config),
                                  workers, progress):
        errors[:, si, t] = vals
    return SweepResult(config=config, errors=errors)
