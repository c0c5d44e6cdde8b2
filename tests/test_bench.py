"""Tests for metrics and the Monte Carlo harnesses (small grids only; the
full-scale experiment checks live in the acceptance suite)."""

import itertools
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from vhlift import bench, io
from vhlift.bench import (
    PhaseTransitionConfig,
    SweepConfig,
    estimate_frequencies,
    hausdorff_distance,
    parse_estimator,
    relative_error,
    run_phase_transition,
    run_snr_sweep,
)
from vhlift.lift import LiftShape
from vhlift.model import (
    add_noise,
    apply_measurement,
    sample_model,
    sample_subspace,
    synthesize_data_matrix,
)
from vhlift.solver import SolverConfig, solve_vhl


# ---------------------------------------------------------------- metrics

def test_relative_error_conventions():
    X = np.ones((2, 3), dtype=complex)
    assert relative_error(X, X) == 0.0
    assert relative_error(2 * X, X) == pytest.approx(1.0)
    assert relative_error(np.zeros_like(X), X) == pytest.approx(1.0)
    assert relative_error(np.zeros_like(X), np.zeros_like(X)) == 0.0
    assert relative_error(X, np.zeros_like(X)) == np.inf
    with pytest.raises(ValueError):
        relative_error(np.ones((2, 2)), X)


def test_relative_error_at_extreme_scales():
    for scale in (1e-300, 1e300):
        X = np.full((2, 3), scale, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert relative_error(X * (1 + 1e-9), X) \
                == pytest.approx(1e-9, rel=1e-6)
            assert relative_error(-X, X) == pytest.approx(2.0)
    assert relative_error(np.full(3, np.nan), np.zeros(3)) == np.inf


def test_hausdorff_metrics():
    assert hausdorff_distance([0.1, 0.4], [0.4, 0.1]) == 0.0
    assert hausdorff_distance([0.1], [0.2]) == pytest.approx(0.1)
    assert hausdorff_distance([0.1], [0.2], "wraparound") == pytest.approx(0.1)
    assert hausdorff_distance([0.05, 0.95], [0.05]) == pytest.approx(0.9)
    assert hausdorff_distance([0.05, 0.95], [0.05], "wraparound") \
        == pytest.approx(0.1)
    with pytest.raises(ValueError):
        hausdorff_distance([], [0.1])
    with pytest.raises(ValueError):
        hausdorff_distance([0.1], [0.2], "euclidean")


# ---------------------------------------------------------------- estimators

def order_error(r, rows_n1, n2):
    """The whole model-order message, as a pattern for pytest.raises."""
    return "^%s$" % re.escape(
        "model order must satisfy 0 <= r <= min(rows*n1, n2 - 1), got "
        "r=%d, rows*n1=%d and n2=%d" % (r, rows_n1, n2))


def test_parse_estimator():
    def shape(n, s, n1):
        return LiftShape(n=n, s=s, n1=n1, n2=n + 1 - n1)

    assert parse_estimator("vhm", 32, 6, 4) == shape(32, 6, 16)
    assert parse_estimator("vhm:2", 32, 6, 4) == shape(32, 2, 16)
    assert parse_estimator("vhm:2", 32, 6, 4, n1=5) == shape(32, 2, 5)
    assert parse_estimator("single", 32, 6, 4) == shape(32, 1, 16)
    assert parse_estimator("single", 32, 6, 4) \
        == parse_estimator("vhm:1", 32, 6, 4)
    assert parse_estimator("mmv", 32, 6, 4) == shape(32, 6, 1)
    for bad in ("vhm:0", "vhm:7", "vhm:x", "esprit"):
        with pytest.raises(ValueError):
            parse_estimator(bad, 32, 6, 4)
    # mmv lifts s = 3 rows at n1 = 1, so its rank bound is s
    with pytest.raises(ValueError, match=order_error(4, 3, 32)):
        parse_estimator("mmv", 32, 3, 4)
    for n1 in (1, 7, 0):
        with pytest.raises(ValueError, match="takes no n1"):
            parse_estimator("mmv", 32, 6, 4, n1=n1)
    # n = 16 splits into n1 = 8 and n2 = 9; n1 = 12 leaves n2 = 5
    for est, rows in (("vhm", 2), ("vhm:1", 1), ("single", 1)):
        assert parse_estimator(est, 16, 2, 8).n2 == 9
        with pytest.raises(ValueError, match=order_error(9, rows * 8, 9)):
            parse_estimator(est, 16, 2, 9)
        with pytest.raises(ValueError, match=order_error(5, rows * 12, 5)):
            parse_estimator(est, 16, 2, 5, n1=12)
    with pytest.raises(ValueError, match=order_error(2, 3, 2)):
        parse_estimator("mmv", 2, 3, 2)
    # under a thin split the lift's rank bound rows * n1 sits below n2 - 1
    assert parse_estimator("vhm:2", 64, 3, 4, n1=2) == shape(64, 2, 2)
    with pytest.raises(ValueError, match=order_error(5, 4, 63)):
        parse_estimator("vhm:2", 64, 3, 5, n1=2)
    with pytest.raises(ValueError, match=order_error(4, 3, 62)):
        parse_estimator("single", 64, 3, 4, n1=3)
    with pytest.raises(ValueError, match=order_error(-1, 64, 33)):
        parse_estimator("vhm:2", 64, 3, -1)


def test_estimate_frequencies_noiseless():
    m = sample_model(3, 4, seed=0, delta=1.0 / 32)
    X = synthesize_data_matrix(m, 32)
    for est in ("vhm", "vhm:2", "single", "mmv"):
        taus = estimate_frequencies(X, 3, est)
        assert hausdorff_distance(m.taus, taus, "wraparound") <= 1e-4


# ---------------------------------------------------------------- phase grid

def small_phase_config(**kw):
    base = dict(axis1_name="r", axis1_values=(1, 2), axis2_name="s",
                axis2_values=(1, 2), fixed={"n": 16}, trials=3,
                base_seed=7)
    base.update(kw)
    return PhaseTransitionConfig(**base)


def test_phase_config_validation():
    with pytest.raises(ValueError):
        small_phase_config(fixed={"m": 16})
    with pytest.raises(ValueError):
        small_phase_config(axis2_name="r")
    with pytest.raises(ValueError):
        small_phase_config(trials=0)
    with pytest.raises(ValueError):
        small_phase_config(axis1_values=())
    with pytest.raises(ValueError, match="delta must be a number, got nan"):
        small_phase_config(delta=float("nan"))
    with pytest.raises(ValueError, match="threshold must be .* got inf"):
        small_phase_config(threshold=float("inf"))
    # the largest r of the grid must fit at the separation, on an axis or
    # fixed; the smaller r of the grid would fit
    place = "cannot place 2 frequencies with separation 0.6 on the circle"
    with pytest.raises(ValueError, match=place):
        small_phase_config(delta=0.6)
    with pytest.raises(ValueError, match=place):
        small_phase_config(axis1_name="n", axis1_values=(16,),
                           fixed={"r": 2}, delta=0.6)
    small_phase_config(delta=0.5)
    # every cell needs n >= s, with s or n on an axis or fixed
    with pytest.raises(ValueError, match="a cell with s=2 > n=1 has no"):
        small_phase_config(axis1_name="n", axis1_values=(1, 16),
                           fixed={"r": 1})
    with pytest.raises(ValueError, match="a cell with s=32 > n=16 has no"):
        small_phase_config(axis2_values=(1, 32))
    with pytest.raises(ValueError, match="distribution must be one of"):
        small_phase_config(distribution="uniform")
    with pytest.raises(ValueError, match="orient_law must be 'gaussian'"):
        small_phase_config(orient_law="uniform")
    small_phase_config(distribution="Rademacher", orient_law="bernoulli")


# (id, config builder, message): a count is never truncated; a bool is no
# count
NOT_INTEGERS = [
    ("grid_axis1_float", lambda: small_phase_config(axis1_values=(2.7,)),
     "axis1_values must be an integer, got 2.7"),
    ("grid_axis2_bool", lambda: small_phase_config(axis2_values=(1, True)),
     "axis2_values must be an integer, got True"),
    ("grid_fixed_float", lambda: small_phase_config(fixed={"n": 16.5}),
     "fixed n must be an integer, got 16.5"),
    ("grid_fixed_bool", lambda: small_phase_config(fixed={"n": True}),
     "fixed n must be an integer, got True"),
    ("grid_trials_float", lambda: small_phase_config(trials=1.5),
     "trials must be an integer, got 1.5"),
    ("sweep_n_float", lambda: small_sweep_config(n=16.5),
     "n must be an integer, got 16.5"),
    ("sweep_s_float", lambda: small_sweep_config(s=4.0),
     "s must be an integer, got 4.0"),
    ("sweep_r_bool", lambda: small_sweep_config(r=True),
     "r must be an integer, got True"),
    ("sweep_trials_string", lambda: small_sweep_config(trials="3"),
     "trials must be an integer, got '3'"),
    ("solver_max_iters_float", lambda: SolverConfig(max_iters=2.5),
     "max_iters must be an integer, got 2.5"),
    # a seed is what SeedSequence takes, checked before any trial runs
    ("grid_seed_float", lambda: small_phase_config(base_seed=1.5),
     "base_seed must be an integer, got 1.5"),
    ("grid_seed_negative", lambda: small_phase_config(base_seed=-1),
     "base_seed must be non-negative, got -1"),
    ("sweep_seed_float", lambda: small_sweep_config(base_seed=1.5),
     "base_seed must be an integer, got 1.5"),
    ("sweep_seed_negative", lambda: small_sweep_config(base_seed=-1),
     "base_seed must be non-negative, got -1"),
]


@pytest.mark.parametrize("make,message", [row[1:] for row in NOT_INTEGERS],
                         ids=[row[0] for row in NOT_INTEGERS])
def test_harness_counts_must_be_integers(make, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        make()


def test_harness_counts_take_numpy_integers():
    grid = small_phase_config(axis1_values=(np.int64(1), np.int32(2)),
                              fixed={"n": np.int64(16)}, trials=np.int8(3))
    sweep = small_sweep_config(n=np.int64(32), trials=np.int16(3))
    solver = SolverConfig(max_iters=np.int64(10))
    for value in (*grid.axis1_values, grid.fixed["n"], grid.trials,
                  sweep.n, sweep.trials, solver.max_iters):
        assert type(value) is int


def test_phase_transition_easy_cells_and_determinism(tmp_path):
    cfg = small_phase_config()
    grid = run_phase_transition(cfg)
    assert grid.errors.shape == (2, 2, 3)
    # n=16 with r,s <= 2 sits deep in the success region
    assert grid.counts[0, 0] == 3
    assert np.all(grid.counts >= 0) and np.all(grid.counts <= 3)
    # success never vanishes when the threshold is loosened
    assert np.all((grid.errors < 1e-2).sum(axis=2) >= grid.counts)

    again = run_phase_transition(small_phase_config())
    np.testing.assert_array_equal(grid.errors, again.errors)
    threaded = run_phase_transition(small_phase_config(), workers=4)
    np.testing.assert_array_equal(grid.errors, threaded.errors)

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_grid_csv(p1, grid)
    io.write_grid_csv(p2, threaded)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "r,s,count"
    assert len(p1.read_text().splitlines()) == 1 + 4


def test_phase_transition_failures_counted_not_raised():
    # one-iteration budget cannot converge when s >= 2 leaves per-column
    # freedom; every trial is a clean failure, not an exception
    cfg = small_phase_config(axis2_values=(2, 3),
                             solver=SolverConfig(max_iters=1, tol_rel=1e-12))
    grid = run_phase_transition(cfg)
    assert np.all(np.isfinite(grid.errors))  # solver returned, not crashed
    assert np.all(grid.errors >= 1e-9)


@pytest.mark.parametrize("workers", [1, 2])
def test_phase_transition_linalg_failure_is_a_failed_trial(monkeypatch,
                                                          workers):
    # the one error a solve raises on a validated config ends its trial
    # only: the cell records +inf and the grid finishes
    cfg = small_phase_config(axis1_values=(1,))  # cells s=1 and s=2
    clean = run_phase_transition(cfg).errors
    assert np.all(np.isfinite(clean))
    real = bench.solve_vhl

    def fails_at_s2(y, B, shape, config):
        if shape.s == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(y, B, shape, config)

    monkeypatch.setattr(bench, "solve_vhl", fails_at_s2)
    errors = run_phase_transition(cfg, workers=workers).errors
    assert np.all(errors[0, 1] == np.inf)
    np.testing.assert_array_equal(errors[0, 0], clean[0, 0])


@pytest.mark.parametrize("workers", [1, 2])
def test_phase_transition_bugs_propagate(monkeypatch, workers):
    # only numerical failures count as failed trials; a bug must surface,
    # and the trials queued behind it must not run
    calls = itertools.count()

    def broken(*args, **kwargs):
        # every call but the first is still running when its failure is read
        if next(calls):
            time.sleep(0.1)
        raise TypeError("bug")

    monkeypatch.setattr(bench, "solve_vhl", broken)
    with pytest.raises(TypeError, match="bug"):
        run_phase_transition(small_phase_config(), workers=workers)
    assert next(calls) <= 1 + workers


def test_phase_transition_value_error_propagates(monkeypatch):
    # a ValueError from the trial, such as relative_error's shape mismatch,
    # is a bug, not a trial that failed to recover
    def broken(*args, **kwargs):
        raise ValueError("shape mismatch")

    monkeypatch.setattr(bench, "solve_vhl", broken)
    with pytest.raises(ValueError, match="shape mismatch"):
        run_phase_transition(small_phase_config())


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, with the count set to 2
    for the test, so that a pin to one thread left in place shows."""
    blas = bench._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, put = blas
    before = get()
    put(2)
    yield get
    put(before)


def test_harness_runs_blas_on_one_thread_and_restores(blas_threads,
                                                     monkeypatch):
    seen = []

    def progress(line):
        seen.append(blas_threads())

    run_phase_transition(small_phase_config(trials=1), workers=2,
                         progress=progress)
    assert seen == [1] * 4 and blas_threads() == 2
    run_snr_sweep(small_sweep_config(trials=1), workers=1, progress=progress)
    assert seen == [1] * 7 and blas_threads() == 2

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(bench, "solve_vhl", broken)
    with pytest.raises(TypeError, match="bug"):
        run_phase_transition(small_phase_config(), workers=2)
    assert blas_threads() == 2


def test_concurrent_harness_calls_restore_blas_threads(blas_threads):
    # every call pins while it runs; the count comes back only after the
    # last one ends, whatever the interleaving
    expected = run_snr_sweep(small_sweep_config(trials=1)).errors
    seen, results = [], []

    def call():
        for _ in range(3):
            res = run_snr_sweep(small_sweep_config(trials=1), workers=2,
                                progress=lambda line: seen.append(
                                    blas_threads()))
            results.append(res.errors)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 12 and len(seen) == 12 * 3
    assert set(seen) == {1} and blas_threads() == 2
    for errors in results:
        np.testing.assert_array_equal(errors, expected)


def test_harness_without_openblas(monkeypatch):
    pinned = run_phase_transition(small_phase_config(trials=1),
                                  workers=2).errors
    monkeypatch.setattr(bench, "_openblas_threads", lambda: None)
    unpinned = run_phase_transition(small_phase_config(trials=1),
                                    workers=2).errors
    np.testing.assert_array_equal(pinned, unpinned)


def test_harness_threads_capped_at_core_count(monkeypatch):
    # the pool starts a thread per submitted task up to its size, so the
    # size is capped at the core count, whatever `workers` asks for
    cfg = SweepConfig(n=16, s=2, r=2, snr_db=(20.0,), estimators=("vhm:1",),
                      trials=8, grid_step=1e-2)
    serial = run_snr_sweep(cfg).errors
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    baseline = threading.active_count()
    live = []
    res = run_snr_sweep(cfg, workers=8,
                        progress=lambda line: live.append(
                            threading.active_count()))
    assert len(live) == 8 and max(live) <= baseline + 2
    np.testing.assert_array_equal(res.errors, serial)


def test_phase_transition_progress_lines():
    seen = []
    run_phase_transition(small_phase_config(trials=1), progress=seen.append)
    assert len(seen) == 4
    assert any("n=16" in s for s in seen)


def test_trials_follow_the_seed_contract():
    # trial t of cell c draws from SeedSequence((base_seed, c, t)); a grid
    # cell (i, j) is c = i * len(axis2) + j and an SNR level si is c = si.
    # The hand computation pins BLAS to one thread, as the harness does.
    def rng(cfg, c, t):
        return np.random.default_rng(
            np.random.SeedSequence((cfg.base_seed, c, t)))

    cfg = small_phase_config(trials=2)
    lines = []
    grid = run_phase_transition(cfg, progress=lines.append)
    n = cfg.fixed["n"]
    with bench._one_blas_thread():
        for i, r in enumerate(cfg.axis1_values):
            for j, s in enumerate(cfg.axis2_values):
                for t in range(2):
                    g = rng(cfg, i * len(cfg.axis2_values) + j, t)
                    model = sample_model(r, s, seed=g, delta=cfg.delta,
                                         orient_law=cfg.orient_law)
                    B = sample_subspace(cfg.distribution, n, s, seed=g)
                    X = synthesize_data_matrix(model, n)
                    rep = solve_vhl(apply_measurement(X, B), B,
                                    LiftShape.default(n, s), cfg.solver)
                    assert grid.errors[i, j, t] \
                        == relative_error(rep.X_hat, X), (i, j, t)
    assert lines == ["n=16 r=%d s=%d trial %d/2: %.3e"
                     % (r, s, t + 1, grid.errors[i, j, t])
                     for i, r in enumerate(cfg.axis1_values)
                     for j, s in enumerate(cfg.axis2_values)
                     for t in range(2)]
    assert lines[2] == "n=16 r=1 s=2 trial 1/2: %.3e" % grid.errors[0, 1, 0]

    cfg = small_sweep_config(snr_db=(20.0, 5.0), trials=2)
    lines = []
    res = run_snr_sweep(cfg, progress=lines.append)
    with bench._one_blas_thread():
        for si, snr in enumerate(cfg.snr_db):
            for t in range(2):
                g = rng(cfg, si, t)
                model = sample_model(cfg.r, cfg.s, seed=g, delta=cfg.delta,
                                     orient_law=cfg.orient_law)
                Xn = add_noise(synthesize_data_matrix(model, cfg.n), snr,
                               seed=g)
                expected = [hausdorff_distance(
                    model.taus, estimate_frequencies(Xn, cfg.r, est,
                                                     cfg.grid_step),
                    "wraparound") for est in cfg.estimators]
                np.testing.assert_array_equal(res.errors[:, si, t], expected)
    assert lines == ["snr=%g trial %d/2: %.3e"
                     % (snr, t + 1, np.max(res.errors[:, si, t]))
                     for si, snr in enumerate(cfg.snr_db) for t in range(2)]
    assert lines[1] == "snr=20 trial 2/2: %.3e" % np.max(res.errors[:, 0, 1])


def test_grid_svg_smoke(tmp_path):
    grid = run_phase_transition(small_phase_config())
    path = tmp_path / "grid.svg"
    io.write_grid_svg(path, grid)
    text = path.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert 'viewBox="0 0 800 600"' in text
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")


# ---------------------------------------------------------------- SNR sweep

def small_sweep_config(**kw):
    base = dict(n=32, s=4, r=2, snr_db=(np.inf, 20.0, 0.0),
                estimators=("vhm:1", "vhm:4", "mmv"), trials=3,
                delta=1.0 / 32, grid_step=1e-3, base_seed=3)
    base.update(kw)
    return SweepConfig(**base)


def test_sweep_config_validation():
    # the sweep always measures on the circle; there is no metric to pick
    with pytest.raises(TypeError, match="metric"):
        small_sweep_config(metric="wraparound")
    with pytest.raises(ValueError):
        small_sweep_config(estimators=("mmv",), r=5)
    with pytest.raises(ValueError):
        small_sweep_config(snr_db=())
    with pytest.raises(ValueError):
        small_sweep_config(trials=0)
    for snr in (float("nan"), -np.inf):
        with pytest.raises(ValueError, match="SNR must be a number of dB"):
            small_sweep_config(snr_db=(10.0, snr))
    with pytest.raises(ValueError, match="delta must be a number, got nan"):
        small_sweep_config(delta=float("nan"))
    with pytest.raises(ValueError, match="cannot place 2 frequencies"):
        small_sweep_config(delta=0.6)
    for step in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="grid step must be a positive"):
            small_sweep_config(grid_step=step)
    with pytest.raises(ValueError, match="orient_law must be 'gaussian'"):
        small_sweep_config(orient_law="uniform")
    # r >= n2 is found when the config is built, not inside the first trial
    with pytest.raises(ValueError, match=order_error(9, 16, 9)):
        SweepConfig(n=16, s=2, r=9, estimators=("vhm",), trials=4)
    # and so is a grid with fewer points than peaks to pick
    with pytest.raises(ValueError, match=r"grid_step 1\.0 gives a grid of 1 "
                       r"points, fewer than the r=2 peaks"):
        SweepConfig(n=16, s=2, r=2, estimators=("vhm:1",), grid_step=1.0)
    assert SweepConfig(n=16, s=2, r=2, estimators=("vhm:1",),
                       grid_step=0.5).r == 2


def test_sweep_error_is_measured_on_the_circle():
    # base seed 82 draws a source at tau = 0.9976, within half a grid step
    # of 1, so its estimate is the grid point 0: |tau - tau_hat| is near 1
    # where the distance on the circle is below one step
    cfg = SweepConfig(n=16, s=2, r=2, snr_db=(np.inf,),
                      estimators=("vhm:2",), trials=1, delta=1.0 / 16,
                      grid_step=1e-2, base_seed=82)
    err = run_snr_sweep(cfg).errors[0, 0, 0]
    g = np.random.default_rng(np.random.SeedSequence((82, 0, 0)))
    model = sample_model(2, 2, seed=g, delta=cfg.delta)
    X = add_noise(synthesize_data_matrix(model, 16), np.inf, seed=g)
    with bench._one_blas_thread():
        taus_hat = estimate_frequencies(X, 2, "vhm:2", cfg.grid_step)
    assert np.max(model.taus) > 1 - cfg.grid_step / 2
    assert hausdorff_distance(model.taus, taus_hat) > 0.5
    assert err == hausdorff_distance(model.taus, taus_hat, "wraparound")
    assert err < cfg.grid_step


def test_sweep_runs_and_orders(tmp_path):
    cfg = small_sweep_config()
    res = run_snr_sweep(cfg)
    assert res.errors.shape == (3, 3, 3)
    assert np.all(np.isfinite(res.errors))
    assert np.all((res.errors >= 0.0) & (res.errors <= 0.5))
    # noiseless column: every estimator is grid-exact
    assert np.all(res.mean_errors[:, 0] <= cfg.grid_step + 1e-12)

    again = run_snr_sweep(small_sweep_config())
    np.testing.assert_array_equal(res.errors, again.errors)
    threaded = run_snr_sweep(small_sweep_config(), workers=4)
    np.testing.assert_array_equal(res.errors, threaded.errors)

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_sweep_csv(p1, res)
    io.write_sweep_csv(p2, threaded)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "snr,estimator,mean_error"
    assert len(lines) == 1 + 3 * 3
    assert lines[1].startswith("inf,vhm:1,")

    svg = tmp_path / "sweep.svg"
    io.write_sweep_svg(svg, res)
    text = svg.read_text()
    assert text.startswith("<svg ") and "polyline" in text
