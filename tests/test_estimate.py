"""Tests for noise subspaces, pseudospectrum evaluation, peak picking, and
least-squares source recovery."""

import json
import warnings

import numpy as np
import pytest

from vhlift import io
from vhlift.estimate import (
    PseudospectrumCurve,
    grid_size,
    lift_spectrum,
    noise_subspace,
    parse_estimator,
    pick_peaks,
    pseudospectrum,
    recover_amplitudes,
)
from vhlift.lift import LiftShape, stacked_hankel, vec_hankel
from vhlift.model import (
    PointSourceModel,
    add_noise,
    sample_model,
    sample_subspace,
    steering_matrix,
    synthesize_data_matrix,
)

GRID_STEP = 1e-4


def uniform_grid(count):
    return np.arange(count) * (1.0 / count)


def wrap_dist(a, b):
    d = abs(a - b)
    return min(d, 1.0 - d)


# ---------------------------------------------------------------- subspaces

def test_vhm_subspace_annihilates_true_frequencies():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(16, 64))
        s = int(rng.integers(1, 5))
        shape = LiftShape.default(n, s)
        r = int(rng.integers(1, min(5, shape.n2 - 1)))
        m = sample_model(r, s, seed=rng)
        X = synthesize_data_matrix(m, n)
        u_perp = noise_subspace(X, r, "vhm")
        assert u_perp.shape == (shape.n2, shape.n2 - r)
        ortho = u_perp.conj().T @ u_perp
        assert np.max(np.abs(ortho - np.eye(shape.n2 - r))) < 1e-10
        for tau in m.taus:
            a = steering_matrix([tau], shape.n2)[:, 0]
            assert np.linalg.norm(u_perp.conj().T @ a) < 1e-8
        sv = np.linalg.svd(vec_hankel(X, shape).T, compute_uv=False)
        assert sv[r] / sv[0] < 1e-8


def test_vhm_subspace_validation():
    shape = LiftShape.default(16, 2)
    with pytest.raises(ValueError):
        noise_subspace(np.zeros((2, 16)), 1, "vhm")
    X = np.ones((2, 16))
    with pytest.raises(ValueError):
        noise_subspace(X, shape.n2, "vhm")
    for n1 in (5.5, 8.0):
        with pytest.raises(ValueError,
                           match="^n1 must be an integer, got %r$" % n1):
            noise_subspace(X, 1, "vhm", n1=n1)
    # a subnormal or a near-overflow peak is no zero matrix, and a
    # power-of-two multiple of X has X's subspace, to the byte
    want = noise_subspace(X, 1, "vhm")
    for tiny_or_huge in (5e-324, 2.0 ** 1023):
        assert np.array_equal(noise_subspace(tiny_or_huge * X, 1, "vhm"),
                              want)


def test_single_row_matches_vhm_at_s1():
    m = sample_model(2, 1, seed=3)
    X = synthesize_data_matrix(m, 24)
    a = noise_subspace(X[0], 2, "single")
    b = noise_subspace(X, 2, "vhm")
    np.testing.assert_allclose(np.abs(a.conj().T @ b),
                               np.eye(a.shape[1]), atol=1e-10)
    with pytest.raises(ValueError):
        noise_subspace(np.zeros(24), 1, "single")


def test_single_row_peak_location():
    x = 2.0 * steering_matrix([0.3], 32)[:, 0]
    curve = pseudospectrum(noise_subspace(x, 1, "single"))
    peak = pick_peaks(curve, 1)
    assert not peak.padded
    assert wrap_dist(peak.taus[0], 0.3) <= GRID_STEP


def test_mmv_subspace():
    m = sample_model(3, 4, seed=5, delta=1.0 / 32)
    X = synthesize_data_matrix(m, 32)
    u_perp = noise_subspace(X, 3, "mmv")
    assert u_perp.shape == (32, 29)
    sv = np.linalg.svd(X.T, compute_uv=False)
    assert sv[3] / sv[0] < 1e-8
    peaks = pick_peaks(pseudospectrum(u_perp), 3)
    for tau in m.taus:
        assert min(wrap_dist(tau, t) for t in peaks.taus) <= GRID_STEP
    with pytest.raises(ValueError):
        noise_subspace(X, 5, "mmv")  # more sources than rows


def test_special_cases_are_lifts():
    # n1 = 1 is classical MMV MUSIC, the eigenvectors of the sample
    # covariance X^T conj(X) in descending order; "single" is the lift of
    # a 1 x n matrix
    rng = np.random.default_rng(18)
    X = rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24))
    assert np.array_equal(noise_subspace(X, 3, "mmv"),
                          np.linalg.eigh(X.T @ X.conj())[1][:, ::-1][:, 3:])
    row = X[1:2]
    assert np.array_equal(noise_subspace(row, 3, "single"),
                          noise_subspace(row, 3, "vhm:1"))


def test_noise_subspace_matches_svd_projector():
    # oracle: the full left singular vectors of the transposed lift
    n, s, r = 64, 6, 4
    lifts = {"vhm:6": lambda X: vec_hankel(X, LiftShape.default(n, s)),
             "single": lambda X: vec_hankel(X[:1], LiftShape.default(n, 1)),
             "mmv": lambda X: vec_hankel(X, LiftShape.default(n, s, 1))}
    for trial in range(5):
        rng = np.random.default_rng(3000 + trial)
        X = synthesize_data_matrix(sample_model(r, s, seed=rng,
                                                delta=1.0 / n), n)
        for data in (X, add_noise(X, 10.0, seed=rng)):
            for est, lift in lifts.items():
                u_perp = noise_subspace(data, r, est)
                k = u_perp.shape[1]
                np.testing.assert_allclose(u_perp.conj().T @ u_perp,
                                           np.eye(k), rtol=0, atol=1e-10)
                U = np.linalg.svd(lift(data).T)[0][:, r:]
                assert U.shape == u_perp.shape, est
                P = u_perp @ u_perp.conj().T
                np.testing.assert_allclose(P, U @ U.conj().T, rtol=0,
                                           atol=1e-10, err_msg=est)
                # the Gram of the data would overflow or underflow here
                for factor in (1e160, 1e-160, 1e300, 1e-300):
                    V = noise_subspace(factor * data, r, est)
                    np.testing.assert_allclose(V @ V.conj().T, P, rtol=0,
                                               atol=1e-12, err_msg=est)
                for factor in (2.0 ** 500, 2.0 ** -500):
                    assert np.array_equal(
                        noise_subspace(factor * data, r, est), u_perp), est
                # the noise subspace is a slice of the one lift spectrum
                sigma, V = lift_spectrum(data,
                                         parse_estimator(est, n, s, r))
                assert V[:, r:].tobytes() == u_perp.tobytes(), est
                assert sigma.shape == (V.shape[0],) and sigma[0] == 1.0
                assert np.all(np.diff(sigma) <= 0.0), est
                # the Gram route squares the values, so its floor is about
                # sqrt(eps) * sigma_1: relative accuracy holds only above it
                sv = np.linalg.svd(lift(data), compute_uv=False)
                sv = np.pad(sv / sv[0], (0, sigma.size - sv.size))
                big = sv >= 1e-2
                np.testing.assert_allclose(sigma[big], sv[big], rtol=1e-10,
                                           atol=0, err_msg=est)
                np.testing.assert_allclose(sigma, sv, rtol=0, atol=1e-7,
                                           err_msg=est)
    # finite and silent at the ends of the double range
    unit = X / np.abs(X).max()
    for data in (np.ones((s, n)), unit):
        for scale in (2.0 ** 1023, 2.0 ** -1023, 5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sigma, V = lift_spectrum(scale * data,
                                         LiftShape.default(n, s))
            assert np.isfinite(sigma).all() and np.isfinite(V).all()
            assert sigma[0] == 1.0


# ---------------------------------------------------------------- curve

def test_default_grid():
    g = pseudospectrum(np.eye(3)).grid
    assert g.shape == (10000,)
    assert g[0] == 0.0 and g[-1] < 1.0
    assert abs(g[1] - 1e-4) < 1e-18
    assert pseudospectrum(np.eye(3), 1e-2).grid.shape == (100,)
    assert grid_size(1.5) == 1
    for bad in (0.0, -1e-4, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be a positive number"):
            grid_size(bad)
    with pytest.raises(ValueError, match="too large"):
        grid_size(3.0)


def test_pseudospectrum_blow_up_and_constant():
    # frequencies on the 1e-2 grid, so the curve is evaluated exactly there
    drawn = sample_model(2, 2, seed=8)
    on_grid = np.array([20, 55])
    m = PointSourceModel(taus=uniform_grid(100)[on_grid], amps=drawn.amps,
                         orients=drawn.orients)
    X = synthesize_data_matrix(m, 48)
    curve = pseudospectrum(noise_subspace(X, 2, "vhm"), 1e-2)
    assert np.all(curve.values[on_grid] >= 1e12)

    flat = pseudospectrum(np.eye(7), 1e-2)
    np.testing.assert_allclose(flat.values, 1.0 / 7.0, rtol=1e-12)


def steering_power(u_perp, step):
    """Oracle for the denominator: ||U_perp^* a_tau||^2 from the explicit
    m x N steering matrix on the grid tau = k / N."""
    count = grid_size(step)
    A = steering_matrix(np.arange(count) / count, u_perp.shape[0])
    return np.sum(np.abs(u_perp.conj().T @ A) ** 2, axis=0)


def test_pseudospectrum_matches_steering_oracle():
    rng = np.random.default_rng(21)
    Z = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    u_perp = np.linalg.qr(Z)[0][:, 4:]
    # step 0.05 gives 20 points, fewer than m = 33: the diagonals fold; the
    # real inverse FFT takes odd and even counts, down to 1, 2 and 3 points
    for step in (1e-3, 0.05, 1.0, 0.5, 1.0 / 3.0, 1.0 / 999.0):
        curve = pseudospectrum(u_perp, step)
        power = steering_power(u_perp, step)
        assert np.all(power >= 1e-8)  # no exact peak: compare everywhere
        np.testing.assert_allclose(1.0 / curve.values, power,
                                   rtol=1e-9, atol=0)


def test_pseudospectrum_positive_at_exact_peaks():
    # frequencies on the 1e-4 grid: g sits at its roundoff floor there and
    # comes out negative for some of these subspaces
    drawn = sample_model(4, 4, seed=37, delta=1.0 / 64)
    m = PointSourceModel(taus=np.round(drawn.taus * 1e4) / 1e4 % 1.0,
                         amps=drawn.amps, orients=drawn.orients)
    X = synthesize_data_matrix(m, 64)
    on_grid = np.round(m.taus * 1e4).astype(int)
    for u_perp in (noise_subspace(X, 4, "vhm"),
                   noise_subspace(X[0], 4, "single"),
                   noise_subspace(X, 4, "mmv")):
        values = pseudospectrum(u_perp, GRID_STEP).values
        assert not np.any(np.isnan(values))
        assert np.all(values > 0.0)
        assert np.all(values[on_grid] >= 1e12)


def assert_peaks_match_oracle(u_perp, r):
    curve = pseudospectrum(u_perp, GRID_STEP)
    with np.errstate(divide="ignore"):
        oracle = PseudospectrumCurve(
            grid=curve.grid, values=1.0 / steering_power(u_perp, GRID_STEP))
    np.testing.assert_array_equal(pick_peaks(curve, r).taus,
                                  pick_peaks(oracle, r).taus)


def test_peaks_match_steering_oracle_on_criterion_10_instances():
    # the instances of acceptance criterion 10
    n, r = 64, 4
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        multi = synthesize_data_matrix(
            sample_model(r, 4, seed=rng, delta=1.0 / n), n)
        single = synthesize_data_matrix(
            sample_model(r, 1, seed=rng, delta=1.0 / n), n)
        for u_perp in (noise_subspace(multi, r, "vhm"),
                       noise_subspace(single[0], r, "single"),
                       noise_subspace(multi, r, "mmv")):
            assert_peaks_match_oracle(u_perp, r)


def test_peaks_match_steering_oracle_on_noisy_sweep_instances():
    # the shapes of the default snr-sweep: n = 64, s = 6, r = 4, vhm:K rows
    n, s, r = 64, 6, 4
    for trial in range(7):
        rng = np.random.default_rng(2000 + trial)
        X = synthesize_data_matrix(
            sample_model(r, s, seed=rng, delta=1.0 / n), n)
        for snr in (10.0, 20.0, 30.0):
            noisy = add_noise(X, snr, seed=rng)
            for rows in (1, 2, 4, 6):
                assert_peaks_match_oracle(
                    noise_subspace(noisy, r, "vhm:%d" % rows), r)


# ---------------------------------------------------------------- peaks

def brute_force_peaks(curve, r):
    """Reference pick: walk the whole grid in (value descending, tau
    ascending) order, strict circular maxima first, then the rest."""
    v, g = curve.values, curve.grid
    size = v.size
    order = sorted(range(size), key=lambda k: (-v[k], g[k]))
    is_max = [v[k] > v[k - 1] and v[k] > v[(k + 1) % size]
              for k in range(size)]
    maxima = [k for k in order if is_max[k]]
    rest = [k for k in order if not is_max[k]]
    chosen = (maxima + rest)[:r]
    return g[chosen], len(maxima) < r


def test_pick_peaks_matches_full_order_reference():
    rng = np.random.default_rng(23)
    for trial in range(200):
        size = int(rng.integers(3, 60))
        # few distinct levels, so values tie within and across maxima
        v = rng.integers(0, 5, size).astype(np.float64)
        curve = PseudospectrumCurve(grid=uniform_grid(size), values=v)
        count = int(np.sum((v > np.roll(v, 1)) & (v > np.roll(v, -1))))
        for r in sorted({1, max(1, count), min(size, count + 1),
                         min(size, count + 3), size}):
            got = pick_peaks(curve, r)
            taus, padded = brute_force_peaks(curve, r)
            np.testing.assert_array_equal(got.taus, taus)
            assert got.padded == padded


def test_pick_peaks_single_and_tie():
    g = uniform_grid(100)
    v = np.ones(100)
    v[37] = 9.0
    got = pick_peaks(type("C", (), {"grid": g, "values": v})(), 1)
    assert got.taus[0] == g[37] and not got.padded

    v = np.ones(100)
    v[20] = 5.0
    v[70] = 5.0
    got = pick_peaks(type("C", (), {"grid": g, "values": v})(), 1)
    assert got.taus[0] == pytest.approx(0.2)


def test_pick_peaks_padding_and_errors():
    g = uniform_grid(10)
    v = np.arange(10.0)
    curve = type("C", (), {"grid": g, "values": v})()
    got = pick_peaks(curve, 3)
    assert got.padded
    np.testing.assert_allclose(got.taus, [0.9, 0.8, 0.7])
    with pytest.raises(ValueError):
        pick_peaks(curve, 0)
    with pytest.raises(ValueError):
        pick_peaks(curve, 11)


def test_pick_peaks_circular_neighborhood():
    g = uniform_grid(10)
    v = np.ones(10)
    v[0] = 4.0  # neighbors are indices 9 and 1
    got = pick_peaks(type("C", (), {"grid": g, "values": v})(), 1)
    assert got.taus[0] == 0.0 and not got.padded


# ---------------------------------------------------------------- recovery

def test_recover_exact_coefficients():
    m = sample_model(4, 3, seed=11)
    X = synthesize_data_matrix(m, 40)
    src = recover_amplitudes(X, m.taus)
    W_true = m.orients * m.amps
    W_hat = src.orients_hat * src.amps_hat
    assert np.linalg.norm(W_hat - W_true) / np.linalg.norm(W_true) < 1e-10
    assert np.all(src.amps_hat >= 0.0)
    np.testing.assert_allclose(np.linalg.norm(src.orients_hat, axis=0), 1.0,
                               atol=1e-12)
    assert src.residual < 1e-9
    assert not src.ill_conditioned
    for factor in (1e160, 1e-160, 1e300, 1e-300):
        scaled = recover_amplitudes(factor * X, m.taus)
        np.testing.assert_allclose(scaled.amps_hat, factor * src.amps_hat,
                                   rtol=1e-12)
        np.testing.assert_allclose(scaled.orients_hat, src.orients_hat,
                                   rtol=0, atol=1e-12)
        assert scaled.residual < 1e-9 * factor


def test_recover_psf_up_to_phase():
    m = sample_model(3, 4, seed=12)
    B = sample_subspace("gaussian", 32, 4, seed=13)
    X = synthesize_data_matrix(m, 32)
    src = recover_amplitudes(X, m.taus)
    for k in range(3):
        g_true = B @ m.orients[:, k]
        g_hat = B @ src.orients_hat[:, k]
        phase = np.vdot(g_hat, g_true)
        phase /= abs(phase)
        assert np.linalg.norm(g_true - phase * g_hat) < 1e-8 * np.linalg.norm(g_true)


def test_recover_flags_and_errors():
    X = synthesize_data_matrix(sample_model(2, 2, seed=14), 64)
    src = recover_amplitudes(X, [0.3, 0.3 + 1e-15])
    assert src.ill_conditioned
    with pytest.raises(ValueError):
        recover_amplitudes(X, [0.3, 0.3])
    with pytest.raises(ValueError):
        recover_amplitudes(np.ones((1, 2)), [0.1, 0.2, 0.3])
    # a zero column of W has amplitude 0 and orientation e_0
    src = recover_amplitudes(np.zeros((3, 64)), [0.1, 0.4])
    np.testing.assert_array_equal(src.amps_hat, [0.0, 0.0])
    e0 = np.zeros((3, 2), dtype=complex)
    e0[0] = 1.0
    np.testing.assert_array_equal(src.orients_hat, e0)


def test_sources_serialization(tmp_path):
    m = sample_model(2, 3, seed=15)
    X = synthesize_data_matrix(m, 24)
    src = recover_amplitudes(X, m.taus)
    io.write_sources(tmp_path / "sources.json", src, "vhm", False)
    doc = json.loads((tmp_path / "sources.json").read_text())
    assert doc["s"] == 3 and doc["r"] == 2
    back = np.array([complex(a, b) for a, b in doc["orients_hat"]])
    np.testing.assert_array_equal(back.reshape((3, 2), order="F"),
                                  src.orients_hat)


# ---------------------------------------------------------------- stacking

def _colspace(M, rank):
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, :rank]


def test_stacked_transpose_spans_same_space():
    rng = np.random.default_rng(16)
    # random full-rank data and synthesized rank-r data
    for trial in range(5):
        sh = LiftShape.default(20, 3)
        X = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
        r = sh.n2
        Qa = _colspace(vec_hankel(X, sh).T, r)
        Qb = _colspace(stacked_hankel(X, sh).T, r)
        cosines = np.linalg.svd(Qa.conj().T @ Qb, compute_uv=False)
        assert np.all(cosines > 1.0 - 1e-8)

    m = sample_model(3, 2, seed=17)
    sh = LiftShape.default(32, 2)
    X = synthesize_data_matrix(m, 32)
    Qa = _colspace(vec_hankel(X, sh).T, 3)
    Qb = _colspace(stacked_hankel(X, sh).T, 3)
    cosines = np.linalg.svd(Qa.conj().T @ Qb, compute_uv=False)
    assert np.all(cosines > 1.0 - 1e-8)


# ---------------------------------------------------------------- pipeline

def test_noiseless_pipeline_three_estimators():
    # reduced version of the estimator-exactness acceptance check
    for seed in range(5):
        n = 48
        m = sample_model(4, 4, seed=seed, delta=1.0 / n)
        X = synthesize_data_matrix(m, n)
        for data, est in ((X, "vhm"), (X[0], "single"), (X, "mmv")):
            u_perp = noise_subspace(data, 4, est)
            peaks = pick_peaks(pseudospectrum(u_perp), 4)
            err = max(min(wrap_dist(t, th) for th in peaks.taus)
                      for t in m.taus)
            assert err <= GRID_STEP, (seed, est)
            for factor in (1e160, 1e-160, 1e300, 1e-300):
                scaled = pick_peaks(pseudospectrum(
                    noise_subspace(factor * data, 4, est)), 4)
                assert np.array_equal(scaled.taus, peaks.taus), (seed, est)
                assert scaled.padded == peaks.padded
