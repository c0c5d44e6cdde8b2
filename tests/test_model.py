"""Tests for model synthesis, the measurement map, factors, noise, and
serialization."""

import json

import numpy as np
import pytest

from vhlift.lift import LiftShape, vec_hankel
from vhlift.model import (
    PointSourceModel,
    apply_measurement,
    apply_measurement_adjoint,
    build_vandermonde_factors,
    incoherence_diagnostic,
    add_noise,
    noise_sigma,
    load_problem,
    sample_model,
    sample_subspace,
    save_problem,
    steering_matrix,
    synthesize_data_matrix,
    wraparound_gap,
)


# ---------------------------------------------------------------- steering

def steering_vector(tau, m):
    return steering_matrix([tau], m)[:, 0]


def test_steering_frozen_values():
    np.testing.assert_allclose(steering_vector(0.0, 4), np.ones(4), atol=1e-15)
    np.testing.assert_allclose(steering_vector(0.5, 4), [1, -1, 1, -1], atol=1e-14)
    np.testing.assert_allclose(steering_vector(0.25, 4), [1, -1j, -1, 1j], atol=1e-14)
    with pytest.raises(ValueError):
        steering_vector(1.0, 4)
    with pytest.raises(ValueError):
        steering_vector(-0.1, 4)


def test_steering_matrix_columns():
    taus = [0.1, 0.7, 0.25]
    A = steering_matrix(taus, 6)
    for k, t in enumerate(taus):
        np.testing.assert_array_equal(A[:, k], steering_vector(t, 6))


# ---------------------------------------------------------------- model type

def test_model_validation():
    ok = PointSourceModel(taus=[0.1, 0.4], amps=[1.0, 2.0],
                          orients=np.eye(2))
    assert ok.r == 2 and ok.s == 2
    with pytest.raises(ValueError):
        PointSourceModel(taus=[0.1, 0.1], amps=[1, 1], orients=np.eye(2))
    for bad in (1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\)"):
            PointSourceModel(taus=[0.1, bad], amps=[1, 1], orients=np.eye(2))
    with pytest.raises(ValueError):
        PointSourceModel(taus=[0.1, 0.2], amps=[1, 0], orients=np.eye(2))
    with pytest.raises(ValueError):
        PointSourceModel(taus=[0.1, 0.2], amps=[1, 1],
                         orients=np.array([[2.0, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- sampling

def test_sample_model_laws():
    for seed in range(20):
        m = sample_model(5, 4, seed=seed)
        assert np.all(np.abs(m.amps) >= 2.0) and np.all(np.abs(m.amps) <= 11.0)
        np.testing.assert_allclose(np.linalg.norm(m.orients, axis=0), 1.0,
                                   rtol=0, atol=1e-14)
        assert wraparound_gap(m.taus) >= 1e-9


def test_sample_model_separation():
    for seed in range(50):
        m = sample_model(4, 2, seed=seed, delta=1.0 / 64)
        assert wraparound_gap(m.taus) >= 1.0 / 64
    with pytest.raises(ValueError):
        sample_model(3, 2, seed=0, delta=0.4)
    with pytest.raises(ValueError, match="delta must be a number, got nan"):
        sample_model(3, 2, seed=0, delta=np.nan)


def test_sample_model_bernoulli_orientations():
    m = sample_model(4, 3, seed=1, orient_law="bernoulli")
    np.testing.assert_allclose(np.abs(m.orients), 1.0 / np.sqrt(3.0),
                               rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        sample_model(2, 2, seed=0, orient_law="uniform")


def test_sample_subspace_distributions():
    B = sample_subspace("rademacher", 64, 4, seed=0)
    assert B.shape == (64, 4) and B.dtype == np.complex128
    assert np.max(np.abs(B) ** 2) == 1.0
    assert np.min(np.abs(B) ** 2) == 1.0
    assert np.all(B.imag == 0.0)

    Bd = sample_subspace("dftrows", 64, 4, seed=1)
    np.testing.assert_allclose(np.abs(Bd) ** 2, 1.0, rtol=0, atol=1e-14)

    Bg = sample_subspace("gaussian", 64, 4, seed=2)
    assert np.all(Bg.imag == 0.0)

    with pytest.raises(ValueError):
        sample_subspace("uniform", 8, 2, seed=0)
    with pytest.raises(ValueError):
        sample_subspace("gaussian", 2, 3, seed=0)


def test_subspace_isotropy_monte_carlo():
    # empirical E[b b*] over 1e4 rows vs identity, all three laws
    for dist in ("gaussian", "rademacher", "dftrows"):
        B = sample_subspace(dist, 10000, 3, seed=7)
        C = B.conj().T @ B / B.shape[0]
        assert np.max(np.abs(C - np.eye(3))) < 0.05, dist


# ---------------------------------------------------------------- synthesis

def test_synthesize_frozen_example():
    m = PointSourceModel(taus=[0.0], amps=[1.0], orients=[[1.0], [0.0]])
    X = synthesize_data_matrix(m, 5)
    np.testing.assert_allclose(X[0], np.ones(5), atol=1e-15)
    np.testing.assert_allclose(X[1], np.zeros(5), atol=1e-15)


def test_synthesize_linearity_and_rank():
    rng = np.random.default_rng(3)
    m1 = sample_model(2, 3, seed=10)
    m2 = sample_model(3, 3, seed=11)
    merged = PointSourceModel(
        taus=np.concatenate([m1.taus, m2.taus]),
        amps=np.concatenate([m1.amps, m2.amps]),
        orients=np.hstack([m1.orients, m2.orients]),
    )
    n = 32
    np.testing.assert_allclose(
        synthesize_data_matrix(merged, n),
        synthesize_data_matrix(m1, n) + synthesize_data_matrix(m2, n),
        rtol=1e-12, atol=1e-12)

    for r, s in [(1, 4), (3, 2), (5, 8)]:
        m = sample_model(r, s, seed=rng)
        sv = np.linalg.svd(synthesize_data_matrix(m, 24), compute_uv=False)
        k = min(r, s)
        if k < len(sv):
            assert sv[k] / sv[0] < 1e-10


# ---------------------------------------------------------------- measurement

def test_measurement_all_ones_sensing():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    y = apply_measurement(X, np.ones((6, 1), dtype=complex))
    np.testing.assert_array_equal(y, X[0])


def test_measurement_adjointness_and_composition():
    rng = np.random.default_rng(5)
    for dist in ("gaussian", "rademacher", "dftrows"):
        for trial in range(30):
            n = int(rng.integers(2, 40))
            s = int(rng.integers(1, min(n, 8) + 1))
            B = sample_subspace(dist, n, s, seed=rng)
            X = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = np.vdot(apply_measurement(X, B), y)
            rhs = np.vdot(X, apply_measurement_adjoint(y, B))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(y)
            # composition scales each entry by the squared row norm
            comp = apply_measurement(apply_measurement_adjoint(y, B), B)
            row_sq = np.sum(np.abs(B) ** 2, axis=1)
            np.testing.assert_allclose(comp, row_sq * y, rtol=1e-12, atol=1e-12)


def test_measurement_matches_modulation_formula():
    # y[j] = sum_k d_k e^{-2i pi tau_k j} (B h_k)[j], both derivations agree
    m = sample_model(4, 3, seed=21)
    B = sample_subspace("gaussian", 32, 3, seed=22)
    X = synthesize_data_matrix(m, 32)
    y = apply_measurement(X, B)
    j = np.arange(32)
    direct = np.zeros(32, dtype=complex)
    for k in range(m.r):
        g_k = B @ m.orients[:, k]
        direct += m.amps[k] * np.exp(-2j * np.pi * m.taus[k] * j) * g_k
    np.testing.assert_allclose(y, direct, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- factors

def test_vandermonde_reconstruction():
    rng = np.random.default_rng(6)
    for trial in range(100):
        s = int(rng.integers(1, 7))
        n = int(rng.integers(8, 48))
        shape = LiftShape.default(n, s)
        r_max = min(s * shape.n1, shape.n2)
        r = int(rng.integers(1, min(r_max, 6) + 1))
        m = sample_model(r, s, seed=rng)
        fac = build_vandermonde_factors(m, shape)
        Z = vec_hankel(synthesize_data_matrix(m, n), shape)
        recon = (fac.lifted_left * m.amps) @ fac.right.T
        assert np.linalg.norm(Z - recon) / np.linalg.norm(Z) < 1e-10
        # lifted left factor interleaves steering entries with orientations
        for k in range(r):
            np.testing.assert_allclose(
                fac.lifted_left[:, k],
                np.kron(fac.left[:, k], m.orients[:, k]),
                rtol=0, atol=1e-14)


def test_vandermonde_r1_right_factor():
    m = PointSourceModel(taus=[0.37], amps=[2.0], orients=[[1.0]])
    shape = LiftShape.default(9, 1)
    fac = build_vandermonde_factors(m, shape)
    np.testing.assert_array_equal(fac.right[:, 0], steering_vector(0.37, shape.n2))


def test_sigma_min_comparison_lifted_vs_plain():
    # smallest Gram eigenvalue never drops when orientations are interleaved
    rng = np.random.default_rng(7)
    for trial in range(100):
        s = int(rng.integers(1, 7))
        n = int(rng.integers(8, 48))
        r = int(rng.integers(1, 6))
        shape = LiftShape.default(n, s)
        m = sample_model(r, s, seed=rng)
        fac = build_vandermonde_factors(m, shape)
        lam_plain = np.linalg.eigvalsh(fac.left.conj().T @ fac.left)[0]
        lam_lift = np.linalg.eigvalsh(
            fac.lifted_left.conj().T @ fac.lifted_left)[0]
        assert lam_lift >= lam_plain - 1e-10


# ---------------------------------------------------------------- noise

def test_noise_sigma_frozen():
    X = np.zeros((10, 10), dtype=complex)
    X[0, 0] = 10.0
    assert abs(noise_sigma(X, 20.0) - 0.1) < 1e-15


def test_add_noise_modes():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
    np.testing.assert_array_equal(add_noise(X, np.inf, seed=0), X)
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="SNR must be a number of dB"):
            add_noise(X, bad, seed=0)

    # second-moment check: ||E||_F^2 concentrates around s*n*sigma^2
    sigma = noise_sigma(X, 10.0)
    total = 0.0
    for k in range(100):
        E = add_noise(X, 10.0, seed=100 + k) - X
        total += np.linalg.norm(E) ** 2
    ratio = total / (100 * X.size * sigma ** 2)
    assert 0.9 < ratio < 1.1


# ---------------------------------------------------------------- diagnostics

def test_incoherence_single_source():
    m = PointSourceModel(taus=[0.3], amps=[1.0], orients=[[1.0]])
    shape = LiftShape.default(63, 1)  # n1 = n2 = 32
    rep = incoherence_diagnostic(m, shape)
    assert abs(rep.sigma_min_left - shape.n1) < 1e-13 * shape.n1
    assert abs(rep.mu1 - 1.0) < 1e-12


def test_incoherence_orthogonal_pair():
    m = PointSourceModel(taus=[0.0, 0.5], amps=[1.0, 1.0],
                         orients=np.eye(2))
    shape = LiftShape.default(7, 2)  # n1 = n2 = 4, both even
    rep = incoherence_diagnostic(m, shape)
    assert abs(rep.mu1 - 1.0) < 1e-12


def test_incoherence_close_and_coincident():
    m = PointSourceModel(taus=[0.0, 1e-4], amps=[1.0, 1.0], orients=np.eye(2))
    shape = LiftShape.default(64, 2)
    rep = incoherence_diagnostic(m, shape)
    assert rep.mu1 > 100.0
    assert np.isfinite(rep.mu1)

    tight = PointSourceModel(taus=[0.3, 0.3 + 3e-16], amps=[1.0, 1.0],
                             orients=np.eye(2))
    rep = incoherence_diagnostic(tight, shape)
    assert rep.mu1 == np.inf


# ---------------------------------------------------------------- round trip

def test_problem_json_round_trip(tmp_path):
    m = sample_model(3, 4, seed=42)
    B = sample_subspace("dftrows", 24, 4, seed=43)
    path = tmp_path / "problem.json"
    save_problem(path, m, B, "dftrows", 43)
    doc = json.loads(path.read_text())
    assert list(doc) == ["n", "s", "r", "taus", "amps", "orients", "B",
                         "distribution", "seed"]
    assert (doc["n"], doc["s"], doc["r"]) == (24, 4, 3)
    assert doc["distribution"] == "dftrows" and doc["seed"] == 43
    m2, B2 = load_problem(path)
    np.testing.assert_array_equal(m.taus, m2.taus)
    np.testing.assert_array_equal(m.amps, m2.amps)
    np.testing.assert_array_equal(m.orients, m2.orients)
    np.testing.assert_array_equal(B, B2)
    # serialization is deterministic byte for byte
    first = path.read_bytes()
    save_problem(path, m2, B2, "dftrows", 43)
    assert path.read_bytes() == first
