"""Tests for the ADMM solver and its building blocks."""

import json

import numpy as np
import pytest

from vhlift.lift import (
    LiftShape,
    hankel_weights,
    vec_hankel,
    vec_hankel_adjoint,
)
from vhlift.model import (
    apply_measurement,
    apply_measurement_adjoint,
    sample_model,
    sample_subspace,
    synthesize_data_matrix,
)
from vhlift import io, solver
from vhlift.solver import (
    SolveReport,
    SolverConfig,
    nuclear_norm,
    solve_vhl,
    svt,
)


# ---------------------------------------------------------------- svt

def test_svt_identity_and_full_shrinkage():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    np.testing.assert_allclose(svt(M, 0.0), M, rtol=0, atol=1e-14)
    top = np.linalg.svd(M, compute_uv=False)[0]
    np.testing.assert_allclose(svt(M, top + 1.0), np.zeros_like(M),
                               rtol=0, atol=1e-14)


def test_svt_diagonal_case_and_bad_thresholds():
    M = np.diag([3.0, 1.0])
    np.testing.assert_allclose(svt(M, 2.0), np.diag([1.0, 0.0]), atol=1e-14)
    with pytest.raises(ValueError):
        svt(M, -1.0)
    with pytest.raises(ValueError):
        svt(np.eye(2), np.nan)


def svt_by_svd(M, threshold):
    U, sig, Vh = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(sig - threshold, 0.0)) @ Vh


def with_singular_values(rng, rows, cols, sig):
    def orthonormal(m):
        Q, _ = np.linalg.qr(rng.standard_normal((m, len(sig)))
                            + 1j * rng.standard_normal((m, len(sig))))
        return Q
    return (orthonormal(rows) * sig) @ orthonormal(cols).conj().T


def test_svt_matches_svd_reference():
    rng = np.random.default_rng(4)

    def assert_close(Z, ref):
        assert Z.shape == ref.shape
        assert np.linalg.norm(Z - ref) <= 1e-9 * np.linalg.norm(ref)

    # tall lifts (s = 3 and s = 8 at n = 64) and the wide one of s = 1
    for rows, cols in ((96, 33), (256, 33), (32, 33)):
        sig = np.logspace(6, -3, min(rows, cols))
        M = with_singular_values(rng, rows, cols, sig)
        assert_close(svt(M, 1.0), svt_by_svd(M, 1.0))
        assert_close(svt(M.conj().T, 1.0), svt_by_svd(M.conj().T, 1.0))
    # rank-deficient: rank 5 of 33, kept whole and thresholded
    M = with_singular_values(rng, 96, 33, np.array([9.0, 7.0, 5.0, 3.0, 1.0]))
    for threshold in (0.0, 0.5, 4.0):
        assert_close(svt(M, threshold), svt_by_svd(M, threshold))
        assert_close(svt(M.T, threshold), svt_by_svd(M.T, threshold))
    # the zero matrix stays zero, also at threshold 0
    for shape in ((96, 33), (32, 33)):
        for threshold in (0.0, 1.0):
            Z = svt(np.zeros(shape, dtype=complex), threshold)
            assert Z.dtype == complex
            np.testing.assert_array_equal(Z, np.zeros(shape))


# ---------------------------------------------------------------- nuclear norm

def test_nuclear_norm_values():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    assert abs(nuclear_norm(np.outer(u, v.conj())) - 1.0) < 1e-12

    Z = np.zeros((4, 5))
    Z[0, 0], Z[1, 1] = 2.0, 3.0
    assert abs(nuclear_norm(Z) - 5.0) < 1e-12

    M = rng.standard_normal((7, 5))
    sv = np.linalg.svd(M, compute_uv=False)
    assert nuclear_norm(M) >= np.linalg.norm(M) - 1e-12
    assert np.linalg.norm(M) >= sv[0] - 1e-12


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol_rel=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    # rho = inf would make the SVT threshold 0, and 1e-310 its inverse inf
    for rho in (np.inf, np.nan, 1e-310):
        with pytest.raises(ValueError, match="rho must be .* got %r" % rho):
            SolverConfig(rho=rho)
    with pytest.raises(ValueError, match="tol_rel must be .* got inf"):
        SolverConfig(tol_rel=np.inf)


# ---------------------------------------------------------------- solve

def _instance(n, s, r, seed):
    model = sample_model(r, s, seed=seed)
    B = sample_subspace("gaussian", n, s, seed=seed + 1000)
    X = synthesize_data_matrix(model, n)
    return model, B, X, apply_measurement(X, B)


def test_solve_zero_data():
    shape = LiftShape.default(12, 2)
    B = sample_subspace("gaussian", 12, 2, seed=3)
    rep = solve_vhl(np.zeros(12), B, shape)
    assert rep.converged and rep.iters <= 2
    assert rep.nuclear_norm == 0.0
    np.testing.assert_array_equal(rep.X_hat, np.zeros((2, 12)))


def test_solve_small_exact_recovery():
    _, B, X, y = _instance(16, 2, 1, seed=0)
    rep = solve_vhl(y, B, LiftShape.default(16, 2))
    assert rep.converged
    assert np.linalg.norm(rep.X_hat - X) / np.linalg.norm(X) < 1e-3


def test_solve_midsize_instance():
    _, B, X, y = _instance(64, 3, 4, seed=5)
    shape = LiftShape.default(64, 3)
    rep = solve_vhl(y, B, shape)
    assert rep.converged
    assert np.linalg.norm(rep.X_hat - X) / np.linalg.norm(X) < 1e-3
    # the truth is feasible, so the minimizer cannot beat it by more than slack
    assert rep.nuclear_norm <= nuclear_norm(vec_hankel(X, shape)) * (1 + 1e-6)


def test_solution_always_feasible():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(8, 33))
        s = int(rng.integers(1, 4))
        r = int(rng.integers(1, 3))
        _, B, X, y = _instance(n, s, r, seed=200 + trial)
        rep = solve_vhl(y, B, LiftShape.default(n, s),
                        SolverConfig(max_iters=20))
        resid = apply_measurement(rep.X_hat, B) - y
        assert np.max(np.abs(resid)) < 1e-10


def test_merit_windows_catch_divergence_not_transients():
    _, B, X, y = _instance(64, 3, 4, seed=5)
    rep = solve_vhl(y, B, LiftShape.default(64, 3))
    merit = np.maximum(rep.primal_history, rep.dual_history)
    # the solve must outlast the skipped start, or no window is checked
    assert len(merit) >= 80
    # skip the first few iterations; the dual variable starts at zero and
    # the residual scalings are not yet meaningful there
    for t in range(60, len(merit)):
        assert merit[t] <= merit[t - 50] * 1.000001 + 1e-12


def test_solve_is_scale_equivariant():
    # the iteration runs on y / rms(y): the same iterations, flags and
    # recovery at every scale of the data, out to the extremes of float64
    rng = np.random.default_rng(3)
    model = sample_model(2, 3, seed=rng)
    B = sample_subspace("gaussian", 64, 3, seed=rng)
    X = synthesize_data_matrix(model, 64)
    y = apply_measurement(X, B)
    shape = LiftShape.default(64, 3)
    reps = {c: solve_vhl(c * y, B, shape) for c in (1e-4, 1.0, 1e2, 1e6)}
    assert len({(rep.iters, rep.converged) for rep in reps.values()}) == 1
    for c, rep in reps.items():
        assert rep.converged
        assert np.linalg.norm(rep.X_hat / c - X) / np.linalg.norm(X) < 1e-3
    for c in (1e-300, 1e300):
        rep = solve_vhl(c * y, B, shape)
        assert rep.converged
        assert np.all(np.isfinite(rep.X_hat))


def test_degenerate_fully_constrained():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    B = np.ones((10, 1), dtype=complex)
    shape = LiftShape.default(10, 1)
    one = solve_vhl(y, B, shape, SolverConfig(max_iters=1))
    np.testing.assert_allclose(one.X_hat, y[None, :], rtol=0, atol=1e-12)
    full = solve_vhl(y, B, shape)
    assert full.converged
    np.testing.assert_allclose(full.X_hat, y[None, :], rtol=0, atol=1e-12)


def test_single_row_returns_the_feasible_start():
    # s = 1: every measurement fixes its column, so the start is final
    rng = np.random.default_rng(np.random.SeedSequence((9001, 32, 1, 4, 1)))
    model = sample_model(4, 1, seed=rng)
    B = sample_subspace("gaussian", 32, 1, seed=rng)
    X = synthesize_data_matrix(model, 32)
    rep = solve_vhl(apply_measurement(X, B), B, LiftShape.default(32, 1))
    assert rep.iters == 1 and rep.converged
    assert rep.primal_residual == 0.0 and rep.dual_residual == 0.0
    assert len(rep.primal_history) == len(rep.dual_history) == 1
    assert np.linalg.norm(rep.X_hat - X) / np.linalg.norm(X) < 1e-12


@pytest.mark.filterwarnings("error")
def test_solver_error_paths():
    shape = LiftShape.default(8, 2)
    B = sample_subspace("gaussian", 8, 2, seed=1)
    B[3, :] = 0.0
    with pytest.raises(ValueError):
        solve_vhl(np.zeros(8), B, shape)
    with pytest.raises(ValueError):
        solve_vhl(np.zeros(7), sample_subspace("gaussian", 8, 2, seed=1), shape)
    with pytest.raises(ValueError):
        solve_vhl(np.zeros(8), sample_subspace("gaussian", 9, 2, seed=1), shape)
    # a nan or inf is named before it reaches eigh, with no warning on the way
    _, B, X, y = _instance(16, 2, 2, seed=0)
    shape = LiftShape.default(16, 2)
    for bad in (np.full(16, np.nan), np.r_[np.inf, y[1:]],
                np.r_[np.nan, y[1:]]):
        with pytest.raises(ValueError, match="measurement vector y"):
            solve_vhl(bad, B, shape)
    B_bad = B.copy()
    B_bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="sensing matrix B"):
        solve_vhl(y, B_bad, shape)


def test_nonconvergence_reported_not_raised():
    _, B, X, y = _instance(32, 2, 2, seed=11)
    rep = solve_vhl(y, B, LiftShape.default(32, 2), SolverConfig(max_iters=3))
    assert not rep.converged
    assert rep.iters == 3
    assert max(rep.primal_residual, rep.dual_residual) > 1e-7
    assert len(rep.primal_history) == rep.iters == 3
    assert rep.primal_history[-1] == rep.primal_residual
    assert rep.dual_history[-1] == rep.dual_residual


def test_report_round_trip_dict(tmp_path):
    _, B, X, y = _instance(16, 2, 1, seed=0)
    rep = solve_vhl(y, B, LiftShape.default(16, 2))
    io.write_report(tmp_path / "report.json", rep)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["converged"] is True
    assert doc["s"] == 2 and doc["n"] == 16
    flat = np.array([complex(a, b) for a, b in doc["X_hat"]])
    np.testing.assert_array_equal(flat.reshape((2, 16), order="F"), rep.X_hat)


# ---------------------------------------------------------------- plain ADMM

def unscaled_admm(y, B, shape, rho, max_iters=5000):
    """The plain ADMM loop in the unscaled-dual form, Lam / rho formed in
    each update, kept frozen as the reference whose iterates solve_vhl's
    plain step follows and whose minimiser its accelerated loop must reach
    (s >= 2, default tol_rel).  rho is one penalty, or one per step, the
    last repeated: a change takes effect at the Z-update with Lam held, so
    each X-update divides Lam by the penalty of the step before."""
    B = np.asarray(B, dtype=np.complex128)
    row_sq = np.sum(np.abs(B) ** 2, axis=1)
    peak = float(np.max(np.abs(y)))
    c = peak * float(np.linalg.norm(y / peak)) / np.sqrt(shape.n)
    y = y / c
    w = hankel_weights(shape).astype(np.float64)
    rhos = np.atleast_1d(rho)

    def project_feasible(M):
        resid = y - apply_measurement(M, B)
        return M + apply_measurement_adjoint(resid / row_sq, B)

    X = project_feasible(np.zeros((shape.s, shape.n), dtype=np.complex128))
    Z = vec_hankel(X, shape)
    Lam = np.zeros_like(Z)
    converged = False
    rho = rhos[0]
    for it in range(1, max_iters + 1):
        M = vec_hankel_adjoint(Z + Lam / rho, shape) / w
        rho = rhos[min(it, len(rhos)) - 1]
        X_new = project_feasible(M)
        HX = vec_hankel(X_new, shape)
        Z = svt(HX - Lam / rho, 1.0 / rho)
        gap = Z - HX
        Lam += rho * gap
        primal = np.linalg.norm(gap) / max(1.0, np.linalg.norm(HX))
        dX = X_new - X
        dual = rho * np.sqrt(np.sum(w * np.abs(dX) ** 2)) \
            / max(1.0, np.linalg.norm(Lam))
        X = X_new
        if primal <= 1e-7 and dual <= 1e-7:
            converged = True
            break
    return c * X, it, converged


class _PlainStep:
    """Stands in for the Anderson mixer: every step is the plain map,
    A <- T(A) = A + f."""

    def __init__(self, size):
        pass

    def advance(self, A, f, f_norm):
        A += f

    def reset(self):
        pass


def _recorded_thresholds(monkeypatch):
    """The SVT threshold of every evaluation solve_vhl makes from here on;
    svt takes a wide lift through a second call on its transpose."""
    thresholds = []
    svt_ = solver.svt

    def recording_svt(M, threshold):
        if M.shape[0] >= M.shape[1]:
            thresholds.append(threshold)
        return svt_(M, threshold)

    monkeypatch.setattr(solver, "svt", recording_svt)
    return thresholds


def _changes(thresholds):
    return sum(a != b for a, b in zip(thresholds, thresholds[1:]))


# s and n1 of each lift; n1 = None is the near-square split, whose lifts
# are tall, and n1 = 8 gives a wide 16 x 25 lift, which svt transposes
LIFTS = [pytest.param(2, None, id="2"), pytest.param(3, None, id="3"),
         pytest.param(8, None, id="8"), pytest.param(2, 8, id="2-n1=8")]


@pytest.mark.parametrize("s, n1", LIFTS)
def test_scaled_dual_matches_unscaled_form(s, n1, monkeypatch):
    # with the mixing off, solve_vhl's loop is the plain ADMM in the scaled
    # dual, run as its Douglas-Rachford map on A = HX - U; its X iterates
    # are the unscaled form's one step on, since the reference's first step
    # returns the feasible start.  The reference replays the penalties
    # that solve_vhl's SVT thresholds record, and at least one compared
    # window holds a change
    monkeypatch.setattr(solver, "_AndersonMixer", _PlainStep)
    thresholds = _recorded_thresholds(monkeypatch)
    _, B, X, y = _instance(32, s, 2, seed=40 + s)
    shape = LiftShape.default(32, s, n1)
    changed = []
    for rho in (1.0, 0.5):
        for k in (1, 20, 50):
            thresholds.clear()
            rep = solve_vhl(y, B, shape, SolverConfig(rho=rho, max_iters=k))
            assert thresholds[0] == 1.0 / rho and len(thresholds) == k
            X_ref, _, converged = unscaled_admm(
                y, B, shape, 1.0 / np.array(thresholds), max_iters=k + 1)
            assert not converged and not rep.converged and rep.iters == k
            assert np.linalg.norm(rep.X_hat - X_ref) \
                <= 1e-12 * np.linalg.norm(X_ref)
            changed.append(_changes(thresholds) > 0)
    assert any(changed)


@pytest.mark.parametrize("rho", [0.5, 1.0])
@pytest.mark.parametrize("s, n1", LIFTS)
def test_accelerated_loop_reaches_plain_admm_minimiser(s, n1, rho):
    _, B, X, y = _instance(32, s, 2, seed=40 + s)
    shape = LiftShape.default(32, s, n1)
    X_ref, iters, converged = unscaled_admm(y, B, shape, rho)
    rep = solve_vhl(y, B, shape, SolverConfig(rho=rho))
    assert rep.converged == converged
    assert np.linalg.norm(rep.X_hat - X_ref) <= 1e-6 * np.linalg.norm(X_ref)
    assert rep.iters < iters


def type2_anderson_step(points, images, depth):
    """The float64 type-II Anderson step from the last of `points`, with
    images[k] = T(points[k]): the least-squares fit of the last f over
    real coefficients on the last `depth` differences of f and of T."""
    f = [t - a for a, t in zip(points, images)]
    k = min(len(points) - 1, depth)
    if k == 0:
        return images[-1]
    dF = np.stack([f[i + 1] - f[i] for i in range(-k - 1, -1)], axis=1)
    dG = np.stack([images[i + 1] - images[i] for i in range(-k - 1, -1)],
                  axis=1)
    gamma = np.linalg.lstsq(np.vstack([dF.real, dF.imag]),
                            np.r_[f[-1].real, f[-1].imag], rcond=None)[0]
    return images[-1] - dG @ gamma


def test_anderson_mixer_matches_float64_type2_step():
    # an affine contraction T(a) = M a + b with ||M||_2 = 0.95, driven for
    # 14 steps, so the 3-pair history wraps more than twice; each next
    # point is the type-II step over the pairs since the last drop
    rng = np.random.default_rng(17)
    size = 40
    Q, _ = np.linalg.qr(rng.standard_normal((size, size))
                        + 1j * rng.standard_normal((size, size)))
    lam = rng.uniform(0.3, 0.95, size) * np.exp(2j * np.pi * rng.random(size))
    lam[0] = 0.95
    M = (Q * lam) @ Q.conj().T
    b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    mixer = solver._AndersonMixer(size)
    A = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    points, images = [], []
    last_norm, mixed, fits = np.inf, False, []
    for step in range(14):
        T = M @ A + b
        f_norm = np.linalg.norm(T - A)
        if step == 8:
            # a grown residual at a mixed point drops the history
            assert mixer.mixed
            f_norm = 10.0 * last_norm
        points.append(A.copy())
        images.append(T)
        if mixed and f_norm > last_norm:
            points, images = points[-1:], images[-1:]
        expected = type2_anderson_step(points, images, solver.ANDERSON_DEPTH)
        mixed, last_norm = len(points) > 1, f_norm
        fits.append(min(len(points) - 1, solver.ANDERSON_DEPTH))
        mixer.advance(A, T - A, f_norm)
        assert mixer.mixed == mixed
        assert min(mixer.pairs, solver.ANDERSON_DEPTH) == fits[-1]
        assert np.linalg.norm(A - expected) \
            <= 1e-5 * np.linalg.norm(expected - points[-1])
    # the forced drop at step 8 takes the plain step, and the fits after
    # it use only the new pairs
    np.testing.assert_array_equal(fits[7:12], [3, 0, 1, 2, 3])


def test_safeguard_restart_still_converges_feasible(monkeypatch):
    # a mixed point whose residual grows is rejected and the history
    # dropped; the solve must still converge to a feasible minimiser
    rejected = []

    class Recording(solver._AndersonMixer):
        def advance(self, A, f, f_norm):
            rejected.append(self.mixed and f_norm > self.f_norm)
            super().advance(A, f, f_norm)
            if rejected[-1]:
                # the history was dropped: the step was the plain one
                assert self.pairs == 0 and not self.mixed

    monkeypatch.setattr(solver, "_AndersonMixer", Recording)
    _, B, X, y = _instance(16, 2, 1, seed=0)
    rep = solve_vhl(y, B, LiftShape.default(16, 2))
    assert any(rejected)
    assert rep.converged
    assert np.max(np.abs(apply_measurement(rep.X_hat, B) - y)) < 1e-10
    assert np.linalg.norm(rep.X_hat - X) / np.linalg.norm(X) < 1e-3


@pytest.mark.parametrize("rho", [1e-300, 1e300])
def test_extreme_starting_penalty_stays_finite_and_feasible(rho, monkeypatch):
    # the residuals stay unbalanced at either end, so the penalty moves at
    # every chance until the cap stops it: 20 changes in the first 200
    # evaluations, none in the last 50
    thresholds = _recorded_thresholds(monkeypatch)
    _, B, X, y = _instance(16, 2, 1, seed=0)
    rep = solve_vhl(y, B, LiftShape.default(16, 2),
                    SolverConfig(rho=rho, max_iters=250))
    assert len(thresholds) == rep.iters == 250
    assert all(0 < t < np.inf for t in thresholds)
    assert _changes(thresholds) == solver.RHO_CHANGES
    assert len(set(thresholds[-50:])) == 1
    assert np.all(np.isfinite(rep.X_hat))
    assert np.linalg.norm(apply_measurement(rep.X_hat, B) - y) \
        <= 1e-8 * np.linalg.norm(y)


@pytest.mark.parametrize("rho, changes", [(1e-308, 1), (1.7e308, 0)])
def test_penalty_change_that_leaves_float64_is_skipped(rho, changes,
                                                       monkeypatch):
    # a factor below 1 turns each change toward the end of the range that
    # rho starts near: 1.7e308 * 1.5 overflows, and 1e-308 / 1.5**2 has
    # no finite inverse, so those changes are skipped
    monkeypatch.setattr(solver, "RHO_FACTOR", 1 / 1.5)
    thresholds = _recorded_thresholds(monkeypatch)
    _, B, X, y = _instance(16, 2, 1, seed=0)
    rep = solve_vhl(y, B, LiftShape.default(16, 2),
                    SolverConfig(rho=rho, max_iters=100))
    assert all(0 < t < np.inf for t in thresholds)
    assert _changes(thresholds) == changes
    assert np.all(np.isfinite(rep.X_hat))
