"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL verdict line (visible with -s or on
failure; the pytest -v status line mirrors it) and asserts the stated
bound.  Tolerances and instance counts are part of the contract and are
not adjustable.
"""

import numpy as np

from vhlift.bench import (
    PhaseTransitionConfig,
    SweepConfig,
    estimate_frequencies,
    hausdorff_distance,
    run_phase_transition,
    run_snr_sweep,
)
from vhlift.estimate import (
    noise_subspace,
    pick_peaks,
    pseudospectrum,
    recover_amplitudes,
)
from vhlift.io import write_grid_csv, write_sweep_csv
from vhlift.lift import (
    LiftShape,
    hankel_weights,
    iso_lift,
    iso_lift_adjoint,
    stacked_hankel,
    vec_hankel,
    vec_hankel_adjoint,
)
from vhlift.model import (
    apply_measurement,
    apply_measurement_adjoint,
    build_vandermonde_factors,
    sample_model,
    sample_subspace,
    synthesize_data_matrix,
)
from vhlift.solver import solve_vhl


def _verdict(num, label, ok):
    print("criterion %2d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, label)


def _cmat(rng, rows, cols):
    return rng.standard_normal((rows, cols)) \
        + 1j * rng.standard_normal((rows, cols))


def _rand_shape(rng, n_max=64, s_max=8):
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(1, s_max + 1))
    return LiftShape.default(n, s)


def test_criterion_01_operator_identities():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(120):
        shape = _rand_shape(rng)
        X = _cmat(rng, shape.s, shape.n)
        Z = _cmat(rng, shape.s * shape.n1, shape.n2)

        # <H(X), Z> = <X, H*(Z)>
        lhs = np.vdot(vec_hankel(X, shape), Z)
        rhs = np.vdot(X, vec_hankel_adjoint(Z, shape))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)

        # H*(H(X)) = X diag-weighted by the anti-diagonal counts
        w = hankel_weights(shape)
        back = vec_hankel_adjoint(vec_hankel(X, shape), shape)
        worst = max(worst, np.linalg.norm(back - X * w)
                    / max(np.linalg.norm(X * w), 1e-300))

        # G*(G(X)) = X for the isometric lift
        iso_back = iso_lift_adjoint(iso_lift(X, shape), shape)
        worst = max(worst, np.linalg.norm(iso_back - X)
                    / max(np.linalg.norm(X), 1e-300))

        # <A(X), y> = <X, A*(y)>
        B = _cmat(rng, shape.n, shape.s)
        y = _cmat(rng, shape.n, 1)[:, 0]
        lhs = np.vdot(apply_measurement(X, B), y)
        rhs = np.vdot(X, apply_measurement_adjoint(y, B))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    _verdict(1, "operator identities, 120 instances, rel 1e-12",
             worst < 1e-12)


def test_criterion_02_lifted_rank_and_factors():
    rng = np.random.default_rng(102)
    worst_ratio = 0.0
    worst_resid = 0.0
    for _ in range(50):
        n = int(rng.integers(16, 65))
        s = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        shape = LiftShape.default(n, s)
        model = sample_model(r, s, seed=rng, delta=1.0 / n)
        X = synthesize_data_matrix(model, n)
        H = vec_hankel(X, shape)
        sv = np.linalg.svd(H, compute_uv=False)
        worst_ratio = max(worst_ratio, sv[r] / sv[0])
        fac = build_vandermonde_factors(model, shape)
        rebuilt = (fac.lifted_left * model.amps) @ fac.right.T
        worst_resid = max(worst_resid,
                          np.linalg.norm(rebuilt - H) / np.linalg.norm(H))
    _verdict(2, "lifted rank <= r and factor residual, 50 models",
             worst_ratio < 1e-8 and worst_resid < 1e-10)


def test_criterion_03_stacked_lift_spectrum():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        shape = _rand_shape(rng, n_max=32, s_max=4)
        X = _cmat(rng, shape.s, shape.n)
        sv_block = np.linalg.svd(vec_hankel(X, shape), compute_uv=False)
        sv_stack = np.linalg.svd(stacked_hankel(X, shape), compute_uv=False)
        worst = max(worst, np.max(np.abs(sv_block - sv_stack)))
    _verdict(3, "row-stacked lift keeps singular values, 100 instances",
             worst < 1e-10)


def test_criterion_04_lifted_gram_floor():
    rng = np.random.default_rng(104)
    worst_gap = np.inf
    for _ in range(100):
        n = int(rng.integers(8, 65))
        s = int(rng.integers(1, 9))
        r = int(rng.integers(1, 5))
        shape = LiftShape.default(n, s)
        model = sample_model(r, s, seed=rng)
        fac = build_vandermonde_factors(model, shape)
        plain = np.linalg.eigvalsh(fac.left.conj().T @ fac.left)[0]
        lifted = np.linalg.eigvalsh(
            fac.lifted_left.conj().T @ fac.lifted_left)[0]
        worst_gap = min(worst_gap, lifted - plain)
    _verdict(4, "orientation-interleaved Gram no smaller, 100 models",
             worst_gap >= -1e-10)


def test_criterion_05_exact_recovery_instance():
    n, s, r = 64, 3, 4
    rng = np.random.default_rng(7)
    model = sample_model(r, s, seed=rng)
    B = sample_subspace("gaussian", n, s, seed=rng)
    X_true = synthesize_data_matrix(model, n)
    y = apply_measurement(X_true, B)
    shape = LiftShape.default(n, s)

    report = solve_vhl(y, B, shape)
    rel = np.linalg.norm(report.X_hat - X_true) / np.linalg.norm(X_true)

    ns = noise_subspace(report.X_hat, r, "vhm")
    peaks = pick_peaks(pseudospectrum(ns), r)
    tau_err = hausdorff_distance(model.taus, peaks.taus, metric="wraparound")

    # coefficient accuracy is grid-limited through tau_hat, so the tight
    # comparison evaluates the least-squares step at the exact frequencies
    src = recover_amplitudes(report.X_hat, model.taus)
    g_err = 0.0
    amp_err = 0.0
    for k in range(r):
        g_hat = B @ src.orients_hat[:, k]
        g_true = B @ model.orients[:, k]
        phase = np.vdot(g_hat, g_true)
        phase /= abs(phase)
        g_err = max(g_err, np.linalg.norm(g_hat * phase - g_true)
                    / np.linalg.norm(g_true))
        amp_err = max(amp_err, abs(src.amps_hat[k] - abs(model.amps[k]))
                      / abs(model.amps[k]))
    _verdict(5, "n=64 s=3 r=4: recovery, peaks, coefficients",
             rel < 1e-3 and not peaks.padded and tau_err <= 1e-4
             and g_err < 1e-6 and amp_err < 1e-6)


def _row_col_inversions(counts):
    inversions = []
    for row in counts:
        inversions.append(int(np.sum(np.diff(row) > 0)))
    for col in counts.T:
        inversions.append(int(np.sum(np.diff(col) > 0)))
    return max(inversions)


def test_criterion_06_phase_transition_grid():
    config = PhaseTransitionConfig(trials=10)
    grid = run_phase_transition(config)
    counts = grid.counts
    easy_ok = True
    hard_ok = True
    for i, r in enumerate(config.axis1_values):
        for j, s in enumerate(config.axis2_values):
            if r * s <= 8:
                easy_ok = easy_ok and counts[i, j] >= 8
            if r * s >= 48:
                hard_ok = hard_ok and counts[i, j] <= 2
    print("success counts (rows r, cols s):\n%s" % counts)
    _verdict(6, "reduced grid: easy cells pass, hard fail, monotone",
             easy_ok and hard_ok and _row_col_inversions(counts) <= 1)


def test_criterion_07_sample_complexity_ordering():
    config = PhaseTransitionConfig(axis1_name="n", axis1_values=(24, 64),
                                   axis2_name="s", axis2_values=(4,),
                                   fixed={"r": 4}, trials=10)
    counts = run_phase_transition(config).counts
    print("success counts at n=24, n=64:", counts.ravel())
    _verdict(7, "r=4 s=4: n=64 succeeds, n=24 fails",
             counts[1, 0] >= 8 and counts[0, 0] <= 2)


def test_criterion_08_snapshot_benefit():
    config = SweepConfig(snr_db=(20.0,), estimators=("vhm:1", "vhm:6"),
                         trials=50)
    means = run_snr_sweep(config).mean_errors
    one_row, six_rows = means[0, 0], means[1, 0]
    print("mean error with 1 row %.4g, with 6 rows %.4g"
          % (one_row, six_rows))
    _verdict(8, "pooling 6 rows no worse than 1 at 20 dB (10% slack)",
             six_rows <= 1.1 * one_row)


def test_criterion_09_byte_determinism(tmp_path):
    pt = PhaseTransitionConfig(axis1_values=(1, 2), axis2_values=(1, 2),
                               fixed={"n": 16}, trials=2, base_seed=3)
    sw = SweepConfig(n=32, s=4, r=2, snr_db=(float("inf"), 10.0),
                     estimators=("vhm:1", "mmv"), trials=2,
                     grid_step=1e-3, base_seed=3)
    blobs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        gp = tmp_path / ("grid_%s.csv" % tag)
        sp = tmp_path / ("sweep_%s.csv" % tag)
        write_grid_csv(gp, run_phase_transition(pt, workers=workers))
        write_sweep_csv(sp, run_snr_sweep(sw, workers=workers))
        blobs.append((gp.read_bytes(), sp.read_bytes()))
    _verdict(9, "CSV bytes identical across reruns and 1 vs 4 threads",
             blobs[0] == blobs[1] == blobs[2])


def test_criterion_10_noiseless_estimator_exactness():
    n, r = 64, 4
    step = 1e-4
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        multi = sample_model(r, 4, seed=rng, delta=1.0 / n)
        single = sample_model(r, 1, seed=rng, delta=1.0 / n)
        X_multi = synthesize_data_matrix(multi, n)
        X_single = synthesize_data_matrix(single, n)
        runs = (
            (noise_subspace(X_multi, r, "vhm"), multi),
            (noise_subspace(X_single[0], r, "single"), single),
            (noise_subspace(X_multi, r, "mmv"), multi),
        )
        for subspace, model in runs:
            peaks = pick_peaks(pseudospectrum(subspace, step), r)
            worst = max(worst, hausdorff_distance(model.taus, peaks.taus,
                                                  metric="wraparound"))
    _verdict(10, "vhm/single/mmv exact to one grid step, 20 instances",
             worst <= step)
