"""CLI and CSV plumbing tests: exit codes, emitted files, determinism, and
the thin-adapter property that CLI outputs match direct library calls."""

import json

import numpy as np
import pytest

from vhlift import cli, io
from vhlift.bench import hausdorff_distance
from vhlift.model import (
    apply_measurement,
    load_problem,
    sample_model,
    sample_subspace,
    synthesize_data_matrix,
    wraparound_gap,
)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


# ------------------------------------------------------------- CSV plumbing

def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = tmp_path / "m.csv"
    io.write_complex_matrix_csv(path, M)
    back = io.read_complex_matrix_csv(path)
    assert back.shape == (3, 5)
    assert np.array_equal(back, M)
    # repr floats round-trip, so rewrite is byte-identical
    first = path.read_bytes()
    io.write_complex_matrix_csv(path, back)
    assert path.read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.startswith("re_c0,im_c0,re_c1,im_c1")


def test_vector_csv_round_trip(tmp_path):
    v = np.array([1.5 - 2j, 0.0, 3e-17 + 1j])
    path = tmp_path / "v.csv"
    io.write_complex_vector_csv(path, v)
    assert path.read_text().splitlines()[0] == "re_y,im_y"
    back = io.read_complex_vector_csv(path)
    assert np.array_equal(back, v)


def test_csv_error_paths(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        io.read_complex_matrix_csv(path)
    path.write_text("re_a,im_a,re_b\n1,2,3\n")
    with pytest.raises(ValueError):
        io.read_complex_matrix_csv(path)
    path.write_text("re_a,im_b\n1,2\n")
    with pytest.raises(ValueError):
        io.read_complex_matrix_csv(path)
    path.write_text("re_a,im_a\n1,2,3\n")
    with pytest.raises(ValueError):
        io.read_complex_matrix_csv(path)
    path.write_text("re_a,im_a\n1,x\n")
    with pytest.raises(ValueError):
        io.read_complex_matrix_csv(path)
    path.write_text("re_a,im_a\n")
    with pytest.raises(ValueError):
        io.read_complex_matrix_csv(path)
    for row in ("nan,0", "1,inf", "-inf,2"):
        path.write_text("re_a,im_a\n%s\n" % row)
        with pytest.raises(ValueError, match="non-finite field in .*bad.csv"):
            io.read_complex_matrix_csv(path)
    path.write_text("re_a,im_a,re_b,im_b\n1,2,3,4\n")
    with pytest.raises(ValueError):
        io.read_complex_vector_csv(path)


# ------------------------------------------------------------------- synth

def synth_files(dirpath, *extra):
    code = run_cli("synth", "--n", 64, "--s", 3, "--r", 4, "--seed", 7,
                   "--out-dir", dirpath, *extra)
    assert code == 0
    return dirpath / "model.json", dirpath / "X.csv", dirpath / "y.csv"


def test_synth_rerun_byte_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    files1 = synth_files(d1)
    files2 = synth_files(d2)
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()


def test_synth_matches_library_calls(tmp_path):
    d1 = tmp_path / "via_cli"
    d2 = tmp_path / "via_lib"
    d1.mkdir()
    d2.mkdir()
    synth_files(d1)
    # the CLI is a thin adapter: same seed path, same files
    rng = np.random.default_rng(7)
    model = sample_model(4, 3, seed=rng)
    B = sample_subspace("gaussian", 64, 3, seed=rng)
    X = synthesize_data_matrix(model, 64)
    io.write_complex_matrix_csv(d2 / "X.csv", X)
    io.write_complex_vector_csv(d2 / "y.csv", apply_measurement(X, B))
    assert (d1 / "X.csv").read_bytes() == (d2 / "X.csv").read_bytes()
    assert (d1 / "y.csv").read_bytes() == (d2 / "y.csv").read_bytes()
    saved_model, saved_B = load_problem(d1 / "model.json")
    assert np.array_equal(saved_model.taus, model.taus)
    assert np.array_equal(saved_B, B)
    doc = json.loads((d1 / "model.json").read_text())
    assert doc["distribution"] == "gaussian" and doc["seed"] == 7


def test_synth_noise_flag_perturbs_x_only(tmp_path):
    model_path, x_path, y_path = synth_files(tmp_path, "--snr", 20)
    model, B = load_problem(model_path)
    X_clean = synthesize_data_matrix(model, 64)
    X_noisy = io.read_complex_matrix_csv(x_path)
    assert not np.array_equal(X_noisy, X_clean)
    rel = np.linalg.norm(X_noisy - X_clean) / np.linalg.norm(X_clean)
    assert 0.01 < rel < 1.0
    # y stays the clean measurement of the synthesized matrix
    y = io.read_complex_vector_csv(y_path)
    assert np.allclose(y, apply_measurement(X_clean, B), atol=1e-12)


def test_synth_validation_exit_codes(tmp_path, capsys):
    assert run_cli("synth", "--r", 0, "--out-dir", tmp_path) == 2
    assert run_cli("synth", "--delta", 0.5, "--r", 3,
                   "--out-dir", tmp_path) == 2
    assert run_cli("synth", "--n", 2, "--s", 5, "--out-dir", tmp_path) == 2
    assert "error" in capsys.readouterr().err


def test_synth_feasible_separation_never_fails(tmp_path):
    # r * delta <= 1 is feasible even where rejection sampling gives up
    for r, delta in ((40, 0.0249), (4, 0.25)):
        assert run_cli("synth", "--r", r, "--delta", delta,
                       "--out-dir", tmp_path) == 0
        model, _ = load_problem(tmp_path / "model.json")
        assert model.r == r
        assert wraparound_gap(model.taus) >= delta - 1e-12


# ------------------------------------------------------------------- solve

def test_solve_recovers_synth_output(tmp_path):
    model_path, x_path, _ = synth_files(tmp_path)
    code = run_cli("solve", "--model", model_path, "--y", tmp_path / "y.csv",
                   "--out-dir", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    X_hat = io.read_complex_matrix_csv(tmp_path / "Xhat.csv")
    X_true = io.read_complex_matrix_csv(x_path)
    rel = np.linalg.norm(X_hat - X_true) / np.linalg.norm(X_true)
    assert rel < 1e-3


def test_solve_iterations_do_not_depend_on_data_units(tmp_path, capsys):
    model_path, _, y_path = synth_files(tmp_path)
    assert run_cli("solve", "--model", model_path, "--y", y_path,
                   "--out-dir", tmp_path) == 0
    iters = json.loads((tmp_path / "report.json").read_text())["iters"]
    scaled = tmp_path / "y_scaled.csv"
    io.write_complex_vector_csv(scaled, 1e6 * io.read_complex_vector_csv(y_path))
    capsys.readouterr()
    assert run_cli("solve", "--model", model_path, "--y", scaled,
                   "--out-dir", tmp_path) == 0
    assert " in %d iters," % iters in capsys.readouterr().out


def test_solve_zero_measurements(tmp_path):
    model_path, _, y_path = synth_files(tmp_path)
    io.write_complex_vector_csv(y_path, np.zeros(64, dtype=np.complex128))
    code = run_cli("solve", "--model", model_path, "--y", y_path,
                   "--out-dir", tmp_path)
    assert code == 0
    X_hat = io.read_complex_matrix_csv(tmp_path / "Xhat.csv")
    assert np.all(X_hat == 0.0)


def test_solve_error_exit_codes(tmp_path, capsys):
    model_path, x_path, y_path = synth_files(tmp_path)
    missing = run_cli("solve", "--model", model_path,
                      "--y", tmp_path / "nope.csv", "--out-dir", tmp_path)
    assert missing == 4
    lines = y_path.read_text().splitlines()
    trunc = tmp_path / "trunc.csv"
    trunc.write_text("\n".join([lines[0], lines[1][: len(lines[1]) // 2]])
                     + "\n")
    assert run_cli("solve", "--model", model_path, "--y", trunc,
                   "--out-dir", tmp_path) == 2
    # measurement length inconsistent with the sensing matrix
    io.write_complex_vector_csv(trunc, np.zeros(10, dtype=np.complex128))
    assert run_cli("solve", "--model", model_path, "--y", trunc,
                   "--out-dir", tmp_path) == 2
    # a non-finite measurement is rejected when the file is read
    lines[3] = "nan,0.0"
    trunc.write_text("\n".join(lines) + "\n")
    assert run_cli("solve", "--model", model_path, "--y", trunc,
                   "--out-dir", tmp_path) == 2
    assert capsys.readouterr().err.endswith(
        "error: non-finite field in %s\n" % trunc)


def test_solve_rejects_non_finite_model_json(tmp_path, capsys):
    model_path, _, y_path = synth_files(tmp_path)
    doc = json.loads(model_path.read_text())
    bad = tmp_path / "bad.json"
    for key, value in (("taus", np.nan), ("amps", np.inf),
                       ("orients", -np.inf), ("B", np.nan)):
        broken = json.loads(json.dumps(doc))
        if key == "taus":
            broken[key][0] = value
        else:
            broken[key][0][1] = value
        bad.write_text(json.dumps(broken))
        capsys.readouterr()
        assert run_cli("solve", "--model", bad, "--y", y_path,
                       "--out-dir", tmp_path) == 2, key
        assert capsys.readouterr().err == \
            "error: non-finite value in %s\n" % bad
    # a literal that overflows a double is non-finite too
    bad.write_text(model_path.read_text().replace("[", "[1e400, ", 1))
    assert run_cli("solve", "--model", bad, "--y", y_path,
                   "--out-dir", tmp_path) == 2
    assert capsys.readouterr().err == "error: non-finite value in %s\n" % bad


def test_solve_nonconvergence_exit_3(tmp_path):
    model_path, _, y_path = synth_files(tmp_path)
    code = run_cli("solve", "--model", model_path, "--y", y_path,
                   "--max-iters", 3, "--out-dir", tmp_path)
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False
    assert report["iters"] == 3


# ------------------------------------------------------------------- music

def test_music_finds_noiseless_frequencies(tmp_path):
    model_path, x_path, _ = synth_files(tmp_path)
    code = run_cli("music", "--x", x_path, "--r", 4, "--out-dir", tmp_path,
                   "--svg")
    assert code == 0
    doc = json.loads((tmp_path / "sources.json").read_text())
    model, _ = load_problem(model_path)
    err = hausdorff_distance(model.taus, doc["taus_hat"], metric="wraparound")
    assert err <= 1e-4
    assert doc["estimator"] == "vhm"
    assert doc["padded_peaks"] is False
    curve_lines = (tmp_path / "pseudospectrum.csv").read_text().splitlines()
    assert curve_lines[0] == "tau,f"
    assert len(curve_lines) == 10001
    svg = (tmp_path / "pseudospectrum.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_music_single_row_equals_vhm_on_one_row(tmp_path):
    d_single = tmp_path / "single"
    d_vhm = tmp_path / "vhm"
    d_single.mkdir()
    d_vhm.mkdir()
    assert run_cli("synth", "--n", 32, "--s", 1, "--r", 2, "--seed", 5,
                   "--out-dir", tmp_path) == 0
    x_path = tmp_path / "X.csv"
    assert run_cli("music", "--x", x_path, "--r", 2, "--estimator", "single",
                   "--row", 0, "--out-dir", d_single) == 0
    assert run_cli("music", "--x", x_path, "--r", 2, "--estimator", "vhm",
                   "--out-dir", d_vhm) == 0
    got = json.loads((d_single / "sources.json").read_text())
    want = json.loads((d_vhm / "sources.json").read_text())
    assert got["taus_hat"] == want["taus_hat"]


def test_music_error_exit_codes(tmp_path):
    _, x_path, _ = synth_files(tmp_path)
    assert run_cli("music", "--x", x_path, "--out-dir", tmp_path) == 2
    assert run_cli("music", "--x", x_path, "--r", 5, "--estimator", "mmv",
                   "--out-dir", tmp_path) == 2
    assert run_cli("music", "--x", x_path, "--r", 4, "--estimator", "single",
                   "--row", 9, "--out-dir", tmp_path) == 2
    assert run_cli("music", "--x", x_path, "--r", 4, "--rows", 9,
                   "--out-dir", tmp_path) == 2
    assert run_cli("music", "--x", tmp_path / "nope.csv", "--r", 4,
                   "--out-dir", tmp_path) == 4


def test_music_row_options_need_their_estimator(tmp_path, capsys):
    _, x_path, _ = synth_files(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    owner = {"--rows": "vhm", "--row": "single"}
    for estimator, flag in (("mmv", "--rows"), ("single", "--rows"),
                            ("vhm", "--row"), ("mmv", "--row")):
        assert run_cli("music", "--x", x_path, "--r", 3, "--estimator",
                       estimator, flag, 1, "--out-dir", out) == 2
        assert capsys.readouterr().err == \
            "error: %s goes only with --estimator %s\n" % (flag, owner[flag])
    assert not any(out.iterdir())
    # a null row means the default, row 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"row": None}))
    assert run_cli("music", "--config", cfg, "--x", x_path, "--r", 3,
                   "--estimator", "single", "--out-dir", out) == 0


def test_grid_step_must_be_positive(tmp_path, capsys):
    _, x_path, _ = synth_files(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for step in ("0", "-1e-4", "nan", "inf"):
        assert run_cli("music", "--x", x_path, "--r", 4,
                       "--grid-step=" + step, "--out-dir", out) == 2
        assert run_cli("snr-sweep", "--n", 16, "--s", 2, "--r", 2,
                       "--estimators", "vhm:1,vhm", "--trials", 1,
                       "--grid-step=" + step, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err == "error: grid step must be a positive number, " \
            "got %r\n" % float(step) * 2
    assert not any(out.iterdir())


def test_grid_step_too_small(tmp_path, capsys):
    # a step whose 1 / step overflows, and one asking for 10^6 + 1 points
    _, x_path, _ = synth_files(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for step in ("1e-320", "9.99999e-7"):
        assert run_cli("music", "--x", x_path, "--r", 4,
                       "--grid-step=" + step, "--out-dir", out) == 2
        assert run_cli("snr-sweep", "--n", 16, "--s", 2, "--r", 2,
                       "--estimators", "vhm:1,vhm", "--trials", 1,
                       "--grid-step=" + step, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err == "error: grid step %r too small: 1 / step may be at " \
            "most 1000000\n" % float(step) * 2
    assert not any(out.iterdir())


def test_phase_transition_infeasible_separation(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("phase-transition", "--values1", 2, "--values2", 1,
                   "--fixed", "n=16", "--trials", 1, "--delta", 1,
                   "--out-dir", out) == 2
    assert capsys.readouterr().err == "error: cannot place 2 frequencies " \
        "with separation 1 on the circle\n"  # no trial ran
    assert not any(out.iterdir())


def test_phase_transition_rejects_s_above_n(tmp_path, capsys):
    # a cell with s > n has no sensing matrix; it is an input error, not
    # a failed recovery, whether s or n is on an axis or fixed
    out = tmp_path / "out"
    out.mkdir()
    for argv in (("--values1", 1, "--values2", 8, "--fixed", "n=4"),
                 ("--axis1", "n", "--values1", "4,16", "--axis2", "r",
                  "--values2", 1, "--fixed", "s=8")):
        assert run_cli("phase-transition", *argv, "--trials", 2,
                       "--out-dir", out) == 2
        assert capsys.readouterr().err == "error: a cell with s=8 > n=4 " \
            "has no n x s sensing matrix; every cell needs n >= s\n"
        assert not any(out.iterdir())  # no trial ran


def test_non_finite_snr_and_delta_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    sweep = ("snr-sweep", "--n", 16, "--s", 2, "--r", 2, "--trials", 1,
             "--estimators", "vhm:1,vhm")
    for argv in (("synth", "--snr", "nan"), ("synth", "--snr=-inf"),
                 (*sweep, "--snr", "10,nan"), (*sweep, "--snr=-inf")):
        assert run_cli(*argv, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SNR must be a number of dB or inf, got")
        assert len(err.splitlines()) == 1  # no trial ran
    for argv in (("synth", "--delta", "nan"),
                 ("phase-transition", "--values1", 1, "--values2", 1,
                  "--fixed", "n=16", "--trials", 1, "--delta", "nan"),
                 (*sweep, "--delta", "nan")):
        assert run_cli(*argv, "--out-dir", out) == 2
        assert capsys.readouterr().err == \
            "error: separation delta must be a number, got nan\n"
    assert not any(out.iterdir())


# ------------------------------------------------------------- experiments

def test_phase_transition_outputs(tmp_path, capsys):
    args = ("phase-transition", "--values1", "1,2", "--values2", "1,2",
            "--fixed", "n=16", "--trials", 2, "--seed", 11)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert run_cli(*args, "--out-dir", d1) == 0
    err = capsys.readouterr().err
    assert "trial" in err and len(err.splitlines()) == 8
    assert run_cli(*args, "--out-dir", d2, "--threads", 2) == 0
    assert capsys.readouterr().err == err  # progress in task order
    csv1 = (d1 / "grid.csv").read_bytes()
    assert csv1 == (d2 / "grid.csv").read_bytes()
    lines = csv1.decode().splitlines()
    assert lines[0] == "r,s,count"
    assert len(lines) == 5
    assert (d1 / "grid.svg").read_bytes() == (d2 / "grid.svg").read_bytes()


def test_phase_transition_validation(tmp_path):
    assert run_cli("phase-transition", "--axis1", "r", "--axis2", "r",
                   "--out-dir", tmp_path) == 2
    assert run_cli("phase-transition", "--fixed", "q=64",
                   "--out-dir", tmp_path) == 2
    assert run_cli("phase-transition", "--values1", "1;2",
                   "--out-dir", tmp_path) == 2


def test_snr_sweep_outputs(tmp_path):
    args = ("snr-sweep", "--n", 32, "--s", 4, "--r", 2, "--snr", "inf,10",
            "--estimators", "vhm:1,mmv", "--trials", 2,
            "--grid-step", 1e-3, "--seed", 11)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert run_cli(*args, "--out-dir", d1) == 0
    assert run_cli(*args, "--out-dir", d2, "--threads", 2) == 0
    csv1 = (d1 / "sweep.csv").read_bytes()
    assert csv1 == (d2 / "sweep.csv").read_bytes()
    lines = csv1.decode().splitlines()
    assert lines[0] == "snr,estimator,mean_error"
    assert len(lines) == 5
    assert lines[1].startswith("inf,vhm:1,")
    assert (d1 / "sweep.svg").exists()


def test_snr_sweep_validation(tmp_path):
    assert run_cli("snr-sweep", "--estimators", "vhm:0",
                   "--out-dir", tmp_path) == 2
    assert run_cli("snr-sweep", "--metric", "plain", "--snr", "5;3",
                   "--out-dir", tmp_path) == 2


# ------------------------------------------------------------- config file

def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 24, "s": 2, "r": 2, "seed": 9}))
    assert run_cli("synth", "--config", cfg, "--r", 1,
                   "--out-dir", tmp_path) == 0
    model, B = load_problem(tmp_path / "model.json")
    assert B.shape == (24, 2) and model.s == 2
    assert model.r == 1  # flag beats config
    assert json.loads((tmp_path / "model.json").read_text())["seed"] == 9


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run_cli("synth", "--config", cfg, "--out-dir", tmp_path) == 2
    cfg.write_text("{not json")
    assert run_cli("synth", "--config", cfg, "--out-dir", tmp_path) == 2
    cfg.write_text(json.dumps([1, 2]))
    assert run_cli("synth", "--config", cfg, "--out-dir", tmp_path) == 2
    assert run_cli("synth", "--config", tmp_path / "nope.json",
                   "--out-dir", tmp_path) == 4
    # a JSON null exits 2 naming the key unless null means "unset"
    for command, key in (("synth", "seed"), ("phase-transition", "threshold"),
                         ("music", "grid_step")):
        cfg.write_text(json.dumps({key: None}))
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err == \
            "error: config key %s must not be null\n" % key


CONFIG_KEYS = {
    "synth": "n s r seed distribution snr delta orient_law out_dir",
    "solve": "model y out_dir rho tol max_iters rank_cap n1",
    "music": "x r estimator row rows grid_step n1 out_dir svg",
    "phase-transition": "axis1 values1 axis2 values2 fixed trials threshold "
                        "seed distribution delta orient_law rho tol "
                        "max_iters rank_cap threads out_dir",
    "snr-sweep": "n s r snr estimators trials delta orient_law metric "
                 "grid_step seed threads out_dir",
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_key_set(tmp_path, capsys, command):
    # every documented key is accepted; only the extra one is reported
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict.fromkeys(CONFIG_KEYS[command].split()
                                            + ["zzz"])))
    assert run_cli(command, "--config", cfg) == 2
    assert capsys.readouterr().err == "error: unknown config keys: zzz\n"
