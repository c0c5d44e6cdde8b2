"""CLI and CSV plumbing tests: exit codes, emitted files, determinism, and
the thin-adapter property that CLI outputs match direct library calls."""

import json

import numpy as np
import pytest

from vhlift import cli, io
from vhlift.bench import (
    PhaseTransitionConfig,
    SweepConfig,
    SweepResult,
    TrialGrid,
    estimate_frequencies,
    hausdorff_distance,
)
from vhlift.estimate import PseudospectrumCurve, RecoveredSources
from vhlift.model import (
    PointSourceModel,
    apply_measurement,
    sample_model,
    sample_subspace,
    synthesize_data_matrix,
    wraparound_gap,
)
from vhlift.solver import SolveReport


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


def _pairs_json(key, pairs, last=False):
    """The indent=1 JSON text of a top-level key holding [re, im] pairs."""
    items = ",\n".join("  [\n   %s,\n   %s\n  ]" % p for p in pairs)
    return ' "%s": [\n%s\n ]%s\n' % (key, items, "" if last else ",")


def test_artifact_bytes_pinned(tmp_path):
    # hand-built inputs with exactly representable floats, so no solver or
    # BLAS rounding reaches the bytes; SVGs are left to the smoke tests
    inf = float("inf")
    orients = np.array([[1, 0], [0, 1j]])
    X = np.array([[1.5, -2j, 0.125], [0, 3 + 0.75j, -1]])
    model = PointSourceModel(taus=[0.25, 0.5], amps=[2 - 0.5j, -1.25 + 3j],
                             orients=orients)
    io.write_problem(tmp_path / "model.json", model,
                     np.array([[1, -0.5j], [0.25, 2], [-1, 1 + 1j]]),
                     "gaussian", 7)
    io.write_report(tmp_path / "report.json", SolveReport(
        X_hat=X, iters=12, primal_residual=0.125, dual_residual=0.0625,
        nuclear_norm=3.5, converged=False, primal_history=np.array([0.125]),
        dual_history=np.array([0.0625])))
    sources = RecoveredSources(
        taus_hat=np.array([0.25, 0.5]), amps_hat=np.array([2.0, 1.5]),
        orients_hat=orients, residual=0.5, ill_conditioned=False)
    io.write_sources(tmp_path / "sources.json", sources, "vhm", True)
    io.write_pseudospectrum_csv(
        tmp_path / "pseudospectrum.csv",
        PseudospectrumCurve(grid=np.array([0.0, 0.25, 0.5, 0.75]),
                            values=np.array([1.0, inf, 0.5, 2.0])))
    io.write_grid_csv(tmp_path / "grid.csv", TrialGrid(
        config=PhaseTransitionConfig(axis1_values=(1, 2), axis2_values=(2,),
                                     fixed={"n": 8}, trials=2),
        errors=np.array([[[0.0, inf]], [[0.0, 0.0]]])))
    io.write_sweep_csv(tmp_path / "sweep.csv", SweepResult(
        config=SweepConfig(n=16, s=2, r=2, snr_db=(inf, 20.0),
                           estimators=("vhm:1", "mmv"), trials=2),
        errors=np.array([[[0.0, 0.5], [0.25, 0.75]],
                         [[0.125, 0.125], [1.0, 2.0]]])))
    io.write_complex_matrix_csv(tmp_path / "X.csv", X)
    io.write_complex_vector_csv(tmp_path / "y.csv",
                                np.array([1 - 1j, 0.5, -2j]))

    orients_pairs = [("1.0", "0.0"), ("0.0", "0.0"), ("0.0", "0.0"),
                     ("0.0", "1.0")]
    expected = {
        "model.json":
            '{\n "n": 3,\n "s": 2,\n "r": 2,\n'
            ' "taus": [\n  0.25,\n  0.5\n ],\n'
            + _pairs_json("amps", [("2.0", "-0.5"), ("-1.25", "3.0")])
            + _pairs_json("orients", orients_pairs)
            + _pairs_json("B", [("1.0", "0.0"), ("0.25", "0.0"),
                                ("-1.0", "0.0"), ("-0.0", "-0.5"),
                                ("2.0", "0.0"), ("1.0", "1.0")])
            + ' "distribution": "gaussian",\n "seed": 7\n}\n',
        "report.json":
            '{\n "s": 2,\n "n": 3,\n "iters": 12,\n'
            ' "primal_residual": 0.125,\n "dual_residual": 0.0625,\n'
            ' "nuclear_norm": 3.5,\n "converged": false,\n'
            + _pairs_json("X_hat", [("1.5", "0.0"), ("0.0", "0.0"),
                                    ("-0.0", "-2.0"), ("3.0", "0.75"),
                                    ("0.125", "0.0"), ("-1.0", "0.0")],
                          last=True)
            + '}\n',
        "sources.json":
            '{\n "taus_hat": [\n  0.25,\n  0.5\n ],\n'
            ' "amps_hat": [\n  2.0,\n  1.5\n ],\n'
            + _pairs_json("orients_hat", orients_pairs)
            + ' "s": 2,\n "r": 2,\n "residual": 0.5,\n'
            ' "ill_conditioned": false,\n "estimator": "vhm",\n'
            ' "padded_peaks": true\n}\n',
        "pseudospectrum.csv": "tau,f\n0.0,1.0\n0.25,inf\n0.5,0.5\n0.75,2.0\n",
        "grid.csv": "r,s,count\n1,2,1\n2,2,2\n",
        "sweep.csv": "snr,estimator,mean_error\ninf,vhm:1,0.25\ninf,mmv,"
                     "0.125\n20,vhm:1,0.5\n20,mmv,1.5\n",
        "X.csv": "re_c0,im_c0,re_c1,im_c1,re_c2,im_c2\n"
                 "1.5,0.0,-0.0,-2.0,0.125,0.0\n0.0,0.0,3.0,0.75,-1.0,0.0\n",
        "y.csv": "re_y,im_y\n1.0,-1.0\n0.5,0.0\n-0.0,-2.0\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_text() == text, name


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
    saved_model, saved_B = io.read_problem(d1 / "model.json")
    assert np.array_equal(saved_model.taus, model.taus)
    assert np.array_equal(saved_B, B)
    doc = json.loads((d1 / "model.json").read_text())
    assert doc["distribution"] == "gaussian" and doc["seed"] == 7


def test_synth_noise_flag_perturbs_x_only(tmp_path):
    model_path, x_path, y_path = synth_files(tmp_path, "--snr", 20)
    model, B = io.read_problem(model_path)
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
        model, _ = io.read_problem(tmp_path / "model.json")
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
    # n1 = 5 makes a wide 15 x 60 lift, which svt transposes; that split
    # does not recover X, but its Xhat still meets the measurements
    wide = tmp_path / "wide"
    wide.mkdir()
    assert run_cli("solve", "--model", model_path, "--y", tmp_path / "y.csv",
                   "--n1", 5, "--out-dir", wide) == 0
    _, B = io.read_problem(model_path)
    y = io.read_complex_vector_csv(tmp_path / "y.csv")
    X_wide = io.read_complex_matrix_csv(wide / "Xhat.csv")
    assert np.linalg.norm(apply_measurement(X_wide, B) - y) \
        <= 1e-12 * np.linalg.norm(y)


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


# a count must be a JSON integer: a float, a string or a bool is no count,
# even where int() would take it; and it must agree with the length of its
# array (4 taus and amps, 3 x 4 orients, 64 x 3 B)
COUNTS = {"float_n": ("n", 64.9), "float_r": ("r", 4.5),
          "string_s": ("s", "3"), "bool_n": ("n", True),
          "zero_r": ("r", 0), "negative_n": ("n", -64),
          "r_above_taus": ("r", 5), "zero_s": ("s", 0)}


@pytest.mark.parametrize("case", ["top_level_list", "null_n", "flat_amps",
                                  "flat_B", *COUNTS])
def test_solve_rejects_malformed_model_json(tmp_path, capsys, case):
    model_path, _, y_path = synth_files(tmp_path)
    doc = json.loads(model_path.read_text())
    if case == "top_level_list":
        doc = [1, 2]
    elif case == "null_n":
        doc["n"] = None
    elif case == "flat_amps":
        doc["amps"] = [1.0, 2.0]
    elif case == "flat_B":
        doc["B"] = [x for pair in doc["B"] for x in pair]
    else:
        key, value = COUNTS[case]
        doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("solve", "--model", bad, "--y", y_path,
                   "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed problem file %s: " % bad)
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


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
    model, _ = io.read_problem(model_path)
    err = hausdorff_distance(model.taus, doc["taus_hat"], metric="wraparound")
    assert err <= 1e-4
    assert doc["estimator"] == "vhm"
    assert doc["padded_peaks"] is False
    curve_lines = (tmp_path / "pseudospectrum.csv").read_text().splitlines()
    assert curve_lines[0] == "tau,f"
    assert len(curve_lines) == 10001
    assert all(float(line.split(",")[1]) > 0 for line in curve_lines[1:])
    svg = (tmp_path / "pseudospectrum.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # 5 points, odd and below 2 n2 - 1, so the diagonals of P alias; and
    # 999 points, odd and unaliased
    for step, count in (("0.2", 5), ("0.001001001001001001", 999)):
        out = tmp_path / ("step" + step)
        out.mkdir()
        assert run_cli("music", "--x", x_path, "--r", 4, "--grid-step", step,
                       "--out-dir", out) == 0
        lines = (out / "pseudospectrum.csv").read_text().splitlines()
        assert len(lines) == count + 1
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:])
    # the same picks from X at any finite scale, and amplitudes that scale
    # with it; nothing written is nan or a bare Infinity
    X = io.read_complex_matrix_csv(x_path)
    for factor in (1e160, 1e-170, 1e300, 1e-300):
        out = tmp_path / ("x%g" % factor)
        out.mkdir()
        io.write_complex_matrix_csv(out / "X.csv", factor * X)
        assert run_cli("music", "--x", out / "X.csv", "--r", 4,
                       "--out-dir", out) == 0
        scaled = json.loads((out / "sources.json").read_text(),
                            parse_constant=_reject_constant)
        assert scaled["taus_hat"] == doc["taus_hat"]
        assert scaled["padded_peaks"] is False
        np.testing.assert_allclose(scaled["amps_hat"],
                                   factor * np.array(doc["amps_hat"]),
                                   rtol=1e-12)
        assert "nan" not in (out / "pseudospectrum.csv").read_text()


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_music_single_row_equals_vhm_on_one_row(tmp_path):
    d_single = tmp_path / "single"
    d_vhm = tmp_path / "vhm"
    d_single.mkdir()
    d_vhm.mkdir()
    assert run_cli("synth", "--n", 32, "--s", 1, "--r", 2, "--seed", 5,
                   "--out-dir", tmp_path) == 0
    x_path = tmp_path / "X.csv"
    assert run_cli("music", "--x", x_path, "--r", 2, "--estimator", "single",
                   "--out-dir", d_single) == 0
    assert run_cli("music", "--x", x_path, "--r", 2, "--estimator", "vhm",
                   "--out-dir", d_vhm) == 0
    got = json.loads((d_single / "sources.json").read_text())
    want = json.loads((d_vhm / "sources.json").read_text())
    assert got["taus_hat"] == want["taus_hat"]


def test_music_error_exit_codes(tmp_path, capsys):
    _, x_path, _ = synth_files(tmp_path)
    assert run_cli("music", "--x", x_path, "--out-dir", tmp_path) == 2
    assert run_cli("music", "--x", x_path, "--r", 5, "--estimator", "mmv",
                   "--out-dir", tmp_path) == 2
    assert run_cli("music", "--x", x_path, "--r", 4, "--estimator", "vhm:9",
                   "--out-dir", tmp_path) == 2
    assert run_cli("music", "--x", tmp_path / "nope.csv", "--r", 4,
                   "--out-dir", tmp_path) == 4
    # a lift of rows rows at split n1 has rank at most rows * n1 < r = 4
    out = tmp_path / "out"
    out.mkdir()
    for tag, n1, rows_n1, n2 in (("single", 3, 3, 62), ("vhm:2", 1, 2, 64)):
        capsys.readouterr()
        assert run_cli("music", "--x", x_path, "--r", 4, "--estimator", tag,
                       "--n1", n1, "--out-dir", out) == 2
        assert capsys.readouterr().err == "error: model order must satisfy " \
            "0 <= r <= min(rows*n1, n2 - 1), got r=4, rows*n1=%d and n2=%d\n" \
            % (rows_n1, n2)
        assert not any(out.iterdir())


def test_music_tag_matches_sweep_estimator(tmp_path, capsys):
    # music takes the sweep's estimator tags and runs the same estimator
    _, x_path, _ = synth_files(tmp_path)
    capsys.readouterr()
    assert run_cli("music", "--x", x_path, "--r", 4, "--estimator", "vhm:2",
                   "--out-dir", tmp_path) == 0
    doc = json.loads((tmp_path / "sources.json").read_text())
    want = estimate_frequencies(io.read_complex_matrix_csv(x_path), 4, "vhm:2")
    assert doc["taus_hat"] == [float(t) for t in want]
    assert doc["estimator"] == "vhm:2"
    assert capsys.readouterr().out.startswith("music: estimator=vhm:2 ")


@pytest.mark.parametrize("n1", ["7", "0", "1", "config"])
def test_music_mmv_rejects_n1(tmp_path, capsys, n1):
    # mmv lifts at n1 = 1; an n1 given with it is an error, not ignored
    assert run_cli("synth", "--n", 32, "--s", 4, "--r", 3, "--seed", 2,
                   "--out-dir", tmp_path) == 0
    out = tmp_path / "out"
    out.mkdir()
    if n1 == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n1": 7}))
        extra, n1 = ("--config", cfg), "7"
    else:
        extra = ("--n1", n1)
    capsys.readouterr()
    assert run_cli("music", "--x", tmp_path / "X.csv", "--r", 3,
                   "--estimator", "mmv", *extra, "--out-dir", out) == 2
    assert capsys.readouterr().err == \
        "error: mmv lifts at n1 = 1 and takes no n1, got %s\n" % n1
    assert not any(out.iterdir())


def test_parser_built_once_and_reused(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run_cli("synth", "--n", 16, "--s", 2, "--r", 2,
                   "--out-dir", tmp_path) == 0
    capsys.readouterr()
    # the parser an earlier call used still rejects a bad command line,
    # with the same usage error as a freshly built parser
    for argv, message in (
            (["synth", "--n"], "argument --n: expected one argument"),
            (["synth", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: vhlift ")
        assert err.endswith("error: %s\n" % message)
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", [
    ("music", "--x", "X.csv", "--r", 4, "--rows", 2),
    ("music", "--x", "X.csv", "--r", 4, "--estimator", "single", "--row", 0),
    ("solve", "--rank-cap", 2),
    ("phase-transition", "--values1", 1, "--values2", 1, "--fixed", "n=8",
     "--trials", 1, "--rank-cap", 2),
    ("snr-sweep", "--trials", 1, "--metric", "plain"),
])
def test_removed_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out-dir", tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s" % argv[-2] in err
    assert "Traceback" not in err


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


def test_config_file_sampling_laws_checked_before_trials(tmp_path, capsys):
    # an unknown law is an input error, not a trial that failed to recover
    out = tmp_path / "out"
    out.mkdir()
    grid = ("phase-transition", "--values1", 1, "--values2", 1,
            "--fixed", "n=8", "--trials", 2)
    sweep = ("snr-sweep", "--n", 16, "--s", 2, "--r", 2, "--trials", 2,
             "--estimators", "vhm:1")
    cases = (
        (grid, "distribution", "error: distribution must be one of "
         "gaussian, rademacher, dftrows, got 'uniform'\n"),
        (grid, "orient_law", "error: orient_law must be 'gaussian' or "
         "'bernoulli', got 'uniform'\n"),
        (sweep, "orient_law", "error: orient_law must be 'gaussian' or "
         "'bernoulli', got 'uniform'\n"),
    )
    cfg = tmp_path / "cfg.json"
    for argv, key, message in cases:
        cfg.write_text(json.dumps({key: "uniform"}))
        assert run_cli(*argv, "--config", cfg, "--out-dir", out) == 2
        assert capsys.readouterr().err == message  # no trial ran
        assert not any(out.iterdir())
    # any letter case names a distribution, as it does for synth
    cfg.write_text(json.dumps({"distribution": "DFTROWS"}))
    assert run_cli(*grid, "--config", cfg, "--out-dir", out) == 0


@pytest.mark.parametrize("argv,key", [
    (("synth",), "distribution"),
    (("synth",), "orient_law"),
    (("phase-transition", "--values1", 1, "--values2", 1, "--fixed", "n=8",
      "--trials", 2), "distribution"),
    (("phase-transition", "--values1", 1, "--values2", 1, "--fixed", "n=8",
      "--trials", 2), "orient_law"),
    (("snr-sweep", "--n", 16, "--s", 2, "--r", 2, "--trials", 2,
      "--estimators", "vhm:1"), "orient_law"),
    (("synth",), "seed"),
    (("phase-transition", "--values1", 1, "--values2", 1, "--trials", 2),
     "fixed"),
    (("phase-transition", "--values1", 1, "--values2", 1, "--fixed", "n=8",
      "--trials", 2), "seed"),
    (("snr-sweep", "--n", 16, "--s", 2, "--r", 2, "--trials", 2,
      "--estimators", "vhm:1"), "seed"),
])
def test_bad_flag_value_reported_like_config_value(tmp_path, capsys, argv,
                                                   key):
    # one check for a flag and a config file alike; a seed is an integer,
    # so its bad value is a negative one
    bad = -1 if key == "seed" else "x"
    out = tmp_path / "out"
    out.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: bad}))
    flag = "--" + key.replace("_", "-")
    assert run_cli(*argv, flag, bad, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be " % key)
    assert err.count("\n") == 1
    assert run_cli(*argv, "--config", cfg, "--out-dir", out) == 2
    assert capsys.readouterr().err == err
    assert not any(out.iterdir())


def test_distribution_flag_takes_any_letter_case(tmp_path):
    flag, config = tmp_path / "flag", tmp_path / "config"
    flag.mkdir()
    config.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": "DFTROWS"}))
    assert run_cli("synth", "--distribution", "DFTROWS", "--out-dir",
                   flag) == 0
    assert run_cli("synth", "--config", cfg, "--out-dir", config) == 0
    assert (flag / "model.json").read_bytes() == \
        (config / "model.json").read_bytes()


def test_missing_out_dir_found_before_any_work(tmp_path, capsys):
    missing = tmp_path / "missing"
    (tmp_path / "file").write_text("")
    for out_dir, reason in ((missing, "No such file or directory"),
                            (tmp_path / "file", "Not a directory")):
        for argv in (("phase-transition", "--values1", 1, "--values2", 1,
                      "--fixed", "n=8", "--trials", 2),
                     ("synth", "--n", 8, "--s", 2, "--r", 1)):
            assert run_cli(*argv, "--out-dir", out_dir) == 4
            err = capsys.readouterr().err
            assert err.startswith("I/O error: ")
            assert reason in err and str(out_dir) in err
            assert err.count("\n") == 1  # no progress line: no trial ran
    assert not missing.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": 5}))
    assert run_cli("synth", "--config", cfg) == 2
    assert capsys.readouterr().err == "error: out_dir must be a string\n"


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
    # a separation is a distance
    for argv, value in ((("synth", "--delta", "-1"), "-1.0"),
                        (("phase-transition", "--values1", 1, "--values2", 2,
                          "--fixed", "n=16", "--trials", 1, "--delta",
                          "-0.5"), "-0.5"),
                        (("snr-sweep", "--n", 16, "--s", 2, "--r", 2,
                          "--trials", 1, "--estimators", "vhm:1", "--snr",
                          20, "--delta", "-0.1"), "-0.1")):
        assert run_cli(*argv, "--out-dir", out) == 2
        assert capsys.readouterr().err == \
            "error: separation delta must be nonnegative, got %s\n" % value
    # an infinite tolerance, SVT inverse threshold or success threshold
    # would make every solve or trial pass
    model, _, y = synth_files(tmp_path)
    solve = ("solve", "--model", model, "--y", y)
    for argv, message in (
            ((*solve, "--tol", "inf"), "tol_rel must be positive and finite"),
            ((*solve, "--rho", "inf"), "rho must be positive and finite"),
            (("phase-transition", "--values1", 1, "--values2", 2, "--fixed",
              "n=16", "--trials", 1, "--threshold", "inf"),
             "threshold must be positive and finite")):
        capsys.readouterr()
        assert run_cli(*argv, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s" % message) and err.endswith(
            "got inf\n")
        assert len(err.splitlines()) == 1  # no trial ran
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
    assert run_cli("snr-sweep", "--snr", "5;3", "--out-dir", tmp_path) == 2


def test_snr_sweep_model_order_checked_before_trials(tmp_path, capsys):
    # n = 16 gives n2 = 9, so r = 9 leaves no noise subspace
    assert run_cli("snr-sweep", "--n", 16, "--s", 2, "--r", 9,
                   "--estimators", "vhm", "--trials", 4,
                   "--out-dir", tmp_path) == 2
    assert capsys.readouterr().err == \
        "error: model order must satisfy 0 <= r <= min(rows*n1, n2 - 1), " \
        "got r=9, rows*n1=16 and n2=9\n"
    assert not any(tmp_path.iterdir())


def test_snr_sweep_grid_below_r_checked_before_trials(tmp_path, capsys):
    # step 1.0 gives one grid point, and r = 2 peaks cannot be picked on it
    assert run_cli("snr-sweep", "--n", 16, "--s", 2, "--r", 2, "--snr", 20,
                   "--estimators", "vhm:1", "--trials", 1, "--grid-step", 1.0,
                   "--out-dir", tmp_path) == 2
    assert capsys.readouterr().err == "error: grid_step 1.0 gives a grid " \
        "of 1 points, fewer than the r=2 peaks to pick\n"
    assert not (tmp_path / "sweep.csv").exists()


# ------------------------------------------------------------- config file

def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 24, "s": 2, "r": 2, "seed": 9}))
    assert run_cli("synth", "--config", cfg, "--r", 1,
                   "--out-dir", tmp_path) == 0
    model, B = io.read_problem(tmp_path / "model.json")
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


@pytest.mark.parametrize("command, doc, message", [
    ("phase-transition", {"threshold": [1]}, "threshold must be a number"),
    ("snr-sweep", {"grid_step": [1]}, "grid_step must be a number"),
    ("synth", {"delta": [1]}, "delta must be a number"),
    ("synth", {"seed": [1]}, "seed must be an integer"),
    ("solve", {"rho": [1]}, "rho must be a number"),
    ("music", {"grid_step": {}}, "grid_step must be a number"),
    # a number would name a file descriptor to open(); 0 is stdin
    ("music", {"x": 5}, "x must be a string"),
    ("music", {"x": 0}, "x must be a string"),
    ("solve", {"model": 5}, "model must be a string"),
    ("solve", {"y": 5}, "y must be a string"),
    # removed options are unknown keys, null or not
    ("music", {"rows": 2}, "unknown config keys: rows"),
    ("music", {"row": None}, "unknown config keys: row"),
    ("solve", {"rank_cap": 2}, "unknown config keys: rank_cap"),
    ("phase-transition", {"rank_cap": None},
     "unknown config keys: rank_cap"),
    # a JSON float is no integer and true/false no number, as for the flags
    ("synth", {"n": 64.9}, "n must be an integer"),
    ("synth", {"seed": 7.8}, "seed must be an integer"),
    ("synth", {"n": 64.0}, "n must be an integer"),
    ("phase-transition", {"trials": 1.5}, "trials must be an integer"),
    ("phase-transition", {"threads": 2.7}, "threads must be an integer"),
    ("phase-transition", {"threshold": True}, "threshold must be a number"),
    ("solve", {"max_iters": 10.5}, "max_iters must be an integer"),
    ("solve", {"rho": False}, "rho must be a number"),
    ("music", {"svg": "no"}, "svg must be true or false"),
    ("music", {"svg": 1}, "svg must be true or false"),
    # an integer no float can hold is no number either
    ("solve", {"rho": 10 ** 400}, "rho must be a number"),
    # a split outside 1 <= n1 <= n names n1 and its range
    ("solve", {"n1": 70}, "n1 must be between 1 and n=64, got 70\n"),
    ("music", {"n1": 0}, "n1 must be between 1 and n=64, got 0\n"),
    # a grid too coarse for r peaks is found before X.csv is read
    ("music", {"grid_step": 0.5, "x": "missing.csv"}, "grid_step 0.5 gives "
     "a grid of 2 points, fewer than the r=4 peaks to pick\n"),
    ("snr-sweep", {"metric": "plain"}, "unknown config keys: metric\n"),
])
def test_config_value_of_wrong_type_or_removed_key(tmp_path, monkeypatch, capsys, command,
                                    doc, message):
    synth_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    extra = ("--r", 4) if command == "music" else ()
    capsys.readouterr()
    assert run_cli(command, "--config", cfg, *extra, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s" % message)
    assert err.count("\n") == 1
    assert not any(out.iterdir())


def test_flag_value_parsed_like_config_value(tmp_path, capsys):
    # a flag's string goes through its option's parse, not argparse's type
    for argv, message in ((("synth", "--n", "x"), "n must be an integer, "
                           "got 'x'"),
                          (("synth", "--n", "64.0"), "n must be an integer, "
                           "got '64.0'"),
                          (("solve", "--rho", "x"), "rho must be a number, "
                           "got 'x'")):
        assert run_cli(*argv, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not any(tmp_path.iterdir())
    # and a config file's string as the flag's
    flag, config = tmp_path / "flag", tmp_path / "config"
    flag.mkdir()
    config.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "64"}))
    assert run_cli("synth", "--n", 64, "--out-dir", flag) == 0
    assert run_cli("synth", "--config", cfg, "--out-dir", config) == 0
    assert (flag / "model.json").read_bytes() == \
        (config / "model.json").read_bytes()


CONFIG_KEYS = {
    "synth": "n s r seed distribution snr delta orient_law out_dir",
    "solve": "model y out_dir rho tol max_iters n1",
    "music": "x r estimator grid_step n1 out_dir svg",
    "phase-transition": "axis1 values1 axis2 values2 fixed trials threshold "
                        "seed distribution delta orient_law rho tol "
                        "max_iters threads out_dir",
    "snr-sweep": "n s r snr estimators trials delta orient_law grid_step "
                 "seed threads out_dir",
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_key_set(tmp_path, capsys, command):
    # every documented key is accepted; only the extra one is reported
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict.fromkeys(CONFIG_KEYS[command].split()
                                            + ["zzz"])))
    assert run_cli(command, "--config", cfg) == 2
    assert capsys.readouterr().err == "error: unknown config keys: zzz\n"
