"""Every artifact file the library and the CLI write or read, in the
formats FORMATS.md lists; the computing modules open no file.

CSV convention: a complex column named <name> occupies two adjacent CSV
columns re_<name>, im_<name>.  Matrices are written one data-matrix row per
CSV row, with data-matrix columns named c0, c1, ...; vectors are written one
entry per CSV row.  Floats are rendered with repr, which round-trips
exactly, so rewriting a parsed file is byte-identical.  Fields must be
finite.

JSON convention: a complex matrix is a list of [re, im] pairs in
column-major order.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .figures import curve_svg, heatmap_svg, sweep_svg
from .model import PointSourceModel

__all__ = [
    "write_complex_matrix_csv",
    "read_complex_matrix_csv",
    "write_complex_vector_csv",
    "read_complex_vector_csv",
    "complex_to_pairs",
    "pairs_to_complex",
    "write_json",
    "write_problem",
    "read_problem",
    "write_report",
    "write_sources",
    "write_pseudospectrum_csv",
    "write_pseudospectrum_svg",
    "write_grid_csv",
    "write_grid_svg",
    "write_sweep_csv",
    "write_sweep_svg",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_lines(path, lines) -> None:
    _write_text(path, "\n".join(lines) + "\n")


def write_complex_matrix_csv(path, M: np.ndarray) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    header = ",".join("re_c%d,im_c%d" % (j, j) for j in range(M.shape[1]))
    lines = [header]
    for row in M:
        lines.append(",".join("%s,%s" % (_fmt(z.real), _fmt(z.imag))
                              for z in row))
    _write_lines(path, lines)


def _parse_pair_header(tokens):
    if len(tokens) < 2 or len(tokens) % 2 != 0:
        raise ValueError("header must hold re_/im_ column pairs")
    for a, b in zip(tokens[::2], tokens[1::2]):
        if not (a.startswith("re_") and b.startswith("im_")
                and a[3:] == b[3:]):
            raise ValueError("header pair %r,%r is not re_<name>,im_<name>"
                             % (a, b))
    return len(tokens) // 2


def read_complex_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV file %s" % (path,))
    ncols = _parse_pair_header(lines[0].split(","))
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2 * ncols:
            raise ValueError("row with %d fields, expected %d"
                             % (len(cells), 2 * ncols))
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            raise ValueError("non-numeric field in %s" % (path,)) from None
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("non-finite field in %s" % (path,))
        rows.append([complex(vals[2 * j], vals[2 * j + 1])
                     for j in range(ncols)])
    if not rows:
        raise ValueError("CSV %s has a header but no data rows" % (path,))
    return np.array(rows, dtype=np.complex128)


def write_complex_vector_csv(path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.complex128).ravel()
    lines = ["re_y,im_y"]
    for z in v:
        lines.append("%s,%s" % (_fmt(z.real), _fmt(z.imag)))
    _write_lines(path, lines)


def read_complex_vector_csv(path) -> np.ndarray:
    M = read_complex_matrix_csv(path)
    if M.shape[1] != 1:
        raise ValueError("expected a single complex column in %s" % (path,))
    return M[:, 0]


def complex_to_pairs(M) -> list:
    """Column-major [re, im] pairs of a complex array."""
    flat = np.asarray(M, dtype=np.complex128).ravel(order="F")
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_complex(pairs, rows: int, cols: int) -> np.ndarray:
    """Inverse of complex_to_pairs for a rows x cols matrix."""
    arr = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    if arr.size != rows * cols:
        raise ValueError("serialized matrix has wrong length")
    return arr.reshape((rows, cols), order="F")


def write_json(path, doc: dict) -> None:
    """Write doc as JSON with one-space indentation and a final newline."""
    _write_text(path, json.dumps(doc, indent=1) + "\n")


def write_problem(path, model: PointSourceModel, B: np.ndarray,
                  distribution: str, seed: int | None) -> None:
    """model.json: the model and the n x s sensing matrix B, with the law
    and seed B was drawn from as provenance (never read back)."""
    n, s = B.shape
    write_json(path, {
        "n": n,
        "s": s,
        "r": model.r,
        "taus": [float(t) for t in model.taus],
        "amps": complex_to_pairs(model.amps),
        "orients": complex_to_pairs(model.orients),
        "B": complex_to_pairs(B),
        "distribution": distribution,
        "seed": seed,
    })


def read_problem(path) -> tuple[PointSourceModel, np.ndarray]:
    """Read a problem file as (model, B).  A non-finite number, a field of
    the wrong JSON type, a count that disagrees with the length of its
    array or a value the model rejects raises a ValueError that names the
    file."""
    def finite(text):
        value = float(text)
        if not np.isfinite(value):
            raise ValueError("non-finite value in %s" % (path,))
        return value

    with open(path) as fh:
        doc = json.load(fh, parse_float=finite, parse_constant=finite)

    def count(key):
        value = doc[key]
        if type(value) is not int:  # not a float, string or bool
            raise TypeError("%s must be a JSON integer, got %r" % (key, value))
        return value

    try:
        n, s, r = count("n"), count("s"), count("r")
        for key, size, counts in (("taus", r, "r"), ("amps", r, "r"),
                                  ("orients", s * r, "s*r"),
                                  ("B", n * s, "n*s")):
            if len(doc[key]) != size:
                raise ValueError("%s has %d entries, but %s = %d"
                                 % (key, len(doc[key]), counts, size))
        model = PointSourceModel(
            taus=np.asarray(doc["taus"], dtype=np.float64),
            amps=pairs_to_complex(doc["amps"], r, 1).ravel(),
            orients=pairs_to_complex(doc["orients"], s, r),
        )
        return model, pairs_to_complex(doc["B"], n, s)
    except (TypeError, KeyError, ValueError) as exc:  # e.g. a null count
        raise ValueError("malformed problem file %s: %s: %s"
                         % (path, type(exc).__name__, exc)) from None


def write_report(path, report) -> None:
    """report.json from a solver.SolveReport, without its histories."""
    s, n = report.X_hat.shape
    write_json(path, {
        "s": int(s),
        "n": int(n),
        "iters": report.iters,
        "primal_residual": report.primal_residual,
        "dual_residual": report.dual_residual,
        "nuclear_norm": report.nuclear_norm,
        "converged": report.converged,
        "X_hat": complex_to_pairs(report.X_hat),
    })


def write_sources(path, sources, estimator: str, padded: bool) -> None:
    """sources.json from an estimate.RecoveredSources, the estimator tag
    and whether pick_peaks padded its frequencies."""
    write_json(path, {
        "taus_hat": [float(t) for t in sources.taus_hat],
        "amps_hat": [float(a) for a in sources.amps_hat],
        "orients_hat": complex_to_pairs(sources.orients_hat),
        "s": int(sources.orients_hat.shape[0]),
        "r": int(sources.orients_hat.shape[1]),
        "residual": sources.residual,
        "ill_conditioned": sources.ill_conditioned,
        "estimator": estimator,
        "padded_peaks": padded,
    })


def write_pseudospectrum_csv(path, curve) -> None:
    """pseudospectrum.csv from an estimate.PseudospectrumCurve."""
    lines = ["tau,f"]
    for t, f in zip(curve.grid, curve.values):
        lines.append("%r,%r" % (float(t), float(f)))
    _write_lines(path, lines)


def write_pseudospectrum_svg(path, curve, peaks, estimator: str) -> None:
    _write_text(path, curve_svg(
        curve.grid, curve.values, peaks=peaks,
        title="pseudospectrum (%s, r=%d)" % (estimator, len(peaks))))


def write_grid_csv(path, grid) -> None:
    """grid.csv from a bench.TrialGrid."""
    cfg = grid.config
    counts = grid.counts
    lines = ["%s,%s,count" % (cfg.axis1_name, cfg.axis2_name)]
    for i, v1 in enumerate(cfg.axis1_values):
        for j, v2 in enumerate(cfg.axis2_values):
            lines.append("%d,%d,%d" % (v1, v2, counts[i, j]))
    _write_lines(path, lines)


def write_grid_svg(path, grid) -> None:
    cfg = grid.config
    fixed = ", ".join("%s=%d" % kv for kv in sorted(cfg.fixed.items()))
    title = "successful recoveries out of %d trials (%s)" \
        % (cfg.trials, fixed)
    _write_text(path, heatmap_svg(
        cfg.axis1_name, cfg.axis1_values, cfg.axis2_name, cfg.axis2_values,
        grid.counts, cfg.trials, title))


def write_sweep_csv(path, result) -> None:
    """sweep.csv from a bench.SweepResult."""
    cfg = result.config
    me = result.mean_errors
    lines = ["snr,estimator,mean_error"]
    for si, snr in enumerate(cfg.snr_db):
        for e, est in enumerate(cfg.estimators):
            lines.append("%g,%s,%r" % (snr, est, float(me[e, si])))
    _write_lines(path, lines)


def write_sweep_svg(path, result) -> None:
    cfg = result.config
    title = "mean frequency error vs SNR (n=%d, s=%d, r=%d, %d trials)" \
        % (cfg.n, cfg.s, cfg.r, cfg.trials)
    _write_text(path, sweep_svg(cfg.snr_db, cfg.estimators,
                                result.mean_errors, title))
