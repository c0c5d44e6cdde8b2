"""Command-line front end: synthesis, solving, frequency estimation, and
the two Monte Carlo experiment harnesses.

Every subcommand is a thin adapter around the library modules; it parses
and validates options, calls the library, and writes files.  Each
subcommand's options are one table of Opt rows, from which both the
argparse flags and the accepted --config keys derive.  Option precedence
is flags over --config JSON over built-in defaults.  Exit codes: 0
success, 2 usage or validation problem, 3 solver hit the iteration cap,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import io
from .bench import (
    PhaseTransitionConfig,
    SweepConfig,
    grid_to_csv,
    grid_to_svg,
    run_phase_transition,
    run_snr_sweep,
    sweep_to_csv,
    sweep_to_svg,
)
from .estimate import (
    GRID_STEP,
    noise_subspace,
    pick_peaks,
    pseudospectrum,
    recover_amplitudes,
    save_pseudospectrum_csv,
    sources_to_dict,
)
from .figures import curve_svg
from .lift import LiftShape
from .model import (
    DISTRIBUTIONS,
    ORIENT_LAWS,
    add_noise,
    apply_measurement,
    incoherence_diagnostic,
    load_problem,
    sample_model,
    sample_subspace,
    save_problem,
    synthesize_data_matrix,
)
from .solver import SolverConfig, save_report, solve_vhl

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONV = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- values

def _positive_int(opts, key) -> int:
    try:
        v = int(opts[key])
    except (TypeError, ValueError):
        raise CliError("%s must be an integer" % key) from None
    if v < 1:
        raise CliError("%s must be positive, got %d" % (key, v))
    return v


def _int_list(opts, key) -> tuple:
    text = opts[key]
    try:
        vals = tuple(int(tok) for tok in str(text).split(","))
    except ValueError:
        raise CliError("expected a comma-separated integer list, got %r"
                       % (text,)) from None
    if not vals:
        raise CliError("empty value list")
    return vals


def _float_list(opts, key) -> tuple:
    text = opts[key]
    try:
        return tuple(float(tok) for tok in str(text).split(","))
    except ValueError:
        raise CliError("expected a comma-separated number list, got %r"
                       % (text,)) from None


def _str_list(opts, key) -> tuple:
    return tuple(str(opts[key]).split(","))


def _parse_fixed(opts, key) -> dict:
    text = opts[key]
    parts = str(text).split("=")
    if len(parts) != 2:
        raise CliError("--fixed must look like name=value, got %r"
                       % (text,))
    try:
        return {parts[0].strip(): int(parts[1])}
    except ValueError:
        raise CliError("--fixed value must be an integer") from None


def _as(conv):
    def parse(opts, key):
        try:
            return conv(opts[key])
        except TypeError:  # a JSON list or object from a config file
            raise CliError("%s must be %s, got %r"
                           % (key, "an integer" if conv is int else "a number",
                              opts[key])) from None
    return parse


def _optional(parse):
    return lambda opts, key: None if opts[key] is None else parse(opts, key)


_int = _as(int)
_float = _as(float)
_maybe_int = _optional(_int)
_maybe_float = _optional(_float)
NULLABLE = (_maybe_int, _maybe_float)  # parses that read null


def _path(opts, key) -> str:
    """A path option; a number would name a file descriptor to open()."""
    path = opts[key]
    if not isinstance(path, str):
        raise CliError("%s must be a string" % key)
    return path


def _check_out_dir(opts) -> None:
    """Fail before any work is done, not when the first output is written."""
    path = _path(opts, "out_dir")
    if not os.path.isdir(path):
        code = errno.ENOTDIR if os.path.exists(path) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _out(opts, name: str) -> str:
    return os.path.join(opts["out_dir"], name)


# ---------------------------------------------------------------- options

class Opt:
    """One option of a subcommand.

    `key` is its --config key and, with dashes for underscores, its flag.
    An option with a `field` fills that field of the subcommand's config
    dataclass through `parse(opts, key)` (by default the argparse type, or
    str); unless a flag or the config file sets it, the dataclass default
    applies.  Any other option starts at `default`.  A JSON null in the
    config file means "unset" for an option whose `parse` is in NULLABLE
    and is rejected for any other.  The remaining keywords go to
    add_argument.
    """

    def __init__(self, key, default=None, field=None, parse=None, **spec):
        self.key = key
        self.default = default
        self.field = field
        self.parse = parse or _as(spec.get("type", str))
        self.spec = spec


def _fields(opts, table) -> dict:
    """Config-dataclass keyword arguments from the table's set options."""
    return {o.field: o.parse(opts, o.key) for o in table
            if o.field is not None and o.key in opts}


def _merged(args, table) -> dict:
    """flags > config-file keys > defaults."""
    opts = {o.key: o.default for o in table if o.field is None}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise CliError("config file must hold a JSON object")
        unknown = sorted(set(doc) - {o.key for o in table})
        if unknown:
            raise CliError("unknown config keys: %s" % ", ".join(unknown))
        opts.update(doc)
    for o in table:
        val = getattr(args, o.key)
        if val is not None:
            opts[o.key] = val
        elif o.key in opts and opts[o.key] is None \
                and o.parse not in NULLABLE:
            raise CliError("config key %s must not be null" % o.key)
    return opts


OUT_DIR = Opt("out_dir", ".", help="directory for output files (default .)")

SYNTH = (
    OUT_DIR,
    Opt("n", 64, type=int),
    Opt("s", 3, type=int),
    Opt("r", 4, type=int),
    Opt("seed", 0, type=int),
    Opt("distribution", "gaussian", choices=DISTRIBUTIONS),
    Opt("snr", parse=_maybe_float, type=float,
        help="add noise to X.csv at this SNR"),
    Opt("delta", parse=_maybe_float, type=float,
        help="minimum wraparound separation"),
    Opt("orient_law", "gaussian", choices=ORIENT_LAWS),
)

SOLVER = (  # SolverConfig fields
    Opt("rho", field="rho", type=float,
        help="inverse SVT threshold, relative to unit-RMS data"),
    Opt("tol", field="tol_rel", type=float),
    Opt("max_iters", field="max_iters", parse=_positive_int, type=int),
)

SOLVE = (
    OUT_DIR,
    Opt("model", "model.json", help="problem JSON from synth"),
    Opt("y", "y.csv", help="measurement CSV"),
    *SOLVER,
    Opt("n1", parse=_maybe_int, type=int, help="override the lift split"),
)

MUSIC = (
    OUT_DIR,
    Opt("x", "X.csv", help="data matrix CSV"),
    Opt("r", parse=_maybe_int, type=int, help="model order (required)"),
    Opt("estimator", "vhm", help="vhm, vhm:K (first K rows), single "
        "(first row) or mmv (default vhm)"),
    Opt("grid_step", GRID_STEP, type=float),
    Opt("n1", parse=_maybe_int, type=int),
    Opt("svg", False, action="store_const", const=True,
        help="also write pseudospectrum.svg"),
)

GRID = (  # PhaseTransitionConfig fields
    Opt("axis1", field="axis1_name"),
    Opt("values1", field="axis1_values", parse=_int_list),
    Opt("axis2", field="axis2_name"),
    Opt("values2", field="axis2_values", parse=_int_list),
    Opt("fixed", field="fixed", parse=_parse_fixed,
        help="remaining parameter, e.g. n=64"),
    Opt("trials", field="trials", parse=_positive_int, type=int),
    Opt("threshold", field="threshold", type=float),
    Opt("seed", field="base_seed", type=int),
    Opt("distribution", field="distribution", choices=DISTRIBUTIONS),
    Opt("delta", field="delta", parse=_maybe_float, type=float),
    Opt("orient_law", field="orient_law", choices=ORIENT_LAWS),
)

THREADS = Opt("threads", 1, type=int)

PHASE = (OUT_DIR, *GRID, *SOLVER, THREADS)

SWEEP = (  # SweepConfig fields, then threads
    OUT_DIR,
    Opt("n", field="n", parse=_positive_int, type=int),
    Opt("s", field="s", parse=_positive_int, type=int),
    Opt("r", field="r", parse=_positive_int, type=int),
    Opt("snr", field="snr_db", parse=_float_list,
        help="comma list of SNR dB values (inf allowed)"),
    Opt("estimators", field="estimators", parse=_str_list,
        help="comma list from vhm, vhm:K, single, mmv"),
    Opt("trials", field="trials", parse=_positive_int, type=int),
    Opt("delta", field="delta", parse=_maybe_float, type=float),
    Opt("orient_law", field="orient_law", choices=ORIENT_LAWS),
    Opt("metric", field="metric", choices=("plain", "wraparound")),
    Opt("grid_step", field="grid_step", type=float),
    Opt("seed", field="base_seed", type=int),
    THREADS,
)


# ---------------------------------------------------------------- commands

def cmd_synth(opts) -> int:
    n = _positive_int(opts, "n")
    s = _positive_int(opts, "s")
    r = _positive_int(opts, "r")
    if n < s:
        raise CliError("need n >= s, got n=%d s=%d" % (n, s))
    seed = _int(opts, "seed")
    distribution = str(opts["distribution"]).lower()
    rng = np.random.default_rng(seed)
    model = sample_model(r, s, seed=rng, delta=_maybe_float(opts, "delta"),
                         orient_law=str(opts["orient_law"]))
    B = sample_subspace(distribution, n, s, seed=rng)
    X = synthesize_data_matrix(model, n)
    y = apply_measurement(X, B)
    snr = _maybe_float(opts, "snr")
    X_out = X if snr is None else add_noise(X, snr, seed=rng)
    diag = incoherence_diagnostic(model, LiftShape.default(n, s))
    save_problem(_out(opts, "model.json"), model, B, distribution, seed)
    io.write_complex_matrix_csv(_out(opts, "X.csv"), X_out)
    io.write_complex_vector_csv(_out(opts, "y.csv"), y)
    print("synth: n=%d s=%d r=%d dist=%s mu1=%.4g -> model.json X.csv y.csv"
          % (n, s, r, distribution, diag.mu1))
    return EXIT_OK


def cmd_solve(opts) -> int:
    _, B = load_problem(_path(opts, "model"))
    n, s = B.shape
    y = io.read_complex_vector_csv(_path(opts, "y"))
    if y.shape[0] != n:
        raise CliError("measurement length %d does not match the sensing "
                       "matrix (%d rows)" % (y.shape[0], n))
    shape = LiftShape.default(n, s, _maybe_int(opts, "n1"))
    report = solve_vhl(y, B, shape, SolverConfig(**_fields(opts, SOLVER)))
    save_report(_out(opts, "report.json"), report)
    io.write_complex_matrix_csv(_out(opts, "Xhat.csv"), report.X_hat)
    print("solve: %s in %d iters, primal %.3e, dual %.3e, nuclear norm %.6g"
          % ("converged" if report.converged else "stopped",
             report.iters, report.primal_residual, report.dual_residual,
             report.nuclear_norm))
    return EXIT_OK if report.converged else EXIT_NONCONV


def cmd_music(opts) -> int:
    if opts["r"] is None:
        raise CliError("--r (model order) is required")
    r = _positive_int(opts, "r")
    estimator = str(opts["estimator"])
    X = io.read_complex_matrix_csv(_path(opts, "x"))
    u_perp = noise_subspace(X, r, estimator, _maybe_int(opts, "n1"))
    curve = pseudospectrum(u_perp, _float(opts, "grid_step"))
    peaks = pick_peaks(curve, r)
    sources = recover_amplitudes(X, peaks.taus)
    save_pseudospectrum_csv(_out(opts, "pseudospectrum.csv"), curve)
    io.write_json(_out(opts, "sources.json"),
                  {**sources_to_dict(sources), "estimator": estimator,
                   "padded_peaks": peaks.padded})
    if opts["svg"]:
        svg = curve_svg(curve.grid, curve.values, peaks=peaks.taus,
                        title="pseudospectrum (%s, r=%d)" % (estimator, r))
        with open(_out(opts, "pseudospectrum.svg"), "w") as fh:
            fh.write(svg)
    print("music: estimator=%s taus_hat=%s residual=%.3e"
          % (estimator,
             " ".join("%.6f" % t for t in np.sort(sources.taus_hat)),
             sources.residual))
    return EXIT_OK


def cmd_phase_transition(opts) -> int:
    config = PhaseTransitionConfig(**_fields(opts, GRID),
                                   solver=SolverConfig(**_fields(opts,
                                                                 SOLVER)))
    grid = run_phase_transition(config, workers=_positive_int(opts, "threads"),
                                progress=_stderr_progress)
    grid_to_csv(grid, _out(opts, "grid.csv"))
    grid_to_svg(grid, _out(opts, "grid.svg"))
    cells = len(config.axis1_values) * len(config.axis2_values)
    print("phase-transition: %d cells x %d trials -> grid.csv grid.svg"
          % (cells, config.trials))
    return EXIT_OK


def cmd_snr_sweep(opts) -> int:
    config = SweepConfig(**_fields(opts, SWEEP))
    result = run_snr_sweep(config, workers=_positive_int(opts, "threads"),
                           progress=_stderr_progress)
    sweep_to_csv(result, _out(opts, "sweep.csv"))
    sweep_to_svg(result, _out(opts, "sweep.svg"))
    print("snr-sweep: %d SNR levels x %d estimators x %d trials -> "
          "sweep.csv sweep.svg" % (len(config.snr_db),
                                   len(config.estimators), config.trials))
    return EXIT_OK


def _stderr_progress(line: str) -> None:
    print(line, file=sys.stderr)


# ---------------------------------------------------------------- parser

COMMANDS = (
    ("synth", cmd_synth, "sample a model and write model/data files", SYNTH),
    ("solve", cmd_solve, "recover the data matrix from measurements", SOLVE),
    ("music", cmd_music, "estimate frequencies from a data matrix", MUSIC),
    ("phase-transition", cmd_phase_transition,
     "success-count grid over two of n, r, s", PHASE),
    ("snr-sweep", cmd_snr_sweep,
     "estimator error vs SNR on noisy data matrices", SWEEP),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vhlift",
        description="Blind super-resolution via a lifted block-Hankel "
                    "nuclear-norm program, with MUSIC-style frequency "
                    "retrieval and Monte Carlo experiment harnesses.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext, table in COMMANDS:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON file with option defaults")
        for o in table:
            p.add_argument("--" + o.key.replace("_", "-"), dest=o.key,
                           **o.spec)
        p.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merged(args, args.table)
        _check_out_dir(opts)
        return args.func(opts)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
