"""Command-line front end: synthesis, solving, frequency estimation, and
the two Monte Carlo experiment harnesses.

Every subcommand is a thin adapter around the library modules; it parses
and validates options, calls the library, and writes files.  Each
subcommand's options are one table of Opt rows, from which the argparse
flags, the accepted --config keys and the one parse of both derive.
Option precedence is flags over --config JSON over built-in defaults.
Exit codes: 0 success, 2 usage or validation problem, 3 solver hit the
iteration cap, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

import numpy as np

from . import io
from .bench import (
    PhaseTransitionConfig,
    SweepConfig,
    run_phase_transition,
    run_snr_sweep,
)
from .estimate import (
    GRID_STEP,
    check_grid,
    noise_subspace,
    pick_peaks,
    pseudospectrum,
    recover_amplitudes,
)
from .lift import LiftShape
from .model import (
    DISTRIBUTIONS,
    ORIENT_LAWS,
    add_noise,
    apply_measurement,
    incoherence_diagnostic,
    sample_model,
    sample_subspace,
    synthesize_data_matrix,
)
from .solver import SolverConfig, solve_vhl

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONV = 3
EXIT_IO = 4


# ---------------------------------------------------------------- values

def _as(conv, what):
    """Parse with conv.  A JSON true/false is no number and a JSON float
    no integer, just as the flag `--n 64.0` is none."""
    def parse(opts, key):
        val = opts[key]
        try:
            if not (isinstance(val, bool)
                    or conv is int and isinstance(val, float)):
                return conv(val)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ValueError("%s must be %s, got %r" % (key, what, val))
    return parse


_int = _as(int, "an integer")
_float = _as(float, "a number")


def _int_from(low, what):
    def parse(opts, key):
        v = _int(opts, key)
        if v < low:
            raise ValueError("%s must be %s, got %d" % (key, what, v))
        return v
    return parse


_positive_int = _int_from(1, "positive")
_seed = _int_from(0, "non-negative")  # what SeedSequence takes


def _optional(parse):
    return lambda opts, key: None if opts[key] is None else parse(opts, key)


_maybe_int = _optional(_int)
_maybe_float = _optional(_float)
_maybe_positive_int = _optional(_positive_int)
NULLABLE = (_maybe_int, _maybe_float, _maybe_positive_int)  # read null


def _str(opts, key) -> str:
    """A string option; a number given for a path would name a file
    descriptor to open()."""
    val = opts[key]
    if not isinstance(val, str):
        raise ValueError("%s must be a string" % key)
    return val


def _lower(opts, key) -> str:
    return _str(opts, key).lower()


def _bool(opts, key) -> bool:
    val = opts[key]
    if not isinstance(val, bool):
        raise ValueError("%s must be true or false, got %r" % (key, val))
    return val


def _list(conv, what):
    def parse(opts, key):
        text = opts[key]
        try:
            return tuple(conv(tok) for tok in str(text).split(","))
        except ValueError:
            raise ValueError("%s must be a comma-separated %s list, got %r"
                             % (key, what, text)) from None
    return parse


def _parse_fixed(opts, key) -> dict:
    text = opts[key]
    parts = str(text).split("=")
    if len(parts) == 2:
        try:
            return {parts[0].strip(): int(parts[1])}
        except ValueError:
            pass
    raise ValueError("%s must be name=integer, got %r" % (key, text))


def _check_out_dir(opts) -> None:
    """Fail before any work is done, not when the first output is written."""
    path = opts["out_dir"]
    if not os.path.isdir(path):
        code = errno.ENOTDIR if os.path.exists(path) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _out(opts, name: str) -> str:
    return os.path.join(opts["out_dir"], name)


# ---------------------------------------------------------------- options

class Opt:
    """One option of a subcommand.

    `key` is its --config key and, with dashes for underscores, its flag.
    `parse(opts, key)` (by default a string check) is the one place its
    value, a flag's string or a config file's JSON value, is converted and
    checked.  An option with a `field` fills that field of the
    subcommand's config dataclass; unless a flag or the config file sets
    it, the dataclass default applies.  Any other option starts at
    `default`.  A JSON null in the config file means "unset" for an option
    whose `parse` is in NULLABLE and is rejected for any other.  The
    remaining keywords go to add_argument.
    """

    def __init__(self, key, default=None, field=None, parse=_str, **spec):
        self.key = key
        self.default = default
        self.field = field
        self.parse = parse
        self.spec = spec


def _fields(opts, table) -> dict:
    """Config-dataclass keyword arguments from the table's set options."""
    return {o.field: opts[o.key] for o in table
            if o.field is not None and o.key in opts}


def _merged(args, table) -> dict:
    """Typed values of the set options: flags > config-file keys > defaults."""
    opts = {o.key: o.default for o in table if o.field is None}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(doc) - {o.key for o in table})
        if unknown:
            raise ValueError("unknown config keys: %s"
                             % ", ".join(unknown))
        opts.update(doc)
    for o in table:
        val = getattr(args, o.key)
        if val is not None:
            opts[o.key] = val
        elif o.key in opts and opts[o.key] is None \
                and o.parse not in NULLABLE:
            raise ValueError("config key %s must not be null" % o.key)
    return {o.key: o.parse(opts, o.key) for o in table if o.key in opts}


# the library checks these values, for a flag and a config file alike
DISTRIBUTION_HELP = "one of %s, in any letter case" % ", ".join(DISTRIBUTIONS)
ORIENT_LAW_HELP = "one of %s" % ", ".join(ORIENT_LAWS)

OUT_DIR = Opt("out_dir", ".", help="directory for output files (default .)")

SYNTH = (
    OUT_DIR,
    Opt("n", 64, parse=_positive_int),
    Opt("s", 3, parse=_positive_int),
    Opt("r", 4, parse=_positive_int),
    Opt("seed", 0, parse=_seed),
    Opt("distribution", "gaussian", parse=_lower, help=DISTRIBUTION_HELP),
    Opt("snr", parse=_maybe_float, help="add noise to X.csv at this SNR"),
    Opt("delta", parse=_maybe_float, help="minimum wraparound separation"),
    Opt("orient_law", "gaussian", help=ORIENT_LAW_HELP),
)

SOLVER = (  # SolverConfig fields
    Opt("rho", field="rho", parse=_float,
        help="inverse SVT threshold, relative to unit-RMS data"),
    Opt("tol", field="tol_rel", parse=_float),
    Opt("max_iters", field="max_iters", parse=_positive_int),
)

SOLVE = (
    OUT_DIR,
    Opt("model", "model.json", help="problem JSON from synth"),
    Opt("y", "y.csv", help="measurement CSV"),
    *SOLVER,
    Opt("n1", parse=_maybe_int, help="override the lift split"),
)

MUSIC = (
    OUT_DIR,
    Opt("x", "X.csv", help="data matrix CSV"),
    Opt("r", parse=_maybe_positive_int, help="model order (required)"),
    Opt("estimator", "vhm", help="vhm, vhm:K (first K rows), single "
        "(first row) or mmv (default vhm)"),
    Opt("grid_step", GRID_STEP, parse=_float),
    Opt("n1", parse=_maybe_int),
    Opt("svg", False, parse=_bool, action="store_const", const=True,
        help="also write pseudospectrum.svg"),
)

GRID = (  # PhaseTransitionConfig fields
    Opt("axis1", field="axis1_name"),
    Opt("values1", field="axis1_values", parse=_list(int, "integer")),
    Opt("axis2", field="axis2_name"),
    Opt("values2", field="axis2_values", parse=_list(int, "integer")),
    Opt("fixed", field="fixed", parse=_parse_fixed,
        help="remaining parameter, e.g. n=64"),
    Opt("trials", field="trials", parse=_positive_int),
    Opt("threshold", field="threshold", parse=_float),
    Opt("seed", field="base_seed", parse=_seed),
    Opt("distribution", field="distribution", parse=_lower,
        help=DISTRIBUTION_HELP),
    Opt("delta", field="delta", parse=_maybe_float),
    Opt("orient_law", field="orient_law", help=ORIENT_LAW_HELP),
)

THREADS = Opt("threads", 1, parse=_positive_int)

PHASE = (OUT_DIR, *GRID, *SOLVER, THREADS)

SWEEP = (  # SweepConfig fields, then threads
    OUT_DIR,
    Opt("n", field="n", parse=_positive_int),
    Opt("s", field="s", parse=_positive_int),
    Opt("r", field="r", parse=_positive_int),
    Opt("snr", field="snr_db", parse=_list(float, "number"),
        help="comma list of SNR dB values (inf allowed)"),
    Opt("estimators", field="estimators", parse=_list(str, "string"),
        help="comma list from vhm, vhm:K, single, mmv"),
    Opt("trials", field="trials", parse=_positive_int),
    Opt("delta", field="delta", parse=_maybe_float),
    Opt("orient_law", field="orient_law", help=ORIENT_LAW_HELP),
    Opt("grid_step", field="grid_step", parse=_float),
    Opt("seed", field="base_seed", parse=_seed),
    THREADS,
)


# ---------------------------------------------------------------- commands

def cmd_synth(opts) -> int:
    n, s, r, seed = opts["n"], opts["s"], opts["r"], opts["seed"]
    distribution = opts["distribution"]
    rng = np.random.default_rng(seed)
    model = sample_model(r, s, seed=rng, delta=opts["delta"],
                         orient_law=opts["orient_law"])
    B = sample_subspace(distribution, n, s, seed=rng)
    X = synthesize_data_matrix(model, n)
    y = apply_measurement(X, B)
    snr = opts["snr"]
    X_out = X if snr is None else add_noise(X, snr, seed=rng)
    diag = incoherence_diagnostic(model, LiftShape.default(n, s))
    io.write_problem(_out(opts, "model.json"), model, B, distribution, seed)
    io.write_complex_matrix_csv(_out(opts, "X.csv"), X_out)
    io.write_complex_vector_csv(_out(opts, "y.csv"), y)
    print("synth: n=%d s=%d r=%d dist=%s mu1=%.4g -> model.json X.csv y.csv"
          % (n, s, r, distribution, diag.mu1))
    return EXIT_OK


def cmd_solve(opts) -> int:
    _, B = io.read_problem(opts["model"])
    n, s = B.shape
    y = io.read_complex_vector_csv(opts["y"])
    shape = LiftShape.default(n, s, opts["n1"])
    report = solve_vhl(y, B, shape, SolverConfig(**_fields(opts, SOLVER)))
    io.write_report(_out(opts, "report.json"), report)
    io.write_complex_matrix_csv(_out(opts, "Xhat.csv"), report.X_hat)
    print("solve: %s in %d iters, primal %.3e, dual %.3e, nuclear norm %.6g"
          % ("converged" if report.converged else "stopped",
             report.iters, report.primal_residual, report.dual_residual,
             report.nuclear_norm))
    return EXIT_OK if report.converged else EXIT_NONCONV


def cmd_music(opts) -> int:
    if opts["r"] is None:
        raise ValueError("--r (model order) is required")
    r, estimator = opts["r"], opts["estimator"]
    check_grid(opts["grid_step"], r)
    X = io.read_complex_matrix_csv(opts["x"])
    u_perp = noise_subspace(X, r, estimator, opts["n1"])
    curve = pseudospectrum(u_perp, opts["grid_step"])
    peaks = pick_peaks(curve, r)
    sources = recover_amplitudes(X, peaks.taus)
    io.write_pseudospectrum_csv(_out(opts, "pseudospectrum.csv"), curve)
    io.write_sources(_out(opts, "sources.json"), sources, estimator,
                     peaks.padded)
    if opts["svg"]:
        io.write_pseudospectrum_svg(_out(opts, "pseudospectrum.svg"), curve,
                                    peaks.taus, estimator)
    print("music: estimator=%s taus_hat=%s residual=%.3e"
          % (estimator,
             " ".join("%.6f" % t for t in np.sort(sources.taus_hat)),
             sources.residual))
    return EXIT_OK


def cmd_phase_transition(opts) -> int:
    config = PhaseTransitionConfig(**_fields(opts, GRID),
                                   solver=SolverConfig(**_fields(opts,
                                                                 SOLVER)))
    grid = run_phase_transition(config, workers=opts["threads"],
                                progress=_stderr_progress)
    io.write_grid_csv(_out(opts, "grid.csv"), grid)
    io.write_grid_svg(_out(opts, "grid.svg"), grid)
    cells = len(config.axis1_values) * len(config.axis2_values)
    print("phase-transition: %d cells x %d trials -> grid.csv grid.svg"
          % (cells, config.trials))
    return EXIT_OK


def cmd_snr_sweep(opts) -> int:
    config = SweepConfig(**_fields(opts, SWEEP))
    result = run_snr_sweep(config, workers=opts["threads"],
                           progress=_stderr_progress)
    io.write_sweep_csv(_out(opts, "sweep.csv"), result)
    io.write_sweep_svg(_out(opts, "sweep.svg"), result)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parse_args
    leaves it unchanged, so a process that calls main several times builds
    the five subparsers once."""
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
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
