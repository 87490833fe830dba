"""Command-line front end: simulate, spectrum, segment, test, quantiles.

Every file a command reads is a file a command writes: `simulate` writes
records, which `spectrum` and `segment` read; both write functional-sample
CSVs, which `test` and `quantiles` read and calibrate through one runner
function, `runner.calibrate`.

Exit codes: 0 on success, 2 on validation or input errors, 3 when the
requested operation produced no result (e.g. a record with no waves).
Every randomized command reports its effective seed; without --seed a
fresh one is drawn from entropy and printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io
from .errors import FdaError, NoWaves, count
from .projections import BasisSpec, integer_text
from .resampling import check_probs, quantile_table
from .rng import fresh_seed
from .runner import CALIBRATIONS, calibrate, parse_calibration, run_test
from .sea import (
    SimConfig,
    TorsethaugenParams,
    default_frequency_grid,
    estimate_spectrum,
    simulate_gaussian,
    spectra_to_sample,
    torsethaugen_spectrum,
)
from .waves import RegistrationSpec, normalize_sample, register_sample, segment_waves, too_short

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EMPTY = 3


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    drawn = fresh_seed()
    print(f"seed {drawn}", file=sys.stderr)
    return drawn


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value converted as the same value on the command line would be."""
    if action.nargs == 0:  # a flag: only JSON true/false
        if not isinstance(value, bool):
            raise FdaError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if action.nargs == "+":  # one path or a non-empty list of paths
        paths = [value] if isinstance(value, str) else value
        if not (isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths)):
            raise FdaError(
                f"config key {key!r} must be a string or a non-empty list of strings, "
                f"got {value!r}"
            )
        return paths
    if isinstance(value, (bool, list, dict)) or value is None:
        raise FdaError(f"config key {key!r} must be a string or a number, got {value!r}")
    convert = action.type or str
    try:
        return convert(str(value))
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise FdaError(f"invalid value {value!r} for config key {key!r}") from None


def _config_defaults(args: argparse.Namespace) -> dict:
    """The --config file's values by option, each checked, also one a flag overrides."""
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise FdaError(f"config file {args.config!r} must hold a JSON object, "
                       f"not {type(config).__name__}")
    actions = {a.dest: a for a in args.subparser._actions}
    values = {}
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr not in actions:
            raise FdaError(f"unknown config key {key!r} for {args.command}")
        values[attr] = _config_value(actions[attr], key, value)
    return values


def _check_required(args: argparse.Namespace) -> None:
    """Exit 2, as argparse would, naming each required option that neither the
    command line nor the --config file set."""
    missing = ["/".join(action.option_strings) for action in args.subparser._actions
               if action.dest in args.required and getattr(args, action.dest) is None]
    if missing:
        args.subparser.error(f"the following arguments are required: {', '.join(missing)}")


def cmd_simulate(args) -> int:
    params = TorsethaugenParams(args.hs, args.tp)
    seed = _resolve_seed(args.seed)
    grid = default_frequency_grid(args.fs, tp=args.tp, n_freq=args.nfreq)
    spectrum = torsethaugen_spectrum(params, grid)
    record = simulate_gaussian(spectrum, args.duration, args.fs, seed)
    io.write_record(record, args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    records = [io.read_record(path) for path in args.input]
    for path, record in zip(args.input, records):
        if record.fs != records[0].fs:
            raise FdaError(
                f"records must share one fs: {args.input[0]} has {records[0].fs} Hz, "
                f"{path} has {record.fs} Hz"
            )
    spectra = [estimate_spectrum(record, args.parzen, args.nfreq) for record in records]
    io.write_functional_sample(spectra_to_sample(spectra), args.output)
    return EXIT_OK


def cmd_segment(args) -> int:
    spec = RegistrationSpec(
        n_grid=args.grid,
        spline_order=args.order,
        n_knots=args.knots,
        constrain_upcross=args.constrain_upcross,
    )
    record = io.read_record(args.input)
    waves = segment_waves(record)
    sample, kept, dropped = register_sample(waves, spec, label="waves")
    if args.normalize:
        sample = normalize_sample(sample, record)
    std = float(np.std(record.values - record.values.mean(), ddof=1))
    io.write_functional_sample(sample, args.output)
    short = int(np.count_nonzero(too_short(waves)))
    sidecar = {
        "n_waves": sample.n_curves,
        "dropped": dropped,
        "dropped_short": short,
        "dropped_no_upcrossing": dropped - short,
        "periods": waves.periods[kept].tolist(),
        "record_std": std,
        "hs_interval": 4.0 * std,
    }
    with open(str(args.output) + ".json", "w", encoding="utf-8") as fh:
        fh.write(io.canonical_json(sidecar))
    return EXIT_OK


# The SimConfig field each --mc-* option sets.
_SIM_FIELDS = {"mc_duration": "duration", "mc_fs": "fs", "mc_parzen": "parzen_L",
               "mc_nfreq": "n_freq"}
# The run_test setting each option sets.
_OPTION_SETTINGS = {"seed": "seed", **dict.fromkeys(_SIM_FIELDS, "sim")}


def cmd_test(args) -> int:
    basis = BasisSpec.parse(args.basis)
    method, settings = parse_calibration(args.calibration)
    reads = CALIBRATIONS[method]
    # These options default to None: a value was set by a flag or the config file.
    flags = [f"--{name.replace('_', '-')}" for name, setting in _OPTION_SETTINGS.items()
             if setting not in reads and getattr(args, name) is not None]
    if flags:
        raise FdaError(f"--calibration {method} does not combine with {', '.join(flags)}")
    if "n_jobs" in reads:
        threads = integer_text(os.environ.get("FDA2S_THREADS", "1"))
        settings["n_jobs"] = count(threads, "FDA2S_THREADS", 1)
    x = io.read_functional_sample(args.x, label="x")
    y = io.read_functional_sample(args.y, label="y")
    if "sim" in reads:
        settings["sim"] = SimConfig(**{field: getattr(args, name) for name, field in
                                       _SIM_FIELDS.items() if getattr(args, name) is not None})
    if "seed" in reads:
        settings["seed"] = _resolve_seed(args.seed)
    result = run_test(x, y, basis, method, **settings)
    io.write_test_result(result, args.output)
    return EXIT_OK


def cmd_quantiles(args) -> int:
    try:
        probs = tuple(float(p) for p in args.probs.split(","))
    except ValueError:
        raise FdaError(f"--probs must be comma-separated numbers, got {args.probs!r}") from None
    check_probs(probs)
    method, settings = parse_calibration(args.calibration)
    if method != "permutation":  # spectral-mc would need the --mc-* options
        raise FdaError(f"quantiles supports permutation calibration only, got {args.calibration!r}")
    seed = _resolve_seed(args.seed)
    x = io.read_functional_sample(args.x, label="x")
    y = io.read_functional_sample(args.y, label="y")
    result, null = calibrate(x, y, BasisSpec.parse(args.basis), method, seed=seed, **settings)
    io.write_quantile_table(quantile_table(null.values, result.k, probs), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fda2s",
        description="Two-sample quadratic-form tests for functional data "
        "and the sea-wave simulation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a Gaussian wave record")
    p.add_argument("--hs", type=float, help="significant wave height (m)")
    p.add_argument("--tp", type=float, help="spectral peak period (s)")
    p.add_argument("--duration", type=float, default=SimConfig.duration, help="record length (s)")
    p.add_argument("--fs", type=float, default=SimConfig.fs, help="sampling frequency (Hz)")
    p.add_argument("--nfreq", type=int, default=SimConfig.n_freq)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_simulate, subparser=p, required=("hs", "tp", "output"))

    p = sub.add_parser("spectrum", help="Parzen lag-window spectral estimates, one row a record")
    p.add_argument("--input", nargs="+", help="records sharing one fs")
    p.add_argument("--parzen", type=int, default=SimConfig.parzen_L, help="lag-window length")
    p.add_argument("--nfreq", type=int, default=SimConfig.n_freq)
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_spectrum, subparser=p, required=("input", "output"))

    p = sub.add_parser("segment", help="extract and register downcrossing waves")
    p.add_argument("--input")
    p.add_argument("--constrain-upcross", action="store_true")
    p.add_argument("--grid", type=int, default=RegistrationSpec.n_grid, help="common grid size")
    p.add_argument("--order", type=int, default=RegistrationSpec.spline_order, help="spline order")
    p.add_argument("--knots", type=int, default=RegistrationSpec.n_knots,
                   help="equidistant knot sites")
    p.add_argument("--normalize", action="store_true",
                   help="divide waves by the record standard deviation")
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_segment, subparser=p, required=("input", "output"))

    p = sub.add_parser("test", help="run the two-sample test")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--basis", default="trig:k=3,parts=both",
                   help="indicator:k=8 | bspline:order=5,interior=7 | "
                        "trig:k=3,parts=both|odd | pca:d=2")
    p.add_argument("--calibration", default="asymptotic",
                   help="asymptotic | permutation:B=N | spectral-mc:B=N")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mc-duration", type=float)
    p.add_argument("--mc-fs", type=float)
    p.add_argument("--mc-parzen", type=int)
    p.add_argument("--mc-nfreq", type=int)
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_test, subparser=p, required=("x", "y", "output"))

    p = sub.add_parser("quantiles", help="null quantile table (empirical vs chi-square)")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--basis")
    p.add_argument("--calibration", default="permutation", help="permutation:B=N")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--probs", default="0.5,0.9,0.95,0.975,0.99")
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_quantiles, subparser=p,
                   required=("x", "y", "basis", "output"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become the defaults, which the command line overrides.
            args.subparser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        _check_required(args)
        return args.func(args)
    except NoWaves as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (FdaError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
