"""Command-line front end: simulate, spectrum, segment, test, quantiles.

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
from .errors import FdaError, NoWaves
from .projections import BasisSpec
from .resampling import (
    ResamplingPlan,
    SimConfig,
    check_estimator_grid,
    permutation_null,
    quantile_table,
)
from .rng import fresh_seed
from .runner import concatenate_samples, run_test, sample_to_spectra, spectral_mc_test
from .sea import (
    TorsethaugenParams,
    default_frequency_grid,
    estimate_spectrum,
    simulate_gaussian,
    torsethaugen_spectrum,
)
from .waves import RegistrationSpec, normalize_sample, register_sample, segment_waves

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EMPTY = 3


def _threads() -> int:
    text = os.environ.get("FDA2S_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise FdaError(f"FDA2S_THREADS must be a positive integer, got {text!r}")
    return threads


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    drawn = fresh_seed()
    print(f"seed {drawn}", file=sys.stderr)
    return drawn


def _parse_calibration(text: str) -> tuple[str, int]:
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "asymptotic":
        return "asymptotic", 0
    if head not in ("permutation", "spectral-mc"):
        raise FdaError(f"unknown calibration {head!r}")
    b = 1000
    if rest:
        key, _, value = rest.partition("=")
        if key.strip().lower() != "b":
            raise FdaError(f"unknown calibration parameter {key!r}")
        try:
            b = int(value)
        except ValueError:
            b = 0
        if b < 1:
            raise FdaError(
                f"calibration parameter 'B' must be a positive integer, got {value!r} "
                f"in {text!r}"
            )
    return head, b


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value converted as the same value on the command line would be."""
    if action.nargs == 0:  # a flag: only JSON true/false
        if not isinstance(value, bool):
            raise FdaError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(value, (bool, list, dict)) or value is None:
        raise FdaError(f"config key {key!r} must be a string or a number, got {value!r}")
    convert = action.type or str
    try:
        return convert(str(value))
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise FdaError(f"invalid value {value!r} for config key {key!r}") from None


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Config-file values fill in any argument left at its parser default."""
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    actions = {a.dest: a for a in parser._actions}
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr not in actions:
            raise FdaError(f"unknown config key {key!r} for {args.command}")
        if getattr(args, attr) == parser.get_default(attr):
            setattr(args, attr, _config_value(actions[attr], key, value))


def cmd_simulate(args, parser) -> int:
    _apply_config(args, parser)
    seed = _resolve_seed(args.seed)
    grid = default_frequency_grid(args.fs, tp=args.tp, n_freq=args.nfreq)
    spectrum = torsethaugen_spectrum(TorsethaugenParams(args.hs, args.tp), grid)
    record = simulate_gaussian(spectrum, args.duration, args.fs, seed)
    io.write_record(record, args.output)
    return EXIT_OK


def cmd_spectrum(args, parser) -> int:
    _apply_config(args, parser)
    record = io.read_record(args.input)
    spectrum = estimate_spectrum(record, args.parzen, args.nfreq)
    io.write_spectrum(spectrum, args.output)
    return EXIT_OK


def cmd_segment(args, parser) -> int:
    _apply_config(args, parser)
    record = io.read_record(args.input)
    waves = segment_waves(record)
    spec = RegistrationSpec(
        n_grid=args.grid,
        spline_order=args.order,
        n_knots=args.knots,
        constrain_upcross=args.constrain_upcross,
    )
    sample, kept, dropped = register_sample(waves, spec, label="waves")
    if args.normalize:
        sample = normalize_sample(sample, record)
    std = float(np.std(record.values - record.values.mean(), ddof=1))
    io.write_functional_sample(sample, args.output)
    sidecar = {
        "n_waves": sample.n_curves,
        "dropped": dropped,
        "periods": [waves[i].period for i in kept],
        "record_std": std,
        "hs_interval": 4.0 * std,
    }
    with open(str(args.output) + ".json", "w", encoding="utf-8") as fh:
        fh.write(io.canonical_json(sidecar))
    return EXIT_OK


def cmd_test(args, parser) -> int:
    _apply_config(args, parser)
    basis = BasisSpec.parse(args.basis)
    method, B = _parse_calibration(args.calibration)
    x = io.read_functional_sample(args.x, label="x")
    y = io.read_functional_sample(args.y, label="y")
    n_jobs = _threads()
    if method == "spectral-mc":
        sim = SimConfig(args.mc_duration, args.mc_fs, args.mc_parzen, args.mc_nfreq)
        # before the samples become densities, which reject a wave sample's
        # negative values without naming the grid
        check_estimator_grid((x.grid, y.grid), sim)
        seed = _resolve_seed(args.seed)
        result = spectral_mc_test(
            sample_to_spectra(x), sample_to_spectra(y), basis, sim,
            B=B, seed=seed, n_jobs=n_jobs,
        )
    elif method == "permutation":
        seed = _resolve_seed(args.seed)
        result = run_test(x, y, basis, "permutation", B=B, seed=seed, n_jobs=n_jobs)
    else:
        result = run_test(x, y, basis, "asymptotic")
    io.write_test_result(result, args.output)
    return EXIT_OK


def cmd_quantiles(args, parser) -> int:
    _apply_config(args, parser)
    probs = tuple(float(p) for p in args.probs.split(","))
    if args.null_values:
        clash = [f"--{name}" for name in ("generate", "x", "y", "basis", "seed")
                 if getattr(args, name) != parser.get_default(name)]
        if clash:
            raise FdaError(f"--null-values does not combine with {', '.join(clash)}")
        if args.k is None:
            raise FdaError("--k is required with --null-values")
        values = io.read_null_values(args.null_values)
        k = args.k
    elif args.generate:
        if args.k is not None:
            raise FdaError("--k does not combine with --generate; the basis sets k")
        if not (args.x and args.y and args.basis):
            raise FdaError("--generate needs --x, --y and --basis")
        method, B = _parse_calibration(args.calibration)
        if method != "permutation":
            raise FdaError("--generate supports permutation calibration")
        seed = _resolve_seed(args.seed)
        x = io.read_functional_sample(args.x, label="x")
        y = io.read_functional_sample(args.y, label="y")
        joint = concatenate_samples(x, y)
        basis = BasisSpec.parse(args.basis)
        g = basis.build(joint)
        plan = ResamplingPlan(B, seed, (x.n_curves, y.n_curves))
        null = permutation_null(joint, g, plan, n_jobs=_threads())
        values = null.values
        k = g.k
    else:
        raise FdaError("provide --null-values or --generate")
    table = quantile_table(values, k, probs)
    io.write_quantile_table(table, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fda2s",
        description="Two-sample quadratic-form tests for functional data "
        "and the sea-wave simulation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a Gaussian wave record")
    p.add_argument("--hs", type=float, required=True, help="significant wave height (m)")
    p.add_argument("--tp", type=float, required=True, help="spectral peak period (s)")
    p.add_argument("--duration", type=float, default=1800.0, help="record length (s)")
    p.add_argument("--fs", type=float, default=1.28, help="sampling frequency (Hz)")
    p.add_argument("--nfreq", type=int, default=481)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_simulate, subparser=p)

    p = sub.add_parser("spectrum", help="Parzen lag-window spectral estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--parzen", type=int, default=60, help="lag-window length")
    p.add_argument("--nfreq", type=int, default=481)
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_spectrum, subparser=p)

    p = sub.add_parser("segment", help="extract and register downcrossing waves")
    p.add_argument("--input", required=True)
    p.add_argument("--constrain-upcross", action="store_true")
    p.add_argument("--grid", type=int, default=101, help="common grid size")
    p.add_argument("--order", type=int, default=6, help="spline order")
    p.add_argument("--knots", type=int, default=61, help="equidistant knot sites")
    p.add_argument("--normalize", action="store_true",
                   help="divide waves by the record standard deviation")
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_segment, subparser=p)

    p = sub.add_parser("test", help="run the two-sample test")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--basis", default="trig:k=3,parts=both",
                   help="indicator:k=8 | bspline:order=5,interior=7 | "
                        "trig:k=3,parts=both|odd | pca:d=2")
    p.add_argument("--calibration", default="asymptotic",
                   help="asymptotic | permutation:B=N | spectral-mc:B=N")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mc-duration", type=float, default=1800.0)
    p.add_argument("--mc-fs", type=float, default=1.28)
    p.add_argument("--mc-parzen", type=int, default=60)
    p.add_argument("--mc-nfreq", type=int, default=481)
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_test, subparser=p)

    p = sub.add_parser("quantiles", help="null quantile table (empirical vs chi-square)")
    p.add_argument("--null-values", default=None,
                   help="file with one replicate value per line")
    p.add_argument("--k", type=int, default=None, help="degrees of freedom")
    p.add_argument("--generate", action="store_true",
                   help="generate null values by permutation splitting")
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--basis", default=None)
    p.add_argument("--calibration", default="permutation:B=1000")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--probs", default="0.5,0.9,0.95,0.975,0.99")
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_quantiles, subparser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.subparser)
    except NoWaves as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (FdaError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
