"""
Command-line front end.

    support-limits threshold --figure gt-noiseless --theta 0.05:0.95:0.05
    support-limits simulate --p 16 --k 2 --model gt --decoder ml \
        --n-grid 2:40:2 --trials 500 --seed 1
    support-limits verify [--only NAME] [--perturb 1e-3]

Exit codes: 0 success, 1 failed verification check, 2 configuration error
(a config or output path that cannot be read or written included; the
output path is checked before any work),
3 numerical non-convergence, 4 desk-scale guard refusal.

Config may also be supplied as a JSON file via --config; explicit flags
override file values.  All randomized commands take --seed (a fixed default
is printed if omitted); no wall-clock entropy anywhere.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import bounds, numerics, sim
from .channels import CHANNELS
from .model import IID_GAUSSIAN, GuardError, ModelSpec, ProblemDims, SignalPrior, c_beta_from_snr
from .numerics import NonConvergenceError

DEFAULT_SEED = 20240917

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_GUARD = 4

THRESHOLD_HEADER = ["figure", "x", "curve", "y"]

# Most points a range may hold; a larger count is refused before any list
# is built.
MAX_RANGE_POINTS = 10**6


class ConfigError(ValueError):
    pass


def parse_range(spec: str) -> list[float]:
    """Inclusive numeric range 'start:stop:step': finite, step > 0, stop >= start
    and at most MAX_RANGE_POINTS points."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"non-numeric range {spec!r}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"range requires finite start, stop and step: {spec!r}")
    if not (step > 0 and stop >= start):
        raise ConfigError(f"range requires step > 0 and stop >= start: {spec!r}")
    steps = (stop - start) / step + 1e-9
    if not math.isfinite(steps):
        raise ConfigError(f"range {spec!r} has a point count beyond the float range")
    count = math.floor(steps) + 1
    if count > MAX_RANGE_POINTS:
        raise ConfigError(f"range {spec!r} has {count} points, more than {MAX_RANGE_POINTS}")
    return [start + i * step for i in range(count)]


def parse_floats(flag: str, text: str) -> list[float]:
    """The comma-separated numbers given to flag."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _check_writable(path: str | None) -> None:
    """Raise the OSError that writing path would raise, before any work is
    done; a file that was not there is not left behind."""
    if not path:
        return
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _write_rows(path: str | None, header: list[str], rows: list[list], fmt: str):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        if fmt == "csv":
            w = csv.writer(out)
            w.writerow(header)
            w.writerows(rows)
        else:
            for row in rows:
                out.write(json.dumps(dict(zip(header, row))) + "\n")
    finally:
        if path:
            out.close()


def _merge_config(args: argparse.Namespace, argv) -> argparse.Namespace:
    """Overlay a JSON config under the flags given on the command line.

    Each file key becomes the token `--key=value` (`--key` for true; false
    and null leave the option at its default), placed right after the
    subcommand name, and the command line is parsed again.  So an explicit
    flag wins even where it equals its default, and argparse converts and
    checks each file value and refuses an unknown key as it does a flag."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    tokens = []
    for key, value in file_cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            tokens.append(f"{flag}={value}")
    argv = list(sys.argv[1:] if argv is None else argv)
    at = argv.index(args.command) + 1
    return build_parser(_ConfigParser).parse_args(argv[:at] + tokens + argv[at:])


class _Parser(argparse.ArgumentParser):
    """argparse's parser, taking a token such as -1e-3 as a negative number,
    a value, as it takes -1 and -0.5 (Python 3.11 reads it as an option)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


class _ConfigParser(_Parser):
    """The parser of a command line with config tokens: an error is the
    config file's, so it is a ConfigError, not a usage message."""

    def error(self, message):
        raise ConfigError(f"config file: {message}")


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def cmd_threshold(args) -> int:
    fig = args.figure
    if fig == bounds.FIG_PARTIAL:
        if args.grid_points < 2:  # in the words of bounds._maximize_partial
            raise ConfigError(f"grid_points must be at least 2, got {args.grid_points}")
        if args.grid_points > MAX_RANGE_POINTS:
            raise ConfigError(
                f"--grid-points {args.grid_points} is more than {MAX_RANGE_POINTS} points"
            )
        grid = {
            "snr_db": parse_range(args.snr_db),
            "alpha_star": args.alpha_star,
            "sigma": args.sigma,
            "grid_points": args.grid_points,
        }
    else:
        grid = {"theta": parse_range(args.theta)}
        if fig == bounds.FIG_GT_NOISY:
            grid["rho"] = parse_floats("--rho", args.rho)
    rows = bounds.figure_curves(fig, grid)
    if args.verbose:
        for line in _verbose_lines(fig, grid, rows):
            print(line)
    out = [[fig, f"{x:.6g}", c, f"{y:.10g}"] for x, c, y in rows]
    out.sort(key=lambda r: (float(r[1]), r[2]))
    _write_rows(args.output, THRESHOLD_HEADER, out, args.format)
    return EXIT_OK


def _verbose_lines(fig: str, grid: dict, rows):
    """The optimizer behind each figure point: nu* per noiseless row,
    delta2* per (theta, rho), the maximizing alphas per SNR; each curve
    family is one batched corollary call."""
    thetas = grid.get("theta")
    if fig == bounds.FIG_GT_NOISELESS:
        nu_star = {t: r.nu_star for t, r in zip(thetas, bounds.cor_gt_noiseless(thetas))}
        for x, c, y in rows:
            yield f"theta={x:.4g} {c} rate={y:.6f} nu*={nu_star[x]:.6f}"
    elif fig == bounds.FIG_GT_NOISY:
        d2_star = {r: bounds.cor_gt_noisy(thetas, r) for r in grid["rho"]}
        for i, t in enumerate(thetas):
            for r in grid["rho"]:
                yield f"theta={t:.4g} rho={r:g} delta2*={d2_star[r][i].delta2_star:.6f}"
    else:
        sigma, alpha_star, gp = grid["sigma"], grid["alpha_star"], grid["grid_points"]
        cbs = [c_beta_from_snr(snr, sigma) for snr in grid["snr_db"]]
        lin = bounds.cor_linear_partial(cbs, sigma, alpha_star, grid_points=gp)
        ob = bounds.cor_1bit_partial(cbs, sigma, alpha_star, grid_points=gp)
        for snr, lc, oc in zip(grid["snr_db"], lin, ob):
            yield (
                f"snr={snr:g} linear alpha*={lc.alpha_ach:.4f}/{lc.alpha_conv:.4f} "
                f"1bit alpha*={oc.alpha_ach:.4f}/{oc.alpha_conv:.4f}"
            )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _build_model(args) -> ModelSpec:
    if args.model in ("gt", "group-testing"):
        return ModelSpec.group_testing(rho=args.rho, nu=args.nu)
    if args.model == "linear":
        return ModelSpec.linear(args.sigma)
    if args.model in ("one-bit", "1bit"):
        return ModelSpec.one_bit(args.sigma)
    raise ConfigError(f"unknown model {args.model!r}")


def _build_prior(args, model: ModelSpec) -> SignalPrior:
    only = CHANNELS[model.channel].only_prior
    if only:  # group testing: its one prior, whatever --prior and --b say
        return SignalPrior(variant=only)
    if args.prior == "gaussian":
        if args.b:
            raise ConfigError("--prior gaussian draws the entries: drop --b, or use "
                              "--prior fixed or --prior permuted")
        return SignalPrior.iid_gaussian(args.sigma_beta_sq)
    if args.b:
        vals = parse_floats("--b", args.b)
        return SignalPrior.permuted(vals) if args.prior == "permuted" else SignalPrior.fixed(vals)
    raise ConfigError("linear/one-bit simulation needs --b or --prior gaussian")


def cmd_simulate(args) -> int:
    for required in ("p", "k", "n_grid"):
        if getattr(args, required) is None:
            raise ConfigError(f"missing required setting --{required.replace('_', '-')}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    model = _build_model(args)
    prior = _build_prior(args, model)
    dims = ProblemDims(p=args.p, k=args.k, n=0, d_max=args.d_max)
    points = parse_range(args.n_grid)
    if not all(x.is_integer() for x in points):
        raise ConfigError(f"--n-grid must hold whole measurement counts, got {args.n_grid!r}")
    n_grid = [int(x) for x in points]
    decoder_kind = {"ml": "exhaustive-ml", "threshold": "threshold", "comp": "comp-gt"}[
        args.decoder
    ]
    if decoder_kind == "threshold" and prior.variant == IID_GAUSSIAN:
        raise ConfigError(
            "the threshold decoder needs a discrete prior (--prior fixed or "
            "--prior permuted with --b); use --decoder ml with --prior gaussian"
        )
    decoder = sim.DecoderSpec(kind=decoder_kind, delta1=args.delta1)
    if args.seed is None:
        args.seed = DEFAULT_SEED
        print(f"using default seed {args.seed}", file=sys.stderr)
    if not 0 <= int(args.seed) < 2**63:
        raise ConfigError(f"--seed must lie in [0, 2^63), got {args.seed}")
    reports = sim.phase_sweep(model, prior, dims, n_grid, decoder, args.trials, args.seed)
    rows = [r.as_csv_row() for r in sorted(reports, key=lambda r: r.n)]
    _write_rows(args.output, sim.CSV_HEADER, rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verify  # only this command runs the oracles; the other commands skip the import

    with numerics.entropy_perturbation(args.perturb):
        results = verify.run_checks(only=args.only)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status}  {r.name:<{width}}  measured={r.measured:.3e} "
            f"tol={r.tolerance:.3e}  ({r.seconds:.2f}s)  {r.detail}"
        )
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.output:
        # serialize first: a failure must not leave a truncated report behind
        report = json.dumps([r.to_dict() for r in results], indent=2, allow_nan=False)
        with open(args.output, "w") as fh:
            fh.write(report)
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


@functools.cache
def build_parser(cls=_Parser) -> argparse.ArgumentParser:
    """The command-line parser of parser class cls, built once per class and
    process and shared by every later call: each subcommand's func, the
    cmd_* function it runs, is the one bound at that first build."""
    parser = cls(prog="support-limits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("threshold", help="threshold curves and figure tables")
    figures = [bounds.FIG_GT_NOISELESS, bounds.FIG_GT_NOISY, bounds.FIG_PARTIAL]
    t.add_argument("--figure", required=True, choices=figures)
    t.add_argument("--theta", default="0.05:0.95:0.05", help="range start:stop:step")
    t.add_argument("--rho", default="0.11", help="comma-separated crossover values")
    t.add_argument("--snr-db", default="-20:50:1", help="range start:stop:step in dB")
    t.add_argument("--alpha-star", type=float, default=0.1)
    t.add_argument("--sigma", type=float, default=1.0)
    t.add_argument("--grid-points", type=int, default=2001)
    t.add_argument("--config")
    t.add_argument("--output")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(func=cmd_threshold)

    s = sub.add_parser("simulate", help="seeded Monte Carlo decoder sweeps")
    s.add_argument("--p", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--d-max", type=int, default=0)
    s.add_argument("--model", default="gt", choices=["gt", "group-testing", "linear", "one-bit", "1bit"])
    s.add_argument("--sigma", type=float, default=1.0)
    s.add_argument("--rho", type=float, default=0.0)
    s.add_argument("--nu", type=float, default=float(np.log(2.0)))
    s.add_argument("--b", help="comma-separated non-zero entries")
    s.add_argument("--prior", default="fixed", choices=["fixed", "permuted", "gaussian"])
    s.add_argument("--sigma-beta-sq", type=float, default=1.0)
    s.add_argument("--decoder", default="ml", choices=["ml", "threshold", "comp"])
    s.add_argument("--delta1", type=float, default=0.1)
    s.add_argument("--n-grid", help="range start:stop:step")
    s.add_argument("--trials", type=int, default=500)
    s.add_argument("--seed", type=int)
    s.add_argument("--config")
    s.add_argument("--output")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run the named oracle/invariant checks")
    v.add_argument("--only", help="run a single named check")
    v.add_argument(
        "--perturb", type=float, default=0.0,
        help="scale every entropy by (1 + PERTURB): a fault-injection canary",
    )
    v.add_argument("--config")
    v.add_argument("--output", help="write a JSON report")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, argv)
        _check_writable(args.output)
        return args.func(args)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        if isinstance(exc, GuardError):
            print(f"guard refused: {exc}", file=sys.stderr)
            return EXIT_GUARD
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
