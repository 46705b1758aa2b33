"""Command line front end.

Subcommands: ``estimate`` (variance curve from a CSV), ``simulate``
(risk report for one scenario), ``rates`` (convergence-slope
experiment), ``normality`` (shape diagnostics), ``diffseq`` (sequence
construction and validation).

Exit codes: 0 success, 1 bad flags or scenario setup, 2 malformed
input or a file that cannot be written, 3 computation failure.  Every
numeric flag is parsed and range-checked by its argparse type, so a bad
value exits 1 with one line naming the flag.  Simulation subcommands
require an explicit --seed, a non-negative integer; nothing is ever
wall-clock seeded.  A repeated ``simulate --x0`` value counts once.  A
command writes all of its files or none: each is staged as a temp file
and renamed into place once all are staged, so a failed run leaves no
file behind, partial or whole.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bandwidth as bw
from . import diffseq, simlab
from .errors import BadParameterError, DiffvarError
from .estimator import Sample, estimate_variance
from .kernels import KERNEL_KINDS, kernel
from .serialize import dump_json
from .smoother import SmootherConfig

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _InputError(Exception):
    kind = "input"


class _OutputError(_InputError):
    kind = "output"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, in one line."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message} (see '{self.prog} --help')")


def _write_outputs(*outputs) -> None:
    """Write each (path, text) with a final newline: every file or none.

    A None path is stdout, written last.  Files are staged beside their
    targets and renamed once all are staged; a failure removes them all.
    """
    staged, placed = [], []
    try:
        for path, text in outputs:
            if path is not None:
                # mode 0o666 lets the umask apply, as open() does; mkstemp's
                # 0o600 would leave every output file readable by its owner only
                tmp = Path(path).parent / f".tmp-{os.urandom(8).hex()}"
                fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
                staged.append((tmp, path))
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException as exc:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for done in placed:
            Path(done).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text + "\n")


def _read_sample_csv(path: str) -> Sample:
    """Parse a two-column x,y CSV into a Sample; all failures are input errors."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["x", "y"]:
        raise _InputError(f"{path}: expected header 'x,y'")
    xs, ys = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise _InputError(f"{path}:{lineno}: expected two columns")
        try:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
        except ValueError as exc:
            raise _InputError(f"{path}:{lineno}: {exc}") from exc
    try:
        return Sample(np.array(xs), np.array(ys))
    except (DiffvarError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _sidecar_path(output: str) -> str:
    p = Path(output)
    sidecar = p.with_suffix(".json")
    if str(sidecar) == str(p):
        sidecar = Path(str(p) + ".json")
    return str(sidecar)


def _parse_function(spec: str) -> simlab.FunctionSpec:
    """Parse 'name' or 'name:key=val,key=val' into a FunctionSpec."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise _UsageError(f"bad function parameter {item!r} in {spec!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise _UsageError(f"bad value in {item!r}: {exc}") from exc
    return simlab.function_spec(name.strip(), **params)


def _resolve_sequence(args) -> diffseq.DifferenceSequence:
    if getattr(args, "sequence_file", None):
        try:
            import json
            coeffs = json.loads(Path(args.sequence_file).read_text())
        except (OSError, ValueError) as exc:
            raise _InputError(f"cannot read sequence file: {exc}") from exc
        try:
            return diffseq.validate(coeffs)
        except DiffvarError as exc:
            raise _InputError(f"{args.sequence_file}: {exc}") from exc
    if args.sequence == "optimal":
        return _optimal_sequence(args.order, "--order")
    return diffseq.standard_sequence(args.sequence)  # argparse checked the name


def _optimal_sequence(order: int, flag: str) -> diffseq.DifferenceSequence:
    """The optimal sequence of a flag's order; a huge order is a usage error."""
    try:
        return diffseq.optimal_sequence(order)
    except BadParameterError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _require(ok: bool, message: str) -> None:
    """Reject a combination of flags as a usage error before the library sees it."""
    if not ok:
        raise _UsageError(message)


def _require_integrable(args, integrated: bool) -> None:
    _require(not integrated or args.grid_size >= 2,
             "--grid-size must be >= 2 for the integrated risk")


def _checked(parse, ok, rule: str):
    """An argparse type: parse the text, then require ``ok(value)``.

    argparse turns either failure into a usage error naming the flag.
    """
    def convert(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    convert.__name__ = parse.__name__  # argparse says "invalid int value"
    return convert


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


_UNIT_POINT = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")


def _add_sequence_flags(parser) -> None:
    parser.add_argument(
        "--sequence", default="first_difference",
        choices=["first_difference", "gsjs", "optimal"],
        help="difference sequence (optimal uses --order)")
    parser.add_argument("--order", type=_at_least(1), default=2,
                        help="order r for --sequence optimal")
    parser.add_argument("--sequence-file", default=None,
                        help="JSON array of explicit coefficients")
    parser.add_argument("--kernel", default="epanechnikov", choices=KERNEL_KINDS)


def _add_estimator_flags(parser, bandwidth_modes: str) -> None:
    _add_sequence_flags(parser)
    parser.add_argument("--degree", type=_at_least(0), default=1)
    parser.add_argument("--bandwidth", default=None, required=True,
                        help=f"bandwidth: a number or one of {{{bandwidth_modes}}}")
    parser.add_argument("--gamma", type=_POSITIVE, default=None,
                        help="smoothness exponent for --bandwidth rate")
    parser.add_argument("--scale", type=_POSITIVE, default=1.0,
                        help="scale constant for --bandwidth rate")


def _fixed_bandwidth(args):
    """n -> the bandwidth of a number or of ``rate``, its flags checked now."""
    if args.bandwidth == "rate":
        _require(args.gamma is not None, "--bandwidth rate requires --gamma")
        return lambda n: bw.rate_optimal_bandwidth(n, args.gamma, args.scale)
    try:
        h = float(args.bandwidth)
    except ValueError:
        raise _UsageError(f"bad --bandwidth {args.bandwidth!r}") from None
    _require(0.0 < h <= 1.0, "fixed bandwidth must be in (0, 1]")
    return lambda n: h


def _smoother(args, h: float) -> SmootherConfig:
    return SmootherConfig(h, args.degree, kernel(args.kernel))


# --- subcommands -----------------------------------------------------------

def _cmd_estimate(args) -> int:
    # every flag is checked before the input is read
    _require(args.grid_min < args.grid_max, "--grid-min must be below --grid-max")
    _require(args.bandwidth != "cv" or args.seed is not None,
             "--bandwidth cv requires --seed")
    bandwidth_of = None if args.bandwidth == "cv" else _fixed_bandwidth(args)
    seq = _resolve_sequence(args)
    sample = _read_sample_csv(args.input)
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_size)

    cv_report = None
    if bandwidth_of is None:
        cv_report = bw.cv_select(
            sample, seq, _smoother(args, 0.25), bw.default_grid(sample),
            folds=args.folds, seed=args.seed,
        )
        h = cv_report.selected
    else:
        h = bandwidth_of(sample.n)

    # --expand applies to this final fit only; CV never expands
    config = replace(_smoother(args, h), expand=args.expand)
    estimate = estimate_variance(sample, seq, config, grid)

    lines = ["x,vhat"]
    lines += [f"{float(x)!r},{float(v)!r}"
              for x, v in zip(estimate.grid, estimate.values)]
    provenance = {
        "input": args.input,
        "sequence": {"order": seq.order, "coefficients": seq.to_list()},
        "kernel": args.kernel,
        "degree": args.degree,
        "bandwidth_mode": args.bandwidth,
        "bandwidth": h,
        "cv": cv_report,
        "grid": {"min": args.grid_min, "max": args.grid_max,
                 "size": args.grid_size},
        "expanded_points": list(estimate.provenance.expanded_points),
        "has_negative_values": estimate.provenance.has_negative_values,
    }
    _write_outputs((args.output, "\n".join(lines)),
                   (_sidecar_path(args.output), dump_json(provenance)))
    return 0


def _build_scenario(args) -> simlab.Scenario:
    try:
        law = simlab.ErrorLaw(args.error_law, df=args.df)
        mean_fn = _parse_function(args.mean)
        var_fn = _parse_function(args.variance)
        return simlab.Scenario(
            label=f"cli-{mean_fn.name}-{var_fn.name}-n{args.n}",
            mean_fn=mean_fn,
            var_fn=var_fn,
            n=args.n,
            error_law=law,
        )
    except DiffvarError as exc:
        # scenario configuration comes entirely from flags
        raise _UsageError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    _require_integrable(args, not args.no_global)
    h = _fixed_bandwidth(args)(args.n)
    scenario = _build_scenario(args)
    seq = _resolve_sequence(args)
    est = simlab.EstimatorConfig(sequence=seq, smoother=_smoother(args, h))
    points = args.x0 or []
    _require(points or not args.no_global,
             "nothing to simulate: no --x0 and --no-global")
    report = simlab.risk_report(
        scenario, est, args.replications, args.seed,
        points=points, include_global=not args.no_global,
        margin=args.margin, grid_size=args.grid_size,
    )
    _write_outputs((args.output, dump_json(report)))
    return 0


def _cmd_rates(args) -> int:
    ns = sorted(set(args.n))
    _require(len(ns) >= 4, "need at least 4 distinct --n values")
    _require_integrable(args, args.pointwise is None)
    seq = _resolve_sequence(args)
    schedule = simlab.rate_schedule(
        seq, args.gamma, args.scale, degree=args.degree, kernel_spec=kernel(args.kernel)
    )
    # degree + 1 distinct abscissae per window: a larger degree never fits
    _require(schedule(ns[0]).smoother.degree < ns[0],
             f"--degree must be below the smallest --n ({ns[0]}); "
             "it defaults to floor(--gamma) + 1")
    scenarios = [simlab.smooth_scenario(n) for n in ns]
    report = simlab.rate_experiment(
        scenarios, schedule, args.replications, args.seed,
        gamma=args.gamma, x0=args.pointwise,
        margin=args.margin, grid_size=args.grid_size,
    )
    _write_outputs((args.output, dump_json(report)))
    return 0


def _cmd_normality(args) -> int:
    try:
        law = simlab.ErrorLaw(args.error_law, df=args.df)
        scenario = simlab.smooth_scenario(args.n, error_law=law)
    except DiffvarError as exc:
        raise _UsageError(str(exc)) from exc
    seq = _resolve_sequence(args)
    h = min(args.undersmooth_scale * args.n ** (-0.3), 0.5)
    est = simlab.EstimatorConfig(sequence=seq, smoother=_smoother(args, h))
    report = simlab.normality_experiment(scenario, est, args.x0,
                                         args.replications, args.seed)
    outputs = [(args.output, dump_json(report))]
    if args.draws_out:
        lines = ["vhat"] + [repr(float(v)) for v in report.draws]
        outputs.append((args.draws_out, "\n".join(lines)))
    _write_outputs(*outputs)
    return 0


def _cmd_diffseq(args) -> int:
    if args.optimal is not None:
        seq = _optimal_sequence(args.optimal, "--optimal")
    elif args.standard is not None:
        seq = diffseq.standard_sequence(args.standard)
    else:
        try:
            coeffs = [float(c) for c in args.validate.split(",")]
        except ValueError as exc:
            raise _InputError(f"bad coefficient list: {exc}") from exc
        try:
            seq = diffseq.validate(coeffs)
        except DiffvarError as exc:
            raise _InputError(f"{type(exc).__name__}: {exc}") from exc
    payload = {
        "order": seq.order,
        "coefficients": seq.to_list(),
        "variance_factor": diffseq.variance_factor(seq),
        "min_constant": diffseq.min_constant(seq.order),
    }
    _write_outputs((args.output, dump_json(payload)))
    return 0


# --- wiring ------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="diffvar",
                     description="Difference-based variance function estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, each declared once
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_at_least(0), required=True)
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument("--error-law", default="gaussian",
                     choices=["gaussian", "scaled_uniform", "student_t"])
    law.add_argument("--df", type=float, default=None)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--margin", default=0.05,
                      type=_checked(float, lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"))
    grid.add_argument("--grid-size", type=_at_least(1), default=101)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None)

    p = sub.add_parser("estimate", help="fit a variance curve to a CSV")
    p.add_argument("--input", required=True, help="CSV with header x,y")
    p.add_argument("--output", required=True, help="CSV x,vhat (JSON sidecar added)")
    _add_estimator_flags(p, "cv,rate")
    p.add_argument("--folds", type=_at_least(2), default=5)
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.add_argument("--grid-size", type=_at_least(1), default=101)
    p.add_argument("--grid-min", type=_UNIT_POINT, default=0.05)
    p.add_argument("--grid-max", type=_UNIT_POINT, default=0.95)
    p.add_argument("--expand", action="store_true",
                   help="grow starved windows to the minimum viable bandwidth")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", parents=[seeded, law, grid, output],
                       help="risk report for one scenario")
    p.add_argument("--n", type=_at_least(2), required=True)
    p.add_argument("--replications", type=_at_least(2), required=True)
    p.add_argument("--mean", default="sine:offset=2,amplitude=1")
    p.add_argument("--variance", default="sine:offset=0.5,amplitude=0.25")
    p.add_argument("--x0", type=_UNIT_POINT, action="append",
                   help="pointwise risk location (repeatable; a repeat counts once)")
    p.add_argument("--no-global", action="store_true")
    _add_estimator_flags(p, "rate")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rates", parents=[seeded, grid, output],
                       help="convergence-slope experiment")
    p.add_argument("--gamma", type=_POSITIVE, required=True)
    p.add_argument("--n", type=_at_least(2), action="append", required=True,
                   help="sample size (repeat >= 4 times)")
    p.add_argument("--replications", type=_at_least(2), required=True)
    p.add_argument("--scale", type=_POSITIVE, default=1.0)
    _add_sequence_flags(p)
    p.add_argument("--degree", type=_at_least(0), default=None,
                   help="default: floor(gamma) + 1")
    p.add_argument("--pointwise", type=_UNIT_POINT, default=None,
                   help="measure pointwise risk at this x0 instead of global")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("normality", parents=[seeded, law, output],
                       help="replication-shape diagnostics")
    p.add_argument("--n", type=_at_least(2), required=True)
    p.add_argument("--replications", type=_at_least(500), required=True)
    p.add_argument("--x0", type=_UNIT_POINT, default=0.5)
    p.add_argument("--undersmooth-scale", type=_POSITIVE, default=4.4,
                   help="bandwidth = scale * n^(-0.3), capped at 0.5")
    _add_sequence_flags(p)
    p.add_argument("--degree", type=_at_least(0), default=1)
    p.add_argument("--draws-out", default=None,
                   help="also write raw replication draws as CSV")
    p.set_defaults(func=_cmd_normality)

    p = sub.add_parser("diffseq", parents=[output],
                       help="construct or validate difference sequences")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--optimal", type=_at_least(1), default=None, metavar="R",
                      help="compute the variance-minimizing order-R sequence")
    mode.add_argument("--standard", default=None,
                      choices=["first_difference", "gsjs"])
    mode.add_argument("--validate", default=None, metavar="C0,C1,...",
                      help="check a comma-separated coefficient list")
    p.set_defaults(func=_cmd_diffseq)

    return parser


def main(argv=None) -> int:
    # bad flags, flag combinations and scenario parameters are usage
    # errors; anything raised after inputs are resolved is an input or
    # computation failure
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except _InputError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return 2
    except DiffvarError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"computation failed: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
