"""Command-line surface: kernel tables, coefficient dumps, verification,
convolution experiments, cap-kernel coefficients, interpolation, point sets.

Each subcommand takes only the options it reads; any other option is an
argparse error (exit 2).  Every row table (eval, coeffs, conv, gen-points
and the interp evaluation table) is written by one writer, as CSV or as
JSON {"columns", "rows"}; verify, caps and the interpolant are JSON only.

Exit codes are stable across subcommands: 0 success, 1 verification failure,
2 input/validation error, including an input too large to compute (a
resource bound or MemoryError), 3 numerical failure (non-SPD Gram matrix,
accuracy loss).  Every run is deterministic: identical arguments produce
byte-identical output (floats render with 17 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .checks import check_names, run_checks
from .convolution import cap_indicator, conv0, conv_lambda_coeffs, dimension_hop_conv
from .errors import AccuracyError, EvaluationError, NotPositiveDefiniteError
from .gegenbauer import GegenbauerParams, transform
from .kernels import cap_kernel_coefficients, kernel_from_descriptor
from .interpolation import solve_interpolation, evaluate_interpolant
from .spd import PointSet, generate_points

__all__ = ["main"]


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _params(args) -> GegenbauerParams:
    if args.lam is None:
        raise ValueError("this command needs --lambda or --sphere-dim")
    return GegenbauerParams(args.lam)


def _optional_params(args) -> GegenbauerParams | None:
    return GegenbauerParams(args.lam) if args.lam is not None else None


def _emit(path: str | None, text: str):
    """Write text to path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_descriptor(raw: str | None) -> dict | None:
    if not raw:
        return None
    raw = raw.strip()
    if raw.startswith("{"):
        return json.loads(raw)
    with open(raw) as fh:
        return json.load(fh)


def _emit_rows(path: str | None, columns, rows, preamble: str = "", fmt: str = "csv"):
    """Rows of Python numbers to path (stdout when None), as JSON
    {"columns", "rows"} or as a CSV table under the preamble with every
    number formatted as _fmt does."""
    if fmt == "json":
        _emit(path, json.dumps({"columns": list(columns), "rows": rows}, sort_keys=True) + "\n")
        return
    line = ",".join(["{:.17g}"] * len(columns))
    head = [preamble] if preamble else []
    _emit(path, "\n".join([*head, ",".join(columns), *(line.format(*row) for row in rows)]) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    kernel = kernel_from_descriptor(args.descriptor, params=_optional_params(args))
    if args.grid > 0:
        if args.grid_space == "theta":
            theta = np.linspace(0.0, math.pi, args.grid)
            xs = np.cos(theta)
        else:
            xs = np.linspace(-1.0, 1.0, args.grid)
            theta = np.arccos(np.clip(xs, -1.0, 1.0))
        vals = np.asarray(kernel(xs))
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("kernel produced non-finite values on the grid")
    else:
        xs = theta = vals = np.empty(0)
    rows = list(zip(xs.tolist(), theta.tolist(), vals.tolist()))
    _emit_rows(args.out, ("x", "theta", "value"), rows, fmt=args.fmt)
    return 0


def cmd_coeffs(args) -> int:
    params = _params(args)
    kernel = kernel_from_descriptor(args.descriptor, params=params)
    series = transform(kernel, params, args.trunc, order=args.quad_order)
    coeffs = series.weights() * series.coeffs
    note = (
        f"# expansion f ~ sum_n coeff[n] * W^lambda_n at lambda={_fmt(params.lam)}; "
        "divide coeff[n] by C^lambda_n(1) for the plain Gegenbauer basis"
    )
    _emit_rows(args.out, ("n", "coeff"), list(enumerate(coeffs.tolist())), preamble=note, fmt=args.fmt)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(names=args.check or None, tol=args.tol)
    report = {
        "checks": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["all_passed"] else 1


def _conv_factors(args):
    if args.cap_s is not None:
        if not (0.0 < args.cap_s < math.pi):
            raise ValueError("--cap-s must lie in (0, pi)")
        g = cap_indicator(math.cos(args.cap_s))
        return g, g
    if args.descriptor is None:
        raise ValueError("conv needs --cap-s or --kernel")
    params = _optional_params(args)
    f = kernel_from_descriptor(args.descriptor, params=params)
    g = kernel_from_descriptor(args.descriptor2, params=params) if args.descriptor2 else f
    return f, g


def cmd_conv(args) -> int:
    params = _params(args)
    f, g = _conv_factors(args)
    if args.table == "coeffs":
        fhat = transform(f, params, args.trunc, order=args.quad_order)
        ghat = transform(g, params, args.trunc, order=args.quad_order)
        prod = conv_lambda_coeffs(fhat, ghat)
        _emit_rows(args.out, ("n", "coeff"), list(enumerate(prod.coeffs.tolist())), fmt=args.fmt)
        return 0
    lam = params.lam
    if abs(lam - round(lam)) > 1e-12:
        raise ValueError("direct convolution tables need integer lambda (0 for *_0, m for the hop)")
    lam = int(round(lam))
    # midpoint theta grid: avoids the endpoints and generic kink abscissae
    theta = (np.arange(args.grid) + 0.5) * math.pi / args.grid
    xs = np.cos(theta)
    if lam == 0:
        vals = conv0(f, g, theta, order=args.quad_order)
    else:
        vals = dimension_hop_conv(f, g, GegenbauerParams(float(lam - 1)), xs, order=args.quad_order)
    _emit_rows(args.out, ("x", "value"), list(zip(xs.tolist(), vals.tolist())), fmt=args.fmt)
    return 0


def cmd_caps(args) -> int:
    coeffs = cap_kernel_coefficients(args.d, args.s)
    ratios = {key[1]: coeffs.ratio(key) for key in coeffs.products}
    payload = {
        "d": coeffs.dim,
        "s": coeffs.s,
        "support_edge": math.cos(2.0 * coeffs.s),
        "a": coeffs.a,
        "products": dict(sorted(coeffs.products.items())),
        "coefficients": dict(sorted(ratios.items())),
    }
    _emit(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _read_matrix(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(";", ",").split(",")
            try:
                rows.append([float(p) for p in parts if p != ""])
            except ValueError:
                if not rows:
                    continue  # header line
                raise
    if not rows:
        raise ValueError(f"no numeric rows in {path}")
    return np.asarray(rows, dtype=float)


def cmd_interp(args) -> int:
    if not args.points_file or not args.values_file:
        raise ValueError("interp needs --points and --values files")
    raw_pts = _read_matrix(args.points_file)
    values = _read_matrix(args.values_file).ravel()
    if args.lonlat:
        if raw_pts.shape[1] != 2:
            raise ValueError("lon/lat input needs exactly two columns (degrees)")
        lon = np.radians(raw_pts[:, 0])
        lat = np.radians(raw_pts[:, 1])
        raw_pts = np.column_stack(
            [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
        )
    d = raw_pts.shape[1] - 1
    pts = PointSet(d=d, points=raw_pts)
    if values.shape != (len(pts),):
        raise ValueError(f"value count {values.size} does not match point count {len(pts)}")
    # the query file is read and checked before the solve, and evaluated
    # before anything is written, so a run that fails prints nothing
    q = _read_matrix(args.eval_points) if args.eval_points else None
    if q is not None and q.shape[1] != d + 1:
        raise ValueError(f"query points need {d + 1} columns, got {q.shape[1]}")
    kernel = kernel_from_descriptor(args.descriptor, params=_optional_params(args))
    itp = solve_interpolation(pts, values, kernel, residual_tol=args.tol)
    vals = evaluate_interpolant(itp, q) if q is not None else None
    _emit(args.out, json.dumps(itp.to_dict(), sort_keys=True) + "\n")
    if q is not None:
        columns = [f"x{i}" for i in range(q.shape[1])] + ["value"]
        _emit_rows(args.eval_out, columns, np.column_stack([q, vals]).tolist())
    return 0


def cmd_gen_points(args) -> int:
    d = 2.0 * _params(args).lam + 1.0
    if not d.is_integer():
        raise ValueError(f"lambda = {args.lam} is not (d - 1)/2 for an integer sphere dimension d")
    d = int(d)
    pts = generate_points(d, args.n, scheme=args.scheme, seed=args.seed)
    _emit_rows(args.out, [f"x{i}" for i in range(d + 1)], pts.points.tolist(), fmt=args.fmt)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _sphere_dim(text: str) -> float:
    """--sphere-dim d, stored as lambda = (d - 1) / 2."""
    return (int(text) - 1) / 2.0


def _int_at_least(low: int):
    """argparse type: an integer >= low, so that a bad value exits 2 at parse time."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)
    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The sphkern parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sphkern",
        description="Locally supported positive definite zonal kernels on spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups shared between subcommands; each command takes only the
    # groups it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="output path (stdout otherwise)")
    rows = argparse.ArgumentParser(add_help=False, parents=[out])
    rows.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    lam = argparse.ArgumentParser(add_help=False)
    group = lam.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, help="Gegenbauer index lambda")
    group.add_argument("--sphere-dim", dest="lam", type=_sphere_dim, metavar="D", help="sphere dimension d; lambda=(d-1)/2")
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--trunc", type=_int_at_least(0), default=40, help="series truncation N")
    series.add_argument("--quad-order", type=_int_at_least(1), default=128, help="quadrature order / nodes per panel")

    p_eval = sub.add_parser("eval", parents=[lam, rows], help="tabulate a kernel over a grid")
    p_eval.add_argument("--kernel", required=True, help="kernel descriptor JSON (inline or a file path)")
    p_eval.add_argument("--grid", type=_int_at_least(0), default=101)
    p_eval.add_argument("--grid-space", choices=("x", "theta"), default="x")

    p_coeffs = sub.add_parser("coeffs", parents=[lam, series, rows], help="Fourier-Gegenbauer coefficient table")
    p_coeffs.add_argument("--kernel", required=True)

    p_verify = sub.add_parser("verify", parents=[out], help="run the verification suites")
    p_verify.add_argument("--tol", type=float, default=None, help="override every check's tolerance")
    p_verify.add_argument("--check", action="append", default=[], choices=check_names(), help="run only this check (repeatable)")

    p_conv = sub.add_parser("conv", parents=[lam, series, rows], help="convolution tables")
    p_conv.add_argument("--kernel", default=None)
    p_conv.add_argument("--kernel2", default=None)
    p_conv.add_argument("--cap-s", type=float, default=None, help="self-convolve the cap indicator of angle s")
    p_conv.add_argument("--grid", type=_int_at_least(0), default=101)
    p_conv.add_argument("--table", choices=("values", "coeffs"), default="values", help="x,value grid or n,coeff products")

    p_caps = sub.add_parser("caps", parents=[out], help="cap kernel coefficient sets")
    p_caps.add_argument("--d", type=int, required=True, choices=(3, 5, 7, 9))
    p_caps.add_argument("--s", type=float, required=True)

    p_interp = sub.add_parser("interp", parents=[lam, out], help="scattered-data interpolation")
    p_interp.add_argument("--points", dest="points_file", required=True)
    p_interp.add_argument("--values", dest="values_file", required=True)
    p_interp.add_argument("--kernel", required=True)
    p_interp.add_argument("--lonlat", action="store_true", help="points file holds lon,lat in degrees (S^2)")
    p_interp.add_argument("--eval-points", default=None, help="CSV of query points to evaluate")
    p_interp.add_argument("--eval-out", default=None, help="path for the evaluation table")
    p_interp.add_argument("--tol", type=float, default=1e-9, help="residual tolerance of the solve")

    p_gen = sub.add_parser("gen-points", parents=[lam, rows], help="deterministic point sets on S^d")
    p_gen.add_argument("--n", type=_int_at_least(1), default=100)
    p_gen.add_argument("--scheme", choices=("random_seeded", "fibonacci_s2"), default="fibonacci_s2")
    p_gen.add_argument("--seed", type=_int_at_least(0), default=0)

    return parser


_DISPATCH = {
    "eval": cmd_eval,
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
    "conv": cmd_conv,
    "caps": cmd_caps,
    "interp": cmd_interp,
    "gen-points": cmd_gen_points,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.descriptor = _load_descriptor(getattr(args, "kernel", None))
        args.descriptor2 = _load_descriptor(getattr(args, "kernel2", None))
        return _DISPATCH[args.command](args)
    except (NotPositiveDefiniteError, AccuracyError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: floating-point overflow: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
