"""Command-line surface: kernel tables, coefficient dumps, verification,
convolution experiments, cap-kernel coefficients, interpolation, point sets.

Exit codes are stable across subcommands: 0 success, 1 verification failure,
2 input/validation error, 3 numerical failure (non-SPD Gram matrix, accuracy
loss).  Every run is deterministic: identical arguments produce
byte-identical output (floats render with 17 significant digits).
"""

from __future__ import annotations

import argparse
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


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_descriptor(raw: str) -> dict:
    raw = raw.strip()
    if raw.startswith("{"):
        return json.loads(raw)
    with open(raw) as fh:
        return json.load(fh)


def _table(rows, header: str, preamble: str = "") -> str:
    lines = []
    if preamble:
        lines.append(preamble)
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _emit_rows(args, columns, rows, preamble: str = ""):
    """Rows of Python numbers as JSON {"columns", "rows"}, or as a CSV table
    under the preamble with every number formatted as _fmt does."""
    if args.fmt == "json":
        _emit(args, json.dumps({"columns": list(columns), "rows": rows}, sort_keys=True) + "\n")
    else:
        line = ",".join(["{:.17g}"] * len(columns))
        _emit(args, _table([line.format(*row) for row in rows], ",".join(columns), preamble))


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
    _emit_rows(args, ("x", "theta", "value"), list(zip(xs.tolist(), theta.tolist(), vals.tolist())))
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
    _emit_rows(args, ("n", "coeff"), list(enumerate(coeffs.tolist())), preamble=note)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(names=args.check or None, tol=args.tol)
    report = {
        "checks": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(args, json.dumps(report, indent=2, sort_keys=True) + "\n")
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
        _emit_rows(args, ("n", "coeff"), list(enumerate(prod.coeffs.tolist())))
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
    _emit_rows(args, ("x", "value"), list(zip(xs.tolist(), vals.tolist())))
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
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    kernel = kernel_from_descriptor(args.descriptor, params=_optional_params(args))
    tol = args.tol if args.tol is not None else 1e-9
    itp = solve_interpolation(pts, values, kernel, residual_tol=tol)
    _emit(args, json.dumps(itp.to_dict(), sort_keys=True) + "\n")
    if args.eval_points:
        q = _read_matrix(args.eval_points)
        vals = evaluate_interpolant(itp, q)
        header = ",".join(f"x{i}" for i in range(q.shape[1])) + ",value"
        rows = [",".join(_fmt(c) for c in row) + f",{_fmt(v)}" for row, v in zip(q, vals)]
        text = _table(rows, header)
        if args.eval_out:
            with open(args.eval_out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def cmd_gen_points(args) -> int:
    d = 2.0 * _params(args).lam + 1.0
    if not d.is_integer():
        raise ValueError(f"lambda = {args.lam} is not (d - 1)/2 for an integer sphere dimension d")
    d = int(d)
    pts = generate_points(d, args.n, scheme=args.scheme, seed=args.seed)
    header = ",".join(f"x{i}" for i in range(d + 1))
    rows = [",".join(_fmt(c) for c in row) for row in pts.points]
    _emit(args, _table(rows, header))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphkern",
        description="Locally supported positive definite zonal kernels on spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    group = common.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, help="Gegenbauer index lambda")
    group.add_argument("--sphere-dim", dest="sphere_dim", type=int, help="sphere dimension d; lambda=(d-1)/2")
    common.add_argument("--trunc", type=int, default=40, help="series truncation N")
    common.add_argument("--quad-order", type=int, default=128, help="quadrature order / nodes per panel")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--out", type=str, default=None, help="output path (stdout otherwise)")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p_eval = sub.add_parser("eval", parents=[common], help="tabulate a kernel over a grid")
    p_eval.add_argument("--kernel", required=True, help="kernel descriptor JSON (inline or @file path)")
    p_eval.add_argument("--grid", type=int, default=101)
    p_eval.add_argument("--grid-space", choices=("x", "theta"), default="x")

    p_coeffs = sub.add_parser("coeffs", parents=[common], help="Fourier-Gegenbauer coefficient table")
    p_coeffs.add_argument("--kernel", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run the verification suites")
    p_verify.add_argument("--check", action="append", default=[], choices=check_names(), help="run only this check (repeatable)")

    p_conv = sub.add_parser("conv", parents=[common], help="convolution tables")
    p_conv.add_argument("--kernel", default=None)
    p_conv.add_argument("--kernel2", default=None)
    p_conv.add_argument("--cap-s", type=float, default=None, help="self-convolve the cap indicator of angle s")
    p_conv.add_argument("--grid", type=int, default=101)
    p_conv.add_argument("--table", choices=("values", "coeffs"), default="values", help="x,value grid or n,coeff products")

    p_caps = sub.add_parser("caps", parents=[common], help="cap kernel coefficient sets")
    p_caps.add_argument("--d", type=int, required=True, choices=(3, 5, 7, 9))
    p_caps.add_argument("--s", type=float, required=True)

    p_interp = sub.add_parser("interp", parents=[common], help="scattered-data interpolation")
    p_interp.add_argument("--points", dest="points_file", required=True)
    p_interp.add_argument("--values", dest="values_file", required=True)
    p_interp.add_argument("--kernel", required=True)
    p_interp.add_argument("--lonlat", action="store_true", help="points file holds lon,lat in degrees (S^2)")
    p_interp.add_argument("--eval-points", default=None, help="CSV of query points to evaluate")
    p_interp.add_argument("--eval-out", default=None, help="path for the evaluation table")

    p_gen = sub.add_parser("gen-points", parents=[common], help="deterministic point sets on S^d")
    p_gen.add_argument("--n", type=int, default=100)
    p_gen.add_argument("--scheme", choices=("random_seeded", "fibonacci_s2"), default="fibonacci_s2")

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
        if args.sphere_dim is not None:
            args.lam = (args.sphere_dim - 1) / 2.0
        args.descriptor = _load_descriptor(args.kernel) if getattr(args, "kernel", None) else None
        args.descriptor2 = _load_descriptor(args.kernel2) if getattr(args, "kernel2", None) else None
        return _DISPATCH[args.command](args)
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AccuracyError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: floating-point overflow: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
