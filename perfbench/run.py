"""sphkern benchmark entry point.

    python3 perfbench/run.py --workload verify|interp|tables --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it name every workload-specific timing with its unit and sample count, and
the machine and library record.  A full record is written to
``perfbench/results/``.
"""

import os

# BLAS/OpenMP threads are pinned before numpy is first imported: results
# (the n3_wide residual, for one) differ in the last bits between 1 and 2
# threads, and the workloads are single-caller loops.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.getcwd(), "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
PROBE_TIMEOUT_S = 60


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "interp", "tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None, "tail_pct": None, "tail": None}
    if n >= 21:  # below that the percentile would not lie above the median
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
        out["tail"] = ordered[n - 11]
    return out


def _describe(s) -> str:
    beyond = f"p{s['tail_pct']} {s['tail']:.4f} s" if s["tail"] is not None else "no percentile with ten samples beyond it"
    return f"median {s['median']:.4f} s, {beyond}, n={s['n']}"


def _git_sha():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC_DIR, "sphkern")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def environment(args):
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(),
        "source_sha256_16": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _probe_setup(args) -> float:
    """Set-up time of a fresh interpreter: import, inputs, warm pass."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _summarize_rounds(rounds, stages):
    """Per-round sums, then median over rounds, per stage and part."""
    per_round = {key: [] for key in ("pass", "a", "b", *stages)}
    for ops in rounds:
        per_round["pass"].append(sum(op.seconds for op in ops))
        for key in ("a", "b"):
            per_round[key].append(sum(op.seconds for op in ops if op.part == key))
        for stage in stages:
            per_round[stage].append(sum(op.seconds for op in ops if op.stage == stage))
    return per_round


def _per_op(rounds):
    """Seconds of each operation, one entry per round."""
    out = {}
    for ops in rounds:
        for op in ops:
            out.setdefault(f"{op.stage}/{op.name}", []).append(op.seconds)
    return out


def _layer_metrics(tracer, workload, traced_rounds, traced_wall, untraced_wall):
    import workloads
    from tracing import LAYERS, ROUTES

    k = 1.0 / len(traced_rounds)
    incl, selft, calls, counters, gauges = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counters, tracer.gauges
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("gegenbauer.transform_s", k * tracer.total(incl, "gegenbauer.transform"), "s")
    put("gegenbauer.transform_calls", k * tracer.total(calls, "gegenbauer.transform"), "count")
    put("gegenbauer.transform_table_bytes", k * counters["gegenbauer.transform_table_bytes"], "B_computed")
    put("gegenbauer.series_eval_s", k * tracer.total(incl, "gegenbauer.series_eval"), "s")
    put("gegenbauer.series_eval_points", k * counters["gegenbauer.series_eval_points"], "count")
    put("gegenbauer.series_table_bytes", k * counters["gegenbauer.series_table_bytes"], "B_computed")
    put("gegenbauer.quadrature_rule_s", k * tracer.total(incl, "gegenbauer.quadrature_rule"), "s")
    put("operators.montee_s", k * tracer.total(incl, "operators.montee"), "s")
    put("operators.montee_calls", k * counters["operators.montee_calls"], "count")
    calls_i, points_i = counters["operators.montee_integrand_calls"], counters["operators.montee_integrand_points"]
    put("operators.montee_integrand_calls", k * calls_i, "count")
    put("operators.montee_integrand_points", k * points_i, "count")
    put("operators.montee_points_per_integrand_call", points_i / calls_i if calls_i else 0.0, "1")
    put("operators.descente_s", k * tracer.total(incl, "operators.descente"), "s")
    put("operators.descente_integrand_calls", k * counters["operators.descente_integrand_calls"], "count")
    for route in ROUTES:
        put(f"kernels.eval_s.{route}", k * tracer.total(incl, f"kernels.eval.{route}"), "s")
        put(f"kernels.eval_points.{route}", k * counters[f"kernels.eval_points.{route}"], "count")
    put("convolution.conv0_s", k * tracer.total(incl, "convolution.conv0"), "s")
    put("convolution.conv0_calls", k * tracer.total(calls, "convolution.conv0"), "count")
    put("convolution.hop_s", k * tracer.total(incl, "convolution.dimension_hop_conv"), "s")
    put("convolution.hop_points", k * counters["convolution.hop_points"], "count")
    put("convolution.hop_self_s", k * tracer.total(tracer.minus_operators, "convolution.dimension_hop_conv"), "s")
    for problem in workloads.INTERP_PROBLEMS:
        put(f"spd.pointset_s.{problem}", k * tracer.total(incl, "spd.PointSet", problem), "s")
        put(f"spd.gram_s.{problem}", k * tracer.total(incl, "spd.gram_matrix", problem), "s")
        put(f"spd.gram_nnz_frac.{problem}", gauges.get(f"spd.gram_nnz_frac.{problem}", 0.0), "1")
        put(f"spd.gram_bytes.{problem}", gauges.get(f"spd.gram_bytes.{problem}", 0), "B_computed")
        put(f"interpolation.solve_self_s.{problem}", k * tracer.total(selft, "interpolation.solve_interpolation", problem), "s")
        put(f"interpolation.residual_inf.{problem}", gauges.get(f"interpolation.residual_inf.{problem}", 0.0), "1")
        put(f"interpolation.evaluate_s.{problem}", k * tracer.total(incl, "interpolation.evaluate_interpolant", problem), "s")
        put(f"interpolation.eval_matrix_bytes.{problem}", gauges.get(f"interpolation.eval_matrix_bytes.{problem}", 0), "B_computed")
        put(f"interpolation.max_err.{problem}", getattr(workload, "max_errors", {}).get(problem, 0.0), "1")
    for check in workloads.VERIFY_REFERENCE:
        put(f"checks.{check}_s", k * tracer.total(incl, f"checks.{check}"), "s")
    for command in ("coeffs", "eval", "conv"):
        put(f"cli.self_s.{command}", k * tracer.total(selft, "cli.main", command), "s")
    put("zonal.kernel_points", k * counters["zonal.kernel_points"], "count")
    layer_self = tracer.layer_self()
    for layer in LAYERS:
        if layer != "zonal":  # zonal carries a counter only; its time stays with the caller
            put(f"{layer}.self_s", k * layer_self.get(layer, 0.0), "s")
    attributed = sum(layer_self.values())
    put("trace.hook_s", k * layer_self.get("trace", 0.0), "s")
    traced_mean, untraced_mean = statistics.mean(traced_wall), statistics.mean(untraced_wall)
    put("trace.traced_wall_s", traced_mean, "s")
    put("trace.untraced_wall_s", untraced_mean, "s")
    put("trace.overhead_s", traced_mean - untraced_mean, "s")
    put("trace.unattributed_s", traced_mean - k * attributed, "s")
    put("trace.spans", k * len(tracer.spans), "count")
    return m


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "sphkern")):
        print(f"error: no sphkern package under {SRC_DIR}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    warm = cls(args.seed, scale="tiny")
    warm.run_round()
    warm.close()
    workload = cls(args.seed)
    setup_here = time.perf_counter() - T_START
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_here}))
        return 0
    setup_samples = [setup_here] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    rounds, traced_rounds, failures = [], [], []
    traced_wall, untraced_wall = [], []
    loop_start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and bool(untraced_wall)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                ops = workload.run_round(tag=(lambda t: setattr(tracer, "tag", t)) if traced else None)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            (traced_wall if traced else untraced_wall).append(wall)
            (traced_rounds if traced else rounds).append(ops)
            for op in ops:  # correctness gates, outside the timed region
                if op.error is None:
                    try:
                        op.error = workload.gate(op)
                    except Exception as exc:  # a gate that cannot run fails the operation
                        op.error = f"gate raised {type(exc).__name__}: {exc}"
                if op.error is not None:
                    failures.append(f"{op.stage}/{op.name}: {op.error}")
            done = time.perf_counter() - loop_start >= args.seconds
            if done and (tracer is None or traced_wall):
                break
    finally:
        workload.close()

    all_ops = [op for ops in rounds + traced_rounds for op in ops]
    attempted, failed = len(all_ops), sum(op.error is not None for op in all_ops)
    env = environment(args)
    per_round = _summarize_rounds(rounds, cls.stages)
    op_latency = tail([op.seconds for ops in rounds for op in ops])
    named = {stage: tail(per_round[stage]) for stage in cls.stages}
    if args.trace:
        metrics = _layer_metrics(tracer, workload, traced_rounds, traced_wall, untraced_wall)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "pass_s": {"value": statistics.median(per_round["pass"]), "unit": "s"},
            "part_a_s": {"value": statistics.median(per_round["a"]), "unit": "s"},
            "part_b_s": {"value": statistics.median(per_round["b"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "env": env,
        "setup_samples_s": setup_samples,
        "rounds": len(rounds),
        "named_s": named,
        "per_round_s": per_round,
        "per_op_s": _per_op(rounds),
        "op_latency_s": op_latency,
        "max_err": getattr(workload, "max_errors", None),
        "failures": failures,
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(stem + "-spans.json", {"env": env})

    print("# env " + json.dumps(env, sort_keys=True))
    for stage, s in named.items():
        print(f"# {stage}: {_describe(s)} untraced rounds")
    print(f"# operation latency: {_describe(op_latency)} operations")
    if record["max_err"]:
        print("# interp_max_err: " + ", ".join(f"{k} {v:.3e}" for k, v in record["max_err"].items()) + " (1)")
    for line in failures[:20]:
        print("# FAILED " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
