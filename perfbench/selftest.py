"""Self-test of the benchmark's correctness gates and tracer.

    python3 perfbench/selftest.py

Run from the repository root.  Each workload runs once at its tiny scale;
every gate must pass on the current code, and must trip when one output of
each operation is deliberately perturbed, so that no gate can go silently
dead.  The tracer must record spans on the tiny rounds and restore every
patched name afterwards.  Exits 0 when all of that holds.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import dataclasses  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import sphkern  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _perturb_table(data: bytes, row: int) -> bytes:
    """The table with the last field of data row `row` moved by 1e-6 (relative, at least absolute)."""
    lines = data.decode().split("\n")
    data_lines = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    target = data_lines[row]
    fields = lines[target].split(",")
    value = float(fields[-1])
    fields[-1] = format(value + 1e-6 * max(1.0, abs(value)), ".17g")
    lines[target] = ",".join(fields)
    return "\n".join(lines).encode()


def _perturbations(workload, op):
    """(description, perturbed Op) pairs that the gate must reject."""
    out = []

    def variant(value):
        bad = workloads.Op(op.name, op.stage, op.part)
        bad.value = value
        return bad

    if isinstance(workload, workloads.Verify):
        r = op.value
        out.append(("deviation x100", variant(dataclasses.replace(r, deviation=100.0 * r.deviation + 1e-14))))
        out.append(("check reported failed", variant(dataclasses.replace(r, passed=False))))
    elif isinstance(workload, workloads.Interp):
        if op.stage == "interp_solve_s":
            out.append(("residual 1e-3", variant(dataclasses.replace(op.value, residual_inf=1e-3))))
        else:
            values = np.array(op.value, copy=True)
            values[len(values) // 2] += 100.0
            out.append(("one query value +100", variant(values)))
    else:
        rows, _ = workload.oracles[op.name]
        row = int(np.arange(len(workloads._parse_table(op.value.decode())))[rows][0])
        bad_bytes = _perturb_table(op.value, row)
        out.append(("bytes differ from the first round", variant(bad_bytes)))
        # the oracle comparison alone: pretend the perturbed table came first
        oracle_only = variant(bad_bytes)
        out.append(("one table value +1e-6 (oracle only)", oracle_only))
    return out


def check_gates(cls) -> list:
    problems = []
    workload = cls(seed=3, scale="tiny")
    try:
        ops = workload.run_round()
        for op in ops:
            if op.error is not None:
                problems.append(f"{cls.name}/{op.name}: operation failed: {op.error}")
                continue
            verdict = workload.gate(op)
            if verdict is not None:
                problems.append(f"{cls.name}/{op.name}: gate rejects the current code: {verdict}")
                continue
            for what, bad in _perturbations(workload, op):
                if "oracle only" in what:
                    saved = workload.first_bytes[op.name]
                    workload.first_bytes[op.name] = bad.value
                    verdict = workload.gate(bad)
                    workload.first_bytes[op.name] = saved
                else:
                    verdict = workload.gate(bad)
                if verdict is None:
                    problems.append(f"{cls.name}/{op.name}: gate did not trip on '{what}'")
        print(f"{cls.name}: {len(ops)} operations gated, perturbations rejected")
    finally:
        workload.close()
    return problems


def check_tracer() -> list:
    problems = []
    originals = {name: getattr(sphkern, name) for name in ("transform", "montee_numeric", "solve_interpolation", "conv0")}
    call = sphkern.ZonalKernel.__call__
    layers_seen = set()
    for cls in workloads.WORKLOADS.values():
        workload = cls(seed=3, scale="tiny")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.run_round(tag=lambda t: setattr(tracer, "tag", t))
        finally:
            tracer.uninstall()
            workload.close()
        if not tracer.spans or any(s is None for s in tracer.spans) or tracer.stack:
            problems.append(f"{cls.name}: spans missing or left open")
        layers_seen |= set(tracer.layer_self())
        if tracer.counters["zonal.kernel_points"] <= 0:
            problems.append(f"{cls.name}: no kernel points counted")
    missing = set(tracing.LAYERS) - {"zonal"} - layers_seen
    if missing:
        problems.append(f"no spans recorded for layers {sorted(missing)}")
    for name, orig in originals.items():
        if getattr(sphkern, name) is not orig:
            problems.append(f"sphkern.{name} still patched after uninstall")
    if sphkern.ZonalKernel.__call__ is not call:
        problems.append("ZonalKernel.__call__ still patched after uninstall")
    print(f"tracer: layers with spans {sorted(layers_seen)}")
    return problems


def main() -> int:
    problems = []
    for cls in workloads.WORKLOADS.values():
        problems += check_gates(cls)
    problems += check_tracer()
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
