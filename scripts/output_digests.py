#!/usr/bin/env python3
"""Print the SHA-256 of the `sphkern verify` JSON and of a fixed set of CLI tables.

The set is the 11 tables of the benchmark's `tables` workload, the cap
`conv` tables at lambda = 3 and 4 (s = pi/6, grid 300), the `conv` tables of
f_3 at lambda = 0 and of I^2 f_4 at lambda = 1, one `conv --table coeffs`,
and the `conv` table of N_3 (s = 0.5) at lambda = 2, whose hop runs on
numeric montee ladders: 17 tables.  Everything runs in one child
interpreter with BLAS and OpenMP on one thread, so a claim that a change
keeps every output byte for byte is a diff of this script's output for the
two source trees:

    python scripts/output_digests.py [src_dir] > digests.txt

src_dir is the directory that holds the `sphkern` package to run (default:
the `src/` of this checkout).  One line per output: digest, then name.
Exits 1 if any command exits non-zero.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _desc(**kw) -> str:
    return json.dumps(kw)


def invocations() -> list:
    """(name, argv) of every output, in print order."""
    trunc = ["--trunc", "1000", "--quad-order", "1024"]
    grid = ["--grid", "2001"]
    cap = ["--cap-s", repr(math.pi / 4.0), "--grid", "200"]
    cap6 = ["--cap-s", repr(math.pi / 6.0), "--grid", "300"]
    f2 = _desc(family="truncated_power", m=2, t=1.0)
    i3f4 = _desc(family="montee", m=4, k=3, t=1.0)
    return [
        ("verify", ["verify"]),
        ("coeffs_n3", ["coeffs", "--kernel", _desc(family="cap_conv", d=3, s=math.pi / 8.0), "--lambda", "1", *trunc]),
        ("coeffs_f2", ["coeffs", "--kernel", f2, "--lambda", "1", *trunc]),
        ("coeffs_i3f4", ["coeffs", "--kernel", i3f4, "--lambda", "0.5", *trunc]),
        ("eval_if6", ["eval", "--kernel", _desc(family="montee", m=6, k=1, t=1.0), *grid]),
        ("eval_i2f4", ["eval", "--kernel", _desc(family="montee", m=4, k=2, t=1.0), *grid]),
        ("eval_i3f4", ["eval", "--kernel", i3f4, *grid]),
        ("eval_n9", ["eval", "--kernel", _desc(family="cap_conv", d=9, s=math.pi / 8.0), *grid]),
        ("conv_cap_l0", ["conv", "--lambda", "0", *cap]),
        ("conv_cap_l1", ["conv", "--lambda", "1", *cap]),
        ("conv_cap_l2", ["conv", "--lambda", "2", *cap]),
        ("conv_f2_l2", ["conv", "--kernel", f2, "--lambda", "2", "--grid", "40"]),
        ("conv_cap_l3", ["conv", "--lambda", "3", *cap6]),
        ("conv_cap_l4", ["conv", "--lambda", "4", *cap6]),
        ("conv_f3_l0", ["conv", "--kernel", _desc(family="truncated_power", m=3, t=1.0), "--lambda", "0"]),
        ("conv_i2f4_l1", ["conv", "--kernel", _desc(family="montee", m=4, k=2, t=1.0), "--lambda", "1"]),
        ("conv_cap_coeffs", ["conv", "--table", "coeffs", "--lambda", "1", *cap]),
        ("conv_n3_l2", ["conv", "--kernel", _desc(family="cap_conv", d=3, s=0.5), "--lambda", "2", "--grid", "101"]),
    ]


# runs in the child: each command writes its output to a file, whose digest
# is printed as soon as it is done
_CHILD = """
import hashlib, json, os, sys, tempfile
from sphkern import cli
print("sphkern from", os.path.dirname(cli.__file__), file=sys.stderr)
failed = 0
with tempfile.TemporaryDirectory() as tmp:
    for name, argv in json.load(sys.stdin):
        path = os.path.join(tmp, name)
        code = cli.main([*argv, "--out", path])
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            failed = 1
        with open(path, "rb") as fh:
            print(hashlib.sha256(fh.read()).hexdigest(), name, flush=True)
sys.exit(failed)
"""


def main() -> int:
    default = pathlib.Path(__file__).resolve().parents[1] / "src"
    src = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else str(default)
    if not os.path.isdir(os.path.join(src, "sphkern")):
        print(f"error: no sphkern package in {src}", file=sys.stderr)
        return 2
    env = {**os.environ, **THREADS_ENV, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(invocations()), text=True, env=env, timeout=600
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
