"""Render the objective as portable C and cross-check it against the
in-process evaluator.

The rendered source is an escape hatch: an independent toolchain can
compile it and confirm the distance values bit for bit.
"""

import ctypes
import random
import shutil
import struct
import subprocess
import tempfile
from pathlib import Path

from fpsat import build_problem, kernels, render_objective_source
from fpsat.harness import corpus_dir

problem = build_problem((corpus_dir() / "listing1.smt2").read_text())
source = render_objective_source(problem.program)
print("rendered source (first 25 lines):\n")
print("\n".join(source.splitlines()[:25]))
print("...\n")

if shutil.which("gcc") is None:
    print("gcc not found; skipping the compiled comparison")
    raise SystemExit(0)

with tempfile.TemporaryDirectory() as tmp:
    c_path = Path(tmp) / "objective.c"
    so_path = Path(tmp) / "objective.so"
    c_path.write_text(source)
    subprocess.run(
        ["gcc", *kernels.KERNEL_CFLAGS, "-o", str(so_path), str(c_path)],
        check=True,
    )
    lib = ctypes.CDLL(str(so_path))
    lib.objective.restype = ctypes.c_double
    lib.objective.argtypes = [ctypes.POINTER(ctypes.c_double)]

    rng = random.Random(1)
    agree = 0
    for _ in range(10_000):
        bits = rng.getrandbits(64)
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        c_val = lib.objective((ctypes.c_double * 1)(x))
        py_val = problem.program.evaluate([x])
        same = c_val == py_val or (c_val != c_val and py_val != py_val)
        agree += same
    print(f"compiled C vs in-process tape: {agree}/10000 inputs bit-identical")
    print(f"(the in-process tape ran on the {kernels.status()['path']} path)")
