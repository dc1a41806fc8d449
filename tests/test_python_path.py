"""The objective, PRNG, optimizer and crash tests again, on the Python path.

Their own modules run on the native kernels when those loaded. Here each
module runs once more in a child pytest with `--kernels=python`, which
clears the kernels' handle (see `conftest.kernel_path`), so the reference
code that the kernels replace passes the same tests, golden trajectories
and pinned digests included. The golden trajectories run once more
with numpy's AVX-512 code paths disabled.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("target, env", [
    ("test_objective.py", {}),
    ("test_optimizers.py", {}),
    ("test_rng.py", {}),
    # `crashing_isres` crashes the Python ISRES at `optimizers._gauss_rows`
    ("test_portfolio.py::TestCrashedInstance", {}),
    # numpy's vectorized transcendentals take other code paths, with other
    # last bits, on CPUs without these features; the trajectories must not
    ("test_optimizers.py::test_golden_trajectory",
     {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}),
], ids=["test_objective.py", "test_optimizers.py", "test_rng.py",
        "test_portfolio.py-crashed-instance", "golden-without-avx512"])
def test_module_passes_on_python_path(target, env):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--kernels=python",
         f"tests/{target}", "tests/test_kernels.py::test_kernel_path_is_the_one_asked_for"],
        cwd=ROOT, env={**os.environ, **env}, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout.splitlines()[-1]
