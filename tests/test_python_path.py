"""The objective, PRNG and optimizer tests again, on the Python path.

Their own modules run on the native kernels when those loaded. Here each
module runs once more in a child pytest with `--kernels=python`, which
clears the kernels' handle (see `conftest.kernel_path`), so the reference
code that the kernels replace passes the same tests, golden trajectories
and pinned digests included.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["test_objective.py", "test_optimizers.py", "test_rng.py"])
def test_module_passes_on_python_path(module):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--kernels=python",
         f"tests/{module}", "tests/test_kernels.py::test_kernel_path_is_the_one_asked_for"],
        cwd=ROOT, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout.splitlines()[-1]
