"""Native kernels: bit identity with the Python paths, and the fallback."""

import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import batch_values, build_program, random_formula, random_fp_double

from fpsat import build_problem, kernels
from fpsat.fp import FP32, FP64, narrow32
from fpsat.harness import corpus_dir
from fpsat.objective import _kernel_check_program, compile_objective
from fpsat.optimizers import (
    OptimizerConfig,
    _native_program,
    _whole_run,
    basin_hopping,
    crs2_minimize,
    isres_minimize,
)
from fpsat.portfolio import random_start
from fpsat.rng import Xoshiro256Plus
from fpsat.terms import ArithOp, BoolAnd, BoolOr, CmpOp, Compare, FPArith, FPVar

SRC = Path(__file__).resolve().parent.parent / "src"

native = pytest.mark.skipif(kernels.lib is None,
                            reason=f"native kernels unavailable: {kernels.reason}")
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")


def on_python_path(fn, *args):
    """fn(*args) with the Python path forced."""
    loaded = kernels.lib
    kernels.lib = None
    try:
        return fn(*args)
    finally:
        kernels.lib = loaded


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@native
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_objective_matches_python(seed):
    rng = random.Random(seed)
    formula, varmap = random_formula(rng)
    program = build_program(formula, varmap)
    widths = [sort.width for _, sort in varmap]
    # special and random encodings of each variable's width, and binary64
    # values in binary32 slots, which the kernels must narrow
    X = np.array([[random_fp_double(rng, rng.choice((w, 64))) for w in widths]
                  for _ in range(100)]).reshape(100, len(widths))
    want = [on_python_path(program.evaluate, x) for x in X]
    assert _bits([program.evaluate(x) for x in X]) == _bits(want)
    assert _bits([program.evaluate(x.tolist()) for x in X]) == _bits(want)
    # rows as lists, as the Python population methods take them, up to
    # the first zero, on both paths
    got_many = batch_values(program, X)
    assert _bits(got_many) == _bits(on_python_path(batch_values, program, X))
    assert _bits(got_many) == _bits(want[:len(got_many)])


@native
@pytest.mark.parametrize("sort", [FP32, FP64], ids=["binary32", "binary64"])
@pytest.mark.parametrize("op", [ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV],
                         ids=lambda op: op.name)
def test_each_operation_rounds_as_python(op, sort):
    # θ(result, x) shows a result rounded to the wrong width, and the
    # strict comparisons one left unrounded in a binary32 register, which
    # θ's own narrowing of its operands would hide
    x, y = FPVar("x", sort), FPVar("y", sort)
    result = FPArith(op, (x, y))
    program = compile_objective(
        BoolAnd((Compare(CmpOp.EQ, result, x),
                 BoolOr((Compare(CmpOp.LT, result, x), Compare(CmpOp.GT, result, x))))),
        [("x", sort), ("y", sort)])
    tiny = 2.0 ** -30 if sort is FP32 else 2.0 ** -60
    points = [(1.0, tiny), (1.0, -tiny), (1.0, 1.0 + 2 * tiny), (3.0, 1.0 + 4 * tiny),
              (1e30, 1e-30), (-7.0, 3.0), (0.1, 0.3), (1.0, 0.0), (0.0, -0.0)]
    for x_, y_ in points:
        if sort is FP32:
            x_, y_ = narrow32(x_), narrow32(y_)
        got = program.evaluate([x_, y_])
        assert _bits([got]) == _bits([on_python_path(program.evaluate, [x_, y_])]), (x_, y_)


# Programs for the whole runs: the corpus (of one and two variables), one
# whose every start point is a zero, one that holds on x > 0.6 only, which
# the start points miss and CRS2's and ISRES's initial populations hit,
# an `or` of eleven distances whose product is about 1e210, so that
# Powell's extrapolation test squares differences past the binary64
# range, and infeasible programs of three and four variables, which give
# ISRES an odd and an even n
_WHOLE_RUN_TEXTS = {
    **{path.name: path.read_text() for path in sorted(corpus_dir().glob("*.smt2"))},
    "zero-at-start": "(declare-fun x () Float64)(assert (fp.eq x x))",
    "zero-in-population": (
        "(declare-fun x () Float64)(declare-fun y () Float32)"
        "(assert (fp.gt x ((_ to_fp 11 53) RNE 0.6)))"),
    "overflowing-or": (
        "(declare-fun x () Float64)(declare-fun y () Float64)(assert (or "
        + " ".join(f"(fp.lt x ((_ to_fp 11 53) RNE (- {k}.0e300)))" for k in range(1, 11))
        + " (fp.lt y ((_ to_fp 11 53) RNE (- 1.0e300)))))"),
    "cycle-3": (
        "(declare-fun a () Float64)(declare-fun b () Float64)(declare-fun c () Float64)"
        "(assert (and (fp.lt a b) (fp.lt b c) (fp.lt c a)))"),
    "mixed-4": (
        "(declare-fun x () Float64)(declare-fun y () Float64)"
        "(declare-fun u () Float32)(declare-fun w () Float32)"
        "(assert (and (fp.lt x y) (fp.lt y x) (fp.lt (fp.mul RNE u w) u) (fp.gt w u)))"),
}
_WHOLE_RUN_PROGRAMS = {}


def _whole_run_program(source):
    """A named program of `_WHOLE_RUN_TEXTS`, or the program of
    `random_formula` at an integer seed; None without variables."""
    if source not in _WHOLE_RUN_PROGRAMS:
        if isinstance(source, str):
            program = build_problem(_WHOLE_RUN_TEXTS[source]).program
        else:
            program = build_program(*random_formula(random.Random(source)))
        _WHOLE_RUN_PROGRAMS[source] = program if program.dimension else None
    return _WHOLE_RUN_PROGRAMS[source]


_MINIMIZERS = {"bh": basin_hopping, "crs2": crs2_minimize, "isres": isres_minimize}


def _minimize(alg, program, native, budget, bounds, seed, nan_start):
    """A run of `alg` from a random start, whose first coordinate is NaN
    if `nan_start`; native, or in the Python minimizer through a wrapper.
    Returns every observable of the run and the bytes of every point it
    evaluated, which natively a second whole run writes."""
    rng = Xoshiro256Plus(seed)
    x0 = random_start(program.dimension, rng)
    if nan_start:
        x0[0] = math.nan
    f, points = program.evaluate, []
    if native:
        assert _native_program(f, x0) is program
        buf, again = np.empty((budget, program.dimension)), Xoshiro256Plus(0)
        again._s[:] = rng.state()
        n = _whole_run(alg, program._image, x0, budget, again, None,
                       () if alg == "bh" else bounds, buf).evals_used
        points.append(buf[:n].tobytes())
    else:
        def f(x):
            points.append(np.asarray(x, dtype=float).tobytes())
            return program.evaluate(x)
    zeros = []
    before = program.eval_count
    out = _MINIMIZERS[alg](f, x0, OptimizerConfig(max_evals=budget, bounds=bounds), rng,
                           on_zero=lambda x: zeros.append(x.tobytes()))
    return (out.evals_used, out.terminated_by,
            None if out.best_x is None else out.best_x.tobytes(),
            _bits([out.best_value]), rng.state(), program.eval_count - before, zeros,
            b"".join(points))


def _isres_example(source, budget, nan_start=False):
    return example(source=source, alg="isres", budget=budget, bounds=(-1e9, 1e9), seed=3,
                   nan_start=nan_start)


@native
@settings(max_examples=150, deadline=None)
@given(source=st.one_of(st.sampled_from(sorted(_WHOLE_RUN_TEXTS)), st.integers(0, 2**32 - 1)),
       alg=st.sampled_from(["bh", "crs2", "isres"]),
       budget=st.one_of(st.sampled_from([1, 2, 19, 20, 21, 40, 41, 50, 1_000, 3_000]),
                        st.integers(1, 3_000)),
       bounds=st.sampled_from([(-1e9, 1e9), (-1.0, 1.0)]),
       seed=st.integers(0, 2**64 - 1), nan_start=st.booleans())
@example(source="zero-at-start", alg="crs2", budget=3_000, bounds=(-1.0, 1.0), seed=1,
         nan_start=False)
@example(source="zero-in-population", alg="crs2", budget=3_000, bounds=(-1.0, 1.0), seed=1,
         nan_start=False)
@example(source="infeasible_box.smt2", alg="crs2", budget=7, bounds=(-1e9, 1e9), seed=1,
         nan_start=False)
@example(source="infeasible_cycle.smt2", alg="crs2", budget=3_000, bounds=(-1.0, 1.0),
         seed=2, nan_start=False)
@example(source="infeasible_cycle.smt2", alg="bh", budget=3_000, bounds=(-1e9, 1e9), seed=2,
         nan_start=False)
@example(source="overflowing-or", alg="bh", budget=3_000, bounds=(-1e9, 1e9), seed=1,
         nan_start=False)
# ISRES at n = 1, 3 and 4 (lambda = 40, 80 and 100): a budget of 1, a
# budget that ends one row before, at and one row after a generation,
# and one that ends in the middle of a generation
@_isres_example("infeasible_box.smt2", 1)
@_isres_example("infeasible_box.smt2", 39)
@_isres_example("infeasible_box.smt2", 40)
@_isres_example("infeasible_box.smt2", 41)
@_isres_example("infeasible_box.smt2", 2_980)
@_isres_example("cycle-3", 79)
@_isres_example("cycle-3", 80)
@_isres_example("cycle-3", 81)
@_isres_example("cycle-3", 1_234)
@_isres_example("mixed-4", 99)
@_isres_example("mixed-4", 100)
@_isres_example("mixed-4", 101)
@_isres_example("mixed-4", 2_950)
@_isres_example("zero-in-population", 3_000)
@_isres_example("overflowing-or", 3_000)
@_isres_example("infeasible_cycle.smt2", 3_000, nan_start=True)
def test_whole_runs_match_python(source, alg, budget, bounds, seed, nan_start):
    # the small budgets cut the initial populations of 10 (n + 1) and
    # 20 (n + 1) points
    if kernels.lib is None:  # cleared by --kernels=python after collection
        pytest.skip("the native kernels are not in use")
    program = _whole_run_program(source)
    if program is None:
        return
    got = _minimize(alg, program, True, budget, bounds, seed, nan_start)
    assert got == _minimize(alg, program, False, budget, bounds, seed, nan_start)


@pytest.mark.parametrize("check", kernels._RUN_CHECKS,
                         ids=["bh", "bh-metropolis", "isres", "crs2"])
def test_self_check_runs_are_the_python_runs(check):
    # the load check's pinned digests are what the Python minimizers give
    alg, row, budget, seed, box, digest = check
    program = _kernel_check_program()
    rng = Xoshiro256Plus(0)
    rng._s[:] = (0, 0, 0, 0) if seed is None else Xoshiro256Plus(seed).state()
    minimize = _MINIMIZERS[alg]
    out = on_python_path(minimize, program.evaluate, kernels._check_points()[row],
                         OptimizerConfig(budget, box or (-1e9, 1e9)), rng)
    assert kernels._run_digest(out, rng) == digest


def test_status_names_the_path():
    status = kernels.status()
    assert status["path"] in ("native", "python")
    assert (status["path"] == "native") == (status["reason"] is None)


def test_kernel_path_is_the_one_asked_for(kernel_path, request):
    assert (kernel_path == "python") == (kernels.lib is None)
    if request.config.getoption("--kernels") == "python":
        assert kernel_path == "python"


_WITHOUT_NUMPY = """
import sys
sys.path.insert(0, sys.argv[1])
import fpsat
if fpsat.kernels.lib is None:
    sys.exit("kernels not loaded: " + fpsat.kernels.reason)
p = fpsat.load_problem(sys.argv[2])
print(fpsat.solve(p.formula, p.program).verdict)
import fpsat.cli
code = fpsat.cli.main(["solve", sys.argv[2]])
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
sys.exit(code)
"""


def test_native_solve_loads_no_numpy():
    # a fresh interpreter: `import fpsat`, a solve and the command line's
    # solve, on the native kernels, and numpy is never imported
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(SRC),
                           str(corpus_dir() / "listing1.smt2")],
                          capture_output=True, text=True, timeout=120)
    if proc.stderr.startswith("kernels not loaded"):
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["sat", "sat", "[]"]


# --------------------------------------------------------------------------
# Fallback: each test loads into a temporary cache, and restores the
# kernels the suite loaded at import
# --------------------------------------------------------------------------


@pytest.fixture
def reload(monkeypatch):
    monkeypatch.setattr(kernels, "lib", kernels.lib)
    monkeypatch.setattr(kernels, "reason", kernels.reason)
    return kernels.load


@needs_gcc
def test_cold_cache_builds_one_file(reload, tmp_path):
    reload(tmp_path)
    assert kernels.status() == {"path": "native", "reason": None}
    assert [p.name for p in tmp_path.iterdir()] == [kernels.cache_file(tmp_path).name]


@needs_gcc
def test_truncated_library_is_rebuilt(reload, tmp_path):
    # truncated copy of a fresh build: overwriting a loaded library in
    # place would pull the code from under this process
    whole = tmp_path / "whole.so"
    subprocess.run(["gcc", *kernels.KERNEL_CFLAGS, "-o", str(whole), str(kernels.SOURCE),
                    "-lm"], check=True)
    cached = kernels.cache_file(tmp_path / "cache")
    cached.parent.mkdir()
    cached.write_bytes(whole.read_bytes()[:1000])
    reload(cached.parent)
    assert kernels.status() == {"path": "native", "reason": None}
    assert cached.stat().st_size == whole.stat().st_size


@needs_gcc
@pytest.mark.parametrize("wrong", [
    ("0x1.0p-53", "0x1.0p-52"),  # uniform draws doubled
    ("return (double)d;", "return (double)d + 1.0;"),  # bit distances off by one
    # binary32 results left unrounded
    ("*d = (float)(a + b);", "*d = a + b;"),
    ("*d = (float)(a - b);", "*d = a - b;"),
    ("*d = (float)(a * b);", "*d = a * b;"),
    ("*d = (float)(a / b);", "*d = a / b;"),
    # whole runs: a Metropolis test that accepts at p = 0, CRS2's
    # centroid divided by n + 1, ISRES's differential step with another
    # factor, and its Box-Muller sine and cosine swapped
    ("accept = next_double(c->s) < p;", "accept = next_double(c->s) <= p;"),
    ("total[j] / (double)n", "total[j] / (double)(n + 1)"),
    ("0.85 * (par[j]", "0.86 * (par[j]"),
    ("out[i] = r * cos(angle);\n        out[i + 1] = r * sin(angle);",
     "out[i] = r * sin(angle);\n        out[i + 1] = r * cos(angle);"),
], ids=["draws", "distances", "add32", "sub32", "mul32", "div32", "metropolis", "centroid",
        "differential", "box-muller"])
def test_library_failing_the_self_check_is_not_used(reload, tmp_path, wrong):
    source = kernels.SOURCE.read_text()
    assert wrong[0] in source
    source = source.replace(*wrong)
    c_file = tmp_path / "wrong.c"
    c_file.write_text(source)
    subprocess.run(["gcc", *kernels.KERNEL_CFLAGS, "-o", str(kernels.cache_file(tmp_path)),
                    str(c_file), "-lm"], check=True)
    reload(tmp_path)
    assert kernels.status()["path"] == "python"
    assert "self-check failed" in kernels.status()["reason"]


def test_unwritable_cache_selects_python(reload, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")  # a file where the cache directory should be
    reload(blocker / "cache")
    assert kernels.status()["path"] == "python"
    assert kernels.status()["reason"]


_CHILD = """
import sys
import fpsat
from fpsat import kernels
kernels.load(sys.argv[1])
print(kernels.status()["path"], kernels.status()["reason"])
if len(sys.argv) > 2:
    p = fpsat.load_problem(sys.argv[2])
    print(fpsat.solve(p.formula, p.program, fpsat.PortfolioConfig(seed=1)).verdict)
"""


def _child(args, path=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen([sys.executable, "-c", _CHILD, *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_without_gcc_solves_on_python_path(tmp_path):
    bin_dir = tmp_path / "bin"  # a PATH with python and no compiler
    bin_dir.mkdir()
    (bin_dir / "python3").symlink_to(sys.executable)
    proc = _child([tmp_path / "cache", corpus_dir() / "listing1.smt2"], path=str(bin_dir))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.splitlines() == ["python no gcc on PATH", "sat"]
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


@needs_gcc
def test_concurrent_cold_imports_share_one_file(tmp_path):
    procs = [_child([tmp_path]) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.split() == ["native", "None"]
    assert [p.name for p in tmp_path.iterdir()] == [kernels.cache_file(tmp_path).name]
