"""Optimizer contracts: budgets, zero-exit, cancellation, determinism."""

import _thread
import hashlib
import math
from array import array
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from fpsat import build_problem, kernels
from fpsat.harness import corpus_dir
from fpsat.optimizers import (
    OptimizerConfig,
    StopFlag,
    TerminationReason,
    _whole_run,
    basin_hopping,
    crs2_minimize,
    isres_minimize,
    powell_minimize,
)
from fpsat.rng import Xoshiro256Plus


@pytest.fixture
def native_lib():
    """The loaded native kernels; skips on the Python path, which
    `--kernels=python` selects only once the tests are collected."""
    if kernels.lib is None:
        pytest.skip(f"native kernels not in use: {kernels.reason}")
    return kernels.lib


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def rosenbrock(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


class Recorder:
    """Wraps an objective, recording every point submitted to it."""

    def __init__(self, fn):
        self.fn = fn
        self.points = []

    def __call__(self, x):
        self.points.append(np.array(x, dtype=float, copy=True))
        return self.fn(x)


class TestPowell:
    def test_parabola(self):
        cfg = OptimizerConfig(max_evals=10_000)
        out = powell_minimize(lambda x: (x[0] - 3.0) ** 2, [0.0], cfg)
        assert out.best_value < 1e-9
        assert abs(out.best_x[0] - 3.0) < 1e-4
        # the parabolic fit may land exactly on the root
        assert out.terminated_by in (
            TerminationReason.CONVERGED, TerminationReason.ZERO_FOUND
        )

    def test_best_x_is_a_float64_vector(self):
        out = powell_minimize(sphere, [1.0, 2.0], OptimizerConfig(max_evals=200))
        assert type(out.best_x) is list and all(type(v) is float for v in out.best_x)
        assert len(out.best_x) == 2

    def test_constant_function_converges(self):
        cfg = OptimizerConfig(max_evals=10_000)
        out = powell_minimize(lambda x: 5.0, [1.0, 2.0], cfg)
        assert out.best_value == 5.0
        assert out.terminated_by == TerminationReason.CONVERGED

    def test_preset_stop_cancels_without_evaluating(self):
        stop = threading.Event()
        stop.set()
        calls = Recorder(sphere)
        cfg = OptimizerConfig(max_evals=100)
        out = powell_minimize(calls, [1.0], cfg, stop=stop)
        assert out.terminated_by == TerminationReason.CANCELLED
        assert len(calls.points) == 0
        assert out.evals_used == 0

    def test_non_finite_rejection(self):
        # a cliff to infinity must not trap the search or leak non-finite
        # coordinates into evaluations
        def cliff(x):
            if abs(x[0]) > 10.0:
                return math.inf
            return (x[0] - 2.0) ** 2

        calls = Recorder(cliff)
        cfg = OptimizerConfig(max_evals=5_000)
        out = powell_minimize(calls, [9.5], cfg)
        assert out.best_value < 1e-8
        for p in calls.points:
            assert np.isfinite(p).all()

    def test_huge_decreases_do_not_overflow(self):
        # the extrapolation test squares differences of values; past about
        # 1.3e154 a Python float's ** 2 raises OverflowError, which the
        # descent takes as +inf, the value of C's pow
        def f(x):
            a, b = x
            return float(1e200 * ((a - 3.0) ** 2 + (b + 2.0) ** 2 + 1.5 * a * b + 1.0))

        out = powell_minimize(f, [0.0, 0.0], OptimizerConfig(max_evals=2_000))
        assert out.terminated_by == TerminationReason.CONVERGED

    def test_2d_quadratic(self):
        cfg = OptimizerConfig(max_evals=20_000)
        out = powell_minimize(
            lambda x: (x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2, [0.0, 0.0], cfg
        )
        assert out.best_value < 1e-9


class TestBasinHopping:
    def test_listing1_objective_zero(self, listing1_text):
        program = build_problem(listing1_text).program
        rng = Xoshiro256Plus(3)
        cfg = OptimizerConfig(max_evals=50_000)
        x0 = np.array([rng.uniform(-0.5, 0.5)])
        out = basin_hopping(program.evaluate, x0, cfg, rng)
        assert out.terminated_by == TerminationReason.ZERO_FOUND
        assert out.best_value == 0.0

    def test_rosenbrock(self):
        cfg = OptimizerConfig(max_evals=100_000)
        rng = Xoshiro256Plus(11)
        out = basin_hopping(rosenbrock, np.array([-1.2, 1.0]), cfg, rng)
        assert out.best_value < 1e-6

    def test_budget_one(self):
        cfg = OptimizerConfig(max_evals=1)
        rng = Xoshiro256Plus(1)
        calls = Recorder(sphere)
        out = basin_hopping(calls, np.array([1.0]), cfg, rng)
        assert out.terminated_by == TerminationReason.BUDGET_EXHAUSTED
        assert out.evals_used == 1 == len(calls.points)

    def test_budget_never_exceeded(self):
        for budget in (7, 100, 953):
            cfg = OptimizerConfig(max_evals=budget)
            rng = Xoshiro256Plus(5)
            calls = Recorder(rosenbrock)
            out = basin_hopping(calls, np.array([0.0, 0.0]), cfg, rng)
            assert out.evals_used <= budget
            assert len(calls.points) == out.evals_used

    def test_trajectory_deterministic(self):
        def run_once():
            cfg = OptimizerConfig(max_evals=2_000)
            rng = Xoshiro256Plus(77)
            calls = Recorder(rosenbrock)
            basin_hopping(calls, np.array([0.3, -0.2]), cfg, rng)
            return calls.points

        p1, p2 = run_once(), run_once()
        assert len(p1) == len(p2)
        for a, b in zip(p1, p2):
            assert a.tobytes() == b.tobytes()  # bit-identical


class TestCrs2:
    def test_sphere(self):
        cfg = OptimizerConfig(max_evals=100_000, bounds=(-5.0, 5.0))
        rng = Xoshiro256Plus(13)
        out = crs2_minimize(sphere, np.array([1.0, 1.0, 1.0]), cfg, rng)
        assert out.best_value < 1e-8

    def test_cancel_mid_run_returns_best(self):
        stop = threading.Event()
        count = [0]

        def f(x):
            count[0] += 1
            if count[0] == 50:
                stop.set()
            return sphere(x)

        cfg = OptimizerConfig(max_evals=10_000, bounds=(-2.0, 2.0))
        rng = Xoshiro256Plus(4)
        out = crs2_minimize(f, np.array([1.0, 1.0]), cfg, rng, stop=stop)
        assert out.terminated_by == TerminationReason.CANCELLED
        assert out.evals_used == 50
        assert out.best_x is not None and math.isfinite(out.best_value)

    def test_trajectory_deterministic(self):
        def run_once():
            cfg = OptimizerConfig(max_evals=3_000, bounds=(-3.0, 3.0))
            rng = Xoshiro256Plus(21)
            calls = Recorder(sphere)
            crs2_minimize(calls, np.array([0.1, 0.2]), cfg, rng)
            return calls.points

        p1, p2 = run_once(), run_once()
        assert len(p1) == len(p2)
        for a, b in zip(p1, p2):
            assert a.tobytes() == b.tobytes()

    def test_respects_bounds(self):
        calls = Recorder(sphere)
        cfg = OptimizerConfig(max_evals=2_000, bounds=(-1.5, 2.5))
        rng = Xoshiro256Plus(9)
        crs2_minimize(calls, np.array([0.0, 0.0]), cfg, rng)
        for p in calls.points:
            assert np.all(p >= -1.5) and np.all(p <= 2.5)


class TestIsres:
    def test_sphere(self):
        cfg = OptimizerConfig(max_evals=200_000, bounds=(-5.0, 5.0))
        rng = Xoshiro256Plus(17)
        out = isres_minimize(sphere, np.array([1.0, 1.0, 1.0]), cfg, rng)
        assert out.best_value < 1e-6

    def test_zero_in_initial_population_early_exit(self):
        cfg = OptimizerConfig(max_evals=100_000, bounds=(-1.0, 1.0))
        rng = Xoshiro256Plus(8)
        # x0 itself is a zero, so the very first evaluation ends the run
        out = isres_minimize(sphere, np.array([0.0, 0.0]), cfg, rng)
        lam = 20 * 3
        assert out.terminated_by == TerminationReason.ZERO_FOUND
        assert out.evals_used <= lam

    def test_trajectory_deterministic(self):
        def run_once():
            cfg = OptimizerConfig(max_evals=2_000, bounds=(-3.0, 3.0))
            rng = Xoshiro256Plus(31)
            calls = Recorder(sphere)
            isres_minimize(calls, np.array([0.4, -0.4]), cfg, rng)
            return calls.points

        p1, p2 = run_once(), run_once()
        assert len(p1) == len(p2)
        for a, b in zip(p1, p2):
            assert a.tobytes() == b.tobytes()

    def test_plateau_ties_deterministic(self):
        # a step function with no zero: most of each generation ties, so
        # the ranking must order equal values the same way on every run
        def plateau(x):
            return 1.0 + float(np.floor(np.sum(np.abs(np.asarray(x)))))

        def run_once():
            cfg = OptimizerConfig(max_evals=1_500, bounds=(-4.0, 4.0))
            calls = Recorder(plateau)
            out = isres_minimize(calls, np.array([3.5, -3.5]), cfg,
                                 Xoshiro256Plus(41))
            return out, calls.points

        (o1, p1), (o2, p2) = run_once(), run_once()
        assert o1.terminated_by == TerminationReason.BUDGET_EXHAUSTED
        assert len(p1) == len(p2) == o1.evals_used == o2.evals_used == 1_500
        for a, b in zip(p1, p2):
            assert a.tobytes() == b.tobytes()
        assert array("d", o1.best_x).tobytes() == array("d", o2.best_x).tobytes()

    def test_no_nan_coordinates_submitted(self):
        calls = Recorder(sphere)
        cfg = OptimizerConfig(max_evals=3_000, bounds=(-10.0, 10.0))
        rng = Xoshiro256Plus(55)
        isres_minimize(calls, np.array([1.0, 2.0]), cfg, rng)
        for p in calls.points:
            assert not np.isnan(p).any()


class TestCommonContracts:
    @pytest.mark.parametrize("bounds", [(1.0, 1.0), (2.0, -2.0), [(-1.0, 1.0)] * 2,
                                        (0.0, math.inf), (-math.inf, 0.0)])
    @pytest.mark.parametrize("minimize", [crs2_minimize, isres_minimize])
    def test_bad_bounds_rejected(self, minimize, bounds):
        cfg = OptimizerConfig(max_evals=100, bounds=bounds)
        with pytest.raises(ValueError, match="bounds"):
            minimize(sphere, np.array([0.0, 0.0]), cfg, Xoshiro256Plus(1))

    @pytest.mark.parametrize("minimize", [crs2_minimize, isres_minimize])
    def test_preset_stop_draws_no_population(self, minimize):
        # a cancelled population method stops before drawing its initial
        # population, not after (at n = 11, 1,309 and 2,629 draws)
        class CountingRng(Xoshiro256Plus):
            __slots__ = ("draws",)

            def next_double(self):
                self.draws += 1
                return super().next_double()

            def doubles(self, k):
                self.draws += k
                return super().doubles(k)

        n = 11
        rng = CountingRng(7)
        rng.draws = 0
        stop = threading.Event()
        stop.set()
        out = minimize(sphere, np.zeros(n), OptimizerConfig(max_evals=10_000), rng,
                       stop=stop)
        assert out.terminated_by == TerminationReason.CANCELLED
        assert out.evals_used == 0
        assert rng.draws <= n

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_set_stop_flag_ends_a_run_before_any_work(self, minimize, corpus_path):
        # a run whose flag is already set, as an instance that a race of
        # Python threads starts after the race was decided, makes no
        # evaluation and no draw
        program = build_problem((corpus_path / "infeasible_box.smt2").read_text()).program
        stop = StopFlag()
        stop.set()
        rng = Xoshiro256Plus(7)
        before, state = program.eval_count, rng.state()
        out = minimize(program.evaluate, np.array([0.1]), OptimizerConfig(max_evals=10_000),
                       rng, stop=stop)
        assert out.terminated_by == TerminationReason.CANCELLED
        assert out.evals_used == 0 == program.eval_count - before
        assert out.best_x is None
        assert rng.state() == state

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_budget_is_spent_exactly(self, minimize, corpus_path):
        # on an infeasible program a run on the program's own `evaluate`
        # ends with exactly its budget spent and counted: at and around
        # ISRES's generations of 40 too
        program = build_problem((corpus_path / "infeasible_box.smt2").read_text()).program
        for budget in (1, 7, 39, 40, 41, 100, 953):
            before = program.eval_count
            out = minimize(program.evaluate, np.array([0.1]), OptimizerConfig(max_evals=budget),
                           Xoshiro256Plus(5), stop=StopFlag())
            assert out.terminated_by == TerminationReason.BUDGET_EXHAUSTED
            assert out.evals_used == budget == program.eval_count - before

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_cancel_is_at_most_one_evaluation_late(self, minimize, corpus_path):
        # a stop set during the k-th evaluation ends the run before the
        # next one. In Python the objective sets it. Natively the stop
        # byte is a nonzero byte of the k-th row of the run's own points
        # buffer, which the k-th evaluation writes; the native run must
        # end where the Python run ends, with the same draws
        program = build_problem((corpus_path / "infeasible_cycle.smt2").read_text()).program
        x0, budget = np.array([0.1, -0.3]), 10_000
        box = () if minimize is basin_hopping else (-1e9, 1e9)
        for k in (1, 5, 41, 137):
            stop, calls = threading.Event(), []

            def f(x):
                calls.append(1)
                if len(calls) == k:
                    stop.set()
                return program.evaluate(x)

            rng = Xoshiro256Plus(5)
            out = minimize(f, x0, OptimizerConfig(max_evals=budget), rng, stop=stop)
            assert out.terminated_by == TerminationReason.CANCELLED
            assert out.evals_used == k == len(calls)
            if kernels.lib is None:
                continue
            alg = _ALGS[minimize]
            points = np.zeros((k, 2))
            _whole_run(alg, program._image, x0, k, Xoshiro256Plus(5), None, box,
                       points.ctypes.data)
            offset = next(i for i, b in enumerate(points[k - 1].tobytes()) if b)
            points = np.zeros((budget, 2))
            byte = SimpleNamespace(address=points[k - 1].ctypes.data + offset)
            nat_rng = Xoshiro256Plus(5)
            got = _whole_run(alg, program._image, x0, budget, nat_rng, byte, box,
                             points.ctypes.data)
            assert (got.terminated_by, got.evals_used, got.best_value,
                    array("d", got.best_x).tobytes(), nat_rng.state()) == (
                out.terminated_by, out.evals_used, out.best_value,
                array("d", out.best_x).tobytes(), rng.state())

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_wrapper_sees_every_evaluation(self, minimize, corpus_path):
        # an objective that is not the program's own `evaluate` is called
        # once per evaluation, in the population methods' populations too
        program = build_problem((corpus_path / "infeasible_box.smt2").read_text()).program
        calls = []

        def counting(x):
            calls.append(1)
            return program.evaluate(x)

        before = program.eval_count
        out = minimize(counting, np.array([0.1]), OptimizerConfig(max_evals=953),
                       Xoshiro256Plus(5))
        assert out.terminated_by == TerminationReason.BUDGET_EXHAUSTED
        assert len(calls) == out.evals_used == program.eval_count - before == 953

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_stop_flag_ends_a_long_run(self, minimize, corpus_path):
        # on another thread the run polls the byte before every
        # evaluation: it ends within 50 ms of the flag
        program = build_problem((corpus_path / "infeasible_box.smt2").read_text()).program
        stop = StopFlag()
        result = {}

        def run():
            result["out"] = minimize(program.evaluate, np.array([0.1]),
                                     OptimizerConfig(max_evals=10**9), Xoshiro256Plus(5),
                                     stop=stop)
            result["ended"] = time.perf_counter()

        before = program.eval_count
        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.1)
        stop.set()
        stopped = time.perf_counter()
        t.join(timeout=30)
        assert not t.is_alive()
        assert result["ended"] - stopped < 0.05
        out = result["out"]
        assert out.terminated_by == TerminationReason.CANCELLED
        assert out.evals_used > 0
        assert program.eval_count - before == out.evals_used

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_points_are_float64_vectors(self, minimize, corpus_path):
        # the best point and the zero handed to on_zero are lists of
        # floats, from a list start
        for name, budget in (("listing1.smt2", 20_000), ("infeasible_box.smt2", 500)):
            program = build_problem((corpus_path / name).read_text()).program
            x0 = [0.25] * program.dimension
            zeros = []
            out = minimize(program.evaluate, x0, OptimizerConfig(max_evals=budget),
                           Xoshiro256Plus(3), on_zero=zeros.append)
            assert len(zeros) == (out.terminated_by is TerminationReason.ZERO_FOUND)
            for x in (out.best_x, *zeros):
                assert type(x) is list and all(type(v) is float for v in x)
                assert len(x) == program.dimension

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_ctrl_c_interrupts_a_direct_call(self, minimize, corpus_path, native_lib):
        # a direct call on the program's own `evaluate`, with the kernels
        # loaded and no stop flag, runs Python code between evaluations,
        # so an interrupt lands there long before the budget is spent
        program = build_problem((corpus_path / "infeasible_box.smt2").read_text()).program
        timer = threading.Timer(0.1, _thread.interrupt_main)
        t0 = time.monotonic()
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                minimize(program.evaluate, [0.1], OptimizerConfig(max_evals=3 * 10**7),
                         Xoshiro256Plus(5))
            raised = time.monotonic()
        finally:
            timer.cancel()
            timer.join()
        assert raised - t0 < 0.5

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_zero_exit_reports_zero(self, minimize, listing1_text):
        program = build_problem(listing1_text).program
        cfg = OptimizerConfig(max_evals=200_000, bounds=(-10.0, 10.0))
        rng = Xoshiro256Plus(123)
        out = minimize(program.evaluate, np.array([0.1]), cfg, rng)
        assert out.terminated_by == TerminationReason.ZERO_FOUND
        assert out.best_value == 0.0
        assert program.evaluate(out.best_x) == 0.0

    @pytest.mark.parametrize("minimize", [basin_hopping, crs2_minimize, isres_minimize])
    def test_best_is_running_minimum(self, minimize):
        calls = Recorder(rosenbrock)
        cfg = OptimizerConfig(max_evals=1_500, bounds=(-4.0, 4.0))
        rng = Xoshiro256Plus(202)
        out = minimize(calls, np.array([0.0, 0.0]), cfg, rng)
        values = [rosenbrock(p) for p in calls.points]
        assert out.best_value == min(values)


# SHA-256 of the evaluated points (binary64 bytes, in order), evals_used,
# best_value and best_x of fixed-seed runs: 3,000 evaluations in the default
# box, seed 2024, the start point drawn first from the same stream. Taken
# from the point-by-point implementation, which every later path, the
# native whole runs included, must reproduce bit for bit.
GOLDEN = {
    ("infeasible_box.smt2", "bh"): (
        "59adbc375126b9e951f570730ef8edf96ddbadc5e0d6d782d164647b9bfddf67",
        3000, "0x1.fc00000000000p+29", "5095d3e6fc95ce3f"),
    ("infeasible_box.smt2", "crs2"): (
        "0affa8cedfaf832809f7a9a26db0d1a35ad9330648b869482cee23d0c04caf23",
        3000, "0x1.fc00000000000p+29", "5095d3e6fc95ce3f"),
    ("infeasible_box.smt2", "isres"): (
        "213fe2ffd9d4490aa96c7506bee2c465cec85a4dd1b99d61a64b2e62824a45cf",
        3000, "0x1.fc00000000000p+29", "5095d3e6fc95ce3f"),
    ("listing1.smt2", "bh"): (
        "f03254f1f19885ffb1048d7df98a709f5090806f007517ac8d8de39feaad53a0",
        7, "0x0.0p+0", "6e79c202000000c0"),
    ("listing1.smt2", "crs2"): (
        "6cd5efa975ba5b54a060ea5b76d8d103c50e925a51721fb4e2b3cc340064f936",
        449, "0x0.0p+0", "20ad0cb1010000c0"),
    ("listing1.smt2", "isres"): (
        "5d58162329524c3fd54c3a74b1221434e7f0b02f5f4a0e02a531a10be0d34579",
        1321, "0x0.0p+0", "7d0981b58affffbf"),
}
MINIMIZERS = {"bh": basin_hopping, "crs2": crs2_minimize, "isres": isres_minimize}
_ALGS = {fn: alg for alg, fn in MINIMIZERS.items()}


@pytest.mark.parametrize("name,alg", list(GOLDEN), ids=[f"{n}-{a}" for n, a in GOLDEN])
def test_golden_trajectory_native(name, alg, native_lib):
    # the native whole run, its points from the race's buffer
    program = build_problem((corpus_dir() / name).read_text()).program
    rng = Xoshiro256Plus(2024)
    x0 = [rng.uniform(-0.5, 0.5) for _ in range(program.dimension)]
    points = np.empty((3_000, program.dimension))
    box = () if alg == "bh" else (-1e9, 1e9)
    out = _whole_run(alg, program._image, x0, 3_000, rng, None, box, points.ctypes.data)
    got = (hashlib.sha256(points[:out.evals_used].tobytes()).hexdigest(), out.evals_used,
           out.best_value.hex(), array("d", out.best_x).tobytes().hex())
    assert got == GOLDEN[(name, alg)]
    assert type(out.best_x) is list and all(type(v) is float for v in out.best_x)


# the Python minimizers, through a wrapper of the program's `evaluate`
# that reads every point
@pytest.mark.parametrize("name,alg", list(GOLDEN), ids=[f"{n}-{a}-per-point" for n, a in GOLDEN])
def test_golden_trajectory(name, alg):
    program = build_problem((corpus_dir() / name).read_text()).program
    digest = hashlib.sha256()

    def f(x):
        digest.update(np.asarray(x, dtype=float).tobytes())
        return program.evaluate(x)

    rng = Xoshiro256Plus(2024)
    x0 = np.array([rng.uniform(-0.5, 0.5) for _ in range(program.dimension)])
    before = program.eval_count
    out = MINIMIZERS[alg](f, x0, OptimizerConfig(max_evals=3_000), rng)
    got = (digest.hexdigest(), out.evals_used, out.best_value.hex(),
           array("d", out.best_x).tobytes().hex())
    assert got == GOLDEN[(name, alg)]
    assert program.eval_count - before == out.evals_used
