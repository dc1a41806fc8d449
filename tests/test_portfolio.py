"""Portfolio race: soundness gate, cancellation, stats, determinism."""

import functools
import math
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fpsat import build_problem, kernels, portfolio
from fpsat.errors import InstanceCrashError, VerificationFailureError
from fpsat.fp import FP32, FP64
from fpsat.harness import corpus_dir
from fpsat.objective import semantic_eval
from fpsat.optimizers import StopFlag
from fpsat.portfolio import (
    Model,
    PortfolioConfig,
    extract_model,
    random_start,
    solve,
    verify_model,
)
from fpsat.rng import Xoshiro256Plus


def small_config(**kw):
    defaults = dict(max_evals=30_000, seed=5)
    defaults.update(kw)
    return PortfolioConfig(**defaults)


_INFEASIBLE = ("(set-logic QF_FP)(declare-fun x () Float64)"
               "(assert (fp.lt x x))(check-sat)")


class TestRandomStart:
    def test_dimension_zero(self):
        rng = Xoshiro256Plus(1)
        assert len(random_start(0, rng)) == 0

    def test_range(self):
        rng = Xoshiro256Plus(2)
        for _ in range(100):
            x = random_start(3, rng, (-0.5, 0.5))
            assert np.all(x >= -0.5) and np.all(x < 0.5)

    def test_reproducible(self):
        a = random_start(4, Xoshiro256Plus(9), (-0.5, 0.5))
        b = random_start(4, Xoshiro256Plus(9), (-0.5, 0.5))
        assert a.tobytes() == b.tobytes()


class TestExtractModel:
    def test_binary32_narrowed(self):
        m = extract_model([-2.0], [("x", FP32)])
        name, sort, value = m.entries[0]
        assert (name, sort) == ("x", FP32)
        assert value.width == 32 and value.to_float() == -2.0

    def test_binary64_bits_preserved(self):
        m = extract_model([0.1], [("x", FP64)])
        assert m.entries[0][2].to_float() == 0.1
        assert m.entries[0][2].bits == 0x3FB999999999999A

    def test_binary32_overflow_to_infinity(self):
        m = extract_model([1e300], [("x", FP32)])
        assert m.entries[0][2].to_float() == math.inf


class TestVerifyModel:
    def test_listing1_model_true(self, listing1_text):
        problem = build_problem(listing1_text)
        m = extract_model([-2.0], problem.varmap)
        assert verify_model(problem.formula, m) is True

    def test_listing1_wrong_point_false(self, listing1_text):
        problem = build_problem(listing1_text)
        m = extract_model([0.0], problem.varmap)
        assert verify_model(problem.formula, m) is False

    def test_nan_for_reflexive_eq_false(self):
        problem = build_problem(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(assert (fp.eq x x))(check-sat)"
        )
        m = extract_model([float("nan")], problem.varmap)
        assert verify_model(problem.formula, m) is False


class TestSolve:
    def test_listing1_sat_with_verified_model(self, listing1_text):
        problem = build_problem(listing1_text)
        out = solve(problem.formula, problem.program, small_config())
        assert out.verdict == "sat"
        assert out.winner is not None
        assert semantic_eval(problem.formula, out.model.bindings())
        assert problem.program.evaluate(out.model.vector()) == 0.0
        # the model satisfies t(x) >= -2 in binary32 arithmetic
        x = out.model.entries[0][2].to_float()
        t = np.float32(-1.0) * (np.float32(x) + np.float32(2.0)) ** 2 \
            + np.float32(-2.0)
        assert t >= np.float32(-2.0)

    def test_irreflexive_lt_unknown(self):
        problem = build_problem(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(assert (fp.lt x x))(check-sat)"
        )
        out = solve(problem.formula, problem.program, small_config(max_evals=3000))
        assert out.verdict == "unknown"
        assert out.model is None
        assert out.unknown_reason == "budget-exhausted"

    def test_reflexive_eq_immediate_sat(self):
        problem = build_problem(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(assert (fp.eq x x))(check-sat)"
        )
        out = solve(problem.formula, problem.program, small_config())
        assert out.verdict == "sat"
        # every instance's very first evaluation already satisfies
        sat_stats = [s for s in out.stats if s.terminated_by == "zero-found"]
        assert sat_stats and min(s.evals for s in sat_stats) == 1

    def test_dimension_zero_single_evaluation(self):
        problem = build_problem(
            "(set-logic QF_FP)"
            "(assert (fp.lt ((_ to_fp 8 24) RNE 1.0) ((_ to_fp 8 24) RNE 2.0)))"
            "(check-sat)"
        )
        out = solve(problem.formula, problem.program, small_config())
        assert out.verdict == "sat"
        assert out.total_evals == 1
        assert out.model.entries == []

    def test_dimension_zero_false_unknown(self):
        problem = build_problem(
            "(set-logic QF_FP)"
            "(assert (fp.gt ((_ to_fp 8 24) RNE 1.0) ((_ to_fp 8 24) RNE 2.0)))"
            "(check-sat)"
        )
        out = solve(problem.formula, problem.program, small_config())
        assert out.verdict == "unknown"
        assert out.total_evals == 1

    @pytest.mark.parametrize("eb,sb", [(8, 24), (11, 53)])
    @pytest.mark.parametrize("numerator,verdict,winner,reason", [
        ("1.0", "sat", ("direct", 0), None),  # 1/0 is +oo
        ("0.0", "unknown", None, "constant-objective-nonzero"),  # 0/0 is NaN
    ], ids=["one", "zero"])
    def test_dimension_zero_division_on_the_tape(self, eb, sb, numerator, verdict,
                                                 winner, reason):
        # IEEE division by zero over constants is computed by the tape
        # (simplify folds no arithmetic) and checked by the oracle
        problem = build_problem(
            f"(set-logic QF_FP)(assert (fp.eq (fp.div RNE ((_ to_fp {eb} {sb}) RNE "
            f"{numerator}) ((_ to_fp {eb} {sb}) RNE 0.0)) (_ +oo {eb} {sb})))(check-sat)"
        )
        assert problem.program.dimension == 0
        out = solve(problem.formula, problem.program, small_config())
        assert (out.verdict, out.winner, out.unknown_reason) == (verdict, winner, reason)
        assert out.total_evals == 1

    def test_stats_conservation(self, listing1_text):
        problem = build_problem(listing1_text)
        program = problem.program
        before = program.eval_count
        out = solve(problem.formula, program, small_config(seed=33))
        assert program.eval_count - before == out.total_evals

    def test_budgets_respected_on_unsat(self):
        problem = build_problem(
            "(set-logic QF_FP)(declare-fun x () Float64)"
            "(assert (fp.lt x x))(check-sat)"
        )
        cfg = small_config(max_evals=1000)
        out = solve(problem.formula, problem.program, cfg)
        assert out.verdict == "unknown"
        for s in out.stats:
            assert s.evals <= cfg.max_evals

    def test_never_says_unsat(self, capsys):
        problem = build_problem(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(assert (fp.lt x x))(check-sat)"
        )
        out = solve(problem.formula, problem.program, small_config(max_evals=500))
        assert out.verdict in ("sat", "unknown")
        assert "unsat" not in capsys.readouterr().out

    def test_single_instance_deterministic(self, listing1_text):
        problem = build_problem(listing1_text)
        runs = []
        for _ in range(5):
            cfg = PortfolioConfig(instances=[("bh", 1)], max_evals=50_000, seed=911)
            out = solve(problem.formula, problem.program, cfg)
            runs.append((
                out.verdict,
                out.model.entries[0][2].bits if out.model else None,
                out.total_evals,
            ))
        assert len(set(runs)) == 1

    def test_wall_timeout_fires(self):
        problem = build_problem(_INFEASIBLE)
        before = problem.program.eval_count
        cfg = small_config(max_evals=100_000_000, wall_timeout=0.3)
        out = solve(problem.formula, problem.program, cfg)
        assert out.verdict == "unknown"
        assert out.unknown_reason == "wall-timeout"
        assert out.wall_time < 5.0
        # every instance was stopped
        assert [s.terminated_by for s in out.stats] == ["cancelled"] * 3
        assert problem.program.eval_count - before == out.total_evals

    @staticmethod
    def _cancelled_race(running: bool):
        """Sets an external stop once every instance runs, or at once; the
        race must end within a second, cancelled."""
        problem = build_problem(_INFEASIBLE)
        stop = StopFlag()
        cfg = small_config(max_evals=100_000_000)
        result = {}

        def run():
            result["out"] = solve(problem.formula, problem.program, cfg, stop=stop)

        t = threading.Thread(target=run)
        t.start()
        if running:
            # every instance is running; a native run counts its
            # evaluations only when it ends, so the count cannot tell
            time.sleep(0.5)
        stop.set()
        stopped = time.perf_counter()
        t.join(timeout=30)
        assert not t.is_alive()
        assert time.perf_counter() - stopped < 1.0
        out = result["out"]
        assert (out.verdict, out.unknown_reason) == ("unknown", "cancelled")
        assert [s.terminated_by for s in out.stats] == ["cancelled"] * 3
        if running:
            assert all(s.evals > 0 for s in out.stats)

    def test_external_stop_cancels(self):
        self._cancelled_race(running=True)

    def test_external_stop_at_the_start_cancels(self):
        self._cancelled_race(running=False)

    def test_wall_timeout_ends_a_native_run(self):
        # basin hopping alone runs natively, without the interpreter lock,
        # and still sees the deadline the calling thread sets on its flag
        problem = build_problem(_INFEASIBLE)
        cfg = small_config(instances=[("bh", 1)], max_evals=10**9, wall_timeout=0.3)
        t0 = time.perf_counter()
        out = solve(problem.formula, problem.program, cfg)
        assert time.perf_counter() - t0 < 1.0
        assert out.unknown_reason == "wall-timeout"
        assert [s.terminated_by for s in out.stats] == ["cancelled"]
        assert problem.program.eval_count == out.total_evals > 0

    def test_external_stop_ends_native_runs(self):
        # BH and CRS2 run natively, without the interpreter lock; the race
        # ends within 50 ms of the stop
        problem = build_problem(_INFEASIBLE)
        cfg = small_config(instances=[("bh", 1), ("crs2", 1)], max_evals=10**9)
        stop = StopFlag()
        result = {}

        def run():
            result["out"] = solve(problem.formula, problem.program, cfg, stop=stop)
            result["ended"] = time.perf_counter()

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.3)  # both instances are running
        stop.set()
        stopped = time.perf_counter()
        t.join(timeout=30)
        assert not t.is_alive()
        assert result["ended"] - stopped < 0.05
        out = result["out"]
        assert [s.terminated_by for s in out.stats] == ["cancelled"] * 2
        assert all(s.evals > 0 for s in out.stats)
        assert problem.program.eval_count == out.total_evals

    def test_concurrent_solves_share_nothing(self, corpus_path):
        # races on one program in four threads at once keep their own
        # stats, and the program counts every evaluation
        problem = build_problem((corpus_path / "infeasible_box.smt2").read_text())
        cfg = small_config(max_evals=5_000, seed=8)
        expected = [(s.evals, s.best_value, s.terminated_by)
                    for s in solve(problem.formula, problem.program, cfg).stats]
        before = problem.program.eval_count
        outs = [None] * 4

        def run(i):
            outs[i] = solve(problem.formula, problem.program, cfg)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for out in outs:
            assert [(s.evals, s.best_value, s.terminated_by)
                    for s in out.stats] == expected
        assert problem.program.eval_count - before == 4 * sum(e for e, _, _ in expected)

    def test_race_does_not_depend_on_earlier_races(self, corpus_path, listing1_text):
        # instance 0 gets its head start in every race: races after one
        # that ran its whole budget decide listing1 as a fresh one does
        problem = build_problem(listing1_text)
        cfg = PortfolioConfig(seed=1)

        def listing1():
            out = solve(problem.formula, problem.program, cfg)
            return out.winner, [(s.evals, s.terminated_by) for s in out.stats]

        fresh = listing1()
        infeasible = build_problem((corpus_path / "infeasible_cycle.smt2").read_text())
        out = solve(infeasible.formula, infeasible.program, small_config(max_evals=5_000))
        assert out.unknown_reason == "budget-exhausted"
        assert [listing1() for _ in range(5)] == [fresh] * 5
        assert fresh[0] == ("bh", 0)

    def test_verification_failure_surfaces(self, listing1_text):
        problem = build_problem(listing1_text)

        class Broken:
            """Objective returning zero at a non-solution."""

            varmap = problem.program.varmap
            dimension = 1

            def evaluate(self, x):
                return 0.0  # claims everything is a solution

        with pytest.raises(VerificationFailureError):
            solve(problem.formula, Broken(), small_config())

    def test_verification_failure_surfaces_at_dimension_zero(self):
        # the one evaluation's zero takes the race winner's path
        problem = build_problem(
            "(set-logic QF_FP)"
            "(assert (fp.gt ((_ to_fp 8 24) RNE 1.0) ((_ to_fp 8 24) RNE 2.0)))"
            "(check-sat)"
        )

        class Broken:
            varmap = []
            dimension = 0

            def evaluate(self, x):
                return 0.0

        with pytest.raises(VerificationFailureError):
            solve(problem.formula, Broken(), small_config())

    def test_post_win_cancellation_at_most_one_eval(self, listing1_text):
        # instrumented: log (stop-state, instance-eval) order per evaluation
        problem = build_problem(listing1_text)
        program = problem.program
        log = []
        log_lock = threading.Lock()
        real_evaluate = program.evaluate
        zero_seen = threading.Event()

        def instrumented(x):
            v = real_evaluate(x)
            with log_lock:
                log.append((threading.get_ident(), zero_seen.is_set()))
                if v == 0.0:
                    zero_seen.set()
            return v

        class Proxy:
            varmap = program.varmap
            dimension = program.dimension
            evaluate = staticmethod(instrumented)

        out = solve(problem.formula, Proxy(), small_config(seed=77))
        assert out.verdict == "sat"
        per_thread_after = {}
        for ident, after in log:
            if after:
                per_thread_after[ident] = per_thread_after.get(ident, 0) + 1
        assert all(n <= 1 for n in per_thread_after.values())

    def test_post_win_cancellation_batch_path(self, listing1_text):
        # ISRES's populations and generations, through an objective that
        # is not the program's own `evaluate`, go row by row: once the
        # winning zero is seen, a thread may still make the one evaluation
        # it had already polled the stop flag for, but no second
        problem = build_problem(listing1_text)
        program = problem.program
        log = []  # (thread, zero already seen)
        log_lock = threading.Lock()
        zero_seen = threading.Event()

        def evaluate(x):
            v = program.evaluate(x)
            with log_lock:
                log.append((threading.get_ident(), zero_seen.is_set()))
                if v == 0.0:
                    zero_seen.set()
            return v

        class Proxy:
            varmap = program.varmap
            dimension = program.dimension

        Proxy.evaluate = staticmethod(evaluate)
        cfg = PortfolioConfig(instances=[("isres", 3)],
                              max_evals=30_000, seed=77)
        out = solve(problem.formula, Proxy(), cfg)
        assert out.verdict == "sat"
        assert len(log) == out.total_evals
        per_thread_after = {}
        for ident, after in log:
            if after:
                per_thread_after[ident] = per_thread_after.get(ident, 0) + 1
        assert all(n <= 1 for n in per_thread_after.values())

    @pytest.mark.parametrize("alg", ["crs2", "isres"])
    def test_bounds_box_the_population_methods(self, corpus_path, alg):
        problem = build_problem((corpus_path / "infeasible_cycle.smt2").read_text())
        points = []

        def recording(x):
            points.append(np.array(x, dtype=float))
            return problem.program.evaluate(x)

        class Proxy:
            varmap = problem.program.varmap
            dimension = problem.program.dimension
            evaluate = staticmethod(recording)

        cfg = PortfolioConfig(instances=[(alg, 1)], max_evals=500, bounds=(2.0, 3.0))
        out = solve(problem.formula, Proxy(), cfg)
        assert out.total_evals == len(points) == 500
        assert all(np.all((2.0 <= x) & (x <= 3.0)) for x in points)


class TestStartRange:
    @pytest.mark.parametrize("start_range", [(math.nan, math.nan), (0.0, math.inf)])
    def test_non_finite_start_range_rejected(self, listing1_text, start_range):
        problem = build_problem(listing1_text)
        before = problem.program.eval_count
        with pytest.raises(ValueError, match="start_range"):
            solve(problem.formula, problem.program,
                  small_config(max_evals=2_000, start_range=start_range))
        assert problem.program.eval_count == before


class TestInvalidConfig:
    @pytest.mark.parametrize("overrides", [
        dict(max_evals=0),
        dict(bounds=(1.0, 1.0)),
        dict(bounds=(0.0, math.inf)),
        dict(max_evals=2.5),
        dict(instances=[("bh", -1), ("crs2", 1)]),
        dict(instances=[("bh", 1)], bounds=(1.0, 1.0)),
        dict(seed=1.5),
        dict(instances=[("bh", 1.5)]),
        dict(instances=[("bh", "2")]),
        dict(wall_timeout=math.nan),
        dict(wall_timeout=math.inf),
        dict(wall_timeout=-1.0),
    ], ids=["zero-budget", "empty-box", "infinite-box", "fractional-budget",
            "negative-count", "bh-empty-box", "fractional-seed", "fractional-count",
            "string-count", "nan-timeout", "infinite-timeout", "negative-timeout"])
    def test_rejected_before_any_evaluation(self, listing1_text, overrides):
        problem = build_problem(listing1_text)
        before = problem.program.eval_count
        with pytest.raises(ValueError):
            solve(problem.formula, problem.program, small_config(**overrides))
        assert problem.program.eval_count == before

    def test_event_as_stop_rejected(self, listing1_text):
        # the race stops on a StopFlag, which native runs poll; an event
        # would reach them only through a forwarding poll
        problem = build_problem(listing1_text)
        before = problem.program.eval_count
        with pytest.raises(ValueError, match="StopFlag"):
            solve(problem.formula, problem.program, small_config(), stop=threading.Event())
        assert problem.program.eval_count == before


class TestManyInstances:
    def test_twelve_instance_race(self, listing1_text):
        problem = build_problem(listing1_text)
        program = problem.program
        before = program.eval_count
        cfg = PortfolioConfig(
            instances=[("bh", 4), ("crs2", 4), ("isres", 4)],
            max_evals=50_000,
            seed=64,
        )
        out = solve(problem.formula, program, cfg)
        assert out.verdict == "sat"
        assert len(out.stats) == 12
        assert {s.algorithm for s in out.stats} == {"bh", "crs2", "isres"}
        assert program.eval_count - before == out.total_evals
        assert semantic_eval(problem.formula, out.model.bindings())


class TestModelBlock:
    def test_smt2_block_bit_exact(self, listing1_text):
        problem = build_problem(listing1_text)
        out = solve(problem.formula, problem.program, small_config())
        block = out.model.smt2_block()
        assert "(define-fun x () (_ FloatingPoint 8 24)" in block
        assert "((_ to_fp 8 24) #x" in block


class TestCrashedInstance:
    @staticmethod
    def _crash_stops_the_race(corpus_path, instances):
        """ISRES raises at its first generation (`crashing_isres`), after
        its initial population; the others must stop at once
        instead of burning their whole budgets. The
        Python minimizers make 20,000 evaluations in about 0.1 s, so on
        the Python path each instance gets that budget and the count must
        stay below it. The native runs of BH and CRS2 make as many in a
        few milliseconds, so there each gets 10^7, and ISRES must crash
        within 0.1 s of the call and the race end within 0.1 s of the
        crash."""
        problem = build_problem((corpus_path / "infeasible_cycle.smt2").read_text())
        program = problem.program
        native = kernels.lib is not None
        budget = 10**7 if native else 20_000
        cfg = small_config(instances=instances, max_evals=budget, seed=3)
        idx = [alg for alg, _ in instances].index("isres")
        before, entered = program.eval_count, time.monotonic()
        with pytest.raises(InstanceCrashError) as exc:
            solve(problem.formula, program, cfg)
        ended = time.monotonic()
        assert f"instance {idx} (isres) crashed: RuntimeError: boom" in str(exc.value)
        # the instance's own traceback
        assert "isres_minimize" in exc.value.traceback
        assert 'raise RuntimeError(f"boom at' in exc.value.traceback
        if native:
            crashed = float(re.search(r"boom at (\S+)", str(exc.value)).group(1))
            assert crashed - entered < 0.1
            assert ended - crashed < 0.1
        else:
            # below the 40,000 evaluations the other two instances own
            assert program.eval_count - before < 20_000

    def test_crash_stops_the_race(self, corpus_path, crashing_isres):
        self._crash_stops_the_race(corpus_path, [("isres", 1), ("bh", 1), ("crs2", 1)])

    def test_crash_of_a_later_instance_stops_the_race(self, corpus_path, request,
                                                      crashing_isres):
        if kernels.lib is None:
            request.applymarker(pytest.mark.xfail(strict=False, reason=(
                "on the Python path a thread started third in the calling "
                "process can wait 100 ms or more for the interpreter lock "
                "while the others run (CHANGES.md, FOUND: Thread.start "
                "latency in _Race.start)")))
        self._crash_stops_the_race(corpus_path, [("bh", 1), ("crs2", 1), ("isres", 1)])


def _cycle(n, sort):
    """x0 < x1 < ... < x(n-1) < x0, which no assignment satisfies."""
    decls = "".join(f"(declare-fun x{i} () {sort})" for i in range(n))
    lts = "".join(f"(fp.lt x{i} x{(i + 1) % n})" for i in range(n))
    return f"{decls}(assert (and {lts}))"


_CORPUS = sorted(p.name for p in corpus_dir().glob("*.smt2"))
_INFEASIBLE_TEXTS = {
    **{name: (corpus_dir() / name).read_text() for name in _CORPUS
       if name.startswith("infeasible_")},
    "cycle-2-float32": _cycle(2, "Float32"),
    "cycle-5-float64": _cycle(5, "Float64"),
    # y * y is +0 or more, or NaN, and -|x| is -0 or less
    "square-below-negative": (
        "(declare-fun x () Float32)(declare-fun y () Float32)"
        "(assert (fp.lt (fp.mul RNE y y) (fp.neg (fp.abs x))))"),
    "mixed-widths": (
        "(declare-fun a () Float64)(declare-fun b () Float64)"
        "(declare-fun u () Float32)(declare-fun w () Float32)"
        "(assert (and (fp.lt a b) (fp.lt (fp.add RNE u w) u) (fp.lt b a)))"),
}


def _instances(out):
    return [(s.algorithm, s.index, s.evals, s.best_value, s.terminated_by) for s in out.stats]


def _on_python_threads(monkeypatch):
    """Sends every race to `_Race`: the same minimizers, behind new
    callables in the table."""
    monkeypatch.setattr(portfolio, "_MINIMIZERS",
                        {alg: functools.partial(fn) for alg, fn in portfolio._MINIMIZERS.items()})


class TestNativeRace:
    """The C race (`portfolio._CRace`) against the race of Python threads,
    which runs the same native whole runs where the kernels are loaded."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("source", sorted(_INFEASIBLE_TEXTS))
    def test_equals_the_python_race(self, source, seed, monkeypatch):
        problem = build_problem(_INFEASIBLE_TEXTS[source])
        cfg = small_config(max_evals=5_000, seed=seed)
        native = solve(problem.formula, problem.program, cfg)
        _on_python_threads(monkeypatch)
        threaded = solve(problem.formula, problem.program, cfg)
        assert native.verdict == threaded.verdict == "unknown"
        assert native.unknown_reason == threaded.unknown_reason == "budget-exhausted"
        assert _instances(native) == _instances(threaded)

    @pytest.mark.parametrize("alg", ["bh", "crs2", "isres"])
    @pytest.mark.parametrize("name", [n for n in _CORPUS if not n.startswith("infeasible_")])
    def test_one_instance_gives_the_python_race_model(self, name, alg, monkeypatch):
        problem = build_problem((corpus_dir() / name).read_text())
        cfg = small_config(instances=[(alg, 1)], max_evals=5_000, seed=3)
        native = solve(problem.formula, problem.program, cfg)
        _on_python_threads(monkeypatch)
        threaded = solve(problem.formula, problem.program, cfg)
        assert (native.verdict, native.winner, _instances(native)) == (
            threaded.verdict, threaded.winner, _instances(threaded))
        if native.model is not None:
            assert native.model.smt2_block() == threaded.model.smt2_block()

    def test_twelve_jobs_without_a_head_start(self):
        # with a switch interval of a microsecond the jobs start one right
        # after another, on more threads than cores, and several of them
        # search at once: x + y = 1000 and x - y = 100 takes CRS2 thousands
        # of evaluations
        if kernels.lib is None:
            pytest.skip("the native kernels are not in use")
        problem = build_problem(
            "(declare-fun x () Float64)(declare-fun y () Float64)"
            "(assert (and (fp.eq (fp.add RNE x y) ((_ to_fp 11 53) #x408f400000000000))"
            " (fp.eq (fp.sub RNE x y) ((_ to_fp 11 53) #x4059000000000000))))")
        program = problem.program
        cfg = small_config(instances=[("bh", 4), ("crs2", 4), ("isres", 4)], max_evals=100_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(10):
                before = program.eval_count
                out = solve(problem.formula, program, replace(cfg, seed=seed))
                assert out.verdict == "sat"
                assert [s.index for s in out.stats] == list(range(12))
                alg, idx = out.winner
                assert (out.stats[idx].algorithm, out.stats[idx].terminated_by) == (
                    alg, "zero-found")
                assert program.eval_count - before == out.total_evals
        finally:
            sys.setswitchinterval(interval)

    def test_starts_no_python_thread(self, corpus_path, monkeypatch):
        if kernels.lib is None:
            pytest.skip("the native kernels are not in use")

        def refuse(thread):
            raise AssertionError(f"the native race started {thread}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        problem = build_problem((corpus_path / "infeasible_cycle.smt2").read_text())
        out = solve(problem.formula, problem.program, small_config(max_evals=20_000))
        assert [s.evals for s in out.stats] == [20_000] * 3

    def test_ctrl_c_ends_a_long_race(self, corpus_path):
        # the calling thread waits in slices, so the handler of a SIGINT
        # runs within one; every instance has ended when it propagates
        problem = build_problem((corpus_path / "infeasible_cycle.smt2").read_text())
        program = problem.program
        sent = []

        def interrupt():
            sent.append(time.monotonic())
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        timer = threading.Timer(0.3, interrupt)
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                solve(problem.formula, program, small_config(max_evals=10**8))
            raised = time.monotonic()
        finally:
            timer.cancel()
            timer.join()
        assert raised - sent[0] < 0.5
        counted = program.eval_count
        time.sleep(0.1)
        assert program.eval_count == counted

    def test_allocation_failure_is_a_crash(self):
        # in a child whose address space is capped 1 GiB above what it
        # uses: BH's 18 MB of scratch at n = 1,500 fit, ISRES's 1.4 GB do not
        if kernels.lib is None:
            pytest.skip("the native kernels are not in use")
        if not Path("/proc/self/statm").exists():
            pytest.skip("no /proc/self/statm to size the cap by")
        proc = subprocess.run([sys.executable, "-c", _ALLOCATION_FAILURE,
                               str(Path(portfolio.__file__).parent.parent)],
                              capture_output=True, text=True, timeout=120)
        if "capped below" in proc.stderr:
            pytest.skip(proc.stderr.strip())
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "instance 1 (isres) crashed: MemoryError" in proc.stdout


_ALLOCATION_FAILURE = """
import os, resource, sys
sys.path.insert(0, sys.argv[1])
from fpsat import PortfolioConfig, build_problem, kernels, solve
from fpsat.errors import InstanceCrashError

assert kernels.lib is not None, kernels.reason
n = 1_500
decls = "".join(f"(declare-fun x{i} () Float64)" for i in range(n))
lts = "".join(f"(fp.lt x{i} x{(i + 1) % n})" for i in range(n))
problem = build_problem(f"{decls}(assert (and {lts}))")
with open("/proc/self/statm") as fh:
    used = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = used + 2**30
if 0 <= hard < cap:
    sys.exit("address space capped below the test's cap")
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
cfg = PortfolioConfig(instances=[("bh", 1), ("isres", 1)], max_evals=10**9)
try:
    solve(problem.formula, problem.program, cfg)
except InstanceCrashError as exc:
    print(exc)
"""
