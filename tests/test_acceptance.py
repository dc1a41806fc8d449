"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Volumes and tolerances
are pinned here; nothing is deferred to later calibration.
"""

import io
import random
import stat
import sys
import textwrap
import time

import numpy as np
import pytest

from conftest import (
    clause_set_as_formula,
    random_assignment,
    random_formula,
    structured_values,
)
from test_rng import (
    SPLITMIX64_TRACES,
    XOSHIRO256P_DOUBLE_TRACES,
    XOSHIRO256P_TRACES,
)

from fpsat import build_problem, load_problem
from fpsat.fp import FPValue
from fpsat.harness import run_bench, run_combined, run_solve
from fpsat.normalizer import push_negations, simplify, to_cnf
from fpsat.objective import atom_distance, compile_objective, semantic_eval, theta
from fpsat.optimizers import OptimizerConfig, basin_hopping, crs2_minimize, isres_minimize
from fpsat.portfolio import PortfolioConfig, random_start, solve, verify_model
from fpsat.rng import Xoshiro256Plus, derive_seed, splitmix64_next
from fpsat.terms import CmpOp

SAT_INSTANCES = [
    "branching.smt2",
    "conjunction2d.smt2",
    "disjunction.smt2",
    "equality32.smt2",
    "listing1.smt2",
    "mixed_width.smt2",
    "negated_guard.smt2",
    "quadratic64.smt2",
]
UNSAT_INSTANCES = [
    "infeasible_abs.smt2",
    "infeasible_box.smt2",
    "infeasible_cycle.smt2",
    "infeasible_irreflexive.smt2",
]


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_01_listing1_reproduction(corpus_path, listing1_text):
    """Bundled quadratic instance: SAT across 20 seeds, each run < 5 s,
    model satisfies t(x) >= -2 in binary32 arithmetic."""
    problem = build_problem(listing1_text)
    for seed in range(1, 21):
        config = PortfolioConfig(
            instances=[("bh", 1), ("crs2", 1), ("isres", 1)],
            max_evals=1_000_000,
            seed=seed,
        )
        t0 = time.perf_counter()
        out = solve(problem.formula, problem.program, config)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"seed {seed} took {elapsed:.2f}s"
        assert out.verdict == "sat", f"seed {seed} failed to solve"
        assert verify_model(problem.formula, out.model)
        x = np.float32(out.model.entries[0][2].to_float())
        t = np.float32(-1.0) * (x + np.float32(2.0)) * (x + np.float32(2.0)) \
            + np.float32(-2.0)
        assert t >= np.float32(-2.0)
    _passed(1, "quadratic instance SAT for 20 seeds, each < 5 s, "
               "models satisfy t(x) >= -2 in binary32")


def test_02_theta_property_suite():
    """Bit-distance properties: non-negativity, zero implies IEEE equality,
    symmetry, NaN positivity; exhaustive structured set + 1e6 random pairs
    per width, in under 30 seconds."""
    t0 = time.perf_counter()
    failures = 0

    for width in (32, 64):
        vals = structured_values(width)
        for a in vals:
            for b in vals:
                t = theta(a, b)
                if t < 0:
                    failures += 1
                if t == 0.0 and not (a.to_float() == b.to_float()):
                    failures += 1
                if t != theta(b, a):
                    failures += 1
                if (a.is_nan() or b.is_nan()) and not t > 0:
                    failures += 1

    rng = random.Random(0xACCE)
    for width in (32, 64):
        for _ in range(1_000_000):
            a = FPValue(width, rng.getrandbits(width))
            b = FPValue(width, rng.getrandbits(width))
            t = theta(a, b)
            if t < 0:
                failures += 1
            if t == 0.0 and not (a.to_float() == b.to_float()):
                failures += 1
            if t != theta(b, a):
                failures += 1
            if (a.is_nan() or b.is_nan()) and not t > 0:
                failures += 1

    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 30.0, f"theta suite took {elapsed:.1f}s"
    _passed(2, f"theta properties hold on structured set + 2x1e6 random "
               f"pairs in {elapsed:.1f}s")


def test_03_requirements_fuzz():
    """R(1)-R(3): over 100 random formulas x 1e4 random assignments each
    (specials included), G >= 0 always and G == 0 iff the formula holds;
    zero counterexamples, under 5 minutes."""
    t0 = time.perf_counter()
    rng = random.Random(0xF0220)
    counterexamples = 0
    for _ in range(100):
        formula, varmap = random_formula(rng, max_depth=5, max_vars=4)
        program = compile_objective(push_negations(simplify(formula)), varmap)
        for _ in range(10_000):
            a = random_assignment(rng, varmap)
            x = [a[n] for n, _ in varmap]
            g = program.evaluate(x)
            if g != g or g < 0.0:
                counterexamples += 1  # R(1)
                continue
            if (g == 0.0) != semantic_eval(formula, a):
                counterexamples += 1  # R(2)/R(3)
    elapsed = time.perf_counter() - t0
    assert counterexamples == 0
    assert elapsed < 300.0, f"fuzz took {elapsed:.1f}s"
    _passed(3, f"R(1)-R(3) clean on 100 formulas x 1e4 assignments "
               f"in {elapsed:.1f}s")


def test_04_nan_negation_semantics():
    """atom_distance == 0 exactly when the (possibly negated) IEEE
    comparison is true; exhaustive over the structured set including NaN."""
    failures = 0
    checked = 0
    for width in (32, 64):
        vals = structured_values(width)
        for a in vals:
            for b in vals:
                fa, fb = a.to_float(), b.to_float()
                ieee = {
                    CmpOp.LT: fa < fb, CmpOp.LEQ: fa <= fb,
                    CmpOp.GT: fa > fb, CmpOp.GEQ: fa >= fb,
                    CmpOp.EQ: fa == fb, CmpOp.NEQ: fa != fb,
                }
                for op in CmpOp:
                    for negated in (False, True):
                        d = atom_distance(op, negated, a, b)
                        holds = ieee[op] != negated
                        checked += 1
                        if (d == 0.0) != holds or d < 0.0:
                            failures += 1
    assert failures == 0
    _passed(4, f"negation-flag distances agree with IEEE truth on all "
               f"{checked} structured cases")


def test_05_prng_conformance():
    """First 10 outputs of both generators match the pre-built C reference
    oracle for 3 fixed seeds."""
    for seed, expected in SPLITMIX64_TRACES.items():
        state = seed
        for want in expected:
            got, state = splitmix64_next(state)
            assert got == want
    for seed, expected in XOSHIRO256P_TRACES.items():
        rng = Xoshiro256Plus(seed)
        for want in expected:
            assert rng.next_u64() == want
    for seed, expected in XOSHIRO256P_DOUBLE_TRACES.items():
        rng = Xoshiro256Plus(seed)
        for want in expected:
            assert rng.next_double() == want
    _passed(5, "splitmix64 and xoshiro256+ match the reference oracle "
               "traces for 3 seeds")


def test_06_portfolio_contracts(corpus_path):
    """On the mini-corpus: SAT always verified, 'unsat' never printed,
    budgets respected, post-win cancellation within one evaluation."""
    import threading

    budget = 20_000
    for name in SAT_INSTANCES + UNSAT_INSTANCES:
        problem = load_problem(corpus_path / name)
        stream = io.StringIO()
        report = run_solve(corpus_path / name,
                           PortfolioConfig(max_evals=budget, seed=11),
                           show_model=True, stats_json=True, stream=stream)
        text = stream.getvalue()
        assert "unsat" not in text, name
        if report.verdict == "sat":
            assert verify_model(problem.formula, report.outcome.model)
        for s in report.outcome.stats:
            assert s.evals <= budget, (name, s)

    # instrumented cancellation check on one SAT instance
    problem = load_problem(corpus_path / "listing1.smt2")
    program = problem.program
    log = []
    lock = threading.Lock()
    zero_seen = threading.Event()
    real = program.evaluate

    def instrumented(x):
        v = real(x)
        with lock:
            log.append((threading.get_ident(), zero_seen.is_set()))
            if v == 0.0:
                zero_seen.set()
        return v

    class Proxy:
        varmap = program.varmap
        dimension = program.dimension
        evaluate = staticmethod(instrumented)

    out = solve(problem.formula, Proxy(), PortfolioConfig(max_evals=budget, seed=2))
    assert out.verdict == "sat"
    extra = {}
    for ident, after_win in log:
        if after_win:
            extra[ident] = extra.get(ident, 0) + 1
    assert all(n <= 1 for n in extra.values()), extra
    _passed(6, "SAT always verified, no 'unsat' output, budgets kept, "
               "post-win cancellation <= 1 evaluation")


def test_07_determinism(corpus_path):
    """Single-instance fixed-seed runs are bit-identical across 5 reps, and
    every instance of a race runs the trajectory it runs alone."""
    for name, algorithm in (("listing1.smt2", "bh"),
                            ("disjunction.smt2", "crs2"),
                            ("infeasible_irreflexive.smt2", "isres")):
        problem = load_problem(corpus_path / name)
        results = []
        for _ in range(5):
            config = PortfolioConfig(instances=[(algorithm, 1)],
                                     max_evals=3_000, seed=0xD5)
            out = solve(problem.formula, problem.program, config)
            model_bits = tuple(v.bits for _, _, v in out.model.entries) \
                if out.model else None
            results.append((out.verdict, model_bits, out.total_evals))
        assert len(set(results)) == 1, (name, results)

    # a race's instances against their minimizers run alone, each from
    # its own seed and start point, on the infeasible instances, where
    # every instance runs its whole budget
    minimizers = {"bh": basin_hopping, "crs2": crs2_minimize, "isres": isres_minimize}
    config = PortfolioConfig(max_evals=3_000, seed=0xD5)
    opt_cfg = OptimizerConfig(max_evals=config.max_evals, bounds=config.bounds)
    for name in UNSAT_INSTANCES:
        problem = load_problem(corpus_path / name)
        program = problem.program
        out = solve(problem.formula, program, config)
        alone = []
        for idx, alg in enumerate(config.expanded()):
            rng = Xoshiro256Plus(derive_seed(config.seed, idx))
            x0 = random_start(program.dimension, rng, config.start_range)
            run = minimizers[alg](program.evaluate, x0, opt_cfg, rng)
            alone.append((run.evals_used, run.best_value, run.terminated_by.value))
        raced = [(s.evals, s.best_value, s.terminated_by) for s in out.stats]
        assert raced == alone, (name, raced, alone)
    _passed(7, "verdict, model bits, and eval counts identical across "
               "5 repetitions for each algorithm, and each raced instance's "
               "trajectory identical to its run alone")


def test_08_table_shapes_at_desk_scale(corpus_path, tmp_path):
    """Full-budget bench decides the whole mini-corpus correctly within
    the wall budget; a repeat-10 bench produces the share table and the
    summary row."""
    t0 = time.perf_counter()

    # (a) full budget: every known-SAT instance solves within 1e6
    # evaluations per instance; every infeasible instance is UNKNOWN
    stream = io.StringIO()
    report = run_bench(corpus_path, PortfolioConfig(max_evals=1_000_000, seed=9),
                       timeout=590.0, csv_path=tmp_path / "full.csv",
                       stream=stream)
    by_name = {r.file: r for r in report.records}
    for name in SAT_INSTANCES:
        assert by_name[name].verdict == "SAT", name
        assert by_name[name].evals <= 3 * 1_000_000
    for name in UNSAT_INSTANCES:
        assert by_name[name].verdict == "UNKNOWN", name

    # (b) repeat mode: first-finder shares + summary table shapes
    stream = io.StringIO()
    rep = run_bench(corpus_path, PortfolioConfig(max_evals=5_000, seed=42),
                    timeout=120.0, repeat=10, csv_path=tmp_path / "rep.csv",
                    stream=stream)
    text = stream.getvalue()
    shares = rep.first_finder_shares()
    assert shares is not None
    assert abs(sum(shares.values()) - 100.0) < 0.5  # rounding slack
    assert "first-finder shares" in text
    summary = rep.summary_table()
    for column in ("SAT", "UNKNOWN", "TIMEOUT", "ERROR", "avg SAT s"):
        assert column in summary
    assert rep.sat_count == 10 * len(SAT_INSTANCES)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"bench acceptance took {elapsed:.0f}s"
    _passed(8, f"desk-scale tables produced; 8 SAT + 4 UNKNOWN verdicts "
               f"correct in {elapsed:.0f}s total")


def test_09_combined_mode_race(corpus_path, tmp_path):
    """Race decision logic: portfolio SAT preempts a slow external solver;
    an instant external unsat is accepted; a crash degrades to the
    portfolio-only result."""
    def stub(name, body):
        path = tmp_path / name
        path.write_text(f"#!{sys.executable}\n" + textwrap.dedent(body))
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return f"{sys.executable} {path}"

    slow_sat = stub("slow_sat.py", "import time\ntime.sleep(20)\nprint('sat')\n")
    out = run_combined(corpus_path / "listing1.smt2", slow_sat,
                       PortfolioConfig(max_evals=200_000, seed=5), timeout=60.0)
    assert (out.verdict, out.source) == ("sat", "portfolio")
    assert out.wall_time < 20.0

    fast_unsat = stub("fast_unsat.py", "print('unsat')\n")
    out = run_combined(corpus_path / "infeasible_cycle.smt2", fast_unsat,
                       PortfolioConfig(max_evals=10**9, seed=5), timeout=60.0)
    assert (out.verdict, out.source) == ("unsat", "external")

    crash = stub("crash.py", "import sys\nsys.exit(3)\n")
    out = run_combined(corpus_path / "infeasible_cycle.smt2", crash,
                       PortfolioConfig(max_evals=30_000, seed=5), timeout=60.0)
    assert (out.verdict, out.source) == ("unknown", "portfolio")
    assert out.note and "external solver failed" in out.note
    _passed(9, "combined race: portfolio preempts, external unsat accepted, "
               "crash falls back to portfolio")


def test_10_cnf_equivalence(corpus_path):
    """Normalized clause sets agree with their source formulas on 1e3
    random assignments per corpus formula; zero mismatches."""
    rng = random.Random(0xCAFE)
    mismatches = 0

    corpus_formulas = []
    for name in SAT_INSTANCES + UNSAT_INSTANCES:
        problem = load_problem(corpus_path / name)
        corpus_formulas.append((problem.formula, problem.varmap))
    for _ in range(100):
        corpus_formulas.append(random_formula(rng, max_depth=5, max_vars=4))

    for formula, varmap in corpus_formulas:
        cnf = to_cnf(push_negations(simplify(formula)))
        view = clause_set_as_formula(cnf)
        for _ in range(1_000):
            a = random_assignment(rng, varmap)
            if semantic_eval(formula, a) != semantic_eval(view, a):
                mismatches += 1
    assert mismatches == 0
    _passed(10, "CNF semantically equivalent to source on 112 formulas x "
                "1e3 assignments")
