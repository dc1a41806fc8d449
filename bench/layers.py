"""The traced run: per-layer metrics from spans and layer probes.

A traced run has two phases.

1. The workload loop of run.py for half of `--seconds`, with the tracer
   installed (tracing.py). Frontend, oracle, verification and race
   metrics come from its spans, as medians over its queries. Where the
   workload decides nothing (budget-burn), the metrics of the sat path
   (oracle_s, verify_s, stop_ms, evals_to_zero, useful_share) come from
   one traced round of the 8 satisfiable corpus files instead.
2. Probes of single layers at fixed work, untraced, on the same 8
   budget-burn problems whatever the workload: raw `evaluate` on seeded
   points, each minimizer called directly, the portfolio with 1, 2 and 3
   instances of the default mix, and `run_bench` over the corpus. A
   host-speed sample precedes each probe call, so the run's scaling
   factor covers this phase too. The probes call fpsat directly, so no
   span wraps them.
"""

from __future__ import annotations

import io
import re
import statistics
import time

import numpy as np

import workloads
from tracing import Tracer

TRACED_SHARE = 0.5  # of --seconds, for phase 1
PROBE_QUERIES = (0, 1, 2, 3, 28, 29, 30, 31)  # budget-burn: sizes 1 and 8
PROBE_POINTS = 4_000  # raw evaluate calls per probe problem
PROBE_OPT_EVALS = 3_000  # budget of each direct minimizer call
PROBE_RACE_EVALS = 1_000  # per-instance budget of the portfolio probe
PROBE_BENCH_EVALS = 1_500  # per-instance budget of run_bench

_TAPE_LINE = re.compile(r"^\s+const \w+ v\d+ = .*\bv\d+", re.M)


def tape_ops(fpsat, program) -> int:
    """Tape instructions, counted in the rendered C source: one definition
    per instruction, and only those read other registers."""
    return len(_TAPE_LINE.findall(fpsat.render_objective_source(program)))


def _median(values):
    return statistics.median(list(values))


# --------------------------------------------------------------------------
# Phase 1: spans of the workload loop
# --------------------------------------------------------------------------


def _per_query(tracer: Tracer, name: str) -> dict[str, float]:
    """Summed duration of the spans called `name`, per query id."""
    out: dict[str, float] = {}
    for s in tracer.spans:
        if s.name == name:
            out[s.query] = out.get(s.query, 0.0) + s.duration
    return out


def _races(tracer: Tracer) -> list[dict]:
    """One entry per traced `solve` span with its minimizer and verify
    children."""
    tracer.link()
    races = []
    for s in tracer.spans:
        if s.name != "solve":
            continue
        mins = [c for c in s.children if c.name.startswith("minimize.")]
        verify = sum(c.duration for c in s.children if c.name == "verify_model")
        zeros = [m for m in mins if m.first_zero is not None]
        firsts = [m.first_eval for m in mins if m.first_eval is not None]
        winner = min(zeros, key=lambda m: m.first_zero) if zeros else None
        races.append({
            "query": s.query,
            "race_s": s.duration - verify,
            "verify_s": verify if winner else None,
            "first_eval_ms": (min(firsts) - s.start) * 1e3 if firsts else None,
            "stop_ms": (s.end - winner.first_zero) * 1e3 if winner else None,
            "winner_evals": winner.evals if winner else None,
            "evals": sum(m.evals for m in mins),
            "eval_wall": sum(m.eval_wall for m in mins),
            "min_wall": sum(m.duration for m in mins),
        })
    return races


def _sat_path(tracer: Tracer, races: list[dict]) -> dict:
    won = [r for r in races if r["winner_evals"] is not None]
    oracle = _per_query(tracer, "semantic_eval")
    return {
        "objective.oracle_s": (_median(oracle[r["query"]] for r in won
                                       if r["query"] in oracle), "s"),
        "optimizers.evals_to_zero": (_median(r["winner_evals"] for r in won), "count"),
        "portfolio.stop_ms": (_median(r["stop_ms"] for r in won), "ms"),
        "portfolio.verify_s": (_median(r["verify_s"] for r in won), "s"),
        "portfolio.useful_share": (sum(r["winner_evals"] for r in won)
                                   / max(1, sum(r["evals"] for r in won)), "ratio"),
    }


def _workload_metrics(fpsat, tracer: Tracer, loop, races) -> dict:
    stage = {name: _per_query(tracer, name) for name in (
        "parse_script", "expand_definitions", "simplify", "push_negations",
        "to_cnf", "compile_objective")}
    problems = loop.round_problems
    return {
        "parser.parse_s": (_median(stage["parse_script"].values()), "s"),
        "parser.expand_s": (_median(stage["expand_definitions"].values()), "s"),
        "normalizer.simplify_s": (_median(stage["simplify"].values()), "s"),
        "normalizer.nnf_s": (_median(stage["push_negations"].values()), "s"),
        "normalizer.cnf_s": (_median(stage["to_cnf"].values()), "s"),
        "normalizer.clauses": (sum(len(p.clauses) for _, p in problems), "count"),
        "objective.compile_s": (_median(stage["compile_objective"].values()), "s"),
        "objective.tape_ops": (sum(tape_ops(fpsat, p.program) for _, p in problems),
                               "count"),
        # wall time per thread: a thread preempted inside evaluate is
        # charged to evaluate, so this is close to the CPU share
        "objective.race_share": (sum(r["eval_wall"] for r in races)
                                 / sum(r["min_wall"] for r in races), "ratio"),
        "portfolio.race_s": (_median(r["race_s"] for r in races), "s"),
        "portfolio.first_eval_ms": (_median(r["first_eval_ms"] for r in races
                                            if r["first_eval_ms"] is not None), "ms"),
        "trace.verdict_s.p50": (_median(r.verdict_s for r in loop.records), "s"),
    }


# --------------------------------------------------------------------------
# Phase 2: layer probes at fixed work
# --------------------------------------------------------------------------


def _timed_objective(program):
    """`program.evaluate` plus a running total of the time spent in it."""
    spent = [0.0]
    evaluate = program.evaluate

    def f(x):
        t0 = time.perf_counter()
        v = evaluate(x)
        spent[0] += time.perf_counter() - t0
        return v

    return f, spent


def _probe_objective(problems, seed, host) -> float:
    rng = np.random.default_rng(seed)
    calls, spent = 0, 0.0
    for p in problems:
        host.sample()
        points = rng.uniform(-4.0, 4.0, size=(PROBE_POINTS, p.program.dimension))
        evaluate = p.program.evaluate
        t0 = time.perf_counter()
        for x in points:
            evaluate(x)
        spent += time.perf_counter() - t0
        calls += len(points)
    return calls / spent


def _probe_optimizers(fpsat, problems, seed, host) -> dict:
    minimizers = {"bh": fpsat.basin_hopping, "crs2": fpsat.crs2_minimize,
                  "isres": fpsat.isres_minimize}
    cfg = fpsat.OptimizerConfig(max_evals=PROBE_OPT_EVALS)
    out = {}
    for alg, minimize in minimizers.items():
        evals, wall, in_eval = 0, 0.0, 0.0
        for i, p in enumerate(problems):
            host.sample()
            rng = fpsat.Xoshiro256Plus(fpsat.derive_seed(seed, i))
            x0 = fpsat.random_start(p.program.dimension, rng)
            f, spent = _timed_objective(p.program)
            t0 = time.perf_counter()
            result = minimize(f, x0, cfg, rng)
            wall += time.perf_counter() - t0
            evals += result.evals_used
            in_eval += spent[0]
        out[f"optimizers.{alg}.evals_per_s"] = (evals / wall, "1/s")
        out[f"optimizers.{alg}.overhead_us"] = ((wall - in_eval) / evals * 1e6, "us")
    return out


def _probe_portfolio(fpsat, problems, seed, host) -> dict:
    mix = ("bh", "crs2", "isres")
    out = {}
    for k in (1, 2, 3):
        evals, wall = 0, 0.0
        for i, p in enumerate(problems):
            host.sample()
            config = fpsat.PortfolioConfig(
                instances=[(alg, 1) for alg in mix[:k]],
                max_evals=PROBE_RACE_EVALS, seed=seed + i)
            t0 = time.perf_counter()
            outcome = fpsat.solve(p.formula, p.program, config)
            wall += time.perf_counter() - t0
            evals += outcome.total_evals
        out[f"portfolio.evals_per_s.x{k}"] = (evals / wall, "1/s")
    return out


def _probe_harness(fpsat, seed) -> float:
    from fpsat.harness import corpus_dir, run_bench

    config = fpsat.PortfolioConfig(max_evals=PROBE_BENCH_EVALS, seed=seed)
    t0 = time.perf_counter()
    report = run_bench(corpus_dir(), config, stream=io.StringIO())
    wall = time.perf_counter() - t0
    if report.sat_count != 8 or report.unknown_count != 4:
        raise RuntimeError(f"corpus bench: {report.sat_count} sat, "
                           f"{report.unknown_count} unknown; expected 8 and 4")
    return wall


# --------------------------------------------------------------------------


def traced_run(fpsat, queries, args, run_loop, host, out_dir):
    tracer = Tracer()

    def traced_loop(prefix, qs, seconds):
        def on_query(label):
            tracer.query = prefix + label

        tracer.install(fpsat)
        try:
            return run_loop(fpsat, qs, args.seed, seconds,
                            tracer.wrap("build_problem", fpsat.build_problem),
                            tracer.wrap("solve", fpsat.solve, root=True),
                            lambda _elapsed: host.maybe_sample(), on_query)
        finally:
            tracer.uninstall()

    loop = traced_loop("w", queries, args.seconds * TRACED_SHARE)
    races = _races(tracer)
    metrics = _workload_metrics(fpsat, tracer, loop, races)
    if not any(r["winner_evals"] is not None for r in races):
        traced_loop("c", workloads.corpus_sat_queries(), 0.0)
        races = [r for r in _races(tracer) if r["query"].startswith("c")]
    metrics.update(_sat_path(tracer, races))

    burn = workloads.generate("budget-burn", args.seed)
    problems = [fpsat.build_problem(burn[i].text) for i in PROBE_QUERIES]
    metrics["objective.evals_per_s"] = (_probe_objective(problems, args.seed, host),
                                        "1/s")
    metrics.update(_probe_optimizers(fpsat, problems, args.seed, host))
    metrics.update(_probe_portfolio(fpsat, problems, args.seed, host))
    metrics["harness.corpus_bench_s"] = (_probe_harness(fpsat, args.seed), "s")

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(path)
    print(f"self time by span name (spans in {path}):")
    for name, t in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {name:26s} {t:10.4f} s")
    return loop, metrics
