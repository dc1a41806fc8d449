"""Self-test of the benchmark (about 30 s):

    python3 -m pytest -q bench/test_bench.py

Checks the generators and the independent evaluator, and that the
metric names printed match BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import fpsat  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            1.4e-45, 3.4028234663852886e38, -1.7976931348623157e308, 1.0, -1.0)


def _points(rng: random.Random, names, count):
    """Seeded points: every other one made of special values, the rest
    uniform over a scale from 1e-3 to 1e6."""
    for k in range(count):
        if k % 2 == 0:
            yield {n: rng.choice(SPECIALS) for n in names}
        else:
            scale = 10.0 ** rng.randint(-3, 6)
            yield {n: rng.uniform(-scale, scale) for n in names}


def _oracle(query):
    script = fpsat.parse_script(query.text)
    formula, varmap = fpsat.expand_definitions(script)
    return formula, [n for n, _ in varmap]


@pytest.mark.parametrize("workload", ["race-sat", "shared-dag"])
def test_planted_solutions_hold(workload):
    for seed in SEEDS:
        for q in workloads.generate(workload, seed):
            if q.planted is None:
                continue
            assert q.accepts(q.planted), (seed, q.name)
            if seed == SEEDS[0]:
                formula, _ = _oracle(q)
                assert fpsat.semantic_eval(formula, q.planted), q.name


def test_evaluator_agrees_with_oracle_on_sampled_points():
    """The two evaluators share no code; they must agree everywhere."""
    rng = random.Random(7)
    queries = (workloads.generate("race-sat", 1)[:40]
               + workloads.generate("budget-burn", 1)[:36])
    for q in queries:
        formula, names = _oracle(q)
        for point in _points(rng, names, 60):
            assert q.accepts(point) == fpsat.semantic_eval(formula, point), (q.name, point)


def test_infeasible_families_have_no_solution():
    rng = random.Random(11)
    for seed in SEEDS:
        for q in workloads.generate("budget-burn", seed):
            if q.formula is None:  # corpus files: infeasible by their comments
                continue
            _, names = _oracle(q)
            for point in _points(rng, names, 300):
                assert not q.accepts(point), (seed, q.name, point)


def test_corpus_predicates():
    accept = {
        "branching.smt2": ({"x": -3.5}, {"x": 3.0}),
        "conjunction2d.smt2": ({"x": 0.25, "y": 0.75}, {"x": 0.5, "y": 0.75}),
        "disjunction.smt2": ({"x": 1.5}, {"x": 1.0}),
        "equality32.smt2": ({"x": 2.0}, {"x": float(np.nextafter(np.float32(2), 3))}),
        "listing1.smt2": ({"x": -2.0}, {"x": -1.0}),
        "mixed_width.smt2": ({"xf": -1.0, "yd": 0.0}, {"xf": -1.0, "yd": 0.5}),
        "negated_guard.smt2": ({"x": math.nan}, {"x": 0.5}),
        "quadratic64.smt2": ({"x": -2.0}, {"x": 1.9}),
    }
    queries = {q.name.split("/")[1]: q for q in workloads.corpus_sat_queries()}
    assert set(queries) == set(accept)
    for name, (good, bad) in accept.items():
        assert queries[name].accepts(good), name
        assert not queries[name].accepts(bad), name


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # budget-burn decides nothing, so its traced run also covers the
    # corpus round that stands in for the sat path
    for workload, trace, key in (("race-sat", 0, "end_to_end"),
                                 ("budget-burn", 1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "race-sat", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
