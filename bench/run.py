"""fpsat benchmark: one seeded workload, checked verdicts, one JSON line.

    python3 bench/run.py --workload race-sat --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports fpsat from `src/`.
The program receives only generated SMT-LIB2 text; every verdict is
checked apart from fpsat (see workloads.py and check() below). Queries
run in a closed loop, one at a time, each under the default three-thread
BH+CRS2+ISRES race. The loop repeats whole rounds of the workload's
queries until `--seconds` have passed.

With `--trace 0` the last line of stdout holds the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run (see
layers.py), and the spans are written to bench/out/. `--dump-inputs DIR`
writes the generated queries as .smt2 files and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WARMUP_FILE = SRC / "fpsat" / "corpus" / "listing1.smt2"
SETUP_SAMPLES = 15

# Import fpsat and solve one corpus file, in a fresh interpreter: what a
# user pays before the first query. Timed from inside, so interpreter
# start-up is not counted.
_SETUP_CHILD = f"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {str(SRC)!r})
import fpsat
p = fpsat.load_problem({str(WARMUP_FILE)!r})
out = fpsat.solve(p.formula, p.program, fpsat.PortfolioConfig(seed=1))
if out.verdict != "sat":
    sys.exit("warm-up solve answered " + out.verdict)
print(time.perf_counter() - t0)
"""


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs so far, from /proc/stat:
    time spent running guest work, and time the hypervisor kept runnable
    CPUs from running. (0, 0) where /proc/stat is not available."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            f = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = f
    return user + nice + system + irq + softirq, steal


class HostSpeed:
    """The host's speed over one run.

    This 2-core host is shared: over minutes the same loop runs up to 1.4
    times faster or slower (README.md, noise floor), and every timing of
    the benchmark moves with it. Two things are measured:

    - CPU speed: short samples of fixed pure-Python work, taken between
      queries and timed in this thread's CPU time, so that neither waits
      for the interpreter lock held by other threads of the process nor
      time stolen by the hypervisor (on kernels with paravirtual steal
      accounting) lengthen them; their median ignores outliers;
    - pauses: the share of CPU time the hypervisor stole over the run
      (`steal` / (`steal` + busy) in /proc/stat), which reached 10% of
      all CPU time over some ten-minute stretches.

    Reported times are scaled by NOMINAL_S / (median sample time) and by
    (1 - stolen share), i.e. to an unpaused host on which one sample takes
    NOMINAL_S; rates by the inverse. The raw figures are printed on the
    line before the result.
    """

    NOMINAL_S = 0.0015  # about this host's median, in quiet periods
    INTERVAL_S = 0.2
    ITERATIONS = 20_000

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0
        self._ticks = cpu_ticks()

    def sample(self) -> None:
        t0 = time.thread_time()
        s = 0
        for i in range(self.ITERATIONS):
            s += i * i
        self.samples.append(time.thread_time() - t0)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def stolen_share(self) -> float:
        busy, stolen = (b - a for a, b in zip(self._ticks, cpu_ticks()))
        return stolen / (busy + stolen) if busy + stolen > 0 else 0.0

    def factor(self) -> float:
        return (self.NOMINAL_S / statistics.median(self.samples)
                * (1.0 - self.stolen_share()))


def scaled(metrics: dict, factor: float) -> dict:
    """Times multiplied by `factor`, rates divided; counts, ratios and
    memory unchanged."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms", "us"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        out[name] = (value, unit)
    return out


def setup_sample() -> float:
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_fpsat():
    """fpsat from this checkout's src/, never from anywhere else."""
    if not (SRC / "fpsat" / "__init__.py").is_file():
        raise SystemExit(f"fpsat sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fpsat

    if Path(fpsat.__file__).resolve().parent != (SRC / "fpsat").resolve():
        raise SystemExit(f"imported fpsat from {fpsat.__file__}, not {SRC}")
    return fpsat


# --------------------------------------------------------------------------
# One query
# --------------------------------------------------------------------------


@dataclass
class Record:
    verdict_s: float  # text -> verdict, frontend included
    solve_s: float
    evals: int  # summed over the race's instances


def query_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (1 << 32)


def check(query, outcome, eval_count) -> str | None:
    """None if the outcome is right; otherwise why not."""
    if query.expect == "sat":
        if outcome.verdict != "sat":
            return f"expected sat, got {outcome.verdict} ({outcome.unknown_reason})"
        binding = outcome.model.bindings()
        if not query.accepts(binding):
            return f"model {binding} fails the independent check"
        return None
    # infeasible by construction: properties of the method
    if outcome.verdict != "unknown":
        return f"infeasible query answered {outcome.verdict}"
    if outcome.unknown_reason != "budget-exhausted":
        return f"ended by {outcome.unknown_reason}, not budget-exhausted"
    for s in outcome.stats:
        if s.evals != query.max_evals:
            return f"{s.algorithm} used {s.evals} of {query.max_evals} evaluations"
        if not s.best_value >= 1.0:
            return f"{s.algorithm} best value {s.best_value} < 1"
    if eval_count != outcome.total_evals:
        return f"eval_count {eval_count} != summed instance evals {outcome.total_evals}"
    return None


def run_query(fpsat, build, solve, query, seed, index):
    """Returns (Record, problem, failure reason or None, wrong answer or None)."""
    config = fpsat.PortfolioConfig(max_evals=query.max_evals,
                                   seed=query_seed(seed, index))
    t0 = time.perf_counter()
    try:
        problem = build(query.text)
        t1 = time.perf_counter()
        outcome = solve(problem.formula, problem.program, config)
    except Exception as exc:  # counted as a failed query, reported below
        return None, None, f"{type(exc).__name__}: {exc}", None
    t2 = time.perf_counter()
    wrong = check(query, outcome, problem.program.eval_count)
    failed = None
    if wrong is not None and query.expect == "sat" and outcome.verdict == "unknown":
        failed, wrong = wrong, None  # undecided, not a wrong answer
    return Record(t2 - t0, t2 - t1, outcome.total_evals), problem, failed, wrong


# --------------------------------------------------------------------------
# The measured loop
# --------------------------------------------------------------------------


@dataclass
class LoopResult:
    records: list
    attempted: int
    failed: int
    wrong: list
    wall: float
    rounds: list  # per round: (queries completed, wall s, evals, solve s)
    round_problems: list  # (query, problem) of the first round, if kept


def run_loop(fpsat, queries, seed, seconds, build, solve, between,
             on_query=None) -> LoopResult:
    """Whole rounds of `queries` until `seconds` have passed (at least one).
    `between(elapsed)` is called before each query, for host-speed and
    set-up samples; the time spent in it is not part of the loop's wall
    time, nor of `elapsed`, the loop's own seconds so far. `on_query(label)` is called
    before each query; a traced run uses it to tag spans and to keep the
    first round's problems."""
    records, wrong, rounds, round_problems = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    paused = 0.0  # seconds spent in between()
    first = True
    while first or time.perf_counter() - t_start - paused < seconds:
        t_round, paused_round, done = time.perf_counter(), paused, len(records)
        for index, query in enumerate(queries):
            attempted += 1
            t0 = time.perf_counter()
            between(t0 - t_start - paused)
            paused += time.perf_counter() - t0
            if on_query is not None:
                on_query(f"{attempted}:{query.name}")
            record, problem, fail, bad = run_query(fpsat, build, solve, query,
                                                   seed, index)
            if fail is not None:
                failed += 1
                print(f"FAILED {query.name}: {fail}", file=sys.stderr)
                continue
            if bad is not None:
                wrong.append(f"{query.name}: {bad}")
                print(f"WRONG {query.name}: {bad}", file=sys.stderr)
            records.append(record)
            if first and on_query is not None:
                round_problems.append((query, problem))
        first = False
        batch = records[done:]
        rounds.append((len(batch),
                       time.perf_counter() - t_round - (paused - paused_round),
                       sum(r.evals for r in batch), sum(r.solve_s for r in batch)))
    wall = time.perf_counter() - t_start - paused
    return LoopResult(records, attempted, failed, wrong, wall, rounds,
                      round_problems)


def end_to_end(loop: LoopResult, setup: list[float]) -> dict:
    """The two rates are taken per round (every round runs the same
    queries) and the median over rounds is reported, so that a burst of
    host load in one round does not move them."""
    _, p50, p75 = statistics.quantiles([r.verdict_s for r in loop.records], n=4,
                                       method="inclusive")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s.p50": (p50, "s"),
        "verdict_s.p75": (p75, "s"),
        "queries_per_s": (statistics.median(n / wall for n, wall, _, _ in loop.rounds),
                          "1/s"),
        "evals_per_s": (statistics.median(e / s for _, _, e, s in loop.rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.GENERATORS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-inputs", metavar="DIR",
                    help="write the generated queries as .smt2 files and exit")
    args = ap.parse_args(argv)

    fpsat = import_fpsat()
    queries = workloads.generate(args.workload, args.seed)
    if args.dump_inputs:
        target = Path(args.dump_inputs) / args.workload
        target.mkdir(parents=True, exist_ok=True)
        for q in queries:
            (target / (q.name.replace("/", "-") + ".smt2")).write_text(q.text)
        print(f"wrote {len(queries)} queries to {target}")
        return 0

    host = HostSpeed()
    # the same warm-up as a set-up sample, in this process and untimed:
    # lazy set-up is paid here
    warm = fpsat.load_problem(WARMUP_FILE)
    fpsat.solve(warm.formula, warm.program, fpsat.PortfolioConfig(seed=1))

    if args.trace:
        import layers

        loop, raw = layers.traced_run(fpsat, queries, args, run_loop, host, OUT)
    else:
        # set-up samples are spread evenly over the measured loop, so that
        # they see the same stretch of host speed as the queries
        setup = []

        def between(elapsed):
            host.maybe_sample()
            if len(setup) < SETUP_SAMPLES and elapsed >= (
                    len(setup) * args.seconds / SETUP_SAMPLES):
                host.sample()
                setup.append(setup_sample())

        loop = run_loop(fpsat, queries, args.seed, args.seconds,
                        fpsat.build_problem, fpsat.solve, between)
        while len(setup) < SETUP_SAMPLES:  # a loop shorter than planned
            host.sample()
            setup.append(setup_sample())
        raw = end_to_end(loop, setup)
    factor = host.factor()
    metrics = scaled(raw, factor)

    print(f"{'metric':34s} {'reported':>14s} {'raw':>14s}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {raw[name][0]:14.6g} {unit}")
    print(f"host speed: {len(host.samples)} samples, median "
          f"{statistics.median(host.samples) * 1e3:.4f} ms, stolen share "
          f"{host.stolen_share():.4f}, factor {factor:.4f}")
    print(f"queries: {loop.attempted} attempted, {loop.failed} failed, "
          f"{len(loop.wrong)} wrong, over {loop.wall:.1f} s "
          f"({len(queries)} per round)")
    print("raw: " + json.dumps({name: value for name, (value, _) in raw.items()}))
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
