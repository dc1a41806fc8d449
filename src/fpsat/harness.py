"""Benchmark runner, solve driver, and the combined race against an
external SMT solver process.

The portfolio alone can never answer unsat; an unsat verdict only ever
comes from the external solver in combined mode.
"""

from __future__ import annotations

import math
import sys
import threading
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from . import kernels, load_problem
from .errors import FpsatError
from .normalizer import clause_set_to_sexpr
from .optimizers import StopFlag
from .portfolio import ALGORITHMS, PortfolioConfig, SolveOutcome, solve
from .rng import derive_seed

__all__ = [
    "SolveReport",
    "BenchRecord",
    "BenchReport",
    "CombinedOutcome",
    "run_solve",
    "run_bench",
    "run_combined",
    "parse_external_verdict",
    "corpus_dir",
]

DEFAULT_FILE_TIMEOUT = 600.0

CSV_COLUMNS = ("file", "verdict", "wall_time_s", "winner", "evals")


def corpus_dir() -> Path:
    """Location of the bundled mini-corpus of .smt2 instances."""
    return Path(__file__).parent / "corpus"


# --------------------------------------------------------------------------
# Single-file solving
# --------------------------------------------------------------------------


@dataclass
class SolveReport:
    verdict: str  # "sat" | "unknown" | "error"
    exit_code: int  # 0 sat, 1 unknown, 2 error
    outcome: SolveOutcome | None
    message: str | None = None

    def stats_json(self) -> str:
        import json  # only `--stats-json` writes JSON

        if self.outcome is None:
            return json.dumps({"verdict": self.verdict, "message": self.message,
                               "kernels": kernels.status()})
        o = self.outcome
        return json.dumps({
            "verdict": o.verdict,
            "wall_time_s": o.wall_time,
            "evals": o.total_evals,
            "winner": o.winner[0] if o.winner else None,
            "unknown_reason": o.unknown_reason,
            "instances": [
                {
                    "algorithm": s.algorithm,
                    "index": s.index,
                    "evals": s.evals,
                    # keep the payload strict JSON: no Infinity token
                    "best_value": s.best_value
                    if math.isfinite(s.best_value) else None,
                    "wall_time_s": s.wall_time,
                    "evals_per_s": s.evals / s.wall_time if s.wall_time > 0 else None,
                    "terminated_by": s.terminated_by,
                }
                for s in o.stats
            ],
            "kernels": kernels.status(),
        })


def run_solve(path, config: PortfolioConfig | None = None, *,
              show_model: bool = False, stats_json: bool = False,
              dump_cnf: bool = False, stream=None) -> SolveReport:
    """Solve one file; prints the verdict on the first stdout line.

    Exit codes in the report: 0 sat, 1 unknown, 2 error (parse/sort
    problems carry a positioned diagnostic; a crashed race instance is
    named).
    """
    out = stream if stream is not None else sys.stdout
    try:
        problem = load_problem(path)
        outcome = solve(problem.formula, problem.program, config)
    except (FpsatError, OSError) as exc:
        print("error", file=out)
        print(str(exc), file=sys.stderr if stream is None else out)
        return SolveReport("error", 2, None, str(exc))

    print(outcome.verdict, file=out)
    if outcome.verdict == "sat" and show_model:
        print(outcome.model.smt2_block(), file=out)
    if dump_cnf:
        print(clause_set_to_sexpr(problem.clauses), file=out, end="")
    report = SolveReport(outcome.verdict, 0 if outcome.verdict == "sat" else 1,
                         outcome)
    if stats_json:
        print(report.stats_json(), file=out)
    return report


# --------------------------------------------------------------------------
# Benchmark runner
# --------------------------------------------------------------------------


@dataclass
class BenchRecord:
    file: str
    verdict: str  # SAT | UNKNOWN | TIMEOUT | ERROR
    wall_time: float
    winner: str | None
    evals: int
    message: str | None = None


@dataclass
class BenchReport:
    records: list[BenchRecord]
    config_label: str
    repeat: int

    @property
    def sat_count(self) -> int:
        return sum(r.verdict == "SAT" for r in self.records)

    @property
    def unknown_count(self) -> int:
        return sum(r.verdict == "UNKNOWN" for r in self.records)

    @property
    def timeout_count(self) -> int:
        return sum(r.verdict == "TIMEOUT" for r in self.records)

    @property
    def error_count(self) -> int:
        return sum(r.verdict == "ERROR" for r in self.records)

    @property
    def average_sat_time(self) -> float | None:
        """Total wall time over SAT files divided by their count."""
        sat = [r.wall_time for r in self.records if r.verdict == "SAT"]
        if not sat:
            return None
        return sum(sat) / len(sat)

    def first_finder_shares(self) -> dict[str, float] | None:
        """Percentage of SAT results each algorithm found first."""
        winners = [r.winner for r in self.records if r.verdict == "SAT" and r.winner]
        if not winners:
            return None
        share = {}
        for alg in ALGORITHMS:
            share[alg] = 100.0 * sum(w == alg for w in winners) / len(winners)
        return share

    def summary_table(self) -> str:
        avg = self.average_sat_time
        avg_text = f"{avg:.3f}" if avg is not None else "-"
        header = f"{'':<28} {'SAT':>5} {'UNKNOWN':>8} {'TIMEOUT':>8} " \
                 f"{'ERROR':>6} {'avg SAT s':>10}"
        row = f"{self.config_label:<28} {self.sat_count:>5} " \
              f"{self.unknown_count:>8} {self.timeout_count:>8} " \
              f"{self.error_count:>6} {avg_text:>10}"
        return header + "\n" + row

    def first_finder_table(self) -> str:
        shares = self.first_finder_shares()
        if shares is None:
            return "no SAT results; no first-finder shares"
        header = f"{'':<28} {'BH':>7} {'CRS2':>7} {'ISRES':>7}"
        row = f"{self.config_label:<28} " \
              f"{shares['bh']:>6.1f}% {shares['crs2']:>6.1f}% {shares['isres']:>6.1f}%"
        return header + "\n" + row

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow([
                    r.file, r.verdict, f"{r.wall_time:.6f}",
                    r.winner or "", r.evals,
                ])


def _config_label(config: PortfolioConfig) -> str:
    parts = [f"{name.upper()}x{count}" for name, count in config.instances if count]
    return ", ".join(parts)


def run_bench(directory, config: PortfolioConfig | None = None, *,
              timeout: float = DEFAULT_FILE_TIMEOUT, repeat: int = 1,
              csv_path=None, stream=None) -> BenchReport:
    """Run every .smt2 file in a directory; optionally repeat with fresh
    seeds to accumulate first-finder statistics. `repeat` < 1 is a
    ValueError before any file is read."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    out = stream if stream is not None else sys.stdout
    if config is None:
        config = PortfolioConfig()
    files = sorted(Path(directory).glob("*.smt2"))
    if not files:
        warnings.warn(f"no .smt2 files in {directory}")

    records: list[BenchRecord] = []
    base_seed = config.seed
    for rep in range(repeat):
        rep_config = replace(
            config, wall_timeout=timeout,
            seed=base_seed if rep == 0 else derive_seed(base_seed, 4096 + rep),
        )
        for path in files:
            records.append(_bench_one(path, rep_config))
            r = records[-1]
            print(f"{r.file:<28} {r.verdict:<8} {r.wall_time:8.3f}s "
                  f"{(r.winner or '-'):<6} {r.evals}", file=out)

    report = BenchReport(records, _config_label(config), repeat)
    print("", file=out)
    print(report.summary_table(), file=out)
    if repeat > 1:
        print("", file=out)
        print("first-finder shares over SAT runs:", file=out)
        print(report.first_finder_table(), file=out)
    if csv_path:
        report.write_csv(csv_path)
    return report


def _bench_one(path: Path, config: PortfolioConfig) -> BenchRecord:
    """One file under `config.wall_timeout`, which counts from before the
    frontend: `solve` gets what the frontend left of it, and a file whose
    frontend used it all is a TIMEOUT without a race."""
    t0 = time.perf_counter()
    try:
        problem = load_problem(path)
        if config.wall_timeout is not None:
            left = t0 + config.wall_timeout - time.perf_counter()
            if left <= 0:
                return BenchRecord(path.name, "TIMEOUT", time.perf_counter() - t0, None, 0)
            config = replace(config, wall_timeout=left)
        outcome = solve(problem.formula, problem.program, config)
    except (FpsatError, OSError) as exc:
        return BenchRecord(path.name, "ERROR", time.perf_counter() - t0,
                           None, 0, str(exc))
    wall = time.perf_counter() - t0
    if outcome.verdict == "sat":
        return BenchRecord(path.name, "SAT", wall,
                           outcome.winner[0], outcome.total_evals)
    verdict = "TIMEOUT" if outcome.unknown_reason == "wall-timeout" else "UNKNOWN"
    return BenchRecord(path.name, verdict, wall, None, outcome.total_evals)


# --------------------------------------------------------------------------
# Combined race with an external solver
# --------------------------------------------------------------------------


@dataclass
class CombinedOutcome:
    verdict: str  # "sat" | "unsat" | "unknown" | "timeout"
    source: str | None  # "portfolio" | "external" | None (timeout)
    wall_time: float
    model_block: str | None = None
    note: str | None = None


def parse_external_verdict(text: str) -> str:
    """First line matching sat/unsat/unknown; anything else is unknown."""
    for line in text.splitlines():
        word = line.strip().lower()
        if word in ("sat", "unsat", "unknown"):
            return word
        if word:
            break
    warnings.warn(f"unrecognized external solver output {text[:80]!r}")
    return "unknown"


def run_combined(path, external_cmd: str,
                 config: PortfolioConfig | None = None, *,
                 timeout: float = DEFAULT_FILE_TIMEOUT) -> CombinedOutcome:
    """Race the portfolio against an external solver process on one file.

    The portfolio runs in this thread under `solve`'s deadline and a stop
    flag, and one watcher thread waits on the external process and sets
    the flag on a definitive external verdict. First
    definitive verdict wins; a portfolio unknown waits for the external
    solver up to the timeout; an external crash degrades to the
    portfolio-only result. A crashed instance raises `InstanceCrashError`.
    """
    import shlex
    import signal
    import subprocess

    t0 = time.perf_counter()
    problem = load_problem(path)
    if config is None:
        config = PortfolioConfig()
    deadline = t0 + timeout
    stop = StopFlag()  # set by the watcher; native runs poll it
    external = (None, None)  # (verdict, failure), set once

    def watch():
        nonlocal external
        stdout, _ = proc.communicate()
        code = proc.returncode
        if code < 0:
            # killed by a signal: we only kill after the race is decided
            try:
                name = signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            external = (None, f"killed by {name}")
        elif code not in (0, 10, 20):
            # 0 plus the SAT-competition codes 10/20 count as clean exits
            external = (None, f"exit code {code}")
        else:
            verdict = parse_external_verdict(stdout or "")
            external = (verdict, None)
            if verdict in ("sat", "unsat"):
                stop.set()

    argv = shlex.split(external_cmd) + [str(path)]
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
    except OSError as exc:
        proc = None
        external = (None, str(exc))
    else:
        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()

    try:
        outcome = solve(
            problem.formula, problem.program,
            replace(config,
                    wall_timeout=max(0.0, deadline - time.perf_counter())),
            stop=stop,
        )
        if outcome.verdict != "sat" and proc is not None:
            watcher.join(max(0.0, deadline - time.perf_counter()))
        verdict, failure = external
        note = (f"external solver failed ({failure}); portfolio-only result"
                if failure else None)
        elapsed = time.perf_counter() - t0
        if outcome.verdict == "sat":
            return CombinedOutcome("sat", "portfolio", elapsed,
                                   model_block=outcome.model.smt2_block(),
                                   note=note)
        if verdict in ("sat", "unsat"):
            return CombinedOutcome(verdict, "external", elapsed)
        if outcome.unknown_reason == "wall-timeout" or not (verdict or failure):
            return CombinedOutcome("timeout", None, elapsed, note=note)
        return CombinedOutcome("unknown", "external" if verdict else "portfolio",
                               elapsed, note=note)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
