"""Race N optimizer instances on one objective; first exact zero wins.

Shared state is limited to the immutable program, a stop event, a
first-writer result slot, and per-instance counters. A winning zero is
claimed at the evaluation that produced it; every other instance then
performs at most one further evaluation, or one batch of them, before
observing the stop token.
Verdicts are only ever SAT (with a verified model) or UNKNOWN.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceCrashError, VerificationFailureError
from .fp import FPValue, Sort
from .objective import ObjectiveProgram, semantic_eval
from .optimizers import (
    OptimizerConfig,
    _bounds,
    _budget,
    basin_hopping,
    crs2_minimize,
    isres_minimize,
)
from .rng import Xoshiro256Plus, derive_seed
from .terms import Term

__all__ = [
    "PortfolioConfig",
    "Model",
    "InstanceStats",
    "SolveOutcome",
    "random_start",
    "solve",
    "extract_model",
    "verify_model",
]

_MINIMIZERS = {
    "bh": basin_hopping,
    "crs2": crs2_minimize,
    "isres": isres_minimize,
}
ALGORITHMS = tuple(_MINIMIZERS)


@dataclass
class PortfolioConfig:
    """Instance mix and budgets for one solving race."""

    instances: list[tuple[str, int]] = field(
        default_factory=lambda: [("bh", 1), ("crs2", 1), ("isres", 1)]
    )
    max_evals: int = 1_000_000  # per instance
    seed: int = 1
    start_range: tuple = (-0.5, 0.5)
    wall_timeout: float | None = None
    bounds: tuple = (-1e9, 1e9)  # search box (lo, hi) of the population methods

    def expanded(self) -> list[str]:
        out = []
        for name, count in self.instances:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
            if count < 0:
                raise ValueError(f"instance count of {name} must be >= 0")
            out.extend([name] * count)
        if not out:
            raise ValueError("portfolio needs at least one instance")
        return out


@dataclass
class Model:
    """A satisfying assignment: per-variable exact values at declared width."""

    entries: list[tuple[str, Sort, FPValue]]

    def bindings(self) -> dict[str, float]:
        return {name: value.to_float() for name, _, value in self.entries}

    def vector(self) -> np.ndarray:
        return np.array([value.to_float() for _, _, value in self.entries])

    def smt2_block(self) -> str:
        lines = ["("]
        for name, sort, value in self.entries:
            lines.append(
                f"  (define-fun {name} () (_ FloatingPoint {sort.eb} {sort.sb}) "
                f"((_ to_fp {sort.eb} {sort.sb}) {value.hex_literal()}))"
            )
        lines.append(")")
        return "\n".join(lines)


@dataclass
class InstanceStats:
    algorithm: str
    index: int
    evals: int
    best_value: float
    wall_time: float
    terminated_by: str


@dataclass
class SolveOutcome:
    verdict: str  # "sat" | "unknown"
    model: Model | None
    winner: tuple[str, int] | None  # (algorithm, instance index)
    stats: list[InstanceStats]
    unknown_reason: str | None
    wall_time: float

    @property
    def total_evals(self) -> int:
        return sum(s.evals for s in self.stats)


def random_start(dim: int, rng: Xoshiro256Plus, rng_range=(-0.5, 0.5)) -> np.ndarray:
    """I.i.d. uniform start vector inside the start range."""
    lo, hi = rng_range
    return np.array([rng.uniform(lo, hi) for _ in range(dim)])


def extract_model(x, varmap: list[tuple[str, Sort]]) -> Model:
    """Assignment vector to Model: binary64 slots bit-exact, binary32 narrowed."""
    entries = []
    for (name, sort), v in zip(varmap, x, strict=True):
        entries.append((name, sort, FPValue.from_float(float(v), sort.width)))
    return Model(entries)


def verify_model(formula: Term, model: Model) -> bool:
    """Ground-truth check of a model against the original formula."""
    return semantic_eval(formula, model.bindings())


def solve(formula: Term, program: ObjectiveProgram,
          config: PortfolioConfig | None = None,
          stop: threading.Event | None = None) -> SolveOutcome:
    """Race the configured instances; SAT on the first verified zero.

    A zero-dimensional program is decided by one evaluation instead of a
    race, and its zero takes the same path to a verified model. An
    externally supplied `stop` event cancels the whole race (combined
    mode uses this). Raises ValueError on an invalid configuration (an
    unknown algorithm or a negative count, a non-finite start range, a
    budget that is not an integer >= 1, bounds that are not finite with
    lo < hi) before anything is evaluated; VerificationFailureError if a
    zero-valued point fails the semantic check (that would be an encoding
    bug, never hidden), and InstanceCrashError, naming the instance, if
    an instance raised.
    """
    if config is None:
        config = PortfolioConfig()
    algs = config.expanded()
    if not np.isfinite(np.asarray(config.start_range, dtype=float)).all():
        raise ValueError("start_range must be finite")
    opt_cfg = OptimizerConfig(max_evals=_budget(config.max_evals),
                              bounds=_bounds(config.bounds))
    t_start = time.perf_counter()

    if program.dimension == 0:
        value = program.evaluate(())
        winner = (0, "direct", ()) if value == 0.0 else None
        stats = [InstanceStats("direct", 0, 1, value, 0.0, "single-evaluation")]
        reason = "constant-objective-nonzero"
    else:
        winner, stats, reason = _race(program, algs, config, opt_cfg, stop, t_start)
    elapsed = time.perf_counter() - t_start

    if winner is None:
        return SolveOutcome("unknown", None, None, stats, reason, elapsed)
    idx, alg, x = winner
    model = extract_model(x, program.varmap)
    if not verify_model(formula, model):
        raise VerificationFailureError(
            f"zero-valued point {list(map(float, x))} fails semantic "
            f"evaluation; the objective encoding is broken"
        )
    return SolveOutcome("sat", model, (alg, idx), stats, None, elapsed)


def _race(program, algs, config, opt_cfg, stop, t_start):
    """One thread per instance; returns the winner (instance index,
    algorithm, zero point) or None, the instances' stats, and why the race
    ended without a winner."""
    if stop is None:
        stop = threading.Event()
    claim_lock = threading.Lock()
    winner_slot: list = [None]
    dim = program.dimension
    f_many = getattr(program, "evaluate_many", None)
    stats: list = [None] * len(algs)  # each instance fills its own entry
    crashes: list = []  # (instance index, algorithm, exception)

    def claim(idx: int, alg: str, x: np.ndarray) -> None:
        with claim_lock:
            if winner_slot[0] is None:
                winner_slot[0] = (idx, alg, x)
        stop.set()

    def worker(idx: int, alg: str) -> None:
        t0 = time.perf_counter()
        try:
            rng = Xoshiro256Plus(derive_seed(config.seed, idx))
            x0 = random_start(dim, rng, config.start_range)
            minimize = _MINIMIZERS[alg]
            outcome = minimize(
                program.evaluate, x0, opt_cfg, rng, stop=stop,
                on_zero=lambda x, idx=idx, alg=alg: claim(idx, alg, x),
                f_many=f_many,
            )
            stats[idx] = InstanceStats(
                alg, idx, outcome.evals_used, outcome.best_value,
                time.perf_counter() - t0, outcome.terminated_by.value,
            )
        except Exception as exc:  # raised after join
            crashes.append((idx, alg, exc))
            stop.set()  # a crashed instance ends the race

    threads = [
        threading.Thread(target=worker, args=(i, alg), daemon=True)
        for i, alg in enumerate(algs)
    ]
    for t in threads:
        t.start()

    timed_out = False
    if config.wall_timeout is not None:
        deadline = t_start + config.wall_timeout
        for t in threads:
            t.join(max(0.0, deadline - time.perf_counter()))
        if any(t.is_alive() for t in threads):
            timed_out = True
            stop.set()
    for t in threads:
        t.join()

    if crashes:
        idx, alg, exc = crashes[0]
        raise InstanceCrashError(
            f"instance {idx} ({alg}) crashed: {type(exc).__name__}: {exc}"
        ) from exc

    if timed_out:
        reason = "wall-timeout"
    elif stop.is_set():
        reason = "cancelled"
    else:
        reason = "budget-exhausted"
    return winner_slot[0], stats, reason
