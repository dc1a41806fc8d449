"""Race N optimizer instances on one objective; first exact zero wins.

Every instance runs in a thread of the calling process. Instance 0 runs
alone first: the caller joins it for up to one interpreter switch
interval before it starts the others, which decides an easy input
without starting another thread, and an instance that starts after the
race is decided ends at its first poll, in the starting thread. The
native whole runs of BH, CRS2 and ISRES release the interpreter lock,
so a race uses several cores; on the Python fallback it runs on one.
Shared state is limited to the immutable program, a stop flag (one
byte, which the native runs poll too; the caller's, if it passes one),
and the race's records of stats, the first zero and the first crash. A
winning zero is claimed at the evaluation that produced it and sets the
flag; every other instance then performs at most one further evaluation
before observing it. The first zero claimed wins, and it is verified in
the calling thread. An instance's fixed-seed trajectory is the one it
runs alone, up to where the race stops it.
Verdicts are only ever SAT (with a verified model) or UNKNOWN.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceCrashError, VerificationFailureError
from .fp import FPValue, Sort
from .objective import ObjectiveProgram, semantic_eval
from .optimizers import (
    OptimizerConfig,
    StopFlag,
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
            if not isinstance(count, numbers.Integral) or count < 0:
                raise ValueError(f"instance count of {name} must be an integer >= 0, "
                                 f"got {count!r}")
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
          stop: StopFlag | None = None) -> SolveOutcome:
    """Race the configured instances; SAT on the first verified zero.

    A zero-dimensional program is decided by one evaluation instead of a
    race, and its zero takes the same path to a verified model. A `stop`
    flag, set from another thread, cancels the whole race (combined mode
    uses this); the race takes it as its own flag, so native runs see it
    at their next evaluation, and sets it itself when it ends early.
    Raises ValueError on an invalid configuration (an unknown algorithm
    or a count that is not an integer >= 0, a seed that is not an
    integer, a non-finite start range, a budget that is not an integer
    >= 1, bounds that are not finite with lo < hi, a wall timeout that is
    neither None nor finite and >= 0, a `stop` that is not a `StopFlag`)
    before anything is evaluated; VerificationFailureError if a
    zero-valued point fails the semantic check (that would be an encoding
    bug, never hidden), and InstanceCrashError, naming the instance and
    carrying its traceback text, if an instance raised.
    """
    if config is None:
        config = PortfolioConfig()
    algs = config.expanded()
    if not isinstance(config.seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {config.seed!r}")
    timeout = config.wall_timeout
    if timeout is not None and not (isinstance(timeout, numbers.Real)
                                    and 0 <= timeout < math.inf):
        raise ValueError(f"wall_timeout must be None or finite and >= 0, got {timeout!r}")
    if not np.isfinite(np.asarray(config.start_range, dtype=float)).all():
        raise ValueError("start_range must be finite")
    if stop is not None and not isinstance(stop, StopFlag):
        raise ValueError(f"stop must be None or a StopFlag, got {type(stop).__name__}")
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
    """Returns the winner (instance index, algorithm, zero point) or None,
    the instances' stats, and why the race ended without a winner.

    Instance 0 starts first, and this thread joins it for up to one
    interpreter switch interval (`sys.getswitchinterval()`) before it
    starts the rest: a thread start costs more than many an easy race,
    and a native run decides one without the lock. The race stops on one
    byte flag, the caller's `stop` if it gave one.
    """
    flag = StopFlag() if stop is None else stop
    deadline = None if config.wall_timeout is None else t_start + config.wall_timeout
    timed_out = False

    def wait_s():
        """How long to block before the deadline; None, to block until
        the thread ends, once the flag is set or without a deadline."""
        nonlocal timed_out
        if deadline is None or flag.is_set():
            return None
        timeout = deadline - time.perf_counter()
        if timeout <= 0:
            timed_out = True
            flag.set()
            return None
        return timeout

    indexed = list(enumerate(algs))
    race = _Race(program, config, opt_cfg, flag)
    try:
        race.start(indexed[:1])
        race.threads[0].join(sys.getswitchinterval())
        wait_s()
        race.start(indexed[1:])
        for t in race.threads:
            while t.is_alive():
                t.join(wait_s())
    except BaseException:  # interrupted: stop every instance before leaving
        flag.set()
        race.join()
        raise

    if race.crash is not None:
        idx, alg, summary, tb = race.crash
        raise InstanceCrashError(f"instance {idx} ({alg}) crashed: {summary}", tb)
    if timed_out:
        reason = "wall-timeout"
    elif flag.is_set():
        reason = "cancelled"
    else:
        reason = "budget-exhausted"
    return race.zero, sorted(race.stats, key=lambda s: s.index), reason


class _Race:
    """A race's instances, polling `stop`, and what they leave: each
    instance's stats, the first zero claimed (index, algorithm, point)
    and the first crash (index, algorithm, summary, traceback text)."""

    def __init__(self, program, config, opt_cfg, stop):
        self.program = program
        self.config = config
        self.opt_cfg = opt_cfg
        self.stop = stop
        self.stats = []
        self.zero = None
        self.crash = None
        self._lock = threading.Lock()
        self.threads = []

    def start(self, instances) -> None:
        """Run each (index, algorithm) in a thread of its own; in this
        thread once `stop` is set, since the instance then ends at its
        first poll, sooner than a thread starts."""
        for idx, alg in instances:
            if self.stop.is_set():
                self.run(idx, alg)
                continue
            t = threading.Thread(target=self.run, args=(idx, alg), daemon=True)
            t.start()
            self.threads.append(t)

    def _claim(self, idx: int, alg: str, x: np.ndarray) -> None:
        with self._lock:
            if self.zero is None:
                self.zero = (idx, alg, x)
        self.stop.set()

    def run(self, idx: int, alg: str) -> None:
        t0 = time.perf_counter()
        try:
            rng = Xoshiro256Plus(derive_seed(self.config.seed, idx))
            x0 = random_start(self.program.dimension, rng, self.config.start_range)
            outcome = _MINIMIZERS[alg](
                self.program.evaluate, x0, self.opt_cfg, rng, stop=self.stop,
                on_zero=lambda x: self._claim(idx, alg, x),
            )
            self.stats.append(InstanceStats(
                alg, idx, outcome.evals_used, outcome.best_value,
                time.perf_counter() - t0, outcome.terminated_by.value,
            ))
        except Exception as exc:  # raised by the race once every instance ended
            # a crashed instance ends the race: at once, since native runs
            # make thousands of evaluations in the time the traceback takes
            self.stop.set()
            import traceback  # slow to import; needed only on a crash

            with self._lock:
                if self.crash is None:
                    self.crash = (idx, alg, f"{type(exc).__name__}: {exc}",
                                  traceback.format_exc())

    def join(self) -> None:
        for t in self.threads:
            t.join()
