"""Race N optimizer instances on one objective; first exact zero wins.

When every instance would take its native whole run (the kernels are
loaded, the objective is the program's own `evaluate`, and the minimizer
table is the stock one), the race runs in C: each instance's generator
and start point are prepared in the calling thread, and each instance is
then a job on a pthread of the C race, which runs no Python and never
takes the interpreter lock. Otherwise every instance runs in a Python
thread of the calling process, and on the Python fallback the race runs
on one core. Either way instance 0 runs alone first: the caller waits
for it for up to one interpreter switch interval before it starts the
others, which decides an easy input with one thread start, and an
instance that starts after the race is decided ends at its first poll,
in the starting thread. The calling thread waits without the lock, in
slices of at most `_POLL_S` on the C race, so Ctrl-C raises
KeyboardInterrupt there once every instance has ended.
Shared state is limited to the immutable program, a stop flag (one
byte, which the native runs poll too; the caller's, if it passes one, so
a stop set from another thread reaches every instance at its next
evaluation), and the race's records of stats, the first zero and the
first crash. A winning zero is claimed at the evaluation that produced
it and sets the flag; every other instance then performs at most one
further evaluation before observing it. The first zero claimed wins, and
it is verified in the calling thread. An instance's fixed-seed
trajectory is the one it runs alone, up to where the race stops it.
Verdicts are only ever SAT (with a verified model) or UNKNOWN.
The C race passes its start points and best points as floats: numpy is
imported only by the helpers that return arrays (`random_start`,
`Model.vector`) and by the Python minimizers, so a solve on the native
kernels never loads it.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import kernels
from .errors import InstanceCrashError, VerificationFailureError
from .fp import FPValue, Sort
from .objective import ObjectiveProgram, semantic_eval
from .optimizers import (
    _EVALUATE,
    OptimizerConfig,
    StopFlag,
    _bounds,
    _NativeRace,
    _budget,
    basin_hopping,
    crs2_minimize,
    isres_minimize,
)
from .rng import Xoshiro256Plus, derive_seed
from .terms import Term

if TYPE_CHECKING:
    import numpy as np

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
_STOCK = dict(_MINIMIZERS)  # only a race of these runs in C

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
        import numpy as np

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
    import numpy as np

    return np.array(_start(dim, rng, rng_range), dtype=float)


def _start(dim: int, rng: Xoshiro256Plus, rng_range) -> list[float]:
    """`random_start`'s draws, as floats."""
    lo, hi = rng_range
    return [rng.uniform(lo, hi) for _ in range(dim)]


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
    if not all(math.isfinite(float(v)) for v in config.start_range):
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

    The race is the C race (`_CRace`) when every instance would take its
    native whole run, else a race of Python threads (`_Race`). Either is
    driven alike: instance 0 starts first, and this thread waits for it
    for up to one interpreter switch interval (`sys.getswitchinterval()`)
    before it starts the rest, since a thread start costs more than many
    an easy race; then it waits, up to the deadline, for all of them.
    The race stops on one byte flag, the caller's `stop` if it gave one;
    an interrupt (Ctrl-C) in this thread sets it and ends every instance
    before it propagates.
    """
    flag = StopFlag() if stop is None else stop
    deadline = None if config.wall_timeout is None else t_start + config.wall_timeout
    timed_out = False

    def wait_s():
        """How long to wait before looking at the deadline again; None, to
        wait until every instance ends, once the flag is set or without a
        deadline."""
        nonlocal timed_out
        if deadline is None or flag.is_set():
            return None
        timeout = deadline - time.perf_counter()
        if timeout <= 0:
            timed_out = True
            flag.set()
            return None
        return timeout

    native = (kernels.lib is not None
              and getattr(program.evaluate, "__func__", None) is _EVALUATE
              and all(_MINIMIZERS[alg] is _STOCK[alg] for alg in algs))
    race = (_CRace if native else _Race)(program, algs, config, opt_cfg, flag)
    try:
        race.start(1)
        race.wait(sys.getswitchinterval())
        wait_s()
        race.start(len(algs) - 1)
        while not race.wait(wait_s()):
            pass
    except BaseException:  # interrupted: stop every instance before leaving
        flag.set()
        race.collect()
        raise

    zero, stats, crash = race.collect()
    if crash is not None:
        idx, alg, summary, tb = crash
        raise InstanceCrashError(f"instance {idx} ({alg}) crashed: {summary}", tb)
    if timed_out:
        reason = "wall-timeout"
    elif flag.is_set():
        reason = "cancelled"
    else:
        reason = "budget-exhausted"
    return zero, stats, reason


# how long the C race's waits may block: signal handlers, Ctrl-C's
# included, run only between them
_POLL_S = 0.05


class _CRace:
    """The race in `_kernels.c`: each instance is a job on a pthread of the
    C race, which runs no Python and claims the first zero. Its generator
    and start point are prepared in the calling thread: instance 0's
    first, the others' while instance 0 runs."""

    def __init__(self, program, algs, config, opt_cfg, stop):
        k, n = len(algs), program.dimension
        self.program, self.algs, self.config, self.stop = program, algs, config, stop
        self.states = (ctypes.c_uint64 * (4 * k))()
        self.x0s = (ctypes.c_double * (k * n))()
        self.race = _NativeRace(program._image, n, algs, self.x0s, self.states,
                                opt_cfg.max_evals, opt_cfg.bounds, stop)
        self.prepared = 0
        self._prepare()

    def _prepare(self) -> None:
        idx, n = self.prepared, self.program.dimension
        rng = Xoshiro256Plus(derive_seed(self.config.seed, idx))
        self.x0s[idx * n:(idx + 1) * n] = _start(n, rng, self.config.start_range)
        self.states[4 * idx:4 * idx + 4] = rng.state()
        self.prepared += 1

    def start(self, count: int) -> None:
        """Start the next `count` instances, then prepare the rest while
        they run. Once `stop` is set the rest end at their first poll, so
        they are not prepared."""
        self.race.start(count)
        while self.prepared < len(self.algs) and not self.stop.is_set():
            self._prepare()

    def wait(self, timeout) -> bool:
        """True once every instance has ended; waits up to `timeout`
        seconds (None: until then), and never longer than `_POLL_S`."""
        return self.race.wait(_POLL_S if timeout is None else min(timeout, _POLL_S))

    def collect(self):
        """Ends the race (see `_NativeRace.end`); the first zero claimed
        (index, algorithm, point), the stats, and the failed instance of
        lowest index (index, algorithm, summary, traceback text), or None.
        The instances' evaluations are counted."""
        winner = self.race.end()
        zero = crash = None
        stats = []
        for idx, alg in enumerate(self.algs):
            out = self.race.outcome(idx)
            if out is None:
                crash = crash or (idx, alg, "MemoryError: no memory or thread for a native run",
                                  "")
                continue
            if idx == winner:
                zero = (idx, alg, out.best_x)
            start, end = self.race.times[2 * idx:2 * idx + 2]
            stats.append(InstanceStats(alg, idx, out.evals_used, out.best_value, end - start,
                                       out.terminated_by.value))
        self.program.count_evals(sum(s.evals for s in stats))
        return zero, stats, crash


class _Race:
    """A race of Python threads, one per instance, polling `stop`; for
    the objectives and minimizers that the C race cannot run."""

    def __init__(self, program, algs, config, opt_cfg, stop):
        self.program = program
        self.algs = algs
        self.config = config
        self.opt_cfg = opt_cfg
        self.stop = stop
        self.stats = []
        self.zero = None
        self.crash = None
        self._lock = threading.Lock()
        self.threads = []
        self._started = 0

    def start(self, count: int) -> None:
        """Start the next `count` instances, each in a thread of its own;
        in this thread once `stop` is set, since the instance then ends
        at its first poll, sooner than a thread starts."""
        first, self._started = self._started, self._started + count
        for idx in range(first, self._started):
            if self.stop.is_set():
                self.run(idx, self.algs[idx])
                continue
            t = threading.Thread(target=self.run, args=(idx, self.algs[idx]), daemon=True)
            t.start()
            self.threads.append(t)

    def wait(self, timeout) -> bool:
        """True once every instance has ended; waits up to `timeout`
        seconds (None: until then) for the first one still running."""
        live = [t for t in self.threads if t.is_alive()]
        if live:
            live[0].join(timeout)
        return not any(t.is_alive() for t in live)

    def collect(self):
        """Waits for every instance to end; the first zero claimed, the
        stats and the first crash, as `_CRace.collect`'s."""
        for t in self.threads:
            t.join()
        return self.zero, sorted(self.stats, key=lambda s: s.index), self.crash

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
