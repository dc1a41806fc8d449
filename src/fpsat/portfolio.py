"""Race N optimizer instances on one objective; first exact zero wins.

The instances are spread over k = min(N, usable cores) processes:
instance i runs in slot i mod k. Slot 0 is the calling process, and
slots 1..k-1 are persistent forked workers (`workers.py`), reused across
races and forked only by a race that its first instance has not decided
within one interpreter switch interval. Every slot runs its instances as
threads (one that starts after the race is decided ends at its first
poll, in the starting thread); the native whole runs of BH and CRS2 run
without the interpreter lock. Shared state is limited to the immutable
program (each worker gets a pickled copy), a stop flag (one byte of
shared memory, in every placement, which the native runs poll too), and
per-slot records of stats, the first zero and the first crash. A
winning zero is claimed at the evaluation that produced it and sets the
flag; every other instance then performs at most one further
evaluation, or one batch of them, before observing it. The winner is the zero with the earliest
stamp, and it is verified in the calling process. Fixed-seed
trajectories do not depend on where an instance runs.
Verdicts are only ever SAT (with a verified model) or UNKNOWN.
"""

from __future__ import annotations

import os
import pickle
import select
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
    _bounds,
    _budget,
    basin_hopping,
    crs2_minimize,
    isres_minimize,
)
from .rng import Xoshiro256Plus, derive_seed
from .terms import Term
from .workers import StopFlag, WorkerError, shared_pool

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

# how often a race forwards an external stop event to its stop flag
_FORWARD_S = 0.005


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
    bug, never hidden), and InstanceCrashError, naming the instance and
    carrying its traceback text, if an instance raised or the worker
    process running it died.
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


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _race(program, algs, config, opt_cfg, stop, t_start):
    """Returns the winner (instance index, algorithm, zero point) or None,
    the instances' stats, and why the race ended without a winner.

    Places the instances on k = min(instances, usable cores) processes:
    instance i runs in slot i mod k. Slot 0 is this process; slots 1..k-1
    are the shared pool's workers, which only a compiled program that
    pickles, and one race at a time, can use (otherwise every share runs
    here). A fork costs milliseconds, so a race that lacks workers first
    lets its first instance run alone: this thread joins it for up to one
    interpreter switch interval (`sys.getswitchinterval()`), and pickles
    the program and forks only if the race is still undecided. A race
    stops on one byte flag in every placement, the pool's or its own, and
    an external `stop` is polled and forwarded to it.
    """
    k = min(len(algs), _usable_cores())
    pool = None
    if k > 1 and isinstance(program, ObjectiveProgram):
        pool = shared_pool()
        if not pool.hold():
            pool = None
    if pool is None:
        k = 1
        flag = StopFlag()
    else:
        flag = pool.stop
        flag.clear()
    indexed = list(enumerate(algs))
    shares = [indexed[slot::k] for slot in range(k)]
    deadline = None if config.wall_timeout is None else t_start + config.wall_timeout
    timed_out = False

    def wait_s():
        """How long to block before the deadline or the next forwarding
        poll; None once the flag is set."""
        nonlocal timed_out
        if stop is not None and stop.is_set():
            flag.set()
        if flag.is_set():
            return None
        timeout = None
        if deadline is not None:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                timed_out = True
                flag.set()
                return None
        if stop is not None:
            timeout = min(timeout or _FORWARD_S, _FORWARD_S)
        return timeout

    results = []  # (stats, zero, crash) of each slot
    pending = {}  # worker -> its share
    local = _Share(program, config, opt_cfg, flag)
    try:
        head = 1 if pool is not None and pool.running() < k - 1 else 0
        local.start(shares[0][:head])
        if head:
            local.threads[0].join(sys.getswitchinterval())
        wait_s()
        blob = _pickled(program) if pool is not None and not flag.is_set() else None
        workers = pool.workers(k - 1) if blob is not None else []
        for slot, share in enumerate(shares[1:]):
            if slot >= len(workers):
                # decided already (each instance ends at its first poll),
                # or the program does not pickle, or no worker could be
                # forked: run the share here
                local.start(share)
                continue
            try:
                workers[slot].submit(_run_share, blob, share, config, opt_cfg)
            except WorkerError as exc:
                results.append(_lost_share(share, exc))
                flag.set()
            else:
                pending[workers[slot]] = share
        local.start(shares[0][head:])
        while pending:
            ready, _, _ = select.select(list(pending), [], [], wait_s())
            for worker in ready:
                share = pending.pop(worker)
                try:
                    result = worker.result()
                except WorkerError as exc:
                    results.append(_lost_share(share, exc))
                    flag.set()
                else:
                    if result is None:  # the worker could not unpickle it
                        local.start(share)
                        continue
                    # evaluations made on the worker's copy of the program
                    program.count_evals(sum(s.evals for s in result[0]))
                    results.append(result)
        for t in local.threads:
            while t.is_alive():
                t.join(wait_s())
    except BaseException:  # interrupted: stop everything before leaving
        flag.set()
        for worker in pending:
            worker.kill()
        local.join()
        raise
    finally:
        if pool is not None:
            pool.release()
    results.append(local.result())

    stats = [None] * len(algs)  # each instance fills its own entry
    zeros, crashes = [], []
    for share_stats, zero, crash in results:
        for s in share_stats:
            stats[s.index] = s
        if zero is not None:
            zeros.append(zero)
        if crash is not None:
            crashes.append(crash)

    if crashes:
        _, idx, alg, summary, tb = min(crashes)
        raise InstanceCrashError(f"instance {idx} ({alg}) crashed: {summary}", tb)
    winner = None
    if zeros:
        _, idx, alg, x = min(zeros, key=lambda z: z[0])
        winner = (idx, alg, x)

    if timed_out:
        reason = "wall-timeout"
    elif flag.is_set():
        reason = "cancelled"
    else:
        reason = "budget-exhausted"
    return winner, stats, reason


def _pickled(program) -> bytes | None:
    """The program as a worker receives it; None if it does not pickle
    (a subclass defined in a function does not)."""
    try:
        return pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None


def _lost_share(share, exc: WorkerError):
    """A share whose worker returned nothing: a crash of its first instance."""
    idx, alg = share[0]
    return [], None, (time.perf_counter(), idx, alg, str(exc), exc.traceback)


class _Share:
    """One slot's instances in this process, polling `stop`.

    Records each instance's stats, the slot's first zero (stamp, index,
    algorithm, point) and first crash (stamp, index, algorithm, summary,
    traceback text). Stamps are `time.perf_counter()`, one clock for all
    processes of a race.
    """

    def __init__(self, program, config, opt_cfg, stop):
        self.program = program
        self.f_many = getattr(program, "evaluate_many", None)
        self.config = config
        self.opt_cfg = opt_cfg
        self.stop = stop
        self.stats = []
        self.zero = None
        self.crash = None
        self._lock = threading.Lock()
        self.threads = []

    def start(self, share) -> None:
        """Run each (index, algorithm) of `share` in a thread of its own;
        in this thread once `stop` is set, since the instance then ends
        at its first poll, sooner than a thread starts."""
        for idx, alg in share:
            if self.stop.is_set():
                self.run(idx, alg)
                continue
            t = threading.Thread(target=self.run, args=(idx, alg), daemon=True)
            t.start()
            self.threads.append(t)

    def _claim(self, idx: int, alg: str, x: np.ndarray) -> None:
        with self._lock:
            if self.zero is None:
                self.zero = (time.perf_counter(), idx, alg, x)
        self.stop.set()

    def run(self, idx: int, alg: str) -> None:
        t0 = time.perf_counter()
        try:
            rng = Xoshiro256Plus(derive_seed(self.config.seed, idx))
            x0 = random_start(self.program.dimension, rng, self.config.start_range)
            outcome = _MINIMIZERS[alg](
                self.program.evaluate, x0, self.opt_cfg, rng, stop=self.stop,
                on_zero=lambda x: self._claim(idx, alg, x), f_many=self.f_many,
            )
            self.stats.append(InstanceStats(
                alg, idx, outcome.evals_used, outcome.best_value,
                time.perf_counter() - t0, outcome.terminated_by.value,
            ))
        except Exception as exc:  # raised by the race once every slot ended
            # a crashed instance ends the race: at once, since native runs
            # make thousands of evaluations in the time the traceback takes
            self.stop.set()
            import traceback  # slow to import; needed only on a crash

            with self._lock:
                if self.crash is None:
                    self.crash = (time.perf_counter(), idx, alg,
                                  f"{type(exc).__name__}: {exc}",
                                  traceback.format_exc())

    def join(self) -> None:
        for t in self.threads:
            t.join()

    def result(self):
        return self.stats, self.zero, self.crash


def _run_share(blob, share, config, opt_cfg, *, stop):
    """A worker's job: run `share` of the pickled program to its end;
    returns its stats, first zero and first crash. Returns None if this
    process cannot unpickle the program (say, its class was defined in
    `__main__` after the fork), and the caller runs the share itself."""
    try:
        program = pickle.loads(blob)
    except Exception:
        return None
    local = _Share(program, config, opt_cfg, stop)
    local.start(share)
    local.join()
    return local.result()
