"""Stochastic derivative-free global optimizers under one budgeted interface.

Three methods: basin hopping with a direction-set (Powell) local minimizer,
controlled random search with local mutation, and a (mu, lambda) evolution
strategy that ranks its offspring by objective value. Each instance owns
all of its mutable state and its own PRNG stream. A minimizer takes one
objective `f` and counts each call as one evaluation; the shared stop
token is polled before every evaluation, and budgets are never exceeded.
Objectives receive each point as a sequence of floats (an ndarray, or a
list in CRS2's steady state and in a population's rows).

When the kernels are loaded and `f` is `ObjectiveProgram.evaluate` itself,
bound to a program of x0's dimension (see `_native_program`), the native
kernels evaluate in place of the Python code, bit for bit, with the same
draws and points in the same order, and the program counts what they
evaluate. Basin hopping, CRS2 and ISRES then run whole in C, as the one
job of a race in `_kernels.c` (`_NativeRace`) run in the calling thread,
without the interpreter lock, if `stop` is None or a `StopFlag`, the
one-byte flag that a race's instances share: a native run polls it
before every evaluation, so cancellation comes at most one evaluation
late, as in Python. Signal handlers, KeyboardInterrupt included, run only
once it returns, so without a `StopFlag` that another thread sets it ends
only at its budget or its first zero. The portfolio runs the jobs of a
whole race on pthreads of their own, with the same `_NativeRace`. Any
other `f`, a wrapper of `evaluate` included, or any other `stop`, runs
the Python code, which calls `f` once for every point. The Python code
is the reference and the fallback. numpy is imported by the Python code
and by the public minimizers, whose points are ndarrays on either path,
and not by a native race (`_NativeRace`), whose points are floats.

Every method runs with fixed parameters (the module constants below), as
parSAT runs each optimizer with its defaults.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import kernels
from .objective import ObjectiveProgram
from .rng import Xoshiro256Plus

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "StopFlag",
    "TerminationReason",
    "OptOutcome",
    "OptimizerConfig",
    "powell_minimize",
    "basin_hopping",
    "crs2_minimize",
    "isres_minimize",
]

_BH_STEP = 0.5  # perturbation drawn uniformly from [-step, step] per coordinate
_BH_TEMPERATURE = 1.0  # Metropolis acceptance temperature
_POWELL_TOL = 1e-8
_POWELL_ITERS_PER_DIM = 100
_CRS2_POP_PER_DIM = 10  # population = 10 (n + 1)
_ISRES_LAMBDA_PER_DIM = 20  # lambda = 20 (n + 1), mu = round(lambda / 7)


class TerminationReason(Enum):
    ZERO_FOUND = "zero-found"
    BUDGET_EXHAUSTED = "budget-exhausted"
    CANCELLED = "cancelled"
    CONVERGED = "converged"  # Powell-level tolerance/iteration exit only


@dataclass
class OptimizerConfig:
    max_evals: int = 1_000_000
    bounds: tuple = (-1e9, 1e9)  # (lo, hi) for every coordinate


@dataclass
class OptOutcome:
    best_x: np.ndarray | None
    best_value: float
    evals_used: int
    terminated_by: TerminationReason


class StopFlag:
    """`threading.Event`'s `is_set`/`set` on one byte, which the native
    whole runs read at `address`. It is never cleared."""

    def __init__(self):
        self._byte = (ctypes.c_ubyte * 1)()
        self.address = ctypes.addressof(self._byte)

    def is_set(self) -> bool:
        return self._byte[0] != 0

    def set(self) -> None:
        self._byte[0] = 1


def _vector(x) -> np.ndarray:
    """A new 1-D float64 ndarray of x: the type of the points that the
    public minimizers return and hand to `on_zero`."""
    import numpy as np

    return np.array(x, dtype=float, copy=True)


class _Stop(Exception):
    """Ends a run from inside an evaluation; carries the reason."""

    def __init__(self, reason: TerminationReason):
        super().__init__(reason.value)
        self.reason = reason


class _Run:
    """Budgeted, cancellable objective handle tracking the running best."""

    def __init__(self, fn, max_evals, stop, on_zero=None):
        self.fn = fn
        self.max_evals = _budget(max_evals)
        self.stop = stop
        self.on_zero = on_zero
        self.evals = 0
        self.best_x = None
        self.best_value = math.inf

    def __call__(self, x) -> float:
        if self.stop is not None and self.stop.is_set():
            raise _Stop(TerminationReason.CANCELLED)
        if self.evals >= self.max_evals:
            raise _Stop(TerminationReason.BUDGET_EXHAUSTED)
        return self._take(x, self.fn(x))

    def many(self, X: np.ndarray) -> list[float]:
        """Evaluate the rows of X in order, each as a list, through
        `__call__`."""
        return [self(x) for x in X.tolist()]

    def _take(self, x, v: float) -> float:
        """Count one evaluation of x; track the best and stop on a zero."""
        self.evals += 1
        if v < self.best_value or self.best_x is None:
            self.best_value = v
            self.best_x = _vector(x)
        if v == 0.0:
            if self.on_zero is not None:
                self.on_zero(_vector(x))
            raise _Stop(TerminationReason.ZERO_FOUND)
        return v

    def poll(self) -> None:
        """Stop the run if the race was cancelled; for work between
        evaluations, such as drawing a population."""
        if self.stop is not None and self.stop.is_set():
            raise _Stop(TerminationReason.CANCELLED)

    def outcome(self, reason: TerminationReason) -> OptOutcome:
        return OptOutcome(self.best_x, self.best_value, self.evals, reason)


# the stock method, captured here: a subclass's override, or a rebinding
# of the class attribute (a tracer's wrapper), keeps the Python path
_EVALUATE = ObjectiveProgram.evaluate
# the native entries' results, by code
_NATIVE_REASONS = (TerminationReason.ZERO_FOUND, TerminationReason.BUDGET_EXHAUSTED,
                   TerminationReason.CANCELLED)
_INT64_MAX = 2**63 - 1


def _native_program(f, x0, stop=None):
    """The program whose evaluations from x0 on the native kernels can
    make in place of `f`, or None: the kernels are loaded, `f` is
    `ObjectiveProgram.evaluate` itself bound to a program of x0's
    dimension, and `stop` is None or a `StopFlag`."""
    if kernels.lib is None or getattr(f, "__func__", None) is not _EVALUATE:
        return None
    if stop is not None and not isinstance(stop, StopFlag):
        return None
    program = f.__self__
    return program if x0.ndim == 1 and len(x0) == program.dimension else None


# _kernels.c's numbers of the algorithms
_ALGORITHM_CODES = {"bh": 0, "crs2": 1, "isres": 2}


class _NativeRace:
    """A race in `_kernels.c` of whole runs on one program image: job i
    runs algorithm algs[i] ("bh", "crs2" or "isres") from the i-th start
    point of `x0s` (n doubles each, in bytes or a ctypes array, read when
    the job starts) and the generator state at words 4i.. of `states`, a
    ctypes uint64 array that it advances. The jobs share the budget, the
    box (CRS2's and ISRES's) and `stop`, the byte they poll; a race of
    several sets it on a zero or a failure, to end the others. Holds the
    buffers that the C race reads and writes, which must live until `end`
    has returned."""

    def __init__(self, image, n, algs, x0s, states, max_evals, box, stop, points=None,
                 lib=None):
        k = len(algs)
        codes = bytes(_ALGORITHM_CODES[a] for a in algs)
        self.lib = kernels.lib if lib is None else lib
        self.n, self._keep = n, (image, codes, x0s, states, stop, points)
        self.best = (ctypes.c_double * (k * (n + 1)))()  # best_x, then best_value
        self.results = (ctypes.c_int64 * (2 * k))()  # code, evals
        self.times = (ctypes.c_double * (2 * k))()  # start, end: perf_counter seconds
        self.handle = self.lib.fpsat_race_new(
            image, k, codes, x0s, states,
            min(max_evals, _INT64_MAX), *(box or (0.0, 0.0)),
            None if stop is None else stop.address, self.best, self.results, self.times,
            None if points is None else points.ctypes.data)
        if not self.handle:
            raise MemoryError("no memory for a native race")

    def start(self, count: int, threaded: bool = True) -> None:
        """Start the next `count` jobs: each on a thread of its own, or
        in this thread if not `threaded` or once `stop` is set."""
        self.lib.fpsat_race_start(self.handle, count, threaded)

    def wait(self, timeout: float) -> bool:
        """Wait up to `timeout` seconds, without the interpreter lock,
        for the jobs on threads to end; True once they have."""
        return bool(self.lib.fpsat_race_wait(self.handle, timeout))

    def end(self) -> int | None:
        """Join the jobs' threads, which end at their next poll once
        `stop` is set, and free the race; the index of the job whose zero
        won, or None. Call it once, after `start`s that raised too."""
        winner = self.lib.fpsat_race_end(self.handle)
        return None if winner < 0 else winner

    def outcome(self, i: int) -> OptOutcome | None:
        """Job i's outcome once the race has ended, its best point an
        `array('d')`; None if its scratch or its thread could not be had."""
        code, evals = self.results[2 * i], self.results[2 * i + 1]
        if code < 0:
            return None
        if evals == 0:
            return OptOutcome(None, math.inf, 0, _NATIVE_REASONS[code])
        best = self.best[i * (self.n + 1):(i + 1) * (self.n + 1)]
        return OptOutcome(array("d", best[:-1]), best[-1], evals, _NATIVE_REASONS[code])


def _whole_run(alg: str, image: bytes, x0, max_evals: int, rng: Xoshiro256Plus,
               stop: StopFlag | None, box=(), points: np.ndarray | None = None,
               lib=None) -> OptOutcome:
    """One whole run of `alg` ("bh", or "crs2" or "isres" with its box) on
    a program image from the floats x0, advancing `rng`: the one job of a
    race, in this thread. `points`, if given, is a C-contiguous float
    array of at least max_evals rows that receives every evaluated point.
    Counts nothing."""
    race = _NativeRace(image, len(x0), [alg], array("d", x0).tobytes(), rng._s,
                       max_evals, box, stop, points, lib)
    try:
        race.start(1, threaded=False)
    finally:
        race.end()
    out = race.outcome(0)
    if out is None:
        raise MemoryError("no memory for a native run")
    return out


def _native(alg, program, x0, max_evals, rng, on_zero, stop, box=()) -> OptOutcome:
    """`_whole_run` on a program, with `_Run`'s side effects: the
    evaluations are counted, and a zero goes to `on_zero`."""
    out = _whole_run(alg, program._image, x0, max_evals, rng, stop, box)
    program.count_evals(out.evals_used)
    if out.best_x is not None:
        out.best_x = _vector(out.best_x)
    if out.terminated_by is TerminationReason.ZERO_FOUND and on_zero is not None:
        on_zero(out.best_x.copy())
    return out


def _budget(max_evals) -> int:
    """The evaluation budget, which must be an integer >= 1."""
    if not isinstance(max_evals, numbers.Integral) or max_evals < 1:
        raise ValueError(f"max_evals must be an integer >= 1, got {max_evals!r}")
    return int(max_evals)


def _bounds(bounds) -> tuple[float, float]:
    try:
        lo, hi = map(float, bounds)
    except (TypeError, ValueError):
        raise ValueError("bounds must be (lo, hi)") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bounds must be finite")
    if not lo < hi:
        raise ValueError("bounds must satisfy lo < hi")
    return lo, hi


def _clip(x, lo: float, hi: float):
    """Clip into [lo, hi]: a bound wins a tie (-0.0 clipped at 0.0 is 0.0)
    and NaN passes, as `np.clip` does on a point against bound arrays."""
    import numpy as np

    return np.where(x <= lo, lo, np.where(x >= hi, hi, x))


def _population(run: _Run, rng: Xoshiro256Plus, x0: np.ndarray, size: int,
                lo: float, hi: float) -> tuple[np.ndarray, list[float]]:
    """The start point clipped into the box, then size - 1 uniform points,
    with their values. The start point is evaluated first and alone (it is
    often the zero)."""
    import numpy as np

    n = len(x0)
    pop = np.empty((size, n))
    pop[0] = _clip(x0, lo, hi)
    f0 = run(pop[0])
    draws = np.array(rng.doubles((size - 1) * n)).reshape(size - 1, n)
    pop[1:] = lo + draws * (hi - lo)
    return pop, [f0] + run.many(pop[1:])


_TWO_PI = 2.0 * math.pi


def _gauss_rows(rng: Xoshiro256Plus, rows: int, width: int) -> np.ndarray:
    """Standard normal deviates, `rows` x `width` (width even), in draw
    order. Box-Muller: each pair of doubles gives a cosine then a sine
    deviate; 1 - u lies in (0, 1], so the log is finite. The
    transcendental functions are the `math` module's, whose bits numpy's
    vectorized versions do not always reproduce; the native kernels call
    the same libm functions."""
    import numpy as np

    d = rng.doubles(rows * width)
    r = np.sqrt(-2.0 * np.array([math.log(1.0 - u) for u in d[0::2]]))
    angle = [_TWO_PI * u for u in d[1::2]]
    z = np.empty((len(angle), 2))
    z[:, 0] = r * np.array([math.cos(a) for a in angle])
    z[:, 1] = r * np.array([math.sin(a) for a in angle])
    return z.reshape(rows, width)


def _square(v: float) -> float:
    """v ** 2, and +inf where it overflows, as C's `pow` gives, instead
    of Python's OverflowError."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _exp(v: np.ndarray) -> np.ndarray:
    """`math.exp` of each value of v, in a new array: numpy's vectorized
    `exp` differs from libm's in the last bit on some inputs and CPUs.
    ISRES's arguments are bounded as its deviates are, so it cannot
    overflow."""
    import numpy as np

    return np.fromiter(map(math.exp, v.ravel().tolist()), float, v.size).reshape(v.shape)


# --------------------------------------------------------------------------
# Powell direction-set minimization
# --------------------------------------------------------------------------

_GOLD = 1.618033988749895
_CGOLD = 0.3819660112501051


def _line_min(run: _Run, x: np.ndarray, direction: np.ndarray, f0: float):
    """Derivative-free minimization of f along x + alpha*direction.

    Trial points with non-finite coordinates or a non-finite objective are
    rejected (seen as +inf) and expansion steps toward them are halved.
    Returns (new_x, new_f).
    """
    import numpy as np

    best = [0.0, f0]

    def g(alpha: float) -> float:
        if alpha == 0.0:
            return f0
        pt = x + alpha * direction
        if not np.isfinite(pt).all():
            return math.inf
        v = run(pt)
        if v != v:
            return math.inf
        if v < best[1]:
            best[0], best[1] = alpha, v
        return v

    xa, xb, xc, fa, fb, fc = _bracket(g, f0)
    _brent(g, xa, xb, xc, fb)
    if best[1] < f0:
        return x + best[0] * direction, best[1]
    return x, f0


def _bracket(g, f0: float):
    """Bracket a minimum of g starting downhill from alpha = 0."""
    xa, fa = 0.0, f0
    xb, fb = 1.0, g(1.0)
    while fb == math.inf and abs(xb) > 1e-20:  # rejected: halve the step
        xb *= 0.5
        fb = g(xb)
    if fb > fa:
        xa, xb = xb, xa
        fa, fb = fb, fa

    def grow(frm, to_delta):
        xc = frm + to_delta
        fc = g(xc)
        while fc == math.inf and abs(xc - frm) > 1e-20:
            xc = frm + 0.5 * (xc - frm)
            fc = g(xc)
        return xc, fc

    xc, fc = grow(xb, _GOLD * (xb - xa))
    for _ in range(100):
        if fc >= fb:
            break
        xa, fa = xb, fb
        xb, fb = xc, fc
        xc, fc = grow(xb, _GOLD * (xb - xa))
    return xa, xb, xc, fa, fb, fc


def _brent(g, xa: float, xb: float, xc: float, fb: float,
           tol: float = 1e-11, max_iter: int = 64) -> None:
    """Classic Brent minimization inside the bracket (values may be +inf)."""
    a, b = (xa, xc) if xa < xc else (xc, xa)
    x = w = v = xb
    fx = fw = fv = fb
    d = e = 0.0
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        tol1 = tol * abs(x) + 1e-14
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return
        golden = True
        if abs(e) > tol1 and math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etemp = e
            e = d
            if abs(p) < abs(0.5 * q * etemp) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, m - x)
                golden = False
        if golden:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = g(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _powell_core(run: _Run, x0: np.ndarray, tol: float, max_iters: int):
    """Direction-set descent; returns (x, fx, converged)."""
    import numpy as np

    n = len(x0)
    x = np.array(x0, dtype=float)
    fx = run(x)
    directions = [np.eye(n)[i] for i in range(n)]
    for _ in range(max_iters):
        f_start = fx
        x_start = x.copy()
        biggest_dec = 0.0
        biggest_idx = 0
        for i, direction in enumerate(directions):
            f_before = fx
            x, fx = _line_min(run, x, direction, fx)
            if f_before - fx > biggest_dec:
                biggest_dec = f_before - fx
                biggest_idx = i
        if 2.0 * (f_start - fx) <= tol * (abs(f_start) + abs(fx)) + 1e-300:
            return x, fx, True
        # Powell's direction replacement with the extrapolated-point test
        d_new = x - x_start
        x_ext = x + d_new
        if np.isfinite(x_ext).all():
            f_ext = run(x_ext)
            if f_ext < f_start and math.isfinite(f_ext):
                t = 2.0 * (f_start - 2.0 * fx + f_ext)
                t *= _square(f_start - fx - biggest_dec)
                t -= biggest_dec * _square(f_start - f_ext)
                if t < 0.0:
                    x, fx = _line_min(run, x, d_new, fx)
                    directions[biggest_idx] = directions[-1]
                    directions[-1] = d_new
    return x, fx, False


def powell_minimize(f, x0, cfg: OptimizerConfig, stop=None) -> OptOutcome:
    """Standalone Powell local minimization under the budget interface."""
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or len(x0) < 1:
        raise ValueError("x0 must be a non-empty vector")
    run = _Run(f, cfg.max_evals, stop)
    try:
        _powell_core(run, x0, _POWELL_TOL, _POWELL_ITERS_PER_DIM * len(x0))
        return run.outcome(TerminationReason.CONVERGED)
    except _Stop as end:
        return run.outcome(end.reason)


# --------------------------------------------------------------------------
# Basin hopping
# --------------------------------------------------------------------------


def basin_hopping(f, x0, cfg: OptimizerConfig, rng: Xoshiro256Plus,
                  stop=None, on_zero=None) -> OptOutcome:
    """Random perturbation + Powell descent + Metropolis acceptance."""
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or len(x0) < 1:
        raise ValueError("x0 must be a non-empty vector")
    n = len(x0)
    program = _native_program(f, x0, stop)
    if program is not None:
        return _native("bh", program, x0, _budget(cfg.max_evals), rng,
                       on_zero, stop)
    run = _Run(f, cfg.max_evals, stop, on_zero)
    max_iters = _POWELL_ITERS_PER_DIM * n
    try:
        x, fx, _ = _powell_core(run, x0, _POWELL_TOL, max_iters)
        while True:
            step = np.array([rng.uniform(-_BH_STEP, _BH_STEP) for _ in range(n)])
            trial = x + step
            xt, ft, _ = _powell_core(run, trial, _POWELL_TOL, max_iters)
            if ft <= fx:
                x, fx = xt, ft
            else:
                delta = ft - fx
                w = math.exp(-delta / _BH_TEMPERATURE) if delta == delta else 0.0
                if rng.next_double() < w:
                    x, fx = xt, ft
    except _Stop as end:
        return run.outcome(end.reason)


# --------------------------------------------------------------------------
# Controlled random search with local mutation
# --------------------------------------------------------------------------


def crs2_minimize(f, x0, cfg: OptimizerConfig, rng: Xoshiro256Plus,
                  stop=None, on_zero=None) -> OptOutcome:
    """CRS2: simplex reflection over a random population, with local mutation.

    Each trial depends on the last replacement, so the steady state runs
    point by point, on lists of floats."""
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    lo, hi = _bounds(cfg.bounds)
    program = _native_program(f, x0, stop)
    if program is not None:
        return _native("crs2", program, x0, _budget(cfg.max_evals), rng,
                       on_zero, stop, (lo, hi))
    pop_size = _CRS2_POP_PER_DIM * (n + 1)
    run = _Run(f, cfg.max_evals, stop, on_zero)
    try:
        pop, fvals = _population(run, rng, x0, pop_size, lo, hi)
        pop = pop.tolist()
        while True:
            worst = fvals.index(max(fvals))
            best = fvals.index(min(fvals))
            # n+1 distinct points led by the current best, each further one
            # at a uniform index int(u * len(pool)) into the rest
            pool = list(range(pop_size))
            pool.remove(best)
            chosen = [best]
            for u in rng.doubles(n):
                chosen.append(pool.pop(int(u * len(pool))))
            # the centroid of all but the last, summed in row order from
            # +0.0 and then divided, as `mean(axis=0)` does
            total = [0.0] * n
            for i in chosen[:-1]:
                total = [a + b for a, b in zip(total, pop[i])]
            trial = [2.0 * (a / n) - b for a, b in zip(total, pop[chosen[-1]])]

            if all(lo <= t <= hi for t in trial):
                ft = run(trial)
                if ft < fvals[worst]:
                    pop[worst] = trial
                    fvals[worst] = ft
                    continue
            # local mutation: reflect the failed trial about the best
            # point with per-coordinate random weights
            mutated = [(1.0 + w) * b - w * t
                       for w, b, t in zip(rng.doubles(n), pop[best], trial)]
            mutated = [lo if v <= lo else hi if v >= hi else v for v in mutated]
            ft = run(mutated)
            if ft < fvals[worst]:
                pop[worst] = mutated
                fvals[worst] = ft
    except _Stop as end:
        return run.outcome(end.reason)


# --------------------------------------------------------------------------
# Improved stochastic ranking evolution strategy
# --------------------------------------------------------------------------

_ISRES_PHI = 1.0
_ISRES_GAMMA = 0.85


def isres_minimize(f, x0, cfg: OptimizerConfig, rng: Xoshiro256Plus,
                   stop=None, on_zero=None) -> OptOutcome:
    """(mu, lambda) evolution strategy with log-normal step-size
    self-adaptation; runs unconstrained (the objective already folds every
    constraint into its distance).

    Stochastic ranking (Runarsson & Yao, 2000) orders by constraint
    violation only where one is nonzero; here every violation is zero, so
    it is a stable sort by objective value and draws no randomness.

    A generation is built whole, with every deviate of it drawn, then
    evaluated row by row in order. Its first mu - 1 offspring take a
    directed differential step among the elite; each later one draws, in
    this order, one normal deviate for its global step factor (the cosine
    of a Box-Muller pair), n for its step sizes and n for its step (n
    rounded up to even).
    """
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    lo, hi = _bounds(cfg.bounds)
    program = _native_program(f, x0, stop)
    if program is not None:
        return _native("isres", program, x0, _budget(cfg.max_evals), rng,
                       on_zero, stop, (lo, hi))
    lam = _ISRES_LAMBDA_PER_DIM * (n + 1)
    mu = round(lam / 7)
    drawn = lam - (mu - 1)  # offspring with a random mutation
    even_n = n + n % 2  # deviates drawn for n coordinates

    tau = _ISRES_PHI / math.sqrt(2.0 * math.sqrt(n))
    taup = _ISRES_PHI / math.sqrt(2.0 * n)

    run = _Run(f, cfg.max_evals, stop, on_zero)
    try:
        pop, fvals = _population(run, rng, x0, lam, lo, hi)
        sigmas = np.full((lam, n), (hi - lo) / math.sqrt(n))

        while True:
            elite = np.argsort(fvals, kind="stable")[:mu]
            parents = pop[elite]
            psig = sigmas[elite]
            pop = np.empty((lam, n))
            sigmas = np.empty((lam, n))
            # directed differential variation among the elite
            pop[:mu - 1] = parents[:-1] + _ISRES_GAMMA * (parents[0] - parents[1:])
            sigmas[:mu - 1] = psig[:-1]
            # log-normal step-size mutation
            z = _gauss_rows(rng, drawn, 2 + 2 * even_n)
            g_all = z[:, :1]
            z_sigma = z[:, 2:2 + n]
            z_step = z[:, 2 + even_n:2 + even_n + n]
            which = np.arange(mu - 1, lam) % mu
            s = psig[which] * _exp(taup * g_all + tau * z_sigma)
            s = np.minimum(s, hi - lo)
            sigmas[mu - 1:] = s
            pop[mu - 1:] = parents[which] + s * z_step
            pop = _clip(pop, lo, hi)
            fvals = run.many(pop)
    except _Stop as end:
        return run.outcome(end.reason)
