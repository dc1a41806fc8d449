"""Stochastic derivative-free global optimizers under one budgeted interface.

Three methods: basin hopping with a direction-set (Powell) local minimizer,
controlled random search with local mutation, and a (mu, lambda) evolution
strategy that ranks its offspring by objective value. Each instance owns
all of its mutable state and its own PRNG stream; the shared stop token is
polled before every objective evaluation and before each row of an
initial population is drawn, so cancellation latency is at most one
evaluation or one row and budgets are never exceeded.

Every method runs with fixed parameters (the module constants below), as
parSAT runs each optimizer with its defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import Xoshiro256Plus

__all__ = [
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


class _Stop(Exception):
    """Ends a run from inside an evaluation; carries the reason."""

    def __init__(self, reason: TerminationReason):
        super().__init__(reason.value)
        self.reason = reason


class _Run:
    """Budgeted, cancellable objective handle tracking the running best."""

    def __init__(self, fn, max_evals, stop, on_zero=None):
        if max_evals <= 0:
            raise ValueError("max_evals must be positive")
        self.fn = fn
        self.max_evals = max_evals
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
        v = self.fn(x)
        self.evals += 1
        if v < self.best_value or self.best_x is None:
            self.best_value = v
            self.best_x = np.array(x, dtype=float, copy=True)
        if v == 0.0:
            if self.on_zero is not None:
                self.on_zero(np.array(x, dtype=float, copy=True))
            raise _Stop(TerminationReason.ZERO_FOUND)
        return v

    def poll(self) -> None:
        """Stop the run if the race was cancelled; for work between
        evaluations, such as drawing a population."""
        if self.stop is not None and self.stop.is_set():
            raise _Stop(TerminationReason.CANCELLED)

    def outcome(self, reason: TerminationReason) -> OptOutcome:
        return OptOutcome(self.best_x, self.best_value, self.evals, reason)


def _bounds_arrays(bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(bounds, dtype=float)
    if arr.shape != (2,):
        raise ValueError("bounds must be (lo, hi)")
    if not np.isfinite(arr).all():
        raise ValueError("bounds must be finite")
    if not arr[0] < arr[1]:
        raise ValueError("bounds must satisfy lo < hi")
    return np.full(n, arr[0]), np.full(n, arr[1])


def _gauss_vec(rng: Xoshiro256Plus, n: int) -> np.ndarray:
    out = np.empty(n)
    i = 0
    while i < n:
        u1 = 1.0 - rng.next_double()  # (0, 1], keeps log finite
        u2 = rng.next_double()
        r = math.sqrt(-2.0 * math.log(u1))
        out[i] = r * math.cos(2.0 * math.pi * u2)
        if i + 1 < n:
            out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        i += 2
    return out


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
                t *= (f_start - fx - biggest_dec) ** 2
                t -= biggest_dec * (f_start - f_ext) ** 2
                if t < 0.0:
                    x, fx = _line_min(run, x, d_new, fx)
                    directions[biggest_idx] = directions[-1]
                    directions[-1] = d_new
    return x, fx, False


def powell_minimize(f, x0, cfg: OptimizerConfig, stop=None) -> OptOutcome:
    """Standalone Powell local minimization under the budget interface."""
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
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or len(x0) < 1:
        raise ValueError("x0 must be a non-empty vector")
    n = len(x0)
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
    """CRS2: simplex reflection over a random population, with local mutation."""
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    lo, hi = _bounds_arrays(cfg.bounds, n)
    pop_size = _CRS2_POP_PER_DIM * (n + 1)
    run = _Run(f, cfg.max_evals, stop, on_zero)
    try:
        pop = np.empty((pop_size, n))
        pop[0] = np.clip(x0, lo, hi)
        for i in range(1, pop_size):
            run.poll()
            pop[i] = [rng.uniform(lo[j], hi[j]) for j in range(n)]
        fvals = np.array([run(pop[i]) for i in range(pop_size)])

        while True:
            worst = int(np.argmax(fvals))
            best = int(np.argmin(fvals))
            # n+1 distinct points led by the current best
            pool = list(range(pop_size))
            pool.remove(best)
            chosen = [best]
            for _ in range(n):
                k = rng.below(len(pool))
                chosen.append(pool.pop(k))
            centroid = pop[chosen[:-1]].mean(axis=0)
            trial = 2.0 * centroid - pop[chosen[-1]]

            replaced = False
            if np.all(trial >= lo) and np.all(trial <= hi):
                ft = run(trial)
                if ft < fvals[worst]:
                    pop[worst] = trial
                    fvals[worst] = ft
                    replaced = True
            if not replaced:
                # local mutation: reflect the failed trial about the best
                # point with per-coordinate random weights
                w = np.array([rng.next_double() for _ in range(n)])
                mutated = (1.0 + w) * pop[best] - w * trial
                mutated = np.clip(mutated, lo, hi)
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
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    lo, hi = _bounds_arrays(cfg.bounds, n)
    lam = _ISRES_LAMBDA_PER_DIM * (n + 1)
    mu = round(lam / 7)

    tau = _ISRES_PHI / math.sqrt(2.0 * math.sqrt(n))
    taup = _ISRES_PHI / math.sqrt(2.0 * n)
    sigma0 = (hi - lo) / math.sqrt(n)

    run = _Run(f, cfg.max_evals, stop, on_zero)
    try:
        pop = np.empty((lam, n))
        pop[0] = np.clip(x0, lo, hi)
        for i in range(1, lam):
            run.poll()
            pop[i] = [rng.uniform(lo[j], hi[j]) for j in range(n)]
        sigmas = np.tile(sigma0, (lam, 1))
        fvals = np.array([run(pop[i]) for i in range(lam)])

        while True:
            elite = np.argsort(fvals, kind="stable")[:mu]
            parents = pop[elite]
            psig = sigmas[elite]
            new_pop = np.empty_like(pop)
            new_sig = np.empty_like(sigmas)
            new_f = np.empty(lam)
            for k in range(lam):
                i = k % mu
                if k < mu - 1:
                    # directed differential variation among the elite
                    x = parents[i] + _ISRES_GAMMA * (parents[0] - parents[i + 1])
                    s = psig[i].copy()
                else:
                    g_all = _gauss_vec(rng, 1)[0]
                    s = psig[i] * np.exp(taup * g_all + tau * _gauss_vec(rng, n))
                    s = np.minimum(s, hi - lo)
                    x = parents[i] + s * _gauss_vec(rng, n)
                x = np.clip(x, lo, hi)
                new_pop[k] = x
                new_sig[k] = s
                new_f[k] = run(x)
            pop, sigmas, fvals = new_pop, new_sig, new_f
    except _Stop as end:
        return run.outcome(end.reason)
