"""Seeded query generators for the three benchmark workloads.

Each generator returns `Query` objects holding the SMT-LIB2 text that the
program receives and what the benchmark needs to check the answer: the
generated formula (checked with the independent evaluator in `ieee`), a
hand-written predicate for a bundled corpus file, or nothing for queries
that are infeasible by construction (checked by properties of the method
in `run.py`). Only Python's `random.Random(seed)` and numpy rounding are
used, so the same seed gives the same text on every machine.

The generated families follow XSat (Fu & Su, CAV 2016) and JFS (Liew et
al., ESEC/FSE 2019): the bundled corpus is 1-2 dimensional, so it cannot
show how the layers scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ieee
from ieee import F32, F64, arith, cmp, conj, const, disj, ite, var

CORPUS = Path(__file__).resolve().parent.parent / "src" / "fpsat" / "corpus"

# Per-instance evaluation budgets. RACE_BUDGET is far above what any sat
# query needs (basin hopping decides race-sat queries in about 120
# evaluations, shared-dag ones in one); BURN_BUDGET is what each infeasible
# query burns in every one of its three instances.
RACE_BUDGET = 200_000
BURN_BUDGET = 1_000


@dataclass
class Query:
    name: str
    family: str
    text: str
    expect: str  # "sat" | "unknown"
    max_evals: int
    # sat queries: the generated formula, or a predicate over the model
    formula: ieee.Node | None = None
    predicate: Callable[[dict[str, float]], bool] | None = None
    planted: dict[str, float] | None = None

    def accepts(self, binding: dict[str, float]) -> bool:
        """Independent check of a model (name -> float)."""
        if self.formula is not None:
            return ieee.holds(self.formula, binding)
        return bool(self.predicate(binding))


def _round(value: float, width: int) -> float:
    return float(np.float32(value) if width == F32 else np.float64(value))


def _coef(rng: random.Random, width: int) -> float:
    return _round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0), width)


def _band(rng, expr, planted, width, rel):
    """`lo <= expr <= hi` around the planted value of `expr`."""
    v = float(ieee.evaluate(expr, planted))
    half = rel * max(abs(v), 1.0)
    lo = const(v - half * rng.uniform(0.2, 1.0), width)
    hi = const(v + half * rng.uniform(0.2, 1.0), width)
    return [cmp("leq", lo, expr), cmp("leq", expr, hi)]


def _band_over(rng, expr, points, width):
    """`lo <= expr <= hi` holding at every one of `points`."""
    values = [float(ieee.evaluate(expr, p)) for p in points]
    lo = const(min(values) - rng.uniform(0.1, 1.0) * max(1.0, abs(min(values))), width)
    hi = const(max(values) + rng.uniform(0.1, 1.0) * max(1.0, abs(max(values))), width)
    return [cmp("leq", lo, expr), cmp("leq", expr, hi)]


def _start_corners(names):
    """The corners of the optimizers' default start box [-0.5, 0.5]^n."""
    out = [{}]
    for n in names:
        out = [dict(c, **{n: s}) for c in out for s in (-0.5, 0.5)]
    return out


def _fold_add(terms):
    out = terms[0]
    for t in terms[1:]:
        out = arith("add", out, t)
    return out


def _asserting(name, family, declared, atoms, expect, budget, planted=None):
    formula = conj(*atoms)
    if planted is not None and not ieee.holds(formula, planted):
        raise AssertionError(f"{name}: planted solution does not hold")
    body = [f"(assert {ieee.render(a)})" for a in atoms]
    text = ieee.script(declared, body, f"{family}, generated")
    return Query(name, family, text, expect, budget, formula=formula,
                 planted=planted)


def _planted(rng, names_widths, lo=-2.0, hi=2.0):
    return {n: _round(rng.uniform(lo, hi), w) for n, w in names_widths}


# --------------------------------------------------------------------------
# race-sat: planted band systems
# --------------------------------------------------------------------------


def band_system(rng, name, n, width, quadratic):
    """One band per variable on `a*x` or `b*x*x + a*x`, around a planted
    point. Bands on sums couple the variables and make the time to the
    first zero heavy-tailed (1 ms to over 20 s on one seed), which no
    median over a few hundred queries can hold steady; see README.md."""
    decl = [(f"x{i}", width) for i in range(n)]
    xs = [var(v, width) for v, _ in decl]
    planted = _planted(rng, decl)
    atoms = []
    for x in xs:
        expr = arith("mul", const(_coef(rng, width), width), x)
        if quadratic:
            sq = arith("mul", x, x)
            expr = arith("add", arith("mul", const(_coef(rng, width), width), sq), expr)
        atoms += _band(rng, expr, planted, width, 10.0 ** rng.uniform(-6, -2))
    family = "quad-band" if quadratic else "lin-band"
    return _asserting(name, family, decl, atoms, "sat", RACE_BUDGET, planted)


def _corpus_predicates():
    """Hand-written truth for each satisfiable bundled corpus file."""
    f32, f64 = np.float32, np.float64

    def exact32(v):
        return f32(v) == v or math.isnan(v)

    return {
        "branching.smt2": lambda m: exact32(m["x"]) and abs(f32(m["x"])) > f32(3.0),
        "conjunction2d.smt2": lambda m: exact32(m["x"]) and exact32(m["y"])
        and f32(m["x"]) >= f32(0.25) and f32(m["x"]) + f32(m["y"]) <= f32(1.0),
        "disjunction.smt2": lambda m: m["x"] < -1.0 or m["x"] > 1.0,
        "equality32.smt2": lambda m: m["x"] == 2.0,
        "listing1.smt2": lambda m: exact32(m["x"])
        and f32(-1.0) * ((f32(m["x"]) + f32(2.0)) * (f32(m["x"]) + f32(2.0)))
        + f32(-2.0) >= f32(-2.0),
        "mixed_width.smt2": lambda m: exact32(m["xf"]) and m["xf"] < 0.0
        and m["yd"] != 0.5,
        "negated_guard.smt2": lambda m: exact32(m["x"]) and not (m["x"] < 1.0),
        "quadratic64.smt2": lambda m: f64(m["x"]) * f64(m["x"]) >= 4.0,
    }


CORPUS_SAT = tuple(sorted(_corpus_predicates()))
CORPUS_INFEASIBLE = ("infeasible_abs.smt2", "infeasible_box.smt2",
                     "infeasible_cycle.smt2", "infeasible_irreflexive.smt2")


def corpus_sat_queries() -> list[Query]:
    preds = _corpus_predicates()
    return [Query(f"corpus/{f}", "corpus-sat", (CORPUS / f).read_text(),
                  "sat", RACE_BUDGET, predicate=preds[f]) for f in CORPUS_SAT]


def race_sat(seed: int) -> list[Query]:
    """48 queries: 40 band systems, 8 over 2 variables and 32 over 3,
    linear and quadratic, binary32 and binary64 in turn, then the 8 corpus
    sat files. Basin hopping decides a 3-variable system in about 120
    evaluations, within its first 5 ms slice of the interpreter lock;
    larger systems cross that slice on a slow host and then wait for two
    slices of the other instances (README.md)."""
    rng = random.Random(f"race-sat/{seed}")
    out = []
    for k in range(40):
        n = 2 if k % 5 == 0 else 3
        width = F32 if k % 2 == 0 else F64
        quadratic = (k // 2) % 2 == 1
        out.append(band_system(rng, f"band-{k:02d}", n, width, quadratic))
    return out + corpus_sat_queries()


# --------------------------------------------------------------------------
# budget-burn: infeasible by construction
# --------------------------------------------------------------------------


def order_cycle(rng, name, n, width):
    """x0 < x1 < ... < x{n-1} < x0; with n == 1 this is x0 < x0."""
    decl = [(f"x{i}", width) for i in range(n)]
    xs = [var(v, width) for v, _ in decl]
    atoms = [cmp("lt", xs[i], xs[(i + 1) % n]) for i in range(n)]
    return _asserting(name, "order-cycle", decl, atoms, "unknown", BURN_BUDGET)


def empty_interval(rng, name, n, width):
    """A weighted sum held at or above `hi` and at or below `lo < hi`."""
    decl = [(f"x{i}", width) for i in range(n)]
    xs = [var(v, width) for v, _ in decl]
    total = _fold_add([arith("mul", const(_coef(rng, width), width), x) for x in xs])
    lo = rng.uniform(-4.0, 4.0)
    hi = lo + rng.uniform(0.25, 2.0)
    atoms = [cmp("geq", total, const(hi, width)), cmp("leq", total, const(lo, width))]
    return _asserting(name, "empty-interval", decl, atoms, "unknown", BURN_BUDGET)


def abs_below_negzero(rng, name, n, width):
    """|sum| < -0 next to satisfiable bands on each variable."""
    decl = [(f"x{i}", width) for i in range(n)]
    xs = [var(v, width) for v, _ in decl]
    planted = _planted(rng, decl)
    atoms = []
    for x in xs[1:]:
        atoms += _band(rng, x, planted, width, 0.1)
    total = _fold_add(xs)
    atoms.append(cmp("lt", ieee.fabs(total), const(-0.0, width)))
    return _asserting(name, "abs-below-negzero", decl, atoms, "unknown", BURN_BUDGET)


def contradictory_bands(rng, name, n, width):
    """Two disjoint bands on the same weighted sum, term for term."""
    decl = [(f"x{i}", width) for i in range(n)]
    xs = [var(v, width) for v, _ in decl]
    total = _fold_add([arith("mul", const(_coef(rng, width), width), x) for x in xs])
    c = rng.uniform(-4.0, 4.0)
    d = rng.uniform(0.1, 1.0)
    atoms = [cmp("geq", total, const(c, width)),
             cmp("leq", total, const(c + d, width)),
             cmp("geq", total, const(c + 2 * d, width)),
             cmp("leq", total, const(c + 3 * d, width))]
    return _asserting(name, "contradictory-bands", decl, atoms, "unknown", BURN_BUDGET)


INFEASIBLE_FAMILIES = (order_cycle, empty_interval, abs_below_negzero,
                       contradictory_bands)


def budget_burn(seed: int) -> list[Query]:
    """40 queries: 36 generated, the four families in turn, 32 of them
    over 1-8 variables (four of each size; binary32 for odd sizes,
    binary64 for even ones) and 4 more over 1, 3, 5 and 7 variables; then
    the 4 infeasible corpus files."""
    rng = random.Random(f"budget-burn/{seed}")
    out = []
    for k in range(36):
        family = INFEASIBLE_FAMILIES[k % 4]
        n = 1 + (k // 4) % 8 if k < 32 else 1 + (k - 32) * 2
        width = F32 if (k // 4) % 2 == 0 else F64
        out.append(family(rng, f"{family.__name__}-{k:02d}", n, width))
    for f in CORPUS_INFEASIBLE:
        out.append(Query(f"corpus/{f}", "corpus-infeasible",
                         (CORPUS / f).read_text(), "unknown", BURN_BUDGET))
    return out


# --------------------------------------------------------------------------
# shared-dag: shared structure in the text
# --------------------------------------------------------------------------
#
# Every shared-dag formula holds at the planted point and on the whole
# start box [-0.5, 0.5]^n (the chains are monotone in each variable, so
# its corners bound them), so the first evaluation is a zero. The
# workload measures the frontend and the oracle; a longer search would
# make the number of evaluations, and with it `evals_per_s`, depend on
# the seed's instances and on thread scheduling.


def let_chain(rng, name, depth, width):
    """a0 = x + y, a_i = a_{i-1} + a_{i-1} as nested `let`s; a band on
    a_depth. The text is linear in depth, the expanded tree is not."""
    decl = [("x", width), ("y", width)]
    planted = _planted(rng, decl)
    nodes = [arith("add", var("x", width), var("y", width))]
    for _ in range(depth):
        nodes.append(arith("add", nodes[-1], nodes[-1]))
    atoms = _band_over(rng, nodes[-1], [planted] + _start_corners("xy"), width)
    names = {id(nodes[-1]): f"a{depth}"}
    body = f"(and {ieee.render(atoms[0], names)} {ieee.render(atoms[1], names)})"
    for i in range(depth, 0, -1):
        body = (f"(let ((a{i} (fp.add RNE a{i - 1} a{i - 1})))\n  {body})")
    body = f"(let ((a0 (fp.add RNE x y)))\n  {body})"
    text = ieee.script(decl, [f"(assert {body})"], "let-chain, generated")
    return _shared(name, "let-chain", text, conj(*atoms), planted)


def define_chain(rng, name, depth, width):
    """d0 = k0 * x, d_i = k_i * d_{i-1} - d_{i-1} as nullary define-funs;
    a band on d_depth."""
    decl = [("x", width)]
    planted = _planted(rng, decl)
    x = var("x", width)
    nodes = [arith("mul", const(_coef(rng, width), width), x)]
    defs = [f"(define-fun d0 () {ieee.sort_text(width)} {ieee.render(nodes[0])})"]
    for i in range(1, depth + 1):
        k = const(_round(rng.uniform(1.6, 2.4), width), width)
        prev = nodes[-1]
        node = arith("sub", arith("mul", k, prev), prev)
        names = {id(prev): f"d{i - 1}"}
        defs.append(f"(define-fun d{i} () {ieee.sort_text(width)} "
                    f"{ieee.render(node, names)})")
        nodes.append(node)
    atoms = _band_over(rng, nodes[-1], [planted] + _start_corners("x"), width)
    names = {id(nodes[-1]): f"d{depth}"}
    body = defs + [f"(assert {ieee.render(a, names)})" for a in atoms]
    text = ieee.script(decl, body, "define-fun chain, generated")
    return _shared(name, "define-chain", text, conj(*atoms), planted)


def ite_path(rng, name, depth, width):
    """y0 = x0, y_i = ite(x_i < t_i, y_{i-1} + c_i, y_{i-1} - c_i) as nested
    `let`s; a lower bound on y_depth that every path clears from the
    start box and from the planted point."""
    decl = [(f"x{i}", width) for i in range(depth + 1)]
    planted = _planted(rng, decl)
    xs = [var(v, width) for v, _ in decl]
    nodes = [xs[0]]
    for i in range(1, depth + 1):
        t = const(rng.uniform(-1.0, 1.0), width)
        c = const(rng.uniform(0.5, 1.5), width)
        prev = nodes[-1]
        nodes.append(ite(cmp("lt", xs[i], t), arith("add", prev, c),
                         arith("sub", prev, c)))
    v = float(ieee.evaluate(nodes[-1], planted))
    reach = sum(float(ieee.evaluate(n.args[1].args[1], {})) for n in nodes[1:])
    atom = cmp("geq", nodes[-1], const(min(v, -0.5 - reach) - 1.0, width))
    names = {id(nodes[-1]): f"y{depth}"}
    body = ieee.render(atom, names)
    for i in range(depth, 0, -1):
        inner = ieee.render(nodes[i], {id(nodes[i - 1]): f"y{i - 1}"})
        body = f"(let ((y{i} {inner}))\n  {body})"
    body = f"(let ((y0 x0))\n  {body})"
    text = ieee.script(decl, [f"(assert {body})"], "ite path, generated")
    return _shared(name, "ite-path", text, atom, planted)


def or_of_ands(rng, name, k, width):
    """(or (and lo_i <= x_j  x_j + x_m <= hi_i) ...) with k disjuncts: its
    CNF has 2^k clauses. One disjunct holds at the planted point and on
    the whole start box."""
    n = 3
    decl = [(f"x{i}", width) for i in range(n)]
    xs = [var(v, width) for v, _ in decl]
    planted = _planted(rng, decl)
    disjuncts = []
    for i in range(k):
        a, b = xs[i % n], xs[(i + 1) % n]
        total = arith("add", a, b)
        lo = min(float(ieee.evaluate(a, planted)), -0.5) - rng.uniform(0.1, 1.0)
        hi = max(float(ieee.evaluate(total, planted)), 1.0) + rng.uniform(0.1, 1.0)
        if i != k // 2:
            # every other disjunct holds nowhere near the start box
            lo, hi = lo + rng.uniform(6.0, 8.0), hi - rng.uniform(6.0, 8.0)
        disjuncts.append(conj(cmp("leq", const(lo, width), a),
                              cmp("leq", total, const(hi, width))))
    atom = disj(*disjuncts)
    text = ieee.script(decl, [f"(assert {ieee.render(atom)})"], "or-of-ands, generated")
    return _shared(name, "or-of-ands", text, atom, planted)


def _shared(name, family, text, formula, planted):
    if not ieee.holds(formula, planted):
        raise AssertionError(f"{name}: planted solution does not hold")
    return Query(name, family, text, "sat", RACE_BUDGET, formula=formula,
                 planted=planted)


SHARED_FAMILIES = {
    "let-chain": (let_chain, (8, 9, 10, 11, 12)),
    "define-chain": (define_chain, (8, 9, 10, 11, 12)),
    "ite-path": (ite_path, (6, 7, 8, 9, 10)),
    "or-of-ands": (or_of_ands, (6, 7, 8, 9, 10)),
}


def shared_dag(seed: int) -> list[Query]:
    """40 queries: each family at each of its five sizes, both widths."""
    rng = random.Random(f"shared-dag/{seed}")
    out = []
    for width in (F32, F64):
        for family, (make, sizes) in SHARED_FAMILIES.items():
            for size in sizes:
                out.append(make(rng, f"{family}-{size}-{width}", size, width))
    return out


GENERATORS = {"race-sat": race_sat, "budget-burn": budget_burn,
              "shared-dag": shared_dag}


def generate(workload: str, seed: int) -> list[Query]:
    return GENERATORS[workload](seed)
