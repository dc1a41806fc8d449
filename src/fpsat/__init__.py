"""Floating-point satisfiability via a portfolio of global optimizers.

Pipeline: parse an SMT-LIB2 script (inlining definitions as they are
parsed), normalize to negation-flagged CNF, compile a non-negative
distance objective whose exact zeros are the satisfying assignments,
then race stochastic minimizers on it. A zero found is a verified model; otherwise the
verdict is unknown.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import errors
from .errors import FpsatError
from .fp import FP32, FP64, FPValue, Sort
from .normalizer import (
    ClauseSet,
    clause_set_as_formula,
    clause_set_to_sexpr,
    push_negations,
    simplify,
    to_cnf,
)
from .objective import (
    ObjectiveProgram,
    atom_distance,
    compile_objective,
    render_objective_source,
    semantic_eval,
    theta,
)
from .optimizers import (
    OptimizerConfig,
    OptOutcome,
    TerminationReason,
    basin_hopping,
    crs2_minimize,
    isres_minimize,
    powell_minimize,
)
from .parser import decode_fp_literal, expand_definitions, parse_script
from .portfolio import (
    Model,
    PortfolioConfig,
    SolveOutcome,
    extract_model,
    random_start,
    solve,
    verify_model,
)
from .rng import Xoshiro256Plus, derive_seed, splitmix64_next
from .terms import Script, Term, term_to_smt2

__version__ = "0.1.0"

__all__ = [
    "errors",
    "FpsatError",
    "Sort",
    "FP32",
    "FP64",
    "FPValue",
    "Script",
    "Term",
    "term_to_smt2",
    "parse_script",
    "decode_fp_literal",
    "expand_definitions",
    "ClauseSet",
    "push_negations",
    "to_cnf",
    "simplify",
    "clause_set_as_formula",
    "clause_set_to_sexpr",
    "theta",
    "atom_distance",
    "ObjectiveProgram",
    "compile_objective",
    "semantic_eval",
    "render_objective_source",
    "TerminationReason",
    "OptOutcome",
    "OptimizerConfig",
    "powell_minimize",
    "basin_hopping",
    "crs2_minimize",
    "isres_minimize",
    "Xoshiro256Plus",
    "splitmix64_next",
    "derive_seed",
    "PortfolioConfig",
    "Model",
    "SolveOutcome",
    "random_start",
    "solve",
    "extract_model",
    "verify_model",
    "Problem",
    "build_problem",
    "load_problem",
]


@dataclass
class Problem:
    """Everything derived from one input script, ready to solve."""

    script: Script
    formula: Term
    varmap: list[tuple[str, Sort]]
    clauses: ClauseSet
    program: ObjectiveProgram


def build_problem(text: str) -> Problem:
    """Run the full frontend pipeline on SMT-LIB2 text.

    The passes recurse over the input's nesting, so input nested deeper
    than the interpreter's recursion limit allows is an `InputError`.
    """
    try:
        script = parse_script(text)
        formula, varmap = expand_definitions(script)
        simplified = simplify(formula)
        nnf = push_negations(simplified)
        clauses = to_cnf(nnf)
        program = compile_objective(clauses, varmap)
    except RecursionError:
        raise errors.InputError(
            f"input nests too deeply (Python recursion limit {sys.getrecursionlimit()})"
        ) from None
    return Problem(script, formula, varmap, clauses, program)


def load_problem(path) -> Problem:
    """Read a file and build its problem."""
    with open(path, "r", encoding="utf-8") as fh:
        return build_problem(fh.read())
