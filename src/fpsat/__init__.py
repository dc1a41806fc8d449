"""Floating-point satisfiability via a portfolio of global optimizers.

Pipeline: parse an SMT-LIB2 script (inlining definitions as they are
parsed), simplify and normalize to negation-flagged NNF, compile it to a
non-negative distance objective whose exact zeros are the satisfying
assignments (`and` a sum, `or` a zero-propagating product), then race
stochastic minimizers on it. A zero found is a verified model; otherwise
the verdict is unknown.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import errors, kernels
from .errors import FpsatError
from .fp import FP32, FP64, FPValue, Sort
from .normalizer import (
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
from .terms import Compare, Script, Term, term_to_smt2

# open the native kernels once, before the first evaluation
kernels.load()

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
    "push_negations",
    "to_cnf",
    "simplify",
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
    clauses: tuple[tuple[Compare, ...], ...]  # the NNF's CNF, for `--dump-cnf`
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
        program = compile_objective(nnf, varmap)
    except RecursionError:
        raise errors.InputError(
            f"input nests too deeply (Python recursion limit {sys.getrecursionlimit()})"
        ) from None
    return Problem(script, formula, varmap, clauses, program)


def load_problem(path) -> Problem:
    """Read a UTF-8 file and build its problem. Bytes that are not UTF-8
    are an `InputError` at their line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start].decode("utf-8")
        pos = errors.SourcePosition.at(head, len(head))
        raise errors.InputError(f"byte {exc.object[exc.start]:#04x} is not UTF-8 "
                                f"({exc.reason})", pos) from None
    return build_problem(text)
