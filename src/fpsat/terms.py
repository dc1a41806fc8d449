"""Typed AST for the supported quantifier-free floating-point fragment.

Nodes are immutable; structural equality and hashing enable subterm
sharing, but evaluation semantics are always tree semantics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import SortError
from .fp import BOOL, FPValue, Sort

__all__ = [
    "CmpOp",
    "COMPARE",
    "ArithOp",
    "Term",
    "BoolConst",
    "BoolNot",
    "BoolAnd",
    "BoolOr",
    "Compare",
    "FPConst",
    "FPVar",
    "FPArith",
    "Ite",
    "Script",
    "Definition",
    "free_vars",
    "term_to_smt2",
]


class CmpOp(Enum):
    LT = "lt"
    LEQ = "leq"
    GT = "gt"
    GEQ = "geq"
    EQ = "eq"
    NEQ = "neq"


# IEEE comparison of two floats (false whenever an operand is NaN, except
# NEQ). The constant folder and the objective use this table; the oracle
# `semantic_eval` keeps its own.
COMPARE = {
    CmpOp.LT: operator.lt,
    CmpOp.LEQ: operator.le,
    CmpOp.GT: operator.gt,
    CmpOp.GEQ: operator.ge,
    CmpOp.EQ: operator.eq,
    CmpOp.NEQ: operator.ne,
}


class ArithOp(Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    ABS = "abs"


@dataclass(frozen=True)
class Term:
    """Base class; every node carries its sort."""

    @property
    def sort(self) -> Sort:
        raise NotImplementedError


@dataclass(frozen=True)
class BoolConst(Term):
    value: bool

    @property
    def sort(self) -> Sort:
        return BOOL


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class BoolNot(Term):
    child: Term

    @property
    def sort(self) -> Sort:
        return BOOL


@dataclass(frozen=True)
class BoolAnd(Term):
    children: tuple[Term, ...]

    @property
    def sort(self) -> Sort:
        return BOOL


@dataclass(frozen=True)
class BoolOr(Term):
    children: tuple[Term, ...]

    @property
    def sort(self) -> Sort:
        return BOOL


@dataclass(frozen=True)
class Compare(Term):
    """An IEEE comparison; `negated` records a logical negation around it.

    The flag is never folded into the operator: under NaN, `not (a < b)`
    differs from `a >= b`.
    """

    op: CmpOp
    lhs: Term
    rhs: Term
    negated: bool = False

    @property
    def sort(self) -> Sort:
        return BOOL


@dataclass(frozen=True)
class FPConst(Term):
    value: FPValue

    @property
    def sort(self) -> Sort:
        return self.value.sort


@dataclass(frozen=True)
class FPVar(Term):
    name: str
    var_sort: Sort

    @property
    def sort(self) -> Sort:
        return self.var_sort


@dataclass(frozen=True)
class FPArith(Term):
    op: ArithOp
    args: tuple[Term, ...]

    @cached_property  # uncached, each read walks down the whole args[0] chain
    def sort(self) -> Sort:
        return self.args[0].sort


@dataclass(frozen=True)
class Ite(Term):
    cond: Term
    then: Term
    orelse: Term

    @cached_property
    def sort(self) -> Sort:
        return self.then.sort


@dataclass(frozen=True)
class Definition:
    """A `define-fun`, inlined wherever it is referenced.

    A nullary definition's `body` is the term each reference reuses. A
    definition with parameters is rebuilt from `body_form`, its source
    s-expression, at each application; its `body` has the parameters as
    free variables.
    """

    name: str
    params: tuple[tuple[str, Sort], ...]
    body: Term
    result_sort: Sort
    body_form: object


@dataclass
class Script:
    """A parsed input script: declarations, definitions, and assertions."""

    logic: str = ""
    assertions: list[Term] = field(default_factory=list)
    declared_vars: dict[str, Sort] = field(default_factory=dict)  # ordered
    definitions: dict[str, Definition] = field(default_factory=dict)
    has_check_sat: bool = False


def free_vars(term: Term, acc: dict[str, Sort] | None = None) -> dict[str, Sort]:
    """Ordered map of the free variables of a term (first occurrence order)."""
    if acc is None:
        acc = {}
    if isinstance(term, FPVar):
        prev = acc.get(term.name)
        if prev is not None and prev != term.var_sort:
            raise SortError(f"variable {term.name} used at two sorts")
        acc.setdefault(term.name, term.var_sort)
    elif isinstance(term, BoolNot):
        free_vars(term.child, acc)
    elif isinstance(term, (BoolAnd, BoolOr)):
        for c in term.children:
            free_vars(c, acc)
    elif isinstance(term, Compare):
        free_vars(term.lhs, acc)
        free_vars(term.rhs, acc)
    elif isinstance(term, FPArith):
        for c in term.args:
            free_vars(c, acc)
    elif isinstance(term, Ite):
        free_vars(term.cond, acc)
        free_vars(term.then, acc)
        free_vars(term.orelse, acc)
    return acc


_CMP_SYMBOL = {
    CmpOp.LT: "fp.lt",
    CmpOp.LEQ: "fp.leq",
    CmpOp.GT: "fp.gt",
    CmpOp.GEQ: "fp.geq",
    CmpOp.EQ: "fp.eq",
    CmpOp.NEQ: "distinct",
}

_ARITH_SYMBOL = {
    ArithOp.ADD: "fp.add",
    ArithOp.SUB: "fp.sub",
    ArithOp.MUL: "fp.mul",
    ArithOp.DIV: "fp.div",
    ArithOp.NEG: "fp.neg",
    ArithOp.ABS: "fp.abs",
}

_ROUNDED = {ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV}


def fp_const_to_smt2(value: FPValue) -> str:
    eb, sb = (8, 24) if value.width == 32 else (11, 53)
    return f"((_ to_fp {eb} {sb}) {value.hex_literal()})"


def term_to_smt2(term: Term) -> str:
    """Render a term back to SMT-LIB2 text; re-parsing yields an equal term."""
    if isinstance(term, BoolConst):
        return "true" if term.value else "false"
    if isinstance(term, BoolNot):
        return f"(not {term_to_smt2(term.child)})"
    if isinstance(term, BoolAnd):
        return "(and " + " ".join(term_to_smt2(c) for c in term.children) + ")"
    if isinstance(term, BoolOr):
        return "(or " + " ".join(term_to_smt2(c) for c in term.children) + ")"
    if isinstance(term, Compare):
        sym = _CMP_SYMBOL[term.op]
        text = f"({sym} {term_to_smt2(term.lhs)} {term_to_smt2(term.rhs)})"
        return f"(not {text})" if term.negated else text
    if isinstance(term, FPConst):
        return fp_const_to_smt2(term.value)
    if isinstance(term, FPVar):
        return term.name
    if isinstance(term, FPArith):
        sym = _ARITH_SYMBOL[term.op]
        args = " ".join(term_to_smt2(a) for a in term.args)
        if term.op in _ROUNDED:
            return f"({sym} RNE {args})"
        return f"({sym} {args})"
    if isinstance(term, Ite):
        return (
            f"(ite {term_to_smt2(term.cond)} "
            f"{term_to_smt2(term.then)} {term_to_smt2(term.orelse)})"
        )
    raise TypeError(f"unprintable term {term!r}")
