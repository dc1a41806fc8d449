"""Typed AST for the supported quantifier-free floating-point fragment.

Terms are hash-consed (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", 2006): structurally equal nodes are one object, so
equality and hashing are identity and cost O(1), and each node stores
its sort once, at construction. A pass that memoizes per node keeps the
input's sharing in its output and runs in time linear in the number of
distinct nodes. Evaluation semantics are always tree semantics.
"""

from __future__ import annotations

import operator
import threading
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

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

    # Members are singletons, so the identity hash agrees with equality; it
    # runs in C, where Enum's hashes the name in Python. Every node with an
    # operator is hashed by it when interned.
    __hash__ = object.__hash__


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

    __hash__ = object.__hash__  # as CmpOp's


class Term:
    """Base class of the interned nodes; every node carries its sort.

    Construct nodes only through their classes, which intern them: a node
    whose class and fields match a live node is that node. Nodes are
    immutable, and equality and hashing are identity.
    """

    __slots__ = ("sort", "__weakref__")
    _fields: tuple[str, ...] = ()
    sort: Sort

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # unpickling and copying go through the constructor, so they re-intern
        return type(self), tuple(getattr(self, f) for f in self._fields)


# The intern table maps a node's class and fields to a weak reference to
# the node, so a node lives only as long as something outside the table
# refers to it, and its entry goes when it dies. The key holds the node's
# children, so they live as long as the node. (A WeakValueDictionary does
# the same, but its Python-level lookups and entries cost about a tenth
# of the time to build a small query.)
_TABLE: dict[tuple, weakref.ref] = {}
# Reentrant: a node can die, and its entry be dropped, while this thread
# holds the lock in `_intern`.
_TABLE_LOCK = threading.RLock()
_set_field = object.__setattr__


def _live(key: tuple):
    ref = _TABLE.get(key)
    return None if ref is None else ref()


def _intern(sort: Sort, *key):
    """The live node for `key`, the node's class followed by its fields;
    one is made, with `sort`, if there is none."""
    node = _live(key)  # a live entry is never replaced, so no lock is needed
    if node is not None:
        return node
    with _TABLE_LOCK:  # two threads must not both make the node
        node = _live(key)
        if node is None:
            cls = key[0]
            node = object.__new__(cls)
            for name, value in zip(cls._fields, key[1:]):
                _set_field(node, name, value)
            _set_field(node, "sort", sort)
            _TABLE[key] = weakref.ref(node, partial(_forget, key))
    return node


def _forget(key: tuple, ref: weakref.ref) -> None:
    with _TABLE_LOCK:
        if _TABLE.get(key) is ref:  # not a newer node made under this key
            del _TABLE[key]


class BoolConst(Term):
    _fields = ("value",)
    __slots__ = _fields
    value: bool

    def __new__(cls, value: bool):
        return _intern(BOOL, cls, value)


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class BoolNot(Term):
    _fields = ("child",)
    __slots__ = _fields
    child: Term

    def __new__(cls, child: Term):
        return _intern(BOOL, cls, child)


class BoolAnd(Term):
    _fields = ("children",)
    __slots__ = _fields
    children: tuple[Term, ...]

    def __new__(cls, children: tuple[Term, ...]):
        return _intern(BOOL, cls, children)


class BoolOr(Term):
    _fields = ("children",)
    __slots__ = _fields
    children: tuple[Term, ...]

    def __new__(cls, children: tuple[Term, ...]):
        return _intern(BOOL, cls, children)


class Compare(Term):
    """An IEEE comparison; `negated` records a logical negation around it.

    The flag is never folded into the operator: under NaN, `not (a < b)`
    differs from `a >= b`.
    """

    _fields = ("op", "lhs", "rhs", "negated")
    __slots__ = _fields
    op: CmpOp
    lhs: Term
    rhs: Term
    negated: bool

    def __new__(cls, op: CmpOp, lhs: Term, rhs: Term, negated: bool = False):
        return _intern(BOOL, cls, op, lhs, rhs, negated)


class FPConst(Term):
    _fields = ("value",)
    __slots__ = _fields
    value: FPValue

    def __new__(cls, value: FPValue):
        return _intern(value.sort, cls, value)


class FPVar(Term):
    _fields = ("name", "var_sort")
    __slots__ = _fields
    name: str
    var_sort: Sort

    def __new__(cls, name: str, var_sort: Sort):
        return _intern(var_sort, cls, name, var_sort)


class FPArith(Term):
    _fields = ("op", "args")
    __slots__ = _fields
    op: ArithOp
    args: tuple[Term, ...]

    def __new__(cls, op: ArithOp, args: tuple[Term, ...]):
        return _intern(args[0].sort, cls, op, args)


class Ite(Term):
    _fields = ("cond", "then", "orelse")
    __slots__ = _fields
    cond: Term
    then: Term
    orelse: Term

    def __new__(cls, cond: Term, then: Term, orelse: Term):
        return _intern(then.sort, cls, cond, then, orelse)


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
    body_form: object


@dataclass
class Script:
    """A parsed input script: declarations, definitions, and assertions."""

    logic: str = ""
    assertions: list[Term] = field(default_factory=list)
    declared_vars: dict[str, Sort] = field(default_factory=dict)  # ordered
    definitions: dict[str, Definition] = field(default_factory=dict)
    has_check_sat: bool = False


def free_vars(term: Term) -> dict[str, Sort]:
    """Ordered map of the free variables of a term (first occurrence order)."""
    acc: dict[str, Sort] = {}
    _collect_vars(term, acc, set())
    return acc


def _collect_vars(term: Term, acc: dict[str, Sort], seen: set) -> None:
    # a node seen before adds no variable that its first visit did not
    if term in seen:
        return
    seen.add(term)
    if isinstance(term, FPVar):
        prev = acc.get(term.name)
        if prev is not None and prev != term.var_sort:
            raise SortError(f"variable {term.name} used at two sorts")
        acc.setdefault(term.name, term.var_sort)
    elif isinstance(term, BoolNot):
        _collect_vars(term.child, acc, seen)
    elif isinstance(term, (BoolAnd, BoolOr)):
        for c in term.children:
            _collect_vars(c, acc, seen)
    elif isinstance(term, Compare):
        _collect_vars(term.lhs, acc, seen)
        _collect_vars(term.rhs, acc, seen)
    elif isinstance(term, FPArith):
        for c in term.args:
            _collect_vars(c, acc, seen)
    elif isinstance(term, Ite):
        _collect_vars(term.cond, acc, seen)
        _collect_vars(term.then, acc, seen)
        _collect_vars(term.orelse, acc, seen)


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
