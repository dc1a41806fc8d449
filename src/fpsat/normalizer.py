"""Simplification, negation normal form, and CNF over comparison literals.

Negation is never eliminated by flipping comparison operators (that would
be wrong for NaN); it is recorded as the `negated` flag of the `Compare`
instead. The CNF is plain distributive, capped against pathological
blowup; the objective is compiled from the NNF, and the CNF only serves
`--dump-cnf`.
"""

from __future__ import annotations

from .errors import CnfBlowupError
from .terms import (
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    COMPARE,
    Compare,
    FALSE,
    FPArith,
    FPConst,
    FPVar,
    Ite,
    TRUE,
    Term,
    term_to_smt2,
)

__all__ = [
    "push_negations",
    "to_cnf",
    "simplify",
    "clause_set_to_sexpr",
]

DEFAULT_CLAUSE_CAP = 10**6


# --------------------------------------------------------------------------
# NNF with negation flags
# --------------------------------------------------------------------------


def push_negations(formula: Term, negate: bool = False) -> Term:
    """Convert to NNF; negations land in Compare flags, never in operators.

    Memoized per (node, negate), so shared subterms stay shared.
    """
    return _nnf(formula, negate, {})


def _nnf(formula: Term, negate: bool, memo: dict) -> Term:
    key = (formula, negate)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(formula, BoolConst):
        out = BoolConst(formula.value != negate)
    elif isinstance(formula, BoolNot):
        out = _nnf(formula.child, not negate, memo)
    elif isinstance(formula, BoolAnd):
        children = tuple(_nnf(c, negate, memo) for c in formula.children)
        out = BoolOr(children) if negate else BoolAnd(children)
    elif isinstance(formula, BoolOr):
        children = tuple(_nnf(c, negate, memo) for c in formula.children)
        out = BoolAnd(children) if negate else BoolOr(children)
    elif isinstance(formula, Compare):
        out = Compare(formula.op, _normalize_fp(formula.lhs, memo),
                      _normalize_fp(formula.rhs, memo), formula.negated != negate)
    else:
        raise TypeError(f"cannot normalize {formula!r}")
    memo[key] = out
    return out


def _normalize_fp(term: Term, memo: dict) -> Term:
    """Normalize Boolean content buried inside FP expressions (Ite conditions).

    Shares `_nnf`'s memo, keyed by the node alone: FP nodes and Boolean
    nodes are disjoint.
    """
    if isinstance(term, (FPConst, FPVar)):
        return term
    out = memo.get(term)
    if out is not None:
        return out
    if isinstance(term, FPArith):
        out = FPArith(term.op, tuple(_normalize_fp(a, memo) for a in term.args))
    elif isinstance(term, Ite):
        out = Ite(_nnf(term.cond, False, memo), _normalize_fp(term.then, memo),
                  _normalize_fp(term.orelse, memo))
    else:
        raise TypeError(f"not an FP expression: {term!r}")
    memo[term] = out
    return out


# --------------------------------------------------------------------------
# Distributive CNF
# --------------------------------------------------------------------------


def to_cnf(nnf: Term, clause_cap: int = DEFAULT_CLAUSE_CAP) -> tuple[tuple[Compare, ...], ...]:
    """Distribute an NNF formula into clauses, deduplicating within clauses.

    Constant formulas degenerate: no clauses means trivially true, an
    empty clause trivially false.
    """
    clauses = _cnf(nnf, clause_cap)
    out = []
    for clause in clauses:
        seen = []
        for atom in clause:
            if atom not in seen:
                seen.append(atom)
        out.append(tuple(seen))
    return tuple(out)


def _cnf(term: Term, cap: int) -> list[list[Compare]]:
    if isinstance(term, Compare):
        return [[term]]
    if isinstance(term, BoolConst):
        return [] if term.value else [[]]
    if isinstance(term, BoolAnd):
        out = []
        for child in term.children:
            out.extend(_cnf(child, cap))
            if len(out) > cap:
                raise CnfBlowupError(f"clause count exceeded the cap of {cap}")
        return out
    if isinstance(term, BoolOr):
        # cross product of the children's clause lists
        acc: list[list[Compare]] = [[]]
        for child in term.children:
            child_clauses = _cnf(child, cap)
            if not child_clauses:  # child is trivially true: whole clause true
                return []
            nxt = []
            for left in acc:
                for right in child_clauses:
                    nxt.append(left + right)
                    if len(nxt) > cap:
                        raise CnfBlowupError(
                            f"clause count exceeded the cap of {cap}"
                        )
            acc = nxt
        return acc
    raise TypeError(f"not in NNF: {term!r}")


def clause_set_to_sexpr(clauses: tuple[tuple[Compare, ...], ...]) -> str:
    """Debug rendering: one (clause ...) per line, literals with negation flags.

    A compound FP subterm that occurs more than once in the dump is
    printed once, as a `define-fun` line before the clauses, and by name
    after that, so the dump stays linear in the clauses' distinct nodes.
    The names start with `@`, which SMT-LIB reserves for solvers.
    """
    names: dict[Term, str] = {}
    lines = []
    for term in _shared_subterms(clauses):
        body = term_to_smt2(term, names)
        names[term] = f"@t{len(names)}"
        lines.append(f"(define-fun {names[term]} () {term.sort} {body})")
    for clause in clauses:
        atoms = []
        for a in clause:
            inner = f"({a.op.value} {term_to_smt2(a.lhs, names)} {term_to_smt2(a.rhs, names)})"
            atoms.append(f"(not {inner})" if a.negated else inner)
        lines.append("(clause " + " ".join(atoms) + ")")
    return "\n".join(lines) + ("\n" if lines else "")


def _shared_subterms(clauses) -> list[Term]:
    """The compound FP subterms that a tree-shaped dump would print more
    than once, each after the ones it contains."""
    counts: dict[Term, int] = {}  # in post-order of first occurrences

    def visit(term: Term) -> None:
        if term in counts:
            counts[term] += 1
            return
        if isinstance(term, Compare):
            children = (term.lhs, term.rhs)
        elif isinstance(term, Ite):
            children = (term.cond, term.then, term.orelse)
        elif isinstance(term, FPArith):
            children = term.args
        else:  # an `and`/`or` in an ite condition, or a leaf
            children = getattr(term, "children", ())
        for child in children:
            visit(child)
        if isinstance(term, (FPArith, Ite)):
            counts[term] = 1

    for clause in clauses:
        for literal in clause:
            visit(literal)
    return [term for term, count in counts.items() if count > 1]


# --------------------------------------------------------------------------
# Conservative simplification
# --------------------------------------------------------------------------


def simplify(formula: Term) -> Term:
    """Boolean identity folds; semantics preserved.

    A comparison of two constants folds to a Boolean constant (through
    `terms.COMPARE`), and and/or/not/ite collapse around constants.
    FP arithmetic is never folded, even over constants: the objective's
    tape computes it, and the oracle checks it. Nothing else is rewritten.
    Memoized per node, so shared subterms stay shared.
    """
    return _simplify(formula, {})


def _simplify(formula: Term, memo: dict) -> Term:
    out = memo.get(formula)
    if out is None:
        out = memo[formula] = _simplify_node(formula, memo)
    return out


def _simplify_node(formula: Term, memo: dict) -> Term:
    if isinstance(formula, (BoolConst, FPConst, FPVar)):
        return formula
    if isinstance(formula, BoolNot):
        child = _simplify(formula.child, memo)
        if isinstance(child, BoolConst):
            return BoolConst(not child.value)
        return BoolNot(child)
    if isinstance(formula, BoolAnd):
        kept = []
        for c in formula.children:
            s = _simplify(c, memo)
            if isinstance(s, BoolConst):
                if not s.value:
                    return FALSE
                continue  # drop true
            kept.append(s)
        if not kept:
            return TRUE
        if len(kept) == 1:
            return kept[0]
        return BoolAnd(tuple(kept))
    if isinstance(formula, BoolOr):
        kept = []
        for c in formula.children:
            s = _simplify(c, memo)
            if isinstance(s, BoolConst):
                if s.value:
                    return TRUE
                continue  # drop false
            kept.append(s)
        if not kept:
            return FALSE
        if len(kept) == 1:
            return kept[0]
        return BoolOr(tuple(kept))
    if isinstance(formula, Compare):
        lhs, rhs = _simplify(formula.lhs, memo), _simplify(formula.rhs, memo)
        if isinstance(lhs, FPConst) and isinstance(rhs, FPConst):
            truth = COMPARE[formula.op](lhs.value.to_float(), rhs.value.to_float())
            return BoolConst(truth != formula.negated)
        return Compare(formula.op, lhs, rhs, formula.negated)
    if isinstance(formula, FPArith):
        return FPArith(formula.op, tuple(_simplify(a, memo) for a in formula.args))
    if isinstance(formula, Ite):
        cond = _simplify(formula.cond, memo)
        then, orelse = _simplify(formula.then, memo), _simplify(formula.orelse, memo)
        if isinstance(cond, BoolConst):
            return then if cond.value else orelse
        return Ite(cond, then, orelse)
    raise TypeError(f"cannot simplify {formula!r}")
