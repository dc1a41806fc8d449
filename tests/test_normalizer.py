"""NNF with negation flags, distributive CNF, conservative simplification."""

import random

import pytest

from conftest import clause_set_as_formula, random_assignment, random_formula

from fpsat import build_problem
from fpsat.errors import CnfBlowupError
from fpsat.fp import FP32, FP64, FPValue
from fpsat.normalizer import (
    clause_set_to_sexpr,
    push_negations,
    simplify,
    to_cnf,
)
from fpsat.objective import semantic_eval
from fpsat.terms import (
    ArithOp,
    BoolAnd,
    BoolNot,
    BoolOr,
    CmpOp,
    Compare,
    FALSE,
    FPArith,
    FPConst,
    FPVar,
    Ite,
    TRUE,
)

A32 = FPVar("a", FP32)
B32 = FPVar("b", FP32)
C1 = FPConst(FPValue.from_float(1.0, 32))
C2 = FPConst(FPValue.from_float(2.0, 32))


def lt(a, b):
    return Compare(CmpOp.LT, a, b)


def eq(a, b):
    return Compare(CmpOp.EQ, a, b)


class TestPushNegations:
    def test_negated_comparison_keeps_operator(self):
        out = push_negations(BoolNot(lt(A32, B32)))
        assert out == Compare(CmpOp.LT, A32, B32, True)

    def test_de_morgan(self):
        p, q = lt(A32, B32), eq(A32, B32)
        out = push_negations(BoolNot(BoolAnd((p, q))))
        assert isinstance(out, BoolOr)
        assert out.children[0] == Compare(CmpOp.LT, A32, B32, True)
        assert out.children[1] == Compare(CmpOp.EQ, A32, B32, True)

    def test_double_negation_cancels(self):
        out = push_negations(BoolNot(BoolNot(eq(A32, B32))))
        assert out == Compare(CmpOp.EQ, A32, B32)

    def test_no_boolnot_survives(self):
        rng = random.Random(3)
        for _ in range(200):
            formula, _ = random_formula(rng)
            nnf = push_negations(formula)

            def scan(t):
                assert not isinstance(t, BoolNot)
                for c in getattr(t, "children", ()):
                    scan(c)
                if isinstance(t, Compare):
                    scan_fp(t.lhs), scan_fp(t.rhs)

            def scan_fp(t):
                if isinstance(t, Ite):
                    scan(t.cond), scan_fp(t.then), scan_fp(t.orelse)
                for c in getattr(t, "args", ()):
                    scan_fp(c)

            scan(nnf)

    def test_ite_condition_normalized_in_place(self):
        inner = Ite(BoolNot(lt(A32, B32)), A32, B32)
        formula = Compare(CmpOp.GT, inner, C1)
        out = push_negations(formula)
        assert isinstance(out, Compare) and not out.negated
        assert out.lhs.cond == Compare(CmpOp.LT, A32, B32, True)

    def test_negation_of_constant(self):
        assert push_negations(BoolNot(TRUE)) == FALSE


class TestToCnf:
    def test_distribution(self):
        a = Compare(CmpOp.LT, A32, B32)
        b = Compare(CmpOp.EQ, A32, C1)
        c = Compare(CmpOp.GT, B32, C2)
        cs = to_cnf(BoolOr((a, BoolAnd((b, c)))))
        assert cs == ((a, b), (a, c))

    def test_single_atom_unit_clause(self):
        a = Compare(CmpOp.LEQ, A32, B32, True)
        cs = to_cnf(a)
        assert cs == ((a,),)

    def test_listing1_single_unit_clause(self, listing1_text):
        problem = build_problem(listing1_text)
        assert len(problem.clauses) == 1
        (clause,) = problem.clauses
        assert len(clause) == 1
        atom = clause[0]
        assert atom.op == CmpOp.GEQ and not atom.negated
        assert atom.rhs == FPConst(FPValue(32, 0xC0000000))

    def test_duplicate_literals_dedup(self):
        a = Compare(CmpOp.LT, A32, B32)
        cs = to_cnf(BoolOr((a, a)))
        assert cs == ((a,),)

    def test_order_follows_source(self):
        a = Compare(CmpOp.LT, A32, B32)
        b = Compare(CmpOp.GT, A32, B32)
        cs = to_cnf(BoolAnd((b, a)))
        assert cs == ((b,), (a,))

    def test_constant_true_empty(self):
        assert to_cnf(TRUE) == ()

    def test_constant_false_empty_clause(self):
        assert to_cnf(FALSE) == ((),)

    def test_blowup_cap(self):
        # (a1 & b1) | (a2 & b2) | ... distributes exponentially
        atoms = [
            BoolAnd((
                Compare(CmpOp.LT, FPVar(f"x{i}", FP64), FPVar(f"y{i}", FP64)),
                Compare(CmpOp.GT, FPVar(f"x{i}", FP64), FPVar(f"y{i}", FP64)),
            ))
            for i in range(24)
        ]
        with pytest.raises(CnfBlowupError):
            to_cnf(BoolOr(tuple(atoms)), clause_cap=1000)

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(100):
            formula, _ = random_formula(rng, max_depth=4)
            cs = to_cnf(push_negations(simplify(formula)))
            again = to_cnf(clause_set_as_formula(cs))
            assert again == cs

    def test_sexpr_dump(self):
        a = Compare(CmpOp.LT, A32, B32, True)
        text = clause_set_to_sexpr(to_cnf(a))
        assert text == "(clause (not (lt a b)))\n"


class TestSimplify:
    def test_constant_arith_left_in_place(self):
        # FP arithmetic runs only on the tape and in the oracle
        zero = FPConst(FPValue.from_float(0.0, 32))
        for t in (FPArith(ArithOp.ADD, (C1, C1)), FPArith(ArithOp.DIV, (C1, zero)),
                  FPArith(ArithOp.NEG, (C2,)), lt(FPArith(ArithOp.ADD, (C1, C1)), C2)):
            assert simplify(t) is t

    def test_and_true_identity(self):
        p = lt(A32, B32)
        assert simplify(BoolAnd((p, TRUE))) == p

    def test_or_true_annihilates(self):
        p = lt(A32, B32)
        assert simplify(BoolOr((p, TRUE))) == TRUE

    def test_ite_constant_condition(self):
        t = Ite(FALSE, A32, B32)
        assert simplify(t) == B32

    def test_constant_comparison_folds(self):
        assert simplify(lt(C1, C2)) == TRUE
        assert simplify(lt(C2, C1)) == FALSE

    def test_nan_comparison_folds_false(self):
        nan = FPConst(FPValue(32, 0x7FC00000))
        assert simplify(eq(nan, nan)) == FALSE

    def test_preserves_semantics_randomized(self):
        rng = random.Random(23)
        for _ in range(150):
            formula, varmap = random_formula(rng)
            s = simplify(formula)
            for _ in range(20):
                a = random_assignment(rng, varmap)
                assert semantic_eval(formula, a) == semantic_eval(s, a)


class TestCnfEquivalence:
    def test_cnf_agrees_with_original_randomized(self):
        # per-assignment equivalence on a randomized corpus incl. specials
        rng = random.Random(31)
        for _ in range(120):
            formula, varmap = random_formula(rng)
            cs = to_cnf(push_negations(simplify(formula)))
            as_formula = clause_set_as_formula(cs)
            for _ in range(60):
                a = random_assignment(rng, varmap)
                assert semantic_eval(formula, a) == semantic_eval(as_formula, a)

    def test_negated_atom_is_logical_negation_with_nan(self):
        # truth of Compare(..., negated=True) equals NOT(ieee op), never the
        # flipped-operator reading
        nan = float("nan")
        for op in CmpOp:
            base = Compare(op, A32, B32)
            flag = Compare(op, A32, B32, True)
            for a in (nan, 1.0, -0.0):
                for b in (nan, 2.0, 0.0):
                    env = {"a": a, "b": b}
                    assert semantic_eval(flag, env) == (not semantic_eval(base, env))
