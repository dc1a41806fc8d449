"""Frontend: script parsing, literal decoding, definition expansion."""

import random

import pytest

from conftest import random_formula

from fpsat.errors import (
    RecursiveDefinitionError,
    SmtSyntaxError,
    SortError,
    UnknownSymbolError,
    UnsupportedLogicError,
    UnsupportedOperationError,
    UnsupportedRoundingModeError,
    UnsupportedSortError,
    WidthMismatchError,
)
from fpsat.fp import FP32, FP64, FPValue
from fpsat.normalizer import push_negations, simplify
from fpsat.parser import decode_fp_literal, expand_definitions, parse_script
from fpsat.parser import _read_all  # noqa: internal, used for literal forms
from fpsat.terms import (
    ArithOp,
    BoolAnd,
    BoolNot,
    CmpOp,
    Compare,
    FPArith,
    FPConst,
    FPVar,
    Ite,
    term_to_smt2,
)


def _decode(text: str, sort):
    (form,) = _read_all(text)
    return decode_fp_literal(form, sort)


MINIMAL = (
    "(set-logic QF_FP)"
    "(declare-fun x () (_ FloatingPoint 11 53))"
    "(assert (fp.lt x x))"
    "(check-sat)"
)


class TestParseScript:
    def test_minimal_script(self):
        script = parse_script(MINIMAL)
        assert script.logic == "QF_FP"
        assert len(script.assertions) == 1
        a = script.assertions[0]
        assert isinstance(a, Compare) and a.op == CmpOp.LT
        assert a.lhs == FPVar("x", FP64) and a.rhs == FPVar("x", FP64)

    def test_listing1(self, listing1_text):
        script = parse_script(listing1_text)
        assert script.logic == "QF_FP"
        assert len(script.assertions) == 1
        assert list(script.declared_vars) == ["x"]
        assert script.declared_vars["x"] == FP32
        # every non-rounding-mode define-fun is recorded for inlining
        assert set(script.definitions) == {
            "a", "x_s", "y_s", "max_y", "x2_1", "x2_2", "x2_3", "x2_4"
        }
        assert script.has_check_sat

    def test_rejected_logic(self):
        with pytest.raises(UnsupportedLogicError):
            parse_script("(set-logic QF_BV)(assert true)(check-sat)")

    def test_unsupported_sort(self):
        with pytest.raises(UnsupportedSortError):
            parse_script(
                "(set-logic QF_FP)(declare-fun x () (_ FloatingPoint 5 11))"
                "(assert (fp.lt x x))(check-sat)"
            )

    def test_unsupported_operation(self):
        with pytest.raises(UnsupportedOperationError):
            parse_script(
                "(set-logic QF_FP)(declare-fun x () Float32)"
                "(assert (fp.eq (fp.sqrt RNE x) x))(check-sat)"
            )

    def test_unsupported_rounding_mode(self):
        with pytest.raises(UnsupportedRoundingModeError):
            parse_script(
                "(set-logic QF_FP)(declare-fun x () Float32)"
                "(assert (fp.eq (fp.add RTZ x x) x))(check-sat)"
            )

    def test_sort_error_mixed_widths(self):
        with pytest.raises(SortError):
            parse_script(
                "(set-logic QF_FP)(declare-fun x () Float32)"
                "(declare-fun y () Float64)(assert (fp.lt x y))(check-sat)"
            )

    def test_unknown_symbol_names_position(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse_script("(set-logic QF_FP)\n(assert (fp.lt y y))(check-sat)")
        assert "y" in str(err.value)
        assert "2:" in str(err.value)  # line:column in the message

    def test_recursive_definition(self):
        with pytest.raises(RecursiveDefinitionError):
            parse_script(
                "(set-logic QF_FP)"
                "(define-fun f () Float32 (fp.add RNE f f))"
                "(assert true)(check-sat)"
            )

    def test_ignored_commands_warn(self):
        with pytest.warns(UserWarning, match="push"):
            script = parse_script(
                "(set-logic QF_FP)(push 1)(declare-fun x () Float32)"
                "(assert (fp.eq x x))(check-sat)(get-model)"
            )
        assert len(script.assertions) == 1

    def test_malformed_sexpr(self):
        with pytest.raises(SmtSyntaxError):
            parse_script("(assert (fp.lt x")

    def test_no_assertions_rejected(self):
        with pytest.raises(SmtSyntaxError):
            parse_script("(set-logic QF_FP)(check-sat)")

    def test_free_rounding_mode_var_rejected(self):
        with pytest.raises(UnsupportedRoundingModeError):
            parse_script(
                "(set-logic QF_FP)(declare-fun rm () RoundingMode)"
                "(assert true)(check-sat)"
            )

    def test_let_binding(self):
        script = parse_script(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(assert (let ((t (fp.add RNE x x))) (fp.lt t x)))(check-sat)"
        )
        a = script.assertions[0]
        assert isinstance(a, Compare)
        assert isinstance(a.lhs, FPArith)

    def test_sort_of_a_deep_chain(self):
        # the parser reads the sort of each node it builds; a read must not
        # walk down the chain below it
        x = FPVar("x", FP64)
        cond = Compare(CmpOp.LT, x, x)
        t = x
        for i in range(5000):
            t = FPArith(ArithOp.ADD, (t, t)) if i % 2 else Ite(cond, t, t)
            assert t.sort == FP64

    def test_bool_ite_desugars(self):
        script = parse_script(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(assert (ite (fp.lt x x) (fp.eq x x) (fp.gt x x)))(check-sat)"
        )
        assert script.assertions[0].sort.kind == "Bool"
        assert not isinstance(script.assertions[0], Ite)

    def test_comment_and_pipes(self):
        script = parse_script(
            "; a comment\n(set-logic QF_FP)(declare-fun |odd name| () Float32)"
            "(assert (fp.eq |odd name| |odd name|))(check-sat)"
        )
        assert "|odd name|" in script.declared_vars


class TestDecodeLiteral:
    def test_to_fp_two(self):
        v = _decode("((_ to_fp 8 24) #x40000000)", FP32)
        assert v.to_float() == 2.0 and v.width == 32

    def test_to_fp_minus_one(self):
        v = _decode("((_ to_fp 8 24) #xbf800000)", FP32)
        assert v.to_float() == -1.0

    def test_to_fp_minus_two(self):
        v = _decode("((_ to_fp 8 24) #xc0000000)", FP32)
        assert v.to_float() == -2.0

    def test_fp_triple(self):
        v = _decode("(fp #b0 #x7f #b00000000000000000000000)", FP32)
        assert v.to_float() == 1.0

    def test_fp_triple_binary64(self):
        v = _decode("(fp #b1 #b01111111111 #x0000000000000)", FP64)
        assert v.to_float() == -1.0

    def test_own_sort_without_target(self):
        for text, width in (("((_ to_fp 11 53) RNE 0.5)", 64),
                            ("(fp #b0 #x7f #b00000000000000000000000)", 32),
                            ("(_ -oo 11 53)", 64)):
            (form,) = _read_all(text)
            assert decode_fp_literal(form).width == width

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            _decode("((_ to_fp 8 24) #x0000000000000000)", FP32)
        with pytest.raises(WidthMismatchError):
            _decode("((_ to_fp 8 24) #x40000000)", FP64)
        with pytest.raises(WidthMismatchError):
            _decode("(fp #b0 #x7f #b00000000000000000000000)", FP64)
        with pytest.raises(WidthMismatchError):
            _decode("(_ NaN 11 53)", FP32)

    def test_from_real_rne(self):
        v = _decode("((_ to_fp 11 53) RNE 0.1)", FP64)
        assert v.to_float() == 0.1
        v = _decode("((_ to_fp 8 24) roundNearestTiesToEven 1.5)", FP32)
        assert v.to_float() == 1.5

    def test_from_real_negative(self):
        v = _decode("((_ to_fp 11 53) RNE (- 2.5))", FP64)
        assert v.to_float() == -2.5

    def test_from_real_non_rne_rejected(self):
        with pytest.raises(UnsupportedRoundingModeError):
            _decode("((_ to_fp 8 24) RTP 1.5)", FP32)

    def test_special_constants(self):
        assert _decode("(_ +oo 8 24)", FP32).to_float() == float("inf")
        assert _decode("(_ -oo 8 24)", FP32).to_float() == float("-inf")
        assert _decode("(_ +zero 8 24)", FP32).bits == 0
        assert _decode("(_ -zero 8 24)", FP32).bits == 0x80000000
        assert _decode("(_ NaN 8 24)", FP32).is_nan()

    def test_bit_exact_roundtrip(self):
        rng = random.Random(11)
        for _ in range(200):
            bits = rng.getrandbits(32)
            v = _decode(f"((_ to_fp 8 24) #x{bits:08x})", FP32)
            assert v.bits == bits  # NaN payloads included


class TestExpandDefinitions:
    def test_listing1_expansion(self, listing1_text):
        script = parse_script(listing1_text)
        formula, varmap = expand_definitions(script)
        assert varmap == [("x", FP32)]
        assert isinstance(formula, Compare) and formula.op == CmpOp.GEQ
        # the right-hand side is the inlined constant -2.0
        assert formula.rhs == FPConst(FPValue(32, 0xC0000000))
        # no definition name survives in the printed formula
        text = term_to_smt2(formula)
        assert not set(text.replace("(", " ").replace(")", " ").split()) \
            & set(script.definitions)

    def test_constant_formula_empty_varmap(self):
        script = parse_script(
            "(set-logic QF_FP)"
            "(assert (fp.lt ((_ to_fp 8 24) RNE 1.0) ((_ to_fp 8 24) RNE 2.0)))"
            "(check-sat)"
        )
        formula, varmap = expand_definitions(script)
        assert varmap == []

    def test_unused_variable_kept_in_varmap(self):
        script = parse_script(
            "(set-logic QF_FP)(declare-fun x () Float32)(declare-fun u () Float64)"
            "(assert (fp.eq x x))(check-sat)"
        )
        _, varmap = expand_definitions(script)
        assert [name for name, _ in varmap] == ["x", "u"]

    def test_parameterized_definition(self):
        script = parse_script(
            "(set-logic QF_FP)"
            "(define-fun double ((v Float32)) Float32 (fp.add RNE v v))"
            "(declare-fun x () Float32)"
            "(assert (fp.gt (double x) x))(check-sat)"
        )
        formula, _ = expand_definitions(script)
        assert isinstance(formula.lhs, FPArith)
        assert formula.lhs.args == (FPVar("x", FP32), FPVar("x", FP32))

    def test_assertion_order_preserved(self):
        script = parse_script(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(assert (fp.lt x x))(assert (fp.gt x x))(check-sat)"
        )
        formula, _ = expand_definitions(script)
        assert isinstance(formula, BoolAnd)
        assert formula.children[0].op == CmpOp.LT
        assert formula.children[1].op == CmpOp.GT

    @staticmethod
    def _formula(text):
        return expand_definitions(parse_script(f"(set-logic QF_FP){text}(check-sat)"))[0]

    def test_inlining_matches_hand_inlined_text(self, listing1_text):
        formula, _ = expand_definitions(parse_script(listing1_text))
        s = "(fp.add RNE x ((_ to_fp 8 24) #x40000000))"
        by_hand = self._formula(
            "(declare-fun x () (_ FloatingPoint 8 24))"
            f"(assert (fp.geq (fp.add RNE (fp.mul RNE ((_ to_fp 8 24) #xbf800000)"
            f" (fp.mul RNE {s} {s})) ((_ to_fp 8 24) #xc0000000))"
            " ((_ to_fp 8 24) #xc0000000)))"
        )
        assert formula == by_hand

    @pytest.mark.parametrize("defs, assertion, by_hand", [
        # g's free v is the declared variable, not f's parameter v
        ("(define-fun g ((a Float32)) Float32 (fp.mul RNE a v))"
         "(define-fun f ((v Float32)) Float32 (fp.add RNE (g v) v))",
         "(fp.lt (f x) x)", "(fp.lt (fp.add RNE (fp.mul RNE x v) x) x)"),
        # h names the declared v even where a parameter v is in scope
        ("(define-fun h () Float32 (fp.neg v))"
         "(define-fun f ((v Float32)) Float32 (fp.sub RNE h v))",
         "(fp.eq (f (fp.abs x)) x)", "(fp.eq (fp.sub RNE (fp.neg v) (fp.abs x)) x)"),
    ], ids=["function-body", "nullary-body"])
    def test_parameter_does_not_capture_a_declared_variable(self, defs, assertion,
                                                             by_hand):
        decls = "(declare-fun x () Float32)(declare-fun v () Float32)"
        inlined = self._formula(f"{decls}{defs}(assert {assertion})")
        assert inlined == self._formula(f"{decls}(assert {by_hand})")

    def test_nullary_definition_is_built_once(self):
        # references share the one built term, as let-bound names do
        script = parse_script(
            "(set-logic QF_FP)(declare-fun x () Float32)"
            "(define-fun d () Float32 (fp.add RNE x x))"
            "(assert (fp.lt d (fp.mul RNE d d)))(check-sat)"
        )
        cmp = script.assertions[0]
        body = script.definitions["d"].body
        assert cmp.lhs is body and cmp.rhs.args[0] is body and cmp.rhs.args[1] is body


WILD_SCRIPT = """
(set-logic QF_FP)
(set-info :source |crafted integration probe|)
(set-info :status unknown)
(declare-fun a () (_ FloatingPoint 8 24))
(declare-const b Float32)
(declare-fun w () (_ FloatingPoint 11 53))
(define-fun half () (_ FloatingPoint 8 24) ((_ to_fp 8 24) RNE 0.5))
(define-fun clampO ((v (_ FloatingPoint 8 24))) (_ FloatingPoint 8 24)
  (ite (fp.lt v (_ +zero 8 24)) (fp.neg v) v))
(assert (let ((s (fp.add roundNearestTiesToEven a b)))
          (or (fp.leq s half)
              (not (fp.eq (clampO s) (fp #b0 #x80 #b00000000000000000000001))))))
(assert (fp.lt ((_ to_fp 11 53) RNE (- 0.125)) w ((_ to_fp 11 53) #x7fe0000000000000)))
(assert (distinct w ((_ to_fp 11 53) RNE 1.0) ((_ to_fp 11 53) RNE 2.0)))
(assert (=> (fp.gt a b) (fp.geq a b)))
(check-sat)
(exit)
"""


class TestWildScript:
    def test_parses_and_solves(self):
        script = parse_script(WILD_SCRIPT)
        assert len(script.assertions) == 4
        formula, varmap = expand_definitions(script)
        assert [n for n, _ in varmap] == ["a", "b", "w"]
        # the chainable fp.lt became a conjunction of adjacent pairs
        chain = script.assertions[1]
        assert isinstance(chain, BoolAnd) and len(chain.children) == 2
        # pairwise distinct of arity 3 gives three NEQ atoms
        dist = script.assertions[2]
        assert isinstance(dist, BoolAnd) and len(dist.children) == 3
        # end to end: the instance is satisfiable and the model verifies
        from fpsat import build_problem as _bp
        from fpsat.portfolio import PortfolioConfig, solve, verify_model

        problem = _bp(WILD_SCRIPT)
        out = solve(problem.formula, problem.program,
                    PortfolioConfig(max_evals=100_000, seed=8))
        assert out.verdict == "sat"
        assert verify_model(problem.formula, out.model)


class TestPrinterRoundTrip:
    def test_roundtrip_random_terms(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(300):
            formula, varmap = random_formula(rng, max_depth=4)
            if not varmap:
                continue
            hits += 1
            text = term_to_smt2(formula)
            decls = "".join(
                f"(declare-fun {n} () (_ FloatingPoint {s.eb} {s.sb}))"
                for n, s in varmap
            )
            script = parse_script(f"(set-logic QF_FP){decls}(assert {text})(check-sat)")
            reparsed, _ = expand_definitions(script)
            assert reparsed == formula
        assert hits > 200

    def test_distinct_prints_as_neq(self):
        t = Compare(CmpOp.NEQ, FPVar("a", FP32), FPVar("b", FP32))
        assert term_to_smt2(t) == "(distinct a b)"

    def test_negated_compare_prints_with_not(self):
        t = Compare(CmpOp.LT, FPVar("a", FP32), FPVar("b", FP32), True)
        assert term_to_smt2(t) == "(not (fp.lt a b))"

    def test_roundtrip_normalized_terms(self):
        rng = random.Random(12)
        hits = 0
        for _ in range(300):
            formula, varmap = random_formula(rng, max_depth=4)
            nnf = push_negations(simplify(formula))
            decls = "".join(
                f"(declare-fun {n} () (_ FloatingPoint {s.eb} {s.sb}))"
                for n, s in varmap
            )
            text = term_to_smt2(nnf)
            script = parse_script(f"(set-logic QF_FP){decls}(assert {text})(check-sat)")
            reparsed, _ = expand_definitions(script)
            assert push_negations(reparsed) == nnf
            hits += "(not " in text  # in NNF, only a negated Compare prints a not
        assert hits > 30

    def test_not_survives(self):
        t = BoolNot(Compare(CmpOp.LT, FPVar("a", FP64), FPVar("a", FP64)))
        assert term_to_smt2(t) == "(not (fp.lt a a))"

