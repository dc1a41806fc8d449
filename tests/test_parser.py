"""Frontend: script parsing, literal decoding, definition expansion."""

import math
import random
import time

import pytest

from conftest import random_formula

from fpsat import build_problem
from fpsat.errors import (
    InputError,
    RecursiveDefinitionError,
    SmtSyntaxError,
    SortError,
    SourcePosition,
    UnknownSymbolError,
    UnsupportedLogicError,
    UnsupportedOperationError,
    UnsupportedRoundingModeError,
    UnsupportedSortError,
    WidthMismatchError,
)
from fpsat.fp import FP32, FP64, FPValue
from fpsat.normalizer import push_negations, simplify
from fpsat.objective import semantic_eval
from fpsat.parser import decode_fp_literal, expand_definitions, parse_script
from fpsat.parser import _read_all  # noqa: internal, used for literal forms
from fpsat.terms import (
    ArithOp,
    BoolAnd,
    BoolNot,
    BoolOr,
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
        with pytest.warns(UserWarning) as record:
            script = parse_script(
                "(set-logic QF_FP)(push 1)(declare-fun x () Float32)"
                "(assert (fp.eq x x))(check-sat)(get-model)"
            )
        assert [str(w.message) for w in record] == [
            "ignoring unsupported command (push ...)",
            "ignoring unsupported command (get-model ...)",
        ]
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


_DECL = "(set-logic QF_FP)(declare-fun x () Float32)\n"
_ONE_EXP_SIG = "#x7f #b00000000000000000000000"  # exponent and significand of 1.0


def _in_assert(term: str) -> str:
    return f"{_DECL}(assert (fp.lt {term} x))"


def _let_chain(depth: int) -> str:
    body = f"(fp.lt a{depth} x)"
    for i in range(depth, 0, -1):
        body = f"(let ((a{i} (fp.add RNE a{i - 1} a{i - 1}))) {body})"
    return f"{_DECL}(assert (let ((a0 (fp.add RNE x x))) {body}))"


class TestErrorTable:
    """The class and `line:col` of each input error, as the user sees them."""

    @pytest.mark.parametrize("text, error, pos", [
        # the reader's own errors
        ("(assert |abc", SmtSyntaxError, "1:9"),
        ('(set-info :x "ab""cd', SmtSyntaxError, "1:14"),
        ('(set-info :x "ab""', SmtSyntaxError, "1:14"),
        ("(assert true))", SmtSyntaxError, "1:14"),
        ("(set-logic QF_FP)\n(assert (fp.lt x", SmtSyntaxError, "2:9"),
        # positions after comments, multi-line symbols and strings, tabs, CRs
        ('; (comment) "x" |y|\n(set-logic QF_FP) ; more\n  (assert y)',
         UnknownSymbolError, "3:11"),
        ("(set-logic QF_FP)(declare-fun |a\nb c| () Float32)"
         "(assert (fp.lt |a\nb c| y))", UnknownSymbolError, "3:6"),
        ('(set-info :source "multi\nline ""quoted""\n")(assert y)',
         UnknownSymbolError, "3:11"),
        ("(set-logic\tQF_FP)\n\t(assert\t(fp.lt\ty y))", UnknownSymbolError, "2:17"),
        ("(set-logic QF_FP)\r\n(declare-fun x () Float32)\r\n(assert (fp.lt x y))",
         UnknownSymbolError, "3:18"),
        ("(set-logic QF_FP)\r(assert y)", UnknownSymbolError, "1:27"),
        # literal-shaped forms that are not supported literals
        (_in_assert("((_ extract 7 0) x)"), UnsupportedOperationError, "2:16"),
        (_in_assert("(_ +oo 8)"), UnsupportedOperationError, "2:16"),
        (_in_assert("((_ to_fp 8) RNE 1.0)"), UnsupportedOperationError, "2:16"),
        # floating-point layouts other than binary32 and binary64
        (_DECL + "(declare-fun y () (_ FloatingPoint 5 11))", UnsupportedSortError, "2:19"),
        (_in_assert("((_ to_fp 5 11) #x0000)"), UnsupportedSortError, "2:16"),
        (_in_assert("(_ NaN 5 11)"), UnsupportedSortError, "2:16"),
        (_in_assert("(fp #b0 #b00000 #b0000000000)"), UnsupportedSortError, "2:16"),
        # rounding modes other than RNE, and symbols that are not modes
        (_in_assert("(fp.add RTZ x x)"), UnsupportedRoundingModeError, "2:24"),
        (_in_assert("((_ to_fp 8 24) RTP 1.5)"), UnsupportedRoundingModeError, "2:32"),
        (_in_assert("(fp.add foo x x)"), UnsupportedRoundingModeError, "2:24"),
        # a form that is not a mode is reported at its own position
        (_in_assert("((_ to_fp 8 24) foo 1.5)"), UnsupportedRoundingModeError, "2:32"),
        # malformed bitvector literals
        (_in_assert(f"(fp #b0 #x #b{'0' * 23})"), SmtSyntaxError, "2:24"),
        (_in_assert(f"(fp #b2 {_ONE_EXP_SIG})"), SmtSyntaxError, "2:20"),
        (_in_assert("((_ to_fp 8 24) #xZZ)"), SmtSyntaxError, "2:32"),
        (_in_assert(f"(fp (_ bvq 1) {_ONE_EXP_SIG})"), SmtSyntaxError, "2:20"),
        (_in_assert(f"(fp (_ bv-1 1) {_ONE_EXP_SIG})"), SmtSyntaxError, "2:20"),
        (_in_assert(f"(fp (_ bv2 1) {_ONE_EXP_SIG})"), SmtSyntaxError, "2:20"),
        (_in_assert(f"(fp (_ bv{'1' * 5000} 1) {_ONE_EXP_SIG})"), SmtSyntaxError, "2:20"),
        # the column counts characters, not bytes
        ("(set-logic QF_FP)(declare-fun |café ☃| () Float32)\n"
         "(assert (fp.lt |café ☃| y))", UnknownSymbolError, "2:25"),
        # real literals that divide by zero
        (_in_assert("((_ to_fp 8 24) RNE 1/0)"), UnsupportedOperationError, "2:16"),
        (_in_assert("((_ to_fp 8 24) RNE (- 0/0))"), UnsupportedOperationError, "2:16"),
    ], ids=[
        "unterminated-symbol", "unterminated-string", "unterminated-string-quotes",
        "unbalanced-close", "unbalanced-open",
        "after-comments", "after-multiline-symbol", "after-multiline-string",
        "after-tabs", "after-crlf", "after-cr",
        "extract", "infinity-one-index", "to_fp-one-index",
        "sort-layout", "to_fp-layout", "nan-layout", "fp-layout",
        "fp.add-RTZ", "to_fp-RTP", "fp.add-non-mode", "to_fp-non-mode",
        "bv-hex-empty", "bv-bin-digit", "bv-hex-digit", "bv-index-name",
        "bv-index-negative", "bv-index-too-wide", "bv-index-5000-digits",
        "after-non-ascii", "to_fp-one-by-zero", "to_fp-zero-by-zero",
    ])
    def test_error_and_position(self, text, error, pos):
        with pytest.raises(InputError) as err:
            build_problem(text)
        assert type(err.value) is error
        assert str(err.value).startswith(f"{pos}: ")
        assert err.value.pos == SourcePosition(*map(int, pos.split(":")))

    @pytest.mark.parametrize("text", [
        _let_chain(400), f"{_DECL}(assert {'(not ' * 2000}(fp.lt x x){')' * 2001}"
    ], ids=["let-400", "not-2000"])
    def test_too_deep_input_is_named(self, text):
        with pytest.raises(InputError, match="nests too deeply") as err:
            build_problem(text)
        assert type(err.value) is InputError


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

    def test_bitvector_forms(self):
        assert _decode(f"(fp (_ bv1 1) {_ONE_EXP_SIG})", FP32).to_float() == -1.0
        assert _decode("((_ to_fp 8 24) #x3F800000)", FP32).to_float() == 1.0
        assert _decode("(fp #b0 (_ bv127 8) (_ bv0 23))", FP32).to_float() == 1.0

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

    @pytest.mark.parametrize("width", [32, 64])
    def test_huge_exponents_decode_fast(self, width):
        # linear in the literal's length: +inf and +0 without the exact value
        sort = {32: FP32, 64: FP64}[width]
        start = time.perf_counter()
        big = _decode(f"((_ to_fp {sort.eb} {sort.sb}) RNE 1e999999)", sort)
        tiny = _decode(f"((_ to_fp {sort.eb} {sort.sb}) RNE 1e-999999)", sort)
        assert time.perf_counter() - start < 1.0
        assert big.to_float() == math.inf
        assert tiny.bits == 0

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
        # pairwise distinct of arity 3 gives three negated identities
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


def _neq_as_fp_eq(term):
    """The term with each IEEE inequality (NEQ) atom spelled as the negated
    `fp.eq` it prints as."""
    if isinstance(term, Compare):
        lhs, rhs = _neq_as_fp_eq(term.lhs), _neq_as_fp_eq(term.rhs)
        if term.op != CmpOp.NEQ:
            return Compare(term.op, lhs, rhs, term.negated)
        eq = Compare(CmpOp.EQ, lhs, rhs)
        return eq if term.negated else BoolNot(eq)
    if isinstance(term, BoolNot):
        return BoolNot(_neq_as_fp_eq(term.child))
    if isinstance(term, (BoolAnd, BoolOr)):
        return type(term)(tuple(_neq_as_fp_eq(c) for c in term.children))
    if isinstance(term, FPArith):
        return FPArith(term.op, tuple(_neq_as_fp_eq(a) for a in term.args))
    if isinstance(term, Ite):
        return Ite(_neq_as_fp_eq(term.cond), _neq_as_fp_eq(term.then),
                   _neq_as_fp_eq(term.orelse))
    return term


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
            assert reparsed == _neq_as_fp_eq(formula)
        assert hits > 200

    def test_neq_prints_as_negated_fp_eq(self):
        # SMT-LIB has no IEEE inequality: `distinct` is not identity
        a, b = FPVar("a", FP32), FPVar("b", FP32)
        assert term_to_smt2(Compare(CmpOp.NEQ, a, b)) == "(not (fp.eq a b))"
        assert term_to_smt2(Compare(CmpOp.NEQ, a, b, True)) == "(fp.eq a b)"

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
            assert push_negations(reparsed) == push_negations(_neq_as_fp_eq(nnf))
            hits += "(not " in text  # in NNF, only a negated Compare prints a not
        assert hits > 30

    def test_not_survives(self):
        t = BoolNot(Compare(CmpOp.LT, FPVar("a", FP64), FPVar("a", FP64)))
        assert term_to_smt2(t) == "(not (fp.lt a a))"



def _formula(decls: str, assertion: str):
    return build_problem(f"(set-logic QF_FP){decls}(assert {assertion})(check-sat)")


class TestSmtEquality:
    """SMT-LIB `=` on FP terms is identity of values: NaN = NaN holds and
    +0 = -0 does not. `distinct` is its pairwise negation; `fp.eq` stays
    IEEE equality."""

    @pytest.mark.parametrize("eb,sb", [(8, 24), (11, 53)])
    def test_signed_zeros_are_not_identical(self, eb, sb):
        decl = f"(declare-fun x () (_ FloatingPoint {eb} {sb}))"
        eq = _formula(decl, f"(= x (_ +zero {eb} {sb}))")
        assert semantic_eval(eq.formula, {"x": 0.0}) is True
        assert semantic_eval(eq.formula, {"x": -0.0}) is False
        assert eq.program.evaluate([0.0]) == 0.0
        assert eq.program.evaluate([-0.0]) >= 1.0
        ieee = _formula(decl, f"(fp.eq x (_ +zero {eb} {sb}))")
        assert semantic_eval(ieee.formula, {"x": -0.0}) is True

    @pytest.mark.parametrize("eb,sb", [(8, 24), (11, 53)])
    def test_nan_is_identical_to_itself(self, eb, sb):
        decl = f"(declare-fun x () (_ FloatingPoint {eb} {sb}))"
        refl = _formula(decl, "(= x x)")
        assert semantic_eval(refl.formula, {"x": math.nan}) is True
        assert refl.program.evaluate([math.nan]) == 0.0
        nan = _formula(decl, f"(= x (_ NaN {eb} {sb}))")
        assert semantic_eval(nan.formula, {"x": math.nan}) is True
        assert semantic_eval(nan.formula, {"x": 1.0}) is False
        assert nan.program.evaluate([math.nan]) == 0.0

    def test_identity_on_ordinary_values(self):
        decl = "(declare-fun x () Float64)(declare-fun y () Float64)"
        p = _formula(decl, "(= x y)")
        for a, b, same in [(1.5, 1.5, True), (1.5, 2.0, False), (math.inf, math.inf, True),
                           (math.inf, -math.inf, False), (math.nan, 1.0, False)]:
            assert semantic_eval(p.formula, {"x": a, "y": b}) is same
            assert (p.program.evaluate([a, b]) == 0.0) is same

    def test_distinct_is_pairwise_non_identity(self):
        decl = "".join(f"(declare-fun {v} () Float32)" for v in "xyz")
        p = _formula(decl, "(distinct x y z)")
        for x, y, z, holds in [(0.0, -0.0, 1.0, True), (math.nan, math.nan, 1.0, False),
                               (1.0, 2.0, 1.0, False), (1.0, 2.0, 3.0, True)]:
            assert semantic_eval(p.formula, {"x": x, "y": y, "z": z}) is holds
            assert (p.program.evaluate([x, y, z]) == 0.0) is holds

    def test_parses_to_nan_test_or_equal_reciprocals(self):
        x, y = FPVar("x", FP64), FPVar("y", FP64)
        one = FPConst(FPValue.from_float(1.0, 64))
        script = parse_script("(declare-fun x () Float64)(declare-fun y () Float64)"
                              "(assert (= x y))(assert (distinct x y))")
        identical = BoolOr((
            BoolAnd((BoolNot(Compare(CmpOp.EQ, x, x)), BoolNot(Compare(CmpOp.EQ, y, y)))),
            BoolAnd((Compare(CmpOp.EQ, x, y),
                     Compare(CmpOp.EQ, FPArith(ArithOp.DIV, (one, x)),
                             FPArith(ArithOp.DIV, (one, y))))),
        ))
        assert script.assertions == [identical, BoolNot(identical)]


class TestRoundingModeRedeclaration:
    def test_declare_after_rounding_mode_definition(self):
        with pytest.raises(SmtSyntaxError, match="redeclared"):
            parse_script("(define-fun r () RoundingMode RNE)(declare-fun r () Float32)"
                         "(assert (fp.lt (fp.add r r r) r))")

    def test_rounding_mode_defined_twice(self):
        with pytest.raises(SmtSyntaxError, match="redefined"):
            parse_script("(define-fun r () RoundingMode RNE)(define-fun r () RoundingMode RNE)"
                         "(declare-fun x () Float32)(assert (fp.lt (fp.add r x x) x))")
