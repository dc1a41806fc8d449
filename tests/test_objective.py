"""Distance encodings, program compilation/evaluation, the Boolean oracle."""

import ctypes
import hashlib
import math
import operator
import random
import shutil
import struct
import subprocess
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    batch_values,
    bits_to_double,
    build_program,
    random_assignment,
    random_formula,
    random_fp_double,
    structured_values,
)

from fpsat import build_problem, load_problem
from fpsat.errors import DimensionMismatchError, SortError, UnboundVariableError
from fpsat.fp import FP32, FP64, FPValue, float_to_bits, ordered_bits
from fpsat.harness import corpus_dir
from fpsat.kernels import KERNEL_CFLAGS
from fpsat.normalizer import push_negations, simplify
from fpsat.parser import expand_definitions
from fpsat.objective import (
    _DIST,
    _sem_fp,
    atom_distance,
    compile_objective,
    render_objective_source,
    semantic_eval,
    theta,
)
from fpsat.terms import (
    COMPARE,
    TRUE,
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
    Script,
)


def f32(v: float) -> FPValue:
    return FPValue.from_float(v, 32)


def f64(v: float) -> FPValue:
    return FPValue.from_float(v, 64)


NAN32 = FPValue(32, 0x7FC00000)
NAN32_B = FPValue(32, 0x7F800001)
NAN64 = FPValue(64, 0x7FF8000000000000)

CORPUS_NAMES = [p.name for p in sorted(corpus_dir().glob("*.smt2"))]


class TestTheta:
    def test_identical_values(self):
        assert theta(f32(1.0), f32(1.0)) == 0.0

    def test_nan_gives_one(self):
        assert theta(NAN32, f32(1.0)) == 1.0
        assert theta(f64(1.0), NAN64) == 1.0
        assert theta(NAN32, NAN32) == 1.0  # even identical payloads

    def test_signed_zeros_equal(self):
        assert theta(f32(0.0), f32(-0.0)) == 0.0
        assert theta(f64(-0.0), f64(0.0)) == 0.0

    def test_adjacent_encodings_distance_one(self):
        one = f32(1.0)
        nxt = FPValue(32, one.bits + 1)
        assert theta(one, nxt) == 1.0
        one64 = f64(1.0)
        assert theta(one64, FPValue(64, one64.bits + 1)) == 1.0

    def test_ordered_bits_oracle(self):
        # theta equals the ordered-integer distance, checked independently
        rng = random.Random(9)
        for _ in range(5000):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            va, vb = FPValue(32, a), FPValue(32, b)
            if va.is_nan() or vb.is_nan():
                expected = 1.0
            elif va.to_float() == vb.to_float():
                expected = 0.0
            else:
                expected = float(abs(ordered_bits(a, 32) - ordered_bits(b, 32)))
            assert theta(va, vb) == expected

    def test_width_mismatch_rejected(self):
        with pytest.raises(SortError):
            theta(f32(1.0), f64(1.0))

    def test_properties_structured_exhaustive(self):
        for width in (32, 64):
            vals = structured_values(width)
            for a in vals:
                for b in vals:
                    t = theta(a, b)
                    assert t >= 0.0
                    if t == 0.0:
                        assert a.to_float() == b.to_float()
                    assert t == theta(b, a)
                    if a.is_nan() or b.is_nan():
                        assert t > 0.0


def _ieee(op: CmpOp, a: float, b: float) -> bool:
    return {
        CmpOp.LT: a < b, CmpOp.LEQ: a <= b, CmpOp.GT: a > b,
        CmpOp.GEQ: a >= b, CmpOp.EQ: a == b, CmpOp.NEQ: a != b,
    }[op]


class TestAtomDistance:
    def test_lt_holds(self):
        assert atom_distance(CmpOp.LT, False, f64(1.0), f64(2.0)) == 0.0

    def test_negated_geq_nan_is_zero(self):
        assert atom_distance(CmpOp.GEQ, True, NAN32, f32(5.0)) == 0.0

    def test_eq_distance_value(self):
        # ordered-bits difference between binary32 1.0 and 2.0
        assert atom_distance(CmpOp.EQ, False, f32(1.0), f32(2.0)) == 8388608.0

    def test_gt_false_is_theta_plus_one(self):
        assert atom_distance(CmpOp.GT, False, f64(1.0), f64(1.0)) == 1.0

    def test_eq_negated_equals_neq(self):
        for a in (f32(1.0), NAN32, f32(-0.0)):
            for b in (f32(1.0), f32(0.0), NAN32_B):
                assert atom_distance(CmpOp.EQ, True, a, b) == \
                    atom_distance(CmpOp.NEQ, False, a, b)
                assert atom_distance(CmpOp.NEQ, True, a, b) == \
                    atom_distance(CmpOp.EQ, False, a, b)

    # Exact distances at binary64 (a, b) = (1, 1), (1, 2), (2, 1), (NaN, 1).
    # T = θ(1, 2) = 2**52, one binade; T + 1 is a failed strict relation.
    T = 2.0**52
    EXACT = {
        (CmpOp.LT, False): (1.0, 0.0, T + 1, 2.0),
        (CmpOp.LT, True): (0.0, T, 0.0, 0.0),
        (CmpOp.LEQ, False): (0.0, 0.0, T, 1.0),
        (CmpOp.LEQ, True): (1.0, T + 1, 0.0, 0.0),
        (CmpOp.GT, False): (1.0, T + 1, 0.0, 2.0),
        (CmpOp.GT, True): (0.0, 0.0, T, 0.0),
        (CmpOp.GEQ, False): (0.0, T, 0.0, 1.0),
        (CmpOp.GEQ, True): (1.0, 0.0, T + 1, 0.0),
        (CmpOp.EQ, False): (0.0, T, T, 1.0),
        (CmpOp.EQ, True): (1.0, 0.0, 0.0, 0.0),
        (CmpOp.NEQ, False): (1.0, 0.0, 0.0, 0.0),
        (CmpOp.NEQ, True): (0.0, T, T, 1.0),
    }

    @pytest.mark.parametrize("op,neg", list(EXACT),
                             ids=[f"{op.name}-{'not' if n else 'pos'}"
                                  for op, n in EXACT])
    def test_exact_distance_table(self, op, neg):
        pairs = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (math.nan, 1.0)]
        got = tuple(atom_distance(op, neg, f64(a), f64(b)) for a, b in pairs)
        assert got == self.EXACT[(op, neg)]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.sampled_from(list(CmpOp)),
        st.booleans(),
    )
    @settings(max_examples=2000)
    def test_zero_correspondence_random_encodings(self, ba, bb, op, neg):
        a, b = FPValue(32, ba), FPValue(32, bb)
        d = atom_distance(op, neg, a, b)
        holds = _ieee(op, a.to_float(), b.to_float()) != neg
        assert d >= 0.0
        assert (d == 0.0) == holds

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=1000)
    def test_theta_symmetric_nonnegative_binary64(self, ba, bb):
        a, b = FPValue(64, ba), FPValue(64, bb)
        t = theta(a, b)
        assert t >= 0.0
        assert t == theta(b, a)

    def test_zero_correspondence_exhaustive(self):
        # d == 0 exactly when the (possibly negated) IEEE comparison holds,
        # over the full structured set, all ops, both flags, both widths
        for width in (32, 64):
            vals = structured_values(width)
            for a in vals:
                for b in vals:
                    fa, fb = a.to_float(), b.to_float()
                    for op in CmpOp:
                        for neg in (False, True):
                            d = atom_distance(op, neg, a, b)
                            holds = _ieee(op, fa, fb) != neg
                            assert d >= 0.0
                            assert (d == 0.0) == holds, (op, neg, fa, fb)


class TestCompileAndEvaluate:
    def test_listing1_zero_at_minus_two(self, listing1_text):
        problem = build_problem(listing1_text)
        assert problem.program.dimension == 1
        assert problem.program.evaluate([-2.0]) == 0.0

    def test_listing1_at_zero_matches_theta_oracle(self, listing1_text):
        problem = build_problem(listing1_text)
        # t(0) = -6 in binary32; distance is theta(-6, -2) computed from bits
        expected = float(abs(
            ordered_bits(float_to_bits(-6.0, 32), 32)
            - ordered_bits(float_to_bits(-2.0, 32), 32)
        ))
        assert problem.program.evaluate([0.0]) == expected == 12582912.0

    def test_constant_true_formula_dimension_zero(self):
        problem = build_problem(
            "(set-logic QF_FP)"
            "(assert (fp.lt ((_ to_fp 8 24) RNE 1.0) ((_ to_fp 8 24) RNE 2.0)))"
            "(check-sat)"
        )
        assert problem.program.dimension == 0
        assert problem.program.evaluate(()) == 0.0

    def test_two_unit_clauses_sum(self):
        x, y = FPVar("x", FP64), FPVar("y", FP64)
        one = FPConst(f64(1.0))
        formula = simplify(Compare(CmpOp.GT, x, one))
        a1 = Compare(CmpOp.GT, x, one)
        a2 = Compare(CmpOp.GT, y, one)
        program = compile_objective(BoolAnd((a1, a2)), [("x", FP64), ("y", FP64)])
        d1 = atom_distance(CmpOp.GT, False, f64(0.0), f64(1.0))
        d2 = atom_distance(CmpOp.GT, False, f64(-1.0), f64(1.0))
        assert program.evaluate([0.0, -1.0]) == d1 + d2

    def test_binary32_slot_narrowing(self):
        x = FPVar("x", FP32)
        two = FPConst(f32(2.0))
        program = compile_objective(Compare(CmpOp.EQ, x, two), [("x", FP32)])
        # any double narrowing to 2.0f is a zero of the objective
        assert program.evaluate([2.0 + 1e-9]) == 0.0
        assert program.evaluate([1e300]) != 0.0  # narrows to +inf

    def test_eval_counter_exact(self, listing1_text):
        program = build_problem(listing1_text).program
        assert program.eval_count == 0
        for k in range(1, 51):
            program.evaluate([0.5])
            assert program.eval_count == k

    def test_eval_counter_threaded(self, listing1_text):
        program = build_problem(listing1_text).program
        per_thread = 500

        def hammer():
            for _ in range(per_thread):
                program.evaluate([0.25])

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert program.eval_count == 8 * per_thread

    def test_every_array_layout_evaluates_alike(self):
        # only a 1-D native float64 ndarray is passed as its bytes; a
        # byte-swapped, float32 or strided array is packed like a list
        program = build_problem(
            "(declare-fun x () Float64)(declare-fun y () Float32)"
            "(assert (fp.lt (fp.add RNE x x) ((_ to_fp 11 53) RNE 0.75)))"
            "(assert (fp.gt y ((_ to_fp 8 24) RNE 0.5)))"
        ).program
        for point in ([0.25, 1.0], [1.5, 0.125]):
            want = program.evaluate(point)
            assert (want == 0.0) == (point == [0.25, 1.0])
            for x in (np.array(point), np.array(point, dtype=">f8"),
                      np.array(point, dtype=np.float32), np.repeat(point, 2)[::2]):
                assert program.evaluate(x) == want

    def test_dimension_mismatch(self, listing1_text):
        program = build_problem(listing1_text).program
        with pytest.raises(DimensionMismatchError):
            program.evaluate([1.0, 2.0])

    def test_ite_condition_is_boolean_not_distance(self):
        # G must switch branches exactly at the condition boundary
        x = FPVar("x", FP64)
        zero, one = FPConst(f64(0.0)), FPConst(f64(1.0))
        branch = Ite(Compare(CmpOp.LT, x, zero), FPArith(ArithOp.NEG, (x,)), x)
        formula = Compare(CmpOp.GEQ, branch, one)
        program = compile_objective(push_negations(formula), [("x", FP64)])
        assert program.evaluate([-1.0]) == 0.0
        assert program.evaluate([1.0]) == 0.0
        assert program.evaluate([0.5]) > 0.0

    @pytest.mark.parametrize("cond", ["not", "true"])
    def test_ite_condition_outside_nnf_rejected(self, cond):
        # compile_objective takes NNF: push_negations leaves no `not`, and
        # simplify leaves no constant condition
        x = FPVar("x", FP64)
        zero = FPConst(f64(0.0))
        c = BoolNot(Compare(CmpOp.LT, x, zero)) if cond == "not" else TRUE
        formula = Compare(CmpOp.GEQ, Ite(c, x, zero), zero)
        with pytest.raises(TypeError):
            compile_objective(formula, [("x", FP64)])

    def test_undeclared_variable_is_unbound(self):
        script = Script(assertions=[Compare(CmpOp.LT, FPVar("y", FP64), FPConst(f64(0.0)))])
        formula, varmap = expand_definitions(script)
        assert varmap == []
        with pytest.raises(UnboundVariableError, match="y"):
            compile_objective(push_negations(simplify(formula)), varmap)

    def test_nonnegative_with_nan_inputs(self, listing1_text):
        program = build_problem(listing1_text).program
        v = program.evaluate([float("nan")])
        assert v >= 0.0  # NaN input handled by the distance rule

    def test_overflowing_clause_product_short_circuits(self):
        # a satisfied literal zeroes the clause even when the unsatisfied
        # distances in front of it have already overflowed the product
        n = 20
        one = FPConst(f64(1.0))
        names = [f"x{i}" for i in range(n)]
        unsat_atoms = tuple(
            Compare(CmpOp.EQ, FPVar(nm, FP64), one) for nm in names
        )
        sat_atom = Compare(CmpOp.LT, FPVar("x0", FP64), one)
        clause = BoolOr(unsat_atoms + (sat_atom,))
        program = compile_objective(clause, [(nm, FP64) for nm in names])
        x = [-1.7e308] * n  # each theta is ~1.3e19; their product is inf
        partial = 1.0
        for _ in range(n):
            partial *= atom_distance(CmpOp.EQ, False, f64(-1.7e308), f64(1.0))
        assert partial == math.inf  # the hazard is real
        assert program.evaluate(x) == 0.0  # yet the satisfied literal wins


# binary64 points whose narrowing to binary32 overflows, underflows or ties
NARROWING_EDGES = [
    1e300, -1e300, 3.4028235677973366e38, -3.4028235677973362e38,
    2.0**128 - 2.0**103, 2.0**-150, -(2.0**-150), 1.5 * 2.0**-149, 1e-50,
]


def _points(rng: random.Random, varmap, rows: int):
    """Rows of coordinates: values of each variable's width (specials
    included, conftest.random_fp_double), any binary64, or a narrowing edge."""
    def one(width):
        r = rng.random()
        if r < 0.6:
            return random_fp_double(rng, width)
        if r < 0.85:
            return random_fp_double(rng, 64)
        return rng.choice(NARROWING_EDGES)

    return np.array([[one(s.width) for _, s in varmap] for _ in range(rows)],
                    dtype=float).reshape(rows, len(varmap))


def _assert_batch_matches(program, X):
    """The optimizers' batch of the rows of X (`batch_values`) is evaluate
    over the rows, bit for bit, up to and including the first zero, and
    counts exactly those rows."""
    want = []
    for x in X:
        want.append(program.evaluate(x))
        if want[-1] == 0.0:
            break
    before = program.eval_count
    got = batch_values(program, X)
    assert got.tobytes() == np.array(want).tobytes()
    assert program.eval_count - before == len(want)


class TestEvaluateMany:
    """Rows of evaluations, as the Python population methods make them
    through `_Run.many`, on either path."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_evaluate(self, seed, rows):
        rng = random.Random(seed)
        formula, varmap = random_formula(rng)
        program = build_program(formula, varmap)
        _assert_batch_matches(program, _points(rng, varmap, rows))

    @pytest.mark.parametrize("path", sorted(corpus_dir().glob("*.smt2")),
                             ids=lambda p: p.name)
    def test_bitwise_equal_on_corpus(self, path):
        program = load_problem(path).program
        rng = random.Random(path.name)
        for rows in (1, 7, 64):
            _assert_batch_matches(program, _points(rng, program.varmap, rows))

    @given(rows=st.integers(1, 64), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncates_at_first_zero(self, rows, data, listing1_text):
        program = build_problem(listing1_text).program
        X = np.linspace(0.5, 3.0, rows).reshape(rows, 1)
        zeros = data.draw(st.lists(st.integers(0, rows - 1), max_size=3))
        X[zeros] = -2.0  # listing1's solution
        before = program.eval_count
        got = batch_values(program, X)
        first = min(zeros, default=rows - 1)
        assert len(got) == first + 1 == program.eval_count - before
        assert (got[-1] == 0.0) == bool(zeros)
        assert np.all(got[:-1] > 0.0)
        _assert_batch_matches(program, X)

    def test_dimension_mismatch(self, listing1_text):
        program = build_problem(listing1_text).program
        with pytest.raises(DimensionMismatchError):
            batch_values(program, np.zeros((3, 2)))


# Objective values on the corpus, pinned by SHA-256 over the packed
# binary64 results of `_pinned_values`. They guard every change to the
# frontend or the tape that must leave the objective's bytes alone.
PINNED_SPECIALS = (0.0, math.inf, math.nan, 5e-324, 1e-45, 3.4e38, 1e308)
PINNED_DIGESTS = {
    "branching.smt2":
        "bc275062536f65819085384e2a1f6c126045b72550d8c4cfa7dddb7ead076bbe",
    "conjunction2d.smt2":
        "0f710ac7582ded8ef98e390b00eeaf78a66aa219ca03155a9a29dc1ecc40aab4",
    "disjunction.smt2":
        "be6e6dadf87b3b603979a10245ea97882c89396de76474b1ba278ee92f63092f",
    "equality32.smt2":
        "6cc42fabc2fa995d874907a6f7c950b74084e49ac7888bba1ee64abeaa3731ef",
    "infeasible_abs.smt2":
        "89298073e4ea033691dda57fd1a66097fbd778e055d8f6296cd1f43dc9f3ad4f",
    "infeasible_box.smt2":
        "e7c59947b040dfda32251dc5471784a26fa15b5aa220d01c950a062d6fa2bb1c",
    "infeasible_cycle.smt2":
        "008386f761cc0e71aee86d594b44202a6160fe9eef666878a3ff9ccce441e192",
    "infeasible_irreflexive.smt2":
        "861da30b0efeb3601cd1f13f1d02ccdaecf10290375f8ec4c189005114fa1872",
    "listing1.smt2":
        "1cd7b716a384dc201cc5cd08f78d563b42ac27629e16f65b53c6b383b98054d1",
    "mixed_width.smt2":
        "0aec9fcb8413c6267c42a9f3f6892fd99de5cc8a9303f8f9ed0da0875f0a1106",
    "negated_guard.smt2":
        "0993816a395a390180b492ffc8566696fd326f0b4587f0ff8aeadc9c32abb6b3",
    "quadratic64.smt2":
        "f63aee0c19de9cb380418346c55302fe698f84941ab3eb50aa4a860c35e78481",
}


def _pinned_points(name: str, dim: int) -> np.ndarray:
    """350 seeded points; about 30% of the coordinates are special values
    of either sign, the rest are uniform in [-4, 4] or any binary64."""
    rng = random.Random(f"pinned/{name}")

    def one():
        r = rng.random()
        if r < 0.3:
            return rng.choice(PINNED_SPECIALS) * rng.choice((1.0, -1.0))
        if r < 0.65:
            return rng.uniform(-4.0, 4.0)
        return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]

    return np.array([[one() for _ in range(dim)] for _ in range(350)],
                    dtype=float).reshape(350, dim)


def _pinned_values(program, X) -> tuple[str, str]:
    """Digests of `evaluate` and of the optimizers' batch (`batch_values`)
    over the rows of X; the batch is resumed after each zero, where it
    ends."""
    one = np.array([program.evaluate(x) for x in X])
    many = []
    while len(many) < len(X):
        many.extend(batch_values(program, X[len(many):]).tolist())
    return (hashlib.sha256(one.tobytes()).hexdigest(),
            hashlib.sha256(np.array(many).tobytes()).hexdigest())


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_pinned_corpus_objective(name):
    program = load_problem(corpus_dir() / name).program
    X = _pinned_points(name, program.dimension)
    assert _pinned_values(program, X) == (PINNED_DIGESTS[name],) * 2


def _f64(v: float) -> str:
    return f"((_ to_fp 11 53) RNE {v})"


# Clause shapes the corpus lacks: there every clause has one or two
# literals, and no literal occurs in two clauses.
_HEAD = "(set-logic QF_FP)\n"
_XS = [f"x{i}" for i in range(20)]
SHAPES = {
    # 27 clauses of three literals, over 9 distinct literals
    "or-of-ands": _HEAD
    + "(declare-fun x () (_ FloatingPoint 11 53))\n"
      "(declare-fun y () (_ FloatingPoint 11 53))\n"
      "(declare-fun z () (_ FloatingPoint 8 24))\n"
      "(declare-fun w () (_ FloatingPoint 8 24))\n"
      f"(assert (or (and (fp.lt x y) (fp.leq y {_f64(2.0)}) (not (fp.eq z w)))\n"
      f"            (and (fp.gt x {_f64(1.0)}) (fp.eq z ((_ to_fp 8 24) RNE 0.5)) (not (fp.lt y x)))\n"
      f"            (and (fp.geq (fp.mul RNE x y) {_f64(4.0)}) (fp.lt w z) (fp.leq x y))))\n",
    # the product of the first 20 distances overflows to inf on most
    # points, and the last literal often holds
    "overflow-then-satisfied": _HEAD
    + "".join(f"(declare-fun {v} () (_ FloatingPoint 11 53))\n" for v in _XS)
    + "(assert (or " + " ".join(f"(fp.eq {v} {_f64(1.0)})" for v in _XS)
    + f" (fp.lt x0 {_f64(1.0)})))\n"
      "(assert (fp.leq x1 x2))\n",
    "assert-false": _HEAD
    + "(declare-fun x () (_ FloatingPoint 8 24))\n(assert false)\n",
    "constant-true": _HEAD
    + "(declare-fun x () (_ FloatingPoint 11 53))\n"
      "(declare-fun y () (_ FloatingPoint 8 24))\n"
      f"(assert (fp.lt {_f64(1.0)} {_f64(2.0)}))\n",
}
SHAPE_DIGESTS = {
    "or-of-ands":
        "efc958f1d8e18ebbaca73e29a70d623696169e15c68df8d24e005fbdf731b2f7",
    "overflow-then-satisfied":
        "4140755fcd9613cfb1488586a31a8087854fbf4a46dabbf30c1e638cf95066a0",
    "assert-false":
        "137d44cf0bf4287b3ea2b7e9c0c50954e0e7ee1bb560be0256e29bd59effe465",
    "constant-true":
        "cd99e0d7b38a723658d7bf5eb2e9bb3238a13d62a467a1e7b4608db065cdf744",
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_pinned_shape_objective(name):
    problem = build_problem(SHAPES[name])
    program = problem.program
    X = _pinned_points(name, program.dimension)
    assert _pinned_values(program, X) == (SHAPE_DIGESTS[name],) * 2
    # the zero set is the formula's, and every nonzero value is at least 1
    names = [name for name, _ in problem.varmap]
    for x in X:
        g = program.evaluate(x)
        assert (g == 0.0) == semantic_eval(problem.formula, dict(zip(names, x))), x
        assert g == 0.0 or g >= 1.0, x


@pytest.mark.parametrize("name", list(SHAPES))
def test_one_distance_per_distinct_literal(name):
    problem = build_problem(SHAPES[name])
    literals = {lit for clause in problem.clauses for lit in clause}
    dists = [inst[4] for inst in problem.program._tape if inst[0] == _DIST]
    assert len(dists) == len(literals)
    assert len({(d.lhs_reg, d.rhs_reg, d.op, d.negated) for d in dists}) == len(dists)


def _or_of_ands(k: int):
    """An `or` of k three-literal `and`s over three binary64 variables, whose
    CNF has 3^k clauses; also its variable map and one model per `and`."""
    x, y, z = (FPVar(n, FP64) for n in "xyz")
    disjuncts, models = [], []
    for i in range(k):
        lo, hi = FPConst(f64(i)), FPConst(f64(i + 0.5))
        negated = i % 2 == 1
        disjuncts.append(BoolAnd((
            Compare(CmpOp.GEQ, x, lo),
            Compare(CmpOp.LT, x, hi),
            Compare(CmpOp.LT, y, FPArith(ArithOp.ADD, (z, lo)), negated),
        )))
        models.append([i + 0.25, i + 1.0 if negated else -1.0, 0.0])
    return BoolOr(tuple(disjuncts)), [(n, FP64) for n in "xyz"], models


def test_or_of_ands_compiles_linearly():
    formula, varmap, models = _or_of_ands(20)
    t0 = time.perf_counter()
    program = compile_objective(push_negations(simplify(formula)), varmap)
    assert time.perf_counter() - t0 < 0.1
    # each `and` adds the same number of instructions
    l5, l10 = (len(compile_objective(push_negations(simplify(_or_of_ands(k)[0])),
                                     varmap)._tape) for k in (5, 10))
    assert len(program._tape) - l10 == 2 * (l10 - l5)

    rng = random.Random(20)
    points = models + [[m[0], m[1] + rng.choice((-1.0, 1.0)), m[2]] for m in models]
    points += [[random_fp_double(rng, 64) for _ in varmap] for _ in range(300)]
    points += [[rng.uniform(-1.0, 21.0) for _ in varmap] for _ in range(300)]
    zeros = 0
    for x in points:
        g = program.evaluate(x)
        assert (g == 0.0) == semantic_eval(formula, dict(zip("xyz", x))), x
        assert g == 0.0 or g >= 1.0, x
        zeros += g == 0.0
    assert zeros >= len(models)
    _assert_batch_matches(program, np.array(points))


def test_ite_condition_shares_the_literal_distance():
    # `x < 0` is a clause literal and the ite's condition: one distance
    x = FPVar("x", FP64)
    zero, one = FPConst(f64(0.0)), FPConst(f64(1.0))
    negative = Compare(CmpOp.LT, x, zero)
    formula = BoolAnd((negative, Compare(
        CmpOp.GEQ, Ite(negative, FPArith(ArithOp.NEG, (x,)), x), one)))
    program = compile_objective(push_negations(simplify(formula)), [("x", FP64)])
    assert sum(inst[0] == _DIST for inst in program._tape) == 2
    for v in (-2.0, -1.0, -0.5, -0.0, 0.0, 1.0, 2.0, math.nan, -math.inf):
        g = program.evaluate([v])
        assert (g == 0.0) == semantic_eval(formula, {"x": v}), v


class TestSemanticEval:
    def test_listing1_truth(self, listing1_text):
        problem = build_problem(listing1_text)
        assert semantic_eval(problem.formula, {"x": -2.0}) is True
        assert semantic_eval(problem.formula, {"x": 0.0}) is False

    def test_lt_irreflexive(self):
        x = FPVar("x", FP64)
        t = Compare(CmpOp.LT, x, x)
        for v in (0.0, -1.5, float("inf"), float("nan")):
            assert semantic_eval(t, {"x": v}) is False

    def test_negated_lt_with_nan_true(self):
        x, y = FPVar("x", FP64), FPVar("y", FP64)
        t = BoolNot(Compare(CmpOp.LT, x, y))
        assert semantic_eval(t, {"x": 1.0, "y": float("nan")}) is True

    def test_accepts_fpvalue_bindings(self):
        x = FPVar("x", FP32)
        t = Compare(CmpOp.EQ, x, FPConst(f32(1.0)))
        assert semantic_eval(t, {"x": f32(1.0)}) is True


# numpy's scalar arithmetic, the reference for the oracle's own
_NUMPY_OPS = {ArithOp.ADD: operator.add, ArithOp.SUB: operator.sub,
              ArithOp.MUL: operator.mul, ArithOp.DIV: operator.truediv,
              ArithOp.NEG: operator.neg, ArithOp.ABS: abs}
_MAX32 = 3.4028234663852886e38


def oracle_arith(op, width, *operands):
    """The oracle's value of `op` on variables bound to the operands."""
    sort = FP32 if width == 32 else FP64
    names = "ab"[:len(operands)]
    term = FPArith(op, tuple(FPVar(n, sort) for n in names))
    return _sem_fp(term, dict(zip(names, operands)), {})


def numpy_arith(op, width, *operands):
    scalar = np.float32 if width == 32 else np.float64
    with np.errstate(all="ignore"):
        return float(_NUMPY_OPS[op](*map(scalar, operands)))


def same_value(got, want, width):
    """Both NaN, or the same encoding (so -0.0 is not 0.0)."""
    if want != want:
        return got != got
    fmt = "<f" if width == 32 else "<d"
    return struct.pack(fmt, got) == struct.pack(fmt, want)


def operands(width):
    """Values of a width: plain floats and arbitrary encodings."""
    return st.one_of(st.floats(width=width),
                     st.integers(0, 2**width - 1).map(lambda b: bits_to_double(b, width)))


class TestOracleArithmetic:
    """`semantic_eval`'s own IEEE arithmetic, Python floats with its own
    binary32 rounding, against numpy's float32 and float64."""

    @pytest.mark.parametrize("width", [32, 64])
    def test_special_operands(self, width):
        # +-0, +-min subnormal, +-1, +-max finite, +-inf, two NaNs, and the
        # largest subnormal
        values = [v.to_float() for v in structured_values(width)]
        values.append(bits_to_double(0x007FFFFF, 32) if width == 32 else 2.225073858507201e-308)
        for op in (ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV):
            for a in values:
                for b in values:
                    got, want = oracle_arith(op, width, a, b), numpy_arith(op, width, a, b)
                    assert same_value(got, want, width), (op, a, b, got, want)
        for op in (ArithOp.NEG, ArithOp.ABS):
            for a in values:
                assert same_value(oracle_arith(op, width, a), numpy_arith(op, width, a),
                                  width), (op, a)

    @pytest.mark.parametrize("width", [32, 64])
    @pytest.mark.parametrize("op,a,b,want", [
        (ArithOp.DIV, 1.0, 0.0, math.inf),
        (ArithOp.DIV, -1.0, 0.0, -math.inf),
        (ArithOp.DIV, 1.0, -0.0, -math.inf),
        (ArithOp.DIV, -math.inf, -0.0, math.inf),
        (ArithOp.DIV, 0.0, 0.0, math.nan),
        (ArithOp.DIV, -0.0, 0.0, math.nan),
        (ArithOp.DIV, math.nan, 0.0, math.nan),
        (ArithOp.SUB, math.inf, math.inf, math.nan),
        (ArithOp.ADD, -math.inf, math.inf, math.nan),
        (ArithOp.MUL, 0.0, math.inf, math.nan),
        (ArithOp.MUL, _MAX32, 2.0, math.inf),
        (ArithOp.MUL, -_MAX32, _MAX32, -math.inf),
    ], ids=["x/0", "-x/0", "x/-0", "-inf/-0", "0/0", "-0/0", "nan/0", "inf-inf",
            "-inf+inf", "0*inf", "overflow", "-overflow"])
    def test_ieee_cases(self, width, op, a, b, want):
        if width == 64 and op is ArithOp.MUL and abs(a) == _MAX32:
            a, b = a * 2.0**896, b * 2.0**896  # the same overflow at binary64's top
        got = oracle_arith(op, width, a, b)
        assert same_value(got, want, width), got
        assert same_value(got, numpy_arith(op, width, a, b), width)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), width=st.sampled_from([32, 64]),
           op=st.sampled_from(list(_NUMPY_OPS)))
    def test_random_operands(self, data, width, op):
        args = [data.draw(operands(width)) for _ in range(1 if op in (ArithOp.NEG,
                                                                       ArithOp.ABS) else 2)]
        got, want = oracle_arith(op, width, *args), numpy_arith(op, width, *args)
        assert same_value(got, want, width), (args, got, want)

    @settings(max_examples=300, deadline=None)
    @given(v=st.one_of(st.floats(), st.sampled_from([
        2.0**128 - 2.0**103,  # halfway from the largest finite to 2^128: inf
        math.nextafter(2.0**128 - 2.0**103, 0.0),  # just below it: the largest
        2.0**-150,  # half the smallest subnormal: a tie, to +0
        math.nextafter(2.0**-150, 1.0),  # just above it: the smallest subnormal
        3 * 2.0**-150,  # 1.5 smallest subnormals: a tie, to even (2)
        1.0 + 2.0**-24,  # a tie at 1: to 1
        1.0 + 3 * 2.0**-24,  # a tie: to even, 1 + 2^-22
    ])))
    def test_binary32_substitution_rounds_to_nearest_even(self, v):
        got = _sem_fp(FPVar("x", FP32), {"x": v}, {})
        with np.errstate(all="ignore"):
            want = float(np.float32(v))
        assert same_value(got, want, 32), (v, got, want)


class TestRenderSource:
    def test_contains_clause_definitions_and_sum(self, listing1_text):
        program = build_problem(listing1_text).program
        src = render_objective_source(program)
        assert "double objective(const double *x)" in src
        assert "? 0.0 : theta32(" in src
        assert "d_geq" not in src
        # listing1 is one unit clause: its literal's distance is the objective
        out = program._out
        assert f"const double v{out} = " in src
        assert f"return v{out};" in src

    def test_deterministic(self, listing1_text):
        p1 = build_problem(listing1_text).program
        p2 = build_problem(listing1_text).program
        assert render_objective_source(p1) == render_objective_source(p2)

    def test_zero_dimensional(self):
        program = build_problem(
            "(set-logic QF_FP)"
            "(assert (fp.lt ((_ to_fp 8 24) RNE 1.0) ((_ to_fp 8 24) RNE 2.0)))"
            "(check-sat)"
        ).program
        src = render_objective_source(program)
        out = program._out
        assert f"const double v{out} = 0x0.0p+0;" in src
        assert f"return v{out};" in src

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
    @pytest.mark.parametrize("name", CORPUS_NAMES + ["twelve-cases", "or-of-ands"])
    def test_compiled_source_agrees_with_tape(self, tmp_path, name):
        if name == "twelve-cases":
            program, satisfied = _twelve_case_program()
        elif name in SHAPES:
            program = build_problem(SHAPES[name]).program
            satisfied = None
        else:
            program = load_problem(corpus_dir() / name).program
            satisfied = None
        c_objective = _compile_c(program, tmp_path)
        sorts = [sort for _, sort in program.varmap]
        rng = random.Random(41)
        for _ in range(3000):
            # binary32 slots also get binary64 values, to exercise narrowing
            x = [random_fp_double(rng, rng.choice((sort.width, 64)))
                 for sort in sorts]
            if satisfied is not None:
                # one random literal; every other one holds, so the sum is
                # that literal's distance alone
                k = rng.randrange(len(satisfied))
                if rng.random() < 0.3:
                    x[2 * k + 1] = x[2 * k]  # equal operands
                for j, pair in enumerate(satisfied):
                    if j != k:
                        x[2 * j:2 * j + 2] = pair
            c_val = c_objective(x)
            py_val = program.evaluate(x)
            assert struct.pack("<d", c_val) == struct.pack("<d", py_val), (name, x)


def _twelve_case_program():
    """One unit clause per (op, negated) case at each width, over its own two
    variables; also returns, per literal, an operand pair at which it holds."""
    atoms, varmap, satisfied = [], [], []
    for sort in (FP32, FP64):
        for op in CmpOp:
            for neg in (False, True):
                a = FPVar(f"a{len(atoms)}", sort)
                b = FPVar(f"b{len(atoms)}", sort)
                atoms.append(Compare(op, a, b, neg))
                varmap += [(a.name, sort), (b.name, sort)]
                satisfied.append(next(
                    pair for pair in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
                    if COMPARE[op](*pair) != neg
                ))
    return compile_objective(BoolAnd(tuple(atoms)), varmap), satisfied


def _compile_c(program, tmp_path):
    """Compile the rendered source; returns the objective as a function."""
    c_file = tmp_path / "obj.c"
    so_file = tmp_path / "obj.so"
    c_file.write_text(render_objective_source(program))
    subprocess.run(
        ["gcc", *KERNEL_CFLAGS, "-o", str(so_file), str(c_file)],
        check=True,
    )
    lib = ctypes.CDLL(str(so_file))
    lib.objective.restype = ctypes.c_double
    lib.objective.argtypes = [ctypes.POINTER(ctypes.c_double)]
    n = program.dimension
    return lambda x: lib.objective((ctypes.c_double * n)(*x))


class TestRequirementsSmoke:
    """Small-scale R(1)-R(3); the acceptance suite runs the full volume."""

    def test_r1_r2_r3_random(self):
        rng = random.Random(1234)
        for _ in range(40):
            formula, varmap = random_formula(rng)
            program = build_program(formula, varmap)
            for _ in range(200):
                a = random_assignment(rng, varmap)
                x = [a[n] for n, _ in varmap]
                g = program.evaluate(x)
                truth = semantic_eval(formula, a)
                assert g >= 0.0 or g != g is False
                assert not (g < 0.0)
                assert (g == 0.0) == truth

    def test_r1_r2_r3_corpus_formulas_high_volume(self):
        # 1e5 random vectors per bundled corpus formula, specials included
        from fpsat import load_problem
        from fpsat.harness import corpus_dir

        rng = random.Random(0xC0)
        for path in sorted(corpus_dir().glob("*.smt2")):
            problem = load_problem(path)
            varmap = problem.varmap
            program = build_program(problem.formula, varmap)
            for _ in range(100_000):
                a = random_assignment(rng, varmap)
                x = [a[n] for n, _ in varmap]
                g = program.evaluate(x)
                assert not (g < 0.0) and g == g, (path.name, x)
                if (g == 0.0) != semantic_eval(problem.formula, a):
                    raise AssertionError(f"{path.name}: G={g} at {x}")
