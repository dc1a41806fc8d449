"""Bit-level utilities: narrowing, ordered mapping, exact decimal rounding."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsat.fp import (
    FPValue,
    bits_to_float,
    decimal_to_bits,
    float_to_bits,
    narrow32,
    ordered_bits,
    parse_real,
    round_rational_to_bits,
)


class TestNarrow32:
    def test_exact_values_pass_through(self):
        for v in (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, float("inf"), float("-inf")):
            assert narrow32(v) == v or (v != v)

    def test_nan_stays_nan(self):
        assert math.isnan(narrow32(float("nan")))

    def test_overflow_to_infinity(self):
        assert narrow32(1e300) == math.inf
        assert narrow32(-1e300) == -math.inf

    def test_rne_boundary(self):
        # halfway between binary32 max and 2^128 rounds to the even
        # neighbour, which is infinity
        threshold = 2.0**128 - 2.0**103
        f32_max = float.fromhex("0x1.fffffep+127")
        assert narrow32(threshold) == math.inf
        assert narrow32(math.nextafter(threshold, 0.0)) == f32_max

    @given(st.floats(allow_nan=False, width=64))
    @settings(max_examples=500)
    def test_matches_numpy_cast(self, v):
        ours = narrow32(v)
        with np.errstate(over="ignore"):
            theirs = float(np.float32(v))
        assert ours == theirs or (math.isnan(ours) and math.isnan(theirs))

    @given(st.floats(width=32, allow_nan=False))
    @settings(max_examples=300)
    def test_idempotent_on_binary32(self, v):
        assert narrow32(v) == v


class TestNarrowAfterOp:
    """Computing binary32 ops in binary64 then narrowing is exact: binary64
    carries more than 2*24+2 significand bits, so no double rounding."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_matches_native_float32_arithmetic(self, op):
        rng = np.random.default_rng(0xB17)
        n = 200_000
        with np.errstate(all="ignore"):
            fa = rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32)
            fb = rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32)
            native = {"add": fa + fb, "sub": fa - fb,
                      "mul": fa * fb, "div": fa / fb}[op]
            da, db = fa.astype(np.float64), fb.astype(np.float64)
            wide = {"add": da + db, "sub": da - db,
                    "mul": da * db, "div": da / db}[op]
            narrowed = wide.astype(np.float32)
            mismatch = (native.view(np.uint32) != narrowed.view(np.uint32)) \
                & ~(np.isnan(native) & np.isnan(narrowed))
        assert int(mismatch.sum()) == 0


class TestOrderedBits:
    def test_zero_signs_coincide(self):
        assert ordered_bits(0x00000000, 32) == ordered_bits(0x80000000, 32) == 0

    def test_monotone_over_adjacent_encodings(self):
        # exhaustive over a band of positive and negative binary32 encodings
        for base in (0x00000000, 0x3F800000, 0x7F7FFF00):
            for off in range(255):
                a = ordered_bits(base + off, 32)
                b = ordered_bits(base + off + 1, 32)
                assert b == a + 1
        for base in (0x80000000, 0xBF800000):
            for off in range(255):
                a = ordered_bits(base + off, 32)
                b = ordered_bits(base + off + 1, 32)
                assert b == a - 1

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=2000)
    def test_order_matches_value_order_binary32(self, ba, bb):
        va, vb = bits_to_float(ba, 32), bits_to_float(bb, 32)
        if math.isnan(va) or math.isnan(vb):
            return
        oa, ob = ordered_bits(ba, 32), ordered_bits(bb, 32)
        if va < vb:
            assert oa < ob
        elif va > vb:
            assert oa > ob
        else:
            assert oa == ob  # only +0/-0 share a value

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=1000)
    def test_roundtrip_bits_binary64(self, bits):
        v = bits_to_float(bits, 64)
        if math.isnan(v):
            return
        assert float_to_bits(v, 64) == bits


class TestFPValue:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=1000)
    def test_bit_roundtrip_32(self, bits):
        v = FPValue(32, bits)
        assert FPValue.from_float(v.to_float(), 32).bits == bits or v.is_nan()

    def test_nan_payload_preserved_in_encoding(self):
        v = FPValue(32, 0x7F800001)  # signalling payload
        assert v.bits == 0x7F800001
        assert v.is_nan()

    def test_hex_literal(self):
        assert FPValue(32, 0x40000000).hex_literal() == "#x40000000"
        assert FPValue(64, 0x3FF0000000000000).hex_literal() == "#x3ff0000000000000"

    def test_from_float_narrows(self):
        assert FPValue.from_float(1e300, 32).to_float() == math.inf


class TestDecimalRounding:
    @pytest.mark.parametrize("text,width", [
        ("1.0", 32), ("2.0", 32), ("0.1", 32), ("0.25", 64),
        ("3.5", 64), ("123456.789", 64), ("0.001", 32),
    ])
    def test_matches_platform_strtod(self, text, width):
        bits = decimal_to_bits(text, width)
        if width == 64:
            assert bits == float_to_bits(float(text), 64)
        else:
            assert bits == float_to_bits(float(np.float32(text)), 32)

    def test_subnormal(self):
        # smallest positive binary32 subnormal is 2^-149
        bits = round_rational_to_bits(Fraction(1, 2**149), 32)
        assert bits == 1
        # half of it ties to even -> zero
        bits = round_rational_to_bits(Fraction(1, 2**150), 32)
        assert bits == 0

    def test_overflow(self):
        bits = decimal_to_bits("1" + "0" * 60, 32)
        assert bits_to_float(bits, 32) == math.inf

    def test_tie_to_even(self):
        # 1 + 2^-24 sits exactly between 1.0 and the next binary32 value
        tie = Fraction(1) + Fraction(1, 2**24)
        assert round_rational_to_bits(tie, 32) == 0x3F800000
        # 1 + 3*2^-24 ties between odd and even mantissa; rounds up to even
        tie = Fraction(1) + Fraction(3, 2**24)
        assert round_rational_to_bits(tie, 32) == 0x3F800002

    @given(st.fractions(min_value=-10**9, max_value=10**9))
    @settings(max_examples=500)
    def test_binary64_matches_fraction_conversion(self, frac):
        # Python converts Fraction -> float with exact RNE as well
        bits = round_rational_to_bits(frac, 64)
        assert bits_to_float(bits, 64) == float(frac)


class TestParseReal:
    # 1 + 2^-53, the binary64 midpoint between 1 and its successor
    MIDPOINT = "1.00000000000000011102230246251565404236316680908203125"

    @pytest.mark.parametrize("tail, value", [
        ("", 1.0),  # a tie goes to the even neighbour
        ("0" * 1000, 1.0),
        ("0" * 1000 + "1", 1.0 + 2.0**-52),  # a digit past the kept ones decides
    ])
    def test_long_tail_past_a_midpoint(self, tail, value):
        assert bits_to_float(decimal_to_bits(self.MIDPOINT + tail, 64), 64) == value

    @given(st.text("0123456789", min_size=1, max_size=1200),
           st.integers(-1500, 1500), st.sampled_from(["", "-"]))
    @settings(max_examples=300)
    def test_rounds_like_the_exact_value(self, digits, exp, sign):
        text = f"{sign}{digits}e{exp}"
        for width in (32, 64):
            assert decimal_to_bits(text, width) == round_rational_to_bits(Fraction(text), width)

    @pytest.mark.parametrize("text", ["1_000.5e-1_0", ".5", "5.", "+3/4", "-0/7"])
    def test_reads_what_fraction_reads(self, text):
        assert parse_real(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["1/0", "0/0", "inf", "nan", "1e", "--1", ""])
    def test_malformed_is_value_error(self, text):
        with pytest.raises(ValueError):
            parse_real(text)
