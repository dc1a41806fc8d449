"""IEEE 754 bit-level utilities: sorts, exact values, narrowing, bit distances.

Only binary32 (8/24) and binary64 (11/53) are supported. Values travel
through the package as Python floats (binary64); binary32 quantities are
kept exactly representable by narrowing after every operation, which is
correctly rounded for +,-,*,/ because binary64 carries more than
2*24 + 2 significand bits.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Sort",
    "BOOL",
    "FP32",
    "FP64",
    "FPValue",
    "fp_sort",
    "narrow32",
    "ieee_div",
    "bits_to_float",
    "float_to_bits",
    "ordered_bits",
    "round_rational_to_bits",
    "decimal_to_bits",
    "parse_real",
]

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

# Smallest binary64 magnitude that rounds to binary32 infinity under RNE.
_F32_OVERFLOW = 2.0**128 - 2.0**103


@dataclass(frozen=True)
class Sort:
    """A term sort: Bool, RoundingMode, or FloatingPoint(eb, sb)."""

    kind: str  # "Bool" | "FP" | "RoundingMode"
    eb: int = 0
    sb: int = 0  # significand bits including the hidden bit

    @property
    def width(self) -> int:
        return self.eb + self.sb

    @property
    def is_fp(self) -> bool:
        return self.kind == "FP"

    def __str__(self) -> str:
        if self.kind == "FP":
            return f"(_ FloatingPoint {self.eb} {self.sb})"
        return self.kind


BOOL = Sort("Bool")
ROUNDING_MODE = Sort("RoundingMode")
FP32 = Sort("FP", 8, 24)
FP64 = Sort("FP", 11, 53)


def fp_sort(eb: int, sb: int) -> Sort | None:
    """Return FP32/FP64 for the two accepted layouts, else None."""
    if (eb, sb) == (8, 24):
        return FP32
    if (eb, sb) == (11, 53):
        return FP64
    return None


def narrow32(v: float) -> float:
    """Round a binary64 value to the nearest binary32 value (RNE).

    The result is returned as a Python float that is exactly representable
    in binary32 (NaN stays NaN; overflow goes to +/-inf).
    """
    if v != v:
        return v
    if -_F32_OVERFLOW < v < _F32_OVERFLOW:
        return _F32.unpack(_F32.pack(v))[0]
    return math.inf if v > 0 else -math.inf


def ieee_div(a: float, b: float) -> float:
    """IEEE binary64 division; a zero divisor gives ±inf, or NaN for 0/0
    and NaN/0, where Python would raise ZeroDivisionError."""
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf if sign > 0 else -math.inf
    return a / b


def bits_to_float(bits: int, width: int) -> float:
    """Reinterpret an IEEE encoding as a float (binary32 values widen exactly)."""
    if width == 32:
        return _F32.unpack(_U32.pack(bits))[0]
    return _F64.unpack(_U64.pack(bits))[0]


def float_to_bits(v: float, width: int) -> int:
    """IEEE encoding of a value; the value must be exact at the given width."""
    if width == 32:
        return _U32.unpack(_F32.pack(v))[0]
    return _U64.unpack(_F64.pack(v))[0]


def ordered_bits(bits: int, width: int) -> int:
    """Map an IEEE encoding to a signed integer that orders like the values.

    Sign-magnitude encodings become signed magnitudes, so -0.0 and +0.0 both
    map to 0 and the mapping is monotone across the sign boundary. NaN
    encodings are not meaningful here and must be filtered by the caller.
    """
    sign = 1 << (width - 1)
    if bits & sign:
        return -(bits & (sign - 1))
    return bits


@dataclass(frozen=True)
class FPValue:
    """An exact IEEE 754 value: a bit pattern at a fixed width (32 or 64)."""

    width: int
    bits: int

    def __post_init__(self):
        if self.width not in (32, 64):
            raise ValueError(f"unsupported width {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"bits out of range for width {self.width}")

    @property
    def sort(self) -> Sort:
        return FP32 if self.width == 32 else FP64

    def to_float(self) -> float:
        return bits_to_float(self.bits, self.width)

    @classmethod
    def from_float(cls, v: float, width: int) -> "FPValue":
        if width == 32:
            v = narrow32(v)
        return cls(width, float_to_bits(v, width))

    def is_nan(self) -> bool:
        v = self.to_float()
        return v != v

    def hex_literal(self) -> str:
        return f"#x{self.bits:0{self.width // 4}x}"

    def __str__(self) -> str:
        return f"{self.to_float()!r}:{self.width}"


def round_rational_to_bits(value: Fraction, width: int) -> int:
    """Round an exact rational to the nearest IEEE value at `width` (RNE).

    Handles subnormals, overflow to infinity, and ties-to-even exactly;
    used for decimal literals so no double rounding can occur.
    """
    eb, sb = (8, 24) if width == 32 else (11, 53)
    bias = (1 << (eb - 1)) - 1
    emax = bias
    emin = 1 - bias

    if value == 0:
        return 0
    sign = 0
    if value < 0:
        sign = 1 << (width - 1)
        value = -value

    # Find e with 2^e <= value < 2^(e+1).
    e = value.numerator.bit_length() - value.denominator.bit_length()
    if Fraction(2) ** e > value:
        e -= 1
    elif Fraction(2) ** (e + 1) <= value:
        e += 1

    # Significand grid: normal numbers use sb bits, subnormals fewer.
    if e < emin:
        e = emin
        # value may be below the normal range; quantum stays 2^(emin - sb + 1)
    quantum = Fraction(2) ** (e - sb + 1)
    steps = value / quantum
    n = steps.numerator // steps.denominator
    rem = steps - n
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and n % 2 == 1):
        n += 1
    # n now counts quanta; renormalize if rounding crossed a binade.
    if n.bit_length() > sb:
        n >>= 1
        e += 1
    if e > emax:
        # overflow: infinity
        return sign | (((1 << eb) - 1) << (sb - 1))
    if n.bit_length() == sb:
        # normal: strip hidden bit
        mantissa = n - (1 << (sb - 1))
        biased = e + bias
        return sign | (biased << (sb - 1)) | mantissa
    # subnormal (biased exponent 0)
    return sign | n


# The texts `Fraction` reads: a signed numeral, decimal or ratio of numerals,
# with an optional exponent on the first two and `_` between digits.
_REAL = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                   r"(?:/(\d+(?:_\d+)*)|(?:\.(\d+(?:_\d+)*|))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*")
# Decimal digits kept: more than the 768 significant digits of any binary64
# value or midpoint between two, so the rounding of what is dropped is
# decided by one sticky digit.
_KEPT_DIGITS = 800
# Every decimal of magnitude 10^400 or more rounds to infinity, and every
# one below 10^-400 to zero, at both widths.
_DECADES = 400


def parse_real(text: str) -> Fraction:
    """The value of a real literal, the text `Fraction` reads, in time
    linear in its length. A decimal is exact, or else a stand-in that
    rounds like it at both widths: past 10^±400 it is clamped, and past
    its 800th significant digit the rest is one sticky digit. ValueError
    if the text is malformed, divides by zero, or has a ratio with
    numerals past Python's int digit limit."""
    if not text.isascii():  # int() reads every Unicode decimal digit
        import unicodedata
        text = "".join(str(unicodedata.decimal(c, "")) or c for c in text)
    match = _REAL.fullmatch(text)
    if match is None:
        raise ValueError(f"{text!r} is not a real literal")
    sign, num, den, frac, exp = (g and g.replace("_", "") for g in match.groups())
    if den is not None:
        if not den.strip("0"):
            raise ValueError(f"{text!r} divides by zero")
        value = Fraction(int(num), int(den))
        return -value if sign == "-" else value
    digits = (num + (frac or "")).lstrip("0")
    if not digits:
        return Fraction(0)
    exp = (exp or "0").lstrip("+")
    # an exponent of ten or more digits is past either clamp
    shift = int(exp) if len(exp.lstrip("-0")) < 10 else (-1 if exp[0] == "-" else 1) * 10**9
    shift -= len(frac or "")
    decades = len(digits) + shift
    if decades > _DECADES:
        value = Fraction(10**_DECADES)
    elif decades < -_DECADES:
        value = Fraction(1, 10**(_DECADES + 1))
    else:
        if len(digits) > _KEPT_DIGITS:
            shift += len(digits) - _KEPT_DIGITS - 1
            digits = digits[:_KEPT_DIGITS] + ("1" if digits[_KEPT_DIGITS:].strip("0") else "0")
        value = Fraction(int(digits) * 10**max(shift, 0), 10**max(-shift, 0))
    return -value if sign == "-" else value


def decimal_to_bits(text: str, width: int) -> int:
    """Exact RNE conversion of an SMT-LIB decimal/numeral literal string."""
    return round_rational_to_bits(parse_real(text), width)
