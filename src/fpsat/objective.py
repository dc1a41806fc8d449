"""Distance-based objective compilation and evaluation.

A formula in negation normal form compiles to one flat register tape
with one output register, which holds the objective: XSat's representing
function, a distance that is 0 exactly where the formula holds. Each
distinct comparison is one distance instruction: 0 if it holds, else
θ(a, b), the operands' bit distance, plus 1 when the relation it
requires excludes equality. `and` sums its children's distances and `or`
takes their zero-propagating product, so every nonzero distance is at
least 1. An `ite` selects its then-branch where its condition's distance
is 0. The independent Boolean evaluator (`semantic_eval`) is the
correctness oracle for these claims and never touches the tape.
`compile_objective` also packs the tape into one immutable `bytes` image,
which the native kernels (`kernels.py`, `_kernels.c`) interpret bit for
bit as `evaluate` does. `evaluate` is a program's one evaluation method;
the optimizers hand the image to the kernels themselves for their
whole runs, and add those evaluations with `count_evals`.
The Python interpreter of the tape (`_evaluate_tape`) is the reference
and the fallback: without the kernels, `evaluate` runs it.
`render_objective_source` writes the same tape as C, one definition per
instruction.
"""

from __future__ import annotations

import ctypes
import functools
import math
import struct
import sys
import threading
from itertools import chain
from typing import Callable, NamedTuple

from . import kernels
from .errors import (
    DimensionMismatchError,
    SortError,
    UnboundVariableError,
)
from .fp import FP32, FP64, FPValue, Sort, float_to_bits, ieee_div, narrow32, ordered_bits
from .terms import (
    ArithOp,
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    COMPARE,
    CmpOp,
    Compare,
    FPArith,
    FPConst,
    FPVar,
    Ite,
    Term,
)

__all__ = [
    "theta",
    "atom_distance",
    "ObjectiveProgram",
    "compile_objective",
    "semantic_eval",
    "render_objective_source",
]


# --------------------------------------------------------------------------
# Distance functions (value level)
# --------------------------------------------------------------------------


def _theta_val(a: float, b: float, width: int) -> float:
    if a != a or b != b:
        return 1.0
    if a == b:  # IEEE equality: +0 == -0
        return 0.0
    da = ordered_bits(float_to_bits(a, width), width)
    db = ordered_bits(float_to_bits(b, width), width)
    return float(abs(da - db))


def theta(a: FPValue, b: FPValue) -> float:
    """Bit-representation distance; 1 for NaN operands, 0 iff IEEE-equal."""
    if a.width != b.width:
        raise SortError("theta operands must share a width")
    return _theta_val(a.to_float(), b.to_float(), a.width)


def atom_distance(op: CmpOp, negated: bool, a: FPValue, b: FPValue) -> float:
    """Distance of one (possibly negated) comparison; 0 iff it holds.

    This is the objective of the one-literal formula, so it follows the
    distance rule of `ObjectiveProgram.evaluate` by construction.
    """
    if a.width != b.width:
        raise SortError("atom operands must share a width")
    literal = Compare(op, FPConst(a), FPConst(b), bool(negated))
    return compile_objective(literal, []).evaluate(())


# --------------------------------------------------------------------------
# Tape compilation
# --------------------------------------------------------------------------

# opcodes; instructions are (code, dst, a, b, c)
_ADD32, _SUB32, _MUL32, _DIV32 = 0, 1, 2, 3
_ADD64, _SUB64, _MUL64, _DIV64 = 4, 5, 6, 7
_NEG, _ABS = 8, 9
_SELECT = 10  # a = the condition's distance; b if it is 0.0, else c
_DIST = 11  # c = the _Literal; 0.0 if it holds, else θ + its penalty
_MULZ = 12  # zero-propagating product: 0.0 if either factor is 0.0

# a literal's comparison in the native image (the enum in _kernels.c)
_CMP_CODE = {CmpOp.LT: 0, CmpOp.LEQ: 1, CmpOp.GT: 2, CmpOp.GEQ: 3,
             CmpOp.EQ: 4, CmpOp.NEQ: 5}


# A failed literal is charged θ, plus 1 when the relation it requires
# excludes equality: strict comparisons do, and negation swaps strict and
# non-strict (`not (a < b)` requires `a >= b` or a NaN). A failed literal
# that admits equality has unequal or NaN operands, so θ >= 1 there, and
# every nonzero distance is at least 1.
_STRICT = frozenset({CmpOp.LT, CmpOp.GT, CmpOp.NEQ})


class _Literal(NamedTuple):
    """A compiled comparison, the operand of one distance instruction."""

    holds: Callable[[float, float], bool]  # COMPARE[op]
    lhs_reg: int
    rhs_reg: int
    negated: bool
    penalty: float  # 1.0 if the required relation excludes equality
    width: int
    op: CmpOp


class _Compiler:
    def __init__(self, var_index: dict[str, tuple[int, Sort]]):
        self.var_index = var_index
        self.template: list = []
        self.widths: list[int] = []  # 32 or 64
        self.tape: list[tuple] = []
        self.memo: dict = {}  # term -> its value or distance register
        self.var_regs: list[tuple[int, int, bool]] = []  # (reg, x-index, is32)

    def new_reg(self, width: int, init=0.0) -> int:
        self.template.append(init)
        self.widths.append(width)
        return len(self.template) - 1

    def emit(self, code: int, width: int, a: int, b: int = 0, c=0) -> int:
        """Append one instruction writing a new register; returns it."""
        reg = self.new_reg(width)
        self.tape.append((code, reg, a, b, c))
        return reg

    def dist(self, op: CmpOp, lhs: int, rhs: int, negated: bool, width: int) -> int:
        """The distance instruction of one comparison of two registers."""
        strict = (op in _STRICT) != negated
        lit = _Literal(COMPARE[op], lhs, rhs, negated, 1.0 if strict else 0.0, width, op)
        return self.emit(_DIST, 64, lhs, rhs, lit)

    def compile_fp(self, term: Term) -> int:
        reg = self.memo.get(term)
        if reg is not None:
            return reg
        width = term.sort.width
        if isinstance(term, FPConst):
            reg = self.new_reg(width, term.value.to_float())
        elif isinstance(term, FPVar):
            entry = self.var_index.get(term.name)
            if entry is None:
                raise UnboundVariableError(f"variable {term.name} not in the variable map")
            idx, sort = entry
            reg = self.new_reg(width)
            self.var_regs.append((reg, idx, sort.width == 32))
        elif isinstance(term, FPArith):
            args = [self.compile_fp(a) for a in term.args]
            if term.op == ArithOp.NEG:
                reg = self.emit(_NEG, width, args[0])
            elif term.op == ArithOp.ABS:
                reg = self.emit(_ABS, width, args[0])
            else:
                base = {ArithOp.ADD: _ADD32, ArithOp.SUB: _SUB32,
                        ArithOp.MUL: _MUL32, ArithOp.DIV: _DIV32}[term.op]
                code = base if width == 32 else base + 4
                reg = self.emit(code, width, args[0], args[1])
        elif isinstance(term, Ite):
            cond = self.compile_dist(term.cond)
            then = self.compile_fp(term.then)
            orelse = self.compile_fp(term.orelse)
            reg = self.emit(_SELECT, width, cond, then, orelse)
        else:
            raise TypeError(f"cannot compile FP term {term!r}")
        self.memo[term] = reg
        return reg

    def compile_dist(self, term: Term) -> int:
        """The binary64 register of an NNF formula's distance."""
        reg = self.memo.get(term)
        if reg is not None:
            return reg
        if isinstance(term, Compare):
            lhs = self.compile_fp(term.lhs)
            rhs = self.compile_fp(term.rhs)
            reg = self.dist(term.op, lhs, rhs, term.negated, term.lhs.sort.width)
        elif isinstance(term, BoolAnd):
            reg = self.chain(_ADD64, [self.compile_dist(c) for c in term.children])
        elif isinstance(term, BoolOr):
            # a repeated child is one factor, as `to_cnf` dedups a clause
            children = dict.fromkeys(term.children)
            reg = self.chain(_MULZ, [self.compile_dist(c) for c in children])
        else:
            raise TypeError(f"cannot compile Boolean term {term!r}")
        self.memo[term] = reg
        return reg

    def chain(self, code: int, regs: list[int]) -> int:
        """Fold binary64 `regs` from the left with a binary opcode."""
        acc = regs[0]
        for nxt in regs[1:]:
            acc = self.emit(code, 64, acc, nxt)
        return acc


# numpy's ndarray type and float64 dtype, kept the first time `evaluate`
# finds numpy loaded (`import fpsat` does not load it), so that the dtype
# check is an identity test
_NUMPY: tuple = ()


def _numpy_types() -> tuple:
    global _NUMPY
    np = sys.modules.get("numpy")
    if np is not None:
        _NUMPY = (np.ndarray, np.dtype(np.float64))
    return _NUMPY


class ObjectiveProgram:
    """Compiled objective: a register template, a tape, and its output register.

    Immutable after compilation; `evaluate` may be called concurrently from
    many threads (each call owns its register scratch). The evaluation
    counter is the only shared mutable state.
    """

    def __init__(self, template, tape, out, var_regs, varmap, widths, image):
        self._template = template
        self._tape = tape
        self._out = out  # the register that holds the objective
        self._var_regs = var_regs
        self.varmap = varmap  # list[(name, Sort)]
        self._widths = widths
        self._image = image  # the tape as `_kernels.c` reads it
        self._eval_count = 0
        self._pack = _packer(len(self.varmap))
        self._count_lock = threading.Lock()

    @property
    def dimension(self) -> int:
        return len(self.varmap)

    @property
    def eval_count(self) -> int:
        return self._eval_count

    def count_evals(self, n: int) -> None:
        """Add n evaluations made outside `evaluate`, such as a native
        whole run's."""
        with self._count_lock:
            self._eval_count += n

    def evaluate(self, x) -> float:
        """Compute the objective at x (binary64 coordinates).

        Coordinates bound to binary32 variables are narrowed (RNE) before
        substitution. The result is >= 0; +inf is possible on sums and
        products that overflow, NaN is not.
        """
        if len(x) != len(self.varmap):
            raise DimensionMismatchError(
                f"expected {len(self.varmap)} coordinates, got {len(x)}"
            )
        lib = kernels.lib
        packed = None
        if lib is not None:
            numpy_types = _NUMPY or _numpy_types()
            if (numpy_types and type(x) is numpy_types[0] and x.ndim == 1
                    and x.dtype is numpy_types[1]):
                packed = x.tobytes()
            else:
                try:
                    packed = self._pack(*x)
                except struct.error:  # coordinates only `float()` accepts
                    pass
        if packed is None:
            value = self._evaluate_tape(x)
        else:
            value = lib.fpsat_eval(self._image, packed)
            if value < 0.0:
                raise MemoryError("no memory for the objective's registers")
        with self._count_lock:
            self._eval_count += 1
        return value

    def _evaluate_tape(self, x) -> float:
        """`evaluate` in Python, without counting: the reference."""
        regs = self._template.copy()
        for reg, idx, is32 in self._var_regs:
            v = float(x[idx])
            regs[reg] = narrow32(v) if is32 else v

        # the objective's own instructions come first: they are the most
        # frequent ones on most tapes
        for code, dst, a, b, c in self._tape:
            if code == _DIST:
                va, vb = regs[a], regs[b]
                if c.holds(va, vb) != c.negated:
                    regs[dst] = 0.0
                else:
                    regs[dst] = _theta_val(va, vb, c.width) + c.penalty
            elif code == _ADD64:
                regs[dst] = regs[a] + regs[b]
            elif code == _MULZ:
                # a satisfied disjunct zeroes the product even once the
                # other factors have overflowed: never 0 * inf
                va, vb = regs[a], regs[b]
                regs[dst] = 0.0 if va == 0.0 or vb == 0.0 else va * vb
            elif code == _ADD32:
                regs[dst] = narrow32(regs[a] + regs[b])
            elif code == _SUB32:
                regs[dst] = narrow32(regs[a] - regs[b])
            elif code == _MUL32:
                regs[dst] = narrow32(regs[a] * regs[b])
            elif code == _DIV32:
                regs[dst] = narrow32(ieee_div(regs[a], regs[b]))
            elif code == _SUB64:
                regs[dst] = regs[a] - regs[b]
            elif code == _MUL64:
                regs[dst] = regs[a] * regs[b]
            elif code == _DIV64:
                regs[dst] = ieee_div(regs[a], regs[b])
            elif code == _NEG:
                regs[dst] = -regs[a]
            elif code == _ABS:
                regs[dst] = abs(regs[a])
            else:  # _SELECT
                regs[dst] = regs[b] if regs[a] == 0.0 else regs[c]
        return regs[self._out]


@functools.lru_cache(maxsize=None)
def _packer(n: int):
    """Packs n coordinates as binary64 bytes, the native kernels' input."""
    return struct.Struct(f"{n}d").pack


def compile_objective(nnf: Term, varmap: list[tuple[str, Sort]]) -> ObjectiveProgram:
    """Compile an NNF formula over the given variable map into a program.

    The input is what `simplify` then `push_negations` leave: a Boolean
    constant, or a formula built from `Compare` nodes with `and` and `or`
    only, and so is every `ite` condition inside it. A comparison's
    distance is one instruction, an `and` a left-to-right sum of its
    children's, an `or` a zero-propagating product of its distinct
    children's; on a conjunction of clauses that is the sum over clauses
    of their literals' products. A `not` or a Boolean constant below the
    top is a `TypeError`; a variable missing from `varmap` is an
    `UnboundVariableError`. FP arithmetic over constants is computed on
    the tape, like any other. Identical subterms share one register;
    evaluation semantics stay the tree semantics of the source formula.
    """
    var_index = {name: (i, sort) for i, (name, sort) in enumerate(varmap)}
    comp = _Compiler(var_index)
    if isinstance(nnf, BoolConst):
        out = comp.new_reg(64, 0.0 if nnf.value else 1.0)
    else:
        out = comp.compile_dist(nnf)
    image = _native_image(comp.template, comp.tape, comp.var_regs, out, len(varmap))
    return ObjectiveProgram(comp.template, comp.tape, out, comp.var_regs,
                            list(varmap), comp.widths, image)


def _kernel_check_program() -> ObjectiveProgram:
    """A fixed program over x, y (binary32) and u, w (binary64) whose
    tape has every opcode, each comparison at one of the widths, plain
    and negated distances, constants at each width and each arithmetic
    result at a rounding boundary: the native kernels' load check runs
    it on both paths. Built on the compiler's
    registers directly, which costs far less than terms at start-up."""
    comp = _Compiler({})
    dists = []
    for first, width, ops in ((0, 32, (CmpOp.LT, CmpOp.LEQ, CmpOp.EQ)),
                              (2, 64, (CmpOp.GT, CmpOp.GEQ, CmpOp.NEQ))):
        a, b, k = comp.new_reg(width), comp.new_reg(width), comp.new_reg(width, 1.5)
        comp.var_regs += [(a, first, width == 32), (b, first + 1, width == 32)]
        base = _ADD32 if width == 32 else _ADD64
        add, sub, mul, div = (comp.emit(base + i, width, a, k if i == 2 else b)
                              for i in range(4))
        cond = comp.dist(ops[0], add, mul, False, width)
        pick = comp.emit(_SELECT, width, cond, add, sub)
        dists += [cond, comp.dist(ops[1], div, comp.emit(_NEG, width, a), True, width),
                  comp.dist(ops[2], comp.emit(_ABS, width, b), pick, False, width)]
        # each result against the binary32 value it rounds to at the point
        # (1 + 2^-23, 5): a result left unrounded makes its `!=` hold
        for r, v in zip((add, sub, mul, div), (6.0, -4.0, 1.500000238418579, 0.20000001788139343)):
            dists.append(comp.dist(CmpOp.NEQ, r, comp.new_reg(width, v), False, width))
    out = comp.chain(_ADD64, dists + [comp.chain(_MULZ, dists)])
    varmap = [("x", FP32), ("y", FP32), ("u", FP64), ("w", FP64)]
    return ObjectiveProgram(comp.template, comp.tape, out, comp.var_regs, varmap,
                            comp.widths, _native_image(comp.template, comp.tape,
                                                       comp.var_regs, out, 4))


def _native_image(template, tape, var_regs, out: int, dim: int) -> bytes:
    """The program as `_kernels.c` reads it: header, template, penalties,
    tape, variable slots and literals, packed without padding. A distance
    instruction's operand c is its literal's index."""
    code = list(chain.from_iterable(tape))
    penalties, literals = [], []
    for i, (op, _, _, _, lit) in enumerate(tape):
        if op == _DIST:
            code[5 * i + 4] = len(penalties)
            penalties.append(lit.penalty)
            literals += (_CMP_CODE[lit.op], lit.negated, lit.width)
    slots = list(chain.from_iterable(var_regs))
    n, n_lits = len(template), len(penalties)
    return struct.pack(
        f"=8i{n}d{n_lits}d{len(code)}i{len(slots)}i{len(literals)}i",
        n, len(tape), len(var_regs), n_lits, out, dim, 0, 0,
        *template, *penalties, *code, *slots, *literals)


# --------------------------------------------------------------------------
# Independent Boolean oracle
# --------------------------------------------------------------------------


def semantic_eval(term: Term, binding) -> bool:
    """Ground-truth IEEE evaluation of a Boolean term.

    `binding` maps variable names to floats or FPValues; binary32 variables
    are narrowed on substitution. This walks the original term with Python
    float arithmetic, rounding each binary32 result with `_round32`,
    memoized per node within the call, and shares nothing with the
    compiled tape.
    """
    env = {}
    for name, v in dict(binding).items():
        env[name] = v.to_float() if isinstance(v, FPValue) else float(v)
    return bool(_sem_bool(term, env, {}))


def _round32(v: float) -> float:
    """The binary32 value nearest v (ties to even; ±inf past the largest
    finite value), by C's conversion of a double to a float.

    A binary32 operation is computed in binary64 on binary32 operands and
    then rounded by this: two roundings. For +, -, * and / that is the
    correctly rounded binary32 result, because binary64's 53 significand
    bits are at least 2 * 24 + 2 (Figueroa, "When is double rounding
    innocuous?", SIGNUM 1995)."""
    return ctypes.c_float(v).value


def _sem_div(a: float, b: float) -> float:
    """IEEE division. Python's `/` raises at a zero divisor, where IEEE
    gives NaN for 0/0 and NaN/0, and else an infinity whose sign is the
    exclusive or of the operands' signs."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    negative = (math.copysign(1.0, a) < 0.0) != (math.copysign(1.0, b) < 0.0)
    return -math.inf if negative else math.inf


def _sem_fp(term: Term, env, memo) -> float:
    value = memo.get(term)
    if value is not None:
        return value
    if isinstance(term, FPConst):
        value = term.value.to_float()  # exact at its width
    elif isinstance(term, FPVar):
        try:
            value = env[term.name]
        except KeyError:
            raise UnboundVariableError(f"no value bound for {term.name}") from None
        if term.var_sort.width == 32:
            value = _round32(value)
    elif isinstance(term, FPArith):
        a = _sem_fp(term.args[0], env, memo)
        if term.op == ArithOp.NEG:
            value = -a
        elif term.op == ArithOp.ABS:
            value = abs(a)
        else:
            b = _sem_fp(term.args[1], env, memo)
            if term.op == ArithOp.ADD:
                value = a + b
            elif term.op == ArithOp.SUB:
                value = a - b
            elif term.op == ArithOp.MUL:
                value = a * b
            else:
                value = _sem_div(a, b)
            if term.sort.width == 32:
                value = _round32(value)
    elif isinstance(term, Ite):
        if _sem_bool(term.cond, env, memo):
            value = _sem_fp(term.then, env, memo)
        else:
            value = _sem_fp(term.orelse, env, memo)
    else:
        raise TypeError(f"not an FP term: {term!r}")
    memo[term] = value
    return value


_SEM_CMP = {
    CmpOp.LT: lambda a, b: a < b,
    CmpOp.LEQ: lambda a, b: a <= b,
    CmpOp.GT: lambda a, b: a > b,
    CmpOp.GEQ: lambda a, b: a >= b,
    CmpOp.EQ: lambda a, b: a == b,
    CmpOp.NEQ: lambda a, b: a != b,
}


def _sem_bool(term: Term, env, memo) -> bool:
    """Truth of a Boolean term. `not`/`and`/`or` are walked with an
    explicit stack (and/or short-circuit left to right), so any nesting
    depth the frontend accepts can be evaluated."""
    stack = [(term, 0)]  # (node, index of the next child to evaluate)
    value = False  # the truth of the node finished last
    while stack:
        node, i = stack.pop()
        if i == 0:
            known = memo.get(node)
            if known is not None:
                value = known
                continue
            if isinstance(node, (BoolNot, BoolAnd, BoolOr)):
                children = (node.child,) if isinstance(node, BoolNot) else node.children
                if children:
                    stack.append((node, 1))
                    stack.append((children[0], 0))
                    continue
                value = isinstance(node, BoolAnd)
            elif isinstance(node, BoolConst):
                value = node.value
            elif isinstance(node, Compare):
                a = _sem_fp(node.lhs, env, memo)
                b = _sem_fp(node.rhs, env, memo)
                value = bool(_SEM_CMP[node.op](a, b)) != node.negated
            else:
                raise TypeError(f"not a Boolean term: {node!r}")
        elif isinstance(node, BoolNot):
            value = not value
        elif i < len(node.children) and value == isinstance(node, BoolAnd):
            # the children so far leave the and/or undecided
            stack.append((node, i + 1))
            stack.append((node.children[i], 0))
            continue
        memo[node] = value
    return value


# --------------------------------------------------------------------------
# Portable source rendering
# --------------------------------------------------------------------------

_C_PREAMBLE = """\
/* Auto-generated objective program. Compile, e.g.:
 *   gcc {flags} -o objective.so objective.c
 * The entry point is: double objective(const double *x);
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

"""


def _distance_rule() -> str:
    """theta32, theta64 and mulz: the C text of the distance rule, which
    the native kernels define."""
    text = kernels.SOURCE.read_text(encoding="utf-8")
    begin, end = "/* BEGIN distance rule */\n", "/* END distance rule */\n"
    return text[text.index(begin) + len(begin):text.index(end)]


_C_CMP = {
    CmpOp.LT: "<",
    CmpOp.LEQ: "<=",
    CmpOp.GT: ">",
    CmpOp.GEQ: ">=",
    CmpOp.EQ: "==",
    CmpOp.NEQ: "!=",
}


def _c_float(v: float, is32: bool) -> str:
    if v != v:
        return "NAN"
    if v == float("inf"):
        return "INFINITY"
    if v == float("-inf"):
        return "-INFINITY"
    text = float(v).hex()
    return f"{text}f" if is32 else text


def render_objective_source(program: ObjectiveProgram) -> str:
    """Deterministic C rendering of the program, one definition per instruction."""
    widths = program._widths
    preamble = _C_PREAMBLE.format(flags=" ".join(kernels.KERNEL_CFLAGS))
    lines = [preamble + _distance_rule(), "double objective(const double *x) {"]
    var_regs = {reg: (idx, is32) for reg, idx, is32 in program._var_regs}
    tape_defined = {inst[1] for inst in program._tape}

    def decl(reg: int) -> str:
        t = "float" if widths[reg] == 32 else "double"
        return f"    const {t} v{reg}"

    for reg, init in enumerate(program._template):
        if reg in tape_defined:
            continue
        if reg in var_regs:
            idx, is32 = var_regs[reg]
            cast = "(float)" if is32 else ""
            lines.append(f"{decl(reg)} = {cast}x[{idx}];")
        else:
            lines.append(f"{decl(reg)} = {_c_float(init, widths[reg] == 32)};")

    _OPS = {_ADD32: "+", _SUB32: "-", _MUL32: "*", _DIV32: "/",
            _ADD64: "+", _SUB64: "-", _MUL64: "*", _DIV64: "/"}
    for code, dst, a, b, c in program._tape:
        if code in _OPS:
            lines.append(f"{decl(dst)} = v{a} {_OPS[code]} v{b};")
        elif code == _NEG:
            lines.append(f"{decl(dst)} = -v{a};")
        elif code == _ABS:
            f = "fabsf" if widths[dst] == 32 else "fabs"
            lines.append(f"{decl(dst)} = {f}(v{a});")
        elif code == _DIST:
            holds = f"{'!' if c.negated else ''}(v{a} {_C_CMP[c.op]} v{b})"
            theta_call = f"theta{c.width}(v{a}, v{b})"
            lines.append(f"{decl(dst)} = {holds} ? 0.0 : {theta_call} + {c.penalty!r};")
        elif code == _MULZ:
            lines.append(f"{decl(dst)} = mulz(v{a}, v{b});")
        else:
            lines.append(f"{decl(dst)} = v{a} == 0.0 ? v{b} : v{c};")
    lines.append(f"    return v{program._out};")
    lines.append("}")
    return "\n".join(lines) + "\n"
