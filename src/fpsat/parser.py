"""SMT-LIB2 frontend for the quantifier-free floating-point fragment.

A one-pass s-expression reader over one token regex, plus a command
interpreter that builds interned terms. Only binary32/binary64 sorts and
round-nearest-ties-to-even are accepted; everything else is rejected with a
positioned diagnostic.
"""

from __future__ import annotations

import re
import warnings
from itertools import combinations
from typing import NamedTuple

from .errors import (
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
from .fp import (BOOL, FP32, FP64, FPValue, ROUNDING_MODE, Sort, fp_sort, parse_real,
                 round_rational_to_bits)
from .terms import (
    ArithOp,
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    CmpOp,
    Compare,
    Definition,
    FPArith,
    FPConst,
    FPVar,
    Ite,
    Script,
    Term,
)

__all__ = ["parse_script", "decode_fp_literal", "expand_definitions"]

SUPPORTED_LOGICS = {"QF_FP", "QF_FPLRA"}

IGNORED_COMMANDS = {
    "set-info",
    "set-option",
    "push",
    "pop",
    "get-model",
    "get-value",
    "get-info",
    "get-option",
    "get-assertions",
    "get-unsat-core",
    "echo",
    "reset",
    "reset-assertions",
    "exit",
}

RNE_NAMES = {"RNE", "roundNearestTiesToEven"}
OTHER_RM_NAMES = {
    "RNA",
    "RTP",
    "RTN",
    "RTZ",
    "roundNearestTiesToAway",
    "roundTowardPositive",
    "roundTowardNegative",
    "roundTowardZero",
}


# --------------------------------------------------------------------------
# S-expression reader
# --------------------------------------------------------------------------


class SAtom(NamedTuple):
    text: str
    pos: int  # offset into the text


class SList(NamedTuple):
    items: tuple
    pos: int  # offset of the opening parenthesis


# Whitespace and `;` comments (a comment ends at a `\n` or a `\r`), then one
# token: a parenthesis, a plain atom, a |quoted symbol|, a string ("" escapes
# a quote), a lone `|` or `"` that opens an unterminated one, or the end of
# the input. Every character that can follow the skipped prefix starts one of
# these, so matches are contiguous.
_TOKEN = re.compile(r'(?:[ \t\r\n]+|;[^\r\n]*)*'
                    r'([()]|[^ \t\r\n();"|]+|\|[^|]*\||"(?:[^"]|"")*"(?!")|["|]|\Z)')
_UNTERMINATED = {"|": "unterminated |symbol|", '"': "unterminated string literal"}


def _read_all(text: str) -> list:
    """Read every top-level s-expression in the input."""
    forms: list = []
    items, stack = forms, []
    for match in _TOKEN.finditer(text):
        tok = match[1]
        pos = match.start(1)
        if tok == "(":
            stack.append((items, pos))
            items = []
        elif tok == ")":
            if not stack:
                raise SmtSyntaxError("unbalanced ')'", pos)
            outer, open_pos = stack.pop()
            outer.append(SList(tuple(items), open_pos))
            items = outer
        elif tok in _UNTERMINATED:
            raise SmtSyntaxError(_UNTERMINATED[tok], pos)
        elif tok:
            items.append(SAtom(tok, pos))
    if stack:
        raise SmtSyntaxError("unbalanced '(' at end of input", stack[-1][1])
    return forms


def _head(form) -> str:
    if isinstance(form, SList) and form.items and isinstance(form.items[0], SAtom):
        return form.items[0].text
    return ""


# --------------------------------------------------------------------------
# Sorts and literals
# --------------------------------------------------------------------------


_NAMED_SORTS = {"Bool": BOOL, "RoundingMode": ROUNDING_MODE, "Float32": FP32,
                "Float64": FP64}


def _parse_sort(form) -> Sort:
    if isinstance(form, SAtom) and form.text in _NAMED_SORTS:
        return _NAMED_SORTS[form.text]
    if _head(form) == "_" and len(form.items) == 4:
        kind = form.items[1]
        if isinstance(kind, SAtom) and kind.text == "FloatingPoint":
            return _fp_sort(_int_atom(form.items[2]), _int_atom(form.items[3]), form.pos)
    raise UnsupportedSortError(f"unsupported sort {_render(form)}", form.pos)


def _fp_sort(eb: int, sb: int, pos: int) -> Sort:
    """The sort of an exponent and significand width; binary32 and binary64 only."""
    sort = fp_sort(eb, sb)
    if sort is None:
        raise UnsupportedSortError(
            f"floating-point layout ({eb},{sb}) is not supported "
            f"(only (_ FloatingPoint 8 24) and (_ FloatingPoint 11 53))", pos
        )
    return sort


def _int_atom(form) -> int:
    if isinstance(form, SAtom):
        try:
            return int(form.text)
        except ValueError:
            pass
    raise SmtSyntaxError(f"expected a numeral, got {_render(form)}", form.pos)


_ECHO = 64  # the most characters of a form that an error message echoes


def _render(form) -> str:
    """The form as text for an error message, cut to `_ECHO` characters.
    An item starts after its list's "(", so cutting it first leaves the
    list's first `_ECHO - 3` characters as they are."""
    if isinstance(form, SAtom):
        text = form.text
    else:
        text = "(" + " ".join(_render(x) for x in form.items) + ")"
    return text if len(text) <= _ECHO else text[:_ECHO - 3] + "..."


_BV_ATOM = re.compile(r"#x[0-9a-fA-F]+|#b[01]+")
_BV_INDEX = re.compile(r"bv[0-9]+")


def _bv_literal(form) -> tuple[int, int] | None:
    """Decode a bitvector literal to (value, width), or None if `form` is not
    shaped like one: `#x...`, `#b...` or `(_ bvN w)`. A malformed one is an
    error at its position."""
    if isinstance(form, SAtom):
        t = form.text
        if not t.startswith(("#x", "#b")):
            return None
        if _BV_ATOM.fullmatch(t):
            if t[1] == "x":
                return int(t[2:], 16), 4 * (len(t) - 2)
            return int(t[2:], 2), len(t) - 2
    else:
        index = form.items[1] if _head(form) == "_" and len(form.items) == 3 else None
        if not (isinstance(index, SAtom) and index.text.startswith("bv")):
            return None
        width = _int_atom(form.items[2])
        if _BV_INDEX.fullmatch(index.text) and width > 0:
            try:
                value = int(index.text[2:])
            except ValueError:  # past int()'s 4,300 digits, wider than any sort
                value = None
            if value is not None and value.bit_length() <= width:
                return value, width
    raise SmtSyntaxError(f"malformed bitvector literal {_render(form)}", form.pos)


_SPECIAL_FP = {"+oo", "-oo", "+zero", "-zero", "NaN"}


def _special_fp_bits(name: str, eb: int, sb: int) -> int:
    sign = 1 << (eb + sb - 1)
    exp_all = ((1 << eb) - 1) << (sb - 1)
    if name == "+oo":
        return exp_all
    if name == "-oo":
        return sign | exp_all
    if name == "+zero":
        return 0
    if name == "-zero":
        return sign
    # NaN: quiet, canonical payload
    return exp_all | (1 << (sb - 2))


def decode_fp_literal(form, target: Sort | None = None) -> FPValue:
    """Decode an FP literal s-expression to exact bits at its own sort.

    Accepts ``(fp sign exp mant)`` triples, ``((_ to_fp eb sb) #x...)``
    bit reinterpretations, ``((_ to_fp eb sb) RNE <decimal>)`` with exact
    RNE rounding, and the ``(_ +oo/-oo/+zero/-zero/NaN eb sb)`` constants.
    With a `target` sort, a literal of another width is rejected. The
    `pos` of an error raised here is the offset of its form in the text;
    `parse_script` turns it into a line and column.
    """
    value = _decode_literal(form)
    if target is not None and value.sort != target:
        raise WidthMismatchError(
            f"literal width {value.width} does not match target {target.width}",
            form.pos,
        )
    return value


def _decode_literal(form) -> FPValue:
    op = _head(form)
    if op == "fp":
        # the width is intrinsic to the literal triple
        if len(form.items) != 4:
            raise SmtSyntaxError("malformed fp literal", form.pos)
        eb_bv = _bv_literal(form.items[2])
        mant_bv = _bv_literal(form.items[3])
        if eb_bv is None or mant_bv is None:
            raise SmtSyntaxError("fp literal parts must be bitvectors", form.pos)
        sort = _fp_sort(eb_bv[1], mant_bv[1] + 1, form.pos)
        sign = _require_bv(form.items[1], 1)
        bits = (sign << (sort.width - 1)) | (eb_bv[0] << (sort.sb - 1)) | mant_bv[0]
        return FPValue(sort.width, bits)

    if op == "_":
        tag = form.items[1] if len(form.items) == 4 else None
        if not (isinstance(tag, SAtom) and tag.text in _SPECIAL_FP):
            raise UnsupportedOperationError(
                f"unsupported indexed form {_render(form)}", form.pos
            )
        sort = _fp_sort(_int_atom(form.items[2]), _int_atom(form.items[3]), form.pos)
        return FPValue(sort.width, _special_fp_bits(tag.text, sort.eb, sort.sb))

    indices = form.items[0] if isinstance(form, SList) and form.items else None
    if _head(indices) == "_":
        tag = indices.items[1] if len(indices.items) == 4 else None
        if not (isinstance(tag, SAtom) and tag.text == "to_fp"):
            raise UnsupportedOperationError(
                f"unsupported indexed operator {_render(indices)}", form.pos
            )
        return _decode_to_fp(indices, form.items[1:], form.pos)

    raise SmtSyntaxError(f"unrecognized FP literal {_render(form)}", form.pos)


def _require_bv(form, width: int) -> int:
    bv = _bv_literal(form)
    if bv is None:
        raise SmtSyntaxError(f"expected a bitvector literal, got {_render(form)}", form.pos)
    if bv[1] != width:
        raise WidthMismatchError(f"expected a {width}-bit literal", form.pos)
    return bv[0]


def _check_rm(form, defined=frozenset()) -> None:
    """Accept a round-nearest-ties-to-even mode, named directly or by one of
    the RoundingMode definitions in `defined` (which admit only RNE)."""
    if isinstance(form, SAtom):
        if form.text in RNE_NAMES or form.text in defined:
            return
        if form.text in OTHER_RM_NAMES:
            raise UnsupportedRoundingModeError(
                f"rounding mode {form.text} is not supported (RNE only)", form.pos
            )
    raise UnsupportedRoundingModeError(
        f"expected an RNE rounding mode, got {_render(form)}", form.pos
    )


def _decode_to_fp(indices: SList, args: tuple, pos: int) -> FPValue:
    """Decode ((_ to_fp eb sb) ...) in bitvector or RNE-real form."""
    sort = _fp_sort(_int_atom(indices.items[2]), _int_atom(indices.items[3]), pos)

    if len(args) == 1:
        bv = _bv_literal(args[0])
        if bv is None:
            raise UnsupportedOperationError(
                "to_fp over a non-literal argument is not supported", pos
            )
        if bv[1] != sort.width:
            raise WidthMismatchError(
                f"to_fp target is {sort.width} bits but literal has {bv[1]}", pos
            )
        return FPValue(sort.width, bv[0])

    if len(args) == 2:
        _check_rm(args[0])
        value, negate = args[1], False
        if _head(value) == "-" and len(value.items) == 2:
            value, negate = value.items[1], True
        if isinstance(value, SAtom):
            try:
                frac = parse_real(value.text)
            except ValueError:
                pass
            else:
                frac = -frac if negate else frac
                return FPValue(sort.width, round_rational_to_bits(frac, sort.width))
        raise UnsupportedOperationError(
            f"to_fp argument {_render(args[1])} is not a supported literal", pos
        )

    raise SmtSyntaxError("malformed to_fp application", pos)


# --------------------------------------------------------------------------
# Term building
# --------------------------------------------------------------------------

_CHAINABLE = {
    "fp.lt": CmpOp.LT,
    "fp.leq": CmpOp.LEQ,
    "fp.gt": CmpOp.GT,
    "fp.geq": CmpOp.GEQ,
    "fp.eq": CmpOp.EQ,
}

_ARITH_2 = {
    "fp.add": ArithOp.ADD,
    "fp.sub": ArithOp.SUB,
    "fp.mul": ArithOp.MUL,
    "fp.div": ArithOp.DIV,
}

_KNOWN_UNSUPPORTED = {
    "fp.sqrt",
    "fp.fma",
    "fp.rem",
    "fp.roundToIntegral",
    "fp.min",
    "fp.max",
    "fp.isNormal",
    "fp.isSubnormal",
    "fp.isZero",
    "fp.isInfinite",
    "fp.isNaN",
    "fp.isNegative",
    "fp.isPositive",
    "fp.to_real",
    "fp.to_sbv",
    "fp.to_ubv",
    "to_fp_unsigned",
    "forall",
    "exists",
}


class _Env:
    """Symbol resolution scopes used while building terms."""

    def __init__(self, script: Script, current_def: str | None = None):
        self.script = script
        self.locals: dict[str, Term] = {}
        self.rm_values: set[str] = set()  # RoundingMode definitions, all RNE
        self.current_def = current_def
        # (definition name, argument terms) -> inlined body, for one parse
        self.applications: dict[tuple, Term] = {}

    def child(self) -> "_Env":
        """A nested scope that sees this scope's locals."""
        env = self.body_scope(self.current_def)
        env.locals = dict(self.locals)
        return env

    def body_scope(self, current_def: str | None) -> "_Env":
        """A scope without this scope's locals, for the body of `current_def`."""
        env = _Env(self.script, current_def)
        env.rm_values = self.rm_values
        env.applications = self.applications
        return env


def _require_fp(term: Term, pos: int, what: str) -> Term:
    if not term.sort.is_fp:
        raise SortError(f"{what} must be a floating-point term", pos)
    return term


def _require_bool(term: Term, pos: int, what: str) -> Term:
    if term.sort != BOOL:
        raise SortError(f"{what} must be Boolean", pos)
    return term


def _same_fp_sort(a: Term, b: Term, pos: int, what: str) -> None:
    if a.sort != b.sort:
        raise SortError(
            f"{what} operands have mismatched sorts {a.sort} and {b.sort}", pos
        )


def _pairwise(relation, pairs, pos: int, what: str) -> Term:
    """The conjunction of `relation(a, b)` over `pairs` of FP terms, each
    of one sort."""
    parts = []
    for a, b in pairs:
        _same_fp_sort(a, b, pos, what)
        parts.append(relation(a, b))
    return parts[0] if len(parts) == 1 else BoolAnd(tuple(parts))


def _fp_identical(a: Term, b: Term) -> Term:
    """SMT-LIB `=` on FP terms, which is identity of values: both NaN, or
    IEEE-equal with IEEE-equal reciprocals, which tells +0 from -0."""
    one = FPConst(FPValue.from_float(1.0, a.sort.width))
    both_nan = BoolAnd((BoolNot(Compare(CmpOp.EQ, a, a)),
                        BoolNot(Compare(CmpOp.EQ, b, b))))
    same = BoolAnd((Compare(CmpOp.EQ, a, b),
                    Compare(CmpOp.EQ, FPArith(ArithOp.DIV, (one, a)),
                            FPArith(ArithOp.DIV, (one, b)))))
    return BoolOr((both_nan, same))


def _operands(op: str, rest: tuple, env: _Env, pos: int,
              require=None) -> list[Term]:
    """Build the two or more operands of `op`, each checked by `require`."""
    if len(rest) < 2:
        raise SmtSyntaxError(f"{op} takes at least two arguments", pos)
    if require is None:
        return [_build_term(a, env) for a in rest]
    return [require(_build_term(a, env), pos, f"{op} argument") for a in rest]


def _build_term(form, env: _Env) -> Term:
    if isinstance(form, SAtom):
        return _build_atom(form, env)

    items, pos = form
    if not items:
        raise SmtSyntaxError("empty application", pos)
    head = items[0]

    # FP literals: (fp ...), (_ +oo ...), ((_ to_fp ...) ...)
    if isinstance(head, SList):
        if _head(head) != "_":
            raise SmtSyntaxError(f"expected an operator, got {_render(head)}", pos)
        return FPConst(decode_fp_literal(form))
    op = head.text
    if op == "fp" or op == "_":
        return FPConst(decode_fp_literal(form))
    rest = items[1:]

    if op in _KNOWN_UNSUPPORTED:
        raise UnsupportedOperationError(f"operation {op} is not supported", head.pos)

    if op == "not":
        if len(rest) != 1:
            raise SmtSyntaxError("not takes one argument", pos)
        return BoolNot(_require_bool(_build_term(rest[0], env), pos, "not argument"))

    if op in ("and", "or"):
        args = tuple(
            _require_bool(_build_term(a, env), pos, f"{op} argument") for a in rest
        )
        if not args:
            return BoolConst(op == "and")
        if len(args) == 1:
            return args[0]
        return BoolAnd(args) if op == "and" else BoolOr(args)

    if op == "=>":
        args = _operands(op, rest, env, pos, _require_bool)
        out = args[-1]
        for a in reversed(args[:-1]):
            out = BoolOr((BoolNot(a), out))
        return out

    if op == "xor":
        args = _operands(op, rest, env, pos, _require_bool)
        out = args[0]
        for a in args[1:]:
            out = BoolOr((BoolAnd((out, BoolNot(a))), BoolAnd((BoolNot(out), a))))
        return out

    if op == "=":
        args = _operands(op, rest, env, pos)
        if args[0].sort == BOOL:
            for a in args:
                _require_bool(a, pos, "= argument")
            out = None
            for a, b in zip(args, args[1:]):
                iff = BoolOr((BoolAnd((a, b)), BoolAnd((BoolNot(a), BoolNot(b)))))
                out = iff if out is None else BoolAnd((out, iff))
            return out
        _require_fp(args[0], pos, "= argument")
        return _pairwise(_fp_identical, zip(args, args[1:]), pos, op)

    if op == "distinct":
        args = _operands(op, rest, env, pos)
        if args[0].sort == BOOL:
            if len(args) != 2:
                raise SortError("Boolean distinct of arity > 2 is unsatisfiable", pos)
            a, b = args
            _require_bool(b, pos, "distinct argument")
            return BoolOr((BoolAnd((a, BoolNot(b))), BoolAnd((BoolNot(a), b))))
        _require_fp(args[0], pos, "distinct argument")
        return _pairwise(lambda a, b: BoolNot(_fp_identical(a, b)),
                         combinations(args, 2), pos, op)

    if op in _CHAINABLE:
        args = _operands(op, rest, env, pos, _require_fp)
        cmp = _CHAINABLE[op]
        return _pairwise(lambda a, b: Compare(cmp, a, b), zip(args, args[1:]), pos, op)

    if op in _ARITH_2:
        if len(rest) != 3:
            raise SmtSyntaxError(f"{op} takes a rounding mode and two arguments", pos)
        _check_rm(rest[0], env.rm_values)
        a = _require_fp(_build_term(rest[1], env), pos, f"{op} argument")
        b = _require_fp(_build_term(rest[2], env), pos, f"{op} argument")
        _same_fp_sort(a, b, pos, op)
        return FPArith(_ARITH_2[op], (a, b))

    if op in ("fp.neg", "fp.abs"):
        if len(rest) != 1:
            raise SmtSyntaxError(f"{op} takes one argument", pos)
        a = _require_fp(_build_term(rest[0], env), pos, f"{op} argument")
        return FPArith(ArithOp.NEG if op == "fp.neg" else ArithOp.ABS, (a,))

    if op == "ite":
        if len(rest) != 3:
            raise SmtSyntaxError("ite takes three arguments", pos)
        cond = _require_bool(_build_term(rest[0], env), pos, "ite condition")
        then = _build_term(rest[1], env)
        orelse = _build_term(rest[2], env)
        if then.sort == BOOL and orelse.sort == BOOL:
            return BoolOr((BoolAnd((cond, then)), BoolAnd((BoolNot(cond), orelse))))
        _require_fp(then, pos, "ite branch")
        _same_fp_sort(then, orelse, pos, "ite")
        return Ite(cond, then, orelse)

    if op == "let":
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise SmtSyntaxError("malformed let", pos)
        child = env.child()
        for binding in rest[0].items:
            if not (isinstance(binding, SList) and len(binding.items) == 2
                    and isinstance(binding.items[0], SAtom)):
                raise SmtSyntaxError("malformed let binding", rest[0].pos)
            # parallel let: bind in the outer environment
            child.locals[binding.items[0].text] = _build_term(binding.items[1], env)
        return _build_term(rest[1], child)

    # application of a user-defined function: inline its body, rebuilt in
    # the definition's own scope with the parameters bound to the arguments.
    # The body depends only on the argument terms, and interned terms are
    # equal only if identical, so it is built once per distinct argument list.
    defn = env.script.definitions.get(op)
    if defn is not None:
        if len(rest) != len(defn.params):
            raise SmtSyntaxError(
                f"{op} expects {len(defn.params)} arguments, got {len(rest)}", pos
            )
        if not rest:
            return defn.body
        args = []
        for (pname, psort), arg_form in zip(defn.params, rest):
            arg = _build_term(arg_form, env)
            if arg.sort != psort:
                raise SortError(
                    f"argument {pname} of {op} must have sort {psort}", pos
                )
            args.append(arg)
        args = tuple(args)
        body = env.applications.get((op, args))
        if body is None:
            scope = env.body_scope(op)
            scope.locals = {pname: arg for (pname, _), arg in zip(defn.params, args)}
            body = env.applications[(op, args)] = _build_term(defn.body_form, scope)
        return body

    if op == env.current_def:
        raise RecursiveDefinitionError(f"definition of {op} refers to itself", head.pos)

    raise UnsupportedOperationError(f"unknown operator {op}", head.pos)


def _build_atom(form: SAtom, env: _Env) -> Term:
    name = form.text
    if name == "true":
        return BoolConst(True)
    if name == "false":
        return BoolConst(False)
    if name in env.locals:
        return env.locals[name]
    sort = env.script.declared_vars.get(name)
    if sort is not None:
        return FPVar(name, sort)
    defn = env.script.definitions.get(name)
    if defn is not None:
        if defn.params:
            raise SmtSyntaxError(
                f"{name} is a function of arity {len(defn.params)}", form.pos
            )
        return defn.body
    if name in env.rm_values or name in RNE_NAMES or name in OTHER_RM_NAMES:
        raise SortError(f"rounding mode {name} used as a term", form.pos)
    if name == env.current_def:
        raise RecursiveDefinitionError(f"definition of {name} refers to itself", form.pos)
    raise UnknownSymbolError(f"unknown symbol {name}", form.pos)


# --------------------------------------------------------------------------
# Script interpretation
# --------------------------------------------------------------------------


def parse_script(text: str) -> Script:
    """Parse an SMT-LIB2 script into a typed Script.

    Supported commands: set-logic, declare-fun/declare-const (zero-arity FP),
    define-fun, assert, check-sat. Benign bookkeeping commands are ignored;
    anything unknown draws a warning and is skipped. An `InputError` leaves
    with its offset turned into a line and column.
    """
    try:
        return _interpret(_read_all(text))
    except InputError as exc:
        if exc.pos is not None:
            exc.pos = SourcePosition.at(text, exc.pos)
        raise


def _interpret(forms: list) -> Script:
    script = Script()
    env = _Env(script)
    for form in forms:
        if not isinstance(form, SList) or not form.items:
            raise SmtSyntaxError(f"expected a command, got {_render(form)}", form.pos)
        cmd = form.items[0]
        if not isinstance(cmd, SAtom):
            raise SmtSyntaxError("expected a command name", form.pos)
        name = cmd.text

        if name == "set-logic":
            if len(form.items) != 2 or not isinstance(form.items[1], SAtom):
                raise SmtSyntaxError("malformed set-logic", form.pos)
            logic = form.items[1].text
            if logic not in SUPPORTED_LOGICS:
                raise UnsupportedLogicError(
                    f"logic {logic} is not supported (QF_FP only)", form.items[1].pos
                )
            script.logic = logic

        elif name in ("declare-fun", "declare-const"):
            _declare(form, script, env)

        elif name == "define-fun":
            _define(form, script, env)

        elif name == "assert":
            if len(form.items) != 2:
                raise SmtSyntaxError("assert takes one argument", form.pos)
            term = _build_term(form.items[1], env)
            if term.sort != BOOL:
                raise SortError("asserted term must be Boolean", form.pos)
            script.assertions.append(term)

        elif name == "check-sat":
            script.has_check_sat = True

        elif name in IGNORED_COMMANDS:
            if name not in ("set-info", "set-option", "exit"):
                warnings.warn(f"ignoring unsupported command ({name} ...)")

        else:
            warnings.warn(f"ignoring unknown command ({name} ...)")

    if not script.assertions:
        raise SmtSyntaxError("script contains no assertions")
    return script


def _is_bound(name: str, script: Script, env: _Env) -> bool:
    """Whether a command already declared or defined `name`."""
    return (name in script.declared_vars or name in script.definitions
            or name in env.rm_values)


def _declare(form: SList, script: Script, env: _Env) -> None:
    if form.items[0].text == "declare-fun":
        if len(form.items) != 4:
            raise SmtSyntaxError("malformed declare-fun", form.pos)
        params = form.items[2]
        if not isinstance(params, SList) or params.items:
            raise UnsupportedOperationError(
                "uninterpreted functions with arguments are not supported", form.pos
            )
        sort_form = form.items[3]
    else:
        if len(form.items) != 3:
            raise SmtSyntaxError("malformed declare-const", form.pos)
        sort_form = form.items[2]
    sym = form.items[1]
    if not isinstance(sym, SAtom):
        raise SmtSyntaxError("expected a symbol", form.pos)
    sort = _parse_sort(sort_form)
    if sort == ROUNDING_MODE:
        raise UnsupportedRoundingModeError(
            "free RoundingMode variables are not supported (RNE only)", form.pos
        )
    if not sort.is_fp:
        raise UnsupportedSortError(
            f"declared variables must be floating point, got {sort}", form.pos
        )
    if _is_bound(sym.text, script, env):
        raise SmtSyntaxError(f"symbol {sym.text} redeclared", sym.pos)
    script.declared_vars[sym.text] = sort


def _define(form: SList, script: Script, env: _Env) -> None:
    if len(form.items) != 5:
        raise SmtSyntaxError("malformed define-fun", form.pos)
    sym, params_form, sort_form, body_form = form.items[1:]
    if not isinstance(sym, SAtom):
        raise SmtSyntaxError("expected a symbol", form.pos)
    if _is_bound(sym.text, script, env):
        raise SmtSyntaxError(f"symbol {sym.text} redefined", sym.pos)
    result_sort = _parse_sort(sort_form)

    if result_sort == ROUNDING_MODE:
        if not (isinstance(body_form, SAtom) and body_form.text in RNE_NAMES):
            raise UnsupportedRoundingModeError(
                f"RoundingMode definition {sym.text} must be RNE", form.pos
            )
        env.rm_values.add(sym.text)
        return

    params: list[tuple[str, Sort]] = []
    if not isinstance(params_form, SList):
        raise SmtSyntaxError("malformed parameter list", form.pos)
    for p in params_form.items:
        if not (isinstance(p, SList) and len(p.items) == 2 and isinstance(p.items[0], SAtom)):
            raise SmtSyntaxError("malformed parameter", params_form.pos)
        psort = _parse_sort(p.items[1])
        if not psort.is_fp:
            raise UnsupportedSortError(
                "definition parameters must be floating point", p.pos
            )
        params.append((p.items[0].text, psort))

    body_env = env.body_scope(sym.text)
    for pname, psort in params:
        body_env.locals[pname] = FPVar(pname, psort)
    body = _build_term(body_form, body_env)
    if body.sort != result_sort:
        raise SortError(
            f"body of {sym.text} has sort {body.sort}, declared {result_sort}", form.pos
        )
    script.definitions[sym.text] = Definition(sym.text, tuple(params), body, body_form)


# --------------------------------------------------------------------------
# Assertion conjunction
# --------------------------------------------------------------------------


def expand_definitions(script: Script) -> tuple[Term, list[tuple[str, Sort]]]:
    """Conjoin the assertions, whose definitions were inlined as parsed.

    Returns the formula plus the variable map: each declared variable
    exactly once, in declaration order. The formula is not walked again:
    `parse_script` already rejected every undeclared symbol at its
    position. A hand-built `Script` that uses an undeclared variable
    fails later, in `compile_objective`, with `UnboundVariableError`.
    """
    assertions = script.assertions
    formula = assertions[0] if len(assertions) == 1 else BoolAnd(tuple(assertions))
    return formula, list(script.declared_vars.items())
