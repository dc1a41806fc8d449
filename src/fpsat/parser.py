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

from .errors import (InputError, RecursiveDefinitionError, SmtSyntaxError, SortError,
                     SourcePosition, UnknownSymbolError, UnsupportedLogicError,
                     UnsupportedOperationError, UnsupportedRoundingModeError,
                     UnsupportedSortError, WidthMismatchError)
from .fp import (BOOL, FP32, FP64, FPValue, ROUNDING_MODE, Sort, fp_sort, parse_real,
                 round_rational_to_bits)
from .terms import (ArithOp, BoolAnd, BoolConst, BoolNot, BoolOr, CmpOp, Compare,
                    Definition, FPArith, FPConst, FPVar, Ite, Script, Term)

__all__ = ["parse_script", "decode_fp_literal", "expand_definitions"]

SUPPORTED_LOGICS = {"QF_FP", "QF_FPLRA"}

IGNORED_COMMANDS = {
    "set-info", "set-option", "push", "pop", "get-model", "get-value", "get-info",
    "get-option", "get-assertions", "get-unsat-core", "echo", "reset",
    "reset-assertions", "exit",
}

RNE_NAMES = {"RNE", "roundNearestTiesToEven"}
OTHER_RM_NAMES = {
    "RNA", "RTP", "RTN", "RTZ", "roundNearestTiesToAway", "roundTowardPositive",
    "roundTowardNegative", "roundTowardZero",
}


# --------------------------------------------------------------------------
# S-expression reader
# --------------------------------------------------------------------------


# Whitespace and `;` comments (a comment ends at a `\n` or a `\r`), then one
# token: a parenthesis, a plain atom, a |quoted symbol|, a string ("" escapes
# a quote), a lone `|` or `"` that opens an unterminated one, or the end of
# the input. Every character that can follow the skipped prefix starts one of
# these, so matches are contiguous. The prefix has no alternation under its
# star, which makes `findall` about an eighth faster.
_TOKEN = re.compile(r'[ \t\r\n]*(?:;[^\r\n]*[ \t\r\n]*)*'
                    r'([()]|[^ \t\r\n();"|]+|\|[^|]*\||"(?:[^"]|"")*"(?!")|["|]|\Z)')
_UNTERMINATED = {"|": "unterminated |symbol|", '"': "unterminated string literal"}


def _read_all(text: str) -> list:
    """Read every top-level s-expression in the input: an atom is a `str`
    and a list a `tuple`, without offsets. An error here has no position:
    `parse_script` places it by reading again with `_read_placed`."""
    forms: list = []
    items, stack = forms, []
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append(items)
            items = []
        elif tok == ")":
            if not stack:
                raise SmtSyntaxError("unbalanced ')'")
            form = tuple(items)
            items = stack.pop()
            items.append(form)
        elif tok in _UNTERMINATED:
            raise SmtSyntaxError(_UNTERMINATED[tok])
        elif tok:
            items.append(tok)
    if stack:
        raise SmtSyntaxError("unbalanced '(' at end of input")
    return forms


class SAtom(str):
    """An atom read by `_read_placed`; `pos` is its offset in the text."""


class SList(tuple):
    """A list read by `_read_placed`; `pos` is the offset of its "("."""


def _placed(cls, value, pos: int):
    form = cls(value)
    form.pos = pos
    return form


def _pos(form) -> int | None:
    """The offset of a form read by `_read_placed`; None for a plain one."""
    return getattr(form, "pos", None)


def _read_placed(text: str) -> list:
    """`_read_all` with offsets, to place an error: every form is an
    `SAtom` or `SList`, and an error raised here has its offset."""
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
            outer.append(_placed(SList, items, open_pos))
            items = outer
        elif tok in _UNTERMINATED:
            raise SmtSyntaxError(_UNTERMINATED[tok], pos)
        elif tok:
            items.append(_placed(SAtom, tok, pos))
    if stack:
        raise SmtSyntaxError("unbalanced '(' at end of input", stack[-1][1])
    return forms


def _head(form) -> str:
    if isinstance(form, tuple) and form and isinstance(form[0], str):
        return form[0]
    return ""


# --------------------------------------------------------------------------
# Sorts and literals
# --------------------------------------------------------------------------


_NAMED_SORTS = {"Bool": BOOL, "RoundingMode": ROUNDING_MODE, "Float32": FP32,
                "Float64": FP64}


def _parse_sort(form) -> Sort:
    if isinstance(form, str) and form in _NAMED_SORTS:
        return _NAMED_SORTS[form]
    if _head(form) == "_" and len(form) == 4 and form[1] == "FloatingPoint":
        return _fp_sort(_int_atom(form[2]), _int_atom(form[3]), _pos(form))
    raise UnsupportedSortError(f"unsupported sort {_render(form)}", _pos(form))


def _fp_sort(eb: int, sb: int, pos: int | None) -> Sort:
    """The sort of an exponent and significand width; binary32 and binary64 only."""
    sort = fp_sort(eb, sb)
    if sort is None:
        raise UnsupportedSortError(
            f"floating-point layout ({eb},{sb}) is not supported "
            f"(only (_ FloatingPoint 8 24) and (_ FloatingPoint 11 53))", pos
        )
    return sort


def _int_atom(form) -> int:
    if isinstance(form, str):
        try:
            return int(form)
        except ValueError:
            pass
    raise SmtSyntaxError(f"expected a numeral, got {_render(form)}", _pos(form))


_ECHO = 64  # the most characters of a form that an error message echoes


def _render(form) -> str:
    """The form as text for an error message, cut to `_ECHO` characters.
    An item starts after its list's "(", so cutting it first leaves the
    list's first `_ECHO - 3` characters as they are."""
    text = form if isinstance(form, str) else "(" + " ".join(map(_render, form)) + ")"
    return text if len(text) <= _ECHO else text[:_ECHO - 3] + "..."


_BV_ATOM = re.compile(r"#x[0-9a-fA-F]+|#b[01]+")
_BV_INDEX = re.compile(r"bv[0-9]+")


def _bv_literal(form) -> tuple[int, int] | None:
    """Decode a bitvector literal to (value, width), or None if `form` is not
    shaped like one: `#x...`, `#b...` or `(_ bvN w)`. A malformed one is an
    error at its position."""
    if isinstance(form, str):
        if not form.startswith(("#x", "#b")):
            return None
        if _BV_ATOM.fullmatch(form):
            if form[1] == "x":
                return int(form[2:], 16), 4 * (len(form) - 2)
            return int(form[2:], 2), len(form) - 2
    else:
        index = form[1] if _head(form) == "_" and len(form) == 3 else None
        if not (isinstance(index, str) and index.startswith("bv")):
            return None
        width = _int_atom(form[2])
        if _BV_INDEX.fullmatch(index) and width > 0:
            try:
                value = int(index[2:])
            except ValueError:  # past int()'s 4,300 digits, wider than any sort
                value = None
            if value is not None and value.bit_length() <= width:
                return value, width
    raise SmtSyntaxError(f"malformed bitvector literal {_render(form)}", _pos(form))


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
    `form` is a plain tuple whose atoms are strings. With a `target` sort,
    a literal of another width is rejected. An error raised here has no
    position; `parse_script` finds its line and column by reading the
    text again.
    """
    value = _decode_literal(form)
    if target is not None and value.sort != target:
        raise WidthMismatchError(
            f"literal width {value.width} does not match target {target.width}",
            _pos(form),
        )
    return value


def _decode_literal(form) -> FPValue:
    op = _head(form)
    if op == "fp":
        # the width is intrinsic to the literal triple
        if len(form) != 4:
            raise SmtSyntaxError("malformed fp literal", _pos(form))
        eb_bv = _bv_literal(form[2])
        mant_bv = _bv_literal(form[3])
        if eb_bv is None or mant_bv is None:
            raise SmtSyntaxError("fp literal parts must be bitvectors", _pos(form))
        sort = _fp_sort(eb_bv[1], mant_bv[1] + 1, _pos(form))
        sign = _require_bv(form[1], 1)
        bits = (sign << (sort.width - 1)) | (eb_bv[0] << (sort.sb - 1)) | mant_bv[0]
        return FPValue(sort.width, bits)

    if op == "_":
        tag = form[1] if len(form) == 4 else None
        if not (isinstance(tag, str) and tag in _SPECIAL_FP):
            raise UnsupportedOperationError(
                f"unsupported indexed form {_render(form)}", _pos(form)
            )
        sort = _fp_sort(_int_atom(form[2]), _int_atom(form[3]), _pos(form))
        return FPValue(sort.width, _special_fp_bits(tag, sort.eb, sort.sb))

    indices = form[0] if isinstance(form, tuple) and form else None
    if _head(indices) == "_":
        if not (len(indices) == 4 and indices[1] == "to_fp"):
            raise UnsupportedOperationError(
                f"unsupported indexed operator {_render(indices)}", _pos(form)
            )
        return _decode_to_fp(indices, form[1:], _pos(form))

    raise SmtSyntaxError(f"unrecognized FP literal {_render(form)}", _pos(form))


def _require_bv(form, width: int) -> int:
    bv = _bv_literal(form)
    if bv is None:
        raise SmtSyntaxError(f"expected a bitvector literal, got {_render(form)}",
                             _pos(form))
    if bv[1] != width:
        raise WidthMismatchError(f"expected a {width}-bit literal", _pos(form))
    return bv[0]


def _check_rm(form, defined=frozenset()) -> None:
    """Accept a round-nearest-ties-to-even mode, named directly or by one of
    the RoundingMode definitions in `defined` (which admit only RNE)."""
    if isinstance(form, str):
        if form in RNE_NAMES or form in defined:
            return
        if form in OTHER_RM_NAMES:
            raise UnsupportedRoundingModeError(
                f"rounding mode {form} is not supported (RNE only)", _pos(form)
            )
    raise UnsupportedRoundingModeError(
        f"expected an RNE rounding mode, got {_render(form)}", _pos(form)
    )


def _decode_to_fp(indices: tuple, args: tuple, pos: int | None) -> FPValue:
    """Decode ((_ to_fp eb sb) ...) in bitvector or RNE-real form."""
    sort = _fp_sort(_int_atom(indices[2]), _int_atom(indices[3]), pos)

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
        if _head(value) == "-" and len(value) == 2:
            value, negate = value[1], True
        if isinstance(value, str):
            try:
                frac = parse_real(value)
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

_CHAINABLE = {"fp.lt": CmpOp.LT, "fp.leq": CmpOp.LEQ, "fp.gt": CmpOp.GT,
              "fp.geq": CmpOp.GEQ, "fp.eq": CmpOp.EQ}

_ARITH_2 = {"fp.add": ArithOp.ADD, "fp.sub": ArithOp.SUB, "fp.mul": ArithOp.MUL,
            "fp.div": ArithOp.DIV}

_KNOWN_UNSUPPORTED = {
    "fp.sqrt", "fp.fma", "fp.rem", "fp.roundToIntegral", "fp.min", "fp.max",
    "fp.isNormal", "fp.isSubnormal", "fp.isZero", "fp.isInfinite", "fp.isNaN",
    "fp.isNegative", "fp.isPositive", "fp.to_real", "fp.to_sbv", "fp.to_ubv",
    "to_fp_unsigned", "forall", "exists",
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


def _require_fp(term: Term, pos: int | None, what: str) -> Term:
    if not term.sort.is_fp:
        raise SortError(f"{what} must be a floating-point term", pos)
    return term


def _require_bool(term: Term, pos: int | None, what: str) -> Term:
    if term.sort != BOOL:
        raise SortError(f"{what} must be Boolean", pos)
    return term


def _same_fp_sort(a: Term, b: Term, pos: int | None, what: str) -> None:
    if a.sort != b.sort:
        raise SortError(
            f"{what} operands have mismatched sorts {a.sort} and {b.sort}", pos
        )


def _pairwise(relation, pairs, pos: int | None, what: str) -> Term:
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


def _operands(op: str, rest: tuple, env: _Env, pos: int | None,
              require=None) -> list[Term]:
    """Build the two or more operands of `op`, each checked by `require`."""
    if len(rest) < 2:
        raise SmtSyntaxError(f"{op} takes at least two arguments", pos)
    if require is None:
        return [_build_term(a, env) for a in rest]
    return [require(_build_term(a, env), pos, f"{op} argument") for a in rest]


def _build_term(form, env: _Env) -> Term:
    if isinstance(form, str):
        return _build_atom(form, env)

    pos = _pos(form)
    if not form:
        raise SmtSyntaxError("empty application", pos)
    head = form[0]

    # FP literals: (fp ...), (_ +oo ...), ((_ to_fp ...) ...)
    if not isinstance(head, str):
        if _head(head) != "_":
            raise SmtSyntaxError(f"expected an operator, got {_render(head)}", pos)
        return FPConst(decode_fp_literal(form))
    op = head
    if op == "fp" or op == "_":
        return FPConst(decode_fp_literal(form))
    rest = form[1:]

    if op in _KNOWN_UNSUPPORTED:
        raise UnsupportedOperationError(f"operation {op} is not supported", _pos(head))

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
        if len(rest) != 2 or isinstance(rest[0], str):
            raise SmtSyntaxError("malformed let", pos)
        child = env.child()
        for binding in rest[0]:
            if not (isinstance(binding, tuple) and len(binding) == 2
                    and isinstance(binding[0], str)):
                raise SmtSyntaxError("malformed let binding", _pos(rest[0]))
            # parallel let: bind in the outer environment
            child.locals[binding[0]] = _build_term(binding[1], env)
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
        raise RecursiveDefinitionError(f"definition of {op} refers to itself", _pos(head))

    raise UnsupportedOperationError(f"unknown operator {op}", _pos(head))


def _build_atom(name: str, env: _Env) -> Term:
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
                f"{name} is a function of arity {len(defn.params)}", _pos(name)
            )
        return defn.body
    if name in env.rm_values or name in RNE_NAMES or name in OTHER_RM_NAMES:
        raise SortError(f"rounding mode {name} used as a term", _pos(name))
    if name == env.current_def:
        raise RecursiveDefinitionError(f"definition of {name} refers to itself", _pos(name))
    raise UnknownSymbolError(f"unknown symbol {name}", _pos(name))


# --------------------------------------------------------------------------
# Script interpretation
# --------------------------------------------------------------------------


def parse_script(text: str) -> Script:
    """Parse an SMT-LIB2 script into a typed Script.

    Supported commands: set-logic, declare-fun/declare-const (zero-arity FP),
    define-fun, assert, check-sat. Benign bookkeeping commands are ignored;
    anything unknown draws a warning and is skipped. The text is read
    without offsets; an `InputError` is placed by reading and interpreting
    the text again with them, and leaves with the line and column of the
    occurrence that failed.
    """
    try:
        return _interpret(_read_all(text), warn=True)
    except InputError as exc:
        error = exc
    try:
        _interpret(_read_placed(text), warn=False)
    except InputError as exc:
        if exc.pos is not None:
            exc.pos = SourcePosition.at(text, exc.pos)
        raise
    raise error  # not reached: both reads reject the same text


def _interpret(forms: list, warn: bool) -> Script:
    script = Script()
    env = _Env(script)
    for form in forms:
        if isinstance(form, str) or not form:
            raise SmtSyntaxError(f"expected a command, got {_render(form)}", _pos(form))
        name = form[0]
        if not isinstance(name, str):
            raise SmtSyntaxError("expected a command name", _pos(form))

        if name == "set-logic":
            if len(form) != 2 or not isinstance(form[1], str):
                raise SmtSyntaxError("malformed set-logic", _pos(form))
            logic = form[1]
            if logic not in SUPPORTED_LOGICS:
                raise UnsupportedLogicError(
                    f"logic {logic} is not supported (QF_FP only)", _pos(logic)
                )
            script.logic = logic

        elif name in ("declare-fun", "declare-const"):
            _declare(form, script, env)

        elif name == "define-fun":
            _define(form, script, env)

        elif name == "assert":
            if len(form) != 2:
                raise SmtSyntaxError("assert takes one argument", _pos(form))
            term = _build_term(form[1], env)
            if term.sort != BOOL:
                raise SortError("asserted term must be Boolean", _pos(form))
            script.assertions.append(term)

        elif name == "check-sat":
            script.has_check_sat = True

        elif name in IGNORED_COMMANDS:
            if warn and name not in ("set-info", "set-option", "exit"):
                warnings.warn(f"ignoring unsupported command ({name} ...)")

        elif warn:
            warnings.warn(f"ignoring unknown command ({name} ...)")

    if not script.assertions:
        raise SmtSyntaxError("script contains no assertions")
    return script


def _is_bound(name: str, script: Script, env: _Env) -> bool:
    """Whether a command already declared or defined `name`."""
    return (name in script.declared_vars or name in script.definitions
            or name in env.rm_values)


def _declare(form: tuple, script: Script, env: _Env) -> None:
    if form[0] == "declare-fun":
        if len(form) != 4:
            raise SmtSyntaxError("malformed declare-fun", _pos(form))
        params = form[2]
        if isinstance(params, str) or params:
            raise UnsupportedOperationError(
                "uninterpreted functions with arguments are not supported", _pos(form)
            )
        sort_form = form[3]
    else:
        if len(form) != 3:
            raise SmtSyntaxError("malformed declare-const", _pos(form))
        sort_form = form[2]
    sym = form[1]
    if not isinstance(sym, str):
        raise SmtSyntaxError("expected a symbol", _pos(form))
    sort = _parse_sort(sort_form)
    if sort == ROUNDING_MODE:
        raise UnsupportedRoundingModeError(
            "free RoundingMode variables are not supported (RNE only)", _pos(form)
        )
    if not sort.is_fp:
        raise UnsupportedSortError(
            f"declared variables must be floating point, got {sort}", _pos(form)
        )
    if _is_bound(sym, script, env):
        raise SmtSyntaxError(f"symbol {sym} redeclared", _pos(sym))
    script.declared_vars[sym] = sort


def _define(form: tuple, script: Script, env: _Env) -> None:
    if len(form) != 5:
        raise SmtSyntaxError("malformed define-fun", _pos(form))
    sym, params_form, sort_form, body_form = form[1:]
    if not isinstance(sym, str):
        raise SmtSyntaxError("expected a symbol", _pos(form))
    if _is_bound(sym, script, env):
        raise SmtSyntaxError(f"symbol {sym} redefined", _pos(sym))
    result_sort = _parse_sort(sort_form)

    if result_sort == ROUNDING_MODE:
        if not (isinstance(body_form, str) and body_form in RNE_NAMES):
            raise UnsupportedRoundingModeError(
                f"RoundingMode definition {sym} must be RNE", _pos(form)
            )
        env.rm_values.add(sym)
        return

    params: list[tuple[str, Sort]] = []
    if isinstance(params_form, str):
        raise SmtSyntaxError("malformed parameter list", _pos(form))
    for p in params_form:
        if not (isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str)):
            raise SmtSyntaxError("malformed parameter", _pos(params_form))
        psort = _parse_sort(p[1])
        if not psort.is_fp:
            raise UnsupportedSortError(
                "definition parameters must be floating point", _pos(p)
            )
        params.append((p[0], psort))

    body_env = env.body_scope(sym)
    for pname, psort in params:
        body_env.locals[pname] = FPVar(pname, psort)
    body = _build_term(body_form, body_env)
    if body.sort != result_sort:
        raise SortError(
            f"body of {sym} has sort {body.sort}, declared {result_sort}", _pos(form)
        )
    script.definitions[sym] = Definition(sym, tuple(params), body, body_form)


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
