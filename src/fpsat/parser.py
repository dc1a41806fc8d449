"""SMT-LIB2 frontend for the quantifier-free floating-point fragment.

A self-contained recursive-descent s-expression reader plus a command
interpreter. Only binary32/binary64 sorts and round-nearest-ties-to-even
are accepted; everything else is rejected with a positioned diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
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
from .fp import BOOL, FP32, FP64, FPValue, ROUNDING_MODE, Sort, fp_sort, round_rational_to_bits
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
    free_vars,
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


@dataclass(frozen=True)
class SAtom:
    text: str
    pos: SourcePosition


@dataclass(frozen=True)
class SList:
    items: tuple
    pos: SourcePosition


def _tokenize(text: str):
    """Yield (token, pos) pairs; token is '(' / ')' or an atom string."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, SourcePosition(line, col)
            col += 1
            i += 1
        elif c == "|":
            start = SourcePosition(line, col)
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtSyntaxError("unterminated |symbol|", start)
            chunk = text[i : j + 1]
            yield chunk, start
            for ch in chunk:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 1
        elif c == '"':
            start = SourcePosition(line, col)
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            else:
                raise SmtSyntaxError("unterminated string literal", start)
            chunk = text[i : j + 1]
            yield chunk, start
            for ch in chunk:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 1
        else:
            start = SourcePosition(line, col)
            j = i
            while j < n and text[j] not in ' \t\r\n();"|':
                j += 1
            yield text[i:j], start
            col += j - i
            i = j


def _read_all(text: str) -> list:
    """Read every top-level s-expression in the input."""
    forms = []
    stack: list[tuple[list, SourcePosition]] = []
    for tok, pos in _tokenize(text):
        if tok == "(":
            stack.append(([], pos))
        elif tok == ")":
            if not stack:
                raise SmtSyntaxError("unbalanced ')'", pos)
            items, open_pos = stack.pop()
            node = SList(tuple(items), open_pos)
            if stack:
                stack[-1][0].append(node)
            else:
                forms.append(node)
        else:
            node = SAtom(tok, pos)
            if stack:
                stack[-1][0].append(node)
            else:
                forms.append(node)
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


def _parse_sort(form) -> Sort:
    if isinstance(form, SAtom):
        name = form.text
        if name == "Bool":
            return BOOL
        if name == "RoundingMode":
            return ROUNDING_MODE
        if name == "Float32":
            return FP32
        if name == "Float64":
            return FP64
        raise UnsupportedSortError(f"unsupported sort {name}", form.pos)
    if _head(form) == "_" and len(form.items) == 4:
        kind = form.items[1]
        if isinstance(kind, SAtom) and kind.text == "FloatingPoint":
            eb, sb = _int_atom(form.items[2]), _int_atom(form.items[3])
            sort = fp_sort(eb, sb)
            if sort is None:
                raise UnsupportedSortError(
                    f"only (_ FloatingPoint 8 24) and (_ FloatingPoint 11 53) "
                    f"are supported, got (_ FloatingPoint {eb} {sb})",
                    form.pos,
                )
            return sort
    raise UnsupportedSortError(f"unsupported sort {_render(form)}", form.pos)


def _int_atom(form) -> int:
    if isinstance(form, SAtom):
        try:
            return int(form.text)
        except ValueError:
            pass
    raise SmtSyntaxError(f"expected a numeral, got {_render(form)}", form.pos)


def _render(form) -> str:
    if isinstance(form, SAtom):
        return form.text
    return "(" + " ".join(_render(x) for x in form.items) + ")"


def _bv_literal(form) -> tuple[int, int] | None:
    """Decode a bitvector literal to (value, width), or None."""
    if isinstance(form, SAtom):
        t = form.text
        if t.startswith("#x"):
            return int(t[2:], 16), 4 * (len(t) - 2)
        if t.startswith("#b"):
            return int(t[2:], 2), len(t) - 2
        return None
    if _head(form) == "_" and len(form.items) == 3:
        val = form.items[1]
        if isinstance(val, SAtom) and val.text.startswith("bv"):
            return int(val.text[2:]), _int_atom(form.items[2])
    return None


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
    With a `target` sort, a literal of another width is rejected.
    """
    value = _decode_literal(form)
    if target is not None and value.sort != target:
        raise WidthMismatchError(
            f"literal width {value.width} does not match target {target.width}",
            form.pos,
        )
    return value


def _decode_literal(form) -> FPValue:
    if isinstance(form, SList) and form.items and isinstance(form.items[0], SList) \
            and _head(form.items[0]) == "_":
        head = form.items[0]
        tag = head.items[1] if len(head.items) == 4 else None
        if isinstance(tag, SAtom) and tag.text == "to_fp":
            return _decode_to_fp(head, form.items[1:], form.pos)

    if _head(form) == "fp":
        # the width is intrinsic to the literal triple
        if len(form.items) != 4:
            raise SmtSyntaxError("malformed fp literal", form.pos)
        eb_bv = _bv_literal(form.items[2])
        mant_bv = _bv_literal(form.items[3])
        if eb_bv is None or mant_bv is None:
            raise SmtSyntaxError("fp literal parts must be bitvectors", form.pos)
        eb, sb = eb_bv[1], mant_bv[1] + 1
        sort = fp_sort(eb, sb)
        if sort is None:
            raise UnsupportedSortError(
                f"fp literal has layout ({eb},{sb})", form.pos
            )
        sign = _require_bv(form.items[1], 1)
        bits = (sign << (eb + sb - 1)) | (eb_bv[0] << (sb - 1)) | mant_bv[0]
        return FPValue(sort.width, bits)

    if _head(form) == "_" and len(form.items) == 4:
        tag = form.items[1]
        if isinstance(tag, SAtom) and tag.text in _SPECIAL_FP:
            eb, sb = _int_atom(form.items[2]), _int_atom(form.items[3])
            sort = fp_sort(eb, sb)
            if sort is None:
                raise UnsupportedSortError(f"layout ({eb},{sb})", form.pos)
            return FPValue(sort.width, _special_fp_bits(tag.text, eb, sb))

    raise SmtSyntaxError(f"unrecognized FP literal {_render(form)}", form.pos)


def _require_bv(form, width: int) -> int:
    bv = _bv_literal(form)
    if bv is None:
        raise SmtSyntaxError(f"expected a bitvector literal, got {_render(form)}", form.pos)
    if bv[1] != width:
        raise WidthMismatchError(f"expected a {width}-bit literal", form.pos)
    return bv[0]


def _decode_to_fp(indices: SList, args: tuple, pos: SourcePosition) -> FPValue:
    """Decode ((_ to_fp eb sb) ...) in bitvector or RNE-real form."""
    eb, sb = _int_atom(indices.items[2]), _int_atom(indices.items[3])
    sort = fp_sort(eb, sb)
    if sort is None:
        raise UnsupportedSortError(f"layout ({eb},{sb}) in to_fp", pos)

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
        rm = args[0]
        if not (isinstance(rm, SAtom) and rm.text in RNE_NAMES):
            if isinstance(rm, SAtom) and rm.text in OTHER_RM_NAMES:
                raise UnsupportedRoundingModeError(
                    f"rounding mode {rm.text} is not supported (RNE only)", rm.pos
                )
            raise UnsupportedRoundingModeError(
                f"expected RNE rounding mode, got {_render(rm)}", pos
            )
        value = args[1]
        negate = False
        if isinstance(value, SList) and _head(value) == "-" and len(value.items) == 2:
            negate = True
            value = value.items[1]
        if isinstance(value, SAtom):
            try:
                frac = Fraction(value.text)
            except ValueError:
                frac = None
            if frac is not None:
                if negate:
                    frac = -frac
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
        self.rm_values: dict[str, str] = {}  # defined RoundingMode constants
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


def _require_fp(term: Term, pos: SourcePosition, what: str) -> Term:
    if not term.sort.is_fp:
        raise SortError(f"{what} must be a floating-point term", pos)
    return term


def _require_bool(term: Term, pos: SourcePosition, what: str) -> Term:
    if term.sort != BOOL:
        raise SortError(f"{what} must be Boolean", pos)
    return term


def _same_fp_sort(a: Term, b: Term, pos: SourcePosition, what: str) -> None:
    if a.sort != b.sort:
        raise SortError(
            f"{what} operands have mismatched sorts {a.sort} and {b.sort}", pos
        )


def _resolve_rm(form, env: _Env) -> None:
    """Check a rounding-mode argument; only RNE (possibly via define-fun) passes."""
    if isinstance(form, SAtom):
        name = form.text
        if name in RNE_NAMES:
            return
        if name in OTHER_RM_NAMES:
            raise UnsupportedRoundingModeError(
                f"rounding mode {name} is not supported (RNE only)", form.pos
            )
        if name in env.rm_values:
            if env.rm_values[name] in RNE_NAMES:
                return
            raise UnsupportedRoundingModeError(
                f"rounding mode {name} = {env.rm_values[name]} is not RNE", form.pos
            )
    raise UnsupportedRoundingModeError(
        f"expected an RNE rounding mode, got {_render(form)}", form.pos
    )


def _build_term(form, env: _Env) -> Term:
    if isinstance(form, SAtom):
        return _build_atom(form, env)

    if not form.items:
        raise SmtSyntaxError("empty application", form.pos)
    head = form.items[0]

    # FP literals: ((_ to_fp ...) ...), (_ +oo ...), (fp ...)
    if isinstance(head, SList) and _head(head) == "_":
        tag = head.items[1] if len(head.items) > 1 else None
        if isinstance(tag, SAtom) and tag.text == "to_fp" and len(head.items) == 4:
            return FPConst(decode_fp_literal(form))
        raise UnsupportedOperationError(
            f"unsupported indexed operator {_render(head)}", form.pos
        )
    if _head(form) == "_":
        tag = form.items[1] if len(form.items) > 1 else None
        if isinstance(tag, SAtom) and tag.text in _SPECIAL_FP and len(form.items) == 4:
            return FPConst(decode_fp_literal(form))
        raise UnsupportedOperationError(
            f"unsupported indexed form {_render(form)}", form.pos
        )
    if _head(form) == "fp":
        return FPConst(decode_fp_literal(form))

    if not isinstance(head, SAtom):
        raise SmtSyntaxError(f"expected an operator, got {_render(head)}", form.pos)
    op = head.text
    rest = form.items[1:]

    if op in _KNOWN_UNSUPPORTED:
        raise UnsupportedOperationError(f"operation {op} is not supported", head.pos)

    if op == "not":
        if len(rest) != 1:
            raise SmtSyntaxError("not takes one argument", form.pos)
        return BoolNot(_require_bool(_build_term(rest[0], env), form.pos, "not argument"))

    if op in ("and", "or"):
        args = tuple(
            _require_bool(_build_term(a, env), form.pos, f"{op} argument") for a in rest
        )
        if not args:
            return BoolConst(op == "and")
        if len(args) == 1:
            return args[0]
        return BoolAnd(args) if op == "and" else BoolOr(args)

    if op == "=>":
        if len(rest) < 2:
            raise SmtSyntaxError("=> takes at least two arguments", form.pos)
        args = [_require_bool(_build_term(a, env), form.pos, "=> argument") for a in rest]
        out = args[-1]
        for a in reversed(args[:-1]):
            out = BoolOr((BoolNot(a), out))
        return out

    if op == "xor":
        if len(rest) < 2:
            raise SmtSyntaxError("xor takes at least two arguments", form.pos)
        args = [_require_bool(_build_term(a, env), form.pos, "xor argument") for a in rest]
        out = args[0]
        for a in args[1:]:
            out = BoolOr((BoolAnd((out, BoolNot(a))), BoolAnd((BoolNot(out), a))))
        return out

    if op == "=":
        if len(rest) < 2:
            raise SmtSyntaxError("= takes at least two arguments", form.pos)
        args = [_build_term(a, env) for a in rest]
        if args[0].sort == BOOL:
            for a in args:
                _require_bool(a, form.pos, "= argument")
            out = None
            for a, b in zip(args, args[1:]):
                iff = BoolOr((BoolAnd((a, b)), BoolAnd((BoolNot(a), BoolNot(b)))))
                out = iff if out is None else BoolAnd((out, iff))
            return out
        parts = []
        for a, b in zip(args, args[1:]):
            _require_fp(a, form.pos, "= argument")
            _same_fp_sort(a, b, form.pos, "=")
            parts.append(Compare(CmpOp.EQ, a, b))
        return parts[0] if len(parts) == 1 else BoolAnd(tuple(parts))

    if op == "distinct":
        if len(rest) < 2:
            raise SmtSyntaxError("distinct takes at least two arguments", form.pos)
        args = [_build_term(a, env) for a in rest]
        if args[0].sort == BOOL:
            if len(args) != 2:
                raise SortError("Boolean distinct of arity > 2 is unsatisfiable", form.pos)
            a, b = args
            _require_bool(b, form.pos, "distinct argument")
            return BoolOr((BoolAnd((a, BoolNot(b))), BoolAnd((BoolNot(a), b))))
        parts = []
        for i in range(len(args)):
            _require_fp(args[i], form.pos, "distinct argument")
            for j in range(i + 1, len(args)):
                _same_fp_sort(args[i], args[j], form.pos, "distinct")
                parts.append(Compare(CmpOp.NEQ, args[i], args[j]))
        return parts[0] if len(parts) == 1 else BoolAnd(tuple(parts))

    if op in _CHAINABLE:
        if len(rest) < 2:
            raise SmtSyntaxError(f"{op} takes at least two arguments", form.pos)
        args = [
            _require_fp(_build_term(a, env), form.pos, f"{op} argument") for a in rest
        ]
        parts = []
        for a, b in zip(args, args[1:]):
            _same_fp_sort(a, b, form.pos, op)
            parts.append(Compare(_CHAINABLE[op], a, b))
        return parts[0] if len(parts) == 1 else BoolAnd(tuple(parts))

    if op in _ARITH_2:
        if len(rest) != 3:
            raise SmtSyntaxError(f"{op} takes a rounding mode and two arguments", form.pos)
        _resolve_rm(rest[0], env)
        a = _require_fp(_build_term(rest[1], env), form.pos, f"{op} argument")
        b = _require_fp(_build_term(rest[2], env), form.pos, f"{op} argument")
        _same_fp_sort(a, b, form.pos, op)
        return FPArith(_ARITH_2[op], (a, b))

    if op in ("fp.neg", "fp.abs"):
        if len(rest) != 1:
            raise SmtSyntaxError(f"{op} takes one argument", form.pos)
        a = _require_fp(_build_term(rest[0], env), form.pos, f"{op} argument")
        return FPArith(ArithOp.NEG if op == "fp.neg" else ArithOp.ABS, (a,))

    if op == "ite":
        if len(rest) != 3:
            raise SmtSyntaxError("ite takes three arguments", form.pos)
        cond = _require_bool(_build_term(rest[0], env), form.pos, "ite condition")
        then = _build_term(rest[1], env)
        orelse = _build_term(rest[2], env)
        if then.sort == BOOL and orelse.sort == BOOL:
            return BoolOr((BoolAnd((cond, then)), BoolAnd((BoolNot(cond), orelse))))
        _require_fp(then, form.pos, "ite branch")
        _same_fp_sort(then, orelse, form.pos, "ite")
        return Ite(cond, then, orelse)

    if op == "let":
        if len(rest) != 2 or not isinstance(rest[0], SList):
            raise SmtSyntaxError("malformed let", form.pos)
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
                f"{op} expects {len(defn.params)} arguments, got {len(rest)}", form.pos
            )
        if not rest:
            return defn.body
        args = []
        for (pname, psort), arg_form in zip(defn.params, rest):
            arg = _build_term(arg_form, env)
            if arg.sort != psort:
                raise SortError(
                    f"argument {pname} of {op} must have sort {psort}", form.pos
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
    anything unknown draws a warning and is skipped.
    """
    script = Script()
    env = _Env(script)
    for form in _read_all(text):
        if not isinstance(form, SList) or not form.items:
            raise SmtSyntaxError(f"expected a command, got {_render(form)}",
                                 form.pos if isinstance(form, (SAtom, SList)) else None)
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
            _declare(form, script)

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


def _declare(form: SList, script: Script) -> None:
    name_idx = 1
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
    sym = form.items[name_idx]
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
    if sym.text in script.declared_vars or sym.text in script.definitions:
        raise SmtSyntaxError(f"symbol {sym.text} redeclared", sym.pos)
    script.declared_vars[sym.text] = sort


def _define(form: SList, script: Script, env: _Env) -> None:
    if len(form.items) != 5:
        raise SmtSyntaxError("malformed define-fun", form.pos)
    sym, params_form, sort_form, body_form = form.items[1:]
    if not isinstance(sym, SAtom):
        raise SmtSyntaxError("expected a symbol", form.pos)
    if sym.text in script.declared_vars or sym.text in script.definitions:
        raise SmtSyntaxError(f"symbol {sym.text} redefined", sym.pos)
    result_sort = _parse_sort(sort_form)

    if result_sort == ROUNDING_MODE:
        if not (isinstance(body_form, SAtom) and body_form.text in RNE_NAMES):
            raise UnsupportedRoundingModeError(
                f"RoundingMode definition {sym.text} must be RNE", form.pos
            )
        env.rm_values[sym.text] = body_form.text
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
    script.definitions[sym.text] = Definition(sym.text, tuple(params), body,
                                              result_sort, body_form)


# --------------------------------------------------------------------------
# Assertion conjunction
# --------------------------------------------------------------------------


def expand_definitions(script: Script) -> tuple[Term, list[tuple[str, Sort]]]:
    """Conjoin the assertions, whose definitions were inlined as parsed.

    Returns the closed formula plus the variable map: each declared variable
    exactly once, in declaration order.
    """
    assertions = script.assertions
    formula = assertions[0] if len(assertions) == 1 else BoolAnd(tuple(assertions))

    for name in free_vars(formula):
        if name not in script.declared_vars:
            raise UnknownSymbolError(f"assertion uses undeclared symbol {name}")
    varmap = list(script.declared_vars.items())
    return formula, varmap
