"""A small expression language for generated constraints: SMT-LIB2
rendering and an independent IEEE evaluator.

The evaluator computes with numpy float32/float64 scalars, whose
arithmetic is IEEE binary32/binary64 with round-nearest-ties-to-even.
It shares no code with fpsat (neither its tape nor `semantic_eval`):
models that fpsat reports are re-checked here. Nodes are plain objects,
so a generator may share one node under many parents; evaluation and
rendering memoize by node identity, so shared DAGs cost linear time.
"""

from __future__ import annotations

import struct

import numpy as np

F32, F64 = 32, 64
_NP = {F32: np.float32, F64: np.float64}
_SORT = {F32: "(_ FloatingPoint 8 24)", F64: "(_ FloatingPoint 11 53)"}
_LAYOUT = {F32: "8 24", F64: "11 53"}
_ARITH = {"add": "fp.add", "sub": "fp.sub", "mul": "fp.mul"}
_CMP = {"lt": "fp.lt", "leq": "fp.leq", "geq": "fp.geq"}


class Node:
    """One expression node: `op` names it, `args` are child nodes."""

    __slots__ = ("op", "args", "width", "value", "name")

    def __init__(self, op, args=(), width=0, value=None, name=None):
        self.op = op
        self.args = tuple(args)
        self.width = width  # 32/64 for FP nodes, 0 for Boolean ones
        self.value = value  # constants: a float exact at `width`
        self.name = name  # variables


def var(name: str, width: int) -> Node:
    return Node("var", width=width, name=name)


def const(value: float, width: int) -> Node:
    """A constant, rounded (RNE) to `width` on construction."""
    return Node("const", width=width, value=float(_NP[width](value)))


def arith(op: str, a: Node, b: Node) -> Node:
    if a.width != b.width or op not in _ARITH:
        raise ValueError(f"bad arithmetic {op} on widths {a.width}/{b.width}")
    return Node(op, (a, b), a.width)


def fabs(a: Node) -> Node:
    return Node("abs", (a,), a.width)


def ite(cond: Node, then: Node, orelse: Node) -> Node:
    return Node("ite", (cond, then, orelse), then.width)


def cmp(op: str, a: Node, b: Node) -> Node:
    if a.width != b.width or op not in _CMP:
        raise ValueError(f"bad comparison {op} on widths {a.width}/{b.width}")
    return Node(op, (a, b))


def conj(*args: Node) -> Node:
    return Node("and", args)


def disj(*args: Node) -> Node:
    return Node("or", args)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def evaluate(node: Node, binding: dict[str, float], memo=None):
    """IEEE value of `node` under `binding` (name -> float).

    Variables are narrowed to their width on substitution; Boolean nodes
    give Python bools. `memo` (by node identity) may be shared between
    several calls at the same binding.
    """
    if memo is None:
        memo = {}
    with np.errstate(all="ignore"):
        return _eval(node, binding, memo)


def _eval(node: Node, env, memo):
    key = id(node)
    if key in memo:
        return memo[key]
    op = node.op
    if op == "var":
        out = _NP[node.width](env[node.name])
    elif op == "const":
        out = _NP[node.width](node.value)
    elif op == "add":
        out = _eval(node.args[0], env, memo) + _eval(node.args[1], env, memo)
    elif op == "sub":
        out = _eval(node.args[0], env, memo) - _eval(node.args[1], env, memo)
    elif op == "mul":
        out = _eval(node.args[0], env, memo) * _eval(node.args[1], env, memo)
    elif op == "abs":
        out = np.abs(_eval(node.args[0], env, memo))
    elif op == "ite":
        branch = node.args[1] if _eval(node.args[0], env, memo) else node.args[2]
        out = _eval(branch, env, memo)
    elif op == "lt":
        out = bool(_eval(node.args[0], env, memo) < _eval(node.args[1], env, memo))
    elif op == "leq":
        out = bool(_eval(node.args[0], env, memo) <= _eval(node.args[1], env, memo))
    elif op == "geq":
        out = bool(_eval(node.args[0], env, memo) >= _eval(node.args[1], env, memo))
    elif op == "and":
        out = all(_eval(a, env, memo) for a in node.args)
    elif op == "or":
        out = any(_eval(a, env, memo) for a in node.args)
    else:
        raise ValueError(f"unknown node {op!r}")
    memo[key] = out
    return out


def holds(formula: Node, binding: dict[str, float]) -> bool:
    return bool(evaluate(formula, binding))


# --------------------------------------------------------------------------
# SMT-LIB2 rendering
# --------------------------------------------------------------------------


def sort_text(width: int) -> str:
    return _SORT[width]


def const_text(value: float, width: int) -> str:
    """Bit-exact literal, so no decimal rounding stands between the
    generator and the parser."""
    if width == F32:
        bits = struct.unpack("<I", struct.pack("<f", value))[0]
        return f"((_ to_fp 8 24) #x{bits:08x})"
    bits = struct.unpack("<Q", struct.pack("<d", value))[0]
    return f"((_ to_fp 11 53) #x{bits:016x})"


def render(node: Node, names=None) -> str:
    """Term text; a node found in `names` (by identity) prints as that
    symbol, which is how generators emit `let` and `define-fun` sharing."""
    names = names or {}
    sym = names.get(id(node))
    if sym is not None:
        return sym
    op = node.op
    if op == "var":
        return node.name
    if op == "const":
        return const_text(node.value, node.width)
    args = [render(a, names) for a in node.args]
    if op in _ARITH:
        return f"({_ARITH[op]} RNE {args[0]} {args[1]})"
    if op in _CMP:
        return f"({_CMP[op]} {args[0]} {args[1]})"
    if op == "abs":
        return f"(fp.abs {args[0]})"
    if op in ("and", "or"):
        return f"({op} {' '.join(args)})"
    if op == "ite":
        return f"(ite {args[0]} {args[1]} {args[2]})"
    raise ValueError(f"unknown node {op!r}")


def script(declared: list[tuple[str, int]], body: list[str],
           comment: str) -> str:
    """A complete QF_FP script: declarations, then `body` commands."""
    lines = [f"; {comment}", "(set-logic QF_FP)"]
    lines += [f"(declare-fun {n} () {sort_text(w)})" for n, w in declared]
    lines += body
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
