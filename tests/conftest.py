"""Shared fixtures: structured operand sets, random formulas, assignments."""

from __future__ import annotations

import random
import struct
import threading
import time

import numpy as np
import pytest

from fpsat import kernels, optimizers
from fpsat.fp import FP32, FP64, FPValue
from fpsat.harness import corpus_dir
from fpsat.normalizer import push_negations, simplify
from fpsat.objective import ObjectiveProgram, compile_objective
from fpsat.optimizers import TerminationReason, _Run, _Stop
from fpsat.terms import (
    FALSE,
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
    Term,
)

# Structured operand encodings: +-0, +-min-subnormal, +-1, +-max-finite,
# +-inf, and two NaN payloads.
STRUCTURED_BITS_32 = [
    0x00000000, 0x80000000,  # +-0
    0x00000001, 0x80000001,  # +-min subnormal
    0x3F800000, 0xBF800000,  # +-1
    0x7F7FFFFF, 0xFF7FFFFF,  # +-max finite
    0x7F800000, 0xFF800000,  # +-inf
    0x7FC00000, 0x7F800001,  # two NaN payloads
]
STRUCTURED_BITS_64 = [
    0x0000000000000000, 0x8000000000000000,
    0x0000000000000001, 0x8000000000000001,
    0x3FF0000000000000, 0xBFF0000000000000,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0x7FF0000000000001,
]


def structured_values(width: int) -> list[FPValue]:
    bits = STRUCTURED_BITS_32 if width == 32 else STRUCTURED_BITS_64
    return [FPValue(width, b) for b in bits]


def bits_to_double(bits: int, width: int) -> float:
    if width == 32:
        return struct.unpack("<f", struct.pack("<I", bits))[0]
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def random_fp_double(rng: random.Random, width: int, special_p: float = 0.3) -> float:
    """A random value (as a binary64 float) exercising the full encoding
    space of the given width, specials included."""
    if width == 32:
        pool = STRUCTURED_BITS_32
        bits = rng.choice(pool) if rng.random() < special_p else rng.getrandbits(32)
        return bits_to_double(bits, 32)
    pool = STRUCTURED_BITS_64
    bits = rng.choice(pool) if rng.random() < special_p else rng.getrandbits(64)
    return bits_to_double(bits, 64)


def random_const(rng: random.Random, sort):
    width = sort.width
    pool = STRUCTURED_BITS_32 if width == 32 else STRUCTURED_BITS_64
    if rng.random() < 0.4:
        bits = rng.choice(pool)
    else:
        bits = rng.getrandbits(width)
    return FPConst(FPValue(width, bits))


def random_formula(rng: random.Random, max_depth: int = 5, max_vars: int = 4):
    """A random Boolean formula over FP comparisons; returns (term, varmap)."""
    n_vars = rng.randint(0, max_vars)
    variables = [
        FPVar(f"v{i}", rng.choice([FP32, FP64])) for i in range(n_vars)
    ]

    def fp_node(depth, sort):
        svars = [v for v in variables if v.var_sort == sort]
        if depth <= 0 or rng.random() < 0.3:
            if svars and rng.random() < 0.6:
                return rng.choice(svars)
            return random_const(rng, sort)
        r = rng.random()
        if r < 0.75:
            op = rng.choice([ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV])
            return FPArith(op, (fp_node(depth - 1, sort), fp_node(depth - 1, sort)))
        if r < 0.85:
            op = rng.choice([ArithOp.NEG, ArithOp.ABS])
            return FPArith(op, (fp_node(depth - 1, sort),))
        return Ite(bool_node(depth - 1), fp_node(depth - 1, sort),
                   fp_node(depth - 1, sort))

    def atom(depth):
        sort = rng.choice([FP32, FP64])
        op = rng.choice(list(CmpOp))
        return Compare(op, fp_node(depth, sort), fp_node(depth, sort))

    def bool_node(depth):
        if depth <= 0 or rng.random() < 0.35:
            return atom(max(depth - 1, 0))
        r = rng.random()
        if r < 0.25:
            return BoolNot(bool_node(depth - 1))
        kids = tuple(bool_node(depth - 1) for _ in range(rng.randint(2, 3)))
        return BoolAnd(kids) if r < 0.625 else BoolOr(kids)

    formula = bool_node(rng.randint(1, max_depth))
    varmap = [(v.name, v.var_sort) for v in variables]
    return formula, varmap


def random_assignment(rng: random.Random, varmap) -> dict[str, float]:
    return {
        name: random_fp_double(rng, sort.width) for name, sort in varmap
    }


def clause_set_as_formula(clauses) -> Term:
    """View `to_cnf`'s clauses as an NNF term (for equivalence checks)."""
    parts = []
    for clause in clauses:
        if not clause:
            parts.append(FALSE)
        elif len(clause) == 1:
            parts.append(clause[0])
        else:
            parts.append(BoolOr(tuple(clause)))
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return BoolAnd(tuple(parts))


def build_program(formula, varmap):
    """formula -> simplify -> NNF -> compiled program."""
    return compile_objective(push_negations(simplify(formula)), varmap)


def retyped(cls, program: ObjectiveProgram) -> ObjectiveProgram:
    """`program` as an instance of the subclass `cls`, with a copy of its state."""
    copy = cls.__new__(cls)
    copy.__dict__.update(program.__dict__)
    return copy


def batch_values(program, X) -> np.ndarray:
    """The values that a population's rows take through
    `optimizers._Run.many` and the program's own `evaluate`, in order, up
    to and including the first zero, which ends the run."""
    run = _Run(program.evaluate, len(X), None)
    taken = []
    take = run._take

    def record(x, v):
        taken.append(v)
        return take(x, v)

    run._take = record
    try:
        run.many(np.asarray(X, dtype=float))
    except _Stop as end:
        assert end.reason is TerminationReason.ZERO_FOUND
    return np.array(taken, dtype=float)


@pytest.fixture
def crashing_isres(monkeypatch):
    """Makes ISRES raise RuntimeError("boom at <time.monotonic()>"): its
    native whole run where it is called, and the Python minimizer where
    it draws its first generation, after its initial population. No other
    minimizer reaches either point."""
    def boom(*args):
        raise RuntimeError(f"boom at {time.monotonic()!r}")

    monkeypatch.setattr(optimizers, "_gauss_rows", boom)
    if kernels.lib is not None:
        monkeypatch.setattr(kernels.lib, "fpsat_isres", boom)


def pytest_addoption(parser):
    parser.addoption("--kernels", choices=("loaded", "python"), default="loaded",
                     help="run on the native kernels if they loaded (default), "
                          "or force the Python path by clearing their handle")


@pytest.fixture(scope="session", autouse=True)
def kernel_path(request):
    """The path every test runs on: the loaded native kernels, or, with
    `--kernels=python`, the Python path, forced by clearing the kernels'
    handle for the whole session."""
    loaded, reason = kernels.lib, kernels.reason
    if request.config.getoption("--kernels") == "python" and loaded is not None:
        kernels.lib, kernels.reason = None, "cleared by --kernels=python"
    yield "python" if kernels.lib is None else "native"
    kernels.lib, kernels.reason = loaded, reason


# modules whose tests race: each must end every thread it starts
_THREAD_CHECKED = {"test_portfolio", "test_acceptance"}


@pytest.fixture(autouse=True)
def no_thread_left(request):
    """Fails a portfolio or acceptance test that leaves a thread it
    started running for more than a second after it ends."""
    if request.module.__name__ not in _THREAD_CHECKED:
        yield
        return
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    while True:
        left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert not left, f"threads still running 1 s after the test: {left}"


@pytest.fixture(scope="session")
def corpus_path():
    return corpus_dir()


@pytest.fixture(scope="session")
def listing1_text(corpus_path):
    return (corpus_path / "listing1.smt2").read_text()
