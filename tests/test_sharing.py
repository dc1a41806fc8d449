"""Hash-consed terms: shared input stays shared, and the passes are linear."""

import gc
import pickle
import sys
import threading
import time
import weakref

import pytest

from fpsat import build_problem, clause_set_to_sexpr, parser
from fpsat.fp import FP64
from fpsat.normalizer import push_negations, simplify
from fpsat.objective import render_objective_source, semantic_eval
from fpsat.parser import expand_definitions, parse_script
from fpsat.terms import ArithOp, CmpOp, Compare, FPArith, FPVar, term_to_smt2


def let_chain(depth: int) -> str:
    """a0 = x + y, a_i = a_{i-1} + a_{i-1}: its tree has 2^depth leaves."""
    body = f"(fp.leq a{depth} ((_ to_fp 11 53) RNE 1.0))"
    for i in range(depth, 0, -1):
        body = f"(let ((a{i} (fp.add RNE a{i - 1} a{i - 1}))) {body})"
    body = f"(let ((a0 (fp.add RNE x y))) {body})"
    return ("(set-logic QF_FP)(declare-fun x () Float64)(declare-fun y () Float64)"
            f"(assert {body})(check-sat)")


def parametric_chain(depth: int) -> str:
    """f_i(v) = f_{i-1}(v) * f_{i-1}(-v): each application applies the
    previous definition twice."""
    defs = "(define-fun f0 ((v Float64)) Float64 (fp.add RNE v x))"
    for i in range(1, depth + 1):
        defs += (f"(define-fun f{i} ((v Float64)) Float64"
                 f" (fp.mul RNE (f{i - 1} v) (f{i - 1} (fp.neg v))))")
    return (f"(set-logic QF_FP)(declare-fun x () Float64){defs}"
            f"(assert (fp.leq (f{depth} x) ((_ to_fp 11 53) RNE 1.0)))(check-sat)")


def distinct_nodes(term) -> int:
    seen = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen[id(t)] = t
        for name in t._fields:
            value = getattr(t, name)
            if isinstance(value, tuple):
                stack.extend(value)
            elif hasattr(value, "_fields"):
                stack.append(value)
    return len(seen)


class TestInterning:
    def test_equal_structure_is_one_node(self):
        x = FPVar("x", FP64)
        a = Compare(CmpOp.LT, FPArith(ArithOp.ADD, (x, x)), x)
        b = Compare(CmpOp.LT, FPArith(ArithOp.ADD, (FPVar("x", FP64),) * 2), x, False)
        assert a is b
        assert Compare(CmpOp.LT, a.lhs, x, negated=True) is not a

    def test_nodes_are_immutable(self):
        x = FPVar("x", FP64)
        with pytest.raises(AttributeError):
            x.name = "y"

    def test_pickle_reinterns(self, listing1_text):
        formula = build_problem(listing1_text).formula
        assert pickle.loads(pickle.dumps(formula)) is formula

    def test_concurrent_construction_gives_one_node(self):
        # more threads than cores build the same fresh chain, switching
        # often; every level must be one object across threads
        results = [None] * 4
        barrier = threading.Barrier(len(results))

        def build(slot):
            barrier.wait(timeout=10)
            t = FPVar("concurrent", FP64)
            chain = []
            for _ in range(2000):
                t = FPArith(ArithOp.ADD, (t, t))
                chain.append(t)
            results[slot] = chain

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for chain in results[1:]:
            assert all(a is b for a, b in zip(chain, results[0], strict=True))

    def test_dropped_problem_frees_its_nodes(self, listing1_text):
        problem = build_problem(listing1_text)
        node = weakref.ref(problem.formula.lhs)
        assert node() is not None
        del problem
        gc.collect()
        assert node() is None


class TestSharing:
    @pytest.mark.parametrize("depth", [12, 200])
    def test_passes_keep_the_sharing(self, depth):
        formula, _ = expand_definitions(parse_script(let_chain(depth)))
        simplified = simplify(formula)
        nnf = push_negations(simplified)
        assert distinct_nodes(formula) == distinct_nodes(simplified) \
            == distinct_nodes(nnf) == depth + 5

    def test_dag_and_tree_texts_compile_alike(self):
        depth = 6
        dag = build_problem(let_chain(depth))
        tree = build_problem(
            "(set-logic QF_FP)(declare-fun x () Float64)(declare-fun y () Float64)"
            f"(assert {term_to_smt2(dag.formula)})(check-sat)"
        )
        assert tree.formula is dag.formula
        assert render_objective_source(tree.program) \
            == render_objective_source(dag.program)

    def test_parametric_body_built_once_per_argument_list(self, monkeypatch):
        # f0 is applied to v, -v, --v, ... and x, -x, --x, ...; a body
        # rebuilt at every application would be built 2^depth times
        builds = [0]
        build_term = parser._build_term

        def counting(form, env):
            if env.current_def == "f0" and isinstance(form, tuple):
                builds[0] += 1  # f0's body is its only list
            return build_term(form, env)

        monkeypatch.setattr(parser, "_build_term", counting)
        depth = 10
        parse_script(parametric_chain(depth))
        assert builds[0] <= 2 * (depth + 2)


class TestLinearity:
    @pytest.mark.parametrize("text", [let_chain(200), parametric_chain(16)],
                             ids=["let-200", "parametric-16"])
    def test_deep_chain_builds_and_evaluates(self, text):
        t0 = time.perf_counter()
        problem = build_problem(text)
        holds = semantic_eval(problem.formula, {"x": 0.0, "y": 0.0})
        assert time.perf_counter() - t0 < 1.0
        assert holds == (problem.program.evaluate([0.0, 0.0][:problem.program.dimension])
                         == 0.0)

    def test_cnf_dump_prints_shared_subterms_once(self):
        # tree-shaped, the depth-40 literal would print 2^40 leaves
        assert len(clause_set_to_sexpr(build_problem(let_chain(40)).clauses)) < 10_000
        assert clause_set_to_sexpr(build_problem(let_chain(2)).clauses) == (
            "(define-fun @t0 () (_ FloatingPoint 11 53) (fp.add RNE x y))\n"
            "(define-fun @t1 () (_ FloatingPoint 11 53) (fp.add RNE @t0 @t0))\n"
            "(clause (leq (fp.add RNE @t1 @t1) ((_ to_fp 11 53) #x3ff0000000000000)))\n"
        )
