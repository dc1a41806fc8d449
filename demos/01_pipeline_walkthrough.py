"""Walk the full frontend pipeline on the bundled quadratic instance.

Stages: SMT-LIB2 text -> typed script -> inlined formula -> NNF with
negation flags -> compiled objective program. The NNF's clause set, which
`--dump-cnf` prints, is shown along the way.
"""

from fpsat import (
    clause_set_to_sexpr,
    compile_objective,
    expand_definitions,
    parse_script,
    push_negations,
    simplify,
    term_to_smt2,
    to_cnf,
)
from fpsat.harness import corpus_dir

text = (corpus_dir() / "listing1.smt2").read_text()
print("input script:")
print(text)

script = parse_script(text)
print(f"logic={script.logic}  variables={list(script.declared_vars)}  "
      f"definitions={len(script.definitions)}  assertions={len(script.assertions)}")

formula, varmap = expand_definitions(script)
print("\ninlined assertion:")
print(" ", term_to_smt2(formula))

nnf = push_negations(simplify(formula))
clauses = to_cnf(nnf)
print("\nclause set (negation recorded as a flag, never by flipping):")
print(clause_set_to_sexpr(clauses), end="")

program = compile_objective(nnf, varmap)
print(f"\ncompiled program: dimension={program.dimension} "
      f"clauses={len(clauses)}")

for x in (-3.0, -2.5, -2.0, -1.5, 0.0, 1.0):
    print(f"  G({x:+.1f}) = {program.evaluate([x]):.1f}")
print("\nG hits exactly zero on the satisfying band around x = -2; "
      "everywhere else it reports a bit-level distance to feasibility.")
