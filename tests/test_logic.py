"""The shared three-valued layer: the runtime checker and the prover read
the connectives by Kleene's strong tables and report an undecided value as
the one sentinel ``core.UNKNOWN``, each over its own atoms."""

import pytest

from qhoare.core import (
    And, BoolLit, Bot, Emb, ForallHeap, Implies, MemberOf, Not, Or, Top,
    UNKNOWN, Var, kleene_and, kleene_not, kleene_or,
)
from qhoare.heap import SymbolicHeap
from qhoare.prover import Model, eval_in_model
from qhoare.sim import QuantumState, check_assertion_runtime

U = UNKNOWN
T, F = True, False

AND = {(T, T): T, (T, F): F, (T, U): U,
       (F, T): F, (F, F): F, (F, U): F,
       (U, T): U, (U, F): F, (U, U): U}
OR = {(T, T): T, (T, F): T, (T, U): T,
      (F, T): T, (F, F): F, (F, U): U,
      (U, T): T, (U, F): U, (U, U): U}
IMPLIES = {(T, T): T, (T, F): F, (T, U): U,
           (F, T): T, (F, F): T, (F, U): T,
           (U, T): T, (U, F): U, (U, U): U}
NOT = {T: F, F: T, U: U}

# an atom of each truth value that both evaluators read the same way
ATOMS = {T: Top(), F: Bot(), U: ForallHeap("h", Top())}


def runtime(a, env):
    return check_assertion_runtime(a, dict(env), QuantumState())


def prover(a, env):
    return eval_in_model(a, Model(SymbolicHeap(), dict(env)))


EVALUATORS = pytest.mark.parametrize("evaluate", [runtime, prover],
                                     ids=["runtime", "prover"])


def test_core_connectives_are_kleene():
    for (a, b), expected in AND.items():
        assert kleene_and(a, b) is expected
    for (a, b), expected in OR.items():
        assert kleene_or(a, b) is expected
    for a, expected in NOT.items():
        assert kleene_not(a) is expected


@EVALUATORS
@pytest.mark.parametrize("connective, table",
                         [(And, AND), (Or, OR), (Implies, IMPLIES)],
                         ids=["and", "or", "implies"])
def test_binary_connectives(evaluate, connective, table):
    for (a, b), expected in table.items():
        got = evaluate(connective(ATOMS[a], ATOMS[b]), {})
        assert got is expected, (a, b, got)


@EVALUATORS
def test_negation(evaluate):
    for a, expected in NOT.items():
        assert evaluate(Not(ATOMS[a]), {}) is expected


@EVALUATORS
@pytest.mark.parametrize("r, cands, expected", [
    (T, ("false",), F), (T, ("true",), T), (T, ("false", "true"), T),
    (F, ("false",), T), (F, ("true",), F), (F, ("true", "s"), U),
    (T, ("s", "true"), T), (U, ("false", "true"), U),
])
def test_membership_is_a_disjunction(evaluate, r, cands, expected):
    # ``s`` is bound to an undecided value, so comparing with it is unknown
    terms = tuple(Emb(Var(c)) if c == "s" else BoolLit(c == "true")
                  for c in cands)
    got = evaluate(MemberOf(Emb(Var("r")), terms), {"r": r, "s": U})
    assert got is expected
