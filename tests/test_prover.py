"""Entailment checking against an independent brute-force model
enumerator for the small-heap fragment."""

import itertools
import random

import pytest

from qhoare.core import (
    And, BoolLit, BoolT, Bot, Emb, Emp, GhostRef, HeapId, HEmpty, HVar, IdAt,
    InDom, Ket, Lookup, MemberOf, Not, Or, Implies, Pair, PointsTo, Top,
    UNKNOWN, Upd, Var, WildcardState, pretty, KET_TEXT,
)
from qhoare.heap import (
    Cell, SymbolicHeap, SymState, UNKNOWN_STATE, basis_claim, concrete,
    opaque,
)
from qhoare.prover import (
    ALLOCATION, Model, Obligation, POSTCONDITION, Verdict, discharge_all,
    entails, eval_in_model, _describe_model,
)

LOCS = ["a", "b", "c"]
KETS = ["0", "1", "+", "-"]
BOOLS = ["x", "y"]
S = 2 ** -0.5
KET_VECS = {"0": (1, 0), "1": (0, 1), "+": (S, S), "-": (S, -S)}


# --- independent oracle ------------------------------------------------------
# A model is (heap: dict loc -> ket kind, env: dict bool var -> bool).
# Direct recursive evaluation; total and two-valued on the fragment.

def oracle_heap_expr(h, heap):
    if isinstance(h, HVar):
        if h.name == "%h":
            return dict(heap)
        raise ValueError("free heap variable outside fragment")
    if isinstance(h, HEmpty):
        return {}
    if isinstance(h, Upd):
        base = oracle_heap_expr(h.base, heap)
        loc = term_name(h.loc)
        base[loc] = h.value.kind
        return base
    raise ValueError(h)


def term_name(m):
    while isinstance(m, Emb):
        m = m.elim
    assert isinstance(m, Var)
    return m.name


def oracle_operand(m, env):
    while isinstance(m, Emb):
        m = m.elim
    if isinstance(m, BoolLit):
        return m.value
    if isinstance(m, Ket):
        return ("ket", m.kind)
    if isinstance(m, Var):
        return env[m.name]
    raise ValueError(m)


def oracle_eval(a, heap, env):
    if isinstance(a, Top):
        return True
    if isinstance(a, Bot):
        return False
    if isinstance(a, Emp):
        return not heap
    if isinstance(a, And):
        return oracle_eval(a.left, heap, env) and \
            oracle_eval(a.right, heap, env)
    if isinstance(a, Or):
        return oracle_eval(a.left, heap, env) or \
            oracle_eval(a.right, heap, env)
    if isinstance(a, Implies):
        return (not oracle_eval(a.left, heap, env)) or \
            oracle_eval(a.right, heap, env)
    if isinstance(a, Not):
        return not oracle_eval(a.body, heap, env)
    if isinstance(a, IdAt):
        return oracle_operand(a.left, env) == oracle_operand(a.right, env)
    if isinstance(a, MemberOf):
        lhs = oracle_operand(a.term, env)
        return any(lhs == oracle_operand(c, env) for c in a.candidates)
    if isinstance(a, PointsTo):
        loc = term_name(a.loc)
        return heap == {loc: a.state.kind}
    if isinstance(a, Lookup):
        loc = term_name(a.loc)
        return heap.get(loc) == a.state.kind
    if isinstance(a, InDom):
        den = oracle_heap_expr(a.heap, heap)
        return term_name(a.loc) in den
    if isinstance(a, HeapId):
        return oracle_heap_expr(a.left, heap) == \
            oracle_heap_expr(a.right, heap)
    raise ValueError(a)


def oracle_models():
    state_opts = [None] + KETS
    for combo in itertools.product(state_opts, repeat=len(LOCS)):
        heap = {loc: s for loc, s in zip(LOCS, combo) if s is not None}
        for bvals in itertools.product([False, True], repeat=len(BOOLS)):
            yield heap, dict(zip(BOOLS, bvals))


def oracle_countermodel(hyps, concl):
    for heap, env in oracle_models():
        if all(oracle_eval(h, heap, env) for h in hyps) and \
                not oracle_eval(concl, heap, env):
            return heap, env
    return None


# --- sequent generator over the fragment -------------------------------------

class SeqGen:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def ket(self):
        return Ket(self.rng.choice(KETS))

    def heap_expr(self, depth=1):
        if depth <= 0 or self.rng.random() < 0.4:
            return self.rng.choice([HVar("%h"), HEmpty()])
        return Upd(self.heap_expr(depth - 1),
                   Emb(Var(self.rng.choice(LOCS))), self.ket())

    def atom(self):
        k = self.rng.randrange(9)
        if k == 0:
            return Top()
        if k == 1:
            return Bot()
        if k == 2:
            return Emp()
        if k == 3:
            return PointsTo(Emb(Var(self.rng.choice(LOCS))), self.ket())
        if k == 4:
            return Lookup(Emb(Var(self.rng.choice(LOCS))), self.ket())
        if k == 5:
            lhs = self.rng.choice(
                [BoolLit(self.rng.random() < 0.5),
                 Emb(Var(self.rng.choice(BOOLS))), self.ket()])
            rhs = self.rng.choice(
                [BoolLit(self.rng.random() < 0.5),
                 Emb(Var(self.rng.choice(BOOLS))), self.ket()])
            if isinstance(lhs, Ket) != isinstance(rhs, Ket):
                rhs = self.ket() if isinstance(lhs, Ket) else \
                    BoolLit(self.rng.random() < 0.5)
            return IdAt(None, lhs, rhs)
        if k == 6:
            return InDom(self.heap_expr(), Emb(Var(self.rng.choice(LOCS))))
        if k == 7:
            return HeapId(self.heap_expr(), self.heap_expr())
        return MemberOf(self.ket(),
                        tuple(self.ket() for _ in
                              range(self.rng.randrange(1, 3))))

    def assertion(self, depth):
        if depth <= 0:
            return self.atom()
        k = self.rng.randrange(6)
        if k == 0:
            return And(self.assertion(depth - 1), self.assertion(depth - 1))
        if k == 1:
            return Or(self.assertion(depth - 1), self.assertion(depth - 1))
        if k == 2:
            return Implies(self.assertion(depth - 1),
                           self.assertion(depth - 1))
        if k == 3:
            return Not(self.assertion(depth - 1))
        return self.atom()

    def obligation(self):
        hyps = [self.assertion(self.rng.randrange(3))
                for _ in range(self.rng.randrange(3))]
        concl = self.assertion(self.rng.randrange(1, 4))
        return Obligation(
            kind=POSTCONDITION, conclusion=concl, hypotheses=hyps,
            var_ctx=tuple((b, BoolT()) for b in BOOLS))


def rebuild_model(countermodel):
    """Parse a reported countermodel back into oracle form."""
    text_to_kind = {v: k for k, v in KET_TEXT.items()}
    heap = {}
    for qubits, state in countermodel["heap"].items():
        if not qubits:
            continue
        heap[qubits] = text_to_kind[state]
    env = {}
    for k, v in countermodel.get("env", {}).items():
        if v in ("true", "false"):
            env[k] = v == "true"
    for b in BOOLS:
        env.setdefault(b, False)
    return heap, env


# --- unit tests ---------------------------------------------------------------

Q = Emb(Var("q"))


def heap_is(chain):
    return HeapId(HVar("%h"), chain)


class TestNormalizeHeapExpr:
    """Update chains ``upd(h, loc, state)`` as the prover reads them."""

    def test_shadowing(self):
        # the later update of a location wins
        h = Upd(Upd(HEmpty(), Q, Ket("0")), Q, Ket("1"))
        ob = Obligation(kind=POSTCONDITION, conclusion=PointsTo(Q, Ket("1")),
                        hypotheses=[heap_is(h)])
        assert entails(ob).status == "proved"
        ob.conclusion = Lookup(Q, Ket("0"))
        assert entails(ob).status == "refuted"

    def test_sorted_locations(self):
        # the order of updates to distinct locations does not matter
        a, b = Emb(Var("a")), Emb(Var("b"))
        h = Upd(Upd(HEmpty(), b, Ket("1")), a, Ket("0"))
        ob = Obligation(kind=POSTCONDITION,
                        conclusion=heap_is(
                            Upd(Upd(HEmpty(), a, Ket("0")), b, Ket("1"))),
                        hypotheses=[heap_is(h)])
        assert entails(ob).status == "proved"

    def test_seleq_resolution_valid_over_small_heaps(self):
        # brute-force over heaps with <= 2 cells: whenever the current heap
        # equals upd(empty, q, |0>), looking up q yields |0>
        chain = Upd(HEmpty(), Q, Ket("0"))
        for heap, env in oracle_models():
            if oracle_eval(HeapId(HVar("%h"), chain), heap, env):
                assert oracle_eval(Lookup(Q, Ket("0")), heap, env)
        ob = Obligation(kind=POSTCONDITION,
                        conclusion=Lookup(Q, Ket("0")),
                        hypotheses=[HeapId(HVar("%h"), chain)])
        assert entails(ob).status == "proved"

    def test_long_chains_agree_with_oracle(self):
        # heap equalities between chains of up to two updates, shadowed
        # and reordered ones included, decided as the oracle decides them
        gen = SeqGen(3)
        proved = refuted = 0
        for _ in range(200):
            concl = HeapId(gen.heap_expr(2), gen.heap_expr(2))
            ob = Obligation(kind=POSTCONDITION, conclusion=concl,
                            var_ctx=tuple((x, BoolT()) for x in BOOLS))
            status = entails(ob).status
            counter = oracle_countermodel([], concl)
            assert status == ("proved" if counter is None else "refuted"), \
                pretty(concl)
            proved += status == "proved"
            refuted += status == "refuted"
        assert proved > 10 and refuted > 10


class TestEntailsExamples:
    def test_points_to_implies_allocated(self):
        ob = Obligation(kind=ALLOCATION,
                        conclusion=Lookup(Q, WildcardState()),
                        hypotheses=[PointsTo(Q, Ket("0"))])
        assert entails(ob).status == "proved"

    def test_emp_refutes_allocation(self):
        ob = Obligation(kind=ALLOCATION,
                        conclusion=Lookup(Q, WildcardState()),
                        hypotheses=[Emp()])
        v = entails(ob)
        assert v.status == "refuted"
        assert v.countermodel is not None
        assert v.countermodel["heap"] in ({}, {"": "empty"})

    def test_bell_branch_split_equality(self):
        phip = concrete([S, 0, 0, S])
        model = Model(SymbolicHeap((Cell(("qa", "qb"), phip),)), {})
        ob = Obligation(kind=POSTCONDITION,
                        conclusion=IdAt(None, Emb(Var("qa")),
                                        Emb(Var("qb"))),
                        models=[model])
        assert entails(ob).status == "proved"

    def test_opaque_state_unknown(self):
        from qhoare.heap import opaque
        model = Model(SymbolicHeap((Cell(("q",), opaque("x")),)), {})
        ob = Obligation(kind=POSTCONDITION,
                        conclusion=IdAt(None, Q, Ket("+")),
                        models=[model])
        v = entails(ob)
        assert v.status == "unknown"
        assert v.residual is not None


# Each model's row holds one verdict per atom of STATE_ATOMS: T true, F
# false, ? unknown.  A qubit of a two-qubit cell is compared in each of the
# cell's basis branches, as |0> or |1> with the cell's exactness.
COMPARED = [Ket("0"), Ket("1"), Ket("+"), GhostRef("g"), WildcardState()]
STATE_ATOMS = ([IdAt(None, Emb(Var("qa")), s) for s in COMPARED]
               + [Lookup(Emb(Var("qa")), s) for s in COMPARED]
               + [IdAt(None, Emb(Var("qa")), Emb(Var("qb")))])
STATE_TABLE = [
    (("qa", "qb"), concrete([S, 0, 0, S]), "FFF?TFFF?TT"),
    (("qa", "qb"), SymState("concrete", (S, 0, 0, S), exact=False),
     "FF??TFF??TT"),
    (("qa",), concrete(KET_VECS["+"]), "FFT?TFFT?TF"),
    (("qa",), concrete(KET_VECS["0"]), "TFF?TTFF?TF"),
    (("qa",), basis_claim(True), "FT??TFT??TF"),
    (("qa",), opaque("g"), "???TT???TTF"),
    (("qa",), UNKNOWN_STATE, "????T????TF"),
]


class TestStateComparison:
    @pytest.mark.parametrize("qubits, state, row", STATE_TABLE)
    def test_atom_verdicts(self, qubits, state, row):
        model = Model(SymbolicHeap((Cell(qubits, state),)), {})
        text = {True: "T", False: "F", UNKNOWN: "?"}
        assert "".join(text[eval_in_model(a, model)]
                       for a in STATE_ATOMS) == row


class TestCountermodels:
    def test_env_values_render_like_run_results(self):
        env = {"b": True, "q": "qa", "p": (None, ("qa", UNKNOWN)),
               "u": None, "k": UNKNOWN}
        # unit and undecided values are reported only inside a pair
        assert _describe_model(Model(SymbolicHeap(), env)) == {
            "heap": {"": "empty"},
            "env": {"b": "true", "q": "qa", "p": "((), (qa, unknown))"}}


class TestDischargeAll:
    def test_all_proved_verified(self):
        obs = [Obligation(kind=POSTCONDITION, conclusion=Top(),
                          models=[Model(SymbolicHeap(), {})])]
        assert discharge_all(obs).status == "verified"

    def test_refuted_wins(self):
        obs = [
            Obligation(kind=POSTCONDITION, conclusion=Top(),
                       models=[Model(SymbolicHeap(), {})]),
            Obligation(kind=POSTCONDITION, conclusion=Bot(),
                       models=[Model(SymbolicHeap(), {})]),
        ]
        assert discharge_all(obs).status == "refuted"

    def test_unknown_is_conditional(self):
        from qhoare.heap import opaque
        model = Model(SymbolicHeap((Cell(("q",), opaque("x")),)), {})
        obs = [Obligation(kind=POSTCONDITION,
                          conclusion=IdAt(None, Q, Ket("0")),
                          models=[model])]
        assert discharge_all(obs).status == "conditional"


class TestBruteForceAgreement:
    def test_agreement_on_small_fragment(self):
        proved = refuted = 0
        for seed in range(230):
            ob = SeqGen(seed).obligation()
            verdict = entails(ob)
            counter = oracle_countermodel(ob.hypotheses, ob.conclusion)
            label = (pretty(ob.conclusion),
                     [pretty(h) for h in ob.hypotheses])
            if verdict.status == "proved":
                proved += 1
                assert counter is None, label
            elif verdict.status == "refuted":
                refuted += 1
                assert counter is not None, label
                # the reported countermodel itself falsifies the sequent
                heap, env = rebuild_model(verdict.countermodel)
                assert all(oracle_eval(h, heap, env)
                           for h in ob.hypotheses), label
                assert not oracle_eval(ob.conclusion, heap, env), label
            else:
                pytest.fail(f"unknown verdict inside the fragment: {label}")
        # exact agreement in the other direction
        for seed in range(230):
            ob = SeqGen(seed).obligation()
            counter = oracle_countermodel(ob.hypotheses, ob.conclusion)
            verdict = entails(ob)
            assert (verdict.status == "proved") == (counter is None)
        assert proved > 10 and refuted > 10

    def test_monotonicity(self):
        # adding a hypothesis never turns proved into refuted
        for seed in range(120):
            gen = SeqGen(seed + 5000)
            ob = gen.obligation()
            before = entails(ob).status
            extra = gen.assertion(2)
            ob2 = Obligation(kind=ob.kind, conclusion=ob.conclusion,
                             hypotheses=ob.hypotheses + [extra],
                             var_ctx=ob.var_ctx)
            after = entails(ob2).status
            if before == "proved":
                assert after != "refuted"
