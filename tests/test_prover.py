"""Entailment checking against an independent brute-force oracle for the
small-heap fragment: the prover evaluates every formula as the oracle does
in each of the oracle's models, and decides a sequent in the models of its
hypotheses as the oracle decides it."""

import functools
import itertools
import random

import pytest

from qhoare.core import (
    And, BoolLit, BoolT, Bot, Emb, Emp, GhostRef, HeapId, HEmpty, HVar, IdAt,
    InDom, Ket, Lookup, MemberOf, Not, Or, Implies, Pair, PointsTo, Top,
    KetVec, UNKNOWN, Upd, Var, WildcardState, pretty, KET_TEXT,
)
from qhoare.heap import (
    Cell, SymbolicHeap, SymState, UNKNOWN_STATE, basis_claim, concrete,
    opaque,
)
from qhoare.prover import (
    Model, Obligation, POSTCONDITION, Verdict, discharge_all,
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


def oracle_models(locs=LOCS):
    state_opts = [None] + KETS
    for combo in itertools.product(state_opts, repeat=len(locs)):
        heap = {loc: s for loc, s in zip(locs, combo) if s is not None}
        for bvals in itertools.product([False, True], repeat=len(BOOLS)):
            yield heap, dict(zip(BOOLS, bvals))


def oracle_countermodel(hyps, concl):
    for heap, env in oracle_models():
        if all(oracle_eval(h, heap, env) for h in hyps) and \
                not oracle_eval(concl, heap, env):
            return heap, env
    return None


@functools.cache
def universe(locs=tuple(LOCS)):
    """Each oracle model over ``locs`` with the prover's :class:`Model` of
    it: one one-qubit concrete cell per allocated location."""
    return tuple(
        (heap, env, Model(SymbolicHeap(tuple(
            Cell((loc,), concrete(KET_VECS[k])) for loc, k in heap.items())),
            dict(env)))
        for heap, env in oracle_models(locs))


def sequent(concl, hyps, locs=tuple(LOCS)):
    """The obligation ``hyps ==> concl`` whose models are those of
    :func:`universe` ``locs`` in which the prover finds every hypothesis
    true."""
    models = [m for _, _, m in universe(locs)
              if all(eval_in_model(h, m) is True for h in hyps)]
    return Obligation(kind=POSTCONDITION, conclusion=concl, hypotheses=hyps,
                      var_ctx=tuple((b, BoolT()) for b in BOOLS),
                      models=models)


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

    def sequent(self):
        """Hypotheses and a conclusion."""
        hyps = [self.assertion(self.rng.randrange(3))
                for _ in range(self.rng.randrange(3))]
        concl = self.assertion(self.rng.randrange(1, 4))
        return hyps, concl


def assert_agrees(hyps, concl):
    """Check the prover against the oracle on ``hyps ==> concl``: each
    formula has the oracle's truth value in every model, and the verdict in
    the models of the hypotheses is proved exactly when the oracle finds no
    countermodel, and refuted with a countermodel that falsifies the
    sequent otherwise.  Returns the verdict's status."""
    label = (pretty(concl), [pretty(h) for h in hyps])
    models = []  # the models of the hypotheses
    for heap, env, model in universe():
        values = [eval_in_model(f, model) for f in hyps + [concl]]
        assert values == [oracle_eval(f, heap, env) for f in hyps + [concl]], \
            (label, heap, env)
        if all(values[:-1]):
            models.append(model)
    verdict = entails(Obligation(kind=POSTCONDITION, conclusion=concl,
                                 hypotheses=hyps, models=models))
    counter = oracle_countermodel(hyps, concl)
    if verdict.status == "proved":
        assert counter is None, label
    elif verdict.status == "refuted":
        assert counter is not None, label
        # the reported countermodel itself falsifies the sequent
        heap, env = rebuild_model(verdict.countermodel)
        assert all(oracle_eval(h, heap, env) for h in hyps), label
        assert not oracle_eval(concl, heap, env), label
    else:
        pytest.fail(f"unknown verdict inside the fragment: {label}")
    return verdict.status


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
Q_LOCS = ("q", "a")  # the locations of the models of sequents about Q


def heap_is(chain):
    return HeapId(HVar("%h"), chain)


class TestNormalizeHeapExpr:
    """Update chains ``upd(h, loc, state)`` as the prover reads them."""

    def test_shadowing(self):
        # the later update of a location wins
        h = Upd(Upd(HEmpty(), Q, Ket("0")), Q, Ket("1"))
        ob = sequent(PointsTo(Q, Ket("1")), [heap_is(h)], Q_LOCS)
        assert ob.models
        assert entails(ob).status == "proved"
        ob.conclusion = Lookup(Q, Ket("0"))
        assert entails(ob).status == "refuted"

    def test_sorted_locations(self):
        # the order of updates to distinct locations does not matter
        a, b = Emb(Var("a")), Emb(Var("b"))
        h = Upd(Upd(HEmpty(), b, Ket("1")), a, Ket("0"))
        ob = sequent(heap_is(Upd(Upd(HEmpty(), a, Ket("0")), b, Ket("1"))),
                     [heap_is(h)])
        assert ob.models
        assert entails(ob).status == "proved"

    def test_seleq_resolution_valid_over_small_heaps(self):
        # brute-force over heaps with <= 2 cells: whenever the current heap
        # equals upd(empty, q, |0>), looking up q yields |0>
        chain = Upd(HEmpty(), Q, Ket("0"))
        for heap, env in oracle_models(Q_LOCS):
            if oracle_eval(HeapId(HVar("%h"), chain), heap, env):
                assert oracle_eval(Lookup(Q, Ket("0")), heap, env)
        ob = sequent(Lookup(Q, Ket("0")), [HeapId(HVar("%h"), chain)],
                     Q_LOCS)
        assert ob.models
        assert entails(ob).status == "proved"

    def test_long_chains_agree_with_oracle(self):
        # heap equalities between chains of up to two updates, shadowed
        # and reordered ones included, decided as the oracle decides them
        gen = SeqGen(3)
        proved = refuted = 0
        for _ in range(200):
            status = assert_agrees(
                [], HeapId(gen.heap_expr(2), gen.heap_expr(2)))
            proved += status == "proved"
            refuted += status == "refuted"
        assert proved > 10 and refuted > 10


class TestEntailsExamples:
    def test_points_to_implies_allocated(self):
        ob = sequent(Lookup(Q, WildcardState()), [PointsTo(Q, Ket("0"))],
                     Q_LOCS)
        assert ob.models
        assert entails(ob).status == "proved"

    def test_emp_refutes_allocation(self):
        v = entails(sequent(Lookup(Q, WildcardState()), [Emp()], Q_LOCS))
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


def pair(first, second):
    return Pair(Emb(Var(first)), Emb(Var(second)))


def vec(*amps):
    return KetVec(tuple(complex(z) for z in amps))


class TestQubitOrder:
    """A cell over ``(qa, qb)`` read at the location ``(qb, qa)`` holds its
    state with the two qubits swapped."""

    # qa = |0>, qb = |1>, and qa = |0>, qb = |+>
    KET01 = Model(SymbolicHeap((Cell(("qa", "qb"),
                                     concrete([0, 1, 0, 0])),)), {})
    KET0P = Model(SymbolicHeap((Cell(("qa", "qb"),
                                     concrete([S, S, 0, 0])),)), {})

    @pytest.mark.parametrize("atom", [PointsTo, Lookup])
    def test_cell_read_in_written_order(self, atom):
        ab, ba = pair("qa", "qb"), pair("qb", "qa")
        assert eval_in_model(atom(ab, vec(0, 1, 0, 0)), self.KET01) is True
        assert eval_in_model(atom(ba, vec(0, 0, 1, 0)), self.KET01) is True
        assert eval_in_model(atom(ba, vec(0, 1, 0, 0)), self.KET01) is False
        assert eval_in_model(atom(ba, vec(S, 0, S, 0)), self.KET0P) is True
        assert eval_in_model(atom(ba, vec(S, S, 0, 0)), self.KET0P) is False

    def test_heap_equality_keys_cells_by_their_qubits(self):
        ba = pair("qb", "qa")
        true = heap_is(Upd(HEmpty(), ba, vec(0, 0, 1, 0)))
        false = heap_is(Upd(HEmpty(), ba, vec(0, 1, 0, 0)))
        assert eval_in_model(true, self.KET01) is True
        assert eval_in_model(false, self.KET01) is False
        swapped = HeapId(Upd(HEmpty(), pair("qa", "qb"), vec(S, S, 0, 0)),
                         Upd(HEmpty(), ba, vec(S, 0, S, 0)))
        assert eval_in_model(swapped, Model(SymbolicHeap(), {})) is True

    def test_domain_of_a_pair_location(self):
        h = Upd(HEmpty(), pair("qa", "qb"), vec(0, 1, 0, 0))
        for loc in (pair("qa", "qb"), pair("qb", "qa")):
            assert eval_in_model(InDom(h, loc),
                                 Model(SymbolicHeap(), {})) is True

    def test_domain_holds_each_qubit_of_a_pair_cell(self):
        # a name is in the domain when some cell holds it
        h = Upd(HEmpty(), pair("qa", "qb"), vec(0, 1, 0, 0))
        empty = Model(SymbolicHeap(), {})
        for name, held in (("qa", True), ("qb", True), ("qc", False)):
            assert eval_in_model(InDom(h, Emb(Var(name))), empty) is held
        one = Upd(HEmpty(), Emb(Var("qa")), Ket("0"))
        assert eval_in_model(InDom(one, Emb(Var("qb"))), empty) is False


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
        statuses = [assert_agrees(*SeqGen(seed).sequent())
                    for seed in range(230)]
        assert statuses.count("proved") > 10
        assert statuses.count("refuted") > 10

    def test_monotonicity(self):
        # a proved verdict is never refuted in the models that an added
        # hypothesis keeps
        for seed in range(120):
            gen = SeqGen(seed + 5000)
            hyps, concl = gen.sequent()
            ob = sequent(concl, hyps)
            extra = gen.assertion(2)
            kept = [m for m in ob.models if eval_in_model(extra, m) is True]
            after = Obligation(kind=ob.kind, conclusion=ob.conclusion,
                               hypotheses=ob.hypotheses + [extra],
                               var_ctx=ob.var_ctx, models=kept)
            if entails(ob).status == "proved":
                assert entails(after).status != "refuted"
