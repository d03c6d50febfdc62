"""AST pretty-printing, free variables, the traversals over every node
class, derived assertion forms, and the well-formedness of signatures."""

import dataclasses
import functools
import itertools
import operator
import random

import numpy as np
import pytest

from qhoare import core
from qhoare.cli import main
from qhoare.core import (
    CUR_HEAP, And, App, ApplyU, ARef, Ascribe, BindCmd, BindRun, BoolLit,
    BoolT, Bot, CellGroup, Compose, Decl, Do, Emb, Emp, Entangled,
    ExistsHeap, ExistsVar, ForallHeap, ForallVar, GhostRef, HeapId, HEmpty,
    HoareT, HVar, IdAt, IfCmd, IfTerm, Implies, InDom, Ket, KetVec, Lam,
    LetEq, Lookup, MatrixLit, MatrixT, MeasQbit, MemberOf, MkQbit, Not, Or,
    Pair, PiT, PointsTo, Program, PureT, QbitT, Replace, Ret, Seq, TensorT,
    Top, UNKNOWN, UnitT, UnitVal, Upd, UT, Var, WildcardState, children,
    free_vars, kleene_eval, map_children, pretty, strip_coercions, strip_emb,
    subst,
)
from qhoare.heap import Cell, SymbolicHeap, concrete, opaque
from qhoare.parser import parse_program
from qhoare.prover import Model, eval_in_model
from qhoare.typecheck import alpha_normalize, types_equal
from genlib import KETS, Gen


class TestPretty:
    def test_hoare_type(self):
        ty = HoareT((), (), Emp(), ("r",), BoolT(),
                    And(Emp(), IdAt(None, Emb(Var("r")), BoolLit(False))))
        assert pretty(ty) == "{emp} r : Bool {emp /\\ Id(r, false)}"

    def test_unit_literal(self):
        assert pretty(UnitVal()) == "()"

    def test_points_to_ket(self):
        assert pretty(PointsTo(Emb(Var("qa")), Ket("+"))) == "qa |-> |+\\>"

    def test_pair_location(self):
        loc = Pair(Emb(Var("qa")), Emb(Var("qb")))
        assert pretty(PointsTo(loc, Ket("phi+"))) == \
            "(qa, qb) |-> |\\Phi+\\>"

    def test_kets(self):
        assert pretty(Ket("0")) == "|0\\>"
        assert pretty(Ket("1")) == "|1\\>"
        assert pretty(Ket("-")) == "|-\\>"

    def test_lambda_and_pi(self):
        assert pretty(Lam("x", Emb(Var("x")))) == "\\x. x"
        assert pretty(PiT("a", QbitT(), BoolT())) == "\\Pi a : Qbit. Bool"

    def test_membership(self):
        a = MemberOf(Emb(Var("a")), (Ket("+"), Ket("-")))
        assert pretty(a) == "a \\in {|+\\>, |-\\>}"


def recursive_pretty(a, prec: int = 0) -> str:
    """How `And` and `Or` were written before `_pp_assn` read the left
    spine of a chain in a loop: one recursive call per connective."""
    if isinstance(a, (And, Or)):
        op, level = (" \\/ ", 3) if isinstance(a, Or) else (" /\\ ", 4)
        txt = (recursive_pretty(a.left, level) + op
               + recursive_pretty(a.right, level + 1))
        return f"({txt})" if prec > level else txt
    return core._pp_assn(a, prec)


class TestLongChains:
    # the checker's hypotheses are And chains, one conjunct per Bool
    # binding of a branch, joined by an Or chain, one disjunct per branch
    ATOMS = [Emp(), Top(), IdAt(None, Emb(Var("b")), BoolLit(True)),
             PointsTo(Emb(Var("q")), Ket("+")), Not(Emp()),
             Implies(Emp(), Top()), Lookup(Emb(Var("q")), WildcardState())]

    def tree(self, rng, depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(self.ATOMS)
        return rng.choice((And, Or))(self.tree(rng, depth - 1),
                                     self.tree(rng, depth - 1))

    def test_short_chains_print_as_before(self):
        rng = random.Random(26)
        for _ in range(500):
            a = self.tree(rng, 6)
            assert pretty(a) == recursive_pretty(a)
        for op in (And, Or):
            a = functools.reduce(op, self.ATOMS)
            assert pretty(a) == recursive_pretty(a)
            assert pretty(Not(a)) == "~(" + recursive_pretty(a) + ")"

    @pytest.mark.parametrize("op, sep", [(And, " /\\ "), (Or, " \\/ ")])
    def test_5000_links_at_the_default_recursion_limit(self, op, sep):
        atoms = [IdAt(None, Emb(Var(f"b{i}")), BoolLit(i % 2 == 0))
                 for i in range(5000)]
        assert pretty(functools.reduce(op, atoms)) == \
            sep.join(pretty(a) for a in atoms)

    @staticmethod
    def links(a, op) -> list:
        # the operands of a left-nested chain, without a recursive `==`
        out = []
        while isinstance(a, op):
            out.append(a.right)
            a = a.left
        return [a] + out[::-1]

    @pytest.mark.parametrize("op", [And, Or])
    def test_subst_along_5000_links(self, op):
        # a caller substitutes its arguments into a callee's written
        # postcondition, however long its chain
        atoms = [IdAt(None, Emb(Var(f"b{i}")), Emb(Var("x")))
                 for i in range(5000)]
        out = subst(functools.reduce(op, atoms), {"x": BoolLit(True)})
        assert self.links(out, op) == [IdAt(None, a.left, BoolLit(True))
                                       for a in atoms]
        chain = functools.reduce(op, [Top(), Emp()] * 2500)
        assert subst(chain, {"x": BoolLit(True)}) is chain

    def test_same_node_agrees_with_eq(self):
        trees = [self.tree(random.Random(seed), 6) for seed in range(300)]
        for seed, (a, b) in enumerate(zip(trees, trees[1:] + trees[:1])):
            assert core.same_node(a, self.tree(random.Random(seed), 6))
            assert core.same_node(a, b) == (a == b)
        for seed in range(100):
            a, b = Gen(seed).assertion(3), Gen(seed + 1).assertion(3)
            assert core.same_node(a, Gen(seed).assertion(3))
            assert core.same_node(a, b) == (a == b)
        # spans take no part, as in `==`
        one = parse_program("f : {emp} r : Bool {T} = do return true")
        two = parse_program("f : {emp}  r : Bool {T}\n  = do return true")
        assert one.program == two.program
        assert core.same_node(one.program, two.program)

    @pytest.mark.parametrize("op", [And, Or])
    def test_same_node_along_5000_links(self, op):
        atoms = [IdAt(None, Emb(Var(f"b{i}")), BoolLit(True))
                 for i in range(5000)]
        chain = functools.reduce(op, atoms)
        copy = functools.reduce(op, [dataclasses.replace(a) for a in atoms])
        assert core.same_node(chain, copy)
        assert not core.same_node(chain,
                                  functools.reduce(op, atoms[:-1] + [Top()]))
        assert not core.same_node(chain,
                                  functools.reduce(op, [Top()] + atoms[1:]))

    @staticmethod
    def fold(first, links):
        out = first
        for link in links:
            out = type(link)(out, link.right)
        return out

    def test_chain_links_fold_back(self):
        assertions = [self.tree(random.Random(seed), 6) for seed in range(300)]
        assertions += [Gen(seed).assertion(3) for seed in range(300)]
        for a in assertions:
            first, links = core.chain_links(a)
            assert core.same_node(self.fold(first, links), a)
            if isinstance(a, (And, Or)):
                assert type(first) is not type(a)
                assert {type(link) for link in links} == {type(a)}
                assert links[-1] is a

    def test_chain_links_stop_at_a_change_of_connective(self):
        x, y, z, w = self.ATOMS[:4]
        inner = Or(x, y)
        mid = And(inner, z)
        a = And(mid, w)
        first, links = core.chain_links(a)
        assert first is inner
        assert len(links) == 2 and links[0] is mid and links[1] is a
        assert core.chain_links(Or(a, x)) == (a, [Or(a, x)])

    def test_chain_links_of_a_non_chain(self):
        for a in [*self.ATOMS, Not(And(Emp(), Top())), Var("x"), BoolT()]:
            first, links = core.chain_links(a)
            assert first is a and links == []

    @pytest.mark.parametrize("op", [And, Or])
    def test_chain_links_along_5000_links(self, op):
        atoms = [IdAt(None, Emb(Var(f"b{i}")), BoolLit(True))
                 for i in range(5000)]
        first, links = core.chain_links(functools.reduce(op, atoms))
        assert first is atoms[0]
        assert all(map(operator.is_, (link.right for link in links),
                       atoms[1:]))
        assert len(links) == 4999

    def test_subst_keeps_the_links_it_does_not_change(self):
        keep = Implies(Emp(), Top())
        chain = And(Or(keep, Emp()), IdAt(None, Emb(Var("x")), Emb(Var("y"))))
        out = subst(chain, {"y": Var("z")})
        assert out == And(Or(keep, Emp()),
                          IdAt(None, Emb(Var("x")), Emb(Var("z"))))
        assert out.left is chain.left

    def test_hypothesis_shape(self):
        bindings = [IdAt(None, Emb(Var(f"b{i}")), BoolLit(True))
                    for i in range(3000)]
        branch = functools.reduce(And, [Emp()] + bindings)
        text = pretty(functools.reduce(Or, [branch] * 4))
        assert text == " \\/ ".join([pretty(branch)] * 4)
        assert text.count(" /\\ ") == 4 * 3000


def reference_pretty(node) -> str:
    """How vectors and matrices were written before ``core._fmt_amps``:
    ``_fmt_complex`` on every entry."""
    if isinstance(node, KetVec):
        return ("|vec(" + ", ".join(core._fmt_complex(z) for z in node.amps)
                + ")\\>")
    rows = ["(" + ", ".join(core._fmt_complex(z) for z in row) + ")"
            for row in node.rows]
    return "(" + ", ".join(rows) + ")"


AMPS = [0j, -0.0, complex(0, -0.0), complex(-0.0, -0.0), 1e-300, 1, -1j,
        0.5 + 0.5j]


class TestAmplitudeText:
    @pytest.mark.parametrize("pair", itertools.product(AMPS, repeat=2))
    def test_vectors(self, pair):
        vec = KetVec(pair)
        assert pretty(vec) == reference_pretty(vec)

    def test_rounded_vectors(self):
        # rounded as heap.state_expr rounds: tiny parts become signed zeros
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v[rng.random(8) < 0.5] *= 1e-13
            rounded = np.round(v.real, 12) + 1j * np.round(v.imag, 12)
            vec = KetVec(tuple(rounded.tolist()))
            assert pretty(vec) == reference_pretty(vec)

    @pytest.mark.parametrize("row", itertools.product(AMPS, repeat=2))
    def test_matrices(self, row):
        for other in AMPS:
            m = MatrixLit((row, (other, row[0])))
            assert pretty(m) == reference_pretty(m)


class TestFreeVars:
    def test_lambda_closed(self):
        assert free_vars(Lam("x", Emb(Var("x")))) == set()

    def test_application(self):
        term = Emb(App(Var("f"), Emb(Var("x"))))
        assert free_vars(term) == {"f", "x"}

    def test_hoare_post_binder_removed(self):
        post = ExistsVar("x", QbitT(),
                         And(IdAt(None, Emb(Var("x")), Emb(Var("y"))),
                             Top()))
        ty = HoareT((), (), Top(), ("r",), BoolT(), post)
        assert free_vars(ty) == {"y"}

    def test_program_decl_names_not_free(self, corpus):
        for name, prog in corpus.items():
            leftovers = free_vars(prog) - {
                "H", "X", "Y", "Z", "ifQ", "rot", "cond", "mempty",
                "mappend"}
            assert leftovers == set(), (name, leftovers)


X, Y = Emb(Var("x")), Emb(Var("y"))
X0 = PointsTo(X, Ket("0"))

# One node of every AST class of ``core`` with its free names.
TRAVERSAL_EXAMPLES = [
    (UnitT(), set()), (BoolT(), set()), (QbitT(), set()), (UT(), set()),
    (PureT(), set()), (MatrixT(), set()),
    (TensorT(BoolT(), QbitT()), set()),
    (PiT("x", QbitT(), HoareT((), (), X0, ("r",), BoolT(), Emp())), set()),
    (HoareT((("g", PureT()),), ("h",), PointsTo(X, GhostRef("g")), ("r",),
            BoolT(), And(HeapId(HVar("h"), HVar("k")),
                         IdAt(None, Emb(Var("r")), Y))),
     {"x", "k", "y"}),
    (Var("x"), {"x"}), (App(Var("f"), X), {"f", "x"}),
    (Ascribe(X, QbitT()), {"x"}), (Emb(Var("x")), {"x"}),
    (UnitVal(), set()), (Lam("y", Emb(App(Var("f"), Y))), {"f"}),
    (Do(Seq((), Ret(X))), {"x"}), (BoolLit(True), set()),
    (Pair(X, Y), {"x", "y"}), (IfTerm(X, Y, BoolLit(False)), {"x", "y"}),
    (MatrixLit(((1, 0), (0, 1))), set()),
    (Ket("+"), set()), (KetVec((1, 0)), set()), (GhostRef("x"), {"x"}),
    (WildcardState(), set()),
    (MkQbit(X), {"x"}), (MeasQbit(X), {"x"}),
    (ApplyU(Emb(App(Var("H"), X))), {"H", "x"}), (IfCmd(X, Y, Y), {"x", "y"}),
    (Ret(X), {"x"}), (BindRun(("a", "b"), Var("x")), {"x"}),
    (BindCmd("q", MkQbit(X)), {"x"}), (LetEq("b", BoolT(), X), {"x"}),
    (Seq((BindCmd("q", MkQbit(X)), LetEq("b", BoolT(), Emb(Var("q")))),
         Ret(Pair(Emb(Var("q")), Emb(Var("b"))))), {"x"}),
    (HVar("h"), {"h"}), (HEmpty(), set()),
    (Upd(HVar("h"), X, Ket("0")), {"h", "x"}),
    (Top(), set()), (Bot(), set()), (And(X0, Top()), {"x"}),
    (Or(X0, Emp()), {"x"}), (Implies(X0, Bot()), {"x"}), (Not(X0), {"x"}),
    (ExistsVar("y", QbitT(), And(X0, IdAt(None, X, Y))), {"x"}),
    (ForallVar("y", QbitT(), And(X0, IdAt(None, X, Y))), {"x"}),
    (ExistsHeap("h", HeapId(HVar("h"), HVar("k"))), {"k"}),
    (ForallHeap("h", HeapId(HVar("h"), HVar("k"))), {"k"}),
    (IdAt(None, X, Y), {"x", "y"}), (HeapId(HVar("h"), HEmpty()), {"h"}),
    (InDom(HVar("h"), X), {"h", "x"}), (Emp(), set()), (X0, {"x"}),
    (Lookup(X, GhostRef("g")), {"x", "g"}),
    (MemberOf(X, (Ket("+"), GhostRef("g"))), {"x", "g"}),
    (Entangled(X), {"x"}), (Compose(ARef("P0"), X0), {"P0", "x"}),
    (Replace(X0, Emp()), {"x"}),
    (CellGroup((X0, PointsTo(Y, Ket("1")))), {"x", "y"}),
    (ARef("P0"), {"P0"}), (Decl("f", BoolT(), X), {"x"}),
    (Program((Decl("f", BoolT(), X), Decl("g", BoolT(), Emb(Var("f"))))),
     {"x"}),
]


def _by_class(node, *rest):
    """A test case named after the class of its first value, ``node``."""
    return pytest.param(node, *rest, id=type(node).__name__)


# Binder forms that occur in types, each with a bound name renamed;
# ``alpha_normalize`` renames them.
TYPE_BINDER_VARIANTS = [
    _by_class(
        PiT("x", QbitT(), HoareT((), (), X0, ("r",), BoolT(), Emp())),
        PiT("z", QbitT(), HoareT((), (), PointsTo(Emb(Var("z")), Ket("0")),
                                 ("r",), BoolT(), Emp()))),
    _by_class(
        HoareT((("g", PureT()),), ("h",), PointsTo(X, GhostRef("g")),
               ("r",), BoolT(), And(HeapId(HVar("h"), HVar("k")),
                                    IdAt(None, Emb(Var("r")), Y))),
        HoareT((("u", PureT()),), ("j",), PointsTo(X, GhostRef("u")),
               ("s",), BoolT(), And(HeapId(HVar("j"), HVar("k")),
                                    IdAt(None, Emb(Var("s")), Y)))),
    _by_class(Lam("y", Emb(App(Var("f"), Y))),
              Lam("z", Emb(App(Var("f"), Emb(Var("z")))))),
    *[_by_class(q("y", QbitT(), And(X0, IdAt(None, X, Y))),
                q("z", QbitT(), And(X0, IdAt(None, X, Emb(Var("z"))))))
      for q in (ExistsVar, ForallVar)],
    *[_by_class(q("h", HeapId(HVar("h"), HVar("k"))),
                q("j", HeapId(HVar("j"), HVar("k"))))
      for q in (ExistsHeap, ForallHeap)],
]

# Binder forms of programs, which never occur in a type, each with a bound
# name renamed.
PROGRAM_BINDER_VARIANTS = [
    _by_class(
        Seq((BindCmd("q", MkQbit(X)), LetEq("b", BoolT(), Emb(Var("q")))),
            Ret(Pair(Emb(Var("q")), Emb(Var("b"))))),
        Seq((BindCmd("p", MkQbit(X)), LetEq("c", BoolT(), Emb(Var("p")))),
            Ret(Pair(Emb(Var("p")), Emb(Var("c")))))),
    _by_class(
        Program((Decl("f", BoolT(), X), Decl("g", BoolT(), Emb(Var("f"))))),
        Program((Decl("e", BoolT(), X), Decl("g", BoolT(), Emb(Var("e")))))),
]


class TestTraversal:
    """``free_vars``, ``subst`` and ``alpha_normalize`` over one node of
    every AST class."""

    def test_examples_cover_every_node_class(self):
        classes = {c for c in vars(core).values()
                   if isinstance(c, type) and dataclasses.is_dataclass(c)
                   and c is not core.Span}
        assert {type(n) for n, _ in TRAVERSAL_EXAMPLES} == classes

    @pytest.mark.parametrize(
        "node, fvs", [_by_class(n, fvs) for n, fvs in TRAVERSAL_EXAMPLES])
    def test_every_node_class(self, node, fvs):
        assert free_vars(node) == fvs
        assert subst(node, {}) is node
        assert subst(node, {"unused": Var("w")}) == node
        if "x" in fvs:
            assert free_vars(subst(node, {"x": Var("w")})) == \
                fvs - {"x"} | {"w"}
        assert types_equal(node, node)
        assert free_vars(alpha_normalize(node)) == fvs

    @pytest.mark.parametrize("node, renamed", TYPE_BINDER_VARIANTS)
    def test_renaming_a_bound_name_in_a_type(self, node, renamed):
        assert node != renamed
        assert free_vars(renamed) == free_vars(node)
        assert types_equal(node, renamed)

    @pytest.mark.parametrize("node, renamed", PROGRAM_BINDER_VARIANTS)
    def test_renaming_a_bound_name_in_a_program(self, node, renamed):
        assert node != renamed
        assert free_vars(renamed) == free_vars(node)

    @pytest.mark.parametrize("node, name, value", [
        _by_class(PiT("x", QbitT(), HoareT((), (), And(X0, IdAt(None, X, Y)),
                                           ("r",), BoolT(), Emp())),
                  "y", Var("x")),
        _by_class(Lam("y", Emb(App(Var("f"), Y))), "f", Var("y")),
        *[_by_class(q("y", QbitT(), IdAt(None, X, Y)), "x", Var("y"))
          for q in (ExistsVar, ForallVar)],
        *[_by_class(q("h", HeapId(HVar("h"), HVar("k"))), "k", HVar("h"))
          for q in (ExistsHeap, ForallHeap)],
        pytest.param(HoareT((("y", BoolT()),), (), IdAt(None, X, Y), ("r",),
                            BoolT(), Emp()), "x", Var("y"), id="HoareT-ghost"),
        pytest.param(HoareT((), ("h",), HeapId(HVar("h"), HVar("k")), ("r",),
                            BoolT(), Emp()), "k", HVar("h"), id="HoareT-heap"),
        pytest.param(HoareT((), (), Emp(), ("r",), BoolT(),
                            IdAt(None, Emb(Var("r")), X)), "x", Var("r"),
                     id="HoareT-result"),
    ])
    def test_substitution_avoids_capture(self, node, name, value):
        # ``value`` names the binder of ``node``: it must stay free
        assert free_vars(subst(node, {name: value})) == \
            free_vars(node) - {name} | free_vars(value)

    def test_result_binder_scopes_over_postcondition_only(self):
        r_true = IdAt(None, Emb(Var("r")), BoolLit(True))
        ty = HoareT((), (), r_true, ("r",), BoolT(), r_true)
        assert subst(ty, {"r": BoolLit(False)}) == HoareT(
            (), (), IdAt(None, BoolLit(False), BoolLit(True)), ("r",),
            BoolT(), r_true)

    def test_children_in_field_order(self):
        ty = HoareT((("g", PureT()),), ("h",), X0, ("r",), BoolT(), Emp())
        assert children(ty) == [PureT(), X0, BoolT(), Emp()]
        assert map_children(ty, lambda c: c) is ty
        assert map_children(ty, lambda c: Top() if c == Emp() else c) == \
            HoareT((("g", PureT()),), ("h",), X0, ("r",), BoolT(), Top())

    def test_unknown_node_rejected(self):
        for walk in (free_vars, lambda n: subst(n, {"x": Var("w")})):
            with pytest.raises(TypeError):
                walk(42)


# Kleene's strong three-valued tables over the order false < unknown < true
TRUTHS = (False, UNKNOWN, True)
RANK = {False: 0, UNKNOWN: 1, True: 2}


def kleene_min(a, b):
    return TRUTHS[min(RANK[a], RANK[b])]


def kleene_max(a, b):
    return TRUTHS[max(RANK[a], RANK[b])]


def kleene_neg(a):
    return TRUTHS[2 - RANK[a]]


class TestKleeneEval:
    """``core.kleene_eval`` against Kleene's strong truth tables, with atoms
    ``ARef("T")``, ``ARef("F")`` and ``ARef("U")`` read by a stub."""

    ATOMS = {True: ARef("T"), False: ARef("F"), UNKNOWN: ARef("U")}
    TRUTH_OF = {"T": True, "F": False, "U": UNKNOWN}

    def atom(self, a):
        return self.TRUTH_OF[a.name]

    def test_constants_and_atoms(self):
        assert kleene_eval(Top(), self.atom) is True
        assert kleene_eval(Bot(), self.atom) is False
        for truth, a in self.ATOMS.items():
            assert kleene_eval(a, self.atom) is truth

    def test_binary_connectives(self):
        for (x, a), (y, b) in itertools.product(self.ATOMS.items(),
                                                 repeat=2):
            assert kleene_eval(And(a, b), self.atom) is kleene_min(x, y)
            assert kleene_eval(Or(a, b), self.atom) is kleene_max(x, y)
            assert kleene_eval(Implies(a, b), self.atom) \
                is kleene_max(kleene_neg(x), y)

    def test_negation(self):
        for x, a in self.ATOMS.items():
            assert kleene_eval(Not(a), self.atom) is kleene_neg(x)

    def test_nesting(self):
        def oracle(a):
            match a:
                case And(l, r):
                    return kleene_min(oracle(l), oracle(r))
                case Or(l, r):
                    return kleene_max(oracle(l), oracle(r))
                case Implies(l, r):
                    return kleene_max(kleene_neg(oracle(l)), oracle(r))
                case Not(b):
                    return kleene_neg(oracle(b))
                case Top():
                    return True
                case Bot():
                    return False
            return self.atom(a)

        rng = random.Random(7)
        leaves = list(self.ATOMS.values()) + [Top(), Bot()]

        def formula(depth):
            if depth == 0:
                return rng.choice(leaves)
            k = rng.randrange(5)
            if k == 0:
                return Not(formula(depth - 1))
            if k == 4:
                return rng.choice(leaves)
            return (And, Or, Implies)[k - 1](formula(depth - 1),
                                             formula(depth - 1))

        for _ in range(300):
            a = formula(4)
            assert kleene_eval(a, self.atom) is oracle(a)

    def test_membership_is_an_or_of_ids(self):
        t = Emb(Var("x"))
        truth = {"0": False, "1": UNKNOWN, "+": True}
        seen = []

        def atom(a):
            assert isinstance(a, IdAt) and a.ty is None and a.left == t
            seen.append(a.right)
            return truth[a.right.kind]

        for cands in itertools.chain.from_iterable(
                itertools.permutations(truth, n) for n in (1, 2, 3)):
            seen.clear()
            kets = tuple(Ket(k) for k in cands)
            expected = False
            for k in cands:
                expected = kleene_max(expected, truth[k])
            assert kleene_eval(MemberOf(t, kets), atom) is expected
            assert tuple(seen) == kets

    def test_other_forms_are_atoms(self):
        seen = []

        def atom(a):
            seen.append(a)
            return UNKNOWN

        forms = [Emp(), IdAt(None, Emb(Var("x")), BoolLit(True)),
                 PointsTo(Emb(Var("q")), Ket("0")), Entangled(Emb(Var("q"))),
                 ExistsVar("x", BoolT(), Top()), ForallHeap("h", Top())]
        for a in forms:
            assert kleene_eval(a, atom) is UNKNOWN
        assert seen == forms


class TestPeelers:
    def test_strip_emb_keeps_an_ascription(self):
        asc = Ascribe(Emb(Var("x")), BoolT())
        assert strip_emb(Emb(asc)) == asc
        assert strip_emb(Emb(Var("x"))) == Var("x")
        assert strip_emb(BoolLit(True)) == BoolLit(True)

    def test_strip_coercions_peels_both_wrappers(self):
        assert strip_coercions(
            Emb(Ascribe(Emb(Var("x")), BoolT()))) == Var("x")
        app = App(Var("H"), Emb(Var("q")))
        assert strip_coercions(Ascribe(Emb(app), UT())) == app
        assert strip_coercions(Pair(Emb(Var("a")), Emb(Var("b")))) \
            == Pair(Emb(Var("a")), Emb(Var("b")))


class TestDerivedForms:
    """Each derived assertion form means what its expansion into heap
    equality or identity means: the prover gives both the same truth value
    in every model of up to two cells."""

    Q = Emb(Var("q"))
    STATES = [Ket(k) for k in KETS] + [GhostRef("g"), WildcardState()]

    def models(self):
        cells = [concrete(Ket(k).amplitudes()) for k in KETS] + [opaque("g")]
        heaps = [SymbolicHeap()]
        heaps += [SymbolicHeap((Cell((q,), c),)) for q in "qp" for c in cells]
        heaps += [SymbolicHeap((Cell(("q",), c), Cell(("p",), d)))
                  for c in cells for d in cells]
        heaps += [SymbolicHeap((Cell(("q", "p"),
                                     concrete(Ket("phi+").amplitudes())),))]
        # `q` is a location name, bound to its own name, or bound to `p`
        for env in ({}, {"q": "q"}, {"q": "p"}):
            for h in heaps:
                yield Model(h, dict(env))

    def assert_agree(self, pairs):
        disagreements = [
            (pretty(form), pretty(expansion), model)
            for model in self.models() for form, expansion in pairs
            if eval_in_model(form, model) is not eval_in_model(expansion,
                                                               model)]
        assert disagreements == []

    def test_emp_expansion(self):
        self.assert_agree([(Emp(), HeapId(HVar(CUR_HEAP), HEmpty()))])

    def test_points_to_expansion(self):
        self.assert_agree([
            (PointsTo(self.Q, s),
             HeapId(HVar(CUR_HEAP), Upd(HEmpty(), self.Q, s)))
            for s in self.STATES])

    def test_member_of_expansion(self):
        self.assert_agree([
            (MemberOf(self.Q, (s1, s2)),
             Or(IdAt(None, self.Q, s1), IdAt(None, self.Q, s2)))
            for s1 in self.STATES for s2 in self.STATES])


class TestWellFormed:
    """The checker rejects a signature that binds one name twice as a type
    error (exit code 2); the parser rejects duplicate declarations."""

    def check(self, tmp_path, capsys, source):
        """Exit code and stdout of ``check``, with the file path cut."""
        path = tmp_path / "t.qh"
        path.write_text(source)
        code = main(["check", str(path)])
        return code, capsys.readouterr().out.replace(f"{path}: ", "")

    def test_duplicate_decl(self, tmp_path, capsys):
        code, out = self.check(tmp_path, capsys,
                               "x : Bool = true\nx : Bool = false\n")
        assert code == 2
        assert "duplicate declaration 'x'" in out

    def test_duplicate_hoare_context(self, tmp_path, capsys):
        code, out = self.check(
            tmp_path, capsys,
            "f : x : Pure. x : Bool. {emp} r : Bool {T} = do return true\n")
        assert (code, out) == (
            2, "f: type-error (1:1: duplicate context name 'x')\n")

    def test_duplicate_heap_context(self, tmp_path, capsys):
        code, out = self.check(
            tmp_path, capsys,
            "f : h : heap. h : heap. {emp} r : Bool {T} = do return true\n")
        assert (code, out) == (
            2, "f: type-error (1:1: duplicate heap variable)\n")

    def test_duplicate_binder_pattern(self, tmp_path, capsys):
        code, out = self.check(
            tmp_path, capsys,
            "f : {emp} (a, a) : (Bool, Bool) {T} = do return (true, true)\n")
        assert (code, out) == (
            2, "f: type-error (1:1: duplicate name in binder pattern)\n")

    def test_pair_binder_on_non_pair_result(self, tmp_path, capsys):
        # a signature's binder pattern is read against its result type
        code, out = self.check(
            tmp_path, capsys, "h : {emp} (a, b) : Bool {T} = do return true\n")
        assert (code, out) == (
            2, "h: type-error (1:1: pair pattern on non-pair result Bool)\n")

    def test_clean_corpus(self, checked_corpus):
        for name, checked in checked_corpus.items():
            assert [(d.name, d.error) for d in checked.decls
                    if d.error is not None] == [], name
