"""AST pretty-printing, free variables, the traversals over every node
class, derived assertion forms, and the well-formedness of signatures."""

import dataclasses
import itertools

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
    Top, UnitT, UnitVal, Upd, UT, Var, WildcardState, children, free_vars,
    map_children, pretty, subst,
)
from qhoare.heap import Cell, SymbolicHeap, concrete, opaque
from qhoare.prover import Model, eval_in_model
from qhoare.typecheck import alpha_normalize, types_equal
from genlib import KETS


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

    def test_clean_corpus(self, checked_corpus):
        for name, checked in checked_corpus.items():
            assert [(d.name, d.error) for d in checked.decls
                    if d.error is not None] == [], name
