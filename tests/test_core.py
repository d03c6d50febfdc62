"""AST pretty-printing, free variables, derived assertion forms, and the
well-formedness of signatures."""

from qhoare.cli import main
from qhoare.core import (
    CUR_HEAP, And, App, BoolLit, BoolT, Emb, Emp, ExistsVar, GhostRef,
    HeapId, HEmpty, HoareT, HVar, IdAt, Ket, Lam, MemberOf, Or, Pair, PiT,
    PointsTo, QbitT, Top, UnitVal, Upd, Var, WildcardState, free_vars,
    pretty,
)
from qhoare.heap import Cell, SymbolicHeap, concrete, opaque
from qhoare.prover import Model, eval_in_model
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
