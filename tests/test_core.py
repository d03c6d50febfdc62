"""AST pretty-printing, free variables, derived assertion forms, and the
well-formedness of signatures."""

from qhoare.cli import main
from qhoare.core import (
    And, App, BoolLit, BoolT, Emb, Emp, ExistsHeap, ExistsVar, GhostRef,
    HeapId, HEmpty, HoareT, HVar, IdAt, Ket, Lam, Lookup, MemberOf, Or,
    Pair, PiT, PointsTo, PureT, QbitT, Top, UnitVal, Upd, Var,
    WildcardState, expand_derived, free_vars, pretty, NameSupply,
)
from genlib import Gen


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
    def test_emp_expansion(self):
        assert expand_derived(Emp()) == HeapId(HVar("%h"), HEmpty())

    def test_points_to_expansion(self):
        a = PointsTo(Emb(Var("q")), Ket("0"))
        assert expand_derived(a) == HeapId(
            HVar("%h"), Upd(HEmpty(), Emb(Var("q")), Ket("0")))

    def test_member_of_expansion(self):
        a = MemberOf(Emb(Var("a")), (Ket("+"), Ket("-")))
        assert expand_derived(a) == Or(
            IdAt(None, Emb(Var("a")), Ket("+")),
            IdAt(None, Emb(Var("a")), Ket("-")))

    def test_lookup_expansion(self):
        q = Emb(Var("q"))
        assert expand_derived(Lookup(q, Ket("1")), supply=NameSupply()) == \
            ExistsHeap("%g0", HeapId(HVar("%h"),
                                     Upd(HVar("%g0"), q, Ket("1"))))
        # a wildcard state becomes an existential Pure ghost
        assert expand_derived(Lookup(q, WildcardState()),
                              supply=NameSupply()) == \
            ExistsVar("%s1", PureT(), ExistsHeap("%g0", HeapId(
                HVar("%h"), Upd(HVar("%g0"), q, GhostRef("%s1")))))

    def test_expand_idempotent(self):
        # an expansion has no derived form left: expanding it again
        # changes nothing, on generated assertions
        gen = Gen(7)
        for i in range(200):
            a = gen.assertion(3)
            once = expand_derived(a, supply=NameSupply())
            assert expand_derived(once, supply=NameSupply()) == once, \
                pretty(a)


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
            2, "f: type-error (duplicate context name 'x')\n")

    def test_duplicate_heap_context(self, tmp_path, capsys):
        code, out = self.check(
            tmp_path, capsys,
            "f : h : heap. h : heap. {emp} r : Bool {T} = do return true\n")
        assert (code, out) == (
            2, "f: type-error (duplicate heap variable)\n")

    def test_duplicate_binder_pattern(self, tmp_path, capsys):
        code, out = self.check(
            tmp_path, capsys,
            "f : {emp} (a, a) : (Bool, Bool) {T} = do return (true, true)\n")
        assert (code, out) == (
            2, "f: type-error (duplicate name in binder pattern)\n")

    def test_clean_corpus(self, checked_corpus):
        for name, checked in checked_corpus.items():
            assert [(d.name, d.error) for d in checked.decls
                    if d.error is not None] == [], name
