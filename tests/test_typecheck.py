"""Bidirectional checking, canonical forms, and computation judgments."""

import dataclasses
import gc
import itertools
import json
import random
import tracemalloc
import weakref

import pytest

from qhoare import core
from qhoare.core import (
    And, App, ApplyU, Ascribe, BindCmd, BoolLit, BoolT, Do, Emb, Emp, HoareT,
    IdAt, Ket, Lam, MatrixT, MkQbit, Or, Pair, PiT, PureT, QbitT, Ret, Seq,
    TensorT,
    Top, UnitT, UnitVal, UT, Var, free_vars, pretty, strip_emb, subst,
)
from qhoare.parser import ParseError, parse_program, parse_type
from qhoare.prover import discharge_all
from qhoare.typecheck import (
    BUILTIN_TYPES, CheckError, Checker, alpha_normalize, check,
    check_program, normalize, synth, types_equal,
)
from conftest import CORPUS_FILES, GOLDEN_DIR, NEGATIVE_FILES, decl_result
from genlib import (
    Gen, coin_block_source, gate_block_source, ghz_source,
    measure_block_source, straight_line_source,
)


class TestSynth:
    def test_variable(self):
        ty, canon = synth({"x": BoolT()}, Var("x"))
        assert ty == BoolT()
        assert canon == Emb(Var("x"))

    def test_beta_in_canonical_form(self):
        # (\x. x : \Pi x : Bool. Bool) true  ~>  true
        lam = Ascribe(Lam("x", Emb(Var("x"))),
                      PiT("x", BoolT(), BoolT()))
        ty, canon = synth({}, App(lam, BoolLit(True)))
        assert ty == BoolT()
        assert canon == BoolLit(True)

    def test_hoare_type_substitution(self, corpus):
        # `share qa` instantiates the declared dependent type at qa
        prog = corpus["bellpair.qh"]
        checker = Checker(prog)
        checker.decl_types["share"] = prog.decl("share").signature
        ty, _ = checker.synth({"qa": QbitT()},
                              App(Var("share"), Emb(Var("qa"))))
        assert isinstance(ty, HoareT)
        assert "qa" in free_vars(ty.pre)
        assert "a" not in free_vars(ty.pre)

    def test_unbound_variable(self):
        with pytest.raises(CheckError):
            synth({}, Var("nope"))

    def test_non_function_application(self):
        with pytest.raises(CheckError):
            synth({"x": BoolT()}, App(Var("x"), BoolLit(True)))

    def test_determinism(self):
        k = App(Var("f"), BoolLit(False))
        ctx = {"f": PiT("b", BoolT(), BoolT())}
        assert synth(ctx, k) == synth(ctx, k)


class TestCheck:
    def test_unit(self):
        assert check({}, UnitVal(), UnitT()) == UnitVal()

    def test_sort_mismatch(self):
        with pytest.raises(CheckError):
            check({}, BoolLit(True), QbitT())

    def test_do_against_non_hoare(self):
        term = Do(Seq((), Ret(BoolLit(True))))
        with pytest.raises(CheckError) as err:
            check({}, term, BoolT())
        assert "Hoare" in err.value.message

    def test_hqw_do_block_discharges(self, corpus):
        prog = corpus["hqw.qh"]
        checked = check_program(prog)
        dr = decl_result(checked, "hqw")
        assert dr.error is None
        assert isinstance(dr.canonical, Do)
        assert discharge_all(dr.obligations).status == "verified"

    def test_lambda_against_pi(self):
        canon = check({}, Lam("x", Emb(Var("x"))), PiT("y", BoolT(), BoolT()))
        assert canon == Lam("x", Emb(Var("x")))


class TestNormalize:
    def test_beta(self):
        lam = Ascribe(Lam("x", Emb(Var("x"))), PiT("x", BoolT(), BoolT()))
        got = normalize(Emb(App(lam, BoolLit(True))), BoolT())
        assert got == BoolLit(True)

    def test_eta_expansion_at_function_type(self):
        got = normalize(Emb(Var("f")), PiT("x", BoolT(), BoolT()))
        assert isinstance(got, Lam)
        body = got.body
        assert body == Emb(App(Var("f"), Emb(Var(got.binder))))

    def test_do_unchanged(self):
        ty = HoareT((), (), Emp(), ("r",), BoolT(), Top())
        term = Do(Seq((), Ret(BoolLit(False))))
        assert normalize(term, ty) == term

    def test_idempotence_on_generated_terms(self):
        # type-directed generation keeps every sample well typed
        rng = random.Random(13)
        ctx = {"f": PiT("x", BoolT(), BoolT()),
               "p": TensorT(BoolT(), BoolT()),
               "u": UT(), "vb": BoolT()}

        def gen(ty, depth):
            if depth > 0 and rng.random() < 0.5:
                match ty:
                    case PiT(_, dom, cod):
                        return Lam("w", gen(cod, depth - 1))
                    case TensorT(l, r):
                        return Pair(gen(l, depth - 1), gen(r, depth - 1))
                    case BoolT() if rng.random() < 0.5:
                        lam = Ascribe(Lam("x", gen(BoolT(), depth - 1)),
                                      PiT("x", BoolT(), BoolT()))
                        return Emb(App(lam, gen(BoolT(), depth - 1)))
                    case _:
                        pass
            match ty:
                case BoolT():
                    choices = [BoolLit(True), BoolLit(False), Emb(Var("vb")),
                               Emb(App(Var("f"), BoolLit(False)))]
                    return rng.choice(choices)
                case UnitT():
                    return UnitVal()
                case UT():
                    return Emb(Var("u"))
                case TensorT(l, r):
                    return Pair(gen(l, 0), gen(r, 0))
                case PiT(_, dom, cod):
                    return Lam("w", gen(cod, 0))
            return UnitVal()

        count = 0
        for _ in range(240):
            ty = rng.choice([
                BoolT(), TensorT(BoolT(), BoolT()),
                PiT("x", BoolT(), BoolT()),
                PiT("x", BoolT(), TensorT(BoolT(), BoolT())),
            ])
            m = gen(ty, 3)
            check(ctx, m, ty)
            once = normalize(m, ty)
            twice = normalize(once, ty)
            assert twice == once, pretty(m)
            count += 1
        assert count >= 200


class FoldChecker(Checker):
    """The application rule as a fold over the arguments: the head is
    eta-expanded, and each argument is applied by beta-reduction, the whole
    then normalized again.  The reference for the one-pass spine."""

    def synth(self, ctx, k):
        match k:
            case Var(name):
                ty = self.lookup(ctx, name)
                return ty, normalize(Emb(k), ty)
            case App(fn, arg):
                fty, fc = self.synth(ctx, fn)
                if not isinstance(fty, PiT):
                    raise CheckError(
                        f"cannot apply a value of type {pretty(fty)}",
                        self._span)
                ac = self.check(ctx, arg, fty.domain)
                rty = subst(fty.codomain, {fty.binder: strip_emb(ac)})
                return rty, normalize(App(strip_emb(fc), ac), rty)
        return super().synth(ctx, k)


def spine_head(k):
    while isinstance(k, (App, Emb)):
        k = k.fn if isinstance(k, App) else k.elim
    return k


class SpineRecorder(Checker):
    """The checker, which also synthesizes each variable-headed
    application with :class:`FoldChecker`, from the same state of the
    ``%rN`` supply, and records both outcomes and the next name each
    leaves."""

    def __init__(self, program):
        super().__init__(program)
        self.pairs = []

    def synth(self, ctx, k):
        if not isinstance(k, (Var, App)) or not isinstance(spine_head(k),
                                                           Var):
            return super().synth(ctx, k)
        start = next(core._fresh_names)
        core._fresh_names = itertools.count(start)
        got = self.outcome(super().synth, ctx, k)
        after = next(core._fresh_names)
        core._fresh_names = itertools.count(start)
        fold = FoldChecker(self.program)
        fold.decl_types, fold._span = dict(self.decl_types), self._span
        want = self.outcome(fold.synth, ctx, k)
        self.pairs.append((k, (got, after),
                           (want, next(core._fresh_names))))
        core._fresh_names = itertools.count(after)
        if isinstance(got, CheckError):
            raise got
        return got

    @staticmethod
    def outcome(synth, ctx, k):
        try:
            return synth(ctx, k)
        except CheckError as e:
            return e


def comparable(outcome):
    (result, next_name) = outcome
    if isinstance(result, CheckError):
        return ("error", result.message, result.span), next_name
    return result, next_name


# partial applications: `ifQ a` and `ifQ` passed where functions are
# expected, and `cond` with a λ branch
PARTIAL_APPLICATIONS = """\
use : \\Pi a : Qbit. \\Pi b : Qbit. \\Pi f : (\\Pi u : U. U).
      {emp} r : Bool {T}
    = \\a. \\b. \\f. do return true

caller : {emp} r : Bool {T}
       = do a <= mkQbit false;
            b <= mkQbit false;
            c <= mkQbit false;
            applyU (cond a (\\v. if v then X b else mempty));
            applyU (cond b (\\v. ifQ a (X c)));
            x <- use a b (ifQ a);
            y <- use a b (mappend (H a));
            return x

pass : \\Pi f : (\\Pi u : U. U). \\Pi g : (\\Pi q : Qbit. \\Pi u : U. U).
       {emp} r : Bool {T}
     = \\f. \\g. do return true

caller2 : {emp} r : Bool {T}
        = do a <= mkQbit false;
             x <- pass (ifQ a) ifQ;
             return x
"""


class TestSpineOracle:
    """A variable applied to arguments is typed in one pass over its
    spine; its type, canonical form and the ``%rN`` names it draws equal
    those of the fold that eta-expands the head and normalizes after each
    argument."""

    @staticmethod
    def sources() -> list:
        sources = [p.read_text() for p in CORPUS_FILES + NEGATIVE_FILES]
        sources += [gate_block_source(300), coin_block_source(6),
                    PARTIAL_APPLICATIONS]
        sources += [ghz_source(n) for n in range(4, 12)]
        sources += [pretty(Gen(seed).program()) for seed in range(40)]
        return sources

    def test_one_pass_equals_the_fold(self):
        pairs = []
        for source in self.sources():
            try:
                program = parse_program(source).program
            except ParseError:
                continue
            checker = SpineRecorder(program)
            checker.check_program()
            pairs += checker.pairs
        mismatches = [pretty(k) for k, got, want in pairs
                      if comparable(got) != comparable(want)]
        assert mismatches == []
        assert len(pairs) > 500
        canonicals = [got[0][1] for _, got, _ in pairs
                      if not isinstance(got[0], CheckError)]
        # `ifQ a` where a `U -> U` is expected, and `ifQ` itself
        assert Lam("%e2", Emb(App(App(Var("ifQ"), Emb(Var("a"))),
                                  Emb(Var("%e2"))))) in canonicals
        assert Lam("%e1", Lam("%e2", Emb(App(
            App(Var("ifQ"), Emb(Var("%e1"))), Emb(Var("%e2")))))) \
            in canonicals
        # `cond` with a λ branch
        assert any(isinstance(c, Emb) and isinstance(c.elim, App)
                   and spine_head(c) == Var("cond")
                   and isinstance(c.elim.arg, Lam) for c in canonicals)
        # errors are compared too
        assert any(isinstance(got[0], CheckError) for _, got, _ in pairs)


def swept_sources() -> list:
    """The corpus and negative files, a 300-gate block, a 50-statement
    straight-line block, 12 generated programs and a caller of
    `teleport`, whose result is the opaque state of a fresh ghost."""
    from test_replay import generated_source
    sources = [p.read_text() for p in CORPUS_FILES + NEGATIVE_FILES]
    sources += [gate_block_source(300), straight_line_source(50)]
    sources += [generated_source(seed) for seed in range(12)]
    teleport = next(p for p in CORPUS_FILES if p.name == "teleport.qh")
    sources.append(teleport.read_text() + (
        "tp : {emp} r : Qbit {T}\n"
        "   = do q <- qplus; r <- teleport q; return r\n"))
    return sources


def signature_names(signature) -> set:
    """The `\\Pi` binders, ghosts, heap variables and result binders of a
    declaration's type, and the current heap `%h`."""
    bound, ty = {"%h"}, signature
    while isinstance(ty, PiT):
        bound.add(ty.binder)
        ty = ty.codomain
    bound.update(x for x, _ in ty.var_ctx)
    bound.update(ty.heap_ctx)
    bound.update(ty.binder)
    return bound


class TestComputations:
    def test_return_true_sp(self):
        # the strongest postcondition is the final branch set, which the
        # postconditionVC carries as its hypotheses and models
        program = parse_program(
            "t : {emp} r : Bool {T} = do return true").program
        result = decl_result(check_program(program), "t")
        assert result.error is None
        (ob,) = result.obligations
        assert ob.kind == "postconditionVC"
        assert ob.hypotheses == [Emp()]
        (model,) = ob.models
        assert model.env["r"] is True

    def test_hypotheses_describe_the_branches_where_emitted(self):
        # hypotheses are built when first read, after the whole block is
        # checked; `applyU` updates the checker's live branches in place,
        # yet each obligation reads the branches as they were at its
        # statement, and the postcondition's omit the result pattern
        program = parse_program(
            "snap : {emp} r : Bool {T}\n"
            "     = do q <= mkQbit false;\n"
            "          p <= mkQbit false;\n"
            "          applyU (H p);\n"
            "          c <= measQbit p;\n"
            "          applyU (H q);\n"
            "          d <= measQbit q;\n"
            "          return c\n").program
        result = decl_result(check_program(program), "snap")
        hyps = [(ob.kind, [pretty(h) for h in ob.hypotheses])
                for ob in result.obligations if ob.kind != "unitarityVC"]
        assert hyps == [
            ("allocationVC",
             ["HId(%h, upd(upd(empty, p, |+\\>), q, |0\\>))"]),
            ("allocationVC",
             ["q |-> |+\\> /\\ Id(c, false) \\/ q |-> |+\\> /\\ Id(c, true)"]),
            ("postconditionVC",
             ["emp /\\ Id(c, false) /\\ Id(d, false) \\/ "
              "emp /\\ Id(c, false) /\\ Id(d, true) \\/ "
              "emp /\\ Id(c, true) /\\ Id(d, false) \\/ "
              "emp /\\ Id(c, true) /\\ Id(d, true)"])]

    def test_unread_hypotheses_keep_no_checker_alive(self):
        # an obligation holds what builds its hypotheses; if that reached
        # the checker, which holds the obligations, each checked program
        # would wait for the cyclic collector, and `run` would grow its
        # peak memory
        program = parse_program(
            "f : {emp} r : Bool {T}\n"
            "  = do q <= mkQbit false; applyU (H q); c <= measQbit q;\n"
            "       p <- g; return c\n"
            "g : {emp} r : Bool {T} = do return true\n").program
        gc.disable()
        try:
            checker = Checker(program)
            results = [checker.check_decl(d) for d in program.decls[::-1]]
            alive = weakref.ref(checker)
            del checker
            assert alive() is None
        finally:
            gc.enable()
        assert {ob.kind for r in results for ob in r.obligations} >= {
            "allocationVC", "callPreVC", "postconditionVC"}
        assert all(ob.hypotheses for r in results for ob in r.obligations
                   if ob.kind != "unitarityVC")

    def test_hqw_sp_entails_declared_post(self, corpus):
        program = corpus["hqw.qh"]
        result = Checker(program).check_decl(program.decl("hqw"))
        assert discharge_all(result.obligations).status == "verified"

    def test_mutated_post_refuted(self, corpus):
        program = corpus["hqw.qh"]
        decl = program.decl("hqw")
        bad_post = And(Emp(), IdAt(None, Emb(Var("r")), BoolLit(True)))
        bad = dataclasses.replace(decl, signature=dataclasses.replace(
            decl.signature, post=bad_post))
        result = Checker(program).check_decl(bad)
        assert discharge_all(result.obligations).status == "refuted"

    def test_rnd_no_result_constraint(self, corpus):
        program = corpus["rnd.qh"]
        result = Checker(program).check_decl(program.decl("rnd"))
        assert discharge_all(result.obligations).status == "verified"

    def test_testbell_five_trace_steps(self, checked_corpus):
        dr = decl_result(checked_corpus["testbell.qh"], "testBell")
        assert len(dr.trace) == 5
        texts = [pretty(s.assertion) for s in dr.trace]
        assert texts[0] == "P0 \\o (qa |-> |0\\>)"
        assert texts[1] == "P1 \\o ((qa |-> |0\\>) -o (qa |-> |+\\>))"
        assert texts[3] == ("P3 \\o ((qa |-> |+\\>, qb |-> |0\\>) -o "
                            "(qa, qb) |-> |\\Phi+\\>)")
        assert texts[4] == \
            "P4 \\o ((qa |-> -) -o emp) \\o ((qb |-> -) -o emp)"

    def test_gate_on_a_qubit_missing_in_one_branch(self):
        # `p` is measured in the branch where `b` is true only: the gate
        # applies in the other branch, and the allocationVC takes the
        # branch without `p` as its one model
        program = parse_program(
            "n : {emp} r : Bool {T}\n"
            "  = do q <= mkQbit false;\n"
            "       p <= mkQbit false;\n"
            "       applyU (H q);\n"
            "       b <= measQbit q;\n"
            "       c <= if b then (do x <= measQbit p; return ())\n"
            "            else (do applyU (X p); return ());\n"
            "       applyU (H p);\n"
            "       return b\n").program
        dr = decl_result(check_program(program), "n")
        (ob,) = [o for o in dr.obligations
                 if o.note == "unitary footprint must be allocated"]
        assert pretty(ob.conclusion) == "p ~> -"
        (model,) = ob.models
        assert model.env["b"] is True and model.heap.find("p") is None
        assert pretty(dr.trace[-1].assertion) == (
            "P6 \\o ((p |-> |1\\>) -o (p |-> |-\\>))")
        assert discharge_all(dr.obligations).status == "refuted"

    def test_existential_closure_in_sp(self, checked_corpus):
        # the strongest postcondition is the postconditionVC's hypotheses;
        # the machine names in it are bound by the obligation's context,
        # and the declared postcondition it must imply names none of them
        dr = decl_result(checked_corpus["hqw.qh"], "hqw")
        (ob,) = [o for o in dr.obligations if o.kind == "postconditionVC"]
        context = {x for x, _ in ob.var_ctx} | set(ob.heap_ctx)
        machine = {name for a in ob.hypotheses for name in free_vars(a)
                   if name.startswith("%")}
        assert machine and machine <= context
        assert all(not name.startswith("%")
                   for name in free_vars(ob.conclusion))

    def test_sp_names_only_what_the_signature_binds(self):
        # a name free in the strongest postcondition (the postconditionVC's
        # hypotheses) that the signature does not bind is one the
        # obligation's context binds, and the declared postcondition does
        # not name it: it is existential in the strongest postcondition
        seen = 0
        for source in swept_sources():
            program = parse_program(source).program
            decls = {d.name for d in program.decls}
            for dr in check_program(program).decls:
                bound = signature_names(program.decl(dr.name).signature)
                for ob in dr.obligations:
                    if ob.kind != "postconditionVC":
                        continue
                    context = {x for x, _ in ob.var_ctx} | set(ob.heap_ctx)
                    sp = set().union(*(free_vars(a) for a in ob.hypotheses))
                    post = free_vars(ob.conclusion)
                    assert sp - bound <= context, dr.name
                    assert post <= bound | decls, dr.name
                    assert not (sp - bound) & post, dr.name
                    seen += 1
        assert seen >= 20


def obligation_contexts() -> dict:
    """File -> declaration -> one entry per obligation: its kind, the
    length of its ``var_ctx`` and ``dict(var_ctx)`` as sorted
    ``[name, pretty(type)]`` pairs."""
    out = {}
    for path in CORPUS_FILES + NEGATIVE_FILES:
        program = parse_program(path.read_text(), str(path)).program
        out[f"{path.parent.name}/{path.name}"] = {
            dr.name: [{"kind": ob.kind, "len": len(ob.var_ctx),
                       "var_ctx": [[x, pretty(t)] for x, t in
                                   sorted(dict(ob.var_ctx).items())]}
                      for ob in dr.obligations]
            for dr in check_program(program).decls}
    return out


class TestCorpusVerification:
    def test_all_required_decls_verified(self, checked_corpus):
        from conftest import VERIFIED_DECLS
        for fname, names in VERIFIED_DECLS.items():
            checked = checked_corpus[fname]
            for name in names:
                dr = decl_result(checked, name)
                assert dr.error is None, (fname, name)
                report = discharge_all(dr.obligations)
                assert report.status == "verified", (fname, name)

    def test_appendix_pipeline_conditional(self, checked_corpus):
        checked = checked_corpus["teleport.qh"]
        for name in ("alice", "bob", "teleport"):
            dr = decl_result(checked, name)
            assert dr.error is None
            report = discharge_all(dr.obligations)
            assert report.status == "conditional", name
            assert report.counts["refuted"] == 0

    def test_existential_hygiene(self):
        # every name free in an obligation's conclusion or hypotheses is
        # in its context, a heap variable, the current heap `%h`, a
        # declaration or a builtin
        seen = 0
        for source in swept_sources():
            program = parse_program(source).program
            allowed_global = ({d.name for d in program.decls}
                              | set(BUILTIN_TYPES) | {"%h"})
            for dr in check_program(program).decls:
                for ob in dr.obligations:
                    bound = {x for x, _ in ob.var_ctx} | set(ob.heap_ctx)
                    for a in (ob.conclusion, *ob.hypotheses):
                        leaked = free_vars(a) - bound - allowed_global
                        assert leaked == set(), (dr.name, pretty(a))
                    seen += 1
        assert seen >= 400

    def test_obligation_contexts_match_golden(self):
        # tests/golden/var_ctx.json holds, for every obligation, the
        # number of (name, type) pairs in its context and the context read
        # as a dict, as produced when each obligation copied its context
        assert obligation_contexts() == json.loads(
            (GOLDEN_DIR / "var_ctx.json").read_text())

    def test_obligation_context_keeps_first_position_of_rebound_name(self):
        # the pairs a tuple of ctx.items() + binders gave: a rebound name
        # stays where it was first bound, with its latest type
        src = ("shadow : \\Pi b : Bool. {emp} r : Bool {T}\n"
               "    = \\b. do q <= mkQbit b;\n"
               "         b : Qbit = q;\n"
               "         m <= measQbit b;\n"
               "         m : Bool = true;\n"
               "         return m\n")
        dr = check_program(parse_program(src).program).decls[0]
        assert dr.error is None
        alloc, post = dr.obligations
        pairs = [("b", "Qbit"), ("q", "Qbit"), ("q", "Qbit")]
        assert [(x, pretty(t)) for x, t in alloc.var_ctx] == pairs
        assert len(alloc.var_ctx) == 3
        assert alloc.var_ctx[-1] == ("q", QbitT())
        assert alloc.var_ctx == tuple(alloc.var_ctx)
        assert [(x, pretty(t)) for x, t in post.var_ctx] == [
            ("b", "Bool"), ("q", "Qbit"), ("m", "Bool"), ("r", "Bool")]
        assert len(post.var_ctx) == 4

    def test_literal_measurement_mode(self, corpus):
        checked = check_program(corpus["testbell.qh"],
                                literal_measurement=True)
        dr = decl_result(checked, "testBell")
        report = discharge_all(dr.obligations)
        assert report.status == "conditional"
        assert report.counts["refuted"] == 0

    def test_branch_cap_collapses_to_unknown(self):
        # seven data-dependent allocations exceed the 64-branch bound
        steps = "".join(f"q{i} <= mkQbit b;\n         " for i in range(7))
        src = ("wide : \\Pi b : Bool. {emp} r : 1 {T}\n"
               f"    = \\b. do {steps}return ()\n")
        prog = parse_program(src).program
        checked = check_program(prog)
        dr = decl_result(checked, "wide")
        assert dr.error is None
        assert any("branch bound" in ob.note for ob in dr.obligations)
        report = discharge_all(dr.obligations)
        assert report.status == "conditional"

    def test_check_memory_linear_in_block_length(self):
        # obligations share the binder prefix of their block: tripling the
        # block must not come near the 9x of a copy per obligation
        def peak(n):
            program = parse_program(straight_line_source(n)).program
            tracemalloc.start()
            try:
                checked = check_program(program)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert checked.decls[0].error is None
            return peak

        assert peak(900) <= 4 * peak(300)

    def test_branch_type_agreement_error(self):
        src = ("bad : {emp} r : Bool {T}\n"
               "    = do q <= mkQbit false;\n"
               "         x <= if true then true else ();\n"
               "         measQbit q\n")
        prog = parse_program(src).program
        checked = check_program(prog)
        assert decl_result(checked, "bad").error is not None

    def test_subject_reduction_smoke(self, corpus, checked_corpus):
        # verified programs never fail runtime assertions (small version;
        # the acceptance suite runs the full 100-seed sweep)
        from qhoare.sim import run_program
        from conftest import VERIFIED_DECLS
        for fname, names in VERIFIED_DECLS.items():
            prog = corpus[fname]
            for name in names:
                sig = prog.decl(name).signature
                if not isinstance(sig, HoareT):
                    continue
                for seed in range(5):
                    rep = run_program(prog, name, seed=seed, shots=50)
                    assert rep.failures == 0, (fname, name, seed)
                    assert rep.errors == 0


def _counted(fn, calls):
    """``fn``, appending its first argument to ``calls`` on each call."""
    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)
    return wrapper


class TestCheckerMemos:
    def test_each_gate_and_each_state_computed_once(self, monkeypatch):
        # a 900-gate block over three qubits repeats a few dozen gate
        # terms: each is evaluated once.  Each distinct cell state is
        # rendered once, so a gate's consumed state, which the step before
        # produced, is not rendered again
        from qhoare import heap, typecheck
        program = parse_program(gate_block_source(900)).program
        gates = {s.command.unitary for s in program.decls[0].body.body.stmts
                 if isinstance(s.command, ApplyU)}
        evals, renders = [], []
        monkeypatch.setattr(typecheck, "eval_unitary",
                            _counted(typecheck.eval_unitary, evals))
        monkeypatch.setattr(heap, "state_expr",
                            _counted(heap.state_expr, renders))
        dr = check_program(program).decls[0]
        assert dr.error is None
        assert len(evals) == len(gates) < 30
        steps = len(dr.trace)  # renders the trace
        assert len(renders) == len(set(renders))
        assert len(renders) < steps

    def test_trace_is_rendered_on_first_read(self, monkeypatch):
        # check, vcs and run never read the trace, so checking renders no
        # heap delta; the first read renders each step and later reads
        # reuse them
        from qhoare import cli, typecheck
        source = gate_block_source(300)
        program = parse_program(source).program
        renders = []
        monkeypatch.setattr(typecheck, "delta_assertion",
                            _counted(typecheck.delta_assertion, renders))
        checked = check_program(program)
        assert cli.decl_status(program, "gates") == "verified"
        assert renders == []
        steps = checked.decls[0].trace
        rendered = len(renders)
        assert rendered >= len(steps) > 300
        assert checked.decls[0].trace is steps
        out = cli.render_trace(source, program, checked.decls[0]) + "\n"
        assert out == (GOLDEN_DIR / "trace_genlib_gates.txt").read_text()
        assert len(renders) == rendered


def gate_sources() -> list:
    """The spine oracle's programs and the other two genlib blocks."""
    return TestSpineOracle.sources() + [measure_block_source(50),
                                        straight_line_source(50)]


def check_sources(sources: list) -> None:
    for source in sources:
        try:
            program = parse_program(source).program
        except ParseError:
            continue
        check_program(program)


class TestCellMemo:
    """A checker applies each distinct gate to each distinct concrete cell
    state once: ``sp_apply_unitary`` keeps the cell it makes in the
    checker's memo, keyed by the unitary and the touched cells' qubits and
    raw amplitude bytes."""

    def test_gate_terms_are_evaluated_in_normal_form(self, monkeypatch):
        # eval_unitary interprets the checker's canonical gate term without
        # reducing it again, which holds when canonical forms are normal
        from qhoare import typecheck
        terms = []
        monkeypatch.setattr(typecheck, "eval_unitary",
                            _counted(typecheck.eval_unitary, terms))
        check_sources(gate_sources())
        assert len(terms) > 100
        assert [pretty(t) for t in terms
                if not core.same_node(core.normal_form(t), t)] == []

    def test_memo_hits_equal_the_kernel_bit_for_bit(self, monkeypatch):
        # each cell the memo returns is the vector a fresh application
        # computes, signed zeros included
        from qhoare import heap, sim, typecheck
        kernel, hits = [], []
        monkeypatch.setattr(heap, "apply_to_cells",
                            _counted(heap.apply_to_cells, kernel))

        def applying(h, u, memo):
            calls = len(kernel)
            res = heap.sp_apply_unitary(h, u, memo)
            if res.delta.produced and not res.residual \
                    and len(kernel) == calls:
                hits.append((u, res.delta))
            return res
        monkeypatch.setattr(typecheck, "sp_apply_unitary", applying)
        check_sources(gate_sources() + [gate_block_source(300),
                                        straight_line_source(2000)])
        assert len(hits) > 2000
        for u, delta in hits:
            (cell,) = delta.produced
            qubits, vec = sim.apply_to_cells(
                u, [(c.qubits, c.state.amps) for c in delta.consumed])
            assert cell.qubits == qubits
            assert cell.state.amps.tobytes() == vec.tobytes()

    def test_kernel_runs_once_per_distinct_application(self, monkeypatch,
                                                       tmp_path, capsys):
        # 2,000 Hadamards on one qubit alternate between two states; the
        # memo lives as long as its command's checker, so a second command
        # applies the kernel as often as the first
        from qhoare import cli, heap
        kernel = []
        monkeypatch.setattr(heap, "apply_to_cells",
                            _counted(heap.apply_to_cells, kernel))
        path = tmp_path / "deep.qh"
        path.write_text(straight_line_source(2000))
        assert cli.main(["check", str(path)]) == 0
        first = len(kernel)
        assert 0 < first <= 4
        assert cli.main(["check", str(path)]) == 0
        assert len(kernel) == 2 * first
        capsys.readouterr()


class TestAlphaEquality:
    def test_pi_alpha(self):
        t1 = parse_type("\\Pi x : Bool. Bool")
        t2 = parse_type("\\Pi y : Bool. Bool")
        assert types_equal(t1, t2)

    def test_hoare_alpha(self):
        t1 = parse_type("{emp} r : Bool {Id(r, false)}")
        t2 = parse_type("{emp} s : Bool {Id(s, false)}")
        assert types_equal(t1, t2)
        t3 = parse_type("{emp} r : Bool {Id(r, true)}")
        assert not types_equal(t1, t3)

    @pytest.mark.parametrize("f_post, g_post", [
        ("forall x : Bool. Id(x, x)", "forall y : Bool. Id(y, y)"),
        ("exists h : heap. HId(h, h)", "exists k : heap. HId(k, k)"),
        ("forall h : heap. HId(h, h)", "forall k : heap. HId(k, k)"),
    ])
    def test_quantifier_alpha(self, f_post, g_post):
        # g's type differs from f's only in the name of a bound variable
        checked = check_program(parse_program(
            f"f : {{emp}} r : Bool {{{f_post}}} = do return true\n"
            f"g : {{emp}} r : Bool {{{g_post}}} = f\n").program)
        assert [d.error for d in checked.decls] == [None, None]

    def test_base_types_compare_by_class(self):
        bases = [UnitT(), BoolT(), QbitT(), UT(), PureT(), MatrixT()]
        others = bases + [PiT("x", BoolT(), BoolT()), TensorT(BoolT(), UT()),
                          parse_type("{emp} r : Bool {T}")]
        for a in bases:
            for b in others:
                assert types_equal(a, b) == (type(a) is type(b))
                assert types_equal(b, a) == (type(a) is type(b))

    def test_generated_types_agree_with_renamed_equality(self):
        for seed in range(300):
            a, b = Gen(seed).type_(3), Gen(seed + 1).type_(3)
            assert types_equal(a, Gen(seed).type_(3))
            assert types_equal(a, b) == \
                (alpha_normalize(a) == alpha_normalize(b))

    def test_chain_binders_are_numbered_left_to_right(self):
        t = parse_type("{emp} r : Bool {(exists x : Bool. Id(x, r)) /\\ "
                       "(exists y : Bool. Id(y, r)) \\/ "
                       "(forall z : Bool. Id(z, r))}")
        assert pretty(alpha_normalize(t)) == (
            "{emp} %a1 : Bool {(exists %a2 : Bool. Id(%a2, %a1)) /\\ "
            "(exists %a3 : Bool. Id(%a3, %a1)) \\/ "
            "(forall %a4 : Bool. Id(%a4, %a1))}")

    def test_chain_of_5000_conjuncts(self):
        # renaming and comparing walk the chain in a loop, so an ascription
        # of a long postcondition needs no deeper stack
        def hoare(r, x, last):
            conjunct = f"(exists {x} : Bool. Id({x}, {r}))"
            post = " /\\ ".join([conjunct] * 4999 + [last])
            return parse_type(f"{{emp}} {r} : Bool {{{post}}}")

        t1 = hoare("r", "x", "T")
        assert types_equal(t1, hoare("s", "y", "T"))
        assert not types_equal(t1, hoare("s", "y", "emp"))
        assert not types_equal(t1, parse_type("{emp} r : Bool {T}"))

    def test_comparison_leaves_no_garbage_cycles(self):
        # the walk that renames binders makes no reference cycle, so a
        # comparison frees everything it built without the collector
        t1 = parse_type("\\Pi x : Qbit. {x \\in {|0\\>}} r : Bool "
                        "{Id(r, true) /\\ exists y : Bool. Id(y, r)}")
        t2 = parse_type("\\Pi z : Qbit. {z \\in {|0\\>}} s : Bool "
                        "{Id(s, true) /\\ exists w : Bool. Id(w, s)}")
        gc.collect()
        gc.disable()
        try:
            assert types_equal(t1, t2)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCaptureAvoidance:
    @pytest.mark.parametrize("x", ["r", "y"])
    def test_call_result_name_does_not_capture_argument(self, x):
        # f's result binder r scopes over its postcondition only, so an
        # argument named r stays the argument
        checked = check_program(parse_program(
            "f : \\Pi x : Bool. {emp} r : Bool {Id(r, x)} = \\x. do return x\n"
            f"g : \\Pi {x} : Bool. {{emp}} s : Bool {{Id(s, {x})}}\n"
            f"  = \\{x}. do t <- f {x}; return t\n").program)
        g = decl_result(checked, "g")
        assert g.error is None
        assert discharge_all(g.obligations).status == "verified"


class TestQubitOrder:
    """A postcondition about a cell may name its qubits in any order; the
    state is read in the order written.  After the block, qa = |0> and
    qb = |1>, so (qb, qa) holds |10> = vec(0, 0, 1, 0)."""

    BLOCK = ("do qa <= mkQbit false; qb <= mkQbit true; "
             "applyU (ifQ qa (X qb)); return (qa, qb)")

    @pytest.mark.parametrize("post, status", [
        ("(b, a) |-> |vec(0, 0, 1, 0)\\>", "verified"),
        ("(b, a) |-> |vec(0, 1, 0, 0)\\>", "refuted"),
        ("(b, a) ~> |vec(0, 0, 1, 0)\\>", "verified"),
        ("(b, a) ~> |vec(0, 1, 0, 0)\\>", "refuted"),
        ("HId(%h, upd(empty, (b, a), |vec(0, 0, 1, 0)\\>))", "verified"),
        ("HId(%h, upd(empty, (b, a), |vec(0, 1, 0, 0)\\>))", "refuted"),
        ("(a, b) |-> |vec(0, 1, 0, 0)\\>", "verified"),
    ])
    def test_pair_postcondition(self, post, status):
        checked = check_program(parse_program(
            f"f : {{emp}} (a, b) : (Qbit, Qbit) {{{post}}} = {self.BLOCK}\n"
        ).program)
        f = decl_result(checked, "f")
        assert f.error is None
        assert discharge_all(f.obligations).status == status

    @pytest.mark.parametrize("post, status", [
        # each qubit of a pair cell is in the heap's domain
        ("indom(upd(empty, (a, b), |vec(0, 1, 0, 0)\\>), a)", "verified"),
        ("indom(upd(empty, (a, b), |vec(0, 1, 0, 0)\\>), b)", "verified"),
        ("indom(upd(empty, a, |0\\>), b)", "refuted"),
    ])
    def test_domain_of_an_explicit_heap(self, post, status):
        checked = check_program(parse_program(
            f"f : {{emp}} (a, b) : (Qbit, Qbit) {{{post}}} = "
            "do qa <= mkQbit false; qb <= mkQbit true; return (qa, qb)\n"
        ).program)
        f = decl_result(checked, "f")
        assert f.error is None
        assert discharge_all(f.obligations).status == status

    @pytest.mark.parametrize("post, status", [
        ("(a, b) |-> x", "verified"),
        # a ghost state of the pair read with its qubits swapped is not known
        ("(b, a) |-> x", "conditional"),
    ])
    def test_ghost_pair_postcondition(self, post, status):
        checked = check_program(parse_program(
            "f : \\Pi a : Qbit. \\Pi b : Qbit. x : Pure.\n"
            f"    {{(a, b) |-> x}} r : 1 {{{post}}} = \\a. \\b. do return ()\n"
        ).program)
        f = decl_result(checked, "f")
        assert f.error is None
        assert discharge_all(f.obligations).status == status
