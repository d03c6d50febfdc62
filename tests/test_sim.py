"""Statevector simulator: allocation, unitaries, measurement, shot loop,
and runtime assertion checking."""

import random
import tracemalloc

import numpy as np
import pytest

from qhoare import sim, typecheck
from qhoare.core import (
    And, BoolLit, Emb, Emp, Entangled, ForallHeap, GhostRef, IdAt, Ket,
    KetVec, MatrixLit, PointsTo, QbitT, Top, UNKNOWN, UT, Var, pretty,
)
from qhoare.parser import parse_program, parse_term
from conftest import state_vector
from genlib import coin_block_source, straight_line_source
from qhoare.sim import (
    Closure, Cond, DeclCall, GATES, Interpreter, MAppend, MEmpty,
    QuantumState, Rot, SimulationError, Suspended, UnitaryError, alloc,
    apply_unitary, check_assertion_runtime, eval_unitary, footprint, if_q,
    is_unitary, measure, reduced_density, render_value, run_program,
    shot_rng, states_equal_up_to_phase, unitary_normal_form,
)

S = 2 ** -0.5


def oracle_kron(*vecs):
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = np.kron(out, np.asarray(v, dtype=complex))
    return out


def dense(s):
    return state_vector(s)[1]


def norm_sq(s):
    return float(np.linalg.norm(dense(s)) ** 2)


class TestAlloc:
    def test_false_single_qubit(self):
        s, q = alloc(QuantumState(), False)
        assert q == 0
        live, vec = state_vector(s)
        assert live == (0,) and vec.tolist() == [1, 0]

    def test_true_single_qubit(self):
        s, q = alloc(QuantumState(), True)
        live, vec = state_vector(s)
        assert live == (0,) and vec.tolist() == [0, 1]

    def test_tensor_with_existing_plus(self):
        # oracle: |+> (x) |0>
        expected = oracle_kron([S, S], [1, 0])
        s, q0 = alloc(QuantumState(), False)
        s = apply_unitary(s, Rot(q0, GATES["H"]))
        s, q1 = alloc(s, False)
        assert states_equal_up_to_phase(dense(s), expected)
        assert abs(dense(s)[0b00] - S) < 1e-12
        assert abs(dense(s)[0b10] - S) < 1e-12


class TestEvalUnitary:
    def resolve(self, env):
        return lambda name: env[name]

    def test_hadamard_gate(self):
        term = parse_term("H q")
        u = eval_unitary(term, self.resolve({"q": 0}))
        assert u == Rot(0, tuple(map(tuple, np.asarray(GATES["H"],
                                                       dtype=complex))))

    def test_monoid_identity_by_action(self):
        term = parse_term("mappend mempty (X q)")
        u = eval_unitary(term, self.resolve({"q": 0}))
        s, q = alloc(QuantumState(), False)
        s1 = apply_unitary(s, u)
        s2 = apply_unitary(s, Rot(q, GATES["X"]))
        assert states_equal_up_to_phase(dense(s1), dense(s2))

    def test_non_unitary_matrix_rejected(self):
        term = parse_term("rot q ((1, 0), (0, 2))")
        with pytest.raises(UnitaryError) as err:
            eval_unitary(term, self.resolve({"q": 0}))
        assert err.value.matrix is not None

    def test_unitary_rot_accepted(self):
        term = parse_term("rot q ((0.7071067811865476, 0.7071067811865476), "
                          "(0.7071067811865476, -0.7071067811865476))")
        u = eval_unitary(term, self.resolve({"q": 3}))
        assert isinstance(u, Rot) and u.qubit == 3

    def test_truncated_matrix_misses_tolerance(self):
        # eight digits deviate from unitarity by ~1.7e-9, over the 1e-9 gate
        term = parse_term("rot q ((0.70710678, 0.70710678), "
                          "(0.70710678, -0.70710678))")
        with pytest.raises(UnitaryError) as err:
            eval_unitary(term, self.resolve({"q": 0}))
        assert err.value.matrix is not None

    def test_ifq_sugar(self):
        term = parse_term("ifQ a (X b)")
        u = eval_unitary(term, self.resolve({"a": 0, "b": 1}))
        assert u == if_q(0, Rot(1, tuple(map(tuple,
                                             np.asarray(GATES["X"],
                                                        dtype=complex)))))

    def test_cond_branch_on_control_rejected(self):
        term = parse_term("ifQ a (X a)")
        with pytest.raises(UnitaryError):
            eval_unitary(term, self.resolve({"a": 0}))

    def test_cond_with_lambda(self):
        term = parse_term("cond a (\\v. if v then X b else mempty)")
        u = eval_unitary(term, self.resolve({"a": 0, "b": 1}))
        assert isinstance(u, Cond)
        assert u.false_branch == MEmpty()
        assert footprint(u) == [0, 1]

    @pytest.mark.parametrize("src", [
        "H q",
        "mappend mempty (X q)",
        "ifQ a (X b)",
        "cond a (\\v. if v then X b else mempty)",
        "rot q ((0, 1), (1, 0))",
        "((\\x. H x) : \\Pi x : Qbit. U) q",
        "((\\u. mappend u u) : \\Pi u : U. U) (ifQ a (Y q))",
        "mappend (((\\x. ifQ x (Z b)) : \\Pi x : Qbit. U) a) "
        "(cond b (\\v. if v then mempty else H a))",
    ])
    def test_raw_and_canonical_terms_agree(self, src):
        # the runtime interprets the normal form of the term as written,
        # the checker its canonical form; both must denote the same unitary
        # expression
        term = parse_term(src)
        canonical = typecheck.check(
            {"a": QbitT(), "b": QbitT(), "q": QbitT()}, term, UT())
        resolve = self.resolve({"a": 0, "b": 1, "q": 2})
        assert eval_unitary(unitary_normal_form(term), resolve) \
            == eval_unitary(canonical, resolve)

    def test_is_unitary(self):
        assert is_unitary(GATES["H"])
        assert not is_unitary(((1, 0), (0, 2)))


class TestApplyUnitary:
    def test_hadamard_amplitudes(self):
        # oracle: matrix arithmetic
        expected = np.asarray(GATES["H"]) @ np.array([1, 0])
        s, q = alloc(QuantumState(), False)
        s = apply_unitary(s, Rot(q, GATES["H"]))
        got = dense(s)
        assert np.allclose(got, expected)
        assert abs(got[0] - 0.70710678) < 1e-7
        assert abs(got[1] - 0.70710678) < 1e-7

    def test_controlled_x_on_basis(self):
        s, q0 = alloc(QuantumState(), True)
        s, q1 = alloc(s, False)
        s = apply_unitary(s, if_q(q0, Rot(q1, GATES["X"])))
        assert dense(s).tolist() == [0, 0, 0, 1]

    def test_bell_preparation(self):
        s, qa = alloc(QuantumState(), False)
        s, qb = alloc(s, False)
        s = apply_unitary(s, Rot(qa, GATES["H"]))
        s = apply_unitary(s, if_q(qa, Rot(qb, GATES["X"])))
        assert states_equal_up_to_phase(dense(s), [S, 0, 0, S])

    def test_unallocated_qubit_rejected(self):
        s, q = alloc(QuantumState(), False)
        with pytest.raises(SimulationError):
            apply_unitary(s, Rot(q + 7, GATES["X"]))

    def test_retired_qubit_rejected(self):
        s, q = alloc(QuantumState(), False)
        _, s = measure(s, q, shot_rng(0, 0))
        with pytest.raises(SimulationError):
            apply_unitary(s, Rot(q, GATES["X"]))

    def test_rot_array_is_shared_and_read_only(self):
        # every application of a gate term reads one array: a kernel that
        # wrote into it would change every later application of the gate
        u = eval_unitary(parse_term("H a"), {"a": 0}.__getitem__)
        assert np.array_equal(u.array, np.array(u.matrix, dtype=complex))
        assert u.array.dtype == complex
        with pytest.raises(ValueError):
            u.array[0, 0] = 0
        s, q = alloc(QuantumState(), False)
        apply_unitary(apply_unitary(s, u), u)
        assert np.array_equal(u.array, np.array(GATES["H"], dtype=complex))
        # equality and hash read the tuple matrix, not the array
        v = Rot(0, tuple(tuple(row) for row in u.matrix))
        assert v == u and hash(v) == hash(u)
        assert v.array is not u.array
        assert Rot(0, GATES["X"]) != u


class TestMeasure:
    def test_ket0_deterministic(self):
        for shot in range(20):
            s, q = alloc(QuantumState(), False)
            outcome, s2 = measure(s, q, shot_rng(7, shot))
            assert outcome is False
            assert state_vector(s2)[0] == ()

    def test_bell_correlated(self):
        for shot in range(50):
            s, qa = alloc(QuantumState(), False)
            s, qb = alloc(s, False)
            s = apply_unitary(s, Rot(qa, GATES["H"]))
            s = apply_unitary(s, if_q(qa, Rot(qb, GATES["X"])))
            rng = shot_rng(11, shot)
            a, s = measure(s, qa, rng)
            b, s = measure(s, qb, rng)
            assert a == b

    def test_plus_fraction_within_binomial_bound(self):
        # p = 0.5 from the projection oracle; 4 sigma over 10000 shots
        true_count = 0
        for shot in range(10000):
            s, q = alloc(QuantumState(), False)
            s = apply_unitary(s, Rot(q, GATES["H"]))
            outcome, _ = measure(s, q, shot_rng(3, shot))
            true_count += outcome
        assert 0.48 <= true_count / 10000 <= 0.52

    def test_collapse_residual_mass(self):
        rng = random.Random(9)
        for trial in range(220):
            s = QuantumState()
            qubits = []
            for _ in range(3):
                s, q = alloc(s, rng.random() < 0.5)
                qubits.append(q)
            for _ in range(4):
                q = rng.choice(qubits)
                g = rng.choice(["H", "X", "Y", "Z"])
                s = apply_unitary(s, Rot(q, GATES[g]))
            target = rng.choice(qubits)
            outcome, s2 = measure(s, target, shot_rng(trial, 0))
            # measured qubit no longer exists; mass on the other outcome
            # was removed with it
            assert target not in state_vector(s2)[0]
            assert abs(norm_sq(s2) - 1.0) < 1e-9


class TestProperties:
    def random_unitary_expr(self, rng, qubits, depth=3):
        if depth <= 0 or rng.random() < 0.3:
            choice = rng.randrange(3)
            if choice == 0:
                return MEmpty()
            g = rng.choice(["H", "X", "Y", "Z"])
            return Rot(rng.choice(qubits), GATES[g])
        if rng.random() < 0.5:
            return MAppend(self.random_unitary_expr(rng, qubits, depth - 1),
                           self.random_unitary_expr(rng, qubits, depth - 1))
        control = rng.choice(qubits)
        rest = [q for q in qubits if q != control]
        if not rest:
            return MEmpty()
        return Cond(control,
                    self.random_unitary_expr(rng, rest, depth - 1),
                    self.random_unitary_expr(rng, rest, depth - 1))

    def random_state(self, rng, n):
        s = QuantumState()
        qubits = []
        for _ in range(n):
            s, q = alloc(s, rng.random() < 0.5)
            qubits.append(q)
        for _ in range(3):
            s = apply_unitary(
                s, Rot(rng.choice(qubits), GATES[rng.choice("HXYZ")]))
        return s, qubits

    def test_normalization_after_every_command(self):
        rng = random.Random(21)
        for trial in range(240):
            s, qubits = self.random_state(rng, rng.randrange(1, 5))
            u = self.random_unitary_expr(rng, qubits)
            s = apply_unitary(s, u)
            assert abs(norm_sq(s) - 1.0) < 1e-9
            _, s = measure(s, rng.choice(qubits), shot_rng(trial, 1))
            assert abs(norm_sq(s) - 1.0) < 1e-9

    def test_unitarity_preserves_inner_products(self):
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randrange(1, 5)
            s1, qubits = self.random_state(rng, n)
            s2, _ = self.random_state(random.Random(trial + 999), n)
            u = self.random_unitary_expr(rng, qubits)
            before = np.vdot(dense(s1), dense(s2))
            after = np.vdot(dense(apply_unitary(s1, u)),
                            dense(apply_unitary(s2, u)))
            assert abs(before - after) < 1e-9

    def test_monoid_laws_by_action(self):
        rng = random.Random(17)
        for trial in range(200):
            s, qubits = self.random_state(rng, rng.randrange(2, 5))
            a = self.random_unitary_expr(rng, qubits, 2)
            b = self.random_unitary_expr(rng, qubits, 2)
            c = self.random_unitary_expr(rng, qubits, 2)
            left = apply_unitary(s, MAppend(MAppend(a, b), c))
            right = apply_unitary(s, MAppend(a, MAppend(b, c)))
            assert np.allclose(dense(left), dense(right), atol=1e-9)
            ident = apply_unitary(s, MAppend(MEmpty(), a))
            plain = apply_unitary(s, a)
            assert np.allclose(dense(ident), dense(plain), atol=1e-9)


class TestCells:
    """The runtime state is a product of cells: a gate joins the cells it
    touches, and a measurement drops its qubit from its cell."""

    def test_unentangled_qubits_keep_their_own_cells(self):
        s = QuantumState()
        for _ in range(20):
            s, q = alloc(s, False)
            s = apply_unitary(s, Rot(q, GATES["H"]))
        assert [(qubits, len(vec)) for qubits, vec in s.cells] == \
            [((q,), 2) for q in range(20)]

    def test_gate_joins_the_cells_it_touches(self):
        s, qa = alloc(QuantumState(), False)
        s, qb = alloc(s, True)
        s, qc = alloc(s, False)
        s = apply_unitary(s, if_q(qc, Rot(qa, GATES["X"])))
        assert [qubits for qubits, _ in s.cells] == [(qb,), (qc, qa)]
        assert dense(s).tolist() == [0, 0, 1, 0, 0, 0, 0, 0]  # |010>

    def test_measurement_drops_the_qubit_from_its_cell(self):
        s, qa = alloc(QuantumState(), False)
        s, qb = alloc(s, False)
        s = apply_unitary(s, Rot(qa, GATES["H"]))
        s = apply_unitary(s, if_q(qa, Rot(qb, GATES["X"])))
        a, s = measure(s, qa, shot_rng(1, 0))
        assert [qubits for qubits, _ in s.cells] == [(qb,)]
        assert dense(s).tolist() == ([0, 1] if a else [1, 0])
        _, s = measure(s, qb, shot_rng(1, 0))
        assert s.cells == ()
        for q in (qa, qb):
            with pytest.raises(SimulationError, match="measured and retired"):
                s.index(q)

    def test_amplitudes_at_prune_tol_are_zeroed(self):
        # a rotation by 1e-13 leaves an amplitude below PRUNE_TOL, so the
        # outcome it would give has probability exactly 0
        eps = 1e-13
        c = (1 - eps * eps) ** 0.5
        s, q = alloc(QuantumState(), False)
        s = apply_unitary(s, Rot(q, ((c, -eps), (eps, c))))
        assert dense(s).tolist() == [1, 0]
        path = []
        assert measure(s, q, shot_rng(0, 0), path)[0] is False
        assert path == [(0.0, False)]

    def test_product_state_width_is_linear(self):
        # 16 coins measured at the end: one vector over all live qubits
        # would hold 2^16 amplitudes (a traced peak of about 45 MB); in
        # cells of their own they hold two each (about 2 MB in all)
        program = parse_program(coin_block_source(16)).program
        tracemalloc.start()
        try:
            rep = run_program(program, "coins", seed=0, shots=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(rep.outcomes.values()) == 100 and rep.errors == 0
        assert peak <= 8_000_000, peak


class TestRunProgram:
    def test_hqw_always_false(self, corpus):
        rep = run_program(corpus["hqw.qh"], "hqw", seed=9, shots=1000)
        assert rep.outcomes == {"false": 1000}
        assert rep.failures == 0

    def test_testbell_agreement(self, corpus):
        rep = run_program(corpus["testbell.qh"], "testBell", seed=42,
                          shots=1000)
        assert set(rep.outcomes) <= {"(false, false)", "(true, true)"}
        assert sum(rep.outcomes.values()) == 1000
        assert rep.failures == 0

    def test_seed_determinism(self, corpus):
        a = run_program(corpus["rnd.qh"], "rnd", seed=5, shots=500)
        b = run_program(corpus["rnd.qh"], "rnd", seed=5, shots=500)
        assert a.as_dict() == b.as_dict()
        c = run_program(corpus["rnd.qh"], "rnd", seed=6, shots=500)
        assert a.outcomes != c.outcomes

    def test_non_hoare_entry_rejected(self):
        prog = parse_program("k : Bool = true").program
        with pytest.raises(SimulationError):
            run_program(prog, "k", shots=1)


class TestGateMemo:
    """The interpreter evaluates each gate term once per run and per qubit
    values of its free names; a failure is evaluated again each time."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(term, resolve):
            calls.append(pretty(term))
            return eval_unitary(term, resolve)

        monkeypatch.setattr(sim, "eval_unitary", counting)
        return calls

    @staticmethod
    def run_once(source, decl):
        parsed = parse_program(source)
        assert parsed.ok, [d.render() for d in parsed.diagnostics]
        return Interpreter(parsed.program).call(decl, [], QuantumState(),
                                                shot_rng(0, 0))

    def test_repeated_gate_evaluated_once(self, calls):
        value, _ = self.run_once(straight_line_source(40), "deep")
        assert calls == ["H q"]
        assert value is False  # an even number of Hadamards on |0>

    def test_same_term_on_another_qubit_evaluated_again(self, calls):
        value, _ = self.run_once(REBOUND_SOURCE, "r")
        assert value == (True, True)
        assert calls == ["X q", "X q"]

    def test_failure_is_not_kept(self, calls):
        interp = Interpreter(parse_program(BAD_ROT_SOURCE).program)
        for _ in range(2):
            with pytest.raises(UnitaryError):
                interp.call("bad", [], QuantumState(), shot_rng(0, 0))
        assert len(calls) == 2


# `q` names `a`, then `b`: the same `X q` term flips each in turn
REBOUND_SOURCE = """\
r : {emp} (x, y) : (Bool, Bool) {T}
  = do a <= mkQbit false;
       b <= mkQbit false;
       q : Qbit = a;
       applyU (X q);
       q : Qbit = b;
       applyU (X q);
       (measQbit a, measQbit b)
"""

BAD_ROT_SOURCE = """\
bad : {emp} r : Bool {T}
  = do q <= mkQbit false;
       applyU (rot q ((1, 1), (0, 1)));
       measQbit q
"""


class TestRenderValue:
    """One writer for the values of ``run`` results and of the prover's
    countermodels."""

    def test_runtime_values(self):
        assert render_value(None) == "()"
        assert render_value(0) == "q0"
        assert render_value(12) == "q12"
        assert render_value((True, (0, False))) == "(true, (q0, false))"
        for v in (Closure("x", Emb(Var("x")), ()), Suspended(None, ()),
                  DeclCall("f", (1,))):
            assert render_value(v) == "<computation>"
        for v in (Ket("+"), KetVec((0.6 + 0j, 0.8 + 0j)),
                  MatrixLit(((0, 1), (1, 0)))):
            assert render_value(v) == pretty(v)

    def test_checker_values(self):
        assert render_value("qa") == "qa"
        assert render_value(UNKNOWN) == "unknown"
        assert render_value((UNKNOWN, ("qa", False))) \
            == "(unknown, (qa, false))"
        assert render_value(GhostRef("g")) == "g"
        assert render_value((GhostRef("g"), None)) == "(g, ())"


class TestRuntimeAssertions:
    def bell_state(self):
        s, qa = alloc(QuantumState(), False)
        s, qb = alloc(s, False)
        s = apply_unitary(s, Rot(qa, GATES["H"]))
        s = apply_unitary(s, if_q(qa, Rot(qb, GATES["X"])))
        return s, qa, qb

    def test_id_on_booleans(self):
        a = IdAt(None, Emb(Var("r")), BoolLit(False))
        assert check_assertion_runtime(a, {"r": False}, QuantumState()) \
            is True
        assert check_assertion_runtime(a, {"r": True}, QuantumState()) \
            is False

    def test_entangled_half_bell(self):
        # partial-trace oracle: reduced purity of half a Bell pair is 1/2
        s, qa, qb = self.bell_state()
        rho = reduced_density(*s.cells[s.index(qa)], qa)
        purity = float(np.real(np.trace(rho @ rho)))
        assert abs(purity - 0.5) < 1e-9
        a = Entangled(Emb(Var("e")))
        assert check_assertion_runtime(a, {"e": qa}, s) is True

    def test_entangled_product_state(self):
        s, q = alloc(QuantumState(), False)
        s, q2 = alloc(s, True)
        a = Entangled(Emb(Var("e")))
        assert check_assertion_runtime(a, {"e": q}, s) is False

    def test_qubit_against_ket_fidelity(self):
        s, q = alloc(QuantumState(), False)
        s = apply_unitary(s, Rot(q, GATES["H"]))
        a = IdAt(None, Emb(Var("r")), Ket("+"))
        assert check_assertion_runtime(a, {"r": q}, s) is True
        b = IdAt(None, Emb(Var("r")), Ket("-"))
        assert check_assertion_runtime(b, {"r": q}, s) is False

    def test_entangled_qubit_uncheckable_against_ket(self):
        s, qa, qb = self.bell_state()
        a = IdAt(None, Emb(Var("r")), Ket("0"))
        assert check_assertion_runtime(a, {"r": qa}, s) is UNKNOWN

    def test_measured_qubit_uncheckable(self):
        s, q = alloc(QuantumState(), False)
        _, s = measure(s, q, shot_rng(1, 0))
        a = IdAt(None, Emb(Var("r")), Ket("0"))
        assert check_assertion_runtime(a, {"r": q}, s) is UNKNOWN
        b = IdAt(None, Emb(Var("r")), Emb(Var("r")))
        assert check_assertion_runtime(b, {"r": q}, s) is UNKNOWN

    def test_postcondition_on_measured_qubit_counts_per_shot(self):
        prog = parse_program(
            "f : {emp} r : Qbit {Id(r, |0\\>)} = do q <= mkQbit false; "
            "b <= measQbit q; return q").program
        rep = run_program(prog, "f", seed=1, shots=20)
        assert rep.errors == 0
        assert rep.as_dict()["assertions"] == [
            {"text": "Id(r, |0\\>)", "pass": 0, "fail": 0,
             "uncheckable": 20}]

    def test_emp(self):
        assert check_assertion_runtime(Emp(), {}, QuantumState()) is True
        s, _ = alloc(QuantumState(), False)
        assert check_assertion_runtime(Emp(), {}, s) is False

    def test_quantified_uncheckable(self):
        a = ForallHeap("h", Top())
        assert check_assertion_runtime(a, {}, QuantumState()) is UNKNOWN

    def test_a_bool_is_not_a_qubit(self):
        # true == 1 in Python, but a Bool never names qubit 1
        s, qa = alloc(QuantumState(), False)
        s, qb = alloc(s, True)
        assert qb == 1  # the qubit that true would alias
        r = Emb(Var("r"))
        env = {"r": True, "q": qb}
        for a in (PointsTo(r, Ket("1")), Entangled(r),
                  IdAt(None, r, Emb(Var("q"))), IdAt(None, Emb(Var("q")), r)):
            assert check_assertion_runtime(a, env, s) is UNKNOWN, pretty(a)
        assert check_assertion_runtime(
            IdAt(None, Emb(Var("q")), Ket("1")), env, s) is True

    def test_a_bool_result_is_not_a_qubit_when_run(self):
        prog = parse_program(
            "f : {emp} r : Bool {Id(r, true) /\\ r ~> -}\n"
            "  = do a <= mkQbit false; b <= mkQbit false; return true\n"
            "g : {emp} (r, q) : (Bool, Qbit) {Id(r, q) /\\ Id(q, r)}\n"
            "  = do a <= mkQbit false; b <= mkQbit true; return (true, b)\n"
        ).program
        f = run_program(prog, "f", seed=1, shots=10).as_dict()
        assert f["assertions"] == [
            {"text": "Id(r, true)", "pass": 10, "fail": 0, "uncheckable": 0},
            {"text": "r ~> -", "pass": 0, "fail": 0, "uncheckable": 10}]
        g = run_program(prog, "g", seed=1, shots=10).as_dict()
        assert g["assertions"] == [
            {"text": text, "pass": 0, "fail": 0, "uncheckable": 10}
            for text in ("Id(q, r)", "Id(r, q)")]
