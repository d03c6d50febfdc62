"""Symbolic heap transformers: initialization, unitaries, measurement,
and trace rendering."""

import random

import numpy as np
import pytest

import functools

from qhoare.core import (
    And, BoolLit, Emb, Emp, IdAt, Ket, KET_AMPS, KetVec, Or, PointsTo, Var,
    pretty,
)
from qhoare.heap import (
    ApplyResult, Cell, EMPTY_DELTA, HeapDelta, HeapError, SymbolicHeap,
    SymState, UNKNOWN_STATE, basis_claim, cell_assertion, classical_to_state,
    concrete, delta_assertion, footprint_qubits, heap_from_assertion,
    heap_to_assertions,
    opaque, sp_apply_unitary, sp_init, sp_measure,
    state_expr, unitary_matrix, _close, _merge_states, _phase_canonical,
)
from qhoare.sim import Cond, MEmpty, Rot, if_q, GATES

S = 2 ** -0.5


# --- independent oracles -----------------------------------------------------

def oracle_project(vec, qubit_pos, n, value):
    """Measurement projection oracle: direct index filtering."""
    out = []
    for idx, amp in enumerate(vec):
        bit = (idx >> (n - 1 - qubit_pos)) & 1
        if bit == (1 if value else 0):
            out.append(amp)
    out = np.asarray(out, dtype=complex)
    weight = np.linalg.norm(out)
    return (out / weight if weight > 0 else out), weight ** 2


def oracle_tensor(*vecs):
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = np.kron(out, np.asarray(v, dtype=complex))
    return out


def up_to_phase(u, v, tol=1e-9):
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    return abs(abs(np.vdot(u, v)) - 1.0) < tol


def h_of(*cells):
    return SymbolicHeap(tuple(cells))


KET0 = concrete([1, 0])
KET1 = concrete([0, 1])
KETP = concrete([S, S])
KETM = concrete([S, -S])
PHIP = concrete([S, 0, 0, S])


class TestSymState:
    def test_amplitudes_are_read_only(self):
        state = concrete([S, S])
        with pytest.raises(ValueError):
            state.amps[0] = 1

    def test_signed_zeros_are_equal(self):
        # the render memo keys on states, so equal amplitudes must hash equal
        a = SymState("concrete", (complex(0.0, 0.0), complex(1.0, 0.0)))
        b = SymState("concrete", (complex(-0.0, -0.0), complex(1.0, -0.0)))
        assert a == b and hash(a) == hash(b)
        assert a != SymState("concrete", (0j, 1 + 0j), exact=False)
        assert a != SymState("concrete", (1e-300j, 1 + 0j))


class TestClassicalToState:
    def test_false_is_ket0(self):
        assert tuple(classical_to_state(False).amps) == (1 + 0j, 0j)

    def test_true_is_ket1(self):
        assert tuple(classical_to_state(True).amps) == (0j, 1 + 0j)

    def test_init_then_measure_round_trips(self):
        for b in (False, True):
            heap, _ = sp_init(SymbolicHeap(), b, "q")
            branches = sp_measure(heap, "q")
            assert [br.outcome for br in branches] == [b]


class TestInit:
    def test_on_empty(self):
        heap, delta = sp_init(SymbolicHeap(), False, "qa")
        assert heap.cells == (Cell(("qa",), KET0),)
        assert delta == HeapDelta((), (Cell(("qa",), KET0),))

    def test_frame_preservation_bit_identical(self):
        existing = Cell(("qa",), KETP)
        heap, _ = sp_init(h_of(existing), False, "qb")
        assert heap.cells[0] is existing
        assert len(heap.cells) == 2

    def test_true_init(self):
        heap, _ = sp_init(SymbolicHeap(), True, "q")
        assert heap.cells[0].state == KET1

    def test_name_collision_rejected(self):
        heap, _ = sp_init(SymbolicHeap(), False, "q")
        with pytest.raises(HeapError):
            sp_init(heap, False, "q")


class TestApplyUnitary:
    def test_hadamard_on_ket0(self):
        heap = h_of(Cell(("qa",), KET0))
        res = sp_apply_unitary(heap, Rot("qa", GATES["H"]))
        assert not res.residual
        assert up_to_phase(res.heap.cells[0].state.amps, [S, S])

    def test_cnot_merges_into_bell_cell(self):
        heap = h_of(Cell(("qa",), KETP), Cell(("qb",), KET0))
        res = sp_apply_unitary(heap, if_q("qa", Rot("qb", GATES["X"])))
        assert len(res.heap.cells) == 1
        cell = res.heap.cells[0]
        assert cell.qubits == ("qa", "qb")
        assert up_to_phase(cell.state.amps, [S, 0, 0, S])

    def test_mempty_is_identity(self):
        heap = h_of(Cell(("qa",), KETP))
        res = sp_apply_unitary(heap, MEmpty())
        assert res.heap is heap
        assert res.delta == EMPTY_DELTA

    def test_untouched_cells_bit_identical(self):
        other = Cell(("qc",), KETM)
        heap = h_of(Cell(("qa",), KET0), other)
        res = sp_apply_unitary(heap, Rot("qa", GATES["X"]))
        assert other in res.heap.cells

    def test_opaque_state_gives_unknown_and_residual(self):
        heap = h_of(Cell(("qa",), opaque("x")))
        res = sp_apply_unitary(heap, Rot("qa", GATES["H"]))
        assert res.residual
        assert res.heap.cells[0].state.kind == "unknown"

    def test_unallocated_footprint_rejected(self):
        with pytest.raises(HeapError):
            sp_apply_unitary(SymbolicHeap(), Rot("qa", GATES["X"]))

    def test_memo_returns_its_cell_for_bit_equal_cells_only(self):
        # an equal state in another array is a hit; a state that differs
        # in the sign of a zero, or the same amplitudes over the qubits in
        # another order, is applied afresh
        memo, u = {}, Rot("qa", GATES["X"])
        first = sp_apply_unitary(h_of(Cell(("qa", "qb"), PHIP)), u, memo)
        again = sp_apply_unitary(
            h_of(Cell(("qa", "qb"), concrete([S, 0, 0, S]))), u, memo)
        assert again.delta.produced[0] is first.delta.produced[0]
        for cell in (Cell(("qa", "qb"), concrete([S, -0.0, 0, S])),
                     Cell(("qb", "qa"), PHIP)):
            res = sp_apply_unitary(h_of(cell), u, memo)
            fresh = sp_apply_unitary(h_of(cell), u)
            assert res.delta.produced[0] is not first.delta.produced[0]
            assert res.delta.produced == fresh.delta.produced
        assert len(memo) == 3

    def test_matrix_against_direct_kron(self):
        # dense route against an independent kron computation
        mat = unitary_matrix(Rot("b", GATES["H"]), ("a", "b"))
        expected = np.kron(np.eye(2), np.asarray(GATES["H"]))
        assert np.allclose(mat, expected)

    def test_cond_matrix_blocks(self):
        mat = unitary_matrix(Cond("a", MEmpty(), Rot("b", GATES["X"])),
                             ("a", "b"))
        x = np.asarray(GATES["X"], dtype=complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = np.eye(2)
        expected[2:, 2:] = x
        assert np.allclose(mat, expected)


class TestMeasure:
    def test_ket0_single_branch(self):
        # |1> amplitude is 0; the projection oracle confirms one branch
        heap = h_of(Cell(("q",), KET0))
        _, p_true = oracle_project([1, 0], 0, 1, True)
        assert p_true == 0
        branches = sp_measure(heap, "q")
        assert len(branches) == 1
        assert branches[0].outcome is False
        assert branches[0].heap.cells == ()

    def test_bell_measurement_branches(self):
        # oracle: projecting |Phi+> at the first qubit
        vec = [S, 0, 0, S]
        rest_false, p_false = oracle_project(vec, 0, 2, False)
        rest_true, p_true = oracle_project(vec, 0, 2, True)
        assert abs(p_false - 0.5) < 1e-12 and abs(p_true - 0.5) < 1e-12

        heap = h_of(Cell(("qa", "qb"), PHIP))
        branches = sp_measure(heap, "qa")
        assert [b.outcome for b in branches] == [False, True]
        got_false = branches[0].heap.find("qb").state.amps
        got_true = branches[1].heap.find("qb").state.amps
        assert up_to_phase(got_false, rest_false)
        assert up_to_phase(got_true, rest_true)
        assert up_to_phase(got_false, [1, 0])
        assert up_to_phase(got_true, [0, 1])

    def test_unallocated_is_static_error(self):
        with pytest.raises(HeapError):
            sp_measure(SymbolicHeap(), "nowhere")

    def test_plus_measurement_both_branches(self):
        heap = h_of(Cell(("q",), KETP))
        branches = sp_measure(heap, "q")
        assert [b.outcome for b in branches] == [False, True]

    def test_delta_shape(self):
        heap = h_of(Cell(("q",), KET0))
        (branch,) = sp_measure(heap, "q")
        assert pretty(delta_assertion(branch.delta)) == "((q |-> -) -o emp)"

    def test_literal_rule_unconstrained_outcome(self):
        heap = h_of(Cell(("qa", "qb"), PHIP))
        branches = sp_measure(heap, "qa", refine=False)
        assert len(branches) == 1
        assert branches[0].outcome is None
        assert branches[0].heap.find("qb").state.kind == "unknown"

    def test_literal_rule_keeps_product_rest(self):
        prod = concrete(oracle_tensor([1, 0], [S, S]))
        heap = h_of(Cell(("qa", "qb"), prod))
        (branch,) = sp_measure(heap, "qa", refine=False)
        assert up_to_phase(branch.heap.find("qb").state.amps, [S, S])

    def test_unknown_cell_unknown_branches(self):
        heap = h_of(Cell(("qa", "qb"), UNKNOWN_STATE))
        branches = sp_measure(heap, "qa")
        assert [b.outcome for b in branches] == [False, True]
        for b in branches:
            assert b.heap.find("qb").state.kind == "unknown"


class TestRendering:
    # how a trace step composes these deltas is pinned by the
    # testbell_trace.txt golden
    def test_empty_chain(self):
        assert EMPTY_DELTA.is_empty()
        assert delta_assertion(EMPTY_DELTA) == Emp()

    def test_init_then_hadamard_chain(self):
        heap0 = SymbolicHeap()
        heap1, d1 = sp_init(heap0, False, "qa")
        res = sp_apply_unitary(heap1, Rot("qa", GATES["H"]))
        assert [pretty(delta_assertion(d)) for d in (d1, res.delta)] == [
            "qa |-> |0\\>", "((qa |-> |0\\>) -o (qa |-> |+\\>))"]

    def test_measurement_chain(self):
        heap = h_of(Cell(("qa",), KETP), Cell(("qb",), KET0))
        b1 = sp_measure(heap, "qa")[0]
        b2 = sp_measure(b1.heap, "qb")[0]
        assert [pretty(delta_assertion(d)) for d in (b1.delta, b2.delta)] \
            == ["((qa |-> -) -o emp)", "((qb |-> -) -o emp)"]

    def test_merged_cell_rendering(self):
        heap = h_of(Cell(("qa",), KETP), Cell(("qb",), KET0))
        res = sp_apply_unitary(heap, if_q("qa", Rot("qb", GATES["X"])))
        assert pretty(delta_assertion(res.delta)) == \
            "((qa |-> |+\\>, qb |-> |0\\>) -o (qa, qb) |-> |\\Phi+\\>)"

    def test_amplitude_rounding_matches_round_per_amplitude(self):
        # reference: round() on every part of every amplitude, kept to
        # the bit (signed zeros included)
        rng = random.Random(5)
        parts = [0.0, -0.0, 1e-13, -4e-13, 5e-13, 1.5e-12, S, -S, 0.5]
        for _ in range(200):
            n = rng.choice([4, 8, 16])
            amps = tuple(complex(rng.choice(parts + [rng.gauss(0, 1)]),
                                 rng.choice(parts + [rng.gauss(0, 1)]))
                         for _ in range(n))
            state = SymState("concrete", amps)
            want = tuple(complex(round(z.real, 12) + 1j * round(z.imag, 12))
                         for z in _phase_canonical(state.amps))
            got = state_expr(state)
            assert isinstance(got, KetVec)
            assert repr(got.amps) == repr(want)


    def test_ket_matching_matches_allclose_per_ket(self):
        # reference: the first ket of KET_AMPS that np.allclose accepts
        rng = np.random.default_rng(11)
        refs = [np.asarray(a) for a in KET_AMPS.values()]
        seen = set()
        for _ in range(400):
            ref = refs[rng.integers(len(refs))]
            # relative size of a perturbation against the tolerance
            scale = rng.choice([0.0, 0.5, 0.99, 1.01, 2.0, 1e4])
            noise = rng.normal(size=len(ref)) + 1j * rng.normal(size=len(ref))
            noise *= scale * (1e-9 + 1e-5 * np.abs(ref)) / np.abs(noise)
            phase = np.exp(2j * np.pi * rng.random())
            amps = tuple((phase * (ref + noise)).tolist())
            vec = _phase_canonical(SymState("concrete", amps).amps)
            want = next((k for k, a in KET_AMPS.items() if len(a) == len(vec)
                         and np.allclose(vec, np.asarray(a), atol=1e-9)),
                        None)
            got = state_expr(SymState("concrete", amps))
            seen.add(want is None)
            if want is None:
                assert isinstance(got, KetVec)
            else:
                assert got == Ket(want)
            other = refs[rng.integers(len(refs))]
            if len(other) == len(vec):
                assert bool(_close(vec, other)) == \
                    np.allclose(vec, other, atol=1e-9)
        assert seen == {True, False}

    def test_merge_states_matches_allclose(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(200):
            n = rng.choice([2, 4])
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            a /= np.linalg.norm(a)
            eps = rng.choice([0.0, 0.5e-9, 0.99e-5, 1.01e-5, 1e-3])
            b = a * np.exp(2j * np.pi * rng.random()) + eps * np.abs(a)
            b /= np.linalg.norm(b)
            sa = SymState("concrete", tuple(a.tolist()), exact=True)
            sb = SymState("concrete", tuple(b.tolist()), exact=True)
            close = np.allclose(_phase_canonical(sa.amps),
                                _phase_canonical(sb.amps), atol=1e-9)
            seen.add(close)
            # two exact states merge to the first when close, else clash
            assert _merge_states(sa, sb) == (sa if close else None)
        assert seen == {True, False}


def phase_canonical_loop(vec):
    """``_phase_canonical`` as it scanned the vector before numpy did."""
    for z in vec:
        if abs(z) > 1e-12:
            return vec * (abs(z) / z)
    return vec


def _phase_inputs():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8, 64):
        yield rng.normal(size=n) + 1j * rng.normal(size=n)
    for lead in (1e-13, -1e-13j, 1e-12, 2e-12, -2e-12j, 2e-12 + 2e-12j):
        for k in (1, 3):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v[:k] = lead
            yield v
    yield np.zeros(16, dtype=complex)
    for phase in (1, -1, 1j, (1 - 1j) * S):
        ones = np.zeros(16, dtype=complex)
        ones[-1] = phase
        yield ones


@pytest.mark.parametrize("vec", _phase_inputs())
def test_phase_canonical_matches_loop(vec):
    got, want = _phase_canonical(vec), phase_canonical_loop(vec)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestProperties:
    def rand_heap(self, rng):
        cells = []
        names = iter("abcdef")
        for _ in range(rng.randrange(1, 4)):
            q = next(names)
            amps = rng.choice([[1, 0], [0, 1], [S, S], [S, -S]])
            cells.append(Cell((q,), concrete(amps)))
        return SymbolicHeap(tuple(cells))

    def test_frame_and_disjointness_and_norm(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(220):
            heap = self.rand_heap(rng)
            qubits = sorted(heap.qubits())
            q = rng.choice(qubits)
            gate = rng.choice(["H", "X", "Y", "Z"])
            op = rng.choice(["unitary", "measure", "init"])
            if op == "unitary":
                res = sp_apply_unitary(heap, Rot(q, GATES[gate]))
                after = [res.heap]
                touched = {q}
            elif op == "measure":
                branches = sp_measure(heap, q)
                after = [b.heap for b in branches]
                touched = set(heap.find(q).qubits)
            else:
                fresh = "z"
                heap2, _ = sp_init(heap, rng.random() < 0.5, fresh)
                after = [heap2]
                touched = {fresh}
            for h2 in after:
                # frame: untouched cells are bit-identical objects
                for cell in heap.cells:
                    if not (set(cell.qubits) & touched):
                        assert cell in h2.cells
                # disjointness
                seen = set()
                for cell in h2.cells:
                    for qq in cell.qubits:
                        assert qq not in seen
                        seen.add(qq)
                # unit norm of concrete states
                for cell in h2.cells:
                    if cell.state.kind == "concrete":
                        assert abs(np.linalg.norm(cell.state.amps) - 1) \
                            < 1e-9
            checked += 1
        assert checked >= 200

    def test_branch_probability_completeness(self):
        rng = random.Random(5)
        for _ in range(220):
            # random normalized 2-qubit state
            raw = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1)
                            for _ in range(4)])
            raw /= np.linalg.norm(raw)
            heap = h_of(Cell(("a", "b"), concrete(raw)))
            total = 0.0
            for value in (False, True):
                _, p = oracle_project(raw, 0, 2, value)
                total += p
            assert abs(total - 1.0) < 1e-9
            branches = sp_measure(heap, "a")
            weights = []
            for b in branches:
                _, p = oracle_project(raw, 0, 2, b.outcome)
                weights.append(p)
            assert abs(sum(weights) - 1.0) < 1e-9


class TestHeapFromAssertion:
    def kind_of(self, name):
        return {"q": "qubit", "a": "qubit", "b": "qubit", "x": "pure",
                "m": "bool"}.get(name, "unknown")

    def test_emp(self):
        assert heap_from_assertion(Emp(), self.kind_of)[0].heap.cells == ()

    def test_round_trip_single_cell(self):
        heap = h_of(Cell(("q",), KETP))
        (assn,) = heap_to_assertions(heap)
        branches = heap_from_assertion(assn, self.kind_of)
        assert len(branches) == 1
        assert branches[0].heap.cells == (Cell(("q",), KETP),)


class TestLongChains:
    """The denotation and the footprint of an assertion loop along the left
    spine of a connective chain, so a long written postcondition needs no
    deeper stack at the default recursion limit."""

    @staticmethod
    def kind_of(name):
        return "qubit" if name.startswith("q") else "bool"

    def test_conjunction_of_5000_bindings_is_one_branch(self):
        atoms = [IdAt(None, Emb(Var(f"b{i}")), BoolLit(i % 2 == 0))
                 for i in range(5000)]
        (branch,) = heap_from_assertion(functools.reduce(And, atoms),
                                        self.kind_of)
        assert branch.heap == SymbolicHeap()
        assert list(branch.env.items()) == [
            (f"b{i}", i % 2 == 0) for i in range(5000)]

    def test_disjunction_of_5000_cells_is_5000_branches_in_order(self):
        atoms = [PointsTo(Emb(Var(f"q{i}")), Ket("+")) for i in range(5000)]
        branches = heap_from_assertion(functools.reduce(Or, atoms),
                                       self.kind_of)
        assert [b.heap.cells[0].qubits for b in branches] == [
            (f"q{i}",) for i in range(5000)]
        assert footprint_qubits(functools.reduce(Or, atoms),
                                self.kind_of) == [f"q{i}" for i in range(5000)]

    def test_mixed_chains_keep_their_order(self):
        q = [PointsTo(Emb(Var(f"q{i}")), Ket("0")) for i in range(4)]
        a = Or(And(q[0], Or(q[1], q[2])), q[3])
        assert footprint_qubits(a, self.kind_of) == ["q0", "q1", "q2", "q3"]
        assert [[c.qubits for c in b.heap.cells]
                for b in heap_from_assertion(a, self.kind_of)] == [
            [("q0",), ("q1",)], [("q0",), ("q2",)], [("q3",)]]
