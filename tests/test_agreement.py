"""Oracle equivalence: simulator runs stay within the symbolic branch set.

For every corpus program and 100 seeds, the final concrete state and the
outcome values must match one branch predicted during checking: exact
symbolic states up to global phase at 1e-9, relational (inexact) states by
basis support, unknown states vacuously.  Qubit names align with simulator
indices in allocation order, which for this corpus is also name order.
"""

import cmath
import math
import random

import numpy as np
import pytest

from qhoare.heap import Cell, SymbolicHeap, concrete, sp_apply_unitary
from qhoare.parser import parse_program
from qhoare.prover import POSTCONDITION
from qhoare.sim import (
    GATES, Cond, Interpreter, MAppend, MEmpty, QuantumState, Rot, alloc,
    apply_unitary, dense_vector, shot_rng, states_equal_up_to_phase,
)
from qhoare.typecheck import check_program
from conftest import CORPUS_DIR


def final_branches(checked, name):
    dr = checked.decl(name)
    assert dr.error is None
    for ob in dr.obligations:
        if ob.kind == POSTCONDITION and "postcondition" in ob.note:
            return ob.models
    raise AssertionError("no postcondition obligation recorded")


def outcome_env_matches(model, binder, value):
    names = binder if isinstance(value, tuple) else binder[:1]
    values = value if isinstance(value, tuple) else (value,)
    for n, v in zip(names, values):
        if isinstance(v, bool):
            bound = model.env.get(n)
            if isinstance(bound, bool) and bound != v:
                return False
    return True


def _cell_positions(model, state):
    live = sorted(state.live)
    names = sorted(q for c in model.heap.cells for q in c.qubits)
    if len(live) != len(names):
        return None
    index_of = dict(zip(names, live))
    return {q: state.live.index(index_of[q]) for q in index_of}


def exact_cells_match(model, state):
    positions = _cell_positions(model, state)
    if positions is None:
        return False
    vec = dense_vector(state)
    n = len(state.live)
    for cell in model.heap.cells:
        st = cell.state
        if st.kind != "concrete" or not st.exact:
            continue
        pos = [positions[q] for q in cell.qubits]
        if len(cell.qubits) == n:
            perm = np.transpose(
                vec.reshape([2] * n),
                pos + [i for i in range(n) if i not in pos]).reshape(-1)
            if not states_equal_up_to_phase(perm, st.vector()):
                return False
        # joint factor checks for proper sub-cells are not needed for
        # this corpus: exact cells always span the whole final state
    return True


def component_matches(component, model, state):
    """Basis component agrees with the branch's relational claims."""
    positions = _cell_positions(model, state)
    if positions is None:
        return False
    for cell in model.heap.cells:
        st = cell.state
        if st.kind != "concrete" or st.exact:
            continue
        v = st.vector()
        idx = int(np.argmax(np.abs(v)))
        k = len(cell.qubits)
        branch_bits = tuple(bool((idx >> (k - 1 - j)) & 1)
                            for j in range(k))
        got = tuple(bool(component[positions[q]]) for q in cell.qubits)
        if got != branch_bits:
            return False
    return True


def state_within_branches(models, binder, value, state):
    """Every nonzero basis component and the outcome values must be
    covered by at least one predicted branch."""
    vec = dense_vector(state)
    n = len(state.live)
    components = [key for key, amp in
                  zip(np.ndindex(*([2] * n)), vec.reshape(-1))
                  if abs(amp) > 1e-9]
    candidates = [m for m in models
                  if outcome_env_matches(m, binder, value)
                  and exact_cells_match(m, state)]
    if not candidates:
        return False
    return all(any(component_matches(c, m, state) for m in candidates)
               for c in components)


NULLARY = [
    ("hqw.qh", "hqw"),
    ("rnd.qh", "rnd"),
    ("testbell.qh", "testBell"),
    ("bellpair.qh", "qplus"),
    ("bellpair.qh", "qminus"),
    ("bellpair.qh", "bell"),
    ("bellpair.qh", "testBell"),
    ("teleport.qh", "bell"),
]


@pytest.mark.parametrize("fname,decl", NULLARY,
                         ids=[f"{f}:{d}" for f, d in NULLARY])
def test_simulator_within_symbolic_branches(fname, decl):
    program = parse_program((CORPUS_DIR / fname).read_text()).program
    checked = check_program(program)
    models = final_branches(checked, decl)
    sig = program.decl(decl).signature
    interp = Interpreter(program)
    for seed in range(100):
        value, state = interp.call(decl, [], QuantumState(),
                                   shot_rng(seed, 0))
        assert state_within_branches(models, sig.binder, value, state), \
            (fname, decl, seed, value)


def test_intermediate_states_agree_on_bell_preparation():
    """Drive the symbolic and concrete pipelines command by command and
    compare states after every prefix of the Bell preparation."""
    from qhoare.heap import sp_init
    from qhoare.sim import if_q

    sym = SymbolicHeap()
    conc = QuantumState()

    sym, _ = sp_init(sym, False, "qa")
    conc, qa = alloc(conc, False)
    assert states_equal_up_to_phase(
        np.asarray(sym.find("qa").state.amps), dense_vector(conc))

    sym = sp_apply_unitary(sym, Rot("qa", GATES["H"])).heap
    conc = apply_unitary(conc, Rot(qa, GATES["H"]))
    assert states_equal_up_to_phase(
        np.asarray(sym.find("qa").state.amps), dense_vector(conc))

    sym, _ = sp_init(sym, False, "qb")
    conc, qb = alloc(conc, False)

    sym = sp_apply_unitary(sym, if_q("qa", Rot("qb", GATES["X"]))).heap
    conc = apply_unitary(conc, if_q(qa, Rot(qb, GATES["X"])))
    cell = sym.find("qa")
    assert cell.qubits == ("qa", "qb")
    assert states_equal_up_to_phase(np.asarray(cell.state.amps),
                                    dense_vector(conc))


def test_share_with_plus_input_within_branches():
    program = parse_program((CORPUS_DIR / "bellpair.qh").read_text()).program
    checked = check_program(program)
    models = final_branches(checked, "share")
    sig = program.decl("share").signature.codomain
    interp = Interpreter(program)
    matched_exact = 0
    for seed in range(100):
        state = QuantumState()
        state, q = alloc(state, False)
        state = apply_unitary(state, Rot(q, GATES["H"]))
        value, state = interp.call("share", [q], state, shot_rng(seed, 0))
        assert state_within_branches(models, sig.binder, value, state)
        phip = np.array([2 ** -0.5, 0, 0, 2 ** -0.5])
        if states_equal_up_to_phase(dense_vector(state), phip):
            matched_exact += 1
    assert matched_exact == 100


# --- tensor route (heap) against the sparse route (sim) ----------------------

def random_rotation(rng):
    if rng.random() < 0.3:
        return GATES[rng.choice(sorted(GATES))]
    alpha, beta, gamma = (rng.uniform(0, 2 * math.pi) for _ in range(3))
    theta = rng.uniform(0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    g = cmath.exp(1j * alpha)
    return ((g * cmath.exp(1j * beta) * c, g * cmath.exp(1j * gamma) * s),
            (-g * cmath.exp(-1j * gamma) * s, g * cmath.exp(-1j * beta) * c))


def random_unitary_expr(rng, qubits, conds_left=2):
    """MAppend chain of up to four rotations and quantum conditionals;
    conditionals nest ``conds_left`` deep and control any qubit."""
    u = MEmpty()
    for _ in range(rng.randrange(5)):
        if conds_left and len(qubits) > 1 and rng.random() < 0.5:
            q = rng.choice(qubits)
            rest = [p for p in qubits if p != q]
            piece = Cond(q, random_unitary_expr(rng, rest, conds_left - 1),
                         random_unitary_expr(rng, rest, conds_left - 1))
        else:
            piece = Rot(rng.choice(qubits), random_rotation(rng))
        u = MAppend(u, piece) if rng.random() < 0.8 else MAppend(piece, u)
    return u


def random_cells(rng, n):
    """Random normalized cells partitioning qubits 0..n-1, shuffled."""
    qubits = list(range(n))
    rng.shuffle(qubits)
    cells = []
    while qubits:
        k = rng.randint(1, len(qubits))
        group, qubits = tuple(qubits[:k]), qubits[k:]
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                for _ in range(2 ** k)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        cells.append(Cell(group, concrete([a / norm for a in amps])))
    return cells


def heap_dense(cells, n):
    """Dense vector of a product of cells over qubits 0..n-1 in order."""
    t, names = np.ones((), dtype=complex), []
    for c in cells:
        factor = c.state.vector().reshape((2,) * len(c.qubits))
        t = np.multiply.outer(t, factor)
        names += c.qubits
    return np.transpose(t, [names.index(q) for q in range(n)]).reshape(-1)


@pytest.mark.parametrize("seed", range(40))
def test_tensor_route_matches_sparse_route(seed):
    rng = random.Random(seed)
    for _ in range(5):
        n = rng.randint(1, 8)
        cells = random_cells(rng, n)
        u = random_unitary_expr(rng, list(range(n)))
        before = heap_dense(cells, n)
        amps = {tuple(map(bool, key)): amp for key, amp in
                zip(np.ndindex(*([2] * n)), before.tolist())}
        conc = apply_unitary(QuantumState(range(n), amps, n), u)
        sym = sp_apply_unitary(SymbolicHeap(tuple(cells)), u)
        assert not sym.residual
        got, want = heap_dense(sym.heap.cells, n), dense_vector(conc)
        overlap = np.vdot(got, want)
        phase = overlap / abs(overlap)
        assert np.max(np.abs(got * phase - want)) <= 1e-12, (seed, n, u)
