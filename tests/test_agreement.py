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
    apply_unitary, shot_rng, states_equal_up_to_phase,
)
from qhoare.typecheck import check_program
from conftest import CORPUS_DIR, state_vector


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


def _cell_positions(model, live):
    """Position in ``live`` (allocation order) of each qubit name of the
    model's heap, names aligned with qubits in sorted order."""
    names = sorted(q for c in model.heap.cells for q in c.qubits)
    if len(live) != len(names):
        return None
    return {q: i for i, q in enumerate(names)}


def exact_cells_match(model, live, vec):
    positions = _cell_positions(model, live)
    if positions is None:
        return False
    n = len(live)
    for cell in model.heap.cells:
        st = cell.state
        if st.kind != "concrete" or not st.exact:
            continue
        pos = [positions[q] for q in cell.qubits]
        if len(cell.qubits) == n:
            perm = np.transpose(
                vec.reshape([2] * n),
                pos + [i for i in range(n) if i not in pos]).reshape(-1)
            if not states_equal_up_to_phase(perm, st.amps):
                return False
        # joint factor checks for proper sub-cells are not needed for
        # this corpus: exact cells always span the whole final state
    return True


def component_matches(component, model, live):
    """Basis component agrees with the branch's relational claims."""
    positions = _cell_positions(model, live)
    if positions is None:
        return False
    for cell in model.heap.cells:
        st = cell.state
        if st.kind != "concrete" or st.exact:
            continue
        v = st.amps
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
    live, vec = state_vector(state)
    components = [key for key, amp in
                  zip(np.ndindex(*([2] * len(live))), vec)
                  if abs(amp) > 1e-9]
    candidates = [m for m in models
                  if outcome_env_matches(m, binder, value)
                  and exact_cells_match(m, live, vec)]
    if not candidates:
        return False
    return all(any(component_matches(c, m, live) for m in candidates)
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
        np.asarray(sym.find("qa").state.amps), state_vector(conc)[1])

    sym = sp_apply_unitary(sym, Rot("qa", GATES["H"])).heap
    conc = apply_unitary(conc, Rot(qa, GATES["H"]))
    assert states_equal_up_to_phase(
        np.asarray(sym.find("qa").state.amps), state_vector(conc)[1])

    sym, _ = sp_init(sym, False, "qb")
    conc, qb = alloc(conc, False)

    sym = sp_apply_unitary(sym, if_q("qa", Rot("qb", GATES["X"]))).heap
    conc = apply_unitary(conc, if_q(qa, Rot(qb, GATES["X"])))
    cell = sym.find("qa")
    assert cell.qubits == ("qa", "qb")
    assert states_equal_up_to_phase(np.asarray(cell.state.amps),
                                    state_vector(conc)[1])


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
        if states_equal_up_to_phase(state_vector(state)[1], phip):
            matched_exact += 1
    assert matched_exact == 100


# --- the tensor kernel, in the checker and at runtime, against a sparse route

def sparse_apply(amps, u):
    """Apply ``u`` to ``amps``, a map from basis tuples over qubits 0..n-1
    to amplitudes, one basis state at a time: a reference that shares no
    code with the tensor kernel."""
    match u:
        case MEmpty():
            return amps
        case MAppend(a, b):
            return sparse_apply(sparse_apply(amps, a), b)
        case Rot(q, m):
            out = {}
            for key, amp in amps.items():
                for bit in (0, 1):
                    image = key[:q] + (bit,) + key[q + 1:]
                    out[image] = out.get(image, 0j) + m[bit][key[q]] * amp
            return out
        case Cond(q, fb, tb):
            parts = ({}, {})
            for key, amp in amps.items():
                parts[key[q]][key] = amp
            out = sparse_apply(parts[0], fb)
            out.update(sparse_apply(parts[1], tb))
            return out
    raise AssertionError(u)


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


def runtime_state(cells):
    """The runtime state holding the vectors of exact heap cells over
    qubits 0..n-1."""
    n = sum(len(c.qubits) for c in cells)
    return QuantumState(tuple((c.qubits, c.state.amps) for c in cells), n)


@pytest.mark.parametrize("seed", range(40))
def test_tensor_route_matches_sparse_route(seed):
    rng = random.Random(seed)
    for _ in range(5):
        n = rng.randint(1, 8)
        cells = random_cells(rng, n)
        u = random_unitary_expr(rng, list(range(n)))
        basis = list(np.ndindex(*([2] * n)))
        before = state_vector(runtime_state(cells))[1]
        amps = sparse_apply(dict(zip(basis, before)), u)
        want = np.array([amps.get(key, 0j) for key in basis])
        sym = sp_apply_unitary(SymbolicHeap(tuple(cells)), u)
        assert not sym.residual
        run = apply_unitary(runtime_state(cells), u)
        # both engines make one cell of the touched ones, bit for bit
        # (none where u touches no qubit)
        for cell in sym.delta.produced:
            assert run.cells[-1][0] == cell.qubits
            assert np.array_equal(run.cells[-1][1], cell.state.amps)
        for state in (runtime_state(sym.heap.cells), run):
            got = state_vector(state)[1]
            overlap = np.vdot(got, want)
            phase = overlap / abs(overlap)
            assert np.max(np.abs(got * phase - want)) <= 1e-12, (seed, n, u)
