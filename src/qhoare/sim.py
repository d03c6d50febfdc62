"""Seeded statevector execution of programs, QIO style.

The quantum state is a product of disjoint cells of live qubits, each with
its dense amplitude vector, as in the checker's heaps.  This module holds
the one copy of each operation on such a cell that both engines use: a
unitary joins the cells it touches (:func:`apply_to_cells`, through the
kernel :func:`apply_to_tensor`), zeroes amplitudes at or below
``PRUNE_TOL`` and renormalizes; :func:`split` and :func:`reduced_density`
read one qubit of a cell.  Unitaries form a monoid built from
``mempty``/``mappend`` over single-qubit rotations and the ``cond``/``ifQ``
conditionals.  Measured qubits are retired: their index is never reused
and further use is a dynamic error.

One state is confined to one shot; shots draw from independent deterministic
PRNG streams derived from (seed, shot index), so equal seeds give
bit-identical reports within this implementation.

A shot reads its stream only in :func:`measure`, one draw per measurement,
so its result, final state and assertion verdicts are a function of its
outcome path.  :func:`run_program` therefore keeps a trie of the paths
seen so far (the probability of each measurement at the inner nodes, the
rendered result and verdicts or a dynamic error at the leaves) and replays
each shot down it, comparing each draw with the stored probability as
:func:`measure` does.  Only a shot that leaves the trie is interpreted,
and its path is added (up to ``TRIE_CAP`` nodes).  Reports are identical
to interpreting every shot, for every seed and every cap.

The node of an uncertain measurement in the entry's own ``do`` block holds,
until both its children exist, a snapshot taken just before it (statement
index, env, state, qubit): a shot leaving the trie there collapses it onto
its outcome and runs only the rest of the block.  Measurements in calls
and ``if`` branches take none; a shot leaving there is interpreted whole.

A measurement with ``p_true <= 0`` or ``p_true >= 1`` has the same outcome
for every draw, so the replay seeds a shot's stream only at the first
stored measurement with ``0 < p_true < 1`` and then discards the draws of
the certain measurements before it.  A shot whose path holds no such
measurement never seeds its stream; an interpreted shot seeds it at the
start, through :func:`shot_rng`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import core
from .core import (
    App, ApplyU, Ascribe, BindCmd, BindRun, BoolLit, Do, Emb, Emp, Entangled,
    HoareT, IdAt, IfCmd, IfTerm, Ket, KetVec, Lam, LetEq, Lookup, MatrixLit,
    MeasQbit, MkQbit, Pair, PiT, PointsTo, Program, Seq, UNKNOWN, UnitVal,
    Var, WildcardState, GhostRef, conjuncts, kleene_eval, pretty,
    strip_coercions,
)

NORM_TOL = 1e-9
PRUNE_TOL = 1e-12
FIDELITY_TOL = 1e-9
ENTANGLE_SLACK = 1e-6

_S = 2 ** -0.5
GATES = {
    "H": ((_S, _S), (_S, -_S)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
}


class SimulationError(Exception):
    pass


class UnitaryError(SimulationError):
    """A term does not denote a unitary: bad matrix or bad structure.

    The checker reports it statically; at runtime it is a dynamic error of
    the shot, like any other :class:`SimulationError`.
    """

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.message = message
        self.matrix = matrix


# ---------------------------------------------------------------------------
# Unitary expressions


@dataclass(frozen=True)
class MEmpty:
    pass


@dataclass(frozen=True)
class MAppend:
    first: "UnitaryExpr"
    second: "UnitaryExpr"


@dataclass(frozen=True)
class Rot:
    """A one-qubit gate; ``array``, ``matrix`` read-only, is built once."""

    qubit: object
    matrix: tuple  # 2x2, tuple of tuples of complex
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        array = np.array(self.matrix, dtype=complex)
        array.setflags(write=False)
        object.__setattr__(self, "array", array)


@dataclass(frozen=True)
class Cond:
    qubit: object
    false_branch: "UnitaryExpr"
    true_branch: "UnitaryExpr"


UnitaryExpr = Union[MEmpty, MAppend, Rot, Cond]


def if_q(qubit, u: UnitaryExpr) -> Cond:
    return Cond(qubit, MEmpty(), u)


def footprint(u: UnitaryExpr) -> list:
    """Qubits touched by ``u`` in first-touch order."""
    if isinstance(u, Rot):
        return [u.qubit]
    out = []
    _touch(u, out)
    return out


def _touch(u: UnitaryExpr, out: list) -> None:
    # A module-level walk: a nested function that calls itself closes over
    # its own cell, a reference cycle only the collector frees.
    match u:
        case MAppend(a, b):
            _touch(a, out), _touch(b, out)
        case Rot(q, _):
            if q not in out:
                out.append(q)
        case Cond(q, fb, tb):
            if q not in out:
                out.append(q)
            _touch(fb, out), _touch(tb, out)


def apply_to_tensor(u: UnitaryExpr, t: np.ndarray, order: tuple):
    """Apply ``u`` to ``t``, whose leading axes are the qubits of ``order``
    (length 2 each) and whose trailing axes, if any, form a batch.  The
    result is a fresh array unless ``u`` touches no qubit."""
    match u:
        case Rot(q):
            i = order.index(q)
            return (u.array @ t.reshape(2 ** i, 2, -1)).reshape(t.shape)
        case MEmpty():
            return t
        case MAppend(a, b):
            return apply_to_tensor(b, apply_to_tensor(a, t, order), order)
        case Cond(q, fb, tb):
            i = order.index(q)
            rest = order[:i] + order[i + 1:]
            return np.stack(
                [apply_to_tensor(fb, np.take(t, 0, axis=i), rest),
                 apply_to_tensor(tb, np.take(t, 1, axis=i), rest)],
                axis=i)
    raise SimulationError(f"bad unitary expression {u!r}")


def split(vec: np.ndarray, pos: int, n: int) -> tuple:
    """The parts of ``vec``, a vector over ``n`` qubits, where the qubit at
    ``pos`` is false and where it is true, without that qubit's axis: each
    ``(part, weight)``, ``part`` renormalized and pruned at ``PRUNE_TOL``
    unless ``weight``, its norm, is 0."""
    t = vec.reshape(2 ** pos, 2, 2 ** (n - pos - 1))
    halves = []
    for sub in (t[:, 0].reshape(-1), t[:, 1].reshape(-1)):
        weight = float(np.linalg.norm(sub))
        if weight > 0:
            sub = sub / weight
            sub[np.abs(sub) <= PRUNE_TOL] = 0
        halves.append((sub, weight))
    return tuple(halves)


def apply_to_cells(u: UnitaryExpr, cells) -> tuple:
    """The ``(qubits, vector)`` cell that ``u`` makes of ``cells``, such
    pairs covering its footprint: their join (``np.kron`` in list order)
    with ``u`` applied, pruned at ``PRUNE_TOL`` and renormalized."""
    qubits, vec = cells[0]
    for more, v in cells[1:]:
        qubits += more
        vec = np.kron(vec, v)
    vec = apply_to_tensor(u, vec.reshape((2,) * len(qubits)),
                          qubits).reshape(-1)
    vec[np.abs(vec) <= PRUNE_TOL] = 0  # a fresh array: u touches a qubit
    # scrub float drift from validated-but-inexact rotation matrices
    norm_sq = float(np.vdot(vec, vec).real)
    if abs(norm_sq - 1.0) > 1e-6:
        raise SimulationError(f"unitary application lost norm: {norm_sq}")
    if abs(norm_sq - 1.0) > 1e-15:
        vec = vec / math.sqrt(norm_sq)
    return qubits, vec


def reduced_density(qubits: tuple, vec: np.ndarray, q) -> np.ndarray:
    """Density matrix of qubit ``q`` of the cell ``(qubits, vec)``: the
    partial trace over the cell's other qubits."""
    t = np.moveaxis(vec.reshape((2,) * len(qubits)), qubits.index(q), 0)
    t = t.reshape(2, -1)
    return t @ t.conj().T


def purity(rho: np.ndarray) -> float:
    """``tr(rho^2)``: 1 for a pure state, 1/2 for a maximally mixed qubit."""
    return float(np.real(np.trace(rho @ rho)))


def is_unitary(matrix, tol: float = NORM_TOL) -> bool:
    # strict absolute tolerance: entries truncated to a handful of digits
    # deviate by more than 1e-9 and are rejected rather than renormalized
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        return False
    return bool(np.allclose(m.conj().T @ m, np.eye(2), atol=tol, rtol=0.0))


def _as_tuple_matrix(matrix) -> tuple:
    m = [[complex(z) for z in row] for row in matrix]
    return (tuple(m[0]), tuple(m[1]))


def _spine(term):
    """Unfold an application chain into (head name, [args])."""
    args = []
    t = strip_coercions(term)
    while isinstance(t, App):
        args.append(t.arg)
        t = strip_coercions(t.fn)
    if isinstance(t, Var):
        return t.name, args[::-1]
    return None, []


def unitary_normal_form(term):
    """``term`` in normal form; a term that does not reduce is a
    :class:`UnitaryError`."""
    try:
        return core.normal_form(term)
    except core.ReductionError as e:
        raise UnitaryError(str(e)) from e


def eval_unitary(term, resolve) -> UnitaryExpr:
    """Interpret a normal-form term of unitary type: a checker's canonical
    form, or a runtime term through :func:`unitary_normal_form`.

    ``resolve`` maps a variable name in qubit position to the qubit it
    denotes (a symbolic name during checking, an index at runtime).  A
    ``cond`` branch is reduced again after its boolean is substituted.
    Raises :class:`UnitaryError` for a branch that does not reduce, for
    non-unitary rotation matrices and for conditionals whose branches touch
    their own control.
    """
    return _interpret(term, resolve)


def _interpret(term, resolve) -> UnitaryExpr:
    """Interpret a normal-form term of unitary type."""
    head, args = _spine(term)
    if head is None:
        raise UnitaryError(f"cannot interpret unitary term {pretty(term)!r}")

    def qubit_of(arg):
        name, rest = _spine(arg)
        if name is not None and not rest:
            try:
                return resolve(name)
            except KeyError:
                raise UnitaryError(f"unknown qubit {name!r}")
        raise UnitaryError(f"expected a qubit, found {pretty(arg)!r}")

    if head == "mempty" and not args:
        return MEmpty()
    if head == "mappend" and len(args) == 2:
        return MAppend(_interpret(args[0], resolve),
                       _interpret(args[1], resolve))
    if head in GATES and len(args) == 1:
        return Rot(qubit_of(args[0]), _as_tuple_matrix(GATES[head]))
    if head == "rot" and len(args) == 2:
        m = args[1]
        if not isinstance(m, MatrixLit):
            raise UnitaryError("rot expects a matrix literal")
        if not is_unitary(m.rows):
            raise UnitaryError(
                f"rot matrix {pretty(m)} is not unitary", matrix=m.rows)
        return Rot(qubit_of(args[0]), _as_tuple_matrix(m.rows))
    if head == "ifQ" and len(args) == 2:
        q = qubit_of(args[0])
        u = _interpret(args[1], resolve)
        if q in footprint(u):
            raise UnitaryError("conditional branch acts on its control qubit")
        return if_q(q, u)
    if head == "cond" and len(args) == 2:
        q = qubit_of(args[0])
        f = args[1]
        if not isinstance(f, Lam):
            raise UnitaryError("cond expects a literal branch function")
        branches = []
        for v in (False, True):
            body = core.subst(f.body, {f.binder: BoolLit(v)})
            branches.append(eval_unitary(unitary_normal_form(body),
                                         resolve))
        for b in branches:
            if q in footprint(b):
                raise UnitaryError(
                    "conditional branch acts on its control qubit")
        return Cond(q, branches[0], branches[1])
    raise UnitaryError(f"cannot interpret unitary term {pretty(term)!r}")


# ---------------------------------------------------------------------------
# Quantum state


class QuantumState:
    """Disjoint cells over the live qubits, each a ``(qubits, vector)``
    pair whose vector has its first qubit most significant; the state is
    their tensor product.  No vector is changed in place, so states share
    them."""

    __slots__ = ("cells", "next_index")

    def __init__(self, cells=(), next_index=0):
        self.cells = cells
        self.next_index = next_index

    def holds(self, q) -> bool:
        return any(q in qubits for qubits, _ in self.cells)

    def index(self, q: int) -> int:
        """Index of the cell that holds ``q``; raises unless ``q`` is live."""
        for i, (qubits, _) in enumerate(self.cells):
            if q in qubits:
                return i
        # a qubit leaves the state only when it is measured
        if q in range(self.next_index):
            raise SimulationError(f"qubit {q} was measured and retired")
        raise SimulationError(f"qubit {q} is not allocated")


def alloc(s: QuantumState, b: bool):
    """Allocate one qubit initialized to ``|1>`` if ``b`` else ``|0>``."""
    q = s.next_index
    vec = np.array([0, 1] if b else [1, 0], dtype=complex)
    return QuantumState(s.cells + (((q,), vec),), q + 1), q


def apply_unitary(s: QuantumState, u: UnitaryExpr) -> QuantumState:
    touched = list(dict.fromkeys(map(s.index, footprint(u))))
    if not touched:
        return s
    cell = apply_to_cells(u, [s.cells[i] for i in touched])
    cells = tuple(c for i, c in enumerate(s.cells) if i not in touched)
    return QuantumState(cells + (cell,), s.next_index)


def draw(rng, p_true: float) -> bool:
    """The one read of a shot's PRNG stream: one outcome of a measurement
    whose probability of ``true`` is ``p_true``.

    For ``p_true <= 0`` or ``p_true >= 1`` the outcome does not depend on
    the draw, so :func:`run_program`'s replay seeds the stream only at a
    shot's first other measurement (see the module docstring)."""
    return rng.random() < p_true


def measure(s: QuantumState, q: int, rng, path: Optional[list] = None):
    """Projective measurement; retires ``q`` and renormalizes the posterior.

    When ``path`` is a list, ``(p_true, outcome)`` is appended to it before
    the posterior is formed, so a zero-probability outcome is recorded too.
    """
    halves = _halves(s, q)
    p_true = halves[True][1] ** 2
    outcome = draw(rng, p_true)
    if path is not None:
        path.append((p_true, outcome))
    return outcome, _posterior(s, q, *halves[outcome])


def collapse(s: QuantumState, q: int, outcome: bool):
    """The posterior of :func:`measure` once ``q`` came out ``outcome``."""
    return _posterior(s, q, *_halves(s, q)[outcome])


def _halves(s: QuantumState, q: int) -> tuple:
    qubits, vec = s.cells[s.index(q)]
    return split(vec, qubits.index(q), len(qubits))


def _posterior(s: QuantumState, q: int, sub: np.ndarray, weight: float):
    if weight <= 0:
        raise SimulationError("measurement of zero-probability outcome")
    i = s.index(q)
    rest = tuple(x for x in s.cells[i][0] if x != q)
    cells = s.cells[:i] + (((rest, sub),) if rest else ()) + s.cells[i + 1:]
    return QuantumState(cells, s.next_index)


def states_equal_up_to_phase(u, v, tol: float = NORM_TOL) -> bool:
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    if u.shape != v.shape:
        return False
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < tol or nv < tol:
        return nu < tol and nv < tol
    return bool(abs(abs(np.vdot(u, v)) / (nu * nv) - 1.0) < tol)


# ---------------------------------------------------------------------------
# Runtime values and interpretation


@dataclass(frozen=True)
class Closure:
    binder: str
    body: object
    env: tuple  # immutable snapshot of (name, value) pairs


@dataclass(frozen=True)
class Suspended:
    comp: object
    env: tuple


@dataclass(frozen=True)
class DeclCall:
    name: str
    args: tuple


class Interpreter:
    """Operational evaluator for program declarations.

    ``rng`` is read only by :func:`measure`.  While ``path`` is a list, each
    measurement appends its ``(p_true, outcome)`` to it.  While
    ``snapshots`` is a dict, the first block to run (whose value is the
    run's) takes it and stores there, at the ``path`` index of each of its
    own measurements with ``0 < p_true < 1``, the snapshot
    ``(block, index, env, state, qubit)`` that :meth:`resume` continues.
    """

    def __init__(self, program: Program):
        self.program = program
        self.decls = {d.name: d for d in program.decls}
        self.path: Optional[list] = None
        self.snapshots: Optional[dict] = None
        # gate term -> (its free names, {their qubit values: UnitaryExpr})
        self.gates = {}

    # --- pure evaluation

    def eval_term(self, m, env: dict):
        match m:
            case Emb(inner) | Ascribe(inner, _):
                return self.eval_term(inner, env)
            case Var(name):
                if name in env:
                    return env[name]
                if name in self.decls:
                    return DeclCall(name, ())
                raise SimulationError(f"unbound name {name!r} at runtime")
            case App(fn, arg):
                f = self.eval_term(fn, env)
                a = self.eval_term(arg, env)
                if isinstance(f, DeclCall):
                    return DeclCall(f.name, f.args + (a,))
                if isinstance(f, Closure):
                    inner_env = dict(f.env)
                    inner_env[f.binder] = a
                    return self.eval_term(f.body, inner_env)
                raise SimulationError("application of a non-function value")
            case UnitVal():
                return None
            case BoolLit(v):
                return v
            case Pair(a, b):
                return (self.eval_term(a, env), self.eval_term(b, env))
            case Lam(x, body):
                return Closure(x, body, tuple(env.items()))
            case Do(comp):
                return Suspended(comp, tuple(env.items()))
            case IfTerm(c, t, e):
                return self.eval_term(t if self.eval_term(c, env) else e, env)
            case MatrixLit() | Ket() | KetVec():
                return m
        raise SimulationError(f"cannot evaluate {pretty(m)!r}")

    # --- effectful execution

    def run_comp(self, comp: Seq, env: dict, state: QuantumState, rng,
                 start: int = 0):
        # `env` is owned by this invocation (callers pass fresh dicts);
        # closures and suspensions snapshot it, so in-place update is safe.
        snaps, self.snapshots = self.snapshots, None
        for i in range(start, len(comp.stmts)):
            match comp.stmts[i]:
                case BindCmd(x, cmd):
                    before = state
                    value, state = self.run_cmd(cmd, env, state, rng)
                    if snaps is not None and type(cmd) is MeasQbit \
                            and 0.0 < self.path[-1][0] < 1.0:
                        snaps[len(self.path) - 1] = (
                            comp, i, env.copy(), before,
                            self.eval_term(cmd.target, env))
                    env[x] = value
                case BindRun(pat, source):
                    value, state = self.run_suspended(
                        self.eval_term(source, env), state, rng)
                    if len(pat) == 1:
                        env[pat[0]] = value
                    else:
                        if not isinstance(value, tuple) or len(value) != len(pat):
                            raise SimulationError(
                                "pattern arity mismatch in bind")
                        for name, comp_value in zip(pat, value):
                            env[name] = comp_value
                case LetEq(x, _, value):
                    env[x] = self.eval_term(value, env)
        return self.eval_term(comp.ret.value, env), state

    def resume(self, snap: tuple, outcome: bool, rng):
        """Finish the block of ``snap`` once its measurement is ``outcome``."""
        comp, i, env, state, q = snap
        env = dict(env)  # a snapshot may be resumed more than once
        env[comp.stmts[i].binder] = outcome
        return self.run_comp(comp, env, collapse(state, q, outcome), rng,
                             i + 1)

    def run_cmd(self, cmd, env: dict, state: QuantumState, rng):
        match cmd:
            case MkQbit(m):
                b = self.eval_term(m, env)
                if not isinstance(b, bool):
                    raise SimulationError("mkQbit expects a boolean")
                state, q = alloc(state, b)
                return q, state
            case MeasQbit(m):
                q = self.eval_term(m, env)
                if not isinstance(q, int):
                    raise SimulationError("measQbit expects a qubit")
                return measure(state, q, rng, self.path)
            case ApplyU(m):
                def resolve(name):
                    v = self.eval_term(Var(name), env)
                    if isinstance(v, int):
                        return v
                    raise KeyError(name)
                # the unitary depends on env only through the qubits its
                # free names denote; a failure raises again at each run
                names, units = self.gates.get(m) or self.gates.setdefault(
                    m, (sorted(core.free_vars(m)), {}))
                key = tuple(v if isinstance(v := env.get(n), int) else None
                            for n in names)
                u = units.get(key) or units.setdefault(
                    key, eval_unitary(unitary_normal_form(m), resolve))
                return None, apply_unitary(state, u)
            case IfCmd(c, t, e):
                chosen = t if self.eval_term(c, env) else e
                value = self.eval_term(chosen, env)
                if isinstance(value, Suspended):
                    return self.run_suspended(value, state, rng)
                return value, state
        raise SimulationError(f"bad command {cmd!r}")

    def run_suspended(self, value, state: QuantumState, rng):
        if isinstance(value, Suspended):
            return self.run_comp(value.comp, dict(value.env), state, rng)
        if isinstance(value, DeclCall):
            return self.call(value.name, list(value.args), state, rng)
        raise SimulationError("bind source is not a suspended computation")

    def call(self, name: str, args: list, state: QuantumState, rng):
        """Run declaration ``name`` applied to ``args`` (runtime values)."""
        decl = self.decls[name]
        env = {}
        body = decl.body
        for a in args:
            if not isinstance(body, Lam):
                raise SimulationError(f"too many arguments for {name!r}")
            env[body.binder] = a
            body = body.body
        value = self.eval_term(body, env) if not isinstance(body, Do) \
            else Suspended(body.body, tuple(env.items()))
        if isinstance(value, (Suspended, DeclCall)):
            return self.run_suspended(value, state, rng)
        return value, state


# ---------------------------------------------------------------------------
# Runtime assertion checking


def _state_reference(expr, ghosts: dict):
    if isinstance(expr, Ket):
        return np.asarray(expr.amplitudes())
    if isinstance(expr, KetVec):
        return np.asarray(expr.amps, dtype=complex)
    if isinstance(expr, GhostRef) and expr.name in ghosts:
        return np.asarray(ghosts[expr.name], dtype=complex)
    return None


def _qubit_pure_state(state: QuantumState, q: int):
    """Reduced state of one qubit if it is live and nearly pure, else
    None."""
    if not state.holds(q):
        return None
    rho = reduced_density(*state.cells[state.index(q)], q)
    if purity(rho) < 1 - FIDELITY_TOL:
        return None
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, int(np.argmax(vals))]


def _is_qubit(v) -> bool:
    """Whether runtime value ``v`` is a qubit: an int, but not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _assertion_value(term, env: dict, ghosts: dict):
    """The runtime value of an assertion's term, UNKNOWN when it has none."""
    m = strip_coercions(term)
    if isinstance(m, Var):
        if m.name in env:
            return env[m.name]
        if m.name in ghosts:
            return GhostRef(m.name)
        return UNKNOWN
    if isinstance(m, BoolLit):
        return m.value
    if isinstance(m, UnitVal):
        return None
    if isinstance(m, Pair):
        a = _assertion_value(m.first, env, ghosts)
        b = _assertion_value(m.second, env, ghosts)
        if a is UNKNOWN or b is UNKNOWN:
            return UNKNOWN
        return (a, b)
    if isinstance(m, (Ket, KetVec, GhostRef, WildcardState)):
        return m
    return UNKNOWN


def check_assertion_runtime(assertion, env: dict, state: QuantumState,
                            ghosts: Optional[dict] = None):
    """Evaluate the runtime-checkable fragment of an assertion.

    Returns True, False, or :data:`qhoare.core.UNKNOWN` when uncheckable.
    """
    ghosts = ghosts or {}

    def qubit_matches(q: int, ref) -> object:
        if isinstance(ref, WildcardState):
            return True
        vec = _state_reference(ref, ghosts)
        if vec is None:
            return UNKNOWN
        if len(vec) != 2:
            return UNKNOWN
        psi = _qubit_pure_state(state, q)
        if psi is None:
            return UNKNOWN
        fid = abs(np.vdot(vec, psi)) ** 2
        return bool(fid >= 1 - FIDELITY_TOL)

    def atom(a):
        match a:
            case Emp():
                return not state.cells
            case IdAt(_, l, r):
                lv = _assertion_value(l, env, ghosts)
                rv = _assertion_value(r, env, ghosts)
                if lv is UNKNOWN or rv is UNKNOWN:
                    return UNKNOWN
                if isinstance(lv, bool) and isinstance(rv, bool):
                    return lv == rv
                if isinstance(lv, tuple) and isinstance(rv, tuple):
                    return lv == rv
                if _is_qubit(lv):
                    if _is_qubit(rv):
                        pl = _qubit_pure_state(state, lv)
                        pr = _qubit_pure_state(state, rv)
                        if pl is None or pr is None:
                            return UNKNOWN
                        return states_equal_up_to_phase(pl, pr, FIDELITY_TOL)
                    return qubit_matches(lv, rv)
                if _is_qubit(rv):
                    return qubit_matches(rv, lv)
                return UNKNOWN
            case Lookup(loc, _) | PointsTo(loc, _):
                v = _assertion_value(loc, env, ghosts)
                if _is_qubit(v):
                    return state.holds(v)
                return UNKNOWN
            case Entangled(t):
                v = _assertion_value(t, env, ghosts)
                if not _is_qubit(v) or not state.holds(v):
                    return UNKNOWN
                rho = reduced_density(*state.cells[state.index(v)], v)
                return purity(rho) <= 0.5 + ENTANGLE_SLACK
        return UNKNOWN

    return kleene_eval(assertion, atom)


# ---------------------------------------------------------------------------
# Shot loop


_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MASK = (1 << 64) - 1

# Most nodes (branches plus leaves) one run's outcome trie holds.  A shot
# whose path could take the trie past it is interpreted and tallied as any
# other miss but not inserted, so reports do not depend on this value.
TRIE_CAP = 1 << 16


def _shot_key(seed: int, shot: int) -> int:
    return ((seed * _MIX1) ^ (shot * _MIX2)) & _MASK


def shot_rng(seed: int, shot: int) -> random.Random:
    """Independent per-shot stream from a 64-bit mix of (seed, shot)."""
    return random.Random(_shot_key(seed, shot))


@dataclass
class RunReport:
    decl: str
    seed: int
    shots: int
    outcomes: dict = field(default_factory=dict)  # rendered value -> count
    assertions: dict = field(default_factory=dict)  # text -> [pass, fail, unch]
    errors: int = 0

    @property
    def failures(self) -> int:
        return sum(v[1] for v in self.assertions.values())

    def as_dict(self) -> dict:
        return {
            "decl": self.decl,
            "seed": self.seed,
            "shots": self.shots,
            "outcomes": [
                {"value": k, "count": v}
                for k, v in sorted(self.outcomes.items())
            ],
            "assertions": [
                {"text": t, "pass": c[0], "fail": c[1], "uncheckable": c[2]}
                for t, c in sorted(self.assertions.items())
            ],
            "errors": self.errors,
        }


def render_value(v) -> str:
    """A value as ``run`` writes results and the prover writes the values
    of a countermodel: qubits as ``q0`` at runtime and by name in the
    checker's models, ``unknown`` where a model leaves a value undecided."""
    if v is None:
        return "()"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return f"q{v}"
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "(" + ", ".join(map(render_value, v)) + ")"
    if v is UNKNOWN:
        return "unknown"
    if isinstance(v, (Closure, Suspended, DeclCall)):
        return "<computation>"
    return pretty(v)  # a ket, matrix or ghost


class _Branch:
    """Trie node at a measurement: its probability of ``true``, one child
    per outcome (indexed by the outcome), None until a shot takes it, and
    its snapshot (see :class:`Interpreter`) while a child is None."""

    __slots__ = ("p_true", "children", "snap")

    def __init__(self, p_true: float, snap: Optional[tuple]):
        self.p_true = p_true
        self.children = [None, None]
        self.snap = snap


class _Leaf:
    """End of an outcome path: the rendered result and, per postcondition
    conjunct, the report slot of its verdict (0 pass, 1 fail, 2 uncheckable);
    ``value`` is None when the path ends in a dynamic error."""

    __slots__ = ("value", "slots", "hits")

    def __init__(self, value: Optional[str], slots: tuple):
        self.value = value
        self.slots = slots
        self.hits = 0


def _insert(holder: list, index: int, path: list, snaps: dict,
            leaf: _Leaf) -> int:
    """Hang ``leaf`` at ``holder[index]`` below ``path``, a list of
    ``(p_true, outcome)``, giving each branch it adds its snapshot from
    ``snaps``; returns the number of nodes added."""
    added = 1
    for k, (p_true, outcome) in enumerate(path):
        node = holder[index]
        if node is None:
            node = holder[index] = _Branch(p_true, snaps.get(k))
            added += 1
        # execution is a function of the outcomes drawn so far
        assert node.p_true == p_true, "shot replay diverged"
        holder, index = node.children, outcome
    holder[index] = leaf
    return added


def _tally(report: RunReport, texts: list, leaf: _Leaf, hits: int) -> None:
    if leaf.value is None:
        report.errors += hits
        return
    report.outcomes[leaf.value] = report.outcomes.get(leaf.value, 0) + hits
    for text, slot in zip(texts, leaf.slots):
        report.assertions.setdefault(text, [0, 0, 0])[slot] += hits


def run_program(program: Program, entry: str, seed: int = 0,
                shots: int = 1000, ghosts: Optional[dict] = None,
                args: tuple = (), state: Optional[QuantumState] = None
                ) -> RunReport:
    """Execute a Hoare-typed declaration for ``shots`` shots.

    ``args`` are runtime values for the declaration's leading Π binders and
    ``state`` is the state every shot starts from (empty by default).  Each
    shot draws from its own PRNG stream; the declared postcondition's
    checkable conjuncts are re-checked against the actual outcome and final
    state.  Runtime assertion failures are counted per shot and do not abort
    remaining shots.

    A shot is a function of its measurement outcomes, so shots are replayed
    along a trie of outcome paths: each draw of the shot's stream is compared
    with the stored probability of the next measurement, exactly as
    :func:`measure` compares it, and the stream is seeded at the first
    measurement whose outcome the draw decides.  Only a shot that leaves
    the trie runs through the interpreter (from the snapshot of the node
    it left at, if any), which records its path for the next shots.
    """
    sig = program.decl(entry).signature
    pi_env = {}
    for a in args:
        if not isinstance(sig, PiT):
            raise SimulationError(f"too many arguments for {entry!r}")
        pi_env[sig.binder] = a
        sig = sig.codomain
    if not isinstance(sig, HoareT):
        kind = f"{len(args)}-argument" if args else "nullary"
        raise SimulationError(
            f"{entry!r} is not a {kind} Hoare-typed declaration")
    start = QuantumState() if state is None else state
    pre_check = check_assertion_runtime(sig.pre, dict(pi_env), start,
                                        ghosts=ghosts)
    if pre_check is False:
        where = "empty" if state is None else "initial"
        raise SimulationError(
            f"precondition of {entry!r} fails in the {where} state")
    interp = Interpreter(program)
    # one verdict per distinct conjunct text, the first of each: the report
    # counts shots by text, so a repeated conjunct would count them twice
    first = {}
    for conj in conjuncts(sig.post):
        first.setdefault(pretty(conj), conj)
    texts, posts = list(first), list(first.values())

    def finish(run, *run_args):
        """Run the rest of a shot: its path drawn, snapshots and leaf."""
        path = interp.path = []
        snaps = interp.snapshots = {}
        try:
            value, final = run(*run_args)
        except SimulationError:
            return path, snaps, _Leaf(None, ())
        finally:
            interp.path = interp.snapshots = None
        env = dict(pi_env)
        if len(sig.binder) == 1:
            env[sig.binder[0]] = value
        elif isinstance(value, tuple) and len(value) == len(sig.binder):
            for name, comp_value in zip(sig.binder, value):
                env[name] = comp_value
        slots = []
        for conj in posts:
            result = check_assertion_runtime(conj, env, final, ghosts=ghosts)
            slots.append(0 if result is True else 1 if result is False
                         else 2)
        return path, snaps, _Leaf(render_value(value), tuple(slots))

    report = RunReport(decl=entry, seed=seed, shots=shots)
    trie, size, leaves = [None], 0, []
    rng = random.Random()
    for shot in range(shots):
        # owed is -1 once seeded; a shot can leave the trie only at a draw
        branch, node, owed = None, trie[0], 0
        while type(node) is _Branch:
            p_true = node.p_true
            if owed >= 0:
                # the outcome is the same for every draw in [0, 1)
                if p_true <= 0.0 or p_true >= 1.0:
                    owed += 1
                    node = node.children[p_true >= 1.0]
                    continue
                rng.seed(_shot_key(seed, shot))  # shot_rng(seed, shot)
                for _ in range(owed):
                    rng.random()
                owed = -1
            branch, outcome = node, draw(rng, p_true)
            node = node.children[outcome]
        if node is None:
            if branch is not None and branch.snap is not None:
                holder, index = branch.children, outcome
                path, snaps, node = finish(interp.resume, branch.snap,
                                           outcome, rng)
            else:
                holder, index = trie, 0
                path, snaps, node = finish(interp.call, entry, list(args),
                                           start, shot_rng(seed, shot))
            if size + len(path) + 1 > TRIE_CAP:
                _tally(report, texts, node, 1)
                continue
            size += _insert(holder, index, path, snaps, node)
            if branch is not None and None not in branch.children:
                branch.snap = None
            leaves.append(node)
        node.hits += 1
    for leaf in leaves:
        _tally(report, texts, leaf, leaf.hits)
    return report
