"""Seeded statevector execution of programs, QIO style.

The quantum state is a sparse map from basis assignments over the live
qubits (ordered by allocation index) to complex amplitudes, kept normalized
throughout; entries below 1e-12 are pruned.  Unitaries form a monoid built
from ``mempty``/``mappend`` over single-qubit rotations and the
``cond``/``ifQ`` conditionals.  Measured qubits are retired: their index is
never reused and further use is a dynamic error.

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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import core
from .core import (
    And, App, ApplyU, Ascribe, BindCmd, BindRun, BoolLit, Bot, Do, Emb, Emp,
    Entangled, HoareT, IdAt, IfCmd, IfTerm, Ket, KetVec, Lam, LetEq, Lookup,
    MatrixLit, MeasQbit, MemberOf, MkQbit, Not, Or, Pair, PiT, PointsTo,
    Program, Ret, Top, UnitVal, Var, WildcardState, GhostRef, pretty,
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


class UnitaryError(Exception):
    """A term does not denote a unitary: bad matrix or bad structure."""

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
    qubit: object
    matrix: tuple  # 2x2, tuple of tuples of complex


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
    out = []

    def go(u):
        match u:
            case MEmpty():
                pass
            case MAppend(a, b):
                go(a), go(b)
            case Rot(q, _):
                if q not in out:
                    out.append(q)
            case Cond(q, fb, tb):
                if q not in out:
                    out.append(q)
                go(fb), go(tb)
    go(u)
    return out


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


def _reduce_term(m):
    """Tiny beta/if reducer sufficient for unitary-expression operands."""
    match m:
        case Emb(inner):
            r = _reduce_term(inner)
            return Emb(r) if isinstance(r, (Var, App, Ascribe)) else r
        case Ascribe(term, _):
            return _reduce_term(term)
        case App(fn, arg):
            rfn = _reduce_term(fn)
            if isinstance(rfn, Emb):
                rfn = rfn.elim if isinstance(rfn.elim, (Var, App, Ascribe)) \
                    else rfn
            if isinstance(rfn, Lam):
                return _reduce_term(core.subst(rfn.body, {rfn.binder: arg}))
            return App(rfn if isinstance(rfn, (Var, App, Ascribe)) else fn,
                       arg)
        case IfTerm(c, t, e):
            rc = _reduce_term(c)
            if isinstance(rc, BoolLit):
                return _reduce_term(t if rc.value else e)
            return IfTerm(rc, t, e)
        case _:
            return m


def _spine(term):
    """Unfold an application chain into (head name, [args])."""
    args = []
    t = term
    while True:
        match t:
            case Emb(inner):
                t = inner
            case Ascribe(inner, _):
                t = inner
            case App(fn, arg):
                args.append(arg)
                t = fn
            case Var(name):
                return name, list(reversed(args))
            case _:
                return None, []


def eval_unitary(term, resolve) -> UnitaryExpr:
    """Interpret a canonical term of unitary type.

    ``resolve`` maps a variable name in qubit position to the qubit it
    denotes (a symbolic name during checking, an index at runtime).  Raises
    :class:`UnitaryError` for non-unitary rotation matrices and for
    conditionals whose branches touch their own control.
    """
    term = _reduce_term(term)
    head, args = _spine(term)
    if head is None:
        raise UnitaryError(f"cannot interpret unitary term {pretty(term)!r}")

    def qubit_of(arg):
        a = _reduce_term(arg)
        name, rest = _spine(a)
        if name is not None and not rest:
            try:
                return resolve(name)
            except KeyError:
                raise UnitaryError(f"unknown qubit {name!r}")
        raise UnitaryError(f"expected a qubit, found {pretty(arg)!r}")

    if head == "mempty" and not args:
        return MEmpty()
    if head == "mappend" and len(args) == 2:
        return MAppend(eval_unitary(args[0], resolve),
                       eval_unitary(args[1], resolve))
    if head in GATES and len(args) == 1:
        return Rot(qubit_of(args[0]), _as_tuple_matrix(GATES[head]))
    if head == "rot" and len(args) == 2:
        m = _reduce_term(args[1])
        if not isinstance(m, MatrixLit):
            raise UnitaryError("rot expects a matrix literal")
        if not is_unitary(m.rows):
            raise UnitaryError(
                f"rot matrix {pretty(m)} is not unitary", matrix=m.rows)
        return Rot(qubit_of(args[0]), _as_tuple_matrix(m.rows))
    if head == "ifQ" and len(args) == 2:
        q = qubit_of(args[0])
        u = eval_unitary(args[1], resolve)
        if q in footprint(u):
            raise UnitaryError("conditional branch acts on its control qubit")
        return if_q(q, u)
    if head == "cond" and len(args) == 2:
        q = qubit_of(args[0])
        f = _reduce_term(args[1])
        if not isinstance(f, Lam):
            raise UnitaryError("cond expects a literal branch function")
        branches = []
        for v in (False, True):
            body = core.subst(f.body, {f.binder: BoolLit(v)})
            branches.append(eval_unitary(body, resolve))
        for b in branches:
            if q in footprint(b):
                raise UnitaryError(
                    "conditional branch acts on its control qubit")
        return Cond(q, branches[0], branches[1])
    raise UnitaryError(f"cannot interpret unitary term {pretty(term)!r}")


# ---------------------------------------------------------------------------
# Quantum state


class QuantumState:
    """Sparse normalized amplitude vector over the live qubits."""

    __slots__ = ("live", "amps", "next_index", "retired")

    def __init__(self, live=(), amps=None, next_index=0, retired=frozenset()):
        self.live = tuple(live)
        self.amps = amps if amps is not None else ({(): 1.0 + 0j} if not live
                                                   else {})
        self.next_index = next_index
        self.retired = retired

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values())

    def _pos(self, q: int) -> int:
        try:
            return self.live.index(q)
        except ValueError:
            if q in self.retired:
                raise SimulationError(f"qubit {q} was measured and retired")
            raise SimulationError(f"qubit {q} is not allocated")


def alloc(s: QuantumState, b: bool):
    """Allocate one qubit initialized to ``|1>`` if ``b`` else ``|0>``."""
    q = s.next_index
    amps = {key + (bool(b),): amp for key, amp in s.amps.items()}
    return QuantumState(s.live + (q,), amps, q + 1, s.retired), q


def apply_unitary(s: QuantumState, u: UnitaryExpr) -> QuantumState:
    for q in footprint(u):
        s._pos(q)  # raises for unallocated or retired qubits

    def go(amps: dict, u: UnitaryExpr, positions) -> dict:
        match u:
            case MEmpty():
                return amps
            case MAppend(a, b):
                return go(go(amps, a, positions), b, positions)
            case Rot(q, m):
                i = positions[q]
                out = {}
                for key, amp in amps.items():
                    lo = key[:i] + (False,) + key[i + 1:]
                    hi = key[:i] + (True,) + key[i + 1:]
                    col = 1 if key[i] else 0
                    a0 = m[0][col] * amp
                    a1 = m[1][col] * amp
                    if a0 != 0:
                        out[lo] = out.get(lo, 0j) + a0
                    if a1 != 0:
                        out[hi] = out.get(hi, 0j) + a1
                return out
            case Cond(q, fb, tb):
                i = positions[q]
                parts = {False: {}, True: {}}
                for key, amp in amps.items():
                    parts[key[i]][key] = amp
                out = go(parts[False], fb, positions)
                out.update(go(parts[True], tb, positions))
                return out
        raise SimulationError(f"bad unitary expression {u!r}")

    positions = {q: i for i, q in enumerate(s.live)}
    amps = go(dict(s.amps), u, positions)
    amps = {k: a for k, a in amps.items() if abs(a) > PRUNE_TOL}
    # scrub float drift from validated-but-inexact rotation matrices
    norm_sq = sum(abs(a) ** 2 for a in amps.values())
    if abs(norm_sq - 1.0) > 1e-6:
        raise SimulationError(f"unitary application lost norm: {norm_sq}")
    if abs(norm_sq - 1.0) > 1e-15:
        scale = 1.0 / math.sqrt(norm_sq)
        amps = {k: a * scale for k, a in amps.items()}
    return QuantumState(s.live, amps, s.next_index, s.retired)


def draw(rng, p_true: float) -> bool:
    """The one read of a shot's PRNG stream: one outcome of a measurement
    whose probability of ``true`` is ``p_true``."""
    return rng.random() < p_true


def measure(s: QuantumState, q: int, rng, path: Optional[list] = None):
    """Projective measurement; retires ``q`` and renormalizes the posterior.

    When ``path`` is a list, ``(p_true, outcome)`` is appended to it before
    the posterior is formed, so a zero-probability outcome is recorded too.
    """
    i = s._pos(q)
    p_true = sum(abs(a) ** 2 for key, a in s.amps.items() if key[i])
    outcome = draw(rng, p_true)
    if path is not None:
        path.append((p_true, outcome))
    p = p_true if outcome else (s.norm_sq() - p_true)
    if p <= 0:
        raise SimulationError("measurement of zero-probability outcome")
    scale = 1.0 / math.sqrt(p)
    amps = {}
    for key, a in s.amps.items():
        if key[i] == outcome and abs(a) * scale > PRUNE_TOL:
            amps[key[:i] + key[i + 1:]] = a * scale
    live = s.live[:i] + s.live[i + 1:]
    return outcome, QuantumState(live, amps, s.next_index,
                                 s.retired | {q})


def dense_vector(s: QuantumState) -> np.ndarray:
    """Dense amplitude vector over the live qubits, first qubit most
    significant."""
    n = len(s.live)
    vec = np.zeros(2 ** n, dtype=complex)
    for key, a in s.amps.items():
        idx = 0
        for b in key:
            idx = (idx << 1) | int(b)
        vec[idx] = a
    return vec


def reduced_density(s: QuantumState, qubits) -> np.ndarray:
    """Partial trace onto the given live qubits."""
    n = len(s.live)
    keep = [s._pos(q) for q in qubits]
    vec = dense_vector(s).reshape([2] * n) if n else np.ones(1, dtype=complex)
    if n == 0:
        raise SimulationError("no live qubits to reduce onto")
    order = keep + [i for i in range(n) if i not in keep]
    t = np.transpose(vec, order).reshape(2 ** len(keep), -1)
    return t @ t.conj().T


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
    measurement appends its ``(p_true, outcome)`` to it.
    """

    def __init__(self, program: Program):
        self.program = program
        self.decls = {d.name: d for d in program.decls}
        self.path: Optional[list] = None

    # --- pure evaluation

    def eval_term(self, m, env: dict):
        match m:
            case Emb(inner):
                return self.eval_term(inner, env)
            case Ascribe(inner, _):
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

    def run_comp(self, comp, env: dict, state: QuantumState, rng):
        # `env` is owned by this invocation (callers pass fresh dicts);
        # closures and suspensions snapshot it, so in-place update is safe.
        while True:
            match comp:
                case Ret(value):
                    return self.eval_term(value, env), state
                case BindCmd(x, cmd, rest):
                    value, state = self.run_cmd(cmd, env, state, rng)
                    env[x] = value
                    comp = rest
                case BindRun(pat, source, rest):
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
                    comp = rest
                case LetEq(x, _, value, rest):
                    env[x] = self.eval_term(value, env)
                    comp = rest
                case _:
                    raise SimulationError(f"bad computation node {comp!r}")

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
                u = eval_unitary(m, resolve)
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

UNCHECKABLE = "uncheckable"


def _state_reference(expr, ghosts: dict):
    if isinstance(expr, Ket):
        return np.asarray(expr.amplitudes())
    if isinstance(expr, KetVec):
        return np.asarray(expr.amps, dtype=complex)
    if isinstance(expr, GhostRef) and expr.name in ghosts:
        return np.asarray(ghosts[expr.name], dtype=complex)
    return None


def _qubit_pure_state(state: QuantumState, q: int):
    """Reduced state of one qubit if nearly pure, else None."""
    rho = reduced_density(state, [q])
    purity = float(np.real(np.trace(rho @ rho)))
    if purity < 1 - FIDELITY_TOL:
        return None
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, int(np.argmax(vals))]


def check_assertion_runtime(assertion, env: dict, state: QuantumState,
                            ghosts: Optional[dict] = None):
    """Evaluate the runtime-checkable fragment of an assertion.

    Returns True, False, or the string ``"uncheckable"``.
    """
    ghosts = ghosts or {}

    def value_of(term):
        m = term
        while isinstance(m, (Emb, Ascribe)):
            m = m.elim if isinstance(m, Emb) else m.term
        if isinstance(m, Var):
            if m.name in env:
                return env[m.name]
            if m.name in ghosts:
                return GhostRef(m.name)
            return UNCHECKABLE
        if isinstance(m, BoolLit):
            return m.value
        if isinstance(m, UnitVal):
            return None
        if isinstance(m, Pair):
            a, b = value_of(m.first), value_of(m.second)
            if UNCHECKABLE in (a, b):
                return UNCHECKABLE
            return (a, b)
        if isinstance(m, (Ket, KetVec, GhostRef, WildcardState)):
            return m
        return UNCHECKABLE

    def qubit_matches(q: int, ref) -> object:
        if isinstance(ref, WildcardState):
            return True
        vec = _state_reference(ref, ghosts)
        if vec is None:
            return UNCHECKABLE
        if len(vec) != 2:
            return UNCHECKABLE
        psi = _qubit_pure_state(state, q)
        if psi is None:
            return UNCHECKABLE
        fid = abs(np.vdot(vec, psi)) ** 2
        return bool(fid >= 1 - FIDELITY_TOL)

    def go(a):
        match a:
            case Top():
                return True
            case Bot():
                return False
            case Emp():
                return len(state.live) == 0
            case And(l, r):
                lv, rv = go(l), go(r)
                if lv is False or rv is False:
                    return False
                if lv is True and rv is True:
                    return True
                return UNCHECKABLE
            case Or(l, r):
                lv, rv = go(l), go(r)
                if lv is True or rv is True:
                    return True
                if lv is False and rv is False:
                    return False
                return UNCHECKABLE
            case Not(b):
                v = go(b)
                return UNCHECKABLE if v == UNCHECKABLE else (not v)
            case core.Implies(l, r):
                lv, rv = go(l), go(r)
                if lv is False or rv is True:
                    return True
                if lv is True and rv is False:
                    return False
                return UNCHECKABLE
            case IdAt(_, l, r):
                lv, rv = value_of(l), value_of(r)
                if UNCHECKABLE in (lv, rv):
                    return UNCHECKABLE
                if isinstance(lv, bool) and isinstance(rv, bool):
                    return lv == rv
                if isinstance(lv, tuple) and isinstance(rv, tuple):
                    return lv == rv
                if isinstance(lv, int):
                    if isinstance(rv, int):
                        pl = _qubit_pure_state(state, lv)
                        pr = _qubit_pure_state(state, rv)
                        if pl is None or pr is None:
                            return UNCHECKABLE
                        return states_equal_up_to_phase(pl, pr, FIDELITY_TOL)
                    return qubit_matches(lv, rv)
                if isinstance(rv, int):
                    return qubit_matches(rv, lv)
                return UNCHECKABLE
            case MemberOf(t, cands):
                results = [go(IdAt(None, t, c)) for c in cands]
                if True in results:
                    return True
                if all(r is False for r in results):
                    return False
                return UNCHECKABLE
            case Lookup(loc, _) | PointsTo(loc, _):
                v = value_of(loc)
                if isinstance(v, int):
                    return v in state.live
                return UNCHECKABLE
            case Entangled(t):
                v = value_of(t)
                if not isinstance(v, int) or v not in state.live:
                    return UNCHECKABLE
                rho = reduced_density(state, [v])
                purity = float(np.real(np.trace(rho @ rho)))
                return bool(purity <= 0.5 + ENTANGLE_SLACK)
            case _:
                return UNCHECKABLE

    return go(assertion)


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
    if v is None:
        return "()"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return f"q{v}"
    if isinstance(v, tuple):
        return "(" + ", ".join(render_value(x) for x in v) + ")"
    return str(v)


def _post_conjuncts(a) -> list:
    if isinstance(a, And):
        return _post_conjuncts(a.left) + _post_conjuncts(a.right)
    return [a]


class _Branch:
    """Trie node at a measurement: its probability of ``true`` and one
    child per outcome (indexed by the outcome), None until a shot takes it."""

    __slots__ = ("p_true", "children")

    def __init__(self, p_true: float):
        self.p_true = p_true
        self.children = [None, None]


class _Leaf:
    """End of an outcome path: the rendered result and, per postcondition
    conjunct, the report slot of its verdict (0 pass, 1 fail, 2 uncheckable);
    ``value`` is None when the path ends in a dynamic error."""

    __slots__ = ("value", "slots", "hits")

    def __init__(self, value: Optional[str], slots: tuple):
        self.value = value
        self.slots = slots
        self.hits = 0


def _insert(trie: list, path: list, leaf: _Leaf) -> int:
    """Hang ``leaf`` below the root ``trie[0]`` at the end of ``path``, a
    list of ``(p_true, outcome)``; returns the number of nodes added."""
    holder, index, added = trie, 0, 1
    for p_true, outcome in path:
        node = holder[index]
        if node is None:
            node = holder[index] = _Branch(p_true)
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
    :func:`measure` compares it.  Only a shot that leaves the trie runs
    through the interpreter, which records its path for the next shots.
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
    conjuncts = _post_conjuncts(sig.post)
    texts = [pretty(conj) for conj in conjuncts]

    def interpret(shot: int):
        """Run one shot; returns its measurement path and its leaf."""
        path = interp.path = []
        try:
            value, final = interp.call(entry, list(args), start,
                                       shot_rng(seed, shot))
        except SimulationError:
            return path, _Leaf(None, ())
        finally:
            interp.path = None
        env = dict(pi_env)
        if len(sig.binder) == 1:
            env[sig.binder[0]] = value
        elif isinstance(value, tuple) and len(value) == len(sig.binder):
            for name, comp_value in zip(sig.binder, value):
                env[name] = comp_value
        slots = []
        for conj in conjuncts:
            result = check_assertion_runtime(conj, env, final, ghosts=ghosts)
            slots.append(0 if result is True else 1 if result is False
                         else 2)
        return path, _Leaf(render_value(value), tuple(slots))

    report = RunReport(decl=entry, seed=seed, shots=shots)
    trie, size, leaves = [None], 0, []
    rng = random.Random()
    for shot in range(shots):
        rng.seed(_shot_key(seed, shot))  # the stream of shot_rng(seed, shot)
        node = trie[0]
        while type(node) is _Branch:
            node = node.children[draw(rng, node.p_true)]
        if node is None:
            path, node = interpret(shot)
            if size + len(path) + 1 > TRIE_CAP:
                _tally(report, texts, node, 1)
                continue
            size += _insert(trie, path, node)
            leaves.append(node)
        node.hits += 1
    for leaf in leaves:
        _tally(report, texts, leaf, leaf.hits)
    return report
