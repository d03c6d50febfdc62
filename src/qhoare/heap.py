"""Symbolic quantum heaps and strongest-postcondition transformers.

A symbolic heap maps pairwise-disjoint groups of qubit names (cells) to
pure-state descriptions.  Cell states come in four flavours:

* ``concrete`` and exact: the amplitude vector is fully known;
* ``concrete`` and inexact: a computational-basis claim that holds in this
  verification branch only, the relational reading of specifications such
  as ``Id(a, b)`` over qubits;
* ``opaque``: a named but unidentified pure state (a ghost);
* ``unknown``: nothing is known.

Transformers are pure functions from heaps to heaps plus a
:class:`HeapDelta` describing the consumed and produced fragments; cells
outside a transformer's footprint are returned bit-identical.  Unitaries
are applied to the merged cell's amplitudes held as a ``(2,)*n`` tensor, one
axis per qubit: a rotation contracts one axis with its 2x2 matrix and a
quantum conditional recurses into the two slices along the control's axis,
so no 2^n x 2^n matrix is built.  This tensor route is deliberately
independent from the sparse amplitude-map route in :mod:`qhoare.sim`, so
the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    And, Assn, CellGroup, Compose, Emp, GhostRef, HEmpty, HeapId, HVar,
    IdAt, Ket, KetVec, KET_AMPS, NameSupply, Or, Pair, PointsTo, Replace,
    Upd, Var, Emb, BoolLit, WildcardState, Lookup, MemberOf, Entangled,
    InDom, Top,
)
from .sim import UnitaryExpr, MEmpty, MAppend, Rot, Cond, footprint

NORM_TOL = 1e-9
PRUNE_TOL = 1e-9


class HeapError(Exception):
    pass


@dataclass(frozen=True)
class SymState:
    kind: str  # "concrete" | "opaque" | "unknown" | "wildcard"
    amps: Optional[tuple] = None
    name: Optional[str] = None
    exact: bool = True

    def vector(self) -> np.ndarray:
        return np.asarray(self.amps, dtype=complex)


UNKNOWN_STATE = SymState("unknown", exact=False)
WILDCARD = SymState("wildcard", exact=False)


def concrete(amps, exact: bool = True) -> SymState:
    v = np.asarray(amps, dtype=complex)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-6:
        raise HeapError(f"state vector norm {n} is not 1")
    if abs(n - 1.0) > 1e-15:  # scrub accumulated float drift
        v = v / n
    return SymState("concrete", tuple(v.tolist()), exact=exact)


def basis_claim(value: bool) -> SymState:
    """Inexact single-qubit basis state: a per-branch claim about the value."""
    return SymState("concrete", KET_AMPS["1" if value else "0"], exact=False)


def opaque(name: str) -> SymState:
    return SymState("opaque", name=name)


@dataclass(frozen=True)
class Cell:
    qubits: tuple  # nonempty, ordered
    state: SymState


@dataclass(frozen=True)
class SymbolicHeap:
    cells: tuple = ()
    frame_var: Optional[str] = None

    def find(self, qubit: str) -> Optional[Cell]:
        for c in self.cells:
            if qubit in c.qubits:
                return c
        return None

    def qubits(self) -> set:
        out = set()
        for c in self.cells:
            out |= set(c.qubits)
        return out

    def without(self, cells) -> tuple:
        drop = set(id(c) for c in cells)
        return tuple(c for c in self.cells if id(c) not in drop)


@dataclass(frozen=True)
class HeapDelta:
    consumed: tuple  # tuple[Cell, ...]
    produced: tuple

    def is_empty(self) -> bool:
        return not self.consumed and not self.produced


EMPTY_DELTA = HeapDelta((), ())


def check_disjoint(cells) -> None:
    seen = set()
    for c in cells:
        for q in c.qubits:
            if q in seen:
                raise HeapError(f"qubit {q!r} occurs in two cells")
            seen.add(q)


# ---------------------------------------------------------------------------
# Transformers


def classical_to_state(b: bool) -> SymState:
    """Quantum state for a classical boolean: ``|1>`` for true, ``|0>``
    otherwise."""
    return concrete(KET_AMPS["1" if b else "0"])


def sp_init(h: SymbolicHeap, init: bool, fresh: str):
    """Allocate ``fresh`` in the state for ``init``. All other cells are
    untouched."""
    if h.find(fresh) is not None:
        raise HeapError(f"qubit name {fresh!r} is already allocated")
    cell = Cell((fresh,), classical_to_state(init))
    delta = HeapDelta((), (cell,))
    return SymbolicHeap(h.cells + (cell,), h.frame_var), delta


def _apply_to_tensor(u: UnitaryExpr, t: np.ndarray, order: tuple):
    """Apply ``u`` to ``t``, whose leading axes are the qubits of ``order``
    (length 2 each) and whose trailing axes, if any, form a batch."""
    match u:
        case MEmpty():
            return t
        case MAppend(a, b):
            return _apply_to_tensor(b, _apply_to_tensor(a, t, order), order)
        case Rot(q, m):
            i = order.index(q)
            m = np.asarray(m, dtype=complex)
            return (m @ t.reshape(2 ** i, 2, -1)).reshape(t.shape)
        case Cond(q, fb, tb):
            i = order.index(q)
            rest = order[:i] + order[i + 1:]
            return np.stack(
                [_apply_to_tensor(fb, np.take(t, 0, axis=i), rest),
                 _apply_to_tensor(tb, np.take(t, 1, axis=i), rest)],
                axis=i)
    raise HeapError(f"bad unitary expression {u!r}")


def unitary_matrix(u: UnitaryExpr, order: tuple) -> np.ndarray:
    """Dense matrix of ``u`` over qubit ordering ``order`` (first qubit is
    the most significant basis bit): ``u`` applied to every basis column."""
    dim = 2 ** len(order)
    columns = np.eye(dim, dtype=complex).reshape((2,) * len(order) + (dim,))
    return _apply_to_tensor(u, columns, order).reshape(dim, dim)


@dataclass(frozen=True)
class ApplyResult:
    heap: SymbolicHeap
    delta: HeapDelta
    residual: bool  # True when the result state could not be computed


def sp_apply_unitary(h: SymbolicHeap, u: UnitaryExpr) -> ApplyResult:
    """Apply ``u``'s denotation to the touched cells, merging them into one.

    All footprint qubits must be allocated (the caller discharges the
    allocation obligation first).  When any touched state is opaque,
    unknown, or only a basis claim, the merged cell becomes unknown and
    ``residual`` is set so the caller can emit the corresponding
    verification condition.
    """
    fp = footprint(u)
    if not fp:
        return ApplyResult(h, EMPTY_DELTA, False)
    touched = []
    for q in fp:
        cell = h.find(q)
        if cell is None:
            raise HeapError(f"qubit {q!r} is not allocated")
        if cell not in touched:
            touched.append(cell)
    merged_qubits = tuple(q for c in touched for q in c.qubits)
    computable = all(c.state.kind == "concrete" and c.state.exact
                     for c in touched)
    if computable:
        joint = np.array([1.0 + 0j])
        for c in touched:
            joint = np.kron(joint, c.state.vector())
        t = joint.reshape((2,) * len(merged_qubits))
        new_state = concrete(
            _apply_to_tensor(u, t, merged_qubits).reshape(-1))
        residual = False
    else:
        new_state = UNKNOWN_STATE
        residual = True
    new_cell = Cell(merged_qubits, new_state)
    cells = h.without(touched) + (new_cell,)
    delta = HeapDelta(tuple(touched), (new_cell,))
    return ApplyResult(SymbolicHeap(cells, h.frame_var), delta, residual)


@dataclass(frozen=True)
class MeasBranch:
    outcome: Optional[bool]  # None when outcomes are not refined
    heap: SymbolicHeap
    delta: HeapDelta


def _project(vec: np.ndarray, pos: int, n: int, value: bool):
    t = vec.reshape([2] * n)
    sub = np.take(t, 1 if value else 0, axis=pos).reshape(-1)
    weight = float(np.linalg.norm(sub))
    return sub, weight


def sp_measure(h: SymbolicHeap, q: str, refine: bool = True):
    """Measurement transformer: the fragment at ``q`` becomes empty.

    With refinement (the default) the result is one branch per outcome of
    nonzero amplitude, with the renormalized projected residual state; with
    ``refine=False`` the single branch follows the literal rule: the
    outcome is unconstrained and the residual state of the cell's other
    qubits is kept only when it factors out exactly.
    """
    cell = h.find(q)
    if cell is None:
        raise HeapError(f"qubit {q!r} is not allocated")
    idx = cell.qubits.index(q)
    rest_qubits = cell.qubits[:idx] + cell.qubits[idx + 1:]
    delta = HeapDelta((Cell((q,), WILDCARD),), ())

    def heap_with(rest_state: Optional[SymState]) -> SymbolicHeap:
        cells = h.without([cell])
        if rest_qubits and rest_state is not None:
            cells = cells + (Cell(rest_qubits, rest_state),)
        return SymbolicHeap(cells, h.frame_var)

    if cell.state.kind != "concrete":
        residual = UNKNOWN_STATE if rest_qubits else None
        if refine:
            return [MeasBranch(v, heap_with(residual), delta)
                    for v in (False, True)]
        return [MeasBranch(None, heap_with(residual), delta)]

    vec = cell.state.vector()
    n = len(cell.qubits)
    if refine:
        branches = []
        for value in (False, True):
            sub, weight = _project(vec, idx, n, value)
            if weight <= PRUNE_TOL:
                continue
            if rest_qubits:
                rest = SymState("concrete",
                                tuple((sub / weight).tolist()),
                                exact=cell.state.exact)
            else:
                rest = None
            branches.append(MeasBranch(value, heap_with(rest), delta))
        if not branches:
            raise HeapError("all measurement outcomes have zero amplitude")
        return branches

    # literal rule: no outcome refinement
    if not rest_qubits:
        return [MeasBranch(None, heap_with(None), delta)]
    if not cell.state.exact:
        return [MeasBranch(None, heap_with(UNKNOWN_STATE), delta)]
    # keep the rest only if the measured qubit factors out
    t = vec.reshape([2] * n)
    sub0, w0 = _project(vec, idx, n, False)
    sub1, w1 = _project(vec, idx, n, True)
    if w0 <= PRUNE_TOL or w1 <= PRUNE_TOL:
        sub, w = (sub1, w1) if w0 <= PRUNE_TOL else (sub0, w0)
        rest = SymState("concrete", tuple((sub / w).tolist()))
        return [MeasBranch(None, heap_with(rest), delta)]
    r0, r1 = sub0 / w0, sub1 / w1
    if abs(abs(np.vdot(r0, r1)) - 1.0) < NORM_TOL:
        rest = SymState("concrete", tuple(r0.tolist()))
        return [MeasBranch(None, heap_with(rest), delta)]
    return [MeasBranch(None, heap_with(UNKNOWN_STATE), delta)]


# ---------------------------------------------------------------------------
# Rendering heaps, cells and deltas as assertions


def _phase_canonical(vec: np.ndarray) -> np.ndarray:
    for z in vec:
        if abs(z) > 1e-12:
            return vec * (abs(z) / z)
    return vec


def state_expr(state: SymState):
    """Surface representation of a cell state: a named ket when one
    matches up to global phase, an amplitude vector otherwise."""
    if state.kind == "opaque":
        return GhostRef(state.name)
    if state.kind in ("unknown", "wildcard"):
        return WildcardState()
    vec = _phase_canonical(state.vector())
    for kind, amps in KET_AMPS.items():
        ref = np.asarray(amps)
        if len(ref) == len(vec) and np.allclose(vec, ref, atol=1e-9):
            return Ket(kind)
    # round() on a numpy scalar runs np.round, so rounding the whole vector
    # gives the same bits as rounding amplitude by amplitude
    rounded = np.round(vec.real, 12) + 1j * np.round(vec.imag, 12)
    return KetVec(tuple(rounded.tolist()))


def loc_term(qubits: tuple):
    term = Emb(Var(qubits[0]))
    for q in qubits[1:]:
        term = Pair(term, Emb(Var(q)))
    return term


def cell_assertion(cell: Cell) -> Assn:
    return PointsTo(loc_term(cell.qubits), state_expr(cell.state))


def _delta_side(cells: tuple) -> Assn:
    if not cells:
        return Emp()
    if len(cells) == 1:
        return cell_assertion(cells[0])
    return CellGroup(tuple(cell_assertion(c) for c in cells))


def delta_assertion(delta: HeapDelta) -> Assn:
    if not delta.consumed:
        return _delta_side(delta.produced)
    return Replace(_delta_side(delta.consumed), _delta_side(delta.produced))


def render_assertion(deltas, initial: Assn) -> Assn:
    """Right-nested composition chain for a sequence of deltas in program
    order."""
    items = [delta_assertion(d) for d in deltas if not d.is_empty()]
    if not items:
        return initial
    chain = items[-1]
    for d in reversed(items[:-1]):
        chain = Compose(d, chain)
    return Compose(initial, chain)


def heap_to_assertions(h: SymbolicHeap, cur: str = "%h") -> list:
    """Hypothesis assertions pinning the current heap."""
    cells = sorted(h.cells, key=lambda c: c.qubits)
    if not cells:
        return [Emp()]
    if len(cells) == 1:
        return [cell_assertion(cells[0])]
    expr = HEmpty()
    for c in cells:
        expr = Upd(expr, loc_term(c.qubits), state_expr(c.state))
    return [HeapId(HVar(cur), expr)]


# ---------------------------------------------------------------------------
# Building heap models from assertions


@dataclass
class AbsBranch:
    """One disjunct of an assertion's heap denotation."""

    cells: list
    env: dict
    assumed: list

    def copy(self) -> "AbsBranch":
        return AbsBranch(list(self.cells), dict(self.env), list(self.assumed))


def _state_of_expr(expr, kind_of) -> Optional[SymState]:
    match expr:
        case Ket(kind):
            if kind in ("0", "1"):
                return SymState("concrete", KET_AMPS[kind], exact=False)
            return concrete(KET_AMPS[kind])
        case KetVec(amps):
            return concrete(amps)
        case GhostRef(name):
            return opaque(name)
        case WildcardState():
            return UNKNOWN_STATE
        case Emb(Var(name)) | Var(name):
            if kind_of(name) == "pure":
                return opaque(name)
            return None
    return None


def _merge_states(a: SymState, b: SymState) -> Optional[SymState]:
    # Combine two claims about the same qubit; None means contradiction.
    if a == b:
        return a
    if a.kind == "unknown":
        return b
    if b.kind == "unknown":
        return a
    if a.kind == "concrete" and b.kind == "concrete":
        va, vb = _phase_canonical(a.vector()), _phase_canonical(b.vector())
        if len(va) == len(vb) and np.allclose(va, vb, atol=1e-9):
            return a if a.exact else b
        if a.exact and b.exact:
            return None
        basis = {tuple(KET_AMPS["0"]), tuple(KET_AMPS["1"])}
        if a.amps in basis and b.amps in basis:
            return None  # contradictory basis claims
        return a if a.exact else b
    return a


def _add_cell(branch: AbsBranch, qubits: tuple, state: SymState) -> bool:
    for i, c in enumerate(branch.cells):
        if set(c.qubits) & set(qubits):
            if c.qubits == qubits:
                merged = _merge_states(c.state, state)
                if merged is None:
                    return False
                branch.cells[i] = Cell(qubits, merged)
                return True
            merged_qubits = tuple(dict.fromkeys(c.qubits + qubits))
            branch.cells[i] = Cell(merged_qubits, UNKNOWN_STATE)
            return True
    branch.cells.append(Cell(qubits, state))
    return True


def _term_name(m) -> Optional[str]:
    while isinstance(m, Emb):
        m = m.elim
    if isinstance(m, Var):
        return m.name
    if isinstance(m, GhostRef):
        return m.name
    return None


def _pair_names(m):
    while isinstance(m, Emb):
        m = m.elim
    if isinstance(m, Pair):
        a, b = _term_name(m.first), _term_name(m.second)
        if a and b:
            return (a, b)
    return None


def heap_from_assertion(a: Assn, kind_of, supply: NameSupply = None) -> list:
    """Denote an assertion as a set of abstract heap branches.

    ``kind_of(name)`` classifies free names as "qubit", "bool", "pure" or
    "unknown".  Atoms outside the modelled fragment are recorded on the
    branch as assumed facts.  Returns a list of :class:`AbsBranch`; an
    unsatisfiable assertion yields the empty list.
    """
    supply = supply or NameSupply()

    def product(lhs: list, rhs: list) -> list:
        out = []
        for bl in lhs:
            for br in rhs:
                merged = bl.copy()
                ok = True
                for c in br.cells:
                    if not _add_cell(merged, c.qubits, c.state):
                        ok = False
                        break
                if not ok:
                    continue
                for k, v in br.env.items():
                    if k in merged.env and merged.env[k] != v:
                        ok = False
                        break
                    merged.env[k] = v
                if ok:
                    merged.assumed.extend(br.assumed)
                    out.append(merged)
        return out

    def single(cells=(), env=None, assumed=()) -> list:
        return [AbsBranch(list(cells), dict(env or {}), list(assumed))]

    def go(a) -> list:
        match a:
            case Top() | Emp():
                return single()
            case And(l, r):
                return product(go(l), go(r))
            case Or(l, r):
                return go(l) + go(r)
            case MemberOf(term, cands):
                out = []
                for c in cands:
                    out.extend(go(IdAt(None, term, c)))
                return out
            case IdAt(_, l, r):
                lname = _term_name(l)
                if lname is not None and kind_of(lname) == "qubit":
                    if isinstance(r, WildcardState):
                        return single(cells=[Cell((lname,), UNKNOWN_STATE)])
                    rname = _term_name(r)
                    if rname is not None and kind_of(rname) == "qubit":
                        return [
                            AbsBranch([Cell((lname,), basis_claim(v)),
                                       Cell((rname,), basis_claim(v))], {}, [])
                            for v in (False, True)
                        ]
                    st = _state_of_expr(r, kind_of)
                    if st is not None:
                        return single(cells=[Cell((lname,), st)])
                    return single(assumed=[a])
                if lname is not None and kind_of(lname) == "bool":
                    rv = r
                    while isinstance(rv, Emb):
                        rv = rv.elim
                    if isinstance(rv, BoolLit):
                        return single(env={lname: rv.value})
                    rname = _term_name(r)
                    if rname is not None and kind_of(rname) == "bool":
                        return [AbsBranch([], {lname: v, rname: v}, [])
                                for v in (False, True)]
                return single(assumed=[a])
            case PointsTo(loc, st) | Lookup(loc, st):
                qubits = _pair_names(loc)
                if qubits is None:
                    name = _term_name(loc)
                    qubits = (name,) if name else None
                if qubits is None:
                    return single(assumed=[a])
                state = _state_of_expr(st, kind_of) or UNKNOWN_STATE
                return single(cells=[Cell(tuple(qubits), state)])
            case Entangled(t):
                name = _term_name(t)
                if name is None:
                    return single(assumed=[a])
                return single(cells=[Cell((name,), UNKNOWN_STATE)],
                              assumed=[a])
            case _:
                return single(assumed=[a])

    branches = go(a)
    for b in branches:
        check_disjoint(b.cells)
    return branches


def footprint_qubits(a: Assn, kind_of) -> list:
    """Qubit names an assertion's heap denotation talks about, in order."""
    out = []

    def add(name):
        if name and kind_of(name) == "qubit" and name not in out:
            out.append(name)

    def go(a):
        match a:
            case And(l, r) | Or(l, r):
                go(l), go(r)
            case MemberOf(term, _):
                add(_term_name(term))
            case IdAt(_, l, r):
                add(_term_name(l))
                add(_term_name(r))
            case PointsTo(loc, _) | Lookup(loc, _):
                pair = _pair_names(loc)
                if pair:
                    add(pair[0]), add(pair[1])
                else:
                    add(_term_name(loc))
            case Entangled(t):
                add(_term_name(t))
            case InDom(_, loc):
                add(_term_name(loc))
            case _:
                pass

    go(a)
    return out
