"""Symbolic quantum heaps and strongest-postcondition transformers.

A symbolic heap maps pairwise-disjoint groups of qubit names (cells) to
pure-state descriptions.  Cell states come in four flavours:

* ``concrete`` and exact: the amplitude vector, a read-only array, is
  fully known;
* ``concrete`` and inexact: a computational-basis claim that holds in this
  verification branch only, the relational reading of specifications such
  as ``Id(a, b)`` over qubits;
* ``opaque``: a named but unidentified pure state (a ghost);
* ``unknown``: nothing is known.

Transformers are pure functions from heaps to heaps plus a
:class:`HeapDelta` describing the consumed and produced fragments; cells
outside a transformer's footprint are returned bit-identical.  Every
operation on concrete amplitudes is :mod:`qhoare.sim`'s, whose runtime
state is cells of the same vectors: ``apply_to_cells`` joins the touched
cells and applies a unitary to them as a ``(2,)*n`` tensor without building
a 2^n x 2^n matrix, and ``split`` gives measurement both outcomes' parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    CUR_HEAP, And, Assn, CellGroup, Emp, GhostRef, HEmpty, HeapId, HVar,
    IdAt, Ket, KetVec, KET_AMPS, Or, Pair, PointsTo, Replace,
    Upd, Var, Emb, BoolLit, WildcardState, Lookup, MemberOf, Entangled,
    InDom, Top, chain_links, strip_emb,
)
from .sim import (
    NORM_TOL, UnitaryExpr, apply_to_cells, apply_to_tensor, footprint, split,
)

PRUNE_TOL = 1e-9
MAX_WIDTH = 21  # most qubits in one cell: 2 ** MAX_WIDTH amplitudes


class HeapError(Exception):
    pass


class WidthError(HeapError):
    """A gate would join a cell wider than :data:`MAX_WIDTH`."""


@dataclass(frozen=True, slots=True)
class SymState:
    """A cell state.  A concrete one's ``amps`` is a read-only complex
    array (an array given is taken over).  Equality and hash read ``_key``,
    its bytes with ``-0.0`` made ``0.0`` (made on first use)."""

    kind: str  # "concrete" | "opaque" | "unknown" | "wildcard"
    amps: Optional[np.ndarray] = field(default=None, compare=False)
    name: Optional[str] = None
    exact: bool = True
    _key: Optional[bytes] = field(init=False, repr=False)

    def __post_init__(self):
        if self.amps is not None:
            amps = np.asarray(self.amps, dtype=complex)
            amps.setflags(write=False)
            object.__setattr__(self, "amps", amps)

    def __getattr__(self, name):  # only reached while ``_key`` is unset
        if name != "_key":
            raise AttributeError(name)
        key = None if self.amps is None else (self.amps + 0.0).tobytes()
        object.__setattr__(self, "_key", key)
        return key


UNKNOWN_STATE = SymState("unknown", exact=False)
WILDCARD = SymState("wildcard", exact=False)


def concrete(amps) -> SymState:
    """A concrete state of the amplitudes ``amps``, a copy of them; their
    norm must be 1 within 1e-6, and is made 1."""
    v = np.array(amps, dtype=complex)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-6:
        raise HeapError(f"state vector norm {n} is not 1")
    if abs(n - 1.0) > 1e-15:  # scrub accumulated float drift
        v = v / n
    return SymState("concrete", v, exact=True)


# |0> and |1>, exact and as per-branch claims: BASIS[exact][bit]
BASIS = {exact: (SymState("concrete", KET_AMPS["0"], exact=exact),
                 SymState("concrete", KET_AMPS["1"], exact=exact))
         for exact in (True, False)}


def basis_claim(value: bool) -> SymState:
    """Inexact single-qubit basis state: a per-branch claim about the value."""
    return BASIS[False][bool(value)]


def opaque(name: str) -> SymState:
    return SymState("opaque", name=name)


@dataclass(frozen=True, slots=True)
class Cell:
    qubits: tuple  # nonempty, ordered
    state: SymState


@dataclass(frozen=True, slots=True)
class SymbolicHeap:
    cells: tuple = ()

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
        drop = {id(c) for c in cells}
        return tuple([c for c in self.cells if id(c) not in drop])


@dataclass
class Model:
    """A symbolic heap with the values of names (``env``).

    One record serves as a disjunct of an assertion's heap denotation
    (:func:`heap_from_assertion`), a branch the checker runs a ``do`` block
    over, and a model the prover evaluates an obligation in.  ``result`` is
    the value the block returns in the branch, set when the block ends.
    """

    heap: SymbolicHeap
    env: dict = field(default_factory=dict)
    result: object = None

    def copy(self) -> "Model":
        """The branch with its own ``env`` and no result."""
        return Model(self.heap, dict(self.env))


class HeapDelta(NamedTuple):
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
    return BASIS[True][bool(b)]


def sp_init(h: SymbolicHeap, init: bool, fresh: str):
    """Allocate ``fresh`` in the state for ``init``. All other cells are
    untouched."""
    if h.find(fresh) is not None:
        raise HeapError(f"qubit name {fresh!r} is already allocated")
    cell = Cell((fresh,), classical_to_state(init))
    delta = HeapDelta((), (cell,))
    return SymbolicHeap(h.cells + (cell,)), delta


def unitary_matrix(u: UnitaryExpr, order: tuple) -> np.ndarray:
    """Dense matrix of ``u`` over qubit ordering ``order`` (first qubit is
    the most significant basis bit): ``u`` applied to every basis column."""
    dim = 2 ** len(order)
    columns = np.eye(dim, dtype=complex).reshape((2,) * len(order) + (dim,))
    return apply_to_tensor(u, columns, order).reshape(dim, dim)


class ApplyResult(NamedTuple):
    heap: SymbolicHeap
    delta: HeapDelta
    residual: bool  # True when the result state could not be computed


def sp_apply_unitary(h: SymbolicHeap, u: UnitaryExpr,
                     memo: Optional[dict] = None) -> ApplyResult:
    """Apply ``u``'s denotation to the touched cells, merging them into one.

    A footprint qubit that is not allocated is a :class:`HeapError`, and a
    merged cell of more than :data:`MAX_WIDTH` qubits a :class:`WidthError`.
    When any touched state is opaque, unknown, or only a basis claim, the
    merged cell becomes unknown and ``residual`` is set so the caller can
    emit the corresponding verification condition.  Otherwise the merged
    cell is kept in ``memo``, with the touched cells' amplitude arrays, under
    ``u`` and their qubits and the hash of their raw bytes.  An application
    whose arrays equal those bit for bit, signed zeros included, returns the
    same cell, the vector a fresh application computes.  The memo holds
    references, not copies, of the arrays.
    """
    touched, residual = [], False
    for q in footprint(u):
        cell = h.find(q)
        if cell is None:
            raise HeapError(f"qubit {q!r} is not allocated")
        if cell not in touched:
            touched.append(cell)
            residual |= cell.state.kind != "concrete" or not cell.state.exact
    if not touched:
        return ApplyResult(h, EMPTY_DELTA, False)
    width = sum(len(c.qubits) for c in touched)
    if width > MAX_WIDTH:
        raise WidthError(f"the gate joins a cell of {width} qubits, more "
                         f"than the {MAX_WIDTH} that heap.MAX_WIDTH allows")
    if residual:
        new_cell = Cell(tuple(q for c in touched for q in c.qubits),
                        UNKNOWN_STATE)
    else:
        memo = {} if memo is None else memo
        amps = [c.state.amps for c in touched]
        key = (u, *[(c.qubits, hash(a.tobytes()))
                    for c, a in zip(touched, amps)])
        seen, new_cell = memo.get(key, ((), None))
        if new_cell is None or not all(a is b or a.tobytes() == b.tobytes()
                                       for a, b in zip(seen, amps)):
            qubits, vec = apply_to_cells(
                u, [(c.qubits, a) for c, a in zip(touched, amps)])
            new_cell = Cell(qubits, SymState("concrete", vec))
            memo[key] = amps, new_cell
    cells = h.without(touched) + (new_cell,)
    delta = HeapDelta(tuple(touched), (new_cell,))
    return ApplyResult(SymbolicHeap(cells), delta, residual)


@dataclass(frozen=True)
class MeasBranch:
    outcome: Optional[bool]  # None when outcomes are not refined
    heap: SymbolicHeap
    delta: HeapDelta


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

    def heap_with(rest: Optional[np.ndarray], exact: bool = True):
        """The heap with the rest of ``cell`` holding the amplitudes
        ``rest``, or an unknown state where ``rest`` is None."""
        cells = h.without([cell])
        if rest_qubits:
            state = UNKNOWN_STATE if rest is None \
                else SymState("concrete", rest, exact=exact)
            cells = cells + (Cell(rest_qubits, state),)
        return SymbolicHeap(cells)

    if cell.state.kind != "concrete":
        return [MeasBranch(v, heap_with(None), delta)
                for v in ((False, True) if refine else (None,))]
    halves = split(cell.state.amps, idx, len(cell.qubits))
    if refine:
        branches = [MeasBranch(v, heap_with(sub, cell.state.exact), delta)
                    for v, (sub, weight) in zip((False, True), halves)
                    if weight > PRUNE_TOL]
        if not branches:
            raise HeapError("all measurement outcomes have zero amplitude")
        return branches

    # literal rule: no outcome refinement; the rest is kept only if the
    # measured qubit factors out
    (r0, w0), (r1, w1) = halves
    if not cell.state.exact:
        rest = None
    elif w0 <= PRUNE_TOL:
        rest = r1
    elif w1 <= PRUNE_TOL or abs(abs(np.vdot(r0, r1)) - 1.0) < NORM_TOL:
        rest = r0
    else:
        rest = None
    return [MeasBranch(None, heap_with(rest), delta)]


# ---------------------------------------------------------------------------
# Rendering heaps, cells and deltas as assertions


def _phase_canonical(vec: np.ndarray) -> np.ndarray:
    """``vec`` rephased so that its first amplitude above 1e-12 is > 0."""
    z = vec[0]
    if abs(z) <= 1e-12:  # rare: most states lead with a nonzero amplitude
        big = np.flatnonzero(np.abs(vec) > 1e-12)
        z = vec[big[0]] if big.size else 1  # 1: nothing to rephase by
    return vec * (abs(z) / z)


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.allclose(a, b, atol=1e-9)`` over the last axis, for each row
    of ``b``: ``|a - b| <= 1e-9 + 1e-5 * |b|`` everywhere.  The two agree
    wherever ``b`` is finite, and it costs a few numpy operations rather
    than ``np.allclose``'s checks and conversions."""
    return (np.abs(a - b) <= 1e-9 + 1e-5 * np.abs(b)).all(axis=-1)


def _kets_by_length() -> dict:
    """Amplitude length -> (ket kinds in KET_AMPS order, stacked amps)."""
    kinds = {}
    for kind, amps in KET_AMPS.items():
        kinds.setdefault(len(amps), []).append(kind)
    return {n: (tuple(ks), np.array([KET_AMPS[k] for k in ks]))
            for n, ks in kinds.items()}


_KETS_BY_LENGTH = _kets_by_length()


def state_expr(state: SymState):
    """Surface representation of a cell state: a named ket when one
    matches up to global phase, an amplitude vector otherwise."""
    if state.kind == "opaque":
        return GhostRef(state.name)
    if state.kind in ("unknown", "wildcard"):
        return WildcardState()
    vec = _phase_canonical(state.amps)
    if len(vec) in _KETS_BY_LENGTH:
        kinds, amps = _KETS_BY_LENGTH[len(vec)]
        hits = np.flatnonzero(_close(vec, amps))
        if hits.size:
            return Ket(kinds[hits[0]])
    # round() on a numpy scalar runs np.round, so rounding the whole vector
    # gives the same bits as rounding amplitude by amplitude
    rounded = np.round(vec.real, 12) + 1j * np.round(vec.imag, 12)
    return KetVec(tuple(rounded.tolist()))


def loc_term(qubits: tuple):
    term = Emb(Var(qubits[0]))
    for q in qubits[1:]:
        term = Pair(term, Emb(Var(q)))
    return term


def cell_assertion(cell: Cell, render=state_expr) -> Assn:
    return PointsTo(loc_term(cell.qubits), render(cell.state))


def _delta_side(cells: tuple, render) -> Assn:
    if not cells:
        return Emp()
    if len(cells) == 1:
        return cell_assertion(cells[0], render)
    return CellGroup(tuple(cell_assertion(c, render) for c in cells))


def delta_assertion(delta: HeapDelta, render=state_expr) -> Assn:
    """The delta as an assertion; ``render`` gives each cell state's
    surface form, :func:`state_expr` or a memo of it."""
    if not delta.consumed:
        return _delta_side(delta.produced, render)
    return Replace(_delta_side(delta.consumed, render),
                   _delta_side(delta.produced, render))


def heap_to_assertions(h: SymbolicHeap, render=state_expr) -> list:
    """Hypothesis assertions pinning the current heap; ``render`` as in
    :func:`delta_assertion`."""
    cells = sorted(h.cells, key=lambda c: c.qubits)
    if not cells:
        return [Emp()]
    if len(cells) == 1:
        return [cell_assertion(cells[0], render)]
    expr = HEmpty()
    for c in cells:
        expr = Upd(expr, loc_term(c.qubits), render(c.state))
    return [HeapId(HVar(CUR_HEAP), expr)]


# ---------------------------------------------------------------------------
# Building heap models from assertions


def _state_of_expr(expr, kind_of) -> Optional[SymState]:
    match expr:
        case Ket(kind):
            if kind in ("0", "1"):
                return basis_claim(kind == "1")
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
    if a.kind == "unknown":
        return b
    if b.kind == "unknown":
        return a
    if a.kind == "concrete" and b.kind == "concrete":
        va, vb = _phase_canonical(a.amps), _phase_canonical(b.amps)
        if len(va) == len(vb) and _close(va, vb):
            return a if a.exact else b
        if a.exact and b.exact:
            return None
        basis = {s._key for s in BASIS[False]}
        if a._key in basis and b._key in basis:
            return None  # contradictory basis claims
        return a if a.exact else b
    return a


def _add_cell(cells: list, qubits: tuple, state: SymState) -> bool:
    for i, c in enumerate(cells):
        if set(c.qubits) & set(qubits):
            if c.qubits == qubits:
                merged = _merge_states(c.state, state)
                if merged is None:
                    return False
                cells[i] = Cell(qubits, merged)
                return True
            merged_qubits = tuple(dict.fromkeys(c.qubits + qubits))
            cells[i] = Cell(merged_qubits, UNKNOWN_STATE)
            return True
    cells.append(Cell(qubits, state))
    return True


def _term_name(m) -> Optional[str]:
    m = strip_emb(m)
    if isinstance(m, Var):
        return m.name
    if isinstance(m, GhostRef):
        return m.name
    return None


def _pair_names(m):
    m = strip_emb(m)
    if isinstance(m, Pair):
        a, b = _term_name(m.first), _term_name(m.second)
        if a and b:
            return (a, b)
    return None


def heap_from_assertion(a: Assn, kind_of) -> list:
    """Denote an assertion as a set of heap branches.

    ``kind_of(name)`` classifies free names as "qubit", "bool", "pure" or
    "unknown".  Atoms outside the modelled fragment add nothing to a
    branch.  Returns a list of :class:`Model`; an unsatisfiable assertion
    yields the empty list.
    """
    branches = _denote(a, kind_of)
    for b in branches:
        check_disjoint(b.heap.cells)
    return branches


# The walks below are module-level: a nested function that calls itself
# closes over its own cell, a reference cycle only the collector frees.


def _product(lhs: list, rhs: list) -> list:
    out = []
    for bl in lhs:
        for br in rhs:
            cells = list(bl.heap.cells)
            if not all(_add_cell(cells, c.qubits, c.state)
                       for c in br.heap.cells):
                continue
            env = dict(bl.env)
            if all(env.setdefault(k, v) == v for k, v in br.env.items()):
                out.append(Model(SymbolicHeap(tuple(cells)), env))
    return out


def _single(*cells, env=None) -> list:
    return [Model(SymbolicHeap(cells), env or {})]


def _written(qubits: tuple, state: SymState) -> list:
    n = 2 ** len(qubits)
    if state.amps is not None and len(state.amps) != n:
        raise HeapError(f"a state of {len(state.amps)} amplitudes at "
                        f"{len(qubits)} qubit(s), which take {n}")
    return _single(Cell(qubits, state))


def _denote(a, kind_of) -> list:
    match a:
        case Top() | Emp():
            return _single()
        case And() | Or():
            first, links = chain_links(a)
            out = _denote(first, kind_of)
            for link in links:
                if type(link) is And:
                    out = _product(out, _denote(link.right, kind_of))
                else:
                    out += _denote(link.right, kind_of)
            return out
        case MemberOf(term, cands):
            out = []
            for c in cands:
                out.extend(_denote(IdAt(None, term, c), kind_of))
            return out
        case IdAt(_, l, r):
            lname = _term_name(l)
            if lname is not None and kind_of(lname) == "qubit":
                if isinstance(r, WildcardState):
                    return _single(Cell((lname,), UNKNOWN_STATE))
                rname = _term_name(r)
                if rname is not None and kind_of(rname) == "qubit":
                    return [Model(SymbolicHeap((
                                Cell((lname,), basis_claim(v)),
                                Cell((rname,), basis_claim(v)))), {})
                            for v in (False, True)]
                st = _state_of_expr(r, kind_of)
                if st is not None:
                    return _written((lname,), st)
                return _single()
            if lname is not None and kind_of(lname) == "bool":
                rv = strip_emb(r)
                if isinstance(rv, BoolLit):
                    return _single(env={lname: rv.value})
                rname = _term_name(r)
                if rname is not None and kind_of(rname) == "bool":
                    return [Model(SymbolicHeap(), {lname: v, rname: v})
                            for v in (False, True)]
            return _single()
        case PointsTo(loc, st) | Lookup(loc, st):
            qubits = _pair_names(loc)
            if qubits is None:
                name = _term_name(loc)
                qubits = (name,) if name else None
            if qubits is None:
                return _single()
            state = _state_of_expr(st, kind_of) or UNKNOWN_STATE
            return _written(tuple(qubits), state)
        case Entangled(t):
            name = _term_name(t)
            if name is None:
                return _single()
            return _single(Cell((name,), UNKNOWN_STATE))
        case _:
            return _single()


def footprint_qubits(a: Assn, kind_of) -> list:
    """Qubit names an assertion's heap denotation talks about, in order."""
    out = []
    _footprint(a, kind_of, out)
    return out


def _footprint(a, kind_of, out: list) -> None:
    match a:
        case And() | Or():
            first, links = chain_links(a)
            for b in (first, *(link.right for link in links)):
                _footprint(b, kind_of, out)
            return
        case MemberOf(term, _) | Entangled(term):
            names = (_term_name(term),)
        case IdAt(_, l, r):
            names = (_term_name(l), _term_name(r))
        case PointsTo(loc, _) | Lookup(loc, _):
            names = _pair_names(loc) or (_term_name(loc),)
        case InDom(_, loc):
            names = (_term_name(loc),)
        case _:
            return
    for name in names:
        if name and kind_of(name) == "qubit" and name not in out:
            out.append(name)
