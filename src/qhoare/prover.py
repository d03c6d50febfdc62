"""Entailment checking for the symbolic-heap assertion fragment.

Obligations are sequents ``vars; heaps; hypotheses ==> conclusion``.  Each
is classified Proved, Refuted (with a concrete finite countermodel) or
Unknown (with the unproven residual); the checker is total.

Semantics: models are finite quantum heaps whose cells hold states drawn
from the ket-literal alphabet plus opaque ghost constants; a concrete
state is a read-only array, and its reduced density and purity are
:mod:`qhoare.sim`'s.  Multi-qubit
cells are evaluated by splitting into their nonzero computational-basis
branches: a formula holds of a cell in superposition when it holds in
every branch.  Inexact states (relational claims produced when modelling a
callee's postcondition) decide basis-diagonal comparisons only; everything
else about them is honestly Unknown.

Every obligation carries its models, the type checker's branches at the
point it was emitted, and is decided in exactly those: Proved when the
conclusion holds in each, Refuted when it fails in one, Unknown otherwise.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    And, ARef, Assn, BoolLit, Bot, CellGroup, Compose, Emp,
    Entangled, ExistsHeap, ExistsVar, ForallHeap, ForallVar, GhostRef,
    HeapE, HeapId, HEmpty, HVar, IdAt, InDom, Ket, KetVec, Lookup, MemberOf,
    Not, Or, Implies, Pair, PointsTo, Replace, Span, Top, UNKNOWN,
    UnitVal, Upd, Var, WildcardState, conjuncts, kleene_and,
    kleene_not, kleene_or, pretty, strip_emb, CUR_HEAP, KET_AMPS,
)
from .heap import (
    Cell, Model, SymbolicHeap, SymState, UNKNOWN_STATE, WILDCARD,
    basis_claim, opaque, state_expr,
)
from .sim import purity, reduced_density

ALLOCATION = "allocationVC"
POSTCONDITION = "postconditionVC"
CALL_PRE = "callPreVC"
UNITARITY = "unitarityVC"

PHASE_TOL = 1e-9


@dataclass
class Obligation:
    """A verification condition.

    ``var_ctx`` is any re-iterable sequence of ``(name, type)`` pairs.  The
    checker passes a :class:`qhoare.typecheck.VarCtx`, a read-only view
    over the context it shares between the obligations of one block; the
    pairs are materialized each time the view is read.  ``models`` are
    the checker's branches at the obligation, one :class:`Model` each, and
    the prover decides the obligation in them alone; ``hypotheses``
    describe the same branches as assertions, for the reports.
    """

    kind: str
    conclusion: Assn
    models: list
    hypotheses: list = field(default_factory=list)
    var_ctx: Sequence = ()
    heap_ctx: tuple = ()
    span: Optional[Span] = None
    note: str = ""
    decl: str = ""


@dataclass
class Verdict:
    status: str  # "proved" | "refuted" | "unknown"
    countermodel: Optional[dict] = None
    residual: Optional[Assn] = None

    @property
    def proved(self) -> bool:
        return self.status == "proved"


# ---------------------------------------------------------------------------
# Three-valued evaluation over a model


# The literal state of each named ket, and the state a qubit of a
# multi-qubit concrete cell has in one basis branch: _BASIS[exact][bit]
_KETS = {kind: SymState("concrete", amps) for kind, amps in KET_AMPS.items()}
_BASIS = {True: (_KETS["0"], _KETS["1"]),
          False: (basis_claim(False), basis_claim(True))}


def _phase_equal(u: np.ndarray, v: np.ndarray) -> bool:
    if u.shape != v.shape:
        return False
    return bool(abs(abs(np.vdot(u, v)) - 1.0) < PHASE_TOL)


def _basis_value_of_vec(vec: np.ndarray) -> Optional[bool]:
    for bit, ket in zip((False, True), _BASIS[True]):
        if _phase_equal(vec, ket.amps):
            return bit
    return None


def basis_views(heap: SymbolicHeap) -> list:
    """Expand multi-qubit concrete cells into computational-basis branches.

    A view maps each allocated qubit to a :class:`SymState`: a one-qubit
    cell's own state; ``|0>`` or ``|1>``, with the cell's exactness, for a
    qubit of a multi-qubit concrete cell; the unknown state otherwise.
    """
    views = [dict()]
    for cell in heap.cells:
        if len(cell.qubits) == 1:
            for v in views:
                v[cell.qubits[0]] = cell.state
            continue
        if cell.state.kind == "concrete":
            vec = cell.state.amps
            n = len(cell.qubits)
            basis = _BASIS[cell.state.exact]
            assignments = [
                [basis[(idx >> (n - 1 - k)) & 1] for k in range(n)]
                for idx in np.flatnonzero(np.abs(vec) > PHASE_TOL).tolist()]
            new_views = []
            for v in views:
                for states in assignments:
                    nv = dict(v)
                    nv.update(zip(cell.qubits, states))
                    new_views.append(nv)
            views = new_views
        else:
            for v in views:
                for q in cell.qubits:
                    v[q] = UNKNOWN_STATE
    return views


def _compare_states(a: SymState, b: SymState):
    """Three-valued equality of two states.  The wildcard ``-`` equals
    any state; two states not both exact differ only when both are basis
    states."""
    if a.kind == "wildcard" or b.kind == "wildcard":
        return True
    if a.kind == "unknown" or b.kind == "unknown":
        return UNKNOWN
    if a.kind == "opaque" or b.kind == "opaque":
        return True if a.kind == b.kind and a.name == b.name else UNKNOWN
    if _phase_equal(a.amps, b.amps):
        return True
    if a.exact and b.exact:
        return False
    va, vb = _basis_value_of_vec(a.amps), _basis_value_of_vec(b.amps)
    if va is not None and vb is not None:
        return va == vb
    return UNKNOWN


def _in_order(state: SymState, qubits: tuple, names: tuple) -> SymState:
    """``state``, held by a cell over ``qubits``, read with its qubits in
    the order ``names``, a permutation of ``qubits``.  An opaque state
    names one order only, so read in another it is unknown.  A vector not
    of the cell's size equals no state of it and is kept as it is."""
    if state.kind == "opaque" and names != qubits:
        return UNKNOWN_STATE
    if names == qubits or state.kind != "concrete" \
            or len(state.amps) != 2 ** len(qubits):
        return state
    axes = [qubits.index(q) for q in names]
    vec = state.amps.reshape((2,) * len(qubits)).transpose(axes)
    return SymState("concrete", vec.reshape(-1), exact=state.exact)


def _keyed(names: tuple, state: SymState) -> tuple:
    """The entry of a heap denotation for the cell at locations ``names``:
    its sorted locations and ``state`` read in that order."""
    key = tuple(sorted(names))
    return key, _in_order(state, names, key)


def _literal_state(expr) -> Optional[SymState]:
    """The state a ket, amplitude vector, ghost or wildcard denotes."""
    if isinstance(expr, Ket):
        return _KETS[expr.kind]
    if isinstance(expr, KetVec):
        return SymState("concrete", expr.amps)
    if isinstance(expr, GhostRef):
        return opaque(expr.name)
    if isinstance(expr, WildcardState):
        return WILDCARD
    return None


def _state_matches(state: SymState, expr):
    """Three-valued equality of ``state`` and the state ``expr`` denotes;
    unknown when ``expr`` denotes none."""
    lit = _literal_state(expr)
    return UNKNOWN if lit is None else _compare_states(state, lit)


class _Evaluator:
    """Evaluate assertions against one model and one basis view."""

    def __init__(self, model: Model, view: dict):
        self.model = model
        self.view = view

    def term_value(self, m):
        m = strip_emb(m)
        if isinstance(m, Var):
            v = self.model.env.get(m.name, m.name)
            return ("qubit", v) if isinstance(v, str) else v
        if isinstance(m, BoolLit):
            return m.value
        if isinstance(m, UnitVal):
            return None
        if isinstance(m, Pair):
            return (self.term_value(m.first), self.term_value(m.second))
        if isinstance(m, (Ket, KetVec, GhostRef, WildcardState)):
            return m
        return UNKNOWN

    def qubit_view(self, q: str):
        return self.view.get(q)  # None when not allocated

    def eval_id(self, l, r):
        lv, rv = self.term_value(l), self.term_value(r)
        return self._values_equal(lv, rv)

    def _values_equal(self, lv, rv):
        if isinstance(rv, WildcardState) or isinstance(lv, WildcardState):
            # the wildcard matches any definite value or allocated state
            other = lv if isinstance(rv, WildcardState) else rv
            if isinstance(other, tuple) and other and other[0] == "qubit":
                return self.qubit_view(other[1]) is not None
            return True if other is not UNKNOWN else UNKNOWN
        if lv is UNKNOWN or rv is UNKNOWN:
            return UNKNOWN
        if isinstance(lv, bool) and isinstance(rv, bool):
            return lv == rv
        lq = isinstance(lv, tuple) and bool(lv) and lv[0] == "qubit"
        rq = isinstance(rv, tuple) and bool(rv) and rv[0] == "qubit"
        if lq or rq:
            if lq and rq:
                if lv[1] == rv[1]:
                    return True
                a, b = self.qubit_view(lv[1]), self.qubit_view(rv[1])
                if a is None or b is None:
                    return False
                return _compare_states(a, b)
            qside, other = (lv, rv) if lq else (rv, lv)
            st = self.qubit_view(qside[1])
            if st is None:
                return False
            return _state_matches(st, other)
        if isinstance(lv, tuple) and isinstance(rv, tuple):
            if len(lv) != len(rv):
                return False
            out = True
            for a, b in zip(lv, rv):
                out = kleene_and(out, self._values_equal(a, b))
            return out
        la, ra = _literal_state(lv), _literal_state(rv)
        if la is not None and ra is not None:
            return _compare_states(la, ra)
        return UNKNOWN

    # --- heap expressions

    def heap_denotation(self, h: HeapE):
        """Concrete map from sorted locations to cell state, or None when
        unknown."""
        if isinstance(h, HVar) and h.name == CUR_HEAP:
            return dict(
                _keyed(c.qubits, c.state if len(c.qubits) == 1
                       or c.state.kind == "concrete" else UNKNOWN_STATE)
                for c in self.model.heap.cells)
        if isinstance(h, HEmpty):
            return {}
        if isinstance(h, Upd):
            base = self.heap_denotation(h.base)
            if base is None:
                return None
            names = self._loc_names(h.loc)
            if names is None:
                return None
            key, state = _keyed(names,
                                _literal_state(h.value) or UNKNOWN_STATE)
            return {**base, key: state}
        return None

    def _loc_names(self, loc):
        loc = strip_emb(loc)
        if isinstance(loc, Pair):
            a, b = self.term_value(loc.first), self.term_value(loc.second)
            if (isinstance(a, tuple) and a[0] == "qubit"
                    and isinstance(b, tuple) and b[0] == "qubit"):
                return (a[1], b[1])
            return None
        v = self.term_value(loc)
        if isinstance(v, tuple) and v and v[0] == "qubit":
            return (v[1],)
        return None

    # --- atoms

    def eval(self, a: Assn):
        match a:
            case Top():
                return True
            case Bot():
                return False
            case Emp():
                return len(self.model.heap.cells) == 0
            case And(l, r):
                return kleene_and(self.eval(l), self.eval(r))
            case Or(l, r):
                return kleene_or(self.eval(l), self.eval(r))
            case Implies(l, r):
                return kleene_or(kleene_not(self.eval(l)), self.eval(r))
            case Not(b):
                return kleene_not(self.eval(b))
            case IdAt(_, l, r):
                return self.eval_id(l, r)
            case MemberOf(t, cands):
                return functools.reduce(
                    kleene_or, (self.eval_id(t, c) for c in cands), False)
            case PointsTo(loc, st):
                names = self._loc_names(loc)
                if names is None:
                    return UNKNOWN
                cells = self.model.heap.cells
                if len(cells) != 1 or sorted(cells[0].qubits) != sorted(names):
                    return False
                return _state_matches(
                    _in_order(cells[0].state, cells[0].qubits, names), st)
            case Lookup(loc, st):
                names = self._loc_names(loc)
                if names is None:
                    return UNKNOWN
                if len(names) == 1:
                    view = self.qubit_view(names[0])
                    if view is None:
                        return False
                    return _state_matches(view, st)
                cell = self.model.heap.find(names[0])
                if cell is None or sorted(cell.qubits) != sorted(names):
                    return False
                return _state_matches(
                    _in_order(cell.state, cell.qubits, names), st)
            case InDom(h, loc):
                names = self._loc_names(loc)
                if names is None:
                    return UNKNOWN
                if isinstance(h, HVar) and h.name == CUR_HEAP:
                    return all(self.qubit_view(n) is not None for n in names)
                den = self.heap_denotation(h)
                if den is None:
                    return UNKNOWN
                return all(any(n in key for key in den) for n in names)
            case HeapId(l, r):
                dl, dr = self.heap_denotation(l), self.heap_denotation(r)
                if dl is None or dr is None:
                    return UNKNOWN
                if set(dl) != set(dr):
                    return False
                out = True
                for k in dl:
                    out = kleene_and(out, _compare_states(dl[k], dr[k]))
                return out
            case Entangled(t):
                v = self.term_value(t)
                if not (isinstance(v, tuple) and v and v[0] == "qubit"):
                    return UNKNOWN
                cell = self.model.heap.find(v[1])
                if cell is None:
                    return False
                st = cell.state
                if st.kind != "concrete" or not st.exact:
                    return UNKNOWN
                if len(cell.qubits) == 1:
                    return False
                rho = reduced_density(cell.qubits, st.amps, v[1])
                return purity(rho) < 1 - PHASE_TOL
            case ExistsVar() | ForallVar() | ExistsHeap() | ForallHeap():
                return UNKNOWN
            case Compose() | Replace() | CellGroup() | ARef():
                return UNKNOWN
        return UNKNOWN


def eval_in_model(a: Assn, model: Model):
    """Three-valued truth of ``a`` in ``model``: true in every basis view."""
    result = True
    for view in basis_views(model.heap):
        v = _Evaluator(model, view).eval(a)
        if v is False:
            return False
        result = kleene_and(result, v)
    return result


def _unknown_residual(conclusion: Assn, models: list) -> Assn:
    undecided = []
    for c in conjuncts(conclusion):
        if any(eval_in_model(c, m) is not True for m in models):
            undecided.append(c)
    if not undecided:
        return conclusion
    return functools.reduce(And, undecided)


def entails(ob: Obligation) -> Verdict:
    """Decide one obligation in its models; total, never raises."""
    relevant = []  # models where the conclusion is undecided
    for model in ob.models:
        v = eval_in_model(ob.conclusion, model)
        if v is False:
            return Verdict("refuted", countermodel=_describe_model(model))
        if v is not True:
            relevant.append(model)
    if relevant:
        return Verdict("unknown",
                       residual=_unknown_residual(ob.conclusion, relevant))
    return Verdict("proved")


def _value_text(v) -> str:
    """A countermodel value as ``run`` writes results: ``true``/``false``,
    qubits by name, ``()`` for unit and ``unknown`` where undecided."""
    if v is UNKNOWN:
        return "unknown"
    if v is None:
        return "()"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "(" + ", ".join(map(_value_text, v)) + ")"
    return pretty(v)


def _describe_model(model: Model) -> dict:
    cells = {", ".join(c.qubits): pretty(state_expr(c.state))
             for c in model.heap.cells}
    env = {k: _value_text(v) for k, v in model.env.items()
           if isinstance(v, (bool, str, tuple))}
    return {"heap": cells if cells else {"": "empty"}, "env": env}


# ---------------------------------------------------------------------------
# Aggregation


@dataclass
class ProofReport:
    verdicts: list  # list[(Obligation, Verdict)]

    @property
    def counts(self) -> dict:
        out = {"proved": 0, "refuted": 0, "unknown": 0}
        for _, v in self.verdicts:
            out[v.status] += 1
        return out

    @property
    def status(self) -> str:
        c = self.counts
        if c["refuted"]:
            return "refuted"
        if c["unknown"]:
            return "conditional"
        return "verified"


def discharge_all(obligations: list) -> ProofReport:
    """Classify every obligation; a program is verified when nothing is
    refuted or unknown, conditionally verified when only unknowns remain."""
    return ProofReport([(ob, entails(ob)) for ob in obligations])
