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
Models that agree on the heap and on the values of the conclusion's free
names are evaluated once.  The hypotheses are never read here: they are
report text, built when a report prints them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    And, Assn, BoolLit, Emp, Entangled, GhostRef, HeapE, HeapId, HEmpty,
    HVar, IdAt, InDom, Ket, KetVec, Lookup, Pair, PointsTo, Span, UNKNOWN,
    UnitVal, Upd, Var, WildcardState, conjuncts, free_vars, kleene_and,
    kleene_eval, pretty, strip_emb, _BuiltOnRead, CUR_HEAP, KET_AMPS,
)
from .heap import (
    BASIS, Model, SymbolicHeap, SymState, UNKNOWN_STATE, WILDCARD, opaque,
    state_expr,
)
from .sim import purity, reduced_density, render_value

ALLOCATION = "allocationVC"
POSTCONDITION = "postconditionVC"
CALL_PRE = "callPreVC"
UNITARITY = "unitarityVC"

PHASE_TOL = 1e-9


@dataclass
class Obligation:
    """A verification condition.

    ``models`` are the checker's branches at the obligation, one
    :class:`Model` each, and the prover decides the obligation in them
    alone.  ``hypotheses`` describe the same branches as assertions, and
    ``var_ctx`` is the ``(name, type)`` pairs of the context; only reports
    and tests read them.  Each may be given as a function of no
    arguments, which its first read calls and whose result it keeps: the
    checker gives functions, so checking builds neither, and
    :attr:`hypotheses_builder` lets a report write the hypotheses without
    building them.
    """

    kind: str
    conclusion: Assn
    models: list
    hypotheses: list = _BuiltOnRead(list)
    var_ctx: tuple = _BuiltOnRead(tuple)
    heap_ctx: tuple = ()
    span: Optional[Span] = None
    note: str = ""
    decl: str = ""

    @property
    def hypotheses_builder(self):
        """The function given for ``hypotheses`` while no read has called
        it yet, else None."""
        value = self.__dict__["_hypotheses"]
        return value if callable(value) else None


@dataclass
class Verdict:
    status: str  # "proved" | "refuted" | "unknown"
    countermodel: Optional[dict] = None
    residual: Optional[Assn] = None


# ---------------------------------------------------------------------------
# Three-valued evaluation over a model


# The literal state of each named ket
_KETS = {kind: SymState("concrete", amps) for kind, amps in KET_AMPS.items()}


def _phase_equal(u: np.ndarray, v: np.ndarray) -> bool:
    if u.shape != v.shape:
        return False
    return bool(abs(abs(np.vdot(u, v)) - 1.0) < PHASE_TOL)


def _basis_value_of_vec(vec: np.ndarray) -> Optional[bool]:
    for bit, ket in zip((False, True), BASIS[True]):
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
            basis = BASIS[cell.state.exact]
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


_QUBIT = object()  # tags a qubit among term values; no env value holds it


def _qubit(value) -> Optional[str]:
    """The qubit that term value ``value`` names, or None."""
    tagged = isinstance(value, tuple) and value and value[0] is _QUBIT
    return value[1] if tagged else None


class _Evaluator:
    """Evaluate assertions against one model and one basis view."""

    def __init__(self, model: Model, view: dict):
        self.model = model
        self.view = view

    def term_value(self, m):
        m = strip_emb(m)
        if isinstance(m, Var):
            v = self.model.env.get(m.name, m.name)
            return (_QUBIT, v) if isinstance(v, str) else v
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
            if (q := _qubit(other)) is not None:
                return self.qubit_view(q) is not None
            return True if other is not UNKNOWN else UNKNOWN
        if lv is UNKNOWN or rv is UNKNOWN:
            return UNKNOWN
        if isinstance(lv, bool) and isinstance(rv, bool):
            return lv == rv
        lq, rq = _qubit(lv), _qubit(rv)
        if lq is not None or rq is not None:
            if lq is not None and rq is not None:
                if lq == rq:
                    return True
                a, b = self.qubit_view(lq), self.qubit_view(rq)
                if a is None or b is None:
                    return False
                return _compare_states(a, b)
            q, other = (lq, rv) if lq is not None else (rq, lv)
            st = self.qubit_view(q)
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
            a = _qubit(self.term_value(loc.first))
            b = _qubit(self.term_value(loc.second))
            return None if a is None or b is None else (a, b)
        q = _qubit(self.term_value(loc))
        return None if q is None else (q,)

    # --- atoms

    def atom(self, a: Assn):
        """Truth of ``a``, which is not a connective: those are read by
        :func:`kleene_eval`."""
        match a:
            case Emp():
                return len(self.model.heap.cells) == 0
            case IdAt(_, l, r):
                return self.eval_id(l, r)
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
                q = _qubit(self.term_value(t))
                if q is None:
                    return UNKNOWN
                cell = self.model.heap.find(q)
                if cell is None:
                    return False
                st = cell.state
                if st.kind != "concrete" or not st.exact:
                    return UNKNOWN
                if len(cell.qubits) == 1:
                    return False
                rho = reduced_density(cell.qubits, st.amps, q)
                return purity(rho) < 1 - PHASE_TOL
        return UNKNOWN


def eval_in_model(a: Assn, model: Model):
    """Three-valued truth of ``a`` in ``model``: true in every basis view."""
    result = True
    for view in basis_views(model.heap):
        v = kleene_eval(a, _Evaluator(model, view).atom)
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


_ABSENT = object()  # the value of a name a model does not bind


def _distinct(models: list, conclusion: Assn) -> list:
    """The first of each group of ``models`` that agree on the heap and on
    the values of ``conclusion``'s free names, in first-occurrence order.
    The conclusion reads nothing else of a model, so it has one truth
    value in each group."""
    if len(models) < 2:
        return models
    names = sorted(free_vars(conclusion))
    firsts = {}
    for model in models:
        env = model.env
        key = (model.heap, tuple([env.get(x, _ABSENT) for x in names]))
        firsts.setdefault(key, model)
    return list(firsts.values())


def entails(ob: Obligation) -> Verdict:
    """Decide one obligation in its models; total, never raises.

    A refuting model is the first in ``ob.models`` order: the models of a
    group agree, so none refutes before the first of its group."""
    relevant = []  # models where the conclusion is undecided
    for model in _distinct(ob.models, ob.conclusion):
        v = eval_in_model(ob.conclusion, model)
        if v is False:
            return Verdict("refuted", countermodel=_describe_model(model))
        if v is not True:
            relevant.append(model)
    if relevant:
        return Verdict("unknown",
                       residual=_unknown_residual(ob.conclusion, relevant))
    return Verdict("proved")


def _describe_model(model: Model) -> dict:
    cells = {", ".join(c.qubits): pretty(state_expr(c.state))
             for c in model.heap.cells}
    env = {k: render_value(v) for k, v in model.env.items()
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
