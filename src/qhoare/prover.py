"""Entailment checking for the symbolic-heap assertion fragment.

Obligations are sequents ``vars; heaps; hypotheses ==> conclusion``.  Each
is classified Proved, Refuted (with a concrete finite countermodel) or
Unknown (with the unproven residual); the checker is total.

Semantics: models are finite quantum heaps whose cells hold states drawn
from the ket-literal alphabet plus opaque ghost constants.  Multi-qubit
cells are evaluated by splitting into their nonzero computational-basis
branches: a formula holds of a cell in superposition when it holds in
every branch.  Inexact states (relational claims produced when modelling a
callee's postcondition) decide basis-diagonal comparisons only; everything
else about them is honestly Unknown.

Obligations produced by the type checker carry their branch models
directly.  Free-standing sequents are decided by bounded enumeration over
the mentioned locations (plus spares, at least three total), boolean
variables, and the single-qubit ket alphabet extended with any mentioned
ghosts; sequents outside the fragment come back Unknown.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    And, ARef, Assn, BoolLit, BoolT, Bot, CellGroup, Compose, Emp,
    Entangled, ExistsHeap, ExistsVar, ForallHeap, ForallVar, GhostRef,
    HeapE, HeapId, HEmpty, HVar, IdAt, InDom, Ket, KetVec, Lookup, MemberOf,
    Not, Or, Implies, Pair, PointsTo, QbitT, Replace, Span, Top, UNKNOWN,
    UnitVal, Upd, Var, WildcardState, conjuncts, kleene_and,
    kleene_not, kleene_or, pretty, strip_emb, CUR_HEAP, KET_AMPS,
)
from .heap import (
    Cell, Model, SymbolicHeap, SymState, UNKNOWN_STATE, WILDCARD, opaque,
)

ALLOCATION = "allocationVC"
POSTCONDITION = "postconditionVC"
CALL_PRE = "callPreVC"
UNITARITY = "unitarityVC"

PHASE_TOL = 1e-9
MODEL_CAP = 300_000


@dataclass
class Obligation:
    """A verification condition.

    ``var_ctx`` is any re-iterable sequence of ``(name, type)`` pairs.  The
    checker passes a :class:`qhoare.typecheck.VarCtx`, a read-only view
    over the context it shares between the obligations of one block; the
    pairs are materialized each time the view is read.  ``models`` are
    the checker's branches at the obligation, one :class:`Model` each; an
    obligation without them is decided by enumeration.
    """

    kind: str
    conclusion: Assn
    hypotheses: list = field(default_factory=list)
    var_ctx: Sequence = ()
    heap_ctx: tuple = ()
    span: Optional[Span] = None
    note: str = ""
    models: Optional[list] = None
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
          False: tuple(SymState("concrete", KET_AMPS[k], exact=False)
                       for k in ("0", "1"))}


def _phase_equal(u, v) -> bool:
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        return False
    return bool(abs(abs(np.vdot(u, v)) - 1.0) < PHASE_TOL)


def _basis_value_of_vec(vec) -> Optional[bool]:
    if _phase_equal(vec, KET_AMPS["0"]):
        return False
    if _phase_equal(vec, KET_AMPS["1"]):
        return True
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
            vec = cell.state.vector()
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


def _loc_key(names: tuple) -> str:
    """The key of the cell at locations ``names`` in a heap denotation."""
    return names[0] if len(names) == 1 else "(" + ", ".join(names) + ")"


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
            name = m.name
            if name in self.model.env:
                v = self.model.env[name]
                if isinstance(v, str):
                    return ("qubit", v)
                return v
            if self.model.heap.find(name) is not None or name in self.view:
                return ("qubit", name)
            return ("loc", name)
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
            if isinstance(other, tuple) and other and other[0] in ("qubit", "loc"):
                return self.qubit_view(other[1]) is not None
            return True if other is not UNKNOWN else UNKNOWN
        if lv is UNKNOWN or rv is UNKNOWN:
            return UNKNOWN
        if isinstance(lv, bool) and isinstance(rv, bool):
            return lv == rv
        lq = lv[0] in ("qubit", "loc") if isinstance(lv, tuple) and lv else False
        rq = rv[0] in ("qubit", "loc") if isinstance(rv, tuple) and rv else False
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
        """Concrete map location-key -> view state, or None when unknown."""
        if isinstance(h, HVar):
            if h.name == CUR_HEAP:
                return self.current_heap_map()
            if h.name in self.model.hvars:
                return self.heap_cells_map(self.model.hvars[h.name])
            return None
        if isinstance(h, HEmpty):
            return {}
        if isinstance(h, Upd):
            base = self.heap_denotation(h.base)
            if base is None:
                return None
            names = self._loc_names(h.loc)
            if names is None:
                return None
            lit = _literal_state(h.value)
            return {**base, _loc_key(names): lit or UNKNOWN_STATE}
        return None

    def heap_cells_map(self, heap: SymbolicHeap):
        return {_loc_key(c.qubits):
                c.state if len(c.qubits) == 1 or c.state.kind == "concrete"
                else UNKNOWN_STATE for c in heap.cells}

    def current_heap_map(self):
        return self.heap_cells_map(self.model.heap)

    def _loc_names(self, loc):
        loc = strip_emb(loc)
        if isinstance(loc, Pair):
            a, b = self.term_value(loc.first), self.term_value(loc.second)
            if (isinstance(a, tuple) and a[0] in ("qubit", "loc")
                    and isinstance(b, tuple) and b[0] in ("qubit", "loc")):
                return (a[1], b[1])
            return None
        v = self.term_value(loc)
        if isinstance(v, tuple) and v and v[0] in ("qubit", "loc"):
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
                if len(cells) != 1 or tuple(sorted(cells[0].qubits)) != \
                        tuple(sorted(names)):
                    return False
                return _state_matches(cells[0].state, st)
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
                if cell is None or tuple(sorted(cell.qubits)) != \
                        tuple(sorted(names)):
                    return False
                return _state_matches(cell.state, st)
            case InDom(h, loc):
                names = self._loc_names(loc)
                if names is None:
                    return UNKNOWN
                if isinstance(h, HVar) and h.name == CUR_HEAP:
                    return all(self.qubit_view(n) is not None for n in names)
                den = self.heap_denotation(h)
                if den is None:
                    return UNKNOWN
                return _loc_key(names) in den
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
                if not (isinstance(v, tuple) and v and v[0] in ("qubit", "loc")):
                    return UNKNOWN
                cell = self.model.heap.find(v[1])
                if cell is None:
                    return False
                st = cell.state
                if st.kind != "concrete" or not st.exact:
                    return UNKNOWN
                if len(cell.qubits) == 1:
                    return False
                vec = st.vector().reshape([2] * len(cell.qubits))
                i = cell.qubits.index(v[1])
                order = [i] + [k for k in range(len(cell.qubits)) if k != i]
                t2 = np.transpose(vec, order).reshape(2, -1)
                rho = t2 @ t2.conj().T
                purity = float(np.real(np.trace(rho @ rho)))
                return purity < 1 - PHASE_TOL
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


# ---------------------------------------------------------------------------
# Fragment check and enumeration


def _in_fragment(a: Assn) -> bool:
    match a:
        case Top() | Bot() | Emp() | IdAt() | HeapId() | InDom() | \
                PointsTo() | Lookup() | MemberOf() | Entangled():
            return True
        case And(l, r) | Or(l, r) | Implies(l, r):
            return _in_fragment(l) and _in_fragment(r)
        case Not(b):
            return _in_fragment(b)
        case _:
            return False


def _mentioned(a: Assn, locs: list, states: list, ghosts: list,
               hvars: list) -> None:
    def add(seq, item):
        if item not in seq:
            seq.append(item)

    def term_locs(m):
        m = strip_emb(m)
        if isinstance(m, Var):
            add(locs, m.name)
        elif isinstance(m, Pair):
            term_locs(m.first), term_locs(m.second)
        elif isinstance(m, (Ket, KetVec)):
            add(states, _literal_state(m))
        elif isinstance(m, GhostRef):
            add(ghosts, m.name)

    def heap_walk(h):
        if isinstance(h, HVar):
            add(hvars, h.name)
        elif isinstance(h, Upd):
            heap_walk(h.base)
            term_locs(h.loc)
            term_locs(h.value)

    match a:
        case And(l, r) | Or(l, r) | Implies(l, r):
            _mentioned(l, locs, states, ghosts, hvars)
            _mentioned(r, locs, states, ghosts, hvars)
        case Not(b):
            _mentioned(b, locs, states, ghosts, hvars)
        case IdAt(_, l, r):
            term_locs(l), term_locs(r)
        case MemberOf(t, cands):
            term_locs(t)
            for c in cands:
                term_locs(c)
        case PointsTo(loc, st) | Lookup(loc, st):
            term_locs(loc), term_locs(st)
        case InDom(h, loc):
            heap_walk(h), term_locs(loc)
        case HeapId(l, r):
            heap_walk(l), heap_walk(r)
        case Entangled(t):
            term_locs(t)
        case _:
            pass


def _enumerate_heaps(locations: list, states: list):
    for combo in itertools.product([None] + states, repeat=len(locations)):
        yield SymbolicHeap(tuple(Cell((loc,), st)
                                 for loc, st in zip(locations, combo)
                                 if st is not None))


def entails(ob: Obligation) -> Verdict:
    """Decide one obligation; total, never raises."""
    if ob.models is not None:
        return _entails_models(ob)
    return _entails_enumerate(ob)


def _unknown_residual(conclusion: Assn, models: list) -> Assn:
    undecided = []
    for c in conjuncts(conclusion):
        if any(eval_in_model(c, m) is not True for m in models):
            undecided.append(c)
    if not undecided:
        return conclusion
    return functools.reduce(And, undecided)


def _entails_models(ob: Obligation) -> Verdict:
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
    from .heap import state_expr
    cells = {", ".join(c.qubits): pretty(state_expr(c.state))
             for c in model.heap.cells}
    env = {k: _value_text(v) for k, v in model.env.items()
           if isinstance(v, (bool, str, tuple))}
    return {"heap": cells if cells else {"": "empty"}, "env": env}


def _entails_enumerate(ob: Obligation) -> Verdict:
    formulas = list(ob.hypotheses) + [ob.conclusion]
    for f in formulas:
        if not _in_fragment(f):
            return Verdict("unknown", residual=ob.conclusion)

    locs, states, ghosts, hvars = [], [], [], []
    for f in formulas:
        _mentioned(f, locs, states, ghosts, hvars)

    bool_vars = [x for x, t in ob.var_ctx if isinstance(t, BoolT)]
    qubit_vars = [x for x, t in ob.var_ctx if isinstance(t, QbitT)]
    locs = [l for l in locs if l not in bool_vars]
    spare = 0
    while len(locs) < 3:
        locs.append(f"%loc{spare}")
        spare += 1

    alphabet = [_KETS[k] for k in ("0", "1", "+", "-")]
    for s in states:
        if s not in alphabet:
            alphabet.append(s)
    alphabet.extend(map(opaque, ghosts))

    heap_var_names = [h for h in hvars if h != CUR_HEAP]
    for h in ob.heap_ctx:
        if h not in heap_var_names and h != CUR_HEAP:
            heap_var_names.append(h)

    n_heaps = (len(alphabet) + 1) ** len(locs)
    total = n_heaps * (n_heaps ** len(heap_var_names)) * \
        (2 ** len(bool_vars)) * (max(1, len(locs)) ** len(qubit_vars))
    if total > MODEL_CAP:
        return Verdict("unknown", residual=ob.conclusion)

    unknown = False
    bool_opts = list(itertools.product([False, True], repeat=len(bool_vars)))
    qubit_opts = list(itertools.product(locs, repeat=len(qubit_vars)))
    heaps = list(_enumerate_heaps(locs, alphabet))
    hvar_opts = list(itertools.product(heaps, repeat=len(heap_var_names)))

    for cur in heaps:
        for bvals in bool_opts:
            for qvals in qubit_opts:
                env = dict(zip(bool_vars, bvals))
                env.update(zip(qubit_vars, qvals))
                for hvals in hvar_opts:
                    model = Model(cur, env,
                                  dict(zip(heap_var_names, hvals)))
                    hyp = True
                    for h in ob.hypotheses:
                        hyp = kleene_and(hyp, eval_in_model(h, model))
                        if hyp is False:
                            break
                    if hyp is False:
                        continue
                    concl = eval_in_model(ob.conclusion, model)
                    if hyp is True and concl is False:
                        return Verdict(
                            "refuted", countermodel=_describe_model(model))
                    if concl is not True:
                        unknown = True
    if unknown:
        return Verdict("unknown", residual=ob.conclusion)
    return Verdict("proved")


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
