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

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    And, ARef, Assn, BoolLit, BoolT, Bot, CellGroup, Compose, Emb, Emp,
    Entangled, ExistsHeap, ExistsVar, ForallHeap, ForallVar, GhostRef,
    HeapE, HeapId, HEmpty, HVar, IdAt, InDom, Ket, KetVec, Lookup, MemberOf,
    Not, Or, Implies, Pair, PointsTo, QbitT, Replace, Span, Top, UnitVal,
    Upd, Var, WildcardState, free_vars, pretty, KET_AMPS,
)
from .heap import Cell, SymbolicHeap, SymState

ALLOCATION = "allocationVC"
POSTCONDITION = "postconditionVC"
CALL_PRE = "callPreVC"
UNITARITY = "unitarityVC"

PHASE_TOL = 1e-9
MODEL_CAP = 300_000

UNKNOWNV = object()  # truth value / term value: not determined


@dataclass
class Model:
    """One hypothesis branch: a concrete-ish heap plus value bindings."""

    heap: SymbolicHeap
    env: dict = field(default_factory=dict)
    hvars: dict = field(default_factory=dict)  # heap variable assignment


@dataclass
class Obligation:
    kind: str
    conclusion: Assn
    hypotheses: list = field(default_factory=list)
    var_ctx: tuple = ()
    heap_ctx: tuple = ()
    span: Optional[Span] = None
    note: str = ""
    models: Optional[list] = None  # list[Model] when produced by checking
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
# Heap expression normalization


def _loc_key(loc) -> str:
    return pretty(loc)


def heap_updates(h: HeapE):
    """(base, updates) with shadowed updates removed, later update winning."""
    updates = []
    node = h
    chain = []
    while isinstance(node, Upd):
        chain.append((node.loc, node.value))
        node = node.base
    seen = set()
    for loc, value in chain:  # chain is outermost (latest) first
        key = _loc_key(loc)
        if key in seen:
            continue
        seen.add(key)
        updates.append((loc, value))
    return node, list(reversed(updates))


def normalize_heap_expr(h: HeapE) -> HeapE:
    """Canonical form: shadowed updates removed, updates sorted by
    location."""
    base, updates = heap_updates(h)
    out = base
    for loc, value in sorted(updates, key=lambda lv: _loc_key(lv[0])):
        out = Upd(out, loc, value)
    return out


def lookup_heap_expr(h: HeapE, loc) -> tuple:
    """Resolve a location in an update chain.

    Returns ("found", value), ("absent", None) or ("unknown", None) when
    the chain bottoms out in a heap variable."""
    base, updates = heap_updates(h)
    key = _loc_key(loc)
    for uloc, value in updates:
        if _loc_key(uloc) == key:
            return ("found", value)
    if isinstance(base, HEmpty):
        return ("absent", None)
    return ("unknown", None)


# ---------------------------------------------------------------------------
# Three-valued evaluation over a model


def _tv_and(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return UNKNOWNV


def _tv_or(a, b):
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return UNKNOWNV


def _tv_not(a):
    return UNKNOWNV if a is UNKNOWNV else (not a)


_BASIS0 = np.asarray(KET_AMPS["0"])
_BASIS1 = np.asarray(KET_AMPS["1"])


def _phase_equal(u, v) -> bool:
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        return False
    return bool(abs(abs(np.vdot(u, v)) - 1.0) < PHASE_TOL)


def _basis_value_of_vec(vec) -> Optional[bool]:
    if _phase_equal(vec, _BASIS0):
        return False
    if _phase_equal(vec, _BASIS1):
        return True
    return None


# View states: ("vec", amps, exact) | ("basis", bool, exact)
#            | ("opaque", name) | ("unknown",)


def basis_views(heap: SymbolicHeap) -> list:
    """Expand multi-qubit concrete cells into computational-basis branches."""
    views = [dict()]
    for cell in heap.cells:
        if len(cell.qubits) == 1:
            q = cell.qubits[0]
            st = cell.state
            if st.kind == "concrete":
                entry = ("vec", st.amps, st.exact)
            elif st.kind == "opaque":
                entry = ("opaque", st.name)
            else:
                entry = ("unknown",)
            for v in views:
                v[q] = entry
            continue
        if cell.state.kind == "concrete":
            vec = cell.state.vector()
            n = len(cell.qubits)
            exact = cell.state.exact
            assignments = [
                [bool((idx >> (n - 1 - k)) & 1) for k in range(n)]
                for idx in np.flatnonzero(np.abs(vec) > PHASE_TOL).tolist()]
            new_views = []
            for v in views:
                for bits in assignments:
                    nv = dict(v)
                    for q, b in zip(cell.qubits, bits):
                        nv[q] = ("basis", b, exact)
                    new_views.append(nv)
            views = new_views
        else:
            for v in views:
                for q in cell.qubits:
                    v[q] = ("unknown",)
    return views


def _compare_states(a, b):
    """Three-valued equality of two view states / literal states."""
    ka, kb = a[0], b[0]
    if ka == "unknown" or kb == "unknown":
        return UNKNOWNV
    if ka == "opaque" or kb == "opaque":
        if ka == kb == "opaque":
            return True if a[1] == b[1] else UNKNOWNV
        return UNKNOWNV
    if ka == "basis" and kb == "basis":
        return a[1] == b[1]
    if ka == "basis" or kb == "basis":
        basis, other = (a, b) if ka == "basis" else (b, a)
        ov = _basis_value_of_vec(other[1])
        if ov is not None:
            return basis[1] == ov
        # non-basis vector against a basis claim
        return False if basis[2] and other[2] else UNKNOWNV
    # vec vs vec
    if _phase_equal(a[1], b[1]):
        return True
    if a[2] and b[2]:
        return False
    va, vb = _basis_value_of_vec(a[1]), _basis_value_of_vec(b[1])
    if va is not None and vb is not None:
        return va == vb
    return UNKNOWNV


def _literal_state(expr, ghosts_ok=True):
    if isinstance(expr, Ket):
        return ("vec", expr.amplitudes(), True)
    if isinstance(expr, KetVec):
        return ("vec", expr.amps, True)
    if isinstance(expr, GhostRef) and ghosts_ok:
        return ("opaque", expr.name)
    if isinstance(expr, WildcardState):
        return ("wildcard",)
    return None


class _Evaluator:
    """Evaluate assertions against one model and one basis view."""

    def __init__(self, model: Model, view: dict):
        self.model = model
        self.view = view

    def term_value(self, m):
        while isinstance(m, Emb):
            m = m.elim
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
        return UNKNOWNV

    def qubit_view(self, q: str):
        if q in self.view:
            return self.view[q]
        return None  # not allocated

    def eval_id(self, l, r):
        lv, rv = self.term_value(l), self.term_value(r)
        return self._values_equal(lv, rv)

    def _values_equal(self, lv, rv):
        if isinstance(rv, WildcardState) or isinstance(lv, WildcardState):
            # the wildcard matches any definite value or allocated state
            other = lv if isinstance(rv, WildcardState) else rv
            if isinstance(other, tuple) and other and other[0] in ("qubit", "loc"):
                return self.qubit_view(other[1]) is not None
            return True if other is not UNKNOWNV else UNKNOWNV
        if lv is UNKNOWNV or rv is UNKNOWNV:
            return UNKNOWNV
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
            lit = _literal_state(other)
            if lit is None:
                return UNKNOWNV
            if lit[0] == "wildcard":
                return True
            return _compare_states(st, lit)
        if isinstance(lv, tuple) and isinstance(rv, tuple):
            if len(lv) != len(rv):
                return False
            out = True
            for a, b in zip(lv, rv):
                out = _tv_and(out, self._values_equal(a, b))
            return out
        la, ra = _literal_state(lv), _literal_state(rv)
        if la is not None and ra is not None:
            if "wildcard" in (la[0], ra[0]):
                return True
            return _compare_states(la, ra)
        return UNKNOWNV

    # --- heap expressions

    def heap_denotation(self, h: HeapE):
        """Concrete map location-key -> view state, or None when unknown."""
        if isinstance(h, HVar):
            if h.name == "%h":
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
            out = dict(base)
            lit = _literal_state(h.value)
            key = pretty(h.loc)
            out[key] = lit if lit is not None else ("unknown",)
            return out
        return None

    def heap_cells_map(self, heap: SymbolicHeap):
        out = {}
        for c in heap.cells:
            if len(c.qubits) == 1:
                st = c.state
                if st.kind == "concrete":
                    out[c.qubits[0]] = ("vec", st.amps, st.exact)
                elif st.kind == "opaque":
                    out[c.qubits[0]] = ("opaque", st.name)
                else:
                    out[c.qubits[0]] = ("unknown",)
            else:
                key = "(" + ", ".join(c.qubits) + ")"
                if c.state.kind == "concrete":
                    out[key] = ("vec", c.state.amps, c.state.exact)
                else:
                    out[key] = ("unknown",)
        return out

    def current_heap_map(self):
        return self.heap_cells_map(self.model.heap)

    def _loc_names(self, loc):
        while isinstance(loc, Emb):
            loc = loc.elim
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
                if self.model.heap.frame_var is not None:
                    return UNKNOWNV
                return len(self.model.heap.cells) == 0
            case And(l, r):
                return _tv_and(self.eval(l), self.eval(r))
            case Or(l, r):
                return _tv_or(self.eval(l), self.eval(r))
            case Implies(l, r):
                return _tv_or(_tv_not(self.eval(l)), self.eval(r))
            case Not(b):
                return _tv_not(self.eval(b))
            case IdAt(_, l, r):
                return self.eval_id(l, r)
            case MemberOf(t, cands):
                out = False
                for c in cands:
                    out = _tv_or(out, self.eval_id(t, c))
                return out
            case PointsTo(loc, st):
                names = self._loc_names(loc)
                if names is None:
                    return UNKNOWNV
                if self.model.heap.frame_var is not None:
                    return UNKNOWNV
                cells = self.model.heap.cells
                if len(cells) != 1 or tuple(sorted(cells[0].qubits)) != \
                        tuple(sorted(names)):
                    return False
                return self._cell_state_match(cells[0], st)
            case Lookup(loc, st):
                names = self._loc_names(loc)
                if names is None:
                    return UNKNOWNV
                if len(names) == 1:
                    view = self.qubit_view(names[0])
                    if view is None:
                        return False
                    lit = _literal_state(st)
                    if lit is None:
                        return UNKNOWNV
                    if lit[0] == "wildcard":
                        return True
                    return _compare_states(view, lit)
                cell = self.model.heap.find(names[0])
                if cell is None or tuple(sorted(cell.qubits)) != \
                        tuple(sorted(names)):
                    return False
                return self._cell_state_match(cell, st)
            case InDom(h, loc):
                names = self._loc_names(loc)
                if names is None:
                    return UNKNOWNV
                if isinstance(h, HVar) and h.name == "%h":
                    return all(self.qubit_view(n) is not None for n in names)
                den = self.heap_denotation(h)
                if den is None:
                    return UNKNOWNV
                key = names[0] if len(names) == 1 else \
                    "(" + ", ".join(names) + ")"
                return key in den
            case HeapId(l, r):
                dl, dr = self.heap_denotation(l), self.heap_denotation(r)
                if dl is None or dr is None:
                    return UNKNOWNV
                if set(dl) != set(dr):
                    return False
                out = True
                for k in dl:
                    out = _tv_and(out, _compare_states(dl[k], dr[k]))
                return out
            case Entangled(t):
                v = self.term_value(t)
                if not (isinstance(v, tuple) and v and v[0] in ("qubit", "loc")):
                    return UNKNOWNV
                cell = self.model.heap.find(v[1])
                if cell is None:
                    return False
                st = cell.state
                if st.kind != "concrete" or not st.exact:
                    return UNKNOWNV
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
                return UNKNOWNV
            case Compose() | Replace() | CellGroup() | ARef():
                return UNKNOWNV
        return UNKNOWNV

    def _cell_state_match(self, cell: Cell, st):
        lit = _literal_state(st)
        if lit is None:
            return UNKNOWNV
        if lit[0] == "wildcard":
            return True
        cs = cell.state
        if cs.kind == "concrete":
            return _compare_states(("vec", cs.amps, cs.exact), lit)
        if cs.kind == "opaque":
            return _compare_states(("opaque", cs.name), lit)
        return UNKNOWNV


def eval_in_model(a: Assn, model: Model):
    """Three-valued truth of ``a`` in ``model``: true in every basis view."""
    result = True
    for view in basis_views(model.heap):
        v = _Evaluator(model, view).eval(a)
        if v is False:
            return False
        result = _tv_and(result, v)
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
        while isinstance(m, Emb):
            m = m.elim
        if isinstance(m, Var):
            add(locs, m.name)
        elif isinstance(m, Pair):
            term_locs(m.first), term_locs(m.second)
        elif isinstance(m, Ket):
            add(states, ("vec", m.amplitudes(), True))
        elif isinstance(m, KetVec):
            add(states, ("vec", m.amps, True))
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
    options = [None] + list(range(len(states)))
    for combo in itertools.product(options, repeat=len(locations)):
        cells = tuple(
            Cell((loc,), SymState("concrete", states[i][1],
                                  exact=states[i][2])
                 if states[i][0] == "vec"
                 else SymState("opaque", name=states[i][1]))
            for loc, i in zip(locations, combo) if i is not None
        )
        yield SymbolicHeap(cells)


def entails(ob: Obligation) -> Verdict:
    """Decide one obligation; total, never raises."""
    if ob.models is not None:
        return _entails_models(ob)
    return _entails_enumerate(ob)


def _unknown_residual(conclusion: Assn, models: list) -> Assn:
    def conjuncts(a):
        if isinstance(a, And):
            return conjuncts(a.left) + conjuncts(a.right)
        return [a]

    undecided = []
    for c in conjuncts(conclusion):
        if any(eval_in_model(c, m) is not True for m in models):
            undecided.append(c)
    if not undecided:
        return conclusion
    out = undecided[0]
    for c in undecided[1:]:
        out = And(out, c)
    return out


def _entails_models(ob: Obligation) -> Verdict:
    unknown = False
    for model in ob.models:
        v = eval_in_model(ob.conclusion, model)
        if v is False:
            return Verdict("refuted", countermodel=_describe_model(model))
        if v is not True:
            unknown = True
    if unknown:
        relevant = [m for m in ob.models
                    if eval_in_model(ob.conclusion, m) is not True]
        return Verdict("unknown",
                       residual=_unknown_residual(ob.conclusion, relevant))
    return Verdict("proved")


def _describe_model(model: Model) -> dict:
    from .heap import state_expr
    cells = {", ".join(c.qubits): pretty(state_expr(c.state))
             for c in model.heap.cells}
    env = {}
    for k, v in model.env.items():
        if v is True or v is False:
            env[k] = "true" if v else "false"
        elif isinstance(v, str):
            env[k] = v
        elif isinstance(v, tuple):
            env[k] = str(v)
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

    alphabet = [("vec", KET_AMPS[k], True) for k in ("0", "1", "+", "-")]
    for s in states:
        if s not in alphabet:
            alphabet.append(s)
    for g in ghosts:
        alphabet.append(("opaque", g))

    heap_var_names = [h for h in hvars if h != "%h"]
    for h in ob.heap_ctx:
        if h not in heap_var_names and h != "%h":
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
                        hyp = _tv_and(hyp, eval_in_model(h, model))
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
