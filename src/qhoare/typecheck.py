"""Bidirectional type checking with strongest-postcondition synthesis.

Elimination terms synthesize their types; introduction terms are checked
against a given type.  Canonical forms are beta-normal and eta-long; no
reductions happen under ``do``.  A variable applied to arguments is typed
in one pass over its spine: the arguments are canonical, so the neutral
spine they form is too, and it is eta-expanded once, at the result type.
Any other head is beta-reduced by substitution and normalized again after
each argument.

Checking a ``do`` block walks the computation over a set of branches,
each a :class:`qhoare.heap.Model`: a symbolic heap plus value bindings.
The precondition's heap denotation gives the first branches, and each
obligation takes a copy of a branch as its model.  Quantum commands
delegate to the transformers in :mod:`qhoare.heap`; measurements case-split
on outcomes with projected residual states (the refinement extension) unless
literal mode is selected.  Suspended-computation binds are checked
modularly: the callee's precondition becomes a call obligation, its
footprint is framed out, and its postcondition's heap denotation is spliced
in.  The block's strongest postcondition is its final branch set, which the
postconditionVC carries as models for the prover.

All verification conditions are collected for the prover.  A
:class:`Checker` checks its program's declarations in order and shares
state across them: the types of the declarations checked so far, one
:class:`NameSupply`, and the memos of ``_gate``, of the cells that
``sp_apply_unitary`` makes, and of ``_render``.  So one checker must not
check declarations concurrently.
"""

from __future__ import annotations

import functools
from collections import ChainMap
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import NamedTuple, Optional

from . import heap as heaplib
from . import sim as simlib
from .core import (
    And, App, ApplyU, ARef, Ascribe, Assn, BindCmd, BindRun, BoolLit, BoolT,
    Bot, Compose, Decl, Do, Emb, Emp, ExistsHeap, ExistsVar, ForallHeap,
    ForallVar, GhostRef, HoareT, HVar, IdAt, IfCmd, IfTerm, Ket, KetVec, Lam,
    LetEq, Lookup, MatrixLit, MatrixT, MeasQbit, MkQbit, NameSupply, Or,
    Pair, PiT, PointsTo, Program, PureT, QbitT, ReductionError, Seq, Span,
    TensorT, Top, Ty, UNKNOWN, UnitT, UnitVal, UT, Var, WildcardState,
    binder_var, chain_links, free_vars, map_children, mk_intro, normal_form,
    pretty, same_node, strip_coercions, strip_emb, subst, _BuiltOnRead,
    CUR_HEAP,
)
from .heap import (
    Cell, Model, SymbolicHeap, UNKNOWN_STATE, cell_assertion,
    delta_assertion, footprint_qubits, heap_from_assertion,
    heap_to_assertions, sp_apply_unitary, sp_init, sp_measure,
)
from .prover import ALLOCATION, CALL_PRE, POSTCONDITION, UNITARITY, Obligation
from .sim import UnitaryError, eval_unitary

BRANCH_CAP = 64

BUILTIN_TYPES = {
    "H": PiT("q", QbitT(), UT()),
    "X": PiT("q", QbitT(), UT()),
    "Y": PiT("q", QbitT(), UT()),
    "Z": PiT("q", QbitT(), UT()),
    "ifQ": PiT("q", QbitT(), PiT("u", UT(), UT())),
    "rot": PiT("q", QbitT(), PiT("m", MatrixT(), UT())),
    "cond": PiT("q", QbitT(), PiT("f", PiT("b", BoolT(), UT()), UT())),
    "mempty": UT(),
    "mappend": PiT("u", UT(), PiT("v", UT(), UT())),
}


class CheckError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# Alpha normalization (canonical bound names, used for type equality and
# trace comparison)


def alpha_normalize(node):
    """``node`` with the names bound by Π, Hoare types, λ and quantifiers
    renamed ``%a1``, ``%a2``, ... in order, so α-equivalent types
    normalize equal."""
    return _alpha(node, count(1))


def _alpha(n, numbers):
    # A module-level walk: a nested function that calls itself closes over
    # its own cell, a reference cycle only the collector frees.
    match n:
        case PiT(x, ty, body) | ExistsVar(x, ty, body) \
                | ForallVar(x, ty, body):
            nx = f"%a{next(numbers)}"
            body = subst(body, {x: Var(nx)})
            return type(n)(nx, _alpha(ty, numbers), _alpha(body, numbers))
        case Lam(x, body) | ExistsHeap(x, body) | ForallHeap(x, body):
            nx = f"%a{next(numbers)}"
            return type(n)(nx, _alpha(subst(body, {x: binder_var(n)(nx)}),
                                      numbers))
        case HoareT(vctx, hctx, pre, binder, result, post):
            nvctx = tuple((f"%a{next(numbers)}", _alpha(t, numbers))
                          for _, t in vctx)
            nhctx = tuple(f"%a{next(numbers)}" for _ in hctx)
            nbinder = tuple(f"%a{next(numbers)}" for _ in binder)
            m = {x: Var(nx) for (x, _), (nx, _) in zip(vctx, nvctx)}
            m |= {h: HVar(nh) for h, nh in zip(hctx, nhctx)}
            bm = m | {r: Var(nr) for r, nr in zip(binder, nbinder)}
            return HoareT(nvctx, nhctx, _alpha(subst(pre, m), numbers),
                          nbinder, _alpha(subst(result, m), numbers),
                          _alpha(subst(post, bm), numbers))
        case And() | Or():
            # operands numbered left to right
            first, links = chain_links(n)
            out = _alpha(first, numbers)
            for link in links:
                out = type(link)(out, _alpha(link.right, numbers))
            return out
    return map_children(n, lambda c: _alpha(c, numbers))


_BASE_TYPES = frozenset({UnitT, BoolT, QbitT, UT, PureT, MatrixT})


def types_equal(a: Ty, b: Ty) -> bool:
    if type(a) in _BASE_TYPES:  # no binders to rename
        return type(b) is type(a)
    return same_node(alpha_normalize(a), alpha_normalize(b))


# ---------------------------------------------------------------------------
# Normalization: beta reduction + type-directed eta expansion


def _eta(m, ty: Ty, counter: list):
    m = mk_intro(m)
    match ty:
        case PiT(x, dom, cod):
            if isinstance(m, Lam):
                return Lam(m.binder,
                           _eta(m.body, subst(cod, {x: Var(m.binder)}),
                                counter))
            counter[0] += 1
            fresh = f"%e{counter[0]}"
            target = strip_emb(m)
            if not isinstance(target, (Var, App)):
                return m
            return Lam(fresh, _eta(Emb(App(target, Emb(Var(fresh)))),
                                   subst(cod, {x: Var(fresh)}), counter))
        case TensorT(l, r):
            if isinstance(m, Pair):
                return Pair(_eta(m.first, l, counter),
                            _eta(m.second, r, counter))
            return m
        case _:
            return m


def _spine(k) -> tuple:
    """The head of application ``k`` and its arguments, first to last,
    with ``Emb`` wrappers peeled."""
    args = []
    while isinstance(k, (App, Emb)):
        if isinstance(k, App):
            args.append(k.arg)
            k = k.fn
        else:
            k = k.elim
    args.reverse()
    return k, args


def normalize(m, ty: Ty):
    """Beta-normal, eta-long form of ``m`` at ``ty``; idempotent.

    Suspended computations are values: ``do E`` is returned unchanged.
    """
    try:
        reduced = normal_form(m)
    except ReductionError as e:
        raise CheckError(str(e)) from e
    return _eta(reduced, ty, [0])


# ---------------------------------------------------------------------------
# Results


@dataclass
class TraceStep:
    span: Optional[Span]
    assertion: Assn
    refined: bool = False
    alternatives: int = 0


@dataclass
class DeclResult:
    """A checked declaration; the first read of :attr:`trace` renders it."""

    name: str
    signature: Ty
    canonical: Optional[object] = None
    obligations: list = field(default_factory=list)
    error: Optional[CheckError] = None
    trace: list = field(default=_BuiltOnRead(list), init=False, repr=False,
                        compare=False)


@dataclass
class CheckedProgram:
    program: Program
    decls: list  # list[DeclResult]


class _Scope(dict):
    """Typing context of one ``do`` block.

    A dict from name to type for lookups that also keeps, in program
    order, the bindings the block adds to the context it was entered
    with.  The list only grows, so :meth:`prefix` names the context as it
    is now by a length, and obligations share it instead of copying it.
    """

    def __init__(self, entry: dict):
        super().__init__(entry)
        self._base = (entry.prefix() if isinstance(entry, _Scope)
                      else tuple(entry.items()))
        self._local = []

    def bind(self, name: str, ty: Ty) -> None:
        self[name] = ty
        self._local.append((name, ty))

    def prefix(self, *added) -> "_Prefix":
        return _Prefix(self._base, self._local, len(self._local), *added)


class _Prefix(NamedTuple):
    """A block's context at one point, and what an obligation made there
    adds.  A call builds the obligation's ``(name, type)`` pairs: the
    context in dict order (a rebound name keeps its first position)
    updated with ``more``, then ``binders[:n_binders]``, then ``tail``."""

    base: object  # _Prefix of the enclosing block, or entry (name, ty) pairs
    local: list
    length: int
    more: tuple = ()
    binders: list = ()
    n_binders: int = 0
    tail: tuple = ()

    def bindings(self):
        """Every binding in order; a dict of them is the context."""
        base = (self.base.bindings() if isinstance(self.base, _Prefix)
                else self.base)
        return chain(base, islice(self.local, self.length))

    def __call__(self) -> tuple:
        names = dict(self.bindings())
        names.update(self.more)
        return (*names.items(), *islice(self.binders, self.n_binders),
                *self.tail)


# ---------------------------------------------------------------------------
# Checker


class Checker:
    """Checks a program declaration by declaration.

    With ``literal_measurement`` the measurement transformer follows the
    literal rule (no outcome case split).
    """

    def __init__(self, program: Program, literal_measurement: bool = False):
        self.program = program
        self.literal = literal_measurement
        self.supply = NameSupply()
        self.decl_types = {}
        # memos for this checker's program; see _gate, sp_apply_unitary
        # and _render_once.  The render memo holds no reference to the
        # checker, so neither do the hypotheses an obligation builds with it
        self._gates = {}
        self._cells = {}
        self._render = functools.partial(_render_once, {})
        self._reset_decl_state("")

    def _reset_decl_state(self, decl_name: str):
        self._decl = decl_name
        self._obs = []
        self._events = []  # (span, op_id, heap delta, refined)
        self._op_counter = 0
        # (name, type) of each statement binder and callee ghost, in
        # program order; read by _Prefix and check_do's unbound tail
        self._binders = []
        self._span = None

    # --- program

    def check_program(self) -> CheckedProgram:
        return CheckedProgram(self.program, [self.check_decl(decl)
                                             for decl in self.program.decls])

    def check_decl(self, decl: Decl) -> DeclResult:
        """Check ``decl`` against the declarations checked before it; if it
        checks, later declarations may call it."""
        self._reset_decl_state(decl.name)
        result = DeclResult(decl.name, decl.signature)
        self._span = decl.span
        try:
            self.check_type({}, decl.signature)
            result.canonical = self.check({}, decl.body, decl.signature,
                                          span=decl.span)
            result.obligations = self._obs
            result.trace = functools.partial(_assemble_trace, self._events,
                                             self._render)
        except CheckError as e:
            result.error = e
        else:
            self.decl_types[decl.name] = decl.signature
        return result

    # --- types

    def check_type(self, ctx: dict, ty: Ty) -> None:
        match ty:
            case UnitT() | BoolT() | QbitT() | UT() | PureT() | MatrixT():
                return
            case TensorT(a, b):
                self.check_type(ctx, a)
                self.check_type(ctx, b)
            case PiT(x, dom, cod):
                self.check_type(ctx, dom)
                self.check_type({**ctx, x: dom}, cod)
            case HoareT(vctx, hctx, pre, binder, resultty, post):
                inner = dict(ctx)
                seen = set()
                for x, t in vctx:
                    if x in seen:
                        raise CheckError(f"duplicate context name {x!r}",
                                         self._span)
                    seen.add(x)
                    self.check_type(inner, t)
                    inner[x] = t
                if len(set(hctx)) != len(hctx):
                    raise CheckError("duplicate heap variable", self._span)
                if len(set(binder)) != len(binder):
                    raise CheckError("duplicate name in binder pattern",
                                     self._span)
                self.check_type(inner, resultty)
                scope = (inner.keys() | set(hctx) | {CUR_HEAP}
                         | {d.name for d in self.program.decls})
                for which, a, more in (("pre", pre, ()),
                                       ("post", post, binder)):
                    unbound = sorted(free_vars(a) - scope - set(more))
                    if unbound:
                        raise CheckError(
                            f"unbound name {unbound[0]!r} in the "
                            f"{which}condition", self._span)
            case _:
                raise CheckError(f"not a type: {ty!r}", self._span)

    # --- bidirectional terms

    def lookup(self, ctx: dict, name: str) -> Ty:
        if name in ctx:
            return ctx[name]
        if name in self.decl_types:
            return self.decl_types[name]
        if name in BUILTIN_TYPES:
            return BUILTIN_TYPES[name]
        raise CheckError(f"unbound variable {name!r}", self._span)

    def synth(self, ctx: dict, k):
        """Type and canonical form of an elimination term."""
        match k:
            case Var():
                return self._synth_spine(ctx, k, [])
            case App(fn, arg):
                head, args = _spine(k)
                if isinstance(head, Var):
                    return self._synth_spine(ctx, head, args)
                # any other head (an ascribed λ) is reduced argument by
                # argument
                fty, fc = self.synth(ctx, fn)
                if not isinstance(fty, PiT):
                    raise CheckError(
                        f"cannot apply a value of type {pretty(fty)}",
                        self._span)
                ac = self.check(ctx, arg, fty.domain)
                rty = subst(fty.codomain, {fty.binder: strip_emb(ac)})
                canonical = normalize(App(strip_emb(fc), ac), rty)
                return rty, canonical
            case Ascribe(term, ty):
                self.check_type(ctx, ty)
                return ty, self.check(ctx, term, ty)
            case Emb(inner):
                return self.synth(ctx, inner)
        raise CheckError(f"cannot synthesize a type for {pretty(k)!r}",
                         self._span)

    def _synth_spine(self, ctx: dict, head: Var, args: list):
        """Type and canonical form of ``head`` applied to ``args``, in one
        pass over the spine.

        Each argument is checked against the domain that the arguments
        before it instantiate, the neutral spine is built from the
        canonical arguments, and it is eta-expanded once, at the result
        type.  Its fresh binders are numbered on from the arguments, as
        beta-reducing the eta-expanded head would leave them."""
        ty = self.lookup(ctx, head.name)
        spine = head
        for arg in args:
            if not isinstance(ty, PiT):
                raise CheckError(
                    f"cannot apply a value of type {pretty(ty)}", self._span)
            ac = self.check(ctx, arg, ty.domain)
            ty = subst(ty.codomain, {ty.binder: strip_emb(ac)})
            spine = App(spine, ac)
        return ty, _eta(Emb(spine), ty, [len(args)])

    def check(self, ctx: dict, m, ty: Ty, span: Optional[Span] = None):
        """Canonical form of intro term ``m`` at type ``ty``."""
        if span is not None:
            self._span = span
        match (m, ty):
            case (Emb(k), _):
                kt, kc = self.synth(ctx, k)
                if not types_equal(kt, ty):
                    raise CheckError(
                        f"expected {pretty(ty)}, found {pretty(kt)}",
                        self._span)
                return kc
            case (UnitVal(), UnitT()):
                return m
            case (BoolLit(), BoolT()):
                return m
            case (Ket(), PureT()) | (KetVec(), PureT()):
                return m
            case (MatrixLit(), MatrixT()):
                return m
            case (Lam(x, body), PiT(y, dom, cod)):
                inner = {**ctx, x: dom}
                bc = self.check(inner, body, subst(cod, {y: Var(x)}))
                return Lam(x, bc)
            case (Pair(a, b), TensorT(l, r)):
                return Pair(self.check(ctx, a, l), self.check(ctx, b, r))
            case (IfTerm(c, t, e), _):
                cc = self.check(ctx, c, BoolT())
                tc = self.check(ctx, t, ty)
                ec = self.check(ctx, e, ty)
                return normalize(IfTerm(cc, tc, ec), ty)
            case (Do(comp), HoareT()):
                return self.check_do(ctx, comp, ty)
            case (Do(), _):
                raise CheckError(
                    f"a suspended computation needs a Hoare type, "
                    f"not {pretty(ty)}", self._span)
            case _:
                raise CheckError(
                    f"term {pretty(m)} does not have type {pretty(ty)}",
                    self._span)

    # --- computations

    def _kind_of(self, ctx: dict):
        def kind(name: str) -> str:
            t = ctx.get(name)
            if isinstance(t, QbitT):
                return "qubit"
            if isinstance(t, BoolT):
                return "bool"
            if isinstance(t, PureT):
                return "pure"
            return "unknown"
        return kind

    def check_do(self, ctx: dict, comp, hoare: HoareT):
        ctx = _Scope(ctx)
        for x, t in hoare.var_ctx:
            ctx.bind(x, t)
        branches = self._initial_branches(ctx, hoare.pre)
        out, result_ty = self._steps(ctx, branches, comp, hoare.result,
                                     span=None)
        if not types_equal(result_ty, hoare.result):
            raise CheckError(
                f"computation returns {pretty(result_ty)}, "
                f"declared {pretty(hoare.result)}", self._span)
        models = []
        for b in out:
            model = b.copy()
            self._bind_pattern(model.env, hoare.binder, b.result)
            models.append(model)
        bound = {x for x, _ in self._binders}
        unbound = tuple((x, hoare.result) for x in hoare.binder
                        if x not in ctx and x not in bound)
        self._emit(
            POSTCONDITION, hoare.post, models,
            var_ctx=self._obligation_ctx(ctx, tail=unbound),
            heap_ctx=hoare.heap_ctx or ("%h0",),
            hyps=Hypotheses(out, self._render),
            note="declared postcondition")
        return Do(comp)

    def _obligation_ctx(self, ctx: _Scope, more: tuple = (),
                        tail: tuple = ()) -> _Prefix:
        """A :class:`_Prefix` that builds the obligation's context; it
        shares ``ctx`` and the binders, so it costs the same at every
        depth."""
        return ctx.prefix(more, self._binders, len(self._binders), tail)

    def _heap_branches(self, a: Assn, kind, span) -> list:
        """The heap branches of ``a``; an assertion that puts one qubit in
        two cells is a type error at ``span``."""
        try:
            return heap_from_assertion(a, kind)
        except heaplib.HeapError as e:
            raise CheckError(str(e), span) from None

    def _initial_branches(self, ctx: dict, pre: Assn) -> list:
        branches = self._heap_branches(pre, self._kind_of(ctx), self._span)
        for b in branches:
            for x, t in ctx.items():
                if isinstance(t, PureT):
                    b.env.setdefault(x, GhostRef(x))
        return branches

    def _bind_pattern(self, env: dict, pattern, value) -> None:
        if len(pattern) == 1:
            env[pattern[0]] = value
            return
        if isinstance(value, tuple) and len(value) == len(pattern):
            for name, v in zip(pattern, value):
                env[name] = v
        else:
            for name in pattern:
                env[name] = UNKNOWN

    def _emit(self, kind: str, conclusion: Assn, models, var_ctx=(),
              heap_ctx=("%h0",), hyps=list, note: str = "",
              span: Optional[Span] = None):
        ob = Obligation(
            kind=kind, conclusion=conclusion, hypotheses=hyps,
            var_ctx=var_ctx, heap_ctx=tuple(heap_ctx),
            span=span or self._span, note=note, models=models,
            decl=self._decl)
        self._obs.append(ob)
        return ob

    def _record_delta(self, span, op_id, delta, refined=False):
        if not delta.is_empty():
            self._events.append((span, op_id, delta, refined))

    def _eval_value(self, ctx: dict, m, env: dict):
        m = strip_coercions(m)
        match m:
            case BoolLit(v):
                return v
            case UnitVal():
                return None
            case Var(name):
                if name in env:
                    return env[name]
                t = ctx.get(name)
                if isinstance(t, QbitT):
                    return name
                if isinstance(t, PureT):
                    return GhostRef(name)
                return UNKNOWN
            case Pair(a, b):
                return (self._eval_value(ctx, a, env),
                        self._eval_value(ctx, b, env))
            case Ket() | KetVec():
                return m
            case _:
                return UNKNOWN

    def _qubit_name_for(self, binder: str, branches: list) -> str:
        taken = set()
        for b in branches:
            taken |= b.heap.qubits()
        if binder not in taken and not binder.startswith("%s"):
            return binder
        return self.supply.fresh(binder.lstrip("%"))

    def _cap_branches(self, branches: list, ctx: _Scope) -> list:
        if len(branches) <= BRANCH_CAP:
            return branches
        g1, g2 = self.supply.fresh("b"), self.supply.fresh("b")
        self._emit(
            POSTCONDITION, IdAt(None, GhostRef(g1), GhostRef(g2)),
            [Model(SymbolicHeap(), {})],
            var_ctx=self._obligation_ctx(
                ctx, tail=((g1, PureT()), (g2, PureT()))),
            note="symbolic branch bound exceeded; state collapsed to unknown")
        merged = branches[0].copy()
        cells = tuple(Cell(c.qubits, UNKNOWN_STATE)
                      for c in merged.heap.cells)
        merged.heap = SymbolicHeap(cells)
        merged.env = {k: (v if isinstance(v, str) else UNKNOWN)
                      for k, v in merged.env.items()}
        return [merged]

    def _steps(self, ctx: dict, branches: list, comp: Seq,
               expected: Optional[Ty], span):
        """Run a ``do`` block statement by statement over ``branches``.

        The block's context is one :class:`_Scope`, extended in place as
        the statements bind names.  ``span`` stands for a statement that
        has none.
        """
        ctx = _Scope(ctx)
        for stmt in comp.stmts:
            span = stmt.span or span
            self._span = span
            match stmt:
                case LetEq(x, ann, value):
                    self.check_type(ctx, ann)
                    vc = self.check(ctx, value, ann)
                    for b in branches:
                        b.env[x] = self._eval_value(ctx, vc, b.env)
                    ctx.bind(x, ann)

                case BindCmd(x, cmd):
                    branches, bty = self._run_command(ctx, branches, x, cmd,
                                                      span)
                    ctx.bind(x, bty)
                    self._binders.append((x, bty))
                    branches = self._cap_branches(branches, ctx)

                case BindRun(pat, source):
                    branches, rty = self._run_call(
                        ctx, branches, pat, self.synth(ctx, source)[0], span)
                    if len(pat) == 1:
                        bound = ((pat[0], rty),)
                    elif isinstance(rty, TensorT):
                        bound = ((pat[0], rty.left), (pat[1], rty.right))
                    else:
                        raise CheckError(
                            f"pair pattern on non-pair result "
                            f"{pretty(rty)}", span)
                    for name, ty in bound:
                        ctx.bind(name, ty)
                        self._binders.append((name, ty))
                    branches = self._cap_branches(branches, ctx)

        self._span = comp.ret.span or span
        if expected is not None:
            vc = self.check(ctx, comp.ret.value, expected)
            rty = expected
        else:
            rty, vc = self._synth_intro(ctx, comp.ret.value)
        for b in branches:
            b.result = self._eval_value(ctx, vc, b.env)
        return branches, rty

    def _synth_intro(self, ctx: dict, m):
        m2 = strip_emb(m)
        match m2:
            case BoolLit():
                return BoolT(), m2
            case UnitVal():
                return UnitT(), m2
            case Ket() | KetVec():
                return PureT(), m2
            case Var() | App() | Ascribe():  # synth checks an ascription
                return self.synth(ctx, m2)
            case Pair(a, b):
                lt, lc = self._synth_intro(ctx, a)
                rt, rc = self._synth_intro(ctx, b)
                return TensorT(lt, rt), Pair(lc, rc)
            case _:
                raise CheckError(
                    f"cannot infer a type for {pretty(m)!r}; add an "
                    f"ascription", self._span)

    # --- commands

    def _run_command(self, ctx: dict, branches: list, binder: str, cmd,
                     span):
        self._op_counter += 1
        op = self._op_counter
        match cmd:
            case MkQbit(init):
                ic = self.check(ctx, init, BoolT())
                qname = self._qubit_name_for(binder, branches)
                out = []
                for b in branches:
                    v = self._eval_value(ctx, ic, b.env)
                    values = [v] if v is not UNKNOWN else [False, True]
                    for value in values:
                        nb = b.copy()
                        nb.heap, delta = sp_init(b.heap, value, qname)
                        nb.env[binder] = qname
                        out.append(nb)
                        self._record_delta(span, op, delta)
                return out, QbitT()

            case MeasQbit(target):
                tc = self.check(ctx, target, QbitT())
                models = [b.copy() for b in branches]
                self._emit(
                    ALLOCATION, Lookup(tc, WildcardState()), models,
                    var_ctx=self._obligation_ctx(ctx),
                    hyps=Hypotheses(models, self._render),
                    note="measured qubit must be allocated", span=span)
                out = []
                for b in branches:
                    q = self._eval_value(ctx, tc, b.env)
                    if not isinstance(q, str) or b.heap.find(q) is None:
                        nb = b.copy()
                        nb.env[binder] = UNKNOWN
                        out.append(nb)
                        continue
                    for mb in sp_measure(b.heap, q, refine=not self.literal):
                        nb = b.copy()
                        nb.heap = mb.heap
                        nb.env[binder] = (mb.outcome if mb.outcome is not None
                                          else UNKNOWN)
                        out.append(nb)
                        self._record_delta(span, op, mb.delta,
                                           refined=not self.literal)
                return out, BoolT()

            case ApplyU(uterm):
                try:
                    # with no branch, evaluate by name, for the diagnostics
                    units = self._gate(ctx, uterm,
                                       [b.env for b in branches] or [{}])
                except UnitaryError as e:
                    if e.matrix is not None:
                        self._emit(
                            UNITARITY, Bot(), [Model(SymbolicHeap(), {})],
                            var_ctx=self._obligation_ctx(ctx),
                            note=e.message, span=span)
                        for b in branches:
                            b.env[binder] = None
                        return branches, UnitT()
                    raise CheckError(e.message, span)
                rots = _rot_count(units[0])
                if rots:
                    self._emit(
                        UNITARITY, Top(), [Model(SymbolicHeap(), {})],
                        var_ctx=self._obligation_ctx(ctx),
                        note=f"{rots} rotation matrix(es) validated "
                             f"unitary", span=span)
                missing_models, residual_models, out = [], [], []
                residual_cell = None
                for b, u in zip(branches, units):
                    try:
                        res = sp_apply_unitary(b.heap, u, self._cells)
                    except heaplib.WidthError as e:
                        raise CheckError(str(e), span) from None
                    except heaplib.HeapError:  # a qubit is not allocated
                        missing_models.append(b)
                        nb = b.copy()
                        nb.env[binder] = None
                        out.append(nb)
                        continue
                    # one branch in, one out: update it in place
                    b.heap = res.heap
                    b.env[binder] = None
                    out.append(b)
                    self._record_delta(span, op, res.delta)
                    if res.residual:
                        residual_models.append(b.copy())
                        residual_cell = res.delta.produced[0]
                if residual_models:
                    g = self.supply.fresh("u")
                    self._emit(
                        UNITARITY,
                        IdAt(None, heaplib.loc_term(residual_cell.qubits),
                             GhostRef(g)),
                        residual_models,
                        var_ctx=self._obligation_ctx(
                            ctx, tail=((g, PureT()),)),
                        note="unitary applied to an opaque or assumed "
                             "state; result not computable statically",
                        span=span)
                if missing_models:
                    # the footprint by variable name; a qubit is missing,
                    # so the fold is nonempty
                    (by_name,) = self._gate(ctx, uterm, [{}])
                    concl = functools.reduce(
                        And, (Lookup(Emb(Var(q)), WildcardState())
                              for q in simlib.footprint(by_name)))
                    self._emit(
                        ALLOCATION, concl, missing_models,
                        var_ctx=self._obligation_ctx(ctx),
                        note="unitary footprint must be allocated",
                        span=span)
                return out, UnitT()

            case IfCmd(scrut, then_t, else_t):
                sc = self.check(ctx, scrut, BoolT())
                taken = {True: [], False: []}
                for b in branches:
                    v = self._eval_value(ctx, sc, b.env)
                    if v is True or v is False:
                        taken[v].append(b)
                    else:
                        for value in (True, False):
                            nb = b.copy()
                            s = strip_coercions(sc)
                            if isinstance(s, Var):
                                nb.env[s.name] = value
                            taken[value].append(nb)
                tb, tty = self._run_branch(ctx, taken[True], then_t, span)
                eb, ety = self._run_branch(ctx, taken[False], else_t, span)
                if not types_equal(tty, ety):
                    raise CheckError(
                        f"conditional branches disagree: {pretty(tty)} vs "
                        f"{pretty(ety)}", span)
                out = tb + eb
                for b in out:
                    b.env[binder] = b.result
                    b.result = None
                return out, tty
        raise CheckError(f"bad command {cmd!r}", span)

    def _gate(self, ctx: dict, uterm, envs: list) -> list:
        """The unitary that gate term ``uterm`` denotes in each env of
        ``envs``, each qubit variable naming its :func:`_qubit_of`.

        The term, the types of its free names and those qubits fix the
        unitary, so it is checked and evaluated once per distinct key.
        Only successes are kept: a term that fails raises again at each
        occurrence, with its own span.
        """
        memo = self._gates.get(uterm)
        if memo is None:
            memo = self._gates[uterm] = (sorted(free_vars(uterm)), {})
        names, units = memo
        types = tuple([ctx.get(x, self.decl_types.get(x)) for x in names])
        qvars = [x for x in names if isinstance(ctx.get(x), QbitT)]
        out = []
        for env in envs:
            qubits = tuple([_qubit_of(env, x) for x in qvars])
            u = units.get((types, qubits))
            if u is None:
                uc = self.check(ctx, uterm, UT())
                where = dict(zip(qvars, qubits))
                u = units[types, qubits] = eval_unitary(uc,
                                                        where.__getitem__)
            out.append(u)
        return out

    def _run_branch(self, ctx: dict, branches: list, term, span):
        """Type and run one conditional branch over the given branch set.

        A bare ``do`` block is run in place, as the runtime runs it.  An
        ascribed one is checked against its ascribed Hoare type and run as
        a call to that type, under a fresh result name, or two for a
        pair.  Any other term is a value, and its ascription is checked."""
        block = strip_emb(term)
        if isinstance(block, Do):
            return self._steps(ctx, branches, block.body, None, span)
        if isinstance(strip_coercions(block), Do):
            sty, _ = self.synth(ctx, block)
            pair = isinstance(sty.result, TensorT)
            pat = tuple(self.supply.fresh("s") for _ in range(1 + pair))
            out, rty = self._run_call(ctx, branches, pat, sty, span)
            for b in out:
                value = tuple(b.env.pop(p) for p in pat)
                b.result = value if pair else value[0]
            return out, rty
        rty, tc = self._synth_intro(ctx, term)
        for b in branches:
            b.result = self._eval_value(ctx, tc, b.env)
        return branches, rty

    # --- calls

    def _run_call(self, ctx: dict, branches: list, pat, sty: Ty, span):
        """Run a computation of type ``sty``, binding its result to ``pat``."""
        if not isinstance(sty, HoareT):
            raise CheckError(
                f"bind source has type {pretty(sty)}; a suspended "
                f"computation was expected", span)
        # instantiate callee ghosts with fresh logic variables
        mapping = {}
        ghost_ctx = {}
        for g, gty in sty.var_ctx:
            fresh = self.supply.fresh(g.lstrip("%"))
            mapping[g] = Var(fresh)
            ghost_ctx[fresh] = gty
        pre = subst(sty.pre, mapping)
        post = subst(sty.post, mapping)
        result_ty = subst(sty.result, mapping)

        # rename the callee's result binder to the caller's pattern
        binder = sty.binder
        post_names = free_vars(post) - set(binder)
        if len(binder) == len(pat):
            post = subst(post, {b: Var(p) for b, p in zip(binder, pat)})
        elif len(binder) == 1 and len(pat) == 2:
            post = subst(post, {binder[0]: Pair(Emb(Var(pat[0])),
                                                Emb(Var(pat[1])))})
        else:
            raise CheckError("binder pattern arity mismatch", span)

        ctx2 = ChainMap(ghost_ctx, ctx)
        for g, gty in ghost_ctx.items():
            self._binders.append((g, gty))
        kind = self._kind_of(ctx2)
        models = [b.copy() for b in branches]
        self._emit(
            CALL_PRE, _small_footprint(pre), models,
            var_ctx=self._obligation_ctx(
                ctx, more=tuple(ghost_ctx.items())),
            hyps=Hypotheses(models, self._render),
            note="precondition of the computation being run", span=span)

        # frame: consume the callee footprint, splice in its postcondition
        fq = footprint_qubits(pre, kind)
        pat_kinds = ctx2.new_child()
        if len(pat) == 1:
            pat_kinds[pat[0]] = result_ty
        elif isinstance(result_ty, TensorT):
            pat_kinds[pat[0]] = result_ty.left
            pat_kinds[pat[1]] = result_ty.right
        post_branches = self._heap_branches(post, self._kind_of(pat_kinds),
                                            span)
        # a pattern name the postcondition uses for an argument would
        # capture it: the result and the argument would become one name
        captured = [p for p in pat if p in post_names]
        if captured:
            raise CheckError(
                f"result name {captured[0]!r} is already free in the "
                f"postcondition of the computation being run", span)
        self._op_counter += 1
        op = self._op_counter
        out = []
        for b in branches:
            # the qubit each footprint variable names in this branch
            where = {x: q for x in fq if (q := _qubit_of(b.env, x)) != x}
            framed, consumed = _frame_out(b.heap,
                                          [where.get(x, x) for x in fq])
            for pb in post_branches:
                nb = b.copy()
                produced = _rename_cells(pb.heap.cells, where)
                renamed = {}  # a produced qubit whose name the frame holds
                try:
                    cells = framed.cells + produced
                    heaplib.check_disjoint(cells)
                except heaplib.HeapError:
                    renamed = {q: self.supply.fresh(q.lstrip("%"))
                               for c in produced for q in c.qubits
                               if framed.find(q) is not None}
                    produced = _rename_cells(produced, renamed)
                    cells = framed.cells + produced
                nb.heap = SymbolicHeap(cells)
                nb.env.update(pb.env)
                value = self._call_result_value(pat, pat_kinds, pb, where,
                                                renamed)
                self._bind_pattern(nb.env, pat, value)
                out.append(nb)
                self._record_delta(
                    span, op, heaplib.HeapDelta(consumed, produced))
        return out, result_ty

    def _call_result_value(self, pat, kinds: dict, pb: Model,
                           where: dict, renamed: dict):
        def component(name):
            t = kinds.get(name)
            if isinstance(t, QbitT):
                # the cell the post names, renamed as the produced cells are
                q = where.get(name, name)
                return renamed.get(q, q)
            if name in pb.env:
                return pb.env[name]
            if isinstance(t, UnitT):
                return None
            return UNKNOWN

        if len(pat) == 1:
            return component(pat[0])
        return tuple(component(p) for p in pat)


def _render_once(renders: dict, state):
    """``state_expr(state)``, computed once per distinct state and kept in
    ``renders``.  Equal states render alike: equal amplitudes differ at
    most in the sign of a zero, and a zero prints as ``0`` either way."""
    expr = renders.get(state)
    if expr is None:
        expr = renders[state] = heaplib.state_expr(state)
    return expr


class Hypotheses:
    """An obligation's hypotheses, as the branches the checker kept for it:
    one disjunct per branch.  Calling it builds them as assertions, which
    the first read of ``Obligation.hypotheses`` does; :meth:`text` writes
    the same assertions as text without building them.  The branches are
    ones that no later statement changes: the obligation's own model
    copies, or a block's final branches (``applyU`` updates live ones in
    place).  States are written by ``render``."""

    __slots__ = ("branches", "render")

    def __init__(self, branches: list, render):
        self.branches = branches
        self.render = render

    def __call__(self) -> list:
        return _hypotheses(self.branches, self.render)

    def text(self, heap_texts: dict) -> list:
        """``[pretty(h) for h in self()]``, written from the branches.
        ``heap_texts`` maps each heap written so far to the text of its
        parts; a report shares it between its obligations, so each
        distinct heap is written once (equal heaps write alike, as
        :func:`_render_once` says of states)."""
        def heap_parts(h: SymbolicHeap) -> list:
            parts = heap_texts.get(h)
            if parts is None:
                parts = heap_texts[h] = [
                    pretty(a) for a in heap_to_assertions(h, self.render)]
            return parts

        if not self.branches:
            return [pretty(Bot())]
        # every part is an atom, which a chain prints without parentheses
        return [" \\/ ".join(
            [" /\\ ".join(_branch_parts(b, heap_parts, _binding_text))
             for b in self.branches])]


def _branch_parts(b: Model, heap_parts, binding) -> list:
    """The conjuncts of branch ``b``'s hypothesis: ``heap_parts(b.heap)``,
    then ``binding(name, value)`` for each ``Bool`` binding, in env order.
    The assertions and the text of the hypotheses both read this."""
    parts = list(heap_parts(b.heap))
    parts += [binding(k, v) for k, v in b.env.items()
              if v is True or v is False]
    return parts


def _binding_assertion(name: str, value: bool) -> Assn:
    return IdAt(None, Emb(Var(name)), BoolLit(value))


def _binding_text(name: str, value: bool) -> str:
    return f"Id({name}, {'true' if value else 'false'})"


def _hypotheses(branches: list, render) -> list:
    """``branches`` as assertions, one ``Or`` disjunct per branch, each the
    ``And`` of its :func:`_branch_parts`, with states written by
    ``render``."""
    if not branches:
        return [Bot()]
    heap_parts = functools.partial(heap_to_assertions, render=render)
    return [functools.reduce(Or, [
        functools.reduce(And, _branch_parts(b, heap_parts, _binding_assertion))
        for b in branches])]


def _assemble_trace(events: list, render) -> list:
    """One step per span of ``(span, op_id, delta, refined)`` events, its
    deltas rendered with ``render``, composed, and alternatives counted."""
    steps = []
    for span, op_id, delta, refined in events:
        assn = delta_assertion(delta, render=render)
        if steps and steps[-1][0] == span:
            steps[-1][1].setdefault(op_id, []).append(assn)
            steps[-1][2] = steps[-1][2] or refined
        else:
            steps.append([span, {op_id: [assn]}, refined])
    out = []
    for span, by_op, refined in steps:
        chain_items = []
        alternatives = 0
        for op_id in sorted(by_op):
            unique = []
            for a in by_op[op_id]:
                if a not in unique:
                    unique.append(a)
            chain_items.append(unique[0])
            alternatives = max(alternatives, len(unique) - 1)
        label = ARef(f"P{len(out)}")
        chain = chain_items[-1]
        for item in reversed(chain_items[:-1]):
            chain = Compose(item, chain)
        out.append(TraceStep(span, Compose(label, chain), refined,
                             alternatives))
    return out


def _rot_count(u) -> int:
    """The number of rotation matrices in ``u``."""
    match u:
        case simlib.Rot():
            return 1
        case simlib.MAppend(a, b) | simlib.Cond(_, a, b):
            return _rot_count(a) + _rot_count(b)
    return 0


def _qubit_of(env: dict, x: str) -> str:
    """The qubit that qubit variable ``x`` names in a branch with ``env``:
    the one the branch binds it to, else the qubit of its own name."""
    q = env.get(x, x)
    return q if isinstance(q, str) else x


def _rename_cells(cells, names: dict) -> tuple:
    """``cells`` with each qubit renamed by ``names`` where it has one."""
    if not names:
        return tuple(cells)
    return tuple(Cell(tuple(names.get(q, q) for q in c.qubits), c.state)
                 for c in cells)


def _frame_out(h: SymbolicHeap, qubits) -> tuple:
    """Remove the named qubits; returns (framed heap, consumed cells)."""
    consumed = []
    cells = list(h.cells)
    for q in qubits:
        cell = None
        for c in cells:
            if q in c.qubits:
                cell = c
                break
        if cell is None:
            continue
        if cell not in consumed:
            consumed.append(cell)
        cells.remove(cell)
        rest = tuple(x for x in cell.qubits if x != q and x not in qubits)
        if rest:
            cells.append(Cell(rest, UNKNOWN_STATE))
    return SymbolicHeap(tuple(cells)), tuple(consumed)


def _small_footprint(a: Assn) -> Assn:
    """Small-footprint reading of a callee precondition at a call site:
    ``emp`` frames trivially and exact points-to weakens to containment."""
    match a:
        case Emp():
            return Top()
        case PointsTo(loc, st):
            return Lookup(loc, st)
        case And() | Or():
            first, links = chain_links(a)
            out = _small_footprint(first)
            for link in links:
                out = type(link)(out, _small_footprint(link.right))
            return out
        case _:
            return a


# ---------------------------------------------------------------------------
# Module-level convenience operations


def synth(var_ctx: dict, k, program: Optional[Program] = None):
    """Synthesize (type, canonical form) for an elim term."""
    checker = Checker(program or Program(()))
    return checker.synth(dict(var_ctx), k)


def check(var_ctx: dict, m, ty: Ty, program: Optional[Program] = None):
    """Check an intro term against a type; returns the canonical form."""
    checker = Checker(program or Program(()))
    return checker.check(dict(var_ctx), m, ty)


def check_program(program: Program,
                  literal_measurement: bool = False) -> CheckedProgram:
    """Type-check and generate verification conditions for a program."""
    return Checker(program, literal_measurement).check_program()
