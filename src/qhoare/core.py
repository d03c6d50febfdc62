"""Abstract syntax for a small quantum language with Hoare-typed computations.

Sorts defined here: types, elimination/introduction terms, quantum commands,
monadic computations, assertions, heap expressions and pure-state
expressions, plus programs and declarations.  Every node is an immutable
dataclass and safe to share across threads; source spans never participate
in equality, so two parses of the same text compare equal.

Names are plain strings.  The prefix ``%`` is reserved for machine
generated names (``NameSupply``); ``%h`` names the current heap in rendered
assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

CUR_HEAP = "%h"


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _span():
    return field(default=None, compare=False, repr=False)


class NameSupply:
    """Deterministic fresh-name generator; one instance per run."""

    def __init__(self) -> None:
        self._next = 0

    def fresh(self, base: str = "x") -> str:
        name = f"%{base}{self._next}"
        self._next += 1
        return name


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class UnitT:
    pass


@dataclass(frozen=True)
class BoolT:
    pass


@dataclass(frozen=True)
class QbitT:
    pass


@dataclass(frozen=True)
class UT:
    pass


@dataclass(frozen=True)
class PureT:
    pass


@dataclass(frozen=True)
class MatrixT:
    """Type of 2x2 complex matrix literals (the second argument of ``rot``)."""

    pass


@dataclass(frozen=True)
class TensorT:
    left: "Ty"
    right: "Ty"


@dataclass(frozen=True)
class PiT:
    binder: str
    domain: "Ty"
    codomain: "Ty"


# A binder pattern is one name or a pair of names.
Pattern = tuple


@dataclass(frozen=True)
class HoareT:
    """Monadic type ``{P} x : A {Q}`` with optional ghost/heap contexts.

    ``var_ctx`` binds logic-level variables scoping over pre, result type
    and post; ``heap_ctx`` binds heap variables likewise; ``binder``
    additionally scopes over the postcondition.
    """

    var_ctx: tuple  # tuple[(name, Ty), ...]
    heap_ctx: tuple  # tuple[name, ...]
    pre: "Assn"
    binder: Pattern
    result: "Ty"
    post: "Assn"


Ty = Union[UnitT, BoolT, QbitT, UT, PureT, MatrixT, TensorT, PiT, HoareT]


# ---------------------------------------------------------------------------
# Terms (elim and intro sorts are distinct; Emb embeds elim into intro)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fn: "Elim"
    arg: "Intro"


@dataclass(frozen=True)
class Ascribe:
    term: "Intro"
    ty: Ty


Elim = Union[Var, App, Ascribe]


@dataclass(frozen=True)
class Emb:
    elim: Elim


@dataclass(frozen=True)
class UnitVal:
    pass


@dataclass(frozen=True)
class Lam:
    binder: str
    body: "Intro"


@dataclass(frozen=True)
class Do:
    body: "Seq"


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Pair:
    first: "Intro"
    second: "Intro"


@dataclass(frozen=True)
class IfTerm:
    """Pure conditional; needed to express ``cond`` branch functions."""

    scrutinee: "Intro"
    then_branch: "Intro"
    else_branch: "Intro"


@dataclass(frozen=True)
class MatrixLit:
    rows: tuple  # ((c, c), (c, c)) complex entries


Intro = Union[Emb, UnitVal, Lam, Do, BoolLit, Pair, IfTerm, MatrixLit]


# ---------------------------------------------------------------------------
# Pure-state expressions (heap cell values)

_S = 2 ** -0.5
KET_AMPS = {
    "0": (1 + 0j, 0j),
    "1": (0j, 1 + 0j),
    "+": (_S + 0j, _S + 0j),
    "-": (_S + 0j, -_S + 0j),
    "phi+": (_S + 0j, 0j, 0j, _S + 0j),
}

KET_TEXT = {
    "0": "|0\\>",
    "1": "|1\\>",
    "+": "|+\\>",
    "-": "|-\\>",
    "phi+": "|\\Phi+\\>",
}


@dataclass(frozen=True)
class Ket:
    kind: str

    def amplitudes(self) -> tuple:
        return KET_AMPS[self.kind]


@dataclass(frozen=True)
class KetVec:
    """Explicit amplitude vector, for states with no named ket literal."""

    amps: tuple


@dataclass(frozen=True)
class GhostRef:
    """Reference to a logic-level pure-state variable."""

    name: str


@dataclass(frozen=True)
class WildcardState:
    pass


StateE = Union[Ket, KetVec, GhostRef, WildcardState]


# ---------------------------------------------------------------------------
# Quantum commands


@dataclass(frozen=True)
class MkQbit:
    init: Intro


@dataclass(frozen=True)
class MeasQbit:
    target: Intro


@dataclass(frozen=True)
class ApplyU:
    unitary: Intro


@dataclass(frozen=True)
class IfCmd:
    scrutinee: Intro
    then_branch: Intro
    else_branch: Intro


Cmd = Union[MkQbit, MeasQbit, ApplyU, IfCmd]


# ---------------------------------------------------------------------------
# Computations


@dataclass(frozen=True)
class Ret:
    value: Intro
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class BindRun:
    """``x <- K``: run a suspended computation."""

    pattern: Pattern
    source: Elim
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class BindCmd:
    """``x <= c``: run a primitive command."""

    binder: str
    command: Cmd
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class LetEq:
    """``x : A = M``: pure let binding."""

    binder: str
    ann: Ty
    value: Intro
    span: Optional[Span] = _span()


Stmt = Union[BindRun, BindCmd, LetEq]


@dataclass(frozen=True)
class Seq:
    """A ``do`` block: statements in order, each binding names for the
    ones after it, then the ``return``."""

    stmts: tuple  # tuple[Stmt, ...]
    ret: Ret


def bound_names(s: Stmt) -> tuple:
    """The names statement ``s`` binds for the rest of its block."""
    return s.pattern if isinstance(s, BindRun) else (s.binder,)


# ---------------------------------------------------------------------------
# Heap expressions


@dataclass(frozen=True)
class HVar:
    name: str


@dataclass(frozen=True)
class HEmpty:
    pass


@dataclass(frozen=True)
class Upd:
    """Functional update; later updates shadow earlier ones at equal locations."""

    base: "HeapE"
    loc: Intro
    value: StateE


HeapE = Union[HVar, HEmpty, Upd]


# ---------------------------------------------------------------------------
# Assertions


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class And:
    left: "Assn"
    right: "Assn"


@dataclass(frozen=True)
class Or:
    left: "Assn"
    right: "Assn"


@dataclass(frozen=True)
class Implies:
    left: "Assn"
    right: "Assn"


@dataclass(frozen=True)
class Not:
    body: "Assn"


@dataclass(frozen=True)
class ExistsVar:
    name: str
    ty: Ty
    body: "Assn"


@dataclass(frozen=True)
class ForallVar:
    name: str
    ty: Ty
    body: "Assn"


@dataclass(frozen=True)
class ExistsHeap:
    name: str
    body: "Assn"


@dataclass(frozen=True)
class ForallHeap:
    name: str
    body: "Assn"


@dataclass(frozen=True)
class IdAt:
    """Propositional equality.  The type index is elided in surface syntax,
    so it is optional here; operands may be terms or state expressions."""

    ty: Optional[Ty]
    left: object
    right: object


@dataclass(frozen=True)
class HeapId:
    left: HeapE
    right: HeapE


@dataclass(frozen=True)
class InDom:
    heap: HeapE
    loc: Intro


# Derived forms (the prover evaluates them directly) ------------------------


@dataclass(frozen=True)
class Emp:
    pass


@dataclass(frozen=True)
class PointsTo:
    """The current heap is exactly the one cell ``loc -> state``.
    ``loc`` may be a Pair term naming a multi-qubit cell."""

    loc: object
    state: object


@dataclass(frozen=True)
class Lookup:
    """``M ~> N``: looking up M in the current heap yields N."""

    loc: object
    state: object


@dataclass(frozen=True)
class MemberOf:
    term: object
    candidates: tuple  # nonempty tuple of StateE


@dataclass(frozen=True)
class Entangled:
    target: Intro


# Trace notation -------------------------------------------------------------


@dataclass(frozen=True)
class Compose:
    """Relational composition: right holds of the current heap obtained by
    modifying a prior heap satisfying left."""

    left: "Assn"
    right: "Assn"


@dataclass(frozen=True)
class Replace:
    """Difference operator: the consumed fragment is replaced by the
    produced one, framing the rest of the heap."""

    consumed: "Assn"
    produced: "Assn"


@dataclass(frozen=True)
class CellGroup:
    """Comma-grouped heap fragments, e.g. ``(qa |-> |+\\>, qb |-> |0\\>)``."""

    items: tuple


@dataclass(frozen=True)
class ARef:
    """Reference to a labelled trace assertion such as ``P0``."""

    name: str


Assn = Union[
    Top, Bot, And, Or, Implies, Not,
    ExistsVar, ForallVar, ExistsHeap, ForallHeap,
    IdAt, HeapId, InDom,
    Emp, PointsTo, Lookup, MemberOf, Entangled,
    Compose, Replace, CellGroup, ARef,
]


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Decl:
    name: str
    signature: Ty
    body: Intro
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Program:
    decls: tuple

    def decl(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Pretty printer.  Regenerates the surface syntax accepted by the parser.


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_real(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return _fmt_real(im) + "i"
    sign = "+" if im >= 0 else "-"
    mag = abs(im)
    imtxt = "i" if mag == 1 else _fmt_real(mag) + "i"
    return f"{_fmt_real(re)}{sign}{imtxt}"


def _pp_pattern(pat: Pattern) -> str:
    if len(pat) == 1:
        return pat[0]
    return "(" + ", ".join(pat) + ")"


def _pp_ty(t: Ty) -> str:
    match t:
        case UnitT():
            return "1"
        case BoolT():
            return "Bool"
        case QbitT():
            return "Qbit"
        case UT():
            return "U"
        case PureT():
            return "Pure"
        case MatrixT():
            return "Matrix"
        case TensorT(a, b):
            return f"({_pp_ty(a)}, {_pp_ty(b)})"
        case PiT(x, dom, cod):
            return f"\\Pi {x} : {_pp_ty(dom)}. {_pp_ty(cod)}"
        case HoareT(vctx, hctx, pre, binder, result, post):
            parts = [f"{x} : {_pp_ty(a)}. " for x, a in vctx]
            parts += [f"{h} : heap. " for h in hctx]
            parts.append(
                f"{{{_pp_assn(pre, 0)}}} {_pp_pattern(binder)} : "
                f"{_pp_ty(result)} {{{_pp_assn(post, 0)}}}"
            )
            return "".join(parts)
    raise TypeError(f"not a type: {t!r}")


def _term_atomic(m) -> bool:
    return isinstance(
        m, (Var, UnitVal, BoolLit, Pair, MatrixLit, Ascribe,
            Ket, KetVec, GhostRef, WildcardState)
    ) or (isinstance(m, Emb) and _term_atomic(m.elim))


def _pp_term(m) -> str:
    match m:
        case Var(name):
            return name
        case App(fn, arg):
            a = _pp_term(arg)
            if not _term_atomic(arg):
                a = f"({a})"
            return f"{_pp_term(fn)} {a}"
        case Ascribe(term, ty):
            return f"({_pp_term(term)} : {_pp_ty(ty)})"
        case Emb(elim):
            return _pp_term(elim)
        case UnitVal():
            return "()"
        case Lam(x, body):
            return f"\\{x}. {_pp_term(body)}"
        case Do(body):
            return "do " + _pp_comp(body)
        case BoolLit(v):
            return "true" if v else "false"
        case Pair(a, b):
            return f"({_pp_term(a)}, {_pp_term(b)})"
        case IfTerm(c, t, e):
            return f"if {_pp_term(c)} then {_pp_term(t)} else {_pp_term(e)}"
        case MatrixLit(rows):
            rtxt = [
                "(" + ", ".join(_fmt_complex(z) for z in row) + ")"
                for row in rows
            ]
            return "(" + ", ".join(rtxt) + ")"
        case Ket(kind):
            return KET_TEXT[kind]
        case KetVec(amps):
            return "|vec(" + ", ".join(_fmt_complex(z) for z in amps) + ")\\>"
        case GhostRef(name):
            return name
        case WildcardState():
            return "-"
    raise TypeError(f"not a term: {m!r}")


def _pp_cmd(c: Cmd) -> str:
    match c:
        case MkQbit(m):
            arg = _pp_term(m)
            return f"mkQbit {arg if _term_atomic(m) else f'({arg})'}"
        case MeasQbit(m):
            arg = _pp_term(m)
            return f"measQbit {arg if _term_atomic(m) else f'({arg})'}"
        case ApplyU(m):
            arg = _pp_term(m)
            return f"applyU {arg if _term_atomic(m) else f'({arg})'}"
        case IfCmd(s, t, e):
            return f"if {_pp_term(s)} then {_pp_term(t)} else {_pp_term(e)}"
    raise TypeError(f"not a command: {c!r}")


def _pp_stmt(s) -> str:
    match s:
        case Ret(value):
            return f"return {_pp_term(value)}"
        case BindRun(pat, src):
            return f"{_pp_pattern(pat)} <- {_pp_term(src)}"
        case BindCmd(x, cmd):
            return f"{x} <= {_pp_cmd(cmd)}"
        case LetEq(x, ann, value):
            return f"{x} : {_pp_ty(ann)} = {_pp_term(value)}"
    raise TypeError(f"not a computation step: {s!r}")


def _pp_comp(e: Seq) -> str:
    return "; ".join(map(_pp_stmt, e.stmts + (e.ret,)))


def _pp_heap(h: HeapE) -> str:
    match h:
        case HVar(name):
            return name
        case HEmpty():
            return "empty"
        case Upd(base, loc, value):
            return f"upd({_pp_heap(base)}, {_pp_term(loc)}, {_pp_term(value)})"
    raise TypeError(f"not a heap expression: {h!r}")


# Assertion precedence levels: compose 1, implies 2, or 3, and 4, not 5.
def _pp_delta_side(a: "Assn") -> str:
    # Sides of a Replace follow the trace conventions: bare emp, bare
    # points-to when the location is a tuple, parenthesised otherwise.
    if isinstance(a, Emp):
        return "emp"
    if isinstance(a, CellGroup):
        return _pp_assn(a, 0)
    if isinstance(a, PointsTo) and isinstance(a.loc, Pair):
        return _pp_assn(a, 0)
    return f"({_pp_assn(a, 0)})"


def _pp_assn(a: "Assn", prec: int) -> str:
    def wrap(txt: str, level: int) -> str:
        return f"({txt})" if prec > level else txt

    match a:
        case Top():
            return "T"
        case Bot():
            return "F"
        case Emp():
            return "emp"
        case ARef(name):
            return name
        case Compose(left, right):
            if isinstance(right, (PointsTo, CellGroup)):
                rtxt = f"({_pp_assn(right, 0)})"
            else:
                rtxt = _pp_assn(right, 1)
            if isinstance(left, (PointsTo, CellGroup)):
                ltxt = f"({_pp_assn(left, 0)})"
            else:
                ltxt = _pp_assn(left, 2)
            return wrap(f"{ltxt} \\o {rtxt}", 1)
        case Replace(consumed, produced):
            return f"({_pp_delta_side(consumed)} -o {_pp_delta_side(produced)})"
        case CellGroup(items):
            return "(" + ", ".join(_pp_assn(i, 0) for i in items) + ")"
        case Implies(l, r):
            return wrap(f"{_pp_assn(l, 3)} => {_pp_assn(r, 2)}", 2)
        case Or(l, r):
            return wrap(f"{_pp_assn(l, 3)} \\/ {_pp_assn(r, 4)}", 3)
        case And(l, r):
            return wrap(f"{_pp_assn(l, 4)} /\\ {_pp_assn(r, 5)}", 4)
        case Not(body):
            return f"~{_pp_assn(body, 6)}"
        case ExistsVar(x, ty, body):
            return wrap(f"exists {x} : {_pp_ty(ty)}. {_pp_assn(body, 2)}", 2)
        case ForallVar(x, ty, body):
            return wrap(f"forall {x} : {_pp_ty(ty)}. {_pp_assn(body, 2)}", 2)
        case ExistsHeap(h, body):
            return wrap(f"exists {h} : heap. {_pp_assn(body, 2)}", 2)
        case ForallHeap(h, body):
            return wrap(f"forall {h} : heap. {_pp_assn(body, 2)}", 2)
        case IdAt(_, l, r):
            return f"Id({_pp_term(l)}, {_pp_term(r)})"
        case HeapId(l, r):
            return f"HId({_pp_heap(l)}, {_pp_heap(r)})"
        case InDom(h, loc):
            return f"indom({_pp_heap(h)}, {_pp_term(loc)})"
        case PointsTo(loc, state):
            return wrap(f"{_pp_term(loc)} |-> {_pp_term(state)}", 6)
        case Lookup(loc, state):
            return wrap(f"{_pp_term(loc)} ~> {_pp_term(state)}", 6)
        case MemberOf(term, cands):
            inner = ", ".join(_pp_term(c) for c in cands)
            return wrap(f"{_pp_term(term)} \\in {{{inner}}}", 6)
        case Entangled(t):
            return f"entangled({_pp_term(t)})"
    raise TypeError(f"not an assertion: {a!r}")


def pretty(node) -> str:
    """Render any AST node in the surface syntax."""
    if isinstance(node, Program):
        return "\n\n".join(pretty(d) for d in node.decls) + (
            "\n" if node.decls else ""
        )
    if isinstance(node, Decl):
        return f"{node.name} : {_pp_ty(node.signature)}\n    = {_pp_term(node.body)}"
    if isinstance(node, (UnitT, BoolT, QbitT, UT, PureT, MatrixT, TensorT,
                         PiT, HoareT)):
        return _pp_ty(node)
    if isinstance(node, (Var, App, Ascribe, Emb, UnitVal, Lam, Do, BoolLit,
                         Pair, IfTerm, MatrixLit, Ket, KetVec, GhostRef,
                         WildcardState)):
        return _pp_term(node)
    if isinstance(node, (MkQbit, MeasQbit, ApplyU, IfCmd)):
        return _pp_cmd(node)
    if isinstance(node, Seq):
        return _pp_comp(node)
    if isinstance(node, (Ret, BindRun, BindCmd, LetEq)):
        return _pp_stmt(node)
    if isinstance(node, (HVar, HEmpty, Upd)):
        return _pp_heap(node)
    return _pp_assn(node, 0)


# ---------------------------------------------------------------------------
# Free variables (term, ghost and heap names share one result set)


def free_vars(node) -> set:
    match node:
        case None | UnitT() | BoolT() | QbitT() | UT() | PureT() | MatrixT():
            return set()
        case TensorT(a, b):
            return free_vars(a) | free_vars(b)
        case PiT(x, dom, cod):
            return free_vars(dom) | (free_vars(cod) - {x})
        case HoareT(vctx, hctx, pre, binder, result, post):
            bound = {x for x, _ in vctx} | set(hctx)
            out = set()
            for _, a in vctx:
                out |= free_vars(a)
            out |= free_vars(pre) - bound
            out |= free_vars(result) - bound
            out |= free_vars(post) - bound - set(binder)
            return out
        case Var(name) | GhostRef(name) | HVar(name) | ARef(name):
            return {name}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case Ascribe(term, ty):
            return free_vars(term) | free_vars(ty)
        case Emb(elim):
            return free_vars(elim)
        case UnitVal() | BoolLit() | MatrixLit() | Ket() | KetVec() \
                | WildcardState() | Top() | Bot() | Emp() | HEmpty():
            return set()
        case Lam(x, body):
            return free_vars(body) - {x}
        case Do(body):
            return free_vars(body)
        case Pair(a, b):
            return free_vars(a) | free_vars(b)
        case IfTerm(c, t, e) | IfCmd(c, t, e):
            return free_vars(c) | free_vars(t) | free_vars(e)
        case MkQbit(m) | MeasQbit(m) | ApplyU(m):
            return free_vars(m)
        case Seq(stmts, ret):
            out, bound = set(), set()
            for s in stmts:
                out |= free_vars(s) - bound
                bound.update(bound_names(s))
            return out | (free_vars(ret) - bound)
        case Ret(value) | BindRun(_, value):
            return free_vars(value)
        case BindCmd(_, cmd):
            return free_vars(cmd)
        case LetEq(_, ann, value):
            return free_vars(ann) | free_vars(value)
        case Upd(base, loc, value):
            return free_vars(base) | free_vars(loc) | free_vars(value)
        case And(l, r) | Or(l, r) | Implies(l, r) | Compose(l, r):
            return free_vars(l) | free_vars(r)
        case Replace(l, r):
            return free_vars(l) | free_vars(r)
        case Not(body):
            return free_vars(body)
        case ExistsVar(x, ty, body) | ForallVar(x, ty, body):
            return free_vars(ty) | (free_vars(body) - {x})
        case ExistsHeap(h, body) | ForallHeap(h, body):
            return free_vars(body) - {h}
        case IdAt(ty, l, r):
            return free_vars(ty) | free_vars(l) | free_vars(r)
        case HeapId(l, r):
            return free_vars(l) | free_vars(r)
        case InDom(h, loc):
            return free_vars(h) | free_vars(loc)
        case PointsTo(loc, state) | Lookup(loc, state):
            return free_vars(loc) | free_vars(state)
        case MemberOf(term, cands):
            out = free_vars(term)
            for c in cands:
                out |= free_vars(c)
            return out
        case CellGroup(items):
            out = set()
            for i in items:
                out |= free_vars(i)
            return out
        case Entangled(t):
            return free_vars(t)
        case Decl(_, sig, body):
            return free_vars(sig) | free_vars(body)
        case Program(decls):
            out = set()
            declared = set()
            for d in decls:
                out |= free_vars(d) - declared
                declared.add(d.name)
            return out
    raise TypeError(f"free_vars: unknown node {node!r}")


# ---------------------------------------------------------------------------
# Capture-avoiding substitution of terms/states for names


_rename_counter = [0]


def _rename_fresh(base: str) -> str:
    _rename_counter[0] += 1
    return f"%r{_rename_counter[0]}"


def _as_state(v):
    if isinstance(v, (Ket, KetVec, GhostRef, WildcardState)):
        return v
    if isinstance(v, Var):
        return GhostRef(v.name)
    if isinstance(v, Emb) and isinstance(v.elim, Var):
        return GhostRef(v.elim.name)
    return v


def _as_intro(v):
    if isinstance(v, (Var, App, Ascribe)):
        return Emb(v)
    if isinstance(v, GhostRef):
        return Emb(Var(v.name))
    return v


def _range_fvs(mapping: dict) -> set:
    out = set()
    for v in mapping.values():
        out |= free_vars(v)
    return out


def _drop(mapping: dict, names) -> dict:
    return {k: v for k, v in mapping.items() if k not in names}


def subst(node, mapping: dict):
    """Substitute ``mapping`` (name -> term/state/heap) throughout ``node``."""
    if not mapping:
        return node

    def binder_adjust(x, body_nodes, m):
        # Rename the binder if a replacement would capture it.
        m = _drop(m, {x})
        if not m:
            return x, body_nodes, m
        if x in _range_fvs(m):
            nx = _rename_fresh(x.lstrip("%"))
            ren = {x: Var(nx)}
            body_nodes = [subst(b, ren) for b in body_nodes]
            return nx, body_nodes, m
        return x, body_nodes, m

    match node:
        case None | UnitT() | BoolT() | QbitT() | UT() | PureT() | MatrixT() \
                | UnitVal() | BoolLit() | MatrixLit() | Ket() | KetVec() \
                | WildcardState() | Top() | Bot() | Emp() | HEmpty() | ARef():
            return node
        case TensorT(a, b):
            return TensorT(subst(a, mapping), subst(b, mapping))
        case PiT(x, dom, cod):
            dom = subst(dom, mapping)
            x, [cod], m = binder_adjust(x, [cod], mapping)
            return PiT(x, dom, subst(cod, m))
        case HoareT(vctx, hctx, pre, binder, result, post):
            bound = {x for x, _ in vctx} | set(hctx) | set(binder)
            m = _drop(mapping, bound)
            if not m:
                return node
            vctx = tuple((x, subst(a, mapping)) for x, a in vctx)
            return HoareT(vctx, hctx, subst(pre, m), binder,
                          subst(result, m), subst(post, m))
        case Var(name):
            return mapping.get(name, node)
        case GhostRef(name):
            return _as_state(mapping.get(name, node))
        case App(fn, arg):
            return App(subst(fn, mapping), subst(arg, mapping))
        case Ascribe(term, ty):
            return Ascribe(subst(term, mapping), subst(ty, mapping))
        case Emb(elim):
            inner = subst(elim, mapping)
            return inner if not isinstance(inner, (Var, App, Ascribe)) \
                else Emb(inner)
        case Lam(x, body):
            x, [body], m = binder_adjust(x, [body], mapping)
            return Lam(x, subst(body, m))
        case Do(body):
            return Do(subst(body, mapping))
        case Pair(a, b):
            return Pair(_as_intro(subst(a, mapping)), _as_intro(subst(b, mapping)))
        case IfTerm(c, t, e):
            return IfTerm(subst(c, mapping), subst(t, mapping), subst(e, mapping))
        case IfCmd(c, t, e):
            return IfCmd(subst(c, mapping), subst(t, mapping), subst(e, mapping))
        case MkQbit(m):
            return MkQbit(subst(m, mapping))
        case MeasQbit(m):
            return MeasQbit(subst(m, mapping))
        case ApplyU(m):
            return ApplyU(subst(m, mapping))
        case Ret(value, span):
            return Ret(subst(value, mapping), span)
        case Seq(stmts, ret):
            # a statement's binders scope over the statements after it
            out = []
            for s in stmts:
                out.append(subst(s, mapping))
                mapping = _drop(mapping, bound_names(s))
            return Seq(tuple(out), subst(ret, mapping))
        case BindRun(pat, src, span):
            return BindRun(pat, subst(src, mapping), span)
        case BindCmd(x, cmd, span):
            return BindCmd(x, subst(cmd, mapping), span)
        case LetEq(x, ann, value, span):
            return LetEq(x, subst(ann, mapping), subst(value, mapping), span)
        case HVar(name):
            v = mapping.get(name)
            return v if isinstance(v, (HVar, HEmpty, Upd)) else node
        case Upd(base, loc, value):
            return Upd(subst(base, mapping), _as_intro(subst(loc, mapping)),
                       _as_state(subst(value, mapping)))
        case And(l, r):
            return And(subst(l, mapping), subst(r, mapping))
        case Or(l, r):
            return Or(subst(l, mapping), subst(r, mapping))
        case Implies(l, r):
            return Implies(subst(l, mapping), subst(r, mapping))
        case Compose(l, r):
            return Compose(subst(l, mapping), subst(r, mapping))
        case Replace(l, r):
            return Replace(subst(l, mapping), subst(r, mapping))
        case CellGroup(items):
            return CellGroup(tuple(subst(i, mapping) for i in items))
        case Not(body):
            return Not(subst(body, mapping))
        case ExistsVar(x, ty, body):
            ty = subst(ty, mapping)
            x, [body], m = binder_adjust(x, [body], mapping)
            return ExistsVar(x, ty, subst(body, m))
        case ForallVar(x, ty, body):
            ty = subst(ty, mapping)
            x, [body], m = binder_adjust(x, [body], mapping)
            return ForallVar(x, ty, subst(body, m))
        case ExistsHeap(h, body):
            m = _drop(mapping, {h})
            return ExistsHeap(h, subst(body, m))
        case ForallHeap(h, body):
            m = _drop(mapping, {h})
            return ForallHeap(h, subst(body, m))
        case IdAt(ty, l, r):
            return IdAt(ty, subst(l, mapping), subst(r, mapping))
        case HeapId(l, r):
            return HeapId(subst(l, mapping), subst(r, mapping))
        case InDom(h, loc):
            return InDom(subst(h, mapping), subst(loc, mapping))
        case PointsTo(loc, state):
            return PointsTo(_as_intro(subst(loc, mapping)),
                            _as_state(subst(state, mapping)))
        case Lookup(loc, state):
            return Lookup(_as_intro(subst(loc, mapping)),
                          _as_state(subst(state, mapping)))
        case MemberOf(term, cands):
            return MemberOf(subst(term, mapping),
                            tuple(_as_state(subst(c, mapping)) for c in cands))
        case Entangled(t):
            return Entangled(subst(t, mapping))
    raise TypeError(f"subst: unknown node {node!r}")


# ---------------------------------------------------------------------------
# Reduction to normal form (shared by the checker and the runtime)


class ReductionError(Exception):
    """An application whose function position does not reduce to a
    function."""


def mk_intro(m):
    """Embed a variable or application into the introduction sort."""
    return Emb(m) if isinstance(m, (Var, App)) else m


def strip_emb(m):
    """``m`` without its ``Emb`` wrappers; an ascription is kept."""
    while isinstance(m, Emb):
        m = m.elim
    return m


def normal_form(m):
    """Beta-normal form of a term, with ``if`` on a literal chosen.

    Ascriptions are dropped and reduction goes under binders, but not
    under ``do``.  Raises :class:`ReductionError` for an application whose
    function reduces to neither a lambda nor a neutral term.
    """
    match m:
        case Emb(inner):
            r = normal_form(inner)
            return Emb(r) if isinstance(r, (Var, App)) else r
        case Ascribe(inner, _):
            return normal_form(inner)
        case App(fn, arg):
            rf = normal_form(fn)
            ra = normal_form(arg)
            target = rf.elim if isinstance(rf, Emb) else rf
            if isinstance(target, Lam):
                return normal_form(subst(
                    target.body,
                    {target.binder: ra.elim if isinstance(ra, Emb) else ra}))
            if isinstance(target, (Var, App)):
                return App(target, ra if not isinstance(ra, (Var, App))
                           else Emb(ra))
            raise ReductionError("application of a non-function")
        case Lam(x, body):
            return Lam(x, mk_intro(normal_form(body)))
        case Pair(a, b):
            return Pair(mk_intro(normal_form(a)), mk_intro(normal_form(b)))
        case IfTerm(c, t, e):
            rc = normal_form(c)
            if isinstance(rc, BoolLit):
                return normal_form(t if rc.value else e)
            return IfTerm(mk_intro(rc), mk_intro(normal_form(t)),
                          mk_intro(normal_form(e)))
        case _:
            return m


# ---------------------------------------------------------------------------
# Three-valued (Kleene) truth: True, False or UNKNOWN

# Undetermined truth or term value.  Not a string: symbolic environments
# keep qubit names as strings.
UNKNOWN = object()


def kleene_and(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return UNKNOWN


def kleene_or(a, b):
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return UNKNOWN


def kleene_not(a):
    return UNKNOWN if a is UNKNOWN else (not a)


def conjuncts(a: "Assn") -> list:
    """The conjuncts of ``a`` from left to right, nested ``And`` flattened."""
    if isinstance(a, And):
        return conjuncts(a.left) + conjuncts(a.right)
    return [a]
