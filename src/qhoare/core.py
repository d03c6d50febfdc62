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

import itertools
import operator
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


class _BuiltOnRead:
    """A dataclass field that takes a function of no arguments in place of
    its value; the first read calls it and keeps the result.  A field
    that is never set reads as ``default()``."""

    def __init__(self, default):
        self._default = default

    def __set_name__(self, owner, name):
        self._slot = "_" + name

    def __get__(self, ob, owner=None):
        if ob is None:  # the dataclass asks for the default
            return self._default
        value = ob.__dict__.get(self._slot, self._default)
        if callable(value):
            value = ob.__dict__[self._slot] = value()
        return value

    def __set__(self, ob, value):
        ob.__dict__[self._slot] = value


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


def _fmt_amps(amps) -> str:
    """The amplitudes ``amps`` as ``a, b, ...``; every zero, signed or
    not, is ``0`` without a call to :func:`_fmt_complex`."""
    return ", ".join(["0" if z == 0 else _fmt_complex(z) for z in amps])


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
            return "(" + ", ".join(f"({_fmt_amps(r)})" for r in rows) + ")"
        case Ket(kind):
            return KET_TEXT[kind]
        case KetVec(amps):
            return "|vec(" + _fmt_amps(amps) + ")\\>"
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
        case Or() | And():
            # a left operand at equal precedence takes no parentheses
            op, level = (" \\/ ", 3) if isinstance(a, Or) else (" /\\ ", 4)
            first, links = chain_links(a)
            parts = [_pp_assn(first, level)]
            parts.extend(_pp_assn(link.right, level + 1) for link in links)
            return wrap(op.join(parts), level)
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


def _pp_program(p: Program) -> str:
    return "\n\n".join(map(_pp_decl, p.decls)) + ("\n" if p.decls else "")


def _pp_decl(d: Decl) -> str:
    return f"{d.name} : {_pp_ty(d.signature)}\n    = {_pp_term(d.body)}"


# the renderer of each class of node but the assertions
_PRETTY = {cls: render for classes, render in (
    ((Program,), _pp_program), ((Decl,), _pp_decl), ((Seq,), _pp_comp),
    ((UnitT, BoolT, QbitT, UT, PureT, MatrixT, TensorT, PiT, HoareT), _pp_ty),
    ((Var, App, Ascribe, Emb, UnitVal, Lam, Do, BoolLit, Pair, IfTerm,
      MatrixLit, Ket, KetVec, GhostRef, WildcardState), _pp_term),
    ((MkQbit, MeasQbit, ApplyU, IfCmd), _pp_cmd),
    ((Ret, BindRun, BindCmd, LetEq), _pp_stmt),
    ((HVar, HEmpty, Upd), _pp_heap),
) for cls in classes}


def pretty(node) -> str:
    """Render any AST node in the surface syntax."""
    render = _PRETTY.get(type(node))
    return _pp_assn(node, 0) if render is None else render(node)


# ---------------------------------------------------------------------------
# Child traversal.  The walks over the AST (``free_vars`` and ``subst``
# below, ``typecheck.alpha_normalize``) have cases only for the nodes they
# treat specially: name leaves, binder forms and, in ``subst``, ``Emb``,
# ``IdAt`` and the constructors whose fields it coerces between sorts.
# Every other node's children they reach through ``children`` or
# ``map_children``, the one reader of node fields.


# The AST classes.  A ``Span`` is not a node: spans take part in neither
# equality nor traversal.
_NODES = frozenset(
    cls for cls in list(globals().values())
    if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")
    and cls is not Span
)

# The AST classes without fields, which every walk returns as they are; a
# walk tests for them first, so the commonest leaves (types, ``emp``) skip
# its cases.
_FIELDLESS = frozenset(cls for cls in _NODES if not cls.__dataclass_fields__)


def _field_values(node):
    # A frozen dataclass instance's ``__dict__`` holds exactly its fields,
    # in declaration order: ``__init__`` sets them in that order.
    if type(node) not in _NODES:
        raise TypeError(f"not an AST node: {node!r}")
    return node.__dict__.values()


def _nodes_in(values) -> list:
    out = []
    for v in values:
        if type(v) in _NODES:
            out.append(v)
        elif type(v) is tuple:
            out += _nodes_in(v)
    return out


def children(node) -> list:
    """The AST nodes in the fields of ``node``, in field order, looking
    into tuple fields, nested ones too.  Raises ``TypeError`` if ``node``
    is not a node."""
    return _nodes_in(_field_values(node))


def _map_value(v, fn):
    if type(v) in _NODES:
        return fn(v)
    if type(v) is tuple:
        new = tuple(_map_value(i, fn) for i in v)
        return v if all(map(operator.is_, new, v)) else new
    return v


def map_children(node, fn):
    """``node`` with each of its ``children`` ``c`` replaced by ``fn(c)``;
    ``node`` itself when every ``fn(c)`` is ``c``."""
    old = _field_values(node)
    new = [_map_value(v, fn) for v in old]
    return node if all(map(operator.is_, new, old)) else type(node)(*new)


def chain_links(a) -> tuple:
    """``(first, links)``: the leftmost operand of ``a``'s ``And`` or
    ``Or`` chain, and the links of the chain, innermost first, so that
    the operands are ``first`` and each ``link.right`` from left to
    right.  The chain goes down the left spine while the connective is
    ``type(a)``, in a loop: written chains are long.  Anything but an
    ``And`` or ``Or`` is ``(a, [])``."""
    chain, links = type(a), []
    while type(a) is chain and chain in (And, Or):
        links.append(a)
        a = a.left
    links.reverse()
    return a, links


def same_node(a, b) -> bool:
    """``a == b`` for AST values, with an ``And``/``Or`` chain compared
    link by link."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if type(a) in (And, Or):
        (first, links), (other, others) = chain_links(a), chain_links(b)
        return (len(links) == len(others) and same_node(first, other)
                and all(same_node(x.right, y.right)
                        for x, y in zip(links, others)))
    if type(a) is tuple:
        return len(a) == len(b) and all(map(same_node, a, b))
    if type(a) in _NODES:
        return all(map(same_node, _field_values(a), _field_values(b)))
    return type(a) is Span or a == b  # spans take no part in equality


def bound_names(item: Stmt | Ret | Decl) -> tuple:
    """The names a statement binds for the rest of its block, or a
    declaration for the rest of its program."""
    match item:
        case BindRun(pattern):
            return pattern
        case BindCmd(x) | LetEq(x) | Decl(x):
            return (x,)
    return ()


# ---------------------------------------------------------------------------
# Free variables (term, ghost and heap names share one result set).  A
# binder form removes its bound names from the free names of the fields in
# their scope; any other node has the free names of its children.


def free_vars(node) -> set:
    if type(node) in _FIELDLESS:
        return set()
    match node:
        case Var(name) | GhostRef(name) | HVar(name) | ARef(name):
            return {name}
        case PiT(x, ty, body) | ExistsVar(x, ty, body) \
                | ForallVar(x, ty, body):
            return free_vars(ty) | (free_vars(body) - {x})
        case Lam(x, body) | ExistsHeap(x, body) | ForallHeap(x, body):
            return free_vars(body) - {x}
        case HoareT(vctx, hctx, pre, binder, result, post):
            bound = {x for x, _ in vctx} | set(hctx)
            out = set().union(*(free_vars(a) for _, a in vctx))
            out |= (free_vars(pre) | free_vars(result)) - bound
            return out | (free_vars(post) - bound - set(binder))
        case Seq() | Program():
            # each item binds names for the items after it
            out, bound = set(), set()
            for item in children(node):
                out |= free_vars(item) - bound
                bound.update(bound_names(item))
            return out
        case And() | Or():
            first, links = chain_links(node)
            out = free_vars(first)
            for link in links:
                out |= free_vars(link.right)
            return out
    out = set()
    for c in children(node):
        out |= free_vars(c)
    return out


# ---------------------------------------------------------------------------
# Capture-avoiding substitution of terms/states/heaps for names.  A binder
# of ``PiT``, ``Lam`` or a quantifier, and a ghost, heap name or result
# binder of ``HoareT``, is renamed to a fresh ``%rN`` when a replacement
# would capture it; ``Seq`` and ``Program`` only stop substituting for the
# names they bind.  ``Pair``, ``Upd``, ``PointsTo``, ``Lookup`` and
# ``MemberOf`` coerce what is substituted into each field to the field's
# sort, and the type index of ``IdAt`` is left alone.


_fresh_names = itertools.count(1)


def restart_fresh_names() -> None:
    """Draw ``%rN`` names from ``%r1`` again, so that what a command prints
    does not depend on the commands run before it in the process."""
    global _fresh_names
    _fresh_names = itertools.count(1)


def binder_var(node):
    """The leaf class of the names that binder form ``node`` binds."""
    return HVar if isinstance(node, (ExistsHeap, ForallHeap)) else Var


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


def _drop(mapping: dict, names) -> dict:
    return {k: v for k, v in mapping.items() if k not in names}


def _captured(mapping: dict) -> set:
    """The names that the replacements in ``mapping`` would capture."""
    return set().union(*map(free_vars, mapping.values()))


def _rename_captured(names: tuple, caught: set, leaf) -> tuple:
    """``names`` with each one in ``caught`` renamed to a fresh ``%rN``,
    and that renaming as a map from old names to ``leaf`` nodes."""
    if caught.isdisjoint(names):
        return names, {}
    renaming = {x: leaf(f"%r{next(_fresh_names)}") for x in names if x in caught}
    return (tuple(renaming[x].name if x in renaming else x for x in names),
            renaming)


def _subst_under(node, x, body, mapping: dict) -> tuple:
    """``x`` and ``body`` of binder form ``node`` after substituting
    ``mapping`` under ``x``, which is renamed if a replacement would
    capture it."""
    m = _drop(mapping, {x})
    (x,), r = _rename_captured((x,), _captured(m), binder_var(node))
    return x, subst(body, m | r)


def subst(node, mapping: dict):
    """Substitute ``mapping`` (name -> term/state/heap) throughout ``node``."""
    if not mapping or type(node) in _FIELDLESS:
        return node
    match node:
        case Var(name):
            return mapping.get(name, node)
        case GhostRef(name):
            return _as_state(mapping.get(name, node))
        case HVar(name):
            v = mapping.get(name)
            return v if isinstance(v, (HVar, HEmpty, Upd)) else node
        case Emb(elim):
            inner = subst(elim, mapping)
            return Emb(inner) if isinstance(inner, (Var, App, Ascribe)) \
                else inner
        case PiT(x, ty, body) | ExistsVar(x, ty, body) \
                | ForallVar(x, ty, body):
            ty = subst(ty, mapping)
            x, body = _subst_under(node, x, body, mapping)
            return type(node)(x, ty, body)
        case Lam(x, body) | ExistsHeap(x, body) | ForallHeap(x, body):
            return type(node)(*_subst_under(node, x, body, mapping))
        case HoareT(vctx, hctx, pre, binder, result, post):
            # ghosts and heap names scope over pre, result and post; the
            # result binder over post only
            m = _drop(mapping, {x for x, _ in vctx} | set(hctx))
            if not m:
                return node
            mp = _drop(m, binder)
            caught = _captured(m)
            ghosts, r = _rename_captured(tuple(x for x, _ in vctx), caught,
                                         Var)
            hctx, rh = _rename_captured(hctx, caught, HVar)
            binder, rb = _rename_captured(
                binder, caught if len(mp) == len(m) else _captured(mp), Var)
            r |= rh
            vctx = tuple((g, subst(a, mapping))
                         for g, (_, a) in zip(ghosts, vctx))
            return HoareT(vctx, hctx, subst(pre, m | r), binder,
                          subst(result, m | r), subst(post, mp | r | rb))
        case Seq() | Program():
            # each item binds names for the items after it
            def item(c):
                nonlocal mapping
                out = subst(c, mapping)
                mapping = _drop(mapping, bound_names(c))
                return out
            return map_children(node, item)
        case IdAt(ty, l, r):
            return IdAt(ty, subst(l, mapping), subst(r, mapping))
        case Pair(a, b):
            return Pair(_as_intro(subst(a, mapping)),
                        _as_intro(subst(b, mapping)))
        case Upd(base, loc, value):
            return Upd(subst(base, mapping), _as_intro(subst(loc, mapping)),
                       _as_state(subst(value, mapping)))
        case PointsTo(loc, state) | Lookup(loc, state):
            return type(node)(_as_intro(subst(loc, mapping)),
                              _as_state(subst(state, mapping)))
        case MemberOf(term, cands):
            return MemberOf(subst(term, mapping),
                            tuple(_as_state(subst(c, mapping)) for c in cands))
        case And() | Or():
            # each link kept when nothing in it changes
            first, links = chain_links(node)
            out = subst(first, mapping)
            for link in links:
                right = subst(link.right, mapping)
                if out is not link.left or right is not link.right:
                    link = type(link)(out, right)
                out = link
            return out
    return map_children(node, lambda c: subst(c, mapping))


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


def strip_coercions(m):
    """``m`` without its ``Emb`` wrappers and ascriptions."""
    while isinstance(m, (Emb, Ascribe)):
        m = m.elim if isinstance(m, Emb) else m.term
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
            target = strip_emb(rf)
            if isinstance(target, Lam):
                return normal_form(subst(target.body,
                                         {target.binder: strip_emb(ra)}))
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


def kleene_eval(a: "Assn", atom):
    """Kleene's strong three-valued truth of ``a``.  The connectives are
    read here, and ``t \\in {c, ...}`` as the ``Or`` of ``Id(t, c)``;
    ``atom(b)`` gives the truth of every other subformula ``b``."""
    match a:
        case And() | Or():
            op = kleene_and if type(a) is And else kleene_or
            first, links = chain_links(a)
            out = kleene_eval(first, atom)
            for link in links:
                out = op(out, kleene_eval(link.right, atom))
            return out
        case Implies(l, r):
            return kleene_or(kleene_not(kleene_eval(l, atom)),
                             kleene_eval(r, atom))
        case Not(b):
            return kleene_not(kleene_eval(b, atom))
        case Top():
            return True
        case Bot():
            return False
        case MemberOf(t, cands):
            out = False
            for c in cands:
                out = kleene_or(out, atom(IdAt(None, t, c)))
            return out
    return atom(a)


def conjuncts(a: "Assn") -> list:
    """The conjuncts of ``a`` from left to right, nested ``And`` flattened."""
    out, todo = [], [a]
    while todo:
        a = todo.pop()
        if isinstance(a, And):
            todo += (a.right, a.left)
        else:
            out.append(a)
    return out
