"""Seeded structured generators over the surface grammar, for round-trip
and property tests."""

import random
import re

from qhoare.core import (
    And, App, ARef, Ascribe, BindCmd, BindRun, BoolLit, BoolT, Bot,
    CellGroup, Compose, Decl, Do, Emb, Emp, Entangled, ExistsHeap,
    ExistsVar, ForallHeap, ForallVar, GhostRef, HeapId, HEmpty, HoareT,
    HVar, IdAt, IfCmd, IfTerm, Implies, InDom, Ket, KetVec, Lam, LetEq,
    Lookup, MatrixLit, MatrixT, MeasQbit, MkQbit, MemberOf, Not, Or, Pair,
    PiT, PointsTo, Program, PureT, QbitT, Replace, Ret, Seq, TensorT, Top,
    UnitT, UnitVal, Upd, UT, Var, WildcardState, ApplyU,
)
from qhoare.parser import tokenize

NAMES = ["x", "y", "z", "f", "g", "qa", "qb", "a", "b", "c", "m1", "w"]
HNAMES = ["h", "h1", "g0"]
AREFS = ["P0", "P1", "P2", "Q0"]
KETS = ["0", "1", "+", "-"]


class Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, xs):
        return self.rng.choice(xs)

    def name(self):
        return self.pick(NAMES)

    # --- types

    def type_(self, depth=2):
        if depth <= 0:
            return self.pick([UnitT(), BoolT(), QbitT(), UT(), PureT()])
        k = self.rng.randrange(8)
        if k < 4:
            return self.type_(0)
        if k == 4:
            return TensorT(self.type_(depth - 1), self.type_(depth - 1))
        if k == 5:
            return PiT(self.name(), self.type_(depth - 1),
                       self.type_(depth - 1))
        return self.hoare(depth - 1)

    def hoare(self, depth=1):
        vctx = []
        if self.rng.random() < 0.4:
            vctx.append((self.pick(["gx", "gy"]), PureT()))
        hctx = tuple(self.pick([[], ["h"]])) if self.rng.random() < 0.3 \
            else ()
        binder = (self.name(),) if self.rng.random() < 0.7 else ("a", "b")
        return HoareT(tuple(vctx), tuple(hctx), self.assertion(depth),
                      binder, self.type_(0), self.assertion(depth))

    # --- state expressions

    def state(self):
        k = self.rng.randrange(6)
        if k < 3:
            return Ket(self.pick(KETS))
        if k == 3:
            return Ket("phi+")
        if k == 4:
            return GhostRef(self.name())
        return WildcardState()

    def loc(self, pair_ok=True):
        if pair_ok and self.rng.random() < 0.25:
            return Pair(Emb(Var(self.name())), Emb(Var(self.name())))
        return Emb(Var(self.name()))

    # --- heap expressions

    def heap_expr(self, depth=1):
        if depth <= 0 or self.rng.random() < 0.4:
            return self.pick([HEmpty(), HVar(self.pick(HNAMES))])
        return Upd(self.heap_expr(depth - 1), self.loc(pair_ok=False),
                   self.state())

    # --- assertions

    def atom(self):
        k = self.rng.randrange(10)
        if k == 0:
            return Top()
        if k == 1:
            return Bot()
        if k == 2:
            return Emp()
        if k == 3:
            return IdAt(None, self.operand(), self.operand())
        if k == 4:
            return PointsTo(self.loc(), self.state())
        if k == 5:
            return Lookup(self.loc(pair_ok=False), self.state())
        if k == 6:
            return MemberOf(Emb(Var(self.name())),
                            tuple(Ket(self.pick(KETS))
                                  for _ in range(self.rng.randrange(1, 3))))
        if k == 7:
            return HeapId(self.heap_expr(), self.heap_expr())
        if k == 8:
            return InDom(self.heap_expr(), Emb(Var(self.name())))
        return Entangled(Emb(Var(self.name())))

    def operand(self):
        k = self.rng.randrange(5)
        if k == 0:
            return BoolLit(self.rng.random() < 0.5)
        if k == 1:
            return Ket(self.pick(KETS))
        if k == 2:
            return WildcardState()
        return Emb(Var(self.name()))

    def delta_side(self):
        k = self.rng.randrange(4)
        if k == 0:
            return Emp()
        if k == 3:
            return CellGroup(tuple(
                PointsTo(self.loc(), self.state())
                for _ in range(self.rng.randrange(2, 4))))
        return PointsTo(self.loc(), self.state())

    def assertion(self, depth=3):
        if depth <= 0:
            return self.atom()
        k = self.rng.randrange(12)
        if k == 0:
            return And(self.assertion(depth - 1), self.assertion(depth - 1))
        if k == 1:
            return Or(self.assertion(depth - 1), self.assertion(depth - 1))
        if k == 2:
            return Implies(self.assertion(depth - 1),
                           self.assertion(depth - 1))
        if k == 3:
            return Not(self.assertion(depth - 1))
        if k == 4:
            return ExistsVar(self.name(), self.type_(0),
                             self.assertion(depth - 1))
        if k == 5:
            return ForallVar(self.name(), self.type_(0),
                             self.assertion(depth - 1))
        if k == 6:
            return self.pick([ExistsHeap, ForallHeap])(
                self.pick(HNAMES), self.assertion(depth - 1))
        if k == 7:
            return Compose(self.assertion(depth - 1),
                           self.pick([self.delta_side(),
                                      Replace(self.delta_side(),
                                              self.delta_side())]))
        if k == 8:
            return Replace(self.delta_side(), self.delta_side())
        if k == 9:
            return ARef(self.pick(AREFS))
        return self.atom()

    # --- terms

    def matrix(self):
        def entry():
            re = self.pick([0.0, 1.0, -1.0, 0.5, 0.70710678])
            im = self.pick([0.0, 0.0, 1.0, -0.5])
            return complex(re, im)
        return MatrixLit(((entry(), entry()), (entry(), entry())))

    def term(self, depth=2):
        if depth <= 0:
            return self.pick([
                UnitVal(), BoolLit(True), BoolLit(False),
                Emb(Var(self.name())), Ket(self.pick(KETS)),
            ])
        k = self.rng.randrange(10)
        if k == 0:
            return Lam(self.name(), self.term(depth - 1))
        if k == 1:
            return Pair(self.term(depth - 1), self.term(depth - 1))
        if k == 2:
            return Emb(App(Var(self.name()), self.term(depth - 1)))
        if k == 3:
            return Ascribe(self.term(depth - 1), self.type_(1))
        if k == 4:
            return IfTerm(self.term(0), self.term(depth - 1),
                          self.term(depth - 1))
        if k == 5:
            return Do(self.comp(depth - 1))
        if k == 6:
            return self.matrix()
        return self.term(0)

    # --- computations

    def command(self, depth=1):
        k = self.rng.randrange(4)
        if k == 0:
            return MkQbit(self.term(0))
        if k == 1:
            return MeasQbit(Emb(Var(self.name())))
        if k == 2:
            return ApplyU(Emb(App(Var("H"), Emb(Var(self.name())))))
        return IfCmd(self.term(0), self.term(max(0, depth - 1)),
                     self.term(max(0, depth - 1)))

    def comp(self, depth=2):
        stmts = []
        while depth > 0:
            k = self.rng.randrange(4)
            depth -= 1
            if k == 0:
                return Seq(tuple(stmts), Ret(self.term(depth)))
            if k == 1:
                stmts.append(BindCmd(self.name(), self.command(depth)))
            elif k == 2:
                pat = (self.name(),) if self.rng.random() < 0.7 \
                    else ("a", "b")
                stmts.append(BindRun(pat, Var(self.name())))
            else:
                stmts.append(LetEq(self.name(), self.type_(0),
                                   self.term(depth)))
        return Seq(tuple(stmts), Ret(self.term(0)))

    # --- programs

    def decl(self, name: str):
        return Decl(name, self.type_(2), self.term(2))

    def program(self, n=None):
        n = n if n is not None else self.rng.randrange(1, 4)
        return Program(tuple(self.decl(f"d{i}") for i in range(n)))


def straight_line_source(n: int) -> str:
    """A declaration whose body is one straight-line ``do`` block: allocate
    a qubit, apply ``n`` Hadamards to it and measure it."""
    body = ["q <= mkQbit false"] + ["applyU (H q)"] * n + ["measQbit q"]
    return ("deep : {emp} r : Bool {T}\n    = do "
            + ";\n         ".join(body) + "\n")


GATE_BLOCK_GATES = [
    "H {q}", "X {q}", "Z {q}",
    "rot {q} ((0, 1), (1, 0))", "rot {q} ((1, 0), (0, -1))",
    "ifQ {q} (X {r})", "ifQ {q} (Z {r})",
]


def gate_block_source(n: int, seed: int = 0) -> str:
    """A declaration whose body allocates three qubits, applies ``n`` gates
    drawn by a seeded generator from a handful of ``H``/``X``/``Z``/``rot``
    and ``ifQ`` gates, and measures the three qubits."""
    rng = random.Random(seed)
    qubits = ["a", "b", "c"]
    body = ["a <= mkQbit false", "b <= mkQbit true", "c <= mkQbit false"]
    for _ in range(n):
        q, r = rng.sample(qubits, 2)
        body.append("applyU (" + rng.choice(GATE_BLOCK_GATES).format(q=q, r=r)
                    + ")")
    body += ["x <= measQbit a", "y <= measQbit b", "z <= measQbit c",
             "return (x, (y, z))"]
    return ("gates : {emp} r : (Bool, (Bool, Bool)) {T}\n    = do "
            + ";\n         ".join(body) + "\n")


def measure_block_source(n: int) -> str:
    """A declaration whose body is a straight-line ``do`` block of ``n``
    statements (``n`` even) that alternately allocate a qubit ``q`` and
    measure it into ``b0``, ``b1``, ..., then return the last outcome."""
    body = []
    for k in range(n // 2):
        body += ["q <= mkQbit false", f"b{k} <= measQbit q"]
    body.append(f"return b{n // 2 - 1}")
    return ("meas : {emp} r : Bool {emp}\n    = do "
            + ";\n         ".join(body) + "\n")


def coin_block_source(n: int) -> str:
    """A declaration whose body allocates ``n`` qubits, applies a Hadamard
    to each and only then measures them all, returning the ``n`` outcomes
    as a right-nested tuple: ``2 ** n`` equally likely outcome paths that
    share one gate prefix."""
    body = [f"q{k} <= mkQbit false" for k in range(n)]
    body += [f"applyU (H q{k})" for k in range(n)]
    body += [f"m{k} <= measQbit q{k}" for k in range(n)]
    value, ty = f"m{n - 1}", "Bool"
    for k in range(n - 2, -1, -1):
        value, ty = f"(m{k}, {value})", f"(Bool, {ty})"
    body.append(f"return {value}")
    return (f"coins : {{emp}} r : {ty} {{emp}}\n    = do "
            + ";\n         ".join(body) + "\n")


def long_postcondition_source(n: int) -> str:
    """A declaration whose written postcondition is ``T /\\ ... /\\ T``, a
    left-nested chain of ``n`` conjuncts, over a block that allocates a
    qubit and measures it."""
    post = " /\\ ".join(["T"] * n)
    return (f"long : {{emp}} r : Bool {{{post}}}\n"
            "    = do q <= mkQbit false;\n"
            "         measQbit q\n")


def long_precondition_source(n: int, connective) -> str:
    """A declaration ``longd`` whose written precondition is a left-nested
    chain of ``n`` operands, ``T /\\ ... /\\ T`` for ``And`` and
    ``emp \\/ ... \\/ emp`` for ``Or``, over the block of
    :func:`long_postcondition_source`."""
    sep, atom = (" /\\ ", "T") if connective is And else (" \\/ ", "emp")
    pre = sep.join([atom] * n)
    return (f"longd : {{{pre}}} r : Bool {{T}}\n"
            "    = do q <= mkQbit false;\n"
            "         measQbit q\n")


def ascribing_caller_source(n: int) -> str:
    """A declaration ``ascribed`` that calls ``long`` of
    :func:`long_postcondition_source` through an ascription of its type,
    the chain of ``n`` conjuncts written again."""
    post = " /\\ ".join(["T"] * n)
    return (f"ascribed : {{emp}} r : Bool {{T}}\n"
            f"    = do x <- (long : {{emp}} r : Bool {{{post}}}); return x\n")


def ghz_source(n: int) -> str:
    """GHZ-n: qubit k is entangled through a control at (k - 1) // 2, so
    most controls sit in the middle of the merged cell."""
    qs = [f"q{k}" for k in range(n)]
    body = [f"{qs[0]} <= mkQbit false", f"applyU (H {qs[0]})"]
    for k in range(1, n):
        body += [f"{qs[k]} <= mkQbit false",
                 f"applyU (ifQ {qs[(k - 1) // 2]} (X {qs[k]}))"]
    body += [f"m{k} <= measQbit {q}" for k, q in enumerate(qs)]

    def nest(items):
        if len(items) == 1:
            return items[0]
        return f"({items[0]}, {nest(items[1:])})"

    body.append(f"return (m0, {nest([f'm{k}' for k in range(1, n)])})")
    head = (f"ghz : {{emp}} (a, r) : (Bool, {nest(['Bool'] * (n - 1))}) "
            f"{{emp /\\ Id(r, {nest(['a'] * (n - 1))})}}\n")
    return head + "    = do " + ";\n         ".join(body) + "\n"


def token_layout(source: str) -> tuple:
    """The tokens of ``source`` and the text around them: ``seps[i]``
    precedes ``tokens[i]``, and ``seps[-1]`` follows the last token."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    seps, tokens, pos = [], [], 0
    for _, text, line, col in tokenize(source, [], "<fuzz>")[:-1]:
        at = line_starts[line - 1] + col - 1  # the EOF token is dropped
        seps.append(source[pos:at])
        tokens.append(text)
        pos = at + len(text)
    seps.append(source[pos:])
    return seps, tokens


def token_mutants(sources: list, seed: int, n: int):
    """``n`` mutants of ``sources``, each with 1-3 tokens deleted,
    duplicated, swapped or replaced by a token of any of them; the
    whitespace between tokens is kept."""
    rng = random.Random(seed)
    layouts = [token_layout(s) for s in sources]
    pool = sorted({t for _, tokens in layouts for t in tokens})
    for _ in range(n):
        seps, tokens = rng.choice(layouts)
        tokens = list(tokens)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(tokens))
            op = rng.randrange(4)
            if op == 0:
                tokens[i] = ""
            elif op == 1:
                tokens[i] = f"{tokens[i]} {tokens[i]}"
            elif op == 2:
                j = rng.randrange(len(tokens))
                tokens[i], tokens[j] = tokens[j], tokens[i]
            else:
                tokens[i] = rng.choice(pool)
        yield "".join(map("".join, zip(seps, tokens))) + seps[-1]
