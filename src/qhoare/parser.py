"""Parser for ``.qh`` sources.

A one-pass lexer (one master pattern, each match skipping the whitespace
before its token; a token is a tuple whose ``Span`` is built on demand) and
a recursive-descent parser with limited backtracking.
Comments run from ``--`` to end of line.  Layout is insignificant except for
one rule that keeps the grammar deterministic: a bare command at the end of
a ``do`` block terminates it, so a command used as a statement must carry an
explicit ``;``.  The statements of a ``do`` block are read in a loop into
one flat ``Seq``, so a block of any length parses without deep recursion.

Desugarings applied while parsing:

* a trailing bare command ``c`` becomes ``%s <= c; return %s``;
* a trailing pair with command components becomes one bind per component,
  left to right, then ``return`` of the pair of fresh names;
* a command in an ``if`` branch becomes a suspended ``do`` block;
* ``\\Pi x y : A.`` binds each name separately.

Parsing is a pure function of the input text and is re-entrant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import (
    And, App, ApplyU, ARef, Ascribe, BindCmd, BindRun, BoolLit, Bot, BoolT,
    CellGroup, Compose, Decl, Do, Emb, Emp, Entangled, ExistsHeap, ExistsVar,
    ForallHeap, ForallVar, GhostRef, HeapId, HEmpty, HoareT, HVar, IdAt,
    IfCmd, IfTerm, Implies, InDom, Ket, KetVec, Lam, LetEq, Lookup,
    MatrixLit, MatrixT, MeasQbit, MemberOf, MkQbit, NameSupply, Not, Or,
    Pair, PiT, PointsTo, Program, PureT, QbitT, Replace, Ret, Seq, Span,
    TensorT, Top, UnitT, UnitVal, Upd, UT, Var, WildcardState,
)

COMMAND_KEYWORDS = ("mkQbit", "measQbit", "applyU")
RESERVED = {
    "do", "return", "if", "then", "else", "true", "false",
    "mkQbit", "measQbit", "applyU", "emp", "empty", "upd",
    "exists", "forall", "Bool", "Qbit", "U", "Pure", "Matrix",
}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: Span
    file: str = "<input>"

    def render(self) -> str:
        return (f"{self.file}:{self.span.line}:{self.span.col}: "
                f"{self.severity}: {self.message}")


@dataclass
class ParseResult:
    program: Optional[Program]
    diagnostics: list

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# Lexer

# The alternation ends with a one-character ``BAD`` token and the empty
# ``EOF``, so the matches of ``_MASTER`` cover the whole source.  The first
# five kinds share no first character with any other; the order of the rest
# decides between tokens sharing a prefix.
_TOKEN_SPEC = [
    ("NAME", r"[A-Za-z_%][A-Za-z0-9_'%]*"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("SEMI", r";"),
    ("NUMBER", r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"),
    ("COMMENT", r"--[^\n]*"),
    ("KET", r"\|\\Phi\+\\>|\|0\\>|\|1\\>|\|\+\\>|\|-\\>"),
    ("KVEC", r"\|vec\("),
    ("KETCLOSE", r"\\>"),
    ("PTO", r"\|->"),
    ("LKP", r"~>"),
    ("BINDC", r"<="),
    ("BINDR", r"<-"),
    ("IMPL", r"=>"),
    ("ARROW", r"->"),
    ("CONJ", r"/\\"),
    ("DISJ", r"\\/"),
    ("IN", r"\\in(?![A-Za-z0-9_'])"),
    ("COMPOSE", r"\\o(?![A-Za-z0-9_'])"),
    ("PI", r"\\Pi(?![A-Za-z0-9_'])"),
    ("DIFF", r"-o(?![A-Za-z0-9_'])"),
    ("LAMBDA", r"\\"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("COLON", r":"),
    ("EQ", r"="),
    ("TILDE", r"~"),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("BAD", r"."),
    ("EOF", r"\Z"),
]

_MASTER = re.compile(r"[ \t\r\n]*(?:"
                     + "|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC) + ")")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, len(self.text))


def tokenize(source: str, diags: list, filename: str) -> list:
    tokens = []
    line, line_start, end = 1, 0, 0
    for m in _MASTER.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        # only the skipped whitespace before a token holds newlines
        if source.find("\n", end, start) >= 0:
            line += source.count("\n", end, start)
            line_start = source.rfind("\n", end, start) + 1
        end = m.end()
        if kind == "COMMENT":
            continue
        # tuple.__new__ skips the Python-level __new__ of a NamedTuple
        tok = tuple.__new__(Token, (kind, source[start:end], line,
                                    start - line_start + 1))
        if kind == "BAD":
            diags.append(Diagnostic(
                "error", f"unexpected character {tok.text!r}", tok.span,
                filename))
            continue
        tokens.append(tok)
        if kind == "EOF":
            return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list, filename: str):
        # EOFs to serve `peek` up to `peek(5)`, its furthest look-ahead
        self.tokens = tokens + tokens[-1:] * 5
        self.pos = 0
        self.filename = filename
        self.supply = NameSupply()

    # --- token plumbing

    def peek(self, k: int = 0) -> Token:
        return self.tokens[self.pos + k]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.tokens[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def at_name(self, text: str) -> bool:
        return self.at("NAME", text)

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        if self.at(kind):
            return self.advance()
        t = self.peek()
        got = t.text or "end of input"
        raise ParseError(f"expected {what}, found {got!r}", t.span)

    def save(self) -> int:
        return self.pos

    def restore(self, mark: int) -> None:
        self.pos = mark

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    def too_deep(self) -> Diagnostic:
        # where the parser stood when the recursion limit was hit
        return Diagnostic("error", "input nested too deeply",
                          self.peek().span, self.filename)

    # --- program and declarations

    def parse_program(self, diags: list) -> Program:
        decls = []
        seen = {}
        while not self.at("EOF"):
            start = self.pos
            try:
                d = self.parse_decl()
                if d.name in seen:
                    diags.append(Diagnostic(
                        "error", f"duplicate declaration {d.name!r}",
                        d.span, self.filename))
                else:
                    seen[d.name] = d
                    decls.append(d)
            except ParseError as e:
                diags.append(Diagnostic("error", e.message, e.span,
                                        self.filename))
                self.recover_to_decl(start)
        return Program(tuple(decls))

    def recover_to_decl(self, start: int) -> None:
        # Rescan from just past the failed declaration's head for something
        # that looks like a new declaration: a column-1 name followed by a
        # colon.  The column heuristic keeps Hoare-type binders and let
        # bindings inside the broken declaration from being picked up.
        self.pos = start + 1
        while not self.at("EOF"):
            t = self.peek()
            if t.kind == "NAME" and t.col == 1 \
                    and self.peek(1).kind == "COLON":
                return
            self.advance()

    def parse_decl(self) -> Decl:
        name_tok = self.expect("NAME", "a declaration name")
        self.expect("COLON", "':' after declaration name")
        sig = self.parse_type()
        self.expect("EQ", "'=' introducing the declaration body")
        body = self.parse_term()
        return Decl(name_tok.text, sig, body, span=name_tok.span)

    # --- types

    def parse_type(self):
        t = self.peek()
        if t.kind == "PI":
            self.advance()
            binders = [self.expect("NAME", "a binder name").text]
            while self.at("NAME"):  # `\Pi x y : A.` binds each name
                binders.append(self.advance().text)
            self.expect("COLON", "':' in dependent function type")
            dom = self.parse_type()
            self.expect("DOT", "'.' closing the dependent binder")
            cod = self.parse_type()
            for b in reversed(binders):
                cod = PiT(b, dom, cod)
            return cod
        if t.kind == "LBRACE":
            return self.parse_hoare([], [])
        if t.kind == "NAME" and self.peek(1).kind == "COLON":
            return self.parse_hoare_ctx()
        return self.parse_type_atom()

    def parse_type_atom(self):
        t = self.peek()
        if t.kind == "NUMBER" and t.text == "1":
            self.advance()
            return UnitT()
        if t.kind == "NAME":
            base = {"Bool": BoolT(), "Qbit": QbitT(), "U": UT(),
                    "Pure": PureT(), "Matrix": MatrixT()}.get(t.text)
            if base is not None:
                self.advance()
                return base
            raise self.fail(f"unknown type {t.text!r}")
        if t.kind == "LPAREN":
            self.advance()
            first = self.parse_type()
            if self.at("COMMA"):
                self.advance()
                second = self.parse_type()
                self.expect("RPAREN", "')' closing pair type")
                return TensorT(first, second)
            self.expect("RPAREN", "')' closing type")
            return first
        if t.kind in ("PI", "LBRACE"):
            return self.parse_type()
        raise self.fail(f"expected a type, found {t.text or 'end of input'!r}")

    def parse_hoare_ctx(self):
        var_ctx, heap_ctx = [], []
        while self.at("NAME") and self.peek(1).kind == "COLON":
            name = self.advance().text
            self.advance()  # colon
            if self.at_name("heap"):
                self.advance()
                heap_ctx.append(name)
            else:
                var_ctx.append((name, self.parse_type_atom()))
            self.expect("DOT", "'.' after context entry")
        return self.parse_hoare(var_ctx, heap_ctx)

    def parse_hoare(self, var_ctx: list, heap_ctx: list):
        self.expect("LBRACE", "'{' opening a precondition")
        pre = self.parse_assertion()
        self.expect("RBRACE", "'}' closing the precondition")
        binder = self.parse_pattern()
        self.expect("COLON", "':' before the result type")
        result = self.parse_type_atom()
        self.expect("LBRACE", "'{' opening a postcondition")
        post = self.parse_assertion()
        self.expect("RBRACE", "'}' closing the postcondition")
        return HoareT(tuple(var_ctx), tuple(heap_ctx), pre, binder,
                      result, post)

    def parse_pattern(self):
        if self.at("LPAREN"):
            self.advance()
            a = self.expect("NAME", "a binder name").text
            self.expect("COMMA", "',' in binder pattern")
            b = self.expect("NAME", "a binder name").text
            self.expect("RPAREN", "')' closing binder pattern")
            return (a, b)
        return (self.expect("NAME", "a binder name").text,)

    # --- terms

    def parse_term(self):
        t = self.peek()
        if t.kind == "LAMBDA":
            self.advance()
            x = self.expect("NAME", "a lambda binder")
            self.expect("DOT", "'.' after lambda binder")
            return Lam(x.text, self.parse_term())
        if t.kind == "NAME" and t.text == "do":
            self.advance()
            return Do(self.parse_comp())
        if t.kind == "NAME" and t.text == "if":
            self.advance()
            scrut = self.parse_app()
            self.expect_kw("then")
            tb = self.parse_branch_term()
            self.expect_kw("else")
            eb = self.parse_branch_term()
            return IfTerm(scrut, tb, eb)
        return self.parse_app()

    def expect_kw(self, kw: str) -> None:
        if not self.at_name(kw):
            raise self.fail(f"expected {kw!r}")
        self.advance()

    def parse_branch_term(self):
        # A bare command in branch position runs when the branch is taken.
        if self.at("NAME") and self.peek().text in COMMAND_KEYWORDS:
            cmd = self.parse_command()
            x = self.supply.fresh("s")
            return Do(Seq((BindCmd(x, cmd),), Ret(Emb(Var(x)))))
        return self.parse_term()

    def parse_app(self):
        # Application arguments must start on the line where the previous
        # token ended; otherwise `return q` would swallow the name of the
        # following declaration.
        head = self.parse_atom()
        while self.term_atom_start() and \
                self.peek().line == self.tokens[self.pos - 1].line:
            arg = self.parse_atom()
            head_elim = self.as_elim(head)
            head = Emb(App(head_elim, arg))
        return head

    def as_elim(self, m):
        if isinstance(m, Emb):
            return m.elim
        if isinstance(m, (Var, App, Ascribe)):
            return m
        raise self.fail("only a variable, application or ascription may be applied")

    def term_atom_start(self) -> bool:
        t = self.peek()
        if t.kind in ("LPAREN", "KET", "KVEC", "MINUS"):
            return True
        if t.kind == "NAME":
            return t.text not in RESERVED or t.text in ("true", "false")
        return False

    def parse_atom(self):
        t = self.peek()
        if t.kind == "KET":
            self.advance()
            kind = {"|0\\>": "0", "|1\\>": "1", "|+\\>": "+",
                    "|-\\>": "-", "|\\Phi+\\>": "phi+"}[t.text]
            return Ket(kind)
        if t.kind == "KVEC":
            self.advance()
            amps = [self.parse_complex()]
            while self.at("COMMA"):
                self.advance()
                amps.append(self.parse_complex())
            self.expect("RPAREN", "')' in amplitude vector")
            self.expect("KETCLOSE", "'\\>' closing amplitude vector")
            return KetVec(tuple(amps))
        if t.kind == "MINUS":
            self.advance()
            return WildcardState()
        if t.kind == "NAME":
            if t.text == "true":
                self.advance()
                return BoolLit(True)
            if t.text == "false":
                self.advance()
                return BoolLit(False)
            if t.text in RESERVED and t.text not in ("true", "false"):
                raise self.fail(f"keyword {t.text!r} cannot appear here")
            self.advance()
            return Emb(Var(t.text))
        if t.kind == "LPAREN":
            return self.parse_parenthesized_term()
        raise self.fail(f"expected a term, found {t.text or 'end of input'!r}")

    def parse_parenthesized_term(self):
        self.expect("LPAREN", "'('")
        if self.at("RPAREN"):
            self.advance()
            return UnitVal()
        if self.at("LPAREN"):  # a matrix literal opens with its first row
            mark = self.save()
            matrix = self.try_matrix()
            if matrix is not None:
                return matrix
            self.restore(mark)
        first = self.parse_term()
        if self.at("COLON"):
            self.advance()
            ty = self.parse_type()
            self.expect("RPAREN", "')' closing ascription")
            return Ascribe(first, ty)
        if self.at("COMMA"):
            self.advance()
            second = self.parse_term()
            self.expect("RPAREN", "')' closing pair")
            return Pair(first, second)
        self.expect("RPAREN", "')' closing parenthesized term")
        return first

    def try_matrix(self):
        try:
            rows = []
            for i in range(2):
                self.expect("LPAREN", "matrix row")
                a = self.parse_complex()
                self.expect("COMMA", "',' in matrix row")
                b = self.parse_complex()
                self.expect("RPAREN", "')' closing matrix row")
                rows.append((a, b))
                if i == 0:
                    self.expect("COMMA", "',' between matrix rows")
            self.expect("RPAREN", "')' closing matrix")
            return MatrixLit((rows[0], rows[1]))
        except ParseError:
            return None

    def parse_complex(self) -> complex:
        sign = 1.0
        if self.at("MINUS"):
            self.advance()
            sign = -1.0
        t = self.peek()
        if t.kind == "NUMBER":
            self.advance()
            mag = float(t.text)
            if self.at_name("i"):
                self.advance()
                value = complex(0.0, sign * mag)
            else:
                value = complex(sign * mag, 0.0)
        elif self.at_name("i"):
            self.advance()
            value = complex(0.0, sign)
        else:
            raise self.fail("expected a numeric matrix entry")
        if value.imag == 0 and (self.at("PLUS") or self.at("MINUS")):
            imsign = 1.0 if self.advance().kind == "PLUS" else -1.0
            if self.at("NUMBER"):
                mag = float(self.advance().text)
                self.expect_kw("i")
            elif self.at_name("i"):
                self.advance()
                mag = 1.0
            else:
                raise self.fail("expected imaginary part")
            value = complex(value.real, imsign * mag)
        return value

    # --- commands and computations

    def parse_command(self):
        t = self.peek()
        if t.text == "mkQbit":
            self.advance()
            return MkQbit(self.parse_app())
        if t.text == "measQbit":
            self.advance()
            return MeasQbit(self.parse_app())
        if t.text == "applyU":
            self.advance()
            return ApplyU(self.parse_app())
        if t.text == "if":
            self.advance()
            scrut = self.parse_app()
            self.expect_kw("then")
            tb = self.parse_branch_term()
            self.expect_kw("else")
            eb = self.parse_branch_term()
            return IfCmd(scrut, tb, eb)
        raise self.fail(f"expected a command, found {t.text or 'end of input'!r}")

    def at_command(self) -> bool:
        t = self.peek()
        return t.kind == "NAME" and (t.text in COMMAND_KEYWORDS or t.text == "if")

    def parse_comp(self):
        stmts = []
        while True:
            t = self.peek()
            span = t.span
            if t.kind == "EOF":
                raise ParseError("unexpected end of input inside do block",
                                 t.span)
            if self.at_name("return"):
                self.advance()
                return Seq(tuple(stmts), Ret(self.parse_term(), span=span))
            if self.at_command():
                cmd = self.parse_command()
                x = self.supply.fresh("s")
                stmts.append(BindCmd(x, cmd, span=span))
                if not self.at("SEMI"):
                    # trailing command: its value is returned
                    return Seq(tuple(stmts), Ret(Emb(Var(x)), span=span))
                self.advance()
                continue
            if self.at("LPAREN"):
                stmt = self.try_tuple_bind(span)
                if stmt is None:
                    return self.parse_terminal_pair(stmts, span)
            elif self.at("NAME") and self.peek(1).kind == "BINDC":
                x = self.advance().text
                self.advance()
                stmt = BindCmd(x, self.parse_command(), span=span)
            elif self.at("NAME") and self.peek(1).kind == "BINDR":
                x = self.advance().text
                self.advance()
                stmt = BindRun((x,), self.as_elim(self.parse_app()), span=span)
            elif self.at("NAME") and self.peek(1).kind == "COLON":
                x = self.advance().text
                self.advance()
                ann = self.parse_type()
                self.expect("EQ", "'=' in let binding")
                stmt = LetEq(x, ann, self.parse_term(), span=span)
            else:
                raise self.fail("expected a computation step")
            stmts.append(stmt)
            if self.at("SEMI"):
                self.advance()

    def try_tuple_bind(self, span: Span):
        if (self.peek(1).kind == "NAME" and self.peek(2).kind == "COMMA"
                and self.peek(3).kind == "NAME"
                and self.peek(4).kind == "RPAREN"
                and self.peek(5).kind == "BINDR"):
            self.advance()
            a = self.advance().text
            self.advance()
            b = self.advance().text
            self.advance()
            self.advance()
            return BindRun((a, b), self.as_elim(self.parse_app()), span=span)
        return None

    def parse_terminal_pair(self, stmts: list, span: Span):
        # `(measQbit qa, measQbit qb)`: command components become binds.
        self.expect("LPAREN", "'('")

        def component():
            if self.at_command():
                cmd = self.parse_command()
                x = self.supply.fresh("s")
                stmts.append(BindCmd(x, cmd, span=span))
                return Emb(Var(x))
            return self.parse_term()

        first = component()
        self.expect("COMMA", "',' in returned pair")
        second = component()
        self.expect("RPAREN", "')' closing returned pair")
        return Seq(tuple(stmts), Ret(Pair(first, second), span=span))

    # --- assertions

    def parse_assertion(self):
        return self.parse_compose()

    def parse_compose(self):
        left = self.parse_implies()
        if self.at("COMPOSE"):
            self.advance()
            right = self.parse_compose()
            return Compose(left, right)
        return left

    def parse_implies(self):
        left = self.parse_or()
        if self.at("IMPL"):
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.at("DISJ"):
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.at("CONJ"):
            self.advance()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.at("TILDE"):
            self.advance()
            return Not(self.parse_unary())
        if self.at_name("exists") or self.at_name("forall"):
            is_exists = self.advance().text == "exists"
            x = self.expect("NAME", "a quantified name").text
            self.expect("COLON", "':' in quantifier")
            if self.at_name("heap"):
                self.advance()
                self.expect("DOT", "'.' after quantifier")
                body = self.parse_implies()
                return ExistsHeap(x, body) if is_exists else ForallHeap(x, body)
            ty = self.parse_type_atom()
            self.expect("DOT", "'.' after quantifier")
            body = self.parse_implies()
            return ExistsVar(x, ty, body) if is_exists else ForallVar(x, ty, body)
        return self.parse_rel()

    def parse_rel(self):
        left = self.parse_rel_atom()
        if self.at("DIFF"):
            self.advance()
            right = self.parse_rel_atom()
            return Replace(left, right)
        return left

    def parse_rel_atom(self):
        t = self.peek()
        if t.kind == "NAME":
            if t.text == "emp":
                self.advance()
                return Emp()
            if t.text == "T" and not self.peek(1).kind == "LPAREN":
                self.advance()
                return Top()
            if t.text == "F" and not self.peek(1).kind == "LPAREN":
                self.advance()
                return Bot()
            if t.text == "Id" and self.peek(1).kind == "LPAREN":
                # names on either side stay term variables; whether one
                # denotes a ghost state is resolved during checking
                self.advance()
                self.advance()
                left = self.parse_term()
                self.expect("COMMA", "',' in Id")
                right = self.parse_term()
                self.expect("RPAREN", "')' closing Id")
                return IdAt(None, left, right)
            if t.text == "HId" and self.peek(1).kind == "LPAREN":
                self.advance()
                self.advance()
                left = self.parse_heap_expr()
                self.expect("COMMA", "',' in HId")
                right = self.parse_heap_expr()
                self.expect("RPAREN", "')' closing HId")
                return HeapId(left, right)
            if t.text == "indom" and self.peek(1).kind == "LPAREN":
                self.advance()
                self.advance()
                h = self.parse_heap_expr()
                self.expect("COMMA", "',' in indom")
                loc = self.parse_term()
                self.expect("RPAREN", "')' closing indom")
                return InDom(h, loc)
            if t.text == "entangled" and self.peek(1).kind == "LPAREN":
                self.advance()
                self.advance()
                target = self.parse_term()
                self.expect("RPAREN", "')' closing entangled")
                return Entangled(target)
        # relational atoms headed by a term
        mark = self.save()
        try:
            term = self.parse_term()
            follow = self.peek().kind
            if follow == "PTO":
                self.advance()
                return PointsTo(term, self._state_or_term(self.parse_term()))
            if follow == "LKP":
                self.advance()
                return Lookup(term, self._state_or_term(self.parse_term()))
            if follow == "IN":
                self.advance()
                self.expect("LBRACE", "'{' opening a state set")
                cands = [self._state_or_term(self.parse_term())]
                while self.at("COMMA"):
                    self.advance()
                    cands.append(self._state_or_term(self.parse_term()))
                self.expect("RBRACE", "'}' closing a state set")
                return MemberOf(term, tuple(cands))
            if isinstance(term, Emb) and isinstance(term.elim, Var):
                return ARef(term.elim.name)
        except ParseError:
            pass
        self.restore(mark)
        if self.at("LPAREN"):
            self.advance()
            first = self.parse_assertion()
            if self.at("COMMA"):
                items = [first]
                while self.at("COMMA"):
                    self.advance()
                    items.append(self.parse_assertion())
                self.expect("RPAREN", "')' closing heap fragment group")
                return CellGroup(tuple(items))
            self.expect("RPAREN", "')' closing assertion")
            return first
        raise self.fail(
            f"expected an assertion, found {self.peek().text or 'end of input'!r}")

    @staticmethod
    def _state_or_term(m):
        # Bare names in state position denote logic-level pure states.
        if isinstance(m, Emb) and isinstance(m.elim, Var):
            return GhostRef(m.elim.name)
        return m

    # --- heap expressions

    def parse_heap_expr(self):
        t = self.peek()
        if t.kind == "NAME":
            if t.text == "empty":
                self.advance()
                return HEmpty()
            if t.text == "upd" and self.peek(1).kind == "LPAREN":
                self.advance()
                self.advance()
                base = self.parse_heap_expr()
                self.expect("COMMA", "',' in upd")
                loc = self.parse_term()
                self.expect("COMMA", "',' in upd")
                value = self._state_or_term(self.parse_term())
                self.expect("RPAREN", "')' closing upd")
                return Upd(base, loc, value)
            self.advance()
            return HVar(t.text)
        raise self.fail("expected a heap expression")


# ---------------------------------------------------------------------------
# Entry points


def parse_program(source: str, filename: str = "<input>") -> ParseResult:
    """Parse a whole ``.qh`` source file.

    Always returns a :class:`ParseResult`; syntax problems are reported as
    diagnostics with spans and parsing resumes at the next declaration.
    """
    diags = []
    tokens = tokenize(source, diags, filename)
    parser = _Parser(tokens, filename)
    try:
        program = parser.parse_program(diags)
    except RecursionError:
        diags.append(parser.too_deep())
        program = None
    return ParseResult(program, diags)


def _parse_fragment(source: str, method: str, filename: str):
    diags = []
    tokens = tokenize(source, diags, filename)
    if diags:
        return ParseResult(None, diags)
    parser = _Parser(tokens, filename)
    try:
        node = getattr(parser, method)()
        if not parser.at("EOF"):
            raise parser.fail("trailing input")
    except ParseError as e:
        diags.append(Diagnostic("error", e.message, e.span, filename))
    except RecursionError:
        diags.append(parser.too_deep())
    else:
        return node
    return ParseResult(None, diags)


def parse_assertion(source: str, filename: str = "<input>"):
    """Parse a single assertion; returns the AST or a failed ParseResult."""
    return _parse_fragment(source, "parse_assertion", filename)


def parse_type(source: str, filename: str = "<input>"):
    return _parse_fragment(source, "parse_type", filename)


def parse_term(source: str, filename: str = "<input>"):
    return _parse_fragment(source, "parse_term", filename)
