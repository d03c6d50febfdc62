"""Parser for ``.qh`` sources.

A line-wise lexer (one master pattern run over each line, each match
skipping the whitespace before its token; a token is a plain ``(kind,
text, line, col)`` tuple) and a recursive-descent parser with limited
backtracking that reads the current token inline on its hot paths and
parses assertions by precedence climbing.
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

Parsing is a pure function of the input text and is re-entrant.  The
leaves of one parse are shared: every use of a name is the same
``Emb(Var(x))`` node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .core import (
    And, App, ApplyU, ARef, Ascribe, BindCmd, BindRun, BoolLit, Bot, BoolT,
    CellGroup, Compose, Decl, Do, Emb, Emp, Entangled, ExistsHeap, ExistsVar,
    ForallHeap, ForallVar, GhostRef, HeapId, HEmpty, HoareT, HVar, IdAt,
    IfCmd, IfTerm, Implies, InDom, Ket, KetVec, Lam, LetEq, Lookup,
    MatrixLit, MatrixT, MeasQbit, MemberOf, MkQbit, NameSupply, Not, Or,
    Pair, PiT, PointsTo, Program, PureT, QbitT, Replace, Ret, Seq, Span,
    TensorT, Top, UnitT, UnitVal, Upd, UT, Var, WildcardState,
)

COMMANDS = {"mkQbit": MkQbit, "measQbit": MeasQbit, "applyU": ApplyU}
RESERVED = {
    "do", "return", "if", "then", "else", "true", "false",
    "mkQbit", "measQbit", "applyU", "emp", "empty", "upd",
    "exists", "forall", "Bool", "Qbit", "U", "Pure", "Matrix",
}
# the reserved words that cannot start a term atom
_NOT_ATOMS = RESERVED - {"true", "false"}
_BASE_TYPES = {"Bool": BoolT, "Qbit": QbitT, "U": UT, "Pure": PureT,
               "Matrix": MatrixT}
_KETS = {"|0\\>": "0", "|1\\>": "1", "|+\\>": "+", "|-\\>": "-",
         "|\\Phi+\\>": "phi+"}
# binary assertion connectives: precedence, and the node they build
_CONNECTIVES = {"COMPOSE": (1, Compose), "IMPL": (2, Implies),
                "DISJ": (3, Or), "CONJ": (4, And)}


def _span(line: int, col: int, length: int) -> Span:
    # A frozen dataclass's ``__init__`` sets each field through
    # ``object.__setattr__``; filling ``__dict__`` builds the same Span at
    # a third of the cost.
    span = object.__new__(Span)
    span.__dict__.update(line=line, col=col, length=length)
    return span


def token_span(tok: tuple) -> Span:
    _, text, line, col = tok
    return _span(line, col, len(text))


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


class LiteralError(ParseError):
    """A literal that no other reading of the source could parse."""


# ---------------------------------------------------------------------------
# Lexer

# The alternation ends with a one-character ``BAD`` token, so the matches of
# ``_MASTER`` cover every line stripped of its trailing whitespace.  The
# first five kinds share no first character with any other; the order of
# the rest decides between tokens sharing a prefix.
_TOKEN_SPEC = [
    ("NAME", r"[A-Za-z_%][A-Za-z0-9_'%]*"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("SEMI", r";"),
    ("NUMBER", r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"),
    ("COMMENT", r"--.*"),
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
]

_MASTER = re.compile(r"[ \t\r]*(?:"
                     + "|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC) + ")")
_DROPPED = {"COMMENT", "BAD"}


def tokenize(source: str, diags: list, filename: str) -> list:
    """The ``(kind, text, line, col)`` tuples of ``source``, ending with an
    ``EOF`` token; each unexpected character is reported in ``diags``."""
    lines = source.split("\n")
    finditer = _MASTER.finditer
    tokens = [(kind, m.group(kind), line, m.start(kind) + 1)
              for line, text in enumerate(lines, 1)
              for m in finditer(text.rstrip(" \t\r"))
              for kind in (m.lastgroup,)]
    if not _DROPPED.isdisjoint([t[0] for t in tokens]):
        for tok in tokens:
            if tok[0] == "BAD":
                diags.append(Diagnostic(
                    "error", f"unexpected character {tok[1]!r}",
                    token_span(tok), filename))
        tokens = [t for t in tokens if t[0] not in _DROPPED]
    tokens.append(("EOF", "", len(lines), len(lines[-1]) + 1))
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
        self.leaves = {}  # name -> its one `Emb(Var(name))` or `BoolLit`

    # --- token plumbing.  The hot paths read `self.tokens[self.pos]`
    # inline and step past a token they have matched, which is never EOF,
    # with `self.pos += 1`.

    def peek(self, k: int = 0) -> tuple:
        return self.tokens[self.pos + k]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.tokens[self.pos]
        return t[0] == kind and (text is None or t[1] == text)

    def expect(self, kind: str, what: str) -> tuple:
        t = self.tokens[self.pos]
        if t[0] != kind:
            raise self.expected(what)
        self.pos += 1
        return t

    def expected(self, what: str) -> ParseError:
        return self.fail(
            f"expected {what}, found {self.tokens[self.pos][1] or 'end of input'!r}")

    def fail(self, message: str) -> ParseError:
        return ParseError(message, token_span(self.tokens[self.pos]))

    def too_deep(self) -> Diagnostic:
        # where the parser stood when the recursion limit was hit
        return Diagnostic("error", "input nested too deeply",
                          token_span(self.tokens[self.pos]), self.filename)

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
            if t[0] == "NAME" and t[3] == 1 and self.peek(1)[0] == "COLON":
                return
            self.pos += 1

    def parse_decl(self) -> Decl:
        name_tok = self.expect("NAME", "a declaration name")
        self.expect("COLON", "':' after declaration name")
        sig = self.parse_type()
        self.expect("EQ", "'=' introducing the declaration body")
        body = self.parse_term()
        return Decl(name_tok[1], sig, body, span=token_span(name_tok))

    # --- types

    def parse_type(self):
        kind = self.tokens[self.pos][0]
        if kind == "PI":
            self.pos += 1
            binders = [self.expect("NAME", "a binder name")[1]]
            while self.at("NAME"):  # `\Pi x y : A.` binds each name
                binders.append(self.tokens[self.pos][1])
                self.pos += 1
            self.expect("COLON", "':' in dependent function type")
            dom = self.parse_type()
            self.expect("DOT", "'.' closing the dependent binder")
            cod = self.parse_type()
            for b in reversed(binders):
                cod = PiT(b, dom, cod)
            return cod
        if kind == "LBRACE":
            return self.parse_hoare([], [])
        if kind == "NAME" and self.peek(1)[0] == "COLON":
            return self.parse_hoare_ctx()
        return self.parse_type_atom()

    def parse_type_atom(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "NUMBER" and text == "1":
            self.pos += 1
            return UnitT()
        if kind == "NAME":
            base = _BASE_TYPES.get(text)
            if base is not None:
                self.pos += 1
                return base()
            raise self.fail(f"unknown type {text!r}")
        if kind == "LPAREN":
            self.pos += 1
            first = self.parse_type()
            if self.at("COMMA"):
                self.pos += 1
                second = self.parse_type()
                self.expect("RPAREN", "')' closing pair type")
                return TensorT(first, second)
            self.expect("RPAREN", "')' closing type")
            return first
        if kind in ("PI", "LBRACE"):
            return self.parse_type()
        raise self.fail(f"expected a type, found {text or 'end of input'!r}")

    def parse_hoare_ctx(self):
        var_ctx, heap_ctx = [], []
        while self.at("NAME") and self.peek(1)[0] == "COLON":
            name = self.tokens[self.pos][1]
            self.pos += 2  # the name and its colon
            if self.at("NAME", "heap"):
                self.pos += 1
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
            self.pos += 1
            a = self.expect("NAME", "a binder name")[1]
            self.expect("COMMA", "',' in binder pattern")
            b = self.expect("NAME", "a binder name")[1]
            self.expect("RPAREN", "')' closing binder pattern")
            return (a, b)
        return (self.expect("NAME", "a binder name")[1],)

    # --- terms

    def parse_term(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "LAMBDA":
            self.pos += 1
            x = self.expect("NAME", "a lambda binder")[1]
            self.expect("DOT", "'.' after lambda binder")
            return Lam(x, self.parse_term())
        if kind == "NAME" and text == "do":
            self.pos += 1
            return Do(self.parse_comp())
        if kind == "NAME" and text == "if":
            self.pos += 1
            return IfTerm(*self.parse_if())
        return self.parse_app()

    def parse_if(self) -> tuple:
        # `if` already read: the scrutinee and the two branches
        scrut = self.parse_app()
        self.expect_kw("then")
        tb = self.parse_branch_term()
        self.expect_kw("else")
        return scrut, tb, self.parse_branch_term()

    def expect_kw(self, kw: str) -> None:
        if not self.at("NAME", kw):
            raise self.fail(f"expected {kw!r}")
        self.pos += 1

    def parse_branch_term(self):
        # A bare command in branch position runs when the branch is taken.
        if self.at("NAME") and self.tokens[self.pos][1] in COMMANDS:
            cmd = self.parse_command()
            x = self.supply.fresh("s")
            return Do(Seq((BindCmd(x, cmd),), Ret(Emb(Var(x)))))
        return self.parse_term()

    def parse_app(self):
        # Application arguments must start on the line where the previous
        # token ended; otherwise `return q` would swallow the name of the
        # following declaration.
        head = self.parse_atom()
        tokens = self.tokens
        while True:
            kind, text, line, _ = tokens[self.pos]
            if not (kind in ("LPAREN", "KET", "KVEC", "MINUS")
                    or kind == "NAME" and text not in _NOT_ATOMS) \
                    or line != tokens[self.pos - 1][2]:
                return head
            arg = self.parse_atom()
            head = Emb(App(self.as_elim(head), arg))

    def as_elim(self, m):
        if isinstance(m, Emb):
            return m.elim
        if isinstance(m, (Var, App, Ascribe)):
            return m
        raise self.fail("only a variable, application or ascription may be applied")

    def parse_atom(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "NAME":
            if text in _NOT_ATOMS:
                raise self.fail(f"keyword {text!r} cannot appear here")
            self.pos += 1
            leaf = self.leaves.get(text)
            if leaf is None:
                leaf = self.leaves[text] = \
                    BoolLit(text == "true") if text in ("true", "false") \
                    else Emb(Var(text))
            return leaf
        if kind == "LPAREN":
            return self.parse_parenthesized_term()
        if kind == "KET":
            self.pos += 1
            return Ket(_KETS[text])
        if kind == "KVEC":
            self.pos += 1
            amps = [self.parse_complex()]
            while self.at("COMMA"):
                self.pos += 1
                amps.append(self.parse_complex())
            self.expect("RPAREN", "')' in amplitude vector")
            self.expect("KETCLOSE", "'\\>' closing amplitude vector")
            return KetVec(tuple(amps))
        if kind == "MINUS":
            self.pos += 1
            return WildcardState()
        raise self.fail(f"expected a term, found {text or 'end of input'!r}")

    def parse_parenthesized_term(self):
        # at the opening parenthesis
        tokens = self.tokens
        self.pos += 1
        kind = tokens[self.pos][0]
        if kind == "RPAREN":
            self.pos += 1
            return UnitVal()
        if kind == "LPAREN":  # a matrix literal opens with its first row
            mark = self.pos
            matrix = self.try_matrix()
            if matrix is not None:
                return matrix
            self.pos = mark
        first = self.parse_term()
        kind = tokens[self.pos][0]
        if kind == "RPAREN":
            self.pos += 1
            return first
        if kind == "COLON":
            self.pos += 1
            ty = self.parse_type()
            self.expect("RPAREN", "')' closing ascription")
            return Ascribe(first, ty)
        if kind == "COMMA":
            self.pos += 1
            second = self.parse_term()
            self.expect("RPAREN", "')' closing pair")
            return Pair(first, second)
        raise self.expected("')' closing parenthesized term")

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
        except LiteralError:
            raise
        except ParseError:
            return None

    def number(self) -> float:
        # at a NUMBER token
        t = self.tokens[self.pos]
        self.pos += 1
        if (value := float(t[1])) == float("inf"):  # too large a float
            raise LiteralError(f"numeric literal {t[1]} is not finite",
                               token_span(t))
        return value

    def parse_complex(self) -> complex:
        tokens = self.tokens
        sign = 1.0
        if tokens[self.pos][0] == "MINUS":
            self.pos += 1
            sign = -1.0
        if tokens[self.pos][0] == "NUMBER":
            mag = self.number()
            if self.at("NAME", "i"):
                self.pos += 1
                value = complex(0.0, sign * mag)
            else:
                value = complex(sign * mag, 0.0)
        elif self.at("NAME", "i"):
            self.pos += 1
            value = complex(0.0, sign)
        else:
            raise self.fail("expected a numeric matrix entry")
        if value.imag == 0 and tokens[self.pos][0] in ("PLUS", "MINUS"):
            imsign = 1.0 if tokens[self.pos][0] == "PLUS" else -1.0
            self.pos += 1
            if tokens[self.pos][0] == "NUMBER":
                mag = self.number()
                self.expect_kw("i")
            elif self.at("NAME", "i"):
                self.pos += 1
                mag = 1.0
            else:
                raise self.fail("expected imaginary part")
            value = complex(value.real, imsign * mag)
        return value

    # --- commands and computations

    def parse_command(self):
        text = self.tokens[self.pos][1]
        command = COMMANDS.get(text)
        if command is not None:
            self.pos += 1
            return command(self.parse_app())
        if text == "if":
            self.pos += 1
            return IfCmd(*self.parse_if())
        raise self.fail(f"expected a command, found {text or 'end of input'!r}")

    def at_command(self) -> bool:
        kind, text = self.tokens[self.pos][:2]
        return kind == "NAME" and (text in COMMANDS or text == "if")

    def parse_comp(self):
        tokens, stmts, fresh = self.tokens, [], self.supply.fresh
        while True:
            kind, text, line, col = tokens[self.pos]
            span = _span(line, col, len(text))
            if kind == "NAME":
                if text == "return":
                    self.pos += 1
                    return Seq(tuple(stmts), Ret(self.parse_term(), span=span))
                if text in COMMANDS or text == "if":
                    cmd = self.parse_command()
                    x = fresh("s")
                    stmts.append(BindCmd(x, cmd, span=span))
                    if tokens[self.pos][0] != "SEMI":
                        # trailing command: its value is returned
                        return Seq(tuple(stmts), Ret(Emb(Var(x)), span=span))
                    self.pos += 1
                    continue
                follow = tokens[self.pos + 1][0]
                if follow == "BINDC":
                    self.pos += 2
                    stmt = BindCmd(text, self.parse_command(), span=span)
                elif follow == "BINDR":
                    self.pos += 2
                    stmt = BindRun((text,), self.as_elim(self.parse_app()),
                                   span=span)
                elif follow == "COLON":
                    self.pos += 2
                    ann = self.parse_type()
                    self.expect("EQ", "'=' in let binding")
                    stmt = LetEq(text, ann, self.parse_term(), span=span)
                else:
                    raise self.fail("expected a computation step")
            elif kind == "LPAREN":
                stmt = self.try_tuple_bind(span)
                if stmt is None:
                    return self.parse_terminal_pair(stmts, span)
            elif kind == "EOF":
                raise ParseError("unexpected end of input inside do block",
                                 span)
            else:
                raise self.fail("expected a computation step")
            stmts.append(stmt)
            if tokens[self.pos][0] == "SEMI":
                self.pos += 1

    def try_tuple_bind(self, span: Span):
        pos = self.pos
        if [t[0] for t in self.tokens[pos + 1:pos + 6]] != \
                ["NAME", "COMMA", "NAME", "RPAREN", "BINDR"]:
            return None
        a, b = self.tokens[pos + 1][1], self.tokens[pos + 3][1]
        self.pos += 6
        return BindRun((a, b), self.as_elim(self.parse_app()), span=span)

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

    def parse_assertion(self, min_prec: int = 1):
        # Precedence climbing over the connectives of `_CONNECTIVES`, the
        # loosest first: `\o` and `=>` nest to the right, `\/` and `/\` to
        # the left, so a right operand takes its own level or the next one.
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            prec, node = _CONNECTIVES.get(tokens[self.pos][0], (0, None))
            if prec < min_prec:
                return left
            self.pos += 1
            left = node(left, self.parse_assertion(
                prec if prec <= 2 else prec + 1))

    def parse_unary(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "TILDE":
            self.pos += 1
            return Not(self.parse_unary())
        if kind == "NAME" and text in ("exists", "forall"):
            self.pos += 1
            x = self.expect("NAME", "a quantified name")[1]
            self.expect("COLON", "':' in quantifier")
            if self.at("NAME", "heap"):
                self.pos += 1
                self.expect("DOT", "'.' after quantifier")
                body = self.parse_assertion(2)
                return ExistsHeap(x, body) if text == "exists" \
                    else ForallHeap(x, body)
            ty = self.parse_type_atom()
            self.expect("DOT", "'.' after quantifier")
            body = self.parse_assertion(2)
            return ExistsVar(x, ty, body) if text == "exists" \
                else ForallVar(x, ty, body)
        left = self.parse_rel_atom()
        if self.tokens[self.pos][0] == "DIFF":  # `-o` does not chain
            self.pos += 1
            return Replace(left, self.parse_rel_atom())
        return left

    def parse_rel_atom(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "NAME":
            called = self.tokens[self.pos + 1][0] == "LPAREN"
            if text == "emp":
                self.pos += 1
                return Emp()
            if text == "T" and not called:
                self.pos += 1
                return Top()
            if text == "F" and not called:
                self.pos += 1
                return Bot()
            if text == "Id" and called:
                # names on either side stay term variables; whether one
                # denotes a ghost state is resolved during checking
                self.pos += 2
                left = self.parse_term()
                self.expect("COMMA", "',' in Id")
                right = self.parse_term()
                self.expect("RPAREN", "')' closing Id")
                return IdAt(None, left, right)
            if text == "HId" and called:
                self.pos += 2
                left = self.parse_heap_expr()
                self.expect("COMMA", "',' in HId")
                right = self.parse_heap_expr()
                self.expect("RPAREN", "')' closing HId")
                return HeapId(left, right)
            if text == "indom" and called:
                self.pos += 2
                h = self.parse_heap_expr()
                self.expect("COMMA", "',' in indom")
                loc = self.parse_term()
                self.expect("RPAREN", "')' closing indom")
                return InDom(h, loc)
            if text == "entangled" and called:
                self.pos += 2
                target = self.parse_term()
                self.expect("RPAREN", "')' closing entangled")
                return Entangled(target)
        # relational atoms headed by a term
        mark = self.pos
        try:
            term = self.parse_term()
            follow = self.tokens[self.pos][0]
            if follow == "PTO":
                self.pos += 1
                return PointsTo(term, self._state_or_term(self.parse_term()))
            if follow == "LKP":
                self.pos += 1
                return Lookup(term, self._state_or_term(self.parse_term()))
            if follow == "IN":
                self.pos += 1
                self.expect("LBRACE", "'{' opening a state set")
                cands = [self._state_or_term(self.parse_term())]
                while self.at("COMMA"):
                    self.pos += 1
                    cands.append(self._state_or_term(self.parse_term()))
                self.expect("RBRACE", "'}' closing a state set")
                return MemberOf(term, tuple(cands))
            if isinstance(term, Emb) and isinstance(term.elim, Var):
                return ARef(term.elim.name)
        except LiteralError:
            raise
        except ParseError:
            pass
        self.pos = mark
        if kind == "LPAREN":
            self.pos += 1
            first = self.parse_assertion()
            if self.at("COMMA"):
                items = [first]
                while self.at("COMMA"):
                    self.pos += 1
                    items.append(self.parse_assertion())
                self.expect("RPAREN", "')' closing heap fragment group")
                return CellGroup(tuple(items))
            self.expect("RPAREN", "')' closing assertion")
            return first
        raise self.fail(
            f"expected an assertion, found {text or 'end of input'!r}")

    @staticmethod
    def _state_or_term(m):
        # Bare names in state position denote logic-level pure states.
        if isinstance(m, Emb) and isinstance(m.elim, Var):
            return GhostRef(m.elim.name)
        return m

    # --- heap expressions

    def parse_heap_expr(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "NAME":
            if text == "empty":
                self.pos += 1
                return HEmpty()
            if text == "upd" and self.peek(1)[0] == "LPAREN":
                self.pos += 2
                base = self.parse_heap_expr()
                self.expect("COMMA", "',' in upd")
                loc = self.parse_term()
                self.expect("COMMA", "',' in upd")
                value = self._state_or_term(self.parse_term())
                self.expect("RPAREN", "')' closing upd")
                return Upd(base, loc, value)
            self.pos += 1
            return HVar(text)
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
