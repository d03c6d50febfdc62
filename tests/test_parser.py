"""Parsing, diagnostics, round-trips, and mutation robustness."""

import json
import random

import pytest

from qhoare.core import (
    And, BindCmd, Do, Emp, IdAt, MemberOf, Ket, Ret, Top, pretty,
)
from qhoare.parser import (
    parse_assertion, parse_program, parse_term, ParseResult, tokenize,
)
from genlib import Gen
from conftest import CORPUS_FILES, GOLDEN_DIR, NEGATIVE_FILES


def comp_steps(comp):
    """Source-level steps: consecutive statements grouped by span."""
    spans = []
    for node in comp.stmts + (comp.ret,):
        span = getattr(node, "span", None)
        key = (span.line if span else None)
        if not spans or spans[-1] != key:
            spans.append(key)
    return spans


class TestCorpus:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
    def test_zero_diagnostics(self, path):
        res = parse_program(path.read_text(), str(path))
        assert res.ok and res.program is not None
        assert res.diagnostics == []

    def test_testbell_shape(self, corpus):
        decl = corpus["testbell.qh"].decl("testBell")
        assert isinstance(decl.body, Do)
        # five source steps: two inits, two unitaries, the measuring pair
        assert len(comp_steps(decl.body.body)) == 5
        # the trailing pair desugars to two binds before the return
        stmts = decl.body.body.stmts
        assert len(stmts) == 6
        assert all(isinstance(c, BindCmd) for c in stmts)
        assert isinstance(decl.body.body.ret, Ret)

    def test_cross_declaration_references(self, corpus):
        prog = corpus["bellpair.qh"]
        names = [d.name for d in prog.decls]
        assert names.index("qplus") < names.index("bell")

    def test_round_trip_corpus(self, corpus):
        for name, prog in corpus.items():
            res = parse_program(pretty(prog), name)
            assert res.ok, [d.render() for d in res.diagnostics]
            assert res.program == prog


class TestFragments:
    def test_empty_program(self):
        res = parse_program("")
        assert res.ok and res.program.decls == ()

    def test_truncated_do(self):
        res = parse_program("x : Bool = do")
        errors = [d for d in res.diagnostics if d.severity == "error"]
        assert len(errors) == 1
        assert "do" in errors[0].message or "end of input" in errors[0].message

    def test_duplicate_declaration(self):
        res = parse_program("x : Bool = true\nx : Bool = false")
        assert any("duplicate" in d.message for d in res.diagnostics)

    def test_assertion_examples(self):
        a = parse_assertion("emp /\\ Id(a, b)")
        assert isinstance(a, And) and isinstance(a.left, Emp)
        assert isinstance(a.right, IdAt)

        b = parse_assertion("a \\in {|+\\>, |-\\>}")
        assert b == MemberOf(b.term, (Ket("+"), Ket("-")))

        assert isinstance(parse_assertion("T"), Top)

    def test_assertion_error(self):
        res = parse_assertion("emp /\\")
        assert isinstance(res, ParseResult) and not res.ok

    def test_fragment_nested_too_deeply(self):
        res = parse_term("(" * 2000 + "x" + ")" * 2000)
        assert isinstance(res, ParseResult) and not res.ok
        (d,) = res.diagnostics
        assert d.message == "input nested too deeply"
        assert d.span.line == 1 and 1 < d.span.col <= 2000

    def test_ketvec_round_trip(self):
        from qhoare.core import KetVec, PointsTo, Emb, Var
        s = 2 ** -0.5
        a = PointsTo(Emb(Var("q")), KetVec((s, 0j, 0j, complex(-s))))
        back = parse_assertion(pretty(a))
        assert back == a

    def test_diagnostic_rendering(self):
        res = parse_program("x : Wrong = true", "f.qh")
        err = [d for d in res.diagnostics if d.severity == "error"][0]
        text = err.render()
        assert text.startswith("f.qh:") and ": error: " in text

    def test_spans_inside_source(self):
        src = "x : Bool = do"
        res = parse_program(src)
        for d in res.diagnostics:
            assert 1 <= d.span.line <= src.count("\n") + 1


# lexer edge cases pinned with the corpus and negative files by
# golden/tokens.json
TOKEN_EDGE_INPUTS = {
    "empty": "",
    "no_trailing_newline": "x : Bool = true",
    "comment_at_eof": "x : Bool = true -- no newline after this",
    "crlf": "x : Bool\r\n  = true\r\ny : Bool = false\r\n",
    "tabs": "x\t:\tBool\n\t= true\t-- tab\n",
    "lone_bar": "|",
    "in_next_to_inx": "a \\in {b} \\inx \\in{c}\\in",
    "diff_arrow_comment": "a -o b -> c -- d -o\n-oa->b--\n",
    "unexpected_characters": "x @ y\x0bz\n  \u00e9 = 1\n",
}


def token_golden_text() -> str:
    """Every token of the corpus, negative and edge inputs as ``[kind,
    text, line, col, length]``, one per line, and each input's rendered
    diagnostics, as JSON."""
    sources = {f"{p.parent.name}/{p.name}": p.read_text()
               for p in CORPUS_FILES + NEGATIVE_FILES}
    sources.update(TOKEN_EDGE_INPUTS)
    entries = []
    for name, source in sources.items():
        diags = []
        rows = ",\n    ".join(
            json.dumps([t.kind, t.text, t.span.line, t.span.col,
                        t.span.length])
            for t in tokenize(source, diags, name))
        entries.append(
            f' {json.dumps(name)}: {{\n  "tokens": [\n    {rows}\n  ],\n'
            f'  "diagnostics": {json.dumps([d.render() for d in diags])}\n }}')
    return "{\n" + ",\n".join(entries) + "\n}\n"


class TestTokenGolden:
    def test_tokens_match_golden(self):
        assert token_golden_text() == \
            (GOLDEN_DIR / "tokens.json").read_text()


class TestRoundTripProperty:
    def test_generated_programs(self):
        # parse(pretty(p)) == p over the grammar generator
        count = 0
        for seed in range(260):
            gen = Gen(seed)
            prog = gen.program()
            text = pretty(prog)
            res = parse_program(text)
            assert res.ok, (text, [d.render() for d in res.diagnostics])
            assert res.program == prog, text
            count += 1
        assert count >= 200

    def test_generated_assertions(self):
        for seed in range(220):
            gen = Gen(seed + 1000)
            a = gen.assertion(3)
            text = pretty(a)
            back = parse_assertion(text)
            assert not isinstance(back, ParseResult), (text, back)
            assert back == a, text


MUTATIONS = [
    lambda s: s.replace("{", "", 1),                      # unbalanced brace
    lambda s: s.replace("}", "", 1),
    lambda s: s.replace("(", "", 1),                      # unbalanced paren
    lambda s: s.replace("mkQbit", "mkQubit", 1),          # unknown keyword
    lambda s: s.replace("testBell :", "testBell", 1),     # missing colon
    lambda s: s.replace("=", "", 1),                      # missing equals
    lambda s: s + "\n" + s.splitlines()[-1],              # stray tail
    lambda s: s.replace("<=", "<", 1),                    # broken bind arrow
    lambda s: s.replace("false", "|0>", 1),               # broken ket token
    lambda s: s[: len(s) // 2],                           # truncation
]


class TestRecovery:
    @pytest.mark.parametrize("idx", range(len(MUTATIONS)))
    def test_curated_mutations_produce_diagnostics(self, idx):
        src = CORPUS_FILES[0].read_text()
        for path in CORPUS_FILES:
            if path.name == "testbell.qh":
                src = path.read_text()
        mutated = MUTATIONS[idx](src)
        if mutated == src:
            pytest.skip("mutation did not apply")
        res = parse_program(mutated, f"mut{idx}.qh")
        assert not res.ok
        assert any(d.severity == "error" for d in res.diagnostics)

    def test_byte_mutation_fuzz_never_raises(self):
        rng = random.Random(2024)
        sources = [p.read_bytes() for p in CORPUS_FILES]
        for trial in range(300):
            raw = bytearray(rng.choice(sources))
            pos = rng.randrange(len(raw))
            raw[pos] = rng.randrange(256)
            text = bytes(raw).decode("utf-8", errors="replace")
            parse_program(text, f"fuzz{trial}.qh")  # must not raise

    def test_error_recovery_continues(self):
        src = ("one : Bool = do\n\n"
               "two : Bool = true\n")
        res = parse_program(src)
        assert not res.ok
        assert any(d.name == "two" for d in res.program.decls)
