"""Command-line behavior: exit codes, JSON schemas, byte stability."""

import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from qhoare.cli import main
from qhoare.core import HoareT
from qhoare.parser import parse_program
from conftest import (
    CORPUS_DIR, CORPUS_FILES, GOLDEN_DIR, NEGATIVE_DIR, NEGATIVE_FILES,
)
from genlib import straight_line_source

SCHEMA_DIR = (pathlib.Path(__file__).parent.parent / "src" / "qhoare" /
              "schemas")


# nullary corpus runs pinned byte for byte by tests/golden/run_*.json
GOLDEN_RUNS = [
    ("hqw.qh", "hqw"), ("rnd.qh", "rnd"), ("testbell.qh", "testBell"),
    ("bellpair.qh", "testBell"), ("bellpair.qh", "bell"),
    ("bellpair.qh", "qplus"), ("bellpair.qh", "qminus"),
    ("teleport.qh", "bell"),
]

# `pp` pairs `false` with a coin the checker cannot decide, so the
# countermodel of its postcondition holds the undecided value in a pair
COIN_PAIR_SOURCE = """\
coin : {emp} r : Bool {T} = do q <= mkQbit false; applyU (H q); measQbit q
pp : {emp} r : (Bool, Bool) {Id(r, (true, true))}
   = do x <- coin; return (false, x)
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus(name):
    return str(CORPUS_DIR / name)


def negative(name):
    return str(NEGATIVE_DIR / name)


class TestExitCodes:
    def test_corpus_verifies(self, capsys):
        for name in ("hqw.qh", "rnd.qh", "testbell.qh", "bellpair.qh"):
            code, out, _ = run_cli(["check", corpus(name)], capsys)
            assert code == 0, (name, out)
            assert "verified" in out

    def test_conditional_without_strict_is_zero(self, capsys):
        code, out, _ = run_cli(["check", corpus("teleport.qh")], capsys)
        assert code == 0
        assert "conditional" in out

    def test_conditional_with_strict_fails(self, capsys):
        code, _, _ = run_cli(["check", corpus("teleport.qh"), "--strict"],
                             capsys)
        assert code == 1

    def test_literal_measurement_strict(self, capsys):
        code, out, _ = run_cli(
            ["check", corpus("testbell.qh"), "--literal-measurement",
             "--strict"], capsys)
        assert code == 1
        assert "conditional" in out

    def test_literal_measurement_lenient(self, capsys):
        code, _, _ = run_cli(
            ["check", corpus("testbell.qh"), "--literal-measurement"],
            capsys)
        assert code == 0

    @pytest.mark.parametrize("name,kind", [
        ("hqw_true.qh", "postconditionVC"),
        ("measure_unbound.qh", "allocationVC"),
        ("leak_emp.qh", "postconditionVC"),
        ("rot_nonunitary.qh", "unitarityVC"),
    ])
    def test_negative_suite(self, capsys, name, kind):
        code, out, _ = run_cli(["check", negative(name)], capsys)
        assert code == 1
        assert "refuted" in out
        assert kind in out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.qh"
        bad.write_text("x : Bool = do")
        code, _, _ = run_cli(["check", str(bad)], capsys)
        assert code == 2

    def test_type_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.qh"
        bad.write_text("x : Bool = ()")
        code, out, _ = run_cli(["check", str(bad)], capsys)
        assert code == 2
        assert "type-error" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["check", "no/such/file.qh"], capsys)
        assert code == 2

    def test_multiple_files_worst_exit_code(self, capsys):
        code, out, _ = run_cli(
            ["check", corpus("hqw.qh"), negative("hqw_true.qh")], capsys)
        assert code == 1
        assert "verified" in out and "refuted" in out


class TestJsonOutputs:
    def validate(self, payload, schema_name):
        schema = json.loads((SCHEMA_DIR / schema_name).read_text())
        jsonschema.validate(payload, schema)

    def test_check_json_schema(self, capsys):
        code, out, _ = run_cli(
            ["check", corpus("teleport.qh"), "--format", "json"], capsys)
        assert code == 0
        self.validate(json.loads(out), "report.schema.json")

    def test_vcs_json_schema_and_kinds(self, capsys):
        code, out, _ = run_cli(
            ["vcs", corpus("testbell.qh"), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        self.validate(payload, "report.schema.json")
        obs = payload["decls"][0]["obligations"]
        allocs = [o for o in obs if o["kind"] == "allocationVC"]
        assert len(allocs) == 2
        assert all(o["verdict"] == "proved" for o in allocs)

    def test_vcs_ordering_stable_by_span(self, capsys):
        _, out, _ = run_cli(
            ["vcs", corpus("bellpair.qh"), "--format", "json"], capsys)
        payload = json.loads(out)
        for decl in payload["decls"]:
            lines = [o["span"]["line"] for o in decl["obligations"]
                     if o["span"]]
            assert lines == sorted(lines)

    def test_teleport_residuals_on_opaque_state(self, capsys):
        code, out, _ = run_cli(
            ["vcs", corpus("teleport.qh"), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        self.validate(payload, "report.schema.json")
        unknowns = [o for d in payload["decls"] for o in d["obligations"]
                    if o["verdict"] == "unknown"]
        assert unknowns
        assert all(o["residual"] for o in unknowns)
        assert not any(o["verdict"] == "refuted"
                       for d in payload["decls"]
                       for o in d["obligations"])

    def test_empty_file_no_obligations(self, tmp_path, capsys):
        empty = tmp_path / "empty.qh"
        empty.write_text("")
        code, out, _ = run_cli(["vcs", str(empty), "--format", "json"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["decls"] == []

    def test_parse_error_report_validates(self, tmp_path, capsys):
        bad = tmp_path / "bad.qh"
        bad.write_text("x : Bool = do")
        code, out, _ = run_cli(["check", str(bad), "--format", "json"],
                               capsys)
        assert code == 2
        payload = json.loads(out)
        self.validate(payload, "report.schema.json")
        assert payload["status"] == "parse-error"
        assert payload["diagnostics"]

    def test_run_json_schema(self, capsys):
        code, out, _ = run_cli(
            ["run", corpus("hqw.qh"), "hqw", "--seed", "7",
             "--shots", "1000", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        self.validate(payload, "run.schema.json")
        assert payload["outcomes"] == [{"value": "false", "count": 1000}]

    def test_json_byte_stability(self, capsys):
        args = ["run", corpus("rnd.qh"), "rnd", "--seed", "3",
                "--shots", "200", "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        args = ["check", corpus("bellpair.qh"), "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    @pytest.mark.parametrize(
        "path", CORPUS_FILES + NEGATIVE_FILES,
        ids=[f"{p.parent.name}/{p.name}" for p in CORPUS_FILES +
             NEGATIVE_FILES])
    def test_check_json_matches_golden(self, path, capsys, monkeypatch):
        # run from tests/ so the report's "file" is the relative path
        monkeypatch.chdir(path.parent.parent)
        rel = f"{path.parent.name}/{path.name}"
        _, out, _ = run_cli(["check", rel, "--format", "json"], capsys)
        golden = GOLDEN_DIR / f"check_{path.parent.name}_{path.stem}.json"
        assert out == golden.read_text()

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("fname,decl", GOLDEN_RUNS,
                             ids=[f"{f}:{d}" for f, d in GOLDEN_RUNS])
    def test_run_json_matches_golden(self, fname, decl, seed, capsys):
        # the goldens hold the output of a loop that interpreted every
        # shot; replay along the outcome trie must reproduce it exactly
        code, out, _ = run_cli(
            ["run", corpus(fname), decl, "--seed", str(seed),
             "--shots", "1000", "--format", "json"], capsys)
        assert code == 0
        stem = fname.removesuffix(".qh")
        golden = GOLDEN_DIR / f"run_{stem}_{decl}_seed{seed}.json"
        assert out == golden.read_text()

    def test_countermodel_renders_pair_values(self, tmp_path, capsys):
        path = tmp_path / "pp.qh"
        path.write_text(COIN_PAIR_SOURCE)
        code, out, _ = run_cli(["vcs", str(path), "--format", "json"], capsys)
        assert code == 1
        assert """\
          "countermodel": {
            "env": {
              "r": "(false, unknown)"
            },
            "heap": {
              "": "empty"
            }
          },
""" in out

    def test_outputs_independent_of_hash_seed(self, tmp_path):
        # the same calls in two interpreters with different string hashing
        # must print the same bytes
        pp = tmp_path / "pp.qh"
        pp.write_text(COIN_PAIR_SOURCE)
        calls = []
        for path in CORPUS_FILES + NEGATIVE_FILES + [pp]:
            calls += [["check", str(path), "--format", "json"],
                      ["vcs", str(path), "--format", "json"]]
        for path in CORPUS_FILES:
            for decl in parse_program(path.read_text()).program.decls:
                if isinstance(decl.signature, HoareT):
                    calls.append(["run", str(path), decl.name, "--seed", "7",
                                  "--format", "json"])
        script = (
            "import contextlib, io, json, sys\n"
            "from qhoare.cli import main\n"
            "for argv in json.load(sys.stdin):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(argv)\n"
            "    print(argv, code)\n"
            "    sys.stdout.write(out.getvalue())\n")
        src = str(pathlib.Path(__file__).parent.parent / "src")
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", script], input=json.dumps(calls),
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(
                         filter(None, [src, os.environ.get("PYTHONPATH")]))})
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        headers = [line for line in outputs[0].splitlines()
                   if line.startswith("['")]
        assert len(headers) == len(calls)
        assert outputs[0] == outputs[1]


class TestTrace:
    def test_testbell_golden(self, capsys):
        code, out, _ = run_cli(
            ["trace", corpus("testbell.qh"), "testBell"], capsys)
        assert code == 0
        golden = (GOLDEN_DIR / "testbell_trace.txt").read_text()
        assert out == golden

    def test_hqw_trace_shape(self, capsys):
        _, out, _ = run_cli(["trace", corpus("hqw.qh"), "hqw"], capsys)
        assert "-- P0: emp" in out
        assert "-- P1: P0 \\o (q |-> |0\\>)" in out
        assert "-- P2: P1 \\o ((q |-> -) -o emp)" in out

    def test_rnd_trace_ends_in_measurement(self, capsys):
        _, out, _ = run_cli(["trace", corpus("rnd.qh"), "rnd"], capsys)
        annotations = [l for l in out.splitlines() if "-- P" in l]
        assert len(annotations) == 4  # P0 plus three steps
        assert "-o emp" in annotations[-1]

    def test_unknown_decl(self, capsys):
        code, _, err = run_cli(["trace", corpus("hqw.qh"), "nope"], capsys)
        assert code == 2


class TestRun:
    def test_refuses_refuted_without_force(self, capsys):
        code, _, err = run_cli(
            ["run", negative("hqw_true.qh"), "hqw"], capsys)
        assert code == 1
        assert "force" in err

    def test_force_runs_and_reports_failures(self, capsys):
        code, out, _ = run_cli(
            ["run", negative("hqw_true.qh"), "hqw", "--force",
             "--shots", "50", "--format", "json"], capsys)
        assert code == 1  # runtime assertions fail every shot
        payload = json.loads(out)
        failing = [a for a in payload["assertions"] if a["fail"]]
        assert failing

    def test_bell_runs_without_failures(self, capsys):
        code, out, _ = run_cli(
            ["run", corpus("bellpair.qh"), "bell", "--seed", "1",
             "--shots", "100", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(a["fail"] == 0 for a in payload["assertions"])

    def test_negative_shots_rejected(self, capsys):
        code, out, err = run_cli(
            ["run", corpus("hqw.qh"), "hqw", "--shots", "-5",
             "--format", "json"], capsys)
        assert code == 2
        assert out == ""
        assert "--shots" in err

    def test_zero_shots_accepted(self, capsys):
        code, out, _ = run_cli(
            ["run", corpus("hqw.qh"), "hqw", "--shots", "0",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["shots"] == 0
        assert payload["outcomes"] == [] and payload["errors"] == 0

    def test_force_runs_non_unitary_as_dynamic_errors(self, capsys):
        # the rejected rotation cannot be applied: every shot ends in a
        # dynamic error instead of the run crashing (exit 3)
        code, out, _ = run_cli(
            ["run", negative("rot_nonunitary.qh"), "brot", "--force",
             "--shots", "5", "--format", "json"], capsys)
        assert code != 3
        payload = json.loads(out)
        assert payload["errors"] == payload["shots"] == 5
        assert payload["outcomes"] == []

    def test_modular_testbell_outcomes_agree(self, capsys):
        code, out, _ = run_cli(
            ["run", corpus("bellpair.qh"), "testBell", "--seed", "1",
             "--shots", "500", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        values = {o["value"] for o in payload["outcomes"]}
        assert values <= {"(false, false)", "(true, true)"}


class TestReducerPaths:
    """Terms the checker and the runtime both reduce before interpreting a
    unitary: a conditional in function position, and a beta redex."""

    NON_FUNCTION = (
        "flip : {emp} r : Bool {T}\n"
        "     = do q <= mkQbit false;\n"
        "          p <= mkQbit false;\n"
        "          c <= measQbit p;\n"
        "          applyU (((if c then H else X) : \\Pi x : Qbit. U) q);\n"
        "          measQbit q\n")
    BETA = (
        "coin : {emp} r : Bool {T}\n"
        "     = do q <= mkQbit false;\n"
        "          applyU (((\\x. H x) : \\Pi x : Qbit. U) q);\n"
        "          measQbit q\n")

    def test_conditional_applied_is_a_type_error(self, tmp_path, capsys):
        path = tmp_path / "nonfn.qh"
        path.write_text(self.NON_FUNCTION)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert out == (f"{path}: flip: type-error "
                       f"(application of a non-function)\n")

    def test_beta_redex_verifies_and_runs(self, tmp_path, capsys):
        path = tmp_path / "beta.qh"
        path.write_text(self.BETA)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (0, f"{path}: coin: verified\n")
        code, out, _ = run_cli(
            ["run", str(path), "coin", "--seed", "1", "--shots", "100",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["outcomes"] == [{"value": "false", "count": 46},
                                       {"value": "true", "count": 54}]
        assert payload["errors"] == 0


class TestConsoleEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qhoare.cli", "check",
             corpus("hqw.qh")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verified" in proc.stdout


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


class TestWidth:
    @pytest.mark.parametrize("n", range(4, 15))
    def test_ghz_verifies(self, n, tmp_path, capsys):
        path = tmp_path / f"ghz{n}.qh"
        path.write_text(ghz_source(n))
        code, out, _ = run_cli(["check", str(path), "--format", "json"],
                               capsys)
        assert code == 0
        report = json.loads(out)
        assert [d["status"] for d in report["decls"]] == ["verified"]


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDepth:
    def test_no_internal_error_across_parser_limit(self, tmp_path, capsys):
        # A straight-line block either checks (exit 0) or is refused by the
        # parser as nested too deeply (exit 2); a block the parser accepts
        # must not exhaust the stack later (exit 3).  A lowered recursion
        # limit brings the parser's limit down to a ~150-statement block.
        commands = {"check": ["check"], "vcs": ["vcs"],
                    "trace": ["trace", "deep"],
                    "run": ["run", "deep", "--shots", "10"]}

        def code(command, n):
            path = tmp_path / f"deep{n}.qh"
            if not path.exists():
                path.write_text(straight_line_source(n))
            name, *rest = commands[command]
            return run_cli([name, str(path), *rest], capsys)[0]

        codes = {}
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 200)
        try:
            lo, hi = 1, 400  # first block length the parser refuses
            while lo < hi:
                mid = (lo + hi) // 2
                if code("check", mid) == 2:
                    hi = mid
                else:
                    lo = mid + 1
            for n in range(lo - 12, lo + 3):
                for command in commands:
                    codes[command, n] = code(command, n)
        finally:
            sys.setrecursionlimit(old)
        assert 20 < lo < 400
        assert set(codes.values()) == {0, 2}, sorted(
            key for key, c in codes.items() if c not in (0, 2))
