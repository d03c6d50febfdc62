"""Command-line behavior: exit codes, JSON schemas, byte stability."""

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import jsonschema
import pytest

from qhoare.cli import _dumps, analyze, checked_decl, main
from qhoare.core import And, HoareT, Or, pretty
from qhoare.heap import MAX_WIDTH
from qhoare.parser import parse_program
from qhoare.prover import discharge_all
from qhoare.sim import run_program
from qhoare.typecheck import Hypotheses
from conftest import (
    CORPUS_DIR, CORPUS_FILES, GOLDEN_DIR, NEGATIVE_DIR, NEGATIVE_FILES,
)
from genlib import (
    Gen, ascribing_caller_source, coin_block_source, gate_block_source,
    ghz_source,
    long_postcondition_source, long_precondition_source,
    measure_block_source, straight_line_source,
    token_mutants,
)

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

    @pytest.mark.parametrize("command,decl", [("vcs", []), ("trace", ["x"]),
                                              ("run", ["x"])],
                             ids=["vcs", "trace", "run"])
    @pytest.mark.parametrize("missing", [True, False],
                             ids=["missing", "directory"])
    def test_unreadable_file_exit_two(self, command, decl, missing, tmp_path,
                                      capsys):
        path = str(tmp_path / "nope.qh" if missing else tmp_path)
        code, out, err = run_cli([command, path] + decl, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{path}: error: ")
        assert "internal error" not in err

    def test_multiple_files_worst_exit_code(self, capsys):
        code, out, _ = run_cli(
            ["check", corpus("hqw.qh"), negative("hqw_true.qh")], capsys)
        assert code == 1
        assert "verified" in out and "refuted" in out


class TestInProcessMain:
    """main() is called many times in one process and shares one parser."""

    @pytest.mark.parametrize("argv,code,stream,text", [
        (["bogus"], 2, "err", "invalid choice: 'bogus'"),
        (["check"], 2, "err", "the following arguments are required"),
        (["--help"], 0, "out", "usage: qhoare"),
    ], ids=["bogus", "check-no-file", "help"])
    def test_returns_instead_of_exiting(self, argv, code, stream, text,
                                        capsys):
        got, out, err = run_cli(argv, capsys)
        assert got == code
        assert text in {"out": out, "err": err}[stream]

    @pytest.mark.parametrize("argv", [
        ["trace", "--format", "json"],
        ["run", "--strict"],
    ], ids=["trace-format", "run-strict"])
    def test_option_a_command_does_not_read_is_a_usage_error(self, argv,
                                                             capsys):
        # trace prints text only and run has no conditional verdict
        code, out, err = run_cli(
            argv[:1] + [corpus("bellpair.qh"), "bell"] + argv[1:], capsys)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {argv[1]}" in err

    def test_alternating_run_options_do_not_leak(self, capsys):
        bell = ["run", corpus("bellpair.qh"), "bell", "--format", "json"]
        for _ in range(2):
            for extra, seed in ((["--seed", "7"], 7), ([], 0)):
                code, out, _ = run_cli(bell + extra, capsys)
                assert code == 0
                golden = GOLDEN_DIR / f"run_bellpair_bell_seed{seed}.json"
                assert out == golden.read_text()

    def test_alternating_check_options_do_not_leak(self, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(CORPUS_DIR.parent)
        golden = (GOLDEN_DIR / "check_corpus_teleport.json").read_text()
        texts = []
        for _ in range(2):
            code, out, _ = run_cli(["check", "corpus/teleport.qh", "--strict",
                                    "--format", "json"], capsys)
            assert (code, out) == (1, golden)
            code, out, _ = run_cli(["check", "corpus/teleport.qh"], capsys)
            assert code == 0
            texts.append(out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("corpus/teleport.qh: ")
        assert "conditional" in texts[0]

    def test_parser_is_not_rebuilt(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        hqw = corpus("hqw.qh")
        for argv in (["check", hqw], ["vcs", hqw],
                     ["run", hqw, "hqw", "--shots", "1"]):
            assert run_cli(argv, capsys)[0] == 0
        assert built == []


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


def benchmark_programs(seed: int) -> list:
    """The programs of every family of the benchmark's generator at
    ``seed``, loaded without putting its module on the import path."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses looks the module up
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return (gen.deep_family(seed) + gen.wide_family(seed)
            + gen.coins_family(seed))


def reference_dumps(obj) -> str:
    """How reports were written before ``cli._dumps``."""
    return json.dumps(obj, indent=2, sort_keys=True)


class TestJsonWriter:
    @pytest.mark.parametrize("golden", sorted(GOLDEN_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_goldens(self, golden):
        obj = json.loads(golden.read_text())
        assert _dumps(obj) == reference_dumps(obj)

    def test_benchmark_family_reports(self):
        for prog in benchmark_programs(1):
            report = analyze(prog.file, prog.source)[0].as_dict()
            assert _dumps(report) == reference_dumps(report), prog.file
            parsed = parse_program(prog.source, prog.file)
            run = run_program(parsed.program, prog.decl, seed=1,
                              shots=20).as_dict()
            assert _dumps(run) == reference_dumps(run), prog.file

    @pytest.mark.parametrize("obj", [
        "caf\u00e9 \u91cf\u5b50 \U0001F600",
        "line\u2028separator\u2029paragraph",
        'say "hi" \\ back\\slash /',
        "".join(map(chr, range(32))) + "\x7f",
        {}, [], {"a": {}, "b": [], "c": [[]], "d": [{}],
                 "e": {"f": {"g": []}}},
        {"t": True, "f": False, "n": None, "z": 0, "neg": -7,
         "big": 2 ** 70},
        [True, False, None, 0], True, False, None, 0,
        {"": "empty", "B": 1, "a": 2, "\u00e9": 3, "\u2028": [4],
         'a"b': {"\\": None}},
        [{"decls": [{"obligations": [], "error": None}],
          "diagnostics": ["1:1: \t"]}],
    ])
    def test_hand_made(self, obj):
        assert _dumps(obj) == reference_dumps(obj)

    @pytest.mark.parametrize("obj", [
        1.5, float("nan"), (1, 2), b"x", {1: "a"}, {"a": [0.0]},
        {None: 1},
    ])
    def test_other_values_are_type_errors(self, obj):
        with pytest.raises(TypeError):
            _dumps(obj)


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

    # a block checked against its own Hoare type is a value of the
    # enclosing block: its steps are not steps of the declaration, which
    # sees only the call's `z |-> |0>`, or nothing for a block never run
    CALLED_BLOCK = (
        "f : {emp} r : Qbit {r |-> |0\\>}\n"
        "  = do x <= mkQbit false;\n"
        "       z <- (do q <= mkQbit false; return q"
        " : {emp} s : Qbit {s |-> |0\\>});\n"
        "       y <= measQbit x;\n"
        "       return z\n")
    LET_BLOCK = (
        "g : {emp} r : Bool {emp}\n"
        "  = do c : {emp} s : Bool {emp} = (do q <= mkQbit false;"
        " y <= measQbit q; return y);\n"
        "       return true\n")
    # an ascribed block in a branch runs as a call to its type, so only
    # the call's `%s0 |-> |0>` shows, and nothing of the branch not taken
    ASCRIBED_BRANCH_BLOCK = (
        "k : {emp} r : Bool {T}\n"
        "  = do x <= mkQbit true;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then (do q <= mkQbit false; return q"
        " : {emp} s : Qbit {s |-> |0\\>})\n"
        "            else (do q <= mkQbit true; return q"
        " : {emp} s : Qbit {s |-> |1\\>});\n"
        "       b <= measQbit z;\n"
        "       return b\n")
    # a bare block in a branch runs in place, so its steps stay
    BRANCH_BLOCK = (
        "h : {emp} r : Bool {T}\n"
        "  = do x <= mkQbit true;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then do q <= mkQbit false; return true\n"
        "            else do return false;\n"
        "       return z\n")

    @pytest.mark.parametrize("source, steps", [
        (CALLED_BLOCK, ["P0: emp", "P1: P0 \\o (x |-> |0\\>)",
                        "P2: P1 \\o (z |-> |0\\>)",
                        "P3: P2 \\o ((x |-> -) -o emp)  [refined]"]),
        (LET_BLOCK, []),
        (ASCRIBED_BRANCH_BLOCK, ["P0: emp", "P1: P0 \\o (x |-> |1\\>)",
                                 "P2: P1 \\o ((x |-> -) -o emp)  [refined]",
                                 "P3: P2 \\o (%s0 |-> |0\\>)",
                                 "P4: P3 \\o ((%s0 |-> -) -o emp)"
                                 "  [refined]"]),
        (BRANCH_BLOCK, ["P0: emp", "P1: P0 \\o (x |-> |1\\>)",
                        "P2: P1 \\o ((x |-> -) -o emp)  [refined]",
                        "P3: P2 \\o (q |-> |0\\>)"]),
    ], ids=["called", "let-bound", "ascribed-branch", "branch"])
    def test_nested_block_steps(self, source, steps, tmp_path, capsys):
        path = tmp_path / "nest.qh"
        path.write_text(source)
        name = source.split(" ", 1)[0]
        code, out, _ = run_cli(["trace", str(path), name], capsys)
        assert code == 0
        assert [line.strip()[3:] for line in out.splitlines()
                if line.strip().startswith("-- P")] == steps


class TestGateBlockGolden:
    """A 300-gate block over three qubits that repeats a few gates, pinned
    byte for byte: ``check`` and ``vcs`` print the same JSON report."""

    @pytest.fixture
    def gates(self, tmp_path, monkeypatch):
        (tmp_path / "gates.qh").write_text(gate_block_source(300))
        monkeypatch.chdir(tmp_path)
        return "gates.qh"

    @pytest.mark.parametrize("command", ["check", "vcs"])
    def test_json_matches_golden(self, gates, command, capsys):
        code, out, _ = run_cli([command, gates, "--format", "json"], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "check_genlib_gates.json").read_text()

    def test_trace_matches_golden(self, gates, capsys):
        code, out, _ = run_cli(["trace", gates, "gates"], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "trace_genlib_gates.txt").read_text()


class TestMeasureBlockGolden:
    """A 200-statement block that alternately allocates and measures a
    qubit, pinned byte for byte: ``check`` and ``vcs`` print the same JSON
    report."""

    @pytest.fixture
    def block(self, tmp_path, monkeypatch):
        (tmp_path / "meas.qh").write_text(measure_block_source(200))
        monkeypatch.chdir(tmp_path)
        return "meas.qh"

    @pytest.mark.parametrize("command", ["check", "vcs"])
    def test_json_matches_golden(self, block, command, capsys):
        code, out, _ = run_cli([command, block, "--format", "json"], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "check_genlib_measure.json").read_text()

    def test_trace_matches_golden(self, block, capsys):
        code, out, _ = run_cli(["trace", block, "meas"], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "trace_genlib_measure.txt").read_text()


def text_reports(directory: pathlib.Path) -> str:
    """The text `check` and `vcs` reports, with their exit codes, of the
    corpus and negative files and `measure_block_source(200)`, run from
    copies in ``directory``."""
    sources = {p.name: p.read_text() for p in CORPUS_FILES + NEGATIVE_FILES}
    sources["meas.qh"] = measure_block_source(200)
    out = []
    old = os.getcwd()
    os.chdir(directory)
    try:
        for name, source in sources.items():
            pathlib.Path(name).write_text(source)
            for command in ("check", "vcs"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main([command, name])
                out.append(f"$ {command} {name}\n{buf.getvalue()}"
                           f"exit {code}\n")
    finally:
        os.chdir(old)
    return "".join(out)


class TestHypothesesOnDemand:
    """Hypotheses are report text that only the JSON reports print: `check`
    and `vcs` write them for `--format json`, each distinct heap through
    `heap_to_assertions` once, while their text reports, `run` and
    `trace` decide verdicts from the models and write none."""

    @pytest.fixture
    def block(self, tmp_path):
        path = tmp_path / "meas.qh"
        path.write_text(measure_block_source(200))
        return str(path)

    @staticmethod
    def built(argv, monkeypatch, capsys, attr="heap_to_assertions") -> int:
        from qhoare import typecheck
        calls = []
        wrapped = getattr(typecheck, attr)

        def counted(*args, **kwargs):
            calls.append(args[0])
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(typecheck, attr, counted)
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_run_and_trace_build_none(self, command, block, monkeypatch,
                                      capsys):
        shots = ["--shots", "10"] if command == "run" else []
        for path, decl in ((corpus("bellpair.qh"), "testBell"),
                           (block, "meas")):
            assert self.built([command, path, decl] + shots, monkeypatch,
                              capsys) == 0

    @pytest.mark.parametrize("command", ["check", "vcs"])
    def test_reports_build_them(self, command, block, monkeypatch, capsys):
        for path in (corpus("bellpair.qh"), block):
            assert self.built([command, path, "--format", "json"],
                              monkeypatch, capsys) > 0

    @pytest.mark.parametrize("command", ["check", "vcs"])
    def test_text_reports_build_none(self, command, block, monkeypatch,
                                     capsys):
        for path in (corpus("bellpair.qh"), block):
            assert self.built([command, path], monkeypatch, capsys,
                              "_hypotheses") == 0

    def test_text_reports_match_golden(self, tmp_path):
        assert text_reports(tmp_path) == \
            (GOLDEN_DIR / "text_reports.txt").read_text()


class TestContextsOnDemand:
    """An obligation's context is read by tests only: no command builds
    one, and the first read builds it once."""

    def test_no_command_builds_a_context(self, tmp_path, monkeypatch,
                                         capsys):
        from qhoare import typecheck
        block = tmp_path / "meas.qh"
        block.write_text(measure_block_source(200))
        built = []
        monkeypatch.setattr(typecheck._Prefix, "__call__",
                            lambda prefix: built.append(prefix))
        for path, traced, ran in (
                (corpus("bellpair.qh"), "testBell", "testBell"),
                (corpus("teleport.qh"), "teleport", "bell"),
                (str(block), "meas", "meas")):
            for argv in (["check", path], ["check", path, "--format", "json"],
                         ["vcs", path], ["vcs", path, "--format", "json"],
                         ["trace", path, traced],
                         ["run", path, ran, "--shots", "10"]):
                code, _, err = run_cli(argv, capsys)
                assert (code, err) == (0, ""), argv
        assert built == []

    def test_a_read_builds_the_context_once(self):
        report, _ = analyze("bellpair.qh",
                            (CORPUS_DIR / "bellpair.qh").read_text())
        obligations = [ob for d in report.decls for ob, _ in d.obligations]
        assert len(obligations) > 5
        for ob in obligations:
            first = ob.var_ctx
            assert type(first) is tuple
            assert ob.var_ctx is first


# obligations with no branch, whose hypotheses are `F`: each precondition
# makes two contradictory claims
NO_BRANCH_SOURCE = """\
f : \\Pi b : Bool. {Id(b, true) /\\ Id(b, false)} r : Bool {T}
  = \\b. do return b
g : \\Pi q : Qbit. {q |-> |0\\> /\\ q |-> |1\\>} r : Bool {T}
  = \\q. do measQbit q
"""


class TestHypothesisText:
    """A JSON report writes each obligation's hypotheses from the branches
    the checker kept for it, without building them as assertions; the
    text is what printing the built assertions gives."""

    @staticmethod
    def sources():
        for path in CORPUS_FILES + NEGATIVE_FILES:
            yield path.name, path.read_text()
        yield "no-branch", NO_BRANCH_SOURCE
        yield "coins6", coin_block_source(6)
        yield "measure200", measure_block_source(200)
        for n in range(4, 12):
            yield f"ghz{n}", ghz_source(n)
        for seed in range(40):
            yield f"gen{seed}", pretty(Gen(seed).program())

    def test_text_is_the_printed_assertions(self):
        written = set()
        for name, source in self.sources():
            report, _ = analyze(name, source)
            obligations = [ob for d in report.decls for ob, _ in d.obligations]
            unbuilt = [isinstance(ob.hypotheses_builder, Hypotheses)
                       for ob in obligations]
            got = [ob["hypotheses"] for d in report.as_dict()["decls"]
                   for ob in d["obligations"]]
            want = [[pretty(h) for h in ob.hypotheses] for ob in obligations]
            assert got == want, name
            written.update(h for hs, u in zip(got, unbuilt) if u for h in hs)
        assert "F" in written
        assert any(" \\/ " in h and " /\\ " in h for h in written)
        assert any(h.startswith("HId(") for h in written)

    def test_a_read_builds_the_assertions_the_text_was_written_from(self):
        report, _ = analyze("bellpair.qh",
                            (CORPUS_DIR / "bellpair.qh").read_text())
        first = report.as_dict()
        for d in report.decls:
            for ob, _ in d.obligations:
                assert ob.hypotheses is ob.hypotheses  # built once, kept
                assert ob.hypotheses_builder is None
        assert report.as_dict() == first


class TestRepeatedGates:
    """Each occurrence of a gate keeps its own obligations and diagnostics,
    however often the same gate term repeats."""

    @staticmethod
    def obligations(source, tmp_path, capsys):
        path = tmp_path / "g.qh"
        path.write_text(source)
        code, out, _ = run_cli(["vcs", str(path), "--format", "json"],
                               capsys)
        (decl,) = json.loads(out)["decls"]
        return code, [(ob["kind"], ob["verdict"], ob["span"]["line"],
                       ob["note"]) for ob in decl["obligations"]]

    @pytest.mark.parametrize("matrix,code,verdict,note", [
        ("((1, 0), (0, 2))", 1, "refuted",
         "rot matrix ((1, 0), (0, 2)) is not unitary"),
        ("((0, 1), (1, 0))", 0, "proved",
         "1 rotation matrix(es) validated unitary"),
    ], ids=["non-unitary", "unitary"])
    def test_rot_obligation_at_each_occurrence(self, matrix, code, verdict,
                                               note, tmp_path, capsys):
        source = ("brot : {emp} r : Bool {T}\n"
                  "     = do q <= mkQbit false;\n"
                  + f"          applyU (rot q {matrix});\n" * 3
                  + "          measQbit q\n")
        got, obs = self.obligations(source, tmp_path, capsys)
        assert got == code
        assert obs[:3] == [("unitarityVC", verdict, line, note)
                           for line in (3, 4, 5)]

    @pytest.mark.parametrize("name,error", [
        ("q", "expected Qbit, found Bool"),
        ("H", "cannot apply a value of type Bool"),
    ], ids=["qubit", "gate"])
    def test_gate_after_a_name_is_rebound_to_bool_is_a_type_error(
            self, name, error, tmp_path, capsys):
        path = tmp_path / "tb.qh"
        path.write_text("tb : {emp} r : Bool {T}\n"
                        "   = do q <= mkQbit false;\n"
                        "        applyU (H q);\n"
                        f"        {name} : Bool = true;\n"
                        "        applyU (H q);\n"
                        f"        return {name}\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (2, f"{path}: tb: type-error (5:9: {error})\n")


class TestQubitResolution:
    """`applyU` and a call act on the qubit their variable names in each
    branch, as `measQbit` does, so a shadowed or aliased name reaches the
    right cell and the static verdict agrees with the simulator."""

    SHADOWED = ("sh : {{emp}} r : Bool {{Id(r, {bit})}}\n"
                "   = do q <= mkQbit false; q <= mkQbit false;\n"
                "        applyU (X q); m <= measQbit q; return m\n")
    ALIASED = ("al : {{emp}} r : Bool {{Id(r, {bit})}}\n"
               "   = do p <= mkQbit false; q : Qbit = p;\n"
               "        applyU (X q); m <= measQbit p; return m\n")
    # the same gate term before and after `q` is rebound
    REPEATED = ("re : {{emp}} r : Bool {{Id(r, {bit})}}\n"
                "   = do q <= mkQbit false; applyU (X q);\n"
                "        q <= mkQbit false; applyU (X q);\n"
                "        m <= measQbit q; return m\n")

    # a call frames out and splices in the qubit its argument names
    FLIP = ("flip : \\Pi a : Qbit. {{a |-> |0\\>}} r : Bool\n"
            "       {{a |-> |1\\> /\\ Id(r, true)}}\n"
            "     = \\a. do applyU (X a); return true\n")
    CALL_SHADOWED = FLIP + (
        "cs : {{emp}} r : Bool {{Id(r, {bit})}}\n"
        "   = do q <= mkQbit false; q <= mkQbit false;\n"
        "        x <- flip q; measQbit q\n")
    CALL_ALIASED = FLIP + (
        "ca : {{emp}} r : Bool {{Id(r, {bit})}}\n"
        "   = do p <= mkQbit false; q : Qbit = p;\n"
        "        x <- flip q; measQbit p\n")
    # a call whose result rebinds the name of its qubit argument
    ONE = ("one : \\Pi a : Qbit. {{Id(a, |0\\>)}} r : Qbit {{Id(r, |1\\>)}}\n"
           "    = \\a. do applyU (X a); return a\n")
    CALL_SHADOWED_RESULT = ONE + (
        "csr : {{emp}} r : Bool {{Id(r, {bit})}}\n"
        "    = do q <= mkQbit false; q <= mkQbit false;\n"
        "         q <- one q; measQbit q\n")
    CALL_ALIASED_RESULT = ONE + (
        "car : {{emp}} r : Bool {{Id(r, {bit})}}\n"
        "    = do p <= mkQbit false; q : Qbit = p;\n"
        "         q <- one q; measQbit q\n")

    @pytest.mark.parametrize("template,decl", [
        (SHADOWED, "sh"), (ALIASED, "al"), (REPEATED, "re"),
        (CALL_SHADOWED, "cs"), (CALL_ALIASED, "ca"),
        (CALL_SHADOWED_RESULT, "csr"), (CALL_ALIASED_RESULT, "car"),
    ], ids=["shadowed", "aliased", "repeated", "call-shadowed",
            "call-aliased", "call-shadowed-result", "call-aliased-result"])
    def test_static_verdict_agrees_with_run(self, template, decl, tmp_path,
                                            capsys):
        for bit, verdict, code in (("false", "refuted", 1),
                                   ("true", "verified", 0)):
            path = tmp_path / f"{decl}_{bit}.qh"
            path.write_text(template.format(bit=bit))
            got, out, _ = run_cli(["check", str(path)], capsys)
            assert got == code
            assert f"{path}: {decl}: {verdict}\n" in out
            got, out, _ = run_cli(
                ["run", str(path), decl, "--shots", "100", "--force",
                 "--format", "json"], capsys)
            report = json.loads(out)
            assert report["outcomes"] == [{"value": "true", "count": 100}]
            assert got == code

    def test_trace_shows_the_gate_on_the_inner_cell(self, tmp_path, capsys):
        path = tmp_path / "sh.qh"
        path.write_text(self.SHADOWED.format(bit="true"))
        _, out, _ = run_cli(["trace", str(path), "sh"], capsys)
        assert "((%q0 |-> |0\\>) -o (%q0 |-> |1\\>))" in out


    def test_call_result_rebinding_a_qubit_name(self, tmp_path, capsys):
        # the callee's result cell is renamed apart from the caller's `qa`,
        # and the rebound `qa` names the renamed cell, which is |+>
        path = tmp_path / "cr.qh"
        path.write_text(
            "qplus : {emp} r : Qbit {Id(r, |+\\>)}\n"
            "      = do q <= mkQbit false; applyU (H q); return q\n"
            "t : {emp} r : Bool {Id(r, false)}\n"
            "  = do qa <= mkQbit false; qa <- qplus; measQbit qa\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out.splitlines()[1]) == (1, f"{path}: t: refuted")
        _, out, _ = run_cli(["trace", str(path), "t"], capsys)
        assert "P3: P2 \\o ((%qa0 |-> -) -o emp)" in out
        code, out, _ = run_cli(
            ["run", str(path), "t", "--shots", "100", "--force",
             "--format", "json"], capsys)
        assert code == 1
        assert [o["value"] for o in json.loads(out)["outcomes"]] == [
            "false", "true"]


class TestAssertionScope:
    def test_unbound_name_in_postcondition_is_a_type_error(self, tmp_path,
                                                           capsys):
        # `X` is bound by no binder, context, heap variable or declaration
        path = tmp_path / "share.qh"
        path.write_text(
            (CORPUS_DIR / "bellpair.qh").read_text().replace(
                "a \\in {|0\\>, |1\\>}}", "a \\in {|0\\>, X}}", 1))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert (f"{path}: share: type-error "
                f"(14:1: unbound name 'X' in the postcondition)\n") in out

    @pytest.mark.parametrize("signature,name,which", [
        ("{Id(x, true)} r : Bool {T}", "x", "pre"),
        ("{emp} r : Bool {Id(s, true)}", "s", "post"),
        ("{emp} r : Bool {HId(h, empty)}", "h", "post"),
        ("{emp} r : Bool {(a |-> |0\\>, b |-> |1\\>)}", "a", "post"),
        ("{emp} r : Bool {emp /\\ Id(r, u)}", "u", "post"),
    ], ids=["pre", "post", "heap-variable", "cell-group", "own-declaration"])
    def test_unbound_name_is_named(self, signature, name, which, tmp_path,
                                   capsys):
        path = tmp_path / "u.qh"
        path.write_text(f"u : {signature} = do return true\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        # a signature error is located at its declaration
        assert (code, out) == (
            2, f"{path}: u: type-error "
               f"(1:1: unbound name {name!r} in the {which}condition)\n")

    def test_duplicate_context_name_is_located(self, tmp_path, capsys):
        # a type in a statement is located at its statement
        path = tmp_path / "d.qh"
        path.write_text(
            "u : {emp} r : Bool {T}\n"
            "  = do c : x : Pure. x : Pure. {emp} s : Bool {T}"
            " = do return true;\n"
            "       return true\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (
            2, f"{path}: u: type-error "
               f"(2:8: duplicate context name 'x')\n")

    def test_bound_names_are_accepted(self, tmp_path, capsys):
        # a ghost, a heap variable, the current heap %h, a result binder,
        # a Pi binder and a declaration are all in scope
        path = tmp_path / "b.qh"
        path.write_text(
            "c : {emp} r : Bool {T} = do return true\n"
            "u : \\Pi b : Bool. g : Pure. h : heap.\n"
            "    {HId(%h, h) /\\ Id(b, b)} r : Bool\n"
            "    {Id(r, b) /\\ HId(h, h) /\\ Id(c, c) /\\ Id(g, g)}\n"
            "  = \\b. do return b\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 0
        assert out.startswith(f"{path}: c: verified\n"
                              f"{path}: u: conditional\n")


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

    @pytest.mark.parametrize("source, texts", [
        ("f : {emp} r : Bool {T /\\ T /\\ emp} = do return true\n",
         ["T", "emp"]),
        ("f : {emp} r : Bool {Id(r, true) /\\ emp /\\ Id(r, true)}\n"
         "  = do return true\n", ["Id(r, true)", "emp"]),
        (long_postcondition_source(5000).replace("long", "f"), ["T"]),
    ], ids=["T-twice", "Id-twice", "5000-T"])
    def test_a_repeated_conjunct_counts_each_shot_once(self, source, texts,
                                                       tmp_path, capsys):
        path = tmp_path / "dup.qh"
        path.write_text(source)
        code, out, _ = run_cli(["run", str(path), "f", "--shots", "10",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert sorted(a["text"] for a in payload["assertions"]) == texts
        for a in payload["assertions"]:
            assert (a["pass"], a["fail"], a["uncheckable"]) == (10, 0, 0)

    def test_modular_testbell_outcomes_agree(self, capsys):
        code, out, _ = run_cli(
            ["run", corpus("bellpair.qh"), "testBell", "--seed", "1",
             "--shots", "500", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        values = {o["value"] for o in payload["outcomes"]}
        assert values <= {"(false, false)", "(true, true)"}


    @pytest.mark.parametrize("ty,body,value", [
        ("Pure", "return |+\\>", "|+\\>"),
        ("Pure", "return |vec(0.6, 0.8)\\>", "|vec(0.6, 0.8)\\>"),
        ("{emp} s : Bool {T}", "return g", "<computation>"),
        ("{emp} s : Bool {T}", "return (do return true)", "<computation>"),
    ], ids=["ket", "vector", "declaration", "do-block"])
    def test_result_values_are_written_as_source(self, ty, body, value,
                                                 tmp_path, capsys):
        path = tmp_path / "values.qh"
        path.write_text("g : {emp} r : Bool {T} = do return true\n"
                        f"k : {{emp}} r : {ty} {{T}} = do {body}\n")
        code, out, _ = run_cli(["run", str(path), "k", "--shots", "3"],
                               capsys)
        assert code == 0
        assert out.splitlines()[1] == f"  {value}: 3"
        code, out, _ = run_cli(["run", str(path), "k", "--shots", "3",
                                "--format", "json"], capsys)
        assert json.loads(out)["outcomes"] == [{"value": value, "count": 3}]


class TestRunChecksUpToTheEntry:
    """`run` and `trace` check the declarations up to their entry and
    prove only the entry's conditions; what they print is what a full
    `analyze` gives."""

    # the declarations after `hqw` are a type error and a refuted one
    AFTER_SOURCE = (CORPUS_DIR / "hqw.qh").read_text() + """
bad : {emp} r : Bool {emp}
    = do q <= mkQbit false;
         applyU (H nope);
         measQbit q

wrong : {emp} r : Bool {emp /\\ Id(r, true)}
      = do q <= mkQbit false;
           measQbit q
"""

    @pytest.mark.parametrize("path", CORPUS_FILES + NEGATIVE_FILES,
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("literal", [False, True])
    def test_status_matches_analyze(self, path, literal):
        source = path.read_text()
        report, checked = analyze(str(path), source, literal)
        assert report.decls
        for decl in report.decls:
            dr = checked_decl(checked.program, decl.name, literal)
            status = ("type-error" if dr.error is not None
                      else discharge_all(dr.obligations).status)
            assert status == decl.status, decl.name
        assert checked_decl(checked.program, "nope", literal) is None

    def test_later_faults_do_not_stop_the_entry(self, tmp_path, capsys):
        src = tmp_path / "after.qh"
        src.write_text(self.AFTER_SOURCE)
        code, out, _ = run_cli(["check", str(src)], capsys)
        assert code == 2
        assert "bad: type-error" in out and "wrong: refuted" in out
        code, out, err = run_cli(["run", str(src), "hqw", "--seed", "0",
                                  "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN_DIR / "run_hqw_hqw_seed0.json").read_text()
        code, out, err = run_cli(["run", str(src), "bad"], capsys)
        assert (code, out) == (2, "")
        assert err == f"{src}: bad: type-error\n"
        code, out, err = run_cli(["run", str(src), "wrong"], capsys)
        assert (code, out) == (1, "")
        assert err == (f"{src}: wrong: refuted statically; "
                       f"use --force to run anyway\n")

    def test_trace_checks_up_to_its_entry(self, tmp_path, capsys,
                                          monkeypatch):
        from qhoare import typecheck
        src = tmp_path / "after.qh"
        src.write_text(self.AFTER_SOURCE)
        _, alone, _ = run_cli(["trace", corpus("hqw.qh"), "hqw"], capsys)
        checked, check_decl = [], typecheck.Checker.check_decl
        monkeypatch.setattr(typecheck.Checker, "check_decl",
                            lambda self, decl: checked.append(decl.name)
                            or check_decl(self, decl))
        assert run_cli(["trace", str(src), "hqw"], capsys) == (0, alone, "")
        assert checked == ["hqw"]
        code, out, err = run_cli(["trace", str(src), "bad"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{src}: bad: type-error: ")
        code, out, _ = run_cli(["trace", str(src), "wrong"], capsys)
        assert code == 1 and "-- P0: emp" in out

    def test_assertion_naming_a_later_declaration(self, tmp_path, capsys):
        # an assertion sees the declarations before it only, as a term
        # does, so `check`, `run` and `trace` all reject the entry
        src = tmp_path / "later.qh"
        src.write_text("f : {emp} r : Bool {emp /\\ Id(r, g)}\n"
                       "  = do q <= mkQbit false; measQbit q\n"
                       "g : {emp} r : Bool {emp}\n"
                       "  = do q <= mkQbit false; measQbit q\n")
        code, out, _ = run_cli(["check", str(src)], capsys)
        assert (code, out) == (
            2, f"{src}: f: type-error "
               f"(1:1: unbound name 'g' in the postcondition)\n"
               f"{src}: g: verified\n")
        code, out, err = run_cli(["run", str(src), "f"], capsys)
        assert (code, out, err) == (2, "", f"{src}: f: type-error\n")
        code, out, err = run_cli(["trace", str(src), "f"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"{src}: f: type-error: "
                       f"unbound name 'g' in the postcondition\n")

    def test_unknown_declaration(self, capsys):
        code, out, err = run_cli(["run", corpus("bellpair.qh"), "nope"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == (f"{corpus('bellpair.qh')}: error: "
                       f"no declaration named 'nope'\n")

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.qh"
        bad.write_text("f : {emp} r : Bool {emp}\n"
                       "  = do q <= mkQbit false\n")
        code, out, err = run_cli(["run", str(bad), "f"], capsys)
        assert (code, err) == (2, "")
        assert out == (f"{bad}:3:1: error: unexpected end of input inside "
                       f"do block\n")


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


class TestHeapEquality:
    """Heap equality against the heap the block built: a wildcard state
    matches any cell, and `upd` names a cell through the variable bound
    to it."""

    @staticmethod
    def source(post):
        return f"w : {{emp}} q : Qbit {{{post}}} = do mkQbit false\n"

    @pytest.mark.parametrize("post", [
        "HId(upd(empty, q, |0\\>), upd(empty, q, -))",
        "HId(%h, upd(empty, q, |0\\>))",
    ])
    def test_verified(self, post, tmp_path, capsys):
        path = tmp_path / "w.qh"
        path.write_text(self.source(post))
        for args in (["check"], ["vcs"], ["run", "w"]):
            code, out, err = run_cli([args[0], str(path), *args[1:]], capsys)
            assert code == 0, (args, out, err)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert out == f"{path}: w: verified\n"

    def test_wrong_state_refuted(self, tmp_path, capsys):
        path = tmp_path / "w.qh"
        path.write_text(self.source("HId(%h, upd(empty, q, |1\\>))"))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert out.startswith(f"{path}: w: refuted\n")


class TestCalleePostcondition:
    def test_qubit_in_two_cells_is_a_type_error(self, tmp_path, capsys):
        # p's postcondition relates its result to its argument; `qa <- p qa`
        # names both `qa`, so splicing it in at the call would put `qa` in
        # two cells
        path = tmp_path / "twice.qh"
        path.write_text(
            "p : \\Pi x : Qbit. {emp} r : Qbit {Id(r, x)}\n"
            "  = \\x. do q <= mkQbit false;\n"
            "           return q\n\n"
            "m : {emp} qa : Qbit {T}\n"
            "  = do qa <= mkQbit false;\n"
            "       qa <- p qa;\n"
            "       return qa\n")
        for args in (["check"], ["vcs"], ["run", "m"]):
            code, _, err = run_cli([args[0], str(path), *args[1:]], capsys)
            assert code == 2, (args, err)
        _, out, _ = run_cli(["check", str(path)], capsys)
        assert (f"{path}: m: type-error "
                f"(7:8: qubit 'qa' occurs in two cells)\n") in out

    def test_result_name_free_in_postcondition_is_a_type_error(
            self, tmp_path, capsys):
        # `q <- fresh q` would make the argument `q` of fresh's
        # postcondition and its result `q` one name, and the result cell
        # would read as |0>
        path = tmp_path / "capture.qh"
        path.write_text(
            "fresh : \\Pi a : Qbit. {Id(a, |0\\>)} r : Qbit\n"
            "        {Id(a, |0\\>) /\\ Id(r, |1\\>)}\n"
            "      = \\a. do r <= mkQbit false; applyU (X r); return r\n"
            "c : {emp} r : Bool {Id(r, false)}\n"
            "  = do q <= mkQbit false; q <- fresh q; measQbit q\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert out.splitlines() == [
            f"{path}: fresh: verified",
            f"{path}: c: type-error (5:27: result name 'q' is already free "
            f"in the postcondition of the computation being run)"]

    def test_ghost_candidate_in_membership(self, tmp_path, capsys):
        # a name among the candidates of `\\in` is a state variable, here
        # the ghost `g`, and instantiating `share a` substitutes through it
        path = tmp_path / "ghost.qh"
        path.write_text(
            (CORPUS_DIR / "bellpair.qh").read_text()
            .replace("{a \\in {|+", "g : Pure. {a \\in {|+", 1)
            .replace("a \\in {|0\\>, |1\\>}}", "a \\in {|0\\>, g}}", 1))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 0, err
        assert f"{path}: share: conditional\n" in out


class TestWrittenVectorLength:
    # a written vector of 4 amplitudes at one qubit: the first gate or
    # measurement on its cell would reshape it to a qubit's 2
    @pytest.mark.parametrize("pre", [
        "a |-> |vec(0.6, 0, 0, 0.8)\\>",
        "a \\in {|0\\>, |vec(0.6, 0, 0, 0.8)\\>}",
    ])
    @pytest.mark.parametrize("stmt", ["applyU (H a)", "b <= measQbit a"])
    def test_length_that_does_not_fit_is_a_type_error(
            self, tmp_path, capsys, pre, stmt):
        path = tmp_path / "len.qh"
        path.write_text(
            f"g : \\Pi a : Qbit. {{{pre}}} r : 1 {{T}}\n"
            f"  = \\a. do {stmt}; return ()\n")
        for args in (["check"], ["vcs"], ["trace", "g"], ["run", "g"]):
            code, _, err = run_cli([args[0], str(path), *args[1:]], capsys)
            assert code == 2, (args, err)
        _, out, _ = run_cli(["check", str(path)], capsys)
        assert out == (f"{path}: g: type-error (1:1: a state of 4 amplitudes "
                       f"at 1 qubit(s), which take 2)\n")

    def test_pair_location(self, tmp_path, capsys):
        path = tmp_path / "pair.qh"
        path.write_text(
            "k : \\Pi a : Qbit. \\Pi b : Qbit. {(a, b) |-> |vec(1, 0)\\>}"
            " r : 1 {T}\n"
            "  = \\a. \\b. do applyU (H a); return ()\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert out == (f"{path}: k: type-error (1:1: a state of 2 amplitudes "
                       f"at 2 qubit(s), which take 4)\n")


class TestByteOrderMark:
    """A UTF-8 byte-order mark opening a file is not part of its source."""

    @pytest.mark.parametrize("args", [["check"], ["run", "bell"],
                                      ["trace", "bell"]],
                             ids=lambda a: a[0])
    def test_same_output_as_without_mark(self, args, tmp_path, monkeypatch,
                                         capsys):
        source = (CORPUS_DIR / "bellpair.qh").read_bytes()
        (tmp_path / "plain.qh").write_bytes(source)
        (tmp_path / "marked.qh").write_bytes(b"\xef\xbb\xbf" + source)
        monkeypatch.chdir(tmp_path)
        command, *rest = args
        code, out, _ = run_cli([command, "plain.qh", *rest], capsys)
        assert run_cli([command, "marked.qh", *rest], capsys)[:2] == \
            (code, out.replace("plain.qh", "marked.qh"))


class TestNestingLimit:
    """Input nested past the recursion limit is a diagnostic at the token
    where the parser stood when the limit was hit."""

    @pytest.mark.parametrize("source,opener", [
        ("t : {emp} r : Bool {T}\n  = do return " + "(" * 400 + "true"
         + ")" * 400 + "\n", "("),
        ("t : {emp} r : Bool {" + "~" * 3000 + "T}\n  = do return true\n",
         "~"),
    ], ids=["parentheses", "negations"])
    def test_diagnostic_points_into_the_nesting(self, source, opener,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        (tmp_path / "nested.qh").write_text(source)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["check", "nested.qh"], capsys)
        assert code == 2
        m = re.fullmatch(r"nested\.qh:(\d+):(\d+): error: input nested "
                         r"too deeply\n", out)
        assert m, out
        line, col = map(int, m.groups())
        assert (line, col) != (1, 1)
        assert source.splitlines()[line - 1][col - 1] == opener


class TestConsoleEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qhoare.cli", "check",
             corpus("hqw.qh")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verified" in proc.stdout


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

    def test_cell_past_the_cap_is_a_type_error(self, tmp_path, capsys):
        # the last gate joins qubit n - 1 to a cell of MAX_WIDTH qubits
        n = MAX_WIDTH + 1
        source = ghz_source(n)
        path = tmp_path / f"ghz{n}.qh"
        path.write_text(source)
        stmt = f"applyU (ifQ q{(n - 2) // 2} (X q{n - 1}))"
        lines = source.splitlines()
        line = next(i for i, text in enumerate(lines, 1) if stmt in text)
        where = f"{line}:{lines[line - 1].index(stmt) + 1}"
        start = time.perf_counter()
        code, out, _ = run_cli(["check", str(path)], capsys)
        elapsed = time.perf_counter() - start
        assert (code, out) == (
            2, f"{path}: ghz: type-error ({where}: the gate joins a cell of "
               f"{n} qubits, more than the {MAX_WIDTH} that heap.MAX_WIDTH "
               f"allows)\n")
        assert elapsed < 1.0
        assert run_cli(["run", str(path), "ghz", "--shots", "1"],
                       capsys)[0] == 2


class TestNonFiniteLiteral:
    """A numeric literal too large for a float is a parse error at the
    literal, under every command."""

    @pytest.mark.parametrize("source", [
        "g : {emp} r : 1 {T} = do q <= mkQbit false; "
        "applyU (rot q ((1e999, 0), (0, 1))); return ()\n",
        "g : {emp} r : 1 {T} = do q <= mkQbit false; "
        "applyU (rot q ((1, 0), (0, 1e999i))); return ()\n",
        "g : \\Pi a : Qbit. {a |-> |vec(1e999, 0)\\>} r : 1 {T}\n"
        "  = \\a. do return ()\n",
    ], ids=["matrix", "imaginary", "vector"])
    @pytest.mark.parametrize("args", [["check"], ["vcs"], ["trace", "g"],
                                      ["run", "g"]],
                             ids=["check", "vcs", "trace", "run"])
    def test_parse_error_at_the_literal(self, source, args, tmp_path,
                                        capsys):
        path = tmp_path / "inf.qh"
        path.write_text(source)
        code, out, _ = run_cli([args[0], str(path), *args[1:]], capsys)
        col = source.index("1e999") + 1
        assert (code, out) == (
            2, f"{path}:1:{col}: error: numeric literal 1e999 is not "
               f"finite\n")


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDepth:
    def test_straight_line_blocks_under_low_recursion_limit(self, tmp_path,
                                                            capsys):
        # Every walker loops over a block's statements, so a lowered
        # recursion limit, under which one frame per statement fails near
        # 150 statements, bounds no block length.
        commands = [["check"], ["vcs"], ["trace", "deep"],
                    ["run", "deep", "--shots", "10"]]
        codes = {}
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 200)
        try:
            for n in (150, 400, 2000):
                path = tmp_path / f"deep{n}.qh"
                path.write_text(straight_line_source(n))
                for name, *rest in commands:
                    codes[name, n] = run_cli([name, str(path), *rest],
                                             capsys)[0]
        finally:
            sys.setrecursionlimit(old)
        assert {key: c for key, c in codes.items() if c != 0} == {}


CALLER_OF_LONG = "caller : {emp} r : Bool {T} = do x <- long; return x\n"


class TestLongPostcondition:
    def test_written_chain_of_5000_conjuncts(self, tmp_path, capsys):
        # The walkers over assertions loop along the left spine of an
        # `And` chain, so a long written postcondition needs no deeper
        # stack at the default recursion limit.
        path = tmp_path / "long.qh"
        path.write_text(long_postcondition_source(5000))
        codes = {}
        for name, *rest in (["check"], ["vcs"], ["trace", "long"],
                            ["run", "long", "--shots", "10"]):
            codes[name] = run_cli([name, str(path), *rest], capsys)[:3:2]
        assert codes == {name: (0, "") for name in codes}

    def test_caller_of_a_written_chain_of_5000_conjuncts(self, tmp_path,
                                                         capsys):
        # the caller substitutes into the callee's postcondition and
        # denotes it as heap branches, each along the chain in a loop
        path = tmp_path / "caller.qh"
        path.write_text(long_postcondition_source(5000) + CALLER_OF_LONG)
        codes = {}
        for name, *rest in (["check"], ["check", "--format", "json"],
                            ["vcs"], ["trace", "caller"],
                            ["run", "caller", "--shots", "10"]):
            code, out, err = run_cli([name, str(path), *rest], capsys)
            codes[name, *rest[:2]] = code, err
        assert codes == {key: (0, "") for key in codes}

    def test_caller_ascribing_a_chain_of_5000_conjuncts(self, tmp_path,
                                                        capsys):
        # the ascribed type is compared with the callee's: both are
        # renamed and compared along the chain in a loop
        path = tmp_path / "ascribed.qh"
        path.write_text(long_postcondition_source(5000)
                        + ascribing_caller_source(5000))
        codes = {}
        for name, *rest in (["check"], ["vcs"], ["trace", "ascribed"],
                            ["run", "ascribed", "--shots", "10"]):
            codes[name] = run_cli([name, str(path), *rest], capsys)[:3:2]
        assert codes == {name: (0, "") for name in codes}


CALLER_OF_LONGD = "caller : {emp} r : Bool {T} = do x <- longd; return x\n"


class TestLongPrecondition:
    @pytest.mark.parametrize("connective", [And, Or])
    def test_caller_of_a_written_chain_of_5000_links(self, connective,
                                                     tmp_path, capsys):
        # the call site reads the callee's precondition in its small
        # footprint, link by link, before it denotes it as heap branches
        path = tmp_path / "caller.qh"
        path.write_text(long_precondition_source(5000, connective)
                        + CALLER_OF_LONGD)
        codes = {}
        for name, *rest in (["check"], ["check", "--format", "json"],
                            ["vcs"], ["trace", "caller"],
                            ["run", "caller", "--shots", "10"]):
            code, out, err = run_cli([name, str(path), *rest], capsys)
            codes[name, *rest[:2]] = code, err
        assert codes == {key: (0, "") for key in codes}


# capture renaming draws `%r1`, `%r2`, ... when `g b` instantiates g's
# ghost `b`, once per call
RENAMING_PROBE = (
    "g : \\Pi a : Bool. {exists b : Bool. Id(a, b)} r : Bool {T}"
    " = \\a. do return a\n"
    "f : {emp} r : Bool {T} = do b <- g true; c <- g b; return c\n")


class TestRenamedBinders:
    def test_each_command_prints_what_a_fresh_process_prints(self, tmp_path,
                                                             capsys):
        # each command draws renamed binders from `%r1` again, whatever
        # ran before it in the process
        path = tmp_path / "probe.qh"
        path.write_text(RENAMING_PROBE)
        argv = ["vcs", str(path), "--format", "json"]
        outs = [run_cli(argv, capsys)[1] for _ in range(3)]
        src = str(pathlib.Path(__file__).parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "qhoare.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert "exists %r1 : Bool. Id(b, %r1)" in proc.stdout
        assert outs == [proc.stdout] * 3


class TestFuzz:
    def test_token_mutations_never_exit_3(self, tmp_path, capsys):
        # Delete, duplicate, swap or replace tokens of the corpus and
        # negative files, keeping the whitespace: whatever the result,
        # `check` and `vcs` report it, never an internal error (exit 3).
        path = tmp_path / "mutant.qh"
        crashes = []
        for source in token_mutants(
                [p.read_text() for p in CORPUS_FILES + NEGATIVE_FILES], 7,
                1000):
            path.write_text(source)
            for args in (["check"], ["vcs", "--format", "json"]):
                code, _, err = run_cli([args[0], str(path), *args[1:]],
                                       capsys)
                if code == 3:
                    crashes.append((source, args, err))
        assert crashes == []


class TestAscriptionsInBranches:
    """An ascribed value in a conditional branch is checked against its
    ascription.  An ascribed `do` block is checked against its Hoare type
    and run as a call to it; the runtime runs it in place."""

    BRANCH_VALUE = (
        "f : {emp} r : Bool {T}\n"
        "  = do x <= mkQbit false;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then (true : Qbit) else (false : Qbit);\n"
        "       return z\n")
    BRANCH_RETURN = (
        "f : {emp} r : Bool {T}\n"
        "  = do x <= mkQbit false;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then do return (true : Qbit)\n"
        "            else do return (false : Qbit);\n"
        "       return z\n")
    WELL_TYPED = (
        "g : {emp} r : Bool {Id(r, true)}\n"
        "  = do x <= mkQbit false;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then (true : Bool) else (true : Bool);\n"
        "       return z\n")
    ASCRIBED_BLOCK = (
        "f : {emp} r : {emp} s : Bool {T} {T}\n"
        "  = do x <= mkQbit false;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then (do return true : {emp} s : Bool {T})\n"
        "            else (do return false : {emp} s : Bool {T});\n"
        "       return z\n")
    BLOCK = (
        "f : {emp} r : Bool {%s}\n"
        "  = do x <= mkQbit false;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then (do return true : {emp} s : Bool {Id(s, %s)})\n"
        "            else (do return true : {emp} s : Bool {Id(s, %s)});\n"
        "       return z\n")

    PAIR_BLOCK = (
        "f : {emp} (a, b) : (Qbit, Qbit) {Id(a, |0\\>) /\\ Id(b, |0\\>)}\n"
        "  = do x <= mkQbit false;\n"
        "       y <= measQbit x;\n"
        "       z <= if y then (do a <= mkQbit false; b <= mkQbit false;\n"
        "                          return (a, b)\n"
        "                        : %s)\n"
        "            else (do a <= mkQbit false; b <= mkQbit false;\n"
        "                     return (a, b)\n"
        "                   : %s);\n"
        "       return z\n")
    PAIR_TYPE = "{emp} (a, b) : (Qbit, Qbit) {Id(a, |0\\>) /\\ Id(b, |%s\\>)}"

    @pytest.mark.parametrize("source, where", [
        (BRANCH_VALUE, "4:8"), (BRANCH_RETURN, "4:26")],
        ids=["value", "return"])
    def test_ill_typed_ascription_is_a_type_error(self, source, where,
                                                  tmp_path, capsys):
        path = tmp_path / "asc.qh"
        path.write_text(source)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (2, f"{path}: f: type-error ({where}: term "
                                  f"true does not have type Qbit)\n")
        code, out, err = run_cli(["run", str(path), "f"], capsys)
        assert (code, out, err) == (2, "", f"{path}: f: type-error\n")

    def test_well_typed_ascription_verifies_and_runs(self, tmp_path, capsys):
        path = tmp_path / "asc.qh"
        path.write_text(self.WELL_TYPED)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (0, f"{path}: g: verified\n")
        code, out, _ = run_cli(["run", str(path), "g", "--shots", "5"],
                               capsys)
        assert code == 0
        assert "  true: 5\n" in out and "pass=5 fail=0" in out

    def test_ascribed_block_returns_its_result_type(self, tmp_path, capsys):
        path = tmp_path / "asc.qh"
        path.write_text(self.ASCRIBED_BLOCK)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (2, f"{path}: f: type-error (6:8: expected "
                                  f"{{emp}} s : Bool {{T}}, found Bool)\n")

    def test_ascribed_block_is_checked_against_its_type(self, tmp_path,
                                                        capsys):
        # both blocks return true, against their ascribed Id(s, false)
        path = tmp_path / "asc.qh"
        path.write_text(self.BLOCK % ("T", "false", "false"))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (1, (
            f"{path}: f: refuted\n"
            "    4:27: postconditionVC refuted: Id(s, false)  (declared "
            "postcondition)\n"
            "    5:22: postconditionVC refuted: Id(s, false)  (declared "
            "postcondition)\n"))
        code, out, err = run_cli(["run", str(path), "f"], capsys)
        assert (code, out, err) == (1, "", f"{path}: f: refuted statically; "
                                           f"use --force to run anyway\n")
        code, out, _ = run_cli(["run", str(path), "f", "--force",
                                "--shots", "5"], capsys)
        assert "  true: 5\n" in out

    def test_ascribed_block_binds_a_pair(self, tmp_path, capsys):
        # a pair binder, as bell's, names the two qubits the block returns
        path = tmp_path / "asc.qh"
        path.write_text(self.PAIR_BLOCK % (self.PAIR_TYPE % 0,
                                           self.PAIR_TYPE % 0))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (0, f"{path}: f: verified\n")
        code, out, _ = run_cli(["run", str(path), "f", "--shots", "5"],
                               capsys)
        assert code == 0 and "pass=5 fail=0" in out
        # a wrong pair post is the block's own refuted obligation
        path.write_text(self.PAIR_BLOCK % (self.PAIR_TYPE % 1,
                                           self.PAIR_TYPE % 0))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 1 and out.splitlines()[:2] == [
            f"{path}: f: refuted",
            "    5:27: postconditionVC refuted: Id(a, |0\\>) /\\ "
            "Id(b, |1\\>)  (declared postcondition)"]

    def test_ascribed_block_binds_a_pair_to_one_name(self, tmp_path, capsys):
        # one binder of pair type: the prover leaves the block's own post
        # open, and the caller reads the pair's two cells from it
        path = tmp_path / "asc.qh"
        one = "{emp} s : (Qbit, Qbit) {s |-> |vec(1, 0, 0, 0)\\>}"
        path.write_text(self.PAIR_BLOCK % (one, one))
        code, out, _ = run_cli(["check", str(path)], capsys)
        unknown = ("postconditionVC unknown: s |-> |vec(1, 0, 0, 0)\\>  "
                   "(declared postcondition)\n")
        assert (code, out) == (0, f"{path}: f: conditional\n"
                                  f"    5:27: {unknown}    8:22: {unknown}")

    def test_block_ascribed_a_value_type_is_a_type_error(self, tmp_path,
                                                          capsys):
        path = tmp_path / "asc.qh"
        path.write_text("h : {emp} r : Bool {T}\n"
                        "  = do y <= if true then (do return true : Bool)\n"
                        "            else (do return false : Bool);\n"
                        "       return y\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (2, f"{path}: h: type-error (2:8: a suspended "
                                  f"computation needs a Hoare type, not "
                                  f"Bool)\n")

    def test_ascribed_block_splices_its_postcondition(self, tmp_path,
                                                      capsys):
        # the caller knows of the block only what its ascription says
        path = tmp_path / "asc.qh"
        path.write_text(self.BLOCK % ("Id(r, true)", "true", "true"))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (0, f"{path}: f: verified\n")
        code, out, _ = run_cli(["run", str(path), "f", "--shots", "5"],
                               capsys)
        assert code == 0
        assert "  true: 5\n" in out and "pass=5 fail=0" in out


class TestCountermodelOfRepeatedModels:
    # `b` is `y`: the models of the postcondition run through (x, y) =
    # FF, FT, TF, TT, and FT and TT refute it with one heap and one `b`
    SOURCE = (
        "two : {emp} (a, b) : (Bool, Bool) {Id(b, false)}\n"
        "    = do q <= mkQbit false;\n"
        "         applyU (H q);\n"
        "         x <= measQbit q;\n"
        "         p <= mkQbit false;\n"
        "         applyU (H p);\n"
        "         y <= measQbit p;\n"
        "         return (x, y)\n")

    def test_the_first_refuting_model_is_reported(self, tmp_path, capsys):
        path = tmp_path / "two.qh"
        path.write_text(self.SOURCE)
        code, out, _ = run_cli(["check", "--format", "json", str(path)],
                               capsys)
        assert code == 1
        (post,) = [ob for ob in json.loads(out)["decls"][0]["obligations"]
                   if ob["kind"] == "postconditionVC"]
        assert _dumps(post["countermodel"]) == _dumps({
            "env": {"a": "false", "b": "true", "p": "p", "q": "q",
                    "x": "false", "y": "true"},
            "heap": {"": "empty"}})


class TestNoCyclicGarbage:
    """With the cyclic collector off, a `check --format json` or a `run`
    leaves no reference cycle behind: the walks that call themselves are
    module-level functions, not closures over their own cells."""

    def test_check_and_run_leave_no_cycles(self, tmp_path):
        bench = {p.decl: p for p in benchmark_programs(1)}
        runs = list(GOLDEN_RUNS)
        for name in ("coins6", "deep900"):
            (tmp_path / f"{name}.qh").write_text(bench[name].source)
            runs.append((tmp_path / f"{name}.qh", name))
        argvs = [["check", str(path), "--format", "json"]
                 for path in CORPUS_FILES + [tmp_path / "coins6.qh",
                                             tmp_path / "deep900.qh"]]
        argvs += [["run", str(CORPUS_DIR / path), decl, "--shots", "20"]
                  for path, decl in runs]
        left = {}
        gc.collect()
        gc.disable()
        try:
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
                left[" ".join(argv[:3])] = gc.collect()
        finally:
            gc.enable()
        assert {k: n for k, n in left.items() if n} == {}
