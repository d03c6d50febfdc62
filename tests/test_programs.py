"""Checking and running programs beyond the shipped corpus: let bindings,
locally bound suspended computations, unitary monoid syntax, and reuse
errors."""

from qhoare.parser import parse_program
from qhoare.prover import ALLOCATION, discharge_all
from qhoare.sim import run_program
from qhoare.typecheck import check_program

from conftest import decl_result


def analyze(src: str):
    parsed = parse_program(src, "<test>")
    assert parsed.ok, [d.render() for d in parsed.diagnostics]
    checked = check_program(parsed.program)
    reports = {}
    for dr in checked.decls:
        assert dr.error is None, (dr.name, dr.error and dr.error.message)
        reports[dr.name] = discharge_all(dr.obligations)
    return parsed.program, reports


def test_let_binding_in_do_block():
    src = ("pick : {emp} r : Bool {emp /\\ Id(r, true)}\n"
           "     = do x : Bool = true;\n"
           "          q <= mkQbit x;\n"
           "          measQbit q\n")
    program, reports = analyze(src)
    assert reports["pick"].status == "verified"
    rep = run_program(program, "pick", seed=0, shots=100)
    assert rep.outcomes == {"true": 100}
    assert rep.failures == 0


def test_locally_bound_suspended_computation():
    # a parenthesized do block stored in a let and executed twice
    src = ("twice : {emp} (a, b) : (Bool, Bool) {emp /\\ Id(a, b)}\n"
           "      = do coin : {emp} r : Bool {emp /\\ Id(r, false)}"
           " = (do q <= mkQbit false; measQbit q);\n"
           "           x <- coin;\n"
           "           y <- coin;\n"
           "           return (x, y)\n")
    program, reports = analyze(src)
    assert reports["twice"].status == "verified"
    rep = run_program(program, "twice", seed=1, shots=50)
    assert rep.outcomes == {"(false, false)": 50}
    assert rep.failures == 0


def test_mappend_chain_checks_and_runs():
    src = ("both : {emp} r : Bool {emp /\\ Id(r, true)}\n"
           "     = do q <= mkQbit false;\n"
           "          applyU (mappend (X q) (mappend mempty (Z q)));\n"
           "          measQbit q\n")
    program, reports = analyze(src)
    assert reports["both"].status == "verified"
    rep = run_program(program, "both", seed=2, shots=64)
    assert rep.outcomes == {"true": 64}


def test_double_measurement_refuted_statically():
    src = ("again : {emp} r : Bool {T}\n"
           "      = do q <= mkQbit false;\n"
           "           a <= measQbit q;\n"
           "           measQbit q\n")
    parsed = parse_program(src)
    checked = check_program(parsed.program)
    dr = decl_result(checked, "again")
    assert dr.error is None
    report = discharge_all(dr.obligations)
    assert report.status == "refuted"
    refuted = [ob for ob, v in report.verdicts if v.status == "refuted"]
    assert any(ob.kind == ALLOCATION for ob in refuted)


def test_unitary_on_measured_qubit_refuted():
    src = ("late : {emp} r : Bool {T}\n"
           "     = do q <= mkQbit false;\n"
           "          a <= measQbit q;\n"
           "          applyU (H q);\n"
           "          return a\n")
    parsed = parse_program(src)
    checked = check_program(parsed.program)
    report = discharge_all(decl_result(checked, "late").obligations)
    assert report.status == "refuted"


def test_pure_conditional_in_let():
    src = ("sel : \\Pi b : Bool. {emp} r : Bool {T}\n"
           "    = \\b. do x : Bool = if b then false else true;\n"
           "              q <= mkQbit x;\n"
           "              measQbit q\n")
    parsed = parse_program(src)
    checked = check_program(parsed.program)
    assert decl_result(checked, "sel").error is None
    assert discharge_all(decl_result(checked, "sel").obligations).status == \
        "verified"


def test_three_qubit_merged_cell():
    # one conditional touching three qubits merges them into one cell
    src = ("ghz : {emp} r : Bool {T}\n"
           "    = do a <= mkQbit false;\n"
           "         b <= mkQbit false;\n"
           "         c <= mkQbit false;\n"
           "         applyU (H a);\n"
           "         applyU (ifQ a (mappend (X b) (X c)));\n"
           "         measQbit a\n")
    program, reports = analyze(src)
    assert reports["ghz"].status == "verified"
    rep = run_program(program, "ghz", seed=4, shots=200)
    assert set(rep.outcomes) == {"false", "true"}
    assert rep.failures == 0
