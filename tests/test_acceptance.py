"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria, in order: corpus verification under one second; trace fidelity
for the Bell test; the negative suite with its exit codes; seeded
simulation statistics; teleportation fidelity and conditional status;
the six property suites at 200+ cases; and the soundness smoke sweep.
"""

import json
import time

import numpy as np

from qhoare.cli import main as cli_main
from qhoare.core import (CellGroup, GhostRef, PureT, Var, free_vars, pretty,
                         subst)
from qhoare.parser import parse_assertion, parse_program
from qhoare.prover import discharge_all
from qhoare.sim import (
    GATES, Interpreter, QuantumState, Rot, alloc, apply_unitary,
    dense_vector, run_program, shot_rng,
)
from qhoare.typecheck import check_program
from conftest import CORPUS_DIR, GOLDEN_DIR, NEGATIVE_DIR, VERIFIED_DECLS

REQUIRED = [
    ("hqw.qh", "hqw"), ("rnd.qh", "rnd"), ("testbell.qh", "testBell"),
    ("bellpair.qh", "qplus"), ("bellpair.qh", "qminus"),
    ("bellpair.qh", "share"), ("bellpair.qh", "bell"),
    ("bellpair.qh", "testBell"),
]


def passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_corpus_verification():
    t0 = time.perf_counter()
    status = {}
    for fname in ("hqw.qh", "rnd.qh", "testbell.qh", "bellpair.qh"):
        src = (CORPUS_DIR / fname).read_text()
        parsed = parse_program(src, fname)
        assert parsed.ok
        checked = check_program(parsed.program)
        for dr in checked.decls:
            assert dr.error is None, (fname, dr.name)
            report = discharge_all(dr.obligations)
            status[(fname, dr.name)] = report
    elapsed = time.perf_counter() - t0
    for key in REQUIRED:
        report = status[key]
        assert report.status == "verified", key
        assert report.counts["refuted"] == 0
        assert report.counts["unknown"] == 0
    assert elapsed < 1.0, f"checking took {elapsed:.3f}s"
    passed(1, f"8 declarations verified in {elapsed * 1000:.0f} ms")


EXPECTED_TRACE = [
    "emp",
    "P0 \\o (qa |-> |0\\>)",
    "P1 \\o ((qa |-> |0\\>) -o (qa |-> |+\\>))",
    "P2 \\o (qb |-> |0\\>)",
    "P3 \\o ((qa |-> |+\\>, qb |-> |0\\>) -o (qa, qb) |-> |\\Phi+\\>)",
    "P4 \\o ((qa |-> -) -o emp) \\o ((qb |-> -) -o emp)",
]


def _alpha_trace(a):
    """Rename free names by first occurrence and sort fragment groups."""
    order = []

    def collect(n):
        if isinstance(n, (Var, GhostRef)):
            if n.name not in order and not n.name.startswith("P"):
                order.append(n.name)
        elif hasattr(n, "__dataclass_fields__"):
            for f in n.__dataclass_fields__:
                v = getattr(n, f)
                if isinstance(v, tuple):
                    for i in v:
                        if hasattr(i, "__dataclass_fields__"):
                            collect(i)
                elif hasattr(v, "__dataclass_fields__"):
                    collect(v)

    collect(a)
    renamed = subst(a, {name: Var(f"v{i}") for i, name in enumerate(order)})

    def sort_groups(n):
        if isinstance(n, CellGroup):
            items = tuple(sorted((sort_groups(i) for i in n.items),
                                 key=pretty))
            return CellGroup(items)
        if hasattr(n, "__dataclass_fields__"):
            kwargs = {}
            for f in n.__dataclass_fields__:
                v = getattr(n, f)
                if isinstance(v, tuple):
                    kwargs[f] = tuple(
                        sort_groups(i) if hasattr(i, "__dataclass_fields__")
                        else i for i in v)
                elif hasattr(v, "__dataclass_fields__"):
                    kwargs[f] = sort_groups(v)
                else:
                    kwargs[f] = v
            return type(n)(**kwargs)
        return n

    return sort_groups(renamed)


def test_criterion_2_trace_fidelity(capsys):
    code = cli_main(["trace", str(CORPUS_DIR / "testbell.qh"), "testBell"])
    out = capsys.readouterr().out
    assert code == 0

    golden = (GOLDEN_DIR / "testbell_trace.txt").read_text()
    assert out == golden, "trace output deviates from the golden file"

    annotations = []
    for line in out.splitlines():
        if "-- P" in line:
            text = line.split("-- ", 1)[1]
            label, body = text.split(": ", 1)
            body = body.replace("[refined]", "").strip()
            annotations.append(body)
    assert len(annotations) == 6

    for got_text, want_text in zip(annotations, EXPECTED_TRACE):
        got = parse_assertion(got_text)
        want = parse_assertion(want_text)
        assert _alpha_trace(got) == _alpha_trace(want), \
            (got_text, want_text)
    # the two pinned shapes
    assert annotations[2] == "P1 \\o ((qa |-> |0\\>) -o (qa |-> |+\\>))"
    assert "(qa, qb) |-> |\\Phi+\\>" in annotations[4]
    passed(2, "six trace assertions match the expected structure")


NEGATIVE_CASES = [
    ("hqw_true.qh", "postconditionVC"),
    ("measure_unbound.qh", "allocationVC"),
    ("leak_emp.qh", "postconditionVC"),
    ("rot_nonunitary.qh", "unitarityVC"),
]


def test_criterion_3_negative_suite(capsys):
    for fname, kind in NEGATIVE_CASES:
        code = cli_main(["check", str(NEGATIVE_DIR / fname),
                         "--format", "json"])
        out = capsys.readouterr().out
        assert code in (1, 2), fname
        payload = json.loads(out)
        assert payload["status"] == "refuted", fname
        refuted = [o for d in payload["decls"] for o in d["obligations"]
                   if o["verdict"] == "refuted"]
        assert any(o["kind"] == kind for o in refuted), (fname, refuted)
    passed(3, "four refutations with the expected condition kinds")


def test_criterion_4_simulation_statistics():
    t0 = time.perf_counter()
    hqw = parse_program((CORPUS_DIR / "hqw.qh").read_text()).program
    rep = run_program(hqw, "hqw", seed=0, shots=1000)
    assert rep.outcomes == {"false": 1000}
    assert rep.failures == 0

    bell = parse_program((CORPUS_DIR / "testbell.qh").read_text()).program
    rep = run_program(bell, "testBell", seed=0, shots=1000)
    assert set(rep.outcomes) <= {"(false, false)", "(true, true)"}
    assert sum(rep.outcomes.values()) == 1000
    assert rep.failures == 0

    rnd = parse_program((CORPUS_DIR / "rnd.qh").read_text()).program
    fractions = []
    for seed in (0, 1, 2):
        rep = run_program(rnd, "rnd", seed=seed, shots=10000)
        frac = rep.outcomes.get("true", 0) / 10000
        fractions.append(frac)
        assert 0.48 <= frac <= 0.52, (seed, frac)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"simulation took {elapsed:.2f}s"
    passed(4, f"statistics hold; fractions {fractions}; "
              f"{elapsed:.2f}s total")


def test_criterion_5_teleportation():
    src = (CORPUS_DIR / "teleport.qh").read_text()
    parsed = parse_program(src, "teleport.qh")
    checked = check_program(parsed.program)

    # static side: at worst conditional, residuals only on opaque state
    for dr in checked.decls:
        assert dr.error is None, dr.name
        report = discharge_all(dr.obligations)
        assert report.counts["refuted"] == 0, dr.name
        for ob, verdict in report.verdicts:
            if verdict.status != "unknown":
                continue
            has_opaque = any(
                cell.state.kind in ("opaque", "unknown") or
                not cell.state.exact
                for model in (ob.models or [])
                for cell in model.heap.cells)
            var_types = dict(ob.var_ctx)
            mentions_ghost = any(
                name.startswith("%") or
                isinstance(var_types.get(name), PureT)
                for name in free_vars(ob.conclusion))
            assert has_opaque or mentions_ghost, \
                (dr.name, pretty(ob.conclusion))

    # dynamic side: fidelity with the input state for 100 random states
    interp = Interpreter(parsed.program)
    gen = np.random.default_rng(2718)
    worst = 1.0
    for trial in range(100):
        z = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        q_mat, r = np.linalg.qr(z)
        q_mat = q_mat @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        psi = q_mat[:, 0]
        state = QuantumState()
        state, q = alloc(state, False)
        state = apply_unitary(state, Rot(q, tuple(map(tuple, q_mat))))
        value, state = interp.call("teleport", [q], state,
                                   shot_rng(2718, trial))
        assert state.live == (value,)
        fidelity = abs(np.vdot(psi, dense_vector(state))) ** 2
        worst = min(worst, fidelity)
        assert fidelity >= 1 - 1e-9, (trial, fidelity)
    passed(5, f"100 teleportations, worst fidelity {worst:.12f}; "
              f"static status conditional with opaque residuals")


def test_criterion_6_property_suites():
    from test_sim import TestProperties, TestMeasure
    from test_parser import TestRoundTripProperty
    from test_typecheck import TestNormalize
    from test_prover import TestBruteForceAgreement

    TestProperties().test_normalization_after_every_command()
    TestProperties().test_monoid_laws_by_action()
    TestMeasure().test_collapse_residual_mass()
    TestRoundTripProperty().test_generated_programs()
    TestNormalize().test_idempotence_on_generated_terms()
    TestBruteForceAgreement().test_agreement_on_small_fragment()
    passed(6, "six property suites at 200+ generated cases each")


def _run_with_plus_argument(program, name, seed, shots):
    """Run a one-qubit-argument declaration from a fresh |+> input."""
    state, q = alloc(QuantumState(), False)
    state = apply_unitary(state, Rot(q, GATES["H"]))
    return run_program(program, name, seed=seed, shots=shots, args=(q,),
                       state=state)


def test_criterion_7_soundness_smoke():
    shots = 1000
    seeds = range(100)
    total = 0
    for fname, names in VERIFIED_DECLS.items():
        program = parse_program((CORPUS_DIR / fname).read_text()).program
        for name in names:
            sig = program.decl(name).signature
            for seed in seeds:
                if hasattr(sig, "codomain"):
                    rep = _run_with_plus_argument(program, name, seed, shots)
                else:
                    rep = run_program(program, name, seed=seed, shots=shots)
                assert rep.failures == 0, (fname, name, seed)
                assert rep.errors == 0, (fname, name, seed)
                total += shots
    passed(7, f"{total} shots across verified programs, zero assertion "
              f"failures")
