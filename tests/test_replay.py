"""Shot replay along the measurement-outcome trie: ``run_program`` must give
the report of a loop that interprets every shot, for any trie size."""

import random
import sys

import pytest

from qhoare import sim
from qhoare.core import And
from qhoare.parser import parse_program
from qhoare.sim import (
    GATES, Interpreter, QuantumState, Rot, SimulationError, alloc,
    apply_unitary, check_assertion_runtime, render_value, run_program,
    shot_rng,
)
from conftest import CORPUS_DIR

NULLARY_CORPUS = [
    ("hqw.qh", "hqw"), ("rnd.qh", "rnd"), ("testbell.qh", "testBell"),
    ("bellpair.qh", "qplus"), ("bellpair.qh", "qminus"),
    ("bellpair.qh", "bell"), ("bellpair.qh", "testBell"),
    ("teleport.qh", "bell"),
]


def conjuncts(a):
    if isinstance(a, And):
        return conjuncts(a.left) + conjuncts(a.right)
    return [a]


def reference_run(program, entry, seed, shots, args=(), state=None):
    """Interpret every shot from scratch: the loop the trie replaced."""
    sig = program.decl(entry).signature
    pi_env = {}
    for a in args:
        pi_env[sig.binder] = a
        sig = sig.codomain
    start = QuantumState() if state is None else state
    interp = Interpreter(program)
    outcomes, assertions, errors = {}, {}, 0
    for shot in range(shots):
        try:
            value, final = interp.call(entry, list(args), start,
                                       shot_rng(seed, shot))
        except SimulationError:
            errors += 1
            continue
        outcomes[render_value(value)] = \
            outcomes.get(render_value(value), 0) + 1
        env = dict(pi_env)
        if len(sig.binder) == 1:
            env[sig.binder[0]] = value
        elif isinstance(value, tuple) and len(value) == len(sig.binder):
            for name, comp_value in zip(sig.binder, value):
                env[name] = comp_value
        for conj in conjuncts(sig.post):
            result = check_assertion_runtime(conj, env, final)
            counts = assertions.setdefault(sim.pretty(conj), [0, 0, 0])
            counts[0 if result is True else 1 if result is False else 2] += 1
    return outcomes, assertions, errors


def summary(rep):
    return rep.outcomes, rep.assertions, rep.errors


# ---------------------------------------------------------------------------
# generated programs: up to six measurements, so up to 64 outcome paths

ROTATIONS = [
    "H", "X",
    "rot {q} ((0.6, -0.8), (0.8, 0.6))",
    "rot {q} ((0.8, -0.6), (0.6, 0.8))",
    "rot {q} ((0.28, -0.96), (0.96, 0.28))",
]
POST_ATOMS = ["emp", "Id(a, false)", "Id(a, true)", "T", "Id(a, b)"]


def gate(rng, q):
    g = rng.choice(ROTATIONS)
    return g.format(q=q) if "{q}" in g else f"{g} {q}"


def generated_source(seed: int, measurements=None) -> str:
    """A nullary declaration measuring ``n`` qubits, with corrections
    conditioned on earlier outcomes, an optional dynamic error (measuring a
    retired qubit) and an optional leak that fails ``emp`` at runtime."""
    rng = random.Random(seed)
    n = measurements or rng.randrange(1, 7)
    body = []
    for k in range(n):
        body.append(f"q{k} <= mkQbit {rng.choice(['false', 'true'])};")
        body.append(f"applyU ({gate(rng, f'q{k}')});")
    for k in range(1, n):
        if rng.random() < 0.5:
            body.append(f"applyU (ifQ q{k - 1} ({gate(rng, f'q{k}')}));")
    for k in range(n):
        body.append(f"m{k} <= measQbit q{k};")
        if k + 1 < n and rng.random() < 0.4:
            body.append(f"if m{k} then applyU ({gate(rng, f'q{k + 1}')}) "
                        f"else ();")
    if rng.random() < 0.4:
        j = rng.randrange(n)
        body.append(f"if m{j} then measQbit q{j} else ();")
    if rng.random() < 0.4:
        body.append(f"if m{rng.randrange(n)} then mkQbit false else ();")
    rest = f"m{n - 1}"
    for k in range(n - 2, 0, -1):
        rest = f"(m{k}, {rest})"
    post = " /\\ ".join(rng.choice(POST_ATOMS)
                        for _ in range(rng.randrange(1, 4)))
    lines = [f"g : {{emp}} (a, b) : (Bool, Bool) {{{post}}}",
             "  = do " + body[0]]
    lines += ["       " + line for line in body[1:]]
    lines.append(f"       return (m0, {rest})")
    return "\n".join(lines) + "\n"


def generated(seed: int, measurements=None):
    parsed = parse_program(generated_source(seed, measurements))
    assert parsed.ok, [d.render() for d in parsed.diagnostics]
    return parsed.program


def corpus_program(fname):
    return parse_program((CORPUS_DIR / fname).read_text()).program


def test_generated_programs_match_reference_loop():
    seen = {"errors": 0, "fails": 0, "paths": 0}
    for case in range(24):
        program = generated(case, measurements=6 if case % 3 == 0 else None)
        seed = 1000 + case
        want = reference_run(program, "g", seed, 150)
        rep = run_program(program, "g", seed=seed, shots=150)
        assert summary(rep) == want, generated_source(case)
        seen["errors"] = max(seen["errors"], rep.errors)
        seen["fails"] = max(seen["fails"], rep.failures)
        seen["paths"] = max(seen["paths"], len(rep.outcomes))
    # the cases cover dynamic errors, runtime failures and wide tries
    assert seen["errors"] > 0
    assert seen["fails"] > 0
    assert seen["paths"] >= 24


@pytest.mark.parametrize("fname,decl", NULLARY_CORPUS)
def test_corpus_matches_reference_loop(fname, decl):
    program = corpus_program(fname)
    for seed in (0, 3):
        rep = run_program(program, decl, seed=seed, shots=200)
        assert summary(rep) == reference_run(program, decl, seed, 200)


def plus_input():
    state, q = alloc(QuantumState(), False)
    return apply_unitary(state, Rot(q, GATES["H"])), q


@pytest.mark.parametrize("fname,decl", [("bellpair.qh", "share"),
                                        ("teleport.qh", "share"),
                                        ("teleport.qh", "teleport")])
def test_prepared_input_matches_reference_loop(fname, decl):
    program = corpus_program(fname)
    state, q = plus_input()
    for seed in (0, 5):
        rep = run_program(program, decl, seed=seed, shots=200, args=(q,),
                          state=state)
        assert summary(rep) == reference_run(program, decl, seed, 200,
                                             args=(q,), state=state)


def test_prepared_input_arity_errors():
    program = corpus_program("bellpair.qh")
    state, q = plus_input()
    with pytest.raises(SimulationError):
        run_program(program, "share", shots=1)  # Π binder left unbound
    with pytest.raises(SimulationError):
        run_program(program, "qplus", shots=1, args=(q,), state=state)


def test_report_does_not_depend_on_trie_cap(monkeypatch):
    cases = [(generated(case, 6), "g") for case in (0, 3)]
    cases.append((corpus_program("testbell.qh"), "testBell"))
    want = [run_program(p, d, seed=11, shots=120).as_dict()
            for p, d in cases]
    for cap in (0, 1, 5, 40):
        monkeypatch.setattr(sim, "TRIE_CAP", cap)
        got = [run_program(p, d, seed=11, shots=120).as_dict()
               for p, d in cases]
        assert got == want, cap


def test_each_outcome_path_is_interpreted_once(monkeypatch):
    misses = []

    def counting(seed, shot):
        misses.append(shot)
        return shot_rng(seed, shot)

    monkeypatch.setattr(sim, "shot_rng", counting)
    rep = run_program(corpus_program("testbell.qh"), "testBell", seed=0,
                      shots=1000)
    assert len(misses) == len(rep.outcomes) == 2
    misses.clear()
    rep = run_program(generated(0, 6), "g", seed=2, shots=500)
    # one interpreter run per distinct path; error paths are leaves too
    assert len(misses) < 500
    assert len(misses) >= len(rep.outcomes)


class GuardedRng:
    """A shot stream that admits only ``random()`` called by ``sim.draw``
    on behalf of ``sim.measure``."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def random(self):
        assert sys._getframe(1).f_code is sim.draw.__code__
        assert sys._getframe(2).f_code is sim.measure.__code__
        self.draws += 1
        return self._rng.random()


def test_shot_stream_is_read_only_by_measure():
    # the replay compares one draw per stored measurement, so the
    # interpreter must read the stream nowhere else
    cases = [(corpus_program(f), d) for f, d in NULLARY_CORPUS]
    cases += [(generated(case), "g") for case in range(24)]
    for program, decl in cases:
        interp = Interpreter(program)
        for shot in range(8):
            rng = GuardedRng(shot_rng(3, shot))
            interp.path = []
            try:
                interp.call(decl, [], QuantumState(), rng)
            except SimulationError:
                pass
            assert rng.draws == len(interp.path), decl
