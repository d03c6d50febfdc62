"""Shot replay along the measurement-outcome trie: ``run_program`` must give
the report of a loop that interprets every shot, for any trie size."""

import random
import sys
import tracemalloc
from types import SimpleNamespace

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
from genlib import coin_block_source

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
        seen = set()  # one verdict per shot for each distinct conjunct
        for conj in conjuncts(sig.post):
            text = sim.pretty(conj)
            if text in seen:
                continue
            seen.add(text)
            result = check_assertion_runtime(conj, env, final)
            counts = assertions.setdefault(text, [0, 0, 0])
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


# measurements whose outcome is certain (p_true of 0 or 1) before and
# between coins: the replay seeds a shot's stream only at its first coin
CERTAIN_FIRST_SOURCE = """\
c : {emp} (a, b) : (Bool, Bool) {Id(a, true) /\\ emp}
  = do q0 <= mkQbit true;
       m0 <= measQbit q0;
       q1 <= mkQbit false;
       applyU (X q1);
       m1 <= measQbit q1;
       q2 <= mkQbit false;
       applyU (H q2);
       m2 <= measQbit q2;
       q3 <= mkQbit false;
       m3 <= measQbit q3;
       q4 <= mkQbit true;
       applyU (rot q4 ((0.6, -0.8), (0.8, 0.6)));
       m4 <= measQbit q4;
       return (m0, (m1, (m2, (m3, m4))))
"""

# GHZ-3: one coin, then two measurements its outcome decides
GHZ_SOURCE = """\
ghz : {emp} (a, b) : (Bool, Bool) {emp /\\ Id(a, b)}
  = do x <= mkQbit false;
       y <= mkQbit false;
       z <= mkQbit false;
       applyU (H x);
       applyU (ifQ x (X y));
       applyU (ifQ y (X z));
       a <= measQbit x;
       b <= measQbit y;
       c <= measQbit z;
       return (a, (b, c))
"""


@pytest.mark.parametrize("source,decl,paths", [
    (CERTAIN_FIRST_SOURCE, "c", 4), (GHZ_SOURCE, "ghz", 2),
], ids=["certain-first", "ghz"])
def test_certain_outcomes_match_reference_loop(source, decl, paths):
    parsed = parse_program(source)
    assert parsed.ok, [d.render() for d in parsed.diagnostics]
    for seed in (0, 1, 7, 12345):
        rep = run_program(parsed.program, decl, seed=seed, shots=300)
        assert summary(rep) == reference_run(parsed.program, decl, seed,
                                             300)
        assert len(rep.outcomes) == paths, rep.outcomes


class SeedCounter(random.Random):
    """``random.Random`` that records each explicit seed it is given."""

    seeds = []

    def seed(self, a=None, version=2):
        if a is not None:
            SeedCounter.seeds.append(a)
        super().seed(a, version)


@pytest.mark.parametrize("fname,decl,coin", [
    ("hqw.qh", "hqw", False), ("bellpair.qh", "qplus", False),
    ("rnd.qh", "rnd", True),
])
def test_shot_stream_seeded_only_where_a_draw_decides(fname, decl, coin,
                                                      monkeypatch):
    misses = count_full_runs(monkeypatch)
    seeds = []
    monkeypatch.setattr(SeedCounter, "seeds", seeds)
    monkeypatch.setattr(sim, "random", SimpleNamespace(Random=SeedCounter))
    rep = run_program(corpus_program(fname), decl, seed=4, shots=1000)
    assert sum(rep.outcomes.values()) == 1000
    # shot_rng seeds one stream per trie miss; the replay seeds the rest
    replayed = len(seeds) - len(misses)
    assert 0 < len(misses) <= 2
    if coin:
        assert 1000 - len(misses) <= replayed <= 1000
    else:
        assert replayed == 0


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


# `q` is rebound after the coin: a resume that reused the snapshot's env
# instead of a copy would measure `b` twice from the second resume on
REBIND_AFTER_COIN = """\
rb : {emp} r : (Bool, (Bool, Bool)) {T}
  = do a <= mkQbit false;
       b <= mkQbit true;
       c <= mkQbit false;
       q : Qbit = a;
       applyU (H c);
       m <= measQbit c;
       x <= measQbit q;
       q : Qbit = b;
       y <= measQbit q;
       return (m, (x, y))
"""


def test_report_does_not_depend_on_trie_cap(monkeypatch):
    cases = [(generated(case, 6), "g") for case in (0, 3)]
    cases.append((corpus_program("testbell.qh"), "testBell"))
    cases.append((coin_program(5), "coins"))
    cases.append((parse_program(REBIND_AFTER_COIN).program, "rb"))
    want = [run_program(p, d, seed=11, shots=120).as_dict()
            for p, d in cases]
    for cap in (0, 1, 5, 40):
        monkeypatch.setattr(sim, "TRIE_CAP", cap)
        got = [run_program(p, d, seed=11, shots=120) for p, d in cases]
        assert [rep.as_dict() for rep in got] == want, cap
        # past the cap a snapshot is resumed again by each shot that
        # reaches it, so it must not be consumed by the first
        for (p, d), rep in zip(cases, got):
            assert summary(rep) == reference_run(p, d, 11, 120), (cap, d)


def count_runs(monkeypatch) -> list:
    """Record the value of each leaf ``run_program`` builds: one per
    interpreter run, whether from the start or from a snapshot."""
    runs = []

    class CountingLeaf(sim._Leaf):
        __slots__ = ()

        def __init__(self, value, slots):
            runs.append(value)
            super().__init__(value, slots)

    monkeypatch.setattr(sim, "_Leaf", CountingLeaf)
    return runs


def count_full_runs(monkeypatch) -> list:
    """Record each shot interpreted from the start (its stream is made by
    ``shot_rng``; a resumed shot continues the replay's stream)."""
    misses = []

    def counting(seed, shot):
        misses.append(shot)
        return shot_rng(seed, shot)

    monkeypatch.setattr(sim, "shot_rng", counting)
    return misses


def test_each_outcome_path_is_interpreted_once(monkeypatch):
    runs = count_runs(monkeypatch)
    rep = run_program(corpus_program("testbell.qh"), "testBell", seed=0,
                      shots=1000)
    assert len(runs) == len(rep.outcomes) == 2
    runs.clear()
    rep = run_program(generated(0, 6), "g", seed=2, shots=500)
    # one interpreter run per distinct path; error paths are leaves too
    assert len(runs) < 500
    assert len(runs) >= len(rep.outcomes)


def coin_program(n):
    return parse_program(coin_block_source(n)).program


@pytest.mark.parametrize("k", [1, 4, 6])
def test_coin_block_runs_each_gate_once(k, monkeypatch):
    calls = {"apply_unitary": 0, "eval_unitary": 0}
    for name in calls:
        def counting(*a, _f=getattr(sim, name), _name=name):
            calls[_name] += 1
            return _f(*a)
        monkeypatch.setattr(sim, name, counting)
    runs = count_runs(monkeypatch)
    full = count_full_runs(monkeypatch)
    program = coin_program(k)
    rep = run_program(program, "coins", seed=3, shots=1000)
    assert len(rep.outcomes) == len(runs) == 2 ** k
    # the gates precede the measurements: only the first shot runs them,
    # the other paths resume from a snapshot
    assert calls == {"apply_unitary": k, "eval_unitary": k}
    assert full == [0]
    assert summary(rep) == reference_run(program, "coins", 3, 1000)


def test_resume_after_certain_measurements(monkeypatch):
    # CERTAIN_FIRST_SOURCE measures two certain qubits before its first
    # coin, so a resumed shot's stream must already have discarded their
    # draws, as a shot interpreted from the start reads them
    program = parse_program(CERTAIN_FIRST_SOURCE).program
    for seed in (0, 1, 7):
        runs = count_runs(monkeypatch)
        full = count_full_runs(monkeypatch)
        rep = run_program(program, "c", seed=seed, shots=300)
        assert len(full) == 1 and len(runs) == len(rep.outcomes) == 4
        assert summary(rep) == reference_run(program, "c", seed, 300)


# measurements inside a called declaration take no snapshot: each of
# teleport's four paths is interpreted from the start, while the
# caller's own measurement of the teleported |+> is resumed
TELEPORT_CALLER = """
tp : {emp} r : Bool {emp}
   = do q <- qplus;
        t <- teleport q;
        m <= measQbit t;
        return m
"""


def test_nested_measurements_fall_back_to_full_runs(monkeypatch):
    program = parse_program(
        (CORPUS_DIR / "teleport.qh").read_text() + TELEPORT_CALLER).program
    for seed in (0, 5):
        runs = count_runs(monkeypatch)
        full = count_full_runs(monkeypatch)
        rep = run_program(program, "tp", seed=seed, shots=400)
        assert len(full) == 4 and len(runs) == 8
        assert summary(rep) == reference_run(program, "tp", seed, 400)


def test_snapshot_memory_does_not_grow_with_shots():
    # 4,000 shots reach almost all 1,024 paths, so almost every node has
    # dropped its snapshot; 250 shots reach about 220 paths and leave many
    # nodes with one child.  Kept snapshots would double the peak.
    program = coin_program(10)
    peaks = []
    for shots in (250, 4000):
        tracemalloc.start()
        try:
            run_program(program, "coins", seed=0, shots=shots)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0], peaks


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
