"""The benchmark's workloads: the operations of one round, with answers.

An operation is one ``qhoare check --format json FILE`` or one
``qhoare run --format json FILE DECL --seed S --shots K`` call.  A round
runs every check operation of the workload ``CHECK_PASSES`` times over,
then every run operation once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import gen
import refmodel
from checks import CheckExpect, RunExpect

WORKLOADS = ("corpus", "coins", "deep", "wide")
# passes over the check operations per round (untraced), so that a round
# times at least about half a second of checking
CHECK_PASSES = {"corpus": 12, "coins": 3, "deep": 1, "wide": 1}

CORPUS_SHOTS = 1000
CORPUS_RUN_SEEDS = 3

# Verdicts the corpus documents (README, "Guarantees checked by the test
# suite"): everything verifies except that the teleportation pipeline may be
# conditional, with residuals confined to opaque state: an assumed input
# (%u...), an entangled half, or the Pure ghost x of `teleport`.
_V = frozenset({"verified"})
_VC = frozenset({"verified", "conditional"})
_R = frozenset({"refuted"})
OPAQUE_RESIDUAL = r"%u\d|entangled\(|\bx\b"
CORPUS_CHECKS = {
    "corpus/hqw.qh": CheckExpect(0, {"hqw": _V}),
    "corpus/rnd.qh": CheckExpect(0, {"rnd": _V}),
    "corpus/testbell.qh": CheckExpect(0, {"testBell": _V}),
    "corpus/bellpair.qh": CheckExpect(0, dict.fromkeys(
        ("qplus", "qminus", "share", "bell", "testBell"), _V)),
    "corpus/teleport.qh": CheckExpect(0, {
        "qplus": _V, "share": _V, "bell": _V,
        "alice": _VC, "bob": _VC, "teleport": _VC},
        residual=OPAQUE_RESIDUAL),
    # each negative file is refuted by the kind of condition it targets
    "negative/hqw_true.qh": CheckExpect(1, {"hqw": _R}, "postconditionVC"),
    "negative/leak_emp.qh": CheckExpect(1, {"leak": _R}, "postconditionVC"),
    "negative/measure_unbound.qh": CheckExpect(1, {"bad": _R},
                                               "allocationVC"),
    "negative/rot_nonunitary.qh": CheckExpect(1, {"brot": _R},
                                              "unitarityVC"),
}

# The circuits of the nullary corpus declarations, read off their sources.
_BELL = (("alloc", False), ("u", 0, "H"), ("alloc", False),
         ("cu", 0, 1, "X"))
CORPUS_RUNS = (
    ("corpus/hqw.qh", "hqw", (("alloc", False),), ("bit", 0)),
    ("corpus/rnd.qh", "rnd", (("alloc", False), ("u", 0, "H")), ("bit", 0)),
    ("corpus/testbell.qh", "testBell", _BELL, (("bit", 0), ("bit", 1))),
    ("corpus/bellpair.qh", "testBell", _BELL, (("bit", 0), ("bit", 1))),
    ("corpus/bellpair.qh", "bell", _BELL, (("qubit", 0), ("qubit", 1))),
    ("corpus/bellpair.qh", "qplus", (("alloc", False), ("u", 0, "H")),
     ("qubit", 0)),
    ("corpus/bellpair.qh", "qminus", (("alloc", True), ("u", 0, "H")),
     ("qubit", 0)),
)


@dataclass(frozen=True)
class Op:
    kind: str           # "check" | "run"
    argv: tuple
    expect: object      # CheckExpect | RunExpect


def _run_op(path: Path, decl: str, seed: int, shots: int, dist: dict) -> Op:
    return Op("run", ("run", str(path), decl, "--seed", str(seed),
                      "--shots", str(shots), "--format", "json"),
              RunExpect(decl, seed, shots, dist))


def _check_op(path: Path, expect: CheckExpect) -> Op:
    return Op("check", ("check", str(path), "--format", "json"), expect)


def build(name: str, seed: int, tests_dir: Path, work_dir: Path) -> list:
    """The operations of one round of workload ``name``.

    Generated sources are written under ``work_dir``; the corpus is read
    from ``tests_dir``.
    """
    rng = random.Random(f"{name}-run-seeds:{seed}")
    if name == "corpus":
        ops = []
        for rel, expect in CORPUS_CHECKS.items():
            path = tests_dir / rel
            if not path.is_file():
                raise FileNotFoundError(path)
            ops.append(_check_op(path, expect))
        for rel, decl, circuit, value in CORPUS_RUNS:
            dist = refmodel.distribution(circuit, value)
            for _ in range(CORPUS_RUN_SEEDS):
                ops.append(_run_op(tests_dir / rel, decl,
                                   rng.randrange(2 ** 31), CORPUS_SHOTS,
                                   dist))
        return ops
    programs = gen.FAMILIES[name](seed)
    checks, runs = [], []
    for p in programs:
        path = work_dir / p.file
        path.write_text(p.source)
        checks.append(_check_op(path, CheckExpect(0, {p.decl: {p.verdict}})))
        runs.append(_run_op(path, p.decl, rng.randrange(2 ** 31), p.shots,
                            refmodel.distribution(p.circuit, p.value)))
    return checks + runs
