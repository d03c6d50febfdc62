import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from qhoare.parser import parse_program

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
NEGATIVE_DIR = pathlib.Path(__file__).parent / "negative"
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CORPUS_FILES = sorted(CORPUS_DIR.glob("*.qh"))
NEGATIVE_FILES = sorted(NEGATIVE_DIR.glob("*.qh"))

# declarations that must verify, per file
VERIFIED_DECLS = {
    "hqw.qh": ["hqw"],
    "rnd.qh": ["rnd"],
    "testbell.qh": ["testBell"],
    "bellpair.qh": ["qplus", "qminus", "share", "bell", "testBell"],
}


def decl_result(checked, name: str):
    """The ``DeclResult`` named ``name`` of the ``CheckedProgram``
    ``checked``."""
    return next(d for d in checked.decls if d.name == name)


def state_vector(state):
    """The live qubits of a runtime ``sim.QuantumState`` in allocation
    order, and the dense vector of the product of its cells over them, the
    first qubit most significant."""
    t, names = np.ones((), dtype=complex), ()
    for qubits, vec in state.cells:
        t = np.multiply.outer(t, vec.reshape((2,) * len(qubits)))
        names += qubits
    live = tuple(sorted(names))
    return live, np.transpose(t, [names.index(q) for q in live]).reshape(-1)


@pytest.fixture(scope="session")
def corpus():
    out = {}
    for path in CORPUS_FILES:
        res = parse_program(path.read_text(), str(path))
        assert res.ok, [d.render() for d in res.diagnostics]
        out[path.name] = res.program
    return out


@pytest.fixture(scope="session")
def checked_corpus(corpus):
    from qhoare.typecheck import check_program
    return {name: check_program(prog) for name, prog in corpus.items()}
