"""Independent reference model: exact outcome distributions of a circuit.

A dense statevector grown with ``numpy.kron`` as qubits are allocated,
with gates applied to the reshaped ``(2,) * n`` tensor.  It shares no code
with qhoare.  By the deferred-measurement principle, measuring at the end
gives the same distribution as measuring where the program does, because
no gate acts on a qubit after it is measured and no gate depends on a
measured bit.  The value renderer mirrors qhoare's documented output
format: ``true``/``false``, ``q<k>`` for the k-th allocated qubit, and
``(x, y)`` for pairs.
"""

from __future__ import annotations

import itertools

import numpy as np

_S = 2 ** -0.5
GATES = {
    "H": np.array([[_S, _S], [_S, -_S]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
KET = {False: np.array([1, 0], dtype=complex),
       True: np.array([0, 1], dtype=complex)}
ZERO_TOL = 1e-12


def statevector(circuit) -> np.ndarray:
    """Final state of ``circuit``; qubit 0 is the most significant axis."""
    state = np.ones(1, dtype=complex)
    n = 0
    for op in circuit:
        if op[0] == "alloc":
            state = np.kron(state, KET[op[1]])
            n += 1
            continue
        psi = state.reshape((2,) * n)
        if op[0] == "u":
            _, q, g = op
            psi = np.moveaxis(np.tensordot(GATES[g], psi, axes=([1], [q])),
                              0, q)
        elif op[0] == "cu":
            _, c, t, g = op
            psi = psi.copy()
            idx = [slice(None)] * n
            idx[c] = 1
            sub = psi[tuple(idx)]
            tt = t if t < c else t - 1
            psi[tuple(idx)] = np.moveaxis(
                np.tensordot(GATES[g], sub, axes=([1], [tt])), 0, tt)
        else:
            raise ValueError(f"unknown circuit operation {op!r}")
        state = psi.reshape(-1)
    return state


def render(value, bits) -> str:
    if isinstance(value, tuple) and value[0] == "bit":
        return "true" if bits[value[1]] else "false"
    if isinstance(value, tuple) and value[0] == "qubit":
        return f"q{value[1]}"
    return f"({render(value[0], bits)}, {render(value[1], bits)})"


def distribution(circuit, value) -> dict:
    """Exact probability of each rendered outcome."""
    state = statevector(circuit)
    n = int(np.log2(state.size))
    probs = np.abs(state) ** 2
    out = {}
    for index, bits in enumerate(itertools.product((False, True), repeat=n)):
        if probs[index] <= ZERO_TOL:
            continue
        key = render(value, bits)
        out[key] = out.get(key, 0.0) + float(probs[index])
    return out
