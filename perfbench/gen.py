"""Seeded program families for the benchmark, each with its known answer.

Every generated program is one nullary declaration in its own ``.qh`` file.
Alongside the source text each carries what the benchmark checks qhoare
against, all fixed by construction and never read back from qhoare:

* ``verdict``: the status ``check`` must report for the declaration;
* ``circuit``: the gate sequence, which ``refmodel`` turns into the exact
  outcome distribution;
* ``value``: how the returned value is built from measured bits and qubits.

The seed picks names, initial bits, gate order and tree shapes.  It never
changes sizes or gate counts, so the work per program does not depend on
the seed.

Circuit operations (qubits are numbered in allocation order):
``("alloc", bit)``, ``("u", q, gate)`` and ``("cu", control, target, gate)``
with ``gate`` one of ``"H"``, ``"X"``, ``"Z"``.  A value is ``("bit", q)``
(the measured bit of qubit ``q``), ``("qubit", q)`` or a 2-tuple of values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# explicit `rot` matrices, one per gate they spell out
ROT_TEXT = {
    "H": "((0.7071067811865476, 0.7071067811865476), "
         "(0.7071067811865476, -0.7071067811865476))",
    "X": "((0, 1), (1, 0))",
    "Z": "((1, 0), (0, -1))",
}

DEEP_SIZES = (100, 500, 900)
DEEP_SHOTS = 4
WIDE_SIZES = tuple(range(4, 12))
WIDE_SHOTS = 200
COINS_SIZES = tuple(range(1, 7))
COINS_SHOTS = 1000


@dataclass(frozen=True)
class Program:
    file: str
    decl: str
    source: str
    verdict: str
    circuit: tuple
    value: object
    shots: int


def _lit(b: bool) -> str:
    return "true" if b else "false"


def _nest(items: list) -> str:
    """Right-nested pair text: [a, b, c] -> (a, (b, c))."""
    if len(items) == 1:
        return items[0]
    return f"({items[0]}, {_nest(items[1:])})"


def _nest_value(items: list):
    if len(items) == 1:
        return items[0]
    return (items[0], _nest_value(items[1:]))


def _names(rng: random.Random, prefix_pool: str, n: int) -> list:
    prefix = rng.choice(prefix_pool)
    order = list(range(n))
    rng.shuffle(order)
    return [f"{prefix}{i}" for i in order]


def _decl(name: str, binder: str, ty: str, post: str, body: list) -> str:
    head = f"{name} : {{emp}} {binder} : {ty} {{{post}}}\n"
    lines = [f"    = do {body[0]}"] + [f"         {s}" for s in body[1:]]
    return head + ";\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# deep: straight-line single-qubit gate sequences


_H_STEP = {"0": "+", "+": "0", "1": "-", "-": "1"}
_X_STEP = {"0": "1", "1": "0", "+": "+", "-": "-"}
_Z_STEP = {"0": "0", "1": "1", "+": "-", "-": "+"}
_STEP = {"H": _H_STEP, "X": _X_STEP, "Z": _Z_STEP}


def _deep_gates(count: int) -> list:
    """Fixed gate multiset for one qubit: (gate, spelled as rot?) pairs.

    About 40% Hadamards, two of them spelled out as `rot`, and an even
    number in all, so the qubit ends in a basis state and its measured bit
    is certain; about 20% explicit X/Z `rot` matrices; the rest X and Z.
    """
    n_h = 2 * (count // 5)
    n_rot = count // 5
    gates = [("H", True)] * 2 + [("H", False)] * (n_h - 2)
    gates += [("XZ"[i % 2], True) for i in range(n_rot)]
    gates += [("XZ"[i % 2], False) for i in range(count - n_h - n_rot)]
    return gates


def deep_family(seed: int) -> list:
    """Straight-line blocks of n gate applications on one to three qubits."""
    rng = random.Random(f"deep:{seed}")
    out = []
    for idx, n in enumerate(DEEP_SIZES):
        nq = 1 + idx % 3
        names = _names(rng, "abcw", nq)
        init = [rng.random() < 0.5 for _ in range(nq)]
        queue = []
        for q in range(nq):
            count = n // nq + (1 if q < n % nq else 0)
            queue += [(q, g, r) for g, r in _deep_gates(count)]
        rng.shuffle(queue)
        body = [f"{names[q]} <= mkQbit {_lit(init[q])}" for q in range(nq)]
        circuit = [("alloc", b) for b in init]
        state = ["1" if b else "0" for b in init]
        for q, g, as_rot in queue:
            if as_rot:
                body.append(f"applyU (rot {names[q]} {ROT_TEXT[g]})")
            else:
                body.append(f"applyU ({g} {names[q]})")
            circuit.append(("u", q, g))
            state[q] = _STEP[g][state[q]]
        assert all(s in "01" for s in state), state
        bits = [s == "1" for s in state]
        outs = [f"m{names[q]}" for q in range(nq)]
        body += [f"{outs[q]} <= measQbit {names[q]}" for q in range(nq)]
        body.append(f"return {_nest(outs)}")
        ty = _nest(["Bool"] * nq)
        post = f"emp /\\ Id(r, {_nest([_lit(b) for b in bits])})"
        name = f"deep{n}"
        out.append(Program(
            file=f"{name}.qh", decl=name,
            source=_decl(name, "r", ty, post, body), verdict="verified",
            circuit=tuple(circuit),
            value=_nest_value([("bit", q) for q in range(nq)]),
            shots=DEEP_SHOTS))
    return out


# ---------------------------------------------------------------------------
# wide: GHZ cells grown along a random tree


def wide_family(seed: int) -> list:
    """GHZ-n: every measured bit equals the first one."""
    rng = random.Random(f"wide:{seed}")
    out = []
    for n in WIDE_SIZES:
        names = _names(rng, "qst", n)
        root_bit = rng.random() < 0.5
        body = [f"{names[0]} <= mkQbit {_lit(root_bit)}",
                f"applyU (H {names[0]})"]
        circuit = [("alloc", root_bit), ("u", 0, "H")]
        for k in range(1, n):
            parent = rng.randrange(k)
            body.append(f"{names[k]} <= mkQbit false")
            body.append(f"applyU (ifQ {names[parent]} (X {names[k]}))")
            circuit += [("alloc", False), ("cu", parent, k, "X")]
        outs = [f"m{names[k]}" for k in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        body += [f"{outs[k]} <= measQbit {names[k]}" for k in order]
        body.append(f"return ({outs[0]}, {_nest(outs[1:])})")
        ty = f"(Bool, {_nest(['Bool'] * (n - 1))})"
        post = f"emp /\\ Id(r, {_nest(['a'] * (n - 1))})"
        name = f"ghz{n}"
        out.append(Program(
            file=f"{name}.qh", decl=name,
            source=_decl(name, "(a, r)", ty, post, body), verdict="verified",
            circuit=tuple(circuit),
            value=_nest_value([("bit", k) for k in range(n)]),
            shots=WIDE_SHOTS))
    return out


# ---------------------------------------------------------------------------
# coins: independent Bell pairs and Hadamard coins


def coins_family(seed: int) -> list:
    """k random bits from max(1, k // 2) Bell pairs and the rest coins.

    Each program has 2**k equally likely outcomes.  The coins' bits are
    returned as ``a``, the pairs' as ``r``; the postcondition lists every
    agreeing assignment of the pairs.
    """
    rng = random.Random(f"coins:{seed}")
    out = []
    for k in COINS_SIZES:
        pairs = max(1, k // 2)
        coins = k - pairs
        names = _names(rng, "cpu", 2 * pairs + coins)
        body, circuit, pair_vals, coin_vals = [], [], [], []
        pair_outs, coin_outs, meas = [], [], []
        nxt = 0
        # fixed template: pairs and coins alternate, pairs first
        kinds = []
        for i in range(max(pairs, coins)):
            if i < pairs:
                kinds.append("pair")
            if i < coins:
                kinds.append("coin")
        for kind in kinds:
            if kind == "coin":
                q, name = nxt, names[nxt]
                nxt += 1
                b = rng.random() < 0.5
                body += [f"{name} <= mkQbit {_lit(b)}", f"applyU (H {name})"]
                circuit += [("alloc", b), ("u", q, "H")]
                meas.append((q, name))
                coin_outs.append(f"m{name}")
                coin_vals.append(("bit", q))
            else:
                c, t = nxt, nxt + 1
                nc, nt = names[c], names[t]
                nxt += 2
                b = rng.random() < 0.5
                body += [f"{nc} <= mkQbit {_lit(b)}", f"applyU (H {nc})",
                         f"{nt} <= mkQbit false",
                         f"applyU (ifQ {nc} (X {nt}))"]
                circuit += [("alloc", b), ("u", c, "H"), ("alloc", False),
                            ("cu", c, t, "X")]
                halves = [(c, nc), (t, nt)]
                if rng.random() < 0.5:
                    halves.reverse()
                meas += halves
                pair_outs.append(f"(m{halves[0][1]}, m{halves[1][1]})")
                pair_vals.append((("bit", halves[0][0]),
                                  ("bit", halves[1][0])))
        body += [f"m{name} <= measQbit {name}" for _, name in meas]
        agree = []
        for mask in range(2 ** pairs):
            agree.append(_nest([f"({_lit(mask >> i & 1)}, {_lit(mask >> i & 1)})"
                                for i in range(pairs)]))
        disj = " \\/ ".join(f"Id(r, {v})" for v in agree)
        pair_ty = _nest(["(Bool, Bool)"] * pairs)
        if coins:
            body.append(f"return ({_nest(coin_outs)}, {_nest(pair_outs)})")
            binder = "(a, r)"
            ty = f"({_nest(['Bool'] * coins)}, {pair_ty})"
            value = (_nest_value(coin_vals), _nest_value(pair_vals))
        else:
            body.append(f"return {_nest(pair_outs)}")
            binder, ty = "r", pair_ty
            value = _nest_value(pair_vals)
        name = f"coins{k}"
        out.append(Program(
            file=f"{name}.qh", decl=name,
            source=_decl(name, binder, ty, f"emp /\\ ({disj})", body),
            verdict="verified", circuit=tuple(circuit), value=value,
            shots=COINS_SHOTS))
    return out


FAMILIES = {"coins": coins_family, "deep": deep_family, "wide": wide_family}
