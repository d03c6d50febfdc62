"""Checks of qhoare's `check` and `run` reports against known answers.

Each function returns a list of problems; an empty list means the report
is correct.  The answers come from ``gen`` (verdicts by construction) and
``refmodel`` (exact outcome distributions), or, for the shipped corpus,
from the corpus documentation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# A false alarm needs a count this many standard deviations from its
# expectation: under 1e-8 per outcome.
Z_BOUND = 6.0


@dataclass(frozen=True)
class CheckExpect:
    """Known answer for one `check --format json` call on one file."""
    exit: int
    decls: dict                     # decl name -> allowed statuses
    refuted_kind: Optional[str] = None
    # pattern every residual of an `unknown` obligation must match
    residual: Optional[str] = None


@dataclass(frozen=True)
class RunExpect:
    """Known answer for one `run --format json` call."""
    decl: str
    seed: int
    shots: int
    dist: dict = field(default_factory=dict)   # outcome -> exact probability


def load_validators(schema_dir: Path) -> dict:
    from jsonschema import Draft7Validator
    return {name: Draft7Validator(json.loads(
                (schema_dir / f"{name}.schema.json").read_text()))
            for name in ("report", "run")}


def _schema_problems(validator, payload) -> list:
    return [f"schema: {e.message}" for e in validator.iter_errors(payload)]


def parse_json(text: str):
    try:
        return json.loads(text), []
    except ValueError as e:
        return None, [f"output is not one JSON object: {e}"]


def check_report(code: int, text: str, expect: CheckExpect,
                 validator) -> list:
    payload, problems = parse_json(text)
    if payload is None:
        return problems
    problems += _schema_problems(validator, payload)
    if code != expect.exit:
        problems.append(f"exit code {code}, expected {expect.exit}")
    got = {d.get("name"): d for d in payload.get("decls", [])}
    if set(got) != set(expect.decls):
        problems.append(f"declarations {sorted(got)}, "
                        f"expected {sorted(expect.decls)}")
    for name, allowed in expect.decls.items():
        decl = got.get(name)
        if decl is None:
            continue
        if decl.get("status") not in allowed:
            problems.append(f"{name}: status {decl.get('status')!r}, "
                            f"expected one of {sorted(allowed)}")
        for ob in decl.get("obligations", []):
            verdict = ob.get("verdict")
            if verdict == "unknown" and not (
                    expect.residual and
                    re.search(expect.residual, ob.get("residual") or "")):
                problems.append(f"{name}: unexpected residual "
                                f"{ob.get('residual')!r}")
            if verdict == "refuted" and expect.refuted_kind is None:
                problems.append(f"{name}: unexpected refutation of "
                                f"{ob.get('kind')}")
    if expect.refuted_kind is not None:
        kinds = {ob.get("kind") for d in got.values()
                 for ob in d.get("obligations", [])
                 if ob.get("verdict") == "refuted"}
        if expect.refuted_kind not in kinds:
            problems.append(f"no refuted {expect.refuted_kind}; refuted "
                            f"kinds {sorted(kinds)}")
    return problems


def binomial_problems(counts: dict, dist: dict, shots: int) -> list:
    problems = []
    for value, count in counts.items():
        if dist.get(value, 0.0) <= 0.0:
            problems.append(f"outcome {value!r} has probability 0 "
                            f"but was seen {count} times")
    for value, p in dist.items():
        count = counts.get(value, 0)
        # half a count absorbs rounding in p when the outcome is certain
        slack = Z_BOUND * math.sqrt(shots * max(p * (1 - p), 0.0)) + 0.5
        if abs(count - shots * p) > slack:
            problems.append(f"outcome {value!r}: {count} of {shots}, "
                            f"expected {shots * p:.1f} +- {slack:.1f}")
    return problems


def run_report(code: int, text: str, expect: RunExpect, validator) -> list:
    payload, problems = parse_json(text)
    if payload is None:
        return problems
    problems += _schema_problems(validator, payload)
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    for key in ("decl", "seed", "shots"):
        if payload.get(key) != getattr(expect, key):
            problems.append(f"{key} {payload.get(key)!r}, expected "
                            f"{getattr(expect, key)!r}")
    counts = {o["value"]: o["count"] for o in payload.get("outcomes", [])}
    if sum(counts.values()) != expect.shots:
        problems.append(f"{sum(counts.values())} outcomes counted for "
                        f"{expect.shots} shots")
    problems += binomial_problems(counts, expect.dist, expect.shots)
    for a in payload.get("assertions", []):
        if a["fail"]:
            problems.append(f"runtime assertion {a['text']!r} failed "
                            f"{a['fail']} times")
        if a["pass"] + a["fail"] + a["uncheckable"] != expect.shots:
            problems.append(f"runtime assertion {a['text']!r} evaluated "
                            f"on the wrong number of shots")
    if payload.get("errors", 0):
        problems.append(f"{payload['errors']} dynamic errors")
    return problems
