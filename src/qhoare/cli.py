"""Command-line front end: check, trace, run, vcs.

Exit codes: 0 verified (or conditional without ``--strict``), 1 refuted or
conditional under ``--strict`` or runtime assertion failures, 2 parse or
type errors, an unreadable FILE or a usage error, 3 internal errors.
``--format json`` output is byte-stable for fixed inputs and seed and
validates against the schemas shipped in ``qhoare/schemas``.  :func:`main`
may be called repeatedly in one process: it returns the exit code, never
raises ``SystemExit``, and reuses the argument parser built at import.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .core import Program, pretty, restart_fresh_names
from .parser import parse_program
from .prover import discharge_all
from .typecheck import DeclResult, Hypotheses, check_program
from .sim import run_program, SimulationError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


@dataclass
class DeclReport:
    name: str
    status: str  # verified | conditional | refuted | type-error | parse-error
    # (Obligation, Verdict) pairs in report order; only ``as_dict``, which
    # the JSON reports print, writes an obligation's hypotheses
    obligations: list = field(default_factory=list)
    error: Optional[str] = None

    def as_dict(self, heap_texts: dict) -> dict:
        """The report as JSON values; ``heap_texts`` is the memo of heap
        text that :meth:`qhoare.typecheck.Hypotheses.text` shares."""
        return {
            "name": self.name,
            "status": self.status,
            "obligations": [_verdict_dict(ob, v, heap_texts)
                            for ob, v in self.obligations],
            "error": self.error,
        }


@dataclass
class Report:
    file: str
    status: str
    decls: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def as_dict(self) -> dict:
        heap_texts = {}  # each distinct heap is written once per report
        return {
            "file": self.file,
            "status": self.status,
            "decls": [d.as_dict(heap_texts) for d in self.decls],
            "diagnostics": self.diagnostics,
        }


def _span_dict(span) -> Optional[dict]:
    if span is None:
        return None
    return {"line": span.line, "col": span.col}


def _residual(verdict) -> Optional[str]:
    return None if verdict.residual is None else pretty(verdict.residual)


def _where(span, sep: str, missing: str) -> str:
    return missing if span is None else f"{span.line}:{span.col}{sep}"


def _hypothesis_text(ob, heap_texts: dict) -> list:
    """``[pretty(h) for h in ob.hypotheses]``, written straight from the
    checker's branches while the hypotheses are unbuilt."""
    unbuilt = ob.hypotheses_builder
    if isinstance(unbuilt, Hypotheses):
        return unbuilt.text(heap_texts)
    return [pretty(h) for h in ob.hypotheses]


def _verdict_dict(ob, verdict, heap_texts: dict) -> dict:
    return {
        "kind": ob.kind,
        "conclusion": pretty(ob.conclusion),
        "hypotheses": _hypothesis_text(ob, heap_texts),
        "verdict": verdict.status,
        "residual": _residual(verdict),
        "countermodel": verdict.countermodel,
        "span": _span_dict(ob.span),
        "note": ob.note,
        "decl": ob.decl,
    }


def analyze(path: str, source: str,
            literal_measurement: bool = False):
    """Parse and check one file; returns (Report, CheckedProgram | None)."""
    parsed = parse_program(source, path)
    diags = [d.render() for d in parsed.diagnostics]
    if not parsed.ok:
        return Report(path, "parse-error", [], diags), None
    checked = check_program(parsed.program,
                            literal_measurement=literal_measurement)
    decls = []
    worst = "verified"
    rank = {"verified": 0, "conditional": 1, "refuted": 2, "type-error": 3}
    for dr in checked.decls:
        if dr.error is not None:
            where = f"{dr.error.span.line}:{dr.error.span.col}: " \
                if dr.error.span else ""
            decls.append(DeclReport(dr.name, "type-error",
                                    error=where + dr.error.message))
            worst = max(worst, "type-error", key=lambda s: rank[s])
            continue
        proof = discharge_all(dr.obligations)
        decls.append(DeclReport(dr.name, proof.status,
                                obligations=_ordered(proof.verdicts)))
        worst = max(worst, proof.status, key=lambda s: rank[s])
    return Report(path, worst, decls, diags), checked


def _ordered(verdicts):
    def key(indexed):
        i, (ob, _) = indexed
        if ob.span is None:
            return (1 << 30, 0, i)
        return (ob.span.line, ob.span.col, i)
    return [v for _, v in sorted(enumerate(verdicts), key=key)]


def _exit_for(report: Report, strict: bool) -> int:
    if report.status in ("parse-error", "type-error"):
        return EXIT_ERROR
    if report.status == "refuted":
        return EXIT_REFUTED
    if report.status == "conditional" and strict:
        return EXIT_REFUTED
    return EXIT_OK


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for what reports hold
    (dicts with string keys, lists, str, int, bool, None); else TypeError."""
    parts = []
    _write(obj, "\n", parts.append)
    return "".join(parts)


def _write(o, pad: str, put) -> None:
    # A module-level walk: a nested function that calls itself closes over
    # its own cell, a reference cycle that would keep every part written
    # alive until the collector runs.
    if isinstance(o, str):
        put(_quote(o))
    elif isinstance(o, dict):
        inner, sep = pad + "  ", "{"
        for k in sorted(o):
            put(sep + inner + _quote(k) + ": ")
            _write(o[k], inner, put)
            sep = ","
        put(pad + "}" if o else "{}")
    elif isinstance(o, list):
        inner, sep = pad + "  ", "["
        for v in o:
            put(sep + inner)
            _write(v, inner, put)
            sep = ","
        put(pad + "]" if o else "[]")
    elif o is None or isinstance(o, bool):
        put("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    else:
        raise TypeError(f"{type(o).__name__} is not a report value")


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    code = EXIT_OK
    for path in args.files:
        if (source := _read(path)) is None:
            code = max(code, EXIT_ERROR)
            continue
        report, _ = analyze(path, source, args.literal_measurement)
        if args.format == "json":
            print(_dumps(report.as_dict()))
        else:
            for d in report.diagnostics:
                print(d)
            for decl in report.decls:
                line = f"{path}: {decl.name}: {decl.status}"
                if decl.error:
                    line += f" ({decl.error})"
                print(line)
                for ob, v in decl.obligations:
                    if v.status != "proved":
                        print(f"    {_where(ob.span, ': ', '')}{ob.kind} "
                              f"{v.status}: {pretty(ob.conclusion)}"
                              + (f"  ({ob.note})" if ob.note else ""))
        code = max(code, _exit_for(report, args.strict))
    return code


def _read(path: str) -> Optional[str]:
    """The text of ``path``, or None after saying on stderr why not."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig", errors="replace")
    except OSError as e:
        print(f"{path}: error: {e}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# trace


def cmd_trace(args) -> int:
    if (entry := _checked_entry(args)) is None:
        return EXIT_ERROR
    source, program, dr = entry
    if dr.error is not None:
        print(f"{args.file}: {args.decl}: type-error: {dr.error.message}",
              file=sys.stderr)
        return EXIT_ERROR
    status = discharge_all(dr.obligations).status
    print(render_trace(source, program, dr))
    return _exit_for(Report(args.file, status), args.strict)


def render_trace(source: str, program: Program, dr: DeclResult) -> str:
    """Echo the source of ``program``'s declaration ``dr`` with one
    assertion comment per step of its trace."""
    decl = program.decl(dr.name)
    lines = source.splitlines()
    start = decl.span.line if decl.span else 1
    following = [d.span.line for d in program.decls
                 if d.span and d.span.line > start]
    end = min(following) - 1 if following else len(lines)
    while end > start and not lines[end - 1].strip():
        end -= 1

    by_line = {}
    for i, step in enumerate(dr.trace):
        if step.span is not None:
            by_line.setdefault(step.span.line, []).append((i + 1, step))
    first_step_line = min(by_line) if by_line else end + 1

    def comment(indent: str, label: str, step=None) -> str:
        if step is None:
            return f"{indent}-- {label}"
        txt = pretty(step.assertion)
        suffix = ""
        if step.refined:
            suffix += "  [refined]"
        if step.alternatives:
            suffix += f"  [+{step.alternatives} branch" + \
                ("es]" if step.alternatives > 1 else "]")
        return f"{indent}-- P{label}: {txt}{suffix}"

    out = []
    sig = dr.signature
    while hasattr(sig, "codomain"):  # peel dependent function types
        sig = sig.codomain
    pre_text = pretty(sig.pre) if hasattr(sig, "pre") else "T"
    if first_step_line - 1 < len(lines):
        lead = lines[first_step_line - 1]
        indent = " " * (len(lead) - len(lead.lstrip()) + 5)
    else:
        indent = " " * 5
    for lineno in range(start, end + 1):
        text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        if lineno == first_step_line:
            out.append(comment(indent, f"P0: {pre_text}"))
        out.append(text)
        for k, step in by_line.get(lineno, []):
            out.append(comment(indent, str(k), step))
    return "\n".join(out)


def checked_decl(program: Program, name: str,
                 literal_measurement: bool = False) -> Optional[DeclResult]:
    """Declaration ``name`` checked as :func:`check_program` checks it in
    ``program``, or None if there is none; the declarations after it are
    not checked."""
    for i, decl in enumerate(program.decls):
        if decl.name == name:
            prefix = Program(program.decls[:i + 1])
            return check_program(prefix, literal_measurement).decls[-1]
    return None


def _checked_entry(args):
    """``(source, program, DeclResult)`` of ``args.decl`` in ``args.file``,
    read, parsed and checked up to it; None, after saying why, when the
    file is unreadable, does not parse or has no such declaration."""
    if (source := _read(args.file)) is None:
        return None
    parsed = parse_program(source, args.file)
    if not parsed.ok:
        for d in parsed.diagnostics:
            print(d.render())
        return None
    dr = checked_decl(parsed.program, args.decl, args.literal_measurement)
    if dr is None:
        print(f"{args.file}: error: no declaration named {args.decl!r}",
              file=sys.stderr)
        return None
    return source, parsed.program, dr


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    if args.shots < 0:
        print(f"{args.file}: error: --shots must be at least 0, "
              f"got {args.shots}", file=sys.stderr)
        return EXIT_ERROR
    if (entry := _checked_entry(args)) is None:
        return EXIT_ERROR
    _, program, dr = entry
    if dr.error is not None:
        print(f"{args.file}: {args.decl}: type-error", file=sys.stderr)
        return EXIT_ERROR
    if discharge_all(dr.obligations).status == "refuted" and not args.force:
        print(f"{args.file}: {args.decl}: refuted statically; "
              f"use --force to run anyway", file=sys.stderr)
        return EXIT_REFUTED
    try:
        rep = run_program(program, args.decl, seed=args.seed,
                          shots=args.shots)
    except SimulationError as e:
        print(f"{args.file}: {args.decl}: runtime error: {e}",
              file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        print(_dumps(rep.as_dict()))
    else:
        print(f"{args.decl}: seed={rep.seed} shots={rep.shots}")
        for value, count in sorted(rep.outcomes.items()):
            print(f"  {value}: {count}")
        for text, (ok, bad, unch) in sorted(rep.assertions.items()):
            print(f"  assert {text}: pass={ok} fail={bad} "
                  f"uncheckable={unch}")
        if rep.errors:
            print(f"  dynamic errors: {rep.errors}")
    return EXIT_REFUTED if rep.failures else EXIT_OK


# ---------------------------------------------------------------------------
# vcs


def cmd_vcs(args) -> int:
    if (source := _read(args.file)) is None:
        return EXIT_ERROR
    report, checked = analyze(args.file, source, args.literal_measurement)
    if checked is None:
        if args.format == "json":
            print(_dumps(report.as_dict()))
        else:
            for d in report.diagnostics:
                print(d)
        return EXIT_ERROR
    if args.format == "json":
        print(_dumps(report.as_dict()))
    else:
        for decl in report.decls:
            print(f"{decl.name}: {decl.status}")
            for ob, v in decl.obligations:
                print(f"  [{_where(ob.span, '', '-')}] {ob.kind}: {v.status}")
                print(f"      |- {pretty(ob.conclusion)}")
                if residual := _residual(v):
                    print(f"      residual: {residual}")
    return _exit_for(report, args.strict)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qhoare",
        description="Check, trace, verify and run .qh programs.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, strict=True, json=True):
        if strict:
            sp.add_argument("--strict", action="store_true",
                            help="treat conditional verification as failure")
        sp.add_argument("--literal-measurement", action="store_true",
                        help="disable measurement outcome refinement")
        if json:
            sp.add_argument("--format", choices=("text", "json"),
                            default="text")

    sp = sub.add_parser("check", help="type-check and discharge conditions")
    sp.add_argument("files", nargs="+")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("trace", help="annotate a declaration with the "
                                      "assertion after each step")
    sp.add_argument("file")
    sp.add_argument("decl")
    common(sp, json=False)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("run", help="execute a declaration on the simulator")
    sp.add_argument("file")
    sp.add_argument("decl")
    common(sp, strict=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--shots", type=int, default=1000)
    sp.add_argument("--force", action="store_true",
                    help="run even when statically refuted")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("vcs", help="list verification conditions")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_vcs)
    return p


_PARSER = build_parser()  # parse_args keeps no state between calls


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:  # argparse: 2 on a usage error, 0 on --help
        return e.code
    restart_fresh_names()
    try:
        return args.fn(args)
    except (BrokenPipeError, KeyboardInterrupt):
        return EXIT_INTERNAL
    except Exception as e:  # the contract reserves 3 for internal errors
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
