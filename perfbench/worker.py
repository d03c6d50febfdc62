"""One workload in one fresh process: ``run.py`` starts this file.

Imports ``qhoare.cli``, runs one warm-up round, checks the benchmark's own
checks on corrupted copies of real reports, then runs whole rounds in a
closed loop until the time is up.  Prints one JSON object on stdout.

With ``--trace 1`` rounds alternate untraced and traced; the traced ones
give the per-layer metrics and the difference gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import speed

clock = time.perf_counter


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


class Runner:
    def __init__(self, cli, ops, validators, check_passes=1):
        self.cli = cli
        self.checks = [op for op in ops if op.kind == "check"]
        self.runs = [op for op in ops if op.kind == "run"]
        self.validators = validators
        self.check_passes = check_passes
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def timed(self, ops, call):
        """Run ``ops`` in order, with a calibration loop between
        operations, and verify their outputs.  Returns (seconds at
        reference speed, wall seconds, outputs)."""
        main = self.cli.main
        outs, ref, wall = [], 0.0, 0.0
        before = speed.calibrate()
        for op in ops:
            t0 = clock()
            outs.append(call(main, op.argv))
            took = clock() - t0
            after = speed.calibrate()
            ref += took * speed.scale(before, after)
            wall += took
            before = after
        for op, (code, text) in zip(ops, outs):
            found = self.verify(op, code, text)
            self.attempted += 1
            if found:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{' '.join(op.argv)}: {found}")
        return ref, wall, outs

    def round(self, call_check, call_run):
        """``check_passes`` passes over the check operations, then one over
        the run operations.  Returns (seconds of each check pass, seconds
        of the run pass, speed scale, outputs of the last passes), with
        seconds at reference speed; the scale turns wall seconds into
        reference seconds."""
        check_s, ref, wall = [], 0.0, 0.0
        for _ in range(self.check_passes):
            c_ref, c_wall, outs = self.timed(self.checks, call_check)
            check_s.append(c_ref)
            ref += c_ref
            wall += c_wall
        r_ref, r_wall, run_outs = self.timed(self.runs, call_run)
        return (check_s, r_ref, (ref + r_ref) / (wall + r_wall),
                outs + run_outs)

    def verify(self, op, code, text):
        if op.kind == "check":
            return checks.check_report(code, text, op.expect,
                                       self.validators["report"])
        return checks.run_report(code, text, op.expect,
                                 self.validators["run"])


def self_test(runner, outs) -> list:
    """Corrupt real reports; each corruption must be reported as failed."""
    ops = runner.checks + runner.runs
    trials = []
    code, text = outs[0]
    payload = json.loads(text)
    decl = payload["decls"][0]
    decl["status"] = "conditional" if decl["status"] == "verified" \
        else "verified"
    trials.append(("wrong verdict", ops[0], code, payload))

    run_ops = list(zip(runner.runs, outs[len(runner.checks):]))
    op, (code, text) = next(
        ((op, out) for op, out in run_ops if len(op.expect.dist) > 1),
        run_ops[0])
    payload = json.loads(text)
    counts = payload["outcomes"]
    if len(counts) > 1:
        # every shot on one outcome: the total stays right, the spread not
        for entry in counts:
            entry["count"] = 0
        counts[0]["count"] = op.expect.shots
    else:
        counts[0]["count"] += 1
    trials.append(("corrupted count", op, code, payload))

    for op, (code, text) in run_ops:
        payload = json.loads(text)
        first = payload["outcomes"][0]
        value = first["value"]
        cut = max(value.rfind("true"), value.rfind("false"))
        if cut < 0:
            continue
        word = "true" if value.startswith("true", cut) else "false"
        flipped = value[:cut] + ("false" if word == "true" else "true") + \
            value[cut + len(word):]
        if op.expect.dist.get(flipped, 0.0) > 0.0:
            continue
        first["count"] -= 1
        payload["outcomes"].append({"value": flipped, "count": 1})
        trials.append(("zero-probability outcome", op, code, payload))
        break
    else:
        return ["self-test: no run report admits a zero-probability outcome"]

    missed = []
    for label, op, code, payload in trials:
        if not runner.verify(op, code, json.dumps(payload)):
            missed.append(f"self-test: {label} not reported as failed")
    return missed


# ---------------------------------------------------------------------------
# tracing


def install_tracer(tracer):
    from qhoare import cli, heap, prover, sim, typecheck
    counts = tracer.counts

    def checked(args, result):
        for dr in result.decls:
            counts["typecheck.obligations"] += len(dr.obligations)
            counts["typecheck.ctx_entries"] += sum(
                len(ob.var_ctx) for ob in dr.obligations)
            counts["typecheck.trace_steps"] += len(dr.trace)
            counts["typecheck.refined_steps"] += sum(
                1 for step in dr.trace if step.refined)

    def discharged(args, result):
        obligations = args[0]
        counts["prover.obligations"] += len(obligations)
        counts["prover.models"] += sum(len(ob.models or ())
                                       for ob in obligations)

    def matrix(args, result):
        counts["heap.unitary_matrix_entries"] += 4 ** len(args[1])

    def ran(args, result):
        counts["sim.shots"] += result.shots

    for attr, hook in (("parse_program", None), ("check_program", checked),
                       ("discharge_all", discharged), ("run_program", ran),
                       ("analyze", None)):
        tracer.install(cli, attr, f"cli.{attr}", hook)
    for attr in ("cell_assertion", "delta_assertion", "footprint_qubits",
                 "heap_from_assertion", "heap_to_assertions",
                 "sp_apply_unitary", "sp_init", "sp_measure"):
        tracer.install(typecheck, attr, f"heap.{attr}")
    tracer.install(typecheck, "eval_unitary", "sim.eval_unitary/typecheck")
    tracer.install(typecheck, "subst", "core.subst")
    tracer.install(heap, "unitary_matrix", "heap.unitary_matrix", matrix)
    tracer.install(prover, "eval_in_model", "prover.eval_in_model")
    tracer.install(prover, "basis_views", "prover.basis_views")
    for attr in ("apply_unitary", "measure", "eval_unitary",
                 "check_assertion_runtime"):
        tracer.install(sim, attr, f"sim.{attr}")
    tracer.install(sim, "pretty", "core.pretty")


def layer_metrics(tracer) -> dict:
    """Per-layer figures of one traced round."""
    by_root = tracer.totals()
    total = {}
    for (_, name), (c, s, own) in by_root.items():
        t = total.get(name, (0, 0.0, 0.0))
        total[name] = (t[0] + c, t[1] + s, t[2] + own)

    def calls(name):
        return total.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return total.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return total.get(name, (0, 0.0, 0.0))[2]

    def under(root, name):
        return by_root.get((root, name), (0, 0.0, 0.0))[1]

    n = tracer.counts
    models = n["prover.models"]
    shots = n["sim.shots"]
    return {
        "parser.parse_s": secs("cli.parse_program"),
        "parser.calls": calls("cli.parse_program"),
        "typecheck.check_program_s": secs("cli.check_program"),
        "typecheck.self_s": own("cli.check_program"),
        "typecheck.obligations": n["typecheck.obligations"],
        "typecheck.ctx_entries": n["typecheck.ctx_entries"],
        "typecheck.trace_steps": n["typecheck.trace_steps"],
        "typecheck.refined_steps": n["typecheck.refined_steps"],
        "heap.unitary_matrix_s": secs("heap.unitary_matrix"),
        "heap.unitary_matrix_calls": calls("heap.unitary_matrix"),
        "heap.unitary_matrix_entries": n["heap.unitary_matrix_entries"],
        "heap.sp_apply_unitary_s": secs("heap.sp_apply_unitary"),
        "heap.sp_apply_unitary_calls": calls("heap.sp_apply_unitary"),
        "heap.sp_measure_s": secs("heap.sp_measure"),
        "heap.sp_measure_calls": calls("heap.sp_measure"),
        "heap.sp_init_calls": calls("heap.sp_init"),
        "heap.heap_from_assertion_s": secs("heap.heap_from_assertion"),
        "prover.discharge_s": secs("cli.discharge_all"),
        "prover.obligations": n["prover.obligations"],
        "prover.models": models,
        "prover.eval_in_model_calls": calls("prover.eval_in_model"),
        "prover.basis_views_calls": calls("prover.basis_views"),
        "prover.basis_views_s": secs("prover.basis_views"),
        "prover.evals_per_model":
            calls("prover.eval_in_model") / models if models else 0.0,
        "sim.run_program_s": secs("cli.run_program"),
        "sim.us_per_shot":
            secs("cli.run_program") / shots * 1e6 if shots else 0.0,
        "sim.self_s": own("cli.run_program"),
        "sim.apply_unitary_calls": calls("sim.apply_unitary"),
        "sim.apply_unitary_s": secs("sim.apply_unitary"),
        "sim.measure_calls": calls("sim.measure"),
        "sim.measure_s": secs("sim.measure"),
        "sim.eval_unitary_calls": calls("sim.eval_unitary"),
        "sim.check_assertion_runtime_calls":
            calls("sim.check_assertion_runtime"),
        "sim.check_assertion_runtime_s": secs("sim.check_assertion_runtime"),
        "core.pretty_calls": calls("core.pretty"),
        "core.pretty_s": secs("core.pretty"),
        "core.subst_calls": calls("core.subst"),
        "core.subst_s": secs("core.subst"),
        "cli.analyze_s": under("op.run", "cli.analyze"),
        "cli.render_s": under("op.check", "op.check")
        - sum(under("op.check", f"cli.{x}") for x in
              ("parse_program", "check_program", "discharge_all")),
    }


def is_seconds(name: str) -> bool:
    return name.endswith(("_s", "us_per_shot"))


COUNT_METRICS = ("calls", "obligations", "ctx_entries", "steps", "entries",
                 "models", "evals_per_model")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_METRICS)


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = args.root.resolve()

    import qhoare.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"qhoare imported from {cli.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2

    import workloads
    validators = checks.load_validators(root / "src" / "qhoare" / "schemas")

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, root / "tests", work)
        passes = 1 if args.trace else workloads.CHECK_PASSES[args.workload]
        runner = Runner(cli, ops, validators, passes)
        *_, outs = runner.round(_call, _call)             # warm-up
        problems = self_test(runner, outs) if not runner.failed else []
        # Everything alive now (modules, the harness, the inputs) moves to
        # the permanent generation, so that full collections during the
        # loop scan only what the operations allocate, as in a short CLI
        # process, and not the harness's own objects.
        gc.freeze()
        if args.trace:
            result = traced_loop(runner, args, root)
        else:
            result = plain_loop(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in runner.problems + problems:
        print(f"{args.workload}: {p}", file=sys.stderr)
    result.update(correct=not problems, attempted=runner.attempted,
                  failed=runner.failed)
    print(json.dumps(result))
    return 0


def plain_loop(runner, args) -> dict:
    check_s, run_s = [], []
    start = clock()
    while not check_s or clock() - start < args.seconds:
        c, r, _, _ = runner.round(_call, _call)
        check_s += c
        run_s.append(r)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"rounds": len(run_s),
            "check_s": statistics.median(check_s),
            "run_s": statistics.median(run_s),
            "peak_rss_mb": rss_mb}


def traced_loop(runner, args, root) -> dict:
    from spans import Tracer
    tracer = Tracer()
    op_check = tracer.span("op.check", _call)
    op_run = tracer.span("op.run", _call)
    plain, traced, layers = [], [], []
    start = clock()
    while len(traced) < 1 or clock() - start < args.seconds:
        c, r, _, _ = runner.round(_call, _call)
        plain.append(c[0] + r)
        tracer.reset()
        install_tracer(tracer)
        try:
            c, r, factor, _ = runner.round(op_check, op_run)
        finally:
            tracer.uninstall()
        traced.append(c[0] + r)
        layers.append({k: v * factor if is_seconds(k) else v
                       for k, v in layer_metrics(tracer).items()})
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if is_count(name) and len(set(values)) > 1:
            print(f"{args.workload}: count {name} differs between rounds: "
                  f"{values}", file=sys.stderr)
        metrics[name] = values[0] if is_count(name) \
            else statistics.median(values)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return {"rounds": len(traced), "layers": metrics}


if __name__ == "__main__":
    sys.exit(main())
