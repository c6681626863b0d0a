"""Benchmark of the eqseq command line: sweep, audit and analyze workloads.

Run from the root of a source checkout (nothing needs installing; `src/` is
put on the path of every interpreter this script starts):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --self-check                 # corrupted expectations must fail

Each pass of a workload runs in a fresh interpreter, so the program's caches
start cold as they do for a command-line user, and calls `eqseq.cli.main`
once per operation in a closed loop from one process.  The number of passes
is fixed by `--seconds` and the workload's nominal pass time, so a run does
the same work on every commit.  Every output is checked against values the
benchmark computes itself (see workloads.py).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics: medians over the passes of wall time, CPU time (process
plus reaped children), peak RSS, the share of operations that passed, and
the median over several fresh interpreters of the time to finish
`import eqseq.cli`.  With `--trace 1`, serial passes alternate untraced and
traced, and the JSON holds per-layer self times and counts from spans.py;
the spans of the last traced pass stay in perfbench/out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("sweep", "audit", "analyze")
# Roughly the seconds one pass takes on 2 cores; a run makes floor(--seconds / PASS_S)
# passes, at least one.  SERIAL_PASS_S is the same for the serial passes of a
# --trace 1 run, which alternate untraced and traced.
PASS_S = {"sweep": 10.0, "audit": 12.0, "analyze": 6.0}
SERIAL_PASS_S = {"sweep": 17.0, "audit": 12.0, "analyze": 6.0}
SETUP_PROBES = 12
DEADLINE_S = 170.0
PROBE = "import eqseq.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


@dataclass(frozen=True)
class Plan:
    """The operations of one pass and a check for each operation's stdout."""

    ops: list[list[str]]
    checks: list


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def plan_for(workload: str, seed: int, jobs: int, workdir: Path) -> Plan:
    if workload == "sweep":
        pairs = wl.qualifying_pairs(wl.SWEEP_MAX_PERIOD)
        argv = ["scan", "--max-period", str(wl.SWEEP_MAX_PERIOD), "--jobs", str(jobs)]
        return Plan([argv], [lambda out: wl.check_scan(out, pairs)])
    if workload == "audit":
        pairs = wl.qualifying_pairs(wl.SWEEP_MAX_PERIOD)
        ops = [["structure", "--p", str(p), "--q", str(q), "--seed", str(seed)] for p, q in pairs]
        checks = [lambda out, p=p, q=q: wl.check_structure(out, p, q) for p, q in pairs]
        return Plan(ops, checks)
    ops, checks = [], []
    for f in wl.analyze_inputs(seed):
        path = workdir / f"{f.name}.{'txt' if f.fmt == 'ascii' else 'bin'}"
        path.write_bytes(wl.encode(f))
        ops.append(["analyze", "--in", str(path)] + (["--period", str(f.period)] if f.period else []))
        checks.append(lambda out, f=f: wl.check_analyze(out, f))
    return Plan(ops, checks)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_pass(plan: Plan, trace: bool, spans_out: Path, deadline: float) -> dict:
    """One pass in a fresh worker interpreter, in its own session so an overrun kills its pool too."""
    job = json.dumps({"ops": plan.ops, "trace": trace, "spans_out": str(spans_out)})
    proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(job, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out)


def failures(plan: Plan, result: dict) -> list[str]:
    """One message per failed operation: nonzero exit, exception, or wrong output."""
    problems = []
    for argv, check, res in zip(plan.ops, plan.checks, result["results"]):
        label = " ".join(argv)
        if res["error"] or res["code"] != 0:
            problems.append(f"{label}: exit {res['code']} {res['error'] or res['stderr'][-300:]}")
            continue
        try:
            bad = check(res["stdout"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        if bad:
            problems.append(f"{label}: {'; '.join(bad[:3])}")
    return problems


def setup_seconds(n: int) -> list[float]:
    """Times from spawn to the end of `import eqseq.cli` in n fresh interpreters."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                                env=child_env(), cwd=ROOT, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line != "ready\n":
            raise RuntimeError("a fresh interpreter could not import eqseq.cli")
    return samples


def machine() -> dict:
    import numpy

    return {"nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"run-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = plan_for(workload, seed, 1 if trace else min(2, nproc()), workdir)
        spans_out = OUT / f"spans-{workload}.json"
        walls, cpus, rss, layers, traced, untraced = [], [], [], [], [], []
        problems: list[str] = []
        attempted = 0
        if trace:
            rounds = max(1, int(seconds / (2 * SERIAL_PASS_S[workload])))
            schedule = [False, True] * rounds
        else:
            schedule = [False] * max(1, int(seconds / PASS_S[workload]))
            setup_seconds(1)  # fills the bytecode caches of a fresh checkout
        # setup probes go between the passes, so that they sample the whole run
        probes = 0 if trace else -(-SETUP_PROBES // (len(schedule) + 1))
        setup = setup_seconds(probes)
        for traced_pass in schedule:
            if walls and time.monotonic() + 1.5 * max(walls) > deadline:
                print(f"perfbench: {workload} stopped after {len(walls)} passes to end in time",
                      file=sys.stderr)
                break
            result = run_pass(plan, traced_pass, spans_out, deadline)
            attempted += len(plan.ops)
            problems += failures(plan, result)
            (traced if traced_pass else untraced).append(result["wall"])
            walls.append(result["wall"])
            cpus.append(result["cpu"])
            rss.append(result["peak_rss_mb"])
            if traced_pass:
                layers.append(spans.layer_metrics(json.loads(spans_out.read_text()), len(plan.ops)))
            setup += setup_seconds(probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        unit_of = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": 1 - len(problems) / attempted,
            "setup_s": statistics.median(setup),
        }
        unit_of = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for msg in problems:
        print(f"FAIL {workload}: {msg}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
        "pass_walls": walls,
    }


def self_check(seed: int) -> int:
    """Show that each kind of wrong output is counted as a failed operation."""
    workdir = OUT / f"self-check-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(seed)
        bits, reg = wl.lfsr_bits(rng, 48, 4095)
        lfsr = wl.SeqFile("lfsr", "lfsr", "ascii", bits, 4095, None, reg)
        (workdir / "lfsr.txt").write_bytes(wl.encode(lfsr))
        pairs = wl.qualifying_pairs(3000)
        p, q = pairs[-1]
        plan = Plan(
            [["scan", "--max-period", "3000"], ["structure", "--p", str(p), "--q", str(q)],
             ["analyze", "--in", str(workdir / "lfsr.txt")],
             ["analyze", "--in", str(workdir / "absent.txt")]],
            [lambda out: wl.check_scan(out, pairs), lambda out: wl.check_structure(out, p, q),
             lambda out: wl.check_analyze(out, lfsr), lambda out: []],
        )
        result = run_pass(plan, False, workdir / "spans.json", time.monotonic() + DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    corrupted = Plan(plan.ops, [
        lambda out: wl.check_scan(out, pairs, lc_of=lambda p, q: wl.closed_form_lc(p, q) + 1),
        lambda out: wl.check_structure(out, p, q, sigma_of=lambda p, q: wl.two_coset_index(p, q) + 1),
        lambda out: wl.check_analyze(out, replace(lfsr, bits=lfsr.bits ^ 1)),
        lambda out: [],
    ])
    honest, wrong = failures(plan, result), failures(corrupted, result)
    ok = len(honest) == 1 and "absent" in honest[0] and len(wrong) == 4
    print(f"true expectations: {len(honest)} of 4 failed (want 1, the missing file)")
    print(f"corrupted expectations: {len(wrong)} of 4 failed (want 4)")
    for msg in wrong:
        print(f"  {msg[:160]}")
    print("self-check", "ok" if ok else "FAILED")
    return 0 if ok else 1


def summary(workload: str, res: dict) -> str:
    rows = [f"{workload}: {res['attempted']} operations, {res['failed']} failed, "
            f"fail_frac {res['failed'] / res['attempted']:.4f}",
            "  pass wall times (s): " + " ".join(f"{w:.3f}" for w in res["pass_walls"])]
    for name, m in res["metrics"].items():
        rows.append(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "eqseq" / "cli.py").is_file():
        print(f"perfbench: no eqseq sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args.seed)

    print(f"machine: {json.dumps(machine())}", file=sys.stderr)
    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(summary(args.workload, res), file=sys.stderr)
        res.pop("pass_walls")
        print(json.dumps(res))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(summary(workload, res))
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
