"""Stage timings of the linear-complexity pipeline on a ladder of pairs.

Run from the root of a source checkout; it needs only the standard library
and the package under src/ (nothing is installed):

    python3 bench/ladder.py --label change --out BENCH.json
    python3 bench/ladder.py --label change --out BENCH.json --full-scan
    python3 bench/ladder.py --label change --out BENCH.json --repeats 20 --against parent=../parent

Every figure is timed by `ab`, in --repeats rounds that run each tree's
stage once, the tree that runs first alternating by round.  The trees are
this checkout (LABEL) and, with --against OTHER=PATH, the source checkout at
PATH (OTHER).  In-process stages run on each tree's src/eqseq, loaded under
a private package name; fresh-interpreter stages run with that tree's src on
PYTHONPATH.  Before the rounds, one more run per tree must give the same
outputs, or the ladder stops naming the stage and pair.  Per figure and
label `ab` records each round's seconds, their median and quartiles; with
two trees also the rounds the label won, the median per-round ratio of its
seconds to the other tree's (`ratio_median`, below 1 where it is faster),
its 95% bootstrap interval (`ratio_interval`) and a verdict: `resolved`
where the interval excludes 1 over at least MIN_ROUNDS rounds, `unresolved
(too few rounds)` below MIN_ROUNDS, else `unresolved`.

The stages, each with the outputs the trees must agree on:
  - per pair of --pairs, one cold `one_run` (caches of that tree's gf2poly
    cleared): the threshold (`table_pack_s`), the plan (`plan_s`), BM on
    every record with a component (`bm_s`), the least period and, inside
    the closed form's hypotheses, the prediction; the LCs, the period and
    the prediction;
  - per audit pair, the best of BEST_OF calls of `lemma_failures` on the
    index built beforehand, of `build_partition` (`partition_s`) and of
    `residues.is_fermat_index` (`fermat_s`); the index by value, the
    threshold's bits, and no lemma failure in either tree;
  - `audit_structure` over the pairs of the timed scan; the pairs and their
    verdicts;
  - `structure` on the last audit pair in a fresh interpreter, with that
    interpreter's peak resident memory (`peak_rss_mb`, VmHWM, so Linux
    only); its exit codes;
  - at LARGE, past the default budget, which is raised to its period for
    the stage: `build_partition` and `generate_threshold`, the index and
    the threshold's bits; then `structure` in a fresh interpreter;
  - `eqseq verify` on the last ladder pair and on VERIFIED; its JSON apart
    from `elapsed`;
  - `eqseq scan --max-period --jobs 2` to --scan, and with --full-scan one
    round to 1000000; its CSV apart from `millis`.
Beside them, untimed and for this tree only, the traced peaks (tracemalloc)
of `generate_threshold` and, where p | q-1, `build_partition` per ladder
pair and at LARGE, of `lemma_failures` per audit pair and of
`audit_structure` per scan pair, whole and per position.  `--pairs` with no
pairs skips the ladder.

The results go under "runs" -> LABEL in the --out JSON file, which keeps the
runs of other labels, together with a description of the machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent

LADDER = ["23,47", "3,181", "3,313", "3,577"]
AUDIT_PAIRS = ["5,41", "3,181", "17,239", "3,577"]   # N = 8405, 98283, 971057 and 998787
BEST_OF = 15   # calls per audit stage, pair and round
RESAMPLES = 10_000   # bootstrap resamples of the per-round ratios
MIN_ROUNDS = 10   # fewest rounds whose interval can read resolved
LARGE = "3,2011"   # N = 12,132,363: the index and the threshold past the default budget
VERIFIED = ["17,239", "19,191"]   # verify beside the last ladder pair: the widest strides in budget


def nproc() -> int:
    """The CPUs this process may run on, or the host's count where the
    platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def best(fn, *args) -> float:
    return min(timed(fn, *args)[1] for _ in range(BEST_OF))


def create(eq, text: str):
    return eq.PrimePair.create(*(int(v) for v in text.split(",")))


def fingerprint(index) -> str:
    """A digest of the coset index by value, whatever its dtype, widened a
    million labels at a time."""
    digest = hashlib.sha256()
    for start in range(0, len(index), 1 << 20):
        digest.update(index[start:start + (1 << 20)].astype("int64").tobytes())
    return digest.hexdigest()


def load_tree(root: Path):
    """root/src/eqseq imported under a private name of its own, which its
    relative imports follow, beside any other tree loaded."""
    init = root / "src" / "eqseq" / "__init__.py"
    name = next(f"_eqseq_{k}" for k in itertools.count() if f"_eqseq_{k}" not in sys.modules)
    spec = importlib.util.spec_from_file_location(name, init)   # a package: its __init__.py
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    if not Path(package.__file__).resolve().is_relative_to(root.resolve()):
        raise ImportError(f"{name} loaded {package.__file__}, outside {root}")
    return package


def ratio_interval(ratios: list[float]) -> tuple[float, float]:
    """The 95% percentile bootstrap interval of the median of the ratios, from a fixed seed."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES))
    return medians[RESAMPLES // 40], medians[-1 - RESAMPLES // 40]


def ab(name: str, trees: dict, run, rounds: int):
    """The one timing mechanism of the module's docstring.  run(tree) returns
    the outputs the trees must agree on and seconds per figure; the result is
    those outputs and, per figure and label, the statistics."""
    labels = list(trees)
    outputs = [run(trees[label])[0] for label in labels]
    if any(out != outputs[0] for out in outputs):
        raise SystemExit(f"{name}: {' and '.join(labels)} do not agree")
    runs = {label: [] for label in labels}
    for k in range(rounds):
        for label in labels[::-1] if k % 2 else labels:
            runs[label].append(run(trees[label])[1])
    figures = {}
    for figure in runs[labels[0]][0]:
        seconds = {label: [r[figure] for r in runs[label]] for label in labels}
        entry = figures[figure] = {}
        for label, rival in zip(labels, labels[::-1]):
            values = seconds[label]
            side = entry[label] = {
                "seconds_runs": values, "median": statistics.median(values),
                "quartiles": statistics.quantiles(values, n=4)[::2] if rounds > 1 else values * 2}
            if rival != label:
                ratios = [mine / theirs for mine, theirs in zip(values, seconds[rival])]
                low, high = ratio_interval(ratios)
                side.update(rounds_faster=sum(ratio < 1 for ratio in ratios),
                            ratio_median=statistics.median(ratios), ratio_interval=(low, high),
                            verdict="unresolved (too few rounds)" if rounds < MIN_ROUNDS
                            else "unresolved" if low <= 1 <= high else "resolved")
        line = " ".join(f"{label}={side['median'] * 1e3:.2f} ms" for label, side in entry.items())
        if len(labels) == 2:
            side = entry[labels[0]]
            low, high = side["ratio_interval"]
            line += (f", {labels[0]} faster in {side['rounds_faster']}, ratio "
                     f"{side['ratio_median']:.3f} in [{low:.3f}, {high:.3f}]: {side['verdict']}")
        print(f"{name} {figure}, median of {rounds}: {line}", file=sys.stderr)
    return outputs[0], figures


def one_run(eq, text: str) -> tuple[dict, dict]:
    """The LCs each route found for one pair, its period and prediction, and
    seconds per stage, with every cache of the tree's gf2poly cleared first."""
    pair = create(eq, text)
    for obj in vars(eq.gf2poly).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    seq, t_table = timed(eq.generate_threshold, pair)
    stages = {"table_pack_s": t_table}
    subs, stages["plan_s"] = timed(lambda: list(eq.lincomp._sub_blocks(seq)))
    lcs, stages["bm_s"] = timed(lambda: [
        eq.lincomp._component_lc(sub, seq.origin) for sub in subs if sub.component is not None])
    lc_gcd = sum(sub.minpoly.bit_length() - 1 for sub in subs if sub.minpoly is not None)
    period, stages["least_period_s"] = timed(eq.least_period, seq)
    lc_predicted = None   # outside the closed form's hypotheses
    if pair.divides and eq.wieferich_ok(pair.q):
        predicted, stages["prediction_s"] = timed(eq.predicted_minimal_polynomial, pair)
        lc_predicted = predicted.degree
    return {"lc_gcd": lc_gcd, "lc_bm": sum(lcs), "lc_predicted": lc_predicted,
            "period": period}, stages


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc traces during one call: steadier than the
    RSS, which moves with heap layout."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peaks(eq, pair) -> dict:
    """The traced peaks of generate_threshold and, where p | q-1,
    build_partition, whole and per position."""
    stages = {"table_pack": eq.generate_threshold}
    if pair.divides:
        stages["partition"] = eq.build_partition
    out = {}
    for name, fn in stages.items():
        peak = traced_peak(fn, pair)
        out[f"{name}_traced_mb"], out[f"{name}_bytes_per_position"] = peak / 2 ** 20, peak / pair.period
    return out


def ladder(trees: dict, pairs: list[str], rounds: int) -> dict:
    eq = next(iter(trees.values()))
    out = {}
    for text in pairs:
        lcs, stages = ab(f"({text})", trees, lambda tree: one_run(tree, text), rounds)
        pair = create(eq, text)
        out[text] = {"N": pair.period, "stages": stages, **traced_peaks(eq, pair), **lcs,
                     "match": lcs["lc_gcd"] == lcs["lc_bm"]
                     and lcs["lc_predicted"] in (None, lcs["lc_gcd"])}
    return out


def audit(trees: dict, pairs: list[str], bound: int, rounds: int) -> dict:
    """lemma_failures, the partition and the comparison with the
    Fermat-quotient index per pair, with the traced peak of lemma_failures,
    audit_structure over the scan's pairs, and the structure command on the
    last pair."""
    eq = next(iter(trees.values()))
    out: dict = {"lemma_failures": {}}
    for text in pairs:
        def run(tree):
            pair = create(tree, text)
            gens, index = tree.derive_generators(pair), tree.build_partition(pair)
            ok = not any(tree.lemma_failures(pair, index).values())
            if not ok and len(trees) > 1:
                raise SystemExit(f"lemma_failures ({text}): a lemma fails")
            outputs = (fingerprint(index), tree.generate_threshold(pair).bits, ok)
            return outputs, {"seconds": best(tree.lemma_failures, pair, index),
                             "partition_s": best(tree.build_partition, pair),
                             "fermat_s": best(tree.residues.is_fermat_index, pair, gens, index)}

        (_, _, ok), figures = ab(f"lemma_failures ({text})", trees, run, rounds)
        pair = create(eq, text)
        peak = traced_peak(eq.lemma_failures, pair, eq.build_partition(pair))
        out["lemma_failures"][text] = {"N": pair.period, **figures, "traced_mb": peak / 2 ** 20,
                                       "bytes_per_position": peak / pair.period, "ok": ok}

    def sweep(tree):
        made = [tree.PrimePair.create(p, q)
                for p, q in importlib.import_module(f"{tree.__name__}.cli").enumerate_pairs(bound)]
        verdicts, seconds = timed(lambda: [tree.audit_structure(pair).all_ok for pair in made])
        return [((pair.p, pair.q), ok) for pair, ok in zip(made, verdicts)], {"seconds": seconds}

    verdicts, figures = ab(f"structure to {bound}", trees, sweep, rounds)
    peaks = {f"{p},{q}": traced_peak(eq.audit_structure, eq.PrimePair.create(p, q)) / 2 ** 20
             for (p, q), _ in verdicts}
    out[f"structure_{bound}"] = {
        "pairs": len(verdicts), "pairs_ok": sum(ok for _, ok in verdicts), **figures,
        "traced_peak_mb": max(peaks.values()), "traced_peak_mb_by_pair": peaks}
    out[f"structure_cli_{pairs[-1].replace(',', '_')}"] = structure_cli(trees, pairs[-1:], rounds)
    return out


def large(trees: dict, text: str, rounds: int) -> dict:
    """At one pair past the default budget, with the budget raised to its
    period: build_partition and generate_threshold, their traced peaks, and
    the structure command in a fresh interpreter."""
    eq = next(iter(trees.values()))
    pair = create(eq, text)

    def run(tree):
        pair = create(tree, text)
        index, partition_s = timed(tree.build_partition, pair)
        seq, table_pack_s = timed(tree.generate_threshold, pair)
        return (fingerprint(index), seq.bits), {"partition_s": partition_s, "table_pack_s": table_pack_s}

    # the raised budget reaches the fresh interpreter through the environment
    with mock.patch.dict(os.environ, EQSEQ_MAX_PERIOD=str(pair.period)):
        _, figures = ab(f"({text})", trees, run, rounds)
        return {"N": pair.period, **traced_peaks(eq, pair), **figures,
                "structure_cli": structure_cli(trees, [text], rounds)}


def environment(tree) -> dict:
    """This process's environment, with PYTHONPATH set to the tree's src."""
    return dict(os.environ, PYTHONPATH=str(Path(tree.__file__).resolve().parents[1]))


# the structure command on each pair of argv, in this process, its seconds and
# exit codes, and the peak resident memory of this process (VmHWM: ru_maxrss of
# a child started by fork and exec also counts the parent's resident memory)
STRUCTURE_CLI = """
import contextlib, io, json, sys, time
from eqseq import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    start = time.perf_counter()
    codes = [cli.main(["structure", "--p", p, "--q", q]) for p, q in (a.split(",") for a in sys.argv[1:])]
    seconds = time.perf_counter() - start
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"seconds": seconds, "codes": codes, "peak_rss_mb": peak_kb / 1024}))
"""


def structure_cli(trees: dict, pairs: list[str], rounds: int) -> dict:
    """The structure command on the pairs in a fresh interpreter, with the
    highest peak RSS of each tree's runs."""
    sides = {label: (tree, []) for label, tree in trees.items()}   # each tree and its peaks

    def run(side):
        tree, peaks = side
        out = json.loads(subprocess.run([sys.executable, "-c", STRUCTURE_CLI, *pairs],
                                        env=environment(tree), capture_output=True, text=True,
                                        check=True).stdout)
        peaks.append(out["peak_rss_mb"])
        return out["codes"], {"seconds": out["seconds"]}

    codes, figures = ab(f"structure command ({' '.join(pairs)})", sides, run, rounds)
    return {"pairs": len(pairs), "pairs_ok": codes.count(0), **figures,
            "peak_rss_mb": {label: max(peaks) for label, (_, peaks) in sides.items()}}


def run_cli(tree, *args: str) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "eqseq.cli", *args], env=environment(tree),
                          capture_output=True, text=True, check=False)
    return proc, time.perf_counter() - start


def verify_pairs(pairs: list[str]) -> list[str]:
    """The pairs `eqseq verify` is timed on: the last of the ladder, then VERIFIED."""
    return list(dict.fromkeys([*pairs[-1:], *VERIFIED]))


def verify(trees: dict, text: str, rounds: int) -> dict:
    p, q = text.split(",")

    def run(tree):
        proc, wall = run_cli(tree, "verify", "--p", p, "--q", q)
        report = json.loads(proc.stdout)
        del report["elapsed"]
        return (proc.returncode, report), {"wall_s": wall}

    (code, report), figures = ab(f"verify ({text})", trees, run, rounds)
    return {**figures, "exit_code": code, "match": report["match"]}


def scan(trees: dict, bound: int, rounds: int) -> dict:
    def run(tree):
        proc, wall = run_cli(tree, "scan", "--max-period", str(bound), "--jobs", "2")
        rows = [{k: v for k, v in row.items() if k != "millis"}
                for row in csv.DictReader(io.StringIO(proc.stdout))]
        return (proc.returncode, rows), {"wall_s": wall}

    (code, rows), figures = ab(f"scan {bound}", trees, run, rounds)
    return {**figures, "exit_code": code, "pairs": len(rows),
            "matching": sum(row["match"] == "true" for row in rows)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    ap.add_argument("--pairs", nargs="*", default=LADDER, help="pairs as P,Q")
    ap.add_argument("--repeats", type=int, default=3, help="rounds per stage")
    ap.add_argument("--scan", type=int, default=100_000, help="period bound of the timed scan")
    ap.add_argument("--full-scan", action="store_true", help="also scan to 1000000 once")
    ap.add_argument("--against", metavar="OTHER=PATH",
                    help="also run every stage in the source checkout at PATH, recorded under "
                         "the label OTHER, the tree that runs first alternating by round")
    args = ap.parse_args()
    trees = {args.label: ROOT}
    if args.against:
        other, sep, path = args.against.partition("=")
        if not (other and sep and path) or other == args.label:
            ap.error("--against takes OTHER=PATH, with OTHER not the --label")
        if not (Path(path) / "src" / "eqseq" / "__init__.py").is_file():
            ap.error(f"--against: {path} holds no src/eqseq/__init__.py")
        trees[other] = Path(path)
    trees = {label: load_tree(root) for label, root in trees.items()}

    run = {"rounds": args.repeats, "best_of": BEST_OF,
           "ladder": ladder(trees, args.pairs, args.repeats),
           "audit": audit(trees, AUDIT_PAIRS, args.scan, args.repeats),
           f"large_{LARGE.replace(',', '_')}": large(trees, LARGE, args.repeats)}
    for text in verify_pairs(args.pairs):
        run[f"verify_{text.replace(',', '_')}"] = verify(trees, text, args.repeats)
    run[f"scan_{args.scan}"] = scan(trees, args.scan, args.repeats)
    if args.full_scan:
        run["scan_1000000"] = scan(trees, 1_000_000, 1)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = machine()
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
