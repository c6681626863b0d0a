"""Stage timings of the linear-complexity pipeline on a ladder of pairs.

Run from the root of a source checkout; it needs only the standard library
and the package under src/ (nothing is installed):

    python3 bench/ladder.py --label change --out BENCH.json
    python3 bench/ladder.py --label change --out BENCH.json --full-scan
    python3 bench/ladder.py --label change --out BENCH.json --repeats 20 --against parent=../parent

For each pair it reports the median over --repeats runs of each stage: the
threshold (`table_pack_s`: `generate_threshold`), the plan (`plan_s`:
`lincomp._sub_blocks`, one walk per cyclotomic block of x^N + 1 carrying the
gcd route and the components), Berlekamp-Massey on every record with a
component (`bm_s`: `lincomp._component_lc`, on the stride-s parts of each
irreducible sub-block f(x^s)), the least period and, for pairs inside the
closed form's hypotheses, the closed-form prediction; elsewhere
`lc_predicted` is null and `match` compares the two routes.  Beside the
stages, one more untimed `generate_threshold` runs under tracemalloc for its
traced peak (`table_pack_traced_mb`, and `table_pack_bytes_per_position`,
that peak over N), and for pairs with p | q-1 one more `build_partition`
(`partition_traced_mb`, `partition_bytes_per_position`).  Cyclotomic caches
are cleared before every run, so each stage starts cold as in one command-line
call.  It then times, each in a fresh interpreter and as the median of
--repeats, `eqseq verify` on the last pair of the ladder and on (17, 239) and
(19, 191), the widest strides in the default budget (s = 239 and 191, so the
most Berlekamp-Massey parts), and `eqseq scan --max-period --jobs 2`, and
with --full-scan one scan to 1000000.

The audit stage times, at a small and a mid-sized pair, at (17, 239) and at
the largest pair in budget, `lemma_failures` on the coset index built
beforehand, and apart from it the coset index (`partition_s`:
`build_partition(pair)`) and the comparison with the Fermat-quotient index
(`fermat_s`: `residues.is_fermat_index`), all that `lemma_failures` runs on a
sound index past `derive_generators` and the index check, with the traced peak
of one more `lemma_failures` under tracemalloc (`traced_mb`, and
`bytes_per_position`, that peak over N).  Then `audit_structure` over every
pair of the timed scan, as in one `structure` call per pair from one process,
with the traced peak of one more run per pair; perfbench `audit` times the
same pairs through the command line.  The last audit pair also runs alone
through the command in a fresh interpreter, for its seconds and the
interpreter's peak resident memory (`peak_rss_mb`, the VmHWM of
/proc/self/status, so Linux only; ru_maxrss would read this script's own peak,
which a child started by fork and exec inherits).  All are medians of
--repeats.  `--pairs` with no pairs skips the ladder.

At (3,2011), N = 12,132,363, past the default budget, the budget is raised to
that period for one more stage, "large_3_2011": the traced peaks of
`build_partition` and `generate_threshold` and their seconds (medians of
--repeats), and the structure command on that pair in a fresh interpreter,
for its seconds and peak resident memory.  No LC route runs there.

The results go under "runs" -> LABEL in the --out JSON file, which keeps the
runs of other labels, together with a description of the machine.  Each label
is its own invocation, at its own time, so a change of the host between
invocations (other load, clock, cache) reads as a change between labels.
With --against OTHER=PATH, naming a second source checkout, the audit stage
also loads the src/eqseq of both trees into this process under private
package names and, at each audit pair, stops unless they agree (the coset
index by value, the threshold, no lemma failure), then times each of
`lemma_failures`, `build_partition` and `generate_threshold` in --repeats
interleaved rounds of the best of BEST_OF calls per tree, the first tree
alternating by round.  Under "audit" -> "alternating", per stage, pair and
label (LABEL for this tree, OTHER for the other): each round's seconds, their
median and quartiles, the rounds the tree won, the median per-round ratio of
its seconds to the other tree's (`ratio_median`, below 1 where it is faster)
and its 95% bootstrap interval (`ratio_interval`); a printed line ends in
`resolved` where LABEL's interval excludes 1 over at least MIN_ROUNDS rounds,
in `unresolved (too few rounds)` below MIN_ROUNDS (a few rounds that all
favour one tree give an interval that excludes 1 on identical code), else in
`unresolved`.
"""

from __future__ import annotations

import argparse
import csv
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
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from eqseq import (  # noqa: E402
    PrimePair,
    audit_structure,
    build_partition,
    derive_generators,
    generate_threshold,
    gf2poly,
    least_period,
    lemma_failures,
    lincomp,
    predicted_minimal_polynomial,
    residues,
    wieferich_ok,
)
from eqseq.cli import enumerate_pairs  # noqa: E402

LADDER = ["23,47", "3,181", "3,313", "3,577"]
AUDIT_PAIRS = ["5,41", "3,181", "17,239", "3,577"]   # N = 8405, 98283, 971057 and 998787
BEST_OF = 15   # calls per stage, pair and round of the alternating audit
RESAMPLES = 10_000   # bootstrap resamples of the alternating audit's per-round ratios
MIN_ROUNDS = 10   # fewest rounds of the alternating audit whose interval can read resolved
LARGE = "3,2011"   # N = 12,132,363: the index and the threshold past the default budget
# each stage of the alternating audit, with what two trees must agree on before it is timed
ALTERNATED = {
    "lemma_failures": lambda mine, theirs: not any(mine.values()) and not any(theirs.values()),
    "build_partition": lambda mine, theirs: len(mine) == len(theirs) and bool((mine == theirs).all()),
    "generate_threshold": lambda mine, theirs: (mine.bits, mine.length) == (theirs.bits, theirs.length),
}
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


def clear_caches() -> None:
    for obj in vars(gf2poly).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def one_run(pair: PrimePair) -> tuple[dict, dict]:
    """Seconds per stage for one pair, and the LCs each route found."""
    clear_caches()
    seq, t_table = timed(generate_threshold, pair)
    stages = {"table_pack_s": t_table}
    subs, stages["plan_s"] = timed(lambda: list(lincomp._sub_blocks(seq)))
    lcs, stages["bm_s"] = timed(lambda: [
        lincomp._component_lc(sub, seq.origin) for sub in subs if sub.component is not None])
    lc_gcd = sum(sub.minpoly.bit_length() - 1 for sub in subs if sub.minpoly is not None)
    lc_bm = sum(lcs)
    period, stages["least_period_s"] = timed(least_period, seq)
    lc_predicted = None   # outside the closed form's hypotheses
    if pair.divides and wieferich_ok(pair.q):
        predicted, stages["prediction_s"] = timed(predicted_minimal_polynomial, pair)
        lc_predicted = predicted.degree
    lcs = {"lc_gcd": lc_gcd, "lc_bm": lc_bm, "lc_predicted": lc_predicted,
           "period": period}
    return stages, lcs


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc traces during one call: steadier than the
    RSS, which moves with heap layout."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ladder(pairs: list[str], repeats: int) -> dict:
    out = {}
    for text in pairs:
        pair = PrimePair.create(*(int(v) for v in text.split(",")))
        runs = [one_run(pair) for _ in range(repeats)]
        stages = {name: statistics.median(r[name] for r, _ in runs) for name in runs[0][0]}
        lcs = runs[0][1]
        peaks = traced_peaks(pair)
        out[text] = {"N": pair.period, "median_of": repeats, "stages": stages, **peaks, **lcs,
                     "match": lcs["lc_gcd"] == lcs["lc_bm"]
                     and lcs["lc_predicted"] in (None, lcs["lc_gcd"])}
        print(f"({text}) N={pair.period} " + " ".join(
            f"{k}={v:.3f}" for k, v in stages.items())
            + "".join(f" {k}={v:.2f}" for k, v in peaks.items() if k.endswith("position")),
            file=sys.stderr)
    return out


def traced_peaks(pair: PrimePair) -> dict:
    """The traced peaks of generate_threshold and, where p | q-1,
    build_partition, whole and per position."""
    stages = {"table_pack": generate_threshold}
    if pair.divides:
        stages["partition"] = build_partition
    out = {}
    for name, fn in stages.items():
        peak = traced_peak(fn, pair)
        out[f"{name}_traced_mb"], out[f"{name}_bytes_per_position"] = peak / 2 ** 20, peak / pair.period
    return out


def large(text: str, repeats: int) -> dict:
    """At one pair past the default budget, with the budget raised to its
    period: the traced peaks and median seconds of build_partition and
    generate_threshold, and the structure command in a fresh interpreter."""
    pair = PrimePair.create(*(int(v) for v in text.split(",")))
    # the raised budget reaches the fresh interpreter through the environment
    with mock.patch.dict(os.environ, EQSEQ_MAX_PERIOD=str(pair.period)):
        out = {"N": pair.period, "median_of": repeats, **traced_peaks(pair)}
        for name, fn in (("partition_s", build_partition), ("table_pack_s", generate_threshold)):
            out[name] = statistics.median(timed(fn, pair)[1] for _ in range(repeats))
        out["structure_cli"] = structure_cli([pair], repeats)
    print(f"({text}) N={pair.period}: partition traced {out['partition_traced_mb']:.2f} MiB, "
          f"threshold traced {out['table_pack_traced_mb']:.2f} MiB, structure peak RSS "
          f"{out['structure_cli']['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return out


# one run of structure_cli: the structure command on each pair from argv, in this
# process, and the peak resident memory of this process (VmHWM: ru_maxrss of a
# child started by fork and exec also counts the parent's resident memory)
STRUCTURE_CLI = """
import contextlib, io, json, sys, time
from eqseq import cli
pairs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    start = time.perf_counter()
    codes = [cli.main(["structure", "--p", str(p), "--q", str(q)]) for p, q in pairs]
    seconds = time.perf_counter() - start
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"seconds": seconds, "codes": codes, "peak_rss_mb": peak_kb / 1024}))
"""


def structure_cli(pairs: list[PrimePair], repeats: int) -> dict:
    """Median seconds and peak RSS of the structure command on the pairs, each
    run in a fresh interpreter."""
    argv = [sys.executable, "-c", STRUCTURE_CLI, json.dumps([[pair.p, pair.q] for pair in pairs])]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [json.loads(subprocess.run(argv, env=env, capture_output=True, text=True,
                                      check=True).stdout) for _ in range(repeats)]
    return {"pairs": len(pairs), "pairs_ok": runs[0]["codes"].count(0), "median_of": repeats,
            "seconds": statistics.median(run["seconds"] for run in runs),
            "seconds_runs": [run["seconds"] for run in runs],
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs)}


def load_tree(root: Path):
    """root/src/eqseq imported under a private name of its own, which its
    relative imports follow, beside the `eqseq` that the other stages run."""
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


def alternating(pairs: list[str], trees: dict[str, Path], rounds: int) -> dict:
    """The --against audit of the module's docstring, on two trees imported by load_tree."""
    labels = list(trees)
    packages = {label: load_tree(root) for label, root in trees.items()}
    orders = [labels if k % 2 == 0 else labels[::-1] for k in range(rounds)]
    out: dict = {"rounds": rounds, "best_of": BEST_OF, "first": [order[0] for order in orders]}
    for text in pairs:
        calls = {}   # per label and stage, a function and its arguments
        for label, eq in packages.items():
            pair = eq.PrimePair.create(*(int(v) for v in text.split(",")))
            index = eq.build_partition(pair)
            calls[label] = {"lemma_failures": (eq.lemma_failures, pair, index),
                            "build_partition": (eq.build_partition, pair),
                            "generate_threshold": (eq.generate_threshold, pair)}
        for stage, agree in ALTERNATED.items():
            if not agree(*(timed(*calls[label][stage])[0] for label in labels)):
                raise SystemExit(f"{stage} ({text}): {' and '.join(labels)} do not agree")
            runs = {label: [] for label in labels}
            for label in (label for order in orders for label in order):
                runs[label].append(min(timed(*calls[label][stage])[1] for _ in range(BEST_OF)))
            entry = out.setdefault(stage, {})[text] = {}
            for label, rival in zip(labels, labels[::-1]):
                values = runs[label]
                ratios = [mine / theirs for mine, theirs in zip(values, runs[rival])]
                entry[label] = {
                    "seconds_runs": values, "median": statistics.median(values),
                    "quartiles": statistics.quantiles(values, n=4)[::2] if rounds > 1 else values * 2,
                    "rounds_faster": sum(mine < theirs for mine, theirs in zip(values, runs[rival])),
                    "ratio_median": statistics.median(ratios), "ratio_interval": ratio_interval(ratios)}
            low, high = entry[labels[0]]["ratio_interval"]
            verdict = ("unresolved (too few rounds)" if rounds < MIN_ROUNDS
                       else "unresolved" if low <= 1 <= high else "resolved")
            print(f"{stage} ({text}) alternating, median of {rounds}: " + " ".join(
                f"{label}={side['median'] * 1e3:.2f} ms (faster in {side['rounds_faster']}, "
                f"ratio {side['ratio_median']:.3f})" for label, side in entry.items())
                + f", {labels[0]}'s in [{low:.3f}, {high:.3f}]: {verdict}", file=sys.stderr)
    return out


def audit(pairs: list[str], bound: int, repeats: int) -> dict:
    """Median seconds of lemma_failures, of the partition and of the
    comparison with the Fermat-quotient index per pair, with the traced peak
    of lemma_failures, and of audit_structure over the scan's pairs."""
    out: dict = {"lemma_failures": {}}
    for text in pairs:
        pair = PrimePair.create(*(int(v) for v in text.split(",")))
        gens, index = derive_generators(pair), build_partition(pair)
        runs, stages = [], []
        for _ in range(repeats):
            runs.append(timed(lemma_failures, pair, index))
            stages.append({"partition_s": timed(build_partition, pair)[1],
                           "fermat_s": timed(residues.is_fermat_index, pair, gens, index)[1]})
        peak = traced_peak(lemma_failures, pair, index)
        result = out["lemma_failures"][text] = {
            "N": pair.period, "median_of": repeats, "seconds": statistics.median(t for _, t in runs),
            **{name: statistics.median(s[name] for s in stages) for name in stages[0]},
            "traced_mb": peak / 2 ** 20, "bytes_per_position": peak / pair.period,
            "ok": not any(runs[0][0].values())}
        print(f"lemma_failures ({text}) N={pair.period}: " + " ".join(
            f"{k}={result[k]:.4f}" for k in ("seconds", *stages[0]))
            + f" traced={peak / pair.period:.2f} B/position", file=sys.stderr)

    sweep = [PrimePair.create(p, q) for p, q in enumerate_pairs(bound)]
    runs = [timed(lambda: [audit_structure(pair).all_ok for pair in sweep]) for _ in range(repeats)]
    peaks = {f"{pair.p},{pair.q}": traced_peak(audit_structure, pair) / 2 ** 20 for pair in sweep}
    out[f"structure_{bound}"] = {
        "pairs": len(sweep), "pairs_ok": sum(runs[0][0]), "median_of": repeats,
        "seconds": statistics.median(t for _, t in runs), "seconds_runs": [t for _, t in runs],
        "traced_peak_mb": max(peaks.values()), "traced_peak_mb_by_pair": peaks}
    print(f"structure over {len(sweep)} pairs to {bound}: "
          f"{out[f'structure_{bound}']['seconds']:.3f} s, "
          f"traced peak {max(peaks.values()):.2f} MB", file=sys.stderr)

    largest = PrimePair.create(*(int(v) for v in pairs[-1].split(",")))
    result = out[f"structure_cli_{largest.p}_{largest.q}"] = structure_cli([largest], repeats)
    print(f"structure command at ({pairs[-1]}): {result['seconds']:.3f} s, "
          f"peak RSS {result['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return out


def run_cli(*args: str) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "eqseq.cli", *args], env=env,
                          capture_output=True, text=True, check=False)
    return proc, time.perf_counter() - start


def verify_pairs(pairs: list[str]) -> list[str]:
    """The pairs `eqseq verify` is timed on: the last of the ladder, then VERIFIED."""
    return list(dict.fromkeys([*pairs[-1:], *VERIFIED]))


def verify(text: str, repeats: int) -> dict:
    p, q = text.split(",")
    runs = [run_cli("verify", "--p", p, "--q", q) for _ in range(repeats)]
    walls = [wall for _, wall in runs]
    proc = runs[-1][0]
    result = {"wall_s": statistics.median(walls), "wall_s_runs": walls, "median_of": repeats,
              "exit_code": proc.returncode, "match": json.loads(proc.stdout)["match"]}
    print(f"verify ({text}): {result['wall_s']:.2f} s, match={result['match']}", file=sys.stderr)
    return result


def scan(bound: int) -> dict:
    proc, wall = run_cli("scan", "--max-period", str(bound), "--jobs", "2")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    return {"wall_s": wall, "exit_code": proc.returncode, "pairs": len(rows),
            "matching": sum(row["match"] == "true" for row in rows)}


def scans(bound: int, repeats: int) -> dict:
    runs = [scan(bound) for _ in range(repeats)]
    result = dict(runs[-1], wall_s=statistics.median(r["wall_s"] for r in runs),
                  wall_s_runs=[r["wall_s"] for r in runs], median_of=repeats)
    print(f"scan {bound}: {result['wall_s']:.2f} s, "
          f"{result['matching']}/{result['pairs']} matching", file=sys.stderr)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    ap.add_argument("--pairs", nargs="*", default=LADDER, help="pairs as P,Q")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--scan", type=int, default=100_000, help="period bound of the timed scan")
    ap.add_argument("--full-scan", action="store_true", help="also scan to 1000000 once")
    ap.add_argument("--against", metavar="OTHER=PATH",
                    help="also time lemma_failures, build_partition and generate_threshold "
                         "alternately in this tree and in the source checkout at PATH, both "
                         "loaded into this process, recorded under the label OTHER")
    args = ap.parse_args()
    if args.against:
        other, sep, path = args.against.partition("=")
        if not (other and sep and path) or other == args.label:
            ap.error("--against takes OTHER=PATH, with OTHER not the --label")
        if not (Path(path) / "src" / "eqseq" / "__init__.py").is_file():
            ap.error(f"--against: {path} holds no src/eqseq/__init__.py")

    run = {"ladder": ladder(args.pairs, args.repeats),
           "audit": audit(AUDIT_PAIRS, args.scan, args.repeats)}
    run[f"large_{LARGE.replace(',', '_')}"] = large(LARGE, args.repeats)
    if args.against:
        trees = {args.label: ROOT, other: Path(path)}
        run["audit"]["alternating"] = alternating(AUDIT_PAIRS, trees, args.repeats)
    for text in verify_pairs(args.pairs):
        run[f"verify_{text.replace(',', '_')}"] = verify(text, args.repeats)
    run[f"scan_{args.scan}"] = scans(args.scan, args.repeats)
    if args.full_scan:
        run["scan_1000000"] = scans(1_000_000, 1)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = machine()
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
