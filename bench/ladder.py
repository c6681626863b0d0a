"""Stage timings of the linear-complexity pipeline on a ladder of pairs.

Run from the root of a source checkout; it needs only the standard library
and the package under src/ (nothing is installed):

    python3 bench/ladder.py --label change --out BENCH.json
    python3 bench/ladder.py --label change --out BENCH.json --full-scan
    python3 bench/ladder.py --label change --out BENCH.json --against parent=../parent

For each pair it reports the median over --repeats runs of each stage:
the threshold (`table_pack_s`: `generate_threshold`, which lifts psi a block
of rows at a time with `eulerq._psi_rows` and packs the flags, with no psi
table; the key keeps the name it had when a table was built), the plan (`plan_s`:
`lincomp._sub_blocks`, which builds the cyclotomic blocks of x^N + 1, folds
the period to each and walks each block's product tree once, carrying the
gcd route, with Euclid on the sub-blocks that split, and the components,
checked against the tree's leaves), Berlekamp-Massey on every record with a
component (`bm_s`), the least period and, for pairs inside the closed form's
hypotheses, the closed-form prediction; elsewhere `lc_predicted` is null and
`match` compares the two routes.  Beside the stages, one more untimed
`generate_threshold` runs under tracemalloc for its traced peak
(`table_pack_traced_mb`, and `table_pack_bytes_per_position`, that peak over
N), and for pairs with p | q-1 one more `build_partition`
(`partition_traced_mb`, `partition_bytes_per_position`).  `plan_s` and
`bm_s` are not comparable with the `blocks_fold_s`,
`components_s` and `gcd_s` of earlier BENCH files, which timed the fold and
each walk apart.  Cyclotomic caches are cleared
before every run, so each stage starts cold as in one command-line call.  It
then times, each in a fresh interpreter and as the median of --repeats,
`eqseq verify` on the last pair of the ladder and on (17, 239), the slowest
pair in the default budget, and `eqseq scan --max-period --jobs 2`, and with
--full-scan one scan to 1000000.

The audit stage times `lemma_failures` on a small and a mid-sized pair, on
(17, 239) (N = 971057 on a torus of 17 rows) and on the largest pair in
budget, each run cold with the coset index built beforehand (its
seconds include `derive_generators`, about 0.1 ms at (3,577)), and apart
from it, also cold, the coset index (`partition_s`, `build_partition(pair)`,
which lifts the index from the residues mod pq), the comparison with the
Fermat-quotient index (`fermat_s`: `residues.is_fermat_index`, lemma 7's
claims against every cell of the (p, q^2) view), the torus pass (`torus_s`:
`_torus_failures` over the counts on the (p, q) torus, a block of columns at
a time: the coset sizes and the messages of lemmas 5 and 6 and of the
Phi_pq, Phi_p and Phi_q congruences), the q^2 pass (`columns_s`:
`_q2_failures`, lemma 7's claims, the Phi_{q^2} congruences and, in the same
blocks, the polyphase parts of lemma 9's pq^2 term), and the three walks
over the units (`walks_s`: the powers of h and g2, index additivity, the
kernel and image and the ghat law) on the clean index.  On a clean index
`lemma_failures` runs only the comparison past `derive_generators` and the
label check: the two passes and the walks run where it fails, so `torus_s`,
`columns_s` and `walks_s` are not part of its seconds.  One more untimed
`lemma_failures` runs under tracemalloc for its traced peak
(`traced_mb`, and `bytes_per_position`, that peak over N).  Then
`audit_structure` over every pair of the timed scan, caches cleared once per
run as in one `structure` call per pair from one process, with one more
untimed run per pair under tracemalloc for its traced peak; and the same
pairs through `eqseq.cli.main(["structure", ...])`, each run in a fresh
interpreter that imports `eqseq.cli` untimed, as a perfbench `audit` pass
runs them: against `audit_structure` this adds the command line (the
parser, the JSON and the table on stderr) and the cold start of the first
calls.  The last audit pair also runs alone through the command in a fresh
interpreter, for its seconds and the interpreter's peak resident memory
(`peak_rss_mb`, the VmHWM of /proc/self/status, so Linux only; ru_maxrss
would read this script's own peak, which a child started by fork and exec
inherits).  All are medians of --repeats.  `--pairs` with no pairs skips the ladder.

At (3,2011), N = 12,132,363, past the default budget, the budget is
raised to that period for one more stage, "large_3_2011": the traced peaks
of `build_partition` and `generate_threshold` and their seconds (medians
of --repeats), and the structure command on that pair in a fresh
interpreter, for its seconds and peak resident memory.  No LC route runs
there.

The results go under "runs" -> LABEL in the --out JSON file, which keeps
the runs of other labels, together with a description of the machine.  Each
label is its own invocation, at its own time, so a change of the host between
invocations (other load, clock, cache) reads as a change between labels: a
stage that both labels run through the same code, such as the scan when only
the audit changed, shows how far the host moved.  With --against OTHER=PATH,
naming a second source checkout, the audit stage also times `lemma_failures`
at each audit pair in both trees, alternately: --repeats rounds, each of one
fresh interpreter per tree (the tree that runs first alternates by round),
timing the best of BEST_OF calls per pair, and in the same way
`build_partition` and `generate_threshold`.  The rounds go under "audit" ->
"alternating", per stage, pair and label (LABEL for this tree, OTHER for
the other): the seconds of each round, their median and quartiles, the
rounds in which each tree was the faster, and the median over the rounds of
its seconds over the other tree's in the same round (`ratio_median`, below
1 where this tree is faster), a paired statistic that a change of host
between rounds moves less than the medians.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

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
    lincomp,
    predicted_minimal_polynomial,
    residues,
    structverify,
    wieferich_ok,
)
from eqseq.cli import enumerate_pairs  # noqa: E402

LADDER = ["23,47", "3,181", "3,313", "3,577"]
AUDIT_PAIRS = ["5,41", "3,181", "17,239", "3,577"]   # N = 8405, 98283, 971057 and 998787
BEST_OF = 15   # calls per stage, pair and round of the alternating audit
LARGE = "3,2011"   # N = 12,132,363: the index and the threshold past the default budget
ALTERNATED = ("lemma_failures", "build_partition", "generate_threshold")
SLOWEST = "17,239"   # slowest verify in budget: BM goes as phi(N)^2 / t, t = 4 here, 8 at (3,577)


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
        p, q = (int(v) for v in text.split(","))
        pair = PrimePair.create(p, q)
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


def residue_stages(pair: PrimePair, gens, index) -> dict:
    """Seconds of the comparison with the Fermat-quotient index, of the torus
    pass (the counts by blocks of columns and the messages worded from them)
    and of the q^2 pass (lemma 7, with the polyphase parts of lemma 9's pq^2
    term read in the same blocks)."""
    _, t_fermat = timed(residues.is_fermat_index, pair, gens, index)
    _, t_torus = timed(
        lambda: residues._torus_failures(pair, residues._torus_counts(pair, index)))
    _, t_columns = timed(residues._q2_failures, pair, gens, index)
    return {"fermat_s": t_fermat, "torus_s": t_torus, "columns_s": t_columns}


def walks(pair: PrimePair, gens, index) -> float:
    """Seconds of the three walks over the units on the index, with the
    powers of h and g2 they share; lemma_failures runs them only where lemma
    6 or 7 fails."""
    sizes = np.bincount(index + 1, minlength=pair.q + 1)[1:]
    start = time.perf_counter()
    h_powers, g2 = structverify._powers(gens.h, pair.p - 1, pair.period), structverify._g2(pair, gens)
    structverify._check_additivity(pair, index, sizes, h_powers, g2)
    structverify._check_kernel_image(pair, index, sizes, h_powers, g2)
    structverify._check_ghat_law(pair, gens, index, sizes)
    return time.perf_counter() - start


# one round of the alternating audit in one tree: for each pair from argv, the
# best of argv[2] calls of lemma_failures on its coset index, built beforehand,
# and of build_partition and generate_threshold
ALTERNATING = """
import json, sys, time
from eqseq import PrimePair, build_partition, generate_threshold, lemma_failures
best = {"lemma_failures": {}, "build_partition": {}, "generate_threshold": {}}
for text in json.loads(sys.argv[1]):
    pair = PrimePair.create(*(int(v) for v in text.split(",")))
    index = build_partition(pair)
    for name, call in (("lemma_failures", lambda: lemma_failures(pair, index)),
                       ("build_partition", lambda: build_partition(pair)),
                       ("generate_threshold", lambda: generate_threshold(pair))):
        seconds = []
        for _ in range(int(sys.argv[2])):
            start = time.perf_counter()
            result = call()
            seconds.append(time.perf_counter() - start)
        if name == "lemma_failures" and any(result.values()):
            raise SystemExit(f"lemma_failures ({text}): {result}")
        best[name][text] = min(seconds)
print(json.dumps(best))
"""


def alternating(pairs: list[str], trees: dict[str, Path], rounds: int) -> dict:
    """Per stage of ALTERNATED, pair and tree (two labels, each naming a
    source checkout), the best-of-BEST_OF seconds in each of the rounds, each
    round one fresh interpreter per tree, the first tree alternating; their
    median and quartiles, the rounds in which the tree was the faster, and
    the median per-round ratio of its seconds to the other tree's."""
    labels = list(trees)
    seconds: dict[str, list[dict]] = {label: [] for label in labels}
    first = []
    for k in range(rounds):
        order = labels if k % 2 == 0 else labels[::-1]
        first.append(order[0])
        for label in order:
            argv = [sys.executable, "-c", ALTERNATING, json.dumps(pairs), str(BEST_OF)]
            env = dict(os.environ, PYTHONPATH=str(trees[label] / "src"))
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            seconds[label].append(json.loads(proc.stdout))
    out: dict = {"rounds": rounds, "best_of": BEST_OF, "first": first}
    for stage, text in ((stage, text) for stage in ALTERNATED for text in pairs):
        runs = {label: [run[stage][text] for run in seconds[label]] for label in labels}
        entry = out.setdefault(stage, {})[text] = {}
        for label, rival in zip(labels, labels[::-1]):
            values = runs[label]
            entry[label] = {
                "seconds_runs": values, "median": statistics.median(values),
                "quartiles": statistics.quantiles(values, n=4)[::2] if rounds > 1 else values * 2,
                "rounds_faster": sum(mine < theirs for mine, theirs in zip(values, runs[rival])),
                "ratio_median": statistics.median(
                    mine / theirs for mine, theirs in zip(values, runs[rival]))}
        print(f"{stage} ({text}) alternating, median of {rounds}: " + " ".join(
            f"{label}={entry[label]['median'] * 1e3:.2f} ms "
            f"(faster in {entry[label]['rounds_faster']}, "
            f"ratio {entry[label]['ratio_median']:.3f})" for label in labels), file=sys.stderr)
    return out


def audit(pairs: list[str], bound: int, repeats: int) -> dict:
    """Median seconds of lemma_failures, of the partition and of the residue
    stages per pair, with the traced peak of lemma_failures, and of
    audit_structure and of the structure command over the scan's pairs."""
    out: dict = {"lemma_failures": {}}
    for text in pairs:
        p, q = (int(v) for v in text.split(","))
        pair = PrimePair.create(p, q)
        gens, index = derive_generators(pair), structverify.build_partition(pair)
        runs, stages = [], []
        for _ in range(repeats):
            clear_caches()
            runs.append(timed(structverify.lemma_failures, pair, index))
            clear_caches()
            _, t_partition = timed(structverify.build_partition, pair)
            stages.append({"partition_s": t_partition,
                           **residue_stages(pair, gens, index),
                           "walks_s": walks(pair, gens, index)})
        clear_caches()
        peak = traced_peak(structverify.lemma_failures, pair, index)
        result = out["lemma_failures"][text] = {
            "N": pair.period, "median_of": repeats, "seconds": statistics.median(t for _, t in runs),
            **{name: statistics.median(s[name] for s in stages) for name in stages[0]},
            "traced_mb": peak / 2 ** 20, "bytes_per_position": peak / pair.period,
            "ok": not any(runs[0][0].values())}
        print(f"lemma_failures ({text}) N={pair.period}: " + " ".join(
            f"{k}={result[k]:.4f}" for k in ("seconds", *stages[0]))
            + f" traced={peak / pair.period:.2f} B/position", file=sys.stderr)

    sweep = [PrimePair.create(p, q) for p, q in enumerate_pairs(bound)]

    def structure_all():
        clear_caches()
        return [audit_structure(pair).all_ok for pair in sweep]

    runs = [timed(structure_all) for _ in range(repeats)]
    peaks = {}
    for pair in sweep:
        clear_caches()   # one cold audit_structure per pair
        peaks[f"{pair.p},{pair.q}"] = traced_peak(audit_structure, pair) / 2 ** 20
    out[f"structure_{bound}"] = {
        "pairs": len(sweep), "pairs_ok": sum(runs[0][0]), "median_of": repeats,
        "seconds": statistics.median(t for _, t in runs), "seconds_runs": [t for _, t in runs],
        "traced_peak_mb": max(peaks.values()), "traced_peak_mb_by_pair": peaks}
    print(f"structure over {len(sweep)} pairs to {bound}: "
          f"{out[f'structure_{bound}']['seconds']:.3f} s, "
          f"traced peak {max(peaks.values()):.2f} MB", file=sys.stderr)

    out[f"structure_cli_{bound}"] = structure_cli(sweep, repeats)
    print(f"structure command over {len(sweep)} pairs to {bound}: "
          f"{out[f'structure_cli_{bound}']['seconds']:.3f} s", file=sys.stderr)
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
                    help="also time lemma_failures alternately in the source checkout at PATH, "
                         "recorded under the label OTHER")
    args = ap.parse_args()
    if args.against:
        other, sep, path = args.against.partition("=")
        if not (other and sep and path) or other == args.label:
            ap.error("--against takes OTHER=PATH, with OTHER not the --label")

    run = {"ladder": ladder(args.pairs, args.repeats),
           "audit": audit(AUDIT_PAIRS, args.scan, args.repeats)}
    run[f"large_{LARGE.replace(',', '_')}"] = large(LARGE, args.repeats)
    if args.against:
        trees = {args.label: ROOT, other: Path(path).resolve()}
        run["audit"]["alternating"] = alternating(AUDIT_PAIRS, trees, args.repeats)
    for text in dict.fromkeys([*args.pairs[-1:], SLOWEST]):
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
