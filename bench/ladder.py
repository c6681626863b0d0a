"""Stage timings of the linear-complexity pipeline on a ladder of pairs.

Run from the root of a source checkout; it needs only the standard library
and the package under src/ (nothing is installed):

    python3 bench/ladder.py --label change --out BENCH.json
    python3 bench/ladder.py --label change --out BENCH.json --full-scan

For each pair it reports the median over --repeats runs of each stage:
table + pack (`generate_threshold`), the cyclotomic blocks of x^N + 1 with
the folds of the period, the component walk down each block's product tree
to the components of its sub-blocks, the gcd route's walk of the polyphase
parts down the same tree with Euclid on the sub-blocks that split, and
Berlekamp-Massey on every sub-block the component walk reaches, the least
period and, for pairs inside the closed form's hypotheses, the closed-form
prediction; elsewhere `lc_predicted` is null and `match` compares the two
routes.  Cyclotomic caches are cleared before every run, so each stage
starts cold as in one command-line call.  It then times, each in a fresh
interpreter and as the median of --repeats, `eqseq verify` on the last pair
of the ladder and `eqseq scan --max-period --jobs 2`, and with --full-scan
one scan to 1000000.

The audit stage times `lemma_failures` on a small, a large and the largest
pair in budget, each run cold on a fresh partition with the generators built
beforehand, and apart from it, also cold, the Euler-quotient table, the
partition built from it, the counts on the (p, q) torus (`counts_s`), the
(p, q^2) columns (`columns_s`), the lemma 5-7 multisets and the lemma 8-9
congruences; then `audit_structure` over every pair of the timed scan, caches
cleared once per run as in one `structure` call per pair from one process,
with one more untimed run per pair under tracemalloc for its traced peak;
and the same pairs through `eqseq.cli.main(["structure", ...])`,
each run in a fresh interpreter that imports `eqseq.cli` untimed, as a
perfbench `audit` pass runs them: against `audit_structure` this adds the
command line (the parser, the JSON and the table on stderr) and the cold
start of the first calls.  All are medians of --repeats.  `--pairs` with no
pairs skips the ladder.

The results go under "runs" -> LABEL in the --out JSON file, which keeps
the runs of other labels, together with a description of the machine.  Each
label is its own invocation, at its own time, so a change of the host between
invocations (other load, clock, cache) reads as a change between labels: a
stage that both labels run through the same code, such as the scan when only
the audit changed, shows how far the host moved.
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from eqseq import (  # noqa: E402
    PrimePair,
    audit_structure,
    build_table,
    derive_generators,
    generate_threshold,
    gf2poly,
    least_period,
    lincomp,
    predicted_minimal_polynomial,
    structverify,
    wieferich_ok,
)
from eqseq.cli import enumerate_pairs  # noqa: E402

LADDER = ["23,47", "3,181", "3,313", "3,577"]
AUDIT_PAIRS = ["5,41", "3,181", "3,577"]   # N = 8405, 98283 and 998787


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
    folds, stages["blocks_fold_s"] = timed(lambda: list(lincomp._block_folds(seq)))
    components, stages["components_s"] = timed(lambda: [
        (block, f, v) for block, u in folds for f, v in lincomp._components(u, block)])
    minpolys, stages["gcd_s"] = timed(lambda: [
        sub for block, u in folds for _, sub in lincomp._gcd_route(u, block)])
    lcs, stages["bm_s"] = timed(lambda: [
        lincomp._component_lc(v, (f.bit_length() - 1) * block.stride, block.d, seq.origin)
        for block, f, v in components if v is not None])
    lc_gcd = sum(sub.bit_length() - 1 for sub in minpolys if sub is not None)
    lc_bm = sum(lcs)
    period, stages["least_period_s"] = timed(least_period, seq)
    lc_predicted = None   # outside the closed form's hypotheses
    if pair.divides and wieferich_ok(pair.q):
        predicted, stages["prediction_s"] = timed(predicted_minimal_polynomial, pair)
        lc_predicted = predicted.degree
    lcs = {"lc_gcd": lc_gcd, "lc_bm": lc_bm, "lc_predicted": lc_predicted,
           "period": period}
    return stages, lcs


def ladder(pairs: list[str], repeats: int) -> dict:
    out = {}
    for text in pairs:
        p, q = (int(v) for v in text.split(","))
        pair = PrimePair.create(p, q)
        runs = [one_run(pair) for _ in range(repeats)]
        stages = {name: statistics.median(r[name] for r, _ in runs) for name in runs[0][0]}
        lcs = runs[0][1]
        out[text] = {"N": pair.period, "median_of": repeats, "stages": stages, **lcs,
                     "match": lcs["lc_gcd"] == lcs["lc_bm"]
                     and lcs["lc_predicted"] in (None, lcs["lc_gcd"])}
        print(f"({text}) N={pair.period} " + " ".join(
            f"{k}={v:.3f}" for k, v in stages.items()), file=sys.stderr)
    return out


# one run of structure_cli: the structure command on each pair from argv, in this process
STRUCTURE_CLI = """
import contextlib, io, json, sys, time
from eqseq import cli
pairs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    start = time.perf_counter()
    codes = [cli.main(["structure", "--p", str(p), "--q", str(q)]) for p, q in pairs]
    seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "codes": codes}))
"""


def residue_stages(pair: PrimePair, gens, partition) -> dict:
    """Seconds of the torus counts, of the q^2 columns and of the lemma 5-7
    and 8-9 checks on them."""
    counts, t_counts = timed(structverify._torus_counts, partition)
    (bad_q2, odd_q2), t_columns = timed(structverify._q2_columns, pair, gens, partition)
    _, t_multisets = timed(structverify._check_residue_multisets, pair, counts, bad_q2)
    _, t_congruences = timed(structverify._check_congruences, pair, partition, counts, odd_q2)
    return {"counts_s": t_counts, "columns_s": t_columns, "lemmas_5_7_s": t_multisets,
            "lemmas_8_9_s": t_congruences}


def traced_peak_mb(pair: PrimePair) -> float:
    """Peak of the memory tracemalloc traces during one cold audit_structure:
    steadier than the RSS, which moves with heap layout."""
    clear_caches()
    tracemalloc.start()
    try:
        audit_structure(pair)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def audit(pairs: list[str], bound: int, repeats: int) -> dict:
    """Median seconds of lemma_failures, of the table and partition and of the
    residue stages per pair, and of audit_structure and of the structure
    command over the scan's pairs."""
    out: dict = {"lemma_failures": {}}
    for text in pairs:
        p, q = (int(v) for v in text.split(","))
        pair = PrimePair.create(p, q)
        gens, index = derive_generators(pair), structverify.build_partition(pair).index
        runs, stages = [], []
        for _ in range(repeats):
            clear_caches()
            runs.append(timed(structverify.lemma_failures, pair, gens,
                              structverify.CosetPartition(pair=pair, index=index)))
            clear_caches()
            table, t_table = timed(build_table, pair)
            _, t_partition = timed(structverify.build_partition, pair, table)
            stages.append({"table_s": t_table, "partition_s": t_partition, **residue_stages(
                pair, gens, structverify.CosetPartition(pair=pair, index=index))})
        result = out["lemma_failures"][text] = {
            "N": pair.period, "median_of": repeats, "seconds": statistics.median(t for _, t in runs),
            **{name: statistics.median(s[name] for s in stages) for name in stages[0]},
            "ok": not any(runs[0][0].values())}
        print(f"lemma_failures ({text}) N={pair.period}: " + " ".join(
            f"{k}={result[k]:.4f}" for k in ("seconds", *stages[0])), file=sys.stderr)

    sweep = [PrimePair.create(p, q) for p, q in enumerate_pairs(bound)]

    def structure_all():
        clear_caches()
        return [audit_structure(pair).all_ok for pair in sweep]

    runs = [timed(structure_all) for _ in range(repeats)]
    peaks = {f"{pair.p},{pair.q}": traced_peak_mb(pair) for pair in sweep}
    out[f"structure_{bound}"] = {
        "pairs": len(sweep), "pairs_ok": sum(runs[0][0]), "median_of": repeats,
        "seconds": statistics.median(t for _, t in runs), "seconds_runs": [t for _, t in runs],
        "traced_peak_mb": max(peaks.values()), "traced_peak_mb_by_pair": peaks}
    print(f"structure over {len(sweep)} pairs to {bound}: "
          f"{out[f'structure_{bound}']['seconds']:.3f} s, "
          f"traced peak {max(peaks.values()):.2f} MB", file=sys.stderr)

    argv = [sys.executable, "-c", STRUCTURE_CLI, json.dumps([[pair.p, pair.q] for pair in sweep])]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [json.loads(subprocess.run(argv, env=env, capture_output=True, text=True,
                                      check=True).stdout) for _ in range(repeats)]
    cli_runs = [run["seconds"] for run in runs]
    out[f"structure_cli_{bound}"] = {
        "pairs": len(sweep), "pairs_ok": runs[0]["codes"].count(0), "median_of": repeats,
        "seconds": statistics.median(cli_runs), "seconds_runs": cli_runs}
    print(f"structure command over {len(sweep)} pairs to {bound}: "
          f"{out[f'structure_cli_{bound}']['seconds']:.3f} s", file=sys.stderr)
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
    args = ap.parse_args()

    run = {"ladder": ladder(args.pairs, args.repeats),
           "audit": audit(AUDIT_PAIRS, args.scan, args.repeats)}
    if args.pairs:
        run[f"verify_{args.pairs[-1].replace(',', '_')}"] = verify(args.pairs[-1], args.repeats)
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
