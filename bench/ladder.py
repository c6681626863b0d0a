"""Stage timings of the linear-complexity pipeline on a ladder of pairs.

Run from the root of a source checkout; it needs only the standard library
and the package under src/ (nothing is installed):

    python3 bench/ladder.py --label change --out BENCH.json
    python3 bench/ladder.py --label change --out BENCH.json --full-scan

For each pair it reports the median over --repeats runs of each stage:
table + pack (`generate_threshold`), the cyclotomic blocks of x^N + 1 with
the folds of the period, the descent of each block's product tree to the
residues and components of its sub-blocks, the gcd route (Euclid only on
sub-blocks that split) and Berlekamp-Massey on every sub-block, the least
period and, for pairs inside the closed form's hypotheses, the closed-form
prediction; elsewhere `lc_predicted` is null and `match` compares the two
routes.  Cyclotomic caches are cleared before every run, so each stage
starts cold as in one command-line call.  It then times, each in a fresh
interpreter and as the median of --repeats, `eqseq verify` on the last pair
of the ladder and `eqseq scan --max-period --jobs 2`, and with --full-scan
one scan to 1000000.

The audit stage times `lemma_failures` on a small and a large pair, each run
cold on a fresh partition with the generators built beforehand, and
`audit_structure` over every pair of the timed scan, caches cleared once per
run as in one `structure` call per pair from one process; both are medians
of --repeats.  `--pairs` with no pairs skips the ladder.

The results go under "runs" -> LABEL in the --out JSON file, which keeps
the runs of other labels, together with a description of the machine.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from eqseq import (  # noqa: E402
    PrimePair,
    audit_structure,
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
AUDIT_PAIRS = ["5,41", "3,181"]   # N = 8405 and 98283


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
    subs, stages["sub_blocks_s"] = timed(lambda: [
        (block, sub) for block, u in folds for sub in lincomp._sub_blocks(u, block)])
    minpolys, stages["gcd_s"] = timed(
        lambda: [lincomp._sub_minpoly(g, w, block) for block, (g, w, _) in subs])
    lcs, stages["bm_s"] = timed(
        lambda: [lincomp._component_lc(v, g, block.d, seq.origin) for block, (g, _, v) in subs])
    lc_gcd = sum(f.bit_length() - 1 for f in minpolys)
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


def audit(pairs: list[str], bound: int, repeats: int) -> dict:
    """Median seconds of lemma_failures per pair and of audit_structure over the scan's pairs."""
    out: dict = {"lemma_failures": {}}
    for text in pairs:
        p, q = (int(v) for v in text.split(","))
        pair = PrimePair.create(p, q)
        gens, index = derive_generators(pair), structverify.build_partition(pair).index
        runs = []
        for _ in range(repeats):
            clear_caches()
            runs.append(timed(structverify.lemma_failures, pair, gens,
                              structverify.CosetPartition(pair=pair, index=index)))
        out["lemma_failures"][text] = {
            "N": pair.period, "median_of": repeats, "seconds": statistics.median(t for _, t in runs),
            "ok": not any(runs[0][0].values())}
        print(f"lemma_failures ({text}) N={pair.period}: "
              f"{out['lemma_failures'][text]['seconds']:.4f} s", file=sys.stderr)

    sweep = [PrimePair.create(p, q) for p, q in enumerate_pairs(bound)]

    def structure_all():
        clear_caches()
        return [audit_structure(pair).all_ok for pair in sweep]

    runs = [timed(structure_all) for _ in range(repeats)]
    out[f"structure_{bound}"] = {
        "pairs": len(sweep), "pairs_ok": sum(runs[0][0]), "median_of": repeats,
        "seconds": statistics.median(t for _, t in runs), "seconds_runs": [t for _, t in runs]}
    print(f"structure over {len(sweep)} pairs to {bound}: "
          f"{out[f'structure_{bound}']['seconds']:.3f} s", file=sys.stderr)
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
