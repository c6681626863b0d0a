"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import random
import time
from contextlib import contextmanager

from eqseq import (
    BitSequence,
    PrimePair,
    analyze_period,
    berlekamp_massey,
    cyclotomic_f2,
    generate_threshold,
    least_period,
    verify_theorem,
    wieferich_ok,
)
from eqseq.cli import enumerate_pairs, main as cli_main
from eqseq.gf2poly import _int_compose, _int_divmod, _int_mul

from oracles import synthesize_sequence, term_degrees

from golden import (
    EXAMPLE1_BITS,
    EXAMPLE1_LC,
    EXAMPLE1_MINPOLY_DEGREES,
    EXAMPLE1_PERIOD,
    SWEEP_PAIRS,
    minpoly_render,
)

SWEEP_BOUND = 100_000


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"criterion {number} ({name}): FAIL (took {elapsed:.2f}s, budget {budget_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.2f}s >= {budget_seconds}s"
        )
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_golden_example():
    with criterion(1, "golden example p=3 q=7", budget_seconds=1.0):
        pair = PrimePair.create(3, 7)
        seq = generate_threshold(pair)
        assert [int(c) for c in seq.to01()] == EXAMPLE1_BITS
        assert least_period(seq) == EXAMPLE1_PERIOD

        lc_gcd = analyze_period(seq)[1].degree
        two = BitSequence(bits=seq.bits | (seq.bits << 147), length=294, origin=seq.origin)
        lc_bm = berlekamp_massey(two)
        assert lc_gcd == lc_bm == EXAMPLE1_LC

        minpoly = analyze_period(seq)[1]
        assert minpoly.bits == _int_mul(cyclotomic_f2(147).bits, cyclotomic_f2(21).bits)
        assert term_degrees(minpoly.bits) == EXAMPLE1_MINPOLY_DEGREES
        assert minpoly.render() == minpoly_render()


def test_criterion_2_theorem_sweep():
    with criterion(2, f"closed-form sweep to {SWEEP_BOUND}", budget_seconds=60.0):
        pairs = enumerate_pairs(SWEEP_BOUND)
        assert pairs == sorted(SWEEP_PAIRS)
        for p, q in pairs:
            pair = PrimePair.create(p, q)
            assert wieferich_ok(q), (p, q)
            report = verify_theorem(pair)
            assert report.match, (p, q)
            assert report.period_found == p * q * q, (p, q)
            expected_lc = (p - 1) * (q * q - q) if q % 4 == 1 else (p - 1) * (q * q - 1)
            assert report.lc_empirical == expected_lc, (p, q)
            assert report.lc_predicted == expected_lc, (p, q)
            assert 2 * report.lc_empirical > report.period_found, (p, q)


def test_criterion_3_structural_audit():
    from eqseq import audit_structure

    with criterion(3, "structural audit for (3,7), (3,13), (5,11)", budget_seconds=10.0):
        for p, q in [(3, 7), (3, 13), (5, 11)]:
            report = audit_structure(PrimePair.create(p, q))
            assert report.all_ok, (p, q, report.details)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "gcd LC == BM LC on 200 seeded sequences"):
        rng = random.Random(20250810)
        for trial in range(200):
            n = rng.randint(1, 512)
            seq = BitSequence(bits=rng.getrandbits(n), length=n, origin="random")
            lc_gcd = analyze_period(seq)[1].degree
            two = BitSequence(bits=seq.bits | (seq.bits << n), length=2 * n,
                              origin="random")
            lc_bm = berlekamp_massey(two)
            assert lc_gcd == lc_bm, (trial, n)
            minpoly = analyze_period(seq)[1]
            regenerated = synthesize_sequence(minpoly, seq, n)
            assert regenerated.bits == seq.bits, (trial, n)


def test_criterion_5_balance():
    with criterion(5, "ones count formula over the sweep"):
        for p, q in SWEEP_PAIRS:
            seq = generate_threshold(PrimePair.create(p, q))
            ones = seq.bits.bit_count()
            zeros = seq.length - ones
            assert ones == (q - 1) // 2 * (p - 1) * (q - 1), (p, q)
            assert zeros + ones == p * q * q


def test_criterion_6_cyclotomic_identities():
    with criterion(6, "cyclotomic identities", budget_seconds=10.0):
        for n in range(1, 1001, 2):
            product = 1
            for d in range(1, n + 1):
                if n % d == 0:
                    product = _int_mul(product, cyclotomic_f2(d).bits)
            assert product == (1 << n) | 1, n
        for p, q in SWEEP_PAIRS:
            phi_q = cyclotomic_f2(q).bits
            phi_pq = cyclotomic_f2(p * q).bits
            quotient, remainder = _int_divmod(_int_compose(phi_q, p), phi_q)
            assert remainder == 0 and quotient == phi_pq, (p, q)
            assert _int_compose(phi_pq, q) == cyclotomic_f2(p * q * q).bits, (p, q)


def test_criterion_7_cli_round_trip(tmp_path, capsys):
    with criterion(7, "CLI round trip and scan"):
        for fmt, name in (("ascii", "s.txt"), ("packed", "s.bin")):
            path = tmp_path / name
            assert cli_main(["generate", "--p", "3", "--q", "7",
                             "--format", fmt, "--out", str(path)]) == 0
            assert cli_main(["analyze", "--in", str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["n"] == 147
            assert report["least_period"] == EXAMPLE1_PERIOD
            assert report["lc_gcd"] == report["lc_berlekamp_massey"] == EXAMPLE1_LC
            assert report["minpoly"] == minpoly_render()

        # Scan to 1000.  Three pairs qualify: (3,7) and (3,13) as named by the
        # stated expectation, plus (5,11) whose period 605 also lies under the
        # bound; all must match.
        csv_path = tmp_path / "scan.csv"
        assert cli_main(["scan", "--max-period", "1000", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        rows = csv_path.read_text().strip().splitlines()
        parsed = [row.split(",") for row in rows[1:]]
        assert [(int(r[0]), int(r[1])) for r in parsed] == [(3, 7), (3, 13), (5, 11)]
        assert all(r[8] == "true" for r in parsed)
        golden_row = parsed[0]
        assert int(golden_row[5]) == EXAMPLE1_PERIOD
        assert int(golden_row[6]) == EXAMPLE1_LC
