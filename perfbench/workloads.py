"""Workload inputs and output checks, written without the package under test.

Every expected value here comes from the benchmark's own arithmetic: its own
pair enumeration, the closed-form linear complexity, Euler quotients by
`pow`, and an LFSR loop whose characteristic polynomial is built from
irreducible factors found by a Rabin test.  Nothing imports `eqseq`, so a
defect in a timed layer cannot hide by also changing what the check expects.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

SWEEP_MAX_PERIOD = 100_000

CSV_HEADER = [
    "p", "q", "q_mod_4", "wieferich_ok", "divisibility_ok", "period",
    "lc_empirical", "lc_predicted", "match", "sigma", "millis",
]

LEMMAS = ("lemma2", "lemma3", "lemma4", "lemma5", "lemma6", "lemma7", "lemma8", "lemma9")

# analyze inputs: sizes are fixed so that only the content varies with the seed
# A prime with 2 primitive, so x^n + 1 = (x + 1) Phi_n with Phi_n irreducible:
# a random block of odd weight then has LC exactly n, and a minpoly of two terms.
RANDOM_BITS = 60_029
LFSR_ORDER = 12                      # factors of degree 12 have order dividing 2^12 - 1
LFSR_BITS = 15 * (2**LFSR_ORDER - 1)  # 61425: a whole number of LFSR periods
LFSR_MAX_REGISTER = 512
PERIOD_BITS = 20_000
PERIOD_COPIES = 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def qualifying_pairs(bound: int) -> list[tuple[int, int]]:
    """Odd primes p < q with p | q-1 and p*q^2 <= bound, by trial division."""
    pairs = []
    q = 7
    while 3 * q * q <= bound:
        if _is_prime(q):
            for p in range(3, q, 2):
                if (q - 1) % p == 0 and _is_prime(p) and p * q * q <= bound:
                    pairs.append((p, q))
        q += 2
    return sorted(pairs)


def closed_form_lc(p: int, q: int) -> int:
    """deg Phi_{pq^2} plus deg Phi_{pq} when q = 3 mod 4."""
    return (p - 1) * q * (q - 1) + ((p - 1) * (q - 1) if q % 4 == 3 else 0)


def two_coset_index(p: int, q: int) -> int:
    """psi(2)/p, with psi the Euler quotient modulo pq."""
    pq = p * q
    psi = ((pow(2, (p - 1) * (q - 1), pq * pq) - 1) // pq) % pq
    return psi // p


# ---------------------------------------------------------------------------
# analyze inputs


@dataclass(frozen=True)
class SeqFile:
    """One generated analyze input and what its output must satisfy."""

    name: str
    kind: str           # "random" (LC is the length), "lfsr" or "periodic"
    fmt: str            # "ascii" or "packed"
    bits: int           # whole file content, bit t = s_t
    length: int
    period: int | None  # passed as --period
    register: int       # LFSR register length; 0 when not an LFSR


def encode(f: SeqFile) -> bytes:
    """The file bytes in the format documented for `eqseq analyze`."""
    if f.fmt == "ascii":
        text = format(f.bits, f"0{f.length}b")[::-1]
        lines = [text[i:i + 64] for i in range(0, len(text), 64)]
        return ("# perfbench " + f.kind + "\n" + "\n".join(lines) + "\n").encode("ascii")
    header = b"EQSEQ\x00\x01\x00" + bytes(8) + f.length.to_bytes(8, "little")
    return header + f.bits.to_bytes((f.length + 7) // 8, "little")


def _clmul(a: int, b: int) -> int:
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def _polymod(f: int, g: int) -> int:
    dg = g.bit_length()
    while f.bit_length() >= dg:
        f ^= g << (f.bit_length() - dg)
    return f


def _polygcd(f: int, g: int) -> int:
    while g:
        f, g = g, _polymod(f, g)
    return f


def _frobenius(f: int, k: int) -> int:
    """x^(2^k) mod f."""
    r = 2
    for _ in range(k):
        r = _polymod(_clmul(r, r), f)
    return r


def _irreducible(rng: random.Random, degree: int) -> int:
    """A random irreducible polynomial of the given degree (Rabin's test)."""
    prime_factors = [r for r in range(2, degree + 1) if degree % r == 0 and _is_prime(r)]
    while True:
        f = (1 << degree) | (rng.getrandbits(degree - 1) << 1) | 1
        if _frobenius(f, degree) == 2 and all(
                _polygcd(f, _frobenius(f, degree // r) ^ 2) == 1 for r in prime_factors):
            return f


def lfsr_bits(rng: random.Random, register_max: int, length: int) -> tuple[int, int]:
    """Bits of an LFSR whose period divides 2^LFSR_ORDER - 1, and its register length.

    The characteristic polynomial is a product of distinct irreducible
    factors of degree LFSR_ORDER, so x^(2^LFSR_ORDER - 1) + 1 is a multiple
    of it and every output is periodic with a period dividing `length`.
    """
    factors: set[int] = set()
    while (len(factors) + 1) * LFSR_ORDER <= register_max:
        factors.add(_irreducible(rng, LFSR_ORDER))
    charpoly = 1
    for f in factors:
        charpoly = _clmul(charpoly, f)
    reg = charpoly.bit_length() - 1
    # s_t = sum_{i<reg} c_i s_{t-reg+i}, c_i the coefficients of charpoly
    taps = charpoly & ((1 << reg) - 1)
    window = rng.getrandbits(reg) | 1
    out = [(window >> j) & 1 for j in range(reg)]
    for _ in range(length - reg):
        bit = (window & taps).bit_count() & 1
        window = (window >> 1) | (bit << (reg - 1))
        out.append(bit)
    return int("".join("1" if b else "0" for b in reversed(out)), 2), reg


def full_lc_bits(rng: random.Random, n: int) -> int:
    """Random bits of odd weight other than all ones: coprime to x^n + 1 for n = RANDOM_BITS."""
    bits = rng.getrandbits(n)
    if not bits.bit_count() & 1:
        bits ^= 1
    if bits == (1 << n) - 1:
        bits ^= 0b110
    return bits


def analyze_inputs(seed: int) -> list[SeqFile]:
    """Six files, three ASCII and three packed: three random, two LFSR, one periodic.

    Random and LFSR files carry the Berlekamp-Massey and gcd cost; the one
    periodic file carries the parsing and --period cost, which at this size
    is about a random file's Berlekamp-Massey time.
    """
    rng = random.Random(seed)
    files = []
    for i, fmt in enumerate(("packed", "ascii", "packed")):
        files.append(SeqFile(f"random-{i}", "random", fmt, full_lc_bits(rng, RANDOM_BITS),
                             RANDOM_BITS, None, 0))
    for i, fmt in enumerate(("ascii", "packed")):
        bits, reg = lfsr_bits(rng, LFSR_MAX_REGISTER, LFSR_BITS)
        files.append(SeqFile(f"lfsr-{i}", "lfsr", fmt, bits, LFSR_BITS, None, reg))
    block = rng.getrandbits(PERIOD_BITS)
    whole = 0
    for i in range(PERIOD_COPIES):
        whole |= block << (i * PERIOD_BITS)
    files.append(SeqFile("periodic-0", "periodic", "ascii", whole,
                         PERIOD_BITS * PERIOD_COPIES, PERIOD_BITS, 0))
    return files


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right


def _parse_minpoly(text: str) -> int:
    bits = 0
    for term in text.split(" + "):
        if term == "1":
            bits |= 1
        elif term == "x":
            bits |= 2
        elif term.startswith("x^"):
            bits |= 1 << int(term[2:])
        else:
            raise ValueError(f"bad minpoly term {term!r}")
    return bits


def _annihilates(minpoly: int, seq: int, n: int) -> bool:
    """M(x) * A(x) == 0 mod x^n + 1, i.e. M generates the n-periodic sequence."""
    prod = _clmul(minpoly, seq)
    mask = (1 << n) - 1
    while prod >> n:
        prod = (prod & mask) ^ (prod >> n)
    return prod == 0


def check_scan(stdout: str, pairs: list[tuple[int, int]], lc_of=closed_form_lc) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != CSV_HEADER:
        return ["scan CSV header differs"]
    problems = []
    seen = []
    for row in rows[1:]:
        rec = dict(zip(CSV_HEADER, row))
        p, q = int(rec["p"]), int(rec["q"])
        seen.append((p, q))
        lc = str(lc_of(p, q))
        want = {"q_mod_4": str(q % 4), "wieferich_ok": "true", "divisibility_ok": "true",
                "period": str(p * q * q), "lc_empirical": lc, "lc_predicted": lc,
                "match": "true", "sigma": str(two_coset_index(p, q))}
        bad = [k for k, v in want.items() if rec.get(k) != v]
        if bad:
            problems.append(f"scan row ({p}, {q}): {', '.join(bad)} wrong")
    if seen != pairs:
        problems.append(f"scan covered {len(seen)} pairs, expected {len(pairs)}")
    return problems


def check_structure(stdout: str, p: int, q: int, sigma_of=two_coset_index) -> list[str]:
    report = json.loads(stdout)
    problems = [f"{name} failed" for name in LEMMAS if report.get(f"{name}_ok") is not True]
    if report.get("pair") != [p, q]:
        problems.append(f"pair is {report.get('pair')}")
    if report.get("sigma") != sigma_of(p, q):
        problems.append(f"sigma {report.get('sigma')} != {sigma_of(p, q)}")
    return problems


def check_analyze(stdout: str, f: SeqFile) -> list[str]:
    report = json.loads(stdout)
    n = f.period or f.length
    problems = []
    if report.get("n") != n:
        return [f"n is {report.get('n')}, expected {n}"]
    lc = report.get("lc_gcd")
    if lc != report.get("lc_berlekamp_massey"):
        problems.append(f"lc_gcd {lc} != lc_berlekamp_massey {report.get('lc_berlekamp_massey')}")
    minpoly = _parse_minpoly(report.get("minpoly", ""))
    if minpoly.bit_length() - 1 != lc:
        problems.append(f"minpoly degree {minpoly.bit_length() - 1} != LC {lc}")
    if not _annihilates(minpoly, f.bits & ((1 << n) - 1), n):
        problems.append("minpoly does not annihilate the sequence")
    period = report.get("least_period")
    if not isinstance(period, int) or period < 1 or n % period:
        problems.append(f"least period {period} does not divide {n}")
    if f.kind == "random" and lc != n:
        problems.append(f"random file of odd weight has LC {lc}, expected {n}")
    if f.kind == "lfsr" and not lc <= f.register:
        problems.append(f"LFSR file has LC {lc} above its register length {f.register}")
    return problems
