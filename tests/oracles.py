"""Slow reference implementations kept as oracles for the fast paths.

`berlekamp_massey` is the incremental Berlekamp-Massey loop without the
single-bit discrepancy test and without truncation; it also builds the
connection polynomial, which the package's count-only loop never does, and
takes a BitSequence or a list of bits, packed by `pack_bits`.
`cyclotomic_bits` builds the n-th cyclotomic polynomial over GF(2) by
dividing x^n + 1 by the cyclotomic polynomials of every proper divisor.
`term_degrees` (with `render` on top of it) and `pack_bits` are the per-bit
loops that rendering and bit packing used, and `from_coeffs` and `from_terms`
build the tests' polynomials from coefficients or term degrees;
`parse_ascii` is the per-character ASCII parser that returned a list of bits.
`build_table` lists the Euler quotients over one period with one modular
power per position, and `generate_threshold` packs the threshold flags from it.
`int_mod` and `int_divmod` are the long divisions that shifted the divisor
even by zero, `minimal_polynomial_gcd` is the Euclidean gcd route on the
whole of x^N + 1 that the block route replaced, `sub_minpoly` the gcd route
on one sub-block with Euclid on every sub-block, before irreducible ones
were decided by their degree, `component` the sub-block's component of a
fold by long division and a per-bit product `int_mul`, `component_lc` the
BM route on a whole component, before it ran on the polyphase parts of an
irreducible sub-block, and `fold` reduces a period mod x^d + 1 one bit at a
time.  `coset_residues` is the per-coset loop that
folded each coset's residue keys into its own boolean array.
`synthesize_sequence` runs an LFSR recurrence, the generator that the
Berlekamp-Massey tests regenerate sequences with, and `two_periods` writes a
period out twice, the input Berlekamp-Massey reads.

The structural audit follows: the frozenset `CosetPartition` and
`build_partition`, the two product grids, the Counter multisets and the
per-bit `_residue_pass` behind the congruences, each as the package had them
before the dense coset index replaced them.  `audit_failures` runs them in the
order `audit_structure` did and returns the failure messages per lemma, with
the seeded sample of products above EXHAUSTIVE_LIMIT that it used then;
`partition_from_index` turns a (possibly corrupted) coset index into the
frozenset form so both sides can be fed the same partition.  `_grid_failures`
is the one product grid on the dense index that named the failing rows, here
also above EXHAUSTIVE_LIMIT, and `_powers` the per-exponent modular powers.
`_residue_counts`, `_bad_cosets` and `_check_key_multisets` are the audit's
lemma 5-7 route on the dense index before the per-modulus tables: np.unique
keys coset * m + (t mod m) with their counts for every m, compared with the
expected keys by np.setxor1d.  `residue_tables` is the per-modulus route that
followed it: one bincount of coset * m + (t mod m) for each of m = p, q, pq.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence as SequenceABC

import numpy as np

from eqseq import BitSequence, Gf2Poly
from eqseq.errors import DomainError, InternalConsistencyError, ParseError
from eqseq.gf2poly import _int_divmod, _int_gcd, cyclotomic_f2
from eqseq.limits import check_budget
from eqseq.lincomp import berlekamp_massey as count_only_berlekamp_massey
from eqseq.ntcore import GroupGenerators, PrimePair
from eqseq.sequence import pack_flags

EXHAUSTIVE_LIMIT = SAMPLE_COUNT = 10_000   # the old audit's grid bound and sample size
_GRID_CHUNK = 1 << 16                      # products per slice of the dense-index grid
ResidueCounts = tuple[np.ndarray, np.ndarray]   # sorted keys and their multiplicities


def berlekamp_massey(bits: BitSequence | SequenceABC[int]) -> tuple[int, Gf2Poly]:
    """Shortest LFSR (length L, connection polynomial C) generating the prefix.

    C(x) = 1 + c_1 x + ... encodes the recurrence
    s_n = c_1 s_{n-1} + ... + c_L s_{n-L}.  Fed two full periods of an
    N-periodic sequence, L is its linear complexity.

    Invariants of the incremental form: with mlast the step of the last
    length change, sb == (S*B) >> mlast throughout, and sc == (S*C) >> a where
    a = n - m, so the discrepancy at step n is bit m of sc.
    """
    s, nbits = (bits.bits, bits.length) if isinstance(bits, BitSequence) else pack_bits(bits)
    sc = s
    sb = s << 1  # (S*B) >> mlast with B = 1, mlast = -1
    b_poly, c_poly = 1, 1
    length = 0
    mlast = -1
    m = 0
    for n in range(nbits):
        if (sc >> m) & 1:
            sc >>= m
            m = 0
            new_c = c_poly ^ (b_poly << (n - mlast))
            if 2 * length <= n:
                sb, sc = sc, sb
                b_poly = c_poly
                mlast = n
                length = n + 1 - length
            c_poly = new_c
            sc ^= sb
        m += 1
    return length, Gf2Poly(c_poly)


def synthesize_sequence(
    connection: Gf2Poly,
    seed: BitSequence,
    length: int,
    register_length: int | None = None,
) -> BitSequence:
    """Run the LFSR recurrence s_t = c_1 s_{t-1} + ... + c_L s_{t-L}.

    `connection` is in the feedback convention shared by berlekamp_massey and
    minimal_polynomial_gcd: coefficient i multiplies the bit i steps back, and
    the constant term is 1.  The register length L defaults to the degree of
    the connection polynomial (exact for a minimal polynomial) but may exceed
    it, as a Berlekamp-Massey connection sometimes does.  The first L bits of
    `seed` initialize the register.
    """
    if length < 1:
        raise DomainError(f"length must be positive, got {length}")
    if not connection.bits & 1:
        raise DomainError("connection polynomial must have constant term 1")
    l = connection.degree if register_length is None else register_length
    if l < connection.degree:
        raise DomainError(
            f"register length {l} is below the connection degree {connection.degree}"
        )
    if seed.length < l:
        raise DomainError(f"seed provides {seed.length} bits, need {l}")
    # reverse c_1..c_L so the tap vector lines up with an ascending window
    taps = 0
    low = connection.bits >> 1
    for j in range(l):
        if (low >> j) & 1:
            taps |= 1 << (l - 1 - j)
    mask = (1 << l) - 1
    s = seed.bits & mask
    for t in range(l, length):
        window = (s >> (t - l)) & mask
        s |= ((window & taps).bit_count() & 1) << t
    return BitSequence(bits=s & ((1 << length) - 1), length=length, origin="lfsr")


def two_periods(seq: BitSequence) -> BitSequence:
    return BitSequence(bits=seq.bits | (seq.bits << seq.length), length=2 * seq.length,
                       origin=seq.origin)


def int_divmod(f: int, g: int) -> tuple[int, int]:
    dg = g.bit_length() - 1
    q = 0
    while f.bit_length() - 1 >= dg:
        shift = f.bit_length() - 1 - dg
        q |= 1 << shift
        f ^= g << shift
    return q, f


def int_mod(f: int, g: int) -> int:
    dg = g.bit_length() - 1
    while f.bit_length() - 1 >= dg:
        f ^= g << (f.bit_length() - 1 - dg)
    return f


def minimal_polynomial_gcd(seq: BitSequence) -> Gf2Poly:
    """Exact minimal polynomial (x^N + 1) / gcd(x^N + 1, A(x)).

    The all-zero sequence yields 1 (reading gcd(x^N + 1, 0) as x^N + 1).
    """
    x_n_1 = (1 << seq.length) | 1
    if seq.bits == 0:
        return Gf2Poly(1)
    f, g = x_n_1, seq.bits
    while g:
        f, g = g, int_mod(f, g)
    quotient, remainder = int_divmod(x_n_1, f)
    if remainder:
        raise InternalConsistencyError("gcd does not divide x^N + 1")
    return Gf2Poly(quotient)


def sub_minpoly(g: int, w: int, d: int) -> int:
    """G / gcd(G, w) for a sub-block G of block d and w = u mod G, by Euclid."""
    common = _int_gcd(g, w)
    if common == 1:
        return g
    quotient, remainder = _int_divmod(g, common)
    if remainder:
        raise InternalConsistencyError(f"gcd does not divide the block factor for d={d}")
    return quotient


def int_mul(a: int, b: int) -> int:
    """Carry-less product, one bit of a at a time."""
    out = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            out ^= b << i
    return out


def component(u: int, g: int, d: int) -> int:
    """u (x^d + 1) / g mod (x^d + 1), the g-component of a fold u, for g
    dividing x^d + 1, by long division."""
    cofactor, rest = int_divmod((1 << d) | 1, g)
    if rest:
        raise InternalConsistencyError(f"g does not divide x^{d} + 1")
    return int_mod(int_mul(u, cofactor), (1 << d) | 1)


def component_lc(component: int, degree: int, d: int) -> int:
    """The BM route on a whole sub-block component v of period d, as it ran
    on every record before it read the polyphase parts of an irreducible
    sub-block: count-only Berlekamp-Massey on the first 2 deg G bits of two
    periods of v, deg G being the bound on its LC."""
    nbits = 2 * degree
    two = (component | component << d) & ((1 << nbits) - 1)
    return count_only_berlekamp_massey(BitSequence(bits=two, length=nbits, origin="external"))


def fold(bits: int, n: int, d: int) -> int:
    """A mod (x^d + 1) for a period A of n bits: bit t lands on bit t mod d."""
    out = 0
    for t in range(n):
        if (bits >> t) & 1:
            out ^= 1 << (t % d)
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_bits(n: int) -> int:
    f = (1 << n) | 1  # x^n + 1
    for d in range(1, n):
        if n % d == 0:
            q, r = int_divmod(f, cyclotomic_bits(d))
            if r:
                raise InternalConsistencyError(
                    f"cyclotomic division for n={n} left a remainder"
                )
            f = q
    return f


def term_degrees(bits: int) -> list[int]:
    """Degrees of the nonzero terms, descending."""
    return [i for i in range(bits.bit_length() - 1, -1, -1)
            if (bits >> i) & 1]


def render(bits: int) -> str:
    """Text form in descending powers: \"x^3 + x + 1\", \"x\", \"1\", \"0\"."""
    if bits == 0:
        return "0"
    parts = []
    for d in term_degrees(bits):
        if d == 0:
            parts.append("1")
        elif d == 1:
            parts.append("x")
        else:
            parts.append(f"x^{d}")
    return " + ".join(parts)


def build_table(pair: PrimePair) -> list[int]:
    """Memoize psi(t) for every t in [0, pq^2)."""
    check_budget("period", pair.period)
    p, q = pair.p, pair.q
    pq = p * q
    wide = pq * pq
    phi = pair.phi_pq
    values = [0] * pair.period
    for t in range(pair.period):
        if math.gcd(t, pq) == 1:
            power = pow(t, phi, wide)
            values[t] = ((power - 1) // pq) % pq
    return values


def generate_threshold(pair: PrimePair) -> int:
    """Packed bits of the threshold sequence, one flag per table entry."""
    pq = pair.p * pair.q
    flags = [2 * v >= pq for v in build_table(pair)]
    return pack_bits(flags)[0]


def from_coeffs(coeffs) -> Gf2Poly:
    bits = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise DomainError(f"coefficients must be 0 or 1, got {c}")
        bits |= c << i
    return Gf2Poly(bits)


def from_terms(degrees) -> Gf2Poly:
    bits = 0
    for d in degrees:
        bits |= 1 << d
    return Gf2Poly(bits)


def pack_bits(bits) -> tuple[int, int]:
    seq = list(bits)
    packed = 0
    for i, b in enumerate(seq):
        if b not in (0, 1):
            raise DomainError(f"bits must be 0 or 1, got {b!r}")
        packed |= b << i
    return packed, len(seq)


def parse_ascii(text: str) -> list[int]:
    """Bits from ASCII text; raises ParseError with a 1-based position."""
    bits: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        for colno, ch in enumerate(line, start=1):
            if ch in "01":
                bits.append(ord(ch) - ord("0"))
            elif not ch.isspace():
                raise ParseError(
                    f"unexpected character {ch!r} in sequence file",
                    line=lineno, column=colno,
                )
    return bits


# ---------------------------------------------------------------------------
# structural audit over frozensets


@dataclass(frozen=True)
class CosetPartition:
    """The q cosets D_0..D_{q-1} of units plus the non-unit positions P."""

    pair: PrimePair
    cosets: tuple[frozenset[int], ...]
    non_units: frozenset[int]

    @property
    def units_count(self) -> int:
        return sum(len(c) for c in self.cosets)


def build_partition(pair: PrimePair, table: SequenceABC[int] | None = None) -> CosetPartition:
    """Populate the partition from the coset index over one full period."""
    pair.require_divides()
    if table is None:
        table = build_table(pair)
    p, q = pair.p, pair.q
    pq = p * q
    cosets: list[set[int]] = [set() for _ in range(q)]
    non_units: set[int] = set()
    for t, value in enumerate(table):
        if math.gcd(t, pq) == 1:
            if value % p != 0:
                raise InternalConsistencyError(
                    f"psi({t}) = {value} not divisible by p={p}"
                )
            cosets[value // p].add(t)
        else:
            non_units.add(t)
    return CosetPartition(
        pair=pair,
        cosets=tuple(frozenset(c) for c in cosets),
        non_units=frozenset(non_units),
    )



def _powers(base: int, count: int, n: int) -> np.ndarray:
    """base^0, base^1, ..., base^(count-1) mod n."""
    return np.array([pow(base, i, n) for i in range(count)], dtype=np.int64)


def _grid_failures(pair: PrimePair, index: np.ndarray) -> np.ndarray:
    """Units u whose row of the product grid breaks index additivity, ascending.

    Row u holds index[u*v] == (index[u] + index[v]) mod q for every unit v.
    The grid is symmetric, so only the slices on and above the diagonal are
    computed, about _GRID_CHUNK products each, and a failing cell marks both
    its row and its column.
    """
    n, q = pair.period, pair.q
    units = np.flatnonzero(index >= 0).astype(np.int32)   # products stay below n^2 < 2^31
    iu = index[units]
    # index[u*v] - index[u] - index[v] is 0 or -q exactly when the cell holds;
    # a non-unit product reads as -2q, which can give neither
    lookup = np.where(index >= 0, index, -2 * q).astype(np.int32)
    step = max(1, _GRID_CHUNK // max(len(units), 1))
    bad = [units[:0]]
    for lo in range(0, len(units), step):
        prod = np.outer(units[lo:lo + step], units[lo:])
        prod %= n
        diff = lookup.take(prod)
        diff -= iu[lo:]
        diff -= iu[lo:lo + step, None]
        fails = (diff != 0) & (diff != -q)
        bad += [units[lo:lo + step][fails.any(axis=1)], units[lo:][fails.any(axis=0)]]
    return np.unique(np.concatenate(bad))


def _coset_arrays(partition: CosetPartition) -> tuple[np.ndarray, np.ndarray]:
    """(units sorted ascending, index lookup over [0, period)) as int64 arrays."""
    n = partition.pair.period
    idx = np.full(n, -1, dtype=np.int64)
    for ell, coset in enumerate(partition.cosets):
        idx[np.fromiter(coset, dtype=np.int64)] = ell
    units = np.flatnonzero(idx >= 0).astype(np.int64)
    return units, idx


def _check_partition_shape(pair: PrimePair, partition: CosetPartition) -> list[str]:
    problems = []
    expected = pair.phi_pq
    for ell, coset in enumerate(partition.cosets):
        if len(coset) != expected:
            problems.append(f"|D_{ell}| = {len(coset)}, expected {expected}")
    covered = set().union(*partition.cosets) | partition.non_units
    if len(covered) != pair.period or partition.units_count + len(partition.non_units) != pair.period:
        problems.append("cosets and non-units do not partition the period")
    expected_p = pair.period - pair.q * pair.phi_pq
    if len(partition.non_units) != expected_p:
        problems.append(f"|P| = {len(partition.non_units)}, expected {expected_p}")
    return problems


def _check_ghat_law(pair: PrimePair, gens: GroupGenerators, partition: CosetPartition) -> list[str]:
    problems = []
    n = pair.period
    d0 = partition.cosets[0]
    shifted = d0
    for ell in range(1, pair.q):
        shifted = {gens.ghat * t % n for t in shifted}
        if shifted != partition.cosets[ell]:
            problems.append(f"ghat^{ell} * D_0 != D_{ell}")
    return problems


def _check_kernel_image(
    pair: PrimePair,
    gens: GroupGenerators,
    partition: CosetPartition,
    table: SequenceABC[int],
    rng: np.random.Generator,
) -> list[str]:
    problems = []
    n, p, q = pair.period, pair.p, pair.q

    # kernel: the subgroup generated by g^q and h equals D_0
    gq = pow(gens.g, q, n)
    d = math.gcd(p - 1, q - 1)
    kernel = set()
    x = 1
    for _ in range(math.lcm(p - 1, q - 1)):
        y = x
        for _ in range(d):
            kernel.add(y)
            y = y * gens.h % n
        x = x * gq % n
    if kernel != partition.cosets[0]:
        problems.append(
            f"subgroup <g^q, h> has {len(kernel)} elements and differs from D_0"
        )

    # image over units is exactly {0, p, 2p, ..., (q-1)p}
    pq = p * q
    image = {v for t, v in enumerate(table) if math.gcd(t, pq) == 1}
    if image != {p * ell for ell in range(q)}:
        problems.append(f"image of the quotient map is {sorted(image)}")

    # additivity of the coset index over products
    units, idx = _coset_arrays(partition)
    if n <= EXHAUSTIVE_LIMIT:
        step = max(1, (1 << 22) // max(len(units), 1))
        for lo in range(0, len(units), step):
            chunk = units[lo:lo + step]
            prod = chunk[:, None] * units[None, :] % n
            want = (idx[chunk][:, None] + idx[units][None, :]) % q
            if not np.array_equal(idx[prod], want):
                problems.append("index additivity fails on the full product grid")
                break
    else:
        u = units[rng.integers(0, len(units), size=SAMPLE_COUNT)]
        v = units[rng.integers(0, len(units), size=SAMPLE_COUNT)]
        if not np.array_equal(idx[u * v % n], (idx[u] + idx[v]) % q):
            problems.append("index additivity fails on sampled products")
    return problems


def _check_translation(
    pair: PrimePair,
    partition: CosetPartition,
    rng: np.random.Generator,
) -> list[str]:
    # u in D_j maps D_i onto D_{i+j}: index additivity over u*v plus equal
    # cardinalities gives the set equality, since multiplication by a unit is
    # injective.
    problems = []
    n, q = pair.period, pair.q
    units, idx = _coset_arrays(partition)
    if n <= EXHAUSTIVE_LIMIT:
        for j in range(q):
            dj = np.fromiter(partition.cosets[j], dtype=np.int64)
            prod = dj[:, None] * units[None, :] % n
            want = (j + idx[units][None, :]) % q
            if not np.array_equal(idx[prod], np.broadcast_to(want, prod.shape)):
                problems.append(f"translation by D_{j} leaves its target coset")
    else:
        u = units[rng.integers(0, len(units), size=SAMPLE_COUNT)]
        v = units[rng.integers(0, len(units), size=SAMPLE_COUNT)]
        if not np.array_equal(idx[u * v % n], (idx[u] + idx[v]) % q):
            problems.append("translation fails on sampled products")
        # a few full set translations as well
        for _ in range(8):
            u0 = int(units[rng.integers(0, len(units))])
            i = int(rng.integers(0, q))
            j = int(idx[u0])
            image = {u0 * v % n for v in partition.cosets[i]}
            if image != partition.cosets[(i + j) % q]:
                problems.append(f"{u0} * D_{i} != D_{(i + j) % q}")
    return problems


def _check_residue_multisets(
    pair: PrimePair,
    gens: GroupGenerators,
    partition: CosetPartition,
) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    pq, q2 = p * q, q * q
    out: dict[str, list[str]] = {"lemma5": [], "lemma6": [], "lemma7": []}

    frak_g = gens.g % q2
    frak_ghat = gens.ghat % q2
    subgroup = []
    x = 1
    gq = pow(frak_g, q, q2)
    for _ in range(q - 1):
        subgroup.append(x)
        x = x * gq % q2

    units_pq = sorted(t for t in range(pq) if math.gcd(t, pq) == 1)

    for ell, coset in enumerate(partition.cosets):
        mod_p = Counter(u % p for u in coset)
        if mod_p != {r: q - 1 for r in range(1, p)}:
            out["lemma5"].append(f"D_{ell} mod p multiset wrong: {dict(mod_p)}")
        mod_q = Counter(u % q for u in coset)
        if mod_q != {r: p - 1 for r in range(1, q)}:
            out["lemma5"].append(f"D_{ell} mod q multiset wrong")
        if sorted(u % pq for u in coset) != units_pq:
            out["lemma6"].append(f"D_{ell} mod pq is not a bijection onto the units")
        coset_q2 = Counter(u % q2 for u in coset)
        target = Counter()
        shift = pow(frak_ghat, ell, q2)
        for s in subgroup:
            target[shift * s % q2] = p - 1
        if coset_q2 != target:
            out["lemma7"].append(f"D_{ell} mod q^2 multiset wrong")
    return out


def _residue_pass(n: int, modulus_bits: int, idx: list[int], buckets: int) -> list[int]:
    """Reduce sum_{t in bucket} x^t mod the modulus, one linear sweep.

    Maintains x^t mod f incrementally (shift, conditional XOR), so huge
    exponents never materialize as dense polynomials.
    """
    acc = [0] * buckets
    deg = modulus_bits.bit_length() - 1
    r = 1
    for t in range(n):
        i = idx[t]
        if i >= 0:
            acc[i] ^= r
        r <<= 1
        if (r >> deg) & 1:
            r ^= modulus_bits
    return acc


def coset_residues(found: tuple[np.ndarray, np.ndarray], m: int, q: int) -> list[int]:
    """Each coset polynomial mod Phi_m from the sorted residue keys
    coset * m + (t mod m) and their counts, one coset at a time."""
    keys, counts = found
    odd = keys[counts % 2 == 1]
    bounds = np.searchsorted(odd, np.arange(q + 1) * m)
    modulus = cyclotomic_f2(m).bits
    residues = []
    for ell in range(q):
        folded = np.zeros(m, dtype=bool)
        folded[odd[bounds[ell]:bounds[ell + 1]] - ell * m] = True
        residues.append(int_mod(pack_flags(folded), modulus))
    return residues


def _residue_counts(pair: PrimePair, index: np.ndarray) -> dict[int, ResidueCounts]:
    """For m in p, q, pq, q^2: sorted keys coset * m + (t mod m) over the units, with counts."""
    p, q = pair.p, pair.q
    units = np.flatnonzero(index >= 0)
    cosets = index[units].astype(np.int64)
    return {m: np.unique(cosets * m + units % m, return_counts=True)
            for m in (p, q, p * q, q * q)}


def residue_tables(pair: PrimePair, index: np.ndarray) -> dict[int, np.ndarray]:
    """For m in p, q and pq, the (q, m) table of the units of each coset per
    class mod m, one bincount per modulus; a label q or more lands past it."""
    p, q = pair.p, pair.q
    units = np.flatnonzero(index >= 0)
    cosets = index[units].astype(np.int64)
    return {m: np.bincount(cosets * m + units % m, minlength=q * m)[:q * m].reshape(q, m)
            for m in (p, q, p * q)}


def _bad_cosets(found: ResidueCounts, expected_keys: np.ndarray, count: int, m: int) -> set[int]:
    """Cosets whose keys differ from the expected (sorted, distinct) ones or occur not `count` times."""
    keys, counts = found
    stray = np.setxor1d(keys, expected_keys, assume_unique=True)
    return set((stray // m).tolist()) | set((keys[counts != count] // m).tolist())


def _check_key_multisets(pair: PrimePair, gens: GroupGenerators,
                         counts: dict[int, ResidueCounts]) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    pq, q2 = p * q, q * q
    out: dict[str, list[str]] = {"lemma5": [], "lemma6": [], "lemma7": []}

    def keys(m: int, residues: np.ndarray) -> np.ndarray:
        return (np.arange(q)[:, None] * m + residues).ravel()

    # D_ell mod q^2 is ghat^ell times the subgroup generated by g^q
    subgroup = _powers(pow(gens.g % q2, q, q2), q - 1, q2)
    target = np.outer(_powers(gens.ghat % q2, q, q2), subgroup) % q2
    units_pq = np.array([t for t in range(pq) if math.gcd(t, pq) == 1])

    bad_p = _bad_cosets(counts[p], keys(p, np.arange(1, p)), q - 1, p)
    bad_q = _bad_cosets(counts[q], keys(q, np.arange(1, q)), p - 1, q)
    bad_pq = _bad_cosets(counts[pq], keys(pq, units_pq), 1, pq)
    bad_q2 = _bad_cosets(counts[q2], np.unique(keys(q2, target)), p - 1, q2)

    keys_p, counts_p = counts[p]
    for ell in range(q):
        if ell in bad_p:
            mine = keys_p // p == ell
            mod_p = dict(zip((keys_p[mine] % p).tolist(), counts_p[mine].tolist()))
            out["lemma5"].append(f"D_{ell} mod p multiset wrong: {mod_p}")
        if ell in bad_q:
            out["lemma5"].append(f"D_{ell} mod q multiset wrong")
        if ell in bad_pq:
            out["lemma6"].append(f"D_{ell} mod pq is not a bijection onto the units")
        if ell in bad_q2:
            out["lemma7"].append(f"D_{ell} mod q^2 multiset wrong")
    return out


def _check_congruences(pair: PrimePair, partition: CosetPartition) -> dict[str, list[str]]:
    p, q, n = pair.p, pair.q, pair.period
    out: dict[str, list[str]] = {"lemma8": [], "lemma9": []}

    idx = [-1] * n
    for ell, coset in enumerate(partition.cosets):
        for t in coset:
            idx[t] = ell

    acc_by_modulus: dict[str, list[int]] = {}
    per_coset_expect = {"pq": 1, "p": 0, "q": 0, "q2": 0}
    moduli = {
        "pq": cyclotomic_f2(p * q).bits,
        "p": cyclotomic_f2(p).bits,
        "q": cyclotomic_f2(q).bits,
        "q2": cyclotomic_f2(q * q).bits,
    }
    for name, bits in moduli.items():
        acc = _residue_pass(n, bits, idx, q)
        acc_by_modulus[name] = acc
        expect = per_coset_expect[name]
        bad = [ell for ell, r in enumerate(acc) if r != expect]
        if bad:
            out["lemma8"].append(
                f"coset polynomial(s) {bad} are not {expect} modulo the {name} cyclotomic"
            )

    # the sum over all cosets: 1 modulo the pq cyclotomic, 0 modulo the rest
    sum_expect = {"pq": 1, "p": 0, "q": 0, "q2": 0}
    for name, acc in acc_by_modulus.items():
        total = 0
        for r in acc:
            total ^= r
        if total != sum_expect[name]:
            out["lemma9"].append(f"summed coset polynomial is not {sum_expect[name]} mod {name}")
    total_pq2 = 0
    for r in _residue_pass(n, cyclotomic_f2(n).bits, idx, q):
        total_pq2 ^= r
    if total_pq2 != 0:
        out["lemma9"].append("summed coset polynomial is nonzero mod the pq^2 cyclotomic")
    return out


def partition_from_index(pair: PrimePair, index) -> CosetPartition:
    """The frozenset partition whose coset ell holds the t with index[t] == ell."""
    cosets = [frozenset(np.flatnonzero(index == ell).tolist()) for ell in range(pair.q)]
    return CosetPartition(pair=pair, cosets=tuple(cosets),
                          non_units=frozenset(np.flatnonzero(index < 0).tolist()))


def audit_failures(
    pair: PrimePair,
    gens: GroupGenerators,
    partition: CosetPartition,
    table: SequenceABC[int],
    seed: int,
) -> dict[str, list[str]]:
    """Failure messages per lemma, in the order audit_structure produced them."""
    rng = np.random.default_rng(seed)
    failures = {"lemma2": _check_kernel_image(pair, gens, partition, table, rng)}
    failures["lemma3"] = _check_partition_shape(pair, partition) + _check_ghat_law(pair, gens, partition)
    failures["lemma4"] = _check_translation(pair, partition, rng)
    failures.update(_check_residue_multisets(pair, gens, partition))
    failures.update(_check_congruences(pair, partition))
    return failures
