"""Linear-complexity engine: LFSR synthesis, exact minimal polynomial, prediction.

Two independent routes to the linear complexity are implemented and always
cross-checked:

* Berlekamp-Massey synthesis of the shortest LFSR from a bit prefix.  The
  discrepancy is not recomputed from scratch each step; instead the products
  of the input with the two working connection polynomials are maintained
  incrementally as packed integers, so each step costs a constant number of
  big-integer operations instead of a coefficient loop.

* The closed form  M(x) = (x^N + 1) / gcd(x^N + 1, A(x))  from the generating
  polynomial A of one period, with LC = deg M.

Both run block by block.  With N = 2^k m, m odd, x^N + 1 is the product of
the pairwise coprime F_e = Phi_e(x^(2^k)) over the divisors e of m, so M is
the product of the blocks' F_e / gcd(F_e, A), and each block's LC is also
found by Berlekamp-Massey on the block's component of the sequence.  The
two must agree on every block.  Each run checks that the F_e multiply to
x^N + 1, so the measured M does not rest on the cyclotomic construction
being right, and it never reads the prediction.

The predicted minimal polynomial is a product of cyclotomic polynomials
selected by q mod 4; `verify_theorem` compares it against the measured one
and reports the verdict, with the LC of every block.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple
from typing import Sequence as SequenceABC

from . import eulerq
from .errors import DomainError, InternalConsistencyError
from .gf2poly import (
    Gf2Poly,
    _cyclotomic_pair,
    _int_compose,
    _int_divmod,
    _int_mod,
    _int_mul,
    cyclotomic_f2,
    gcd,
)
from .limits import check_budget
from .ntcore import PrimePair, factorize, wieferich_ok
from .sequence import (
    BitSequence,
    _divisors_ascending,
    generate_threshold,
    least_period,
    pack_bits,
)


def _as_packed(bits) -> tuple[int, int]:
    if isinstance(bits, BitSequence):
        return bits.bits, bits.length
    if isinstance(bits, int):
        raise DomainError("pass a BitSequence or an iterable of bits, not a bare int")
    seq = list(bits)
    return pack_bits(seq), len(seq)


#: Steps between truncations of the working products in berlekamp_massey.
_TRUNCATE_EVERY = 2048


def berlekamp_massey(
    bits: BitSequence | SequenceABC[int], *, connection: bool = True
) -> tuple[int, Gf2Poly | None]:
    """Shortest LFSR (length L, connection polynomial C) generating the prefix.

    C(x) = 1 + c_1 x + ... encodes the recurrence
    s_n = c_1 s_{n-1} + ... + c_L s_{n-L}.  Fed two full periods of an
    N-periodic sequence, L is its linear complexity.  With
    connection=False only L is found: the updates of C and of the previous
    connection B are skipped, and None stands in for C.

    Invariants of the incremental form: with mlast the step of the last
    length change, sb == (S*B) >> mlast throughout, and sc == (S*C) >> a where
    a = n - m, so the discrepancy at step n is bit m of sc.  Coefficients
    below n are never read again and none past nbits - 1 is ever read, so
    every _TRUNCATE_EVERY steps sc is shifted to base n (m = 0), which keeps
    the bit tested small through a long run without discrepancies, and cut
    to its low nbits - n + 2 bits; sb is XORed into sc at base n or later,
    so the same mask covers it.

    The period the prefix implies, half its length rounded up, must lie
    within the budget, so two periods of an in-budget sequence pass.
    """
    s, nbits = _as_packed(bits)
    check_budget("period", (nbits + 1) // 2)
    sc = s
    sb = s << 1  # (S*B) >> mlast with B = 1, mlast = -1
    b_poly, c_poly = 1, 1
    length = 0
    mlast = -1
    m = 0
    every = _TRUNCATE_EVERY
    for n in range(nbits):
        if n % every == 0:
            sc >>= m
            m = 0
            mask = (1 << (nbits - n + 2)) - 1
            sc &= mask
            sb &= mask
        if sc & (1 << m):
            sc >>= m
            m = 0
            if 2 * length <= n:
                sb, sc = sc, sb
                if connection:
                    b_poly, c_poly = c_poly, c_poly ^ (b_poly << (n - mlast))
                mlast = n
                length = n + 1 - length
            elif connection:
                c_poly ^= b_poly << (n - mlast)
            sc ^= sb
        m += 1
    return length, Gf2Poly(c_poly) if connection else None


class _Block(NamedTuple):
    """One factor F_e of x^N + 1 = prod_e F_e, over the divisors e of the odd
    part m of N = 2^k m.

    F_e = Phi_e(x^(2^k)) = Phi_r(x^s) for the radical r of e and the stride
    s = d / r, where d = 2^k e; F_e divides x^d + 1 with cofactor
    H = H_r(x^s).  The factors are pairwise coprime, so the minimal
    polynomial of a period A is the product over the blocks of
    F_e / gcd(F_e, A mod (x^d + 1)).
    """

    d: int
    stride: int    # s
    phi: int       # Phi_r
    factor: int    # F_e
    cofactor: int  # H = (x^d + 1) / F_e


def _blocks(n: int) -> list[_Block]:
    """The blocks of x^n + 1 by ascending d, each checked to satisfy
    Phi_r H_r = x^r + 1, and all together to multiply to x^n + 1."""
    k = (n & -n).bit_length() - 1
    blocks = []
    product = 1
    for e in _divisors_ascending(n >> k):
        radical = math.prod(set(factorize(e)))
        phi, h = _cyclotomic_pair(radical)
        if _int_mul(phi, h) != (1 << radical) | 1:
            raise InternalConsistencyError(f"cyclotomic cofactor for n={radical} is wrong")
        stride = (e << k) // radical
        block = _Block(e << k, stride, phi, _int_compose(phi, stride), _int_compose(h, stride))
        product = _int_mul(product, block.factor)
        blocks.append(block)
    if product != (1 << n) | 1:
        raise InternalConsistencyError(f"cyclotomic blocks do not multiply to x^{n} + 1")
    return blocks


def _fold(a: int, n: int, d: int) -> int:
    """a mod (x^d + 1), the XOR of the n/d length-d chunks of a, for a of
    degree below n, a multiple of d.  x^h = 1 mod x^d + 1 for every multiple
    h of d, so XORing the high part onto the low h bits keeps the residue."""
    while n > d:
        half = n // d // 2 * d
        a = (a & ((1 << half) - 1)) ^ (a >> half)
        n -= half
    return a


def _block_folds(seq: BitSequence) -> Iterator[tuple[_Block, int]]:
    """Each block of x^N + 1 with one period folded to its length d."""
    n = seq.length
    check_budget("sequence length", n)
    for block in _blocks(n):
        yield block, _fold(seq.bits, n, block.d)


def _reduce_polyphase(u: int, block: _Block) -> int:
    """u mod F_e for u of degree below d.  F_e = Phi_r(x^s), so each of the
    s polyphase parts of u (coefficients j, j + s, j + 2s, ...) reduces mod
    Phi_r on its own."""
    degree = Gf2Poly(block.factor).degree
    if u.bit_length() <= degree:
        return u
    s = block.stride
    digits = format(u, f"0{block.d}b")[::-1]  # coefficient i at index i
    out = bytearray(b"0" * degree)
    for j in range(s):
        part = _int_mod(int(digits[j::s][::-1], 2), block.phi)
        out[j::s] = format(part, f"0{degree // s}b")[::-1].encode()
    return int(out[::-1], 2)


def _block_minpoly(u: int, block: _Block) -> Gf2Poly:
    """gcd route: F_e / gcd(F_e, u mod F_e)."""
    g = gcd(Gf2Poly(block.factor), Gf2Poly(_reduce_polyphase(u, block))).bits
    if g == 1:
        return Gf2Poly(block.factor)
    quotient, remainder = _int_divmod(block.factor, g)
    if remainder:
        raise InternalConsistencyError(f"gcd does not divide the block factor for d={block.d}")
    return Gf2Poly(quotient)


def _block_lc(u: int, block: _Block, origin) -> int:
    """BM route: the LC of the F_e-component v = u H mod (x^d + 1), whose
    minimal polynomial is F_e / gcd(F_e, u).  That LC is at most deg F_e, so
    2 deg F_e bits of two periods of v determine it."""
    d = block.d
    v = _int_mul(u, block.cofactor)
    v = (v & ((1 << d) - 1)) ^ (v >> d)
    nbits = 2 * Gf2Poly(block.factor).degree
    two = (v | (v << d)) & ((1 << nbits) - 1)
    return berlekamp_massey(BitSequence(bits=two, length=nbits, origin=origin),
                            connection=False)[0]


def _product(polys: Iterable[Gf2Poly]) -> Gf2Poly:
    return Gf2Poly(functools.reduce(_int_mul, (f.bits for f in polys), 1))


def minimal_polynomial_gcd(seq: BitSequence) -> Gf2Poly:
    """Exact minimal polynomial (x^N + 1) / gcd(x^N + 1, A(x)), block by block.

    The all-zero sequence yields 1 (reading gcd(x^N + 1, 0) as x^N + 1).
    """
    return _product(_block_minpoly(u, block) for block, u in _block_folds(seq))


def _minpolys_by_block(seq: BitSequence) -> dict[int, Gf2Poly]:
    """The minimal polynomial of each block by the gcd route, keyed by d,
    with its degree checked against Berlekamp-Massey on the block."""
    out = {}
    for block, u in _block_folds(seq):
        minpoly = _block_minpoly(u, block)
        lc_bm = _block_lc(u, block, seq.origin)
        if lc_bm != minpoly.degree:
            raise InternalConsistencyError(
                f"LC disagreement for {seq.origin} in block d={block.d}: "
                f"gcd={minpoly.degree}, bm={lc_bm}"
            )
        out[block.d] = minpoly
    return out


def analyze_period(seq: BitSequence) -> tuple[int, Gf2Poly]:
    """Least period and minimal polynomial of one period, by both LC routes.

    Both routes run on every cyclotomic block of x^N + 1: the gcd route
    gives the block's minimal polynomial, Berlekamp-Massey on the block's
    component must reach the same LC, and a disagreement raises rather than
    being silently resolved.
    """
    return least_period(seq), _product(_minpolys_by_block(seq).values())


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
    if connection.is_zero or not connection.coefficient(0):
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


def predicted_minimal_polynomial(pair: PrimePair) -> Gf2Poly:
    """Closed-form minimal polynomial: the pq^2 cyclotomic polynomial, times
    the pq one when q = 3 mod 4."""
    if not pair.divides:
        raise DomainError(
            f"prediction requires p | q-1; p={pair.p}, q={pair.q}"
        )
    if not wieferich_ok(pair.q):
        raise DomainError(
            f"prediction requires 2^(q-1) != 1 mod q^2; fails for q={pair.q}"
        )
    phi_pq2 = cyclotomic_f2(pair.period)
    if pair.q % 4 == 1:
        return phi_pq2
    return phi_pq2 * cyclotomic_f2(pair.p * pair.q)


@dataclass(frozen=True)
class AnalysisReport:
    """Per-pair verdict: hypothesis flags, empirical vs predicted results.

    The LCs and the verdict are read off the two minimal polynomials.
    """

    pair: tuple[int, int]
    q_mod_4: int
    divisibility_ok: bool
    wieferich_ok: bool
    period_found: int
    minpoly_empirical: Gf2Poly
    minpoly_predicted: Gf2Poly | None
    sigma: int | None
    elapsed: float
    lc_by_divisor: tuple[tuple[int, int], ...]  # (d, LC of the block), ascending d

    @property
    def lc_empirical(self) -> int:
        return self.minpoly_empirical.degree

    @property
    def lc_predicted(self) -> int | None:
        return None if self.minpoly_predicted is None else self.minpoly_predicted.degree

    @property
    def match(self) -> bool:
        return self.minpoly_predicted == self.minpoly_empirical

    def blocks_off_closed_form(self) -> list[tuple[int, int, int]]:
        """(d, measured LC, closed-form LC) for each block where they differ.

        The closed form has LC phi(N) at d = N, phi(pq) at d = pq when
        q = 3 mod 4, and 0 elsewhere.
        """
        p, q = self.pair
        closed = {p * q * q: (p - 1) * q * (q - 1)}
        if q % 4 == 3:
            closed[p * q] = (p - 1) * (q - 1)
        return [(d, lc, closed.get(d, 0)) for d, lc in self.lc_by_divisor
                if lc != closed.get(d, 0)]

    def to_json_dict(self) -> dict:
        def opt(v):
            return "n/a" if v is None else v

        return {
            "pair": list(self.pair),
            "q_mod_4": self.q_mod_4,
            "divisibility_ok": self.divisibility_ok,
            "wieferich_ok": self.wieferich_ok,
            "period_found": self.period_found,
            "lc_empirical": self.lc_empirical,
            "lc_predicted": opt(self.lc_predicted),
            "minpoly_empirical": self.minpoly_empirical.render(),
            "minpoly_predicted": opt(
                self.minpoly_predicted.render() if self.minpoly_predicted else None
            ),
            "match": self.match,
            "sigma": opt(self.sigma),
            "elapsed": self.elapsed,
            "lc_by_divisor": {str(d): lc for d, lc in self.lc_by_divisor},
        }


def verify_theorem(pair: PrimePair) -> AnalysisReport:
    """Full pipeline for one pair: generate, measure, predict, compare.

    The sequence is measured as in `analyze_period`, keeping the LC of each
    block.  When p does not divide q-1 the closed form does not apply and
    only the empirical fields are populated.
    """
    start = time.perf_counter()
    div_ok = pair.divides
    wief_ok = wieferich_ok(pair.q)

    seq = generate_threshold(pair)
    blocks = _minpolys_by_block(seq)
    sigma = eulerq.two_coset_index(pair) if div_ok else None
    predicted = predicted_minimal_polynomial(pair) if div_ok and wief_ok else None

    return AnalysisReport(
        pair=(pair.p, pair.q),
        q_mod_4=pair.q % 4,
        divisibility_ok=div_ok,
        wieferich_ok=wief_ok,
        period_found=least_period(seq),
        minpoly_empirical=_product(blocks.values()),
        minpoly_predicted=predicted,
        sigma=sigma,
        elapsed=time.perf_counter() - start,
        lc_by_divisor=tuple((d, f.degree) for d, f in blocks.items()),
    )
