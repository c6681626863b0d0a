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

The predicted minimal polynomial is a product of cyclotomic polynomials
selected by q mod 4; `verify_theorem` compares it against both empirical
routes and reports the verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence as SequenceABC

from . import eulerq
from .errors import DomainError, InternalConsistencyError
from .gf2poly import Gf2Poly, cyclotomic_f2, gcd, generating_polynomial
from .limits import check_budget
from .ntcore import PrimePair, wieferich_ok
from .sequence import BitSequence, generate_threshold, least_period, pack_bits


def _as_packed(bits) -> tuple[int, int]:
    if isinstance(bits, BitSequence):
        return bits.bits, bits.length
    if isinstance(bits, int):
        raise DomainError("pass a BitSequence or an iterable of bits, not a bare int")
    seq = list(bits)
    return pack_bits(seq), len(seq)


#: Steps between truncations of the working products in berlekamp_massey.
_TRUNCATE_EVERY = 2048


def berlekamp_massey(bits: BitSequence | SequenceABC[int]) -> tuple[int, Gf2Poly]:
    """Shortest LFSR (length L, connection polynomial C) generating the prefix.

    C(x) = 1 + c_1 x + ... encodes the recurrence
    s_n = c_1 s_{n-1} + ... + c_L s_{n-L}.  Fed two full periods of an
    N-periodic sequence, L is its linear complexity.

    Invariants of the incremental form: with mlast the step of the last
    length change, sb == (S*B) >> mlast throughout, and sc == (S*C) >> a where
    a = n - m, so the discrepancy at step n is bit m of sc.  Bit j of sc is
    coefficient n - m + j of S*C and no coefficient past nbits - 1 is ever
    read, so every _TRUNCATE_EVERY steps sc is cut to its low
    nbits - n + m + 2 bits; sb is XORed into sc at base n or later, so the
    same mask covers it.

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
            mask = (1 << (nbits - n + m + 2)) - 1
            sc &= mask
            sb &= mask
        if sc & (1 << m):
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


def minimal_polynomial_gcd(seq: BitSequence) -> Gf2Poly:
    """Exact minimal polynomial (x^N + 1) / gcd(x^N + 1, A(x)).

    The all-zero sequence yields 1 (reading gcd(x^N + 1, 0) as x^N + 1).
    """
    n = seq.length
    check_budget("sequence length", n)
    a = generating_polynomial(seq)
    x_n_1 = Gf2Poly((1 << n) | 1)
    if a.is_zero:
        return Gf2Poly.one()
    g = gcd(x_n_1, a)
    quotient, remainder = divmod(x_n_1, g)
    if not remainder.is_zero:
        raise InternalConsistencyError("gcd does not divide x^N + 1")
    return quotient


def analyze_period(seq: BitSequence) -> tuple[int, Gf2Poly]:
    """Least period and minimal polynomial of one period, by both LC routes.

    The gcd route gives the minimal polynomial; Berlekamp-Massey on two
    periods must reach the same LC, and a disagreement raises rather than
    being silently resolved.
    """
    minpoly = minimal_polynomial_gcd(seq)
    lc_gcd = minpoly.degree
    lc_bm, _connection = berlekamp_massey(seq.two_periods())
    if lc_bm != lc_gcd:
        raise InternalConsistencyError(
            f"LC disagreement for {seq.origin}: gcd={lc_gcd}, bm={lc_bm}"
        )
    return least_period(seq), minpoly


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

    @property
    def lc_empirical(self) -> int:
        return self.minpoly_empirical.degree

    @property
    def lc_predicted(self) -> int | None:
        return None if self.minpoly_predicted is None else self.minpoly_predicted.degree

    @property
    def match(self) -> bool:
        return self.minpoly_predicted == self.minpoly_empirical

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
        }


def verify_theorem(pair: PrimePair) -> AnalysisReport:
    """Full pipeline for one pair: generate, measure, predict, compare.

    `analyze_period` measures the sequence and cross-checks the two LC
    routes.  When p does not divide q-1 the closed form does not apply and
    only the empirical fields are populated.
    """
    start = time.perf_counter()
    div_ok = pair.divides
    wief_ok = wieferich_ok(pair.q)

    period, minpoly = analyze_period(generate_threshold(pair))
    sigma = eulerq.two_coset_index(pair) if div_ok else None
    predicted = predicted_minimal_polynomial(pair) if div_ok and wief_ok else None

    return AnalysisReport(
        pair=(pair.p, pair.q),
        q_mod_4=pair.q % 4,
        divisibility_ok=div_ok,
        wieferich_ok=wief_ok,
        period_found=period,
        minpoly_empirical=minpoly,
        minpoly_predicted=predicted,
        sigma=sigma,
        elapsed=time.perf_counter() - start,
    )
