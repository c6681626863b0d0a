"""Slow reference implementations kept as oracles for the fast paths.

`berlekamp_massey` is the incremental Berlekamp-Massey loop without the
single-bit discrepancy test and without truncation; `cyclotomic_bits` builds
the n-th cyclotomic polynomial over GF(2) by dividing x^n + 1 by the
cyclotomic polynomials of every proper divisor.  Both are kept as they were
before the fast paths replaced them in the package.
"""

from __future__ import annotations

import functools
from typing import Sequence as SequenceABC

from eqseq import BitSequence, Gf2Poly
from eqseq.errors import InternalConsistencyError
from eqseq.gf2poly import _int_divmod
from eqseq.lincomp import _as_packed


def berlekamp_massey(bits: BitSequence | SequenceABC[int]) -> tuple[int, Gf2Poly]:
    """Shortest LFSR (length L, connection polynomial C) generating the prefix.

    C(x) = 1 + c_1 x + ... encodes the recurrence
    s_n = c_1 s_{n-1} + ... + c_L s_{n-L}.  Fed two full periods of an
    N-periodic sequence, L is its linear complexity.

    Invariants of the incremental form: with mlast the step of the last
    length change, sb == (S*B) >> mlast throughout, and sc == (S*C) >> a where
    a = n - m, so the discrepancy at step n is bit m of sc.
    """
    s, nbits = _as_packed(bits)
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


@functools.lru_cache(maxsize=None)
def cyclotomic_bits(n: int) -> int:
    f = (1 << n) | 1  # x^n + 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _int_divmod(f, cyclotomic_bits(d))
            if r:
                raise InternalConsistencyError(
                    f"cyclotomic division for n={n} left a remainder"
                )
            f = q
    return f
