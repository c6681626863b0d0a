"""Dense polynomial arithmetic over GF(2) on bit-packed integers.

A polynomial a_0 + a_1 x + ... + a_n x^n is the Python integer with bit i
equal to a_i, the same convention used for bit sequences.  Addition is XOR,
and the kernels `_int_mul`, `_int_divmod`, `_int_mod`, `_int_compose`,
`_int_polyphase` and `_int_gcd` are the package's one polynomial layer.  Two
polynomials are equal exactly when their integers are equal, so the
representation is canonical by construction.  `Gf2Poly` wraps a finished result for reports: its degree,
terms and rendering.

The module also builds cyclotomic polynomials over GF(2) by composition:
Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and Phi_mp(x) =
Phi_m(x^p) / Phi_m(x) for a prime p not dividing m, starting from Phi_1 = x + 1.
Both identities hold in Z[x] and every division in them is exact by a monic
polynomial, so they survive reduction mod 2.  Each squarefree n also carries
its cofactor H_n = (x^n + 1) / Phi_n, with H_mp(x) = H_m(x^p) Phi_m(x), so the
division by Phi_m becomes a product with H_m and an exact division by
x^m + 1, a stride-m prefix XOR.  Phi_n H_n = x^n + 1 is checked once per n,
where the pair is built.  Phi_n for squarefree odd n is also split into its
irreducible factors over GF(2).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError, UnsupportedInputError
from .limits import check_budget
from .ntcore import factorize, multiplicative_order


def _int_mul(a: int, b: int) -> int:
    # schoolbook carry-less product, iterating over the sparser operand
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def _int_divmod(f: int, g: int) -> tuple[int, int]:
    # a zero shift XORs g itself: g << 0 would copy the whole integer
    dg = g.bit_length()
    q = 0
    while (shift := f.bit_length() - dg) >= 0:
        q |= 1 << shift
        f ^= (g << shift) if shift else g
    return q, f


def _int_mod(f: int, g: int) -> int:
    dg = g.bit_length()
    while (shift := f.bit_length() - dg) >= 0:
        f ^= (g << shift) if shift else g
    return f


def _int_compose(f: int, k: int) -> int:
    # f(x^k): bit i moves to bit i*k, by spreading the binary digits apart
    if k == 1:
        return f
    return int(("0" * (k - 1)).join(format(f, "b")), 2)


def _int_polyphase(f: int, s: int, d: int) -> list[int]:
    # the parts f_j of f = sum_j x^j f_j(x^s), for f of degree below d: part
    # j takes every s-th binary digit from digit j on
    digits = format(f, f"0{d}b")[::-1]   # coefficient i at index i
    return [int(digits[j::s][::-1], 2) for j in range(s)]


def _int_gcd(f: int, g: int) -> int:
    while g:
        f, g = g, _int_mod(f, g)
    return f


_CHUNK = 8192   # digits per chunk of Gf2Poly.render


@dataclass(frozen=True)
class Gf2Poly:
    """A GF(2)[x] polynomial in a report; bit i of `bits` is the coefficient of x^i."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise DomainError("polynomial bits must be a nonnegative integer")

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Text form in descending powers: \"x^3 + x + 1\", \"x\", \"1\", \"0\".
        The terms of degree 2 and up are joined a chunk of digits at a time, so
        no list holds them all."""
        high = format(self.bits >> 2, "b") if self.bits > 3 else ""
        top = len(high) + 1   # the degree of digit 0 of high
        parts = [" + ".join([f"x^{top - i - m.start()}" for m in re.finditer("1", high[i:i + _CHUNK])])
                 for i in range(0, len(high), _CHUNK)]
        parts += ["x"] * (self.bits >> 1 & 1) + ["1"] * (self.bits & 1)
        return " + ".join(filter(None, parts)) or "0"


def gcd(f: Gf2Poly, g: Gf2Poly) -> Gf2Poly:
    """Greatest common divisor (monic automatically over GF(2))."""
    if not (f.bits or g.bits):
        raise DomainError("gcd(0, 0) is undefined")
    return Gf2Poly(_int_gcd(f.bits, g.bits))


def _int_div_binomial(f: int, m: int) -> int:
    # f / (x^m + 1) when exact: quotient bit i is f_i + q_(i-m), a stride-m
    # prefix XOR, done by doubling the stride
    top = f.bit_length() - 1 - m
    q, stride = f, m
    while stride <= top:
        q ^= q << stride
        stride <<= 1
    return q & ((1 << (top + 1)) - 1)


@functools.lru_cache(maxsize=None)
def _cyclotomic_pair(n: int) -> tuple[int, int]:
    """(Phi_n, (x^n + 1) / Phi_n) for squarefree odd n."""
    if n == 1:
        return 0b11, 1
    p = factorize(n)[-1]
    m = n // p
    if m == 1:
        return (1 << p) - 1, 0b11  # 1 + x + ... + x^(p-1), and x + 1
    phi_m, h_m = _cyclotomic_pair(m)
    phi = _int_div_binomial(_int_mul(_int_compose(phi_m, p), h_m), m)
    h = _int_mul(_int_compose(h_m, p), phi_m)
    # H_n is right when Phi_m and H_m are, and then x^n + 1 = Phi_n H_n fixes Phi_n
    if _int_mul(phi, h) != (1 << n) | 1:
        raise InternalConsistencyError(f"cyclotomic cofactor for n={n} is wrong")
    return phi, h


@functools.lru_cache(maxsize=None)
def _cyclotomic_factors(n: int) -> tuple[int, ...]:
    """The irreducible factors of Phi_n over GF(2) for squarefree odd n, ascending.

    Each has degree ord_n(2), so there are phi(n) / ord_n(2) of them.  They
    are split apart by the coset sums e_C, the sum of x^k over a 2-cyclotomic
    coset C mod n: e_C(x)^2 = e_C(x^2) = e_C mod x^n + 1, so e_C is 0 or 1 at
    each root of Phi_n, and the e_C span every such 0/1 pattern on the
    factors, so some e_C tells any two factors apart.  A factor f splits
    into gcd(f, e_C) and its cofactor; one of degree ord_n(2) is already
    irreducible.
    """
    phi = _cyclotomic_pair(n)[0]
    order = multiplicative_order(2, n) if n > 1 else 1
    count = (phi.bit_length() - 1) // order
    factors = [phi]
    seen = bytearray(n)
    for k in range(1, n):
        if len(factors) == count:
            break
        if seen[k]:
            continue
        coset = bytearray(n // 8 + 1)   # bit j of e_C, for j in C
        j = k
        while not seen[j]:
            seen[j] = 1
            coset[j >> 3] |= 1 << (j & 7)
            j = 2 * j % n
        e = _int_mod(int.from_bytes(coset, "little"), phi)
        split = []
        for f in factors:
            g = 1 if f.bit_length() - 1 == order else _int_gcd(f, _int_mod(e, f))
            split += [g, _int_divmod(f, g)[0]] if 1 < g < f else [f]
        factors = split
    return tuple(sorted(factors))


def cyclotomic_f2(n: int) -> Gf2Poly:
    """n-th cyclotomic polynomial reduced mod 2, for odd n (or n == 1).

    Built by composition from Phi_1 = x + 1: Phi_n(x) = Phi_r(x^(n/r)) for the
    radical r of n, and Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for squarefree mp,
    divided as Phi_m(x^p) H_m(x) / (x^m + 1) with H_m = (x^m + 1) / Phi_m.
    """
    if n < 1:
        raise DomainError(f"cyclotomic index must be positive, got {n}")
    if n > 1 and n % 2 == 0:
        raise UnsupportedInputError(
            f"cyclotomic_f2 supports odd n only (x^n - 1 squarefree), got {n}"
        )
    check_budget("cyclotomic index", n)
    radical = math.prod(set(factorize(n)))
    return Gf2Poly(_int_compose(_cyclotomic_pair(radical)[0], n // radical))
