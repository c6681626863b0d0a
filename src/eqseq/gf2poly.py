"""Dense polynomial arithmetic over GF(2) on bit-packed integers.

A polynomial a_0 + a_1 x + ... + a_n x^n is stored as the Python integer with
bit i equal to a_i, the same convention used for bit sequences.  Addition is
XOR, multiplication is carry-less shift-XOR, and two polynomials are equal
exactly when their integers are equal, so the representation is canonical by
construction.

The module also builds cyclotomic polynomials over GF(2) by composition:
Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and Phi_mp(x) =
Phi_m(x^p) / Phi_m(x) for a prime p not dividing m, starting from Phi_1 = x + 1.
Both identities hold in Z[x] and every division in them is exact by a monic
polynomial, so they survive reduction mod 2.  Each squarefree n also carries
its cofactor H_n = (x^n + 1) / Phi_n, with H_mp(x) = H_m(x^p) Phi_m(x), so the
division by Phi_m becomes a product with H_m and an exact division by
x^m + 1, which is a stride-m prefix XOR and is checked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import DomainError, InternalConsistencyError, UnsupportedInputError
from .limits import check_budget
from .ntcore import factorize
from .sequence import pack_bits

if TYPE_CHECKING:  # pragma: no cover
    from .sequence import BitSequence


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
    return int(("0" * (k - 1)).join(format(f, "b")), 2)


def _int_gcd(f: int, g: int) -> int:
    while g:
        f, g = g, _int_mod(f, g)
    return f


@dataclass(frozen=True)
class Gf2Poly:
    """Immutable GF(2)[x] polynomial; bit i of `bits` is the coefficient of x^i."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise DomainError("polynomial bits must be a nonnegative integer")

    @classmethod
    def one(cls) -> "Gf2Poly":
        return cls(1)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "Gf2Poly":
        """Build from coefficients in ascending order of degree."""
        coeffs = list(coeffs)
        try:
            return cls(pack_bits(coeffs))
        except DomainError:
            bad = next(c for c in coeffs if c not in (0, 1))
            raise DomainError(f"coefficients must be 0 or 1, got {bad}") from None

    @classmethod
    def from_terms(cls, degrees: Iterable[int]) -> "Gf2Poly":
        """Build from the degrees of the nonzero terms; repeated degrees count once."""
        degrees = list(degrees)
        if not degrees:
            return cls(0)
        if min(degrees) < 0:
            raise DomainError(f"term degrees must be nonnegative, got {min(degrees)}")
        buf = bytearray(max(degrees) // 8 + 1)
        for d in degrees:
            buf[d >> 3] |= 1 << (d & 7)
        return cls(int.from_bytes(buf, "little"))

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def num_terms(self) -> int:
        return self.bits.bit_count()

    def coefficient(self, i: int) -> int:
        return (self.bits >> i) & 1 if i >= 0 else 0

    def term_degrees(self) -> list[int]:
        """Degrees of the nonzero terms, descending."""
        top = self.degree
        return [top - i for i, c in enumerate(format(self.bits, "b")) if c == "1"]

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.bits ^ other.bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_int_mul(self.bits, other.bits))

    def __divmod__(self, other: "Gf2Poly") -> tuple["Gf2Poly", "Gf2Poly"]:
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        q, r = _int_divmod(self.bits, other.bits)
        return Gf2Poly(q), Gf2Poly(r)

    def __floordiv__(self, other: "Gf2Poly") -> "Gf2Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        return Gf2Poly(_int_mod(self.bits, other.bits))

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Text form in descending powers: \"x^3 + x + 1\", \"x\", \"1\", \"0\"."""
        if self.bits == 0:
            return "0"
        parts = []
        for d in self.term_degrees():
            if d == 0:
                parts.append("1")
            elif d == 1:
                parts.append("x")
            else:
                parts.append(f"x^{d}")
        return " + ".join(parts)


def gcd(f: Gf2Poly, g: Gf2Poly) -> Gf2Poly:
    """Greatest common divisor (monic automatically over GF(2))."""
    if f.is_zero and g.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    return Gf2Poly(_int_gcd(f.bits, g.bits))


def compose_power(f: Gf2Poly, k: int) -> Gf2Poly:
    """f(x^k): bit i of f moves to bit i*k."""
    if k < 1:
        raise DomainError(f"compose_power requires k >= 1, got {k}")
    if k == 1 or f.is_zero:
        return f
    check_budget("composed degree", f.degree * k)
    return Gf2Poly(_int_compose(f.bits, k))


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
    product = _int_mul(_int_compose(phi_m, p), h_m)
    phi = _int_div_binomial(product, m)
    if (phi << m) ^ phi != product:
        raise InternalConsistencyError(
            f"cyclotomic division for n={n} left a remainder"
        )
    return phi, _int_mul(_int_compose(h_m, p), phi_m)


@functools.lru_cache(maxsize=None)
def _cyclotomic_bits(n: int) -> int:
    radical = math.prod(set(factorize(n)))
    return _int_compose(_cyclotomic_pair(radical)[0], n // radical)


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
    return Gf2Poly(_cyclotomic_bits(n))


def generating_polynomial(seq: "BitSequence") -> Gf2Poly:
    """One period of a sequence read as polynomial coefficients (bit t -> x^t)."""
    return Gf2Poly(seq.bits)
