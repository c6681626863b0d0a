"""Exact integer number theory: primality, factoring, orders, primitive roots, CRT.

Everything here is a pure function on Python integers, so results are exact for
arbitrarily large arguments; nothing in this module silently overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError

# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# far beyond anything the period budget allows.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Exact primality test (deterministic Miller-Rabin witnesses)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending.  factorize(1) == []."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    factors: list[int] = []
    for p in (2, 3):
        while n % p == 0:
            factors.append(p)
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                factors.append(p)
                n //= p
        f += 6
    if n > 1:
        factors.append(n)
    return factors


def divisors(n: int) -> list[int]:
    """Every divisor of n >= 1, ascending, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    """Euler's totient, from the factorization of n."""
    result = n
    for p in set(factorize(n)):
        result -= result // p
    return result


def wieferich_ok(q: int) -> bool:
    """True when 2^(q-1) is not 1 mod q^2 (the hypothesis on q)."""
    return pow(2, q - 1, q * q) != 1


def multiplicative_order(a: int, n: int) -> int:
    """Smallest k >= 1 with a**k == 1 (mod n).

    Starts from the group order phi(n) and strips prime factors that are not
    needed, so no exhaustive power scan is involved.
    """
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    if math.gcd(a, n) != 1:
        raise DomainError(f"gcd({a}, {n}) != 1, multiplicative order undefined")
    order = euler_phi(n)
    for p in set(factorize(order)):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def certified_order(a: int, k: int, n: int) -> int:
    """k, once certified as the multiplicative order of a mod n: a^k == 1
    (mod n), and a^(k/l) != 1 (mod n) for each prime l dividing k."""
    if pow(a, k, n) != 1 or any(pow(a, k // l, n) == 1 for l in set(factorize(k))):
        raise InternalConsistencyError(f"ord_{n}({a}) = {k} fails its certificate")
    return k


def crt_lift(residues: list[tuple[int, int]]) -> int:
    """Unique x in [0, prod moduli) matching every (residue, modulus) pair.

    Moduli must be pairwise coprime.
    """
    if not residues:
        raise DomainError("crt_lift requires at least one (residue, modulus) pair")
    moduli = [m for _, m in residues]
    for m in moduli:
        if m < 1:
            raise DomainError(f"modulus must be positive, got {m}")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise DomainError(
                    f"moduli {moduli[i]} and {moduli[j]} are not coprime"
                )
    x, m = 0, 1
    for r_i, m_i in residues:
        # lift x from modulus m to modulus m * m_i
        inv = pow(m % m_i, -1, m_i) if m_i > 1 else 0
        k = ((r_i - x) * inv) % m_i
        x += m * k
        m *= m_i
    return x % m


@dataclass(frozen=True)
class PrimePair:
    """Validated parameter set (p, q) with the constants derived from it.

    p and q must be distinct odd primes.  The additional divisibility condition
    p | q-1 is required by the closed-form results but not by sequence
    generation itself, so it is exposed as a flag rather than enforced here;
    callers that need the coset structure check `divides`.
    """

    p: int
    q: int
    phi_pq: int   # (p-1)(q-1)
    period: int   # p * q**2

    @classmethod
    def create(cls, p: int, q: int) -> "PrimePair":
        if p == q:
            raise DomainError(f"p and q must be distinct, got p == q == {p}")
        for name, value in (("p", p), ("q", q)):
            if value % 2 == 0 or not is_prime(value):
                raise DomainError(f"{name} must be an odd prime, got {value}")
        return cls(p=p, q=q, phi_pq=(p - 1) * (q - 1), period=p * q * q)

    @property
    def divides(self) -> bool:
        """True when p | q-1, the hypothesis of the closed-form results."""
        return (self.q - 1) % self.p == 0

    def require_divides(self) -> None:
        if not self.divides:
            raise DomainError(
                f"p={self.p} does not divide q-1={self.q - 1}; "
                "coset structure undefined"
            )


@dataclass(frozen=True)
class GroupGenerators:
    """Generators of the unit group mod p*q**2.

    g is a common primitive root of p and q**2, h is the CRT lift of
    (g mod p, 1 mod q**2), and ghat is the distinguished power of g whose
    Euler quotient equals p.
    """

    g: int
    h: int
    ghat: int


def find_common_primitive_root(pair: PrimePair) -> int:
    """Smallest g >= 2 that is primitive mod p and mod q**2 simultaneously.

    Candidates ascend from 2; multiples of p or q are skipped.  Primitivity
    mod q**2 is tested directly through multiplicative_order.
    """
    p, q = pair.p, pair.q
    q2 = q * q
    g = 2
    while True:
        if g % p != 0 and g % q != 0:
            if (multiplicative_order(g, p) == p - 1
                    and multiplicative_order(g, q2) == q * (q - 1)):
                return g
        g += 1
