"""Euler quotients modulo pq and the coset index they induce.

For t coprime to pq the quotient is psi(t) = ((t^phi(pq) - 1) / pq) mod pq,
extended by psi(t) = 0 for the remaining t.  The huge power is never formed:
t^phi(pq) mod (pq)^2 determines the quotient mod pq exactly, because
t^phi(pq) - 1 is divisible by pq for units.

A full-period table never forms more than pq powers.  Writing
t = r + k*pq with r in [0, pq), the binomial theorem gives
(r + k*pq)^phi = r^phi + phi*k*pq*r^(phi-1) (mod (pq)^2), and r^(phi-1) is
r^-1 mod pq, so psi(r + k*pq) = psi(r) + phi*k*r^-1 (mod pq): the quotient is
affine in k on each residue class.  `build_table` computes psi(r) and the
step on all the units r mod pq at once, by square-and-multiply on int64
arrays mod p^2 and mod q^2: t^phi = 1 + pq*k gives qk mod p and pk mod q,
joined by the CRT.  A product splits one factor at bit 21, so the table is
exact while max(p, q)^2 < 2^41, for every pair with N < 1.3e7; a larger
pair is refused with ResourceError before any arithmetic.

When p | q-1 every unit's quotient is divisible by p, and ell = psi(t)/p
partitions the units of Z_{pq^2} into q cosets; that index drives both the
sequence definition and the structural checks elsewhere in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalConsistencyError, ResourceError
from .limits import check_budget
from .ntcore import GroupGenerators, PrimePair, crt_lift, find_common_primitive_root, wieferich_ok

# moduli below 2^41 multiply exactly in int64 when one factor is split at bit 21
_MODULUS_BITS, _SPLIT_BITS = 41, 21


def euler_quotient(t: int, pair: PrimePair) -> int:
    """psi(t) as the canonical representative in [0, pq); 0 for non-units."""
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    pq = pair.p * pair.q
    if math.gcd(t, pq) != 1:
        return 0
    wide = pq * pq
    power = pow(t, pair.phi_pq, wide)
    if (power - 1) % pq != 0:
        raise InternalConsistencyError(
            f"t^phi - 1 not divisible by pq for unit t={t}"
        )
    return ((power - 1) // pq) % pq


def coset_index(t: int, pair: PrimePair) -> int | None:
    """Index ell in [0, q) with psi(t) == p*ell, or None when t is not a unit.

    Defined only under p | q-1, which forces p | psi(t) for every unit.
    """
    pair.require_divides()
    pq = pair.p * pair.q
    if math.gcd(t, pq) != 1:
        return None
    value = euler_quotient(t, pair)
    if value % pair.p != 0:
        raise InternalConsistencyError(
            f"psi({t}) = {value} is not divisible by p={pair.p}"
        )
    return value // pair.p


def two_coset_index(pair: PrimePair) -> int:
    """The coset index sigma of 2 (a unit for odd p, q); 0 exactly when
    2^(q-1) == 1 mod q^2, which the closed form excludes."""
    sigma = coset_index(2, pair)
    if sigma == 0 and wieferich_ok(pair.q):
        raise InternalConsistencyError(
            f"coset index of 2 is zero for {(pair.p, pair.q)} despite "
            "2^(q-1) != 1 mod q^2"
        )
    return sigma


def derive_generators(pair: PrimePair) -> GroupGenerators:
    """Compute (g, h, ghat) for a pair with p | q-1; ghat = g^b has psi(ghat) == p."""
    check_budget("period", pair.period)   # before factoring q^2 for the primitive root
    pair.require_divides()
    p, q = pair.p, pair.q
    g = find_common_primitive_root(pair)
    h = crt_lift([(g % p, p), (1, q * q)])
    # psi(g) = p*a mod pq with a invertible mod q; ghat = g^(a^-1 mod q)
    psi_g = euler_quotient(g, pair)
    if psi_g % p != 0:
        raise InternalConsistencyError(f"psi(g) = {psi_g} not divisible by p")
    a = (psi_g // p) % q
    if a == 0:
        raise InternalConsistencyError("psi(g)/p vanishes mod q for a primitive root g")
    ghat = pow(g, pow(a, -1, q), pair.period)
    if euler_quotient(ghat, pair) != p:
        raise InternalConsistencyError("constructed ghat does not satisfy psi(ghat) == p")
    return GroupGenerators(g=g, h=h, ghat=ghat)


def unit_residues(pair: PrimePair) -> np.ndarray:
    """Boolean mask over [0, pq), true on the units mod pq."""
    r = np.arange(pair.p * pair.q)
    return (r % pair.p != 0) & (r % pair.q != 0)


def _mul_mod(a: np.ndarray, b: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """a * b mod modulus, elementwise, for residues below a modulus under 2^41:
    b splits at bit 21, so each product is below 2^62 and their sum below 2^63."""
    high = a * (b >> _SPLIT_BITS) % modulus << _SPLIT_BITS
    return (high + a * (b & ((1 << _SPLIT_BITS) - 1))) % modulus


def _pow_mod(base: np.ndarray, exponent: int, modulus: np.ndarray) -> np.ndarray:
    """base^exponent mod modulus, elementwise, by square-and-multiply."""
    out = np.ones_like(base)
    for bit in bin(exponent)[2:]:
        out = _mul_mod(out, out, modulus)
        if bit == "1":
            out = _mul_mod(out, base, modulus)
    return out


def _residue_quotients(pair: PrimePair) -> tuple[np.ndarray, np.ndarray]:
    """psi(r) and the step phi*r^-1 mod pq for r in [0, pq), both 0 on non-units,
    from the powers of the units mod p^2 and mod q^2 (see the module docstring)."""
    p, q = pair.p, pair.q
    pq = p * q
    if max(p, q) ** 2 >> _MODULUS_BITS:
        raise ResourceError(
            f"Euler quotients for p={p}, q={q} need residues mod {max(p, q) ** 2}, "
            f"past the int64-exact bound 2^{_MODULUS_BITS}")
    units = np.flatnonzero(unit_residues(pair))
    primes = np.array([[p], [q]])
    squares = primes * primes
    base = units % squares
    below = _pow_mod(base, pair.phi_pq - 1, squares)   # r^(phi-1) mod p^2 and mod q^2
    power = _mul_mod(below, base, squares)             # r^phi
    off = np.flatnonzero(((power - 1) % primes).any(axis=0))
    if off.size:
        raise InternalConsistencyError(
            f"t^phi - 1 not divisible by pq for unit t={units[off[0]]}"
        )
    q_inv = pow(q, -1, p)
    # k mod p and k mod q of t^phi = 1 + pq*k
    k = (power - 1) // primes * np.array([[q_inv], [pow(p, -1, q)]]) % primes

    def crt(rows: np.ndarray) -> np.ndarray:   # the residue mod pq of rows (mod p, mod q)
        return rows[1] + q * ((rows[0] - rows[1]) * q_inv % p)

    psi, step = np.zeros(pq, dtype=np.int64), np.zeros(pq, dtype=np.int64)
    psi[units] = crt(k)
    step[units] = crt(below % primes * (pair.phi_pq % primes) % primes)   # r^(phi-1) = r^-1
    return psi, step


def build_table(pair: PrimePair) -> np.ndarray:
    """psi(t) for every t in [0, pq^2), lifted from the residues mod pq, as a
    read-only int64 array; entry t is 0 for non-units.  Refused with
    ResourceError past the budget or when max(p, q)^2 reaches 2^41."""
    check_budget("period", pair.period)
    base, step = _residue_quotients(pair)
    # row k holds t = r + k*pq; non-unit columns stay 0 since base and step are 0
    values = np.arange(pair.q, dtype=np.int64)[:, None] * step
    values += base
    values %= pair.p * pair.q
    values.flags.writeable = False
    return values.reshape(-1)
