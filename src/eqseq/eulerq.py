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
step phi*r^-1 on one residue system and lifts them to all q classes at once.

When p | q-1 every unit's quotient is divisible by p, and ell = psi(t)/p
partitions the units of Z_{pq^2} into q cosets; that index drives both the
sequence definition and the structural checks elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .limits import check_budget
from .ntcore import (
    GroupGenerators, PrimePair, crt_lift, find_common_primitive_root, pow_wide_mod, wieferich_ok,
)


def euler_quotient(t: int, pair: PrimePair) -> int:
    """psi(t) as the canonical representative in [0, pq); 0 for non-units."""
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    pq = pair.p * pair.q
    if math.gcd(t, pq) != 1:
        return 0
    wide = pq * pq
    power = pow_wide_mod(t, pair.phi_pq, wide)
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


@dataclass(frozen=True)
class EulerQuotientTable:
    """psi over one full period [0, pq^2); entry t is 0 for non-units."""

    pair: PrimePair
    values: np.ndarray  # read-only int64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EulerQuotientTable):
            return NotImplemented
        return self.pair == other.pair and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.pair, np.asarray(self.values, dtype=np.int64).tobytes()))


def build_table(pair: PrimePair) -> EulerQuotientTable:
    """psi(t) for every t in [0, pq^2), lifted from the residues mod pq."""
    check_budget("period", pair.period)
    pq = pair.p * pair.q
    phi = pair.phi_pq
    base = np.zeros(pq, dtype=np.int64)
    step = np.zeros(pq, dtype=np.int64)
    for r in range(pq):
        if math.gcd(r, pq) == 1:
            base[r] = euler_quotient(r, pair)
            step[r] = phi * pow(r, -1, pq) % pq
    # row k holds t = r + k*pq; non-unit columns stay 0 since base and step are 0
    values = np.arange(pair.q, dtype=np.int64)[:, None] * step
    values += base
    values %= pq
    values.flags.writeable = False
    return EulerQuotientTable(pair=pair, values=values.reshape(-1))
