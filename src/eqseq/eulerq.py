"""Euler quotients modulo pq and the coset index they induce.

For t coprime to pq the quotient is psi(t) = ((t^phi(pq) - 1) / pq) mod pq,
extended by psi(t) = 0 for the remaining t.  The huge power is never formed:
t^phi(pq) mod (pq)^2 determines the quotient mod pq exactly, because
t^phi(pq) - 1 is divisible by pq for units.

A full-period table never forms more than pq powers.  Writing
t = r + k*pq with r in [0, pq), the binomial theorem gives
(r + k*pq)^phi = r^phi + phi*k*pq*r^(phi-1) (mod (pq)^2), and r^(phi-1) is
r^-1 mod pq, so psi(r + k*pq) = psi(r) + phi*k*r^-1 (mod pq): the quotient is
affine in k on each residue class.  `build_table` takes psi(r) from one
modular power per unit r mod pq, by the same checked formula as
`euler_quotient`, and the step phi*r^-1 from one modular inverse, then lifts
both to the period in one numpy broadcast.  Every int64 value it holds is
below N, so no bound on p or q beyond the period budget applies.

When p | q-1 every unit's quotient is divisible by p, and ell = psi(t)/p
partitions the units of Z_{pq^2} into q cosets; that index drives both the
sequence definition and the structural checks elsewhere in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .limits import check_budget
from .ntcore import GroupGenerators, PrimePair, crt_lift, find_common_primitive_root, wieferich_ok


def euler_quotient(t: int, pair: PrimePair) -> int:
    """psi(t) as the canonical representative in [0, pq); 0 for non-units."""
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if math.gcd(t, pair.p * pair.q) != 1:
        return 0
    return _unit_quotient(t, pair)


def _unit_quotient(t: int, pair: PrimePair) -> int:
    """psi(t) for a unit t, from t^phi mod (pq)^2, which lies in [1, (pq)^2);
    raises when pq does not divide t^phi - 1."""
    pq = pair.p * pair.q
    power = pow(t, pair.phi_pq, pq * pq)
    if (power - 1) % pq != 0:
        raise InternalConsistencyError(
            f"t^phi - 1 not divisible by pq for unit t={t}"
        )
    return (power - 1) // pq


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


def _residue_quotients(pair: PrimePair) -> tuple[np.ndarray, np.ndarray]:
    """psi(r) and the step phi*r^-1 mod pq for r in [0, pq), both 0 on non-units."""
    pq = pair.p * pair.q
    units = np.flatnonzero(unit_residues(pair)).tolist()
    psi, step = np.zeros(pq, dtype=np.int64), np.zeros(pq, dtype=np.int64)
    psi[units] = [_unit_quotient(r, pair) for r in units]
    step[units] = [pair.phi_pq * pow(r, -1, pq) % pq for r in units]
    return psi, step


def build_table(pair: PrimePair) -> np.ndarray:
    """psi(t) for every t in [0, pq^2), lifted from the residues mod pq, as a
    read-only int64 array; entry t is 0 for non-units.  Refused with
    ResourceError past the budget."""
    check_budget("period", pair.period)
    base, step = _residue_quotients(pair)
    # row k holds t = r + k*pq; non-unit columns stay 0 since base and step are 0
    values = np.arange(pair.q, dtype=np.int64)[:, None] * step
    values += base
    values %= pair.p * pair.q
    values.flags.writeable = False
    return values.reshape(-1)
