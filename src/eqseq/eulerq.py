"""Euler quotients modulo pq and the coset index they induce.

For t coprime to pq the quotient is psi(t) = ((t^phi(pq) - 1) / pq) mod pq,
extended by psi(t) = 0 for the remaining t.  The huge power is never formed:
t^phi(pq) mod (pq)^2 determines the quotient mod pq exactly, because
t^phi(pq) - 1 is divisible by pq for units.

The lift over a full period never forms more than pq powers.  Writing
t = r + k*pq with r in [0, pq), the binomial theorem gives
(r + k*pq)^phi = r^phi + phi*k*pq*r^(phi-1) (mod (pq)^2), and r^(phi-1) is
r^-1 mod pq, so psi(r + k*pq) = psi(r) + phi*k*r^-1 (mod pq): the quotient is
affine in k on each residue class.  `_residue_quotients` takes psi(r) from
one modular power per unit r mod pq, by the same checked formula as
`euler_quotient`, and the step phi*r^-1 from one modular inverse, and checks
row 1 against one more modular power per unit: a right step for every r
gives every other row by the affine law.  `_psi_rows` carries both to the
period a block of rows at a time, so that each consumer keeps only what it
reads: `sequence.generate_threshold` one flag per position, and
`build_partition` the coset index.

When p | q-1 every unit's quotient is divisible by p, and ell = psi(t)/p
partitions the units of Z_{pq^2} into q cosets; that index drives both the
sequence definition and the structural checks elsewhere in the package.
Since p divides pq, psi(r + k*pq) is divisible by p for every k exactly when
rows 0 and 1 are, which `_psi_rows` checks for both consumers, and
`build_partition` floor-divides its rows by p into an int16 array, which
limits.check_exact keeps sound: within the audit's exact range q < 2^15.
The rows are psi mod pq, not psi/p mod q, since the threshold also serves
pairs where p does not divide q-1, which have no index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .limits import check_budget, check_exact, per_block
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
    a = coset_index(g, pair)
    if a == 0:
        raise InternalConsistencyError("psi(g)/p vanishes mod q for a primitive root g")
    ghat = pow(g, pow(a, -1, q), pair.period)
    if coset_index(ghat, pair) != 1:
        raise InternalConsistencyError("constructed ghat does not satisfy psi(ghat) == p")
    return GroupGenerators(g=g, h=h, ghat=ghat)


def unit_residues(pair: PrimePair) -> np.ndarray:
    """Boolean mask over [0, pq), true on the units mod pq."""
    r = np.arange(pair.p * pair.q)
    return (r % pair.p != 0) & (r % pair.q != 0)


def _residue_quotients(pair: PrimePair) -> tuple[np.ndarray, np.ndarray]:
    """psi(r) and the step phi*r^-1 mod pq for r in [0, pq), both 0 on
    non-units, with row 1 of the lift, (psi + step) mod pq, checked against
    one modular power per unit."""
    pq = pair.p * pair.q
    units = np.flatnonzero(unit_residues(pair)).tolist()
    psi, step = np.zeros(pq, dtype=np.int64), np.zeros(pq, dtype=np.int64)
    psi[units] = [_unit_quotient(r, pair) for r in units]
    step[units] = [pair.phi_pq * pow(r, -1, pq) % pq for r in units]
    row1 = ((psi + step) % pq).tolist()
    for r in units:
        if row1[r] != (actual := _unit_quotient(r + pq, pair)):
            raise InternalConsistencyError(f"row check of {(pair.p, pair.q)}: psi({r + pq}) = "
                                           f"{actual}, but the lift gives {row1[r]}")
    return psi, step


def _psi_rows(pair: PrimePair):
    """Rows k < q of psi(r + k*pq) = (psi(r) + k*step) mod pq over r in
    [0, pq), the whole lift of psi to one period: yields (k0, rows) for k0
    ascending, a block of per_block(pq) rows k0, k0 + 1, ... computed in one
    buffer that the next block overwrites, in int32 while k*step + psi, at
    most q*(pq - 1) = N - q, fits it, and in int64 past that.  Before the
    first block it runs the row check of _residue_quotients and, where
    p | q-1, refuses a psi not divisible by p, naming the first such t."""
    p, q = pair.p, pair.q
    pq = p * q
    psi, step = _residue_quotients(pair)
    # mod p, row k is psi + k*step: p divides every row exactly when it divides
    # rows 0 and 1, and the first t it does not divide lies in one of them
    for k, row in enumerate((psi, (psi + step) % pq) if pair.divides else ()):
        if (stray := np.flatnonzero(row % p)).size:
            r = int(stray[0])
            raise InternalConsistencyError(f"psi({r + k * pq}) = {row[r]} not divisible by p={p}")
    dtype = np.int32 if pair.period - q < 2**31 else np.int64
    psi, step = psi.astype(dtype), step.astype(dtype)
    height = min(per_block(pq), q)
    k = np.arange(height, dtype=dtype)[:, None]
    buffer, whole = np.empty((2, height, pq), dtype=dtype)
    for k0 in range(0, q, height):
        rows, below = buffer[:q - k0], whole[:q - k0]
        np.multiply(k[:len(rows)] + k0, step, out=rows)
        rows += psi
        # rows mod pq, as rows - pq * floor(rows / pq): numpy divides by a
        # scalar several times faster than it takes a remainder
        np.floor_divide(rows, pq, out=below)
        below *= pq
        rows -= below
        yield k0, rows


def build_partition(pair: PrimePair) -> np.ndarray:
    """The coset index over one full period as an int16 array: psi(t)/p on
    the units of Z_{pq^2}, -1 elsewhere, read off the rows of _psi_rows.
    Refused past the budget or the audit's exact range, and where
    _psi_rows refuses its rows."""
    pair.require_divides()
    check_budget("period", pair.period)
    check_exact(pair.period)
    p, q = pair.p, pair.q
    # off the units psi and its step are 0, so each row // p is 0 there, and 1 less is -1
    off = (~unit_residues(pair)).astype(np.int16)
    index = np.empty((q, p * q), dtype=np.int16)
    for k0, rows in _psi_rows(pair):
        block = index[k0:k0 + len(rows)]
        np.floor_divide(rows, p, out=block)
        block -= off
    return index.reshape(-1)
