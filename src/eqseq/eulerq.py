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
gives every other row by the affine law.  `_lift_rows` carries both to the
period a block of rows at a time, so that each consumer keeps only what it
reads: `sequence.generate_threshold` one flag per position, and
`build_partition` the coset index.

When p | q-1 every unit's quotient is divisible by p, and ell = psi(t)/p
partitions the units of Z_{pq^2} into q cosets; that index drives both the
sequence definition and the structural checks elsewhere in the package.
`build_partition` lifts it from the same residues with no psi table: p
divides pq, so psi(r + k*pq) is divisible by p for every k exactly when
psi(r) and the step are, and then ell(r + k*pq) = psi(r)/p + k*step/p mod q.
It writes the labels into an int16 array, which limits.check_exact keeps
sound: within the audit's exact range q < 2^15.
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


def _lift_rows(base: np.ndarray, step: np.ndarray, modulus: int, count: int):
    """Rows k < count of (base + k*step) mod modulus, with base and step in
    [0, modulus), a block of per_block(len(base)) rows at a time: yields
    (k0, rows) for k0 ascending, rows k0, k0 + 1, ... computed in place in
    one buffer that the next block overwrites, in int32 while k*step + base,
    at most count*(modulus - 1), fits it, and in int64 past that."""
    dtype = np.int32 if count * (modulus - 1) < 2**31 else np.int64
    base, step = base.astype(dtype), step.astype(dtype)
    height = min(per_block(base.size), count)
    k = np.arange(height, dtype=dtype)[:, None]
    buffer, whole = np.empty((2, height, base.size), dtype=dtype)
    for k0 in range(0, count, height):
        rows, below = buffer[:count - k0], whole[:count - k0]
        np.multiply(k[:len(rows)] + k0, step, out=rows)
        rows += base
        # rows mod modulus, as rows - modulus * floor(rows / modulus): numpy
        # divides by a scalar several times faster than it takes a remainder
        np.floor_divide(rows, modulus, out=below)
        below *= modulus
        rows -= below
        yield k0, rows


def build_partition(pair: PrimePair) -> np.ndarray:
    """The coset index over one full period as an int16 array: psi(t)/p on
    the units of Z_{pq^2}, -1 elsewhere, lifted from the residues mod pq a
    block of rows at a time.  Refused past the budget or the audit's exact
    range, where row 1 of the lift fails its check, and where some unit's
    psi is not divisible by p, naming the first such t."""
    pair.require_divides()
    check_budget("period", pair.period)
    check_exact(pair.period)
    p, q = pair.p, pair.q
    psi, step = _residue_quotients(pair)
    # mod p, row k is psi + k*step: p divides every row exactly when it divides
    # rows 0 and 1, and the first t it does not divide lies in one of them
    for k, row in enumerate((psi, (psi + step) % (p * q))):
        stray = np.flatnonzero(row % p)
        if stray.size:
            r = int(stray[0])
            raise InternalConsistencyError(f"psi({r + k * p * q}) = {row[r]} not divisible by p={p}")
    # off the units base and step are 0, so each row is 0 there, and 1 less is -1
    off = (~unit_residues(pair)).astype(np.int16)
    index = np.empty((q, p * q), dtype=np.int16)
    for k0, rows in _lift_rows(psi // p, step // p, q, q):
        np.subtract(rows, off, out=index[k0:k0 + len(rows)])
    return index.reshape(-1)
