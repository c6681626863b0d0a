"""Binary threshold sequences over one period: generation and least period.

Bit t is 1 exactly when the Euler quotient psi(t), as an integer in [0, pq),
satisfies 2*psi(t) >= pq, i.e. psi(t) >= (pq + 1)/2 since pq is odd: pure
integer arithmetic, with no floating point anywhere.  The threshold reads
psi a block of rows at a time from eulerq._psi_rows, the lift that also
feeds the coset index, and keeps only the flags, so it builds no psi table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eulerq
from .errors import DomainError, InternalConsistencyError
from .limits import check_budget
from .ntcore import PrimePair, divisors


@dataclass(frozen=True)
class BitSequence:
    """One period of a binary sequence, packed into an integer (bit t = s_t).

    Analysis treats the stored window as a full period.
    """

    bits: int
    length: int
    origin: tuple[int, int] | str

    def __post_init__(self) -> None:
        if self.length < 1:
            raise DomainError(f"sequence length must be positive, got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
            raise DomainError("sequence bits exceed the declared length")

    def to01(self) -> str:
        """The period as a left-to-right '0'/'1' string (s_0 first)."""
        return format(self.bits, f"0{self.length}b")[::-1]


def pack_flags(flags: np.ndarray) -> int:
    """The integer whose bit i is set where the boolean array is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def generate_threshold(pair: PrimePair) -> BitSequence:
    """The threshold sequence of one full period pq^2.  When p | q-1 its ones
    are the (q-1)/2 upper cosets of phi(pq) units each, and a period of any
    other weight is refused, as is a period past the budget."""
    check_budget("period", pair.period)
    pq = pair.p * pair.q
    flags = np.empty((pair.q, pq), dtype=bool)
    for k0, rows in eulerq._psi_rows(pair):
        np.greater_equal(rows, (pq + 1) // 2, out=flags[k0:k0 + len(rows)])
    bits = pack_flags(flags)
    expected = (pair.q - 1) // 2 * pair.phi_pq
    if pair.divides and bits.bit_count() != expected:
        raise InternalConsistencyError(
            f"threshold sequence of {(pair.p, pair.q)} has weight {bits.bit_count()}, "
            f"expected (q-1)/2 * phi(pq) = {expected}")
    return BitSequence(bits=bits, length=pair.period, origin=(pair.p, pair.q))


def least_period(seq: BitSequence) -> int:
    """Smallest T with s_{t+T} = s_t for all t, indices mod the stored length.

    Only divisors of the length need testing: any period of the cyclic window
    divides it.  The test is a cyclic rotation compare on the packed bits.
    """
    n = seq.length
    s = seq.bits
    mask = (1 << n) - 1
    for t in divisors(n):
        if (((s << t) & mask) | (s >> (n - t))) == s:
            return t
    return n
