"""Binary threshold sequences over one period: generation, least period, balance.

Bit t is 1 exactly when the Euler quotient psi(t), as an integer in [0, pq),
satisfies 2*psi(t) >= pq.  The comparison is pure integer arithmetic; no
floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .eulerq import build_table
from .ntcore import PrimePair

if TYPE_CHECKING:  # pragma: no cover
    from .structverify import CosetPartition


@dataclass(frozen=True)
class BitSequence:
    """One period of a binary sequence, packed into an integer (bit t = s_t).

    Analysis treats the stored window as a full period; indices are reduced
    mod `length`, taking nonnegative representatives.
    """

    bits: int
    length: int
    origin: tuple[int, int] | str

    def __post_init__(self) -> None:
        if self.length < 1:
            raise DomainError(f"sequence length must be positive, got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
            raise DomainError("sequence bits exceed the declared length")

    def __len__(self) -> int:
        return self.length

    def bit(self, t: int) -> int:
        return (self.bits >> (t % self.length)) & 1

    def iter_bits(self) -> Iterator[int]:
        for t in range(self.length):
            yield (self.bits >> t) & 1

    def to01(self) -> str:
        """The period as a left-to-right '0'/'1' string (s_0 first)."""
        return format(self.bits, f"0{self.length}b")[::-1]

    def two_periods(self) -> "BitSequence":
        """The period written out twice, the input Berlekamp-Massey needs."""
        return BitSequence(bits=self.bits | (self.bits << self.length),
                           length=2 * self.length, origin=self.origin)


_DIGITS = {0: "0", 1: "1"}


def pack_bits(bits: Sequence[int]) -> int:
    """The integer whose bit i is bits[i] (0, 1 or a bool), by one linear base-2 parse."""
    try:
        digits = "".join([_DIGITS[b] for b in reversed(bits)])
    except (KeyError, TypeError):
        bad = next(b for b in bits if b not in (0, 1))
        raise DomainError(f"bits must be 0 or 1, got {bad!r}") from None
    return int(digits, 2) if digits else 0


def pack_flags(flags: np.ndarray) -> int:
    """The integer whose bit i is set where the boolean array is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def generate_threshold(pair: PrimePair) -> BitSequence:
    """The threshold sequence of one full period pq^2."""
    bits = pack_flags(2 * build_table(pair).values >= pair.p * pair.q)
    return BitSequence(bits=bits, length=pair.period, origin=(pair.p, pair.q))


def generate_by_cosets(pair: PrimePair, partition: "CosetPartition") -> BitSequence:
    """Equivalent coset form: bit t = 1 iff t lies in an upper-half coset.

    Must agree bit-for-bit with generate_threshold for the same pair.
    """
    if partition.pair != pair:
        raise DomainError(
            f"partition built for {(partition.pair.p, partition.pair.q)}, "
            f"not {(pair.p, pair.q)}"
        )
    bits = pack_flags(partition.index >= (pair.q + 1) // 2)
    return BitSequence(bits=bits, length=pair.period, origin=(pair.p, pair.q))


def _divisors_ascending(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def least_period(seq: BitSequence) -> int:
    """Smallest T with s_{t+T} = s_t for all t, indices mod the stored length.

    Only divisors of the length need testing: any period of the cyclic window
    divides it.  The test is a cyclic rotation compare on the packed bits.
    """
    n = seq.length
    s = seq.bits
    mask = (1 << n) - 1
    for t in _divisors_ascending(n):
        if (((s << t) & mask) | (s >> (n - t))) == s:
            return t
    return n


def balance(seq: BitSequence) -> tuple[int, int]:
    """(zeros, ones) over one period."""
    ones = seq.bits.bit_count()
    return seq.length - ones, ones
