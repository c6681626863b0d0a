import math

import pytest
from hypothesis import given, strategies as st

from eqseq import (
    BitSequence,
    DomainError,
    PrimePair,
    build_partition,
    coset_index,
    generate_threshold,
    least_period,
)
from eqseq.sequence import pack_flags

from golden import EXAMPLE1_BITS, EXAMPLE1_ONES, EXAMPLE1_STRING, SWEEP_PAIRS


class TestGenerateThreshold:
    def test_golden_period(self, pair37):
        seq = generate_threshold(pair37)
        assert [int(c) for c in seq.to01()] == EXAMPLE1_BITS
        assert seq.to01() == EXAMPLE1_STRING

    def test_named_bits(self, pair37):
        seq = generate_threshold(pair37)
        assert (seq.bits >> 1) & 1 == 0
        assert (seq.bits >> 22) & 1 == 1

    def test_works_without_divisibility(self):
        # threshold generation needs only the quotient values
        seq = generate_threshold(PrimePair.create(5, 7))
        assert seq.length == 245


class TestGenerateByCosets:
    """Where p | q-1 the threshold sequence is the coset form: bit t is set
    exactly where t lies in an upper-half coset of the index, psi(t)/p >=
    (q + 1)/2, and off the units (index -1) it is clear."""

    def test_agrees_with_threshold(self):
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            want = pack_flags(build_partition(pair) >= (q + 1) // 2)
            assert generate_threshold(pair).bits == want, (p, q)

    def test_bit_two_is_zero(self, pair37):
        # coset index of 2 is 2, below the threshold half
        assert coset_index(2, pair37) == 2
        assert (generate_threshold(pair37).bits >> 2) & 1 == 0

    def test_non_units_are_zero(self, pair37):
        seq = generate_threshold(pair37)
        for t in range(147):
            if math.gcd(t, 21) != 1:
                assert (seq.bits >> t) & 1 == 0


class TestLeastPeriod:
    def test_golden(self, pair37):
        assert least_period(generate_threshold(pair37)) == 147

    def test_all_zero(self):
        assert least_period(BitSequence(bits=0, length=147, origin="external")) == 1

    def test_3_13(self, pair313):
        assert least_period(generate_threshold(pair313)) == 507

    def test_repeated_block(self):
        # 0010111 twice has least period 7
        block = 0b1110100
        seq = BitSequence(bits=block | (block << 7), length=14, origin="external")
        assert least_period(seq) == 7

    @given(st.integers(1, 400), st.data())
    def test_divides_length(self, n, data):
        bits = data.draw(st.integers(0, (1 << n) - 1))
        seq = BitSequence(bits=bits, length=n, origin="external")
        assert n % least_period(seq) == 0


def balance(seq: BitSequence) -> tuple[int, int]:
    """(zeros, ones) over one period."""
    ones = seq.bits.bit_count()
    return seq.length - ones, ones


class TestBalance:
    def test_golden(self, pair37):
        assert balance(generate_threshold(pair37)) == (111, 36)
        assert EXAMPLE1_ONES == 36

    def test_all_zero(self):
        assert balance(BitSequence(bits=0, length=10, origin="external")) == (10, 0)

    def test_3_13(self, pair313):
        assert balance(generate_threshold(pair313)) == (363, 144)

    @given(st.integers(1, 400), st.data())
    def test_sums_to_length(self, n, data):
        bits = data.draw(st.integers(0, (1 << n) - 1))
        seq = BitSequence(bits=bits, length=n, origin="external")
        zeros, ones = balance(seq)
        assert zeros + ones == n
        assert (zeros, ones) == (seq.to01().count("0"), seq.to01().count("1"))


class TestBitSequence:
    def test_validation(self):
        with pytest.raises(DomainError):
            BitSequence(bits=0, length=0, origin="external")
        with pytest.raises(DomainError):
            BitSequence(bits=4, length=2, origin="external")
