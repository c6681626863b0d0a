import numpy as np
import pytest
from hypothesis import given, strategies as st

from eqseq import (
    BitSequence,
    DomainError,
    PrimePair,
    build_partition,
    generate_by_cosets,
    generate_threshold,
    least_period,
)

from golden import EXAMPLE1_BITS, EXAMPLE1_ONES, EXAMPLE1_STRING


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
    def test_agrees_with_threshold(self, pair37, pair313, pair511):
        for pair in (pair37, pair313, pair511):
            index = build_partition(pair)
            assert generate_by_cosets(pair, index).bits == generate_threshold(pair).bits

    def test_bit_two_is_zero(self, pair37):
        # coset index of 2 is 2, below the threshold half
        index = build_partition(pair37)
        assert (generate_by_cosets(pair37, index).bits >> 2) & 1 == 0

    def test_non_units_are_zero(self, pair37):
        import math

        seq = generate_by_cosets(pair37, build_partition(pair37))
        for t in range(147):
            if math.gcd(t, 21) != 1:
                assert (seq.bits >> t) & 1 == 0

    def test_pair_mismatch(self, pair37, pair313):
        # N = pq^2 fixes the pair, so another pair's index has the wrong length
        index = build_partition(pair37)
        with pytest.raises(DomainError, match=r"^coset index of shape \(147,\) is not one period N = 507$"):
            generate_by_cosets(pair313, index)

    def test_short_index(self, pair37):
        # a sequence of one period is never built from fewer labels
        for index in (np.zeros(10), build_partition(pair37)[:-1], build_partition(pair37).reshape(21, 7)):
            with pytest.raises(DomainError, match=r"is not one period N = 147$"):
                generate_by_cosets(pair37, index)

    def test_float_or_list_index(self, pair37):
        # the right length, but not integer labels
        index = build_partition(pair37)
        for bad, kind in ((index.astype(float), "float64"), (index.tolist(), "list")):
            with pytest.raises(DomainError, match=rf"^coset index of type {kind} is not a signed integer array$"):
                generate_by_cosets(pair37, bad)

    @pytest.mark.parametrize("label", [-2, 7, 8, 5_000_000])
    def test_label_outside_range(self, pair37, label):
        # -1 and the cosets 0..q-1 are the only labels; the threshold would
        # read any other as a coset that is not there
        # int16 holds no 5,000,000, so the labels are widened first
        index = build_partition(pair37).astype(np.int64)
        index[1] = label
        with pytest.raises(DomainError, match=rf"^coset index holds label {label}, outside -1\.\.6$"):
            generate_by_cosets(pair37, index)


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
