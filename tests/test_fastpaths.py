"""Differential tests: the fast kernels against the slow code they replaced.

The oracles in oracles.py are the previous Berlekamp-Massey loop, the
previous recursive-division cyclotomic construction, the long divisions
that shifted by zero, the Euclidean minimal polynomial on the whole of
x^N + 1, the per-bit fold, the per-position Euler-quotient table with the
threshold flags packed from it, and the per-bit loops that rendered, built
and packed polynomials and bits, and the per-character ASCII parser; sympy
gives an outside check of the cyclotomic polynomials.  The block route is
also checked against Berlekamp-Massey on two whole periods.  The structural
audit has its own differential tests in test_audit_differential.py.
"""

import contextlib
import random
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy import cyclotomic_poly, symbols

from eqseq import (
    BitSequence,
    DomainError,
    Gf2Poly,
    PrimePair,
    build_table,
    cyclotomic_f2,
    euler_quotient,
    generate_threshold,
    synthesize_sequence,
)
from eqseq import InternalConsistencyError, analyze_period, compose_power, lincomp
from eqseq import minimal_polynomial_gcd
from eqseq.cli import parse_ascii
from eqseq.errors import ParseError
from eqseq.gf2poly import _int_divmod, _int_mod
from eqseq.lincomp import berlekamp_massey
from eqseq.sequence import pack_bits

import oracles
from golden import SWEEP_PAIRS

# pairs with p not dividing q - 1: the lift holds for every pair, not only these
NON_DIVIDING_PAIRS = [(5, 7), (7, 3), (11, 13)]
SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]

# lengths around the truncation interval of berlekamp_massey, plus small ones
EDGE_LENGTHS = [1, 2, 3, 64, 2047, 2048, 2049, 4097]
lengths = st.sampled_from(EDGE_LENGTHS) | st.integers(min_value=1, max_value=4200)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_bits(seed: int, n: int) -> BitSequence:
    return BitSequence(bits=random.Random(seed).getrandbits(n), length=n, origin="external")


def lfsr_bits(seed: int, n: int) -> BitSequence:
    rng = random.Random(seed)
    register = rng.randint(1, max(1, min(n, 600)))
    connection = Gf2Poly((1 << register) | (rng.getrandbits(register) & ~1) | 1)
    start = BitSequence(bits=rng.getrandbits(register) | 1, length=register, origin="external")
    return synthesize_sequence(connection, start, n)


def periodic_bits(seed: int, n: int) -> BitSequence:
    # two copies of one random period; odd n continues into a third copy
    if n < 2:
        return random_bits(seed, n)
    two = random_bits(seed, n // 2).two_periods()
    return BitSequence(bits=two.bits | ((two.bits & 1) << two.length), length=n,
                       origin="external") if n % 2 else two


KINDS = {"random": random_bits, "lfsr": lfsr_bits, "periodic": periodic_bits}


def assert_same_as_oracle(seq: BitSequence) -> None:
    assert berlekamp_massey(seq) == oracles.berlekamp_massey(seq)


class TestBerlekampMasseyDifferential:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_edge_lengths(self, kind, n):
        for seed in range(3):
            assert_same_as_oracle(KINDS[kind](seed, n))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, lengths)
    @example("random", 0, 2049)
    @example("lfsr", 1, 4097)
    @example("periodic", 2, 4096)
    def test_matches_oracle(self, kind, seed, n):
        assert_same_as_oracle(KINDS[kind](seed, n))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=40))
    def test_matches_oracle_with_frequent_truncation(self, kind, seed, n, every):
        # a short interval truncates many times within a small input
        seq = KINDS[kind](seed, n)
        expected = oracles.berlekamp_massey(seq)
        saved = lincomp._TRUNCATE_EVERY
        lincomp._TRUNCATE_EVERY = every
        try:
            assert berlekamp_massey(seq) == expected
        finally:
            lincomp._TRUNCATE_EVERY = saved

    def test_all_zero_and_all_one(self):
        for n in (2047, 2049):
            assert_same_as_oracle(BitSequence(bits=0, length=n, origin="external"))
            assert_same_as_oracle(BitSequence(bits=(1 << n) - 1, length=n, origin="external"))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, lengths, st.sampled_from([3, 40, 2048]))
    @example("periodic", 0, 4096, 2048)
    @example("random", 1, 300, 3)
    def test_count_only_matches_oracle_length(self, kind, seed, n, every):
        seq = KINDS[kind](seed, n)
        expected = oracles.berlekamp_massey(seq)[0]
        saved = lincomp._TRUNCATE_EVERY
        lincomp._TRUNCATE_EVERY = every
        try:
            assert berlekamp_massey(seq, connection=False) == (expected, None)
        finally:
            lincomp._TRUNCATE_EVERY = saved

    def test_long_run_without_discrepancy(self):
        # a single 1 after many zeros: the bit tested must follow the shifts
        for n in (2047, 2048, 4097, 9000):
            seq = BitSequence(bits=1 << (n - 1), length=n, origin="external")
            assert_same_as_oracle(seq)
            assert berlekamp_massey(seq, connection=False)[0] == n


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError instead of hanging: a division loop whose shift is
    off by one never ends, and each call here takes well under a millisecond."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_divisions_match(f: int, g: int) -> None:
    with time_limit(1.0):
        got = _int_mod(f, g), _int_divmod(f, g)
    assert got == (oracles.int_mod(f, g), oracles.int_divmod(f, g))


class TestIntDivisionDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**700), st.integers(min_value=1, max_value=2**300))
    @example(0, 1)
    @example(0b111, 0b1)
    @example(0b110, 0b11)
    @example(0b1011, 0b1001)
    def test_matches_shifting_loop(self, f, g):
        assert_divisions_match(f, g)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=400), seeds)
    def test_equal_degrees(self, degree, seed):
        # every step of these divisions ends on a zero shift
        rng = random.Random(seed)
        g = (1 << degree) | rng.getrandbits(degree)
        assert_divisions_match(g ^ rng.getrandbits(degree), g)
        assert_divisions_match((g << 1) ^ rng.getrandbits(degree + 1), g)


def assert_block_route_matches(seq: BitSequence) -> None:
    """Both block routes against the Euclidean oracle and whole-period BM."""
    want = oracles.minimal_polynomial_gcd(seq)
    assert minimal_polynomial_gcd(seq) == want
    assert analyze_period(seq)[1] == want
    assert berlekamp_massey(seq.two_periods(), connection=False)[0] == want.degree


# N prime, a power of 2, even with an odd part, odd with many divisors
SPECIAL_LENGTHS = [1, 2, 4099, 4096, 6930, 15015, 61425]


class TestBlockRouteDifferential:
    @pytest.mark.parametrize("p, q", SWEEP_PAIRS)
    def test_sweep_pairs(self, p, q):
        assert_block_route_matches(generate_threshold(PrimePair.create(p, q)))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.integers(min_value=1, max_value=3000))
    @example("random", 0, 2)
    @example("lfsr", 1, 2048)
    @example("periodic", 2, 1890)
    def test_matches_oracle(self, kind, seed, n):
        assert_block_route_matches(KINDS[kind](seed, n))

    @pytest.mark.parametrize("n", SPECIAL_LENGTHS)
    @pytest.mark.parametrize("kind", ["random", "lfsr"])
    def test_special_lengths(self, kind, n):
        assert_block_route_matches(KINDS[kind](n, n))

    def test_all_zero_and_all_one(self):
        for n in (1, 6, 147, 4096):
            assert_block_route_matches(BitSequence(bits=0, length=n, origin="external"))
            assert_block_route_matches(BitSequence(bits=(1 << n) - 1, length=n, origin="external"))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.integers(min_value=1, max_value=3000))
    @example("random", 0, 61425 // 25)
    def test_fold_and_reduction_match_per_bit_loops(self, kind, seed, n):
        seq = KINDS[kind](seed, n)
        for block, u in lincomp._block_folds(seq):
            assert u == oracles.fold(seq.bits, n, block.d), block.d
            assert lincomp._reduce_polyphase(u, block) == oracles.int_mod(u, block.factor), block.d

    @pytest.mark.parametrize("n", [1, 2, 12, 147, 256, 6930, 15015])
    def test_blocks_are_the_cyclotomic_factors(self, n):
        k = (n & -n).bit_length() - 1
        blocks = lincomp._blocks(n)
        assert [b.d for b in blocks] == [d for d in range(1, n + 1)
                                         if n % d == 0 and d % (1 << k) == 0]
        for block in blocks:
            phi_e = Gf2Poly(oracles.cyclotomic_bits(block.d >> k))
            power = phi_e
            for _ in range(k):
                power = power * power
            assert block.factor == power.bits == compose_power(phi_e, 1 << k).bits
            assert (Gf2Poly(block.factor) * Gf2Poly(block.cofactor)).bits == (1 << block.d) | 1


class TestBlockRuntimeChecks:
    def test_factors_must_multiply_to_x_n_plus_1(self, monkeypatch, pair37):
        # x^r + 1 in place of Phi_r: each block is self-consistent, the product is not
        monkeypatch.setattr(lincomp, "_cyclotomic_pair", lambda r: ((1 << r) | 1, 1))
        seq = generate_threshold(pair37)
        for route in (analyze_period, minimal_polynomial_gcd):
            with pytest.raises(InternalConsistencyError,
                               match=r"^cyclotomic blocks do not multiply to x\^147 \+ 1$"):
                route(seq)

    def test_cofactor_must_complete_the_factor(self, monkeypatch, pair37):
        real = lincomp._cyclotomic_pair
        monkeypatch.setattr(lincomp, "_cyclotomic_pair", lambda r: (real(r)[0], real(r)[1] ^ 0b10))
        with pytest.raises(InternalConsistencyError, match=r"^cyclotomic cofactor for n=1 is wrong$"):
            analyze_period(generate_threshold(pair37))

    def test_block_routes_must_agree(self, monkeypatch, pair37):
        # filtering by the factor instead of the cofactor picks the wrong component
        real = lincomp._blocks
        monkeypatch.setattr(lincomp, "_blocks", lambda n: [
            b._replace(cofactor=b.factor) for b in real(n)])
        with pytest.raises(InternalConsistencyError,
                           match=r"^LC disagreement for \(3, 7\) in block d=\d+: gcd=\d+, bm=\d+$"):
            analyze_period(generate_threshold(pair37))


def sympy_cyclotomic_mod2(n: int) -> Gf2Poly:
    bits = 0
    for c in cyclotomic_poly(n, symbols("x"), polys=True).all_coeffs():
        bits = (bits << 1) | (int(c) & 1)
    return Gf2Poly(bits)


class TestCyclotomicDifferential:
    def test_matches_recursive_oracle(self):
        for n in range(1, 2001, 2):
            assert cyclotomic_f2(n).bits == oracles.cyclotomic_bits(n), n

    def test_matches_sympy_small(self):
        for n in range(1, 400, 2):
            assert cyclotomic_f2(n) == sympy_cyclotomic_mod2(n), n

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=200, max_value=1000).map(lambda k: 2 * k + 1))
    @example(1155)  # 3*5*7*11, squarefree with four primes
    @example(1575)  # 3^2*5^2*7, not squarefree
    @example(1999)  # prime
    @example(2001)  # 3*23*29
    def test_matches_sympy_large(self, n):
        assert cyclotomic_f2(n) == sympy_cyclotomic_mod2(n)

    # primes above 2001, and m*p with a large prime p
    @pytest.mark.parametrize("n", [2003, 4099, 3 * 2003, 3 * 5 * 1009])
    def test_matches_sympy_large_prime_factor(self, n):
        assert cyclotomic_f2(n) == sympy_cyclotomic_mod2(n)

    def test_prime_is_all_ones(self):
        for p in (3, 2003, 60029):
            assert cyclotomic_f2(p).bits == (1 << p) - 1


class TestRenderDifferential:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**3000))
    @example(0)
    @example(1)
    @example(2)
    @example(3)
    def test_matches_per_bit_loop(self, bits):
        poly = Gf2Poly(bits)
        assert poly.term_degrees() == oracles.term_degrees(bits)
        assert poly.render() == oracles.render(bits)

    def test_large_random(self):
        rng = random.Random(7)
        for n in (64, 65, 4097, 160_000):
            bits = rng.getrandbits(n) | (1 << (n - 1))
            assert Gf2Poly(bits).render() == oracles.render(bits)


class TestPackBitsDifferential:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=3000))
    def test_matches_per_bit_loop(self, bits):
        assert lincomp._as_packed(bits) == oracles.pack_bits(bits)
        assert pack_bits(bits) == oracles.pack_bits(bits)[0]

    @pytest.mark.parametrize("bad", [2, -1, "1", None, [1]])
    def test_rejects_non_bits_like_the_loop(self, bad):
        bits = [1, 0, bad, 1, 3]
        with pytest.raises(DomainError) as new:
            lincomp._as_packed(bits)
        with pytest.raises(DomainError) as old:
            oracles.pack_bits(bits)
        assert str(new.value) == str(old.value) == f"bits must be 0 or 1, got {bad!r}"


class TestEulerTableDifferential:
    @pytest.mark.parametrize("p, q", SWEEP_PAIRS + NON_DIVIDING_PAIRS)
    def test_matches_per_position_loop(self, p, q):
        pair = PrimePair.create(p, q)
        assert build_table(pair).values.tolist() == oracles.build_table(pair).values

    @pytest.mark.parametrize("p, q", SWEEP_PAIRS)
    def test_threshold_matches_per_entry_flags(self, p, q):
        pair = PrimePair.create(p, q)
        assert generate_threshold(pair).bits == oracles.generate_threshold(pair)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.sampled_from(SMALL_PRIMES))
    def test_small_pairs(self, p, q):
        assume(p != q)
        pair = PrimePair.create(p, q)
        assert build_table(pair).values.tolist() == oracles.build_table(pair).values
        assert generate_threshold(pair).bits == oracles.generate_threshold(pair)

    def test_sampled_entries_of_largest_pair(self):
        pair = PrimePair.create(3, 577)
        values = build_table(pair).values
        for t in random.Random(3).sample(range(pair.period), 20_000):
            assert values[t] == euler_quotient(t, pair), t

    def test_read_only_int64(self, pair37):
        values = build_table(pair37).values
        assert values.dtype == np.int64
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[22] = 0
        assert values[22] == 12

    def test_equality_by_value(self, pair37, pair313):
        table = build_table(pair37)
        assert table == build_table(pair37)
        assert table == oracles.build_table(pair37)
        assert table != build_table(pair313)


class TestPolyConstructionDifferential:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=3000))
    def test_from_coeffs_matches_per_bit_loop(self, coeffs):
        assert Gf2Poly.from_coeffs(coeffs) == oracles.from_coeffs(coeffs)
        assert Gf2Poly.from_coeffs(iter(coeffs)) == oracles.from_coeffs(coeffs)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3000), max_size=400))
    def test_from_terms_matches_per_bit_loop(self, degrees):
        # repeated degrees are ORed, not added mod 2
        doubled = degrees + degrees[::2]
        assert Gf2Poly.from_terms(doubled) == oracles.from_terms(doubled)
        assert Gf2Poly.from_terms(iter(degrees)) == oracles.from_terms(degrees)

    def test_large_random(self):
        rng = random.Random(11)
        coeffs = [rng.getrandbits(1) for _ in range(160_000)]
        assert Gf2Poly.from_coeffs(coeffs) == oracles.from_coeffs(coeffs)
        degrees = [rng.randrange(160_000) for _ in range(80_000)]
        assert Gf2Poly.from_terms(degrees) == oracles.from_terms(degrees)

    @pytest.mark.parametrize("bad", [2, -1, "1", None, [1]])
    def test_rejects_non_bits_like_the_loop(self, bad):
        coeffs = [1, 0, bad, 1, 3]
        with pytest.raises(DomainError) as new:
            Gf2Poly.from_coeffs(coeffs)
        with pytest.raises(DomainError) as old:
            oracles.from_coeffs(coeffs)
        assert str(new.value) == str(old.value) == f"coefficients must be 0 or 1, got {bad}"

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError, match="nonnegative, got -1"):
            Gf2Poly.from_terms([3, -1])


def parse_outcome(parse, text):
    """The parsed bits as a '0'/'1' string, or the ParseError's text and position."""
    try:
        bits = parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    return bits if isinstance(bits, str) else "".join(map(str, bits))


class TestParseAsciiDifferential:
    # \x0b, \x0c, \x1c and \x85 end a line for splitlines(); \x1c and \x0b are
    # also whitespace inside one, as is \x1f, which does not end a line
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01#x \t\r\n\x0b\x0c\x1c\x85", max_size=200))
    @example("# c\n0 1\n\t1\n01\n")
    @example("  # 01\n0\x1f1\x1e#\n10")
    @example("01\x85x")
    def test_matches_per_character_loop(self, text):
        assert parse_outcome(parse_ascii, text) == parse_outcome(oracles.parse_ascii, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_matches_on_any_characters(self, text):
        assert parse_outcome(parse_ascii, text) == parse_outcome(oracles.parse_ascii, text)

    def test_large_file(self):
        rng = random.Random(13)
        lines = ["# header"] + ["".join(rng.choice("01 ") for _ in range(80)) for _ in range(2000)]
        text = "\n".join(lines)
        assert parse_ascii(text) == parse_outcome(oracles.parse_ascii, text)
