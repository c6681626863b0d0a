import random

import pytest

from eqseq import (
    BitSequence,
    DomainError,
    Gf2Poly,
    InternalConsistencyError,
    PrimePair,
    ResourceError,
    analyze_period,
    berlekamp_massey,
    cyclotomic_f2,
    gcd,
    generate_threshold,
    predicted_minimal_polynomial,
    verify_theorem,
    wieferich_ok,
)
from eqseq import lincomp
from eqseq.gf2poly import _int_mod, _int_mul

import oracles
from oracles import synthesize_sequence, two_periods

from golden import (
    EXAMPLE1_LC,
    EXAMPLE1_MINPOLY_DEGREES,
    EXAMPLE1_PERIOD,
    EXAMPLE1_SIGMA,
    minpoly_render,
)


def brute_force_lc(bits: list[int]) -> int:
    """Smallest register length admitting taps consistent with the prefix.

    Exhaustive over all 2^L tap settings, so it is an oracle independent of
    any synthesis algorithm.
    """
    n = len(bits)
    if all(b == 0 for b in bits):
        return 0
    for length in range(1, n):
        for taps in range(1 << length):
            ok = True
            for t in range(length, n):
                acc = 0
                for i in range(1, length + 1):
                    if (taps >> (i - 1)) & 1:
                        acc ^= bits[t - i]
                if acc != bits[t]:
                    ok = False
                    break
            if ok:
                return length
    return n


def _connection_consistent(bits: list[int], length: int, connection: Gf2Poly) -> bool:
    for t in range(length, len(bits)):
        acc = bits[t]
        for i in range(1, length + 1):
            if (connection.bits >> i) & 1:
                acc ^= bits[t - i]
        if acc:
            return False
    return True


def packed(bits: list[int]) -> BitSequence:
    return BitSequence(bits=oracles.pack_bits(bits)[0], length=len(bits), origin="external")


class TestBerlekampMassey:
    def test_all_zero(self):
        assert berlekamp_massey(packed([0] * 20)) == 0
        assert oracles.berlekamp_massey([0] * 20) == (0, Gf2Poly(1))

    def test_m_sequence(self):
        bits = [0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        assert berlekamp_massey(packed(bits)) == 3 == brute_force_lc(bits)
        length, connection = oracles.berlekamp_massey(bits)
        assert length == 3
        assert _connection_consistent(bits, length, connection)

    def test_golden_two_periods(self, pair37):
        seq = generate_threshold(pair37)
        two = BitSequence(bits=seq.bits | (seq.bits << 147), length=294, origin=seq.origin)
        assert berlekamp_massey(two) == EXAMPLE1_LC
        length, connection = oracles.berlekamp_massey(two)
        assert length == EXAMPLE1_LC
        assert _connection_consistent([int(c) for c in two.to01()], length, connection)

    def test_exhaustive_against_oracle(self):
        # every sequence of length 8: brute force fixes L, which both loops
        # must find, and the reference's connection must reproduce the prefix
        for value in range(256):
            bits = [(value >> i) & 1 for i in range(8)]
            assert berlekamp_massey(packed(bits)) == brute_force_lc(bits), bits
            length, connection = oracles.berlekamp_massey(bits)
            assert length == brute_force_lc(bits), bits
            assert _connection_consistent(bits, length, connection), bits


class TestMinimalPolynomialGcd:
    def test_golden(self, pair37):
        seq = generate_threshold(pair37)
        minpoly = analyze_period(seq)[1]
        assert minpoly.degree == 96
        assert minpoly.bits == _int_mul(cyclotomic_f2(147).bits, cyclotomic_f2(21).bits)
        assert oracles.term_degrees(minpoly.bits) == EXAMPLE1_MINPOLY_DEGREES
        assert minpoly.render() == minpoly_render()

    def test_golden_gcd_degree(self, pair37):
        seq = generate_threshold(pair37)
        g = gcd(Gf2Poly((1 << 147) | 1), Gf2Poly(seq.bits))
        assert g.degree == 147 - 96

    def test_golden_generating_polynomial(self, pair37):
        a = Gf2Poly(generate_threshold(pair37).bits)
        assert a.bits.bit_count() == 36
        assert min(oracles.term_degrees(a.bits)) == 4

    def test_impulse(self):
        seq = BitSequence(bits=1, length=31, origin="external")
        assert analyze_period(seq)[1] == Gf2Poly((1 << 31) | 1)

    def test_all_zero(self):
        seq = BitSequence(bits=0, length=12, origin="external")
        minpoly = analyze_period(seq)[1]
        assert minpoly == Gf2Poly(1)
        assert minpoly.degree == 0

    def test_divides_x_n_plus_one(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 200)
            seq = BitSequence(bits=rng.getrandbits(n), length=n, origin="external")
            minpoly = analyze_period(seq)[1]
            assert _int_mod((1 << n) | 1, minpoly.bits) == 0


class TestLinearComplexity:
    def test_examples(self, pair37, pair313):
        assert analyze_period(generate_threshold(pair37))[1].degree == 96
        assert analyze_period(generate_threshold(pair313))[1].degree == 312

    def test_agrees_with_bm_on_random_periodic(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 256)
            seq = BitSequence(bits=rng.getrandbits(n), length=n, origin="external")
            two = BitSequence(bits=seq.bits | (seq.bits << n), length=2 * n, origin="external")
            assert berlekamp_massey(two) == analyze_period(seq)[1].degree


class TestSynthesize:
    def test_regenerates_golden(self, pair37):
        seq = generate_threshold(pair37)
        minpoly = analyze_period(seq)[1]
        again = synthesize_sequence(minpoly, seq, seq.length)
        assert again.bits == seq.bits

    def test_non_palindromic_minpoly(self):
        # period-7 m-sequence: the minimal polynomial x^3+x^2+1 is not
        # self-reciprocal, so this pins down the recurrence direction
        seq = BitSequence(bits=0b1110100, length=7, origin="external")
        minpoly = analyze_period(seq)[1]
        assert minpoly == oracles.from_terms([3, 2, 0])
        again = synthesize_sequence(minpoly, seq, 7)
        assert again.bits == seq.bits

    def test_bm_connection_regenerates(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 64)
            seq = BitSequence(bits=rng.getrandbits(n), length=n, origin="external")
            two = BitSequence(bits=seq.bits | (seq.bits << n), length=2 * n,
                              origin="external")
            length, connection = oracles.berlekamp_massey(two)
            assert berlekamp_massey(two) == length
            regen = synthesize_sequence(connection, two, 2 * n, register_length=length)
            assert regen.bits == two.bits

    def test_zero_lc(self):
        out = synthesize_sequence(Gf2Poly(1), BitSequence(bits=0, length=4, origin="external"), 6)
        assert out.bits == 0

    def test_needs_enough_seed(self):
        with pytest.raises(DomainError):
            synthesize_sequence(
                oracles.from_terms([5, 0]),
                BitSequence(bits=1, length=3, origin="external"),
                10,
            )

    def test_rejects_even_constant_term(self):
        with pytest.raises(DomainError):
            synthesize_sequence(
                oracles.from_terms([3, 1]),
                BitSequence(bits=0, length=3, origin="external"),
                5,
            )


class TestPrediction:
    def test_3_7(self, pair37):
        predicted = predicted_minimal_polynomial(pair37)
        assert predicted == Gf2Poly(_int_mul(cyclotomic_f2(147).bits, cyclotomic_f2(21).bits))
        assert predicted.degree == 96

    def test_3_13(self, pair313):
        predicted = predicted_minimal_polynomial(pair313)
        assert predicted == cyclotomic_f2(507)
        assert predicted.degree == 312

    def test_5_11(self, pair511):
        predicted = predicted_minimal_polynomial(pair511)
        assert predicted == Gf2Poly(_int_mul(cyclotomic_f2(605).bits, cyclotomic_f2(55).bits))
        assert predicted.degree == 480

    def test_requires_divisibility(self):
        with pytest.raises(DomainError):
            predicted_minimal_polynomial(PrimePair.create(5, 7))

    def test_wieferich_examples(self):
        assert wieferich_ok(7)
        assert wieferich_ok(13)
        assert not wieferich_ok(1093)


class TestVerifyTheorem:
    def test_3_7(self, pair37):
        report = verify_theorem(pair37)
        assert report.match
        assert report.lc_empirical == report.lc_predicted == EXAMPLE1_LC
        assert report.period_found == EXAMPLE1_PERIOD
        assert report.sigma == EXAMPLE1_SIGMA
        assert report.q_mod_4 == 3
        assert report.divisibility_ok and report.wieferich_ok
        assert report.lc_empirical == report.minpoly_empirical.degree

    def test_3_13(self, pair313):
        report = verify_theorem(pair313)
        assert report.match
        assert report.lc_empirical == 312
        assert report.period_found == 507
        assert report.q_mod_4 == 1
        assert report.sigma == 5

    def test_inapplicable_pair(self):
        report = verify_theorem(PrimePair.create(5, 7))
        assert not report.divisibility_ok
        assert report.lc_predicted is None
        assert report.minpoly_predicted is None
        assert report.sigma is None
        assert not report.match
        assert report.lc_empirical == report.minpoly_empirical.degree
        assert report.period_found >= 1

    def test_json_shape(self, pair37):
        d = verify_theorem(pair37).to_json_dict()
        assert list(d) == [
            "pair", "q_mod_4", "divisibility_ok", "wieferich_ok",
            "period_found", "lc_empirical", "lc_predicted",
            "minpoly_empirical", "minpoly_predicted", "match", "sigma",
            "elapsed", "lc_by_divisor",
        ]
        assert d["pair"] == [3, 7]
        assert d["minpoly_empirical"].startswith("x^96 + x^95")

    def test_json_na_fields(self):
        d = verify_theorem(PrimePair.create(5, 7)).to_json_dict()
        assert d["lc_predicted"] == "n/a"
        assert d["minpoly_predicted"] == "n/a"
        assert d["sigma"] == "n/a"


class TestAnalyzePeriod:
    def test_golden(self, pair37):
        period, minpoly = analyze_period(generate_threshold(pair37))
        assert period == EXAMPLE1_PERIOD
        assert minpoly == predicted_minimal_polynomial(pair37)

    def test_shorter_least_period(self):
        seq = BitSequence(bits=0b0010111_0010111, length=14, origin="external")
        period, minpoly = analyze_period(seq)
        assert period == 7
        assert minpoly == oracles.minimal_polynomial_gcd(seq)

    def test_disagreement_raises(self, monkeypatch, pair37):
        # only a bug can make the two routes differ; BM is made to undercount
        real = lincomp.berlekamp_massey
        monkeypatch.setattr(lincomp, "berlekamp_massey", lambda seq: real(seq) - 1)
        message = r"^LC disagreement for \(3, 7\) in block d=1: gcd=0, bm=-1$"
        with pytest.raises(InternalConsistencyError, match=message):
            analyze_period(generate_threshold(pair37))
        with pytest.raises(InternalConsistencyError, match=message):
            verify_theorem(pair37)


class TestBudgetGuards:
    def test_gcd_checks_sequence_length(self, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        # N = budget passes: BM's implied-period check inside the sub-blocks does not fire
        period, minpoly = analyze_period(BitSequence(bits=1, length=100, origin="external"))
        assert (period, minpoly.degree) == (100, 100)
        with pytest.raises(ResourceError, match="sequence length 101 exceeds budget 100"):
            analyze_period(BitSequence(bits=1, length=101, origin="external"))

    def test_bm_checks_implied_period(self, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        period = BitSequence(bits=1, length=100, origin="external")
        assert berlekamp_massey(two_periods(period)) == 100
        assert berlekamp_massey(packed([0] * 198 + [1])) == 199
        with pytest.raises(ResourceError, match="period 101 exceeds budget 100"):
            berlekamp_massey(packed([0] * 201))
        with pytest.raises(ResourceError, match="period 101 exceeds budget 100"):
            berlekamp_massey(two_periods(BitSequence(bits=1, length=101, origin="external")))
