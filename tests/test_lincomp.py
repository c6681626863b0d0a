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
    generating_polynomial,
    generate_threshold,
    minimal_polynomial_gcd,
    predicted_minimal_polynomial,
    synthesize_sequence,
    verify_theorem,
    wieferich_ok,
)
from eqseq import lincomp

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
            if connection.coefficient(i):
                acc ^= bits[t - i]
        if acc:
            return False
    return True


class TestBerlekampMassey:
    def test_all_zero(self):
        assert berlekamp_massey([0] * 20) == (0, Gf2Poly.one())

    def test_m_sequence(self):
        bits = [0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        length, connection = berlekamp_massey(bits)
        assert length == 3
        assert length == brute_force_lc(bits)
        assert _connection_consistent(bits, length, connection)

    def test_golden_two_periods(self, pair37):
        seq = generate_threshold(pair37)
        two = BitSequence(bits=seq.bits | (seq.bits << 147), length=294, origin=seq.origin)
        length, connection = berlekamp_massey(two)
        assert length == EXAMPLE1_LC
        assert _connection_consistent(list(two.iter_bits()), length, connection)

    def test_exhaustive_against_oracle(self):
        # every sequence of length 8: the oracle fixes L, the returned
        # connection must reproduce the prefix
        for value in range(256):
            bits = [(value >> i) & 1 for i in range(8)]
            length, connection = berlekamp_massey(bits)
            assert length == brute_force_lc(bits), bits
            assert _connection_consistent(bits, length, connection), bits

    def test_accepts_bit_sequence(self):
        seq = BitSequence(bits=0b1110100, length=7, origin="external")
        assert berlekamp_massey(seq) == berlekamp_massey(list(seq.iter_bits()))

    def test_rejects_bare_int(self):
        with pytest.raises(DomainError):
            berlekamp_massey(5)


class TestMinimalPolynomialGcd:
    def test_golden(self, pair37):
        seq = generate_threshold(pair37)
        minpoly = minimal_polynomial_gcd(seq)
        assert minpoly.degree == 96
        assert minpoly == cyclotomic_f2(147) * cyclotomic_f2(21)
        assert minpoly.term_degrees() == EXAMPLE1_MINPOLY_DEGREES
        assert minpoly.render() == minpoly_render()

    def test_golden_gcd_degree(self, pair37):
        seq = generate_threshold(pair37)
        g = gcd(Gf2Poly((1 << 147) | 1), generating_polynomial(seq))
        assert g.degree == 147 - 96

    def test_golden_generating_polynomial(self, pair37):
        a = generating_polynomial(generate_threshold(pair37))
        assert a.num_terms == 36
        assert min(a.term_degrees()) == 4

    def test_impulse(self):
        seq = BitSequence(bits=1, length=31, origin="external")
        assert minimal_polynomial_gcd(seq) == Gf2Poly((1 << 31) | 1)

    def test_all_zero(self):
        seq = BitSequence(bits=0, length=12, origin="external")
        assert minimal_polynomial_gcd(seq) == Gf2Poly.one()
        assert minimal_polynomial_gcd(seq).degree == 0

    def test_divides_x_n_plus_one(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 200)
            seq = BitSequence(bits=rng.getrandbits(n), length=n, origin="external")
            minpoly = minimal_polynomial_gcd(seq)
            assert (Gf2Poly((1 << n) | 1) % minpoly).is_zero


class TestLinearComplexity:
    def test_examples(self, pair37, pair313):
        assert minimal_polynomial_gcd(generate_threshold(pair37)).degree == 96
        assert minimal_polynomial_gcd(generate_threshold(pair313)).degree == 312

    def test_agrees_with_bm_on_random_periodic(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 256)
            seq = BitSequence(bits=rng.getrandbits(n), length=n, origin="external")
            two = BitSequence(bits=seq.bits | (seq.bits << n), length=2 * n, origin="external")
            length, _ = berlekamp_massey(two)
            assert length == minimal_polynomial_gcd(seq).degree


class TestSynthesize:
    def test_regenerates_golden(self, pair37):
        seq = generate_threshold(pair37)
        minpoly = minimal_polynomial_gcd(seq)
        again = synthesize_sequence(minpoly, seq, seq.length)
        assert again.bits == seq.bits

    def test_non_palindromic_minpoly(self):
        # period-7 m-sequence: the minimal polynomial x^3+x^2+1 is not
        # self-reciprocal, so this pins down the recurrence direction
        seq = BitSequence(bits=0b1110100, length=7, origin="external")
        minpoly = minimal_polynomial_gcd(seq)
        assert minpoly == Gf2Poly.from_terms([3, 2, 0])
        again = synthesize_sequence(minpoly, seq, 7)
        assert again.bits == seq.bits

    def test_bm_connection_regenerates(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 64)
            seq = BitSequence(bits=rng.getrandbits(n), length=n, origin="external")
            two = BitSequence(bits=seq.bits | (seq.bits << n), length=2 * n,
                              origin="external")
            length, connection = berlekamp_massey(two)
            regen = synthesize_sequence(connection, two, 2 * n, register_length=length)
            assert regen.bits == two.bits

    def test_zero_lc(self):
        out = synthesize_sequence(Gf2Poly.one(), BitSequence(bits=0, length=4, origin="external"), 6)
        assert out.bits == 0

    def test_needs_enough_seed(self):
        with pytest.raises(DomainError):
            synthesize_sequence(
                Gf2Poly.from_terms([5, 0]),
                BitSequence(bits=1, length=3, origin="external"),
                10,
            )

    def test_rejects_even_constant_term(self):
        with pytest.raises(DomainError):
            synthesize_sequence(
                Gf2Poly.from_terms([3, 1]),
                BitSequence(bits=0, length=3, origin="external"),
                5,
            )


class TestPrediction:
    def test_3_7(self, pair37):
        predicted = predicted_minimal_polynomial(pair37)
        assert predicted == cyclotomic_f2(147) * cyclotomic_f2(21)
        assert predicted.degree == 96

    def test_3_13(self, pair313):
        predicted = predicted_minimal_polynomial(pair313)
        assert predicted == cyclotomic_f2(507)
        assert predicted.degree == 312

    def test_5_11(self, pair511):
        predicted = predicted_minimal_polynomial(pair511)
        assert predicted == cyclotomic_f2(605) * cyclotomic_f2(55)
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
        assert minpoly.degree == minimal_polynomial_gcd(seq).degree

    def test_disagreement_raises(self, monkeypatch, pair37):
        # only a bug can make the two routes differ; BM is made to undercount
        real = lincomp.berlekamp_massey
        monkeypatch.setattr(lincomp, "berlekamp_massey",
                            lambda bits, **kw: (real(bits, **kw)[0] - 1, Gf2Poly.one()))
        message = r"^LC disagreement for \(3, 7\) in block d=1: gcd=0, bm=-1$"
        with pytest.raises(InternalConsistencyError, match=message):
            analyze_period(generate_threshold(pair37))
        with pytest.raises(InternalConsistencyError, match=message):
            verify_theorem(pair37)


class TestBudgetGuards:
    def test_gcd_checks_sequence_length(self, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        assert minimal_polynomial_gcd(BitSequence(bits=1, length=100, origin="external")).degree == 100
        with pytest.raises(ResourceError, match="sequence length 101 exceeds budget 100"):
            minimal_polynomial_gcd(BitSequence(bits=1, length=101, origin="external"))

    def test_bm_checks_implied_period(self, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        period = BitSequence(bits=1, length=100, origin="external")
        assert berlekamp_massey(period.two_periods())[0] == 100
        assert berlekamp_massey([0] * 198 + [1])[0] == 199
        with pytest.raises(ResourceError, match="period 101 exceeds budget 100"):
            berlekamp_massey([0] * 201)
        with pytest.raises(ResourceError, match="period 101 exceeds budget 100"):
            berlekamp_massey(BitSequence(bits=1, length=101, origin="external").two_periods())
