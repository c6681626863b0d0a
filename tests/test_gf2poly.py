"""The packed-int kernels, the one polynomial layer, and `Gf2Poly`, the report type."""

import functools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from eqseq import (
    BitSequence,
    DomainError,
    Gf2Poly,
    InternalConsistencyError,
    ResourceError,
    UnsupportedInputError,
    cyclotomic_f2,
    gcd,
    gf2poly,
)
from eqseq.gf2poly import _int_compose, _int_divmod, _int_mod, _int_mul
from eqseq.ntcore import euler_phi

import oracles

polys = st.integers(min_value=0, max_value=(1 << 256) - 1)
big_polys = st.integers(min_value=0, max_value=(1 << 4096) - 1)


def P(*degrees: int) -> Gf2Poly:
    return oracles.from_terms(degrees)


def B(*degrees: int) -> int:
    return P(*degrees).bits


class TestBasics:
    def test_degree_sentinel(self):
        assert Gf2Poly(0).degree == -1
        assert Gf2Poly(0).degree < 0
        assert Gf2Poly(1).degree == 0
        assert P(3, 1).degree == 3

    @given(st.integers(min_value=0))
    def test_degree_is_int_bit_length(self, b):
        degree = Gf2Poly(b).degree
        assert type(degree) is int
        assert degree == b.bit_length() - 1

    def test_canonical_equality(self):
        assert P(2, 0) == Gf2Poly(0b101)
        assert P(2, 0) != P(2, 1)

    def test_from_coeffs(self):
        # the coefficients [1, 0, 1], ascending, are the bits 0b101
        assert oracles.from_coeffs([1, 0, 1]) == Gf2Poly(0b101)
        with pytest.raises(DomainError):
            Gf2Poly(-1)


class TestAdd:
    def test_examples(self):
        # addition is XOR of the packed bits
        assert B(2, 0) ^ B(2, 1) == B(1, 0)
        f = B(5, 3, 0)
        assert f ^ f == 0
        assert f ^ 0 == f

    @given(polys, polys, polys)
    def test_commutes(self, f, g, m):
        # reduction commutes with addition, which the fold and the descent rely on
        m |= 1
        assert _int_mod(f ^ g, m) == _int_mod(f, m) ^ _int_mod(g, m)


class TestMul:
    def test_examples(self):
        assert _int_mul(B(1, 0), B(1, 0)) == B(2, 0)
        assert _int_mul(B(2, 1, 0), B(1, 0)) == B(3, 0)
        assert _int_mul(B(4, 1), 0) == _int_mul(0, B(4, 1)) == 0

    def test_cyclotomic_product_x21(self):
        factors = [cyclotomic_f2(3).bits, cyclotomic_f2(7).bits, cyclotomic_f2(21).bits, B(1, 0)]
        assert functools.reduce(_int_mul, factors) == B(21, 0)

    @given(polys, polys, polys)
    def test_distributes(self, f, g, h):
        assert _int_mul(f, g ^ h) == _int_mul(f, g) ^ _int_mul(f, h)
        assert _int_mul(f, g) == _int_mul(g, f)

    @given(big_polys, big_polys)
    def test_degree_adds(self, f, g):
        if f and g:
            assert _int_mul(f, g).bit_length() == f.bit_length() + g.bit_length() - 1


class TestDivRem:
    def test_examples(self):
        assert _int_divmod(B(3, 0), B(1, 0)) == (B(2, 1, 0), 0)
        # long division by hand: x^4+x = (x^2+1)(x^2+1) + (x+1)
        q, r = _int_divmod(B(4, 1), B(2, 0))
        assert (q, r) == (B(2, 0), B(1, 0))
        assert _int_mod(B(4, 1), B(2, 0)) == r
        assert _int_mul(q, B(2, 0)) ^ r == B(4, 1)
        f = B(7, 3, 1)
        assert _int_divmod(f, f) == (1, 0)

    @given(big_polys, big_polys)
    def test_reconstruction(self, f, g):
        if not g:
            return
        q, r = _int_divmod(f, g)
        assert _int_mul(q, g) ^ r == f
        assert r.bit_length() < g.bit_length()
        assert _int_mod(f, g) == r


class TestGcd:
    def test_examples(self):
        assert gcd(P(2, 0), P(1, 0)) == P(1, 0)  # x^2+1 = (x+1)^2
        f = P(9, 4, 0)
        assert gcd(f, Gf2Poly(0)) == f

    def test_rejects_both_zero(self):
        with pytest.raises(DomainError):
            gcd(Gf2Poly(0), Gf2Poly(0))

    @given(polys, polys)
    def test_divides_both(self, f, g):
        if not (f or g):
            return
        d = gcd(Gf2Poly(f), Gf2Poly(g)).bits
        assert _int_mod(f, d) == 0
        assert _int_mod(g, d) == 0


class TestComposePower:
    def test_examples(self):
        assert _int_compose(B(1, 0), 3) == B(3, 0)
        assert _int_compose(cyclotomic_f2(21).bits, 7) == cyclotomic_f2(147).bits
        f = B(6, 2, 0)
        assert _int_compose(f, 1) == f

    def test_identity_returns_its_input(self):
        # f(x^1) is f: no digit string is spread for it
        f = (1 << 60029) - 1
        assert _int_compose(f, 1) is f


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic_f2(1) == P(1, 0)
        assert cyclotomic_f2(7) == P(6, 5, 4, 3, 2, 1, 0)
        assert cyclotomic_f2(21) == P(12, 11, 9, 8, 6, 4, 3, 1, 0)

    def test_rejects_even(self):
        with pytest.raises(UnsupportedInputError):
            cyclotomic_f2(6)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            cyclotomic_f2(0)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        with pytest.raises(ResourceError):
            cyclotomic_f2(147)

    def test_degree_is_totient(self):
        for n in range(1, 302, 2):
            assert cyclotomic_f2(n).degree == euler_phi(n)

    def test_product_identity(self):
        for n in range(1, 302, 2):
            product = 1
            for d in range(1, n + 1):
                if n % d == 0:
                    product = _int_mul(product, cyclotomic_f2(d).bits)
            assert product == B(n, 0)

    def test_faulty_division_is_refused(self, monkeypatch):
        # Phi_21 = Phi_3(x^7) H_3 / (x^3 + 1); a quotient one bit off breaks Phi_21 H_21
        real = gf2poly._int_div_binomial
        monkeypatch.setattr(gf2poly, "_int_div_binomial", lambda f, m: real(f, m) ^ 0b10)
        with pytest.raises(InternalConsistencyError, match=r"^cyclotomic cofactor for n=21 is wrong$"):
            gf2poly._cyclotomic_pair.__wrapped__(21)


class TestGeneratingPolynomial:
    def test_examples(self):
        # one period is its own generating polynomial: bit t is the coefficient of x^t
        zeros = BitSequence(bits=0, length=5, origin="external")
        assert Gf2Poly(zeros.bits) == Gf2Poly(0)
        seq = BitSequence(bits=0b101, length=3, origin="external")
        assert Gf2Poly(seq.bits) == P(2, 0)


class TestRender:
    @pytest.mark.parametrize(
        "poly,expected",
        [
            (Gf2Poly(0), "0"),
            (Gf2Poly(1), "1"),
            (P(1), "x"),
            (P(2), "x^2"),
            (P(3, 1, 0), "x^3 + x + 1"),
        ],
    )
    def test_forms(self, poly, expected):
        assert poly.render() == expected
        assert str(poly) == expected

    def test_cyclotomic_21(self):
        assert cyclotomic_f2(21).render() == (
            "x^12 + x^11 + x^9 + x^8 + x^6 + x^4 + x^3 + x + 1"
        )

    def test_terms_at_chunk_edges(self):
        # terms of degree 2 and up are joined gf2poly._CHUNK digits at a
        # time; a chunk may hold no term, and x and 1 come after the last
        chunk = gf2poly._CHUNK
        for degrees in ([chunk + 1], [chunk + 1, chunk + 2, 1], [2 * chunk + 2, chunk + 1, 2, 0],
                        [3 * chunk + 5, 3], [chunk, chunk + 1, chunk + 2, 1, 0]):
            bits = sum(1 << d for d in degrees)
            assert Gf2Poly(bits).render() == oracles.render(bits), degrees

    def test_memory_is_bounded_by_the_text(self):
        # no list holds every term: the traced peak stays under three times
        # the text (the chunk texts, their join and one chunk's terms), where
        # a list of all terms costs about ten times
        bits = random.Random(7).getrandbits(60_000) | 1 << 59_999
        tracemalloc.start()
        try:
            text = Gf2Poly(bits).render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == oracles.render(bits)
        assert peak < 3 * len(text)
