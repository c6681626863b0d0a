import pytest
from hypothesis import given, strategies as st

from eqseq import (
    BitSequence,
    DomainError,
    Gf2Poly,
    ResourceError,
    UnsupportedInputError,
    compose_power,
    cyclotomic_f2,
    gcd,
    generating_polynomial,
)
from eqseq.ntcore import euler_phi

polys = st.builds(Gf2Poly, st.integers(min_value=0, max_value=(1 << 256) - 1))
big_polys = st.builds(Gf2Poly, st.integers(min_value=0, max_value=(1 << 4096) - 1))


def P(*degrees: int) -> Gf2Poly:
    return Gf2Poly.from_terms(degrees)


class TestBasics:
    def test_degree_sentinel(self):
        assert Gf2Poly(0).degree == -1
        assert Gf2Poly(0).degree < 0
        assert Gf2Poly.one().degree == 0
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
        assert Gf2Poly.from_coeffs([1, 0, 1]) == P(2, 0)
        with pytest.raises(DomainError):
            Gf2Poly.from_coeffs([2])


class TestAdd:
    def test_examples(self):
        assert P(2, 0) + P(2, 1) == P(1, 0)
        f = P(5, 3, 0)
        assert f + f == Gf2Poly(0)
        assert f + Gf2Poly(0) == f

    @given(polys, polys)
    def test_commutes(self, f, g):
        assert f + g == g + f


class TestMul:
    def test_examples(self):
        assert P(1, 0) * P(1, 0) == P(2, 0)
        assert P(2, 1, 0) * P(1, 0) == P(3, 0)

    def test_cyclotomic_product_x21(self):
        product = cyclotomic_f2(3) * cyclotomic_f2(7) * cyclotomic_f2(21) * P(1, 0)
        assert product == P(21, 0)

    @given(polys, polys, polys)
    def test_distributes(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(big_polys, big_polys)
    def test_degree_adds(self, f, g):
        if not f.is_zero and not g.is_zero:
            assert (f * g).degree == f.degree + g.degree


class TestDivRem:
    def test_examples(self):
        assert divmod(P(3, 0), P(1, 0)) == (P(2, 1, 0), Gf2Poly(0))
        # long division by hand: x^4+x = (x^2+1)(x^2+1) + (x+1)
        q, r = divmod(P(4, 1), P(2, 0))
        assert (q, r) == (P(2, 0), P(1, 0))
        assert r.degree < P(2, 0).degree
        assert q * P(2, 0) + r == P(4, 1)
        f = P(7, 3, 1)
        assert divmod(f, f) == (Gf2Poly.one(), Gf2Poly(0))

    def test_rejects_zero_divisor(self):
        with pytest.raises(DomainError):
            divmod(P(3), Gf2Poly(0))
        with pytest.raises(DomainError):
            P(3) % Gf2Poly(0)

    @given(big_polys, big_polys)
    def test_reconstruction(self, f, g):
        if g.is_zero:
            return
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


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
        if f.is_zero and g.is_zero:
            return
        d = gcd(f, g)
        assert (f % d).is_zero or f.is_zero
        assert (g % d).is_zero or g.is_zero


class TestComposePower:
    def test_examples(self):
        assert compose_power(P(1, 0), 3) == P(3, 0)
        assert compose_power(cyclotomic_f2(21), 7) == cyclotomic_f2(147)
        f = P(6, 2, 0)
        assert compose_power(f, 1) == f

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        with pytest.raises(ResourceError):
            compose_power(P(60), 10)


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
            product = Gf2Poly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic_f2(d)
            assert product == P(n, 0)


class TestGeneratingPolynomial:
    def test_examples(self):
        zeros = BitSequence(bits=0, length=5, origin="external")
        assert generating_polynomial(zeros) == Gf2Poly(0)
        seq = BitSequence(bits=0b101, length=3, origin="external")
        assert generating_polynomial(seq) == P(2, 0)


class TestRender:
    @pytest.mark.parametrize(
        "poly,expected",
        [
            (Gf2Poly(0), "0"),
            (Gf2Poly.one(), "1"),
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
