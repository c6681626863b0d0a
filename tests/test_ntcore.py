import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st
from sympy import divisors as sympy_divisors, factorint, isprime
from sympy.ntheory import is_primitive_root, n_order

from eqseq import (
    DomainError,
    PrimePair,
    crt_lift,
    factorize,
    find_common_primitive_root,
    is_prime,
    multiplicative_order,
    wieferich_ok,
)
from eqseq.errors import InternalConsistencyError
from eqseq.ntcore import certified_order, divisors, euler_phi

from golden import SWEEP_PAIRS


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestIsPrime:
    def test_small_examples(self):
        assert is_prime(7)
        assert not is_prime(1)
        assert not is_prime(91)  # 7 * 13

    def test_matches_trial_division(self):
        for n in range(1, 3000):
            assert is_prime(n) == _trial_division_prime(n), n

    def test_larger_values(self):
        assert is_prime(1093)
        assert is_prime(3511)
        assert not is_prime(1093 * 3511)


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == []
        assert factorize(42) == [2, 3, 7]
        assert factorize(294) == [2, 3, 7, 7]

    def test_reconstructs_and_factors_prime(self):
        for n in range(1, 2000):
            factors = factorize(n)
            assert math.prod(factors) == n
            assert all(is_prime(f) for f in factors)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            factorize(0)


class TestPowWideMod:
    # the package takes wide modular powers (Euler quotients mod (pq)^2, the
    # Wieferich test mod q^2) with the built-in three-argument pow
    def test_examples(self):
        assert pow(2, 6, 49) == 15
        assert pow(5, 0, 441) == 1
        assert pow(2, 12, 169) == 40
        assert wieferich_ok(7) and not wieferich_ok(1093)

    @given(st.integers(0, 10**6), st.integers(0, 64), st.integers(2, 10**6))
    def test_matches_repeated_multiplication(self, base, exp, mod):
        expected = 1
        for _ in range(exp):
            expected = expected * base % mod
        assert pow(base, exp, mod) == expected

    def test_euler_theorem(self):
        rng = random.Random(7)
        for n in (21, 49, 441):
            phi = euler_phi(n)
            for _ in range(25):
                a = rng.randrange(1, n)
                if math.gcd(a, n) == 1:
                    assert pow(a, phi, n) == 1


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(1, 49) == 1
        assert multiplicative_order(2, 49) == 21
        assert multiplicative_order(5, 49) == 42

    def test_matches_exhaustive_powers(self):
        for n in (9, 25, 49, 21, 39):
            for a in range(1, n):
                if math.gcd(a, n) != 1:
                    continue
                x, k = a % n, 1
                while x != 1:
                    x = x * a % n
                    k += 1
                assert multiplicative_order(a, n) == k

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            multiplicative_order(7, 49)


class TestCertifiedOrder:
    def test_passes_the_order_through(self):
        for n in (3, 7, 49, 63, 147, 4095):
            k = n_order(2, n)
            assert certified_order(2, k, n) == multiplicative_order(2, n) == k

    @pytest.mark.parametrize("n", [3, 7, 49, 63, 147])
    def test_refuses_a_multiple_or_a_divisor(self, n):
        # a proper multiple passes a^k = 1 but not the prime-divisor test; a
        # proper divisor fails a^k = 1
        k = n_order(2, n)
        for wrong in {2 * k, 3 * k, *(k // l for l in factorint(k))} - {k}:
            with pytest.raises(InternalConsistencyError,
                               match=rf"^ord_{n}\(2\) = {wrong} fails its certificate$"):
                certified_order(2, wrong, n)


class TestCommonPrimitiveRoot:
    def test_examples(self):
        assert find_common_primitive_root(PrimePair.create(3, 7)) == 5
        assert find_common_primitive_root(PrimePair.create(3, 13)) == 2
        assert find_common_primitive_root(PrimePair.create(5, 11)) == 2

    def test_orders_for_sweep_pairs(self):
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            g = find_common_primitive_root(pair)
            assert multiplicative_order(g, p) == p - 1
            assert multiplicative_order(g, q * q) == q * (q - 1)


class TestSympyOracles:
    """Outside oracles: sympy's own number theory, written apart from ours."""

    def test_order_matches_n_order(self):
        rng = random.Random(11)
        for m in range(3, 5000, 2):
            assert multiplicative_order(2, m) == n_order(2, m), m
            a = rng.randrange(1, m)
            if math.gcd(a, m) == 1:
                assert multiplicative_order(a, m) == n_order(a, m), (a, m)

    def test_is_prime_matches_isprime(self):
        rng = random.Random(12)
        # strong pseudoprimes to the bases 2-7 and 2-23, and random 64-bit values
        special = [3215031751, 3825123056546413051, 2**61 - 1, 2**64 - 59]
        for n in [*range(-2, 20000), *special, *(rng.getrandbits(64) for _ in range(500))]:
            assert is_prime(n) == isprime(n), n

    def test_factorize_matches_factorint(self):
        rng = random.Random(13)
        pair_values = [v for p, q in SWEEP_PAIRS for v in (p * q * q, (p - 1) * q * (q - 1))]
        for n in [*range(1, 5000), *pair_values, *(rng.randrange(1, 10**9) for _ in range(200))]:
            assert factorize(n) == [f for f, e in sorted(factorint(n).items()) for _ in range(e)], n

    def test_divisors_match_sympy(self):
        # the sweep periods and the lengths of perfbench's analyze files
        lengths = [p * q * q for p, q in SWEEP_PAIRS] + [60029, 61425, 20000, 160000]
        for n in [*range(1, 3001), *lengths]:
            assert divisors(n) == sympy_divisors(n), n

    def test_common_root_is_the_least_primitive_mod_p_and_q2(self):
        for p, q in SWEEP_PAIRS:
            g = find_common_primitive_root(PrimePair.create(p, q))
            both = [c for c in range(2, g + 1) if c % p and c % q
                    and is_primitive_root(c, p) and is_primitive_root(c, q * q)]
            assert both[:1] == [g], (p, q)


class TestCrtLift:
    def test_examples(self):
        assert crt_lift([(2, 3), (1, 49)]) == 50
        assert crt_lift([(0, 3), (0, 49)]) == 0
        assert crt_lift([(1, 3), (1, 49)]) == 1

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            crt_lift([(0, 6), (1, 21)])

    @given(st.data())
    def test_roundtrip(self, data):
        pool = [3, 4, 5, 7, 11, 13, 17, 19, 23]
        moduli = data.draw(st.lists(st.sampled_from(pool), unique=True, min_size=1))
        residues = [(data.draw(st.integers(0, m - 1)), m) for m in moduli]
        x = crt_lift(residues)
        assert 0 <= x < math.prod(moduli)
        for r, m in residues:
            assert x % m == r


class TestPrimePair:
    def test_derived_constants(self, pair37):
        assert (pair37.phi_pq, pair37.period) == (12, 147)
        p1, q1 = pair37.p - 1, pair37.q - 1
        assert (math.gcd(p1, q1), math.lcm(p1, q1)) == (2, 6)
        assert math.gcd(p1, q1) * math.lcm(p1, q1) == pair37.phi_pq
        assert pair37.divides

    def test_fields(self):
        # gcd(p-1, q-1) and lcm(p-1, q-1) are computed where they are read
        assert [f.name for f in dataclasses.fields(PrimePair)] == ["p", "q", "phi_pq", "period"]

    def test_rejects_bad_pairs(self):
        with pytest.raises(DomainError):
            PrimePair.create(3, 9)
        with pytest.raises(DomainError):
            PrimePair.create(2, 7)
        with pytest.raises(DomainError):
            PrimePair.create(7, 7)

    def test_non_dividing_pair_is_flagged(self):
        pair = PrimePair.create(5, 7)
        assert not pair.divides
        with pytest.raises(DomainError):
            pair.require_divides()


class TestUnitGroupFactorization:
    def test_powers_of_g_and_h_cover_units(self):
        # every unit factors uniquely as g^i h^j; checked exhaustively
        from eqseq import derive_generators

        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            gens = derive_generators(pair)
            n = pair.period
            seen = set()
            x = 1
            d = math.gcd(p - 1, q - 1)
            for _ in range(q * math.lcm(p - 1, q - 1)):
                y = x
                for _ in range(d):
                    seen.add(y)
                    y = y * gens.h % n
                x = x * gens.g % n
            assert len(seen) == (p - 1) * (q - 1) * q
            units = {t for t in range(n) if math.gcd(t, n) == 1}
            assert seen == units
