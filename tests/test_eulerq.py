import dataclasses
import math
import random

import numpy as np
import pytest

from eqseq import (
    DomainError,
    InternalConsistencyError,
    PrimePair,
    ResourceError,
    build_partition,
    coset_index,
    derive_generators,
    euler_quotient,
    eulerq,
    generate_threshold,
    limits,
)
from eqseq.sequence import pack_flags

import oracles
from golden import SWEEP_PAIRS


def lifted(pair):
    """The blocks of eulerq._psi_rows(pair) put together, each checked to
    start where the last ended and to hold per_block(pq) rows but the last."""
    height, q = limits.per_block(pair.p * pair.q), pair.q
    blocks = [(k0, rows.copy()) for k0, rows in eulerq._psi_rows(pair)]
    assert [k0 for k0, _ in blocks] == list(range(0, q, height))
    assert [len(rows) for _, rows in blocks] == [min(height, q - k0) for k0, _ in blocks]
    return np.concatenate([rows for _, rows in blocks])


def lifted_table(pair):
    """psi(t) for every t in [0, pq^2) as the package lifts it: the rows of
    _psi_rows(pair), asserted int32, as N - q < 2^31 at every pair the tests
    lift whole."""
    values = lifted(pair)
    assert values.dtype == np.int32
    return values.ravel()


class TestEulerQuotient:
    def test_examples(self, pair37):
        assert euler_quotient(1, pair37) == 0
        assert euler_quotient(22, pair37) == 12  # 22 = 1 + pq, shift adds (p-1)(q-1)
        assert euler_quotient(2, pair37) == 6
        assert euler_quotient(5, pair37) == 18

    def test_non_units_are_zero(self, pair37):
        for t in (0, 3, 7, 21, 42, 49):
            assert euler_quotient(t, pair37) == 0

    def test_rejects_negative(self, pair37):
        with pytest.raises(DomainError):
            euler_quotient(-1, pair37)

    def test_homomorphism_exhaustive(self, pair37):
        n, pq = pair37.period, 21
        table = oracles.build_table(pair37)
        units = [t for t in range(n) if math.gcd(t, pq) == 1]
        for u in units:
            for v in units:
                assert table[u * v % n] == (table[u] + table[v]) % pq

    def test_homomorphism_sampled(self, pair313):
        rng = random.Random(11)
        n, pq = pair313.period, 39
        table = oracles.build_table(pair313)
        units = [t for t in range(n) if math.gcd(t, pq) == 1]
        for _ in range(2000):
            u, v = rng.choice(units), rng.choice(units)
            assert table[u * v % n] == (table[u] + table[v]) % pq

    def test_image_is_multiples_of_p(self, pair37, pair313):
        for pair in (pair37, pair313):
            pq = pair.p * pair.q
            table = oracles.build_table(pair)
            image = {
                v for t, v in enumerate(table) if math.gcd(t, pq) == 1
            }
            assert image == {pair.p * ell for ell in range(pair.q)}

    def test_kernel_size(self, pair37):
        kernel = [
            t for t in range(pair37.period)
            if math.gcd(t, 21) == 1 and coset_index(t, pair37) == 0
        ]
        assert len(kernel) == pair37.phi_pq

    def test_shift_identity(self, pair37, pair313):
        # psi(t + k*pq) = psi(t) + k * t^-1 * (p-1)(q-1), for units t
        for pair in (pair37, pair313):
            n, pq, phi = pair.period, pair.p * pair.q, pair.phi_pq
            table = oracles.build_table(pair)
            for t in range(n):
                if math.gcd(t, pq) != 1:
                    continue
                inv = pow(t, -1, pq)
                for k in range(pair.q):
                    expected = (table[t] + k * inv * phi) % pq
                    assert table[(t + k * pq) % n] == expected

    def test_periodicity(self, pair37):
        for t in range(0, 400, 7):
            assert euler_quotient(t + pair37.period, pair37) == euler_quotient(t, pair37)


class TestCosetIndex:
    def test_examples(self, pair37):
        assert coset_index(7, pair37) is None
        assert coset_index(2, pair37) == 2
        assert coset_index(1, pair37) == 0

    def test_requires_divisibility(self):
        with pytest.raises(DomainError):
            coset_index(2, PrimePair.create(5, 7))


class TestFindGhat:
    def test_example_3_7(self, pair37):
        gens = derive_generators(pair37)
        assert gens.g == 5
        assert gens.h == 50
        assert gens.ghat == 43
        assert euler_quotient(43, pair37) == 3

    def test_quotient_of_ghat_is_p(self, pair37, pair313, pair511):
        for pair in (pair37, pair313, pair511):
            gens = derive_generators(pair)
            assert euler_quotient(gens.ghat, pair) == pair.p

    def test_example_3_13(self, pair313):
        gens = derive_generators(pair313)
        assert gens.ghat == 256  # psi(2) = 15 = 3*5, 5^-1 = 8 mod 13, 2^8 = 256
        assert euler_quotient(256, pair313) == 3

    @pytest.mark.parametrize("fault,message", [
        (lambda t, v: v + 1 if t == 5 else v, r"^psi\(5\) = \d+ is not divisible by p=3$"),
        (lambda t, v: 0 if t == 5 else v, r"^psi\(g\)/p vanishes mod q for a primitive root g$"),
        (lambda t, v: 6 if t == 43 else v, r"^constructed ghat does not satisfy psi\(ghat\) == p$"),
    ], ids=["psi_g_not_divisible", "g_in_kernel", "ghat_off"])
    def test_faulty_quotient_is_refused(self, pair37, monkeypatch, fault, message):
        # a wrong psi at g = 5 or at ghat = 43, read through coset_index
        real = eulerq.euler_quotient
        monkeypatch.setattr(eulerq, "euler_quotient", lambda t, pair: fault(t, real(t, pair)))
        with pytest.raises(InternalConsistencyError, match=message):
            derive_generators(pair37)

    def test_budget(self, pair37, monkeypatch):
        # checked before the primitive root, whose search factors q^2
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        with pytest.raises(ResourceError, match="period 147 exceeds budget 100"):
            derive_generators(pair37)


class TestBuildTable:
    """psi over one period: the per-t oracle's entries, and the rows of the
    lift against it."""

    def test_counts(self, pair37):
        table = oracles.build_table(pair37)
        units = sum(1 for t in range(147) if math.gcd(t, 21) == 1)
        assert units == 84
        forced_zero = sum(
            1 for t in range(147) if math.gcd(t, 21) != 1
        )
        assert forced_zero == 63
        assert all(
            table[t] == 0 for t in range(147) if math.gcd(t, 21) != 1
        )

    def test_entries(self, pair37):
        table = oracles.build_table(pair37)
        assert table[22] == 12
        assert table[21] == 0

    def test_values_divisible_by_p(self, pair37):
        table = oracles.build_table(pair37)
        assert all(v % 3 == 0 for v in table)

    @pytest.mark.parametrize("p,q", SWEEP_PAIRS + [(7, 3), (5, 7), (3, 5), (3, 313), (101, 3), (997, 5)])
    def test_matches_one_power_per_position(self, p, q):
        # the sweep pairs, pairs outside p | q-1 (the last two with pq large
        # against N) and a larger one; N - q < 2^31 at each, so int32
        pair = PrimePair.create(p, q)
        assert lifted_table(pair).tolist() == oracles.build_table(pair)

    @pytest.mark.parametrize("p,q", [(65537, 3), (3, 65539)])
    def test_residue_step_past_int64_squares(self, p, q):
        # a product of two residues mod (pq)^2 reaches (pq)^4, past 2^63, so
        # the powers must be Python ints, not int64; the N-length table is
        # never built
        pair = PrimePair.create(p, q)
        pq = pair.p * pair.q
        psi, step = eulerq._residue_quotients(pair)
        for r in range(0, pq, 7):
            unit = math.gcd(r, pq) == 1
            assert psi[r] == euler_quotient(r, pair), r
            assert step[r] == (pair.phi_pq * pow(r, -1, pq) % pq if unit else 0), r

    @pytest.mark.parametrize("q,past,dtype", [
        pytest.param(26737, -2_908_878, np.int32, id="3-26737-int32"),
        pytest.param(26759, 621_836, np.int64, id="3-26759-int64"),
    ])
    def test_lift_widens_past_int32(self, q, past, dtype):
        # k*step + psi reaches q*(pq - 1) = N - q, here 2^31 + past, and past
        # 2^31 int32 would wrap; only the first block is lifted, its one row
        # psi(r) itself (pq is more than a block)
        pair = PrimePair.create(3, q)
        assert pair.period - q - 2**31 == past
        k0, rows = next(eulerq._psi_rows(pair))
        assert (k0, rows.shape, rows.dtype) == (0, (1, 3 * q), dtype)
        for r in range(0, 3 * q, 997):
            assert rows[0, r] == euler_quotient(r, pair), r

    def test_wrong_phi_is_caught(self, pair37):
        # t^phi' - 1 with phi' = phi + 1 is t - 1 mod pq: 1 passes, 2 does not;
        # both consumers read the one lift, _psi_rows
        wrong = dataclasses.replace(pair37, phi_pq=pair37.phi_pq + 1)
        for build in (build_partition, generate_threshold):
            with pytest.raises(InternalConsistencyError,
                               match=r"t\^phi - 1 not divisible by pq for unit t=2$"):
                build(wrong)


class TestPsiRows:
    """_psi_rows yields the lift a block of limits.per_block(pq) rows at a
    time, in one buffer.  With blocks of one row, of seven rows and the
    default, on the sweep pairs and on two pairs outside p | q-1 (the second
    with a last block shorter than the rest), the blocks put together are
    the whole-array formula (psi + k*step) mod pq, and the threshold and the
    coset index read off them are that formula's."""

    @pytest.mark.parametrize("rows_per_block", [1, 7, None], ids=["1", "7", "default"])
    def test_blocks_match_the_whole_array(self, monkeypatch, rows_per_block):
        for p, q in SWEEP_PAIRS + [(5, 7), (7, 13)]:
            pair = PrimePair.create(p, q)
            pq = p * q
            if rows_per_block:
                monkeypatch.setattr(limits, "BLOCK", rows_per_block * pq)
            psi, step = eulerq._residue_quotients(pair)
            whole = (psi + np.arange(q, dtype=np.int64)[:, None] * step) % pq
            assert np.array_equal(lifted(pair), whole), (p, q)
            flags = whole.ravel() >= (pq + 1) // 2
            assert generate_threshold(pair).bits == pack_flags(flags), (p, q)
            if pair.divides:
                want = np.where(np.gcd(np.arange(pq), pq) == 1, whole // p, -1)
                assert np.array_equal(build_partition(pair), want.ravel()), (p, q)
