import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from eqseq import (
    DomainError,
    PrimePair,
    ResourceError,
    audit_structure,
    build_partition,
    coset_index,
    cyclotomic_f2,
    derive_generators,
    euler_quotient,
    generate_threshold,
    lemma_failures,
    two_coset_index,
)
from eqseq import cli, eulerq, limits
from eqseq.cli import EXIT_USAGE
from eqseq.gf2poly import _int_mod

from test_audit_differential import corrupt


def _coset_poly(coset) -> int:
    bits = 0
    for u in coset:
        bits |= 1 << u
    return bits


def _coset(index, ell: int) -> set[int]:
    """D_ell read straight off the coset index (ell = -1 gives the non-units)."""
    return set(np.flatnonzero(index == ell).tolist())


def _failures(pair, partition, *lemmas) -> list[str]:
    """The failure messages of the named lemmas from one lemma_failures run."""
    failures = lemma_failures(pair, partition)
    return [msg for lemma in lemmas for msg in failures[lemma]]


class TestBuildPartition:
    def test_shape_3_7(self, pair37):
        index = build_partition(pair37)
        sizes = np.bincount(index + 1, minlength=8)[1:]
        assert len(sizes) == 7
        assert all(len(_coset(index, ell)) == 12 for ell in range(7))
        assert sizes.tolist() == [12] * 7
        assert len(_coset(index, -1)) == 63
        assert index.dtype == np.int16 and len(index) == 147

    def test_membership(self, pair37):
        index = build_partition(pair37)
        assert 1 in _coset(index, 0)
        assert 2 in _coset(index, 2)
        assert index[1] == 0 and index[2] == 2

    def test_disjoint_union(self, pair37):
        index = build_partition(pair37)
        total = _coset(index, -1)
        for ell in range(7):
            coset = _coset(index, ell)
            assert not (total & coset)
            total |= coset
        assert total == set(range(147))
        # the bincount of the sizes counts the same sets
        for ell, size in enumerate(np.bincount(index + 1, minlength=8)[1:].tolist()):
            assert size == len(_coset(index, ell))

    def test_requires_divisibility(self):
        with pytest.raises(DomainError):
            build_partition(PrimePair.create(5, 7))


class TestKernelImage:
    def test_3_7(self, pair37):
        partition = build_partition(pair37)
        assert _failures(pair37, partition, "lemma2") == []

    def test_named_kernel_elements(self, pair37):
        gens = derive_generators(pair37)
        assert euler_quotient(pow(gens.g, 7, 147), pair37) == 0
        assert euler_quotient(gens.h, pair37) == 0
        assert gens.h == 50

    def test_kernel_cardinality(self, pair37):
        partition = build_partition(pair37)
        assert len(_coset(partition, 0)) == 12


class TestTranslation:
    def test_3_7(self, pair37):
        partition = build_partition(pair37)
        assert _failures(pair37, partition, "lemma3", "lemma4") == []

    def test_specific_translation(self, pair37):
        # 2 lies in D_2, so 2 * D_3 = D_5
        partition = build_partition(pair37)
        image = {2 * v % 147 for v in _coset(partition, 3)}
        assert image == _coset(partition, 5)

    def test_identity_translation(self, pair37):
        partition = build_partition(pair37)
        for i in range(7):
            assert {1 * v % 147 for v in _coset(partition, i)} == _coset(partition, i)

    def test_ghat_shifts_kernel(self, pair37):
        partition = build_partition(pair37)
        gens = derive_generators(pair37)
        assert gens.ghat == 43
        assert {43 * v % 147 for v in _coset(partition, 0)} == _coset(partition, 1)

    def test_above_ten_thousand(self):
        # (3, 61) has period 11163, above 10^4
        pair = PrimePair.create(3, 61)
        partition = build_partition(pair)
        assert _failures(pair, partition, "lemma2", "lemma3", "lemma4") == []


class TestResidueMultisets:
    def test_3_7(self, pair37):
        partition = build_partition(pair37)
        assert _failures(pair37, partition, "lemma5", "lemma6", "lemma7") == []

    def test_mod_p_multiset(self, pair37):
        partition = build_partition(pair37)
        counts = Counter(u % 3 for u in _coset(partition, 0))
        assert counts == {1: 6, 2: 6}

    def test_mod_pq_bijection(self, pair37):
        partition = build_partition(pair37)
        residues = sorted(u % 21 for u in _coset(partition, 0))
        assert residues == sorted(t for t in range(21) if math.gcd(t, 21) == 1)

    def test_mod_q2_multiset(self, pair37):
        partition = build_partition(pair37)
        counts = Counter(u % 49 for u in _coset(partition, 0))
        subgroup = {pow(pow(5, 7, 49), i, 49) for i in range(6)}
        assert set(counts) == subgroup
        assert all(v == 2 for v in counts.values())


class TestCongruences:
    def test_3_7(self, pair37):
        partition = build_partition(pair37)
        assert _failures(pair37, partition, "lemma8", "lemma9") == []

    def test_d0_mod_phi21(self, pair37):
        partition = build_partition(pair37)
        assert _int_mod(_coset_poly(_coset(partition, 0)), cyclotomic_f2(21).bits) == 1

    def test_d4_mod_phi49(self, pair37):
        partition = build_partition(pair37)
        assert _int_mod(_coset_poly(_coset(partition, 4)), cyclotomic_f2(49).bits) == 0

    def test_sum_mod_phi147(self, pair37):
        partition = build_partition(pair37)
        total = 0
        for ell in range(7):
            total ^= _coset_poly(_coset(partition, ell))
        assert _int_mod(total, cyclotomic_f2(147).bits) == 0
        # evaluation at 1 vanishes too: the unit count is even
        assert _int_mod(total, 0b11) == 0


class TestTwoCosetIndex:
    def test_examples(self, pair37, pair313, pair511):
        assert two_coset_index(pair37) == 2
        assert two_coset_index(pair313) == 5
        assert two_coset_index(pair511) == 3

    def test_nonzero_for_sweep(self):
        for p, q in [(3, 19), (7, 29), (11, 23)]:
            assert two_coset_index(PrimePair.create(p, q)) != 0

    def test_requires_divisibility(self):
        with pytest.raises(DomainError):
            two_coset_index(PrimePair.create(5, 7))

    def test_zero_for_wieferich_q(self, monkeypatch):
        # 2^1092 == 1 mod 1093^2 puts 2 in the kernel coset; N = 3583947 is
        # over the default budget, so sigma must come without lifting the period
        from eqseq import eulerq

        def no_lift(*args):
            raise AssertionError("two_coset_index lifted the period")

        monkeypatch.setattr(eulerq, "_residue_quotients", no_lift)
        monkeypatch.setattr(eulerq, "_psi_rows", no_lift)
        assert two_coset_index(PrimePair.create(3, 1093)) == 0


class TestFrobeniusAction:
    def test_doubling_shifts_cosets(self, pair37):
        # u -> 2u maps D_ell onto D_{ell+sigma}: 2 sits in D_sigma
        partition = build_partition(pair37)
        sigma = coset_index(2, pair37)
        for ell in range(7):
            doubled = {2 * u % 147 for u in _coset(partition, ell)}
            assert doubled == _coset(partition, (ell + sigma) % 7)


class TestUpperHalfPolynomial:
    def test_equals_generating_polynomial(self, pair37):
        # the sum of the upper-half coset polynomials is the generating
        # polynomial of the threshold sequence
        partition = build_partition(pair37)
        total = 0
        for ell in range(4, 7):
            total ^= _coset_poly(_coset(partition, ell))
        seq = generate_threshold(pair37)
        assert total == seq.bits


class TestAuditStructure:
    @pytest.mark.parametrize("p,q", [(3, 7), (3, 13), (5, 11)])
    def test_all_checks_pass(self, p, q):
        report = audit_structure(PrimePair.create(p, q))
        assert report.all_ok, report.details
        assert report.details == {}

    def test_every_qualifying_pair_in_range(self):
        # the checks hold for every pair the closed form covers, up to the
        # sweep bound, each decided exactly
        from eqseq import generate_threshold
        from golden import SWEEP_PAIRS

        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            partition = build_partition(pair)

            cosets = [_coset(partition, ell) for ell in range(q)]
            assert all(len(c) == pair.phi_pq for c in cosets), (p, q)
            assert len(_coset(partition, -1)) == pair.period - q * pair.phi_pq

            failures = lemma_failures(pair, partition)
            assert list(failures) == [f"lemma{i}" for i in range(2, 10)], (p, q)
            assert not any(failures.values()), (p, q, failures)

            # doubling the exponents advances every coset by sigma
            sigma = two_coset_index(pair)
            n = pair.period
            for ell in range(q):
                doubled = {2 * u % n for u in cosets[ell]}
                assert doubled == cosets[(ell + sigma) % q], (p, q, ell)

            # the upper-half coset polynomials sum to the generating polynomial
            total = 0
            for ell in range((q + 1) // 2, q):
                total ^= _coset_poly(cosets[ell])
            assert total == generate_threshold(pair).bits, (p, q)

    def test_json_keys(self, pair37):
        d = audit_structure(pair37).to_json_dict()
        assert list(d) == [
            "pair", "lemma2_ok", "lemma3_ok", "lemma4_ok", "lemma5_ok",
            "lemma6_ok", "lemma7_ok", "lemma8_ok", "lemma9_ok", "sigma",
            "details",
        ]
        assert d["sigma"] == 2

    def test_table_rendering(self, pair37):
        table = audit_structure(pair37).format_table()
        assert "lemma9" in table and "FAIL" not in table

    def test_report_is_hashable_and_equal_by_value(self, pair37, pair313):
        report = audit_structure(pair37)
        again = audit_structure(pair37)
        assert report == again and hash(report) == hash(again)
        assert report != audit_structure(pair313)
        assert {report: "3, 7"}[again] == "3, 7"
        assert [name for name, _ in report.failures] == [f"lemma{i}" for i in range(2, 10)]

    def test_requires_divisibility(self):
        with pytest.raises(DomainError):
            audit_structure(PrimePair.create(5, 7))


class TestMemory:
    @staticmethod
    def traced(p, q, kind=None):
        """lemma_failures on the index of (p, q), clean or corrupted in the
        given way, and its traced peak."""
        pair = PrimePair.create(p, q)
        index = build_partition(pair)
        if kind:
            index = corrupt(index, kind, q)
        tracemalloc.start()
        try:
            failures = lemma_failures(pair, index)
            return failures, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lemma_failures_streams_the_index(self):
        # on the clean index only the comparison runs, holding one block of
        # the claims and its cells; one int64 array of N = 98283 entries
        # alone is 0.75 MiB
        failures, peak = self.traced(3, 181)
        assert not any(failures.values())
        assert peak <= 0.7 * 2 ** 20, peak

    def test_lemma_failures_at_the_largest_pair_in_budget(self):
        # (3, 577), N = 998787, walks the most blocks of the claims: 145 of
        # 4 periods q
        failures, peak = self.traced(3, 577)
        assert not any(failures.values())
        assert peak <= 0.35 * 2 ** 20, peak

    @pytest.mark.parametrize("p,q,kind,bound", [(3, 577, "swap", 24), (3, 181, "one_coset", 64)])
    def test_fault_path_peak_per_position(self, p, q, kind, bound):
        # an index that fails the comparison runs the residue passes and the
        # walks on whole arrays.  On swap at (3, 577) they trace 20.5 bytes
        # per position (19.5 MiB), most of it the torus keys, bincount and
        # cells, 8 bytes per position each.  With every unit in D_0 nearly
        # every unit is off its claim, and the q^2 pass's stray keys and
        # their sort take most of 53.5 bytes per position at (3, 181); there
        # the ghat law maps D_0 by no ghat^ell, as no other coset has its
        # size, where phi(N)(q - 1) images would add 955.  The bounds leave
        # 17% and 20% headroom
        failures, peak = self.traced(p, q, kind)
        assert any(failures.values())
        assert peak <= bound * p * q * q, peak


class TestExactRange:
    """The audit multiplies two residues below N in int64, exact while
    N^2 < 2^63, that is N <= 3,037,000,499.  (3, 31849) is the first
    qualifying pair past that bound; with the budget raised to 10^10 it is
    refused before anything is lifted or allocated, with one error line."""

    PAST = "eqseq: error: period 3043076403 exceeds the audit's exact range 3037000499: " \
        "products of two residues below it overflow int64\n"

    @pytest.fixture(autouse=True)
    def nothing_lifted(self, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", str(10**10))

        def reached(*args):
            pytest.fail("the period was lifted past the exact range")

        monkeypatch.setattr(eulerq, "_residue_quotients", reached)
        monkeypatch.setattr(eulerq, "_psi_rows", reached)

    def test_the_bound(self):
        assert limits.EXACT_PERIOD ** 2 < 2 ** 63 <= (limits.EXACT_PERIOD + 1) ** 2
        # the last qualifying pair inside it has q < 2^15, so labels fit int16
        assert 3 * 31771 ** 2 <= limits.EXACT_PERIOD < 3 * 31849 ** 2
        assert 31771 < 2 ** 15

    def test_structure_refuses(self, capsys):
        tracemalloc.start()
        try:
            code = cli.main(["structure", "--p", "3", "--q", "31849"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (EXIT_USAGE, "", self.PAST)
        assert peak < 1 << 20, peak

    def test_build_partition_and_lemma_failures_refuse(self):
        pair = PrimePair.create(3, 31849)
        with pytest.raises(ResourceError, match=r"^period 3043076403 exceeds the audit's exact range"):
            build_partition(pair)
        # an index of one period that holds no memory: refused before it is read
        index = np.broadcast_to(np.int16(0), (pair.period,))
        with pytest.raises(ResourceError, match=r"^period 3043076403 exceeds the audit's exact range"):
            lemma_failures(pair, index)
