"""Differential tests: the audit on the dense coset index against the frozenset audit.

oracles.audit_failures runs the previous checks (frozenset partition, two
product grids or a seeded sample of products, Counter multisets, per-bit
residue pass) in the order audit_structure ran them.  Both sides get the same
coset index, clean or corrupted in one of five ways, and must fail the same
lemmas with the same messages, except for index additivity: its one message
names a witness, found here with one modular power per unit, and lemma 4
reads the same verdict.  The oracle grid rows are also checked cell by cell,
the additivity test from the generators against that grid, the doubled powers
against one power per exponent, and the folded coset residues against the
per-bit residue pass and against the loop that folded them one coset at a
time.
"""

import ast
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqseq import PrimePair, build_table, derive_generators
from eqseq import structverify as sv
from eqseq.errors import DomainError, InternalConsistencyError
from eqseq.gf2poly import _int_mod, cyclotomic_f2
from eqseq.ntcore import crt_lift
from eqseq.sequence import pack_flags

import oracles
from golden import SWEEP_PAIRS

SMALL_PAIRS = [pq for pq in SWEEP_PAIRS if pq[0] * pq[1] ** 2 <= oracles.EXHAUSTIVE_LIMIT]
ORACLE_SEEDS = (1729, 5)   # the old audit samples products above its limit
LEMMA4 = "the index is not additive, so a translation leaves its target coset"
CORRUPTIONS = ("swap", "unit_dropped", "coset_shifted", "twisted", "nonunit_labelled")


def corrupt(index: np.ndarray, kind: str, q: int) -> np.ndarray:
    out = index.copy()
    units = np.flatnonzero(index >= 0)
    p = index.size // (q * q)
    if kind == "swap":
        # two units trade cosets
        a = units[5]
        b = units[np.flatnonzero(index[units] != index[a])[7]]
        out[a], out[b] = index[b], index[a]
    elif kind == "unit_dropped":
        out[units[11]] = -1
    elif kind == "coset_shifted":
        # D_2 relabelled as ghat * D_2, which is D_3
        out[index == 2] = 3 % q
    elif kind == "twisted":
        # I(h^a g2^b) + a mod q, with a the log of t mod p (h^a g2^b is g^a
        # mod p): linear in (a, b), but no homomorphism, since h^(p-1) = 1
        g = derive_generators(PrimePair.create(p, q)).g
        log = {pow(g, a, p): a for a in range(p - 1)}
        out[units] = (index[units] + [log[t % p] for t in units.tolist()]) % q
    elif kind == "nonunit_labelled":
        out[p] = 0
    return out


def oracle_table(pair, table, index) -> list[int]:
    """The quotient table the index claims: p * index on labelled positions."""
    return [pair.p * int(i) if i >= 0 else int(v) for i, v in zip(index.tolist(), table)]


_DICT = re.compile(r"\{[^{}]*\}")


def normalized(failures):
    # the mod-p message prints a dict of residue counts; the oracle lists it in
    # frozenset iteration order, the index in ascending residue order
    def norm(msg):
        return _DICT.sub(lambda m: repr(sorted(ast.literal_eval(m.group()).items())), msg)
    return {name: [norm(m) for m in msgs] for name, msgs in failures.items()}


def additivity_witness(pair, gens, index) -> list[str]:
    """The additivity message expected of the audit: the label count, else the
    first h^a * g2^b (a, then b, ascending) whose index is not b * I(g2) mod q."""
    n, p, q = pair.period, pair.p, pair.q
    units = (p - 1) * q * (q - 1)
    labelled = int((index >= 0).sum())
    if labelled != units:
        return [f"index additivity fails: {labelled} positions carry a label, "
                f"expected (p-1)q(q-1) = {units}"]
    g2 = crt_lift([(1, p), (gens.g % (q * q), q * q)])
    i_g2 = int(index[g2])
    for a in range(p - 1):
        t = pow(gens.h, a, n)
        for b in range(q * (q - 1)):
            if index[t] != b * i_g2 % q:
                return [f"index additivity fails: I(h^{a} * g2^{b}) = I({t}) = {index[t]}, "
                        f"expected b * I(g2) = {b * i_g2 % q} mod q"]
            t = t * g2 % n
    return []


def assert_same_audit(pair, table, gens, index, seed):
    """Same verdicts as the oracle; the same messages but for additivity."""
    partition = sv.CosetPartition(pair=pair, index=index)
    got = sv.lemma_failures(pair, gens, partition)
    want = oracles.audit_failures(pair, gens, oracles.partition_from_index(pair, index),
                                  oracle_table(pair, table, index), seed)
    assert {k: not v for k, v in got.items()} == {k: not v for k, v in want.items()}
    got_n, want_n = normalized(got), normalized(want)
    # lemma 2 lists the kernel and image messages first, then additivity
    old_additivity = [m for m in want_n["lemma2"] if m.startswith("index additivity fails")]
    witness = additivity_witness(pair, gens, index)
    assert bool(witness) == bool(old_additivity)
    assert got_n["lemma2"] == want_n["lemma2"][:len(want_n["lemma2"]) - len(old_additivity)] + witness
    assert got_n["lemma4"] == [LEMMA4] * bool(witness)
    for lemma in ("lemma3", "lemma5", "lemma6", "lemma7", "lemma8", "lemma9"):
        assert got_n[lemma] == want_n[lemma], lemma
    return got


class TestAuditDifferential:
    def test_every_sweep_pair(self):
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            table = build_table(pair)
            index = sv.build_partition(pair, table).index
            got = assert_same_audit(pair, table, derive_generators(pair), index, ORACLE_SEEDS[0])
            assert not any(got.values()), (p, q)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (5, 31), (3, 61)])
    def test_corrupted_index(self, p, q, kind):
        # (3, 61) is above the oracle's exhaustive limit, so the oracle samples
        pair = PrimePair.create(p, q)
        table = build_table(pair)
        index = corrupt(sv.build_partition(pair, table).index, kind, q)
        for seed in ORACLE_SEEDS:
            got = assert_same_audit(pair, table, derive_generators(pair), index, seed)
            assert any(got.values()), (p, q, kind)

    def test_swap_fails_lemma_4_once(self):
        # the oracle's grid rows named every coset; lemma 4 now names the cause once
        pair = PrimePair.create(3, 7)
        table = build_table(pair)
        gens = derive_generators(pair)
        index = corrupt(sv.build_partition(pair, table).index, "swap", 7)
        got = assert_same_audit(pair, table, gens, index, ORACLE_SEEDS[0])
        assert got["lemma4"] == [LEMMA4]
        want = oracles.audit_failures(pair, gens, oracles.partition_from_index(pair, index),
                                      oracle_table(pair, table, index), ORACLE_SEEDS[0])
        assert want["lemma4"] == [f"translation by D_{j} leaves its target coset" for j in range(7)]

    def test_additivity_messages(self):
        pair = PrimePair.create(3, 7)
        gens = derive_generators(pair)
        clean = sv.build_partition(pair).index
        failures = {kind: sv.lemma_failures(pair, gens, sv.CosetPartition(
            pair=pair, index=corrupt(clean, kind, 7))) for kind in CORRUPTIONS}
        # the additivity witness is the last message of lemma 2
        assert failures["nonunit_labelled"]["lemma2"][-1] == (
            "index additivity fails: 85 positions carry a label, expected (p-1)q(q-1) = 84")
        assert failures["twisted"]["lemma2"][-1] == (
            "index additivity fails: I(h^1 * g2^0) = I(50) = 1, expected b * I(g2) = 0 mod q")


def grid_rows_by_cell(pair, index) -> list[int]:
    """Units whose row of the product grid breaks additivity, cell by cell."""
    n, q = pair.period, pair.q
    units = [t for t in range(n) if index[t] >= 0]
    return [u for u in units
            if any(index[u * v % n] != (index[u] + index[v]) % q for v in units)]


class TestGridRows:
    @pytest.mark.parametrize("p,q", [(3, 7), (3, 13), (5, 11)])
    def test_rows_match_cell_by_cell(self, p, q):
        pair = PrimePair.create(p, q)
        clean = sv.build_partition(pair).index
        units = np.flatnonzero(clean >= 0)
        dropped_top = clean.copy()
        dropped_top[units[clean[units] == q - 1][3]] = -1   # a unit of D_{q-1} dropped
        indices = [clean, dropped_top] + [corrupt(clean, kind, q) for kind in CORRUPTIONS]
        for index in indices:
            rows = oracles._grid_failures(sv.CosetPartition(pair=pair, index=index))
            assert rows.tolist() == grid_rows_by_cell(pair, index.tolist())
        # a dropped unit d breaks every row but that of 1, which maps d to itself
        rows = oracles._grid_failures(sv.CosetPartition(pair=pair, index=dropped_top))
        assert rows.tolist() == [u for u in np.flatnonzero(dropped_top >= 0).tolist() if u != 1]

    def test_small_chunks(self, monkeypatch):
        # slices of a few rows each still cover the whole grid
        pair = PrimePair.create(3, 13)
        index = corrupt(sv.build_partition(pair).index, "swap", 13)
        want = grid_rows_by_cell(pair, index.tolist())
        monkeypatch.setattr(oracles, "_GRID_CHUNK", 1000)
        assert oracles._grid_failures(sv.CosetPartition(pair=pair, index=index)).tolist() == want


class TestGenerators:
    def test_unit_coordinates(self):
        # row a, column b holds h^a g2^b: g^a mod p and g^b mod q^2, each unit once
        for p, q in SMALL_PAIRS:
            pair = PrimePair.create(p, q)
            n, q2 = pair.period, q * q
            gens = derive_generators(pair)
            g = gens.g
            coords = sv._unit_coordinates(pair, gens)
            assert coords.shape == (p - 1, q * (q - 1)), (p, q)
            assert sorted(coords.ravel().tolist()) == [t for t in range(n) if math.gcd(t, n) == 1]
            assert (coords % p == np.array([pow(g, a, p) for a in range(p - 1)])[:, None]).all()
            assert (coords % q2 == np.array([pow(g, b, q2) for b in range(q * (q - 1))])).all()

    @pytest.mark.parametrize("kind", (None,) + CORRUPTIONS)
    def test_verdict_matches_grid(self, kind):
        # the generator test passes exactly when the grid names no failing row,
        # also at (3, 61), above the oracle's exhaustive limit
        for p, q in SMALL_PAIRS + [(3, 61)]:
            pair = PrimePair.create(p, q)
            index = sv.build_partition(pair).index
            if kind:
                index = corrupt(index, kind, q)
            partition = sv.CosetPartition(pair=pair, index=index)
            additive = not sv._check_additivity(pair, derive_generators(pair), partition)
            assert additive == (oracles._grid_failures(partition).size == 0), (p, q, kind)
            assert additive == (kind is None), (p, q, kind)


POWER_COUNTS = st.one_of(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=12).flatmap(
        lambda k: st.sampled_from([2 ** k - 1, 2 ** k + 1])),
)


class TestPowers:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 40), POWER_COUNTS,
           st.integers(min_value=1, max_value=10 ** 6))
    @example(2, 0, 7)
    @example(3, 1, 1)
    @example(10 ** 6 - 1, 4097, 10 ** 6)
    def test_doubling_matches_one_power_per_exponent(self, base, count, n):
        got = sv._powers(base, count, n)
        assert got.dtype == np.int64
        assert got.tolist() == oracles._powers(base, count, n).tolist()


class TestBuildPartition:
    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (3, 61)])
    def test_same_cosets_as_frozensets(self, p, q):
        pair = PrimePair.create(p, q)
        partition = sv.build_partition(pair)
        old = oracles.build_partition(pair)
        assert [set(np.flatnonzero(partition.index == ell).tolist())
                for ell in range(q)] == [set(c) for c in old.cosets]
        assert set(np.flatnonzero(partition.index < 0).tolist()) == old.non_units
        assert partition.units.tolist() == sorted(set().union(*old.cosets))

    def test_quotient_not_divisible_by_p(self):
        pair = PrimePair.create(3, 7)
        values = build_table(pair).tolist()
        values[4] += 1
        with pytest.raises(InternalConsistencyError, match=r"psi\(4\) = .* not divisible by p=3"):
            sv.build_partition(pair, values)

    def test_another_pairs_table(self):
        # N = pq^2 fixes the pair: a table of another length is refused
        # before any broadcast
        pair = PrimePair.create(3, 7)
        for values in (build_table(PrimePair.create(3, 13)), build_table(pair)[:-1],
                       build_table(pair).reshape(21, 7)):
            with pytest.raises(DomainError, match=r"is not one period N = 147"):
                sv.build_partition(pair, values)


class TestFoldedResidues:
    @pytest.mark.parametrize("corruption", [None, "swap", "coset_shifted"])
    def test_match_residue_pass(self, corruption):
        for p, q in SMALL_PAIRS:
            pair = PrimePair.create(p, q)
            n = pair.period
            index = sv.build_partition(pair).index
            if corruption:
                index = corrupt(index, corruption, q)
            partition = sv.CosetPartition(pair=pair, index=index)
            counts = sv._residue_counts(partition)
            idx = index.tolist()
            for m in (p, q, p * q, q * q):
                want = oracles._residue_pass(n, cyclotomic_f2(m).bits, idx, q)
                assert sv._coset_residues(counts[m], m, q) == want, (p, q, m)
            # the sum over every coset is the units indicator
            total = 0
            for r in oracles._residue_pass(n, cyclotomic_f2(n).bits, idx, q):
                total ^= r
            assert _int_mod(pack_flags(index >= 0), cyclotomic_f2(n).bits) == total, (p, q)

    @pytest.mark.parametrize("corruption", (None, "label_q") + CORRUPTIONS)
    def test_match_per_coset_loop(self, corruption):
        # the (cosets, m) arrays against the loop that folded one coset at a
        # time; both ignore a label q, which names no coset
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            index = sv.build_partition(pair).index
            if corruption == "label_q":
                index = index.copy()
                index[np.flatnonzero(index >= 0)[-1]] = q
            elif corruption:
                index = corrupt(index, corruption, q)
            counts = sv._residue_counts(sv.CosetPartition(pair=pair, index=index))
            for m in (p, q, p * q, q * q):
                assert (sv._coset_residues(counts[m], m, q)
                        == oracles.coset_residues(counts[m], m, q)), (p, q, m, corruption)
