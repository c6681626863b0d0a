"""Differential tests: the audit on the dense coset index against the frozenset audit.

oracles.audit_failures runs the previous checks (frozenset partition, two
product grids or a seeded sample of products, Counter multisets, per-bit
residue pass) in the order audit_structure ran them.  Both sides get the same
coset index, clean or corrupted in one of six ways, and must fail the same
lemmas with the same messages, except for index additivity: its one message
names a witness, found here with one modular power per unit, and lemma 4
reads the same verdict.  The oracle grid rows are also checked cell by cell,
the additivity test from the generators against that grid, the doubled powers
against one power per exponent, and the congruence messages of lemmas 8 and 9
against those the per-bit residue pass and the loop that folded the coset
residues one coset at a time call for, which also checks the class-count rule
for Phi_{q^2} on random key sets.  The torus counts, summed over either axis
and read at each class mod pq, are checked against one bincount per modulus,
the q^2 columns against the sorted keys and counts of np.unique, also for
generators whose expected sets mod q^2 overlap, the torus test for Phi_pq,
Phi_p and Phi_q against one reduction per row, and the polyphase test of
lemma 9's pq^2 term against one reduction of the whole indicator.
"""

import ast
import dataclasses
import functools
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqseq import PrimePair, build_table, derive_generators
from eqseq import structverify as sv
from eqseq.errors import DomainError, InternalConsistencyError
from eqseq.gf2poly import _int_mod, _int_mul, cyclotomic_f2
from eqseq.ntcore import crt_lift
from eqseq.sequence import pack_flags

import oracles
from golden import SWEEP_PAIRS

SMALL_PAIRS = [pq for pq in SWEEP_PAIRS if pq[0] * pq[1] ** 2 <= oracles.EXHAUSTIVE_LIMIT]
ORACLE_SEEDS = (1729, 5)   # the old audit samples products above its limit
LEMMA4 = "the index is not additive, so a translation leaves its target coset"
CORRUPTIONS = ("swap", "unit_dropped", "coset_shifted", "twisted", "nonunit_labelled",
               "swap_same_pq")
PHI_N = "summed coset polynomial is nonzero mod the pq^2 cyclotomic"


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
    elif kind == "swap_same_pq":
        # two units congruent mod pq trade cosets: a coset meets each unit
        # class mod pq once, so a and a + pq lie in different cosets, and the
        # counts mod p, q and pq stay exact while those mod q^2 do not
        a = units[5]
        b = (a + p * q) % index.size
        out[a], out[b] = index[b], index[a]
    elif kind == "label_q":
        # a label q names no coset
        out[units[-1]] = q
    elif kind == "doubled":
        # ell -> 2 ell mod q, an automorphism of Z_q: still additive, but
        # ghat^ell * D_0 is now D_{2 ell}
        out[units] = 2 * index[units] % q
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

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (5, 31), (3, 61)])
    def test_doubled_labels(self, p, q):
        # only the ghat law (lemma 3) and the cosets mod q^2 (lemma 7) see it
        pair = PrimePair.create(p, q)
        table = build_table(pair)
        index = corrupt(sv.build_partition(pair, table).index, "doubled", q)
        for seed in ORACLE_SEEDS:
            got = assert_same_audit(pair, table, derive_generators(pair), index, seed)
            assert [lemma for lemma, msgs in got.items() if msgs] == ["lemma3", "lemma7"], (p, q)

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


def table_congruences(pair, partition) -> dict[str, list[str]]:
    """The lemma 8 and 9 messages, from the torus counts and the q^2 columns."""
    counts = sv._torus_counts(partition)
    _, odd_q2 = sv._q2_columns(pair, derive_generators(pair), partition)
    return sv._check_congruences(pair, partition, counts, odd_q2)


def residue_congruences(residues: dict[int, list[int]], pair, summed_n: int) -> dict[str, list[str]]:
    """The same messages from the residue of each coset polynomial mod Phi_m
    (m = pq, p, q, q^2) and of the summed one mod Phi_N: the cosets off their
    constant, and the sum of their residues off it."""
    p, q = pair.p, pair.q
    out: dict[str, list[str]] = {"lemma8": [], "lemma9": []}
    for name, m, expect in (("pq", p * q, 1), ("p", p, 0), ("q", q, 0), ("q2", q * q, 0)):
        bad = [ell for ell, r in enumerate(residues[m]) if r != expect]
        if bad:
            out["lemma8"].append(f"coset polynomial(s) {bad} are not {expect} modulo the {name} cyclotomic")
        if functools.reduce(operator.xor, residues[m], 0) != expect:
            out["lemma9"].append(f"summed coset polynomial is not {expect} mod {name}")
    out["lemma9"] += [PHI_N] * (summed_n != 0)
    return out


def labelled_mod_phi_n(pair, index) -> int:
    """The indicator of the labels 0..q-1, reduced by Phi_N in one go."""
    labelled = (index >= 0) & (index < pair.q)
    return _int_mod(pack_flags(labelled), cyclotomic_f2(pair.period).bits)


@st.composite
def odd_key_sets(draw):
    """A prime q and sorted distinct keys ell * q^2 + a (ell, a < q): loose
    keys, symmetric-differenced with whole classes a = j mod q of some rows."""
    q = draw(st.sampled_from([3, 5, 7, 13]))
    loose = draw(st.sets(st.integers(0, q ** 3 - 1), max_size=2 * q))
    whole = draw(st.sets(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=4))
    keys = loose ^ {ell * q * q + j + q * i for ell, j in whole for i in range(q)}
    return q, np.array(sorted(keys), dtype=np.int64)


def flags_of(bits: int, n: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
                         count=n, bitorder="little").astype(bool)


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
            idx = index.tolist()
            residues = {m: oracles._residue_pass(n, cyclotomic_f2(m).bits, idx, q)
                        for m in (p, q, p * q, q * q)}
            # the sum over every coset is the units indicator
            summed_n = functools.reduce(
                operator.xor, oracles._residue_pass(n, cyclotomic_f2(n).bits, idx, q), 0)
            want = residue_congruences(residues, pair, summed_n)
            assert table_congruences(pair, partition) == want, (p, q)

    @pytest.mark.parametrize("corruption", (None, "label_q", "doubled") + CORRUPTIONS)
    def test_match_per_coset_loop(self, corruption):
        # the messages against the loop that folded the sorted keys one coset
        # at a time; both ignore a label q, which names no coset
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            index = sv.build_partition(pair).index
            if corruption:
                index = corrupt(index, corruption, q)
            partition = sv.CosetPartition(pair=pair, index=index)
            counts = oracles._residue_counts(partition)
            residues = {m: oracles.coset_residues(counts[m], m, q) for m in (p, q, p * q, q * q)}
            want = residue_congruences(residues, pair, labelled_mod_phi_n(pair, index))
            assert table_congruences(pair, partition) == want, (p, q, corruption)

    @settings(max_examples=300, deadline=None)
    @given(odd_key_sets())
    @example((3, np.array([0, 3, 6])))             # Phi_9 itself: a nonzero row, 0 mod Phi_9
    @example((5, np.array([26, 31, 36, 41, 46])))  # row 1, class 1 mod 5 filled
    @example((3, np.array([0, 3])))                # a class neither empty nor full
    def test_phi_q2_rule(self, case):
        # a row is 0 mod Phi_{q^2} exactly when each class mod q holds 0 or q
        # of its keys; the folded residue of each row says the same
        q, keys = case
        residues = oracles.coset_residues((keys, np.ones_like(keys)), q * q, q)
        assert sv._off_phi_q2(keys, q) == [ell for ell, r in enumerate(residues) if r]


class TestTorusCongruences:
    """The verdicts mod Phi_pq, Phi_p and Phi_q, read off parities on the
    (p, q) torus, against one reduction per row by _int_mod: random rows, and
    exact c + k Phi_m for c in 0 and 1, which are c mod Phi_m and mostly off
    it for the other two moduli."""

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (3, 13), (7, 29), (11, 23)])
    def test_match_int_mod(self, p, q):
        pair = PrimePair.create(p, q)
        pq = p * q
        rand = random.Random(pq)
        partition = sv.build_partition(pair)
        cells = sv._torus_cells(p, q)
        batches = [[rand.getrandbits(pq) for _ in range(q)] for _ in range(2)]
        for m in (pq, p, q):
            phi = cyclotomic_f2(m).bits
            batches += [[c ^ _int_mul(rand.getrandbits(pq - phi.bit_length() + 1), phi)
                         for _ in range(q)] for c in (0, 1)]
        for rows in batches:
            # each row as torus counts: bit c at the cell of c, plus an even count
            counts = np.array([[2 * rand.randrange(3) + (row >> c & 1) for c in range(pq)]
                               for row in rows])
            torus = np.zeros_like(counts)
            torus[:, cells] = counts
            residues = {m: [_int_mod(row, cyclotomic_f2(m).bits) for row in rows] for m in (pq, p, q)}
            residues[q * q] = [0] * q
            got = sv._check_congruences(pair, partition, torus.reshape(q, p, q), np.zeros(0, np.int64))
            assert got == residue_congruences(residues, pair, 0), (p, q)


class TestResidueTables:
    """The torus counts, summed over b and over a and read at the cell of each
    class mod pq, against a bincount per modulus and the np.unique keys and
    counts; the q^2 columns against the np.unique keys and counts mod q^2; the
    lemma 5-7 check on them against the check on those keys
    (oracles._check_key_multisets)."""

    @pytest.mark.parametrize("variant", (None, "label_q", "doubled") + CORRUPTIONS)
    def test_match_sorted_keys(self, variant):
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            gens = derive_generators(pair)
            index = sv.build_partition(pair).index
            if variant:
                index = corrupt(index, variant, q)
            partition = sv.CosetPartition(pair=pair, index=index)
            torus = sv._torus_counts(partition)
            bad_q2, odd_q2 = sv._q2_columns(pair, gens, partition)
            tables = {p: torus.sum(axis=2), q: torus.sum(axis=1),
                      p * q: torus.reshape(q, p * q)[:, sv._torus_cells(p, q)]}
            per_modulus = oracles.residue_tables(partition)
            assert tables.keys() == per_modulus.keys()
            assert all(np.array_equal(tables[m], per_modulus[m]) for m in tables), (p, q)
            counts = oracles._residue_counts(partition)
            # each table is the keys of cosets below q scattered with their counts
            for m, table in tables.items():
                keys, multiplicity = counts[m]
                inside = keys < q * m
                dense = np.zeros(q * m, dtype=np.int64)
                dense[keys[inside]] = multiplicity[inside]
                assert table.shape == (q, m) and np.array_equal(table.ravel(), dense), (p, q, m)
            # the q^2 columns find the keys of cosets below q held an odd number of times
            keys, multiplicity = counts[q * q]
            odd = keys[(multiplicity % 2 == 1) & (keys < q ** 3)]
            assert sorted(odd_q2.tolist()) == odd.tolist(), (p, q)
            # each message names one coset and one modulus, and the mod-p one
            # its dict: equal lists are equal bad-coset sets per m and equal dicts
            got = sv._check_residue_multisets(pair, torus, bad_q2)
            assert got == oracles._check_key_multisets(pair, gens, counts), (p, q)
            assert any(got.values()) == (variant is not None), (p, q)
            # lemma 9's pq^2 term reads the labels 0..q-1
            lemma9 = sv._check_congruences(pair, partition, torus, odd_q2)["lemma9"]
            assert (PHI_N in lemma9) == (labelled_mod_phi_n(pair, index) != 0), (p, q)

    def test_swap_same_pq_reaches_only_q2(self):
        # the tables mod p, q and pq stay exact, so lemmas 5 and 6 hold while
        # the q^2 keys fail lemmas 7 and 8
        for p, q in [(3, 7), (5, 11), (5, 31), (3, 61)]:
            pair = PrimePair.create(p, q)
            clean = sv.build_partition(pair).index
            index = corrupt(clean, "swap_same_pq", q)
            moved = np.flatnonzero(index != clean)
            assert moved.size == 2 and (moved[1] - moved[0]) % (p * q) == 0
            got = sv.lemma_failures(pair, derive_generators(pair), sv.CosetPartition(pair=pair, index=index))
            assert not got["lemma5"] and not got["lemma6"], (p, q)
            assert got["lemma7"] and got["lemma8"], (p, q)


class TestForeignGenerators:
    """lemma_failures takes any generators.  With ghat = 1 or h, or with ghat
    or g squared, the sets ghat^ell <g^q> mod q^2 overlap or repeat, so more
    than one coset claims a column of the q^2 view, or one coset claims it
    twice; the q^2 columns must still agree with the np.unique keys and counts."""

    @pytest.mark.parametrize("variant", (None, "swap", "swap_same_pq", "label_q", "doubled"))
    def test_match_unique_keys(self, variant):
        for p, q in [(3, 7), (5, 11), (3, 13), (7, 29), (5, 31)]:
            pair = PrimePair.create(p, q)
            n = pair.period
            gens = derive_generators(pair)
            index = sv.build_partition(pair).index
            if variant:
                index = corrupt(index, variant, q)
            partition = sv.CosetPartition(pair=pair, index=index)
            counts = oracles._residue_counts(partition)
            keys, multiplicity = counts[q * q]
            odd = keys[(multiplicity % 2 == 1) & (keys < q ** 3)]
            for foreign in (dataclasses.replace(gens, ghat=1),
                            dataclasses.replace(gens, ghat=gens.ghat ** 2 % n),
                            dataclasses.replace(gens, ghat=gens.h),
                            dataclasses.replace(gens, g=gens.g ** 2 % n),
                            dataclasses.replace(gens, g=gens.g ** 2 % n, ghat=1)):
                bad_q2, odd_q2 = sv._q2_columns(pair, foreign, partition)
                got = sv._check_residue_multisets(pair, sv._torus_counts(partition), bad_q2)
                assert got == oracles._check_key_multisets(pair, foreign, counts), (p, q, foreign)
                assert sorted(odd_q2.tolist()) == odd.tolist(), (p, q, foreign)
            if variant is None:
                # ghat = 1 expects every coset where D_0 lies: all but D_0 fail
                got = sv.lemma_failures(pair, dataclasses.replace(gens, ghat=1), partition)
                assert got["lemma7"] == [f"D_{ell} mod q^2 multiset wrong" for ell in range(1, q)]


class TestLemma9PhiN:
    """Lemma 9's pq^2 term sums the labels 0..q-1 and reduces the q polyphase
    parts of that indicator by Phi_pq, since Phi_{pq^2}(x) = Phi_pq(x^q)."""

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 31)])
    def test_label_q_matches_oracle(self, p, q):
        pair = PrimePair.create(p, q)
        table = build_table(pair)
        gens = derive_generators(pair)
        index = corrupt(sv.build_partition(pair, table).index, "label_q", q)
        got = normalized(sv.lemma_failures(pair, gens, sv.CosetPartition(pair=pair, index=index)))
        want = normalized(oracles.audit_failures(pair, gens, oracles.partition_from_index(pair, index),
                                                 oracle_table(pair, table, index), ORACLE_SEEDS[0]))
        for lemma in ("lemma5", "lemma6", "lemma7", "lemma8", "lemma9"):
            assert got[lemma] == want[lemma], lemma
        assert PHI_N in got["lemma9"]

    @pytest.mark.parametrize("p,q", [(3, 7), (3, 13)])
    def test_verdict_matches_whole_reduction(self, p, q):
        # the clean indicator, each one-flag flip of it, and multiples of
        # Phi_N (of degree below N) with and without one flag flipped
        pair = PrimePair.create(p, q)
        n = pair.period
        gens = derive_generators(pair)
        phi_n = cyclotomic_f2(n).bits
        clean = sv.build_partition(pair).index >= 0
        rng = np.random.default_rng(11)
        multiples = [_int_mul(int(r), phi_n) for r in rng.integers(1, 1 << 40, size=4)]
        cases = [clean] + [clean ^ (np.arange(n) == t) for t in range(n)]
        cases += [flags_of(f ^ flip, n) for f in multiples
                  for flip in (0, 1, 1 << (n // 2), 1 << (n - 1))]
        verdicts = []
        for flags in cases:
            partition = sv.CosetPartition(pair=pair, index=np.where(flags, 0, -1).astype(np.int32))
            verdicts.append(PHI_N in sv.lemma_failures(pair, gens, partition)["lemma9"])
            assert verdicts[-1] == (_int_mod(pack_flags(flags), phi_n) != 0)
        # only the clean indicator and the unflipped multiples hold
        assert verdicts.count(False) == 1 + len(multiples)
