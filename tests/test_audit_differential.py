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
the q^2 columns against the sorted keys and counts of np.unique, the torus
test for Phi_pq, Phi_p and Phi_q against one reduction per row, and the
polyphase test of lemma 9's pq^2 term, read in the q^2 pass, against one
reduction of the whole indicator.  Only lemma 7's claims are lifted in blocks,
which the comparison walks and the q^2 pass joins, so the audit with blocks of
1, 7 and 64 entries must match the audit with the default block.
The three walks over the units, which the audit skips where lemmas 6 and 7
hold, are run directly: they hold on every clean index, and every corrupted
index that fails one of them, or fails lemma 5, 8 or 9, also fails lemma 6 or 7.
The comparison with the Fermat-quotient index, which decides a sound index
and skips the residue passes too, holds exactly where the residue passes word
no lemma 6 or 7 message: on the clean, doubled and corrupted indices of the
sweep pairs and on every one-label move at (3, 7) and (5, 11).
"""

import ast
import functools
import math
import operator
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqseq import PrimePair, derive_generators, eulerq, limits
from eqseq import residues as rs
from eqseq import structverify as sv
from eqseq.cli import enumerate_pairs
from eqseq.errors import DomainError, InternalConsistencyError
from eqseq.gf2poly import _int_mod, _int_mul, cyclotomic_f2
from eqseq.ntcore import crt_lift
from eqseq.sequence import generate_threshold, pack_flags

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
        # a label q names no coset, so the index is refused
        out[units[-1]] = q
    elif kind == "one_coset":
        # every unit in D_0: the ghat law has an image for each unit and coset
        out[units] = 0
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
    got = sv.lemma_failures(pair, index)
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
            table = oracles.build_table(pair)
            index = sv.build_partition(pair)
            got = assert_same_audit(pair, table, derive_generators(pair), index, ORACLE_SEEDS[0])
            assert not any(got.values()), (p, q)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (5, 31), (3, 61)])
    def test_corrupted_index(self, p, q, kind):
        # (3, 61) is above the oracle's exhaustive limit, so the oracle samples
        pair = PrimePair.create(p, q)
        table = oracles.build_table(pair)
        index = corrupt(sv.build_partition(pair), kind, q)
        for seed in ORACLE_SEEDS:
            got = assert_same_audit(pair, table, derive_generators(pair), index, seed)
            assert any(got.values()), (p, q, kind)

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (5, 31), (3, 61)])
    def test_doubled_labels(self, p, q):
        # only the ghat law (lemma 3) and the cosets mod q^2 (lemma 7) see it
        pair = PrimePair.create(p, q)
        table = oracles.build_table(pair)
        index = corrupt(sv.build_partition(pair), "doubled", q)
        for seed in ORACLE_SEEDS:
            got = assert_same_audit(pair, table, derive_generators(pair), index, seed)
            assert [lemma for lemma, msgs in got.items() if msgs] == ["lemma3", "lemma7"], (p, q)

    def test_swap_fails_lemma_4_once(self):
        # the oracle's grid rows named every coset; lemma 4 now names the cause once
        pair = PrimePair.create(3, 7)
        table = oracles.build_table(pair)
        gens = derive_generators(pair)
        index = corrupt(sv.build_partition(pair), "swap", 7)
        got = assert_same_audit(pair, table, gens, index, ORACLE_SEEDS[0])
        assert got["lemma4"] == [LEMMA4]
        want = oracles.audit_failures(pair, gens, oracles.partition_from_index(pair, index),
                                      oracle_table(pair, table, index), ORACLE_SEEDS[0])
        assert want["lemma4"] == [f"translation by D_{j} leaves its target coset" for j in range(7)]

    def test_additivity_messages(self):
        pair = PrimePair.create(3, 7)
        clean = sv.build_partition(pair)
        failures = {kind: sv.lemma_failures(pair, corrupt(clean, kind, 7))
                    for kind in CORRUPTIONS}
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
        clean = sv.build_partition(pair)
        units = np.flatnonzero(clean >= 0)
        dropped_top = clean.copy()
        dropped_top[units[clean[units] == q - 1][3]] = -1   # a unit of D_{q-1} dropped
        indices = [clean, dropped_top] + [corrupt(clean, kind, q) for kind in CORRUPTIONS]
        for index in indices:
            rows = oracles._grid_failures(pair, index)
            assert rows.tolist() == grid_rows_by_cell(pair, index.tolist())
        # a dropped unit d breaks every row but that of 1, which maps d to itself
        rows = oracles._grid_failures(pair, dropped_top)
        assert rows.tolist() == [u for u in np.flatnonzero(dropped_top >= 0).tolist() if u != 1]

    def test_small_chunks(self, monkeypatch):
        # slices of a few rows each still cover the whole grid
        pair = PrimePair.create(3, 13)
        index = corrupt(sv.build_partition(pair), "swap", 13)
        want = grid_rows_by_cell(pair, index.tolist())
        monkeypatch.setattr(oracles, "_GRID_CHUNK", 1000)
        assert oracles._grid_failures(pair, index).tolist() == want


class TestGenerators:
    def test_unit_coordinates(self):
        # row a, column b holds h^a g2^b, the unit the additivity test reads
        # at (a, b): g^a mod p and g^b mod q^2, each unit once
        for p, q in SMALL_PAIRS:
            pair = PrimePair.create(p, q)
            n, q2 = pair.period, q * q
            gens = derive_generators(pair)
            g = gens.g
            coords = sv._units(pair, gens)
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
            index = sv.build_partition(pair)
            if kind:
                index = corrupt(index, kind, q)
            sizes = np.bincount(index + 1, minlength=q + 1)[1:]
            gens = derive_generators(pair)
            additive = not sv._check_additivity(pair, index, sizes, sv._units(pair, gens))
            assert additive == (oracles._grid_failures(pair, index).size == 0), (p, q, kind)
            assert additive == (kind is None), (p, q, kind)


def walk_failures(pair, index) -> list[str]:
    """The messages of the three walks over the units (additivity, kernel and
    image, ghat law), run directly, as lemma_failures runs them where lemma 6
    or 7 fails."""
    gens = derive_generators(pair)
    sizes = np.bincount(index + 1, minlength=pair.q + 1)[1:]
    units = sv._units(pair, gens)
    return (sv._check_additivity(pair, index, sizes, units)
            + sv._check_kernel_image(pair, index, sizes, units)
            + sv._check_ghat_law(pair, gens, index, sizes))


CORRUPTED_PAIRS = sorted(set(SMALL_PAIRS) | {(5, 31), (3, 61)})


class TestWalksDecided:
    """Where lemmas 6 and 7 hold, the index is the Fermat-quotient logarithm
    mod q^2 on exactly the units, so lemmas 2-4 hold and lemma_failures skips
    the walks over the units; they run only to name a fault.  Lemmas 5, 8 and
    9 hold then too: every coset reduces mod x^pq + 1 to the unit indicator
    (1 mod Phi_pq, 0 mod Phi_p and Phi_q), every key mod q^2 is held p - 1
    times, and each polyphase part of the indicator depends on t mod p alone."""

    @pytest.mark.parametrize("p,q", SWEEP_PAIRS + [(3, 313), (3, 577), (17, 239)])
    def test_walks_hold_on_the_clean_index(self, p, q):
        pair = PrimePair.create(p, q)
        assert walk_failures(pair, sv.build_partition(pair)) == []

    @pytest.mark.parametrize("kind", ("doubled",) + CORRUPTIONS)
    def test_a_walk_fault_comes_with_lemma_6_or_7(self, kind):
        walked = residue = 0
        for p, q in CORRUPTED_PAIRS:
            pair = PrimePair.create(p, q)
            index = corrupt(sv.build_partition(pair), kind, q)
            failures = sv.lemma_failures(pair, index)
            decided = failures["lemma6"] or failures["lemma7"]
            if walk_failures(pair, index):
                walked += 1
                assert decided, (p, q, kind)
            if failures["lemma5"] or failures["lemma8"] or failures["lemma9"]:
                residue += 1
                assert decided, (p, q, kind)
        # every kind fails a walk at every pair, and every kind but doubled
        # fails lemma 5, 8 or 9 at every pair, so none of this is vacuous
        assert walked == len(CORRUPTED_PAIRS), kind
        assert residue == (0 if kind == "doubled" else len(CORRUPTED_PAIRS)), kind

    def test_the_walks_are_skipped(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked the units")
        for name in ("_check_additivity", "_check_kernel_image", "_check_ghat_law"):
            monkeypatch.setattr(sv, name, walk)
        pair = PrimePair.create(3, 61)
        clean = sv.build_partition(pair)
        assert not any(sv.lemma_failures(pair, clean).values())
        # an index that fails lemma 6 or 7 is still walked, to name the fault
        with pytest.raises(AssertionError, match="walked the units"):
            sv.lemma_failures(pair, corrupt(clean, "swap", 61))

    def test_the_residue_passes_are_skipped(self, monkeypatch):
        def residue_pass(*args):
            raise AssertionError("ran a residue pass")
        # residue_failures counts the torus itself, then runs the two passes
        for name in ("residue_failures", "_torus_failures", "_q2_failures"):
            monkeypatch.setattr(rs, name, residue_pass)
        pair = PrimePair.create(3, 61)
        clean = sv.build_partition(pair)
        assert sv.lemma_failures(pair, clean) == {f"lemma{k}": [] for k in range(2, 10)}
        # any other index reaches them, to name its faults
        with pytest.raises(AssertionError, match="ran a residue pass"):
            sv.lemma_failures(pair, corrupt(clean, "swap", 61))


LEMMAS = [f"lemma{k}" for k in range(2, 10)]


class TestFermatIndex:
    """lemma_failures first compares the index with the Fermat-quotient index
    (residues.is_fermat_index), and on a match returns every lemma empty.  Its
    verdict is "residue_failures words no lemma 6 or 7 message", and where it
    holds every check of the full passes and walks holds too; where it fails,
    lemmas 5-9 are those of residue_failures, in the same key order."""

    @staticmethod
    def verdict(pair, gens, index):
        sizes, failures = rs.residue_failures(pair, gens, index)
        holds = rs.is_fermat_index(pair, gens, index)
        assert holds == (not failures["lemma6"] and not failures["lemma7"])
        return holds, sizes, failures

    @pytest.mark.parametrize("kind", (None, "doubled") + CORRUPTIONS)
    def test_sweep_pairs(self, kind):
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            gens = derive_generators(pair)
            index = sv.build_partition(pair)
            if kind:
                index = corrupt(index, kind, q)
            holds, sizes, failures = self.verdict(pair, gens, index)
            assert holds == (kind is None), (p, q, kind)
            got = sv.lemma_failures(pair, index)
            assert list(got) == LEMMAS, (p, q, kind)
            if holds:
                assert not any(failures.values()) and not walk_failures(pair, index), (p, q)
                assert not sv._check_partition_shape(pair, sizes) and not any(got.values()), (p, q)
            else:
                assert {name: got[name] for name in LEMMAS[3:]} == failures, (p, q, kind)

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11)])
    def test_every_one_label_move(self, p, q):
        # each position given each other label of -1..q-1: none is sound
        pair = PrimePair.create(p, q)
        gens = derive_generators(pair)
        clean = sv.build_partition(pair)
        assert self.verdict(pair, gens, clean)[0]
        for t in range(pair.period):
            for label in range(-1, q):
                if label != clean[t]:
                    index = clean.copy()
                    index[t] = label
                    assert not self.verdict(pair, gens, index)[0], (t, label)


@functools.cache
def default_block_failures() -> list:
    """lemma_failures with the default block on SMALL_PAIRS and (3, 61): the
    clean index, every corruption and the doubled labels."""
    cases = []
    for p, q in SMALL_PAIRS + [(3, 61)]:
        pair = PrimePair.create(p, q)
        clean = sv.build_partition(pair)
        for kind in (None, "doubled") + CORRUPTIONS:
            index = corrupt(clean, kind, q) if kind else clean
            cases.append((pair, kind, index, sv.lemma_failures(pair, index)))
    return cases


class TestBlocks:
    """The audit reads limits.BLOCK only through lemma 7's claims (_q2_claims),
    lifted in blocks of at least a row of pq entries: the comparison walks the
    index by them, and the q^2 pass joins them into one array.  With blocks of
    1, 7 and 64 entries every verdict and message is the default block's, the
    additivity witness among them."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks(self, monkeypatch, block):
        cases = default_block_failures()
        monkeypatch.setattr(limits, "BLOCK", block)
        for pair, kind, index, want in cases:
            assert sv.lemma_failures(pair, index) == want, (pair.p, pair.q, kind)
        # and among them lemma 2 names witnesses, found on the whole h^a g2^b grid
        assert any(msg.startswith("index additivity fails: I(h^") for *_, want in cases
                   for msg in want["lemma2"])


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
        index = sv.build_partition(pair)
        old = oracles.build_partition(pair)
        assert [set(np.flatnonzero(index == ell).tolist())
                for ell in range(q)] == [set(c) for c in old.cosets]
        assert set(np.flatnonzero(index < 0).tolist()) == old.non_units
        assert np.flatnonzero(index >= 0).tolist() == sorted(set().union(*old.cosets))

    def test_quotient_not_divisible_by_p(self, monkeypatch):
        # psi(4) one off in the residue quotients at (3, 7)
        self.check_refused(monkeypatch, {"psi": 4}, "psi(4) = 13")
        # with the step of r = 1 also off (first seen at t = 22), row 0 comes first
        self.check_refused(monkeypatch, {"psi": 20, "step": 1}, "psi(20) = 10")

    def test_step_not_divisible_by_p(self, monkeypatch):
        # a step one off shows first at t = r + pq: psi(26) = 18 + 16 mod 21
        self.check_refused(monkeypatch, {"step": 5}, "psi(26) = 13")

    @staticmethod
    def check_refused(monkeypatch, off, message):
        # the residue quotients at (3, 7), each named one off by one at its r;
        # both consumers of eulerq._psi_rows read its one check that p | psi
        pair = PrimePair.create(3, 7)
        real = eulerq._residue_quotients

        def corrupted(pair):
            psi, step = (values.copy() for values in real(pair))
            for values, name in ((psi, "psi"), (step, "step")):
                if name in off:
                    values[off[name]] += 1
            return psi, step

        with monkeypatch.context() as patch:
            patch.setattr(eulerq, "_residue_quotients", corrupted)
            for build in (sv.build_partition, generate_threshold):
                with pytest.raises(InternalConsistencyError,
                                   match=rf"^{re.escape(message)} not divisible by p=3$"):
                    build(pair)

    @pytest.mark.parametrize("p,q", enumerate_pairs(400_000))
    def test_matches_the_psi_table(self, p, q):
        # the lift from the residues against psi(t)/p read off the whole-array
        # formula psi(r + k*pq) = psi(r) + k*step mod pq
        pair = PrimePair.create(p, q)
        psi, step = eulerq._residue_quotients(pair)
        table = (psi + np.arange(q)[:, None] * step) % (p * q)
        want = np.where(np.gcd(np.arange(p * q), p * q) == 1, table // p, -1).ravel()
        index = sv.build_partition(pair)
        assert index.dtype == np.int16
        assert np.array_equal(index, want)


class TestIndexShape:
    """lemma_failures refuses an index that is not a signed-integer array one
    period of its pair long, or that holds a label outside -1..q-1, with an
    EqseqError rather than a numpy error."""

    def test_another_pairs_index(self):
        # N = pq^2 fixes the pair: the (3, 13) index has 507 labels, not 147
        pair = PrimePair.create(3, 7)
        with pytest.raises(DomainError, match=r"^coset index of shape \(507,\) is not one period N = 147$"):
            sv.lemma_failures(pair, sv.build_partition(PrimePair.create(3, 13)))

    def test_short_or_reshaped_index(self):
        pair = PrimePair.create(3, 7)
        index = sv.build_partition(pair)
        for bad in (index[:-1], index[:10], index.reshape(21, 7), np.zeros(0, np.int32)):
            with pytest.raises(DomainError, match=r"is not one period N = 147$"):
                sv.lemma_failures(pair, bad)

    def test_float_or_list_index(self):
        # the right length, but not labels numpy can count or reshape
        pair = PrimePair.create(3, 7)
        index = sv.build_partition(pair)
        for bad, kind in ((index.astype(float), "float64"), (index.tolist(), "list")):
            with pytest.raises(DomainError, match=rf"^coset index of type {kind} is not a signed integer array$"):
                sv.lemma_failures(pair, bad)

    @pytest.mark.parametrize("label", [-2, 7, 8, 5_000_000])
    def test_label_outside_range(self, label):
        # the labels are -1 off the units and a coset 0..q-1 on them; any
        # other is refused before a bincount is sized by it
        pair = PrimePair.create(3, 7)
        # int16 holds no 5,000,000, so the labels are widened first
        index = corrupt(sv.build_partition(pair).astype(np.int64), "label_q", 7)
        index[index == 7] = label
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"^coset index holds label {label}, outside -1\.\.6$"):
                sv.lemma_failures(pair, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def table_congruences(pair, index) -> dict[str, list[str]]:
    """The lemma 8 and 9 messages, from the torus pass and the q^2 pass,
    which also reads the polyphase parts."""
    failures = rs.residue_failures(pair, derive_generators(pair), index)[1]
    return {name: failures[name] for name in ("lemma8", "lemma9")}


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
            index = sv.build_partition(pair)
            if corruption:
                index = corrupt(index, corruption, q)
            idx = index.tolist()
            residues = {m: oracles._residue_pass(n, cyclotomic_f2(m).bits, idx, q)
                        for m in (p, q, p * q, q * q)}
            # the sum over every coset is the units indicator
            summed_n = functools.reduce(
                operator.xor, oracles._residue_pass(n, cyclotomic_f2(n).bits, idx, q), 0)
            want = residue_congruences(residues, pair, summed_n)
            assert table_congruences(pair, index) == want, (p, q)

    @pytest.mark.parametrize("corruption", (None, "doubled") + CORRUPTIONS)
    def test_match_per_coset_loop(self, corruption):
        # the messages against the loop that folded the sorted keys one coset
        # at a time
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            index = sv.build_partition(pair)
            if corruption:
                index = corrupt(index, corruption, q)
            counts = oracles._residue_counts(pair, index)
            residues = {m: oracles.coset_residues(counts[m], m, q) for m in (p, q, p * q, q * q)}
            want = residue_congruences(residues, pair, labelled_mod_phi_n(pair, index))
            assert table_congruences(pair, index) == want, (p, q, corruption)

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
        assert rs._off_phi_q2(keys, q) == [ell for ell, r in enumerate(residues) if r]


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
        columns = rs._torus_columns(p, q).ravel()   # the c of each cell
        batches = [[rand.getrandbits(pq) for _ in range(q)] for _ in range(2)]
        for m in (pq, p, q):
            phi = cyclotomic_f2(m).bits
            batches += [[c ^ _int_mul(rand.getrandbits(pq - phi.bit_length() + 1), phi)
                         for _ in range(q)] for c in (0, 1)]
        for rows in batches:
            # each row as torus counts: bit c at the cell of c, plus an even count
            counts = np.array([[2 * rand.randrange(3) + (row >> c & 1) for c in range(pq)]
                               for row in rows])
            torus = counts[:, columns]
            residues = {m: [_int_mod(row, cyclotomic_f2(m).bits) for row in rows] for m in (pq, p, q)}
            residues[q * q] = [0] * q
            # entry (a, b, ell + 1), with entry (a, b, 0) the rest of the q
            # labels of a cell
            torus = torus.reshape(q, p, q).transpose(1, 2, 0)
            torus = np.concatenate([q - torus.sum(axis=2, keepdims=True), torus], axis=2)
            failures = rs._torus_failures(pair, torus)[1]
            got = {name: failures[name] for name in ("lemma8", "lemma9")}
            assert got == residue_congruences(residues, pair, 0), (p, q)


class TestResidueTables:
    """The torus counts that residue_failures hands to the torus pass, summed
    over b and over a and read at the cell of each class mod pq, against a
    bincount per modulus and the np.unique keys and
    counts; the odd keys of the q^2 pass against the np.unique keys and
    counts mod q^2; the lemma 5-7 messages of residue_failures against the
    check on those keys (oracles._check_key_multisets)."""

    @pytest.mark.parametrize("variant", (None, "doubled") + CORRUPTIONS)
    def test_match_sorted_keys(self, monkeypatch, variant):
        # the q^2 pass hands the keys held an odd number of times to
        # _off_phi_q2, and residue_failures the torus counts to _torus_failures
        odd_keys, tori = [], []
        off_phi_q2, torus_failures = rs._off_phi_q2, rs._torus_failures
        monkeypatch.setattr(rs, "_off_phi_q2",
                            lambda keys, q: odd_keys.append(keys) or off_phi_q2(keys, q))
        monkeypatch.setattr(rs, "_torus_failures",
                            lambda pair, counts: tori.append(counts) or torus_failures(pair, counts))
        for p, q in SWEEP_PAIRS:
            pair = PrimePair.create(p, q)
            gens = derive_generators(pair)
            index = sv.build_partition(pair)
            if variant:
                index = corrupt(index, variant, q)
            odd_keys.clear()
            tori.clear()
            failures = rs.residue_failures(pair, gens, index)[1]
            torus = tori[0][..., 1:].transpose(2, 0, 1)   # entry (ell, a, b)
            tables = {p: torus.sum(axis=2), q: torus.sum(axis=1),
                      p * q: torus.reshape(q, p * q)[:, np.argsort(rs._torus_columns(p, q).ravel())]}
            per_modulus = oracles.residue_tables(pair, index)
            assert tables.keys() == per_modulus.keys()
            assert all(np.array_equal(tables[m], per_modulus[m]) for m in tables), (p, q)
            counts = oracles._residue_counts(pair, index)
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
            assert sorted(odd_keys[0].tolist()) == odd.tolist(), (p, q)
            # each message names one coset and one modulus, and the mod-p one
            # its dict: equal lists are equal bad-coset sets per m and equal dicts
            got = {name: failures[name] for name in ("lemma5", "lemma6", "lemma7")}
            assert got == oracles._check_key_multisets(pair, gens, counts), (p, q)
            assert any(got.values()) == (variant is not None), (p, q)
            # lemma 9's pq^2 term, read in the q^2 pass, reads the labels 0..q-1
            assert (PHI_N in failures["lemma9"]) == (labelled_mod_phi_n(pair, index) != 0), (p, q)

    def test_q2_targets_are_disjoint(self):
        # ghat^ell <g^q> mod q^2 (ell < q) are pairwise disjoint for the
        # generators the audit derives, so each column of the (p, q^2) view
        # expects one coset
        for p, q in enumerate_pairs(10**6):
            pair = PrimePair.create(p, q)
            gens = derive_generators(pair)
            q2 = q * q
            subgroup = sv._powers(pow(gens.g % q2, q, q2), q - 1, q2)
            target = np.outer(sv._powers(gens.ghat % q2, q, q2), subgroup) % q2
            assert np.unique(target).size == q * (q - 1), (p, q)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_q2_claims_are_the_cosets(self, monkeypatch, block):
        # the claims lifted from Fermat quotients label each unit column r of
        # the (p, q^2) view with the ell of ghat^ell <g^q> holding r, and the
        # rest -1, in blocks of whole periods q from r0 = 0 on
        if block:
            monkeypatch.setattr(limits, "BLOCK", block)
        for p, q in enumerate_pairs(10**5 if block else 10**6):
            pair = PrimePair.create(p, q)
            gens = derive_generators(pair)
            q2 = q * q
            subgroup = sv._powers(pow(gens.g % q2, q, q2), q - 1, q2)
            target = np.outer(sv._powers(gens.ghat % q2, q, q2), subgroup) % q2
            expected = np.full(q2, -1)
            expected[target] = np.arange(q)[:, None]
            starts, claims = zip(*rs._q2_claims(pair, gens))
            assert all(c.size % q == 0 for c in claims), (p, q)
            assert list(starts) == np.cumsum([0] + [c.size for c in claims[:-1]]).tolist(), (p, q)
            assert np.concatenate(claims).tolist() == expected.tolist(), (p, q, block)

    def test_swap_same_pq_reaches_only_q2(self):
        # the tables mod p, q and pq stay exact, so lemmas 5 and 6 hold while
        # the q^2 keys fail lemmas 7 and 8
        for p, q in [(3, 7), (5, 11), (5, 31), (3, 61)]:
            pair = PrimePair.create(p, q)
            clean = sv.build_partition(pair)
            index = corrupt(clean, "swap_same_pq", q)
            moved = np.flatnonzero(index != clean)
            assert moved.size == 2 and (moved[1] - moved[0]) % (p * q) == 0
            got = sv.lemma_failures(pair, index)
            assert not got["lemma5"] and not got["lemma6"], (p, q)
            assert got["lemma7"] and got["lemma8"], (p, q)


class TestLemma9PhiN:
    """Lemma 9's pq^2 term sums the labels 0..q-1 and reduces the q polyphase
    parts of that indicator by Phi_pq, since Phi_{pq^2}(x) = Phi_pq(x^q).  The
    q^2 pass reads the parts off the whole (p, q^2) view, so limits.BLOCK sizes
    only the blocks of lemma 7's claims, which the comparison walks and the
    q^2 pass joins; the verdict is the same at every block size."""

    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    @pytest.mark.parametrize("p,q", [(3, 7), (3, 13)])
    def test_verdict_matches_whole_reduction(self, monkeypatch, p, q, block):
        # the clean indicator, each one-flag flip of it, and multiples of
        # Phi_N (of degree below N) with and without one flag flipped
        if block:
            monkeypatch.setattr(limits, "BLOCK", block)
        pair = PrimePair.create(p, q)
        n = pair.period
        phi_n = cyclotomic_f2(n).bits
        clean = sv.build_partition(pair) >= 0
        rng = np.random.default_rng(11)
        multiples = [_int_mul(int(r), phi_n) for r in rng.integers(1, 1 << 40, size=4)]
        cases = [clean] + [clean ^ (np.arange(n) == t) for t in range(n)]
        cases += [flags_of(f ^ flip, n) for f in multiples
                  for flip in (0, 1, 1 << (n // 2), 1 << (n - 1))]
        verdicts = []
        for flags in cases:
            index = np.where(flags, 0, -1).astype(np.int32)
            verdicts.append(PHI_N in sv.lemma_failures(pair, index)["lemma9"])
            assert verdicts[-1] == (_int_mod(pack_flags(flags), phi_n) != 0)
        # only the clean indicator and the unflipped multiples hold
        assert verdicts.count(False) == 1 + len(multiples)
