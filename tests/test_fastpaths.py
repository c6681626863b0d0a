"""Differential tests: the fast kernels against the slow code they replaced.

The oracles in oracles.py are the previous Berlekamp-Massey loop, whose
length L the count-only loop must reach, the previous recursive-division
cyclotomic construction, the long divisions that shifted by zero, the
Euclidean minimal polynomial on the whole of x^N + 1, the per-bit fold, the
per-position Euler-quotient table with the threshold flags packed from it,
the per-bit loop that rendered polynomials, and the
per-character ASCII parser; sympy gives an outside check of the cyclotomic
polynomials and of their factors over GF(2).  The sub-block route is also
checked against Berlekamp-Massey on two whole periods, each sub-block's
residue and component against long division, and BM on the stride-s parts
of an irreducible sub-block against BM on its whole component.  The structural audit has its
own differential tests in test_audit_differential.py.
"""

import collections
import contextlib
import functools
import inspect
import json
import math
import random
import re
import signal
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy import Poly, cyclotomic_poly, factor_list, symbols
from sympy.ntheory import n_order

from eqseq import (
    BitSequence,
    Gf2Poly,
    PrimePair,
    build_partition,
    cyclotomic_f2,
    euler_quotient,
    generate_threshold,
)
from eqseq import (
    InternalConsistencyError, analyze_period, cli, eulerq, gf2poly, lincomp, sequence, verify_theorem,
)
from eqseq.cli import EXIT_OK, EXIT_USAGE, parse_ascii
from eqseq.errors import ParseError
from eqseq.gf2poly import (
    _cyclotomic_factors, _int_compose, _int_divmod, _int_mod, _int_mul, _int_polyphase,
)
from eqseq.lincomp import berlekamp_massey
from eqseq.ntcore import euler_phi, multiplicative_order

import oracles
from golden import SWEEP_PAIRS
from test_eulerq import lifted_table

# pairs with p not dividing q - 1: the lift holds for every pair, not only these
NON_DIVIDING_PAIRS = [(5, 7), (7, 3), (11, 13)]
SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]

# lengths around multiples of the truncation interval of berlekamp_massey, plus small ones
EDGE_LENGTHS = [1, 2, 3, 64, 2047, 2048, 2049, 4097]
lengths = st.sampled_from(EDGE_LENGTHS) | st.integers(min_value=1, max_value=4200)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_bits(seed: int, n: int) -> BitSequence:
    return BitSequence(bits=random.Random(seed).getrandbits(n), length=n, origin="external")


def lfsr_bits(seed: int, n: int) -> BitSequence:
    rng = random.Random(seed)
    register = rng.randint(1, max(1, min(n, 600)))
    connection = Gf2Poly((1 << register) | (rng.getrandbits(register) & ~1) | 1)
    start = BitSequence(bits=rng.getrandbits(register) | 1, length=register, origin="external")
    return oracles.synthesize_sequence(connection, start, n)


def periodic_bits(seed: int, n: int) -> BitSequence:
    # two copies of one random period; odd n continues into a third copy
    if n < 2:
        return random_bits(seed, n)
    two = oracles.two_periods(random_bits(seed, n // 2))
    return BitSequence(bits=two.bits | ((two.bits & 1) << two.length), length=n,
                       origin="external") if n % 2 else two


KINDS = {"random": random_bits, "lfsr": lfsr_bits, "periodic": periodic_bits}


def assert_same_as_oracle(seq: BitSequence) -> None:
    assert berlekamp_massey(seq) == oracles.berlekamp_massey(seq)[0]


class TestBerlekampMasseyDifferential:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_edge_lengths(self, kind, n):
        for seed in range(3):
            assert_same_as_oracle(KINDS[kind](seed, n))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, lengths)
    @example("random", 0, 2049)
    @example("lfsr", 1, 4097)
    @example("periodic", 2, 4096)
    def test_matches_oracle(self, kind, seed, n):
        assert_same_as_oracle(KINDS[kind](seed, n))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=40))
    def test_matches_oracle_with_frequent_truncation(self, kind, seed, n, every):
        # a short interval truncates many times within a small input
        seq = KINDS[kind](seed, n)
        expected = oracles.berlekamp_massey(seq)[0]
        saved = lincomp._TRUNCATE_EVERY
        lincomp._TRUNCATE_EVERY = every
        try:
            assert berlekamp_massey(seq) == expected
        finally:
            lincomp._TRUNCATE_EVERY = saved

    @pytest.mark.parametrize("n", [1, 2048, 2049, 4097])
    def test_all_zero_returns_at_once(self, monkeypatch, n):
        seq = BitSequence(bits=0, length=n, origin="external")
        # the loop would take n % 0 at its first step, so it never runs
        monkeypatch.setattr(lincomp, "_TRUNCATE_EVERY", 0)
        assert berlekamp_massey(seq) == 0
        assert oracles.berlekamp_massey(seq) == (0, Gf2Poly(1))

    def test_all_zero_and_all_one(self):
        for n in (2047, 2049):
            assert_same_as_oracle(BitSequence(bits=0, length=n, origin="external"))
            assert_same_as_oracle(BitSequence(bits=(1 << n) - 1, length=n, origin="external"))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, lengths, st.sampled_from([3, 40, 2048]))
    @example("periodic", 0, 4096, 2048)
    @example("random", 1, 300, 3)
    def test_count_only_matches_oracle_length(self, kind, seed, n, every):
        seq = KINDS[kind](seed, n)
        expected = oracles.berlekamp_massey(seq)[0]
        saved = lincomp._TRUNCATE_EVERY
        lincomp._TRUNCATE_EVERY = every
        try:
            assert berlekamp_massey(seq) == expected
        finally:
            lincomp._TRUNCATE_EVERY = saved

    def test_long_run_without_discrepancy(self):
        # a single 1 after many zeros: the bit tested must follow the shifts
        for n in (2047, 2048, 4097, 9000):
            seq = BitSequence(bits=1 << (n - 1), length=n, origin="external")
            assert_same_as_oracle(seq)
            assert berlekamp_massey(seq) == n


class TestBerlekampMasseyWindows:
    """The loop runs window by window, truncating at the start of each; the
    lengths around the window edges against the full BM that builds C."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", [511, 512, 513, 1023, 1024, 1025, 2049])
    def test_window_edges(self, kind, n):
        assert lincomp._TRUNCATE_EVERY == 512
        for seed in range(3):
            assert_same_as_oracle(KINDS[kind](seed, n))

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1024, 2049])
    def test_all_zero_and_single_one(self, n):
        assert_same_as_oracle(BitSequence(bits=0, length=n, origin="external"))
        for i in sorted({0, n // 2, 511 % n, 512 % n, n - 1}):
            seq = BitSequence(bits=1 << i, length=n, origin="external")
            assert_same_as_oracle(seq)
            assert berlekamp_massey(seq) == i + 1

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.integers(min_value=1, max_value=2600))
    @example("lfsr", 0, 1536)
    @example("periodic", 1, 1025)
    def test_matches_oracle(self, kind, seed, n):
        assert_same_as_oracle(KINDS[kind](seed, n))


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError instead of hanging: a division loop whose shift is
    off by one never ends, and each call here takes well under a millisecond."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_divisions_match(f: int, g: int) -> None:
    with time_limit(1.0):
        got = _int_mod(f, g), _int_divmod(f, g)
    assert got == (oracles.int_mod(f, g), oracles.int_divmod(f, g))


class TestIntDivisionDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**700), st.integers(min_value=1, max_value=2**300))
    @example(0, 1)
    @example(0b111, 0b1)
    @example(0b110, 0b11)
    @example(0b1011, 0b1001)
    def test_matches_shifting_loop(self, f, g):
        assert_divisions_match(f, g)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=400), seeds)
    def test_equal_degrees(self, degree, seed):
        # every step of these divisions ends on a zero shift
        rng = random.Random(seed)
        g = (1 << degree) | rng.getrandbits(degree)
        assert_divisions_match(g ^ rng.getrandbits(degree), g)
        assert_divisions_match((g << 1) ^ rng.getrandbits(degree + 1), g)


def assert_block_route_matches(seq: BitSequence) -> None:
    """The block route, which runs both LC routes on every sub-block, against
    the Euclidean oracle and whole-period BM."""
    want = oracles.minimal_polynomial_gcd(seq)
    assert analyze_period(seq)[1] == want
    assert berlekamp_massey(oracles.two_periods(seq)) == want.degree


# N prime, a power of 2, even with an odd part, odd with many divisors
SPECIAL_LENGTHS = [1, 2, 4099, 4096, 6930, 15015, 61425]


class TestBlockRouteDifferential:
    @pytest.mark.parametrize("p, q", SWEEP_PAIRS)
    def test_sweep_pairs(self, p, q):
        assert_block_route_matches(generate_threshold(PrimePair.create(p, q)))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.integers(min_value=1, max_value=3000))
    @example("random", 0, 2)
    @example("lfsr", 1, 2048)
    @example("periodic", 2, 1890)
    def test_matches_oracle(self, kind, seed, n):
        assert_block_route_matches(KINDS[kind](seed, n))

    @pytest.mark.parametrize("n", SPECIAL_LENGTHS)
    @pytest.mark.parametrize("kind", ["random", "lfsr"])
    def test_special_lengths(self, kind, n):
        assert_block_route_matches(KINDS[kind](n, n))

    def test_all_zero_and_all_one(self):
        for n in (1, 6, 147, 4096):
            assert_block_route_matches(BitSequence(bits=0, length=n, origin="external"))
            assert_block_route_matches(BitSequence(bits=(1 << n) - 1, length=n, origin="external"))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.integers(min_value=1, max_value=3000))
    @example("random", 0, 61425 // 25)
    @example("periodic", 1, 1890)
    def test_fold_and_reduction_match_per_bit_loops(self, kind, seed, n):
        # each sub-block's gcd-route polynomial and component against long
        # division; a sub-block is left out on both routes or on neither, and
        # only where it holds no part of the fold: G | u exactly when
        # x^d + 1 | u (x^d + 1) / G, so the two routes see 0 alike
        seq = KINDS[kind](seed, n)
        subs = list(lincomp._sub_blocks(seq))
        for block in lincomp._blocks(n):
            d = block.d
            u = lincomp._fold(seq.bits, n, d)
            assert u == oracles.fold(seq.bits, n, d), d
            walked = [sub for sub in subs if sub.d == d]
            assert [(sub.factor, sub.stride) for sub in walked] == [
                (f, block.stride) for f in block.tree.leaves], d
            for sub in walked:
                g = _int_compose(sub.factor, sub.stride)
                w = oracles.int_mod(u, g)
                assert (sub.minpoly is None) == (sub.component is None), (d, g)
                if sub.minpoly is None:
                    assert w == 0 and block.tree.children, (d, g)
                    continue
                assert sub.minpoly == oracles.sub_minpoly(g, w, d), (d, g)
                assert sub.component == oracles.component(u, g, d), (d, g)

    @pytest.mark.parametrize("n", [1, 2, 12, 147, 256, 6930, 15015])
    def test_blocks_are_the_cyclotomic_factors(self, n):
        k = (n & -n).bit_length() - 1
        blocks = lincomp._blocks(n)
        assert [b.d for b in blocks] == [d for d in range(1, n + 1)
                                         if n % d == 0 and d % (1 << k) == 0]
        for block in blocks:
            phi_e = oracles.cyclotomic_bits(block.d >> k)
            power = phi_e
            for _ in range(k):
                power = _int_mul(power, power)
            factor = _int_compose(block.tree.poly, block.stride)
            assert factor == power == _int_compose(phi_e, 1 << k)
            assert _int_mul(factor, block.cofactor) == (1 << block.d) | 1


class TestBlockRuntimeChecks:
    def test_factors_must_multiply_to_x_n_plus_1(self, monkeypatch, pair37):
        # x^r + 1 in place of Phi_r and of its factor list: each block is
        # self-consistent, the product is not
        monkeypatch.setattr(lincomp, "_cyclotomic_pair", lambda r: ((1 << r) | 1, 1))
        monkeypatch.setattr(lincomp, "_cyclotomic_factors", lambda r: ((1 << r) | 1,))
        seq = generate_threshold(pair37)
        for route in (lambda: analyze_period(seq), lambda: verify_theorem(pair37)):
            with pytest.raises(InternalConsistencyError,
                               match=r"^cyclotomic blocks do not multiply to x\^147 \+ 1$"):
                route()

    @pytest.mark.parametrize("change", ["drop", "duplicate"])
    def test_factor_list_must_be_complete(self, monkeypatch, pair37, change):
        # Phi_21 has two factors over GF(2); the list loses or repeats one
        real = lincomp._cyclotomic_factors

        def factors(r):
            out = real(r)
            if len(out) < 2:
                return out
            return out[1:] if change == "drop" else out + out[:1]

        monkeypatch.setattr(lincomp, "_cyclotomic_factors", factors)
        seq = generate_threshold(pair37)
        for route in (lambda: analyze_period(seq), lambda: verify_theorem(pair37)):
            with pytest.raises(InternalConsistencyError,
                               match=r"^cyclotomic blocks do not multiply to x\^147 \+ 1$"):
                route()

    def test_cofactor_must_complete_the_factor(self, monkeypatch):
        # H_21 = H_3(x^7) Phi_3: a wrong H_3(x^7) leaves Phi_21 right, so only
        # the product check where the pair is built sees it
        real = gf2poly._int_compose
        monkeypatch.setattr(gf2poly, "_int_compose",
                            lambda f, k: real(f, k) ^ (0b10 if f == 0b11 else 0))
        with pytest.raises(InternalConsistencyError, match=r"^cyclotomic cofactor for n=21 is wrong$"):
            gf2poly._cyclotomic_pair.__wrapped__(21)

    def test_wrong_cofactor_reaches_the_routes(self, monkeypatch, pair37):
        # a wrong H handed to the blocks starts the component walk wrong; the
        # first block it moves is the top one, whose sub-blocks f(x^7) are
        # irreducible, so BM reads the component's 7 parts, and one of them
        # reads an LC that is neither 0 nor deg f = 6
        real = lincomp._cyclotomic_pair
        monkeypatch.setattr(lincomp, "_cyclotomic_pair", lambda r: (real(r)[0], real(r)[1] ^ 0b10))
        with pytest.raises(InternalConsistencyError, match=r"^parts of \(3, 7\) in block d=147 read "
                           r"LCs \[(\d+, )+\d+\], not 0 or 6$"):
            analyze_period(generate_threshold(pair37))

    def test_block_routes_must_agree(self, monkeypatch, pair37):
        # filtering by the factor instead of the cofactor picks the wrong component
        real = lincomp._blocks
        monkeypatch.setattr(lincomp, "_blocks", lambda n: [
            b._replace(cofactor=_int_compose(b.tree.poly, b.stride)) for b in real(n)])
        with pytest.raises(InternalConsistencyError,
                           match=r"^LC disagreement for \(3, 7\) in block d=\d+: gcd=\d+, bm=\d+$"):
            analyze_period(generate_threshold(pair37))


def polyphase_parts(u: int, s: int, d: int) -> list[int]:
    """The s polyphase parts of u, of degree below d, one bit at a time."""
    return [sum(((u >> (j + i * s)) & 1) << i for i in range(d // s)) for j in range(s)]


def spy_component_lc(monkeypatch) -> list:
    """The records that `_component_lc` runs BM on from here on, in order."""
    runs = []
    real = lincomp._component_lc
    monkeypatch.setattr(lincomp, "_component_lc",
                        lambda sub, origin: runs.append(sub) or real(sub, origin))
    return runs


def sub_block_parts(sub) -> int:
    """The parts BM splits a sub-block's component into: s where G = f(x^s)
    is irreducible, of degree ord_d(2) for odd d (by sympy), else 1."""
    degree = (sub.factor.bit_length() - 1) * sub.stride
    irreducible = sub.d % 2 and sub.d > 1 and degree == n_order(2, sub.d)
    return sub.stride if irreducible else 1


class TestPolyphaseKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=40), seeds)
    @example(1, 1, 0)
    @example(7, 21, 1)
    def test_matches_per_bit_loop(self, s, r, seed):
        # the parts of f of degree below d = r s, each with r digits, and
        # f = sum_j x^j f_j(x^s) back from them
        d = r * s
        f = random.Random(seed).getrandbits(d)
        parts = _int_polyphase(f, s, d)
        assert parts == polyphase_parts(f, s, d)
        whole = 0
        for j, x in enumerate(parts):
            whole ^= _int_compose(x, s) << j
        assert whole == f


class TestGcdRouteWalk:
    @pytest.mark.parametrize("seq", [
        *(generate_threshold(PrimePair.create(p, q)) for p, q in [(3, 7), (5, 11), (3, 61), (23, 47)]),
        *(random_bits(n, n) for n in [63, 189, 1890, 2457]),
        BitSequence(bits=0, length=147, origin="external"),
    ], ids=lambda seq: f"{seq.origin}-{seq.length}")
    def test_parts_read(self, monkeypatch, seq):
        # an irreducible sub-block closes at its first nonzero part, and the
        # walk reads no part once every sub-block is closed; a block whose
        # sub-blocks split reads every part
        # every part read is reduced by the root, Phi_r, and nothing else is
        divisors = []
        real = lincomp._int_mod

        def counting(f, g):
            divisors.append(g)
            return real(f, g)

        monkeypatch.setattr(lincomp, "_int_mod", counting)
        read = []
        for block in lincomp._blocks(seq.length):
            u = lincomp._fold(seq.bits, seq.length, block.d)
            divisors.clear()
            list(lincomp._walk(u, block))
            read.append(divisors.count(block.tree.poly))
            s, leaves = block.stride, block.tree.leaves
            parts = polyphase_parts(u, s, block.d)
            if (leaves[0].bit_length() - 1) * s == block.order:
                first = [next((j for j, a in enumerate(parts) if oracles.int_mod(a, f)), s)
                         for f in leaves]
                assert read[-1] == min(s, max(first) + 1), block.d
            else:
                assert read[-1] == s, block.d

    # pairs with a zero block of several sub-blocks: d = 49, 39, 31, 31, 43
    @pytest.mark.parametrize("p, q", [(3, 7), (3, 13), (3, 31), (5, 31), (3, 43)])
    def test_walks_leave_out_what_an_inner_node_divides(self, monkeypatch, p, q):
        # a sub-block under an inner node whose product divides u is left out
        # on both routes and run by neither; a single leaf is always run
        def divided(node, u, s, above=False):
            if not node.children:
                return [above]
            here = above or oracles.int_mod(u, _int_compose(node.poly, s)) == 0
            return [x for child in node.children for x in divided(child, u, s, here)]

        seq = generate_threshold(PrimePair.create(p, q))
        want = [x for block in lincomp._blocks(seq.length)
                for x in divided(block.tree, lincomp._fold(seq.bits, seq.length, block.d), block.stride)]
        subs = list(lincomp._sub_blocks(seq))
        assert [sub.minpoly is None for sub in subs] == want
        assert [sub.component is None for sub in subs] == want
        assert any(want)
        runs = spy_component_lc(monkeypatch)
        lincomp._minpolys_by_block(seq)
        assert runs == [sub for sub in subs if sub.component is not None]
        assert [sub.parts for sub in runs] == [sub_block_parts(sub) for sub in runs]

    def test_residue_degree_is_guarded(self, monkeypatch):
        # a residue too long for its sub-block is an internal error, not a
        # ValueError from the interleaving
        monkeypatch.setattr(lincomp, "_int_mod", lambda f, g: f)
        block = lincomp._blocks(63)[-1]
        with pytest.raises(InternalConsistencyError,
                           match=r"^residue of degree \d+ exceeds its sub-block in block d=63$"):
            list(lincomp._walk(random_bits(5, 63).bits, block))


def mutate(monkeypatch, name: str, old: str, new: str, module=lincomp) -> None:
    """Patch module.<name> (lincomp's by default) with its own source, old
    replaced by new."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


STEP = "_times_mod(v, _int_compose(sibling.poly, s), d)"
ROOT = ("walk(block.tree, reduced(enumerate(phases), block.tree.poly),\n"
        "                    _times_mod(u, block.cofactor, d))")
# fault of _walk: (old, new, verify's outcomes over the sweep pairs), an outcome
# being a match (exit 0) or one error line (exit 1), read as the leaf-order
# check's where it names the leaves
WALK_FAULTS = {
    "right_component_zeroed": (STEP, f"0 if child is right else {STEP}", {"error": 36}),
    "component_times_child": ("sibling.poly", "child.poly", {"error": 19, "match": 17}),
    "residue_by_sibling": ("reduced(branch, child.poly)", "reduced(branch, sibling.poly)",
                           {"error": 9, "match": 27}),
    "children_reversed": ("((left, right), (right, left))", "((right, left), (left, right))",
                          {"leaf order": 36}),
    "one_leaf_short": (ROOT, f"itertools.islice({ROOT}, max(len(block.tree.leaves) - 1, 1))",
                       {"leaf order": 36}),
}


class TestWalkMutations:
    """Faults in the one walk.  The routes are carried apart, M comes from the
    gcd route and `_sub_blocks` checks the walk's factors against the tree's
    leaves, so a fault ends in InternalConsistencyError or leaves M right:
    never a theorem mismatch (exit 3), never a traceback.  A walk that visits
    the sub-blocks in another order, or misses one, is an error that names
    the block, even where the LCs it yields would all agree."""

    @pytest.mark.parametrize("fault", sorted(WALK_FAULTS))
    def test_sweep_pairs(self, monkeypatch, capsys, fault):
        old, new, expected = WALK_FAULTS[fault]
        mutate(monkeypatch, "_walk", old, new)
        outcomes = []
        for p, q in SWEEP_PAIRS:
            code = cli.main(["verify", "--p", str(p), "--q", str(q)])
            out, err = capsys.readouterr()
            if code == EXIT_OK:
                assert json.loads(out)["match"], (p, q)
                outcomes.append("match")
            else:
                assert code == EXIT_USAGE and out == "", (p, q)
                assert err.startswith("eqseq: error: ") and err.count("\n") == 1, (p, q)
                leaves = re.fullmatch(rf"eqseq: error: the LC walk of \({p}, {q}\) misses the "
                                      rf"leaf order of block d=\d+\n", err)
                outcomes.append("leaf order" if leaves else "error")
        assert collections.Counter(outcomes) == expected

    @pytest.mark.parametrize("fault", sorted(WALK_FAULTS))
    def test_split_and_even_lengths(self, monkeypatch, fault):
        seqs = [random_bits(n, n) for n in SPLIT_D + [126, 1890, 2457, 4096]]
        wants = [oracles.minimal_polynomial_gcd(seq) for seq in seqs]
        mutate(monkeypatch, "_walk", *WALK_FAULTS[fault][:2])
        caught = 0
        for seq, want in zip(seqs, wants):
            try:
                got = analyze_period(seq)[1]
            except InternalConsistencyError:
                caught += 1
            else:
                assert got == want, seq.length
        assert caught > 0

    def test_short_walk_is_an_internal_error(self, monkeypatch, pair37):
        # Phi_7 has two factors over GF(2), so d = 7 is the first block to lose one
        mutate(monkeypatch, "_walk", *WALK_FAULTS["one_leaf_short"][:2])
        with pytest.raises(InternalConsistencyError, match=r"^the LC walk of \(3, 7\) misses "
                           r"the leaf order of block d=7$"):
            analyze_period(generate_threshold(pair37))


# the pairs on which, before the weight and row checks, the threshold one coset
# up and the lift step (phi + 1)*r^-1 each passed for a theorem mismatch
WEIGHT_PAIRS = [(3, 7), (5, 11), (3, 19), (7, 29), (3, 31), (5, 41), (11, 23), (3, 181)]


class TestThresholdWeight:
    """When p | q-1 the period's ones are the (q-1)/2 upper cosets of
    phi(pq) units each, and generate_threshold checks that weight.  A
    threshold one coset up, psi >= (pq + 1)/2 + p (the bits of 2 psi >= pq +
    2p), drops the lowest upper coset; verify must stop on it with one error
    line (exit 1), not call it a theorem mismatch (exit 3)."""

    def test_threshold_one_coset_up(self, monkeypatch, capsys):
        mutate(monkeypatch, "generate_threshold", "(rows, (pq + 1) // 2,",
               "(rows, (pq + 1) // 2 + pair.p,", module=sequence)
        monkeypatch.setattr(lincomp, "generate_threshold", sequence.generate_threshold)
        for p, q in WEIGHT_PAIRS:
            code = cli.main(["verify", "--p", str(p), "--q", str(q)])
            out, err = capsys.readouterr()
            assert (code, out) == (EXIT_USAGE, ""), (p, q)
            phi = (p - 1) * (q - 1)
            assert err == (f"eqseq: error: threshold sequence of ({p}, {q}) has weight "
                           f"{(q - 3) // 2 * phi}, expected (q-1)/2 * phi(pq) = {(q - 1) // 2 * phi}\n")


class TestRowCheck:
    """`_residue_quotients` checks row 1 of the lift against one modular
    power per unit, so the threshold and build_partition both run the check.
    A lift step of (phi + 1)*r^-1 in place of phi*r^-1 leaves row 0 right
    and moves every other row; where p | q-1 it also moves the period's
    weight, and the index refuses the same row as not divisible by p.  A
    step of (phi + p)*r^-1 keeps p dividing every row, so neither the weight
    nor that refusal sees it, and without the row check verify calls it a
    theorem mismatch and structure reports lemma 2 failures (exit 3).
    Outside p | q-1 no weight is checked.  verify, and structure where
    p | q-1, must stop on either fault with the row check's one error line
    (exit 1)."""

    @pytest.mark.parametrize("shift", ["1", "pair.p"], ids=["phi_plus_1", "phi_plus_p"])
    def test_lift_step_off(self, monkeypatch, capsys, shift):
        mutate(monkeypatch, "_residue_quotients", "pair.phi_pq * pow(r, -1, pq)",
               f"(pair.phi_pq + {shift}) * pow(r, -1, pq)", module=eulerq)
        for p, q in WEIGHT_PAIRS + NON_DIVIDING_PAIRS:
            # r = 1 is the first unit: psi(1 + pq) = phi, and the lift gives phi + shift
            t, phi = 1 + p * q, (p - 1) * (q - 1)
            lifted = phi + (1 if shift == "1" else p)
            for command in ["verify", "structure"] if (p, q) in WEIGHT_PAIRS else ["verify"]:
                code = cli.main([command, "--p", str(p), "--q", str(q)])
                out, err = capsys.readouterr()
                assert (code, out) == (EXIT_USAGE, ""), (command, p, q)
                assert err == (f"eqseq: error: row check of ({p}, {q}): psi({t}) = {phi}, "
                               f"but the lift gives {lifted}\n"), (command, p, q)


def odd_squarefree(limit: int) -> list[int]:
    return [r for r in range(1, limit + 1, 2)
            if all(r % (p * p) for p in range(3, math.isqrt(r) + 1, 2))]


def sympy_factors_mod2(n: int) -> list[int]:
    x = symbols("x")
    out = []
    for factor, _ in factor_list(cyclotomic_poly(n, x), x, modulus=2)[1]:
        bits = 0
        for c in Poly(factor, x).all_coeffs():
            bits = (bits << 1) | (int(c) & 1)
        out.append(bits)
    return sorted(out)


class TestCyclotomicFactors:
    """Every irreducible factor of Phi_r over GF(2) has degree ord_r(2), so a
    list of phi(r) / ord_r(2) polynomials of that degree whose product is
    Phi_r is the factorization."""

    def test_count_degree_and_product(self):
        limit = 2000
        for r in odd_squarefree(limit) + [1731, 60029]:
            factors = _cyclotomic_factors(r)
            order = multiplicative_order(2, r) if r > 1 else 1
            assert len(factors) == euler_phi(r) // order, r
            assert all(f.bit_length() - 1 == order for f in factors), r
            assert list(factors) == sorted(set(factors)), r
            phi = oracles.cyclotomic_bits(r) if r <= limit else cyclotomic_f2(r).bits
            assert functools.reduce(_int_mul, factors) == phi, r

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # sympy's own sort of GF(2) factors
    def test_matches_sympy(self):
        # sympy factors mod 2 in pure Python: about a minute for r < 400 and
        # a minute and a half for r = 1731, so it checks the small r and two
        # with many factors
        for r in odd_squarefree(127) + [543, 1365]:
            assert list(_cyclotomic_factors(r)) == sympy_factors_mod2(r), r

    def test_sub_blocks_of_the_top_block(self, monkeypatch, pair37):
        # N = 147: Phi_21 = f_1 f_2 over GF(2), so the top block has two
        # sub-blocks f_i(x^7) of degree 42, each run by both routes
        top = lincomp._blocks(147)[-1]
        assert top.d == 147 and top.stride == 7
        assert [leaf.poly for leaf in top.tree.children] == list(_cyclotomic_factors(21))
        # ord_147(2) = 42, so both are irreducible and BM runs on their 7 parts
        assert top.order == 42
        runs = spy_component_lc(monkeypatch)
        report = lincomp.verify_theorem(pair37)
        assert report.match and dict(report.lc_by_divisor)[147] == 84
        assert [(sub.factor, sub.parts) for sub in runs if sub.d == 147] == [
            (f, 7) for f in _cyclotomic_factors(21)]


def sympy_factor_multiplicities(bits: int) -> list[int]:
    """The multiplicity of each irreducible factor of a GF(2)[x] polynomial."""
    coeffs = [(bits >> i) & 1 for i in range(bits.bit_length() - 1, -1, -1)]
    return [m for _, m in Poly(coeffs, symbols("x"), modulus=2).factor_list()[1]]


def tree_leaves(node) -> list[int]:
    return [node.poly] if not node.children else [
        leaf for child in node.children for leaf in tree_leaves(child)]


def assert_gcd_route_matches_euclid(seq: BitSequence) -> None:
    """On every sub-block: the gcd route equals Euclid everywhere (1 where it
    leaves a sub-block out), a sub-block of degree ord_d(2) gets 1 or G from
    Euclid, and the route calls Euclid exactly on the sub-blocks of any other
    degree that it runs, in leaf order."""
    euclid = []
    real = lincomp.gcd

    def spy(f, g):
        euclid.append(f.bits)
        return real(f, g)

    with mock.patch.object(lincomp, "gcd", spy):
        for block in lincomp._blocks(seq.length):
            u = lincomp._fold(seq.bits, seq.length, block.d)
            euclid.clear()
            ran = []
            for sub in lincomp._walk(u, block):
                g = _int_compose(sub.factor, block.stride)
                want = oracles.sub_minpoly(g, oracles.int_mod(u, g), block.d)
                irreducible = g.bit_length() - 1 == block.order
                if irreducible:
                    assert want in (1, g), (block.d, g)
                assert (1 if sub.minpoly is None else sub.minpoly) == want, (block.d, g)
                if sub.minpoly is not None and not irreducible:
                    ran.append(g)
            assert euclid == ran, block.d


# the odd d < 200 whose sub-blocks f(x^s) split, since ord_d(2) is below
# their degree s ord_r(2): 6 < 18 at 63 = 9 * 7, 12 < 36 at 117 = 9 * 13,
# 18 < 54 at 171 = 9 * 19 and at 189 = 27 * 7
SPLIT_D = [63, 117, 171, 189]


class TestIrreducibleSubBlocks:
    """For odd d every GF(2) factor of Phi_d has degree ord_d(2), so a
    sub-block of that degree is irreducible and the gcd route decides it by
    whether its residue is 0; Euclid on every sub-block is the oracle."""

    @pytest.mark.parametrize("p, q", SWEEP_PAIRS + NON_DIVIDING_PAIRS)
    def test_pairs_match_euclid(self, p, q):
        assert_gcd_route_matches_euclid(generate_threshold(PrimePair.create(p, q)))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds,
           st.integers(min_value=0, max_value=1500).map(lambda k: 2 * k + 1))
    @example("lfsr", 0, 63)
    @example("random", 1, 189)
    @example("periodic", 2, 3 * 63)
    @example("random", 3, 1)
    def test_odd_lengths_match_euclid(self, kind, seed, n):
        assert_gcd_route_matches_euclid(KINDS[kind](seed, n))

    @pytest.mark.parametrize("n", [2, 12, 126, 4096])
    def test_even_lengths_always_run_euclid(self, n):
        assert all(block.order == 0 for block in lincomp._blocks(n))
        assert_gcd_route_matches_euclid(random_bits(n, n))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # sympy's own sort of GF(2) factors
    def test_verdict_matches_sympy(self):
        # the degree test calls a sub-block irreducible exactly when sympy
        # finds one factor of multiplicity 1; even d always splits
        verdicts = {}
        for d in list(range(1, 200, 2)) + [2, 6, 12, 18, 20]:
            block = lincomp._blocks(d)[-1]
            assert block.d == d
            for leaf in tree_leaves(block.tree):
                g = _int_compose(leaf, block.stride)
                verdict = g.bit_length() - 1 == block.order
                assert verdict == (sympy_factor_multiplicities(g) == [1]), (d, g)
                verdicts.setdefault(d, set()).add(verdict)
        assert {d for d, v in verdicts.items() if False in v} == {
            2, 6, 12, 18, 20, *SPLIT_D}

    def test_order_matches_sympy(self):
        # the order behind every verdict, certified in _blocks, for each odd
        # d | N at the sweep pairs and the two widest strides in budget
        for p, q in SWEEP_PAIRS + [(3, 577), (17, 239)]:
            for block in lincomp._blocks(p * q * q):
                assert block.order == (n_order(2, block.d) if block.d > 1 else 1), (p, q, block.d)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # sympy's own sort of GF(2) factors
    def test_certificate_catches_a_wrong_order(self, monkeypatch, capsys):
        # an LFSR whose minimal polynomial is one degree-6 factor of Phi_63:
        # it lies in a sub-block f(x^3) of degree 18 that splits into three
        h = sympy_factors_mod2(63)[0]
        seed = BitSequence(bits=1, length=6, origin="lfsr")
        seq = oracles.synthesize_sequence(Gf2Poly(h), seed, 63)
        assert analyze_period(seq) == (63, Gf2Poly(h))
        # ord_63(2) read as 18, the degree of those sub-blocks, calls them
        # irreducible on both routes at once: the gcd route keeps G, and each
        # of BM's three parts reads deg f = 6, so both reach LC 18; only the
        # certificate of the order stands between that and a wrong answer
        real = lincomp.multiplicative_order
        monkeypatch.setattr(lincomp, "multiplicative_order",
                            lambda a, n: 3 * real(a, n) if n == 63 else real(a, n))
        with monkeypatch.context() as uncertified:
            uncertified.setattr(lincomp, "certified_order", lambda a, k, n: k)
            assert analyze_period(seq)[1].degree == 18
        with pytest.raises(InternalConsistencyError, match=r"^ord_63\(2\) = 18 fails its certificate$"):
            analyze_period(seq)
        # twice the order, through the command line: one error line, exit 1
        monkeypatch.setattr(lincomp, "multiplicative_order", lambda a, n: 2 * real(a, n))
        assert cli.main(["verify", "--p", "3", "--q", "7"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "eqseq: error: ord_3(2) = 4 fails its certificate\n")


def lfsr_61425(seed: int) -> BitSequence:
    """An LFSR built as perfbench's analyze input is: 42 distinct irreducible
    polynomials of degree 12 (sympy's test) make a 504-bit register whose
    period divides 2^12 - 1, run for 15 (2^12 - 1) = 61425 bits."""
    rng = random.Random(seed)
    factors = set()
    while len(factors) < 42:
        f = (1 << 12) | rng.getrandbits(12) | 1
        if Poly([(f >> i) & 1 for i in range(12, -1, -1)], symbols("x"), modulus=2).is_irreducible:
            factors.add(f)
    connection = Gf2Poly(functools.reduce(_int_mul, sorted(factors)))
    start = BitSequence(bits=rng.getrandbits(504) | 1, length=504, origin="lfsr")
    return oracles.synthesize_sequence(connection, start, 61425)


class TestPolyphaseBerlekampMassey:
    """Where G = f(x^s) is irreducible, BM runs on the s stride-s parts of
    the component, each 2 deg f bits of two periods, every part must read LC
    0 or deg f, and LC = s max_j LC(v_j); BM on the whole component, as the
    route ran before, is the oracle."""

    @staticmethod
    def assert_parts_match_whole(seq: BitSequence) -> int:
        split = 0
        for sub in lincomp._sub_blocks(seq):
            if sub.component is None:
                continue
            assert sub.parts == sub_block_parts(sub), (sub.d, sub.factor)
            degree = (sub.factor.bit_length() - 1) * sub.stride
            want = oracles.component_lc(sub.component, degree, sub.d)
            assert lincomp._component_lc(sub, seq.origin) == want, (sub.d, sub.factor)
            split += sub.parts > 1 and want > 0
        return split

    def test_sweep_pairs(self):
        split = sum(self.assert_parts_match_whole(generate_threshold(PrimePair.create(p, q)))
                    for p, q in SWEEP_PAIRS)
        assert split >= len(SWEEP_PAIRS)   # every top block is read in parts

    def test_lfsr_input(self):
        # its LC lies in the blocks d | 4095; at d = 45 = 9 * 5 its sub-blocks
        # f(x^3), f | Phi_15, are irreducible and read in 3 parts
        seq = lfsr_61425(1)
        assert analyze_period(seq)[1].degree == 504
        assert self.assert_parts_match_whole(seq) >= 1

    @pytest.fixture
    def top(self, pair37):
        # a record of N = 147's top block: G = f(x^7), deg f = 6, irreducible
        sub = next(sub for sub in lincomp._sub_blocks(generate_threshold(pair37)) if sub.d == 147)
        assert (sub.parts, sub.factor.bit_length() - 1) == (7, 6)
        return sub

    @pytest.mark.parametrize("bit, lcs", [(2, "[0, 3]"), (6, "[0, 7]")],
                             ids=["between_0_and_deg_f", "deg_f_plus_1"])
    def test_part_check(self, top, bit, lcs):
        # part 0 of a component holding one 1, at bit 7 i, has that 1 at
        # its bit i and LC i + 1: 3 lies strictly between 0 and deg f, and 7
        # is deg f + 1; the other parts are 0
        forged = top._replace(component=1 << (7 * bit))
        with pytest.raises(InternalConsistencyError, match=rf"^parts of \(3, 7\) in block d=147 read "
                           rf"LCs {re.escape(lcs)}, not 0 or 6$"):
            lincomp._component_lc(forged, (3, 7))

    def test_component_of_lc_deg_f_plus_1(self, top):
        # minimal polynomial x^7 + 1, of degree deg f + 1, does not divide G:
        # every part of the period-7 pulse train is constant, and part 0,
        # all ones, reads LC 1
        pulses = sum(1 << i for i in range(0, 147, 7))
        assert oracles.component_lc(pulses, 42, 147) == 7
        with pytest.raises(InternalConsistencyError, match=r"^parts of \(3, 7\) in block d=147 read "
                           r"LCs \[0, 1\], not 0 or 6$"):
            lincomp._component_lc(top._replace(component=pulses), (3, 7))


def sympy_cyclotomic_mod2(n: int) -> Gf2Poly:
    bits = 0
    for c in cyclotomic_poly(n, symbols("x"), polys=True).all_coeffs():
        bits = (bits << 1) | (int(c) & 1)
    return Gf2Poly(bits)


class TestCyclotomicDifferential:
    def test_matches_recursive_oracle(self):
        for n in range(1, 2001, 2):
            assert cyclotomic_f2(n).bits == oracles.cyclotomic_bits(n), n

    def test_matches_sympy_small(self):
        for n in range(1, 400, 2):
            assert cyclotomic_f2(n) == sympy_cyclotomic_mod2(n), n

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=200, max_value=1000).map(lambda k: 2 * k + 1))
    @example(1155)  # 3*5*7*11, squarefree with four primes
    @example(1575)  # 3^2*5^2*7, not squarefree
    @example(1999)  # prime
    @example(2001)  # 3*23*29
    def test_matches_sympy_large(self, n):
        assert cyclotomic_f2(n) == sympy_cyclotomic_mod2(n)

    # primes above 2001, and m*p with a large prime p
    @pytest.mark.parametrize("n", [2003, 4099, 3 * 2003, 3 * 5 * 1009])
    def test_matches_sympy_large_prime_factor(self, n):
        assert cyclotomic_f2(n) == sympy_cyclotomic_mod2(n)

    def test_prime_is_all_ones(self):
        for p in (3, 2003, 60029):
            assert cyclotomic_f2(p).bits == (1 << p) - 1


class TestRenderDifferential:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**3000))
    @example(0)
    @example(1)
    @example(2)
    @example(3)
    def test_matches_per_bit_loop(self, bits):
        poly = Gf2Poly(bits)
        assert poly.render() == oracles.render(bits)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=20_000), max_size=8))
    @example({60029, 0})
    def test_sparse_matches_per_bit_loop(self, degrees):
        bits = sum(1 << d for d in degrees)
        assert Gf2Poly(bits).render() == oracles.render(bits)

    def test_large_random(self):
        rng = random.Random(7)
        for n in (64, 65, 4097, 160_000):
            bits = rng.getrandbits(n) | (1 << (n - 1))
            assert Gf2Poly(bits).render() == oracles.render(bits)


class TestEulerTableDifferential:
    @pytest.mark.parametrize("p, q", SWEEP_PAIRS + NON_DIVIDING_PAIRS)
    def test_matches_per_position_loop(self, p, q):
        pair = PrimePair.create(p, q)
        assert lifted_table(pair).tolist() == oracles.build_table(pair)

    @pytest.mark.parametrize("p, q", SWEEP_PAIRS + NON_DIVIDING_PAIRS)
    def test_threshold_matches_per_entry_flags(self, p, q):
        pair = PrimePair.create(p, q)
        assert generate_threshold(pair).bits == oracles.generate_threshold(pair)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.sampled_from(SMALL_PRIMES))
    def test_small_pairs(self, p, q):
        assume(p != q)
        pair = PrimePair.create(p, q)
        assert lifted_table(pair).tolist() == oracles.build_table(pair)
        assert generate_threshold(pair).bits == oracles.generate_threshold(pair)

    def test_sampled_entries_of_largest_pair(self):
        pair = PrimePair.create(3, 577)
        values = lifted_table(pair)
        for t in random.Random(3).sample(range(pair.period), 20_000):
            assert values[t] == euler_quotient(t, pair), t

    @staticmethod
    def traced_per_position(build, pair):
        tracemalloc.start()
        try:
            build(pair)
            return tracemalloc.get_traced_memory()[1] / pair.period
        finally:
            tracemalloc.stop()

    def test_threshold_peak_per_position(self):
        # the threshold's flags (1 byte per position) and their packing, with
        # psi lifted a block of rows at a time: an int32 psi table alone
        # (4 bytes per position) breaks the bound
        per_position = self.traced_per_position(generate_threshold, PrimePair.create(3, 313))
        assert per_position < 2.5, per_position

    def test_partition_peak_per_position(self):
        # the int16 index (2 bytes per position) and one block of the lift:
        # an int32 index, or the lift of a whole period, breaks the bound
        per_position = self.traced_per_position(build_partition, PrimePair.create(3, 313))
        assert per_position < 3, per_position


def parse_outcome(parse, text):
    """The parsed bits as a '0'/'1' string, or the ParseError's text and position."""
    try:
        bits = parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    return bits if isinstance(bits, str) else "".join(map(str, bits))


class TestParseAsciiDifferential:
    # \x0b, \x0c, \x1c and \x85 end a line for splitlines(); \x1c and \x0b are
    # also whitespace inside one, as is \x1f, which does not end a line
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01#x \t\r\n\x0b\x0c\x1c\x85", max_size=200))
    @example("# c\n0 1\n\t1\n01\n")
    @example("  # 01\n0\x1f1\x1e#\n10")
    @example("01\x85x")
    def test_matches_per_character_loop(self, text):
        assert parse_outcome(parse_ascii, text) == parse_outcome(oracles.parse_ascii, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_matches_on_any_characters(self, text):
        assert parse_outcome(parse_ascii, text) == parse_outcome(oracles.parse_ascii, text)

    def test_large_file(self):
        rng = random.Random(13)
        lines = ["# header"] + ["".join(rng.choice("01 ") for _ in range(80)) for _ in range(2000)]
        text = "\n".join(lines)
        assert parse_ascii(text) == parse_outcome(oracles.parse_ascii, text)
