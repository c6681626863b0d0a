"""Linear-complexity engine: LFSR synthesis, exact minimal polynomial, prediction.

Two independent routes to the linear complexity are implemented and always
cross-checked:

* Count-only Berlekamp-Massey: the length of the shortest LFSR generating a
  bit prefix, with no connection polynomial built.  The discrepancy is not
  recomputed from scratch each step; instead the products of the input with
  the two working connection polynomials are maintained incrementally as
  packed integers, so each step costs a constant number of big-integer
  operations instead of a coefficient loop.

* The closed form  M(x) = (x^N + 1) / gcd(x^N + 1, A(x))  from the generating
  polynomial A of one period, with LC = deg M.

Both run sub-block by sub-block.  With N = 2^k m, m odd, x^N + 1 is the
product of the pairwise coprime blocks F_e = Phi_e(x^(2^k)) = Phi_r(x^s)
over the divisors e of m, r the radical of e; and with Phi_r = prod_i f_i
over GF(2), each F_e is the product of the pairwise coprime sub-blocks
G_i = f_i(x^s).  So M is the product of the G_i / gcd(G_i, A), and each
sub-block's LC is also found by Berlekamp-Massey on the sub-block's
component of the sequence.  The two must agree on every sub-block.  Each
route walks a product tree over the f_i apart from the other, from the fold
u = A mod (x^d + 1): the components go down it as products with siblings,
and the polyphase parts u_j of u = sum_j x^j u_j(x^s) as their residues,
since u mod G_i = sum_j x^j (u_j mod f_i)(x^s).  Each run checks that the
sub-blocks multiply to x^N + 1, so the measured M does not rest on the
cyclotomic construction or the factor split being right, and it never
reads the prediction.

Most sub-blocks need no Euclid.  For odd d every irreducible factor of Phi_d
over GF(2) has degree ord_d(2) (Lidl and Niederreiter, Finite Fields,
Thm 2.47), and a sub-block G of the block d divides Phi_d, so G is
irreducible exactly when deg G = ord_d(2); then gcd(G, A) is 1 if some
u_j mod f_i is nonzero, settled at the first such part, and G if none is.
Euclid runs only on the sub-blocks that split and on the blocks of even d,
where f(x^(2^k)) = f^(2^k) always splits.  A wrong verdict would still be
caught: Berlekamp-Massey runs on every sub-block.

The predicted minimal polynomial is a product of cyclotomic polynomials
selected by q mod 4; `verify_theorem` compares it against the measured one
and reports the verdict, with the LC of every block.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple
from typing import Sequence as SequenceABC

from . import eulerq
from .errors import DomainError, InternalConsistencyError
from .gf2poly import (
    Gf2Poly,
    _cyclotomic_factors,
    _cyclotomic_pair,
    _int_compose,
    _int_divmod,
    _int_mod,
    _int_mul,
    cyclotomic_f2,
    gcd,
)
from .limits import check_budget
from .ntcore import PrimePair, euler_phi, factorize, multiplicative_order, wieferich_ok
from .sequence import (
    BitSequence,
    _divisors_ascending,
    generate_threshold,
    least_period,
)


#: Steps between truncations of the working products in berlekamp_massey.
_TRUNCATE_EVERY = 512


def berlekamp_massey(seq: BitSequence) -> int:
    """Length L of the shortest LFSR generating the prefix seq.

    Fed two full periods of an N-periodic sequence, L is its linear
    complexity.  Only L is found: the connection polynomial is not built.
    An all-zero prefix returns L = 0 at once.

    Invariants of the incremental form: with C the current connection
    polynomial and B the one before the last length change, made at step k,
    sb == (S*B) >> k throughout (k = -1 and B = 1 at the start), and
    sc == (S*C) >> (n - m), so the discrepancy at step n is bit m of sc.
    Coefficients below n are never read again and none past nbits - 1 is
    ever read, so at the start of each window of _TRUNCATE_EVERY steps sc
    is shifted to base n (m = 0), which keeps the bit tested small through a
    long run without discrepancies, and cut to its low nbits - n + 2 bits;
    sb is XORed into sc at base n or later, so the same mask covers it.

    The period the prefix implies, half its length rounded up, must lie
    within the budget, so two periods of an in-budget sequence pass.
    """
    s, nbits = seq.bits, seq.length
    check_budget("period", (nbits + 1) // 2)
    if not s:
        return 0
    sc = s
    sb = s << 1  # (S*B) >> k with B = 1, k = -1
    length = 0
    m = 0
    for start in range(0, nbits, _TRUNCATE_EVERY):
        sc >>= m
        m = 0
        mask = (1 << (nbits - start + 2)) - 1
        sc &= mask
        sb &= mask
        for n in range(start, min(start + _TRUNCATE_EVERY, nbits)):
            if sc & (1 << m):
                sc >>= m
                m = 0
                if 2 * length <= n:
                    sb, sc = sc, sb
                    length = n + 1 - length
                sc ^= sb
            m += 1
    return length


class _Node(NamedTuple):
    """A node of the product tree over the GF(2) factors of Phi_r: poly is the
    product, in x, of the factors at the leaves below it."""

    poly: int
    children: tuple  # () at a leaf, else (left, right)
    leaves: tuple[int, ...]  # the factors below, in leaf order


def _factor_tree(factors: SequenceABC[int]) -> _Node:
    if len(factors) == 1:
        return _Node(factors[0], (), tuple(factors))
    half = len(factors) // 2
    left, right = _factor_tree(factors[:half]), _factor_tree(factors[half:])
    return _Node(_int_mul(left.poly, right.poly), (left, right), tuple(factors))


class _Block(NamedTuple):
    """One factor F_e of x^N + 1 = prod_e F_e, over the divisors e of the odd
    part m of N = 2^k m.

    F_e = Phi_e(x^(2^k)) = Phi_r(x^s) for the radical r of e and the stride
    s = d / r, where d = 2^k e; F_e divides x^d + 1 with cofactor
    H = H_r(x^s).  With Phi_r = prod_i f_i over GF(2), F_e is the product of
    the sub-blocks G_i = f_i(x^s), held as a product tree over the f_i.  All
    the G_i are pairwise coprime, so the minimal polynomial of a period A is
    the product over the sub-blocks of G_i / gcd(G_i, A mod (x^d + 1)).
    """

    d: int
    order: int     # ord_d(2), the degree of every GF(2) factor of Phi_d; 0 for even d
    stride: int    # s
    tree: _Node    # over the factors of Phi_r; its root is their product
    factor: int    # F_e, the root composed with x^s
    cofactor: int  # H = (x^d + 1) / F_e


def _blocks(n: int) -> list[_Block]:
    """The blocks of x^n + 1 by ascending d, each checked to satisfy
    Phi_r H_r = x^r + 1, and all their sub-blocks together to multiply to
    x^n + 1."""
    k = (n & -n).bit_length() - 1
    blocks = []
    trees: dict[int, _Node] = {}
    product = 1
    for e in _divisors_ascending(n >> k):
        radical = math.prod(set(factorize(e)))
        phi, h = _cyclotomic_pair(radical)
        if _int_mul(phi, h) != (1 << radical) | 1:
            raise InternalConsistencyError(f"cyclotomic cofactor for n={radical} is wrong")
        if radical not in trees:
            trees[radical] = _factor_tree(_cyclotomic_factors(radical))
        tree = trees[radical]
        d = e << k
        order = 1 if d == 1 else 0 if k else multiplicative_order(2, d)
        stride = d // radical
        block = _Block(d, order, stride, tree, _int_compose(tree.poly, stride),
                       _int_compose(h, stride))
        product = _int_mul(product, block.factor)
        blocks.append(block)
    if product != (1 << n) | 1:
        raise InternalConsistencyError(f"cyclotomic blocks do not multiply to x^{n} + 1")
    return blocks


def _fold(a: int, n: int, d: int) -> int:
    """a mod (x^d + 1), the XOR of the n/d length-d chunks of a, for a of
    degree below n, a multiple of d.  x^h = 1 mod x^d + 1 for every multiple
    h of d, so XORing the high part onto the low h bits keeps the residue."""
    while n > d:
        half = n // d // 2 * d
        a = (a & ((1 << half) - 1)) ^ (a >> half)
        n -= half
    return a


def _block_folds(seq: BitSequence) -> Iterator[tuple[_Block, int]]:
    """Each block of x^N + 1 with one period folded to its length d."""
    n = seq.length
    check_budget("sequence length", n)
    for block in _blocks(n):
        yield block, _fold(seq.bits, n, block.d)


def _times_mod(v: int, f: int, d: int) -> int:
    """v f mod (x^d + 1), for v and f of degree below d."""
    v = _int_mul(v, f)
    return (v & ((1 << d) - 1)) ^ (v >> d)


def _components(u: int, block: _Block) -> Iterator[tuple[int, int | None]]:
    """BM route: (f, v) for each sub-block G = f(x^s) in leaf order, v the
    G-component u (x^d + 1) / G mod (x^d + 1) of the fold u, or None under
    an inner node whose component is 0.  The root's component is u H, and a
    child's is its parent's times the sibling."""

    def walk(node, v):
        if not node.children:
            yield node.poly, v
        elif not v:
            yield from ((f, None) for f in node.leaves)
        else:
            left, right = node.children
            for child, sibling in ((left, right), (right, left)):
                yield from walk(child, _times_mod(v, _int_compose(sibling.poly, block.stride), block.d))

    return walk(block.tree, _times_mod(u, block.cofactor, block.d))


def _gcd_route(u: int, block: _Block) -> Iterator[tuple[int, int | None]]:
    """gcd route: (f, G / gcd(G, u)) for each sub-block G = f(x^s) in leaf
    order, or None under an inner node whose residue is 0.

    The parts u_j of u = sum_j x^j u_j(x^s) stream down the tree as their
    nonzero residues, each reduced at a node only when a sub-block below
    reads it.  An irreducible G reads up to its first nonzero u_j mod f; one
    that splits reads every part, interleaving them into
    u mod G = sum_j x^j (u_j mod f)(x^s) for Euclid."""
    s, d = block.stride, block.d
    width = block.tree.leaves[0].bit_length() - 1   # deg f, equal for every factor of Phi_r
    irreducible = width * s == block.order
    digits = format(u, f"0{d}b")[::-1]   # coefficient i at index i
    phases = [int(digits[j::s][::-1], 2) for j in range(s)]

    def reduced(pairs, f):   # the nonzero (j, x mod f) for the (j, x) in pairs
        return ((j, y) for j, x in pairs if (y := _int_mod(x, f)))

    def walk(node, parts):   # parts: the nonzero (j, u_j mod node), reduced as they are read
        first = next(parts, None)
        if node.children and first is None:
            yield from ((f, None) for f in node.leaves)
        elif node.children:
            for child, branch in zip(node.children, itertools.tee(itertools.chain([first], parts))):
                yield from walk(child, reduced(branch, child.poly))
        else:   # a G that splits runs Euclid through the public `gcd`, which perfbench spans
            w = bytearray(b"0" * (width * s))   # u mod G, coefficient i at index i
            for j, x in itertools.chain([first] if first else [], () if irreducible else parts):
                if x.bit_length() > width:
                    raise InternalConsistencyError(
                        f"residue of degree {x.bit_length() - 1} exceeds its sub-block in block d={d}")
                w[j::s] = format(x, f"0{width}b")[::-1].encode()
            w = int(w[::-1], 2)
            g = _int_compose(node.poly, s)
            common = (1 if w else g) if irreducible else gcd(Gf2Poly(g), Gf2Poly(w)).bits
            quotient, remainder = (g, 0) if common == 1 else _int_divmod(g, common)
            if remainder:
                raise InternalConsistencyError(f"gcd does not divide the block factor for d={d}")
            yield node.poly, quotient

    return walk(block.tree, reduced(enumerate(phases), block.tree.poly))


def _component_lc(v: int, degree: int, d: int, origin) -> int:
    """BM route: the LC of the component v of block d for a sub-block G of
    the given degree, whose minimal polynomial is G / gcd(G, u).  That LC is
    at most deg G, so 2 deg G bits of two periods of v determine it."""
    nbits = 2 * degree
    two = (v | (v << d)) & ((1 << nbits) - 1)
    return berlekamp_massey(BitSequence(bits=two, length=nbits, origin=origin))


def _product(polys: Iterable[int]) -> int:
    return functools.reduce(_int_mul, polys, 1)


def _minpolys_by_block(seq: BitSequence) -> dict[int, int]:
    """The minimal polynomial of each block by the gcd route, keyed by d,
    with the LC of each sub-block checked against Berlekamp-Massey on its
    component.  A sub-block that a walk leaves out has LC 0 on that route,
    and one that both leave out is not run."""
    out = {}
    for block, u in _block_folds(seq):
        s, d = block.stride, block.d
        minpoly = 1
        for (f, sub), (_, v) in zip(_gcd_route(u, block), _components(u, block), strict=True):
            lc_gcd = 0 if sub is None else sub.bit_length() - 1
            lc_bm = 0 if v is None else _component_lc(v, (f.bit_length() - 1) * s, d, seq.origin)
            if lc_bm != lc_gcd:
                raise InternalConsistencyError(
                    f"LC disagreement for {seq.origin} in block d={d}: gcd={lc_gcd}, bm={lc_bm}")
            minpoly = _int_mul(minpoly, sub) if lc_gcd else minpoly
        out[d] = minpoly
    return out


def analyze_period(seq: BitSequence) -> tuple[int, Gf2Poly]:
    """Least period and minimal polynomial of one period, by both LC routes.

    Both routes run on every sub-block of x^N + 1: the gcd route gives the
    sub-block's minimal polynomial, Berlekamp-Massey on the sub-block's
    component must reach the same LC, and a disagreement raises, naming the
    block, rather than being silently resolved.
    """
    return least_period(seq), Gf2Poly(_product(_minpolys_by_block(seq).values()))


def predicted_minimal_polynomial(pair: PrimePair) -> Gf2Poly:
    """Closed-form minimal polynomial: the product of the cyclotomic
    polynomials Phi_d over the blocks d of `_closed_form_blocks`."""
    if not pair.divides:
        raise DomainError(
            f"prediction requires p | q-1; p={pair.p}, q={pair.q}"
        )
    if not wieferich_ok(pair.q):
        raise DomainError(
            f"prediction requires 2^(q-1) != 1 mod q^2; fails for q={pair.q}"
        )
    return Gf2Poly(_product(cyclotomic_f2(d).bits for d in _closed_form_blocks(pair.p, pair.q)))


def _closed_form_blocks(p: int, q: int) -> tuple[int, ...]:
    """The blocks d of x^N + 1 that the closed form fills, each with LC
    phi(d): d = pq^2, and d = pq when q = 3 mod 4.  Every other block has
    LC 0."""
    return (p * q * q, p * q) if q % 4 == 3 else (p * q * q,)


@dataclass(frozen=True)
class AnalysisReport:
    """Per-pair verdict: hypothesis flags, empirical vs predicted results.

    The LCs and the verdict are read off the two minimal polynomials.
    """

    pair: tuple[int, int]
    q_mod_4: int
    divisibility_ok: bool
    wieferich_ok: bool
    period_found: int
    minpoly_empirical: Gf2Poly
    minpoly_predicted: Gf2Poly | None
    sigma: int | None
    elapsed: float
    lc_by_divisor: tuple[tuple[int, int], ...]  # (d, LC of the block), ascending d

    @property
    def lc_empirical(self) -> int:
        return self.minpoly_empirical.degree

    @property
    def lc_predicted(self) -> int | None:
        return None if self.minpoly_predicted is None else self.minpoly_predicted.degree

    @property
    def match(self) -> bool:
        return self.minpoly_predicted == self.minpoly_empirical

    def blocks_off_closed_form(self) -> list[tuple[int, int, int]]:
        """(d, measured LC, closed-form LC) for each block where they differ."""
        closed = {d: euler_phi(d) for d in _closed_form_blocks(*self.pair)}
        return [(d, lc, closed.get(d, 0)) for d, lc in self.lc_by_divisor
                if lc != closed.get(d, 0)]

    def to_json_dict(self) -> dict:
        def opt(v):
            return "n/a" if v is None else v

        return {
            "pair": list(self.pair),
            "q_mod_4": self.q_mod_4,
            "divisibility_ok": self.divisibility_ok,
            "wieferich_ok": self.wieferich_ok,
            "period_found": self.period_found,
            "lc_empirical": self.lc_empirical,
            "lc_predicted": opt(self.lc_predicted),
            "minpoly_empirical": self.minpoly_empirical.render(),
            "minpoly_predicted": (
                "n/a" if self.minpoly_predicted is None else self.minpoly_predicted.render()
            ),
            "match": self.match,
            "sigma": opt(self.sigma),
            "elapsed": self.elapsed,
            "lc_by_divisor": {str(d): lc for d, lc in self.lc_by_divisor},
        }


def verify_theorem(pair: PrimePair) -> AnalysisReport:
    """Full pipeline for one pair: generate, measure, predict, compare.

    The sequence is measured as in `analyze_period`, keeping the LC of each
    block.  When p does not divide q-1 the closed form does not apply and
    only the empirical fields are populated.
    """
    start = time.perf_counter()
    div_ok = pair.divides
    wief_ok = wieferich_ok(pair.q)

    seq = generate_threshold(pair)
    blocks = _minpolys_by_block(seq)
    sigma = eulerq.two_coset_index(pair) if div_ok else None
    predicted = predicted_minimal_polynomial(pair) if div_ok and wief_ok else None

    return AnalysisReport(
        pair=(pair.p, pair.q),
        q_mod_4=pair.q % 4,
        divisibility_ok=div_ok,
        wieferich_ok=wief_ok,
        period_found=least_period(seq),
        minpoly_empirical=Gf2Poly(_product(blocks.values())),
        minpoly_predicted=predicted,
        sigma=sigma,
        elapsed=time.perf_counter() - start,
        lc_by_divisor=tuple((d, f.bit_length() - 1) for d, f in blocks.items()),
    )
