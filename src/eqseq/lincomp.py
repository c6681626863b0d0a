"""Linear-complexity engine: LFSR synthesis, exact minimal polynomial, prediction.

Two independent routes to the linear complexity are always cross-checked:
count-only Berlekamp-Massey, the length of the shortest LFSR generating a bit
prefix, which keeps the products of the input with its two connection
polynomials as packed integers, so a step costs a few big-integer operations;
and the closed form M(x) = (x^N + 1) / gcd(x^N + 1, A(x)) from the generating
polynomial A of one period, with LC = deg M.

Both run sub-block by sub-block.  With N = 2^k m, m odd, x^N + 1 is the
product of the pairwise coprime blocks F_e = Phi_e(x^(2^k)) = Phi_r(x^s)
over the divisors e of m, r the radical of e; and with Phi_r = prod_i f_i
over GF(2), each F_e is the product of the pairwise coprime sub-blocks
G_i = f_i(x^s).  So M is the product of the G_i / gcd(G_i, A).  A run folds
the period to u = A mod (x^d + 1) per block and walks a product tree over
the f_i once, carrying both routes apart: the polyphase parts u_j of
u = sum_j x^j u_j(x^s) as their residues, since u mod G_i =
sum_j x^j (u_j mod f_i)(x^s), and the component as products with siblings.
The walk yields one record per leaf and must name the leaves in order;
Berlekamp-Massey's LC on each record's component must equal
deg(G_i / gcd(G_i, u)).  Each run checks that the sub-blocks multiply to
x^N + 1, so the measured M does not rest on the cyclotomic construction or
the factor split being right, and it never reads the prediction.  The
cofactors H_r = (x^r + 1) / Phi_r that start the components are checked
once per r, where gf2poly builds them.

Most sub-blocks need neither Euclid nor a long Berlekamp-Massey run.  For
odd d every irreducible factor of Phi_d over GF(2) has degree ord_d(2)
(Lidl and Niederreiter, Finite Fields, Thm 2.47), and a sub-block
G = f(x^s) of the block d divides Phi_d, so G is irreducible exactly when
deg G = ord_d(2).  Then gcd(G, A) is 1 if some u_j mod f is nonzero,
settled at the first such part, and G if none is; and the component v has
minimal polynomial 1 or G.  G links only terms s apart, so it annihilates
v exactly when f annihilates each stride-s part v_j (bits j, j + s, ...),
the interleaved view (ibid., ch. 8; Gong, IEEE Trans. Inform. Theory
41(2), 1995): Berlekamp-Massey reads 2 deg f bits of each part, each must
read LC 0 or deg f, and LC(v) = s max_j LC(v_j), for s times less work
than one run on 2 deg G bits.  Sub-blocks that split, and the blocks of
even d, where f(x^(2^k)) = f^(2^k), get Euclid and one full run.  Both
routes read the verdict, so ord_d(2) is certified where the blocks are built.

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
    _int_polyphase,
    cyclotomic_f2,
    gcd,
)
from .limits import check_budget
from .ntcore import (PrimePair, certified_order, divisors, euler_phi, factorize,
                     multiplicative_order, wieferich_ok)
from .sequence import BitSequence, generate_threshold, least_period


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


def _factor_tree(factors: tuple[int, ...]) -> _Node:
    if len(factors) == 1:
        return _Node(factors[0], (), factors)
    half = len(factors) // 2
    left, right = _factor_tree(factors[:half]), _factor_tree(factors[half:])
    return _Node(_int_mul(left.poly, right.poly), (left, right), factors)


class _Block(NamedTuple):
    """One factor F_e = Phi_r(x^s) of x^N + 1, N = 2^k m, for a divisor e of m
    with radical r, d = 2^k e and s = d / r (see the module docstring)."""

    d: int
    order: int     # ord_d(2), the degree of every GF(2) factor of Phi_d, certified; 0 for even d
    stride: int    # s
    tree: _Node    # over the factors of Phi_r; its root is their product, F_e = root(x^s)
    cofactor: int  # H = (x^d + 1) / F_e


def _blocks(n: int) -> list[_Block]:
    """The blocks of x^n + 1 by ascending d, checked on every call for all
    their sub-blocks together to multiply to x^n + 1; Phi_r H_r = x^r + 1 is
    checked once per radical r, where `_cyclotomic_pair` builds the pair,
    and ord_d(2) of an odd d on every call, by `certified_order`."""
    k = (n & -n).bit_length() - 1
    blocks = []
    trees: dict[int, _Node] = {}
    product = 1
    for e in divisors(n >> k):
        radical = math.prod(set(factorize(e)))
        if radical not in trees:
            trees[radical] = _factor_tree(_cyclotomic_factors(radical))
        tree = trees[radical]
        d = e << k
        order = 1 if d == 1 else 0 if k else certified_order(2, multiplicative_order(2, d), d)
        stride = d // radical
        product = _int_mul(product, _int_compose(tree.poly, stride))
        blocks.append(_Block(d, order, stride, tree,
                             _int_compose(_cyclotomic_pair(radical)[1], stride)))
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


def _times_mod(v: int, f: int, d: int) -> int:
    """v f mod (x^d + 1), for v and f of degree below d."""
    v = _int_mul(v, f)
    return (v & ((1 << d) - 1)) ^ (v >> d)


class _SubBlock(NamedTuple):
    """One sub-block G = f(x^s) of the block d, with what each route found
    there, both None where the walk leaves G out."""

    d: int
    stride: int             # s
    factor: int             # f
    minpoly: int | None     # the gcd route's G / gcd(G, u)
    component: int | None   # the BM route's u (x^d + 1) / G mod (x^d + 1)
    parts: int              # of v that BM runs on: s where G is irreducible, else 1


def _walk(u: int, block: _Block) -> Iterator[_SubBlock]:
    """Both LC routes down the block's product tree, apart, with one record
    per sub-block G = f(x^s) in leaf order.  gcd route: the parts u_j of
    u = sum_j x^j u_j(x^s) stream down as their nonzero residues, each
    reduced at a node only when a sub-block below reads it; an irreducible
    G reads up to its first nonzero u_j mod f, one that splits reads every
    part, interleaving them into u mod G = sum_j x^j (u_j mod f)(x^s) for
    Euclid.  BM route: the root's component is u H, and a child's is its
    parent's times the sibling.  A subtree is left out only where both
    routes see 0."""
    s, d = block.stride, block.d
    width = block.tree.leaves[0].bit_length() - 1   # deg f, equal for every factor of Phi_r
    irreducible = width * s == block.order
    n_parts = s if irreducible else 1
    phases = _int_polyphase(u, s, d)

    def reduced(pairs, f):   # the nonzero (j, x mod f) for the (j, x) in pairs
        return ((j, y) for j, x in pairs if (y := _int_mod(x, f)))

    def walk(node, parts, v):   # parts: the nonzero (j, u_j mod node), reduced as they are read
        first = next(parts, None)
        parts = itertools.chain([first] if first else [], parts)
        if node.children and not (first or v):
            yield from (_SubBlock(d, s, f, None, None, n_parts) for f in node.leaves)
        elif node.children:
            left, right = node.children
            for (child, sibling), branch in zip(((left, right), (right, left)), itertools.tee(parts)):
                yield from walk(child, reduced(branch, child.poly),
                                _times_mod(v, _int_compose(sibling.poly, s), d))
        else:   # a G that splits runs Euclid through the public `gcd`, which perfbench spans
            w = bytearray(b"0" * (width * s))   # u mod G, coefficient i at index i
            for j, x in itertools.islice(parts, 1 if irreducible else None):
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
            yield _SubBlock(d, s, node.poly, quotient, v, n_parts)

    yield from walk(block.tree, reduced(enumerate(phases), block.tree.poly),
                    _times_mod(u, block.cofactor, d))


def _sub_blocks(seq: BitSequence) -> Iterator[_SubBlock]:
    """The plan: every sub-block of x^N + 1 by ascending d, from one walk per
    block over the period folded to length d.  A walk that does not name the
    block's leaves in order raises once it ends, naming the block."""
    n = seq.length
    check_budget("sequence length", n)
    for block in _blocks(n):
        factors = []
        for sub in _walk(_fold(seq.bits, n, block.d), block):
            factors.append(sub.factor)
            yield sub
        if tuple(factors) != block.tree.leaves:
            raise InternalConsistencyError(
                f"the LC walk of {seq.origin} misses the leaf order of block d={block.d}")


def _component_lc(sub: _SubBlock, origin) -> int:
    """BM route: the LC of the sub-block's component v, at most deg G, from
    2 deg G / c bits of two periods of each of its c = sub.parts polyphase
    parts.  With c > 1, G = f(x^c) is irreducible: each part must read LC 0
    or deg f, and LC(v) = c max_j LC(v_j)."""
    c, n = sub.parts, 2 * (sub.factor.bit_length() - 1) * sub.stride // sub.parts
    lcs = {berlekamp_massey(BitSequence((v | v << sub.d // c) & ((1 << n) - 1), n, origin))
           for v in _int_polyphase(sub.component, c, sub.d)}
    if c > 1 and lcs - {0, n // 2}:
        raise InternalConsistencyError(
            f"parts of {origin} in block d={sub.d} read LCs {sorted(lcs)}, not 0 or {n // 2}")
    return c * max(lcs)


def _product(polys: Iterable[int]) -> int:
    return functools.reduce(_int_mul, polys, 1)


def _minpolys_by_block(seq: BitSequence) -> dict[int, int]:
    """The minimal polynomial of each block by the gcd route, keyed by d, with
    the LC of each sub-block checked against Berlekamp-Massey on its
    component; a sub-block that the walk leaves out has LC 0 and is not run."""
    out = {}
    for sub in _sub_blocks(seq):
        lc_gcd = 0 if sub.minpoly is None else sub.minpoly.bit_length() - 1
        lc_bm = 0 if sub.component is None else _component_lc(sub, seq.origin)
        if lc_bm != lc_gcd:
            raise InternalConsistencyError(
                f"LC disagreement for {seq.origin} in block d={sub.d}: gcd={lc_gcd}, bm={lc_bm}")
        out[sub.d] = _int_mul(out.get(sub.d, 1), sub.minpoly) if lc_gcd else out.get(sub.d, 1)
    return out


def analyze_period(seq: BitSequence) -> tuple[int, Gf2Poly]:
    """Least period and minimal polynomial of one period, by both LC routes
    on every sub-block of x^N + 1; a disagreement raises, naming the block."""
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
