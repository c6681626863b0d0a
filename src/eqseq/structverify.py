"""Structural audit of the coset partition behind the threshold sequence.

The partition is the coset index itself, one int32 array over a period:
index[t] = psi(t)/p on the units of Z_{pq^2} and -1 elsewhere, so
D_ell = {t : index[t] == ell}.  Its length N = pq^2 fixes the pair, and
lemma_failures refuses (sequence.check_index) an index that is not one period
long, is not an array of signed integers, or has a label outside -1..q-1.
Eight facts are checked per pair: the quotient map is a surjective
homomorphism with the stated kernel and image; the units split into q cosets
of equal size; multiplication translates cosets; reductions of a coset modulo
p, q, pq and q^2 hit prescribed multisets; and the coset polynomials satisfy
exact congruences modulo cyclotomic polynomials.  The congruences stand in for
evaluation at primitive roots of unity in an extension field: agreement modulo
the n-th cyclotomic polynomial is equivalent to agreement at every primitive
n-th root, and stays in plain GF(2)[x] arithmetic.

Residues are read off two views of the index.  Column c of the (q, pq) view
holds the t = c mod pq, so one bincount counts each coset on the (p, q) torus
of (t mod p, t mod q); summed over one axis it counts mod p or mod q.  As
gcd(p, q) = 1, x^i -> y^(i mod p) z^(i mod q) maps GF(2)[x]/(x^pq + 1) onto
GF(2)[y, z]/(y^p + 1, z^q + 1), semisimple as pq is odd, where Phi_pq vanishes
at the roots w*v with w, v != 1: so R = c mod Phi_pq exactly when
(y + 1)(z + 1)(R - c) = 0, and for a prime m, R = c mod Phi_m exactly when
R - c mod x^m + 1 is constant.  Lemma 9's pq^2 term tests the q polyphase
parts of the labelled indicator alike, as Phi_{pq^2}(x) = Phi_pq(x^q).  Column
r of the (p, q^2) view holds the t = r mod q^2, so a coset is counted in the
columns of ghat^ell <g^q>, and its odd counts give the q^2 congruences by
class counts mod q, as Phi_{q^2}(x) = Phi_q(x^q).

Index additivity (lemmas 2 and 4) is decided exactly from two generators, at
every period.  The units are the direct product <h> x <g2>, with
h = CRT(g mod p, 1 mod q^2) of order p-1 and g2 = CRT(1 mod p, g mod q^2) of
order q(q-1), so each unit is h^a * g2^b for exactly one pair (a, b).  A
homomorphism I to Z_q has I(h) = 0, since (p-1) I(h) = 0 and gcd(p-1, q) = 1;
so the index is additive exactly when I(h^a g2^b) = b I(g2) mod q for every a
and b.  The index must also label nothing but units, so the test further asks
that exactly (p-1)q(q-1) positions carry a label.  Lemma 4 reads the same
verdict: multiplication by a unit is injective and the fibres of a
homomorphism have equal size, so u in D_j maps D_i onto D_{i+j} for every i
and j exactly when the index is additive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eulerq import build_partition, derive_generators, two_coset_index
from .ntcore import GroupGenerators, PrimePair, crt_lift
from .sequence import check_index


# ---------------------------------------------------------------------------
# the checks behind lemma_failures; each returns failure messages


def _powers(base: int, count: int, n: int) -> np.ndarray:
    """base^0, base^1, ..., base^(count-1) mod n, doubling the filled prefix;
    each product stays below n^2."""
    out = np.empty(count, dtype=np.int64)
    out[:1] = 1 % n
    k = 1
    while k < count:
        step = min(k, count - k)
        out[k:k + step] = out[:step] * pow(base, k, n) % n
        k += step
    return out


def _unit_coordinates(pair: PrimePair, gens: GroupGenerators) -> np.ndarray:
    """Every unit once: row a, column b holds h^a * g2^b mod N, for a < p-1 and
    b < q(q-1), where g2 = CRT(1 mod p, g mod q^2)."""
    n, p, q2 = pair.period, pair.p, pair.q * pair.q
    g2 = crt_lift([(1, p), (gens.g % q2, q2)])
    return np.outer(_powers(gens.h, p - 1, n), _powers(g2, pair.q * (pair.q - 1), n)) % n


def _check_additivity(pair: PrimePair, coords: np.ndarray, index: np.ndarray,
                      sizes: np.ndarray) -> list[str]:
    """Empty exactly when the index is a homomorphism from the units to Z_q
    that labels nothing else; otherwise one witness."""
    labelled = int(sizes.sum())
    if labelled != coords.size:
        return [f"index additivity fails: {labelled} positions carry a label, "
                f"expected (p-1)q(q-1) = {coords.size}"]
    expected = np.arange(coords.shape[1]) * int(index[coords[0, 1]]) % pair.q   # b * I(g2)
    bad = np.argwhere(index.take(coords) != expected)
    if bad.size:
        a, b = bad[0].tolist()
        t = int(coords[a, b])
        return [f"index additivity fails: I(h^{a} * g2^{b}) = I({t}) = {index[t]}, "
                f"expected b * I(g2) = {expected[b]} mod q"]
    return []


def _check_partition_shape(pair: PrimePair, sizes: np.ndarray) -> list[str]:
    # the index gives each t exactly one label, so the cosets and P partition
    # the period by construction; what remains are the sizes
    problems = []
    expected = pair.phi_pq
    for ell, size in enumerate(sizes.tolist()):
        if size != expected:
            problems.append(f"|D_{ell}| = {size}, expected {expected}")
    non_units = pair.period - int(sizes.sum())
    expected_p = pair.period - pair.q * pair.phi_pq
    if non_units != expected_p:
        problems.append(f"|P| = {non_units}, expected {expected_p}")
    return problems


def _check_ghat_law(pair: PrimePair, gens: GroupGenerators, index: np.ndarray,
                    sizes: np.ndarray) -> list[str]:
    # multiplication by the unit ghat^ell is injective, so ghat^ell * D_0 = D_ell
    # exactly when every image is labelled ell and |D_ell| = |D_0|
    n, q = pair.period, pair.q
    d0 = np.flatnonzero(index == 0)
    labels = index.take(np.outer(_powers(gens.ghat, q, n)[1:], d0) % n)
    holds = (labels == np.arange(1, q)[:, None]).all(axis=1) & (sizes[1:] == sizes[0])
    return [f"ghat^{ell} * D_0 != D_{ell}" for ell in (np.flatnonzero(~holds) + 1).tolist()]


def _check_kernel_image(pair: PrimePair, coords: np.ndarray, index: np.ndarray,
                        sizes: np.ndarray) -> list[str]:
    problems = []
    p, q = pair.p, pair.q

    # kernel: <g^q, h> = <h, g2^q> (as g = h g2), the unit coordinates' columns
    # b = 0 mod q, equals D_0 exactly when all labelled 0 and |D_0| is its size
    kernel = coords[:, ::q]
    if not ((index.take(kernel) == 0).all() and sizes[0] == kernel.size):
        problems.append(f"subgroup <g^q, h> has {kernel.size} elements and differs from D_0")

    # image over units is exactly {0, p, 2p, ..., (q-1)p}
    image = np.flatnonzero(sizes)
    if not np.array_equal(image, np.arange(q)):
        problems.append(f"image of the quotient map is {(p * image).tolist()}")
    return problems


def _torus_cells(p: int, q: int) -> np.ndarray:
    """For each c < pq, its cell (c mod p) * q + (c mod q) of the (p, q) torus."""
    c = np.arange(p * q)
    return c % p * q + c % q


def _torus_counts(pair: PrimePair, index: np.ndarray) -> np.ndarray:
    """Entry (ell, a, b) counts the units of D_ell with t = a mod p and t = b
    mod q: one bincount over the (q, pq) view, whose column c holds the t = c
    mod pq, with label -1 in a block before the table."""
    p, q = pair.p, pair.q
    pq = p * q
    keys = index.astype(np.int64).reshape(q, pq)
    keys += 1
    keys *= pq
    keys += _torus_cells(p, q)
    return np.bincount(keys.ravel(), minlength=(q + 1) * pq)[pq:].reshape(q, p, q)


def _q2_columns(pair: PrimePair, gens: GroupGenerators,
                index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemma 7 on the (p, q^2) view, whose column r holds the t = r mod q^2:
    whether each coset misses its multiset mod q^2, and the keys coset * q^2 + r
    that an odd number of units hold."""
    p, q = pair.p, pair.q
    q2 = q * q
    # D_ell mod q^2 is ghat^ell times the subgroup generated by g^q, each p - 1 times
    subgroup = _powers(pow(gens.g % q2, q, q2), q - 1, q2)
    target = np.outer(_powers(gens.ghat % q2, q, q2), subgroup) % q2
    # and no two cosets share a column: (Z/q^2)*/<g^q> has prime order q, so an
    # overlap would put ghat in <g^q, h>, the kernel of the coset index, against
    # psi(ghat) = p, which derive_generators checks
    expected = np.full(q2, -1, dtype=index.dtype)
    expected[target] = np.arange(q)[:, None]
    view = index.reshape(p, q2)
    hit = view == expected
    per_column = hit.sum(axis=0)
    # the claims (expected[r], r) not held p - 1 times, among them, as p - 1
    # is even, all those held an odd number of times
    r = np.flatnonzero((expected >= 0) & (per_column != p - 1))
    keys, counts = expected[r] * np.int64(q2) + r, per_column[r]
    off = ~hit & (view >= 0)
    found = view[off] * np.int64(q2) + np.nonzero(off)[1] if off.any() else keys[:0]
    stray, times = np.unique(found, return_counts=True)
    bad = np.bincount(np.concatenate([keys[counts != p - 1], stray]) // q2, minlength=q) > 0
    odd = np.concatenate([keys[counts % 2 == 1], stray[times % 2 == 1]])
    return bad, odd


def _check_residue_multisets(pair: PrimePair, counts: np.ndarray,
                             bad_q2: np.ndarray) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    out: dict[str, list[str]] = {"lemma5": [], "lemma6": [], "lemma7": []}
    # a coset meets each unit class mod pq, a torus cell (a, b) with a, b != 0,
    # once, and so each unit class mod p q - 1 times and mod q p - 1 times
    unit_p, unit_q = np.arange(p) != 0, np.arange(q) != 0
    mod_p = counts.sum(axis=2)
    bad = zip((mod_p != unit_p * (q - 1)).any(axis=1).tolist(),
              (counts.sum(axis=1) != unit_q * (p - 1)).any(axis=1).tolist(),
              (counts != np.outer(unit_p, unit_q)).any(axis=(1, 2)).tolist(), bad_q2.tolist())
    for ell, (off_p, off_q, off_pq, off_q2) in enumerate(bad):
        if off_p:
            residues = {r: c for r, c in enumerate(mod_p[ell].tolist()) if c}
            out["lemma5"].append(f"D_{ell} mod p multiset wrong: {residues}")
        if off_q:
            out["lemma5"].append(f"D_{ell} mod q multiset wrong")
        if off_pq:
            out["lemma6"].append(f"D_{ell} mod pq is not a bijection onto the units")
        if off_q2:
            out["lemma7"].append(f"D_{ell} mod q^2 multiset wrong")
    return out


def _off_phi_pq(planes: np.ndarray) -> np.ndarray:
    """Whether each (p, q) plane of parities (the last two axes), as the
    polynomial it sets through x^i -> y^(i mod p) z^(i mod q), is nonzero mod
    Phi_pq: exactly when (y + 1)(z + 1) times it is nonzero, that is when some
    entry (a, b) differs from the sum of (a, 0), (0, b) and (0, 0)."""
    mixed = planes ^ planes[..., :1]
    return (mixed ^ mixed[..., :1, :]).any(axis=(-2, -1))


def _off_phi_q2(keys: np.ndarray, q: int) -> list[int]:
    """The rows ell, ascending, whose distinct keys ell * q^2 + a (a < q^2) set a
    polynomial that is not 0 mod Phi_{q^2} = Phi_q(x^q): part j of its remainder
    is the remainder of the class a = j mod q, a polynomial of degree below q,
    which is 0 exactly when the class holds 0 or q keys, since Phi_q is all ones."""
    counts = np.bincount(keys // (q * q) * q + keys % q)
    return sorted(set((np.flatnonzero(counts % q) // q).tolist()))


def _check_congruences(pair: PrimePair, index: np.ndarray, counts: np.ndarray,
                       odd_q2: np.ndarray) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    out: dict[str, list[str]] = {"lemma8": [], "lemma9": []}

    # each coset polynomial, and so their sum (row q), is 1 modulo the pq
    # cyclotomic and 0 modulo the p, q and q^2 ones; mod x^pq + 1 it is its
    # parities on the torus, and mod x^m + 1 for m = p or q their sum over the
    # other axis, which is c mod the prime Phi_m exactly when it is c plus 0 or
    # Phi_m (all ones); uint8 sums wrap mod 256, which keeps their parity
    parity = counts.astype(np.uint8) & 1
    planes = np.concatenate([parity, parity.sum(axis=0, keepdims=True, dtype=np.uint8) & 1])
    mod_p, mod_q = (planes.sum(axis=axis, dtype=np.uint8) & 1 for axis in (2, 1))
    planes[:, 0, 0] ^= 1
    summed_q2 = np.flatnonzero(np.bincount(odd_q2 % (q * q)) % 2)
    for name, expect, off in (
            ("pq", 1, np.flatnonzero(_off_phi_pq(planes)).tolist()),
            ("p", 0, np.flatnonzero((mod_p != mod_p[:, :1]).any(axis=1)).tolist()),
            ("q", 0, np.flatnonzero((mod_q != mod_q[:, :1]).any(axis=1)).tolist()),
            ("q2", 0, _off_phi_q2(odd_q2, q) + [q] * bool(_off_phi_q2(summed_q2, q)))):
        bad = [ell for ell in off if ell < q]
        if bad:
            out["lemma8"].append(
                f"coset polynomial(s) {bad} are not {expect} modulo the {name} cyclotomic"
            )
        if q in off:
            out["lemma9"].append(f"summed coset polynomial is not {expect} mod {name}")
    # the sum over all cosets, the indicator of labels 0..q-1, is 0 modulo the
    # pq^2 cyclotomic Phi_pq(x^q) exactly when each of its q polyphase parts
    # (bits j, j + q, j + 2q, ...) is 0 modulo Phi_pq: part j of the remainder
    # is the remainder of part j, and the parts have disjoint supports
    labelled = index >= 0
    parts = labelled.reshape(p * q, q).T[:, np.argsort(_torus_cells(p, q)).reshape(p, q)]
    if _off_phi_pq(parts).any():
        out["lemma9"].append("summed coset polynomial is nonzero mod the pq^2 cyclotomic")
    return out


def lemma_failures(pair: PrimePair, index: np.ndarray) -> dict[str, list[str]]:
    """Failure messages of each of lemmas 2-9 on the coset index (see
    check_index), empty where it holds, for the generators g, h and ghat that
    (p, q) fixes, from derive_generators.

    One exact additivity test from h and g2 serves lemmas 2 and 4, and the
    torus counts and the q^2 columns serve lemmas 5-9.
    """
    check_index(pair, index)
    gens = derive_generators(pair)
    sizes = np.bincount(index + 1, minlength=pair.q + 1)[1:]
    coords = _unit_coordinates(pair, gens)
    additivity = _check_additivity(pair, coords, index, sizes)
    lemma2 = _check_kernel_image(pair, coords, index, sizes) + additivity
    del coords   # freed before the torus counts, the largest stage
    counts = _torus_counts(pair, index)
    bad_q2, odd_q2 = _q2_columns(pair, gens, index)

    failures = {"lemma2": lemma2}
    failures["lemma3"] = (_check_partition_shape(pair, sizes)
                          + _check_ghat_law(pair, gens, index, sizes))
    failures["lemma4"] = (["the index is not additive, so a translation leaves its target coset"]
                          if additivity else [])
    failures.update(_check_residue_multisets(pair, counts, bad_q2))
    failures.update(_check_congruences(pair, index, counts, odd_q2))
    return failures


@dataclass(frozen=True)
class StructureReport:
    """Verdict of the eight structural checks for one pair, read off the
    failure messages of each lemma (empty where it holds), kept as
    (lemma, messages) pairs in lemma order so the report is hashable."""

    pair: tuple[int, int]
    sigma: int
    failures: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def all_ok(self) -> bool:
        return not any(msgs for _, msgs in self.failures)

    @property
    def details(self) -> dict[str, str]:
        return {name: "; ".join(msgs) for name, msgs in self.failures if msgs}

    def to_json_dict(self) -> dict:
        out: dict = {"pair": list(self.pair)}
        out.update((f"{name}_ok", not msgs) for name, msgs in self.failures)
        out["sigma"] = self.sigma
        out["details"] = self.details
        return out

    def format_table(self) -> str:
        lines = [f"structure audit for p={self.pair[0]}, q={self.pair[1]} (sigma={self.sigma})"]
        for name, msgs in self.failures:
            verdict = f"FAIL  {self.details[name]}" if msgs else "ok"
            lines.append(f"  {name:<8} {verdict}")
        return "\n".join(lines)


def audit_structure(pair: PrimePair) -> StructureReport:
    """Run all eight structural checks for one pair and collect the verdict."""
    failures = lemma_failures(pair, build_partition(pair))
    return StructureReport(pair=(pair.p, pair.q), sigma=two_coset_index(pair),
                           failures=tuple((name, tuple(msgs)) for name, msgs in failures.items()))
