"""Residue checks of the coset index, lemmas 5-9, and the block walk that
every check of the structural audit shares.

Residues are read off two views of the index.  Column c of the (q, pq) view
holds the t = c mod pq, so bincounts count each coset on the (p, q) torus of
(t mod p, t mod q); summed over one axis it counts mod p or mod q.  As
gcd(p, q) = 1, x^i -> y^(i mod p) z^(i mod q) maps GF(2)[x]/(x^pq + 1) onto
GF(2)[y, z]/(y^p + 1, z^q + 1), semisimple as pq is odd, where Phi_pq vanishes
at the roots w*v with w, v != 1: so R = c mod Phi_pq exactly when
(y + 1)(z + 1)(R - c) = 0, and for a prime m, R = c mod Phi_m exactly when
R - c mod x^m + 1 is constant.  Column r of the (p, q^2) view holds the
t = r mod q^2, so a coset is counted in the columns of ghat^ell <g^q>, and
its odd counts give the q^2 congruences by class counts mod q, as
Phi_{q^2}(x) = Phi_q(x^q).  Lemma 9's pq^2 term tests the q polyphase parts
(bits j, j + q, ...) of the labelled indicator alike: as Phi_{pq^2}(x) =
Phi_pq(x^q), part j of the remainder is the remainder of part j, on disjoint
supports.  Bit iq + b of part j is at row i, column bq + j of that view and
at torus cell ((i + b) mod p, b) as q = 1 mod p: the q^2 pass reads the parts.

Every check of the audit streams: it walks the index, or the units it maps,
in blocks of about _BLOCK entries and keeps only what its verdict reads.
Past the index and one block the audit holds tables of O(pq) entries and
the q^2 keys held an odd number of times (none for a sound index); lemma 7's
claims are lifted a block at a time from q Fermat quotients.  The torus is
counted a block of its columns b at a time, and the Phi_pq test, which
compares each cell with those of column b = 0, keeps that column from the
first block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ntcore import GroupGenerators, PrimePair

# entries per block of the streamed checks: each walks the coset index, or a
# product of generator powers, this many at a time (at least one row of its
# view) and keeps only what its verdict reads
_BLOCK = 1 << 13


def _per_block(row_len: int = 1) -> int:
    """Rows of row_len entries per block of the streamed checks, at least one."""
    return max(1, _BLOCK // row_len)


def _powers(base: int, count: int, n: int) -> np.ndarray:
    """base^0, base^1, ..., base^(count-1) mod n, doubling the filled prefix.
    Each product here and in the audit's streamed checks multiplies two
    residues below n, so it stays below n^2 and is exact in int64 while
    n < 3.03e9."""
    out = np.empty(count, dtype=np.int64)
    out[:1] = 1 % n
    k = 1
    while k < count:
        step = min(k, count - k)
        out[k:k + step] = out[:step] * pow(base, k, n) % n
        k += step
    return out


def _torus_columns(p: int, q: int) -> np.ndarray:
    """For each cell (a, b) of the (p, q) torus, the c < pq with c = a mod p
    and c = b mod q: c = b + q((a - b) mod p), as q = 1 mod p (p | q - 1)."""
    b = np.arange(q)
    return b + q * ((np.arange(p)[:, None] - b) % p)


def _torus_counts(pair: PrimePair, index: np.ndarray):
    """The counts on the (p, q) torus, a block of columns b at a time, b
    ascending: entry (a, j, ell + 1) of the block from b0 counts the t with
    label ell (-1 for the non-units), t = a mod p and t = b0 + j mod q.
    Cell (a, b) is column c of the (q, pq) view, whose column c holds the
    t = c mod pq, for c = a mod p and c = b mod q; one bincount per block
    counts its columns."""
    p, q = pair.p, pair.q
    view = index.reshape(q, p * q)
    columns = _torus_columns(p, q)
    step = _per_block(p * q)
    for b0 in range(0, q, step):
        cells = columns[:, b0:b0 + step].ravel()   # a row per a, each a row of pq
        # cell i of the block with label ell: key i(q + 1) + ell + 1
        keys = view[:, cells] + np.arange(1, (q + 1) * cells.size, q + 1)
        counts = np.bincount(keys.ravel(), minlength=(q + 1) * cells.size)
        del keys   # freed while the block is read
        yield counts.reshape(p, -1, q + 1)


class _Torus(NamedTuple):
    """What lemmas 5, 6, 8 and 9 read of the torus counts: row ell of mod_p
    counts D_ell by t mod p; per coset, whether its counts miss the units'
    cells (lemma 6) or p - 1 units per unit class mod q (lemma 5); per coset
    and for their sum (entry q), whether its polynomial is off 1 mod Phi_pq
    or off a constant mod x^q + 1."""

    mod_p: np.ndarray
    off_cells: np.ndarray
    off_mod_q: np.ndarray
    off_phi_pq: np.ndarray
    off_phi_q: np.ndarray


def _torus_verdicts(pair: PrimePair, blocks) -> _Torus:
    """The _Torus of the torus counts of one period, given as blocks of
    columns b ascending (see _torus_counts)."""
    p, q = pair.p, pair.q
    unit_q = np.arange(q) != 0
    units, per_q = np.outer(np.arange(p) != 0, unit_q)[..., None], (p - 1) * unit_q[:, None]
    mod_p = np.zeros((p, q + 1), dtype=np.int64)
    off = np.zeros((4, q + 1), dtype=bool)
    b0 = 0
    for counts in blocks:
        width = counts.shape[1]
        by_q = counts.sum(axis=0)
        mod_p += counts.sum(axis=1)
        # a coset meets each unit cell once, and so each unit class mod q p - 1
        # times (entry 0, the non-units, is compared too and dropped)
        off[0] |= (counts != units[:, b0:b0 + width]).any(axis=(0, 1))
        off[1] |= (by_q != per_q[b0:b0 + width]).any(axis=0)
        # the parities; each cell holds q entries, q odd, so flipping entry 0
        # gives the parity of the sum over the cosets (uint8 wraps mod 256,
        # which keeps the parity)
        planes = counts.astype(np.uint8)
        planes &= 1
        planes[..., 0] ^= 1
        parity_q = planes.sum(axis=0, dtype=np.uint8) & 1   # by t mod q
        if b0 == 0:
            planes[0, 0] ^= 1   # each coset polynomial, and their sum, is 1 mod Phi_pq
            first, first_q = planes[:, :1].copy(), parity_q[:1].copy()
        off[2] |= _off_phi_pq(planes, first)
        off[3] |= (parity_q != first_q).any(axis=0)
        b0 += width
    off = np.roll(off, -1, axis=1)   # the cosets first, their sum as entry q
    return _Torus(mod_p[:, 1:].T, off[0, :q], off[1, :q], off[2], off[3])


def _q2_claims(pair: PrimePair, gens: GroupGenerators):
    """The coset that lemma 7 claims for each column r of the (p, q^2) view,
    -1 for the non-units, as (r0, claims) for blocks of whole periods q of r,
    r0 ascending.  D_ell mod q^2 is ghat^ell <g^q>, each p - 1 times, and the
    Fermat quotient FQ(r) = (r^(q-1) - 1)/q mod q maps (Z/q^2)* onto Z_q with
    kernel <g^q>, so r lies in ghat^ell <g^q> for ell = FQ(r) / FQ(ghat) mod q
    (FQ(ghat) != 0: ghat is outside <g^q, h>, the kernel of the coset index,
    as psi(ghat) = p).  FQ(s + kq) = FQ(s) - k/s mod q is affine in k."""
    q = pair.q
    q2 = q * q
    inverse = pow(pow(gens.ghat, q - 1, q2) // q, -1, q)   # 1 / FQ(ghat)
    lift = np.array([pow(s, q - 2, q2) for s in range(q)])   # s^(q-1) / s mod q^2
    slope = lift % q * inverse % q   # the fall of the claim of s + kq as k rises by 1
    rows = np.arange(_per_block(pair.p * q))[:, None]
    claims = (lift * np.arange(q) % q2 // q * inverse - rows * slope) % q   # row k, column s
    claims[:, 0] = -1   # the non-units, which slope 0 keeps
    rise = -rows.size * slope % q
    for r0 in range(0, q2, claims.size):
        yield r0, claims.ravel()[:q2 - r0]
        claims = claims + rise
        claims -= q * (claims >= q)


def _q2_columns(pair: PrimePair, gens: GroupGenerators,
                index: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Lemma 7 on the (p, q^2) view, whose column r holds the t = r mod q^2,
    a block of the _q2_claims at a time: whether each coset misses its
    multiset mod q^2, and the keys coset * q^2 + r that an odd number of
    units hold; and, from the same blocks, each of whole torus columns b,
    whether the labelled indicator, the cosets' sum, is nonzero mod Phi_{pq^2}."""
    p, q = pair.p, pair.q
    q2 = q * q
    view = index.reshape(p, q2)
    rows = _torus_columns(p, q) // q   # the row i = (a - b) mod p of cell (a, b)
    first = view[:, None, :q] >= 0   # the parts' torus column b = 0, cell (i, 0) in row i
    bad, odd, off_phi_n = np.zeros(q, dtype=bool), [], False
    for r0, claims in _q2_claims(pair, gens):
        block = view[:, r0:r0 + claims.size]
        labelled = block >= 0
        hit = block == claims
        per_column = hit.sum(axis=0)
        # the claims (claims[r], r) not held p - 1 times, among them, as p - 1
        # is even, all those held an odd number of times
        r = np.flatnonzero((claims >= 0) & (per_column != p - 1))
        off = labelled > hit   # labelled, but not with the claim
        if r.size or off.any():   # else the block has nothing to collect
            keys, counts = claims[r] * q2 + (r0 + r), per_column[r]
            j, c = np.divmod(np.flatnonzero(off), claims.size)
            stray, times = np.unique(block[j, c] * np.int64(q2) + (r0 + c), return_counts=True)
            bad[np.concatenate([keys, stray]) // q2] = True
            odd += [keys[counts % 2 == 1], stray[times % 2 == 1]]
        # the block's parts on the torus, a row per a and a column per b
        b0, b = r0 // q, np.arange(claims.size // q)
        parts = labelled.reshape(p, b.size, q)[rows[:, b0:b0 + b.size], b]
        off_phi_n |= _off_phi_pq(parts, first).any()
    return bad, np.concatenate(odd or [np.zeros(0, dtype=np.int64)]), bool(off_phi_n)


def _check_residue_multisets(pair: PrimePair, torus: _Torus,
                             bad_q2: np.ndarray) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    out: dict[str, list[str]] = {"lemma5": [], "lemma6": [], "lemma7": []}
    # a coset meets each unit class mod pq, a torus cell (a, b) with a, b != 0,
    # once, and so each unit class mod p q - 1 times and mod q p - 1 times
    off_p = (torus.mod_p != (np.arange(p) != 0) * (q - 1)).any(axis=1)
    bad = zip(off_p.tolist(), torus.off_mod_q.tolist(), torus.off_cells.tolist(), bad_q2.tolist())
    for ell, (off_p, off_q, off_pq, off_q2) in enumerate(bad):
        if off_p:
            residues = {r: c for r, c in enumerate(torus.mod_p[ell].tolist()) if c}
            out["lemma5"].append(f"D_{ell} mod p multiset wrong: {residues}")
        if off_q:
            out["lemma5"].append(f"D_{ell} mod q multiset wrong")
        if off_pq:
            out["lemma6"].append(f"D_{ell} mod pq is not a bijection onto the units")
        if off_q2:
            out["lemma7"].append(f"D_{ell} mod q^2 multiset wrong")
    return out


def _off_phi_pq(planes: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Whether each plane of parities on the (p, q) torus (the first two axes,
    a plane per entry of the last), as the polynomial it sets through
    x^i -> y^(i mod p) z^(i mod q), is nonzero mod Phi_pq: exactly when
    (y + 1)(z + 1) times it is nonzero, that is when some entry (a, b) differs
    from the sum of (a, 0), (0, b) and (0, 0).  The planes may hold a block
    of the columns b, with first their column b = 0."""
    mixed = planes ^ first
    return (mixed ^ mixed[:1]).any(axis=(0, 1))


def _off_phi_q2(keys: np.ndarray, q: int) -> list[int]:
    """The rows ell, ascending, whose distinct keys ell * q^2 + a (a < q^2) set a
    polynomial that is not 0 mod Phi_{q^2} = Phi_q(x^q): part j of its remainder
    is the remainder of the class a = j mod q, a polynomial of degree below q,
    which is 0 exactly when the class holds 0 or q keys, since Phi_q is all ones."""
    counts = np.bincount(keys // (q * q) * q + keys % q)
    return sorted(set((np.flatnonzero(counts % q) // q).tolist()))


def _check_congruences(pair: PrimePair, torus: _Torus, odd_q2: np.ndarray,
                       off_phi_n: bool) -> dict[str, list[str]]:
    q = pair.q
    out: dict[str, list[str]] = {"lemma8": [], "lemma9": []}

    # each coset polynomial, and so their sum (row q), is 1 modulo the pq
    # cyclotomic and 0 modulo the p, q and q^2 ones; mod x^m + 1 for m = p or q
    # it is its counts by t mod m, which is c mod the prime Phi_m exactly when
    # it is c plus 0 or Phi_m (all ones)
    mod_p = np.concatenate([torus.mod_p, torus.mod_p.sum(axis=0, keepdims=True)]) & 1
    summed_q2 = np.flatnonzero(np.bincount(odd_q2 % (q * q)) % 2)
    for name, expect, off in (
            ("pq", 1, np.flatnonzero(torus.off_phi_pq).tolist()),
            ("p", 0, np.flatnonzero((mod_p != mod_p[:, :1]).any(axis=1)).tolist()),
            ("q", 0, np.flatnonzero(torus.off_phi_q).tolist()),
            ("q2", 0, _off_phi_q2(odd_q2, q) + [q] * bool(_off_phi_q2(summed_q2, q)))):
        bad = [ell for ell in off if ell < q]
        if bad:
            out["lemma8"].append(
                f"coset polynomial(s) {bad} are not {expect} modulo the {name} cyclotomic"
            )
        if q in off:
            out["lemma9"].append(f"summed coset polynomial is not {expect} mod {name}")
    if off_phi_n:
        out["lemma9"].append("summed coset polynomial is nonzero mod the pq^2 cyclotomic")
    return out


def residue_failures(pair: PrimePair, gens: GroupGenerators,
                     index: np.ndarray) -> tuple[np.ndarray, dict[str, list[str]]]:
    """The coset sizes |D_0|, ..., |D_(q-1)|, read off the torus counts, and
    the failure messages of each of lemmas 5-9, empty where it holds."""
    torus = _torus_verdicts(pair, _torus_counts(pair, index))
    bad_q2, odd_q2, off_phi_n = _q2_columns(pair, gens, index)
    failures = _check_residue_multisets(pair, torus, bad_q2)
    failures.update(_check_congruences(pair, torus, odd_q2, off_phi_n))
    return torus.mod_p.sum(axis=1), failures
