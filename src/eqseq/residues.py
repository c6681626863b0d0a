"""Residue checks of the coset index, lemmas 5-9, and the comparison that
decides a sound index.

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
Each pass words the messages its evidence decides: the torus pass those of
lemmas 5 and 6 and of the Phi_pq, Phi_p and Phi_q congruences, the q^2 pass
those of lemma 7, of the Phi_{q^2} congruences and of lemma 9's pq^2 term.
A sound index runs neither: is_fermat_index matches it to lemma 7's claims.
Each pass reads its view whole, so on an index that fails the comparison the
audit holds temporaries of O(N) entries; the comparison alone walks the view
a block of lemma 7's claims at a time, lifted from q Fermat quotients.
"""

from __future__ import annotations

import numpy as np

from .limits import per_block
from .ntcore import GroupGenerators, PrimePair


def _torus_columns(p: int, q: int) -> np.ndarray:
    """For each cell (a, b) of the (p, q) torus, the c < pq with c = a mod p
    and c = b mod q: c = b + q((a - b) mod p), as q = 1 mod p (p | q - 1)."""
    b = np.arange(q)
    return b + q * ((np.arange(p)[:, None] - b) % p)


def _congruences(out: dict[str, list[str]], q: int, verdicts) -> None:
    """Word into out the lemma 8 and 9 messages of each (modulus name,
    expected residue, rows off it) of verdicts, row q the cosets' sum."""
    for name, expect, off in verdicts:
        bad = [ell for ell in off if ell < q]
        if bad:
            out["lemma8"].append(
                f"coset polynomial(s) {bad} are not {expect} modulo the {name} cyclotomic"
            )
        if q in off:
            out["lemma9"].append(f"summed coset polynomial is not {expect} mod {name}")


def _torus_failures(pair: PrimePair, counts: np.ndarray) -> tuple[np.ndarray, dict[str, list[str]]]:
    """The coset sizes and the messages of lemmas 5 and 6 and of the Phi_pq,
    Phi_p and Phi_q congruences of lemmas 8 and 9, read off the counts on the
    (p, q) torus of one period: entry (a, b, ell + 1) counts the t with label
    ell (-1 for the non-units), t = a mod p and t = b mod q."""
    p, q = pair.p, pair.q
    unit_p, unit_q = np.arange(p) != 0, np.arange(q) != 0
    by_p = counts.sum(axis=1)
    # the parities; each cell holds q entries, q odd, so flipping entry 0
    # gives the parity of the sum over the cosets (uint8 wraps mod 256, which
    # keeps the parity)
    planes = counts.astype(np.uint8)
    planes &= 1
    planes[..., 0] ^= 1
    parity_p, parity_q = (planes.sum(axis=axis, dtype=np.uint8) & 1 for axis in (1, 0))
    planes[0, 0] ^= 1   # each coset polynomial, and their sum, is 1 mod Phi_pq
    # a coset meets each unit class mod pq, a torus cell (a, b) with a, b != 0,
    # once, and so each unit class mod p q - 1 times and mod q p - 1 times
    # (entry 0, the non-units, is compared too and dropped); each coset
    # polynomial, and so their sum, is 1 modulo the pq cyclotomic and 0 modulo
    # the p and q ones; mod x^m + 1 for m = p or q it is its counts by t mod m,
    # which is c mod the prime Phi_m exactly when it is c plus 0 or Phi_m (all
    # ones), so when its parities by t mod m are all equal
    off = [(by_p != (q - 1) * unit_p[:, None]).any(axis=0),
           (counts.sum(axis=0) != (p - 1) * unit_q[:, None]).any(axis=0),
           (counts != np.outer(unit_p, unit_q)[..., None]).any(axis=(0, 1)), _off_phi_pq(planes),
           (parity_p != parity_p[:1]).any(axis=0), (parity_q != parity_q[:1]).any(axis=0)]
    # the cosets first, their sum as entry q
    off_mod_p, off_mod_q, off_cells, *congruent = np.roll(off, -1, axis=1)
    mod_p = by_p[:, 1:].T   # row ell counts D_ell by t mod p
    out: dict[str, list[str]] = {"lemma5": [], "lemma6": [], "lemma8": [], "lemma9": []}
    for ell, (off_p, off_q, off_pq) in enumerate(zip(off_mod_p[:q].tolist(), off_mod_q[:q].tolist(),
                                                     off_cells[:q].tolist())):
        if off_p:
            residues = {r: c for r, c in enumerate(mod_p[ell].tolist()) if c}
            out["lemma5"].append(f"D_{ell} mod p multiset wrong: {residues}")
        if off_q:
            out["lemma5"].append(f"D_{ell} mod q multiset wrong")
        if off_pq:
            out["lemma6"].append(f"D_{ell} mod pq is not a bijection onto the units")
    _congruences(out, q, [(name, expect, np.flatnonzero(rows).tolist())
                          for name, expect, rows in zip(("pq", "p", "q"), (1, 0, 0), congruent)])
    return mod_p.sum(axis=1), out


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
    rows = np.arange(per_block(pair.p * q))[:, None]
    claims = (lift * np.arange(q) % q2 // q * inverse - rows * slope) % q   # row k, column s
    claims[:, 0] = -1   # the non-units, which slope 0 keeps
    rise = -rows.size * slope % q
    for r0 in range(0, q2, claims.size):
        yield r0, claims.ravel()[:q2 - r0]
        claims = claims + rise
        claims -= q * (claims >= q)


def is_fermat_index(pair: PrimePair, gens: GroupGenerators, index: np.ndarray) -> bool:
    """Whether the index, its labels in -1..q-1, is the Fermat-quotient index:
    the claim of its column of the (p, q^2) view on the units (_q2_claims),
    -1 elsewhere.  Row i, column r holds t = iq^2 + r = i + r mod p, as
    q = 1 mod p, so column r holds one t = 0 mod p; where all those are -1,
    a block of the claims, w columns, w/q of them claiming -1, is matched
    by at most (p - 1)w + w/q cells, and by that many exactly when every
    other cell holds its claim.  Claims fit int16, as q < 2^15."""
    p, q = pair.p, pair.q
    if index[::p].max() >= 0:
        return False
    view = index.reshape(p, -1)
    for r0, claims in _q2_claims(pair, gens):
        w = claims.size
        if np.count_nonzero(view[:, r0:r0 + w] == claims.astype(np.int16)) != (p - 1) * w + w // q:
            return False
    return True


def _q2_failures(pair: PrimePair, gens: GroupGenerators, index: np.ndarray) -> dict[str, list[str]]:
    """The messages of lemma 7 and of the Phi_{q^2} and Phi_{pq^2} congruences
    of lemmas 8 and 9, on the (p, q^2) view, whose column r holds the
    t = r mod q^2, against the _q2_claims: the cosets that miss their multiset
    mod q^2, and the keys coset * q^2 + r that an odd number of units hold;
    and whether the labelled indicator, the cosets' sum, is nonzero mod
    Phi_{pq^2}."""
    p, q = pair.p, pair.q
    q2 = q * q
    view = index.reshape(p, q2)
    claims = np.concatenate([block for _, block in _q2_claims(pair, gens)])
    labelled = view >= 0
    hit = view == claims
    per_column = hit.sum(axis=0)
    # the claims (claims[r], r) not held p - 1 times, among them, as p - 1 is
    # even, all those held an odd number of times
    r = np.flatnonzero((claims >= 0) & (per_column != p - 1))
    keys, counts = claims[r] * q2 + r, per_column[r]
    i, c = np.nonzero(labelled > hit)   # labelled, but not with the claim
    stray, times = np.unique(view[i, c] * np.int64(q2) + c, return_counts=True)
    odd = np.concatenate([keys[counts % 2 == 1], stray[times % 2 == 1]])
    bad = np.unique(np.concatenate([keys, stray]) // q2)
    out = {"lemma7": [f"D_{ell} mod q^2 multiset wrong" for ell in bad.tolist()],
           "lemma8": [], "lemma9": []}
    # each coset polynomial, and so their sum, is 0 mod Phi_{q^2}
    summed = np.flatnonzero(np.bincount(odd % q2) % 2)
    _congruences(out, q, [("q2", 0, _off_phi_q2(odd, q) + [q] * bool(_off_phi_q2(summed, q)))])
    # the parts on the torus, a row per a and a column per b
    parts = labelled.reshape(p, q, q)[_torus_columns(p, q) // q, np.arange(q)]
    if _off_phi_pq(parts).any():
        out["lemma9"].append("summed coset polynomial is nonzero mod the pq^2 cyclotomic")
    return out


def _off_phi_pq(planes: np.ndarray) -> np.ndarray:
    """Whether each plane of parities on the (p, q) torus (the first two axes,
    a plane per entry of the last), as the polynomial it sets through
    x^i -> y^(i mod p) z^(i mod q), is nonzero mod Phi_pq: exactly when
    (y + 1)(z + 1) times it is nonzero, that is when some entry (a, b) differs
    from the sum of (a, 0), (0, b) and (0, 0)."""
    mixed = planes ^ planes[:, :1]
    return (mixed ^ mixed[:1]).any(axis=(0, 1))


def _off_phi_q2(keys: np.ndarray, q: int) -> list[int]:
    """The rows ell, ascending, whose distinct keys ell * q^2 + a (a < q^2) set a
    polynomial that is not 0 mod Phi_{q^2} = Phi_q(x^q): part j of its remainder
    is the remainder of the class a = j mod q, a polynomial of degree below q,
    which is 0 exactly when the class holds 0 or q keys, since Phi_q is all ones."""
    counts = np.bincount(keys // (q * q) * q + keys % q)
    return sorted(set((np.flatnonzero(counts % q) // q).tolist()))


def residue_failures(pair: PrimePair, gens: GroupGenerators,
                     index: np.ndarray) -> tuple[np.ndarray, dict[str, list[str]]]:
    """The coset sizes |D_0|, ..., |D_(q-1)|, read off the torus counts, and
    the failure messages of each of lemmas 5-9, empty where it holds."""
    p, q = pair.p, pair.q
    # cell (a, b) of the torus is column c of the (q, pq) view, which holds
    # the t = c mod pq, for c = a mod p and c = b mod q; one bincount of the
    # keys c(q + 1) + ell + 1 counts every column
    keys = index.reshape(q, p * q) + np.arange(1, (q + 1) * p * q, q + 1)
    counts = np.bincount(keys.ravel(), minlength=(q + 1) * p * q).reshape(p * q, q + 1)
    del keys   # freed before the cells are gathered
    sizes, torus = _torus_failures(pair, counts[_torus_columns(p, q)])
    q2 = _q2_failures(pair, gens, index)
    return sizes, {f"lemma{k}": torus.get(f"lemma{k}", []) + q2.get(f"lemma{k}", [])
                   for k in range(5, 10)}
