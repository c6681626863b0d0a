"""Structural audit of the coset partition behind the threshold sequence.

The partition is the coset index itself, one array of signed integers over
a period (build_partition gives int16): index[t] = psi(t)/p on the units of
Z_{pq^2} and -1 elsewhere, so D_ell = {t : index[t] == ell}.  Its length
N = pq^2 fixes the pair, and lemma_failures refuses (sequence.check_index) an
index that is not one period long, is not an array of signed integers, or
has a label outside -1..q-1; before that it refuses a period past the range
in which its int64 products of two residues are exact (limits.check_exact).
Eight facts are checked per pair: the quotient map is a surjective
homomorphism with the stated kernel and image; the units split into q cosets
of equal size; multiplication translates cosets; reductions of a coset modulo
p, q, pq and q^2 hit prescribed multisets; and the coset polynomials satisfy
exact congruences modulo cyclotomic polynomials.  Agreement modulo the n-th
cyclotomic polynomial is agreement at every primitive n-th root, in
GF(2)[x] arithmetic.

The residue checks of lemmas 5-9, and the block walk that every check shares,
are in residues.  They run first: where lemmas 6 and 7 hold they decide
lemmas 2-4 (lemma_failures), and the walks below name the faults.

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

from . import residues
from .eulerq import build_partition, derive_generators, two_coset_index
from .limits import check_exact, per_block
from .ntcore import GroupGenerators, PrimePair, crt_lift
from .residues import _powers
from .sequence import check_index


# ---------------------------------------------------------------------------
# the checks behind lemma_failures; each returns failure messages


def _g2(pair: PrimePair, gens: GroupGenerators) -> int:
    """g2 = CRT(1 mod p, g mod q^2), of order q(q-1)."""
    q2 = pair.q * pair.q
    return crt_lift([(1, pair.p), (gens.g % q2, q2)])


def _check_additivity(pair: PrimePair, index: np.ndarray, sizes: np.ndarray,
                      h_powers: np.ndarray, g2: int) -> list[str]:
    """Empty exactly when the index is a homomorphism from the units to Z_q
    that labels nothing else; otherwise one witness, the first h^a * g2^b (a,
    then b, ascending) not labelled b * I(g2) mod q.  h_powers holds the h^a;
    each row a is walked in blocks of whole periods q of b * I(g2) mod q."""
    n, p, q = pair.period, pair.p, pair.q
    row = q * (q - 1)
    labelled = int(sizes.sum())
    if labelled != (p - 1) * row:
        return [f"index additivity fails: {labelled} positions carry a label, "
                f"expected (p-1)q(q-1) = {(p - 1) * row}"]
    width = min(row, q * per_block(q))
    powers, stride = _powers(g2, width, n), pow(g2, width, n)
    expected = (np.arange(width) * int(index[g2]) % q).astype(np.int32)   # b * I(g2), b mod width
    for a, start in enumerate(h_powers.tolist()):
        for b in range(0, row, width):
            block = powers[:row - b] * start   # h^a * g2^(b + j)
            block %= n
            bad = np.flatnonzero(index.take(block) != expected[:block.size])
            if bad.size:
                j = int(bad[0])
                t = int(block[j])
                return [f"index additivity fails: I(h^{a} * g2^{b + j}) = I({t}) = {index[t]}, "
                        f"expected b * I(g2) = {expected[j]} mod q"]
            start = start * stride % n
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
    # exactly when every image is labelled ell and |D_ell| = |D_0|; D_0 is read
    # a block of the index at a time, and mapped a slice of it at a time
    n, q = pair.period, pair.q
    powers, labels = _powers(gens.ghat, q, n)[1:], np.arange(1, q)
    holds = sizes[1:] == sizes[0]
    step, width = per_block(), per_block(q - 1)
    for start in range(0, n, step):
        d0 = np.flatnonzero(index[start:start + step] == 0)
        d0 += start
        for j in range(0, d0.size, width):
            images = d0[j:j + width, None] * powers   # row i, column ell - 1: ghat^ell * t_i
            images %= n
            holds &= (index.take(images) == labels).all(axis=0)
    return [f"ghat^{ell} * D_0 != D_{ell}" for ell in (np.flatnonzero(~holds) + 1).tolist()]


def _check_kernel_image(pair: PrimePair, index: np.ndarray, sizes: np.ndarray,
                        h_powers: np.ndarray, g2: int) -> list[str]:
    problems = []
    n, p, q = pair.period, pair.p, pair.q

    # kernel: <g^q, h> = <h, g2^q> (as g = h g2), the h^a * g2^b with b = 0
    # mod q, equals D_0 exactly when all labelled 0 and |D_0| is its size
    kernel = np.multiply.outer(h_powers, _powers(pow(g2, q, n), q - 1, n))
    kernel %= n
    if not ((index.take(kernel) == 0).all() and sizes[0] == kernel.size):
        problems.append(f"subgroup <g^q, h> has {kernel.size} elements and differs from D_0")

    # image over units is exactly {0, p, 2p, ..., (q-1)p}
    image = np.flatnonzero(sizes)
    if not np.array_equal(image, np.arange(q)):
        problems.append(f"image of the quotient map is {(p * image).tolist()}")
    return problems


def lemma_failures(pair: PrimePair, index: np.ndarray) -> dict[str, list[str]]:
    """Failure messages of each of lemmas 2-9 on the coset index (see
    check_index), empty where it holds, for the generators g, h and ghat that
    (p, q) fixes, from derive_generators.

    The residue checks, which also give the coset sizes, serve lemmas 5-9.
    Where lemmas 6 and 7 hold, they decide lemmas 2-4, and the walks over the
    units (additivity, kernel and image, ghat law) are skipped, as each would
    return no message.  Lemma 6 says each coset meets every unit class mod pq
    once and no other class, so the labelled positions are exactly the
    (p-1)q(q-1) units; lemma 7 says each labelled t carries the claim of its
    column, FQ(t mod q^2) / FQ(ghat) mod q (residues._q2_claims).  The Fermat
    quotient FQ is a surjective homomorphism (Z/q^2)* -> Z_q and h = 1 mod q^2,
    so the index is then a surjective homomorphism on the units with I(h) = 0
    and I(ghat) = 1: it is additive, its kernel <h, g2^q> is D_0 of size
    (p-1)(q-1), its image is all of Z_q, ghat^ell * D_0 = D_ell and every
    unit translates the cosets.  Lemma 3 is then the coset sizes alone.
    Otherwise one exact additivity test from h and g2 serves lemmas 2 and 4,
    and the walks name the faults.
    """
    check_exact(pair.period)
    check_index(pair, index)
    gens = derive_generators(pair)
    sizes, residue_failures = residues.residue_failures(pair, gens, index)
    if not (residue_failures["lemma6"] or residue_failures["lemma7"]):
        return {"lemma2": [], "lemma3": _check_partition_shape(pair, sizes), "lemma4": [],
                **residue_failures}
    h_powers, g2 = _powers(gens.h, pair.p - 1, pair.period), _g2(pair, gens)
    additivity = _check_additivity(pair, index, sizes, h_powers, g2)

    failures = {"lemma2": _check_kernel_image(pair, index, sizes, h_powers, g2) + additivity}
    failures["lemma3"] = (_check_partition_shape(pair, sizes)
                          + _check_ghat_law(pair, gens, index, sizes))
    failures["lemma4"] = (["the index is not additive, so a translation leaves its target coset"]
                          if additivity else [])
    failures.update(residue_failures)
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
