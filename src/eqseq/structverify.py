"""Structural audit of the coset partition behind the threshold sequence.

The partition is the coset index itself, one array of signed integers over
a period (build_partition gives int16): index[t] = psi(t)/p on the units of
Z_{pq^2} and -1 elsewhere, so D_ell = {t : index[t] == ell}.  Its length
N = pq^2 fixes the pair, and lemma_failures refuses (check_index) an
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

The residue checks of lemmas 5-9 are in residues.  A sound index runs none of
them, nor the walks below: one comparison decides it (lemma_failures); on any
other index they name faults, each on whole arrays of O(N) entries.

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
from .errors import DomainError
from .eulerq import build_partition, derive_generators, two_coset_index
from .limits import check_exact
from .ntcore import GroupGenerators, PrimePair, crt_lift


def check_index(pair: PrimePair, index: np.ndarray) -> None:
    """Refuse a coset index that is not one period N = pq^2 long (N fixes the
    pair), is not an array of signed integers, or holds a label outside
    -1..q-1 (-1 off the units, a coset of Z_q on them)."""
    if np.shape(index) != (pair.period,):
        raise DomainError(f"coset index of shape {np.shape(index)} is not one period N = {pair.period}")
    if not isinstance(index, np.ndarray) or index.dtype.kind != "i":
        kind = getattr(index, "dtype", type(index).__name__)
        raise DomainError(f"coset index of type {kind} is not a signed integer array")
    low, high = int(index.min()), int(index.max())
    if low < -1 or high >= pair.q:
        raise DomainError(f"coset index holds label {low if low < -1 else high}, "
                          f"outside -1..{pair.q - 1}")


# ---------------------------------------------------------------------------
# the checks behind lemma_failures; each returns failure messages


def _powers(base: int, count: int, n: int) -> np.ndarray:
    """base^0, base^1, ..., base^(count-1) mod n, doubling the filled prefix.
    Each product here and in the walks over the units multiplies two
    residues below n, so it stays below n^2 and is exact in int64 while n is
    at most limits.EXACT_PERIOD, which the audit checks first."""
    out = np.empty(count, dtype=np.int64)
    out[:1] = 1 % n
    k = 1
    while k < count:
        step = min(k, count - k)
        out[k:k + step] = out[:step] * pow(base, k, n) % n
        k += step
    return out


def _units(pair: PrimePair, gens: GroupGenerators) -> np.ndarray:
    """The units of Z_N, each once, as h^a * g2^b in row a < p - 1, column
    b < q(q - 1), for g2 = CRT(1 mod p, g mod q^2), of order q(q-1)."""
    n, p, q = pair.period, pair.p, pair.q
    g2 = crt_lift([(1, p), (gens.g % (q * q), q * q)])
    units = np.multiply.outer(_powers(gens.h, p - 1, n), _powers(g2, q * (q - 1), n))
    units %= n
    return units


def _check_additivity(pair: PrimePair, index: np.ndarray, sizes: np.ndarray,
                      units: np.ndarray) -> list[str]:
    """Empty exactly when the index is a homomorphism from the units to Z_q
    that labels nothing else; otherwise one witness, the first h^a * g2^b (a,
    then b, ascending) not labelled b * I(g2) mod q.  units holds the h^a * g2^b
    in row a, column b."""
    labelled = int(sizes.sum())
    if labelled != units.size:
        return [f"index additivity fails: {labelled} positions carry a label, "
                f"expected (p-1)q(q-1) = {units.size}"]
    row = units.shape[1]
    expected = np.arange(row) * int(index[units[0, 1]]) % pair.q   # b * I(g2), g2 at (0, 1)
    bad = np.flatnonzero(index.take(units) != expected)
    if bad.size:
        a, b = divmod(int(bad[0]), row)
        t = int(units[a, b])
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
    # exactly when every image is labelled ell and |D_ell| = |D_0|; D_0 is
    # mapped only by the ell with |D_ell| = |D_0|, as those cosets and D_0
    # hold no more than N positions, so the images are fewer than N
    n = pair.period
    ells = np.flatnonzero(sizes == sizes[0])[1:]
    images = np.multiply.outer(np.flatnonzero(index == 0), _powers(gens.ghat, pair.q, n)[ells])
    images %= n   # row i, column j: ghat^ells[j] * t_i
    holds = np.zeros(pair.q, dtype=bool)
    holds[ells] = (index.take(images) == ells).all(axis=0)
    return [f"ghat^{ell} * D_0 != D_{ell}" for ell in (np.flatnonzero(~holds[1:]) + 1).tolist()]


def _check_kernel_image(pair: PrimePair, index: np.ndarray, sizes: np.ndarray,
                        units: np.ndarray) -> list[str]:
    problems = []
    p, q = pair.p, pair.q

    # kernel: <g^q, h> = <h, g2^q> (as g = h g2), the h^a * g2^b with b = 0
    # mod q, equals D_0 exactly when all labelled 0 and |D_0| is its size
    kernel = units[:, ::q]
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

    Lemmas 6 and 7 hold exactly when the index is the Fermat-quotient index,
    FQ(t mod q^2) / FQ(ghat) mod q on the units and -1 elsewhere: lemma 6
    puts the labels on exactly the units, lemma 7 gives each the claim of its
    column (residues._q2_claims), and that index meets each unit class mod pq
    once per coset, as FQ(s + kq) = FQ(s) - k/s mod q.  FQ is a surjective
    homomorphism (Z/q^2)* -> Z_q and h = 1 mod q^2, so the index is then a
    surjective homomorphism on the units with I(h) = 0 and I(ghat) = 1, and
    every lemma holds: one comparison (residues.is_fermat_index) decides a
    sound index.  Otherwise the residue checks, which also give the coset
    sizes, serve lemmas 5-9, one exact additivity test from h and g2 serves
    lemmas 2 and 4, and the walks over the units name the faults.
    """
    check_exact(pair.period)
    check_index(pair, index)
    gens = derive_generators(pair)
    if residues.is_fermat_index(pair, gens, index):
        return {f"lemma{k}": [] for k in range(2, 10)}
    sizes, residue_failures = residues.residue_failures(pair, gens, index)
    units = _units(pair, gens)
    additivity = _check_additivity(pair, index, sizes, units)

    failures = {"lemma2": _check_kernel_image(pair, index, sizes, units) + additivity}
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
