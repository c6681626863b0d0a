"""Structural audit of the coset partition behind the threshold sequence.

The partition is one dense coset index over a period: index[t] = psi(t)/p on
the units of Z_{pq^2} and -1 elsewhere, so D_ell = {t : index[t] == ell}.
Eight facts are checked per pair: the quotient map is a surjective
homomorphism with the stated kernel and image; the units split into q cosets
of equal size; multiplication translates cosets; reductions of a coset modulo
p, q, pq and q^2 hit prescribed multisets; and the coset polynomials satisfy
exact congruences modulo cyclotomic polynomials.  The congruences stand in for
evaluation at primitive roots of unity in an extension field: agreement modulo
the n-th cyclotomic polynomial is equivalent to agreement at every primitive
n-th root, and stays in plain GF(2)[x] arithmetic.

Residues are counted as keys coset * m + (t mod m) over the units; a coset
polynomial mod x^m - 1 is the parity of its keys.

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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .eulerq import build_table, derive_generators, two_coset_index
from .gf2poly import _int_mod, cyclotomic_f2
from .ntcore import GroupGenerators, PrimePair, crt_lift
from .sequence import pack_flags

_FOLD_CHUNK = 1 << 20       # flags per slice of the folded coset residues

ResidueCounts = tuple[np.ndarray, np.ndarray]   # sorted keys and their multiplicities


@dataclass(frozen=True, eq=False)
class CosetPartition:
    """The coset index over one period: D_ell holds the t with index[t] == ell,
    and the non-units P those with index[t] == -1."""

    pair: PrimePair
    index: np.ndarray   # int32, length p*q^2

    @functools.cached_property
    def units(self) -> np.ndarray:
        """All units, ascending."""
        return np.flatnonzero(self.index >= 0)

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """|D_0|, |D_1|, ... from one bincount; longer than q only on a corrupted index."""
        return np.bincount(self.index + 1, minlength=self.pair.q + 1)[1:]


def build_partition(pair: PrimePair, values: np.ndarray | None = None) -> CosetPartition:
    """Fill the coset index over one full period from the Euler quotients
    `values` (build_table(pair) by default); N = pq^2 fixes the pair."""
    pair.require_divides()
    values = np.asarray(build_table(pair) if values is None else values, dtype=np.int64)
    if values.shape != (pair.period,):
        raise DomainError(f"psi table of shape {values.shape} is not one period N = {pair.period}")
    p, q = pair.p, pair.q
    t = np.arange(pair.period)
    unit = (t % p != 0) & (t % q != 0)
    stray = np.flatnonzero(unit & (values % p != 0))
    if stray.size:
        t0 = int(stray[0])
        raise InternalConsistencyError(
            f"psi({t0}) = {values[t0]} not divisible by p={p}"
        )
    index = np.where(unit, values // p, -1).astype(np.int32)
    return CosetPartition(pair=pair, index=index)


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


def _check_additivity(pair: PrimePair, gens: GroupGenerators,
                      partition: CosetPartition) -> list[str]:
    """Empty exactly when the index is a homomorphism from the units to Z_q
    that labels nothing else; otherwise one witness."""
    coords = _unit_coordinates(pair, gens)
    index = partition.index
    labelled = len(partition.units)
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


def _check_partition_shape(pair: PrimePair, partition: CosetPartition) -> list[str]:
    # the index gives each t exactly one label, so the cosets and P partition
    # the period by construction; what remains are the sizes
    problems = []
    expected = pair.phi_pq
    for ell, size in enumerate(partition.sizes[:pair.q].tolist()):
        if size != expected:
            problems.append(f"|D_{ell}| = {size}, expected {expected}")
    non_units = pair.period - len(partition.units)
    expected_p = pair.period - pair.q * pair.phi_pq
    if non_units != expected_p:
        problems.append(f"|P| = {non_units}, expected {expected_p}")
    return problems


def _check_ghat_law(pair: PrimePair, gens: GroupGenerators, partition: CosetPartition) -> list[str]:
    # multiplication by the unit ghat^ell is injective, so ghat^ell * D_0 = D_ell
    # exactly when every image is labelled ell and |D_ell| = |D_0|
    n, q, sizes = pair.period, pair.q, partition.sizes
    d0 = np.flatnonzero(partition.index == 0)
    labels = partition.index.take(np.outer(_powers(gens.ghat, q, n)[1:], d0) % n)
    holds = (labels == np.arange(1, q)[:, None]).all(axis=1) & (sizes[1:q] == sizes[0])
    return [f"ghat^{ell} * D_0 != D_{ell}" for ell in (np.flatnonzero(~holds) + 1).tolist()]


def _check_kernel_image(pair: PrimePair, gens: GroupGenerators, partition: CosetPartition) -> list[str]:
    problems = []
    n, p, q = pair.period, pair.p, pair.q

    # kernel: the subgroup generated by g^q and h equals D_0
    mark = np.zeros(n, dtype=bool)
    mark[np.outer(_powers(pow(gens.g, q, n), pair.e, n), _powers(gens.h, pair.d, n)) % n] = True
    if not np.array_equal(mark, partition.index == 0):
        problems.append(
            f"subgroup <g^q, h> has {mark.sum()} elements and differs from D_0"
        )

    # image over units is exactly {0, p, 2p, ..., (q-1)p}
    image = np.flatnonzero(partition.sizes)
    if not np.array_equal(image, np.arange(q)):
        problems.append(f"image of the quotient map is {(p * image).tolist()}")
    return problems


def _residue_counts(partition: CosetPartition) -> dict[int, ResidueCounts]:
    """For m in p, q, pq, q^2: sorted keys coset * m + (t mod m) over the units, with counts."""
    p, q = partition.pair.p, partition.pair.q
    units = partition.units
    cosets = partition.index[units].astype(np.int64)
    return {m: np.unique(cosets * m + units % m, return_counts=True)
            for m in (p, q, p * q, q * q)}


def _bad_cosets(found: ResidueCounts, expected_keys: np.ndarray, count: int, m: int) -> set[int]:
    """Cosets whose keys differ from the expected (sorted, distinct) ones or occur not `count` times."""
    keys, counts = found
    stray = np.setxor1d(keys, expected_keys, assume_unique=True)
    return set((stray // m).tolist()) | set((keys[counts != count] // m).tolist())


def _check_residue_multisets(pair: PrimePair, gens: GroupGenerators,
                             counts: dict[int, ResidueCounts]) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    pq, q2 = p * q, q * q
    out: dict[str, list[str]] = {"lemma5": [], "lemma6": [], "lemma7": []}

    def keys(m: int, residues: np.ndarray) -> np.ndarray:
        return (np.arange(q)[:, None] * m + residues).ravel()

    # D_ell mod q^2 is ghat^ell times the subgroup generated by g^q
    subgroup = _powers(pow(gens.g % q2, q, q2), q - 1, q2)
    target = np.outer(_powers(gens.ghat % q2, q, q2), subgroup) % q2
    units_pq = np.array([t for t in range(pq) if math.gcd(t, pq) == 1])

    bad_p = _bad_cosets(counts[p], keys(p, np.arange(1, p)), q - 1, p)
    bad_q = _bad_cosets(counts[q], keys(q, np.arange(1, q)), p - 1, q)
    bad_pq = _bad_cosets(counts[pq], keys(pq, units_pq), 1, pq)
    bad_q2 = _bad_cosets(counts[q2], np.unique(keys(q2, target)), p - 1, q2)

    keys_p, counts_p = counts[p]
    for ell in range(q):
        if ell in bad_p:
            mine = keys_p // p == ell
            mod_p = dict(zip((keys_p[mine] % p).tolist(), counts_p[mine].tolist()))
            out["lemma5"].append(f"D_{ell} mod p multiset wrong: {mod_p}")
        if ell in bad_q:
            out["lemma5"].append(f"D_{ell} mod q multiset wrong")
        if ell in bad_pq:
            out["lemma6"].append(f"D_{ell} mod pq is not a bijection onto the units")
        if ell in bad_q2:
            out["lemma7"].append(f"D_{ell} mod q^2 multiset wrong")
    return out


def _coset_residues(found: ResidueCounts, m: int, q: int) -> list[int]:
    """Each coset polynomial mod Phi_m: the parity of its keys gives it mod x^m - 1.

    The cosets are folded as the rows of (cosets, m) boolean arrays of about
    _FOLD_CHUNK flags each, since q rows of m = q^2 flags can reach q^3.
    """
    keys, counts = found
    odd = keys[counts % 2 == 1]
    modulus = cyclotomic_f2(m).bits
    rows = max(1, _FOLD_CHUNK // m)
    bounds = np.searchsorted(odd, np.arange(0, q + rows, rows).clip(max=q) * m)
    residues = []
    for lo, a, b in zip(range(0, q, rows), bounds, bounds[1:]):
        folded = np.zeros((min(rows, q - lo), m), dtype=bool)
        folded.flat[odd[a:b] - lo * m] = True
        residues += [_int_mod(int.from_bytes(row.tobytes(), "little"), modulus)
                     for row in np.packbits(folded, axis=1, bitorder="little")]
    return residues


def _check_congruences(pair: PrimePair, partition: CosetPartition,
                       counts: dict[int, ResidueCounts]) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    out: dict[str, list[str]] = {"lemma8": [], "lemma9": []}

    # each coset polynomial, and so their sum over the q cosets, is 1 modulo
    # the pq cyclotomic and 0 modulo the p, q and q^2 ones
    for name, m, expect in (("pq", p * q, 1), ("p", p, 0), ("q", q, 0), ("q2", q * q, 0)):
        residues = _coset_residues(counts[m], m, q)
        bad = [ell for ell, r in enumerate(residues) if r != expect]
        if bad:
            out["lemma8"].append(
                f"coset polynomial(s) {bad} are not {expect} modulo the {name} cyclotomic"
            )
        if functools.reduce(operator.xor, residues, 0) != expect:
            out["lemma9"].append(f"summed coset polynomial is not {expect} mod {name}")
    # the sum over all cosets is the units indicator, 0 modulo the pq^2 cyclotomic
    if _int_mod(pack_flags(partition.index >= 0), cyclotomic_f2(pair.period).bits) != 0:
        out["lemma9"].append("summed coset polynomial is nonzero mod the pq^2 cyclotomic")
    return out


def lemma_failures(pair: PrimePair, gens: GroupGenerators,
                   partition: CosetPartition) -> dict[str, list[str]]:
    """Failure messages of each of lemmas 2-9 on a partition, empty where it holds.

    One exact additivity test from the generators h and g2 serves lemmas 2
    and 4, and one set of residue counts serves lemmas 5-9.
    """
    additivity = _check_additivity(pair, gens, partition)
    counts = _residue_counts(partition)

    failures = {"lemma2": _check_kernel_image(pair, gens, partition) + additivity}
    failures["lemma3"] = _check_partition_shape(pair, partition) + _check_ghat_law(pair, gens, partition)
    failures["lemma4"] = (["the index is not additive, so a translation leaves its target coset"]
                          if additivity else [])
    failures.update(_check_residue_multisets(pair, gens, counts))
    failures.update(_check_congruences(pair, partition, counts))
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
    pair.require_divides()
    failures = lemma_failures(pair, derive_generators(pair), build_partition(pair))
    return StructureReport(pair=(pair.p, pair.q), sigma=two_coset_index(pair),
                           failures=tuple((name, tuple(msgs)) for name, msgs in failures.items()))
