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

Residues are counted once.  One bincount of coset * pq + (t mod pq) over the
units gives a (q, pq) table whose row ell counts D_ell in each class mod pq
(q * pq = N); summing the columns of each class mod p, or mod q, gives the
(q, p) and (q, q) tables.  Lemmas 5 and 6 compare each row with the expected
one, and a coset polynomial mod x^m - 1 is the low bits of its row in the
table mod m, reduced by Phi_m.  Mod q^2 the table would have q^3 cells, so
the keys coset * q^2 + (t mod q^2) are sorted once and counted by run
length.  A coset polynomial is 0 mod Phi_{q^2} = Phi_q(x^q) exactly when
each class mod q of its odd-count keys holds 0 or q of them, so the q^2
congruences come from class counts, with no q^3 table either.  Lemma 9's
pq^2 term reduces the q polyphase parts of the summed indicator by Phi_pq,
since Phi_{pq^2}(x) = Phi_pq(x^q).

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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .eulerq import build_table, derive_generators, two_coset_index, unit_residues
from .gf2poly import _int_mod, cyclotomic_f2
from .ntcore import GroupGenerators, PrimePair, crt_lift

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
    # row k of the (q, pq) view holds t = r + k*pq, a unit exactly when r is one
    unit = unit_residues(pair)
    quotient, rest = np.divmod(values.reshape(q, p * q), p)
    stray = np.flatnonzero(unit & (rest != 0))
    if stray.size:
        t0 = int(stray[0])
        raise InternalConsistencyError(
            f"psi({t0}) = {values[t0]} not divisible by p={p}"
        )
    index = quotient.astype(np.int32)
    index[:, ~unit] = -1
    return CosetPartition(pair=pair, index=index.reshape(-1))


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


def _residue_tables(partition: CosetPartition) -> tuple[dict[int, np.ndarray], ResidueCounts]:
    """Residues of the units per coset.  For m in p, q and pq, row ell of a
    (q, m) table counts the units of D_ell in each class mod m: one bincount
    of coset * pq + (t mod pq) gives the pq table, a label q or more landing
    past it, and column c of it is the class c mod p of the (q, q, p) view and
    c mod q of the (q, p, q) view.  For q^2, whose table would have q^3 cells,
    the sorted distinct keys coset * q^2 + (t mod q^2) with their run lengths."""
    p, q = partition.pair.p, partition.pair.q
    pq = p * q
    units = partition.units
    cosets = partition.index[units].astype(np.int64)
    # the keys are built and sorted in place, the q^2 ones in the buffer of the
    # pq ones: fewer unit-length temporaries keep the audit's peak memory down
    keys = units % pq
    keys += cosets * pq
    table = np.bincount(keys, minlength=q * pq)[:q * pq].reshape(q, pq)
    tables = {p: table.reshape(q, q, p).sum(axis=1), q: table.reshape(q, p, q).sum(axis=1), pq: table}
    np.remainder(units, q * q, out=keys)
    keys += cosets * (q * q)
    keys.sort()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return tables, (keys[starts], np.diff(starts, append=keys.size))


def _check_residue_multisets(pair: PrimePair, gens: GroupGenerators, tables: dict[int, np.ndarray],
                             found_q2: ResidueCounts) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    pq, q2 = p * q, q * q
    out: dict[str, list[str]] = {"lemma5": [], "lemma6": [], "lemma7": []}

    # mod m in p, q and pq, a coset hits every unit of Z_m equally often
    bad = {}
    for m, table in tables.items():
        unit = np.gcd(np.arange(m), m) == 1
        expected = unit * (pair.phi_pq // int(unit.sum()))
        bad[m] = set(np.flatnonzero((table != expected).any(axis=1)).tolist())

    # D_ell mod q^2 is ghat^ell times the subgroup generated by g^q, each p - 1 times
    subgroup = _powers(pow(gens.g % q2, q, q2), q - 1, q2)
    target = np.outer(_powers(gens.ghat % q2, q, q2), subgroup) % q2
    expected_q2 = np.sort((np.arange(q)[:, None] * q2 + target).ravel())
    keys, counts = found_q2
    stray = (keys[:0] if np.array_equal(keys, expected_q2)
             else np.setxor1d(keys, expected_q2, assume_unique=True))
    bad[q2] = set((stray // q2).tolist()) | set((keys[counts != p - 1] // q2).tolist())

    for ell in range(q):
        if ell in bad[p]:
            mod_p = {r: c for r, c in enumerate(tables[p][ell].tolist()) if c}
            out["lemma5"].append(f"D_{ell} mod p multiset wrong: {mod_p}")
        if ell in bad[q]:
            out["lemma5"].append(f"D_{ell} mod q multiset wrong")
        if ell in bad[pq]:
            out["lemma6"].append(f"D_{ell} mod pq is not a bijection onto the units")
        if ell in bad[q2]:
            out["lemma7"].append(f"D_{ell} mod q^2 multiset wrong")
    return out


def _row_residues(flags: np.ndarray, modulus: int) -> list[int]:
    """Each row of a 2-D array, bit i set where entry i is nonzero, reduced by the modulus."""
    return [_int_mod(int.from_bytes(row.tobytes(), "little"), modulus)
            for row in np.packbits(flags, axis=1, bitorder="little")]


def _off_phi_q2(keys: np.ndarray, q: int) -> list[int]:
    """The rows ell, ascending, whose distinct keys ell * q^2 + a (a < q^2) set a
    polynomial that is not 0 mod Phi_{q^2} = Phi_q(x^q): part j of its remainder
    is the remainder of the class a = j mod q, a polynomial of degree below q,
    which is 0 exactly when the class holds 0 or q keys, since Phi_q is all ones."""
    counts = np.bincount(keys // (q * q) * q + keys % q)
    return sorted(set((np.flatnonzero(counts % q) // q).tolist()))


def _check_congruences(pair: PrimePair, partition: CosetPartition, tables: dict[int, np.ndarray],
                       found_q2: ResidueCounts) -> dict[str, list[str]]:
    p, q = pair.p, pair.q
    pq, q2 = p * q, q * q
    out: dict[str, list[str]] = {"lemma8": [], "lemma9": []}

    # each coset polynomial, and so their sum over the q cosets, is 1 modulo
    # the pq cyclotomic and 0 modulo the p, q and q^2 ones; mod x^m - 1 it is
    # the parity of its residue counts: mod q^2 the odd-count keys of the
    # cosets below q, and for the sum the parity of each exponent over them
    keys, counts = found_q2
    odd = keys[(counts % 2 == 1) & (keys < q * q2)]
    for name, m, expect in (("pq", pq, 1), ("p", p, 0), ("q", q, 0), ("q2", q2, 0)):
        if m == q2:
            bad = _off_phi_q2(odd, q)
            summed_off = bool(_off_phi_q2(np.flatnonzero(np.bincount(odd % q2) % 2), q))
        else:
            residues = _row_residues(tables[m] & 1, cyclotomic_f2(m).bits)
            bad = [ell for ell, r in enumerate(residues) if r != expect]
            summed_off = functools.reduce(operator.xor, residues, 0) != expect
        if bad:
            out["lemma8"].append(
                f"coset polynomial(s) {bad} are not {expect} modulo the {name} cyclotomic"
            )
        if summed_off:
            out["lemma9"].append(f"summed coset polynomial is not {expect} mod {name}")
    # the sum over all cosets, the indicator of labels 0..q-1, is 0 modulo the
    # pq^2 cyclotomic Phi_pq(x^q) exactly when each of its q polyphase parts
    # (bits j, j + q, j + 2q, ...) is 0 modulo Phi_pq: part j of the remainder
    # is the remainder of part j, and the parts have disjoint supports
    labelled = (partition.index >= 0) & (partition.index < q)
    if any(_row_residues(labelled.reshape(pq, q).T, cyclotomic_f2(pq).bits)):
        out["lemma9"].append("summed coset polynomial is nonzero mod the pq^2 cyclotomic")
    return out


def lemma_failures(pair: PrimePair, gens: GroupGenerators,
                   partition: CosetPartition) -> dict[str, list[str]]:
    """Failure messages of each of lemmas 2-9 on a partition, empty where it holds.

    One exact additivity test from the generators h and g2 serves lemmas 2
    and 4, and one set of residue tables serves lemmas 5-9.
    """
    additivity = _check_additivity(pair, gens, partition)
    tables, found_q2 = _residue_tables(partition)

    failures = {"lemma2": _check_kernel_image(pair, gens, partition) + additivity}
    failures["lemma3"] = _check_partition_shape(pair, partition) + _check_ghat_law(pair, gens, partition)
    failures["lemma4"] = (["the index is not additive, so a translation leaves its target coset"]
                          if additivity else [])
    failures.update(_check_residue_multisets(pair, gens, tables, found_q2))
    failures.update(_check_congruences(pair, partition, tables, found_q2))
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
