import inspect
import re
from pathlib import Path

import eqseq
from eqseq import eulerq, gf2poly, lincomp, ntcore, structverify

REMOVED = [
    "check_congruences", "check_kernel_image", "check_residue_multisets", "check_translation",
    "find_ghat", "linear_complexity",
]


def test_all_resolves_sorted_and_unique():
    names = eqseq.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(eqseq, name), name


def test_removed_wrappers_are_gone():
    for name in REMOVED:
        assert name not in eqseq.__all__
        assert not hasattr(eqseq, name), name
        assert not hasattr(structverify, name), name
    assert not hasattr(eulerq, "find_ghat")
    assert not hasattr(lincomp, "linear_complexity")


def test_one_degree_accessor():
    assert not hasattr(gf2poly, "NEG_INFINITY")
    assert not hasattr(eqseq.Gf2Poly, "zero")
    assert not hasattr(eqseq.BitSequence, "ones")
    # the spelled-out degree of a polynomial appears only inside Gf2Poly.degree
    spelled = re.compile(r"\.bits\.bit_length\(\) - 1")
    hits = [(path.name, line.strip())
            for path in sorted(Path(eqseq.__file__).parent.glob("*.py"))
            for line in path.read_text().splitlines() if spelled.search(line)]
    assert hits == [("gf2poly.py", "return self.bits.bit_length() - 1")]
    assert spelled.search(inspect.getsource(eqseq.Gf2Poly.degree.fget))


def test_one_period_analysis_and_one_lemma_runner_exported():
    assert "analyze_period" in eqseq.__all__ and "lemma_failures" in eqseq.__all__
    assert eqseq.analyze_period is lincomp.analyze_period
    assert eqseq.lemma_failures is structverify.lemma_failures


def test_one_sigma_and_one_wieferich_test():
    assert eqseq.two_coset_index is eulerq.two_coset_index
    assert eqseq.wieferich_ok is ntcore.wieferich_ok
    assert not hasattr(structverify, "wieferich_ok") and not hasattr(lincomp, "two_coset_index")


def test_audit_is_exact_and_unseeded():
    # one exact additivity test at every period: no sample, limit or seed
    sources = {path.name: path.read_text()
               for path in sorted(Path(eqseq.__file__).parent.glob("*.py"))}
    for word in ("numpy.random", "np.random", "default_rng", "EXHAUSTIVE_LIMIT"):
        assert [name for name, text in sources.items() if word in text] == [], word
    for name in ("SAMPLE_COUNT", "DEFAULT_SEED", "_grid_failures", "_sampled_additivity",
                 "_check_translation", "_GRID_CHUNK"):
        assert not hasattr(structverify, name), name
    for fn in (structverify.lemma_failures, structverify.audit_structure):
        assert "seed" not in inspect.signature(fn).parameters, fn.__name__
