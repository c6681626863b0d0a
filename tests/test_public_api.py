import eqseq
from eqseq import lincomp, structverify

REMOVED = ["check_congruences", "check_kernel_image", "check_residue_multisets", "check_translation"]


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


def test_one_period_analysis_and_one_lemma_runner_exported():
    assert "analyze_period" in eqseq.__all__ and "lemma_failures" in eqseq.__all__
    assert eqseq.analyze_period is lincomp.analyze_period
    assert eqseq.lemma_failures is structverify.lemma_failures
