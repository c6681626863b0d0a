"""Smoke test of bench/ladder.py, which reaches into the private stages of
`lincomp` (`_block_folds`, `_components`, `_gcd_route`, `_component_lc`)."""

import importlib.util
from pathlib import Path

import pytest

from eqseq import PrimePair

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_run_reports_both_routes(ladder):
    stages, lcs = ladder.one_run(PrimePair.create(3, 7))
    assert lcs == {"lc_gcd": 96, "lc_bm": 96, "lc_predicted": 96, "period": 147}
    assert list(stages) == ["table_pack_s", "blocks_fold_s", "components_s", "gcd_s", "bm_s",
                            "least_period_s", "prediction_s"]
    assert all(seconds >= 0 for seconds in stages.values())


def test_one_run_outside_the_closed_form(ladder):
    # p does not divide q-1: no prediction, and match compares the two routes
    stages, lcs = ladder.one_run(PrimePair.create(7, 3))
    assert lcs == {"lc_gcd": 60, "lc_bm": 60, "lc_predicted": None, "period": 63}
    assert "prediction_s" not in stages
    assert ladder.ladder(["7,3"], 1)["7,3"]["match"]


def test_nproc_counts_the_cpus_the_process_may_use(ladder, monkeypatch):
    monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(ladder.os, "cpu_count", lambda: 64)
    assert ladder.machine()["nproc"] == 1
    monkeypatch.delattr(ladder.os, "sched_getaffinity")
    assert ladder.machine()["nproc"] == 64


def test_audit_reports_every_pair_ok(ladder):
    out = ladder.audit(["3,7"], 1000, 1)
    assert out["lemma_failures"]["3,7"]["ok"]
    assert all(out["lemma_failures"]["3,7"][stage] >= 0
               for stage in ("table_s", "partition_s", "counts_s", "columns_s", "lemmas_5_7_s",
                             "lemmas_8_9_s"))
    for name in ("structure_1000", "structure_cli_1000"):
        sweep = out[name]
        assert sweep["pairs"] == 3 and sweep["pairs_ok"] == sweep["pairs"], name
        assert sweep["seconds"] > 0, name
    peaks = out["structure_1000"]["traced_peak_mb_by_pair"]
    assert list(peaks) == ["3,7", "3,13", "5,11"]
    assert out["structure_1000"]["traced_peak_mb"] == max(peaks.values()) > 0
