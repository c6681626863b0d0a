"""Smoke test of bench/ladder.py, which reaches into two private stages of
`lincomp`: the plan (`_sub_blocks`) and Berlekamp-Massey on one of its
records (`_component_lc`)."""

import importlib.util
import re
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
    assert list(stages) == ["table_pack_s", "plan_s", "bm_s", "least_period_s", "prediction_s"]
    assert all(seconds >= 0 for seconds in stages.values())


def test_pairs_the_walks_only_through_the_plan():
    # the ladder times the pairing that lincomp runs, not a copy of it
    named = set(re.findall(r"lincomp\.(_\w+)", LADDER.read_text()))
    assert named == {"_sub_blocks", "_component_lc"}


def test_one_run_outside_the_closed_form(ladder):
    # p does not divide q-1: no prediction, and match compares the two routes
    stages, lcs = ladder.one_run(PrimePair.create(7, 3))
    assert lcs == {"lc_gcd": 60, "lc_bm": 60, "lc_predicted": None, "period": 63}
    assert "prediction_s" not in stages
    result = ladder.ladder(["7,3"], 1)["7,3"]
    assert result["match"]
    # generate_threshold's traced peak, whole and per position
    assert result["table_pack_traced_mb"] > 0
    assert result["table_pack_bytes_per_position"] == result["table_pack_traced_mb"] * 2 ** 20 / 63


def test_nproc_counts_the_cpus_the_process_may_use(ladder, monkeypatch):
    monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(ladder.os, "cpu_count", lambda: 64)
    assert ladder.machine()["nproc"] == 1
    monkeypatch.delattr(ladder.os, "sched_getaffinity")
    assert ladder.machine()["nproc"] == 64


def test_audit_reports_every_pair_ok(ladder):
    out = ladder.audit(["3,7"], 1000, 1)
    assert out["lemma_failures"]["3,7"]["ok"]
    result = out["lemma_failures"]["3,7"]
    assert all(result[stage] >= 0
               for stage in ("table_s", "partition_s", "torus_s", "columns_s", "parts_s",
                             "lemmas_5_7_s", "lemmas_8_9_s"))
    # the traced peak of one lemma_failures run, whole and per position
    assert result["traced_mb"] > 0
    assert result["bytes_per_position"] == result["traced_mb"] * 2 ** 20 / 147
    for name in ("structure_1000", "structure_cli_1000"):
        sweep = out[name]
        assert sweep["pairs"] == 3 and sweep["pairs_ok"] == sweep["pairs"], name
        assert sweep["seconds"] > 0, name
    # the last audit pair alone through the command, with the peak RSS of its interpreter
    largest = out["structure_cli_3_7"]
    assert largest["pairs"] == largest["pairs_ok"] == 1
    assert largest["seconds"] > 0 and largest["peak_rss_mb"] > 1
    peaks = out["structure_1000"]["traced_peak_mb_by_pair"]
    assert list(peaks) == ["3,7", "3,13", "5,11"]
    assert out["structure_1000"]["traced_peak_mb"] == max(peaks.values()) > 0
