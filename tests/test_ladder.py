"""Smoke test of bench/ladder.py, which reaches into private stages of three
modules: of `lincomp`, the plan (`_sub_blocks`) and Berlekamp-Massey on one
of its records (`_component_lc`); of `residues`, the comparison with the
Fermat-quotient index (`is_fermat_index`), the torus pass (`_torus_counts`,
`_torus_failures`) and the q^2 pass (`_q2_failures`), each wording its own
lemma messages; and of `structverify`, the three walks over the units with
the powers of h and g2 they share."""

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
               for stage in ("partition_s", "fermat_s", "torus_s", "columns_s", "walks_s"))
    # each pass words its own lemma messages, so no stage times the wording apart
    assert "lemmas_5_7_s" not in result and "lemmas_8_9_s" not in result
    # the polyphase parts of lemma 9's pq^2 term are read in the q^2 pass,
    # and no command builds a psi table to time
    assert "parts_s" not in result and "table_s" not in result
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


def test_alternating_audit_of_the_tree_against_itself(ladder):
    # --against: lemma_failures, build_partition and generate_threshold in
    # both trees, a fresh interpreter per tree and round, the tree that runs
    # first alternating
    out = ladder.alternating(["3,7"], {"change": ladder.ROOT, "self": ladder.ROOT}, 2)
    assert out["rounds"] == 2 and out["best_of"] == ladder.BEST_OF
    assert out["first"] == ["change", "self"]
    assert [key for key in out if key not in ("rounds", "best_of", "first")] == list(ladder.ALTERNATED)
    for stage in ladder.ALTERNATED:
        entry = out[stage]["3,7"]
        assert list(entry) == ["change", "self"]
        for side, rival in zip(entry.values(), list(entry.values())[::-1]):
            assert len(side["seconds_runs"]) == 2 and all(t > 0 for t in side["seconds_runs"])
            assert side["median"] == sum(side["seconds_runs"]) / 2
            low, high = side["quartiles"]
            assert low <= side["median"] <= high
            # the paired statistic: the median of this tree's seconds over the
            # other's, round by round
            ratios = [mine / theirs for mine, theirs in zip(side["seconds_runs"], rival["seconds_runs"])]
            assert side["ratio_median"] == pytest.approx(sum(ratios) / 2)
        # a round is won by the strictly faster tree, so at most one per round
        assert entry["change"]["rounds_faster"] + entry["self"]["rounds_faster"] <= 2


def test_ladder_traces_the_index_where_p_divides(ladder):
    result = ladder.ladder(["3,7"], 1)["3,7"]
    for name in ("table_pack", "partition"):
        assert result[f"{name}_traced_mb"] > 0, name
        assert result[f"{name}_bytes_per_position"] == result[f"{name}_traced_mb"] * 2 ** 20 / 147
    assert "partition_traced_mb" not in ladder.ladder(["7,3"], 1)["7,3"]


def test_large_pair_under_a_raised_budget(ladder, monkeypatch):
    # the budget is raised to the pair's period for the stage, and restored
    monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
    out = ladder.large("3,7", 1)
    assert ladder.os.environ["EQSEQ_MAX_PERIOD"] == "100"
    assert out["N"] == 147 and out["partition_traced_mb"] > 0 and out["table_pack_traced_mb"] > 0
    assert out["partition_s"] > 0 and out["table_pack_s"] > 0
    command = out["structure_cli"]
    assert command["pairs"] == command["pairs_ok"] == 1 and command["peak_rss_mb"] > 1
