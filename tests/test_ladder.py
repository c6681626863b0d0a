"""Smoke test of bench/ladder.py, which reaches into two private stages of
`lincomp`: the plan (`_sub_blocks`) and Berlekamp-Massey on one of its
records (`_component_lc`)."""

import importlib.util
import re
import shutil
import sys
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


def test_verify_runs_at_the_widest_strides(ladder):
    # beside the last ladder pair, (17, 239) and (19, 191), whose top blocks
    # are read in 239 and 191 Berlekamp-Massey parts; a pair named twice runs once
    assert ladder.verify_pairs(ladder.LADDER) == ["3,577", "17,239", "19,191"]
    assert ladder.verify_pairs(["5,41", "19,191"]) == ["19,191", "17,239"]
    assert ladder.verify_pairs([]) == ["17,239", "19,191"]


def test_pairs_the_walks_only_through_the_plan():
    # the ladder times the pairing that lincomp runs, not a copy of it
    named = set(re.findall(r"lincomp\.(_\w+)", LADDER.read_text()))
    assert named == {"_sub_blocks", "_component_lc"}


def test_reads_no_private_of_the_audit():
    # the audit stage times what structure runs, through public names only
    assert not re.findall(r"(?:residues|structverify)\._\w+", LADDER.read_text())


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
    assert result["partition_s"] >= 0 and result["fermat_s"] >= 0
    # on a sound index lemma_failures runs neither residue pass nor the walks
    # over the units, so no stage times them, and no stage times the wording
    # of the messages, the polyphase parts or a psi table apart
    assert list(result) == ["N", "median_of", "seconds", "partition_s", "fermat_s",
                            "traced_mb", "bytes_per_position", "ok"]
    assert not {"torus_s", "columns_s", "walks_s"} & set(result)
    # the traced peak of one lemma_failures run, whole and per position
    assert result["traced_mb"] > 0
    assert result["bytes_per_position"] == result["traced_mb"] * 2 ** 20 / 147
    sweep = out["structure_1000"]
    assert sweep["pairs"] == 3 and sweep["pairs_ok"] == sweep["pairs"]
    assert sweep["seconds"] > 0
    # perfbench audit times the sweep through the command line
    assert "structure_cli_1000" not in out
    assert list(out) == ["lemma_failures", "structure_1000", "structure_cli_3_7"]
    # the last audit pair alone through the command, with the peak RSS of its interpreter
    largest = out["structure_cli_3_7"]
    assert largest["pairs"] == largest["pairs_ok"] == 1
    assert largest["seconds"] > 0 and largest["peak_rss_mb"] > 1
    peaks = out["structure_1000"]["traced_peak_mb_by_pair"]
    assert list(peaks) == ["3,7", "3,13", "5,11"]
    assert out["structure_1000"]["traced_peak_mb"] == max(peaks.values()) > 0


def test_alternating_audit_of_the_tree_against_itself(ladder, capsys):
    # --against: lemma_failures, build_partition and generate_threshold in
    # both trees, each loaded into this process, the tree that runs first
    # alternating by round
    out = ladder.alternating(["3,7"], {"change": ladder.ROOT, "self": ladder.ROOT}, 2)
    # two rounds are below MIN_ROUNDS, so no printed line reads resolved
    assert 2 < ladder.MIN_ROUNDS
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(ladder.ALTERNATED)
    assert all(line.endswith(": unresolved (too few rounds)") for line in lines), lines
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
            # other's, round by round, and its bootstrap interval; no timing
            # outcome, such as the interval holding 1, is asserted
            ratios = [mine / theirs for mine, theirs in zip(side["seconds_runs"], rival["seconds_runs"])]
            assert side["ratio_median"] == pytest.approx(sum(ratios) / 2)
            low, high = side["ratio_interval"]
            assert low <= side["ratio_median"] <= high
        # a round is won by the strictly faster tree, so at most one per round
        assert entry["change"]["rounds_faster"] + entry["self"]["rounds_faster"] <= 2


def test_ratio_interval_is_fixed_by_the_rounds(ladder):
    seconds = [0.004, 0.0051, 0.0039, 0.0062]
    assert ladder.ratio_interval([mine / theirs for mine, theirs in zip(seconds, seconds)]) == (1.0, 1.0)
    ratios = [1.02, 0.97, 1.05, 0.99, 1.01]
    low, high = ladder.ratio_interval(ratios)
    assert ladder.ratio_interval(ratios) == (low, high)
    assert min(ratios) <= low <= high <= max(ratios)


def test_load_tree_imports_a_package_of_its_own(ladder):
    eqseq = sys.modules["eqseq"]
    first, second = ladder.load_tree(ladder.ROOT), ladder.load_tree(ladder.ROOT)
    assert first is not second and first.__name__ != second.__name__
    assert first.build_partition is not second.build_partition
    for package in (first, second):
        assert Path(package.__file__).is_relative_to(ladder.ROOT / "src" / "eqseq")
        assert Path(package.structverify.__file__).is_relative_to(ladder.ROOT / "src" / "eqseq")
    assert sys.modules["eqseq"] is eqseq
    assert (first.build_partition(first.PrimePair.create(3, 7)).tolist()
            == second.build_partition(second.PrimePair.create(3, 7)).tolist())


def test_alternating_refuses_trees_that_disagree(ladder, tmp_path):
    # a copy whose index changes dtype still agrees; a threshold with one
    # bit flipped does not, and nothing is timed
    shutil.copytree(ladder.ROOT / "src" / "eqseq", tmp_path / "src" / "eqseq")
    with open(tmp_path / "src" / "eqseq" / "__init__.py", "a") as fh:
        fh.write("\n_partition, _threshold = build_partition, generate_threshold\n"
                 "def build_partition(pair):\n"
                 "    return _partition(pair).astype('int64')\n"
                 "def generate_threshold(pair):\n"
                 "    seq = _threshold(pair)\n"
                 "    return BitSequence(seq.bits ^ 1, seq.length, seq.origin)\n")
    with pytest.raises(SystemExit, match=r"generate_threshold \(3,7\): change and other do not agree"):
        ladder.alternating(["3,7"], {"change": ladder.ROOT, "other": tmp_path}, 1)


def test_bad_against_path_is_a_usage_error(ladder, tmp_path, monkeypatch, capsys):
    def stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(ladder, "ladder", stage)
    out = tmp_path / "out.json"
    monkeypatch.setattr(sys, "argv", ["ladder.py", "--label", "change", "--out", str(out),
                                      "--against", f"parent={tmp_path}"])
    with pytest.raises(SystemExit) as exit_info:
        ladder.main()
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


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
