"""Smoke test of bench/ladder.py, which reaches into two private stages of
`lincomp`: the plan (`_sub_blocks`) and Berlekamp-Massey on one of its
records (`_component_lc`)."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"
FIELDS = ["seconds_runs", "median", "quartiles"]   # per timed figure and label
AB_FIELDS = [*FIELDS, "rounds_faster", "ratio_median", "ratio_interval", "verdict"]   # with two trees


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tree(ladder):
    return ladder.load_tree(ladder.ROOT)


def check_ab(entry, rounds):
    """Both labels of one timed figure carry every field, and the ratio
    fields pair the two trees' seconds round by round; no timing outcome,
    such as the interval holding 1, is asserted."""
    assert len(entry) == 2
    for side, rival in zip(entry.values(), list(entry.values())[::-1]):
        assert list(side) == AB_FIELDS
        assert len(side["seconds_runs"]) == rounds and all(t > 0 for t in side["seconds_runs"])
        assert side["median"] == pytest.approx(sum(side["seconds_runs"]) / rounds)
        low, high = side["quartiles"]
        assert low <= side["median"] <= high
        ratios = [mine / theirs for mine, theirs in zip(side["seconds_runs"], rival["seconds_runs"])]
        assert side["ratio_median"] == pytest.approx(sum(ratios) / rounds)
        low, high = side["ratio_interval"]
        assert low <= side["ratio_median"] <= high
        assert side["verdict"] == "unresolved (too few rounds)"
    # a round is won by the strictly faster tree, so at most one per round
    assert sum(side["rounds_faster"] for side in entry.values()) <= rounds


def test_one_run_reports_both_routes(ladder, tree):
    lcs, stages = ladder.one_run(tree, "3,7")
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


def test_one_run_outside_the_closed_form(ladder, tree):
    # p does not divide q-1: no prediction, and match compares the two routes
    lcs, stages = ladder.one_run(tree, "7,3")
    assert lcs == {"lc_gcd": 60, "lc_bm": 60, "lc_predicted": None, "period": 63}
    assert "prediction_s" not in stages
    result = ladder.ladder({"change": tree}, ["7,3"], 1)["7,3"]
    assert result["match"]
    assert list(result["stages"]) == list(stages)
    assert all(list(entry) == ["change"] and list(entry["change"]) == FIELDS
               for entry in result["stages"].values())
    # generate_threshold's traced peak, whole and per position
    assert result["table_pack_traced_mb"] > 0
    assert result["table_pack_bytes_per_position"] == result["table_pack_traced_mb"] * 2 ** 20 / 63


def test_nproc_counts_the_cpus_the_process_may_use(ladder, monkeypatch):
    monkeypatch.setattr(ladder.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(ladder.os, "cpu_count", lambda: 64)
    assert ladder.machine()["nproc"] == 1
    monkeypatch.delattr(ladder.os, "sched_getaffinity")
    assert ladder.machine()["nproc"] == 64


def test_audit_reports_every_pair_ok(ladder, tree):
    out = ladder.audit({"change": tree}, ["3,7"], 1000, 1)
    assert out["lemma_failures"]["3,7"]["ok"]
    result = out["lemma_failures"]["3,7"]
    # on a sound index lemma_failures runs neither residue pass nor the walks
    # over the units, so no stage times them, and no stage times the wording
    # of the messages, the polyphase parts or a psi table apart
    assert list(result) == ["N", "seconds", "partition_s", "fermat_s",
                            "traced_mb", "bytes_per_position", "ok"]
    for figure in ("seconds", "partition_s", "fermat_s"):
        assert list(result[figure]) == ["change"] and list(result[figure]["change"]) == FIELDS
        assert result[figure]["change"]["median"] > 0
    assert not {"torus_s", "columns_s", "walks_s"} & set(result)
    # the traced peak of one lemma_failures run, whole and per position
    assert result["traced_mb"] > 0
    assert result["bytes_per_position"] == result["traced_mb"] * 2 ** 20 / 147
    sweep = out["structure_1000"]
    assert sweep["pairs"] == 3 and sweep["pairs_ok"] == sweep["pairs"]
    assert sweep["seconds"]["change"]["median"] > 0
    # perfbench audit times the sweep through the command line
    assert "structure_cli_1000" not in out
    assert list(out) == ["lemma_failures", "structure_1000", "structure_cli_3_7"]
    # the last audit pair alone through the command, with the peak RSS of its interpreter
    largest = out["structure_cli_3_7"]
    assert largest["pairs"] == largest["pairs_ok"] == 1
    assert largest["seconds"]["change"]["median"] > 0 and largest["peak_rss_mb"]["change"] > 1
    peaks = out["structure_1000"]["traced_peak_mb_by_pair"]
    assert list(peaks) == ["3,7", "3,13", "5,11"]
    assert out["structure_1000"]["traced_peak_mb"] == max(peaks.values()) > 0


def test_alternating_audit_of_the_tree_against_itself(ladder, tree, capsys):
    # --against: every audit figure in both trees, each loaded into this
    # process or started in a fresh interpreter, the tree that runs first
    # alternating by round
    trees = {"change": tree, "self": ladder.load_tree(ladder.ROOT)}
    out = ladder.audit(trees, ["3,7"], 1000, 2)
    # two rounds are below MIN_ROUNDS, so no printed line reads resolved
    assert 2 < ladder.MIN_ROUNDS
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 5   # three lemma_failures figures, the sweep and the command
    assert all(line.endswith(": unresolved (too few rounds)") for line in lines), lines
    result = out["lemma_failures"]["3,7"]
    for entry in (result["seconds"], result["partition_s"], result["fermat_s"],
                  out["structure_1000"]["seconds"], out["structure_cli_3_7"]["seconds"]):
        assert list(entry) == ["change", "self"]
        check_ab(entry, 2)
    assert list(out["structure_cli_3_7"]["peak_rss_mb"]) == ["change", "self"]


def test_ab_of_the_tree_against_itself_in_process_and_fresh(ladder, tree, monkeypatch):
    # an in-process stage (one cold one_run per round) and a fresh-interpreter
    # one (verify, each tree's src on PYTHONPATH) A/A at (3,7)
    trees = {"change": tree, "self": ladder.load_tree(ladder.ROOT)}
    result = ladder.ladder(trees, ["3,7"], 2)["3,7"]
    assert result["match"] and result["lc_gcd"] == 96
    assert list(result["stages"]) == ["table_pack_s", "plan_s", "bm_s", "least_period_s", "prediction_s"]
    for entry in result["stages"].values():
        check_ab(entry, 2)
    started, run_cli = [], ladder.run_cli

    def spy(tree, *args):
        started.append(tree)
        return run_cli(tree, *args)

    monkeypatch.setattr(ladder, "run_cli", spy)
    result = ladder.verify(trees, "3,7", 2)
    assert result["exit_code"] == 0 and result["match"] is True
    check_ab(result["wall_s"], 2)
    # one untimed run per tree, then two rounds, the first tree alternating
    change, other = trees.values()
    assert started == [change, other, change, other, other, change]


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


def test_alternating_refuses_trees_that_disagree(ladder, tree, tmp_path):
    # a copy whose index changes dtype still agrees; a threshold with one
    # bit flipped does not, and nothing is timed
    shutil.copytree(ladder.ROOT / "src" / "eqseq", tmp_path / "src" / "eqseq")
    with open(tmp_path / "src" / "eqseq" / "__init__.py", "a") as fh:
        fh.write("\n_partition = build_partition\n"
                 "def build_partition(pair):\n"
                 "    return _partition(pair).astype('int64')\n")
    out = ladder.audit({"change": tree, "other": ladder.load_tree(tmp_path)}, ["3,7"], 1000, 1)
    assert out["lemma_failures"]["3,7"]["ok"]
    with open(tmp_path / "src" / "eqseq" / "__init__.py", "a") as fh:
        fh.write("_threshold = generate_threshold\n"
                 "def generate_threshold(pair):\n"
                 "    seq = _threshold(pair)\n"
                 "    return BitSequence(seq.bits ^ 1, seq.length, seq.origin)\n")
    trees = {"change": tree, "other": ladder.load_tree(tmp_path)}
    with pytest.raises(SystemExit, match=r"lemma_failures \(3,7\): change and other do not agree"):
        ladder.audit(trees, ["3,7"], 1000, 1)


def test_alternating_refuses_a_lemma_failure(ladder, tmp_path):
    # one tree records a failing lemma as not ok; two trees that fail alike
    # agree on every output, yet the A/B stops before it times them
    shutil.copytree(ladder.ROOT / "src" / "eqseq", tmp_path / "src" / "eqseq")
    with open(tmp_path / "src" / "eqseq" / "__init__.py", "a") as fh:
        fh.write("\n_lemma_failures = lemma_failures\n"
                 "def lemma_failures(pair, index):\n"
                 "    return {**_lemma_failures(pair, index), 'lemma2': ['forged']}\n")
    faulty = ladder.load_tree(tmp_path)
    assert ladder.audit({"change": faulty}, ["3,7"], 1000, 1)["lemma_failures"]["3,7"]["ok"] is False
    with pytest.raises(SystemExit, match=r"^lemma_failures \(3,7\): a lemma fails$"):
        ladder.audit({"change": faulty, "other": ladder.load_tree(tmp_path)}, ["3,7"], 1000, 1)


def test_verify_refuses_trees_whose_reports_differ(ladder, tree, tmp_path, monkeypatch):
    # a copy whose verify JSON carries another sigma stops the stage after one
    # untimed run per tree, before any round
    shutil.copytree(ladder.ROOT / "src" / "eqseq", tmp_path / "src" / "eqseq")
    with open(tmp_path / "src" / "eqseq" / "lincomp.py", "a") as fh:
        fh.write("\n_to_json_dict = AnalysisReport.to_json_dict\n"
                 "AnalysisReport.to_json_dict = lambda self: {**_to_json_dict(self), 'sigma': -1}\n")
    started, run_cli = [], ladder.run_cli

    def spy(tree, *args):
        started.append(tree)
        return run_cli(tree, *args)

    monkeypatch.setattr(ladder, "run_cli", spy)
    trees = {"change": tree, "other": ladder.load_tree(tmp_path)}
    with pytest.raises(SystemExit, match=r"^verify \(3,7\): change and other do not agree$"):
        ladder.verify(trees, "3,7", 2)
    assert started == [trees["change"], trees["other"]]


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


def test_ladder_traces_the_index_where_p_divides(ladder, tree):
    result = ladder.ladder({"change": tree}, ["3,7"], 1)["3,7"]
    for name in ("table_pack", "partition"):
        assert result[f"{name}_traced_mb"] > 0, name
        assert result[f"{name}_bytes_per_position"] == result[f"{name}_traced_mb"] * 2 ** 20 / 147
    assert "partition_traced_mb" not in ladder.ladder({"change": tree}, ["7,3"], 1)["7,3"]


def test_large_pair_under_a_raised_budget(ladder, tree, monkeypatch):
    # the budget is raised to the pair's period for the stage, and restored
    monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
    out = ladder.large({"change": tree}, "3,7", 1)
    assert ladder.os.environ["EQSEQ_MAX_PERIOD"] == "100"
    assert out["N"] == 147 and out["partition_traced_mb"] > 0 and out["table_pack_traced_mb"] > 0
    assert out["partition_s"]["change"]["median"] > 0 and out["table_pack_s"]["change"]["median"] > 0
    command = out["structure_cli"]
    assert command["pairs"] == command["pairs_ok"] == 1 and command["peak_rss_mb"]["change"] > 1
