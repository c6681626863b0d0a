import concurrent.futures
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqseq import Gf2Poly, PrimePair, cli, eulerq, generate_threshold, lincomp, structverify
from eqseq.cli import (
    EXIT_INAPPLICABLE,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    PACKED_MAGIC,
    enumerate_pairs,
    main,
    parse_ascii,
    parse_packed,
    write_ascii,
    write_packed,
)
from eqseq.errors import DomainError, InternalConsistencyError, ParseError, ResourceError
from eqseq.limits import max_period
from eqseq.sequence import BitSequence

from golden import EXAMPLE1_STRING, SWEEP_PAIRS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_ascii_golden(self, capsys, tmp_path):
        out = tmp_path / "s.txt"
        code, _, _ = run(capsys, "generate", "--p", "3", "--q", "7", "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# eqseq p=3 q=7 N=147"
        assert lines[1] == EXAMPLE1_STRING

    def test_ascii_stdout(self, capsys):
        code, stdout, _ = run(capsys, "generate", "--p", "3", "--q", "7")
        assert code == EXIT_OK
        assert EXAMPLE1_STRING in stdout

    def test_rejects_non_dividing(self, capsys):
        code, _, err = run(capsys, "generate", "--p", "5", "--q", "7")
        assert code == EXIT_INAPPLICABLE
        assert "p must divide q-1" in err

    def test_rejects_non_prime(self, capsys):
        code, _, err = run(capsys, "generate", "--p", "9", "--q", "7")
        assert code == EXIT_USAGE
        assert "odd prime" in err

    def test_packed_header(self, capsys, tmp_path):
        out = tmp_path / "s.bin"
        code, _, _ = run(capsys, "generate", "--p", "3", "--q", "13",
                         "--format", "packed", "--out", str(out))
        assert code == EXIT_OK
        data = out.read_bytes()
        assert data[:8] == PACKED_MAGIC
        p, q, seq = parse_packed(data)
        assert (p, q, seq.length) == (3, 13, 507)

    def test_packed_stdout(self, capsysbinary):
        code = main(["generate", "--p", "3", "--q", "13", "--format", "packed"])
        assert code == EXIT_OK
        seq = generate_threshold(PrimePair.create(3, 13))
        assert capsysbinary.readouterr().out == write_packed(seq, 3, 13)

    def test_unwritable_path(self, capsys, tmp_path):
        path = tmp_path / "no" / "dir" / "f.txt"
        code, stdout, err = run(capsys, "generate", "--p", "3", "--q", "7", "--out", str(path))
        assert code == EXIT_IO
        assert stdout == ""
        assert err == (f"eqseq: error: cannot write {path}: "
                       f"[Errno 2] No such file or directory: '{path}'\n")


class TestAsciiFormat:
    def test_comments_and_whitespace(self):
        assert parse_ascii("# c\n0 1\n\t1\n01\n") == "01101"

    def test_position_in_error(self):
        with pytest.raises(ParseError) as info:
            parse_ascii("# ok\n0012x01\n")
        assert info.value.line == 2
        assert info.value.column == 4  # the '2'
        assert "line 2" in str(info.value)


class TestPackedFormat:
    def test_rejects_bad_magic(self):
        with pytest.raises(ParseError):
            parse_packed(b"NOTMAGIC" + bytes(16))

    def test_rejects_bad_payload_length(self, capsys, tmp_path):
        out = tmp_path / "s.bin"
        run(capsys, "generate", "--p", "3", "--q", "7", "--format", "packed",
            "--out", str(out))
        data = out.read_bytes()
        with pytest.raises(ParseError):
            parse_packed(data + b"\x00")

    def test_rejects_trailing_bits(self, capsys, tmp_path):
        out = tmp_path / "s.bin"
        run(capsys, "generate", "--p", "3", "--q", "7", "--format", "packed",
            "--out", str(out))
        data = bytearray(out.read_bytes())
        data[-1] |= 0x80  # bit 151 > N-1 = 146
        with pytest.raises(ParseError):
            parse_packed(bytes(data))


class TestAnalyze:
    def test_golden_roundtrip_ascii(self, capsys, tmp_path):
        out = tmp_path / "s.txt"
        run(capsys, "generate", "--p", "3", "--q", "7", "--out", str(out))
        code, stdout, _ = run(capsys, "analyze", "--in", str(out))
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report == {
            "n": 147,
            "least_period": 147,
            "lc_gcd": 96,
            "lc_berlekamp_massey": 96,
            "minpoly": report["minpoly"],
        }
        assert report["minpoly"].startswith("x^96 + x^95 + x^93")

    def test_all_zero_file(self, capsys, tmp_path):
        f = tmp_path / "z.txt"
        f.write_text("00000000\n")
        code, stdout, _ = run(capsys, "analyze", "--in", str(f))
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert (report["lc_gcd"], report["least_period"], report["minpoly"]) == (0, 1, "1")

    def test_two_period_file_with_period(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("0010111 0010111\n")
        code, stdout, _ = run(capsys, "analyze", "--in", str(f), "--period", "7")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["n"] == 7
        assert report["lc_gcd"] == report["lc_berlekamp_massey"] == 3

    def test_inconsistent_period(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("00101110010110\n")
        code, _, err = run(capsys, "analyze", "--in", str(f), "--period", "7")
        assert code == EXIT_USAGE
        assert "not 7-periodic" in err

    def test_inconsistent_period_reports_first_break(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        # two good copies of 0010111, then a third that differs at offset 3,
        # then a partial copy that differs again
        f.write_text("0010111 0010111 0011111 011\n")
        code, _, err = run(capsys, "analyze", "--in", str(f), "--period", "7")
        assert code == EXIT_USAGE
        assert "file content is not 7-periodic (first break at index 17)" in err

    @pytest.mark.parametrize("text,index", [
        ("0010111 0010111 000\n", 16),  # in a partial last block: 7 does not divide 17
        ("0010111 1010111\n", 7),       # at index t, the first bit of the second block
    ])
    def test_period_break_index(self, capsys, tmp_path, text, index):
        f = tmp_path / "m.txt"
        f.write_text(text)
        code, stdout, err = run(capsys, "analyze", "--in", str(f), "--period", "7")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == f"eqseq: error: file content is not 7-periodic (first break at index {index})\n"

    def test_period_equal_to_length(self, capsys, tmp_path):
        # t = n leaves nothing to compare: the whole file is the period
        f = tmp_path / "m.txt"
        f.write_text("0010110\n")
        code, stdout, _ = run(capsys, "analyze", "--in", str(f), "--period", "7")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert (report["n"], report["least_period"]) == (7, 7)

    def test_with_pair(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        run(capsys, "generate", "--p", "3", "--q", "13", "--out", str(f))
        code, stdout, _ = run(capsys, "analyze", "--in", str(f))
        assert code == EXIT_OK
        assert json.loads(stdout)["lc_gcd"] == 312

    def test_requires_one_source(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("01\n")
        code, _, _ = run(capsys, "analyze", "--in", str(f), "--p", "3", "--q", "7")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "analyze")
        assert code == EXIT_USAGE

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0102\n")
        code, _, err = run(capsys, "analyze", "--in", str(f))
        assert code == EXIT_IO
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "analyze", "--in", "/nonexistent/path")
        assert code == EXIT_IO

    def test_lc_disagreement_is_an_error(self, capsys, monkeypatch, tmp_path):
        # only a bug can make the two routes differ; one is faked here
        f = tmp_path / "m.txt"
        f.write_text("0010111\n")
        monkeypatch.setattr(lincomp, "berlekamp_massey", lambda seq: 2)
        code, stdout, err = run(capsys, "analyze", "--in", str(f))
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == "eqseq: error: LC disagreement for external in block d=1: gcd=0, bm=2\n"


class TestVerify:
    def test_match(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--p", "3", "--q", "7")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["lc_empirical"] == report["lc_predicted"] == 96
        assert report["match"] is True

    def test_inapplicable(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--p", "5", "--q", "7")
        assert code == EXIT_INAPPLICABLE
        report = json.loads(stdout)
        assert report["divisibility_ok"] is False
        assert report["lc_predicted"] == "n/a"

    def test_mismatch(self, capsys, monkeypatch):
        # a wrong closed form stands in for a counterexample
        monkeypatch.setattr(lincomp, "predicted_minimal_polynomial", lambda pair: Gf2Poly(0b11))
        code, stdout, _ = run(capsys, "verify", "--p", "3", "--q", "7")
        assert code == EXIT_MISMATCH
        report = json.loads(stdout)
        assert report["lc_empirical"] == 96
        assert report["lc_predicted"] == 1
        assert report["minpoly_predicted"] == "x + 1"
        assert report["match"] is False

    def test_lc_by_divisor_is_the_last_key(self, capsys):
        code, stdout, err = run(capsys, "verify", "--p", "3", "--q", "7")
        assert code == EXIT_OK and err == ""
        report = json.loads(stdout)
        assert list(report)[-2:] == ["elapsed", "lc_by_divisor"]
        assert report["lc_by_divisor"] == {"1": 0, "3": 0, "7": 0, "21": 12, "49": 0, "147": 84}
        assert list(report["lc_by_divisor"]) == ["1", "3", "7", "21", "49", "147"]

    @pytest.mark.parametrize("q, named", [
        (7, "eqseq: block d=21: lc 0, closed form 12\n"),
        (13, "eqseq: block d=39: lc 24, closed form 0\n"),
    ])
    def test_mismatch_names_the_block(self, capsys, monkeypatch, q, named):
        # flipping every bit of coset D_0 stands in for a counterexample: it
        # clears the pq block when q = 3 mod 4 and fills it when q = 1 mod 4
        real = lincomp.generate_threshold

        def corrupted(pair):
            seq = real(pair)
            coset = np.flatnonzero(structverify.build_partition(pair) == 0)
            flip = sum(1 << int(t) for t in coset)
            return BitSequence(bits=seq.bits ^ flip, length=seq.length, origin=seq.origin)

        monkeypatch.setattr(lincomp, "generate_threshold", corrupted)
        code, stdout, err = run(capsys, "verify", "--p", "3", "--q", str(q))
        assert code == EXIT_MISMATCH
        report = json.loads(stdout)
        assert report["match"] is False
        assert err == named


class TestStructure:
    def test_3_7(self, capsys):
        code, stdout, err = run(capsys, "structure", "--p", "3", "--q", "7")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert all(report[f"lemma{i}_ok"] for i in range(2, 10))
        assert "structure audit" in err

    def test_3_13(self, capsys):
        code, stdout, _ = run(capsys, "structure", "--p", "3", "--q", "13")
        assert code == EXIT_OK
        assert json.loads(stdout)["sigma"] == 5

    def test_inapplicable(self, capsys):
        code, _, _ = run(capsys, "structure", "--p", "5", "--q", "7")
        assert code == EXIT_INAPPLICABLE

    def test_seed_is_ignored(self, capsys):
        # every check is exact, so the seed reaches nothing, not even a negative one
        plain = run(capsys, "structure", "--p", "3", "--q", "7")
        assert plain[0] == EXIT_OK
        for seed in ("-1", "5"):
            assert run(capsys, "structure", "--p", "3", "--q", "7", "--seed", seed) == plain

    def test_seed_must_be_an_integer(self, capsys):
        code, stdout, err = run(capsys, "structure", "--p", "3", "--q", "7", "--seed", "abc")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "argument --seed: invalid int value: 'abc'" in err

    def test_failed_lemma(self, capsys, monkeypatch):
        real = structverify.lemma_failures

        def failing(*args):
            failures = real(*args)
            failures["lemma5"] = ["D_0 mod q multiset wrong", "D_3 mod q multiset wrong"]
            return failures

        monkeypatch.setattr(structverify, "lemma_failures", failing)
        code, stdout, err = run(capsys, "structure", "--p", "3", "--q", "7")
        assert code == EXIT_MISMATCH
        report = json.loads(stdout)
        assert report["lemma5_ok"] is False
        assert all(report[f"lemma{i}_ok"] for i in (2, 3, 4, 6, 7, 8, 9))
        assert report["details"] == {"lemma5": "D_0 mod q multiset wrong; D_3 mod q multiset wrong"}
        assert "  lemma5   FAIL  D_0 mod q multiset wrong; D_3 mod q multiset wrong\n" in err
        assert "  lemma4   ok\n" in err

    def test_numpy_ma_stays_unimported(self):
        # in NumPy 2.4, np.unique without return_counts or an index takes a hash
        # path whose first call imports numpy.ma, 1.2 MB of resident memory that
        # no command needs; a fresh interpreter shows whether any path takes it
        run_fresh([["structure", "--p", "3", "--q", "7"], ["structure", "--p", "5", "--q", "11"],
                   ["verify", "--p", "3", "--q", "7"], ["scan", "--max-period", "3000"]],
                  "assert 'numpy.ma' not in sys.modules")

    def test_process_pool_stays_unloaded(self, tmp_path):
        # only scan --jobs > 1 starts a pool: its module (and multiprocessing)
        # costs about 1.5 MB of resident memory that no other command needs
        path = str(tmp_path / "seq.txt")
        run_fresh([["generate", "--p", "3", "--q", "7", "--out", path], ["analyze", "--in", path],
                   ["structure", "--p", "3", "--q", "7"], ["verify", "--p", "3", "--q", "7"],
                   ["scan", "--max-period", "3000", "--jobs", "1"]],
                  "assert 'concurrent.futures.process' not in sys.modules",
                  "assert 'multiprocessing' not in sys.modules")


def run_fresh(argvs, *checks):
    """Run each argv through cli.main in a fresh interpreter, each to exit 0,
    then the check lines."""
    script = "\n".join([
        "import contextlib, io, sys",
        "from eqseq import cli",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        f"    for argv in {argvs!r}:",
        "        assert cli.main(argv) == 0, argv",
        *checks,
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestScan:
    def test_small_scan(self, capsys):
        code, stdout, _ = run(capsys, "scan", "--max-period", "1000")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == ("p,q,q_mod_4,wieferich_ok,divisibility_ok,period,"
                            "lc_empirical,lc_predicted,match,sigma,millis")
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(3, 7), (3, 13), (5, 11)]
        assert all(r[8] == "true" for r in rows)
        assert [int(r[5]) for r in rows] == [147, 507, 605]

    def test_unwritable_csv(self, capsys, tmp_path):
        path = tmp_path / "no" / "dir" / "x.csv"
        code, stdout, err = run(capsys, "scan", "--max-period", "1000", "--csv", str(path))
        assert code == EXIT_IO
        assert stdout == ""
        assert err == (f"eqseq: error: cannot write {path}: "
                       f"[Errno 2] No such file or directory: '{path}'\n")

    def test_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(lincomp, "predicted_minimal_polynomial", lambda pair: Gf2Poly(0b11))
        code, stdout, _ = run(capsys, "scan", "--max-period", "1000")
        assert code == EXIT_MISMATCH
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(3, 7), (3, 13), (5, 11)]
        assert all(r[7] == "1" and r[8] == "false" for r in rows)

    def test_error_row(self, capsys, monkeypatch):
        self.check_error_row(capsys, monkeypatch, "1")

    def test_error_row_pooled(self, capsys, monkeypatch):
        # the same through the pool, which is fed the largest N first
        # (605, 507, 147) and computes them in reverse, but returns them in
        # input order: the rows follow the pairs, not the feed or completion
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        started, computed = self.stand_in_pool(monkeypatch, reverse=True)
        self.check_error_row(capsys, monkeypatch, "2")
        assert started == [2, 2]
        assert computed == [(3, 7), (3, 13), (5, 11)] * 2

    def test_pool_takes_the_largest_period_first(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        _, computed = self.stand_in_pool(monkeypatch)
        code, stdout, _ = run(capsys, "scan", "--max-period", "10000", "--jobs", "2")
        assert code == EXIT_OK
        pairs = enumerate_pairs(10000)
        assert computed == sorted(pairs, key=lambda pq: pq[0] * pq[1] ** 2, reverse=True)
        assert computed != pairs[::-1]   # N does not grow with (p, q)
        assert [tuple(map(int, line.split(",")[:2])) for line in stdout.splitlines()[1:]] == pairs

    @staticmethod
    def check_error_row(capsys, monkeypatch, jobs):
        # a pair whose verification raises gets an n/a row and one stderr line;
        # the other rows are those of a clean scan
        _, clean, _ = run(capsys, "scan", "--max-period", "1000", "--jobs", jobs)
        verify = cli.verify_theorem

        def failing(pair):
            if (pair.p, pair.q) == (3, 13):
                raise InternalConsistencyError("injected failure")
            return verify(pair)

        monkeypatch.setattr(cli, "verify_theorem", failing)
        code, stdout, err = run(capsys, "scan", "--max-period", "1000", "--jobs", jobs)
        assert code == EXIT_MISMATCH
        lines = stdout.strip().splitlines()
        assert lines[2] == "3,13,1,n/a,n/a,n/a,n/a,n/a,false,n/a,n/a"
        assert err == "eqseq: scan error for (3, 13): injected failure\n"

        def strip_millis(rows):
            return [row.rsplit(",", 1)[0] for row in rows]

        clean_lines = clean.strip().splitlines()
        assert clean_lines[2].startswith("3,13,")
        assert strip_millis(lines[:2] + lines[3:]) == strip_millis(clean_lines[:2] + clean_lines[3:])
        assert [line.split(",", 2)[:2] for line in lines[1:]] == [["3", "7"], ["3", "13"], ["5", "11"]]

    def test_empty_scan(self, capsys):
        code, stdout, _ = run(capsys, "scan", "--max-period", "146")
        assert code == EXIT_OK
        assert stdout.strip().splitlines() == [
            "p,q,q_mod_4,wieferich_ok,divisibility_ok,period,"
            "lc_empirical,lc_predicted,match,sigma,millis"
        ]

    def test_jobs_reproducible(self, capsys, monkeypatch, tmp_path):
        # two real workers even on one CPU, fed the largest N first
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "scan", "--max-period", "10000", "--csv", str(a))[0] == EXIT_OK
        assert run(capsys, "scan", "--max-period", "10000", "--jobs", "2", "--csv", str(b))[0] == EXIT_OK

        def strip_millis(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert strip_millis(a) == strip_millis(b)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, stdout, err = run(capsys, "scan", "--max-period", "1000", "--jobs", jobs)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert f"--jobs must be at least 1, got {jobs}" in err

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_max_period_below_one_is_usage_error(self, capsys, bound):
        # not a bare header: test_empty_scan keeps that for a bound with no pairs
        code, stdout, err = run(capsys, "scan", "--max-period", bound)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == f"eqseq: error: --max-period must be at least 1, got {bound}\n"

    @pytest.mark.parametrize("jobs,cpus,max_period,workers", [
        ("3", 2, "1000", 2),      # clamped to the CPUs this process may use
        ("2", 1, "1000", None),   # one usable CPU of the host's 8: run serially
        ("4", 8, "1000", 3),      # clamped to the three pairs
        ("2", 8, "10000", 2),     # as asked
        ("3", None, "1000", None),  # no affinity and CPU count unknown: run serially
        ("3", 8, "147", None),    # one pair: run serially
    ])
    def test_jobs_clamped(self, capsys, monkeypatch, jobs, cpus, max_period, workers):
        # cpus is the affinity; the host reports 8, which must not count
        if cpus is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert self.started_workers(capsys, monkeypatch, jobs, max_period) == (
            [] if workers is None else [workers])

    def test_jobs_without_affinity(self, capsys, monkeypatch):
        # where os has no sched_getaffinity, the host's CPU count caps the pool
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert self.started_workers(capsys, monkeypatch, "3", "1000") == [2]

    @staticmethod
    def stand_in_pool(monkeypatch, reverse=False):
        # a stand-in pool records its size and the pairs in the order it
        # computes them, in this process; with reverse it computes the last
        # first, and returns the results in input order as Executor.map does.
        # It replaces the class in concurrent.futures, where the scan imports
        # it from when it starts a pool
        started, computed = [], []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                order = list(items)[::-1] if reverse else list(items)
                computed.extend(order)
                results = [fn(item) for item in order]
                return results[::-1] if reverse else results

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        return started, computed

    @classmethod
    def started_workers(cls, capsys, monkeypatch, jobs, max_period):
        started, _ = cls.stand_in_pool(monkeypatch)
        code, stdout, _ = run(capsys, "scan", "--max-period", max_period, "--jobs", jobs)
        assert code == EXIT_OK
        assert len(stdout.splitlines()) == 1 + len(enumerate_pairs(int(max_period)))
        return started

    def test_budget_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "500")
        code, stdout, err = run(capsys, "scan", "--max-period", "1000")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == "eqseq: error: --max-period 1000 exceeds budget 500 (EQSEQ_MAX_PERIOD)\n"


class TestBudget:
    def test_non_integer_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "abc")
        code, stdout, err = run(capsys, "verify", "--p", "3", "--q", "7")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "EQSEQ_MAX_PERIOD must be an integer" in err

    @pytest.mark.parametrize("fmt", ["ascii", "packed"])
    def test_analyze_file_over_budget(self, capsys, monkeypatch, tmp_path, fmt):
        seq = BitSequence(bits=(1 << 3000) - 1, length=3000, origin="external")
        f = tmp_path / f"big.{fmt}"
        if fmt == "ascii":
            f.write_text(write_ascii(seq, 3, 7))
        else:
            f.write_bytes(write_packed(seq, 3, 7))
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        code, stdout, err = run(capsys, "analyze", "--in", str(f))
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "sequence length 3000 exceeds budget 100" in err

    def test_packed_header_over_budget_reads_no_payload(self, capsys, monkeypatch, tmp_path):
        # the header's N is refused before the payload is read: a sparse
        # 64 MiB payload behind it is never loaded
        monkeypatch.delenv("EQSEQ_MAX_PERIOD", raising=False)
        f = tmp_path / "big.packed"
        with open(f, "wb") as fh:
            fh.write(PACKED_MAGIC + (3).to_bytes(4, "little") + (7).to_bytes(4, "little")
                     + (1_000_001).to_bytes(8, "little"))
            fh.truncate(24 + 64 * 2**20)
        gc.collect()
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "analyze", "--in", str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == "eqseq: error: sequence length 1000001 exceeds budget 1000000 (EQSEQ_MAX_PERIOD)\n"
        assert peak < 2**20, peak


class TestExitContract:
    # every subcommand that builds a pair maps bad primes and budget errors to
    # exit 1 with one "eqseq: error:" line and no output
    CASES = [
        (["--p", "9", "--q", "7"], None, "p must be an odd prime, got 9"),
        (["--p", "7", "--q", "7"], None, "p and q must be distinct, got p == q == 7"),
        (["--p", "3", "--q", "7"], "100", "period 147 exceeds budget 100 (EQSEQ_MAX_PERIOD)"),
        (["--p", "3", "--q", "7"], "abc", "EQSEQ_MAX_PERIOD must be an integer, got 'abc'"),
    ]

    @pytest.mark.parametrize("command", ["generate", "verify", "structure"])
    @pytest.mark.parametrize("args,limit,message", CASES)
    def test_usage_errors(self, capsys, monkeypatch, command, args, limit, message):
        if limit is not None:
            monkeypatch.setenv("EQSEQ_MAX_PERIOD", limit)
        code, stdout, err = run(capsys, command, *args)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == f"eqseq: error: {message}\n"

    def test_structure_over_budget_before_primitive_root(self, capsys, monkeypatch):
        # the primitive-root search factors q^2 by trial division: a pair
        # over the budget must fail before it, not after
        def no_search(pair):
            raise AssertionError("primitive root searched for a pair over the budget")

        monkeypatch.setattr(eulerq, "find_common_primitive_root", no_search)
        monkeypatch.setenv("EQSEQ_MAX_PERIOD", "100")
        code, stdout, err = run(capsys, "structure", "--p", "3", "--q", "7")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == "eqseq: error: period 147 exceeds budget 100 (EQSEQ_MAX_PERIOD)\n"

    def test_missing_file(self, capsys):
        code, stdout, err = run(capsys, "analyze", "--in", "/nonexistent/path")
        assert code == EXIT_IO
        assert stdout == ""
        assert err == "eqseq: error: [Errno 2] No such file or directory: '/nonexistent/path'\n"


def packed_file(p: int, q: int, n: int, extra: int, payload: int, clean: bool) -> bytes:
    """A packed header and a payload of about the length it implies, with the
    bits beyond N cleared when `clean`."""
    if clean and n < 48:
        payload &= (1 << n) - 1
    body = payload.to_bytes(6, "little")[:max(0, (n + 7) // 8 + extra)]
    return (PACKED_MAGIC + p.to_bytes(4, "little") + q.to_bytes(4, "little")
            + n.to_bytes(8, "little") + body)


packed_headers = st.builds(
    packed_file, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    st.integers(1, 40) | st.integers(0, 2**64 - 1), st.integers(-1, 1),
    st.integers(0, 2**48 - 1), st.booleans(),
)


class TestParserFuzz:
    # a parser either rejects its input with ParseError, refuses a header N
    # over the budget with ResourceError, or returns a valid sequence
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: PACKED_MAGIC + b) | packed_headers)
    @example(PACKED_MAGIC + bytes(16) + b"\x01")
    def test_parse_packed(self, data):
        try:
            p, q, seq = parse_packed(data)
        except ParseError:
            return
        except ResourceError:
            assert int.from_bytes(data[16:24], "little") > max_period()
            return
        assert seq.length >= 1 and 0 <= seq.bits < 1 << seq.length
        assert write_packed(seq, p, q) == data

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80) | st.text(alphabet="01# \t\n\x0bx", max_size=80))
    def test_parse_ascii(self, text):
        try:
            digits = parse_ascii(text)
        except ParseError:
            return
        assert set(digits) <= {"0", "1"}

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: PACKED_MAGIC + b)
           | packed_headers | st.text(alphabet="01# \n", max_size=64).map(str.encode))
    def test_load_sequence(self, tmp_path_factory, data):
        f = tmp_path_factory.mktemp("fuzz") / "s"
        f.write_bytes(data)
        try:
            seq = cli._load_sequence(str(f))
        except ParseError:
            return
        except ResourceError:
            assert data.startswith(PACKED_MAGIC) and int.from_bytes(data[16:24], "little") > max_period()
            return
        assert seq.length >= 1 and 0 <= seq.bits < 1 << seq.length
        if not data.startswith(PACKED_MAGIC):
            assert seq.to01() == parse_ascii(data.decode("ascii"))


class TestPackedHeader:
    @pytest.mark.parametrize("p, q", [(2**32, 7), (3, 2**32 + 15), (-3, 7)])
    def test_rejects_primes_wider_than_header(self, p, q):
        seq = BitSequence(bits=1, length=3, origin="external")
        with pytest.raises(DomainError, match=f"32 bits, got p={p}, q={q}"):
            write_packed(seq, p, q)

    def test_widest_header_round_trips(self):
        seq = BitSequence(bits=5, length=3, origin="external")
        p, q, back = parse_packed(write_packed(seq, 2**32 - 5, 7))
        assert (p, q, back.bits, back.length) == (2**32 - 5, 7, 5, 3)


class TestEnumeratePairs:
    def test_bounds(self):
        assert enumerate_pairs(146) == []
        assert enumerate_pairs(147) == [(3, 7)]
        assert enumerate_pairs(1000) == [(3, 7), (3, 13), (5, 11)]

    def test_sweep_range(self):
        assert enumerate_pairs(100_000) == sorted(SWEEP_PAIRS)

    def test_all_pairs_qualify(self):
        for p, q in enumerate_pairs(100_000):
            assert (q - 1) % p == 0
            assert p * q * q <= 100_000


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_args(self, capsys):
        assert run(capsys, "verify", "--p", "3")[0] == EXIT_USAGE

    def test_no_command(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_between_calls(self, capsys, tmp_path):
        # a usage error from a subcommand and one from argparse, then two
        # good calls: each reads as it does in a process whose first call it is
        path = tmp_path / "s.txt"
        assert main(["generate", "--p", "3", "--q", "13", "--out", str(path)]) == EXIT_OK
        calls = [["scan", "--jobs", "0", "--max-period", "1000"], ["structure", "--p", "3"],
                 ["structure", "--p", "3", "--q", "13"], ["analyze", "--in", str(path)]]
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        in_turn = [run(capsys, *argv) for argv in calls]
        assert in_turn == alone
        assert [code for code, _, _ in alone] == [EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_OK]
