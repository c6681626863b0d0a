"""Command-line front end and the on-disk sequence formats.

Exit codes are a stable contract: 0 success/match, 1 usage error, 2 pair
outside the closed form's hypotheses, 3 mismatch or failed audit, 4 I/O or
parse failure.

ASCII format: optional comment lines starting '#', then '0'/'1' characters
with arbitrary whitespace ignored.  Generated files carry the header
`# eqseq p=<p> q=<q> N=<N>`.

Packed format: magic "EQSEQ\\x00\\x01\\x00", p and q as 32-bit little-endian,
N as 64-bit little-endian, then ceil(N/8) payload bytes with bit t stored at
bit (t mod 8) of byte (t div 8); trailing bits are zero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys

from .errors import DomainError, EqseqError, ParseError
from .limits import check_budget
from .lincomp import analyze_period, verify_theorem
from .ntcore import PrimePair, is_prime
from .sequence import BitSequence, generate_threshold
from .structverify import audit_structure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INAPPLICABLE = 2
EXIT_MISMATCH = 3
EXIT_IO = 4

PACKED_MAGIC = b"EQSEQ\x00\x01\x00"

_NOT_DIGIT = re.compile(r"[^01\s]")

CSV_HEADER = [
    "p", "q", "q_mod_4", "wieferich_ok", "divisibility_ok", "period",
    "lc_empirical", "lc_predicted", "match", "sigma", "millis",
]


# ---------------------------------------------------------------------------
# file formats


def write_ascii(seq: BitSequence, p: int, q: int) -> str:
    return f"# eqseq p={p} q={q} N={seq.length}\n{seq.to01()}\n"


def parse_ascii(text: str) -> str:
    """The '0'/'1' digits of the text, s_0 first; raises ParseError with a
    1-based position.  Whitespace means str.isspace(), which the regex class
    \\s and str.split() also use."""
    digits: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        bad = _NOT_DIGIT.search(line)
        if bad:
            raise ParseError(
                f"unexpected character {bad.group()!r} in sequence file",
                line=lineno, column=bad.start() + 1,
            )
        digits.append("".join(line.split()))
    return "".join(digits)


def write_packed(seq: BitSequence, p: int, q: int) -> bytes:
    n = seq.length
    if not (0 <= p < 1 << 32 and 0 <= q < 1 << 32):
        raise DomainError(f"packed header stores p and q in 32 bits, got p={p}, q={q}")
    header = PACKED_MAGIC + p.to_bytes(4, "little") + q.to_bytes(4, "little") + n.to_bytes(8, "little")
    return header + seq.bits.to_bytes((n + 7) // 8, "little")


def parse_packed(data: bytes) -> tuple[int, int, BitSequence]:
    if data[:8] != PACKED_MAGIC:
        raise ParseError("bad magic, not a packed eqseq file", column=1)
    if len(data) < 24:
        raise ParseError("truncated packed header", column=len(data))
    p = int.from_bytes(data[8:12], "little")
    q = int.from_bytes(data[12:16], "little")
    n = int.from_bytes(data[16:24], "little")
    if n < 1:
        raise ParseError(f"packed header declares N={n}", column=17)
    check_budget("sequence length", n)
    payload = data[24:]
    expected = (n + 7) // 8
    if len(payload) != expected:
        raise ParseError(
            f"payload is {len(payload)} bytes, header implies {expected}",
            column=25,
        )
    bits = int.from_bytes(payload, "little")
    if bits >> n:
        raise ParseError("trailing bits beyond N are not zero", column=25)
    return p, q, BitSequence(bits=bits, length=n, origin=(p, q))


# ---------------------------------------------------------------------------
# pair enumeration and helpers


def enumerate_pairs(max_period_bound: int) -> list[tuple[int, int]]:
    """All odd prime pairs with p | q-1 and p*q^2 <= the bound, sorted."""
    pairs: list[tuple[int, int]] = []
    p = 3
    while p * (2 * p + 1) ** 2 <= max_period_bound:
        if is_prime(p):
            q = 2 * p + 1  # q = kp + 1 with k even keeps q odd
            while p * q * q <= max_period_bound:
                if is_prime(q):
                    pairs.append((p, q))
                q += 2 * p
        p += 2
    return sorted(pairs)


def _fail(code: int, message: str) -> int:
    print(f"eqseq: error: {message}", file=sys.stderr)
    return code


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _write_out(path: str, data: str | bytes) -> int:
    """Write data to path, or to stdout for '-': text through sys.stdout and
    bytes through its buffer.  A file is written as bytes, text as ASCII."""
    try:
        if path != "-":
            with open(path, "wb") as fh:
                fh.write(data.encode("ascii") if isinstance(data, str) else data)
        elif isinstance(data, str):
            sys.stdout.write(data)
        else:
            sys.stdout.buffer.write(data)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {path}: {exc}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    pair = PrimePair.create(args.p, args.q)
    if not pair.divides:
        return _fail(EXIT_INAPPLICABLE, "p must divide q-1")
    seq = generate_threshold(pair)
    write = write_ascii if args.format == "ascii" else write_packed
    return _write_out(args.out, write(seq, pair.p, pair.q))


def _load_sequence(path: str) -> BitSequence:
    """The sequence in the file; a packed header's N is held to the budget
    before its payload is read."""
    with open(path, "rb") as fh:
        data = fh.read(24)
        if data[:8] == PACKED_MAGIC:
            if len(data) == 24:
                check_budget("sequence length", int.from_bytes(data[16:24], "little"))
            _, _, seq = parse_packed(data + fh.read())
            return seq
        data += fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not ASCII and not packed: {exc}") from None
    digits = parse_ascii(text)
    if not digits:
        raise ParseError("no sequence bits found in file")
    check_budget("sequence length", len(digits))
    return BitSequence(bits=int(digits[::-1], 2), length=len(digits), origin="external")


def _cmd_analyze(args) -> int:
    seq = _load_sequence(args.infile)
    if args.period is not None:
        t = args.period
        if t < 1 or t > seq.length:
            return _fail(EXIT_USAGE, f"--period {t} out of range 1..{seq.length}")
        # bit i of breaks is s_(i+t) ^ s_i; the first i + t set is the first break
        breaks = (seq.bits >> t) ^ (seq.bits & ((1 << (seq.length - t)) - 1))
        if breaks:
            i = (breaks & -breaks).bit_length() - 1 + t
            return _fail(
                EXIT_USAGE,
                f"file content is not {t}-periodic (first break at index {i})",
            )
        seq = BitSequence(bits=seq.bits & ((1 << t) - 1), length=t, origin=seq.origin)

    period, minpoly = analyze_period(seq)
    lc = minpoly.degree
    _print_json({
        "n": seq.length,
        "least_period": period,
        "lc_gcd": lc,
        "lc_berlekamp_massey": lc,
        "minpoly": minpoly.render(),
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_theorem(PrimePair.create(args.p, args.q))
    _print_json(report.to_json_dict())
    if not (report.divisibility_ok and report.wieferich_ok):
        return EXIT_INAPPLICABLE
    if report.match:
        return EXIT_OK
    for d, lc, closed in report.blocks_off_closed_form():
        print(f"eqseq: block d={d}: lc {lc}, closed form {closed}", file=sys.stderr)
    return EXIT_MISMATCH


def _cmd_structure(args) -> int:
    pair = PrimePair.create(args.p, args.q)
    if not pair.divides:
        return _fail(EXIT_INAPPLICABLE, "p must divide q-1")
    report = audit_structure(pair)
    print(report.format_table(), file=sys.stderr)
    _print_json(report.to_json_dict())
    return EXIT_OK if report.all_ok else EXIT_MISMATCH


def _scan_row(pq: tuple[int, int]) -> tuple[list, str | None]:
    """The scan's CSV cells for one pair, and the error text or None.  It runs
    in the worker, so only the cells and the text cross to the parent."""
    p, q = pq
    try:
        report = verify_theorem(PrimePair.create(p, q))
    except EqseqError as exc:
        return [p, q, q % 4, "n/a", "n/a", "n/a", "n/a", "n/a", "false", "n/a", "n/a"], str(exc)
    cells = [
        p, q, report.q_mod_4, report.wieferich_ok, report.divisibility_ok, report.period_found,
        report.lc_empirical, report.lc_predicted, report.match, report.sigma,
        int(round(report.elapsed * 1000)),
    ]
    return [str(v).lower() if isinstance(v, bool) else "n/a" if v is None else v
            for v in cells], None


def _cmd_scan(args) -> int:
    if args.jobs < 1:
        return _fail(EXIT_USAGE, f"--jobs must be at least 1, got {args.jobs}")
    if args.max_period < 1:
        return _fail(EXIT_USAGE, f"--max-period must be at least 1, got {args.max_period}")
    check_budget("--max-period", args.max_period)
    pairs = enumerate_pairs(args.max_period)
    # never more workers than pairs or CPUs this process may run on: the
    # pool starts them all at once
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    workers = min(args.jobs, len(pairs), cpus or 1)
    # largest N first, so no long pair starts last; rows keep the sorted order
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # loaded only for a pool

        by_size = sorted(pairs, key=lambda pq: pq[0] * pq[1] ** 2, reverse=True)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = dict(zip(by_size, pool.map(_scan_row, by_size)))
        results = [rows[pq] for pq in pairs]
    else:
        results = list(map(_scan_row, pairs))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row, error in results:
        if error is not None:
            print(f"eqseq: scan error for ({row[0]}, {row[1]}): {error}", file=sys.stderr)
        writer.writerow(row)
    if _write_out(args.csv, buf.getvalue()) != EXIT_OK:
        return EXIT_IO
    return EXIT_OK if all(row[8] == "true" for row, _ in results) else EXIT_MISMATCH   # match


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing reads it
    and never changes it, so every call shares it."""
    parser = argparse.ArgumentParser(prog="eqseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write one period of a threshold sequence")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--q", type=int, required=True)
    gen.add_argument("--out", default="-", help="output path, '-' for stdout")
    gen.add_argument("--format", choices=("ascii", "packed"), default="ascii")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="period/LC/minimal polynomial of a sequence")
    ana.add_argument("--in", dest="infile", required=True, help="sequence file (ascii or packed)")
    ana.add_argument("--period", type=int, help="treat the first PERIOD bits as one period")
    ana.set_defaults(func=_cmd_analyze)

    ver = sub.add_parser("verify", help="compare empirical LC against the closed form")
    ver.add_argument("--p", type=int, required=True)
    ver.add_argument("--q", type=int, required=True)
    ver.set_defaults(func=_cmd_verify)

    struct = sub.add_parser("structure", help="run the eight structural checks")
    struct.add_argument("--p", type=int, required=True)
    struct.add_argument("--q", type=int, required=True)
    struct.add_argument("--seed", type=int, help="accepted and ignored: every check is exact")
    struct.set_defaults(func=_cmd_structure)

    scan = sub.add_parser("scan", help="verify every qualifying pair up to a period bound")
    scan.add_argument("--max-period", type=int, required=True)
    scan.add_argument("--jobs", type=int, default=1)
    scan.add_argument("--csv", default="-", help="output path, '-' for stdout")
    scan.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:   # ParseError first: it is an EqseqError
        return _fail(EXIT_IO, str(exc))
    except EqseqError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
