"""One pass of a workload inside a fresh interpreter.

Reads a job from stdin as JSON: {"ops": [argv, ...], "trace": bool,
"spans_out": path}.  Imports `eqseq.cli` first, untimed, then calls
`eqseq.cli.main(argv)` for each op in turn with stdout and stderr captured,
and prints one JSON object: wall and CPU time over the ops, peak RSS of this
process and of its reaped children, and each op's exit code and output.
With "trace" set, spans are installed before the first op and written to
"spans_out" after the last.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    job = json.load(sys.stdin)
    import eqseq.cli as cli

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for i, argv in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=3)
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                        "error": error})
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0

    if tracer is not None:
        with open(job["spans_out"], "w") as fh:
            json.dump(tracer.dump(), fh)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    json.dump({"wall": wall, "cpu": cpu, "peak_rss_mb": max(own, kids) / 1024,
               "results": results}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
