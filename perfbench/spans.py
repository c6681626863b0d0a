"""Spans around the public functions of each eqseq module, installed from outside.

Targets are named as "<module>.<function>" and resolved when tracing starts.
Every binding of a target's function object in any loaded `eqseq` module is
replaced by one wrapper, so calls through `from .lincomp import
berlekamp_massey` in `cli` are recorded as well as calls through `lincomp`
itself.  A target that a refactor removed is reported as missing; private
names are never wrapped.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _bits_of(x) -> int:
    return x.length if hasattr(x, "length") else len(x)


def _gcd_bits(f, g) -> int:
    return max(f.bits.bit_length(), g.bits.bit_length())


# name -> input size in bits or bytes (or None), computed from the call arguments
TARGETS = {
    "lincomp.berlekamp_massey": lambda a: _bits_of(a[0]),
    "lincomp.minimal_polynomial_gcd": lambda a: a[0].length,
    "lincomp.predicted_minimal_polynomial": None,
    "lincomp.verify_theorem": None,
    "gf2poly.gcd": lambda a: _gcd_bits(a[0], a[1]),
    "gf2poly.cyclotomic_f2": lambda a: a[0],
    "structverify.audit_structure": None,
    "structverify.build_partition": None,
    "eulerq.build_table": lambda a: a[0].period,
    "eulerq.derive_generators": None,
    "eulerq.coset_index": None,
    "ntcore.find_common_primitive_root": None,
    "sequence.generate_threshold": None,
    "sequence.least_period": None,
    "cli.main": None,
    "cli.parse_ascii": lambda a: len(a[0]),
    "cli.parse_packed": lambda a: len(a[0]),
}

# targets whose spans also record resident memory at entry and peak at exit
MEMORY_TARGETS = {"structverify.audit_structure"}


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Records one span per call: [name, start, end, parent, op, size, rss_rise]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.installed: list[str] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, size_of, memory: bool):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = size_of(args) if size_of is not None else 0
            rss0 = _rss_bytes() if memory else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, size, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if memory:
                    span[6] = max(0, _peak_bytes() - rss0)

        return wrapper

    def install(self) -> None:
        """Resolve every target by name and rebind it wherever it is bound."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "eqseq" or k.startswith("eqseq."))]
        for name in TARGETS:
            module_name, attr = name.rsplit(".", 1)
            try:
                fn = getattr(importlib.import_module(f"eqseq.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, TARGETS[name], name in MEMORY_TARGETS)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn and not key.startswith("_"):
                        setattr(module, key, wrapper)
            self.installed.append(name)

    def dump(self) -> dict:
        return {"spans": self.spans, "installed": self.installed, "missing": self.missing}


MODULES = sorted({name.split(".")[0] for name in TARGETS})


def layer_metrics(dump: dict, n_ops: int) -> dict[str, float]:
    """Per-layer figures from one traced pass.

    Self time is a span's duration minus the durations of its direct child
    spans.  A missing target reports zero for each of its figures.
    """
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(TARGETS, 0.0)
    calls = dict.fromkeys(TARGETS, 0)
    size = dict.fromkeys(TARGETS, 0)
    size2 = dict.fromkeys(TARGETS, 0)
    seen_cyclotomic: set[int] = set()
    repeats = 0
    rss_rise = 0
    for i, (name, start, end, _parent, _op, n, rise) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        size[name] += n
        size2[name] += n * n
        rss_rise = max(rss_rise, rise)
        if name == "gf2poly.cyclotomic_f2":
            repeats += n in seen_cyclotomic
            seen_cyclotomic.add(n)

    def per_bit2(name: str) -> float:
        return self_s[name] * 1e9 / size2[name] if size2[name] else 0.0

    out = {f"{name}.self_s": self_s[name] for name in TARGETS}
    out.update({
        "lincomp.berlekamp_massey.in_bits": size["lincomp.berlekamp_massey"],
        "lincomp.berlekamp_massey.ns_per_bit2": per_bit2("lincomp.berlekamp_massey"),
        "gf2poly.gcd.in_bits": size["gf2poly.gcd"],
        "gf2poly.gcd.ns_per_bit2": per_bit2("gf2poly.gcd"),
        "lincomp.minimal_polynomial_gcd.calls_per_op":
            calls["lincomp.minimal_polynomial_gcd"] / max(n_ops, 1),
        "gf2poly.cyclotomic_f2.calls": calls["gf2poly.cyclotomic_f2"],
        "gf2poly.cyclotomic_f2.repeat_ratio":
            repeats / calls["gf2poly.cyclotomic_f2"] if calls["gf2poly.cyclotomic_f2"] else 0.0,
        "structverify.audit_structure.rss_rise_mb": rss_rise / 2**20,
        "eulerq.build_table.entries": size["eulerq.build_table"],
        "eulerq.coset_index.calls": calls["eulerq.coset_index"],
        "cli.in_bytes": size["cli.parse_ascii"] + size["cli.parse_packed"],
    })
    for module in MODULES:
        out[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(module + "."))
    out["trace.missing_targets"] = len(dump["missing"])
    return out
