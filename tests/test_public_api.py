import ast
import gc
import inspect
import re
import tracemalloc
from pathlib import Path

import eqseq
from eqseq import eulerq, gf2poly, lincomp, ntcore, residues, sequence, structverify

REMOVED = [
    "balance", "check_congruences", "check_kernel_image", "check_residue_multisets",
    "build_table", "check_translation", "compose_power", "CosetPartition", "EulerQuotientTable",
    "find_ghat", "generate_by_cosets", "generating_polynomial", "linear_complexity",
    "minimal_polynomial_gcd", "pow_wide_mod", "synthesize_sequence", "_lift_rows",
]

PUBLIC = [
    "AnalysisReport", "BitSequence", "DomainError", "EqseqError",
    "Gf2Poly", "GroupGenerators", "InternalConsistencyError",
    "ParseError", "PrimePair", "ResourceError", "StructureReport", "UnsupportedInputError",
    "analyze_period", "audit_structure", "berlekamp_massey", "build_partition",
    "coset_index", "crt_lift", "cyclotomic_f2", "derive_generators", "euler_quotient",
    "factorize", "find_common_primitive_root", "gcd", "generate_threshold", "is_prime",
    "least_period", "lemma_failures",
    "multiplicative_order", "predicted_minimal_polynomial",
    "two_coset_index", "verify_theorem", "wieferich_ok",
]


def test_all_resolves_sorted_and_unique():
    names = eqseq.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(eqseq, name), name


def test_public_names_are_pinned():
    # a new public name is a deliberate edit of this list
    assert eqseq.__all__ == PUBLIC


def test_removed_wrappers_are_gone():
    for name in REMOVED:
        assert name not in eqseq.__all__
        assert not hasattr(eqseq, name), name
        for module in (eulerq, structverify, residues, lincomp, gf2poly, ntcore, sequence):
            assert not hasattr(module, name), (module.__name__, name)


def test_sequence_imports_nothing_from_structverify():
    # the coset index is a plain array, so the lower layer needs no audit type
    tree = ast.parse(Path(sequence.__file__).read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert not [name for name in imported if name and "structverify" in name], imported


def test_sequence_reads_one_lift_from_eulerq():
    # the threshold and the coset index read psi from the one lift, _psi_rows
    tree = ast.parse(Path(sequence.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "eulerq"}
    assert read == {"_psi_rows"}, read


def _package_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each name the file reads from another module of the
    package: `from .module import name`, and `module.name` after `from . import module`."""
    tree = ast.parse(path.read_text())
    reads, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("eqseq")):
            source = (node.module or "").removeprefix("eqseq").lstrip(".")
            if source:
                reads |= {(source, alias.name) for alias in node.names}
            else:
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
    reads |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules}
    return reads


def test_import_graph_is_pinned():
    # the lemma audit stands apart from the LC pipeline, and a module reads
    # another's privates only in the one polynomial layer and the one psi lift
    reads = {path.stem: _package_reads(path)
             for path in sorted(Path(eqseq.__file__).resolve().parent.glob("*.py"))}
    for module in ("eulerq", "residues", "structverify"):
        sources = {source for source, _ in reads[module]}
        assert not sources & {"sequence", "lincomp", "gf2poly", "cli"}, (module, sources)
    private = sorted((module, source, name) for module, pairs in reads.items()
                     for source, name in pairs if name.startswith("_"))
    assert [read for read in private if not _pinned_private_read(*read)] == [], private


def test_only_the_sound_path_reads_the_block_rule():
    # the comparison walks lemma 7's claims in blocks; the residue passes and
    # the walks over the units, which only a faulty index reaches, read their
    # views whole
    assert not {("limits", "BLOCK"), ("limits", "per_block")} & _package_reads(Path(structverify.__file__))
    tree = ast.parse(Path(residues.__file__).read_text())
    callers = {function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function) if isinstance(node, ast.Name)
               and node.id in ("per_block", "BLOCK")}
    assert callers == {"_q2_claims"}, callers


def _pinned_private_read(module: str, source: str, name: str) -> bool:
    if (module, source) == ("lincomp", "gf2poly"):
        return name.startswith("_int_") or name in ("_cyclotomic_pair", "_cyclotomic_factors")
    return (module, source, name) == ("sequence", "eulerq", "_psi_rows")


def test_gf2poly_is_a_report_type():
    # arithmetic runs on the packed-int kernels; Gf2Poly only reports a result
    for name in ("one", "from_coeffs", "from_terms", "is_zero", "num_terms", "coefficient",
                 "__bool__", "__add__", "__sub__", "__mul__", "__divmod__", "__floordiv__",
                 "__mod__", "term_degrees"):
        assert not hasattr(eqseq.Gf2Poly, name), name
    for name in ("__len__", "bit", "iter_bits", "two_periods"):
        assert not hasattr(eqseq.BitSequence, name), name


def test_readme_library_use_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_names_every_benchmark_file():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    files = sorted(path.name for path in root.glob("BENCH_*.json"))
    assert files and [name for name in files if f"`{name}`" not in readme] == []


def test_one_degree_accessor():
    assert not hasattr(gf2poly, "NEG_INFINITY")
    assert not hasattr(eqseq.Gf2Poly, "zero")
    assert not hasattr(eqseq.BitSequence, "ones")
    # the spelled-out degree of a polynomial appears only inside Gf2Poly.degree
    spelled = re.compile(r"\.bits\.bit_length\(\) - 1")
    hits = [(path.name, line.strip())
            for path in sorted(Path(eqseq.__file__).parent.glob("*.py"))
            for line in path.read_text().splitlines() if spelled.search(line)]
    assert hits == [("gf2poly.py", "return self.bits.bit_length() - 1")]
    assert spelled.search(inspect.getsource(eqseq.Gf2Poly.degree.fget))


def test_one_period_analysis_and_one_lemma_runner_exported():
    assert "analyze_period" in eqseq.__all__ and "lemma_failures" in eqseq.__all__
    assert eqseq.analyze_period is lincomp.analyze_period
    assert eqseq.lemma_failures is structverify.lemma_failures


def test_lemma_failures_derives_its_generators():
    # (p, q) fixes g, h and ghat, so the audit takes only the pair and the index
    assert list(inspect.signature(structverify.lemma_failures).parameters) == ["pair", "index"]


def test_build_partition_builds_its_table():
    # the index is built from the pair alone, lifted from its residues mod pq
    assert list(inspect.signature(structverify.build_partition).parameters) == ["pair"]


def test_one_sigma_and_one_wieferich_test():
    assert eqseq.two_coset_index is eulerq.two_coset_index
    assert eqseq.wieferich_ok is ntcore.wieferich_ok
    assert not hasattr(structverify, "wieferich_ok") and not hasattr(lincomp, "two_coset_index")


def test_audit_is_exact_and_unseeded():
    # one exact additivity test at every period: no sample, limit or seed
    sources = {path.name: path.read_text()
               for path in sorted(Path(eqseq.__file__).parent.glob("*.py"))}
    for word in ("numpy.random", "np.random", "default_rng", "EXHAUSTIVE_LIMIT"):
        assert [name for name, text in sources.items() if word in text] == [], word
    for name in ("SAMPLE_COUNT", "DEFAULT_SEED", "_grid_failures", "_sampled_additivity",
                 "_check_translation", "_GRID_CHUNK"):
        assert not hasattr(structverify, name), name
    for fn in (structverify.lemma_failures, structverify.audit_structure):
        assert "seed" not in inspect.signature(fn).parameters, fn.__name__


def test_one_count_only_berlekamp_massey():
    # one BM: one BitSequence in, L out; only the reference under tests/
    # builds the connection polynomial or packs a list of bits
    assert list(inspect.signature(eqseq.berlekamp_massey).parameters) == ["seq"]
    seq = eqseq.BitSequence(bits=0b1110100, length=7, origin="external")
    assert type(eqseq.berlekamp_massey(seq)) is int
    assert not hasattr(sequence, "pack_bits") and not hasattr(sequence, "_DIGITS")
    assert not hasattr(lincomp, "_as_packed")


def test_no_module_compiles_with_a_higher_peak_than_cli():
    # every interpreter that imports eqseq.cli with no bytecode cache compiles
    # each module from source, so the largest compile sets the peak heap of
    # the import; a module whose compile outgrows cli.py's moves the peak RSS
    # of every command, also of those that never run it.  Each peak is the
    # least of three, after a collection: a collection inside a compile can
    # raise one reading
    peaks = {}
    for path in sorted(Path(eqseq.__file__).resolve().parent.glob("*.py")):
        source = path.read_text()
        readings = []
        for _ in range(3):
            gc.collect()
            tracemalloc.start()
            try:
                compile(source, str(path), "exec")
                readings.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks[path.name] = min(readings)
    assert max(peaks, key=peaks.get) == "cli.py", peaks
