"""The kernel microbench (benchmarks/bench_kernels.py) reaches into the
package by name, private helpers included, and no test runs it.  These
tests read its source without running it: every package attribute it
reads, and every name it imports from the package, must resolve."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def package_references(source):
    """(module, dotted attribute path) for every attribute chain rooted at
    a module the source imports from the package, such as
    ("primeavoid.numtheory", "_primorial.cache_clear"), and for every
    name imported from a package module."""
    tree = ast.parse(source)
    aliases = {}  # local name -> package module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "primeavoid":
            for alias in node.names:  # the package root exports only modules
                aliases[alias.asname or alias.name] = f"primeavoid.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("primeavoid."):
            refs.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in aliases:
                refs.add((aliases[node.id], ".".join(reversed(chain))))
    return refs


def resolves(module, path):
    obj = importlib.import_module(module)
    for name in path.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_the_scan_finds_the_private_names():
    refs = package_references(BENCH.read_text())
    for name in ("_root_table", "_block_products", "_trial_block_count",
                 "_start_pool", "_pool_workers", "_SIEVE_DEPTH", "_PRIMORIAL_BOUND"):
        assert ("primeavoid.numtheory", name) in refs
    assert ("primeavoid.kernels", "strong_probable_prime") in refs
    assert ("primeavoid.schedule", "make_schedule") in refs


def test_a_missing_name_is_caught():
    source = "from primeavoid import numtheory\nnumtheory._no_such_table(1)\n"
    refs = package_references(source)
    assert refs == {("primeavoid.numtheory", "_no_such_table")}
    assert not resolves(*refs.pop())


def test_every_microbench_name_resolves_on_the_package():
    refs = sorted(package_references(BENCH.read_text()))
    assert [f"{mod}.{path}" for mod, path in refs if not resolves(mod, path)] == []
