"""The project's own configuration (pyproject.toml): the suite's pytest
settings and the runtime dependencies it declares; and the benchmark
records (BENCH_*.json) against the benchmark's declaration."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(i):
    assert False


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports libcst, which uses the deprecated
    # mypy_extensions.TypedDict; under error::DeprecationWarning that warning
    # ended the session in INTERNALERROR, and no later test ran
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def test_the_runtime_imports_only_the_standard_library_and_numpy():
    # every import statement, those inside functions too, so an import on a
    # path no command reaches in a test cannot bring scipy back
    found = {}
    for path in glob.glob(os.path.join(ROOT, "src", "flks", "*.py")):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["flks" if node.level else node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], os.path.basename(path))
    assert "numpy" in found and "flks" in found
    foreign = {m: p for m, p in found.items()
               if m not in sys.stdlib_module_names and m not in ("numpy", "flks")}
    assert foreign == {}


def test_pyproject_declares_numpy_as_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


# imported names a module keeps without using them: the benchmark's tracer
# wraps these two in exact_solutions
UNUSED_IMPORTS_ALLOWED = {("exact_solutions.py", "exp_kernel_lower"),
                          ("exact_solutions.py", "exp_kernel_upper")}


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is left out
    unused = set()
    for path in glob.glob(os.path.join(ROOT, "src", "flks", "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add((os.path.basename(path), name))
    assert unused == UNUSED_IMPORTS_ALLOWED


def test_bench_records_name_only_declared_workloads_and_metrics():
    # each BENCH_*.json is bench/compare.py's --out of a parent/change run:
    # paired runs of declared workloads, each with the declared end-to-end
    # metrics only, and every run's own checks passed
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    assert paths
    for path in paths:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            results = json.load(f)["results"]
        assert set(results) == {"parent", "change"}, name
        assert set(results["parent"]) == set(results["change"]) <= workloads, name
        for workload, runs in results["change"].items():
            assert runs and len(runs) == len(results["parent"][workload]), (name, workload)
            for run in runs + results["parent"][workload]:
                assert run["correct"] is True, (name, workload)
                assert set(run["metrics"]) <= metrics, (name, workload)
