"""pyproject.toml names only files and modules that exist, and every
committed bench record claims a workload and metric of the benchmark."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_names_exist():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        data = tomllib.load(f)
    project = data["project"]
    readme = project.get("readme")
    if readme is not None:
        name = readme if isinstance(readme, str) else readme["file"]
        assert (ROOT / name).is_file(), name
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert hasattr(importlib.import_module(module), attr), target
    setuptools = data.get("tool", {}).get("setuptools", {})
    roots = setuptools.get("packages", {}).get("find", {}).get("where", ["."])
    for where in roots:
        assert (ROOT / where).is_dir(), where
    assert any((ROOT / where / project["name"] / "__init__.py").is_file()
               for where in roots)
    for package, patterns in setuptools.get("package-data", {}).items():
        for pattern in patterns:
            assert any(any((ROOT / where / package.replace(".", "/")).glob(pattern))
                       for where in roots), (package, pattern)
    for path in data.get("tool", {}).get("pytest", {}).get(
            "ini_options", {}).get("testpaths", []):
        assert (ROOT / path).is_dir(), path


def test_bench_records_claim_a_benchmark_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        claim = json.loads(path.read_text())["claim"]
        assert claim["workload"] in workloads, path.name
        assert claim["metric"] in metrics, path.name
