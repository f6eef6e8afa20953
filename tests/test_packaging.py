"""pyproject.toml names only files and modules that exist, every
committed bench record claims a workload and metric of the benchmark,
and the package's unreferenced public names can only shrink."""

import ast
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


# Public top-level names of src/qalinks that nothing in src/ or
# perfbench/ refers to; only tests call them.  A family sweep is meant
# to become the caller of the Montesinos and family-condition helpers.
UNREFERENCED = {
    "certificate_from_dict", "conway_to_montesinos", "d_squared_zero",
    "eval_family_condition", "mirror", "montesinos_qa",
    "montesinos_to_conway", "normalize", "parameters", "substitute",
    "symbol_crossings",
}


def test_unreferenced_public_names_are_pinned():
    """Public top-level names with no AST reference outside their own
    definition, over every module of src/ and perfbench/.

    The check is conservative: any Name or Attribute with the same
    identifier counts as a reference, so `extend` is kept alive by
    `list.extend`, and a reference from code that is itself unused
    still counts.  The set may only shrink: delete a name or give it a
    caller, then drop it here.
    """
    defined, uses = {}, []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            (ROOT / "perfbench").rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if path.parent.name == "qalinks":
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    defined[stmt.name] = stmt
                elif isinstance(stmt, ast.Assign):
                    defined.update((t.id, stmt) for t in stmt.targets
                                   if isinstance(t, ast.Name))
            uses.append((stmt, {getattr(n, "id", None) or getattr(n, "attr", None)
                                for n in ast.walk(stmt)}))
    unreferenced = {name for name, home in defined.items()
                    if not name.startswith("_")
                    and not any(name in ids for stmt, ids in uses
                                if stmt is not home)}
    assert unreferenced == UNREFERENCED
