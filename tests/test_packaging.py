"""pyproject.toml names only files and modules that exist, every
committed bench record claims a workload and metric of the benchmark,
the package's unreferenced public names can only shrink, no module
of the package reads another module's private names, and none imports
a name it never reads."""

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
# perfbench/ refers to; only tests call them.  A sweep over the
# Montesinos families is meant to become the caller of the Montesinos
# helpers.
UNREFERENCED = {
    "certificate_from_dict", "conway_to_montesinos", "montesinos_qa",
    "montesinos_to_conway",
}


def test_unreferenced_public_names_are_pinned():
    """Public top-level names with no AST reference outside their own
    definition, over every module of src/ and perfbench/.

    The check is conservative: any Name or Attribute with the same
    identifier counts as a reference, so a function named like a method
    that some module calls (`append`, `update`) would pass unseen, and
    a reference from code that is itself unused still counts.  The set may only shrink: delete a name or give it a
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


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _owner(path):
    """The qalinks module a dotted path lies in, or None."""
    parts = (path or "").split(".")
    if parts[0] != "qalinks":
        return None
    return parts[1] if len(parts) > 1 else "__init__"


def foreign_private_names(source, here):
    """Private names that module here of qalinks takes from another
    qalinks module: imported from it, or read as an attribute of a name
    bound to it or to one of its names.  Dunders are exempt."""
    bound, found = {}, []  # local name -> the dotted path it stands for
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head = a.name.partition(".")[0]
                bound[a.asname or head] = a.name if a.asname else head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "qalinks" + ("." + base if base else "")
            for a in node.names:
                bound[a.asname or a.name] = base + "." + a.name
                owner = _owner(base)
                if _private(a.name) and owner not in (None, here):
                    found.append(a.name)

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            path = dotted(node.value)
            return path and path + "." + node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if _owner(dotted(node.value)) not in (None, here):
                found.append(node.attr)
    return found


def test_no_module_reads_another_modules_private_names():
    """Modules of src/qalinks share work through public names only."""
    for path in sorted((ROOT / "src" / "qalinks").glob("*.py")):
        assert foreign_private_names(path.read_text(), path.stem) == [], path.name
    # the check sees each form of reading one
    reads = ("from qalinks import diagram as diag\nx = diag._through\n"
             "import qalinks.diagram\ny = qalinks.diagram._pair\n"
             "from .diagram import _table, LinkDiagram\n"
             "z = LinkDiagram._fields, LinkDiagram.__name__\n")
    assert foreign_private_names(reads, "invariants") == [
        "_table", "_through", "_pair", "_fields"]
    assert foreign_private_names(reads, "diagram") == []


def unread_imports(source):
    """Names a module imports and never reads; a name listed in the
    module's __all__ counts as read, and __future__ imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            read.update(ast.literal_eval(stmt.value))
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    for path in sorted((ROOT / "src" / "qalinks").glob("*.py")):
        assert unread_imports(path.read_text()) == [], path.name
    # the check sees each form of import, and each form of reading one
    sample = ("from __future__ import annotations\nimport ast\nimport re\n"
              "import os.path\nfrom .conway import Seq, Param as P\n"
              "x = re.sub, os.path.join\ndef f(s: Seq): pass\n")
    assert unread_imports(sample) == ["ast", "P"]
    assert unread_imports("from . import conway\n__all__ = ['conway']\n") == []
