"""Package-level checks: stdlib-only imports, the import graph and a clean export list."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import qloci

SRC = Path(qloci.__file__).resolve().parent


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"__future__"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {r}" for r in roots if r not in allowed]
    assert outside == []


def test_exports_resolve_and_hold_no_module():
    assert qloci.__all__
    for name in qloci.__all__:
        assert not isinstance(getattr(qloci, name), ModuleType), name
    # the submodules stay reachable as package attributes
    assert isinstance(qloci.quiver, ModuleType) and isinstance(qloci.poset, ModuleType)


def test_no_function_imports():
    # every import sits at the top of its module, where the import graph shows
    inside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    f"{path.name}:{sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))
                ]
    assert inside == []


def package_imports(module):
    """The qloci modules that ``module`` imports itself."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
    return out


def test_the_oracle_reaches_none_of_the_code_it_checks():
    # the brute-force oracle validates the rank machinery, the Zelevinsky
    # route, the poset and the reduction, so it may import none of them
    reached, todo = set(), ["oracle"]
    while todo:
        new = package_imports(todo.pop()) - reached
        reached |= new
        todo += new
    assert "reps" in reached
    assert reached.isdisjoint({"serde", "poset", "reduction", "zelevinsky"})
    # the poset reaches any quiver through the reduction, not the reverse
    assert "poset" not in package_imports("reduction")
    assert "reduction" in package_imports("poset")


def test_guards_live_with_the_code_they_meter():
    # serde bounds its matrices with its own constant, and the CLI calls no
    # guard helper of the poset: the poset's budget is metered inside it
    assert "poset" not in package_imports("serde")
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "poset"
        for alias in node.names
    }
    assert "build_poset" in names
    assert not {name for name in names if name.startswith("check_")}
