"""The benchmark in perfbench/ binds qloci names by string; each must resolve.

`perfbench/tracer.py` wraps the functions listed in its TARGETS with
getattr, so deleting or renaming one would only show up when a traced
benchmark run crashes.  The file is read, not imported or changed.
"""

import ast
from pathlib import Path

import pytest

import qloci
import qloci.cli  # noqa: F401  (the package does not import its CLI)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names the other perfbench scripts call directly
DIRECT = [
    ("cli", "main"),
    ("cli", "build_parser"),
    ("oracle", "space_dimension"),
    ("oracle", "gl_order"),
    ("oracle", "DEFAULT_GROUP_GUARD"),
    ("serde", "quiver_from_json"),
    ("poset", "iter_lace_values"),
    ("poset", "enumerate_orbits"),
    ("reps", "rank_to_lace"),
    ("quiver", "interval_table"),
]


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(elt.elts[0].value, elt.elts[1].value) for elt in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


def test_tracer_lists_targets():
    assert len(tracer_targets()) >= 20


@pytest.mark.parametrize("module, attr", tracer_targets() + DIRECT)
def test_bench_binding_resolves(module, attr):
    owner = getattr(qloci, module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert owner is not None
