"""The package's modules import one another at module top, and without a cycle."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import cascadequery

PACKAGE = Path(cascadequery.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def sibling_imports(tree: ast.Module) -> list[tuple[ast.ImportFrom, set[str]]]:
    """Every relative import in a module, function-level ones included, with
    the sibling modules it names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = ({node.module.split(".")[0]} if node.module
                     else {a.name for a in node.names})  # from . import a, b
            found.append((node, names & set(MODULES)))
    return found


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_package_imports_form_no_cycle():
    graph = {m: set().union(*[names for _, names in sibling_imports(parse(m))])
             for m in MODULES}
    assert graph["query"] and graph["analysis"]  # the walk sees the imports
    # raises graphlib.CycleError, naming the cycle, if there is one
    list(TopologicalSorter(graph).static_order())


def test_package_imports_sit_at_module_top():
    late = []
    for m in MODULES:
        tree = parse(m)
        top = {id(node) for node in tree.body}
        late += [f"{m}:{node.lineno}" for node, names in sibling_imports(tree)
                 if names and id(node) not in top]
    assert late == []
