"""The package's modules import one another at module top, without a cycle,
and use every name they import; their text cites ROADMAP items by name."""

import ast
import re
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


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names a module's top-level imports bind, with their lines; a
    `from __future__` import binds none."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {(a.asname or a.name): node.lineno for a in node.names}
    return bound


def test_package_modules_use_every_name_they_import():
    # __init__ imports to re-export. A name perfbench hooks (model.conv2d,
    # query.gather, ...) counts only where the module calls it. Annotations
    # are unquoted (postponed by `from __future__ import annotations`), so
    # the names they read are ast.Name nodes too.
    unused = []
    for m in MODULES:
        tree = parse(m)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{m}:{line} {name}" for name, line in imported_names(tree).items()
                   if name not in used]
    assert "np" in imported_names(parse("model"))  # the walk sees the imports
    assert unused == []


def test_package_cites_roadmap_items_by_name():
    # a re-anchor renumbers ROADMAP's items, so a number goes stale where a
    # name does not
    cited = re.compile(r"\bitems?\s+#?\d", re.IGNORECASE)
    assert cited.search("see ROADMAP item 12") and not cited.search("the item's name")
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            found += [f"{path.name}:{n} {m!r}" for m in cited.findall(line)]
    assert found == []
