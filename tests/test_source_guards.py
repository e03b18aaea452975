"""Source guards over ``src/muchan``: every small float literal is a named,
documented module constant, and the package's modules import each other
only at module level and without a cycle.

Run as a script, it prints the number of unnamed small float literals.
"""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "muchan"
SMALL = 1e-3  # literals in (0, SMALL] are tolerances, floors and slacks


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _is_constant_name(target) -> bool:
    return isinstance(target, ast.Name) and target.id.lstrip("_").isupper()


def unnamed_small_literals():
    """(file, line, value) of every float literal in (0, SMALL] outside a
    module-level UPPER_CASE assignment and the ``Tolerance`` field defaults."""
    found = []
    for name, tree in _trees().items():
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and all(map(_is_constant_name, node.targets)):
                allowed.update(map(id, ast.walk(node.value)))
            elif isinstance(node, ast.ClassDef) and node.name == "Tolerance":
                for field in node.body:
                    if isinstance(field, ast.AnnAssign) and field.value is not None:
                        allowed.update(map(id, ast.walk(field.value)))
        found += [(f"{name}.py", node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < node.value <= SMALL and id(node) not in allowed]
    return found


def _imports(tree):
    """The package modules ``tree`` imports (relative or ``muchan.*``), with
    the line of each import, wherever it stands."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("muchan"):
                continue
            module = (node.module or "").removeprefix("muchan").lstrip(".")
            if module:
                out.append((module.split(".")[0], node.lineno))
            else:  # from . import gallery, io
                out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name.split(".")[1], node.lineno) for alias in node.names
                    if alias.name.startswith("muchan.")]
    return out


def _graph():
    trees = _trees()
    return {name: {m for m, _ in _imports(tree) if m in trees}
            for name, tree in trees.items() if name != "__init__"}


def test_no_unnamed_small_float_literal():
    assert unnamed_small_literals() == []


def test_no_import_inside_a_function():
    nested = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [(f"{name}.py", node.lineno) for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_module_import_graph_is_acyclic():
    graph = _graph()
    done, order = set(), []

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + [module])
        done.add(module)
        order.append(module)

    for module in sorted(graph):
        visit(module, [])
    assert len(order) == len(graph)


def test_analysis_and_constructive_do_not_import_search():
    graph = _graph()
    assert "search" not in graph["analysis"] | graph["constructive"]
    assert "analysis" in graph["search"] and "analysis" in graph["constructive"]


if __name__ == "__main__":
    print(len(unnamed_small_literals()))
    sys.exit(0)
