"""Source guards over ``src/muchan``: every small float literal is a named,
documented module constant, the package's modules import each other only
at module level and without a cycle, no code builds a ``Tolerance``
but ``tolerances.py`` (``DEFAULT_TOL``) and the CLI's ``_tol``, so every
library rule runs under the caller's tolerance, and the rotation loop of
``zero_diagonal_unitary`` names nothing under ``np.``.  One guard over
``tests/``: no test imports hypothesis, since property cases are seeded
numpy draws (``tests/seeded.py``) and the ``test`` extra does not install it.

Run as a script, it prints the number of unnamed small float literals.
"""
import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "muchan"
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


def test_tolerance_built_only_by_its_module_and_the_cli():
    built = []
    for name, tree in _trees().items():
        if name == "tolerances":
            continue
        allowed = set()
        if name == "cli":
            tol = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "_tol")
            allowed.update(map(id, ast.walk(tol)))
        built += [(f"{name}.py", node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and "Tolerance" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert built == []


def numpy_in_rotation_loop():
    """(line, expression) of every ``np.`` name in the rotation loop of
    ``constructive.zero_diagonal_unitary`` (the outermost loop that calls
    ``_solve_bracketed_2x2``) and in the module functions it calls."""
    funcs = {node.name: node for node in _trees()["constructive"].body
             if isinstance(node, ast.FunctionDef)}

    def callees(node):
        return {sub.func.id for sub in ast.walk(node)
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}

    loops = [node for node in ast.walk(funcs["zero_diagonal_unitary"])
             if isinstance(node, ast.For) and "_solve_bracketed_2x2" in callees(node)]
    assert loops, "zero_diagonal_unitary has no rotation loop"
    found, todo, seen = [], [loops[0]], set()
    while todo:
        node = todo.pop()
        found += [(sub.lineno, ast.unparse(sub)) for sub in ast.walk(node)
                  if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id == "np"]
        new = (callees(node) & funcs.keys()) - seen
        seen |= new
        todo += [funcs[name] for name in new]
    return found


def test_zero_diagonal_rotation_loop_makes_no_numpy_call():
    # the sweep is O(n^3) scalar Python; one numpy call per rotation costs
    # more than the rotation's arithmetic at the sizes the library uses
    assert numpy_in_rotation_loop() == []


def test_no_test_imports_hypothesis():
    found = []
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for name in names
                      if name.split(".")[0] == "hypothesis"]
    assert found == []


def test_analysis_and_constructive_do_not_import_search():
    graph = _graph()
    assert "search" not in graph["analysis"] | graph["constructive"]
    assert "analysis" in graph["search"] and "analysis" in graph["constructive"]


if __name__ == "__main__":
    print(len(unnamed_small_literals()))
    sys.exit(0)
