"""The package source itself: every top-level name is used, and one module
reads the fields of AST nodes."""

import ast
import pathlib

import qhoare

SRC_DIR = pathlib.Path(qhoare.__file__).parent


def unreferenced_top_level_names() -> set:
    """``module.name`` of each top-level function, class or constant of
    the package that no module of it loads by name or as an attribute."""
    defined, used = set(), set()
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update((path.stem, n.id) for t in targets
                               for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return {f"{module}.{name}" for module, name in defined
            if name not in used
            and not (name.startswith("__") and name.endswith("__"))}


def test_no_unreferenced_top_level_names():
    # perfbench's per-layer tracer wraps heap.unitary_matrix by name and
    # reports its calls, so it stays although nothing here calls it
    assert unreferenced_top_level_names() == {"heap.unitary_matrix"}


def test_one_module_reads_node_fields():
    # core.children and core.map_children are the one reader of node
    # fields; every other walk over the AST goes through them
    readers = {path.name for path in SRC_DIR.glob("*.py")
               if "__dataclass_fields__" in path.read_text()}
    assert readers == {"core.py"}
