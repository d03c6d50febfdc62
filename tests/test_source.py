"""The package source itself: every top-level name, method, property and
import is used, one module reads the fields of AST nodes, and every name
the benchmark tracer wraps is called."""

import ast
import pathlib
import sys

import qhoare

SRC_DIR = pathlib.Path(qhoare.__file__).parent


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _package_names() -> tuple:
    """``(module, name)`` of each top-level function, class or constant
    of the package, ``(module, class, name)`` of each method and property
    of its classes, and three sets of what its modules load:
    - the names that may refer to a top-level name: loaded bare, or as an
      attribute of an imported module;
    - the names that may refer to a method of any class: loaded as an
      attribute of anything but ``self`` or a module;
    - ``(module, class, name)`` of each ``self.name`` loaded in a method,
      which refers to a method of its own class only."""
    defined, methods = set(), set()
    top_loaded, attr_loaded, self_loaded = set(), set(), set()

    def walk(node, module, cls, modules):
        for n in ast.iter_child_nodes(node):
            if isinstance(n, ast.ClassDef):
                methods.update(
                    (module, n.name, f.name) for f in n.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
                walk(n, module, n.name, modules)
                continue
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                top_loaded.add(n.id)
            elif isinstance(n, ast.Attribute):
                owner = n.value.id if isinstance(n.value, ast.Name) else None
                if owner in modules:
                    top_loaded.add(n.attr)
                elif owner == "self" and cls is not None:
                    self_loaded.add((module, cls, n.attr))
                else:
                    attr_loaded.add(n.attr)
            walk(n, module, cls, modules)

    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # names bound to a module: `import m`, `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module is None):
                modules.update((a.asname or a.name).split(".")[0]
                               for a in node.names)
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
        walk(tree, path.stem, None, modules)
    return defined, methods, top_loaded, attr_loaded, self_loaded


def unreferenced_top_level_names() -> set:
    """``module.name`` of each top-level function, class or constant of
    the package that no module of it loads by name or as an attribute of
    a module."""
    defined, _, top_loaded, _, _ = _package_names()
    return {f"{module}.{name}" for module, name in defined
            if name not in top_loaded and not _is_dunder(name)}


def unreferenced_methods() -> set:
    """``module.Class.name`` of each method and property, not a dunder, of
    a class of the package that no module of it loads as an attribute of
    anything but ``self`` or a module, nor as ``self.name`` in that
    class."""
    _, methods, _, attr_loaded, self_loaded = _package_names()
    return {f"{module}.{cls}.{name}" for module, cls, name in methods
            if name not in attr_loaded
            and (module, cls, name) not in self_loaded
            and not _is_dunder(name)}


def test_no_unreferenced_top_level_names():
    # perfbench's per-layer tracer wraps heap.unitary_matrix by name and
    # reports its calls, so it stays although nothing here calls it.  The
    # parser's entry points for one assertion, term or type, and the
    # checker's for one term, serve the tests and the parse/pretty
    # round-trip oracle; the package reads whole programs only
    assert unreferenced_top_level_names() == {
        "heap.unitary_matrix", "parser.parse_assertion", "parser.parse_term",
        "parser.parse_type", "typecheck.synth", "typecheck.check"}


def test_no_unreferenced_methods():
    # a method or property that only tests read is code the package does
    # not need
    assert unreferenced_methods() == set()


def unused_imports() -> set:
    """``module.name`` of each name that a module of the package imports
    and neither loads nor exports in its ``__all__``."""
    out = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [
                    t.id for t in node.targets
                    if isinstance(t, ast.Name)] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        out |= {f"{path.stem}.{name}" for name in imported - used}
    return out


def test_every_import_is_used():
    # perfbench's per-layer tracer wraps typecheck.cell_assertion by name,
    # so typecheck imports it although nothing there calls it
    assert unused_imports() == {"typecheck.cell_assertion"}


def test_one_module_reads_node_fields():
    # core.children and core.map_children are the one reader of node
    # fields; every other walk over the AST goes through them
    readers = {path.name for path in SRC_DIR.glob("*.py")
               if "__dataclass_fields__" in path.read_text()}
    assert readers == {"core.py"}


def test_chains_are_read_through_chain_links():
    # core.chain_links walks the left spine of an And/Or chain in a loop;
    # a case that took a chain's operands apart itself would recurse once
    # per link, and written chains are long
    seen, offenders = set(), []
    for path in sorted(SRC_DIR.glob("*.py")):
        for case in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(case, ast.match_case):
                continue
            chains = [p for p in ast.walk(case.pattern)
                      if isinstance(p, ast.MatchClass)
                      and isinstance(p.cls, ast.Name)
                      and p.cls.id in ("And", "Or")]
            if not chains:
                continue
            seen.add(path.name)
            calls = {n.func.id for stmt in case.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Name)}
            if "chain_links" not in calls \
                    or any(p.patterns or p.kwd_patterns for p in chains):
                offenders.append(f"{path.name}:{case.pattern.lineno}")
    assert seen == {"core.py", "heap.py", "typecheck.py"}
    assert offenders == []


def test_tracer_names_are_called(capsys):
    # the benchmark's traced round times each layer through the module
    # names it wraps; a layer that calls around its wrapped name would
    # report 0 s and 0 calls without any error
    perfbench = pathlib.Path(__file__).parent.parent / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        import spans
        import worker
    finally:
        sys.path.remove(str(perfbench))
        # spans, worker and what worker imports (checks, speed) have
        # generic names; keep them out of other tests' imports
        for name, module in list(sys.modules.items()):
            if pathlib.Path(getattr(module, "__file__", None) or "").parent \
                    == perfbench:
                del sys.modules[name]
    from qhoare import cli

    class NamingTracer(spans.Tracer):
        def __init__(self):
            super().__init__()
            self.names = []

        def span(self, name, fn, on_call=None):
            self.names.append(name)
            return super().span(name, fn, on_call)

    corpus = pathlib.Path(__file__).parent / "corpus"
    tracer = NamingTracer()
    worker.install_tracer(tracer)
    try:
        for name in ("bellpair.qh", "teleport.qh", "hqw.qh"):
            cli.main(["check", "--format", "json", str(corpus / name)])
        for name, decl in (("bellpair.qh", "bell"), ("rnd.qh", "rnd")):
            cli.main(["run", "--shots", "10", str(corpus / name), decl])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    called = {name for _, name in tracer.totals()}
    # nothing in src/ calls these two; only the tracer holds them up
    assert set(tracer.names) - called <= {"heap.unitary_matrix",
                                          "heap.cell_assertion"}
