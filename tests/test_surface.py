"""No public name in ``src/ngn`` exists only for the tests to call, and no
module there imports a name that it never reads.

The package's code and ``perfbench/`` are read as syntax trees, never run.
A definition is reached when code that runs without the tests names it: a
``Name``, an attribute or an imported name, in ``perfbench/``, in the
module-level code of the package, in the ``ngn`` entry point, or in the body
of a definition that is itself reached. Methods are matched by name alone,
so a method is reached when any reached code reads an attribute of its
name. A class that is reached reaches its own private and special methods,
which Python calls implicitly.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINT = "main"  # [project.scripts] ngn = "ngn.cli:main"

# Public names that only tests reach, each kept for a reason of its own.
ALLOWED = {
    "autodiff.load_checkpoint": "reads the checkpoint that `ngn train` writes",
    "datasets.write_graph6": "writes the graph6 files that `ngn expressiveness --data` reads",
    "ngn_layer.NgnLayer.save": "the documented persistence API, the writing half of `NgnLayer.load`",
    "kernel_solver.classify_edges": "imported by the acceptance tests",
    "kernel_solver.eq4_residual": "imported by the acceptance tests",
    "representations.RepSpec.standard": "imported by the acceptance tests",
    "representations.RepSpec.trivial": "imported by the acceptance tests",
    "autodiff.scatter_add_rows": "listed by the benchmark's tracer; it leaves with a change to the benchmark",
}


def _names(nodes) -> set[str]:
    """Every name the given syntax reaches: names, attributes and imports."""
    out: set[str] = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                out.update(alias.name.rsplit(".", 1)[-1] for alias in n.names)
    return out


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


class _Def:
    def __init__(self, qualname: str, node, owner: "_Def | None"):
        self.qualname = qualname
        self.name = node.name
        self.owner = owner
        self.public = not node.name.startswith("_")
        # a class's own statements (fields, defaults) run with it; its methods do not
        body = [s for s in node.body if not _is_def(s)] if isinstance(node, ast.ClassDef) else node.body
        self.uses = _names(body + node.decorator_list + getattr(node, "bases", []))
        if not isinstance(node, ast.ClassDef):
            self.uses |= _names([node.args])


def _package():
    """(definitions, names reached by module-level code) of ``src/ngn``."""
    defs: list[_Def] = []
    roots: set[str] = set()
    for path in sorted((ROOT / "src" / "ngn").glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        roots |= _names([s for s in module.body if not _is_def(s)])
        for node in filter(_is_def, module.body):
            top = _Def(f"{path.stem}.{node.name}", node, None)
            defs.append(top)
            if isinstance(node, ast.ClassDef):
                defs += [_Def(f"{top.qualname}.{m.name}", m, top) for m in filter(_is_def, node.body)]
    return defs, roots


def _reached(defs: list[_Def], names: set[str], kept=()) -> set[str]:
    """Qualified names of the definitions that ``names`` reach, and that the
    definitions in ``kept`` reach, which count as reached themselves."""
    names = set(names)
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for d in defs:
            if d.qualname in reached:
                continue
            implicit = d.owner is not None and not d.public and d.owner.qualname in reached
            if d.name in names or implicit or d.qualname in kept:
                reached.add(d.qualname)
                names |= d.uses
                grew = True
    return reached


def _perfbench_names() -> set[str]:
    return _names(ast.parse(p.read_text(), filename=str(p)) for p in sorted((ROOT / "perfbench").glob("*.py")))


def _test_only(kept=()) -> list[str]:
    defs, roots = _package()
    reached = _reached(defs, roots | _perfbench_names() | {ENTRY_POINT}, kept)
    return sorted(d.qualname for d in defs if d.public and d.qualname not in reached)


def test_no_public_name_is_reached_only_from_tests():
    # what an allowed name reaches is kept with it (``eq4_residual`` reads
    # ``KernelBasis.basis_matrices``, ``NgnLayer.save`` calls ``to_dict``)
    assert _test_only(kept=ALLOWED) == [], "public names that only tests reach"


def test_every_allowed_name_is_still_test_only():
    # an entry that code now reaches, or that no longer exists, leaves the list
    assert set(ALLOWED) <= set(_test_only())


def _unread_imports(module: ast.Module) -> list[str]:
    """Names that a module's imports bind and its code never reads (a name
    listed in ``__all__`` counts as read)."""
    bound: dict[str, int] = {}
    for node in ast.walk(module):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(module) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in module.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_unread_imports_are_caught():
    module = ast.parse("import numpy as np\nfrom os import path, sep\nimport a.b\n__all__ = ['sep']\nprint(path)\n")
    assert _unread_imports(module) == ["np (line 1)", "a (line 3)"]


def test_every_imported_name_is_read():
    unread = {
        path.name: names
        for path in sorted((ROOT / "src" / "ngn").glob("*.py"))
        if (names := _unread_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert unread == {}, "imported names that their module never reads"
