"""No public name in ``src/ngn`` exists only for the tests to call, no
optional parameter of one exists only for the tests to set, and no module
there imports a name that it never reads.

The package's code and ``perfbench/`` are read as syntax trees, never run.
A definition is reached when code that runs without the tests names it: a
``Name``, an attribute or an imported name, in ``perfbench/``, in the
module-level code of the package, in the ``ngn`` entry point, or in the body
of a definition that is itself reached. Methods are matched by name alone,
so a method is reached when any reached code reads an attribute of its
name. A class that is reached reaches its own private and special methods,
which Python calls implicitly.

An optional parameter is set when a call outside the tests passes it a
value other than its default, by keyword or by position, directly or
through ``functools.partial``. Calls are matched to definitions by name, and
a call on a class of the package (``GraphIso.build``) only to that class's
methods. A dataclass is called like a function whose parameters are its
fields, so a field with a default is an optional parameter too.

A dataclass field is read when code outside the tests reads an attribute of
its name, or holds its name as a string (``getattr(plan, name)``).
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
    "representations.RepSpec.trivial": "imported by the acceptance tests",
    "autodiff.scatter_add_rows": "listed by the benchmark's tracer; it leaves with a change to the benchmark",
}


# Optional parameters that only tests set, each kept for a reason of its own.
ALLOWED_DEFAULTS = {
    "graph_core.ConcreteGraph.build(allow_self_loops)": "the graph model admits self-loops; the readers reject them",
    "batched.gcn2_layer_numpy(aggregation)": "mean aggregation, which the classifier may take up (ROADMAP Direction C)",
    "message_net.ngn_gcn2_forward(aggregation)": "the per-edge oracle of mean aggregation (ROADMAP Direction C)",
    "cli.main(argv)": "the console script calls main() with no arguments; argv lets a caller run a command in-process",
    "models.Gcn2Config(aggregation)": "mean aggregation, which the classifier may take up (ROADMAP Direction C)",
    **{
        f"models.EmbeddingConfig({name})": "the benchmark builds the default EmbeddingConfig and reads its fields"
        for name in ("ngn_layers", "layers", "hidden", "out", "dtype")
    },
}

# Dataclass fields that no code outside the tests reads, each kept for a reason of its own.
ALLOWED_UNREAD = {
    "batched.EdgePlan.node_ptr": "half of the documented node-row layout; the pinned plan digest hashes it",
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
        self.node = node
        self.is_class = isinstance(node, ast.ClassDef)
        self.is_dataclass = self.is_class and "dataclass" in _names(node.decorator_list)
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


def _callee(func) -> tuple[str | None, str | None]:
    """(name, receiver) of a called expression: ``f`` is ("f", None) and
    ``a.f`` is ("f", "a") when ``a`` is a plain name."""
    if isinstance(func, ast.Name):
        return func.id, None
    if isinstance(func, ast.Attribute):
        return func.attr, func.value.id if isinstance(func.value, ast.Name) else None
    return None, None


def _calls():
    """(name, receiver, positional args, keywords) of every call outside
    the tests; ``partial(f, ...)`` is a call of ``f``."""
    for path in [*sorted((ROOT / "src" / "ngn").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]:
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Call):
                (name, receiver), args = _callee(n.func), n.args
                if name == "partial" and args:
                    (name, receiver), args = _callee(args[0]), args[1:]
                yield name, receiver, args, n.keywords


def _fields(d: _Def, dataclasses: dict[str, _Def]) -> list[tuple[str, ast.expr | None]]:
    """(name, default) of each field that a dataclass's constructor takes,
    in order: the fields of its bases in the package first. A field built by
    ``field(default_factory=...)`` has that call as its default, so any value
    given sets it; ``field(init=False)`` is not taken."""
    out = [f for base in _names(d.node.bases) if base in dataclasses for f in _fields(dataclasses[base], dataclasses)]
    for stmt in d.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            default = stmt.value
            if isinstance(default, ast.Call) and _callee(default.func)[0] == "field":
                options = {kw.arg: kw.value for kw in default.keywords}
                if _is_default(options.get("init", ast.Constant(True)), ast.Constant(False)):
                    continue
                default = options.get("default", default if "default_factory" in options else None)
            out.append((stmt.target.id, default))
    return out


def _defaults(d: _Def, dataclasses: dict[str, _Def]) -> tuple[list[str], dict]:
    """The positional parameters of a function, method or dataclass, without
    ``self`` or ``cls``, and the default of each optional parameter by name."""
    if d.is_dataclass:
        fields = _fields(d, dataclasses)
        return [name for name, _ in fields], {name: v for name, v in fields if v is not None}
    a = d.node.args
    positional = [p.arg for p in [*a.posonlyargs, *a.args]]
    defaults = dict(zip(positional[len(positional) - len(a.defaults) :], a.defaults))
    defaults |= {p.arg: v for p, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None}
    bound = d.owner is not None and "staticmethod" not in _names(d.node.decorator_list)
    return positional[bound:], defaults


def _is_default(value, default) -> bool:
    if ast.dump(value) == ast.dump(default):
        return True
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return False


def _defaults_only_tests_set() -> list[str]:
    """``qualname(parameter)`` of each optional parameter that no call
    outside the tests sets. A test-only name (``ALLOWED``) is left out:
    nothing outside the tests calls it at all."""
    defs = _package()[0]
    classes = {d.name for d in defs if d.is_class}
    dataclasses = {d.name: d for d in defs if d.is_dataclass}
    calls = list(_calls())
    unset = []
    for d in defs:
        if (d.is_class and not d.is_dataclass) or not d.public or d.qualname in ALLOWED:
            continue
        positional, defaults = _defaults(d, dataclasses)
        given: set[str] = set()
        for called, receiver, args, keywords in calls:
            if called != d.name or (receiver in classes and receiver != getattr(d.owner, "name", None)):
                continue
            for i, arg in enumerate(args[: len(positional)]):
                if isinstance(arg, ast.Starred):
                    given.update(positional[i:])
                    break
                if positional[i] in defaults and not _is_default(arg, defaults[positional[i]]):
                    given.add(positional[i])
            for kw in keywords:
                if kw.arg is None:  # **kwargs may hold any of them
                    given.update(defaults)
                elif kw.arg in defaults and not _is_default(kw.value, defaults[kw.arg]):
                    given.add(kw.arg)
        unset += [f"{d.qualname}({p})" for p in defaults if p not in given]
    return sorted(unset)


def test_every_optional_parameter_is_set_outside_the_tests():
    # a knob that nothing but a test turns is a constant
    assert [p for p in _defaults_only_tests_set() if p not in ALLOWED_DEFAULTS] == []


def test_every_allowed_default_is_still_set_only_by_tests():
    assert set(ALLOWED_DEFAULTS) <= set(_defaults_only_tests_set())


def _unread_fields() -> list[str]:
    """``module.Class.field`` of each dataclass field that no code outside
    the tests reads."""
    read: set[str] = set()
    for path in [*sorted((ROOT / "src" / "ngn").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]:
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return sorted(
        f"{d.qualname}.{name}"
        for d in _package()[0]
        if d.is_dataclass
        for name in [s.target.id for s in d.node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        if name not in read
    )


def test_every_field_is_read_outside_the_tests():
    # a field that nothing reads is dead weight on every instance
    assert [f for f in _unread_fields() if f not in ALLOWED_UNREAD] == []


def test_every_allowed_unread_field_is_still_unread():
    assert set(ALLOWED_UNREAD) <= set(_unread_fields())


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
