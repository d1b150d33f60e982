"""`src` holds what a command or a bench workload runs, and nothing else.

Every top-level function and class of a `src/eiscong` module, every
method or property of such a class whose name is not a dunder, and every
name a module-level assignment binds must be read by `src` or `bench/`
outside its own definition, as a name or an attribute; a module-level name
counts as read by name only in its own module or in one that imports it.
Importing a name is not a use, and `eiscong/__init__.py` re-exports nothing.
Every annotated field of such a class that is not a `ClassVar` must be read
as an attribute by `src` or `bench/`; a class that passes `self` to `asdict`
reads all of its fields.  A definition only tests reach belongs in a test
oracle module under `tests/` (for example `character_oracles`, `hecke_oracles`,
`ideal_oracles`, `padic_oracles`).  No `src` function body imports, so an
import cycle cannot hide in a function.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "eiscong").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _uses(node, skip=None):
    """The names and attribute names read under node, outside the subtree skip."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        stack.extend(ast.iter_child_nodes(sub))


def _unreferenced(src, bench):
    trees = {path: ast.parse(path.read_text(), str(path)) for path in src + bench}

    def unused(node):
        return not any(node.name in _uses(tree, skip=node) for tree in trees.values())

    out = []
    for path in src:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and unused(node):
                out.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef) and unused(m)
                        and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def _unread_globals(src, bench):
    """Each name bound by a module-level assignment of src that is read neither as a
    name by its own module (outside the assignment) or by a module importing that
    name, nor as an attribute anywhere: a constant left behind by a move is caught
    even where another module defines and reads the same name."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in src + bench}
    attrs = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}

    def imports(tree, name):
        return any(isinstance(sub, ast.ImportFrom) and name in [a.name for a in sub.names]
                   for sub in ast.walk(tree))

    out = []
    for path in src:
        for node in trees[path].body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
            for name in names:
                readers = [tree for other, tree in trees.items()
                           if other == path or imports(tree, name)]
                if name not in attrs and not any(name in _uses(tree, skip=node)
                                                 for tree in readers):
                    out.append(f"{path.stem}.{name}")
    return out


def _unread_fields(src, bench):
    trees = {path: ast.parse(path.read_text(), str(path)) for path in src + bench}
    reads = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}

    def as_dict(cls):
        return any(isinstance(sub, ast.Call) and ast.unparse(sub) == "asdict(self)"
                   for sub in ast.walk(cls))

    return [f"{path.stem}.{node.name}.{f.target.id}" for path in src
            for node in trees[path].body if isinstance(node, ast.ClassDef) and not as_dict(node)
            for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
            and not ast.unparse(f.annotation).startswith("ClassVar") and f.target.id not in reads]


def _function_local_imports(src):
    return [f"{path.stem}:{sub.lineno}" for path in src
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef)
            for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]


def test_every_src_definition_is_used_by_src_or_bench():
    assert SRC and BENCH
    assert _unreferenced(SRC, BENCH) == []


def test_every_src_module_level_name_is_read_by_src_or_bench():
    assert _unread_globals(SRC, BENCH) == []


def test_every_src_field_is_read_by_src_or_bench():
    assert _unread_fields(SRC, BENCH) == []


def test_no_src_function_imports_in_its_body():
    assert _function_local_imports(SRC) == []


def test_the_guard_sees_a_test_only_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("LIMIT = 3\nSTALE, KEPT = 4, 5\n\n\n"
                   "def used():\n    return used() + KEPT\n\n\n"
                   "def caller():\n    return used()\n\n\n"
                   "class Box:\n    def __init__(self):\n        pass\n\n"
                   "    def get(self):\n        from os import sep\n        return self.get() + sep\n\n\n"
                   "class Rec:\n    kept: int\n    dropped: int\n    tag: ClassVar[str] = 't'\n\n\n"
                   "class Row:\n    cell: int\n\n    def out(self):\n        return asdict(self)\n")
    bench = tmp_path / "bench.py"
    bench.write_text("import mod\nfrom mod import Box, Rec, Row, caller\n\n"
                     "caller()\nBox().get()\nRec().kept + Rec().dropped\nRow().out()\n"
                     "mod.LIMIT + mod.STALE\n")
    assert _unreferenced([mod], [bench]) == []
    assert _unread_globals([mod], [bench]) == []
    assert _unread_fields([mod], [bench]) == []
    bench.write_text("from mod import Box, Rec, Row\n\nBox()\nRec().kept = Rec().dropped = 1\n"
                     "Row().out()\n")
    assert _unreferenced([mod], [bench]) == ["mod.caller", "mod.Box.get"]
    assert _unread_globals([mod], [bench]) == ["mod.LIMIT", "mod.STALE"]
    assert _unread_fields([mod], [bench]) == ["mod.Rec.kept", "mod.Rec.dropped"]
    assert _function_local_imports([mod]) == ["mod:18"]
