"""`src` holds what a command or a bench workload runs, and nothing else.

Every top-level function and class of a `src/eiscong` module, and every
method or property of such a class whose name is not a dunder, must be used
by `src` or `bench/` outside its own definition, as a name or an attribute.
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
    """The names and attribute names used under node, outside the subtree skip."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
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


def test_every_src_field_is_read_by_src_or_bench():
    assert _unread_fields(SRC, BENCH) == []


def test_no_src_function_imports_in_its_body():
    assert _function_local_imports(SRC) == []


def test_the_guard_sees_a_test_only_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def used():\n    return used()\n\n\ndef caller():\n    return used()\n\n\n"
                   "class Box:\n    def __init__(self):\n        pass\n\n"
                   "    def get(self):\n        from os import sep\n        return self.get() + sep\n\n\n"
                   "class Rec:\n    kept: int\n    dropped: int\n    tag: ClassVar[str] = 't'\n\n\n"
                   "class Row:\n    cell: int\n\n    def out(self):\n        return asdict(self)\n")
    bench = tmp_path / "bench.py"
    bench.write_text("from mod import Box, Rec, Row, caller\n\n"
                     "caller()\nBox().get()\nRec().kept + Rec().dropped\nRow().out()\n")
    assert _unreferenced([mod], [bench]) == []
    assert _unread_fields([mod], [bench]) == []
    bench.write_text("from mod import Box, Rec, Row\n\nBox()\nRec().kept = Rec().dropped = 1\n"
                     "Row().out()\n")
    assert _unreferenced([mod], [bench]) == ["mod.caller", "mod.Box.get"]
    assert _unread_fields([mod], [bench]) == ["mod.Rec.kept", "mod.Rec.dropped"]
    assert _function_local_imports([mod]) == ["mod:14"]
