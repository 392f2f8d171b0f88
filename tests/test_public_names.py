"""Every public module-level name in src/fltp is referenced by code in
src/fltp, or README lists it with its reason, so names kept only for tests
or the benchmark do not grow back unnoticed."""
import ast
import re
from pathlib import Path

import fltp

SRC = Path(fltp.__file__).parent
README = SRC.parent.parent / "README.md"
SECTION = "### Public names that no fltp code references"


def _definitions(tree: ast.Module):
    """(name, top-level statement) for each def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _references(node: ast.AST) -> set[str]:
    """Names read, and attributes taken, anywhere in node; docstrings and
    imports are not references."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreferenced_public_names(src: Path) -> dict[str, str]:
    """Each public module-level name of the modules in src that no statement
    of those modules other than its own definition references, with its
    module."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    references = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    unreferenced = {}
    for module, tree in trees.items():
        for name, own in _definitions(tree):
            if not name.startswith("_") and not any(stmt is not own and name in refs for stmt, refs in references):
                unreferenced[name] = module
    return unreferenced


def readme_allowlist() -> set[str]:
    """The names README's section lists, one bullet each."""
    text = README.read_text(encoding="utf-8")
    assert SECTION in text, f"README has no {SECTION!r} section"
    body = text.split(SECTION, 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^- `(\w+)`", body, flags=re.MULTILINE))


def test_unreferenced_public_names_are_the_readme_list():
    found = unreferenced_public_names(SRC)
    listed = readme_allowlist()
    unlisted = [f"fltp.{found[name]}.{name}" for name in sorted(found.keys() - listed)]
    assert not unlisted, (
        f"no code in src/fltp references {unlisted}: give each a caller, delete it, "
        f"or list it with its reason under README's {SECTION!r}"
    )
    stale = sorted(listed - found.keys())
    assert not stale, f"README's {SECTION!r} lists {stale}, which src/fltp now references or no longer defines"


def test_scan_sees_a_new_unreferenced_name(tmp_path):
    """The scan reports a public def nothing references, but not a private
    one, one referenced by another module, or one named only in a
    docstring or its own body."""
    (tmp_path / "a.py").write_text(
        '"""Mentions orphan and helper."""\n'
        "def orphan():\n    return orphan\n\n"
        "def _private():\n    pass\n\n"
        "def helper():\n    pass\n\n"
        "LIMIT = 3\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import orphan, helper, LIMIT\n\ndef run():\n    return helper(), LIMIT\n", encoding="utf-8")
    assert unreferenced_public_names(tmp_path) == {"orphan": "a", "run": "b"}
