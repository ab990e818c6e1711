"""No library code that only tests call.

Every public module-level name of the package must be used somewhere a run
or a reader reaches it: elsewhere in the package, in a benchmark file that
is not a test, or in the README.  Reference implementations that only
tests need live in tests/reference.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subabsorb"

#: names kept without such a use, each with the reason
ALLOWED = {
    "simulate_transmission": "imported by perfbench/test_checks.py, which tier-1 "
                             "collects; moves under tests/ with the benchmark's stage "
                             "records (ROADMAP item 4)",
    "synthesize_counts": "the README lists photon-count synthesis as package API",
}


def public_definitions(tree):
    """The public names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def used_names(tree):
    """Every name a module reads, looks up as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_names():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = set().union(*(public_definitions(tree) for tree in trees.values()))
    used = set().union(*(used_names(tree) for tree in trees.values()))
    # perfbench's tracing list names functions in strings, so its files are read as text
    text = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
            if not path.name.startswith("test_")]
    text.append((ROOT / "README.md").read_text())
    return {name for name in defined - used
            if not any(re.search(rf"\b{re.escape(name)}\b", t) for t in text)}


def test_every_public_name_has_a_use_outside_the_tests():
    unreferenced = unreferenced_names()
    assert unreferenced - set(ALLOWED) == set(), \
        "only tests use these; move them to tests/reference.py or use them"
    # an entry that has gained a use, or whose name is gone, leaves the list
    assert set(ALLOWED) <= unreferenced
