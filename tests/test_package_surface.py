"""No library code that only tests call.

Every public module-level name of the package must be used somewhere a run
or a reader reaches it: elsewhere in the package, in a benchmark file that
is not a test, or in the README.  Reference implementations that only
tests need live in tests/reference.py.  Likewise every defaulted parameter
and **kwargs of a package function must be passed by some call in the
package or in a benchmark file that is not a test.
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
                             "records (ROADMAP item 7)",
    "synthesize_counts": "the README lists photon-count synthesis as package API",
}

#: (function, parameter) pairs kept without a caller that passes them,
#: each with the reason
ALLOWED_PARAMETERS = {
    **{(function, name): "the function stays only because the benchmark names it, "
                         "and goes with its grid parameters (ROADMAP item 7)"
       for function in ("propagate_pulse", "simulate_transmission")
       for name in ("t_max", "steps_per_tau", "z_steps")},
    ("synthesize_counts", "bin_width"): "the README lists photon-count synthesis, "
                                        "bins included, as package API",
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


def functions(tree):
    """(name, arguments, offset) for every function and method a module
    defines at its top level or in a top-level class; offset is 1 for a
    method, whose self or cls a call does not spell (the package has no
    static methods)."""
    for owner in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
        for node in owner.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node.args, int(owner is not tree)


def optional_parameters(args):
    """The defaulted parameters of a signature, and **name for its **kwargs."""
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return set(names) | ({"**" + args.kwarg.arg} if args.kwarg else set())


def bound_parameters(args, offset, call):
    """The parameters a call binds; a * or ** spread in the call binds all."""
    positional = [a.arg for a in args.posonlyargs + args.args][offset:]
    named = set(positional) | {a.arg for a in args.kwonlyargs}
    extra = {"**" + args.kwarg.arg} if args.kwarg else set()
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return named | extra
    bound = set(positional[:len(call.args)])
    for keyword in call.keywords:
        bound |= {keyword.arg} if keyword.arg in named else extra
    return bound


def unpassed_parameters():
    package = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    callers = package + [ast.parse(path.read_text())
                         for path in sorted((ROOT / "perfbench").glob("*.py"))
                         if not path.name.startswith("test_")]
    signatures = {}
    for tree in package:
        for name, args, offset in functions(tree):
            signatures.setdefault(name, []).append((args, offset))
    optional = {(name, parameter) for name, found in signatures.items()
                for args, _ in found for parameter in optional_parameters(args)}
    passed = set()
    for tree in callers:
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            for args, offset in signatures.get(name, ()):
                passed |= {(name, p) for p in bound_parameters(args, offset, call)}
    return optional - passed


def test_every_optional_parameter_is_passed_outside_the_tests():
    unpassed = unpassed_parameters()
    assert unpassed - set(ALLOWED_PARAMETERS) == set(), \
        "only tests pass these; drop them or pass them from a caller"
    # an entry that has gained a caller, or whose parameter is gone, leaves the list
    assert set(ALLOWED_PARAMETERS) <= unpassed
