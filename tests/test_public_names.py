"""Every public class, function and method of ``src/dualvae`` has a caller
in the program: a reference in ``src/`` outside its own definition, or in
``benchmarks/`` (whose ``layers.py`` names its wrap targets as strings). A
name that only tests call is an oracle and belongs in ``tests/helpers.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dualvae"

# "module.name" -> why it stays without a caller
ALLOWED = {
    "aspects.aspect_entropy_report": "the per-aspect entropy summary that run telemetry "
                                     "(ROADMAP item 7) is to report; only tests call it yet",
}


def public_defs(tree):
    """(name, first line, last line) of the module's public classes and
    functions and the public methods of its classes."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for member in [node, *members]:
            if (isinstance(member, (ast.ClassDef, ast.FunctionDef))
                    and not member.name.startswith("_")):
                yield member.name, member.lineno, member.end_lineno


def references(path, tree):
    """(path, line, name) of every identifier, attribute and imported name
    in the file, and of every string constant in benchmarks/layers.py."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield path, node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield path, node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield path, node.lineno, node.name.rpartition(".")[2]
        elif (path.name == "layers.py" and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield path, node.lineno, node.value


def test_every_public_function_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))}
    refs = {}
    for path, tree in trees.items():
        for where, line, name in references(path, tree):
            refs.setdefault(name, []).append((where, line))
    uncalled = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, first, last in public_defs(tree):
            if not any(where != path or not first <= line <= last
                       for where, line in refs.get(name, ())):
                uncalled.append(f"{path.stem}.{name}")
    assert sorted(uncalled) == sorted(ALLOWED)
