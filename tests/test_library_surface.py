"""The library holds no public code that only tests call.

Every public module-level function and class in ``src/bargainlab/``, and
every public method of those classes, must be referenced somewhere in
``src/``, ``scripts/`` or ``perfbench/``: as a name, an attribute, an
imported alias or a string constant (the scenario registry names body
classes as strings).  ``tests/`` does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bargainlab"
CALLERS = ("src", "scripts", "perfbench")


def _trees(*dirs):
    for directory in dirs:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def referenced_names() -> set[str]:
    names = set()
    for _, tree in _trees(*CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def public_definitions() -> list[str]:
    """``module.name`` and ``module.Class.method`` for each public definition."""
    found = []
    for path, tree in _trees("src/bargainlab"):
        module = path.stem
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found.extend(f"{module}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return found


def test_every_public_definition_has_a_caller_outside_tests():
    names = referenced_names()
    unused = [qualified for qualified in public_definitions()
              if qualified.rsplit(".", 1)[1] not in names]
    assert not unused, f"public code that only tests reference: {unused}"


def test_the_scan_sees_the_whole_package():
    definitions = public_definitions()
    assert "scenario.parse_scenario" in definitions
    assert "negotiation.NegotiationScenario.to_config" in definitions
    assert {"NegotiationScenario", "parse_scenario", "to_config"} <= referenced_names()
