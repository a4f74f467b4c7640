"""Every function, class and method of the package is referred to outside
its definition: by the package itself (as a name, an attribute or an
import, not in a comment or a docstring), by the scripts, or by the
acceptance criteria.  Code that only the unit tests call belongs in them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def test_every_package_definition_has_a_caller():
    package = parse(sorted((ROOT / "src" / "hdgwave").glob("*.py")))
    callers = parse([*sorted((ROOT / "scripts").glob("*.py")),
                     ROOT / "tests" / "test_acceptance.py"])
    # top-level functions and classes, and the classes' non-dunder methods
    defined = {node.name for tree in package for top in tree.body
               for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    referred = set()
    for node in (node for tree in package + callers for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referred.add(node.id)
        elif isinstance(node, ast.Attribute):
            referred.add(node.attr)
        elif isinstance(node, ast.alias):
            referred.add(node.name)
    assert sorted(defined - referred) == []
