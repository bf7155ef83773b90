"""Source hygiene, checked with the standard library's ``ast`` alone.

- Every name a module imports is used, in ``src/contraprox`` and in ``tests``.
- Every module-level function and class in ``src/contraprox`` is reached
  from production code: another top-level statement of ``src/contraprox``
  names it, or ``perfbench`` does, unless :data:`UNREACHED` lists it with a
  reason.  Tests do not count, so code only tests reach shows up here.

``__init__.py`` is exempt from both: its imports are the package's re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(path for path in (ROOT / "src" / "contraprox").glob("*.py")
             if path.name != "__init__.py")

# Top-level definitions that only tests reach, each with why it stays.
UNREACHED = {
    "complexity_convex": "the paper's convex complexity bound; to become a run check or go "
                         "(ROADMAP R)",
    "complexity_strongly_convex": "the paper's uniformly convex complexity bound; to become a "
                                  "run check or go (ROADMAP R)",
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [path for folder in (ROOT / "src" / "contraprox", ROOT / "tests")
             for path in sorted(folder.glob("*.py")) if path.name != "__init__.py"]
    assert [bad for path in paths for bad in _unused_imports(path)] == []


def _names(node):
    """Identifiers a node mentions: names, attributes, and strings that are
    (dotted) identifiers, as ``SPAN_TARGETS`` and ``getattr`` tables hold them."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", sub.value):
            found.update(sub.value.split("."))
    return found


def _unreached():
    statements = [(node, _names(node))
                  for path in SRC for node in ast.parse(path.read_text()).body]
    named_by_perfbench = set().union(*(_names(ast.parse(path.read_text()))
                                       for path in (ROOT / "perfbench").glob("*.py")))
    return sorted(node.name for node, _ in statements
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in named_by_perfbench
                  and not any(node.name in names for other, names in statements
                              if other is not node))


def test_every_top_level_definition_is_reached_from_production_code():
    assert _unreached() == sorted(UNREACHED)
