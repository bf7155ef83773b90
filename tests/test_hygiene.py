"""Every name a module imports is used, in ``src/contraprox`` and in ``tests``.

``__init__.py`` is exempt: its imports are the package's re-exports.  Only the
standard library's ``ast`` is needed, so the check runs wherever the tests do.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
