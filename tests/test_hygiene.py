"""Source hygiene, checked with the standard library alone.

- Every name a module imports is used, in ``src/contraprox`` and in ``tests``.
- Every module-level function and class in ``src/contraprox`` is reached
  from production code: another top-level statement of ``src/contraprox``
  names it, or ``perfbench`` does, unless :data:`UNREACHED` lists it with a
  reason.  So is every method of such a class, dunders aside: a statement of
  ``src/contraprox`` outside its class, another member of its class, or
  ``perfbench`` names it, unless :data:`UNREACHED` lists ``Class.method``.
  Tests do not count, so code only tests reach shows up here.
- Every parameter with a default, of a function or method in
  ``src/contraprox``, is passed by a call in ``src/contraprox`` or
  ``perfbench/*.py``, unless :data:`UNPASSED` lists it with a reason.  A call
  passes it by keyword, by position or through ``*``/``**``; calls match by
  the function's name, and a constructor call by its class's.  Tests do not
  count, so a knob only tests turn shows up here.
- Conversely, no such parameter is passed by every one of those calls, unless
  :data:`OVERRIDDEN` lists it with a reason: a default that production
  always overrides is one only tests rely on.
- ``import contraprox`` loads neither ``scipy.optimize`` nor ``scipy.special``:
  no solver needs them, and every CLI call pays for what the package imports.

``__init__.py`` is exempt from every check: its imports are the package's re-exports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(path for path in (ROOT / "src" / "contraprox").glob("*.py")
             if path.name != "__init__.py")

# Top-level definitions and methods that only tests reach, each with why it stays.
UNREACHED = {}

# Parameters with a default that no production call passes, each with why it stays.
UNPASSED = {"main.argv": "tests pass it, and the console script passes none"}

# Parameters with a default that every production call passes, each with why it stays.
OVERRIDDEN = {"run_method.cap_outer": "tests/test_bench.py, which changes only with the "
                                      "benchmark, runs without it and pins the cap 5000"}


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
    """Top-level definitions, and ``Class.method`` of their methods, that no
    production statement names."""
    statements = [(node, _names(node))
                  for path in SRC for node in ast.parse(path.read_text()).body]
    named_by_perfbench = set().union(*(_names(ast.parse(path.read_text()))
                                       for path in (ROOT / "perfbench").glob("*.py")))

    def named(name, owner, scope):
        return name in named_by_perfbench or any(name in names for other, names in scope
                                                 if other is not owner)

    found = [node.name for node, _ in statements
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not named(node.name, node, statements)]
    for cls, _ in statements:
        if not isinstance(cls, ast.ClassDef):
            continue
        members = [(member, _names(member)) for member in cls.body]
        found += [f"{cls.name}.{fn.name}" for fn, _ in members
                  if isinstance(fn, ast.FunctionDef)
                  and not (fn.name.startswith("__") and fn.name.endswith("__"))
                  and not named(fn.name, fn, members) and not named(fn.name, cls, statements)]
    return sorted(found)


def test_every_definition_and_method_is_reached_from_production_code():
    assert _unreached() == sorted(UNREACHED)


def _defaulted(tree):
    """(function, parameter, positional index or None) of every parameter with a
    default; a method's index counts from after self, and ``__init__`` is
    named by its class."""
    owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(fn))
        name = cls if fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        if cls is not None and not static:
            positional = positional[1:]
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _passes(call, param, index):
    keywords = {kw.arg for kw in call.keywords}
    if param in keywords or None in keywords:
        return True
    return index is not None and (index < len(call.args) or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def _production_use():
    """(unpassed, overridden): the ``function.parameter`` of every defaulted
    parameter that no production call passes, and of every one that each
    production call of its function passes."""
    calls = [node for path in SRC + sorted((ROOT / "perfbench").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    unpassed, overridden = [], []
    for path in SRC:
        for name, param, index in _defaulted(ast.parse(path.read_text())):
            passes = [_passes(call, param, index) for call in calls if _callee(call) == name]
            if not any(passes):
                unpassed.append(f"{name}.{param}")
            elif all(passes):
                overridden.append(f"{name}.{param}")
    return sorted(unpassed), sorted(overridden)


def test_every_defaulted_parameter_is_passed_by_production_code():
    assert _production_use()[0] == sorted(UNPASSED)


def test_no_defaulted_parameter_is_passed_by_every_production_call():
    assert _production_use()[1] == sorted(OVERRIDDEN)


def test_every_allowlist_entry_gives_a_reason():
    reasons = [*UNREACHED.values(), *UNPASSED.values(), *OVERRIDDEN.values()]
    assert all(isinstance(reason, str) and reason.strip() for reason in reasons)


def test_import_loads_no_scipy_optimize_or_special():
    # run in a fresh interpreter: this one has imported whatever the other tests use
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run(
        [sys.executable, "-c", "import contraprox, sys; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert [name for name in loaded
            if name.split(".")[:2] in (["scipy", "optimize"], ["scipy", "special"])] == []
