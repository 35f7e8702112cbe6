"""README.md's code names and exit codes and the docstrings' references still hold."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import vstain
from vstain import errors

ROOT = Path(__file__).resolve().parents[1]
MODULES = {m.name for m in pkgutil.iter_modules(vstain.__path__) if m.name != "__main__"}
# `vstain.X` or `module.X` in README.md, as one backticked dotted name
README_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
# a Sphinx cross-reference in a docstring
DOC_REF = re.compile(r":(?:func|class|meth|data):`~?([\w.]+)`")
MISSING = object()


def lookup(scope, name):
    """getattr along the dotted `name` from `scope`, or MISSING."""
    for part in name.split("."):
        scope = getattr(scope, part, MISSING)
    return scope


def resolves(name, scopes):
    return any(lookup(scope, name) is not MISSING for scope in scopes)


def package_scope():
    """The package as docstrings name it: `vstain.X` or `module.X`."""
    return types.SimpleNamespace(
        vstain=vstain, **{m: importlib.import_module(f"vstain.{m}") for m in MODULES})


def docstrings(node, classes=()):
    """(docstring, names of its enclosing classes) for each docstring in
    the syntax tree `node`."""
    if isinstance(node, ast.ClassDef):
        classes += (node.name,)
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        doc = ast.get_docstring(node)
        if doc:
            yield doc, classes
    for child in ast.iter_child_nodes(node):
        yield from docstrings(child, classes)


def test_readme_code_names_exist():
    scope = package_scope()
    names = [name for name in README_NAME.findall((ROOT / "README.md").read_text())
             if name.split(".")[0] in MODULES | {"vstain"}]
    assert len(names) >= 15  # the pattern still finds them
    assert [name for name in names if not resolves(name, [scope])] == []


def test_docstring_references_exist():
    scope = package_scope()
    checked, missing = 0, []
    for path in sorted(Path(vstain.__file__).parent.glob("*.py")):
        module = importlib.import_module("vstain" if path.stem == "__init__"
                                         else f"vstain.{path.stem}")
        for doc, classes in docstrings(ast.parse(path.read_text())):
            scopes = [module, scope]
            if classes:
                scopes.append(lookup(module, ".".join(classes)))
            for name in DOC_REF.findall(doc):
                checked += 1
                if not resolves(name, scopes):
                    missing.append(f"{path.name}: {name}")
    assert checked >= 30  # the pattern still finds them
    assert missing == []


def test_readme_exit_codes_are_the_error_classes():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"Exit codes: 0 success, (\d) usage/config error, (\d) data error, "
                       r"(\d) numeric failure", text)
    assert listed is not None
    config, data, numeric = map(int, listed.groups())
    assert errors.ConfigError.exit_code == config
    assert (errors.VstainError.exit_code == errors.DataError.exit_code
            == errors.ShapeError.exit_code == data)
    assert errors.NumericError.exit_code == numeric
