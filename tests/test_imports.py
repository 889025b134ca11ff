"""Modules of the package use each other only through public names."""

import ast
import pathlib

import semigram


def test_no_module_imports_another_modules_private_names():
    offences = []
    for path in sorted(pathlib.Path(semigram.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("semigram")):
                continue
            offences += [
                "%s:%d imports %s" % (path.name, alias.lineno, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offences == []
