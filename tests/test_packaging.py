"""Every third-party module that ``src/wallscale`` imports is declared in
``pyproject.toml``'s ``dependencies``."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_packages(path) -> set:
    """The top-level package of each absolute import in a module, at its
    top or inside a function."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.partition(".")[0])
    return packages


def test_every_third_party_import_is_declared():
    imported = set().union(*map(imported_packages,
                                (ROOT / "src" / "wallscale").glob("*.py")))
    third_party = imported - sys.stdlib_module_names - {"wallscale"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", requirement)[0].lower()
                for requirement in project["dependencies"]}
    assert {"numpy", "orjson"} <= third_party   # the walk finds imports
    assert third_party <= declared
