"""Every name a program module imports is used in that module.

An import left behind by a removed caller still loads its module and
tells a reader of a dependency that no longer exists.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_FILES = sorted(ROOT.glob("src/resfault/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names bound by the imports of ``path`` that no expression of it reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_program_files_are_found():
    names = {path.name for path in PROGRAM_FILES}
    assert {"cli.py", "experiment.py", "nn.py", "run_experiment.py"} <= names


@pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_seen(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport numpy as np\nfrom . import nn, cli\nnp.zeros(1)\ncli.main()\n")
    assert unused_imports(module) == ["nn", "os"]
