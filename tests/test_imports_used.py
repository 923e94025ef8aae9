"""Every name a program module imports is used in that module, and every
module it imports is installed with the package.

An import left behind by a removed caller still loads its module and
tells a reader of a dependency that no longer exists. An import of a
module that pyproject.toml does not declare works only where that module
happens to be installed.
"""

import ast
import re
import sys
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


# The distributions of the third-party modules whose import name differs.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def declared_dependencies() -> set[str]:
    """The distribution names of pyproject.toml's runtime dependencies, lower case."""
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)[1]
    return {name.lower() for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed)}


def undeclared_imports(path: Path, declared: set[str]) -> list[str]:
    """The top-level modules ``path`` imports, at any depth, that are neither
    stdlib, resfault, nor installed by a distribution in ``declared``."""
    tree = ast.parse(path.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return sorted(
        m for m in modules
        if m not in sys.stdlib_module_names
        and m != "resfault"
        and DISTRIBUTIONS.get(m, m).lower() not in declared
    )


@pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_declared(path):
    assert undeclared_imports(path, declared_dependencies()) == []


def test_an_undeclared_import_is_seen(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path\nimport numpy as np\nfrom yaml import safe_load\nfrom . import nn\n"
        "from resfault.cli import main\nimport requests\n"
        "def f():\n    import orjson\n    from scipy import linalg\n"
    )
    assert undeclared_imports(module, {"numpy", "pyyaml"}) == ["orjson", "requests", "scipy"]
    assert undeclared_imports(module, {"numpy", "pyyaml", "orjson"}) == ["requests", "scipy"]
