"""The CSV dialect is chosen in one module: persist.

Every table the program writes goes through ``persist.write_table`` (or
``persist.save_csv`` for the fleet), so a second ``csv.writer`` elsewhere
could drift from it in quoting or line endings. Only persist may import csv.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imports_csv(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            return True
    return False


def test_only_persist_imports_csv():
    files = sorted(ROOT.glob("src/resfault/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    assert ROOT / "src/resfault/persist.py" in files
    importers = [str(p.relative_to(ROOT)) for p in files if imports_csv(p)]
    assert importers == ["src/resfault/persist.py"]
