"""Mutation sweep: do the tests fail when a function is changed by one operator?

Usage, from the repository root:

    python tests/mutation_sweep.py persist._parse_fast persist.load_csv

Each argument names a function of ``src/resfault`` as ``module.function``
(or ``module.Class.method``). Every mutant changes one node of that
function:

- a comparison flipped (``<`` to ``>=``) or moved across its bound
  (``<`` to ``<=``);
- an integer constant plus or minus one;
- ``and`` swapped with ``or``;
- a ``not`` dropped;
- a statement replaced by ``pass``.

The mutated module is written, through ``ast.unparse``, into a copy of
the repository, and the test files that import the module run there with
``pytest -x``, the module's own ``test_<module>.py`` first. The tests must
first pass on the unmutated module as ``ast.unparse`` writes it. A mutant the tests pass survives; the
survivors are listed at the end, and the exit status is 1 if there are
any. The file is not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "resfault"
# Seconds a mutant's tests may run; one that hangs counts as killed.
TIMEOUT_S = 900

_FLIPPED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_BOUND_MOVED = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def find_function(tree: ast.Module, dotted: str):
    """The FunctionDef named by ``dotted`` (``function`` or ``Class.method``)."""
    scope = tree
    for name in dotted.split("."):
        scope = next(
            (
                node
                for node in scope.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            ),
            None,
        )
        if scope is None:
            raise SystemExit(f"no {dotted} in the module")
    return scope


def replacements(node: ast.AST):
    """(description, replacement) of each mutant of ``node`` alone."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for table in (_FLIPPED, _BOUND_MOVED):
                if type(op) in table:
                    new = copy.deepcopy(node)
                    new.ops[i] = table[type(op)]()
                    yield f"{type(op).__name__} -> {table[type(op)].__name__}", new
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for step in (1, -1):
            yield f"{node.value} -> {node.value + step}", ast.Constant(node.value + step)
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield f"{type(node.op).__name__} -> {type(new.op).__name__}", new
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not dropped", node.operand
    is_docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    if isinstance(node, ast.stmt) and not isinstance(node, ast.Pass) and not is_docstring:
        yield f"{type(node).__name__} dropped", ast.Pass()


class Mutator(ast.NodeTransformer):
    """Lists the mutants of the nodes it visits, in visiting order, and puts
    the replacement of mutant number ``target`` in its node's place."""

    def __init__(self, target: int | None = None):
        self.target = target
        self.labels: list[tuple[int, str]] = []

    def visit(self, node):
        for description, new in replacements(node):
            self.labels.append((node.lineno, description))
            if len(self.labels) - 1 == self.target:
                return ast.copy_location(new, node)
        return self.generic_visit(node)


def mutants(tree: ast.Module, dotted: str):
    """(line, description, mutated module) of each mutant of function ``dotted``."""
    listing = Mutator()
    listing.generic_visit(copy.deepcopy(find_function(tree, dotted)))
    for target, (line, description) in enumerate(listing.labels):
        mutant = copy.deepcopy(tree)
        Mutator(target).generic_visit(find_function(mutant, dotted))
        yield line, description, ast.fix_missing_locations(mutant)


def importing_tests(module: str) -> list[str]:
    """The tests/test_*.py files that import ``module``, its own file first."""
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            imported = (
                (isinstance(node, ast.ImportFrom) and node.module == PACKAGE
                 and any(a.name == module for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == f"{PACKAGE}.{module}")
                or (isinstance(node, ast.Import)
                    and any(a.name == f"{PACKAGE}.{module}" for a in node.names))
            )
            if imported:
                found.append(f"tests/{path.name}")
                break
    own = f"tests/test_{module}.py"
    return sorted(found, key=lambda name: name != own)


def run_tests(work: Path, files: list[str]) -> bool:
    """True when ``files`` pass in ``work``."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
            cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def sweep(target: str, work: Path) -> list[str]:
    """Run every mutant of ``target``; return the survivors' descriptions."""
    module, _, dotted = target.partition(".")
    path = work / "src" / PACKAGE / f"{module}.py"
    original = path.read_text()
    tree = ast.parse(original)
    files = importing_tests(module)
    path.write_text(ast.unparse(tree))
    if not run_tests(work, files):
        raise SystemExit(f"{target}: the tests fail on the unmutated module")
    survivors = []
    try:
        for line, description, mutant in mutants(tree, dotted):
            path.write_text(ast.unparse(mutant))
            killed = not run_tests(work, files)
            label = f"{module}.py:{line} {dotted}: {description}"
            print(f"{'killed  ' if killed else 'SURVIVED'} {label}", flush=True)
            if not killed:
                survivors.append(label)
    finally:
        path.write_text(original)
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", metavar="module.function")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        )
        survivors = [label for target in args.targets for label in sweep(target, work)]
    print(f"{len(survivors)} survived")
    for label in survivors:
        print(f"  {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
