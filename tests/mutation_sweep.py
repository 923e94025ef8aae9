"""Mutation sweep: do the tests fail when a function is changed by one operator?

Usage, from the repository root:

    python tests/mutation_sweep.py persist._parse_csv persist.load_csv

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
the repository. There ``pytest -x`` first runs the tests whose source
names the function, or a function of its module that calls it directly
or through others, found by an AST scan of the test files that import
the module; only a mutant those tests pass goes on to the whole files,
the module's own ``test_<module>.py`` first, then the test files that
reach the module only through ``resfault.cli`` or a script. The tests
must first pass on the unmutated module as ``ast.unparse`` writes it. A
mutant the tests pass survives; the survivors are listed at the end, and
the exit status is 1 if there are any. A mutant in KNOWN_EQUIVALENT is
not run: it is listed as skipped and does not set the exit status. The
file is not collected by pytest.
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

# Mutants no test can kill, because the program behaves the same, as
# (function, mutation, the mutated line as ``ast.unparse`` writes it
# unmutated, stripped).
KNOWN_EQUIVALENT = {
    # the block size a fleet file is hashed in, or a part table copied in,
    # not the bytes
    ("persist._file_blocks", "1 -> 2", "while (block := fh.read(1 << 16)):"),
    ("persist._file_blocks", "16 -> 17", "while (block := fh.read(1 << 16)):"),
    ("persist._file_blocks", "16 -> 15", "while (block := fh.read(1 << 16)):"),
    # the sign fix's pivot is the largest-magnitude entry of a unit-norm
    # eigenvector, so it is never 0
    ("segmentation.pca_2d", "Lt -> LtE", "if vec[pivot] < 0:"),
    # a bound past the last job's: zip stops at the last part
    (
        "synth.save_fleet",
        "1 -> 2",
        "bounds = [len(plan) * i // workers for i in range(workers + 1)]",
    ),
}


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


def imports(tree: ast.Module, module: str) -> bool:
    """Whether ``tree`` imports ``module`` of the package."""
    return any(
        (isinstance(node, ast.ImportFrom) and node.module == PACKAGE
         and any(a.name == module for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == f"{PACKAGE}.{module}")
        or (isinstance(node, ast.Import)
            and any(a.name == f"{PACKAGE}.{module}" for a in node.names))
        for node in ast.walk(tree)
    )


def names_a_script(tree: ast.Module) -> bool:
    """Whether ``tree`` holds a string naming a file of ``scripts/``, as a
    test that loads or runs the script does."""
    scripts = {path.name for path in (ROOT / "scripts").glob("*.py")}
    return any(
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.rpartition("/")[2] in scripts
        for node in ast.walk(tree)
    )


def importing_tests(module: str) -> list[str]:
    """The tests/test_*.py files that import ``module``, its own file first,
    then those that reach it only through the command line: the files that
    import ``cli`` or name a file of ``scripts/``."""
    found, through_cli = [], []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        if imports(tree, module):
            found.append(f"tests/{path.name}")
        elif imports(tree, "cli") or names_a_script(tree):
            through_cli.append(f"tests/{path.name}")
    own = f"tests/test_{module}.py"
    return sorted(found, key=lambda name: name != own) + through_cli


def callers(tree: ast.Module, name: str) -> set[str]:
    """``name`` and the module-level functions of ``tree`` that call it,
    directly or through others."""
    used = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    found, todo = {name}, [name]
    while todo:
        callee = todo.pop()
        for caller, names in used.items():
            if callee in names and caller not in found:
                found.add(caller)
                todo.append(caller)
    return found


def naming_tests(files: list[str], wanted: set[str]) -> list[str]:
    """The pytest ids of the tests in ``files`` whose source names one of
    ``wanted``: as a variable, an attribute or a string, such as a
    ``mock.patch`` target."""

    def names(node) -> bool:
        return any(
            (isinstance(n, ast.Name) and n.id in wanted)
            or (isinstance(n, ast.Attribute) and n.attr in wanted)
            or (isinstance(n, ast.Constant) and n.value in wanted)
            for n in ast.walk(node)
        )

    found = []
    for rel in files:
        for node in ast.parse((ROOT / rel).read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test") and names(node):
                found.append(f"{rel}::{node.name}")
            elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
                found.extend(
                    f"{rel}::{node.name}::{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and method.name.startswith("test")
                    and names(method)
                )
    return found


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


def changed_line(unmutated: str, mutated: str) -> str:
    """The first line of ``unmutated`` that ``mutated`` writes otherwise, stripped."""
    pairs = zip(unmutated.splitlines(), mutated.splitlines())
    return next((old.strip() for old, new in pairs if old != new), "")


def sweep(target: str, work: Path) -> tuple[list[str], list[str]]:
    """Run every mutant of ``target``; return the survivors' descriptions
    and those of the KNOWN_EQUIVALENT mutants left unrun."""
    module, _, dotted = target.partition(".")
    path = work / "src" / PACKAGE / f"{module}.py"
    original = path.read_text()
    tree = ast.parse(original)
    files = importing_tests(module)
    first = naming_tests(files, callers(tree, dotted.rpartition(".")[2]))
    unmutated = ast.unparse(tree)
    path.write_text(unmutated)
    if not run_tests(work, files):
        raise SystemExit(f"{target}: the tests fail on the unmutated module")
    survivors, skipped = [], []
    try:
        for line, description, mutant in mutants(tree, dotted):
            text = ast.unparse(mutant)
            label = f"{module}.py:{line} {dotted}: {description}"
            if (target, description, changed_line(unmutated, text)) in KNOWN_EQUIVALENT:
                print(f"skipped  {label}", flush=True)
                skipped.append(label)
                continue
            path.write_text(text)
            killed = (bool(first) and not run_tests(work, first)) or not run_tests(work, files)
            print(f"{'killed  ' if killed else 'SURVIVED'} {label}", flush=True)
            if not killed:
                survivors.append(label)
    finally:
        path.write_text(original)
    return survivors, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", metavar="module.function")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        )
        results = [sweep(target, work) for target in args.targets]
    survivors = [label for found, _ in results for label in found]
    skipped = [label for _, found in results for label in found]
    print(f"{len(survivors)} survived")
    for label in survivors:
        print(f"  {label}")
    print(f"{len(skipped)} skipped (known equivalent)")
    for label in skipped:
        print(f"  {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
