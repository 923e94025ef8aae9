"""The healthy-data fit has one body: experiment.fit_model.

`resfault train` and each job of the repeated-training protocol start from
the same step: split the healthy rows, train the residual model, take one
residual pass and fit the healthy statistics of each indicator kind. A
second copy of that step could drift from the first, and a checkpoint's
thresholds would then no longer be the ones the protocol detects with.
"""

import ast
from pathlib import Path

from resfault import experiment

ROOT = Path(__file__).resolve().parents[1]
FIT_STEPS = ("prepare_fleet", "fit_fleet_stats", "models.train")


def step_name(call: ast.Call) -> str | None:
    """The fit step ``call`` calls, by bare or module-qualified name."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        name = func.attr if func.attr in FIT_STEPS else f"{func.value.id}.{func.attr}"
    else:
        return None
    return name if name in FIT_STEPS else None


def step_callers(path: Path) -> set[tuple[str, str, str]]:
    """(module, innermost enclosing function, step) of each fit step call."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and step_name(child):
                found.add((path.stem, scope, step_name(child)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_fit_model_runs_the_fit_steps():
    files = sorted(ROOT.glob("src/resfault/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    callers = set().union(*map(step_callers, files))
    assert callers == {("experiment", "fit_model", step) for step in FIT_STEPS}


def test_experiment_keeps_no_second_job_form():
    for name in ("RealisationResult", "PreparedFleet", "train_model", "label_fleet"):
        assert not hasattr(experiment, name), name
