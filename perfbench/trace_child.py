"""Run resfault entry points in process with every public layer function timed.

    python3 perfbench/trace_child.py [--off] TRACE_OUT COMMANDS_JSON

COMMANDS_JSON holds a list of [target, argv] pairs run in order in this
process: target "cli" calls resfault.cli.main(argv); any other target is a
script path whose main(argv) is called. Before the first command, each
public function of the layer modules is replaced by a timing wrapper
wherever a caller looks it up: on its own module and on every module (the
script included) that imported it by name. The wrappers only time and pass
through, so outputs stay byte-identical to an untraced run. With --off
nothing is wrapped: the same harness untraced, the base of the overhead.

TRACE_OUT receives JSON with per-(parent, name) aggregates (count, total
and self seconds), the full span list for all but the per-step names,
probes of selected arguments and results, warning counts, and exit codes.
The process exits 0 only if every command exited 0.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import json
import os
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

LAYERS = (
    "synth", "persist", "preprocess", "data_model", "nn", "models", "health",
    "detector", "segmentation", "experiment", "cli",
)

# Called once or more per training step: aggregated only, no span records.
PER_STEP = {
    "nn.forward", "nn.forward_activations", "nn.backward", "nn.adam_step",
    "nn.loss_mse",
}

# Called once per CSV cell; its time is inside persist.save_csv and a wrapper
# would dominate the run.
UNWRAPPED = {"persist.format_float"}


def _rows(units) -> int:
    return sum(u.n_rows for u in units)


# Arguments and results recorded for the layer metrics that need more than time.
PROBES = {
    "nn.train": lambda args, kw, res: {
        "rows": int(args[1][0].shape[0]),
        "epochs_run": res.epochs_run,
        "best_epoch": res.best_epoch,
    },
    "persist.load_csv": lambda args, kw, res: {"bytes": os.path.getsize(args[0])},
    "persist.save_csv": lambda args, kw, res: {"bytes": os.path.getsize(args[1])},
    "synth.gen_fleet": lambda args, kw, res: {"rows": _rows(s for s, _ in res)},
    "experiment.preprocess_fleet": lambda args, kw, res: {
        "rows_in": _rows(args[0]),
        "rows_out": _rows(res),
    },
}


class Tracer:
    """Span recorder: a stack of open spans, aggregates per (parent, name)."""

    def __init__(self):
        self.stack: list[list] = []  # [name, owner span id, start, child seconds]
        self.edges: dict[tuple[str, str], list] = {}  # -> [count, total, self]
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.probes: dict[str, list] = {}
        self.next_id = 0

    def wrap(self, name: str, fn):
        per_step = name in PER_STEP
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            parent_owner = parent[1] if parent else None
            if per_step:
                owner = parent_owner
            else:
                owner = self.next_id
                self.next_id += 1
            frame = [name, owner, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[2]
                key = (parent[0] if parent else "", name)
                agg = self.edges.setdefault(key, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[3]
                if parent:
                    parent[3] += duration
                if not per_step:
                    self.spans.append([owner, parent_owner, name, frame[2], end])
            if probe is not None:
                self.probes.setdefault(name, []).append(probe(args, kwargs, result))
            return result

        return traced

    def install(self, namespaces) -> None:
        """Wrap the public functions of each layer module in every namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"resfault.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[id(obj)] = self.wrap(name, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])

    def dump(self) -> dict:
        return {
            "edges": [[p, n, *agg] for (p, n), agg in self.edges.items()],
            "spans": self.spans,
            "probes": self.probes,
        }


def _load_script(path: str):
    spec = importlib.util.spec_from_file_location(f"traced_{Path(path).stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    off = argv[0] == "--off"
    trace_out, commands_path = argv[off:]
    commands = json.loads(Path(commands_path).read_text())

    import resfault.cli
    from resfault.errors import ResfaultError

    scripts = {t: _load_script(t) for t, _ in commands if t != "cli"}
    namespaces = [m for n, m in sys.modules.items() if n.startswith("resfault")]
    tracer = Tracer()
    if not off:
        tracer.install(namespaces + list(scripts.values()))

    warning_counts: Counter = Counter()
    show = warnings.showwarning

    def counting_show(message, category, *rest, **kw):
        warning_counts[category.__name__] += 1
        show(message, category, *rest, **kw)

    warnings.simplefilter("always")
    warnings.showwarning = counting_show

    codes = []
    for target, args in commands:
        if target == "cli":
            codes.append(resfault.cli.main(args))
            continue
        try:
            codes.append(scripts[target].main(args))
        except ResfaultError as exc:
            print(f"error: {exc}", file=sys.stderr)
            codes.append(exc.exit_code)

    record = tracer.dump()
    record["warnings"] = dict(warning_counts)
    record["exit_codes"] = codes
    Path(trace_out).write_text(json.dumps(record))
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
