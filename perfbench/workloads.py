"""The three workloads: their inputs, commands, and output checks.

A command is a (target, argv) pair: target "cli" runs `python -m resfault
ARGV`, any other target is a script path run as `python SCRIPT ARGV`.
Each workload's checks return (name, ok, detail) triples plus the quality
metrics read from its own output CSVs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

SCRIPT = "scripts/run_experiment.py"

# The README's synth defaults, restated so the row-count check does not
# take its expectation from the program under test.
SYNTH_DEFAULTS = {"n_units": 10, "n_families": 3, "cycles_per_unit": 48, "rows_per_cycle": 200}
K_MAX = 34
SILHOUETTE_K = 10

FLEET_HEADER = (
    "unit,cycle,alt,XM,TRA,T2,T24,T30,T48,T50,P15,P2,P21,P24,Ps30,P40,P50,Nf,Nc,Wf"
).split(",")
GROUPS = [("OC", "sensorwise"), ("OC", "aggregated"), ("AE", "sensorwise"), ("AE", "aggregated")]

# YAML overrides of the program defaults per profile and workload.
# "bench" is what BENCHMARK.json runs. Its fleet sizes, realisations and
# k_max are the defaults, except that monitor runs on 2 units per family so
# that its set-up (synth plus two trainings) can repeat within one run.
# Every training runs exactly FIXED_EPOCHS epochs (patience equal to
# epochs, so early stopping never fires): with the default patience the
# number of Adam steps follows the seed (32,453 to 41,334 over five seeds),
# and a run's time would measure the seed rather than the program.
# "tiny" is the self-test's smallest valid fleet.
FIXED_EPOCHS = 12
_FIXED = {"epochs": FIXED_EPOCHS, "patience": FIXED_EPOCHS}
_TINY = {
    "synth": {"n_units": 2, "rows_per_cycle": 40},
    "training": {"epochs": 3, "patience": 2, "realisations": 2},
}
PROFILES = {
    "bench": {
        "protocol": {"training": _FIXED},
        "monitor": {"synth": {"n_units": 2}, "training": _FIXED},
        "ingest": {},
    },
    "tiny": {"protocol": _TINY, "monitor": _TINY, "ingest": _TINY},
}


@dataclass(frozen=True)
class Inputs:
    """What a workload's commands see: the seed, a config file, a work dir."""

    seed: int
    overrides: dict
    work: Path

    @property
    def config_args(self) -> list[str]:
        if not self.overrides:
            return ["--seed", str(self.seed)]
        path = self.work / "config.yaml"
        if not path.exists():
            # JSON is valid YAML
            path.write_text(json.dumps(self.overrides))
        return ["--config", str(path), "--seed", str(self.seed)]

    def synth(self, key: str) -> int:
        return self.overrides.get("synth", {}).get(key, SYNTH_DEFAULTS[key])

    @property
    def n_units(self) -> int:
        return self.synth("n_units") * self.synth("n_families")

    @property
    def fleet_rows(self) -> int:
        return self.n_units * self.synth("cycles_per_unit") * self.synth("rows_per_cycle")

    @property
    def realisations(self) -> int:
        return self.overrides.get("training", {}).get("realisations", 5)


# --- output readers -------------------------------------------------------


def _read_csv(path: Path, columns: list[str]) -> list[dict]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path.name}: missing columns {missing}")
        return list(reader)


def _count_lines(path: Path) -> int:
    n = 0
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            n += chunk.count(b"\n")
    return n


class Checks:
    """Collects (name, ok, detail) results; a raising check fails, not aborts."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.quality: dict[str, float] = {}
        self.nan_points = 0

    def check(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append((name, bool(ok), detail))

    def fleet(self, data: Path, inputs: Inputs) -> None:
        def rows():
            n = _count_lines(data / "fleet.csv") - 1
            return n == inputs.fleet_rows, f"{n} rows, expected {inputs.fleet_rows}"

        def parses():
            with (data / "fleet.csv").open(newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                first = next(reader)
            with (data / "fleet.csv").open("rb") as fh:
                fh.seek(max(0, fh.seek(0, 2) - 4096))
                last = fh.read().splitlines()[-1]
            for row in (first, last.decode().split(",")):
                [float(v) for v in row[1:]]
            truth = _read_csv(data / "ground_truth.csv", ["unit", "family", "fault_cycle"])
            ok = header == FLEET_HEADER and len(truth) == inputs.n_units
            return ok, f"header ok: {header == FLEET_HEADER}, {len(truth)} truth rows"

        self.check("fleet_rows", rows)
        self.check("fleet_parses", parses)

    def evaluation(self, summary: Path) -> None:
        """Delays, FPR and the paper's ordering from an evaluation_summary.csv."""

        def read():
            rows = _read_csv(summary, ["model", "hi_kind", "mean_delay", "fpr_percent"])
            by_group = {(r["model"], r["hi_kind"]): r for r in rows}
            for model, hi in GROUPS:
                row = by_group[(model, hi)]
                self.quality[f"delay_{model.lower()}_{hi}_cycles"] = float(row["mean_delay"])
            self.quality["fpr_max_percent"] = max(float(r["fpr_percent"]) for r in rows)
            return len(rows) == 4, f"{len(rows)} groups"

        def fpr_zero():
            fpr = self.quality["fpr_max_percent"]
            return fpr == 0.0, f"max FPR {fpr}%"

        def ordering():
            sens = self.quality["delay_oc_sensorwise_cycles"]
            agg = self.quality["delay_oc_aggregated_cycles"]
            return sens < agg, f"OC sensorwise {sens} vs aggregated {agg}"

        self.check("evaluation_parses", read)
        self.check("fpr_zero", fpr_zero)
        self.check("oc_sensorwise_before_aggregated", ordering)

    def silhouette(self, path: Path, model: str | None, metric: str) -> None:
        """Score at k=10 and nan count from a silhouette table or curve."""
        score_col = "mean_score" if model else "score"

        def read():
            rows = _read_csv(path, ["k", score_col])
            if model:
                rows = [r for r in rows if r["model"] == model]
            scores = {int(r["k"]): float(r[score_col]) for r in rows}
            self.nan_points += sum(1 for v in scores.values() if v != v)
            self.quality[metric] = scores[SILHOUETTE_K]
            ok = sorted(scores) == list(range(K_MAX + 1))
            return ok, f"{len(scores)} offsets, score at k={SILHOUETTE_K} {scores[SILHOUETTE_K]}"

        self.check(f"{metric}_parses", read)

    def table(self, path: Path, columns: list[str], rows: int | None = None) -> None:
        def read():
            n = len(_read_csv(path, columns))
            return (n > 0 if rows is None else n == rows), f"{n} rows"

        self.check(f"{path.parent.name}/{path.name}_parses", read)


# --- workloads --------------------------------------------------------------


class Protocol:
    name = "protocol"

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    def setup(self, where: Path) -> list:
        return []

    def commands(self, out: Path) -> list:
        return [(SCRIPT, [*self.inputs.config_args, "--out", str(out)])]

    def residual_pairs(self) -> int:
        return 2 * self.inputs.n_units * self.inputs.realisations

    def check(self, out: Path) -> Checks:
        c = Checks()
        c.evaluation(out / "evaluation_summary.csv")
        c.silhouette(out / "silhouette_vs_k.csv", "OC", "silhouette_oc_k10")
        c.silhouette(out / "silhouette_vs_k.csv", "AE", "silhouette_ae_k10")
        c.table(out / "evaluation_units.csv", ["model", "unit", "avg_delay"],
                rows=4 * self.inputs.n_units)
        c.table(out / "trigger_timeline.csv", ["realisation", "unit", "channel"])
        return c


class Monitor:
    """detect x4, evaluate, segment x2 against a fleet and checkpoints from set-up."""

    name = "monitor"

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.data = self.oc = self.ae = None

    def setup(self, where: Path) -> list:
        self.data, self.oc, self.ae = where / "data", where / "oc.json", where / "ae.json"
        args = self.inputs.config_args
        return [
            ("cli", ["synth", *args, "--out", str(self.data)]),
            ("cli", ["train", *args, "--data", str(self.data), "--model", "oc",
                     "--out", str(self.oc)]),
            ("cli", ["train", *args, "--data", str(self.data), "--model", "ae",
                     "--out", str(self.ae)]),
        ]

    def commands(self, out: Path) -> list:
        args = self.inputs.config_args
        data = ["--data", str(self.data)]
        cmds = []
        for model, ckpt in (("oc", self.oc), ("ae", self.ae)):
            for hi in ("sensorwise", "aggregated"):
                cmds.append(("cli", ["detect", *args, *data, "--checkpoint", str(ckpt),
                                     "--hi", hi, "--out", str(out / f"{model}_{hi}.csv")]))
        reports = [str(out / f"{m}_{h}.csv") for m in ("oc", "ae")
                   for h in ("sensorwise", "aggregated")]
        cmds.append(("cli", ["evaluate", *args, "--reports", *reports,
                             "--out", str(out / "eval")]))
        for model, ckpt in (("oc", self.oc), ("ae", self.ae)):
            cmds.append(("cli", ["segment", *args, *data, "--checkpoint", str(ckpt),
                                 "--reports", str(out / f"{model}_sensorwise.csv"),
                                 "--out", str(out / f"seg_{model}")]))
        return cmds

    def residual_pairs(self) -> int:
        return 2 * self.inputs.n_units

    def check(self, out: Path) -> Checks:
        c = Checks()
        c.fleet(self.data, self.inputs)
        for model in ("oc", "ae"):
            for hi in ("sensorwise", "aggregated"):
                c.table(out / f"{model}_{hi}.csv", ["model", "unit", "alarm_cycle", "delay"],
                        rows=self.inputs.n_units)
        c.evaluation(out / "eval" / "evaluation_summary.csv")
        for model in ("oc", "ae"):
            seg = out / f"seg_{model}"
            c.silhouette(seg / "silhouette_curve.csv", None, f"silhouette_{model}_k10")
            c.table(seg / "pca_coords.csv", ["unit", "label", "pc1", "pc2"])
        c.table(out / "seg_ae" / "ae_embedding_pca.csv", ["unit", "pc1", "pc2"])
        return c


class Ingest:
    name = "ingest"

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    def setup(self, where: Path) -> list:
        return []

    def commands(self, out: Path) -> list:
        return [("cli", ["synth", *self.inputs.config_args, "--out", str(out)])]

    def residual_pairs(self) -> int:
        return 0

    def check(self, out: Path) -> Checks:
        c = Checks()
        c.fleet(out, self.inputs)
        return c


WORKLOADS = {w.name: w for w in (Protocol, Monitor, Ingest)}
