"""Parent diff: does the working tree write the bytes a git revision writes?

Usage, from the repository root:

    python tests/parent_diff.py                     # against HEAD
    python tests/parent_diff.py HEAD~1 --expect-change 'mini/data/*'

The revision is exported with ``git archive`` into a temporary directory.
Both trees then run one fixed list of commands, each in a fresh
interpreter with that tree's ``src`` on ``PYTHONPATH``, at each config of
CONFIGS: ``resfault synth`` with its twin, ``train`` oc and ae, ``detect``
x4 with ``--dump-hi``, one ``detect`` that parses the fleet again without
its twin, one ``detect`` with ``--dump-hi`` on a copy of the fleet whose
rows interleave the units (see ``interleave``), ``evaluate``, ``segment``
oc and ae, and ``scripts/run_experiment.py``. At the first config they
also run a fixed list of invocations that must fail, on a fleet cell, a
checkpoint value or a config value of the kinds
``tests/test_fuzz_exit_codes.py`` damages.

Every output file but the run manifests is reported as same, different or
missing, and every invocation's exit code and ``error:`` lines as same or
different (paths read from the side's directory). The exit status is 1
if a difference is not matched by an ``--expect-change`` glob, else 0. An
output's name is ``<config>/<path under its run directory>``; an
invocation's is ``<config>: <label>``. The file is not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def mini_config() -> dict:
    """``tests/test_cli.py``'s MINI_CONFIG, read without importing resfault."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MINI_CONFIG"]:
            return ast.literal_eval(node.value)
    raise LookupError("no MINI_CONFIG in tests/test_cli.py")


def three_family_config() -> dict:
    cfg = mini_config()
    cfg["seed"] = 2024
    cfg["synth"]["n_families"] = 3
    return cfg


CONFIGS = {"mini": mini_config, "three": three_family_config}
# the command that reads a copy of the fleet without its twin
PARSED = "detect oc sensorwise, fleet parsed"
# the command that reads a copy of the fleet whose units interleave
INTERLEAVED = "detect oc sensorwise, rows interleaved"


def commands(tree: Path, cfg: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv after ``python``) of each command of one run of ``tree``'s
    program into ``out``, in order."""
    common = ["--config", str(cfg)]
    data, parse = out / "data", out / "parse"
    runs = [("synth", ["-m", "resfault", "synth", *common, "--out", str(data)])]
    for kind in ("oc", "ae"):
        runs.append((f"train {kind}", [
            "-m", "resfault", "train", *common, "--data", str(data), "--model", kind,
            "--out", str(out / f"{kind}.json"),
        ]))
    reports = []
    for kind in ("oc", "ae"):
        for hi in ("sensorwise", "aggregated"):
            reports.append(str(out / f"{kind}_{hi}.csv"))
            runs.append((f"detect {kind} {hi}", [
                "-m", "resfault", "detect", *common, "--data", str(data),
                "--checkpoint", str(out / f"{kind}.json"), "--hi", hi,
                "--out", reports[-1], "--dump-hi",
            ]))
    runs.append((PARSED, [
        "-m", "resfault", "detect", *common, "--data", str(parse),
        "--checkpoint", str(out / "oc.json"), "--hi", "sensorwise",
        "--out", str(out / "oc_sensorwise_parsed.csv"),
    ]))
    runs.append((INTERLEAVED, [
        "-m", "resfault", "detect", *common, "--data", str(out / "interleaved"),
        "--checkpoint", str(out / "oc.json"), "--hi", "sensorwise",
        "--out", str(out / "oc_sensorwise_interleaved.csv"), "--dump-hi",
    ]))
    runs.append(("evaluate", [
        "-m", "resfault", "evaluate", *common, "--reports", *reports,
        "--out", str(out / "eval"),
    ]))
    for kind in ("oc", "ae"):
        runs.append((f"segment {kind}", [
            "-m", "resfault", "segment", *common, "--data", str(data),
            "--checkpoint", str(out / f"{kind}.json"),
            "--reports", str(out / f"{kind}_sensorwise.csv"), "--out", str(out / f"seg_{kind}"),
        ]))
    script = str(tree / "scripts" / "run_experiment.py")
    runs.append(("script", [script, *common, "--out", str(out / "experiment")]))
    return runs


def interleave(data: Path, copy: Path) -> None:
    """Copy fleet directory ``data`` to ``copy`` without the twin, with the
    fleet's rows dealt out by unit in turn: each unit's first row, then each
    unit's second row, and so on. The units keep their order of first
    appearance and each unit its rows' order, so a reader that groups the
    rows by unit reads the same fleet."""
    shutil.copytree(data, copy)
    (copy / ".fleet.csv.npy").unlink()
    header, *rows = (data / "fleet.csv").read_bytes().splitlines(keepends=True)
    by_unit: dict[bytes, list[bytes]] = {}
    for row in rows:
        by_unit.setdefault(row.split(b",", 1)[0], []).append(row)
    dealt = [row for turn in itertools.zip_longest(*by_unit.values()) for row in turn if row]
    (copy / "fleet.csv").write_bytes(header + b"".join(dealt))


def fleet_cell(value: str):
    """A damage that sets the ``alt`` cell of the fleet's first data row to ``value``."""

    def damage(data: Path) -> None:
        fleet = data / "fleet.csv"
        lines = fleet.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("alt")] = value
        lines[1] = ",".join(cells)
        fleet.write_text("\n".join(lines) + "\n")
        data.joinpath(".fleet.csv.npy").unlink(missing_ok=True)

    return damage


def checkpoint_field(**fields):
    """A damage that sets top-level ``fields`` of the checkpoint."""

    def damage(ckpt: Path) -> None:
        blob = json.loads(ckpt.read_text())
        blob.update(fields)
        ckpt.write_text(json.dumps(blob))

    return damage


def checkpoint_standardizer(n_channels: int):
    """A damage that keeps the first ``n_channels`` channels of the
    checkpoint's standardizer."""

    def damage(ckpt: Path) -> None:
        blob = json.loads(ckpt.read_text())
        for key in ("mean", "std"):
            blob["standardizer"][key] = blob["standardizer"][key][:n_channels]
        ckpt.write_text(json.dumps(blob))

    return damage


# (label, model kind, --hi, fleet damage, checkpoint damage, config overrides)
FAILURES = [
    ("fleet cell abc", "oc", "sensorwise", fleet_cell("abc"), None, {}),
    ("fleet cell nan", "ae", "aggregated", fleet_cell("nan"), None, {}),
    ("fleet cell empty", "oc", "aggregated", fleet_cell(""), None, {}),
    ("fleet cell 1e308", "ae", "sensorwise", fleet_cell("1e308"), None, {}),
    ("checkpoint n_w 3", "oc", "sensorwise", None, checkpoint_field(n_w=3), {}),
    ("checkpoint n_w 3", "ae", "aggregated", None, checkpoint_field(n_w=3), {}),
    ("checkpoint standardizer 17", "oc", "aggregated", None, checkpoint_standardizer(17), {}),
    ("checkpoint format_version 99", "ae", "sensorwise", None,
     checkpoint_field(format_version=99), {}),
    ("checkpoint metadata list", "oc", "aggregated", None, checkpoint_field(metadata=[]), {}),
    ("checkpoint weights [[1.0]]", "ae", "aggregated", None,
     checkpoint_field(weights=[[1.0]]), {}),
    ("config n_wait 0", "oc", "sensorwise", None, None, {"detection": {"n_wait": 0}}),
    ("config learning_rate nan", "oc", "sensorwise", None, None,
     {"training": {"learning_rate": float("nan")}}),
    ("config learning_rate 1e400", "ae", "sensorwise", None, None,
     {"training": {"learning_rate": 10**400}}),
    ("config downsample_factor 1e30", "oc", "aggregated", None, None,
     {"preprocess": {"downsample_factor": 10**30}}),
]


def failing_invocations(cfg: Path, out: Path, fail: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each FAILURES invocation on copies, in ``fail``, of
    the inputs of run ``out`` at config file ``cfg``; then a refused ``train``."""
    runs = []
    for i, (label, kind, hi, fleet_damage, ckpt_damage, overrides) in enumerate(FAILURES):
        case = fail / str(i)
        data = case / "data"
        shutil.copytree(out / "data", data)
        ckpt = case / "model.json"
        shutil.copy(out / f"{kind}.json", ckpt)
        if fleet_damage:
            fleet_damage(data)
        if ckpt_damage:
            ckpt_damage(ckpt)
        blob = yaml.safe_load(cfg.read_text())
        for section, values in overrides.items():
            blob.setdefault(section, {}).update(values)
        case_cfg = case / "cfg.yaml"
        case_cfg.write_text(yaml.safe_dump(blob))
        runs.append((f"{label}: detect {kind} {hi}", [
            "-m", "resfault", "detect", "--config", str(case_cfg), "--data", str(data),
            "--checkpoint", str(ckpt), "--hi", hi, "--out", str(case / "reports.csv"),
        ]))
    runs.append(("realisation -1: train oc", [
        "-m", "resfault", "train", "--config", str(cfg),
        "--data", str(out / "data"), "--model", "oc", "--realisation", "-1",
        "--out", str(fail / "refused.json"),
    ]))
    return runs


def invoke(tree: Path, side: Path, argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and ``error:`` lines of ``python argv`` with ``tree``'s src,
    run in ``side``, with ``side`` read as ``<side>`` in the lines."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=side, env=env, capture_output=True, text=True, timeout=900
    )
    errors = [line.replace(str(side), "<side>") for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    return proc.returncode, errors


def run_side(tree: Path, side: Path, configs: dict[str, dict]) -> dict[str, tuple]:
    """Run every command, and the failing invocations at the first config,
    with ``tree``'s program in directory ``side``; (code, error lines) by
    name. Each config's run writes into ``side / <config>``."""
    results = {}
    (side / "configs").mkdir(parents=True)
    for n, (name, blob) in enumerate(configs.items()):
        cfg = side / "configs" / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump(blob))
        out = side / name
        out.mkdir()
        for label, argv in commands(tree, cfg, out):
            if label == PARSED:
                shutil.copytree(out / "data", out / "parse")
                (out / "parse" / ".fleet.csv.npy").unlink()
            if label == INTERLEAVED:
                interleave(out / "data", out / "interleaved")
            results[f"{name}: {label}"] = invoke(tree, side, argv)
        if n == 0:
            for label, argv in failing_invocations(cfg, out, side / "fail"):
                results[f"{name}: {label}"] = invoke(tree, side, argv)
    return results


def outputs(side: Path, configs) -> dict[str, bytes]:
    """The bytes of every file the runs of ``configs`` wrote, manifests
    excluded, by name."""
    files = {}
    for name in configs:
        for path in sorted((side / name).rglob("*")):
            if path.is_file() and not path.name.endswith("_manifest.txt"):
                files[f"{name}/{path.relative_to(side / name)}"] = path.read_bytes()
    return files


def compare(base: dict, head: dict) -> list[tuple[str, str]]:
    """(status, name) of every name of ``base`` or ``head``: same, different,
    or missing in base or in head."""
    rows = []
    for name in sorted(base.keys() | head.keys()):
        if name not in base:
            rows.append(("missing in base", name))
        elif name not in head:
            rows.append(("missing in head", name))
        else:
            rows.append(("same" if base[name] == head[name] else "different", name))
    return rows


def diff_trees(base_tree: Path, head_tree: Path, work: Path, configs: dict[str, dict]):
    """compare() of the outputs, then of the invocation results, of the two
    trees, which run side by side in ``work / "base"`` and ``work / "head"``."""
    sides = {"base": (base_tree, work / "base"), "head": (head_tree, work / "head")}
    with ThreadPoolExecutor(len(sides)) as pool:
        runs = {k: pool.submit(run_side, tree, side, configs) for k, (tree, side) in sides.items()}
        results = {k: run.result() for k, run in runs.items()}
    files = {k: outputs(side, configs) for k, (_, side) in sides.items()}
    return compare(files["base"], files["head"]), compare(results["base"], results["head"])


def unexpected(rows, expect: list[str]) -> list[tuple[str, str]]:
    """The rows that are not ``same`` and match no ``expect`` glob."""
    return [(status, name) for status, name in rows if status != "same"
            and not any(fnmatch.fnmatchcase(name, glob) for glob in expect)]


def export(rev: str, dest: Path) -> Path:
    """The tree of git revision ``rev``, extracted into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--expect-change", action="append", default=[], metavar="GLOB",
                        help="a difference whose name matches GLOB does not fail the run")
    args = parser.parse_args(argv)
    configs = {name: make() for name, make in CONFIGS.items()}
    with tempfile.TemporaryDirectory(prefix="parent_diff_") as tmp:
        base = export(args.rev, Path(tmp) / "tree")
        file_rows, run_rows = diff_trees(base, ROOT, Path(tmp) / "runs", configs)
    for status, name in file_rows + run_rows:
        print(f"{status:16} {name}")
    bad = unexpected(file_rows + run_rows, args.expect_change)
    same = sum(status == "same" for status, _ in file_rows + run_rows)
    print(f"{same} same, {len(file_rows) + len(run_rows) - same} not, {len(bad)} unexpected "
          f"({len(file_rows)} outputs, {len(run_rows)} invocations; {args.rev} -> working tree)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
