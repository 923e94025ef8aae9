#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks the format limits of the fields of BENCHMARK.json, runs every
workload on the tiny profile (the smallest fleet that passes config
validation) untraced, at least twice so that the same-seed digest check
runs, and traced, and checks that every metric is emitted with its unit
and better direction and that every name uses only [A-Za-z0-9_.-].
Finally checks that the benchmark fails without printing a result when
the program is absent.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_benchmark_json() -> None:
    bench = metrics.BENCHMARK
    expect(set(bench) == KEYS, f"BENCHMARK.json keys {sorted(bench)}")
    for w in bench["workloads"]:
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}],
           "setup_s must be in s, lower, with the largest bound")
    expect(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds in (0, 0.25]")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    expect(len(names) == len(set(names)), "names used twice")


def check_registry() -> None:
    for m in metrics.ALL_METRICS:
        expect(bool(metrics.NAME_RE.match(m.name)), f"metric name {m.name!r}")
        expect(bool(UNIT_RE.match(m.unit)), f"unit {m.unit!r} of {m.name}")
        expect(m.better in ("lower", "higher"), f"better of {m.name}")
        if m.kind == "per_layer":
            expect(set(m.moves) <= {x.name for x in metrics.END_TO_END + metrics.REPORTED},
                   f"moves of {m.name}")
            expect(set(m.most + m.none) <= set(metrics.WORKLOADS), f"workloads of {m.name}")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.splitlines()


def check_run(trace: int) -> None:
    # every run makes at least two executions, so the same-seed output
    # digest check between executions runs as well
    code, lines = bench("--workload", "all", "--profile", "tiny", "--seconds", "1",
                        "--trace", str(trace))
    expect(code == 0, f"tiny run --trace {trace} exited {code}")
    if len(lines) < 2:
        problems.append(f"tiny run --trace {trace} printed {len(lines)} lines")
        return
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"tiny run {trace} incorrect")
    registry = report["metrics"]
    for entry in report["workloads"]:
        workload = entry["workload"]
        if trace:
            wanted = [m.name for m in metrics.PER_LAYER]
        else:
            wanted = [m.name for m in metrics.END_TO_END]
            wanted += metrics.REPORTED_BY_WORKLOAD[workload]
            n = entry["samples"]["wall_s"]["n"]
            expect(n >= 2, f"{workload} ran {n} execution(s); the digest check needs 2")
        for name in wanted:
            emitted = result["metrics"].get(f"{workload}.{name}")
            if name in {m.name for m in metrics.END_TO_END + metrics.PER_LAYER}:
                expect(emitted is not None and emitted["unit"] == metrics.BY_NAME[name].unit,
                       f"{workload}.{name} missing from the result line or wrong unit")
            value = entry["values"].get(name)
            expect(isinstance(value, (int, float)), f"{workload}.{name} not emitted")
            info = registry.get(name, {})
            expect(info.get("unit") == metrics.BY_NAME[name].unit
                   and info.get("better") in ("lower", "higher"),
                   f"{name} lacks unit or better direction")
        for name in entry["values"]:
            expect(bool(metrics.NAME_RE.match(name)), f"emitted name {name!r}")


def check_without_program() -> None:
    """In a directory holding only the benchmark it must fail and print no result."""
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work",
                                                                                "__pycache__"))
        code, lines = bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                            cwd=bare)
        expect(code != 0, "bare directory run exited 0")
        expect(not any(line.startswith("{") for line in lines), "bare run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_benchmark_json()
    check_registry()
    check_run(0)
    check_run(1)
    check_without_program()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
