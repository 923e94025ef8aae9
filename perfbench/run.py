#!/usr/bin/env python3
"""Outside-in benchmark of resfault: protocol, monitor and ingest workloads.

    python3 perfbench/run.py --workload {protocol,monitor,ingest,all} \
        [--seed N] [--seconds S] [--trace 0|1] [--profile bench|tiny]

Run from anywhere; the program is taken from `src/` and `scripts/` next to
this directory. The benchmark process runs one child at a time, with BLAS
pinned to one thread. Each run first sets the workload up three times or more
(a `python -m resfault --version` start-up probe, plus for monitor the
synth and two trainings), then repeats the workload's commands while the
next execution fits in --seconds (at least twice), checking every output.
Before the first execution and after each one it times calibrate.py, and
reports each execution's wall time scaled to the reference machine speed
(wall_ref_s) beside the wall time as measured (wall_s).

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
once untraced and twice under perfbench/trace_child.py and reports the
per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
report (every metric with unit and direction, samples, checks,
environment). The exit code is 0 only if every command and check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import metrics  # noqa: E402
from workloads import PROFILES, WORKLOADS, Inputs  # noqa: E402

# set up at least SETUPS times and until set-ups took SETUP_SECONDS, so a
# set-up that is only the start-up probe still gets a steady median
SETUPS = 3
SETUP_SECONDS = 2.0
# at least two executions per run, so every run compares same-seed digests
MIN_EXECS = 2
PROBE = ("cli", ["--version"])
# seconds calibrate.py reports at the reference speed: about its median on
# the 2-vCPU VM this benchmark was built on
REFERENCE_CALIBRATION_S = 0.03
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def environment() -> dict:
    """What a result depends on besides the code: cores, versions, commit."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit,
        "child_env": PIN,
    }


def digest(directory: Path) -> str:
    """Hash of every output file except the manifests, which embed paths."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name.endswith("_manifest.txt"):
            continue
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        with path.open("rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


class Run:
    """One workload run: its children, ops counted, samples and checks."""

    def __init__(self, name: str, seed: int, profile: str, work: Path):
        self.work = work
        self.inputs = Inputs(seed=seed, overrides=PROFILES[profile][name], work=work)
        self.workload = WORKLOADS[name](self.inputs)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.logs = 0

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def spawn(self, argv: list[str]) -> tuple[float, float]:
        """Run one child to completion; returns (wall seconds, peak RSS MB)."""
        self.logs += 1
        log_path = self.work / f"child{self.logs}.log"
        start = time.perf_counter()
        with log_path.open("wb") as log:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = log_path.read_text(errors="replace")[-2000:]
        self.op(" ".join(argv[1:4]), proc.returncode == 0,
                f"exit {proc.returncode}\n{tail}")
        return wall, usage.ru_maxrss / 1024.0

    def commands(self, cmds: list) -> tuple[float, float]:
        """Run commands as separate processes; (total wall, largest peak RSS)."""
        start = time.perf_counter()
        peak = 0.0
        for target, argv in cmds:
            head = ["-m", "resfault"] if target == "cli" else [target]
            _, rss = self.spawn([sys.executable, *head, *argv])
            peak = max(peak, rss)
        return time.perf_counter() - start, peak

    def calibrate(self) -> float:
        """Seconds calibrate.py's fixed work takes now, in a pinned child."""
        self.spawn([sys.executable, str(HERE / "calibrate.py")])
        log = self.work / f"child{self.logs}.log"
        try:
            return float(log.read_text().split()[-1])
        except (OSError, ValueError, IndexError) as exc:
            self.op("calibration readable", False, str(exc))
            return REFERENCE_CALIBRATION_S

    def in_process(self, cmds: list, tag: str, traced: bool) -> tuple[float, dict]:
        """Run commands in one trace_child.py process; (wall, trace dump)."""
        cmd_file = self.work / f"{tag}_commands.json"
        cmd_file.write_text(json.dumps(cmds))
        trace_file = self.work / f"{tag}_trace.json"
        off = [] if traced else ["--off"]
        wall, _ = self.spawn([sys.executable, str(HERE / "trace_child.py"), *off,
                              str(trace_file), str(cmd_file)])
        try:
            return wall, json.loads(trace_file.read_text())
        except (OSError, ValueError) as exc:
            self.op(f"{tag} trace readable", False, str(exc))
            return wall, {"edges": [], "spans": [], "probes": {}, "warnings": {}}

    def setups(self) -> tuple[list[float], list[float]]:
        """Set up SETUPS times or more; (set-up walls, probe walls)."""
        walls, probes, digests = [], [], []
        while len(walls) < SETUPS or sum(walls) < SETUP_SECONDS:
            i = len(walls)
            where = self.work / f"setup{i}"
            where.mkdir()
            start = time.perf_counter()
            probe_wall, _ = self.commands([PROBE])
            self.commands(self.workload.setup(where))
            walls.append(time.perf_counter() - start)
            probes.append(probe_wall)
            digests.append(digest(where))
            if i:  # the workload keeps using the last set-up
                shutil.rmtree(self.work / f"setup{i - 1}")
        for i, d in enumerate(digests[1:], start=1):
            self.op(f"setup {i} output digest", d == digests[0], "differs from set-up 0")
        return walls, probes

    def execution(self, tag: str, traced: bool | None = None):
        """One execution of the workload's commands, checked then deleted.

        traced None runs each command as its own process, the way users do;
        True or False runs them all in one trace_child.py process.
        """
        out = self.work / tag
        cmds = self.workload.commands(out)
        if traced is not None:
            wall, trace = self.in_process(cmds, tag, traced)
            rss = 0.0
        else:
            (wall, rss), trace = self.commands(cmds), None
        checks = self.workload.check(out)
        for name, ok, detail in checks.results:
            self.op(f"{tag} {name}", ok, detail)
        d = digest(out)
        shutil.rmtree(out)
        return {"wall": wall, "rss": rss, "digest": d, "checks": checks, "trace": trace}


def summary(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        run = Run(name, seed, profile, work)
        setup_walls, probe_walls = run.setups()
        if trace:
            return traced_result(run, probe_walls)
        execs = []
        start = time.perf_counter()
        calibrations = [run.calibrate()]
        while True:
            execs.append(run.execution(f"exec{len(execs)}"))
            calibrations.append(run.calibrate())
            elapsed = time.perf_counter() - start
            typical = elapsed / len(execs)  # one execution with its calibration
            if len(execs) >= MIN_EXECS and elapsed + typical > seconds:
                break
        # each execution's wall time at the reference speed: scaled by the
        # mean of the calibrations just before and just after it
        speeds = [REFERENCE_CALIBRATION_S * 2 / (a + b)
                  for a, b in zip(calibrations, calibrations[1:])]
        for i, e in enumerate(execs[1:], start=1):
            run.op(f"exec{i} output digest", e["digest"] == execs[0]["digest"],
                   "differs from exec0 of the same seed")
        last = execs[-1]["checks"]
        samples = {
            "setup_s": setup_walls,
            "wall_ref_s": [e["wall"] * k for e, k in zip(execs, speeds)],
            "wall_s": [e["wall"] for e in execs],
            "calibration_s": calibrations,
            "peak_rss_mb": [e["rss"] for e in execs],
        }
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["failed_ops_ratio"] = run.failed / run.attempted
        values.update(
            (k, v) for k, v in last.quality.items()
            if k in metrics.REPORTED_BY_WORKLOAD[name]
        )
        return {
            "workload": name,
            "values": values,
            "samples": {k: summary(v) for k, v in samples.items()},
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": run.failures,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_result(run: Run, probe_walls: list[float]) -> dict:
    """One untraced and two traced in-process executions; per-layer metrics."""
    plain = run.execution("plain", traced=False)
    traced = [run.execution(f"traced{i}", traced=True) for i in range(2)]
    per_run = [layers.layer_metrics(t["trace"], run.workload.residual_pairs())
               for t in traced]
    for i, t in enumerate(traced):
        run.op(f"traced{i} outputs identical to untraced", t["digest"] == plain["digest"],
               "traced outputs differ")
    for name in layers.EXACT_COUNTS:
        a, b = per_run[0][name], per_run[1][name]
        run.op(f"{name} repeats across traced runs", a == b, f"{a} vs {b}")
    values = {
        k: per_run[0][k] if k in layers.EXACT_COUNTS else (per_run[0][k] + per_run[1][k]) / 2
        for k in per_run[0]
    }
    values["segmentation.nan_points"] = plain["checks"].nan_points
    values["cli.startup_s"] = statistics.median(probe_walls)
    values["trace.overhead_s"] = (traced[0]["wall"] + traced[1]["wall"]) / 2 - plain["wall"]
    return {
        "workload": run.workload.name,
        "values": values,
        "samples": {
            "untraced_wall_s": summary([plain["wall"]]),
            "traced_wall_s": summary([t["wall"] for t in traced]),
        },
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    }


def print_report(result: dict, seed: int, profile: str, trace: bool) -> None:
    name = result["workload"]
    mode = "traced" if trace else "untraced"
    print(f"== {name} (seed {seed}, profile {profile}, {mode}) ==")
    print(f"why: {metrics.WORKLOAD_WHY[name]}")
    for metric, v in result["values"].items():
        m = metrics.BY_NAME[metric]
        line = f"  {metric:34s} {v:>16.6g} {m.unit:8s} {m.better:6s}"
        s = result["samples"].get(metric)
        if s:
            line += f"  median of n={s['n']}, range {s['min']:.4g}..{s['max']:.4g}"
        print(line)
    for k, s in result["samples"].items():
        if k not in result["values"]:
            print(f"  {k:34s} {s['median']:>16.6g} s  (n={s['n']})")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def contract_metrics(result: dict, trace: bool) -> dict:
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    return {m.name: metrics.value(m.name, result["values"][m.name]) for m in wanted}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure while the next execution fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="bench",
                        help="input sizes: bench (BENCHMARK.json), tiny (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SystemExit unwinds through Run.spawn, which then kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = [p for p in ("src/resfault/cli.py", "scripts/run_experiment.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program files missing under {ROOT}: {missing}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.profile)
        print_report(result, args.seed, args.profile, bool(args.trace))
        results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    report = {
        "environment": env,
        "profile": args.profile,
        "seed": args.seed,
        "workloads": results,
        "metrics": {m.name: dataclasses.asdict(m) for m in metrics.ALL_METRICS},
    }
    print(json.dumps(report, default=str))
    if len(results) == 1:
        out_metrics = contract_metrics(results[0], bool(args.trace))
    else:
        out_metrics = {
            f"{r['workload']}.{k}": v
            for r in results for k, v in contract_metrics(r, bool(args.trace)).items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
