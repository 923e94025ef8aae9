"""The worker pool: workers forked from the caller, one BLAS thread per process."""

import json
import multiprocessing
import os
import warnings

import pytest

import resfault
from resfault import experiment, parallel
from resfault.config import config_from_dict
from resfault.errors import ComputeError
from test_cli import run_fresh
from test_run_experiment import SCRIPT, TINY, load_script, usable_cpus

LOAD_SCRIPT = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("run_experiment", {str(SCRIPT)!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""
REPORT = """
import os
threads = [line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")]
print(*threads, *(os.environ[var] for var in {vars!r}))
"""


def imported(code, monkeypatch, **environ):
    """``Threads`` and the BLAS variables of a fresh interpreter after ``code``."""
    for var in resfault.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in environ.items():
        monkeypatch.setenv(var, value)
    proc = run_fresh(["-c", code + REPORT.format(vars=resfault.BLAS_THREAD_VARS)])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("code", ["import resfault.cli\n", LOAD_SCRIPT], ids=["cli", "script"])
def test_importing_the_program_pins_blas_to_one_thread(code, monkeypatch):
    # unpinned, numpy's OpenBLAS starts a thread per usable CPU at import
    assert imported(code, monkeypatch) == ["1", "1", "1", "1"]


def test_a_blas_thread_count_the_user_set_is_kept(monkeypatch):
    _, *values = imported("import resfault.cli\n", monkeypatch, OPENBLAS_NUM_THREADS="2")
    assert values == ["2", "1", "1"]


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="a worker pool needs 2 usable CPUs"
)
@pytest.mark.parametrize("command", ["synth", "script"])
def test_summary_line_is_printed_once(command, tmp_path, monkeypatch):
    """A worker forked with the summary still in the stdout buffer must not print it too."""
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    # stdout to a pipe is block-buffered only without PYTHONUNBUFFERED
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    args = ["--config", str(cfg), "--out", str(out)]
    if command == "synth":
        args, manifest = ["-m", "resfault", "synth", *args], "synth_manifest.txt"
        expected = f"wrote 6 units to {out / 'fleet.csv'}"
    else:
        args, manifest = [str(SCRIPT), *args], "experiment_manifest.txt"
        expected = "generated 6 units; running 2 realisations"
    with usable_cpus(sorted(os.sched_getaffinity(0))[:2]):
        proc = run_fresh(args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == expected
    assert len(set(lines)) == len(lines)
    assert "workers: 2" in (out / manifest).read_text().splitlines()


def test_forking_the_pool_raises_no_deprecation_warning():
    """Python 3.12 and later warn when a process with threads forks.

    With that warning an error, a 2-worker fleet preparation and protocol
    must still run, so each pool forks before it starts a thread, and the
    first pool's threads have ended before the second forks. Python 3.11 has
    no such warning, so there the test only shows that the pools run under
    the filter.
    """
    cfg = config_from_dict(TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        units, truths = load_script().prepared_fleet(cfg, workers=2)
        result = experiment.run_protocol(units, truths, cfg, workers=2)
    assert [(run.realisation, run.kind) for run in result.runs] == [
        (0, "AE"), (0, "OC"), (1, "AE"), (1, "OC")
    ]


def test_one_worker_runs_the_jobs_in_this_process():
    seen = []
    assert parallel.run_jobs(lambda a, b: seen.append(b) or a + b, (1,), [(1,), (2,)], 1) == [2, 3]
    assert seen == [1, 2]


def test_workers_inherit_what_cannot_be_pickled():
    double = lambda value: 2 * value  # noqa: E731
    jobs = [(value,) for value in range(5)]
    assert parallel.run_jobs(lambda fn, v: fn(v), (double,), jobs, 2) == [0, 2, 4, 6, 8]
    assert parallel._worker_job is None
    # every worker has ended: none is left holding the fleet
    assert multiprocessing.active_children() == []


def test_a_job_exception_is_raised_as_itself():
    with pytest.raises(ZeroDivisionError):
        parallel.run_jobs(lambda a, b: a // b, (1,), [(1,), (0,), (2,)], 2)
    assert parallel._worker_job is None


def test_a_dead_worker_is_a_computation_error():
    with pytest.raises(ComputeError, match="worker process ended abruptly"):
        parallel.run_jobs(os._exit, (), [(3,), (3,)], 2)
    assert parallel._worker_job is None
    assert multiprocessing.active_children() == []
