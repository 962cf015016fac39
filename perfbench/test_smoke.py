"""Smoke test of the benchmark at tiny workload sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run, tracing, workloads

import kuramoto_rc
from kuramoto_rc import derive_seed, gen_narma10, network, reservoir, run_grid_sweep


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run every workload at its tiny size, writing only under tmp_path."""
    full = workloads.build
    monkeypatch.setattr(
        workloads,
        "build",
        lambda name, tiny=False, workdir=None: full(name, tiny=True, workdir=tmp_path / "work"),
    )
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUTDIR", tmp_path / "out")
    return tmp_path


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(tiny, capsys, name, trace):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    info, result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert info["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    benchmark = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
    declared = benchmark["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert len(info["digest"]) == 64
    assert info["manifest"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert tracing.leftover_wrappers() == []
    assert not (tiny / "work").exists()


def test_missed_namespace_fails_the_plan_check(tiny, capsys, monkeypatch):
    modules = tracing.package_modules
    monkeypatch.setattr(
        tracing,
        "package_modules",
        lambda: {k: v for k, v in modules().items() if k != "reservoir"},
    )
    argv = ["--workload", "landscape", "--seed", "3", "--seconds", "0.01", "--trace", "1"]
    assert run.main(argv) == 0
    info, result = _result(capsys)
    assert result["correct"] is False
    assert any("network.phase_step made" in p for p in info["problems"])


def test_tracer_wraps_every_namespace_and_restores():
    original = network.phase_step
    tracer = tracing.Tracer()
    with tracer.installed():
        for module in (network, reservoir, kuramoto_rc):
            assert module.phase_step is not original
        network.phase_step(network.init_network(5, 0.5, seed=1), 0.1)
        reservoir.phase_step(network.init_network(5, 0.5, seed=1), 0.1)
    assert network.phase_step is original and reservoir.phase_step is original
    assert tracing.leftover_wrappers() == []
    stats = tracer.layer_stats()
    assert stats["network.phase_step"][0] == 2
    assert stats["network.rescale"][0] == 0


def test_missing_function_is_absent_not_zero(monkeypatch):
    layers = {**tracing.LAYERS, "network.gone": [("network", "_no_such_function")]}
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["network.gone"]
    assert not any(name.startswith("network.gone") for name in tracer.layer_metrics())


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [(0, 0, 100, -1, -1), (1, 10, 40, 0, -1), (1, 50, 60, 0, -1)]
    assert tracer.layer_stats() == {"outer": (1, 60), "inner": (2, 40)}


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "landscape", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _generate(workload, master):
    for length, trial in workload.narma_inputs():
        gen_narma10(length, seed=derive_seed(master, workloads.TASK_STREAM, trial))


def test_study_seed_skips_diverging_narma_drives():
    workload = workloads.build("landscape")
    first = int(np.random.SeedSequence([19, 0, 0]).generate_state(1)[0])
    with pytest.raises(ArithmeticError):
        _generate(workload, first)
    master = workloads.study_seed(workload, 19, 0)
    assert master != first
    _generate(workload, master)


def test_task_stream_matches_the_library():
    workload = workloads.build("landscape", tiny=True)
    master = workloads.study_seed(workload, 5, 0)
    result = run_grid_sweep(workload.inputs(master, 1))
    assert {r["task_seed"] for r in result.records} == {
        derive_seed(master, workloads.TASK_STREAM, t) for t in range(workload.trials)
    }
