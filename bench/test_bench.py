"""Self-test of the benchmark on a tiny grid.

    python3 -m pytest bench

Runs every workload once untraced and once traced on a 32x64 grid and checks
that each metric BENCHMARK.json names is emitted with its unit, that tracing
restores every name it patches, and that an untraced run never imports the
tracing module.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"cells": 32, "steps": 64, "min_tasks": 1}


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def test_spec_names_the_runner_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(cli, name, traced):
    wl = dataclasses.replace(run.WORKLOADS[name], **TINY)
    result = run.run(cli, wl, seed=1, seconds=0, traced=traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if traced:
        assert result["metrics"]["trace.count_drift"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def _bindings():
    from bscontrol.fi import FISolver
    names = {(m, k): v for m, mod in sys.modules.items()
             if m == "bscontrol" or m.startswith("bscontrol.")
             for k, v in vars(mod).items()}
    names.update({("FISolver", k): v for k, v in vars(FISolver).items()})
    return names


def test_tracing_restores_every_patched_name(cli):
    import layertrace
    before = _bindings()
    with layertrace.Tracer().installed():
        during = _bindings()
    after = _bindings()
    patched = {k for k in before if during[k] is not before[k]}
    assert {("bscontrol.cli", "build_setup"), ("bscontrol.solvers", "solve_banded"),
            ("bscontrol.fi", "splu"), ("FISolver", "solve")} <= patched
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_imports_no_tracing():
    code = ("import dataclasses, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "wl = dataclasses.replace(run.WORKLOADS['synth-default'], "
            "cells=32, steps=64, min_tasks=1); "
            "run.run(run.load_program(), wl, 1, 0, False); "
            "print('layertrace' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("bad", ["NaN", '"nan"', "Infinity"])
def test_synthesis_json_must_be_strict(tmp_path, bad):
    text = ('{"status": "converged", "insensitivity": [], '
            f'"h0_norm": {{"quasilinear": {bad}}}, "optimality_residual": 0.1}}')
    (tmp_path / "synthesis.json").write_text(text)
    try:
        problems, _ = run.check_synthesis(str(tmp_path))
    except ValueError:
        problems = ["rejected"]
    assert problems
