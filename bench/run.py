"""Benchmark of the bscontrol CLI: three workloads, timed end to end.

    python3 bench/run.py --workload synth-default --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from `src/`.
Every task is one call of a CLI command (`cmd_synthesize`, `cmd_sweep` or
`cmd_diagnose`) made by one caller in a closed loop, with inputs drawn from
`--seed`; every task's output is checked.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, measured untraced; with
`--trace 1` they are the per-layer ones of `layertrace`, recorded by wrappers
installed from outside the package, plus the tracing overhead.

A run, untraced:
1. an untimed warm-up task on fixed inputs (run seed 12345, the CLI default);
2. tasks on seeded inputs until `--seconds` have passed and at least the
   workload's `min_tasks` are done; before each task, the `build_setup` calls
   that task makes are timed SETUP_SAMPLES times, so that the set-up samples
   spread over the whole run;
3. peak RSS is read.
The accuracy metrics come from one reference `cmd_synthesize` on fixed inputs
at the workload's grid, so they move neither with the seed nor with how many
tasks fit in the time; every task is still checked.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REFERENCE_SEED = 12345
SWEEP_AMPLITUDES = ("2.5e-4", "5e-4", "1e-3", "2e-3", "4e-3")
CONVERGED = ("converged", "converged_floor")
SETUP_SAMPLES = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "task_s": "s",
    "peak_rss_mb": "MB",
    "h0_quasi_max": "1",
    "fi_residual_max": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "synthesize", "sweep" or "carleman"
    cells: int
    steps: int
    min_tasks: int


# Why each workload, what it loads and what it bypasses: bench/workloads.json.
# A sweep task takes 10-15 s, so its floor of 3 tasks gives a median while a
# run stays under a minute.
WORKLOADS = {w.name: w for w in (
    Workload("synth-default", "synthesize", 64, 128, 5),
    Workload("sweep-128x256", "sweep", 128, 256, 3),
    Workload("carleman-64x128", "carleman", 64, 128, 5),
)}


def load_program():
    """Import the CLI module from the checkout's own sources."""
    if not (SRC / "bscontrol" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bscontrol sources under {SRC}")
    ncpu = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, ncpu)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bscontrol import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: bscontrol imported from {cli.__file__}, not {SRC}")
    return cli


def task_seeds(seed: int):
    """The run seeds of the timed tasks, drawn from the workload seed."""
    import numpy as np
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**31 - 1))


def task_config(cli, wl: Workload, run_seed: int, amplitude: str | None = None):
    cfg = cli.load_config(None, run_seed)
    cfg.raw["grid"]["cells"] = str(wl.cells)
    cfg.raw["time"]["steps"] = str(wl.steps)
    cfg.raw["source"]["family"] = "random_fourier"
    if amplitude is not None:
        cfg.raw["source"]["amplitude"] = amplitude
    return cfg


def run_command(cli, command: str, cfg, outdir: str):
    if command == "synthesize":
        return cli.cmd_synthesize(cfg, outdir)
    if command == "sweep":
        return cli.cmd_sweep(cfg, "amplitude", list(SWEEP_AMPLITUDES), outdir)
    return cli.cmd_diagnose(cfg, "carleman", outdir)


# --- correctness checks -----------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _nonfinite_strings(obj) -> list:
    if isinstance(obj, dict):
        return [s for v in obj.values() for s in _nonfinite_strings(v)]
    if isinstance(obj, list):
        return [s for v in obj for s in _nonfinite_strings(v)]
    if isinstance(obj, str) and obj.lower() in ("nan", "inf", "-inf", "infinity", "-infinity"):
        return [obj]
    return []


def check_synthesis(outdir: str) -> tuple[list, dict]:
    """Problems found in synthesis.json, and the parsed file."""
    with open(os.path.join(outdir, "synthesis.json")) as fh:
        data = json.loads(fh.read(), parse_constant=_reject_constant)
    problems = [f"non-finite string {s!r} in synthesis.json"
                for s in _nonfinite_strings(data)]
    if data["status"] not in CONVERGED:
        problems.append(f"synthesis status {data['status']}")
    for i, chk in enumerate(data["insensitivity"]):
        budget = chk["error_budget"]
        allowed = max(1e-6, 10 * budget["fd_truncation"] + budget["synthesis_residual"])
        if not chk["discrepancy"] <= allowed:
            problems.append(f"direction {i}: discrepancy {chk['discrepancy']:.3e} "
                            f"over budget {allowed:.3e}")
    return problems, data


def check_task(command: str, out, outdir: str) -> tuple[list, tuple | None]:
    """Problems with one task's output and, for a synthesis, its accuracy
    (quasilinear h(.,0) norm, scaled FI residual)."""
    if command == "synthesize":
        problems, data = check_synthesis(outdir)
        return problems, (data["h0_norm"]["quasilinear"], data["optimality_residual"])
    if command == "sweep":
        problems = [f"sweep {r['value']}: status {r['status']}"
                    for r in out if r["status"] not in CONVERGED]
        if [r["value"] for r in out] != list(SWEEP_AMPLITUDES):
            problems.append("sweep rows do not match the requested amplitudes")
        return problems, None
    problems = []
    if out.get("passed") is not True:
        problems.append("carleman check did not pass")
    for key in ("max_ratio_alpha", "max_ratio_beta"):
        if not math.isfinite(out[key]):
            problems.append(f"carleman {key} = {out[key]}")
    return problems, None


class Runner:
    """Runs and checks tasks, counting every attempt and failure."""

    def __init__(self, cli, wl: Workload, outroot: str):
        self.cli, self.wl, self.outroot = cli, wl, outroot
        self.attempted = 0
        self.failed = 0

    def task(self, run_seed: int, command: str | None = None):
        """Run one task of `command` (default: the workload's) on the workload's
        grid; return (wall seconds, accuracy), or None if it failed."""
        command = command or self.wl.command
        cfg = task_config(self.cli, self.wl, run_seed)
        outdir = tempfile.mkdtemp(dir=self.outroot)
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = run_command(self.cli, command, cfg, outdir)
            wall = time.perf_counter() - t0
            problems, accuracy = check_task(command, out, outdir)
        except Exception:
            traceback.print_exc()
            problems, wall, accuracy = ["raised"], None, None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"FAILED task {command} run seed {run_seed}: {'; '.join(problems)}",
                  file=sys.stderr)
            return None
        return wall, accuracy


def _setup_time(cli, wl: Workload, run_seed: int) -> float:
    """Wall time of the build_setup calls one task makes."""
    amps = SWEEP_AMPLITUDES if wl.command == "sweep" else (None,)
    cfgs = [task_config(cli, wl, run_seed, amp) for amp in amps]
    t0 = time.perf_counter()
    for cfg in cfgs:
        cli.build_setup(cfg)
    return time.perf_counter() - t0


def _timed_loop(seconds: float, min_tasks: int, seeds, body) -> None:
    start = time.perf_counter()
    done = 0
    while done < min_tasks or time.perf_counter() - start < seconds:
        body(next(seeds))
        done += 1


def _median(values: list) -> float:
    return statistics.median(values) if values else math.nan


def _describe(name: str, values: list) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name}: median {statistics.median(values):.6g} s, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def _warm_up(runner: Runner, wl: Workload):
    """The untimed first task, on fixed inputs.

    Where the workload synthesizes, the warm-up is the reference synthesis
    that also gives the accuracy metrics.  The carleman workload never
    touches fi or Newton, so it warms up on its own command and runs the
    reference synthesis after its peak RSS is read.
    """
    command = "carleman" if wl.command == "carleman" else "synthesize"
    res = runner.task(REFERENCE_SEED, command)
    if res is not None:
        print(f"warm-up task {command} {res[0]:.6g} s (untimed)")
    return res


def measure(cli, wl: Workload, seed: int, seconds: float, outroot: str) -> tuple[Runner, dict]:
    """Untraced run: the end-to-end metrics."""
    runner = Runner(cli, wl, outroot)
    reference = _warm_up(runner, wl)

    setup, times = [], []

    def one(run_seed):
        setup.extend(_setup_time(cli, wl, run_seed) for _ in range(SETUP_SAMPLES))
        res = runner.task(run_seed)
        if res is not None:
            times.append(res[0])

    _timed_loop(seconds, wl.min_tasks, task_seeds(seed), one)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if wl.command == "carleman":
        reference = runner.task(REFERENCE_SEED, "synthesize")
    print(_describe("setup_s", setup))
    print(_describe("task_s", times))
    h0_quasi, fi_residual = reference[1] if reference is not None else (math.nan, math.nan)
    return runner, {
        "setup_s": statistics.median(setup),
        "task_s": _median(times),
        "peak_rss_mb": peak_rss_mb,
        "h0_quasi_max": h0_quasi,
        "fi_residual_max": fi_residual,
    }


def trace(cli, wl: Workload, seed: int, seconds: float, outroot: str) -> tuple[Runner, dict]:
    """Traced run: per-layer metrics and the tracing overhead.

    Each seeded task runs once untraced and once traced.  Times are medians
    over the traced tasks; counts are those of the first traced task, which is
    replayed at the end to check that its exact counts repeat.
    """
    import layertrace
    tracer = layertrace.Tracer()
    runner = Runner(cli, wl, outroot)
    _warm_up(runner, wl)
    untraced, traced, layers = [], [], []

    def traced_task(run_seed):
        with tracer.installed():
            res = runner.task(run_seed)
        return res, tracer.task_metrics()

    def pair(run_seed):
        res = runner.task(run_seed)
        if res is not None:
            untraced.append(res[0])
        res, metrics = traced_task(run_seed)
        layers.append(metrics)
        if res is not None:
            traced.append(res[0])

    seeds = task_seeds(seed)
    first = next(seeds)
    _timed_loop(seconds, MIN_TRACED_PAIRS, itertools.chain([first], seeds), pair)
    _, replay = traced_task(first)

    out = {name: layers[0][name] if layertrace.unit(name) == "count"
           else _median([m[name] for m in layers]) for name in layers[0]}
    drift = [name for name in layertrace.EXACT_COUNTS if replay[name] != out[name]]
    for name in layertrace.EXACT_COUNTS:
        print(f"count {name} = {out[name]}")
    for name in drift:
        print(f"DRIFT {name}: {out[name]} then {replay[name]} on the same task")
    print(_describe("traced task_s", traced))
    print(_describe("untraced task_s", untraced))
    out.update({
        "trace.task_s": _median(traced),
        "trace.untraced_task_s": _median(untraced),
        "trace.overhead_s": _median(traced) - _median(untraced),
        "trace.count_drift": len(drift),
    })
    return runner, out


def _finite_or_none(value):
    """A metric nothing measured (every task failed) is null, never NaN."""
    return value if math.isfinite(value) else None


def run(cli, wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    outroot = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch)
    try:
        if traced:
            import layertrace
            runner, values = trace(cli, wl, seed, seconds, outroot)
            units = {name: layertrace.unit(name) for name in values}
        else:
            runner, values = measure(cli, wl, seed, seconds, outroot)
            units = END_TO_END
    finally:
        shutil.rmtree(outroot, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": _finite_or_none(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = load_program()
    result = run(cli, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
