"""One default `synthesize` or `diagnose --which carleman` per grid size,
each in its own process.

    python3 tools/bench_sizes.py --label change --out BENCH_x.json
    python3 tools/bench_sizes.py --src ../parent/src --label parent --out BENCH_x.json
    python3 tools/bench_sizes.py --command carleman --label change --out BENCH_y.json
    python3 tools/bench_sizes.py --sizes 64x128,128x256 --repeat 5 --label change --out BENCH_x.json

For each size in `--sizes` (cells x steps, default SIZES) a fresh
interpreter imports bscontrol from `--src`, runs the command on the default
config with `[grid] cells` and `[time] steps` set, once untimed as a
warm-up and then `--repeat` K times, and prints one JSON record.  Every
record holds:

- `wall_s`: the median over the K tasks of the whole command call (setup,
  solves, output);
- `setup_s`: the median of K timed `build_setup` calls on the same config,
  made after the tasks;
- `peak_rss_mb`: the process's peak resident set, read after the tasks and
  the set-up calls, so one value per size.

For `synthesize` (`cmd_synthesize`) it also holds:

- `factorize_s`, `lu_nnz`: time and L+U fill of each `splu` call, summed per
  task (the time a median over the K tasks);
- `trisolves`, `trisolve_s`: calls and time of the factor's `solve`, per
  task (the time a median);
- `solves`: calls of `FISolver.solve` per task;
- `status`, `iterations` (the chord's steps), `projection` (the chord's
  h(.,0) before and after, its scale, the k modes it cancelled, their
  singular values, the modes it left and the relative control change), `h0_quasilinear`, `optimality_residual`,
  `backward_error`: copied from the last report.

For `carleman` (`cmd_diagnose` with `which="carleman"`, 50 adjoint cascades)
it holds `max_ratio_alpha` and `max_ratio_beta` copied from the last report.

The factor is counted by wrapping `bscontrol.fi.splu` from outside, so the
script runs unchanged against any checkout.  Records are stored under
`runs[label]` of `--out`; the other labels already in that file are kept,
so that two checkouts can share one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the three fixed benchmark sizes, and 32x64 for a quick first row
SIZES = ("32x64", "64x128", "128x256", "256x512")


class _CountedFactor:
    """A SuperLU factor whose `solve` calls are counted and timed."""

    def __init__(self, lu, stats: dict):
        self._lu = lu
        self._stats = stats

    def solve(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._stats["trisolve_s"] += time.perf_counter() - t0
            self._stats["trisolves"] += 1


def _config(cells: int, steps: int):
    from bscontrol.cli import load_config
    cfg = load_config(None)
    cfg.raw["grid"]["cells"] = str(cells)
    cfg.raw["time"]["steps"] = str(steps)
    return cfg


def measure_synthesize(cfg):
    """A task that runs one synthesize on `cfg` in this process and returns
    its record, and the list that holds the last task's factors."""
    from bscontrol import fi
    from bscontrol.cli import cmd_synthesize

    stats, factors = {}, []
    splu, solve = fi.splu, fi.FISolver.solve

    def counted_splu(*args, **kwargs):
        t0 = time.perf_counter()
        lu = splu(*args, **kwargs)
        stats["factorize_s"] += time.perf_counter() - t0
        factors.append(lu)
        return _CountedFactor(lu, stats)

    def counted_solve(*args, **kwargs):
        stats["solves"] += 1
        return solve(*args, **kwargs)

    fi.splu = counted_splu
    fi.FISolver.solve = counted_solve

    def task():
        stats.update(factorize_s=0.0, trisolves=0, trisolve_s=0.0, solves=0)
        factors.clear()
        with tempfile.TemporaryDirectory() as out:
            t0 = time.perf_counter()
            summary = cmd_synthesize(cfg, out)
            wall = time.perf_counter() - t0
        return {"wall_s": wall, **stats,
                "status": summary["status"], "iterations": summary["iterations"],
                "projection": summary.get("projection"),
                "h0_quasilinear": summary["h0_norm"]["quasilinear"],
                "optimality_residual": summary["optimality_residual"],
                "backward_error": summary["fi"]["backward_error"]}
    return task, factors


def measure_carleman(cfg):
    """A task that runs one carleman diagnosis on `cfg` in this process,
    and no factors."""
    from bscontrol.cli import cmd_diagnose

    def task():
        with tempfile.TemporaryDirectory() as out:
            t0 = time.perf_counter()
            rep = cmd_diagnose(cfg, "carleman", out)
            wall = time.perf_counter() - t0
        return {"wall_s": wall, "max_ratio_alpha": rep["max_ratio_alpha"],
                "max_ratio_beta": rep["max_ratio_beta"]}
    return task, []


MEASURES = {"synthesize": measure_synthesize, "carleman": measure_carleman}


def measure(command: str, cells: int, steps: int, repeat: int) -> dict:
    """One untimed warm-up task, `repeat` timed ones and `repeat` timed
    `build_setup` calls at cells x steps, in this process: the median of
    each time (`*_s`), the other fields of the last task."""
    from bscontrol.cli import build_setup
    cfg = _config(cells, steps)
    task, factors = MEASURES[command](cfg)
    task()
    runs = [task() for _ in range(repeat)]
    setup = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        build_setup(cfg)
        setup.append(time.perf_counter() - t0)
    # read before `lu.L` and `lu.U`, which build copies of the whole factor
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = runs[-1]
    record.update({key: statistics.median(r[key] for r in runs)
                   for key in record if key.endswith("_s")})
    if command == "synthesize":
        record["lu_nnz"] = sum(lu.L.nnz + lu.U.nnz for lu in factors)
    return {"size": f"{cells}x{steps}", **record,
            "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the bscontrol package")
    ap.add_argument("--command", choices=tuple(MEASURES), default="synthesize",
                    help="what to run at each size")
    ap.add_argument("--sizes", default=",".join(SIZES),
                    help="comma-separated cells x steps sizes (default: all of SIZES)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="timed tasks and set-up calls per size, after one "
                         "untimed warm-up task (default 1)")
    ap.add_argument("--label", required=True, help="key of these runs in --out")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error(f"--repeat {args.repeat}: must be >= 1")
    src = os.path.abspath(args.src)
    if args.one:
        cells, steps = (int(v) for v in args.one.split("x"))
        sys.path.insert(0, src)
        print(json.dumps(measure(args.command, cells, steps, args.repeat)))
        return 0

    records = []
    for size in args.sizes.split(","):
        proc = subprocess.run(
            [sys.executable, __file__, "--src", src, "--command", args.command,
             "--repeat", str(args.repeat), "--label", args.label,
             "--out", args.out, "--one", size],
            check=True, capture_output=True, text=True)
        records.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps(records[-1]), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
        "command": args.command, "repeat": args.repeat, "records": records}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
