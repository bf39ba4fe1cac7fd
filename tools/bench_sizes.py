"""One default `synthesize` or `diagnose --which carleman` per grid size,
each in its own process.

    python3 tools/bench_sizes.py --label change --out BENCH_x.json
    python3 tools/bench_sizes.py --src ../parent/src --label parent --out BENCH_x.json
    python3 tools/bench_sizes.py --command carleman --label change --out BENCH_y.json
    python3 tools/bench_sizes.py --sizes 64x128,128x256 --label change --out BENCH_x.json

For each size in `--sizes` (cells x steps, default SIZES) a fresh
interpreter imports bscontrol from `--src`, runs the command on the default
config with `[grid] cells` and `[time] steps` set, and prints one JSON
record.  For `synthesize`
(`cmd_synthesize`) the record holds:

- `wall_s`: the whole `cmd_synthesize` call (setup, outer loop, check, output);
- `factorize_s`, `lu_nnz`: time and L+U fill of each `splu` call, summed;
- `trisolves`, `trisolve_s`: calls and time of the factor's `solve`;
- `solves`: calls of `FISolver.solve`;
- `peak_rss_mb`: the process's peak resident set, so one value per size;
- `status`, `iterations`, `increments`, `h0_quasilinear`,
  `optimality_residual`, `backward_error`: copied from the report.

For `carleman` (`cmd_diagnose` with `which="carleman"`, 50 adjoint cascades)
it holds `wall_s`, `peak_rss_mb`, and `max_ratio_alpha` and
`max_ratio_beta` copied from the report.

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


def measure_synthesize(cells: int, steps: int) -> dict:
    """One default synthesize at cells x steps in this process."""
    from bscontrol import fi
    from bscontrol.cli import cmd_synthesize

    stats = {"factorize_s": 0.0, "trisolves": 0, "trisolve_s": 0.0, "solves": 0}
    factors = []
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
    cfg = _config(cells, steps)
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        summary = cmd_synthesize(cfg, out)
        wall = time.perf_counter() - t0
    # read before `lu.L` and `lu.U`, which build copies of the whole factor
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"size": f"{cells}x{steps}", "wall_s": wall, **stats,
            "lu_nnz": sum(lu.L.nnz + lu.U.nnz for lu in factors),
            "peak_rss_mb": peak_rss_mb,
            "status": summary["status"], "iterations": summary["iterations"],
            "increments": summary["increments"],
            "h0_quasilinear": summary["h0_norm"]["quasilinear"],
            "optimality_residual": summary["optimality_residual"],
            "backward_error": summary["fi"]["backward_error"]}


def measure_carleman(cells: int, steps: int) -> dict:
    """One default carleman diagnosis at cells x steps in this process."""
    from bscontrol.cli import cmd_diagnose
    cfg = _config(cells, steps)
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        rep = cmd_diagnose(cfg, "carleman", out)
        wall = time.perf_counter() - t0
    return {"size": f"{cells}x{steps}", "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "max_ratio_alpha": rep["max_ratio_alpha"],
            "max_ratio_beta": rep["max_ratio_beta"]}


MEASURES = {"synthesize": measure_synthesize, "carleman": measure_carleman}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the bscontrol package")
    ap.add_argument("--command", choices=tuple(MEASURES), default="synthesize",
                    help="what to run at each size")
    ap.add_argument("--sizes", default=",".join(SIZES),
                    help="comma-separated cells x steps sizes (default: all of SIZES)")
    ap.add_argument("--label", required=True, help="key of these runs in --out")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.one:
        cells, steps = (int(v) for v in args.one.split("x"))
        sys.path.insert(0, src)
        print(json.dumps(MEASURES[args.command](cells, steps)))
        return 0

    records = []
    for size in args.sizes.split(","):
        proc = subprocess.run(
            [sys.executable, __file__, "--src", src, "--command", args.command,
             "--label", args.label, "--out", args.out, "--one", size],
            check=True, capture_output=True, text=True)
        records.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps(records[-1]), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
        "command": args.command, "records": records}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
