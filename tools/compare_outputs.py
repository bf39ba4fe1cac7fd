"""Check that two source trees give byte-identical CLI and demo outputs.

    python3 tools/compare_outputs.py --parent ../parent/src --change src

Each command of COMMANDS, and each script in this checkout's `demos/`, runs
once per tree, each time in a fresh interpreter (`python3 -m bscontrol` or
`python3 demos/<script>`, with that tree first on PYTHONPATH) in its own
output directory.  A tree runs its own copy of a demo (`<tree>/../demos`)
where it has one, so a demo that follows a change of the package's API is
compared with the parent's demo on the parent's package.  The two runs must
agree on the exit code, stdout, stderr, the set of output files and every
file's bytes, apart from the `wall_seconds` line of the JSON reports, their
only non-deterministic field.

Prints one line per command and the first SHOWN lines of each file's
diff, with a count of the lines it leaves out, then each tree's
`wc -l bscontrol/*.py`, and exits 1 on any difference, 0 otherwise.
The 28 commands cover every CLI command: both exits of the chord on
h(.,0) (`converged` on every run that exits 0, in 4 steps at amplitude 1,
and exit 3 at amplitude 1e3, where the first step grows ||h(.,0)||), a
non-dyadic time step (8/100, where the other runs' dt are powers of two),
a synthesis with each coefficient preset other than the default logistic
one, a zero source (the least-squares solve's zero-source return), three
configurations that exit 2 (disjoint masks, masks too thin for the grid,
m below its threshold), so their messages are compared through stderr,
factor reuse across an amplitude sweep, a random_fourier amplitude
sweep on seed 8, whose rows keep one mode (k = 1) because cancelling the
second would cost more than the chord's cap allows, a grid sweep that
replaces the bundle and its cached solver mid-run, a lambda sweep whose
second value fails validation (its CSV row carries the error message,
commas included), a theta_s sweep through 0 (no surface coupling in the
least-squares stack), and all four diagnostic suites, the carleman check
also at 128x256; demo 03 is the only caller of `galerkin_check` and
`cascade_residual_check` outside the tests.
Both trees together take about 40 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RANDOM_FOURIER = {"source": {"family": "random_fourier"}}

# (name, CLI arguments, config sections that differ from the defaults)
COMMANDS = (
    ("synthesize gaussian 64x128", ["synthesize"], {}),
    ("synthesize random_fourier 64x128", ["synthesize"], RANDOM_FOURIER),
    ("synthesize random_fourier 128x256", ["synthesize"],
     {**RANDOM_FOURIER, "grid": {"cells": "128"}, "time": {"steps": "256"}}),
    # dt = 8/100 is not dyadic, so a product with dt regrouped in the
    # least-squares right-hand side changes its last bits, and with them
    # the chord's trajectory; every other dt here is dyadic
    ("synthesize random_fourier 64x100", ["synthesize"],
     {**RANDOM_FOURIER, "time": {"steps": "100"}}),
    ("synthesize amplitude 1 32x64", ["synthesize"],
     {"source": {"amplitude": "1"}, "grid": {"cells": "32"},
      "time": {"steps": "64"}}),
    ("synthesize amplitude 1e3 32x64", ["synthesize"],
     {"source": {"amplitude": "1e3"}, "grid": {"cells": "32"},
      "time": {"steps": "64"}}),
    # every other run uses the default logistic coefficients; these reach
    # the Newton step Jacobian's dsigma terms of the other presets
    *((f"synthesize {preset} 32x64", ["synthesize"],
       {"coefficients": {"preset": preset}, "grid": {"cells": "32"},
        "time": {"steps": "64"}})
      for preset in ("constant", "affine", "polynomial")),
    ("synthesize zero 32x64", ["synthesize"],
     {"source": {"family": "zero"}, "grid": {"cells": "32"},
      "time": {"steps": "64"}}),
    # each exits 2 with a message naming what it violates
    ("synthesize disjoint masks (A3)", ["synthesize"],
     {"masks": {"omega": "0.1,0.2", "obs_bulk": "0.8,0.9"}}),
    ("synthesize masks too thin at 8 cells", ["synthesize"],
     {"grid": {"cells": "8"}}),
    ("synthesize m below its threshold", ["synthesize"],
     {"weights": {"m": "1.5"}}),
    ("sweep amplitude", ["sweep", "--parameter", "amplitude",
                         "--values", "5e-4,1e-3,2e-3"], {}),
    # on seed 8's random_fourier source the chord's cap leaves mode 2
    ("sweep amplitude random_fourier seed 8",
     ["sweep", "--parameter", "amplitude", "--values", "1e-3,2e-3", "--seed", "8"],
     RANDOM_FOURIER),
    ("sweep N", ["sweep", "--parameter", "N", "--values", "32,48"], {}),
    ("sweep lambda", ["sweep", "--parameter", "lambda", "--values", "1,160"], {}),
    ("sweep theta_s", ["sweep", "--parameter", "theta_s", "--values", "0,0.5"], {}),
    *((f"diagnose carleman seed {seed}",
       ["diagnose", "--which", "carleman", "--seed", str(seed)], {})
      for seed in (1, 7, 12345)),
    # the carleman check marches its adjoint cascades in stacks, of 8 at
    # 64x128 and of 2 at 128x256: a second stack width of the backward march
    ("diagnose carleman 128x256", ["diagnose", "--which", "carleman"],
     {"grid": {"cells": "128"}, "time": {"steps": "256"}}),
    *((f"diagnose {suite}", ["diagnose", "--which", suite], {})
      for suite in ("duality", "estimates", "convergence")),
)

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# lines of each diff shown per file
SHOWN = 20


def _config_text(sections: dict) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


def run(src: Path, args: list[str], out: Path) -> dict:
    """`python3 args` in a fresh interpreter working in `out`: exit code,
    stdout, stderr and the bytes of every output file, keyed by its path
    under `out`."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          cwd=out)
    result = {"exit code": str(proc.returncode).encode(),
              "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            lines = path.read_bytes().splitlines(keepends=True)
            result[str(path.relative_to(out))] = b"".join(
                ln for ln in lines if b'"wall_seconds":' not in ln)
    return result


def differences(parent: dict, change: dict) -> list[str]:
    """A readable diff of every entry that differs between two runs."""
    out = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            out.append(f"  {key}: only in {'parent' if key in parent else 'change'}")
        elif parent[key] != change[key]:
            diff = difflib.unified_diff(
                parent[key].decode(errors="replace").splitlines(),
                change[key].decode(errors="replace").splitlines(),
                "parent", "change", lineterm="")
            lines = list(diff)
            out.append(f"  {key}:")
            out.extend(f"    {line}" for line in lines[:SHOWN])
            if len(lines) > SHOWN:
                out.append(f"    ... {len(lines) - SHOWN} more diff lines")
    return out


def _own_demo(tree: Path, arg):
    """A demo script as `tree`'s checkout has it, else as this one has it;
    any other argument as it is."""
    if not isinstance(arg, Path):
        return arg
    own = tree.parent / "demos" / arg.name
    return str(own if own.is_file() else arg)


def _line_count(src: Path) -> int:
    """The total of `wc -l bscontrol/*.py` in a source tree."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "bscontrol").glob("*.py"))


def _source_tree(path: str) -> Path:
    src = Path(path).resolve()
    if not (src / "bscontrol" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{path}: no bscontrol package in it")
    return src


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=_source_tree,
                    help="source tree (the directory holding bscontrol/) to compare against")
    ap.add_argument("--change", required=True, type=_source_tree,
                    help="source tree under test")
    args = ap.parse_args(argv)

    jobs = [(name, ["-m", "bscontrol", *cli_args, "--out", "."], sections)
            for name, cli_args, sections in COMMANDS]
    jobs += [(f"demo {demo.name}", [demo], {}) for demo in DEMOS]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, argv, sections) in enumerate(jobs):
            work = Path(tmp) / str(i)
            work.mkdir()
            if sections:
                config = work / "run.ini"
                config.write_text(_config_text(sections))
                argv = [*argv, "--config", str(config)]
            parent, change = (run(tree, [_own_demo(tree, a) for a in argv], work / side)
                              for tree, side in ((args.parent, "parent"),
                                                 (args.change, "change")))
            diff = differences(parent, change)
            failed += bool(diff)
            print(f"{'DIFF' if diff else 'same'}  {name} "
                  f"(exit {parent['exit code'].decode()}, {len(parent) - 3} files)")
            for line in diff:
                print(line)
    print(f"{failed} of {len(jobs)} commands differ")
    print(f"bscontrol/*.py lines: parent {_line_count(args.parent):,}, "
          f"change {_line_count(args.change):,}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
