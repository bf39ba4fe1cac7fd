"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run():
    assert DEMOS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the demos are independent, so they run side by side
    procs = {demo.name: subprocess.Popen(
        [sys.executable, str(demo)], env=env, cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for demo in DEMOS}
    failed = {}
    try:
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=300)
            if proc.returncode != 0:
                failed[name] = err[-2000:]
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert not failed, failed
