import csv
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from bscontrol import fi, insensitize, solvers
from bscontrol.cli import (DEFAULTS, RunConfig, build_setup, cmd_diagnose,
                           cmd_sweep, cmd_synthesize, load_config, main)
from bscontrol.errors import ConfigurationError
from bscontrol.geometry import build_grid, build_masks
from bscontrol.weights import admissible_time_profile, build_eta
from bscontrol.insensitize import synthesize


def _small_config():
    cfg = load_config(None)
    cfg.raw["grid"]["cells"] = "32"
    cfg.raw["time"]["steps"] = "64"
    return cfg


def _env_with_src() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a
    fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def _count_calls(monkeypatch, module, name):
    """Wrap `module.name` so that every call appends to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None)
    assert cfg.get("coefficients", "preset") == "logistic"
    path = tmp_path / "run.cfg"
    path.write_text("[grid]\ncells = 32\n[run]\nseed = 7\n")
    cfg = load_config(str(path))
    assert cfg.geti("grid", "cells") == 32
    assert cfg.seed == 7
    cfg = load_config(str(path), seed_override=99)
    assert cfg.seed == 99


def test_load_config_rejects_unknown(tmp_path):
    path = tmp_path / "bad.cfg"
    # all but the first two name an option that no longer exists: setting
    # one must fail, not be ignored
    for text in ("[grid]\nspacing = 0.1\n", "[warp]\nfactor = 2\n",
                 "[solver]\ncg_tol = 1e-10\n", "[solver]\ncg_max_iter = 100\n",
                 "[solver]\nnewton_tol = 1e-11\n", "[weights]\nrho_clip = 700\n",
                 "[solver]\nloop_tol = 1e-9\n", "[solver]\nmax_outer = 30\n",
                 "[weights]\neta_peak = 0.5\n"):
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_config(str(path))


def test_every_config_key_is_read(monkeypatch):
    """Each key of DEFAULTS is read by a run, over the three source
    families: a key that no run reads is an option that does nothing."""
    read = set()
    for name in ("get", "getf", "geti", "interval"):
        def recorded(self, section, key, _getter=getattr(RunConfig, name)):
            read.add((section, key))
            return _getter(self, section, key)
        monkeypatch.setattr(RunConfig, name, recorded)
    for family in ("zero", "gaussian", "random_fourier"):
        cfg = _small_config()
        cfg.raw["source"]["family"] = family
        build_setup(cfg)
    assert read == {(section, key) for section, keys in DEFAULTS.items()
                    for key in keys}


def test_eta_peak_follows_the_masks(tmp_path):
    """Masks away from the centre need no other setting: eta peaks at the
    midpoint of omega1, here (0.21, 0.44), and the synthesis runs."""
    path = tmp_path / "shifted.cfg"
    path.write_text("[masks]\nomega = 0.1,0.55\nobs_bulk = 0.15,0.5\n")
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path)]) == 0
    bundle, _ = build_setup(load_config(str(path)))
    g, (lo, hi) = bundle.grid, bundle.masks.omega1
    assert (lo + hi) / 2 == pytest.approx(0.325)
    eta = build_eta(g, bundle.masks)
    assert np.argmax(eta.values) == np.argmin(np.abs(g.x - (lo + hi) / 2))
    # with omega1 = (0.36, 0.42) every peak across omega1 leaves eta too
    # flat outside it: a configuration error that names the masks
    path.write_text("[masks]\nomega = 0.28,0.9\nobs_bulk = 0.3,0.48\n")
    with pytest.raises(ConfigurationError, match=r"\[masks\] omega = .* gradient floor"
                       r".* no other peak across omega1 passes"):
        build_setup(load_config(str(path)))


@pytest.mark.parametrize("omega, obs_bulk, omega1", [
    ((0.02, 0.5), (0.02, 0.2), (0.08, 0.14)),
    ((0.1, 0.9), (0.05, 0.3), (0.16, 0.24))])
def test_eta_peak_searched_across_omega1(tmp_path, omega, obs_bulk, omega1):
    """Masks whose omega1 fails at its midpoint but passes off it: the
    profile peaked at the midpoint is too flat outside omega1, so the peak
    moves to the first passing point nearest the midpoint, and the
    synthesis runs (128 cells).  At 64 cells `build_masks` refuses them:
    omega3 lies one margin, 0.02, inside omega at the end the two regions
    share, and chi's ramp needs 2h = 0.03125."""
    with pytest.raises(ConfigurationError, match=r"ramp widths .* < 2h = 0.03125"):
        build_masks(build_grid(1.0, 64), omega, obs_bulk, {"left", "right"}, 0.02)
    g = build_grid(1.0, 128)
    masks = build_masks(g, omega, obs_bulk, {"left", "right"}, 0.02)
    lo, hi = masks.omega1
    assert (lo, hi) == pytest.approx(omega1)
    eta = build_eta(g, masks)
    assert eta.floor >= eta.floor_required
    peak = np.argmax(eta.values)
    assert lo < g.x[peak] < hi
    assert peak != np.argmin(np.abs(g.x - (lo + hi) / 2))
    path = tmp_path / "masks.cfg"
    path.write_text(f"[masks]\nomega = {omega[0]},{omega[1]}\n"
                    f"obs_bulk = {obs_bulk[0]},{obs_bulk[1]}\n[grid]\ncells = 128\n")
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path)]) == 0
    path.write_text(path.read_text().replace("cells = 128", "cells = 64"))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_config_hash_seed_sensitivity(tmp_path):
    a = load_config(None)
    b = load_config(None, seed_override=1)
    assert a.hash() != b.hash()


SMALL_GRID = "[grid]\ncells = 32\n[time]\nsteps = 64\n"

# (config text or bytes or CLI flags, expected exit code)
BAD_INPUTS = (
    ("[masks]\nomega = 0.1,0.2\nobs_bulk = 0.8,0.9\n", 2),
    ("[masks]\nomega = 0.25,abc\n", 2), ("[run]\nseed = xyz\n", 2),
    ("[source]\namplitude = nan\n", 2), ("[source]\namplitude = inf\n", 2),
    ("[functional]\ntheta = 0\n", 2), ("[functional]\ntheta_s = -1\n", 2),
    ("[solver]\nmax_outer = 0\n", 2), ("[solver]\nloop_tol = -1\n", 2),
    ("[source]\nwidth = 0\n", 2),
    ("[source]\nwidth = 1e-300\n", 2), ("[weights]\neta_peak = -1\n", 2),
    ("[weights]\neta_peak = 2\n", 2), ("[weights]\neta_peak = 0.42\n", 2),
    ("[weights]\neta_peak = 0.58\n", 2), ("[weights]\neta_peak = 0.59\n", 2),
    ("[run]\nseed = -1\n", 2), ("--seed -1", 2),
    # --out names a regular file, or a path under one
    ("--out {file}", 2), ("--out {file}/sub", 2),
    ("[weights]\nlambda = 160\n", 2), ("[weights]\nlambda = 710\n", 2),
    ("[time]\nhorizon = 1e160\n", 2), ("[source]\namplitude = 1e308\n", 2),
    ("[time]\nsteps = 64\n[time]\nsteps = 32\n", 2),
    ("[time]\nsteps = 64\nsteps = 32\n", 2), ("steps = 64\n", 2),
    ("[weights]\nlambda = 154\n", 2),
    # m below m_threshold(lambda); omega & obs_bulk too thin for 8 cells
    ("[weights]\nm = 1.5\n", 2), ("[grid]\ncells = 8\n", 2),
    ("[weights]\nlambda = 154\n" + SMALL_GRID, 2),
    # not UTF-8, '%' taken for interpolation, keys under [DEFAULT]
    (b"\xff\xfe[grid]\ncells = 32\n", 2), ("[source]\nfamily = gaus%sian\n", 2),
    ("[source]\nfamily = %(x)s\n", 2), ("[DEFAULT]\nsteps = 9999\ncells = 7\n", 2),
    # no live dof carries the source
    ("[functional]\ntheta = 1e20\n", 4), ("[functional]\ntheta = 1e308\n", 4),
    ("[functional]\ntheta_s = 1e20\n", 4),
    # the recovered fields overflow
    ("[source]\namplitude = 1e10\n" + SMALL_GRID, 4),
    ("[source]\namplitude = 1e20\n" + SMALL_GRID, 4),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_validation(tmp_path):
    """Every malformed input exits with its documented code, with no
    traceback and no warning."""
    path = tmp_path / "bad.cfg"
    path.touch()
    for text, code in BAD_INPUTS:
        args = ["synthesize", "--out", str(tmp_path)]
        if isinstance(text, str) and text.startswith("--"):
            args += text.format(file=path).split()
        else:
            path.write_bytes(text.encode() if isinstance(text, str) else text)
            args += ["--config", str(path)]
        assert main(args) == code, text


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_amplitude_no_overflow_warning(tmp_path):
    """The logistic derivatives take their limit 0 where cosh(r)^2
    overflows, with no numpy warning."""
    path = tmp_path / "big.cfg"
    path.write_text("[source]\namplitude = 1e5\n" + SMALL_GRID)
    main(["synthesize", "--config", str(path), "--out", str(tmp_path)])


def test_sweep_rejects_unknown_parameter(tmp_path):
    rc = main(["sweep", "--parameter", "viscosity", "--values", "1,2",
               "--out", str(tmp_path)])
    assert rc == 2


def test_zero_source_synthesize(tmp_path):
    """A zero source and a tiny one (whose 2-norms underflow) both run to
    strict JSON with a finite backward error."""
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    path = tmp_path / "src.cfg"
    for source in ("family = zero", "amplitude = 1e-300"):
        path.write_text(f"[source]\n{source}\n[grid]\ncells = 32\n"
                        "[time]\nsteps = 32\n")
        rc = main(["synthesize", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0, source
        summary = json.loads((tmp_path / "synthesis.json").read_text(),
                             parse_constant=reject)
        assert math.isfinite(summary["fi"]["backward_error"]), source
        if source == "family = zero":
            assert summary["h0_norm"]["quasilinear"] == 0.0
            assert summary["status"] == "converged"
            # log-norms of the zero field are -inf, written as null
            assert summary["log_y_norm_sq"] is None


def _product_oracle_bulk(cfg, bundle):
    """The source samples as `amp * prof[:, None] * shape[None, :]`, with
    each family's shape written out again."""
    g, x = bundle.grid, bundle.grid.x
    family = cfg.get("source", "family")
    if family == "zero":
        shape = np.zeros_like(x)
    elif family == "gaussian":
        c0, wd = cfg.getf("source", "center"), cfg.getf("source", "width")
        shape = np.exp(-0.5 * ((x - c0) / wd) ** 2)
    else:
        rng = np.random.default_rng(cfg.seed)
        shape = np.zeros_like(x)
        for k in range(1, 5):
            shape += rng.standard_normal() / k * np.cos(np.pi * k * x / g.length
                                                        + rng.uniform(0, 2 * np.pi))
    prof = admissible_time_profile(bundle.tables)
    return cfg.getf("source", "amplitude") * prof[:, None] * shape[None, :]


@pytest.mark.parametrize("family", ["gaussian", "random_fourier", "zero"])
@pytest.mark.parametrize("cells, steps", [(32, 64), (64, 128)])
def test_build_source_matches_product_oracle(family, cells, steps):
    """build_source writes its samples in place with the bits of the
    full-size product expression, and fills slice 0 and the surface."""
    cfg = load_config(None)
    cfg.raw["grid"]["cells"], cfg.raw["time"]["steps"] = str(cells), str(steps)
    cfg.raw["source"]["family"] = family
    bundle, F = build_setup(cfg)
    want = _product_oracle_bulk(cfg, bundle)
    assert np.array_equal(F.bulk[1:], want)
    assert np.all(F.bulk[0] == 0) and np.all(F.surface[0] == 0)
    assert np.array_equal(F.surface[1:], want[:, [0, -1]])


def test_determinism_bit_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    cfgp = tmp_path / "small.cfg"
    cfgp.write_text("[grid]\ncells = 32\n[time]\nsteps = 64\n")
    assert main(["synthesize", "--config", str(cfgp), "--out", str(out1)]) == 0
    assert main(["synthesize", "--config", str(cfgp), "--out", str(out2)]) == 0
    for name in ("iterations.csv", "weights.csv", "tau_ladders.csv",
                 "trajectory.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    j1 = json.loads((out1 / "synthesis.json").read_text())
    j2 = json.loads((out2 / "synthesis.json").read_text())
    j1.pop("wall_seconds")
    j2.pop("wall_seconds")
    assert j1 == j2


def test_diagnose_duality_passes(tmp_path):
    cfg = load_config(None)
    cfg.raw["grid"]["cells"] = "32"
    cfg.raw["time"]["steps"] = "32"
    out = cmd_diagnose(cfg, "duality", str(tmp_path))
    assert out["passed"]
    assert (tmp_path / "diagnose_duality.json").exists()


def test_diagnose_unknown_suite(tmp_path):
    """An unknown suite is a configuration error, and the retired gradient
    suite is unknown: `python -m bscontrol diagnose --which gradient`
    exits 2."""
    cfg = load_config(None)
    for which in ("entropy", "gradient"):
        with pytest.raises(ConfigurationError):
            cmd_diagnose(cfg, which, str(tmp_path))
    out = subprocess.run([sys.executable, "-m", "bscontrol", "diagnose", "--which",
                          "gradient", "--out", str(tmp_path)], capture_output=True,
                         text=True, timeout=120, env=_env_with_src())
    assert out.returncode == 2, out.stderr
    assert "invalid choice: 'gradient'" in out.stderr


def test_sweep_theta_s_gating(tmp_path, monkeypatch):
    factorizations = _count_calls(monkeypatch, fi, "splu")
    rows = cmd_sweep(_small_config(), "theta_s", ["0.0", "0.5"], str(tmp_path))
    assert all(r["status"] == "converged" for r in rows)
    assert (tmp_path / "sweep_theta_s.csv").exists()
    # theta_s is part of the operator: one factorization per value
    assert len(factorizations) == 2


def test_sweep_shares_factor_across_amplitudes(tmp_path, monkeypatch):
    factorizations = _count_calls(monkeypatch, fi, "splu")
    cfg = _small_config()
    amps = ["5e-4", "1e-3", "2e-3"]
    rows = cmd_sweep(cfg, "amplitude", amps, str(tmp_path))
    assert len(factorizations) == 1
    for amp, row in zip(amps, rows):
        cfg.raw["source"]["amplitude"] = amp
        bundle, F = build_setup(cfg)
        rep = synthesize(F, bundle)
        assert row == {"parameter": "amplitude", "value": amp,
                       "status": rep.status, "iterations": rep.iterations,
                       "k": rep.k, "h0_linear": rep.h0_norm_linear,
                       "h0_quasilinear": rep.h0_norm_quasilinear,
                       "log_x_norm_sq": rep.fi_solution.log_x_norm_sq,
                       "log_y_norm_sq": rep.log_y_norm_sq}


def test_sweep_rows_report_the_modes_cancelled(tmp_path):
    """A sweep row says how many control modes the chord cancelled: both
    on the default source, one on seed 8's random_fourier source, where
    cancelling the second would cost more than the cap allows and h(.,0)
    keeps that mode's part."""
    default = cmd_sweep(load_config(None), "amplitude", ["1e-3"], str(tmp_path))
    cfg = load_config(None, 8)
    cfg.raw["source"]["family"] = "random_fourier"
    capped = cmd_sweep(cfg, "amplitude", ["1e-3", "2e-3"], str(tmp_path))
    assert [r["k"] for r in default] == [2]
    assert [r["k"] for r in capped] == [1, 1]
    assert all(r["status"] == "converged" for r in default + capped)
    # the mode left keeps h_q(.,0) within 10x of the least-squares control's h(.,0)
    assert all(r["h0_quasilinear"] > 0.1 * r["h0_linear"] for r in capped)
    with open(tmp_path / "sweep_amplitude.csv", newline="") as fh:
        header, *records = csv.reader(fh)
    assert header[header.index("iterations") + 1] == "k"
    assert [r[header.index("k")] for r in records] == ["1", "1"]


def test_sweep_factorizes_per_grid(tmp_path, monkeypatch):
    factorizations = _count_calls(monkeypatch, fi, "splu")
    rows = cmd_sweep(_small_config(), "N", ["32", "40"], str(tmp_path))
    assert all(r["status"] == "converged" for r in rows)
    assert len(factorizations) == 2


def test_sweep_invalid_value_keeps_going(tmp_path):
    cfg = _small_config()
    rows = (cmd_sweep(cfg, "theta_s", ["-1", "0.5"], str(tmp_path))
            + cmd_sweep(cfg, "amplitude", ["nan", "1e-3", "inf", "1e308"],
                        str(tmp_path))
            + cmd_sweep(cfg, "lambda", ["1", "160"], str(tmp_path)))
    status = [r["status"] for r in rows]
    assert status[0] == status[2] == status[4] == status[5] == "invalid"
    assert status[7] == "invalid"
    assert {status[1], status[3], status[6]} == {"converged"}
    assert "theta_s" in rows[0]["detail"] and "amplitude" in rows[2]["detail"]
    assert "amplitude" in rows[5]["detail"] and "lambda" in rows[7]["detail"]


def test_sweep_csv_keeps_detail_one_field(tmp_path):
    """A detail holding commas is quoted: every row keeps the header's ten
    fields and the message reads back whole."""
    rows = cmd_sweep(load_config(None), "lambda", ["160", "710"], str(tmp_path))
    assert [r["status"] for r in rows] == ["invalid", "invalid"]
    assert all("," in r["detail"] for r in rows)
    path = tmp_path / "sweep_lambda.csv"
    assert b"\r" not in path.read_bytes()
    with open(path, newline="") as fh:
        header, *records = csv.reader(fh)
    assert len(header) == 10 and [len(r) for r in records] == [10, 10]
    assert [r[header.index("detail")] for r in records] == [r["detail"] for r in rows]


def test_synthesize_reports_backward_error(tmp_path):
    summary = cmd_synthesize(_small_config(), str(tmp_path))
    assert set(summary["fi"]) == {"backward_error", "lhs_rhs_ratios"}
    assert 0 < summary["fi"]["backward_error"] <= 1e-14


def test_synthesize_iterations_csv_is_the_chord(tmp_path):
    """`iterations.csv` holds ||h_q(.,0)|| under the least-squares control
    (step 0) and after each chord step, and its part on the modes the
    chord cancels; the JSON's projection block repeats its ends and reads
    its scale and modes off the bundle.  The default source affords both
    modes, so the two columns end below the tolerance together."""
    cfg = load_config(None)
    cmd_synthesize(cfg, str(tmp_path))
    summary = json.loads((tmp_path / "synthesis.json").read_text())
    with open(tmp_path / "iterations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["step"]) for r in rows] == list(range(summary["iterations"] + 1))
    proj = summary["projection"]
    assert proj["h0_before"] == float(rows[0]["h0_norm"])
    assert proj["h0_after"] == float(rows[-1]["h0_norm"]) \
        == summary["h0_norm"]["quasilinear"]
    assert proj["h0_after"] <= insensitize.CHORD_TOL * proj["h0_uncontrolled"]
    on_modes = [float(r["h0_on_modes"]) for r in rows]
    assert all(a <= h for a, h in zip(on_modes, map(float, (r["h0_norm"] for r in rows))))
    assert on_modes[-1] <= insensitize.CHORD_TOL * proj["h0_uncontrolled"]
    bundle, _ = build_setup(cfg)
    assert proj["k"] == 2 and proj["modes_left"] == 0
    assert proj["singular_values"] == bundle.control_modes.sigma.tolist()
    assert 0 < proj["dv_relative"] < 1
    assert "before the projection" in proj["note"]


def test_insensitivity_check_adds_no_quasilinear_cascade(tmp_path, monkeypatch):
    """The insensitivity check reuses the chord's last quasilinear cascade
    and its J(0), and advances the 6 ladder trajectories of each of the 3
    directions as one stack: one cascade per chord iterate, then 18
    trajectories in one stepper call."""
    cascades = _count_calls(monkeypatch, insensitize, "solve_quasilinear_cascade")
    stacks = []
    original = solvers.solve_quasilinear

    def counted(cs, grid, time_grid, F, psi0, **kwargs):
        stacks.append(len(np.atleast_2d(psi0.bulk)))
        return original(cs, grid, time_grid, F, psi0, **kwargs)

    monkeypatch.setattr(solvers, "solve_quasilinear", counted)
    monkeypatch.setattr(insensitize, "solve_quasilinear", counted)
    summary = cmd_synthesize(_small_config(), str(tmp_path))
    assert len(cascades) == summary["iterations"] + 1 == 3
    assert stacks == [1] * len(cascades) + [6 * 3]


def test_synthesize_outside_the_small_data_radius_exits_3(tmp_path):
    """At 32x64 an amplitude of 1e3 makes the first chord step grow
    ||h_q(.,0)|| instead of halving it: exit 3, no report."""
    path = tmp_path / "big.cfg"
    path.write_text("[source]\namplitude = 1e3\n" + SMALL_GRID)
    out = subprocess.run([sys.executable, "-m", "bscontrol", "synthesize", "--config",
                          str(path), "--out", str(tmp_path)], capture_output=True,
                         text=True, timeout=120, env=_env_with_src())
    assert out.returncode == 3, out.stderr
    assert "smallness violation: chord step 1 did not halve" in out.stderr
    assert not (tmp_path / "synthesis.json").exists()


def test_weight_csv_signature(tmp_path):
    cfgp = tmp_path / "small.cfg"
    cfgp.write_text("[grid]\ncells = 32\n[time]\nsteps = 32\n[source]\nfamily = zero\n")
    assert main(["synthesize", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "weights.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["t", "ell", "gamma", "log_mu"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_cli_keeps_large_arrays_out_of_the_heap():
    """The CLI pins glibc's mmap threshold.  In a fresh interpreter, after an
    8 MB block is freed, a 4 MB array still gets its own mapping; by default
    the freed block raises the threshold and the array extends the heap,
    whose layout, and with it the peak RSS, varies per process."""
    script = textwrap.dedent("""
        import numpy as np
        import bscontrol.cli
        big = np.ones(1 << 20)
        del big
        a = np.ones(1 << 19)
        with open("/proc/self/maps") as fh:
            heap = [ln.split()[0].split("-") for ln in fh if ln.rstrip().endswith("[heap]")]
        print(any(int(lo, 16) <= a.ctypes.data < int(hi, 16) for lo, hi in heap))
        """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120, env=_env_with_src())
    assert out.stdout.strip() == "False"
