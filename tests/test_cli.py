import json
import math
import os

import numpy as np
import pytest

from bscontrol import fi, insensitize, solvers
from bscontrol.cli import (build_setup, cmd_diagnose, cmd_sweep, cmd_synthesize,
                           load_config, main)
from bscontrol.errors import ConfigurationError
from bscontrol.insensitize import synthesize


def _small_config():
    cfg = load_config(None)
    cfg.raw["grid"]["cells"] = "32"
    cfg.raw["time"]["steps"] = "64"
    return cfg


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
    # the last four name no option: setting one must fail, not be ignored
    for text in ("[grid]\nspacing = 0.1\n", "[warp]\nfactor = 2\n",
                 "[solver]\ncg_tol = 1e-10\n", "[solver]\ncg_max_iter = 100\n",
                 "[solver]\nnewton_tol = 1e-11\n", "[weights]\nrho_clip = 700\n"):
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_config(str(path))


def test_config_hash_seed_sensitivity(tmp_path):
    a = load_config(None)
    b = load_config(None, seed_override=1)
    assert a.hash() != b.hash()


SMALL_GRID = "[grid]\ncells = 32\n[time]\nsteps = 64\n"

# (config text or CLI flags, expected exit code)
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
    ("[weights]\nlambda = 160\n", 2), ("[weights]\nlambda = 710\n", 2),
    ("[time]\nhorizon = 1e160\n", 2), ("[source]\namplitude = 1e308\n", 2),
    ("[time]\nsteps = 64\n[time]\nsteps = 32\n", 2),
    ("[time]\nsteps = 64\nsteps = 32\n", 2), ("steps = 64\n", 2),
    ("[weights]\nlambda = 154\n", 2),
    ("[weights]\nlambda = 154\n" + SMALL_GRID, 2),
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
    for text, code in BAD_INPUTS:
        args = ["synthesize", "--out", str(tmp_path)]
        if text.startswith("--"):
            args += text.split()
        else:
            path.write_text(text)
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
    cfg = load_config(None)
    with pytest.raises(ConfigurationError):
        cmd_diagnose(cfg, "entropy", str(tmp_path))


def test_sweep_theta_s_gating(tmp_path, monkeypatch):
    factorizations = _count_calls(monkeypatch, fi, "splu")
    rows = cmd_sweep(_small_config(), "theta_s", ["0.0", "0.5"], str(tmp_path))
    assert all(r["status"] in ("converged", "converged_floor") for r in rows)
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
                       "h0_linear": rep.h0_norm_linear,
                       "h0_quasilinear": rep.h0_norm_quasilinear,
                       "log_x_norm_sq": rep.log_x_norm_sq,
                       "log_y_norm_sq": rep.log_y_norm_sq}


def test_sweep_factorizes_per_grid(tmp_path, monkeypatch):
    factorizations = _count_calls(monkeypatch, fi, "splu")
    rows = cmd_sweep(_small_config(), "N", ["32", "40"], str(tmp_path))
    assert all(r["status"] in ("converged", "converged_floor") for r in rows)
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
    assert {status[1], status[3], status[6]} <= {"converged", "converged_floor"}
    assert "theta_s" in rows[0]["detail"] and "amplitude" in rows[2]["detail"]
    assert "amplitude" in rows[5]["detail"] and "lambda" in rows[7]["detail"]


def test_synthesize_reports_backward_error(tmp_path):
    summary = cmd_synthesize(_small_config(), str(tmp_path))
    assert 0 < summary["fi"]["backward_error"] <= 1e-14


def test_synthesize_solves_one_quasilinear_cascade(tmp_path, monkeypatch):
    """The insensitivity check reuses the synthesis' quasilinear cascade and
    its J(0), and advances the 6 ladder trajectories of each of the 3
    directions as one stack: 19 trajectories in 2 stepper calls."""
    cascades = _count_calls(monkeypatch, insensitize, "solve_quasilinear_cascade")
    stacks = []
    original = solvers.solve_quasilinear

    def counted(cs, grid, time_grid, F, psi0, **kwargs):
        stacks.append(len(np.atleast_2d(psi0.bulk)))
        return original(cs, grid, time_grid, F, psi0, **kwargs)

    monkeypatch.setattr(solvers, "solve_quasilinear", counted)
    monkeypatch.setattr(insensitize, "solve_quasilinear", counted)
    cmd_synthesize(_small_config(), str(tmp_path))
    assert len(cascades) == 1
    assert stacks == [1, 6 * 3]


def test_weight_csv_signature(tmp_path):
    cfgp = tmp_path / "small.cfg"
    cfgp.write_text("[grid]\ncells = 32\n[time]\nsteps = 32\n[source]\nfamily = zero\n")
    assert main(["synthesize", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "weights.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["t", "ell", "gamma", "log_mu"]
