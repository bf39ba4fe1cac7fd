import json
import os

import numpy as np
import pytest

from bscontrol.cli import (build_setup, cmd_diagnose, cmd_sweep, load_config,
                           main)
from bscontrol.errors import ConfigurationError


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


def test_exit_code_validation(tmp_path):
    path = tmp_path / "bad.cfg"
    for text in ("[masks]\nomega = 0.1,0.2\nobs_bulk = 0.8,0.9\n",
                 "[masks]\nomega = 0.25,abc\n", "[run]\nseed = xyz\n"):
        path.write_text(text)
        rc = main(["synthesize", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2, text


def test_sweep_rejects_unknown_parameter(tmp_path):
    rc = main(["sweep", "--parameter", "viscosity", "--values", "1,2",
               "--out", str(tmp_path)])
    assert rc == 2


def test_zero_source_synthesize(tmp_path):
    path = tmp_path / "zero.cfg"
    path.write_text("[source]\nfamily = zero\n[grid]\ncells = 32\n"
                    "[time]\nsteps = 32\n")
    rc = main(["synthesize", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    summary = json.loads((tmp_path / "synthesis.json").read_text(),
                         parse_constant=reject)
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


def test_sweep_theta_s_gating(tmp_path):
    cfg = load_config(None)
    cfg.raw["grid"]["cells"] = "32"
    cfg.raw["time"]["steps"] = "64"
    rows = cmd_sweep(cfg, "theta_s", ["0.0", "0.5"], str(tmp_path))
    assert all(r["status"] in ("converged", "converged_floor") for r in rows)
    assert (tmp_path / "sweep_theta_s.csv").exists()


def test_weight_csv_signature(tmp_path):
    cfgp = tmp_path / "small.cfg"
    cfgp.write_text("[grid]\ncells = 32\n[time]\nsteps = 32\n[source]\nfamily = zero\n")
    assert main(["synthesize", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "weights.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["t", "ell", "gamma", "log_mu"]
