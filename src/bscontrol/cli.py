"""Configuration ingestion and experiment orchestration.

Plain-text key/value configs (INI sections), deterministic seeding and
bit-stable emission: CSV with 17 significant digits, schema-versioned JSON
summaries.  Exit codes: 2 validation, 3 smallness violation, 4
conditioning, 5 internal.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import (BSControlError, ConditioningError, ConfigurationError,
                     ContractError, SmallnessViolationError)
from .geometry import SpaceTimeField, build_grid, build_masks, build_time_grid
from .insensitize import (TAU_LADDER, SynthesisBundle, control_norm,
                          insensitivity_check, random_direction, synthesize)
from .solvers import (LinearOperatorSet, coefficient_preset,
                      convergence_orders, dump_trajectory_csv, duality_battery,
                      solve_adjoint_cascade, validate_coefficients)
from .weights import (admissible_time_profile, build_chi,
                      build_eta, build_weight_tables, check_elementary_estimates,
                      dump_weight_csv, empirical_carleman_check, validate_params)

SCHEMA = "bscontrol-report-v2"


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 64 MiB.

    glibc otherwise raises the mmap threshold to each large block freed, so
    later multi-megabyte arrays extend the heap, whose resident size then
    varies with per-process hashing and address randomisation: one
    synthesis sequence peaked at 102 MB in some processes, 113 MB in others.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):    # not glibc
        return
    mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD
    mallopt(-3, 1 << 20)    # M_MMAP_THRESHOLD


_pin_malloc_thresholds()

DEFAULTS = {
    "grid": {"length": "1.0", "cells": "64"},
    "time": {"horizon": "8.0", "steps": "128"},
    "masks": {"omega": "0.25,0.75", "obs_bulk": "0.35,0.65",
              "obs_surface": "left,right", "margin": "0.02"},
    "coefficients": {"preset": "logistic"},
    "weights": {"lambda": "1.0", "m": "2.3", "s_coeff": "1.0"},
    "functional": {"theta": "1.0", "theta_s": "0.5"},
    "source": {"family": "gaussian", "amplitude": "1e-3",
               "center": "0.45", "width": "0.12"},
    "run": {"seed": "12345"},
}


@dataclass
class RunConfig:
    raw: dict
    seed: int

    def get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def getf(self, section: str, key: str) -> float:
        """A finite float: no key takes nan or +-inf."""
        try:
            val = float(self.raw[section][key])
        except ValueError as exc:
            raise ConfigurationError(
                f"[{section}] {key} = {self.raw[section][key]!r}: not a number") from exc
        if not math.isfinite(val):
            raise ConfigurationError(
                f"[{section}] {key} = {self.raw[section][key]!r}: not finite")
        return val

    def geti(self, section: str, key: str) -> int:
        try:
            return int(self.raw[section][key])
        except ValueError as exc:
            raise ConfigurationError(
                f"[{section}] {key} = {self.raw[section][key]!r}: not an integer") from exc

    def interval(self, section: str, key: str) -> tuple[float, float]:
        parts = self.raw[section][key].split(",")
        try:
            a, b = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigurationError(
                f"[{section}] {key} = {self.raw[section][key]!r}: expected 'a,b' "
                "with two numbers") from exc
        return a, b

    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True) + f"|seed={self.seed}"
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str | None, seed_override: int | None = None) -> RunConfig:
    raw = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is not None:
        # no interpolation: a '%' in a value is the value's own
        cp = configparser.ConfigParser(interpolation=None)
        try:
            read = cp.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ConfigurationError(f"config file not found: {path}")
        if cp.defaults():
            # its keys would otherwise apply to every section, or be ignored
            raise ConfigurationError("unknown config section [DEFAULT]")
        for section in cp.sections():
            if section not in raw:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, val in cp[section].items():
                if key not in raw[section]:
                    raise ConfigurationError(
                        f"unknown key '{key}' in section [{section}]")
                raw[section][key] = val
    cfg = RunConfig(raw=raw, seed=seed_override)
    if seed_override is None:
        cfg.seed = cfg.geti("run", "seed")
    if cfg.seed < 0:
        # numpy's default_rng accepts only non-negative seeds
        given = cfg.get("run", "seed") if seed_override is None else seed_override
        raise ConfigurationError(f"[run] seed = {given!r}: must be >= 0")
    return cfg


def build_setup(cfg: RunConfig):
    """Construct the full synthesis bundle plus the configured source."""
    theta = cfg.getf("functional", "theta")
    theta_s = cfg.getf("functional", "theta_s")
    if not theta > 0:
        raise ConfigurationError(f"[functional] theta = {theta}: must be > 0")
    if not theta_s >= 0:
        raise ConfigurationError(f"[functional] theta_s = {theta_s}: must be >= 0")
    grid = build_grid(cfg.getf("grid", "length"), cfg.geti("grid", "cells"))
    tgrid = build_time_grid(cfg.getf("time", "horizon"), cfg.geti("time", "steps"))
    surf = [s.strip() for s in cfg.get("masks", "obs_surface").split(",") if s.strip()]
    masks = build_masks(grid, cfg.interval("masks", "omega"),
                        cfg.interval("masks", "obs_bulk"), surf,
                        cfg.getf("masks", "margin"))
    cs = coefficient_preset(cfg.get("coefficients", "preset"))
    validate_coefficients(cs)
    params = validate_params(
        cfg.getf("weights", "lambda"), cfg.getf("weights", "m"),
        cfg.getf("weights", "s_coeff"), tgrid.horizon)
    try:
        eta = build_eta(grid, masks)
    except ContractError as exc:
        raise ConfigurationError(
            f"[masks] omega = {cfg.get('masks', 'omega')}, obs_bulk = "
            f"{cfg.get('masks', 'obs_bulk')}: {exc}") from exc
    tables = build_weight_tables(grid, tgrid, eta, params)
    chi = build_chi(grid, masks)
    ops = LinearOperatorSet.from_coefficients(cs, grid, tgrid)
    bundle = SynthesisBundle(
        cs=cs, grid=grid, time_grid=tgrid, masks=masks, tables=tables,
        chi=chi, ops=ops, theta=theta, theta_s=theta_s)
    F = build_source(cfg, bundle)
    return bundle, F


def build_source(cfg: RunConfig, bundle: SynthesisBundle) -> SpaceTimeField:
    """Named analytic source families times the admissible time profile.

    The time profile decays at the critical rate that keeps the weighted
    source norms finite; the family shapes the spatial part.  Cell c of
    the returned field holds the source sample for step c.
    """
    family = cfg.get("source", "family")
    amp = cfg.getf("source", "amplitude")
    g, tg = bundle.grid, bundle.time_grid
    M = tg.step_count
    x = g.x
    if family == "zero":
        shape = np.zeros_like(x)
    elif family == "gaussian":
        c0 = cfg.getf("source", "center")
        wd = cfg.getf("source", "width")
        if not wd > 0:
            raise ConfigurationError(f"[source] width = {wd}: must be > 0")
        with np.errstate(over="ignore"):
            shape = np.exp(-0.5 * ((x - c0) / wd) ** 2)
        if not np.any(shape):
            raise ConfigurationError(
                f"[source] width = {wd}, center = {c0}: the gaussian is zero "
                "at every grid node")
    elif family == "random_fourier":
        rng = np.random.default_rng(cfg.seed)
        shape = np.zeros_like(x)
        for k in range(1, 5):
            shape += rng.standard_normal() / k * np.cos(np.pi * k * x / g.length
                                                        + rng.uniform(0, 2 * np.pi))
    else:
        raise ConfigurationError(f"unknown source family '{family}'")
    prof = admissible_time_profile(bundle.tables)   # (M,), peak 1
    F = SpaceTimeField.zeros(g, M + 1)
    # amp * prof[:, None] * shape, written straight into the field
    np.multiply(amp * prof[:, None], shape, out=F.bulk[1:])
    F.surface[1:] = F.bulk[1:][:, [0, -1]]
    # The weighted norms square the samples and their time differences
    # before taking logs, so a large amplitude overflows them.  Each of
    # their sums of squares stays below `bound`; while that is a double, no
    # norm can overflow, and the exact check, which costs as much as the
    # rest of the setup, is skipped.  `vmax` bounds |F|: prof peaks at 1.
    vmax = abs(amp) * float(np.max(np.abs(shape)))
    bound = vmax * vmax * (4 / tg.dt**2 + 1) * (g.length + 2) * tg.horizon
    if not bound < sys.float_info.max:
        with np.errstate(over="ignore"):
            norms = bundle.log_source_norms(F)
        for nm, lg in norms.items():
            if not lg < math.inf:
                raise ConfigurationError(
                    f"[source] amplitude = {amp}: the weighted source norm "
                    f"{nm} overflows a double")
    return F


def _fmt(v: float):
    """17-significant-digit float; non-finite values become JSON null."""
    return float(f"{v:.17g}") if math.isfinite(v) else None


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _fmt(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, str) or obj is None:
        return obj
    return str(obj)


def write_json(payload: dict, path: str) -> None:
    payload = {"schema": SCHEMA, **_jsonable(payload)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(rows: list[dict], path: str) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        # minimal quoting: only a field holding a comma or quote is quoted
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(keys)
        w.writerows([f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)
                     for v in (row[k] for k in keys)] for row in rows)


def cmd_synthesize(cfg: RunConfig, outdir: str) -> dict:
    t0 = time.perf_counter()
    bundle, F = build_setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    report = synthesize(F, bundle)
    directions = [random_direction(bundle.grid, rng) for _ in range(3)]
    checks = insensitivity_check(bundle, F, report, directions)
    sol, modes = report.fi_solution, bundle.control_modes
    v_fi, dv = (control_norm(v, bundle.grid, bundle.time_grid.dt)
                for v in (sol.v, report.v - sol.v))
    summary = {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "status": report.status,
        "iterations": report.iterations,
        "h0_norm": {"linear": report.h0_norm_linear,
                    "quasilinear": report.h0_norm_quasilinear},
        "projection": {
            "h0_before": report.h0_steps[0],
            "h0_after": report.h0_norm_quasilinear,
            "h0_uncontrolled": report.h0_free,
            "k": report.k,
            "singular_values": modes.sigma[:report.k].tolist(),
            "modes_left": len(modes.sigma) - report.k,
            "dv_relative": dv / v_fi if v_fi > 0 else 0.0,
            "note": "v_norms, lhs_rhs_ratios and log_x_norm_sq read the "
                    "least-squares solution before the projection"},
        "log_x_norm_sq": sol.log_x_norm_sq,
        "log_y_norm_sq": report.log_y_norm_sq,
        "v_norms": sol.log_norms,
        "optimality_residual": sol.optimality_residual,
        "fi": {"backward_error": sol.backward_error,
               "lhs_rhs_ratios": sol.lhs_rhs_ratios},
        "insensitivity": checks,
        "wall_seconds": time.perf_counter() - t0,
    }
    write_json(summary, os.path.join(outdir, "synthesis.json"))
    write_csv([{"step": i, "h0_norm": h0, "h0_on_modes": r} for i, (h0, r)
               in enumerate(zip(report.h0_steps, report.residuals))],
              os.path.join(outdir, "iterations.csv"))
    dump_trajectory_csv(*report.quasi_states, bundle.grid, bundle.time_grid,
                        os.path.join(outdir, "trajectory.csv"))
    dump_weight_csv(bundle.tables, os.path.join(outdir, "weights.csv"))
    ladder_rows = []
    for i, chk in enumerate(checks):
        for tau, dval in zip(TAU_LADDER, chk["fd_ladder"]):
            ladder_rows.append({"direction": i, "tau": tau, "fd_derivative": dval})
    write_csv(ladder_rows, os.path.join(outdir, "tau_ladders.csv"))
    return summary


def cmd_diagnose(cfg: RunConfig, which: str, outdir: str) -> dict:
    bundle, F = build_setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    out: dict = {"config_hash": cfg.hash(), "seed": cfg.seed, "suite": which}
    if which == "duality":
        gap = duality_battery(bundle.ops, rng, n_pairs=100)
        out.update(max_scaled_gap=gap, passed=bool(gap <= 1e-13))
    elif which == "carleman":
        def adjoint(f1, g1):
            return solve_adjoint_cascade(bundle.ops, f1, g1, bundle.theta,
                                         bundle.theta_s, bundle.masks)
        rep = empirical_carleman_check(50, bundle.tables, bundle.grid,
                                       bundle.time_grid, bundle.masks,
                                       adjoint, rng)
        finite = math.isfinite(rep["max_ratio_alpha"]) and math.isfinite(rep["max_ratio_beta"])
        out.update(**rep, passed=finite)
    elif which == "estimates":
        rep = check_elementary_estimates(bundle.tables, bundle.time_grid.dt)
        out.update(**rep, passed=bool(rep["identity_max_live"] <= 1e-12))
    elif which == "convergence":
        rep = convergence_orders(bundle.cs)
        out.update(**rep, passed=bool(rep["spatial_order_min"] >= 1.9
                                      and rep["temporal_order"] >= 0.9))
    else:
        raise ConfigurationError(f"unknown diagnostic suite '{which}'")
    write_json(out, os.path.join(outdir, f"diagnose_{which}.json"))
    return out


# sweep parameter -> the (section, key) of the config value it sets
SWEEP_PARAMS = {"amplitude": ("source", "amplitude"), "N": ("grid", "cells"),
                "M": ("time", "steps"), "lambda": ("weights", "lambda"),
                "s_coeff": ("weights", "s_coeff"),
                "theta_s": ("functional", "theta_s")}


def cmd_sweep(cfg: RunConfig, parameter: str, values: list[str], outdir: str) -> list[dict]:
    """One synthesis per value.  While a value changes only the `[source]`
    section, the previous value's bundle, and with it the factorized
    least-squares solver, is reused and only the source is rebuilt."""
    if parameter not in SWEEP_PARAMS:
        raise ConfigurationError(
            f"sweep parameter must be one of {tuple(SWEEP_PARAMS)}, got '{parameter}'")
    section, key_name = SWEEP_PARAMS[parameter]
    rows = []
    bundle, operator_key = None, None
    for val in values:
        raw = {s: dict(kv) for s, kv in cfg.raw.items()}
        raw[section][key_name] = val
        sub = RunConfig(raw=raw, seed=cfg.seed)
        row = {"parameter": parameter, "value": val}
        key = json.dumps({s: kv for s, kv in raw.items() if s != "source"},
                         sort_keys=True)
        try:
            if key == operator_key:
                F = build_source(sub, bundle)
            else:
                bundle, F = build_setup(sub)
                operator_key = key
            rep = synthesize(F, bundle)
            row.update(status=rep.status, iterations=rep.iterations, k=rep.k,
                       h0_linear=rep.h0_norm_linear,
                       h0_quasilinear=rep.h0_norm_quasilinear,
                       log_x_norm_sq=rep.fi_solution.log_x_norm_sq,
                       log_y_norm_sq=rep.log_y_norm_sq)
        except SmallnessViolationError as exc:
            row.update(status="smallness-violation", detail=str(exc))
        except ConditioningError as exc:
            row.update(status="conditioning", detail=str(exc))
        except ConfigurationError as exc:
            row.update(status="invalid", detail=str(exc))
        rows.append(row)
    write_csv([{k: r.get(k, "") for k in
                ("parameter", "value", "status", "iterations", "k", "h0_linear",
                 "h0_quasilinear", "log_x_norm_sq", "log_y_norm_sq", "detail")}
               for r in rows], os.path.join(outdir, f"sweep_{parameter}.csv"))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bscontrol",
                                 description="Insensitizing-control synthesis "
                                 "for 1D bulk-surface reaction-diffusion systems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("synthesize", "diagnose", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key/value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if name == "diagnose":
            p.add_argument("--which", required=True,
                           choices=["duality", "carleman", "estimates",
                                    "convergence"])
        if name == "sweep":
            p.add_argument("--parameter", required=True)
            p.add_argument("--values", required=True,
                           help="comma-separated list; when it starts with a "
                           "negative value, write --values=-1,0.5")
    args = ap.parse_args(argv)

    outdir = args.out or "."
    try:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"output directory {outdir}: {exc.strerror}") from exc
        cfg = load_config(args.config, args.seed)
        if args.command == "synthesize":
            summary = cmd_synthesize(cfg, outdir)
            print(f"synthesize: {summary['status']} in {summary['iterations']} "
                  f"iterations; quasilinear h(.,0) norm "
                  f"{summary['h0_norm']['quasilinear']:.3e}")
        elif args.command == "diagnose":
            out = cmd_diagnose(cfg, args.which, outdir)
            print(f"diagnose {args.which}: {'PASS' if out.get('passed') else 'FAIL'}")
            if not out.get("passed"):
                return 5
        elif args.command == "sweep":
            rows = cmd_sweep(cfg, args.parameter, args.values.split(","), outdir)
            for row in rows:
                print(f"sweep {row['parameter']}={row['value']}: {row['status']}")
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SmallnessViolationError as exc:
        print(f"smallness violation: {exc}", file=sys.stderr)
        return 3
    except ConditioningError as exc:
        print(f"conditioning failure: {exc}", file=sys.stderr)
        return 4
    except BSControlError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
