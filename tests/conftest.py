import dataclasses

import numpy as np
import pytest

from bscontrol.cli import build_setup, load_config
from bscontrol.errors import ContractError
from bscontrol.fi import _dot, _residual_stack, _row_weights, _source_rhs, _wmul
from bscontrol.geometry import (BulkSurfaceField, l2_inner, normal_derivative,
                                sbp_laplacian)
from bscontrol.insensitize import observation_pairing
from bscontrol.solvers import (solve_linearized_cascade,
                               solve_quasilinear_cascade, solve_sensitivity)
from bscontrol.weights import WeightTables, admissible_time_profile


def make_bundle(N=64, M=128, T=8.0, preset="logistic", amplitude=1e-3,
                family="gaussian", **extra):
    cfg = load_config(None)
    cfg.raw["grid"]["cells"] = str(N)
    cfg.raw["time"]["steps"] = str(M)
    cfg.raw["time"]["horizon"] = str(T)
    cfg.raw["coefficients"] = {"preset": preset}
    cfg.raw["source"]["amplitude"] = str(amplitude)
    cfg.raw["source"]["family"] = family
    for key, val in extra.items():
        section, name = key.split("__")
        cfg.raw[section][name] = str(val)
    return build_setup(cfg)


def make_tame_bundle(N=32, M=32, T=8.0):
    """Bundle with synthetic O(1) weight tables (no time singularity):
    every cell is live, the quadratic form is resolvable to roundoff, and
    the solve/recovery plumbing can be oracled directly.  Test-only."""
    bundle, _ = make_bundle(N=N, M=M, T=T)
    tables = bundle.tables
    tm = tables.t_mid
    mild = 0.5 + 0.2 * np.sin(2 * np.pi * tm / T)
    log_mu_k = np.stack([(1.0 + 0.1 * k) * mild for k in range(6)])
    synthetic = WeightTables(
        params=tables.params, t_mid=tm, ell=tables.ell, gamma=tables.gamma,
        log_mu=2.0 * mild, log_mu_k=log_mu_k, log_K=tables.log_K,
        expo=tables.expo, log_tT=tables.log_tT)
    bundle = dataclasses.replace(bundle, tables=synthetic)
    Fsrc = BulkSurfaceField.zeros(bundle.grid, M + 1)
    x = bundle.grid.x
    shape = np.exp(-0.5 * ((x - 0.45) / 0.12) ** 2)
    prof = np.sin(np.pi * np.arange(1, M + 1) / M)
    Fsrc.bulk[1:] = 1e-3 * prof[:, None] * shape[None, :]
    Fsrc.surface[1:] = Fsrc.bulk[1:][:, [0, -1]]
    return bundle, Fsrc


def random_source(bundle, rng, amplitude=1e-3):
    """Random smooth spatial shape times the critical admissible profile."""
    g = bundle.grid
    M = bundle.time_grid.step_count
    x = g.x / g.length
    shape = np.zeros_like(x)
    for k in range(1, 5):
        shape += rng.standard_normal() / k * np.cos(np.pi * k * x
                                                    + rng.uniform(0, 2 * np.pi))
    prof = admissible_time_profile(bundle.tables)
    F = BulkSurfaceField.zeros(g, M + 1)
    F.bulk[1:] = amplitude * prof[:, None] * shape[None, :]
    F.surface[1:] = F.bulk[1:][:, [0, -1]]
    return F


def pack_dofs(p, Y: BulkSurfaceField, Z: BulkSurfaceField) -> np.ndarray:
    """The dofs of a pair in P: each field trace compatible and zero at its
    constrained end slice (Y at T, Z at 0), else a ContractError."""
    M = p.time_grid.step_count
    for name, U, end, where in (("Y", Y, M, "terminal"), ("Z", Z, 0, "initial")):
        tol = 1e-13 * (1 + np.max(np.abs(U.bulk)))
        # `not <=` refuses NaN, which compares False either way
        if not np.max(np.abs(U.bulk[end])) <= tol:
            raise ContractError(f"{name} must vanish at its {where} slice (space P)")
        if not np.max(np.abs(U.surface - U.bulk[:, [0, -1]])) <= tol:
            raise ContractError(f"{name}'s surface must be its bulk's trace (space P)")
    return np.concatenate([Y.bulk[:M].ravel(), Z.bulk[1:].ravel()])


def stack_blocks(p, r: np.ndarray) -> tuple:
    """The five blocks R1..R5 of a stack vector r, (M, width) each."""
    M, n = p.time_grid.step_count, p.grid.n_nodes
    blocks = np.split(r, np.cumsum([M * n, 2 * M, M * n, 2 * M]))
    return tuple(b.reshape(M, -1) for b in blocks)


def apply_residual_R(Y: BulkSurfaceField, Z: BulkSurfaceField, problem) -> dict:
    """Weighted five-component residual stack of a test pair in P."""
    x = pack_dofs(problem, Y, Z)
    r1b, r1s, r3b, r3s, r5 = stack_blocks(problem, _residual_stack(problem) @ x)
    w0, w1 = (np.sqrt(problem.tables.inv_sq(k))[:, None] for k in (0, 1))
    return {"adjoint_bulk": w0 * r1b, "adjoint_surface": w0 * r1s,
            "forward_bulk": w0 * r3b, "forward_surface": w0 * r3s,
            "observation": w1 * r5}


def bilinear_B(problem, YZ, YZbar) -> float:
    """B((Y,Z),(Ybar,Zbar)) through the weighted residual stacks."""
    R = _residual_stack(problem)
    x, xb = (pack_dofs(problem, *pair) for pair in (YZ, YZbar))
    return _dot(_wmul(_row_weights(problem), R @ x), R @ xb)


def linear_F(problem, F: BulkSurfaceField, YZ) -> float:
    """The right-hand side functional of the least-squares problem at a pair."""
    return _dot(_source_rhs(problem, F), pack_dofs(problem, *YZ))


def node_gradient(y: np.ndarray, grid) -> np.ndarray:
    """Second-order node gradient: central interior, one-sided at the ends
    (the signed normal derivative; negation is exact)."""
    out = np.empty_like(y, dtype=float)
    out[..., 1:-1] = (y[..., 2:] - y[..., :-2]) / (2 * grid.h)
    out[..., [0, -1]] = normal_derivative(y, grid) * [-1.0, 1.0]
    return out


def nonlinear_parts_A(Psi: BulkSurfaceField, H: BulkSurfaceField, cs, ops) -> dict:
    """Strong-form A1..A4 on cells (arrays indexed like the source slices):
    the linearized cascade rows minus the quasilinear ones, A = L - Lambda.

    A_psi rows (A1 bulk, A3 surface) are sampled wholly at the cell's
    right slice; A_h rows (A2, A4) take the state psi at the right slice
    and the h-fields at the left slice, mirroring the backward stepper.
    """
    g = ops.grid
    s0, da0, db0 = ops.sigma0, ops.da0, ops.db0
    M = Psi.n_slices - 1

    pb, ps = Psi.bulk[1:], Psi.surface[1:]          # cells 1..M at right slices
    lap_p = sbp_laplacian(pb, g)
    grad_p = node_gradient(pb, g)
    dnu_p = normal_derivative(pb, g)

    A1 = np.zeros((M + 1, g.n_nodes))
    A3 = np.zeros((M + 1, 2))
    A1[1:] = (cs.sigma(pb) - s0) * lap_p + cs.dsigma(pb) * grad_p**2 \
        - (cs.a(pb) - da0 * pb)
    A3[1:] = -(cs.sigma(ps) - s0) * dnu_p - (cs.b(ps) - db0 * ps)

    hb, hs = H.bulk[:-1], H.surface[:-1]            # cells 1..M at left slices
    lap_h = sbp_laplacian(hb, g)
    dnu_h = normal_derivative(hb, g)
    A2 = np.zeros((M + 1, g.n_nodes))
    A4 = np.zeros((M + 1, 2))
    A2[1:] = (cs.sigma(pb) - s0) * lap_h - (cs.da(pb) - da0) * hb
    A4[1:] = -(cs.sigma(ps) - s0) * dnu_h - (cs.db(ps) - db0) * hs
    return {"A1": A1, "A2": A2, "A3": A3, "A4": A4}


def duality_identity_check(bundle, F, v, direction, quasilinear=True) -> dict:
    """theta int_{O_T} psi z + theta_s int_{Sigma_T} psi_G z_G
    against <Z(.,0), H(.,0)>; exact to roundoff for frozen coefficients.
    v = None applies no control."""
    g, tg, masks = bundle.grid, bundle.time_grid, bundle.masks
    cs = bundle.cs
    v = v if v is not None else np.zeros((tg.step_count + 1, g.n_nodes))
    if quasilinear:
        Psi, H = solve_quasilinear_cascade(cs, g, tg, F, v, bundle.theta,
                                           bundle.theta_s, masks)
        base = Psi
    else:
        Psi, H = solve_linearized_cascade(bundle.ops, F, v, bundle.theta,
                                          bundle.theta_s, masks)
        base = BulkSurfaceField.zeros(g, tg.step_count + 1)
    Z = solve_sensitivity(cs, g, tg, base, direction)

    lhs = observation_pairing(Psi, Z, bundle)
    rhs = l2_inner(Z.slice(0), H.slice(0), g)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs_energy_pairing": lhs, "rhs_adjoint_pairing": rhs,
            "discrepancy": abs(lhs - rhs), "relative": abs(lhs - rhs) / scale}


@pytest.fixture(scope="session")
def default_setup():
    return make_bundle()


@pytest.fixture(scope="session")
def bundle(default_setup):
    return default_setup[0]


@pytest.fixture(scope="session")
def source(default_setup):
    return default_setup[1]


@pytest.fixture(scope="session")
def fi_solved(bundle, source):
    return bundle.fi_solver.solve(source)


@pytest.fixture(scope="session")
def tame_setup():
    return make_tame_bundle()
