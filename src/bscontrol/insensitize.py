"""End-to-end insensitizing-control synthesis and its verification.

The outer loop realizes the frozen-derivative (modified Newton) iteration
behind the local inverse mapping argument: with L the linearized cascade
operator and A = L - (full quasilinear operator), iterate

    x_{k+1} = L^{-1}( F + A_psi(x_k), A_h(x_k) ),

where L^{-1} is one Carleman-weighted least-squares solve.  A is evaluated
in strong form with the same SBP stencils as the solvers, and the fixed
point satisfies these strong-form cascade rows row by row.  A is of second
order at 0 (each term is a state times a coefficient's deviation from its
linearization at 0, or dsigma |grad psi|^2), so L is the derivative of the
cascade at the origin.  The
quasilinear check's backward equation is instead the exact discrete
adjoint of the Newton-stepped forward flow (the transposed step Jacobian,
see `solvers.solve_backward_varcoef`); the two backward matrices agree
for constant and affine sigma.

Cell mixing matches the steppers: the forward rows take every factor at
the cell's right slice; the backward rows take coefficients at the right
slice and the h-fields at the left slice.

Insensitivity is verified two independent ways: a Richardson-extrapolated
centered difference of the energy functional along a perturbation ladder,
and the adjoint representation <psi0_hat, h(.,0)> from the quasilinear
cascade.  Their discrepancy is reported against an explicit error budget
(FD truncation, time discretization, synthesis residual).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, SmallnessViolationError
from .fi import FIProblem, FISolution, FISolver
from .geometry import (BulkSurfaceField, SpaceTimeField, SpatialGrid,
                       h3_proxy_norm, l2_norm, node_gradient,
                       normal_derivative, sbp_laplacian)
from .solvers import (CoefficientSet, LinearOperatorSet, solve_quasilinear,
                      solve_quasilinear_cascade)
from .weights import log_add, log_ratio, log_weighted_sq_sum


# the insensitivity check's tau values: three sizes, each half the last, as
# its Richardson step and its trend test assume
TAU_LADDER = (1e-2, 5e-3, 2.5e-3)

# the outer loop's stop settings: it has converged when an increment is at
# most LOOP_TOL, and it ends `max_outer_reached` after MAX_OUTER solves
LOOP_TOL = 1e-9
MAX_OUTER = 30


def random_direction(grid: SpatialGrid, rng) -> BulkSurfaceField:
    """A random trace-compatible direction of unit discrete H^3 proxy norm."""
    x = grid.x / grid.length
    bulk = np.zeros_like(x)
    for k in range(1, 5):
        bulk += rng.standard_normal() / k**2 * np.cos(np.pi * k * x + rng.uniform(0, 2 * np.pi))
    f = BulkSurfaceField.from_bulk(bulk)
    nrm = h3_proxy_norm(f, grid)
    f.bulk /= nrm
    f.surface /= nrm
    return f


@dataclass(frozen=True)
class SynthesisBundle(FIProblem):
    """The least-squares operator plus what the outer loop adds to it: the
    coefficients of the quasilinear cascade, and the solver it caches.  The
    loop's stop settings are the module constants LOOP_TOL and MAX_OUTER.

    Frozen, so that the least-squares solver cached on it can never go
    stale: a bundle with other fields is a new bundle with its own solver.
    """

    cs: CoefficientSet

    @functools.cached_property
    def fi_solver(self) -> FISolver:
        """The least-squares solver of this operator.  Its normal matrix
        depends on everything here but the source, so every synthesis on
        this bundle shares one factorization, made on the first solve.

        The solver holds a plain `FIProblem` copy of the operator fields,
        not the bundle: a solver holding the bundle that caches it would
        make a reference cycle, and the LU factor of every dropped bundle
        would then live until a full garbage collection."""
        return FISolver(FIProblem(**{f.name: getattr(self, f.name)
                                     for f in fields(FIProblem)}))


@dataclass
class SynthesisReport:
    """The outer loop's result.  Each number is kept once: the control is
    `fi_solution.v`, the X norm `fi_solution.log_x_norm_sq`, and the linear
    cascade's ||h(.,0)|| the last entry of `h0_history`."""

    iterations: int
    increments: list
    h0_norm_quasilinear: float
    log_y_norm_sq: float
    status: str
    quasi_states: tuple             # (Psi, H) of the quasilinear cascade under v
    h0_history: list
    fi_solution: FISolution         # the last committed solve


# --- nonlinear parts ---------------------------------------------------------

def nonlinear_parts_A(Psi: SpaceTimeField, H: SpaceTimeField, cs: CoefficientSet,
                      ops: LinearOperatorSet) -> dict:
    """Strong-form A1..A4 on cells (arrays indexed like the source slices).

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


# --- synthesis ---------------------------------------------------------------

def _increment_norm_sq_log(dPsi: SpaceTimeField, dH: SpaceTimeField,
                           dv: np.ndarray, bundle: SynthesisBundle) -> float:
    """log of ||mu0 dPsi||^2 + ||mu0 dH||^2 + ||mu1 dv||^2 over live cells.

    One flat five-term sum, not three `log_st_sq` pairs: the stop rule reads
    this value and `iterations.csv` prints it at 17 digits, and regrouping
    the terms moves its last digits.
    """
    g, dt, t = bundle.grid, bundle.time_grid.dt, bundle.tables
    quad_b = g.trapezoid_weights()[None, :] * dt
    lm0, lm1 = np.where(t.live, t.log_mu_k[:2], -math.inf)
    return log_add(
        log_weighted_sq_sum(2 * lm0[:, None], dPsi.bulk[1:], quad_b),
        log_weighted_sq_sum(2 * lm0[:, None], dPsi.surface[1:], dt),
        log_weighted_sq_sum(2 * lm0[:, None], dH.bulk[:-1], quad_b),
        log_weighted_sq_sum(2 * lm0[:, None], dH.surface[:-1], dt),
        log_weighted_sq_sum(2 * lm1[:, None], dv[1:], quad_b))


def synthesize(F: SpaceTimeField, bundle: SynthesisBundle) -> SynthesisReport:
    """Frozen-linearization outer loop from the zero triple, then the
    quasilinear check: the full quasilinear cascade under the final control.

    Every iteration solves with `bundle.fi_solver`, so the loop, and every
    later synthesis on the same bundle, shares one factorization; an
    iterate's states are its solution's re-solved cascade, `resolved`.
    Convergence is declared when the X-norm of the increment drops to
    LOOP_TOL relative to the X-norm of the current triple; three
    consecutive non-decreasing increments above 0.1 raise
    SmallnessViolationError (the small-data radius proxy).  A solve is
    committed only after that stop test, so `converged_floor` (a
    non-decreasing increment at or below 0.1) returns the pre-bounce
    iterate, but `iterations` counts the discarded solve: the default
    random_fourier run reports 4 iterations and writes 3 rows to
    `iterations.csv`.  The first solve always commits (there is no earlier
    increment to bounce from), so the report always holds a solution.  It
    keeps the quasilinear cascade states in `quasi_states` for the
    insensitivity check and the trajectory output.
    """
    g, tg = bundle.grid, bundle.time_grid
    M = tg.step_count
    zero_st = SpaceTimeField.zeros(g, M + 1)
    Psi, H = zero_st, zero_st.copy()
    v = np.zeros((M + 1, g.n_nodes))
    increments, h0_history = [], []
    status = "max_outer_reached"
    n_bad = 0

    for its in range(1, MAX_OUTER + 1):
        A = nonlinear_parts_A(Psi, H, bundle.cs, bundle.ops)
        Feff = SpaceTimeField(F.bulk + A["A1"], F.surface + A["A3"])
        Geff = SpaceTimeField(A["A2"], A["A4"])
        new_sol = bundle.fi_solver.solve(Feff, Geff)
        Psi_new, H_new = new_sol.resolved

        # increment metric: the coercive-core components (mu0 Psi, mu0 H,
        # mu1 v) of the state-space norm, on live-masked differences of the
        # re-solved states.  Outside the live window the weights are
        # unbounded and any sub-truncation solver tail dominates spuriously;
        # the L-row components are omitted because they measure the source
        # correction, not the iterate.
        dPsi = SpaceTimeField(Psi_new.bulk - Psi.bulk, Psi_new.surface - Psi.surface)
        dH = SpaceTimeField(H_new.bulk - H.bulk, H_new.surface - H.surface)
        log_dx = _increment_norm_sq_log(dPsi, dH, new_sol.v - v, bundle)
        log_x = _increment_norm_sq_log(Psi_new, H_new, new_sol.v, bundle)
        inc = log_ratio(log_dx, log_x) ** 0.5 if log_x > -math.inf else 0.0

        prev_inc = increments[-1] if increments else math.inf
        if inc > LOOP_TOL and inc >= prev_inc:
            if prev_inc <= 0.1:
                # contraction has reached the solver noise floor: iterating
                # further only recirculates Laplacian-amplified solve noise
                # through the source corrections
                status = "converged_floor"
                break
            n_bad += 1
            if n_bad >= 3:
                raise SmallnessViolationError(
                    "outer loop is not contracting (three consecutive "
                    f"non-decreasing increments, last {inc:.3e}); source "
                    "outside the small-data radius", residual=inc)
        else:
            n_bad = 0
        sol, Psi, H, v = new_sol, Psi_new, H_new, new_sol.v
        increments.append(inc)
        h0_history.append(l2_norm(H_new.slice(0), g))
        if inc <= LOOP_TOL:
            status = "converged"
            break

    Psi_q, H_q = solve_quasilinear_cascade(
        bundle.cs, g, tg, F, v, bundle.theta, bundle.theta_s, bundle.masks)

    return SynthesisReport(
        iterations=its, increments=increments,
        h0_norm_quasilinear=l2_norm(H_q.slice(0), g),
        log_y_norm_sq=log_add(*bundle.log_source_norms(F, zero_st).values()),
        status=status, h0_history=h0_history,
        fi_solution=sol, quasi_states=(Psi_q, H_q))


# --- the energy functional and its derivative --------------------------------

def evaluate_J(bundle: SynthesisBundle, F: SpaceTimeField, v: np.ndarray,
               tau: float, direction: BulkSurfaceField) -> float:
    """J at initial datum tau * direction, with the control v applied."""
    g, tg, masks = bundle.grid, bundle.time_grid, bundle.masks
    psi0 = BulkSurfaceField(tau * direction.bulk, tau * direction.surface)
    Psi = solve_quasilinear(bundle.cs, g, tg, F, psi0, v=v, masks=masks)
    return quadratic_energy(Psi, bundle)


def observation_pairing(Psi: SpaceTimeField, Z: SpaceTimeField,
                        bundle: SynthesisBundle) -> float:
    """theta int_{O_T} psi z + theta_s int_{Sigma_T} psi_G z_G, with the
    right-slice quadrature of the steppers (duality-exact)."""
    g, masks = bundle.grid, bundle.masks
    w = g.trapezoid_weights() * masks.obs_bulk_nodes
    ws = masks.obs_surface_mask.astype(float)
    bulk = float(np.einsum("cj,j,cj->", Psi.bulk[1:], w, Z.bulk[1:]))
    surf = float(np.einsum("cj,j,cj->", Psi.surface[1:], ws, Z.surface[1:]))
    return bundle.time_grid.dt * (bundle.theta * bulk + bundle.theta_s * surf)


def quadratic_energy(Psi: SpaceTimeField, bundle: SynthesisBundle) -> float:
    """The windowed energy J: half the observation pairing of Psi with itself."""
    return 0.5 * observation_pairing(Psi, Psi, bundle)


def insensitivity_check(bundle: SynthesisBundle, F: SpaceTimeField,
                        report: SynthesisReport,
                        directions: list[BulkSurfaceField]) -> list[dict]:
    """Two independent derivative estimators per direction.

    (i) Richardson-extrapolated centered differences of J over
    `TAU_LADDER`, around J(0) = the energy of the report's quasilinear state;
    (ii) the adjoint value <dir, H(.,0)> from the report's quasilinear
    cascade (bulk and surface terms reported separately).  The error
    budget splits FD truncation, time discretization and the synthesis
    residual ||h(.,0)||.

    The ladder's initial data +-tau * dir of every direction advance as
    one stack in a single quasilinear solve; member k's energy is the J
    that `evaluate_J` gives for its datum.  A direction whose surface is
    not its bulk's trace is refused with a ContractError.
    """
    if not all(d.is_trace_compatible(1e-12) for d in directions):
        raise ContractError("perturbation direction must be trace-compatible")
    if not directions:
        return []
    g, tg, v = bundle.grid, bundle.time_grid, report.fi_solution.v
    Psi_q, H_q = report.quasi_states
    j0 = quadratic_energy(Psi_q, bundle)
    h0 = H_q.slice(0)
    w = g.trapezoid_weights()
    h0_norm = l2_norm(h0, g)

    data = [(s * tau, d) for d in directions for tau in TAU_LADDER
            for s in (1, -1)]
    psi0 = BulkSurfaceField(np.array([t * d.bulk for t, d in data]),
                            np.array([t * d.surface for t, d in data]))
    stack = solve_quasilinear(bundle.cs, g, tg, F, psi0, v=v, masks=bundle.masks)
    energies = iter([quadratic_energy(SpaceTimeField(b, s), bundle)
                     for b, s in zip(stack.bulk, stack.surface)])

    out = []
    for d in directions:
        adj_bulk = float(np.dot(w * d.bulk, h0.bulk))
        adj_surf = float(np.dot(d.surface, h0.surface))

        D, j_plus, j_minus = [], [], []
        for tau in TAU_LADDER:
            jp, jm = next(energies), next(energies)
            j_plus.append(jp)
            j_minus.append(jm)
            D.append((jp - jm) / (2 * tau))
        rich = (4 * D[-1] - D[-2]) / 3
        e_prev, e_last = abs(D[-2] - rich), abs(D[-1] - rich)
        trend_ok = e_last <= 0.5 * e_prev or e_last < 1e-12
        coeffs = np.polyfit(np.array([*TAU_LADDER, 0.0, *(-t for t in TAU_LADDER)]),
                            np.array([*j_plus, j0, *j_minus]), 2)
        budget = {"fd_truncation": TAU_LADDER[-1]**2 * abs(coeffs[0]),
                  "time_discretization": tg.dt,
                  "synthesis_residual": h0_norm * h3_proxy_norm(d, g)}
        out.append({
            "fd_derivative": rich,
            "fd_ladder": D,
            "adjoint_bulk": adj_bulk,
            "adjoint_surface": adj_surf,
            "adjoint_total": adj_bulk + adj_surf,
            "discrepancy": abs(rich - (adj_bulk + adj_surf)),
            "quadratic_coeff": float(coeffs[0]),
            "linear_coeff": float(coeffs[1]),
            "trend_ok": trend_ok,
            "error_budget": budget,
        })
    return out
