"""Carleman-weighted space-time least squares: the constructive control step.

Unknown pair (Y, Z) of trace-compatible space-time fields with the end
constraints Y(T) = 0, Z(0) = 0 (the end conditions under which the
quadratic form is coercive: Y plays the backward adjoint variable, Z the
forward one).  The quadratic form pairs the five-component residual stack

    R1 = mu0^{-1} (L1* Y - theta  Z 1_O)        (bulk cells, left-anchored)
    R2 = mu0^{-1} (L2* Y - theta_s Z_G 1_Sigma) (surface cells)
    R3 = mu0^{-1}  L1 Z                          (bulk, right-anchored)
    R4 = mu0^{-1}  L2 Z                          (surface)
    R5 = mu1^{-1} sqrt(chi) Y                    (observation, left-anchored)

against itself in the trapezoid-plus-surface inner product, cells weighted
by dt.  The right-hand side functional pairs the source F with Y at left
slices and is zero on Z.  With those anchors the normal equations are,
row for row, the implicit-Euler weak equations of the linearized cascade
system, so the recovered triple

    Psi = mu0^{-2} (L1* Phi - theta K 1_O, L2* Phi - theta_s K_G 1_Sigma)
    H   = mu0^{-2} (L1 K, L2 K)
    v   = -chi mu1^{-2} Phi |_omega

is the cascade's step rows (`solvers._step_rows`) of the mu0^{-2}-weighted
slices of (Phi, K), the Phi rows minus the coupling
(`solvers._observation_source`).  It satisfies the discrete cascade with
sources (F, 0) up to the solver residual, and H vanishes identically on
the early cells where mu0^{-2} underflows to exact zero -- the discrete
mechanism that reaches h(., 0) = 0.

Solver: the weighted normal operator spans the full live range of the
squared Carleman weights (tens of e-folds even over the live window), far
beyond what unpreconditioned conjugate gradients can resolve in doubles.
The residual stack is assembled sparsely (it is block bidiagonal in time)
from `_step_rows` and `_observation_source` applied to the identity, the
rows and coupling the steppers apply matrix-free; the diagonally scaled
normal matrix is factorized with sparse LU, one triangular solve per
right-hand side.  No iterative refinement: kappa_1 ~ 1e19 at 128x256, so
kappa * eps >> 1 and working-precision refinement cannot reduce the error
(Higham, 2002, ch. 12).  The matrix depends on the operator (grids,
masks, weights, chi, coefficients, theta, theta_s) and never on the
sources, so one `FISolver` serves every right-hand side of that operator.
Each solve reports the normwise backward error of the scaled system (Rigal
and Gaches), the accuracy the factorization actually delivered.
Optimality is always reported through the quadratic-form geometry (the
relative Galerkin residual), which is the well-conditioned quantity;
Euclidean distances to the re-solved cascade states are reported as
diagnostics of the weight-induced null space.

A `FISolution` holds every number a solve determines.  Its `Psi` and `H`
are these (c16) fields; its `resolved` holds the cascade's states,
re-solved under its (F, v).  The two differ (`cascade_residual_check`'s
`dist_psi`, `dist_h`).  `log_norms` are the control and state core,
`lhs_rhs_ratios` the LHS/RHS ratios of the weighted estimates c21-c28 and
`log_x_norm_sq` the X norm of the (c16) triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .errors import ConditioningError, ContractError
from .geometry import (BulkSurfaceField, RegionMasks, SpatialGrid, TimeGrid,
                       face_average, grad_faces, l2_norm, sbp_laplacian,
                       slice_sq_norms, st_inner)
from .solvers import (LinearOperatorSet, _observation_source, _step_rows,
                      linear_cascade_rows, solve_linearized_cascade,
                      weak_residual)
from .weights import (WeightTables, log_add, log_ratio, log_st_sq,
                      log_weighted_sup)

# tolerance of the relative Galerkin residual in `galerkin_check`
GALERKIN_TOL = 1e-9


def _dot(u, v) -> float:
    # einsum, not the BLAS dot, whose threaded sums move the bits
    return float(np.einsum("i,i->", u, v))


@dataclass(frozen=True)
class FIProblem:
    """The Carleman-weighted least-squares operator: what the normal matrix
    depends on, and nothing else; the sources are arguments of
    `FISolver.solve`.  theta > 0, theta_s >= 0.
    """

    theta: float
    theta_s: float
    grid: SpatialGrid
    time_grid: TimeGrid
    masks: RegionMasks
    tables: WeightTables
    chi: np.ndarray           # the cutoff's node values (`build_chi`)
    ops: LinearOperatorSet

    def __post_init__(self):
        if not self.theta > 0:
            raise ContractError(f"theta must be positive, got {self.theta}")
        if self.theta_s < 0:
            raise ContractError(f"theta_s must be >= 0, got {self.theta_s}")

    def log_source_norms(self, F: BulkSurfaceField) -> dict:
        """log-space ||mu F||^2 and ||mu4 F_t||^2 of the source, whose
        slice c holds the cell-c sample (slice 0 is ignored)."""
        g, dt, t = self.grid, self.time_grid.dt, self.tables
        Ft_b, Ft_s, lw_t = _cell_time_derivative(F.bulk[1:], F.surface[1:],
                                                 t.log_mu_k[4], dt)
        return {"muF": log_st_sq(t.log_mu, F.bulk[1:], F.surface[1:], g, dt),
                "mu4Ft": log_st_sq(lw_t, Ft_b, Ft_s, g, dt)}


def _cell_time_derivative(cells_b, cells_s, log_w, dt):
    """Centered-at-interface time differences of cell arrays, with the
    interface log-weight: the mean of the neighbouring cells' log-weights."""
    db = np.diff(cells_b, axis=0) / dt
    ds = np.diff(cells_s, axis=0) / dt
    return db, ds, face_average(log_w)


@dataclass
class FISolution:
    """One least-squares solution and what it solved: the operator
    `problem` and the source F.  The checks below take the solution alone,
    so a check always reads the source it was solved for.  The cached
    values below do not survive `dataclasses.replace`: a copy with another
    source re-solves under it and measures its `lhs_rhs_ratios` against
    it."""

    Psi: BulkSurfaceField          # forward view: slice 0 is exactly 0
    H: BulkSurfaceField            # backward view: slice M is exactly 0
    v: np.ndarray                # (M+1, n_nodes), slice c = cell-c control
    optimality_residual: float
    # max|r| / (||At||_inf max|xt| + max|bt|) of the scaled system
    backward_error: float
    x_dofs: np.ndarray
    problem: FIProblem = field(repr=False)
    F: BulkSurfaceField = field(repr=False)

    @cached_property
    def log_norms(self) -> dict:
        """log ||mu0 Psi||^2, ||mu0 H||^2, ||mu1 v||^2, ||mu3 v_t||^2 (Psi, v
        on right slices, H on left ones), the X norm's control and state core."""
        p, Psi, H, v = self.problem, self.Psi, self.H, self.v
        g, dt, lm = p.grid, p.time_grid.dt, p.tables.log_mu_k
        vt = np.diff(v[1:], axis=0) / dt
        return {"mu0Psi": log_st_sq(lm[0], Psi.bulk[1:], Psi.surface[1:], g, dt),
                "mu0H": log_st_sq(lm[0], H.bulk[:-1], H.surface[:-1], g, dt),
                "mu1v": log_st_sq(lm[1], v[1:], None, g, dt),
                "mu3vt": log_st_sq(face_average(lm[3]), vt, None, g, dt)}

    @cached_property
    def resolved(self) -> tuple[BulkSurfaceField, BulkSurfaceField]:
        """The cascade's states (psi, h) under (F, v); never written."""
        p = self.problem
        return solve_linearized_cascade(p.ops, self.F, self.v, p.theta,
                                        p.theta_s, p.masks)

    @cached_property
    def lhs_rhs_ratios(self) -> dict:
        """LHS/RHS ratios of the weighted estimates: c21 (control and
        state), c41 (v_t) and the four additional ones, c25-c28.

        c21 and c41 read the (c16) fields through `log_norms`.  For c25-c28
        the forward state is the re-solved psi of `resolved`, which decays
        at the admissible rate; zeroed on the weight-dead cells (weights
        unbounded there, state below truncation level) it is a member of
        the weighted space.  Its smoothness in time matters for the
        difference quotients, as the (c16) field carries solver noise that
        time-differencing amplifies with the grid.  The backward state is
        the (c16) H, the only one whose early tail respects the weights.
        """
        p, ln = self.problem, self.log_norms
        g, dt, t = p.grid, p.time_grid.dt, p.tables
        src = p.log_source_norms(self.F)
        log_rhs_a = src["muF"]
        lhs_c21 = log_add(ln["mu0Psi"], ln["mu0H"], ln["mu1v"])
        if lhs_c21 > -math.inf and log_rhs_a == -math.inf:
            raise ContractError("nonzero state from identically zero sources")
        log_rhs_b = log_add(log_rhs_a, src["mu4Ft"])
        lm = t.log_mu_k
        lw3, lw4, lw5 = face_average(lm[3:])
        Hv = g.trapezoid_weights()
        Hf = np.full(g.cell_count, g.h)     # faces carry quadrature weight h

        def state_terms(B, S):
            """One state's c25 and c26 terms, each in summation order, then
            its Laplacian and its time differences."""
            gB, lapB = grad_faces(B, g), sbp_laplacian(B, g)
            Bt_b, Bt_s = np.diff(B, axis=0) / dt, np.diff(S, axis=0) / dt
            return ((log_weighted_sup(lm[2], (B, Hv), (S, 1.0)),
                     log_st_sq(lm[2], gB, None, g, dt)),
                    (log_weighted_sup(lm[3], (gB, Hf)),
                     log_st_sq(lw3, Bt_b, Bt_s, g, dt),
                     log_st_sq(lm[3], lapB, None, g, dt)), lapB, Bt_b, Bt_s)

        Psi = self.resolved[0]
        P25, P26, lapP, Pt_b, Pt_s = state_terms(
            *(np.where(t.live[:, None], A[1:], 0.0) for A in (Psi.bulk, Psi.surface)))
        H25, H26, *_ = state_terms(self.H.bulk[:-1], self.H.surface[:-1])
        gPt = grad_faces(Pt_b, g)
        lapPt = sbp_laplacian(Pt_b, g)
        Ptt_b = np.diff(Pt_b, axis=0) / dt
        Ptt_s = np.diff(Pt_s, axis=0) / dt
        lw5c = lm[5][1:-1]
        lhs_c25 = log_add(*P25, *H25)
        lhs_c26 = log_add(*P26, *H26)
        lhs_c27 = log_add(
            log_weighted_sup(lw4, (Pt_b, Hv), (Pt_s, 1.0)),
            log_st_sq(lw4, gPt, None, g, dt))
        lhs_c28 = log_add(
            log_weighted_sup(lw5, (gPt, Hf)),
            log_st_sq(lw5c, Ptt_b, Ptt_s, g, dt),
            log_st_sq(lw5, lapPt, None, g, dt),
            log_weighted_sup(lm[5], (lapP, Hv)))
        return {"c21": log_ratio(lhs_c21, log_rhs_a),
                "c41": log_ratio(ln["mu3vt"], log_rhs_a),
                "c25": log_ratio(lhs_c25, log_rhs_a),
                "c26": log_ratio(lhs_c26, log_rhs_a),
                "c27": log_ratio(lhs_c27, log_rhs_b),
                "c28": log_ratio(lhs_c28, log_rhs_b)}

    @cached_property
    def log_x_norm_sq(self) -> float:
        """log ||(Psi,H,v)||_X^2 of the (c16) triple: the state space's ladder.

        Sums the control and state core `log_norms`, the time-derivative
        and Laplacian components, the L-residual components and the sup
        terms.  The order of `parts` is the summation order.
        """
        p, Psi, H, v = self.problem, self.Psi, self.H, self.v
        g, dt, t = p.grid, p.time_grid.dt, p.tables
        lm = t.log_mu_k
        Hv = g.trapezoid_weights()
        Pb, Ps = Psi.bulk[1:], Psi.surface[1:]
        core = self.log_norms
        parts = {"mu0Psi": core["mu0Psi"], "mu0H": core["mu0H"],
                 "mu3LapH": log_st_sq(lm[3], sbp_laplacian(H.bulk[:-1], g), None, g, dt)}
        Pt_b, Pt_s, lw4 = _cell_time_derivative(Pb, Ps, lm[4], dt)
        parts["mu4Psit"] = log_st_sq(lw4, Pt_b, Pt_s, g, dt)
        lw5 = face_average(lm[5])
        parts["mu5LapPsit"] = log_st_sq(lw5, sbp_laplacian(Pt_b, g), None, g, dt)
        parts["mu1v"], parts["mu3vt"] = core["mu1v"], core["mu3vt"]
        vH2 = slice_sq_norms((v[1:], Hv), (grad_faces(v[1:], g), g.h),
                             (sbp_laplacian(v[1:], g), Hv))
        parts["vH2"] = (float(np.log(np.sum(vH2) * dt)) if np.sum(vH2) > 0 else -math.inf)

        rows = linear_cascade_rows(Psi, H, v, p.ops, p.theta, p.theta_s, p.masks)
        parts["muLPsi"] = log_st_sq(t.log_mu, rows["L1"][1:], rows["L3"][1:], g, dt)
        Lt_b, Lt_s, lwL = _cell_time_derivative(rows["L1"][1:], rows["L3"][1:],
                                                lm[4], dt)
        parts["mu4LPsit"] = log_st_sq(lwL, Lt_b, Lt_s, g, dt)
        parts["muLH"] = log_st_sq(t.log_mu, rows["L2"][1:], rows["L4"][1:], g, dt)

        # sup terms: H1 of Psi_t and H2 of Psi against mu5
        parts["sup_mu5_Psit_H1"] = log_weighted_sup(
            lw5, (Pt_b, Hv), (Pt_s, 1.0), (grad_faces(Pt_b, g), g.h))
        parts["sup_mu5_Psi_H2"] = log_weighted_sup(
            lm[5], (Pb, Hv), (Ps, 1.0), (grad_faces(Pb, g), g.h),
            (sbp_laplacian(Pb, g), Hv))
        return log_add(*parts.values())


# --- the residual stack, as functions of the operator p ---------------------
# Dof packing: Y slices 0..M-1 then Z slices 1..M, each n_nodes wide (the
# constrained end slices are not dofs).  Stack rows are ordered (R1 bulk,
# R2 surface, R3 bulk, R4 surface, R5 observation), cells fastest within
# each block.

def _residual_stack(p: FIProblem) -> sparse.csr_matrix:
    """The sparse unweighted residual stack R, from the stepper's rows."""
    M, n, dt = p.time_grid.step_count, p.grid.n_nodes, p.time_grid.dt
    # the stencils act on the last axis, so applied to the identity they
    # return their transposes; equal slices leave the generator S alone
    eye = np.eye(n)
    tr = eye[:, [0, -1]]
    S = [sparse.csr_matrix(r.T) for r in _step_rows(p.ops, eye, tr, eye, tr)]
    C = _observation_source(BulkSurfaceField(eye, tr), p.theta, p.theta_s, p.masks)
    I_M, X = sparse.identity(M), (sparse.identity(n), sparse.csr_matrix(tr.T))

    def cells(other):
        """Cell k's rows X/dt + S on its anchor dof, -X/dt on `other`'s.
        Adding X/dt to S keeps R's rounding: `_step_rows` against zero
        slices would round the surface row as (1/dt + sigma0 dnu) + db0."""
        return [sparse.kron(I_M, x / dt + s) - sparse.kron(other, x / dt)
                for x, s in zip(X, S)]

    (Yb, Ys), (Zb, Zs) = cells(sparse.eye(M, k=1)), cells(sparse.eye(M, k=-1))
    return sparse.bmat([
        [Yb, sparse.kron(I_M, -C.bulk.T)],
        [Ys, sparse.kron(I_M, -C.surface.T)],
        [None, Zb],
        [None, Zs],
        [sparse.kron(I_M, sparse.diags(np.sqrt(p.chi))), None],
    ], format="csr")


def _row_weights(p: FIProblem) -> np.ndarray:
    """The stack rows' weights: dt times the node quadrature times the
    cell's mu0^-2 (R1-R4) or mu1^-2 (R5)."""
    dt, Hv = p.time_grid.dt, p.grid.trapezoid_weights()
    w0, w1 = (dt * p.tables.inv_sq(k)[:, None] for k in (0, 1))
    rows0 = [(w0 * Hv).ravel(), (w0 * np.ones((1, 2))).ravel()]
    return np.concatenate([*rows0, *rows0, (w1 * Hv).ravel()])


def _wmul(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The weighted rows w r with exact zeros: rows of zero weight kill
    whatever the raw residual holds (it may be unrepresentable there)."""
    out = np.zeros_like(r)
    nz = w > 0
    out[nz] = w[nz] * r[nz]
    return out


def _source_rhs(p: FIProblem, F: BulkSurfaceField) -> np.ndarray:
    """The linear functional of the source: F paired with Y, zero on Z."""
    dt, Hv = p.time_grid.dt, p.grid.trapezoid_weights()
    b = dt * (Hv * F.bulk[1:])
    b[:, [0, -1]] += dt * F.surface[1:]
    return np.concatenate([b.ravel(), np.zeros(b.size)])


def _unpack_dofs(p: FIProblem, x: np.ndarray):
    """The bulk slices 0..M of (Y, Z) from dofs x, zero at the end slices."""
    M, n = p.time_grid.step_count, p.grid.n_nodes
    Yf, Zf = np.zeros((2, M + 1, n))
    Yf[:M], Zf[1:] = x.reshape(2, M, n)
    return Yf, Zf


def _recover_fields(p: FIProblem, x, final_res, backward_error, F) -> FISolution:
    """The (c16) solution of dofs x: the step rows of the w0-weighted
    slices, the Psi rows minus the weighted Z's coupling, v = -chi w1 Y.
    The weight multiplies the slices before any stencil, so no
    weight-damped product passes through an unrepresentable value; on
    random_fourier at 128x256 the dofs reach 6.9e299 and `R x` 3.3e304,
    and weighting R x instead moves Psi and H by up to 1.7e-7 relative."""
    M, w0 = p.time_grid.step_count, p.tables.inv_sq(0)
    Yf, Zf = _unpack_dofs(p, x)
    Ya, Yo, Za, Zo = (BulkSurfaceField.from_bulk(w0[:, None] * A)
                      for A in (Yf[:-1], Yf[1:], Zf[1:], Zf[:-1]))
    coupling = _observation_source(Za, p.theta, p.theta_s, p.masks)
    # forward view Psi (cell k -> slice k+1), backward view H (k -> k)
    Psi, H = (BulkSurfaceField.zeros(p.grid, M + 1) for _ in range(2))
    Psi.bulk[1:], Psi.surface[1:] = _step_rows(p.ops, Ya.bulk, Ya.surface,
                                               Yo.bulk, Yo.surface)
    Psi.bulk[1:] -= coupling.bulk
    Psi.surface[1:] -= coupling.surface
    H.bulk[:M], H.surface[:M] = _step_rows(p.ops, Za.bulk, Za.surface,
                                           Zo.bulk, Zo.surface)
    v = np.zeros((M + 1, p.grid.n_nodes))
    v[1:] = -p.chi[None, :] * (p.tables.inv_sq(1)[:, None] * Yf[:-1])
    for arr in (Psi.bulk, Psi.surface, H.bulk, H.surface, v):
        if not np.all(np.isfinite(arr)):
            raise ConditioningError(
                "recovered fields overflow double range; weight spread too "
                "large for this configuration")
    return FISolution(Psi=Psi, H=H, v=v, optimality_residual=final_res,
                      backward_error=backward_error, x_dofs=x,
                      problem=p, F=F)


class FISolver:
    """Reusable solver: the normal matrix and its factorization depend only
    on the operator (geometry, weights, theta, theta_s), not on the
    sources.  One factorization, made on the first solve, is shared
    through `SynthesisBundle.fi_solver` by every synthesis on that bundle,
    as by the values of a sweep that leave the operator unchanged; each
    synthesis makes one solve.  A solver keeps only the operator
    `problem`, the scaling `D`, the scaled normal matrix `At = D R^T W R D`
    (dead dofs pinned), its norm `At_inf` and, once made, the factor `lu`;
    no solve reads the residual stack R or its row weights W again."""

    def __init__(self, problem: FIProblem):
        self.problem = problem
        R = _residual_stack(problem)
        A = (R.T @ sparse.diags(_row_weights(problem)) @ R).tocsc()
        del R
        diag = A.diagonal()
        # dofs whose diagonal sits > ~30 decades below the peak are
        # numerically invisible; pin them instead of letting subnormal
        # scales poison the factorization
        live = diag > 1e-30 * diag.max()
        self.D = np.where(live, 1.0 / np.sqrt(np.where(live, diag, 1.0)), 0.0)
        dead = (~live).astype(float)
        self.At = (sparse.diags(self.D) @ A @ sparse.diags(self.D)).tocsc() \
            + sparse.diags(dead)
        self.At_inf = float(abs(self.At).sum(axis=1).max())

    @cached_property
    def lu(self):
        """The sparse LU factor of At, made on the first solve that needs it."""
        try:
            return splu(self.At)
        except RuntimeError as exc:
            raise ConditioningError(f"sparse factorization failed: {exc}") from exc

    def solve(self, F: BulkSurfaceField) -> FISolution:
        """Solve for the cell-indexed forward source F (slice c holds the
        cell-c sample, c = 1..M; slice 0 is ignored), the backward one
        zero, and recover (Psi, H, v) via (c16)."""
        p = self.problem
        for nm, lg in p.log_source_norms(F).items():
            if not (lg < math.inf):
                raise ContractError(f"weighted source norm {nm} is not finite")
        b = _source_rhs(p, F)
        if not np.any(b):
            return _recover_fields(p, np.zeros(b.size), 0.0, 0.0, F)
        bt = self.D * b
        if not np.any(bt):
            raise ConditioningError(
                "the source lies entirely on dofs below the live threshold; "
                "weight spread too large for this configuration")
        lu = self.lu
        # overflow here ends in _recover_fields' ConditioningError
        with np.errstate(over="ignore", invalid="ignore"):
            # no refinement: at kappa * eps >> 1 it cannot reduce the error
            xt = lu.solve(bt)
            r = bt - self.At @ xt
            r_2, b_2 = (math.sqrt(_dot(u, u)) for u in (r, bt))
            res = r_2 / max(b_2, 1e-300)
            # max-abs norms: the 2-norms' squares overflow near the dofs'
            # 1e148 and underflow to zero for tiny sources
            r_max, x_max, b_max = (float(np.max(np.abs(u))) for u in (r, xt, bt))
            backward = r_max / (self.At_inf * x_max + b_max)
            return _recover_fields(p, self.D * xt, res, backward, F)


def galerkin_check(sol: FISolution, n_dirs: int, rng) -> dict:
    """Optimality in the quadratic-form geometry.

    Reports max over random directions of
        |B(x, d) - F(d)| / (||d||_B ||x||_B),
    the Cauchy-Schwarz-consistent relative Galerkin residual, against
    GALERKIN_TOL.
    """
    p, x = sol.problem, sol.x_dofs
    R, w = _residual_stack(p), _row_weights(p)

    def B_norm(u) -> float:
        r = R @ u
        return math.sqrt(max(_dot(_wmul(w, r), r), 0.0))

    resid = _source_rhs(p, sol.F) - R.T @ _wmul(w, R @ x)
    xB = B_norm(x)
    worst, details = 0.0, []
    for _ in range(n_dirs):
        d = rng.standard_normal(x.size)
        dB = B_norm(d)
        gal = abs(_dot(resid, d))
        scaled = gal / max(GALERKIN_TOL * dB * xB, 1e-300)
        worst = max(worst, scaled)
        details.append((gal, dB))
    return {"max_scaled_residual": worst, "details": details,
            "pass": worst <= 1.0}


def cascade_residual_check(sol: FISolution) -> dict:
    """Does the recovered control solve the discrete linearized cascade?

    Reads the cascade's states `sol.resolved` and reports (a) their weak
    distributional residual (the solver contract), (b) the relative
    L2(0,T;L2) distance between the recovered (c16) pair and the states (a
    diagnostic of the weight-induced numerical null space; exact-zero on
    tame weights), and (c) the re-solved h(., first node) norm.
    """
    p = sol.problem
    g, tg = p.grid, p.time_grid
    Psi_rs, H_rs = sol.resolved
    vmask = sol.v * p.masks.omega_nodes[None, :]
    Feff = BulkSurfaceField(sol.F.bulk + vmask, sol.F.surface.copy())
    res_fwd = weak_residual(p.ops, Psi_rs, Feff)
    Geff = _observation_source(Psi_rs, p.theta, p.theta_s, p.masks)
    res_bwd = weak_residual(p.ops, H_rs, Geff, backward=True)

    def st_dist(A, B, slices):
        D = BulkSurfaceField(A.bulk - B.bulk, A.surface - B.surface)
        num, den = (st_inner(U, U, g, tg.dt, slices) for U in (D, B))
        return math.sqrt(num / max(den, 1e-300))

    dist_psi = st_dist(sol.Psi, Psi_rs, slice(1, None))
    dist_h = st_dist(sol.H, H_rs, slice(None, -1))
    return {"weak_residual_forward": res_fwd, "weak_residual_backward": res_bwd,
            "dist_psi": dist_psi, "dist_h": dist_h,
            "resolved_h0_norm": l2_norm(H_rs.slice(0), g)}
