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
by dt.  The right-hand side functional pairs the forward source F with Y
at left slices and the backward source G with Z at right slices.  With
those anchors the normal equations are, row for row, the implicit-Euler
weak equations of the linearized cascade system, so the recovered triple

    Psi = mu0^{-2} (L1* Phi - theta K 1_O, L2* Phi - theta_s K_G 1_Sigma)
    H   = mu0^{-2} (L1 K, L2 K)
    v   = -chi mu1^{-2} Phi |_omega

satisfies the discrete cascade with sources (F, G) up to the solver
residual, and H vanishes identically on the early cells where mu0^{-2}
underflows to exact zero -- the discrete mechanism that reaches
h(., 0) = 0.

Solver: the weighted normal operator spans the full live range of the
squared Carleman weights (tens of e-folds even over the live window), far
beyond what unpreconditioned conjugate gradients can resolve in doubles.
The residual stack is assembled sparsely (it is block bidiagonal in time)
from the same SBP stencils `geometry` applies matrix-free; the diagonally
scaled normal matrix is factorized with sparse LU, one triangular solve per
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .errors import ConditioningError, ContractError
from .geometry import (SpaceTimeField, SpatialGrid, grad_faces, l2_norm,
                       normal_derivative, sbp_laplacian)
from .solvers import (LinearOperatorSet, solve_linearized_cascade, weak_residual)
from .weights import (ChiBump, WeightTables, log_add, log_ratio, log_st_sq,
                      log_weighted_sup)

# tolerance of the relative Galerkin residual in `galerkin_check`
GALERKIN_TOL = 1e-9


@dataclass
class FIProblem:
    """Sources and weights for one least-squares solve.

    F and G are cell-indexed SpaceTimeFields (slice c holds the cell-c
    sample, c = 1..M; slice 0 is ignored).  theta > 0, theta_s >= 0.
    """

    F: SpaceTimeField
    G: SpaceTimeField
    theta: float
    theta_s: float
    grid: SpatialGrid
    time_grid: "object"
    masks: "object"
    tables: WeightTables
    chi: ChiBump
    ops: LinearOperatorSet

    def __post_init__(self):
        if not self.theta > 0:
            raise ContractError(f"theta must be positive, got {self.theta}")
        if self.theta_s < 0:
            raise ContractError(f"theta_s must be >= 0, got {self.theta_s}")
        self.check_sources(self.F, self.G)

    def check_sources(self, F: SpaceTimeField, G: SpaceTimeField) -> None:
        """Raise unless every weighted norm of the sources (F, G) is finite."""
        for nm, lg in source_log_norms(F.bulk, F.surface, G.bulk, G.surface,
                                       self.tables, self.grid,
                                       self.time_grid.dt).items():
            if not (lg < math.inf):
                raise ContractError(f"weighted source norm {nm} is not finite")

    def log_source_norms(self) -> dict:
        return source_log_norms(self.F.bulk, self.F.surface, self.G.bulk,
                                self.G.surface, self.tables, self.grid,
                                self.time_grid.dt)

    def log_Y_norm_sq(self) -> float:
        return log_add(*self.log_source_norms().values())


def source_log_norms(Fb, Fs, Gb, Gs, tables: WeightTables, grid: SpatialGrid,
                     dt: float) -> dict:
    """log-space ||mu F||^2, ||mu G||^2, ||mu4 F_t||^2 of slice arrays
    whose slice c holds the cell-c sample (slice 0 is ignored)."""
    out = {nm: log_st_sq(tables.log_mu, Sb[1:], Ss[1:], grid, dt)
           for nm, Sb, Ss in (("muF", Fb, Fs), ("muG", Gb, Gs))}
    Ft_b, Ft_s, lw_t = _cell_time_derivative(Fb[1:], Fs[1:], tables.log_mu_k[4], dt)
    out["mu4Ft"] = log_st_sq(lw_t, Ft_b, Ft_s, grid, dt)
    return out


def core_log_norms(Psi: SpaceTimeField, H: SpaceTimeField, v: np.ndarray,
                   tables: WeightTables, grid: SpatialGrid, dt: float) -> dict:
    """log ||mu0 Psi||^2, ||mu0 H||^2, ||mu1 v||^2 and ||mu3 v_t||^2: the
    control and state core of the X norm (Psi and v on right slices, H on
    left slices)."""
    lm = tables.log_mu_k
    vt = np.diff(v[1:], axis=0) / dt
    return {"mu0Psi": log_st_sq(lm[0], Psi.bulk[1:], Psi.surface[1:], grid, dt),
            "mu0H": log_st_sq(lm[0], H.bulk[:-1], H.surface[:-1], grid, dt),
            "mu1v": log_st_sq(lm[1], v[1:], None, grid, dt),
            "mu3vt": log_st_sq(_interface_log_weight(lm[3]), vt, None, grid, dt)}


def _interface_log_weight(log_w):
    """Log-weight of the interfaces between cells: the neighbours' mean."""
    return 0.5 * (log_w[1:] + log_w[:-1])


def _cell_time_derivative(cells_b, cells_s, log_w, dt):
    """Centered-at-interface time differences of cell arrays, with the
    interface log-weight of `_interface_log_weight`."""
    db = np.diff(cells_b, axis=0) / dt
    ds = np.diff(cells_s, axis=0) / dt
    return db, ds, _interface_log_weight(log_w)


@dataclass
class FISolution:
    Psi: SpaceTimeField          # forward view: slice 0 is exactly 0
    H: SpaceTimeField            # backward view: slice M is exactly 0
    v: np.ndarray                # (M+1, n_nodes), slice c = cell-c control
    optimality_residual: float
    # max|r| / (||At||_inf max|xt| + max|bt|) of the scaled system
    backward_error: float
    log_norms: dict = field(default_factory=dict)
    x_dofs: np.ndarray | None = None


class _Stack:
    """Sparse residual stack, its normal matrix, and block helpers.

    Dof packing: Y slices 0..M-1 then Z slices 1..M, each n_nodes wide
    (the constrained end slices are not dofs).  Stack rows are ordered
    (R1 bulk, R2 surface, R3 bulk, R4 surface, R5 observation), cells
    fastest within each block.
    """

    def __init__(self, p: FIProblem):
        g = p.grid
        tg = p.time_grid
        self.p = p
        self.g = g
        self.M = tg.step_count
        self.n = g.n_nodes
        self.dt = tg.dt
        self.Hvec = g.trapezoid_weights()
        self.w0 = p.tables.inv_sq(0)
        self.w1 = p.tables.inv_sq(1)
        self.chi = p.chi.values
        self.sqrt_chi = np.sqrt(p.chi.values)
        self.mO = p.masks.obs_bulk_nodes.astype(float)
        self.mS = p.masks.obs_surface_mask.astype(float)
        self.s0 = p.ops.sigma0
        self.da0 = p.ops.da0
        self.db0 = p.ops.db0
        self.n_dofs = 2 * self.M * self.n
        self._R = None
        self._A = None
        self._wrow = None

    # --- sparse assembly ---------------------------------------------------

    def _spatial_blocks(self):
        """The geometry stencils as sparse matrices: applied to the identity
        they return their transposes (they act on the last axis)."""
        eye = np.eye(self.n)
        lap = sparse.csr_matrix(sbp_laplacian(eye, self.g).T)
        dnu = sparse.csr_matrix(normal_derivative(eye, self.g).T)
        tr = sparse.csr_matrix(eye[[0, -1]])
        return lap, dnu, tr

    def R_matrix(self) -> sparse.csr_matrix:
        if self._R is not None:
            return self._R
        M, n, dt = self.M, self.n, self.dt
        lap, dnu, tr = self._spatial_blocks()
        Ssp = -self.s0 * lap + self.da0 * sparse.identity(n)
        Ssurf = self.s0 * dnu + self.db0 * tr
        S_L = sparse.hstack([sparse.identity(M), sparse.csr_matrix((M, 1))]).tocsr()
        S_R = sparse.hstack([sparse.csr_matrix((M, 1)), sparse.identity(M)]).tocsr()
        E_Y = sparse.vstack([sparse.identity(M), sparse.csr_matrix((1, M))]).tocsr()
        E_Z = sparse.vstack([sparse.csr_matrix((1, M)), sparse.identity(M)]).tocsr()
        kron = sparse.kron
        EYn = kron(E_Y, sparse.identity(n))
        EZn = kron(E_Z, sparse.identity(n))
        self._R = sparse.bmat([
            [(kron((S_L - S_R) / dt, sparse.identity(n)) + kron(S_L, Ssp)) @ EYn,
             (-self.p.theta * kron(S_R, sparse.diags(self.mO))) @ EZn],
            [(kron((S_L - S_R) / dt, tr) + kron(S_L, Ssurf)) @ EYn,
             (-self.p.theta_s * kron(S_R, sparse.diags(self.mS) @ tr)) @ EZn],
            [None,
             (kron((S_R - S_L) / dt, sparse.identity(n)) + kron(S_R, Ssp)) @ EZn],
            [None,
             (kron((S_R - S_L) / dt, tr) + kron(S_R, Ssurf)) @ EZn],
            [kron(S_L, sparse.diags(self.sqrt_chi)) @ EYn, None],
        ], format="csr")
        return self._R

    def row_weights(self) -> np.ndarray:
        if self._wrow is None:
            dt, Hv = self.dt, self.Hvec
            ones2 = np.ones((1, 2))
            self._wrow = np.concatenate([
                (dt * self.w0[:, None] * Hv[None, :]).ravel(),
                (dt * self.w0[:, None] * ones2).ravel(),
                (dt * self.w0[:, None] * Hv[None, :]).ravel(),
                (dt * self.w0[:, None] * ones2).ravel(),
                (dt * self.w1[:, None] * Hv[None, :]).ravel(),
            ])
        return self._wrow

    def A_matrix(self) -> sparse.csc_matrix:
        if self._A is None:
            R = self.R_matrix()
            self._A = (R.T @ sparse.diags(self.row_weights()) @ R).tocsc()
        return self._A

    def _wmul(self, r: np.ndarray) -> np.ndarray:
        """Weight application with exact zeros: rows of zero weight kill
        whatever the raw residual holds (it may be unrepresentable there)."""
        w = self.row_weights()
        out = np.zeros_like(r)
        nz = w > 0
        out[nz] = w[nz] * r[nz]
        return out

    def apply_A(self, x: np.ndarray) -> np.ndarray:
        R = self.R_matrix()
        return R.T @ self._wmul(R @ x)

    # --- block helpers (dense, vectorized) ----------------------------------

    def unpack(self, x):
        M, n = self.M, self.n
        Yf = np.zeros((M + 1, n))
        Zf = np.zeros((M + 1, n))
        Yf[:M] = x[:M * n].reshape(M, n)
        Zf[1:] = x[M * n:].reshape(M, n)
        return Yf, Zf

    def pack(self, Yd, Zd):
        return np.concatenate([np.asarray(Yd).ravel(), np.asarray(Zd).ravel()])

    def block_shapes(self):
        M, n = self.M, self.n
        return [(M, n), (M, 2), (M, n), (M, 2), (M, n)]

    def split_stack(self, vec):
        out, o = [], 0
        for s in self.block_shapes():
            sz = int(np.prod(s))
            out.append(vec[o:o + sz].reshape(s))
            o += sz
        return tuple(out)

    def forward_blocks(self, x):
        """Unweighted residual blocks via the sparse stack."""
        return self.split_stack(self.R_matrix() @ x)

    def stack_norm_sq(self, x) -> float:
        r = self.R_matrix() @ x
        return float(np.dot(self._wmul(r), r))

    def rhs(self, F: SpaceTimeField, G: SpaceTimeField):
        """The linear functional of the sources: F paired with Y, G with Z."""
        dt = self.dt
        bY = dt * (self.Hvec[None, :] * F.bulk[1:])
        bY[:, 0] += dt * F.surface[1:, 0]
        bY[:, -1] += dt * F.surface[1:, 1]
        bZ = dt * (self.Hvec[None, :] * G.bulk[1:])
        bZ[:, 0] += dt * G.surface[1:, 0]
        bZ[:, -1] += dt * G.surface[1:, 1]
        return self.pack(bY, bZ)

    def recover_fields(self, x):
        """Scale-safe (c16) recovery: the cell weight multiplies the slices
        before any stencil is applied, so weight-damped products never pass
        through unrepresentable intermediates."""
        p, dt, g = self.p, self.dt, self.g
        M, n = self.M, self.n
        Yf, Zf = self.unpack(x)
        w0c, w1c = self.w0[:, None], self.w1[:, None]

        Ya0, Yo0 = w0c * Yf[:-1], w0c * Yf[1:]
        Za0, Zo0 = w0c * Zf[1:], w0c * Zf[:-1]
        psi_b = (Ya0 - Yo0) / dt - self.s0 * sbp_laplacian(Ya0, g) \
            + self.da0 * Ya0 - p.theta * (w0c * Zf[1:]) * self.mO[None, :]
        psi_s = (Ya0[:, [0, -1]] - Yo0[:, [0, -1]]) / dt \
            + self.s0 * normal_derivative(Ya0, g) + self.db0 * Ya0[:, [0, -1]] \
            - p.theta_s * (w0c * Zf[1:])[:, [0, -1]] * self.mS[None, :]
        h_b = (Za0 - Zo0) / dt - self.s0 * sbp_laplacian(Za0, g) + self.da0 * Za0
        h_s = (Za0[:, [0, -1]] - Zo0[:, [0, -1]]) / dt \
            + self.s0 * normal_derivative(Za0, g) + self.db0 * Za0[:, [0, -1]]
        v_cells = -self.chi[None, :] * (w1c * Yf[:-1])
        return psi_b, psi_s, h_b, h_s, v_cells


def _fields_to_dofs(st: _Stack, Y: SpaceTimeField, Z: SpaceTimeField):
    M = st.M
    if np.max(np.abs(Y.bulk[M])) > 1e-13 * (1 + np.max(np.abs(Y.bulk))):
        raise ContractError("Y must vanish at its terminal slice (space P)")
    if np.max(np.abs(Z.bulk[0])) > 1e-13 * (1 + np.max(np.abs(Z.bulk))):
        raise ContractError("Z must vanish at its initial slice (space P)")
    return st.pack(Y.bulk[:M].copy(), Z.bulk[1:].copy())


def apply_residual_R(Y: SpaceTimeField, Z: SpaceTimeField, problem: FIProblem) -> dict:
    """Weighted five-component residual stack of a test pair in P."""
    st = _Stack(problem)
    x = _fields_to_dofs(st, Y, Z)
    r1b, r1s, r3b, r3s, r5 = st.forward_blocks(x)
    w0 = np.where(st.w0 > 0, np.sqrt(st.w0), 0.0)[:, None]
    w1 = np.where(st.w1 > 0, np.sqrt(st.w1), 0.0)[:, None]
    return {"adjoint_bulk": w0 * r1b, "adjoint_surface": w0 * r1s,
            "forward_bulk": w0 * r3b, "forward_surface": w0 * r3s,
            "observation": w1 * r5}


def bilinear_B(problem: FIProblem, YZ, YZbar) -> float:
    """B((Y,Z),(Ybar,Zbar)) through the weighted residual stacks."""
    st = _Stack(problem)
    x = _fields_to_dofs(st, *YZ)
    xb = _fields_to_dofs(st, *YZbar)
    R = st.R_matrix()
    return float(np.dot(st.row_weights() * (R @ x), R @ xb))


def linear_F(problem: FIProblem, YZ) -> float:
    st = _Stack(problem)
    return float(np.dot(st.rhs(problem.F, problem.G), _fields_to_dofs(st, *YZ)))


class FISolver:
    """Reusable solver: the normal matrix and its factorization depend only
    on the operator (geometry, weights, theta, theta_s), not on the
    sources.  One factorization, made on the first solve, is shared by the
    outer-loop iterations of a synthesis and, through
    `SynthesisBundle.fi_solver`, by every sweep value whose bundle is
    unchanged.  The solve is then a fixed linear map of the right-hand
    side, and increments of iterated solves inherit the contraction of the
    source corrections exactly."""

    def __init__(self, problem: FIProblem):
        self.problem = problem
        self.stack = _Stack(problem)
        A = self.stack.A_matrix()
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
        self._lu = None

    def solve(self, F: SpaceTimeField | None = None,
              G: SpaceTimeField | None = None) -> FISolution:
        """Solve for the sources (F, G), by default the problem's own."""
        p, st = self.problem, self.stack
        F = p.F if F is None else F
        G = p.G if G is None else G
        p.check_sources(F, G)
        b = st.rhs(F, G)
        if not np.any(b):
            return _recover(st, np.zeros(st.n_dofs), 0.0, 0.0)
        bt = self.D * b
        if self._lu is None:
            try:
                self._lu = splu(self.At)
            except RuntimeError as exc:
                raise ConditioningError(
                    f"sparse factorization failed: {exc}") from exc
        # no refinement: at kappa * eps >> 1 it cannot reduce the error
        xt = self._lu.solve(bt)
        r = bt - self.At @ xt
        res = float(np.linalg.norm(r) / max(np.linalg.norm(bt), 1e-300))
        # max-abs norms: the 2-norms' squares overflow near the dofs' 1e148
        # and underflow to zero for tiny sources
        r_max, x_max, b_max = (float(np.max(np.abs(u))) for u in (r, xt, bt))
        backward = r_max / (self.At_inf * x_max + b_max)
        return _recover(st, self.D * xt, res, backward)


def solve_fi(problem: FIProblem) -> FISolution:
    """Solve the normal equations and recover (Psi, H, v) via (c16)."""
    return FISolver(problem).solve()


def _recover(st: _Stack, x, final_res, backward_error) -> FISolution:
    M, n = st.M, st.n
    psi_b, psi_s, h_b, h_s, v_cells = st.recover_fields(x)
    for arr in (psi_b, psi_s, h_b, h_s, v_cells):
        if not np.all(np.isfinite(arr)):
            raise ConditioningError(
                "recovered fields overflow double range; weight spread too "
                "large for this configuration")

    Psi = SpaceTimeField.zeros(st.g, M + 1)
    Psi.bulk[1:] = psi_b            # forward view: cell k -> slice k+1
    Psi.surface[1:] = psi_s
    H = SpaceTimeField.zeros(st.g, M + 1)
    H.bulk[:M] = h_b                # backward view: cell k -> slice k
    H.surface[:M] = h_s

    v = np.zeros((M + 1, n))
    v[1:] = v_cells

    return FISolution(Psi=Psi, H=H, v=v, optimality_residual=final_res,
                      backward_error=backward_error, x_dofs=x,
                      log_norms=core_log_norms(Psi, H, v, st.p.tables, st.g, st.dt))


def galerkin_check(sol: FISolution, problem: FIProblem, n_dirs: int, rng) -> dict:
    """Optimality in the quadratic-form geometry.

    Reports max over random directions of
        |B(x, d) - F(d)| / (||d||_B ||x||_B),
    the Cauchy-Schwarz-consistent relative Galerkin residual, against
    GALERKIN_TOL.
    """
    st = _Stack(problem)
    x = sol.x_dofs
    resid = st.rhs(problem.F, problem.G) - st.apply_A(x)
    xB = math.sqrt(max(st.stack_norm_sq(x), 0.0))
    worst, details = 0.0, []
    for _ in range(n_dirs):
        d = rng.standard_normal(st.n_dofs)
        dB = math.sqrt(max(st.stack_norm_sq(d), 0.0))
        gal = abs(float(np.dot(resid, d)))
        scaled = gal / max(GALERKIN_TOL * dB * xB, 1e-300)
        worst = max(worst, scaled)
        details.append((gal, dB))
    return {"max_scaled_residual": worst, "details": details,
            "pass": worst <= 1.0}


def operator_symmetry_gap(problem: FIProblem, rng, n_pairs: int = 5) -> float:
    """max |<Au, w> - <u, Aw>| scaled robustly over random pairs."""
    st = _Stack(problem)
    worst = 0.0
    for _ in range(n_pairs):
        u = rng.standard_normal(st.n_dofs)
        w = rng.standard_normal(st.n_dofs)
        Au, Aw = st.apply_A(u), st.apply_A(w)
        gap = abs(float(np.dot(Au, w) - np.dot(u, Aw)))
        scale = (_robust_norm(Au) * _robust_norm(w)
                 + _robust_norm(Aw) * _robust_norm(u)) + 1e-300
        worst = max(worst, gap / scale)
    return worst


def _robust_norm(v) -> float:
    m = float(np.max(np.abs(v)))
    if m == 0.0:
        return 0.0
    return m * float(np.linalg.norm(v / m))


def cascade_residual_check(sol: FISolution, problem: FIProblem) -> dict:
    """Does the recovered control solve the discrete linearized cascade?

    Re-solves the cascade with (F, G, v) through the production steppers
    and reports (a) the weak distributional residual of the re-solved pair
    (the solver contract), (b) the relative L2(0,T;L2) distance between
    the recovered pair and the re-solved one (a diagnostic of the
    weight-induced numerical null space; exact-zero on tame weights), and
    (c) the re-solved h(., first node) norm.
    """
    p = problem
    g, tg = p.grid, p.time_grid
    Psi_rs, H_rs = solve_linearized_cascade(p.ops, p.F, p.G, sol.v,
                                            p.theta, p.theta_s, p.masks)
    vmask = sol.v * p.masks.omega_nodes[None, :]
    Feff = SpaceTimeField(p.F.bulk + vmask, p.F.surface.copy())
    res_fwd = weak_residual(p.ops, Psi_rs, Feff)
    Geff = SpaceTimeField(
        p.G.bulk + p.theta * Psi_rs.bulk * p.masks.obs_bulk_nodes[None, :],
        p.G.surface + p.theta_s * Psi_rs.surface * p.masks.obs_surface_mask[None, :])
    res_bwd = weak_residual(p.ops, H_rs, Geff, backward=True)

    dt = tg.dt
    quad = g.trapezoid_weights()[None, :] * dt

    def st_dist(A_b, A_s, B_b, B_s):
        num = float(np.sum(quad * (A_b - B_b)**2) + dt * np.sum((A_s - B_s)**2))
        den = float(np.sum(quad * B_b**2) + dt * np.sum(B_s**2))
        return math.sqrt(num / max(den, 1e-300))

    dist_psi = st_dist(sol.Psi.bulk[1:], sol.Psi.surface[1:],
                       Psi_rs.bulk[1:], Psi_rs.surface[1:])
    dist_h = st_dist(sol.H.bulk[:-1], sol.H.surface[:-1],
                     H_rs.bulk[:-1], H_rs.surface[:-1])
    return {"weak_residual_forward": res_fwd, "weak_residual_backward": res_bwd,
            "dist_psi": dist_psi, "dist_h": dist_h,
            "resolved_h0_norm": l2_norm(H_rs.slice(0), g),
            "resolved": (Psi_rs, H_rs)}


# --- weighted-estimate verification ----------------------------------------

def verify_p1(sol: FISolution, problem: FIProblem) -> dict:
    """LHS/RHS ratios for the control/state estimate and the v_t estimate."""
    src = problem.log_source_norms()
    log_rhs = log_add(src["muF"], src["muG"])
    ln = sol.log_norms
    lhs_c21 = log_add(ln["mu0Psi"], ln["mu0H"], ln["mu1v"])
    if lhs_c21 > -math.inf and log_rhs == -math.inf:
        raise ContractError("nonzero state from identically zero sources")
    return {"ratio_c21": log_ratio(lhs_c21, log_rhs),
            "ratio_c41": log_ratio(ln["mu3vt"], log_rhs),
            "log_lhs_c21": lhs_c21, "log_rhs": log_rhs}


def solution_summary(sol: FISolution, problem: FIProblem) -> dict:
    """Machine-readable per-solve summary (the JSON interface)."""
    p1 = verify_p1(sol, problem)
    p2 = verify_p2(sol, problem)
    return {
        "backward_error": sol.backward_error,
        "lhs_rhs_ratios": {
            "c21": p1["ratio_c21"], "c41": p1["ratio_c41"],
            "c25": p2["ratio_c25"], "c26": p2["ratio_c26"],
            "c27": p2["ratio_c27"], "c28": p2["ratio_c28"],
        },
    }


def live_masked_resolved_psi(sol: FISolution, problem: FIProblem) -> SpaceTimeField:
    """Re-solved forward state restricted to the weight-live window.

    The re-solved psi decays at the admissible rate, so its weighted norms
    are finite; masking the dead window (weights unbounded there, state
    below truncation level) makes it a member of the weighted space.  Its
    smoothness in time matters for the difference-quotient estimates: the
    pointwise (c16) field carries solver noise that time-differencing
    amplifies with the grid.
    """
    Psi_rs, _ = solve_linearized_cascade(problem.ops, problem.F, problem.G,
                                         sol.v, problem.theta, problem.theta_s,
                                         problem.masks)
    live = problem.tables.inv_sq(0) > 0
    Psi_rs.bulk[1:][~live] = 0.0
    Psi_rs.surface[1:][~live] = 0.0
    Psi_rs.bulk[0] = 0.0
    Psi_rs.surface[0] = 0.0
    return Psi_rs


def verify_p2(sol: FISolution, problem: FIProblem,
              Psi: SpaceTimeField | None = None,
              H: SpaceTimeField | None = None) -> dict:
    """The four additional weighted estimates; doubles as the X-norm pieces.

    Defaults: the forward state is the live-masked re-solved one (smooth in
    time, admissibly decaying); the backward state is the recovered (c16)
    field, the only representation whose early-time tail respects the
    exploding weights.
    """
    p = problem
    g, tg, t = p.grid, p.time_grid, p.tables
    dt = tg.dt
    if Psi is None:
        Psi = live_masked_resolved_psi(sol, p)
    if H is None:
        H = sol.H
    lm = {k: t.log_mu_k[k] for k in range(6)}

    Pb, Ps = Psi.bulk[1:], Psi.surface[1:]
    Hb, Hs = H.bulk[:-1], H.surface[:-1]

    gP = grad_faces(Pb, g)
    lapP = sbp_laplacian(Pb, g)
    gH = grad_faces(Hb, g)
    lapH = sbp_laplacian(Hb, g)
    Pt_b, Pt_s, lw3 = _cell_time_derivative(Pb, Ps, lm[3], dt)
    Ht_b, Ht_s, _ = _cell_time_derivative(Hb, Hs, lm[3], dt)
    lw4 = _interface_log_weight(lm[4])
    lw5 = _interface_log_weight(lm[5])
    gPt = grad_faces(Pt_b, g)
    lapPt = sbp_laplacian(Pt_b, g)
    Ptt_b = np.diff(Pt_b, axis=0) / dt
    Ptt_s = np.diff(Pt_s, axis=0) / dt
    lw5c = lm[5][1:-1]

    src = problem.log_source_norms()
    log_rhs_a = log_add(src["muF"], src["muG"])
    log_rhs_b = log_add(log_rhs_a, src["mu4Ft"])

    Hv = g.trapezoid_weights()
    Hf = np.full(g.node_count, g.h)     # faces carry quadrature weight h
    lhs_c25 = log_add(
        log_weighted_sup(lm[2], (Pb, Hv), (Ps, 1.0)),
        log_st_sq(lm[2], gP, None, g, dt),
        log_weighted_sup(lm[2], (Hb, Hv), (Hs, 1.0)),
        log_st_sq(lm[2], gH, None, g, dt))
    lhs_c26 = log_add(
        log_weighted_sup(lm[3], (gP, Hf)),
        log_st_sq(lw3, Pt_b, Pt_s, g, dt),
        log_st_sq(lm[3], lapP, None, g, dt),
        log_weighted_sup(lm[3], (gH, Hf)),
        log_st_sq(lw3, Ht_b, Ht_s, g, dt),
        log_st_sq(lm[3], lapH, None, g, dt))
    lhs_c27 = log_add(
        log_weighted_sup(lw4, (Pt_b, Hv), (Pt_s, 1.0)),
        log_st_sq(lw4, gPt, None, g, dt))
    lhs_c28 = log_add(
        log_weighted_sup(lw5, (gPt, Hf)),
        log_st_sq(lw5c, Ptt_b, Ptt_s, g, dt),
        log_st_sq(lw5, lapPt, None, g, dt),
        log_weighted_sup(lm[5], (lapP, Hv)))

    return {
        "ratio_c25": log_ratio(lhs_c25, log_rhs_a),
        "ratio_c26": log_ratio(lhs_c26, log_rhs_a),
        "ratio_c27": log_ratio(lhs_c27, log_rhs_b),
        "ratio_c28": log_ratio(lhs_c28, log_rhs_b),
        "log_lhs": {"c25": lhs_c25, "c26": lhs_c26, "c27": lhs_c27, "c28": lhs_c28},
        "log_rhs": {"a": log_rhs_a, "b": log_rhs_b},
    }
