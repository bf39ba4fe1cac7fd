"""Discrete operators and time steppers for the bulk-surface systems.

Layout conventions shared by every solver and by the least-squares module:

* space-time fields live on time slices 0..M; equation residuals live on
  time cells 1..M (cell c spans [t_{c-1}, t_c]);
* the forward operator anchors cell c at its right slice,
      (L Y)_c = (Y^c - Y^{c-1})/dt + S Y^c,
  the backward operator at its left slice,
      (L* Y)_c = (Y^{c-1} - Y^c)/dt + S Y^{c-1};
* duality pairings: forward residuals pair with right slices, backward
  residuals with left slices.  With those pairings <LY, W> = <Y, L*W>
  holds to roundoff whenever Y vanishes at slice 0 and W at slice M.

S is the spatial generator of the dynamic-boundary system: the bulk row
couples -sigma*lap with the reaction, the surface row carries the normal
flux; assembled against the trapezoid-plus-surface mass, the flux terms
cancel exactly (SBP), which gives machine-precision mass conservation and
unconditional dissipativity of the implicit Euler steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg import solveh_banded  # noqa: F401  bench/layertrace.py patches this name
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import (ConditioningError, ConfigurationError, ContractError,
                     SmallnessViolationError)
from .geometry import (BulkSurfaceField, RegionMasks, SpaceTimeField,
                       SpatialGrid, TimeGrid, grad_faces, l2_inner,
                       normal_derivative, sbp_laplacian, stiffness_apply)

# Newton on an implicit step stops at ||r|| <= NEWTON_TOL * max(1, ||rhs||)
NEWTON_TOL = 1e-11
MAX_NEWTON = 25
COEFF_SAMPLE_INTERVAL = (-2.0, 2.0)
COEFF_SAMPLES = 401

# --- coefficients -----------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Diffusion sigma with two derivatives, reactions a/b with two, and the
    ellipticity floor rho.  All handles are vectorized callables.

    The paper's surface diffusion delta enters only through the
    Laplace-Beltrami operator, which vanishes on the two-point boundary of
    the 1D domain, so it has no handle here.
    """

    sigma: Callable
    dsigma: Callable
    d2sigma: Callable
    a: Callable
    da: Callable
    d2a: Callable
    b: Callable
    db: Callable
    d2b: Callable
    rho: float
    name: str = "custom"


def validate_coefficients(cs: CoefficientSet) -> None:
    r = np.linspace(*COEFF_SAMPLE_INTERVAL, COEFF_SAMPLES)
    if np.min(cs.sigma(r)) < cs.rho:
        raise ConfigurationError(
            "assumption A7 violated: the diffusion coefficient drops below the "
            f"ellipticity floor rho={cs.rho} on {COEFF_SAMPLE_INTERVAL}")
    if abs(float(cs.a(0.0))) > 1e-14 or abs(float(cs.b(0.0))) > 1e-14:
        raise ConfigurationError(
            "assumption A8 violated: reaction terms must vanish at 0")
    eps = 1e-6
    pairs = [(cs.sigma, cs.dsigma), (cs.dsigma, cs.d2sigma),
             (cs.a, cs.da), (cs.da, cs.d2a), (cs.b, cs.db), (cs.db, cs.d2b)]
    for k, (f, df) in enumerate(pairs):
        fd = (f(r + eps) - f(r - eps)) / (2 * eps)
        scale = np.max(np.abs(df(r))) + 1.0
        if np.max(np.abs(fd - df(r))) > 1e-6 * scale:
            raise ConfigurationError(
                f"coefficient derivative #{k} disagrees with finite differences")


def _cosh_sq(r):
    """cosh(r)^2, inf where it overflows; the logistic derivatives divide
    by it, and x / inf is their limit 0."""
    with np.errstate(over="ignore"):
        return np.cosh(r)**2


def coefficient_preset(name: str, **kw) -> CoefficientSet:
    """Named coefficient families: constant, affine, logistic, polynomial."""
    zero = np.zeros_like
    if name == "constant":
        s0 = kw.get("sigma0", 1.0)
        a1 = kw.get("a1", 0.5)
        b1 = kw.get("b1", 0.3)
        return CoefficientSet(
            sigma=lambda r: np.full_like(np.asarray(r, float), s0),
            dsigma=zero, d2sigma=zero,
            a=lambda r: a1 * np.asarray(r, float), da=lambda r: np.full_like(np.asarray(r, float), a1),
            d2a=zero,
            b=lambda r: b1 * np.asarray(r, float), db=lambda r: np.full_like(np.asarray(r, float), b1),
            d2b=zero, rho=s0, name="constant")
    if name == "affine":
        s0, s1 = kw.get("sigma0", 1.0), kw.get("sigma1", 0.2)
        a1, a2 = kw.get("a1", 0.5), kw.get("a2", 0.25)
        b1, b2 = kw.get("b1", 0.3), kw.get("b2", 0.15)
        return CoefficientSet(
            sigma=lambda r: s0 + s1 * np.asarray(r, float),
            dsigma=lambda r: np.full_like(np.asarray(r, float), s1),
            d2sigma=zero,
            a=lambda r: a1 * np.asarray(r, float) + a2 * np.asarray(r, float)**2,
            da=lambda r: a1 + 2 * a2 * np.asarray(r, float),
            d2a=lambda r: np.full_like(np.asarray(r, float), 2 * a2),
            b=lambda r: b1 * np.asarray(r, float) + b2 * np.asarray(r, float)**2,
            db=lambda r: b1 + 2 * b2 * np.asarray(r, float),
            d2b=lambda r: np.full_like(np.asarray(r, float), 2 * b2),
            rho=s0 - 2 * abs(s1), name="affine")
    if name == "logistic":
        # saturating tanh profiles; globally bounded derivatives
        s0, s1 = kw.get("sigma0", 1.0), kw.get("sigma1", 0.4)
        a1, b1 = kw.get("a1", 0.5), kw.get("b1", 0.3)
        return CoefficientSet(
            sigma=lambda r: s0 + s1 * np.tanh(r),
            dsigma=lambda r: s1 / _cosh_sq(r),
            d2sigma=lambda r: -2 * s1 * np.tanh(r) / _cosh_sq(r),
            a=lambda r: a1 * np.tanh(r),
            da=lambda r: a1 / _cosh_sq(r),
            d2a=lambda r: -2 * a1 * np.tanh(r) / _cosh_sq(r),
            b=lambda r: b1 * np.tanh(r),
            db=lambda r: b1 / _cosh_sq(r),
            d2b=lambda r: -2 * b1 * np.tanh(r) / _cosh_sq(r),
            rho=s0 - s1, name="logistic")
    if name == "polynomial":
        s0, s2 = kw.get("sigma0", 1.0), kw.get("sigma2", 0.3)
        a1, a3 = kw.get("a1", 0.5), kw.get("a3", 0.2)
        b1 = kw.get("b1", 0.3)
        return CoefficientSet(
            sigma=lambda r: s0 + s2 * np.asarray(r, float)**2,
            dsigma=lambda r: 2 * s2 * np.asarray(r, float),
            d2sigma=lambda r: np.full_like(np.asarray(r, float), 2 * s2),
            a=lambda r: a1 * np.asarray(r, float) + a3 * np.asarray(r, float)**3,
            da=lambda r: a1 + 3 * a3 * np.asarray(r, float)**2,
            d2a=lambda r: 6 * a3 * np.asarray(r, float),
            b=lambda r: b1 * np.asarray(r, float),
            db=lambda r: np.full_like(np.asarray(r, float), b1),
            d2b=zero, rho=s0, name="polynomial")
    raise ConfigurationError(f"unknown coefficient preset '{name}'")


@dataclass(frozen=True)
class LinearOperatorSet:
    """The frozen-at-zero linear operators L1, L2 and their adjoints."""

    sigma0: float
    da0: float
    db0: float
    grid: SpatialGrid
    time_grid: TimeGrid

    @classmethod
    def from_coefficients(cls, cs: CoefficientSet, grid: SpatialGrid,
                          time_grid: TimeGrid) -> "LinearOperatorSet":
        return cls(sigma0=float(cs.sigma(0.0)), da0=float(cs.da(0.0)),
                   db0=float(cs.db(0.0)), grid=grid, time_grid=time_grid)


# --- strong residual operators ---------------------------------------------

def apply_L(Y: SpaceTimeField, ops: LinearOperatorSet, variant: str = "L") -> SpaceTimeField:
    """Strong residual fields of the implicit-Euler operators.

    variant "L": residual slices 1..M (forward rows), slice 0 zero.
    variant "Lstar": residual slices 0..M-1 (backward rows), slice M zero.
    Corner bulk rows use the flux-injected SBP Laplacian; surface rows the
    one-sided normal derivative.  The starred variant is the exact
    transpose of the unstarred one under the cell/slice pairings.
    """
    g, dt = ops.grid, ops.time_grid.dt
    M = Y.n_slices - 1
    out = SpaceTimeField.zeros(g, M + 1)
    if variant == "L":
        anchor, other = slice(1, M + 1), slice(0, M)
    elif variant == "Lstar":
        anchor, other = slice(0, M), slice(1, M + 1)
    else:
        raise ContractError(f"unknown operator variant '{variant}'")
    yb_a, yb_o = Y.bulk[anchor], Y.bulk[other]
    ys_a, ys_o = Y.surface[anchor], Y.surface[other]
    out.bulk[anchor] = (yb_a - yb_o) / dt \
        - ops.sigma0 * sbp_laplacian(yb_a, g) + ops.da0 * yb_a
    out.surface[anchor] = (ys_a - ys_o) / dt \
        + ops.sigma0 * normal_derivative(yb_a, g) + ops.db0 * ys_a
    return out


def _st_pair(A: SpaceTimeField, B: SpaceTimeField, grid: SpatialGrid, dt: float,
             slices: slice) -> float:
    """dt * sum over `slices` of the bulk-surface inner products (one
    pairwise-summed reduction per part)."""
    return dt * float(
        np.sum(A.bulk[slices] * grid.trapezoid_weights() * B.bulk[slices])
        + np.sum(A.surface[slices] * B.surface[slices]))


def st_pair_forward(res: SpaceTimeField, W: SpaceTimeField, grid: SpatialGrid,
                    dt: float) -> float:
    """<forward residuals, W>: cells pair right slices."""
    return _st_pair(res, W, grid, dt, slice(1, None))


def st_pair_backward(Y: SpaceTimeField, res: SpaceTimeField, grid: SpatialGrid,
                     dt: float) -> float:
    """<Y, backward residuals>: cells pair left slices."""
    return _st_pair(Y, res, grid, dt, slice(None, -1))


def duality_gap(Y: SpaceTimeField, W: SpaceTimeField, ops: LinearOperatorSet) -> float:
    """<LY, W> - <Y, L*W>; zero to roundoff when Y^0 = 0 and W^M = 0."""
    dt = ops.time_grid.dt
    a = st_pair_forward(apply_L(Y, ops, "L"), W, ops.grid, dt)
    b = st_pair_backward(Y, apply_L(W, ops, "Lstar"), ops.grid, dt)
    return a - b


# --- banded step systems ----------------------------------------------------

def _corner_lift(grid: SpatialGrid, pair: np.ndarray) -> np.ndarray:
    """Surface pairs on the corner nodes of a node vector, or of each row
    of a stack of them."""
    out = np.zeros((*np.shape(pair)[:-1], grid.n_nodes))
    out[..., 0], out[..., -1] = pair[..., 0], pair[..., 1]
    return out


def _constant_step_bands(grid: SpatialGrid, dt: float, sigma0: float,
                         da0: float, db0: float) -> np.ndarray:
    """Upper-banded form (superdiagonal row, then diagonal) of the SPD
    tridiagonal matrix M/dt + K of one constant-coefficient step."""
    n = grid.n_nodes
    h = grid.h
    Hw = grid.trapezoid_weights()
    Mw = grid.mass_weights()
    diag = Mw / dt + da0 * Hw + sigma0 * 2.0 / h
    diag[0] = Mw[0] / dt + da0 * Hw[0] + sigma0 / h + db0
    diag[-1] = Mw[-1] / dt + da0 * Hw[-1] + sigma0 / h + db0
    off = np.full(n - 1, -sigma0 / h)
    ab = np.zeros((2, n))
    ab[0, 1:] = off
    ab[1] = diag
    return ab


def _weak_rhs(grid: SpatialGrid, fb: np.ndarray, fs: np.ndarray) -> np.ndarray:
    return grid.trapezoid_weights() * fb + _corner_lift(grid, fs)


def _march_linear(ops: LinearOperatorSet, S: SpaceTimeField,
                  start: BulkSurfaceField, backward: bool) -> SpaceTimeField:
    """Implicit-Euler march with the constant step matrix, factored once.

    Forward, step c produces slice c from slice c-1; backward, slice c-1
    from slice c.  Source slice c feeds step c either way.  The LDL^T
    factor (`pttrf`) and the per-step `pttrs` are the two halves of the
    `ptsv` that `solveh_banded` calls on a 2-row band, so every slice is
    bit-identical to a per-step `solveh_banded` solve.
    """
    g, tg = ops.grid, ops.time_grid
    M, dt = tg.step_count, tg.dt
    ab = _constant_step_bands(g, dt, ops.sigma0, ops.da0, ops.db0)
    d, e, info = dpttrf(ab[1], ab[0, 1:])
    if info != 0:
        raise ConditioningError(
            f"the step matrix M/dt + K is not positive definite (pttrf info "
            f"{info}): dt = {dt} is too large for the reactions "
            f"da0 = {ops.da0}, db0 = {ops.db0}")
    Mw = g.mass_weights()
    src = _weak_rhs(g, S.bulk, S.surface)   # elementwise, so row c is step c's vector
    out = np.empty((M + 1, g.n_nodes))
    out[M if backward else 0] = start.bulk
    for c in (range(M, 0, -1) if backward else range(1, M + 1)):
        known, new = (c, c - 1) if backward else (c - 1, c)
        out[new] = dpttrs(d, e, Mw * out[known] / dt + src[c])[0]
    if not np.isfinite(out).all():
        raise ConditioningError("the linear march left double range "
                                "(non-finite data or overflow)")
    return SpaceTimeField.from_bulk(out)


def solve_linear_forward(ops: LinearOperatorSet, F: SpaceTimeField,
                         psi0: BulkSurfaceField) -> SpaceTimeField:
    """Implicit-Euler forward solve; source slice c feeds step c (c=1..M)."""
    if not psi0.is_trace_compatible(1e-12):
        raise ContractError("initial datum must be trace-compatible")
    return _march_linear(ops, F, psi0, backward=False)


def solve_linear_backward(ops: LinearOperatorSet, G: SpaceTimeField,
                          terminal: BulkSurfaceField) -> SpaceTimeField:
    """Backward solve: step c produces slice c-1; source slice c feeds step c."""
    if not terminal.is_trace_compatible(1e-12):
        raise ContractError("terminal datum must be trace-compatible")
    return _march_linear(ops, G, terminal, backward=True)


def solve_backward_varcoef(cs: CoefficientSet, grid: SpatialGrid,
                           time_grid: TimeGrid, states: SpaceTimeField,
                           G: SpaceTimeField, terminal: BulkSurfaceField) -> SpaceTimeField:
    """Backward solve along a quasilinear state history: the discrete
    adjoint of the Newton-stepped flow.

    Step c (producing slice c-1) solves with the transpose of the Newton
    Jacobian of forward step c at its converged state, slice c: the band
    keeps its diagonal and swaps its off-diagonal rows with a one-column
    shift.  That is the matrix `solve_sensitivity` steps the tangent z
    with, so from a zero terminal datum <z(.,0), H(.,0)> equals the
    pairing of z with G (cell c at slice c) to roundoff, for any sigma.
    """
    g, dt, M = grid, time_grid.dt, time_grid.step_count
    Mw = g.mass_weights()
    ab = _quasilinear_jacobian_bands(states.bulk[1:], cs, g, dt)
    abT = np.zeros_like(ab)
    abT[0, :, 1:], abT[1], abT[2, :, :-1] = ab[2, :, :-1], ab[1], ab[0, :, 1:]
    out = np.empty((M + 1, g.n_nodes))
    out[M] = terminal.bulk
    for c in range(M, 0, -1):
        rhs = Mw * out[c] / dt + _weak_rhs(g, G.bulk[c], G.surface[c])
        out[c - 1] = solve_banded((1, 1), abT[:, c - 1], rhs)
    return SpaceTimeField.from_bulk(out)


def _observation_source(Psi: SpaceTimeField, theta: float, theta_s: float,
                        masks: RegionMasks,
                        G: SpaceTimeField | None = None) -> SpaceTimeField:
    """G + theta psi 1_O (bulk) and G_G + theta_s psi_G 1_Sigma (surface),
    the backward equation's source; the coupling alone without G."""
    bulk = theta * Psi.bulk * masks.obs_bulk_nodes[None, :]
    surface = theta_s * Psi.surface * masks.obs_surface_mask[None, :]
    if G is None:
        return SpaceTimeField(bulk, surface)
    return SpaceTimeField(G.bulk + bulk, G.surface + surface)


def solve_linearized_cascade(ops: LinearOperatorSet, F: SpaceTimeField,
                             G: SpaceTimeField, v: np.ndarray,
                             theta: float, theta_s: float,
                             masks: RegionMasks) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Forward psi with source f + v 1_omega, then backward h with source
    g + theta psi 1_O (bulk) and g_G + theta_s psi_G 1_Sigma (surface).

    `v` is a cell-indexed array (M+1, n_nodes) whose slice c feeds step c;
    it is masked to the omega nodes (support enforced).
    """
    g = ops.grid
    vmask = v * masks.omega_nodes[None, :]
    Feff = SpaceTimeField(F.bulk + vmask, F.surface.copy())
    Psi = solve_linear_forward(ops, Feff, BulkSurfaceField.zeros(g))
    H = solve_linear_backward(ops, _observation_source(Psi, theta, theta_s, masks, G),
                              BulkSurfaceField.zeros(g))
    return Psi, H


def solve_adjoint_cascade(ops: LinearOperatorSet, f1: SpaceTimeField,
                          g1: SpaceTimeField, theta: float, theta_s: float,
                          masks: RegionMasks) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Adjoint cascade: K forward from zero with g1; Phi backward from zero
    with f1 + theta K 1_O (bulk), f1_G + theta_s K_G 1_Sigma (surface)."""
    g = ops.grid
    K = solve_linear_forward(ops, g1, BulkSurfaceField.zeros(g))
    Phi = solve_linear_backward(ops, _observation_source(K, theta, theta_s, masks, f1),
                                BulkSurfaceField.zeros(g))
    return Phi, K


def weak_residual(ops: LinearOperatorSet, Y: SpaceTimeField, F: SpaceTimeField,
                  backward: bool = False) -> float:
    """Relative distributional residual of the stepped equations.

    Assembles H r_bulk + corner-lift r_surface - quadrature sources per
    cell; this is the exact set of equations the banded solves enforce.
    """
    g, tg = ops.grid, ops.time_grid
    res = apply_L(Y, ops, "Lstar" if backward else "L")
    Hw = g.trapezoid_weights()
    total, scale = 0.0, 0.0
    for c in range(1, tg.step_count + 1):
        j = c - 1 if backward else c      # anchor slice of the step
        known = c if backward else c - 1  # propagated slice
        r = Hw * res.bulk[j] + _corner_lift(g, res.surface[j]) \
            - _weak_rhs(g, F.bulk[c], F.surface[c])
        total += float(np.dot(r, r))
        q = _weak_rhs(g, F.bulk[c], F.surface[c]) \
            + g.mass_weights() * Y.bulk[known] / tg.dt
        scale += float(np.dot(q, q))
    return np.sqrt(total) / max(np.sqrt(scale), 1e-300)


# --- quasilinear solver -----------------------------------------------------

def _face_average(u: np.ndarray) -> np.ndarray:
    return 0.5 * (u[..., 1:] + u[..., :-1])


def _quasilinear_residual(u, uold, cs, grid, dt, src):
    """Weak-form step residual of a node vector u (or of each row of a
    (B, n) stack); `src` holds the quadrature-weighted sources only (the
    previous-slice mass term is handled here).  `x.T[0]` is the first node
    of every row, and a scalar for one vector."""
    Hw = grid.trapezoid_weights()
    Mw = grid.mass_weights()
    sig_f = cs.sigma(_face_average(u))
    r = Mw * (u - uold) / dt + stiffness_apply(u, grid, face_coeff=sig_f) \
        + Hw * cs.a(u)
    r.T[0] += cs.b(u.T[0])
    r.T[-1] += cs.b(u.T[-1])
    r -= src
    return r


def _quasilinear_jacobian_bands(u, cs, grid, dt):
    """(1, 1)-banded Newton Jacobian of the step residual at u; a (B, n)
    stack gives (3, B, n), whose (3, B*n) reshape is the block-diagonal
    band of the whole stack."""
    h = grid.h
    Hw = grid.trapezoid_weights()
    Mw = grid.mass_weights()
    uf = _face_average(u)
    sig_f = cs.sigma(uf)
    dsig_f = cs.dsigma(uf)
    gu = np.diff(u) / h

    ab = np.zeros((3, *u.shape))        # rows: upper, diagonal, lower
    diag = ab[1]
    np.add(Mw / dt, Hw * cs.da(u), out=diag)
    diag.T[0] += cs.db(u.T[0])
    diag.T[-1] += cs.db(u.T[-1])
    # stiffness with frozen sig_f
    s = sig_f / h
    diag[..., :-1] += s
    diag[..., 1:] += s
    # derivative of sig_f wrt nodes: each face adds dsig/2 * gu * (Gw-pattern)
    d = dsig_f * gu * 0.5
    diag[..., :-1] -= d
    diag[..., 1:] += d
    ab[0, ..., 1:] = -s - d
    ab[2, ..., :-1] = d - s
    return ab


def solve_quasilinear(cs: CoefficientSet, grid: SpatialGrid, time_grid: TimeGrid,
                      F: SpaceTimeField, psi0: BulkSurfaceField,
                      v: np.ndarray | None = None,
                      masks: RegionMasks | None = None,
                      newton_guess: str = "previous") -> SpaceTimeField:
    """Fully implicit conservative solve of the quasilinear system.

    Divergence form via face-averaged sigma; the surface row shares the
    boundary DOFs and the flux cancels in the weak assembly.  Newton runs
    full steps; non-convergence maps to the small-data hypothesis and
    raises SmallnessViolationError with the failing step.  A control v acts
    on `masks.omega_nodes`, so it comes with `masks`.

    A stack of B initial data (bulk (B, n)) advances B trajectories under
    the same F and v, and returns bulk (B, M+1, n) and surface (B, M+1, 2).
    Each Newton iteration then makes one banded solve with the
    block-diagonal Jacobian of the members that have not converged; each
    member keeps its own stop test and is left alone once it passes, so
    every member follows the iterates of its own single-datum solve.
    """
    if not psi0.is_trace_compatible(1e-12):
        raise ContractError("initial datum must be trace-compatible")
    g, dt, M = grid, time_grid.dt, time_grid.step_count
    Mw = g.mass_weights()
    shape = psi0.bulk.shape             # (n,) for one datum, (B, n) for a stack
    B = shape[0] if len(shape) == 2 else 1
    out = np.empty((M + 1, *shape))
    out[0] = psi0.bulk
    for c in range(1, M + 1):
        fb = F.bulk[c] if v is None else F.bulk[c] + v[c] * masks.omega_nodes
        src = _weak_rhs(g, fb, F.surface[c])
        prev = out[c - 1]
        tol = [NEWTON_TOL * max(1.0, float(np.linalg.norm(q)))
               for q in (src + Mw * prev / dt).reshape(B, -1)]
        u = prev.copy() if newton_guess == "previous" else np.zeros(shape)
        live = list(range(B))           # members still iterating
        for _ in range(MAX_NEWTON):
            ul, pl = (u, prev) if len(live) == B else (u[live], prev[live])
            r = _quasilinear_residual(ul, pl, cs, g, dt, src)
            rows = r.reshape(len(live), -1)
            keep = [i for i, b in enumerate(live)
                    if not np.linalg.norm(rows[i]) <= tol[b]]
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[i] for i in keep]
                ul, r = ul[keep], r[keep]
            ab = _quasilinear_jacobian_bands(ul, cs, g, dt)
            ul = ul - solve_banded((1, 1), ab.reshape(3, -1),
                                   r.ravel()).reshape(ul.shape)
            if len(live) == B:
                u = ul
            else:
                u[live] = ul
        else:
            b = live[0]
            res = float(np.linalg.norm(_quasilinear_residual(
                u.reshape(B, -1)[b], prev.reshape(B, -1)[b], cs, g, dt, src)))
            raise SmallnessViolationError(
                f"Newton did not converge at step {c} "
                f"(residual {res:.3e}); data outside the "
                "small-data regime", step=c, residual=res)
        out[c] = u
    # (B, M+1, n) for a stack: each member's history contiguous, like one datum's
    return SpaceTimeField.from_bulk(np.ascontiguousarray(np.moveaxis(out, 0, -2)))


def solve_quasilinear_cascade(cs: CoefficientSet, grid: SpatialGrid,
                              time_grid: TimeGrid, F: SpaceTimeField,
                              v: np.ndarray, theta: float, theta_s: float,
                              masks: RegionMasks,
                              newton_guess: str = "previous") -> tuple[SpaceTimeField, SpaceTimeField]:
    """Quasilinear forward state, then its discrete adjoint backward
    equation with sources theta psi 1_O / theta_s psi_G 1_Sigma."""
    Psi = solve_quasilinear(cs, grid, time_grid, F, BulkSurfaceField.zeros(grid),
                            v=v, masks=masks, newton_guess=newton_guess)
    H = solve_backward_varcoef(cs, grid, time_grid, Psi,
                               _observation_source(Psi, theta, theta_s, masks),
                               BulkSurfaceField.zeros(grid))
    return Psi, H


def solve_sensitivity(cs: CoefficientSet, grid: SpatialGrid, time_grid: TimeGrid,
                      Psi: SpaceTimeField, zhat0: BulkSurfaceField) -> SpaceTimeField:
    """Tangent (sensitivity) system along a quasilinear trajectory.

    Exact directional derivative of the discrete quasilinear flow: the
    conservative flux carries sigma(psi) G z + sigma'(psi) z_face G psi,
    coefficients sampled at each cell's right slice.
    """
    if not zhat0.is_trace_compatible(1e-12):
        raise ContractError("perturbation direction must be trace-compatible")
    g, dt, M = grid, time_grid.dt, time_grid.step_count
    Mw = g.mass_weights()
    # the tangent of an implicit step is its Newton Jacobian at the
    # converged state
    ab = _quasilinear_jacobian_bands(Psi.bulk[1:], cs, g, dt)
    out = np.empty((M + 1, g.n_nodes))
    out[0] = zhat0.bulk
    for c in range(1, M + 1):
        out[c] = solve_banded((1, 1), ab[:, c - 1], Mw * out[c - 1] / dt)
    return SpaceTimeField.from_bulk(out)


# --- diagnostics ------------------------------------------------------------

def total_mass(Y: SpaceTimeField, grid: SpatialGrid) -> np.ndarray:
    """Bulk trapezoid integral plus the two surface values, per slice."""
    return Y.bulk @ grid.trapezoid_weights() + Y.surface.sum(axis=1)


def l2_history(Y: SpaceTimeField, grid: SpatialGrid) -> np.ndarray:
    w = grid.trapezoid_weights()
    return np.sqrt(np.einsum("ij,j,ij->i", Y.bulk, w, Y.bulk)
                   + np.einsum("ij,ij->i", Y.surface, Y.surface))


def energy_norm(Y: SpaceTimeField, grid: SpatialGrid, dt: float) -> float:
    """Discrete norm of H^1(0,T;L2) cap L2(0,T;H2): value, time derivative,
    gradient and Laplacian, trapezoid/cell quadrature."""
    w = grid.trapezoid_weights()
    val = float(np.einsum("ij,j,ij->", Y.bulk, w, Y.bulk) * dt
                + np.einsum("ij,ij->", Y.surface, Y.surface) * dt)
    yt = np.diff(Y.bulk, axis=0) / dt
    st = np.diff(Y.surface, axis=0) / dt
    tder = float(np.einsum("ij,j,ij->", yt, w, yt) * dt + np.sum(st * st) * dt)
    gf = grad_faces(Y.bulk, grid)
    grad = float(np.sum(gf * gf) * grid.h * dt)
    lap = sbp_laplacian(Y.bulk, grid)
    lp = float(np.einsum("ij,j,ij->", lap, w, lap) * dt)
    return float(np.sqrt(val + tder + grad + lp))


def h1_norm(f: BulkSurfaceField, grid: SpatialGrid) -> float:
    gf = grad_faces(f.bulk, grid)
    return float(np.sqrt(l2_inner(f, f, grid) + np.sum(gf * gf) * grid.h))


def dump_trajectory_csv(Psi: SpaceTimeField, H: SpaceTimeField,
                        grid: SpatialGrid, time_grid: TimeGrid, path) -> None:
    """Per-run trajectory dump: t, bulk norms and the surface values."""
    np_ = l2_history(Psi, grid)
    nh = l2_history(H, grid)
    with open(path, "w") as fh:
        fh.write("t,psi_norm,psi_surf_left,psi_surf_right,"
                 "h_norm,h_surf_left,h_surf_right\n")
        for j, t in enumerate(time_grid.nodes):
            row = (t, np_[j], Psi.surface[j, 0], Psi.surface[j, 1],
                   nh[j], H.surface[j, 0], H.surface[j, 1])
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
