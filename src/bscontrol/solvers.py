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
  holds to roundoff whenever Y vanishes at slice 0 and W at slice M;
* `_step_rows` writes both rows once, for `apply_L`'s fields, for the
  least-squares recovery's Carleman-weighted slices (`fi`) and, applied to
  the identity, for the blocks of the least-squares stack;
* `_march` is the one time loop: every solve (linear, Newton, tangent and
  adjoint) is out[c] = step(Mw out[c-1]/dt + source[c-1]) along the
  second-last axis.  A backward march runs forwards through reversed
  views, so the source cells in march order are S[1:] forwards and
  S[:0:-1] backwards.

S is the spatial generator of the dynamic-boundary system: the bulk row
couples -sigma*lap with the reaction, the surface row carries the normal
flux; assembled against the trapezoid-plus-surface mass, the flux terms
cancel exactly (SBP), which gives machine-precision mass conservation and
unconditional dissipativity of the implicit Euler steps.  The `diagnose`
suites duality (`duality_battery`) and convergence (`convergence_orders`,
on manufactured solutions) check these operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError
# bench/layertrace.py patches these two names
from scipy.linalg import solve_banded, solveh_banded  # noqa: F401
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

from .errors import (ConditioningError, ConfigurationError, ContractError,
                     SmallnessViolationError)
from .geometry import (BulkSurfaceField, RegionMasks, SpaceTimeField,
                       SpatialGrid, TimeGrid, build_grid, build_time_grid,
                       face_average, normal_derivative, sbp_laplacian,
                       slice_sq_norms, st_inner, stiffness_apply)

# Newton on an implicit step stops at ||r|| <= NEWTON_TOL * max(1, ||rhs||)
NEWTON_TOL = 1e-11
MAX_NEWTON = 25
COEFF_SAMPLE_INTERVAL = (-2.0, 2.0)
COEFF_SAMPLES = 401

# --- coefficients -----------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Diffusion sigma and reactions a, b, each with its derivative, as
    vectorized callables.

    The paper's surface diffusion delta enters only through the
    Laplace-Beltrami operator, which vanishes on the two-point boundary of
    the 1D domain, so it has no handle here.
    """

    sigma: Callable
    dsigma: Callable
    a: Callable
    da: Callable
    b: Callable
    db: Callable
    name: str = "custom"


def validate_coefficients(cs: CoefficientSet) -> None:
    """Check A7 (a positive measured floor of sigma), A8, and each of
    dsigma, da and db against a central difference of its function."""
    r = np.linspace(*COEFF_SAMPLE_INTERVAL, COEFF_SAMPLES)
    floor = float(np.min(cs.sigma(r)))
    if not floor > 0:
        raise ConfigurationError(
            "assumption A7 violated: the diffusion coefficient's minimum on "
            f"{COEFF_SAMPLE_INTERVAL} is {floor}, not a positive floor")
    if abs(float(cs.a(0.0))) > 1e-14 or abs(float(cs.b(0.0))) > 1e-14:
        raise ConfigurationError(
            "assumption A8 violated: reaction terms must vanish at 0")
    eps = 1e-6
    for name in ("sigma", "a", "b"):
        f, df = getattr(cs, name), getattr(cs, "d" + name)
        fd = (f(r + eps) - f(r - eps)) / (2 * eps)
        d = df(r)
        scale = np.max(np.abs(d)) + 1.0
        if np.max(np.abs(fd - d)) > 1e-6 * scale:
            raise ConfigurationError(
                f"coefficient derivative d{name} disagrees with finite differences")


def _cosh_sq(r):
    """cosh(r)^2, inf where it overflows; the logistic derivative divides
    by it, and x / inf is its limit 0."""
    with np.errstate(over="ignore"):
        return np.cosh(r)**2


def _power_sum(items: list, r):
    """The sum of c * r**k over the (k, c) items, left to right; a constant
    term (k = 0) is c filling r's shape."""
    r = np.asarray(r, float)
    (k0, c0), *rest = items
    out = np.full_like(r, c0) if k0 == 0 else c0 * r**k0
    for k, c in rest:
        out = out + c * r**k
    return out


def _polynomial(terms: dict) -> list[Callable]:
    """f and f' of the polynomial with {power: coefficient} terms, in
    increasing power; no terms give zeros like the argument."""
    fs = []
    for _ in range(2):
        fs.append(partial(_power_sum, sorted(terms.items())) if terms
                  else np.zeros_like)
        terms = {k - 1: k * c for k, c in terms.items() if k}
    return fs


def _logistic(c1: float, c0: float | None = None) -> list[Callable]:
    """f and f' of c0 + c1 tanh(r), or of c1 tanh(r) without c0."""
    f = ((lambda r: c1 * np.tanh(r)) if c0 is None
         else (lambda r: c0 + c1 * np.tanh(r)))
    return [f, lambda r: c1 / _cosh_sq(r)]


# sigma, a and b of each preset as {term: (keyword, default)}: the terms are
# the powers of a polynomial preset and `_logistic`'s arguments
PRESETS = {
    "constant": ({0: ("sigma0", 1.0)}, {1: ("a1", 0.5)}, {1: ("b1", 0.3)}),
    "affine": ({0: ("sigma0", 1.0), 1: ("sigma1", 0.2)},
               {1: ("a1", 0.5), 2: ("a2", 0.25)}, {1: ("b1", 0.3), 2: ("b2", 0.15)}),
    "polynomial": ({0: ("sigma0", 1.0), 2: ("sigma2", 0.3)},
                   {1: ("a1", 0.5), 3: ("a3", 0.2)}, {1: ("b1", 0.3)}),
    # saturating tanh profiles; globally bounded derivatives
    "logistic": ({"c0": ("sigma0", 1.0), "c1": ("sigma1", 0.4)},
                 {"c1": ("a1", 0.5)}, {"c1": ("b1", 0.3)}),
}


def coefficient_preset(name: str, **kw) -> CoefficientSet:
    """Named coefficient families: constant, affine, logistic, polynomial.
    Each is written once, as its coefficients; the derivatives follow.
    A keyword the preset does not have raises ConfigurationError."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown coefficient preset '{name}'")
    defaults = dict(arg for terms in PRESETS[name] for arg in terms.values())
    if unknown := sorted(kw.keys() - defaults.keys()):
        raise ConfigurationError(
            f"coefficient preset '{name}' has no keyword {', '.join(unknown)}; "
            f"its keywords are {', '.join(defaults)}")
    kw = {**defaults, **kw}
    family = (lambda c: _logistic(**c)) if name == "logistic" else _polynomial
    families = [family({term: kw[key] for term, (key, _) in terms.items()})
                for terms in PRESETS[name]]
    # f, f' of sigma, a and b: the handles in field order
    return CoefficientSet(*(f for fs in families for f in fs), name=name)


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
    M = Y.n_slices - 1
    out = SpaceTimeField.zeros(ops.grid, M + 1)
    if variant == "L":
        anchor, other = slice(1, M + 1), slice(0, M)
    elif variant == "Lstar":
        anchor, other = slice(0, M), slice(1, M + 1)
    else:
        raise ContractError(f"unknown operator variant '{variant}'")
    out.bulk[anchor], out.surface[anchor] = _step_rows(
        ops, Y.bulk[anchor], Y.surface[anchor], Y.bulk[other], Y.surface[other])
    return out


def _step_rows(ops: LinearOperatorSet, yb_a, ys_a, yb_o, ys_o):
    """Bulk and surface rows (y_a - y_o)/dt + S y_a of anchor slices y_a
    against their other slices y_o, one row per leading index."""
    g, dt = ops.grid, ops.time_grid.dt
    return ((yb_a - yb_o) / dt - ops.sigma0 * sbp_laplacian(yb_a, g) + ops.da0 * yb_a,
            (ys_a - ys_o) / dt + ops.sigma0 * normal_derivative(yb_a, g) + ops.db0 * ys_a)


def duality_gap(Y: SpaceTimeField, W: SpaceTimeField, ops: LinearOperatorSet) -> float:
    """<LY, W> - <Y, L*W>; zero to roundoff when Y^0 = 0 and W^M = 0."""
    dt = ops.time_grid.dt
    a = st_inner(apply_L(Y, ops, "L"), W, ops.grid, dt, slice(1, None))
    b = st_inner(Y, apply_L(W, ops, "Lstar"), ops.grid, dt, slice(None, -1))
    return a - b


def duality_battery(ops: LinearOperatorSet, rng, n_pairs: int = 100) -> float:
    """max |<LY,W> - <Y,L*W>| / (||Y|| ||W||) over random admissible pairs."""
    g, tg = ops.grid, ops.time_grid
    M = tg.step_count
    worst = 0.0
    for _ in range(n_pairs):
        Y = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
        W = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
        Y.bulk[0] = 0.0
        Y.surface[0] = 0.0
        W.bulk[M] = 0.0
        W.surface[M] = 0.0
        gap = abs(duality_gap(Y, W, ops))
        ny, nw = (math.sqrt(st_inner(U, U, g, tg.dt)) for U in (Y, W))
        # the pairing scales like the operator norm ~ 1/dt + sigma/h^2
        scale = ny * nw * (1.0 / tg.dt + ops.sigma0 / g.h**2 + 1.0)
        worst = max(worst, gap / max(scale, 1e-300))
    return worst


# --- banded step systems ----------------------------------------------------

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


def _solve_tridiagonal(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`solve_banded((1, 1), ab, b)` as one direct call of the LAPACK
    routine it runs, `gtsv`: the same finite check, the same solution bit
    for bit, the same `LinAlgError` for a singular matrix, without the
    per-call validation and dispatch."""
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _weak_rhs(grid: SpatialGrid, fb: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Quadrature source H fb with the surface pairs fs added on the corner
    nodes, for one slice, a field of slices or a stack of either."""
    out = grid.trapezoid_weights() * fb
    out[..., ::grid.n_nodes - 1] += fs  # a view of the two corner columns
    return out


def _march(step: Callable, Mw: np.ndarray, dt: float, start: np.ndarray,
           out: np.ndarray, source: np.ndarray) -> None:
    """The implicit-Euler march along the second-last axis of `out`, in
    place: out[0] = start, then out[c] = step(c, Mw out[c-1]/dt + source[c-1])
    for c = 1..M; a stack (out (B, M+1, n)) passes (B, n) right-hand sides.

    Each rhs is formed in place, in that expression's order, in one of two
    buffers: a step may return its rhs buffer (`pttrs` with `overwrite_b`
    does).  Source cell c is read before out[c] is written, and the first
    rhs before out[0], so `source` may share memory with `out`.
    """
    M = out.shape[-2] - 1
    rhs = Mw * start / dt + source[..., 0, :]
    out[..., 0, :] = start
    spare = np.empty_like(rhs)
    for c in range(1, M + 1):
        x = step(c, rhs)
        if c < M:
            np.multiply(Mw, x, out=spare)
            spare /= dt
            spare += source[..., c, :]
        out[..., c, :] = x
        rhs, spare = spare, rhs


def _march_linear(ops: LinearOperatorSet, S: SpaceTimeField, start: BulkSurfaceField,
                  order: slice, cells: slice) -> SpaceTimeField:
    """The march with the constant step matrix, factored once, over the
    slices in `order` with the source `cells` in march order.  `pttrf` and
    the per-step `pttrs` are the halves of the `ptsv` that `solveh_banded`
    calls, so every slice is bit-identical to a per-step solve.

    B sources (bulk (B, M+1, n)) march from one datum or a stack (B, n) of
    them.  Each step is one `pttrs` call with B columns, which LAPACK
    solves one by one, so every member is bit-identical to its own march.
    """
    g, dt = ops.grid, ops.time_grid.dt
    ab = _constant_step_bands(g, dt, ops.sigma0, ops.da0, ops.db0)
    d, e, info = dpttrf(ab[1], ab[0, 1:])
    if info != 0:
        raise ConditioningError(
            f"the step matrix M/dt + K is not positive definite (pttrf info "
            f"{info}): dt = {dt} is too large for the reactions "
            f"da0 = {ops.da0}, db0 = {ops.db0}")
    # slice c holds cell c's source vector (the products are elementwise)
    # until the march writes the solution over it
    out = _weak_rhs(g, S.bulk, S.surface)
    # the transpose of a C-ordered (B, n) stack is the Fortran-ordered
    # (n, B) block of columns that pttrs solves in place
    _march(lambda c, rhs: dpttrs(d, e, rhs.T, overwrite_b=1)[0].T,
           g.mass_weights(), dt, start.bulk, out[..., order, :], out[..., cells, :])
    if not np.isfinite(out).all():
        raise ConditioningError("the linear march left double range "
                                "(non-finite data or overflow)")
    return SpaceTimeField.from_bulk(out)


def solve_linear_forward(ops: LinearOperatorSet, F: SpaceTimeField,
                         psi0: BulkSurfaceField) -> SpaceTimeField:
    """Implicit-Euler forward solve; source slice c feeds step c (c=1..M).
    A stack of sources (bulk (B, M+1, n)) gives a stack of solutions."""
    if not psi0.is_trace_compatible(1e-12):
        raise ContractError("initial datum must be trace-compatible")
    return _march_linear(ops, F, psi0, slice(None), slice(1, None))


def solve_linear_backward(ops: LinearOperatorSet, G: SpaceTimeField,
                          terminal: BulkSurfaceField) -> SpaceTimeField:
    """Backward solve: step c produces slice c-1; source slice c feeds step c.
    A stack of sources (bulk (B, M+1, n)) gives a stack of solutions."""
    if not terminal.is_trace_compatible(1e-12):
        raise ContractError("terminal datum must be trace-compatible")
    return _march_linear(ops, G, terminal, slice(None, None, -1), slice(None, 0, -1))


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
    dt, M = time_grid.dt, time_grid.step_count
    ab = _quasilinear_jacobian_bands(states.bulk[1:], cs, grid, dt)
    abT = np.zeros_like(ab)
    abT[0, :, 1:], abT[1], abT[2, :, :-1] = ab[2, :, :-1], ab[1], ab[0, :, 1:]
    out = np.empty((M + 1, grid.n_nodes))
    # forward in reversed time: march step c makes slice M-c with the band
    # and the source of cell M-c+1
    _march(lambda c, rhs: _solve_tridiagonal(abT[:, M - c], rhs),
           grid.mass_weights(), dt, terminal.bulk, out[::-1],
           _weak_rhs(grid, G.bulk[:0:-1], G.surface[:0:-1]))
    return SpaceTimeField.from_bulk(out)


def _observation_source(Psi: SpaceTimeField, theta: float, theta_s: float,
                        masks: RegionMasks,
                        G: SpaceTimeField | None = None) -> SpaceTimeField:
    """G + theta psi 1_O (bulk) and G_G + theta_s psi_G 1_Sigma (surface),
    the backward equation's source; the coupling alone without G."""
    bulk = theta * Psi.bulk
    bulk *= masks.obs_bulk_nodes
    surface = theta_s * Psi.surface * masks.obs_surface_mask
    if G is not None:
        # in place, with the bits of G + coupling
        np.add(G.bulk, bulk, out=bulk)
        np.add(G.surface, surface, out=surface)
    return SpaceTimeField(bulk, surface)


def linear_cascade_rows(Psi: SpaceTimeField, H: SpaceTimeField, v: np.ndarray,
                        ops: LinearOperatorSet, theta: float, theta_s: float,
                        masks: RegionMasks) -> dict:
    """The frozen linear rows L(Psi,H,v) on cells (slice c holds cell c):
    `apply_L`'s rows minus the control and the `_observation_source` coupling."""
    rP = apply_L(Psi, ops, "L")
    rP.bulk[1:] -= v[1:] * masks.omega_nodes[None, :]
    rH = apply_L(H, ops, "Lstar")
    coupling = _observation_source(Psi, theta, theta_s, masks)
    for rows, c in ((rH.bulk, coupling.bulk), (rH.surface, coupling.surface)):
        rows[1:] = rows[:-1] - c[1:]
        rows[0] = 0.0
    return {"L1": rP.bulk, "L3": rP.surface, "L2": rH.bulk, "L4": rH.surface}


def solve_linearized_cascade(ops: LinearOperatorSet, F: SpaceTimeField,
                             v: np.ndarray, theta: float, theta_s: float,
                             masks: RegionMasks) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Forward psi with source f + v 1_omega, then backward h with the coupling
    theta psi 1_O (bulk), theta_s psi_G 1_Sigma (surface) as its source.

    `v` is a cell-indexed array (M+1, n_nodes) whose slice c feeds step c;
    it is masked to the omega nodes (support enforced).
    """
    Feff = SpaceTimeField(F.bulk + v * masks.omega_nodes, F.surface)
    return _cascade(ops, Feff, None, theta, theta_s, masks)


def solve_adjoint_cascade(ops: LinearOperatorSet, f1: SpaceTimeField,
                          g1: SpaceTimeField, theta: float, theta_s: float,
                          masks: RegionMasks) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Adjoint cascade: K forward from zero with g1; Phi backward from zero
    with f1 + theta K 1_O (bulk), f1_G + theta_s K_G 1_Sigma (surface).

    Stacks of B sources (bulk (B, M+1, n)) give stacked (Phi, K), each
    member bit-identical to its own cascade; both marches then make one
    `pttrs` call per step for the whole stack."""
    return _cascade(ops, g1, f1, theta, theta_s, masks)[::-1]


def _cascade(ops: LinearOperatorSet, F: SpaceTimeField, G: SpaceTimeField | None,
             theta: float, theta_s: float,
             masks: RegionMasks) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Forward Y from zero with source F, then backward W from zero with
    G + theta Y 1_O (bulk), G_G + theta_s Y_G 1_Sigma (surface); G = 0 if None."""
    zero = BulkSurfaceField.zeros(ops.grid)
    Y = solve_linear_forward(ops, F, zero)
    return Y, solve_linear_backward(ops, _observation_source(Y, theta, theta_s, masks, G),
                                    zero)


def weak_residual(ops: LinearOperatorSet, Y: SpaceTimeField, F: SpaceTimeField,
                  backward: bool = False) -> float:
    """Relative distributional residual of the stepped equations.

    Assembles the weak form of the residual (`_weak_rhs` of its bulk and
    surface parts) minus the quadrature sources per cell; this is the exact
    set of equations the banded solves enforce.
    """
    g, M = ops.grid, ops.time_grid.step_count
    res = apply_L(Y, ops, "Lstar" if backward else "L")
    # the anchor and the propagated slices of steps 1..M
    anchor, known = ((slice(0, M), slice(1, None)) if backward
                     else (slice(1, None), slice(0, M)))
    src = _weak_rhs(g, F.bulk[1:], F.surface[1:])
    r = _weak_rhs(g, res.bulk[anchor], res.surface[anchor]) - src
    q = src + g.mass_weights() * Y.bulk[known] / ops.time_grid.dt
    # each step's np.dot (the same ddot), added in step order
    total, scale = (sum(map(float, np.vecdot(x, x))) for x in (r, q))
    return np.sqrt(total) / max(np.sqrt(scale), 1e-300)


# --- quasilinear solver -----------------------------------------------------

def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's 2-norm, by the BLAS ddot of np.linalg.norm: its bits."""
    return np.sqrt(np.vecdot(rows, rows))


def _quasilinear_residual(u, uold, cs, grid, dt, src):
    """Weak-form step residual of a node vector u (or of each row of a
    (B, n) stack); `src` holds the quadrature-weighted sources only (the
    previous-slice mass term is handled here)."""
    Hw = grid.trapezoid_weights()
    Mw = grid.mass_weights()
    sig_f = cs.sigma(face_average(u))
    r = Mw * (u - uold) / dt + stiffness_apply(u, grid, face_coeff=sig_f) \
        + Hw * cs.a(u)
    r[..., ::grid.n_nodes - 1] += cs.b(u[..., ::grid.n_nodes - 1])  # surface rows
    r -= src
    return r


def _quasilinear_jacobian_bands(u, cs, grid, dt):
    """(1, 1)-banded Newton Jacobian of the step residual at u; a (B, n)
    stack gives (3, B, n), whose (3, B*n) reshape is the block-diagonal
    band of the whole stack."""
    h = grid.h
    Hw = grid.trapezoid_weights()
    Mw = grid.mass_weights()
    uf = face_average(u)
    sig_f = cs.sigma(uf)
    dsig_f = cs.dsigma(uf)
    gu = np.diff(u) / h

    ab = np.zeros((3, *u.shape))        # rows: upper, diagonal, lower
    diag = ab[1]
    np.add(Mw / dt, Hw * cs.da(u), out=diag)
    diag[..., ::grid.n_nodes - 1] += cs.db(u[..., ::grid.n_nodes - 1])  # surface rows
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
    the same F and v, and returns bulk (B, M+1, n) and surface (B, M+1, 2);
    one datum is a stack of one.  Each Newton iteration makes one banded
    solve with the block-diagonal Jacobian of the members still iterating;
    each keeps its own stop test and is left alone once it passes, so
    every member follows the iterates of its own single-datum solve.
    """
    if not psi0.is_trace_compatible(1e-12):
        raise ContractError("initial datum must be trace-compatible")
    g, dt, M, n = grid, time_grid.dt, time_grid.step_count, grid.n_nodes
    fb = F.bulk[1:] if v is None else F.bulk[1:] + v[1:] * masks.omega_nodes
    source = _weak_rhs(g, fb, F.surface[1:])
    B = psi0.bulk.size // n
    out = np.empty((B, M + 1, n))       # B = 1 for one datum
    every = np.arange(B)

    def newton(c, rhs):
        src, prev = source[c - 1], out[:, c - 1]
        tol = NEWTON_TOL * np.maximum(1.0, _row_norms(rhs))
        u = prev.copy() if newton_guess == "previous" else np.zeros_like(prev)
        todo = slice(None)      # members still iterating: all (views) until one passes
        for _ in range(MAX_NEWTON):
            ul = u[todo]
            r = _quasilinear_residual(ul, prev[todo], cs, g, dt, src)
            going = ~(_row_norms(r) <= tol[todo])   # a NaN norm keeps going
            if not going.any():
                return u
            if not going.all():
                todo, ul, r = every[todo][going], ul[going], r[going]
            ab = _quasilinear_jacobian_bands(ul, cs, g, dt)
            u[todo] = ul - _solve_tridiagonal(ab.reshape(3, -1),
                                              r.ravel()).reshape(ul.shape)
        first = every[todo][0]
        res = float(_row_norms(_quasilinear_residual(u[first], prev[first], cs, g, dt, src)))
        raise SmallnessViolationError(
            f"Newton did not converge at step {c} (residual {res:.3e}); data "
            "outside the small-data regime", step=c, residual=res)

    _march(newton, g.mass_weights(), dt, psi0.bulk.reshape(B, n), out, source)
    return SpaceTimeField.from_bulk(out.reshape(*psi0.bulk.shape[:-1], M + 1, n))


def solve_quasilinear_cascade(cs: CoefficientSet, grid: SpatialGrid,
                              time_grid: TimeGrid, F: SpaceTimeField,
                              v: np.ndarray, theta: float, theta_s: float,
                              masks: RegionMasks) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Quasilinear forward state, then its discrete adjoint backward
    equation with sources theta psi 1_O / theta_s psi_G 1_Sigma."""
    zero = BulkSurfaceField.zeros(grid)
    Psi = solve_quasilinear(cs, grid, time_grid, F, zero, v=v, masks=masks)
    return Psi, solve_backward_varcoef(
        cs, grid, time_grid, Psi, _observation_source(Psi, theta, theta_s, masks), zero)


def solve_sensitivity(cs: CoefficientSet, grid: SpatialGrid, time_grid: TimeGrid,
                      Psi: SpaceTimeField, zhat0: BulkSurfaceField) -> SpaceTimeField:
    """Tangent (sensitivity) system along a quasilinear trajectory.

    Exact directional derivative of the discrete quasilinear flow: the
    conservative flux carries sigma(psi) G z + sigma'(psi) z_face G psi,
    coefficients sampled at each cell's right slice.
    """
    if not zhat0.is_trace_compatible(1e-12):
        raise ContractError("perturbation direction must be trace-compatible")
    # the tangent of an implicit step is its Newton Jacobian at the
    # converged state
    dt, M = time_grid.dt, time_grid.step_count
    ab = _quasilinear_jacobian_bands(Psi.bulk[1:], cs, grid, dt)
    out = np.empty((M + 1, grid.n_nodes))
    _march(lambda c, rhs: _solve_tridiagonal(ab[:, c - 1], rhs), grid.mass_weights(),
           dt, zhat0.bulk, out, np.zeros_like(out[1:]))    # no source
    return SpaceTimeField.from_bulk(out)


# --- diagnostics ------------------------------------------------------------

def total_mass(Y: SpaceTimeField, grid: SpatialGrid) -> np.ndarray:
    """Bulk trapezoid integral plus the two surface values, per slice."""
    return Y.bulk @ grid.trapezoid_weights() + Y.surface.sum(axis=1)


def l2_history(Y: SpaceTimeField, grid: SpatialGrid) -> np.ndarray:
    """The bulk-surface L2 norm of every slice."""
    return np.sqrt(slice_sq_norms((Y.bulk, grid.trapezoid_weights()), (Y.surface, 1.0)))


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


def _manufactured_run(cs: CoefficientSet, N: int, M: int,
                      time_profile: str) -> float:
    """Space-time L2 error for psi = profile(t) cos(pi x) on (0,1) x (0,1).

    profile "linear" (1+t) has zero implicit-Euler truncation, isolating
    the spatial order; "decay" e^{-t} carries an O(dt) temporal component.
    """
    grid = build_grid(1.0, N)
    tgrid = build_time_grid(1.0, M)
    ops = LinearOperatorSet.from_coefficients(cs, grid, tgrid)
    x, t = grid.x, tgrid.nodes
    cosx = np.cos(np.pi * x)
    if time_profile == "linear":
        prof, dprof = 1.0 + t, np.ones_like(t)
    elif time_profile == "decay":
        prof, dprof = np.exp(-t), -np.exp(-t)
    else:
        raise ValueError(time_profile)
    exact = prof[:, None] * cosx[None, :]
    f = (dprof[:, None] * cosx[None, :]
         + ops.sigma0 * np.pi**2 * exact + ops.da0 * exact)
    # dnu(psi) = 0 at both ends for cos(pi x) on (0,1)
    fs = dprof[:, None] * cosx[None, [0, -1]] + ops.db0 * exact[:, [0, -1]]
    F = SpaceTimeField(f, fs)
    psi0 = BulkSurfaceField.from_bulk(exact[0])
    Psi = solve_linear_forward(ops, F, psi0)
    err = SpaceTimeField(Psi.bulk - exact, Psi.surface - exact[:, [0, -1]])
    return math.sqrt(st_inner(err, err, grid, tgrid.dt, slice(1, None)))


def convergence_orders(cs: CoefficientSet) -> dict:
    """Observed spatial and temporal orders from manufactured solutions.

    Spatial: linear-in-time profile (no temporal truncation), direct error
    ratios over N in {32, 64, 128} at M = 256.  Temporal: decaying profile
    at N = 256 over M in {64, 128, 256}; the order is estimated from error
    increments so the common spatial component cancels.
    """
    es = [_manufactured_run(cs, N, 256, "linear") for N in (32, 64, 128)]
    spatial = [math.log2(es[i] / es[i + 1]) for i in range(2)]
    et = [_manufactured_run(cs, 256, M, "decay") for M in (64, 128, 256)]
    temporal_inc = math.log2(max(et[0] - et[1], 1e-300) / max(et[1] - et[2], 1e-300))
    return {"spatial_errors": es, "spatial_orders": spatial,
            "temporal_errors": et, "temporal_order": temporal_inc,
            "spatial_order_min": min(spatial)}
