"""End-to-end insensitizing-control synthesis and its verification.

Insensitivity reduces to one condition on the cascade, h(.,0) = 0 (Bodart
and Fabre 1995), reached for the quasilinear cascade by local inversion
around the linearized null control.  `synthesize` makes one
Carleman-weighted least-squares solve of (F, 0), that null control, then
a chord iteration (Kelley 1995, ch. 5) on h_q(.,0) of the quasilinear
cascade, v <- v - V_k Sigma_k^{-1} U_k^T h_q(.,0), with (U_k, Sigma_k,
V_k) top singular triplets of G, the linear map from a control to
h(.,0) (`ControlModes`).  The cascade's nonlinear part is of second order
at 0 (each term is a state times a coefficient's deviation from its
linearization at 0, or dsigma |grad psi|^2), so G is the quasilinear
map's derivative at the origin, and the chord contracts for small data.
The control is the linearized null control plus a small correction, so
the chord leaves a mode whose cancellation would cost more than
CORRECTION_CAP times that control.

Insensitivity is verified two independent ways: a Richardson-extrapolated
centered difference of the energy functional along a perturbation ladder,
and the adjoint representation <psi0_hat, h(.,0)> from the quasilinear
cascade.  Their discrepancy is reported against an explicit error budget
(FD truncation and the synthesis residual).  The time step bounds nothing
in it: both estimators differentiate the same stepped flow, exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, SmallnessViolationError
from .fi import FIProblem, FISolution, FISolver
from .geometry import (BulkSurfaceField, SpatialGrid, h3_proxy_norm,
                       l2_inner, l2_norm, st_inner)
from .solvers import (CoefficientSet, solve_linearized_cascade,
                      solve_quasilinear, solve_quasilinear_cascade)
from .weights import log_add


# the insensitivity check's tau values: three sizes, each half the last, as
# its Richardson step and its trend test assume
TAU_LADDER = (1e-2, 5e-3, 2.5e-3)

# the chord's settings (see `synthesize`): it has converged when h_q(.,0)
# on the modes it cancels is at most CHORD_TOL times ||h(.,0)|| of the
# uncontrolled linear cascade, and it raises after MAX_OUTER steps.  It
# cancels the leading modes whose correction is at most CORRECTION_CAP
# times the least-squares control, so the control ends within
# 1 + CORRECTION_CAP = 3 times that control (acceptance criterion 9).
CHORD_TOL = 1e-10
MAX_OUTER = 30
CORRECTION_CAP = 2.0

# `control_modes`' start block: G has 2 singular values above CHORD_TOL *
# sigma_1 on the unit interval (32x64 to 128x256, theta_s 0 and 0.5), the
# third at 1e-12 sigma_1 or below; it has 4 at length 3 and 5 at length 4
# (64x128), and there the block doubles
MODE_BLOCK = 3


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
class ControlModes:
    """The top singular triplets of G, the map from a control on the live
    cells x omega nodes (`control_support`) to h(.,0) of the linear cascade
    with zero sources: G V_i = sigma_i U_i.  The controls have the L2
    weights dt H_j, h(.,0) those of `l2_norm`, and both bases are
    orthonormal in their weights."""

    U: np.ndarray           # (k, n) node values of h(.,0); surfaces are traces
    sigma: np.ndarray       # (k,) descending
    V: np.ndarray           # (k, M+1, n) controls, zero off the support

    def coefficients(self, h0: BulkSurfaceField, grid: SpatialGrid) -> np.ndarray:
        """U^T h0: h0's parts on the modes, whose 2-norm over any of them is
        `l2_norm` of h0's projection on those."""
        return np.array([l2_inner(BulkSurfaceField.from_bulk(u), h0, grid)
                         for u in self.U])

    def step(self, a: np.ndarray, k: int) -> np.ndarray:
        """The chord's control step -V_k Sigma_k^{-1} a_k on the first k
        modes, for `coefficients` a; its L2 norm is ||Sigma_k^{-1} a_k||."""
        return -np.einsum("i,icj->cj", a[:k] / self.sigma[:k], self.V[:k])


def control_norm(v: np.ndarray, grid: SpatialGrid, dt: float) -> float:
    """The L2 norm of a control over its cells 1..M."""
    f = BulkSurfaceField(v, np.zeros((len(v), 2)))
    return st_inner(f, f, grid, dt, slice(1, None)) ** 0.5


def control_support(bundle: "SynthesisBundle") -> np.ndarray:
    """(M+1, n) bools: the live cells x omega nodes, where the chord moves
    the control; slice 0 is no cell."""
    out = np.zeros((bundle.time_grid.step_count + 1, bundle.grid.n_nodes), bool)
    out[1:] = bundle.tables.live[:, None] & bundle.masks.omega_nodes
    return out


def linear_h(bundle: "SynthesisBundle", F: BulkSurfaceField | None = None,
             v: np.ndarray | None = None) -> np.ndarray:
    """The bulk of h of the linear cascade with sources (F, 0) and control
    v, each zero when omitted; stacks of either give a stack."""
    shape = (bundle.time_grid.step_count + 1, bundle.grid.n_nodes)
    zero = BulkSurfaceField(np.zeros(shape), np.zeros((shape[0], 2)))
    return solve_linearized_cascade(
        bundle.ops, zero if F is None else F, np.zeros(shape) if v is None else v,
        bundle.theta, bundle.theta_s, bundle.masks)[1].bulk


def control_to_h0_adjoint(bundle: "SynthesisBundle", e: np.ndarray) -> np.ndarray:
    """G* e in the L2 weights of the control (dt H_j on `control_support`)
    and of h(.,0) (`l2_norm`), for node values e (n,) or a stack (B, n);
    G v itself is `linear_h(bundle, v=v)[..., 0, :]`.

    The linear cascade with e as an impulse source in cell 1, weighed with
    the mass M_w as a start datum dt e would be: its h one slice back (a
    control's slice c feeds step c, backward step c makes slice c-1), over
    dt, is G* e."""
    M, n = bundle.time_grid.step_count, bundle.grid.n_nodes
    impulses = np.zeros((*np.shape(e)[:-1], M + 1, n))
    impulses[..., 1, :] = e
    out = np.zeros_like(impulses)
    out[..., 1:, :] = linear_h(bundle, BulkSurfaceField.from_bulk(impulses))[..., :-1, :]
    return np.where(control_support(bundle), out / bundle.time_grid.dt, 0.0)


@dataclass(frozen=True)
class SynthesisBundle(FIProblem):
    """The least-squares operator plus what the synthesis adds to it: the
    coefficients of the quasilinear cascade, and what it caches, the
    least-squares solver and the chord's `control_modes`.  The chord's
    settings are module constants.

    Frozen, so that what is cached on it can never go stale: a bundle with
    other fields is a new bundle with its own solver and modes.
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

    @functools.cached_property
    def control_modes(self) -> ControlModes:
        """G's singular triplets with sigma > CHORD_TOL sigma_1, from a
        block of cosines: G* on the block, G on an orthonormal basis of its
        image, then the SVD of that small image.  G*'s range is G's row
        space, so a block whose smallest singular value is below the cut
        resolves the triplets above it; until then the block doubles, up to
        the node count (the adaptive range finder of Halko, Martinsson and
        Tropp, SIAM Rev. 53, 2011).  They depend on the operator alone, so
        every synthesis on this bundle shares them."""
        g, support = self.grid, control_support(self)
        sqrt_wv = np.sqrt(self.time_grid.dt * g.trapezoid_weights()) * support
        sqrt_wh = np.sqrt(g.mass_weights())      # l2_norm of a trace-compatible slice
        size = MODE_BLOCK
        while True:
            block = np.cos(np.pi * np.arange(size)[:, None] * g.x / g.length)
            image = control_to_h0_adjoint(self, block)
            Q = np.linalg.qr((image * sqrt_wv).reshape(size, -1).T)[0]
            basis = np.divide(Q.T.reshape(image.shape), sqrt_wv,
                              out=np.zeros_like(image), where=support)
            Uh, sigma, Wt = np.linalg.svd((linear_h(self, v=basis)[:, 0] * sqrt_wh).T,
                                          full_matrices=False)
            if sigma[-1] <= CHORD_TOL * sigma[0] or size == g.n_nodes:
                break
            size = min(2 * size, g.n_nodes)
        k = int(np.count_nonzero(sigma > CHORD_TOL * sigma[0]))
        return ControlModes(U=Uh[:, :k].T / sqrt_wh, sigma=sigma[:k],
                            V=np.einsum("ib,bcj->icj", Wt[:k], basis))


@dataclass
class SynthesisReport:
    """The synthesis' result, each number kept once: `fi_solution` is the
    least-squares solve of (F, 0), before the projection; `v` the control
    after the chord, which cancelled the first `k` control modes;
    `h0_steps` ||h_q(.,0)|| under the least-squares control and after each
    step, and `residuals` its part on those k modes, the chord's own
    measure; `h0_free` the stop rule's scale."""

    v: np.ndarray
    k: int
    h0_steps: list
    residuals: list
    h0_free: float
    log_y_norm_sq: float
    quasi_states: tuple             # (Psi, H) of the quasilinear cascade under v
    fi_solution: FISolution

    # every other end of the chord raises
    status = "converged"

    @property
    def iterations(self) -> int:
        """The chord's steps."""
        return len(self.residuals) - 1

    @property
    def h0_norm_quasilinear(self) -> float:
        return self.h0_steps[-1]

    @property
    def h0_norm_linear(self) -> float:
        """||h(.,0)|| of the linear cascade under the least-squares control."""
        sol = self.fi_solution
        return l2_norm(sol.resolved[1].slice(0), sol.problem.grid)


# --- synthesis ---------------------------------------------------------------

def synthesize(F: BulkSurfaceField, bundle: SynthesisBundle) -> SynthesisReport:
    """One least-squares solve of (F, 0), then chord steps
    v <- v + `ControlModes.step` on the first k modes of h_q(.,0), the
    quasilinear cascade's h(.,0) under v, until h_q(.,0) on those modes is
    at most CHORD_TOL * h0_free.

    k counts the leading modes whose cancellation under the least-squares
    control costs at most CORRECTION_CAP times that control.  Both of G's
    modes pass on the default sources, but sigma_2 is 2e-5: over 40
    random_fourier sources at 64x128 the second cost 0.04 to 500 times
    the control, over the cap on 10.  A mode left keeps its part of
    h_q(.,0), which `h0_steps` reports.

    The scale h0_free is ||h(.,0)|| of the uncontrolled linear cascade
    (one linear cascade), so the tolerance scales with the source; the
    least-squares solve alone leaves h_q(.,0) 9-40x below it.  Over random
    sources (seeds 1-8, amplitudes 2.5e-4 and 4e-3) at 64x128 and 128x256
    the chord stopped after 2-4 steps, and run on for 8 steps ||h_q(.,0)||
    floored at 8.9e-15 of the scale or below, 11,000x under CHORD_TOL.

    A step that does not at least halve h_q(.,0) on the k modes, or
    MAX_OUTER steps, raise SmallnessViolationError: the source is then
    outside the radius in which the frozen derivative is a contraction.
    """
    g, tg, modes = bundle.grid, bundle.time_grid, bundle.control_modes
    sol = bundle.fi_solver.solve(F)
    h0_free = l2_norm(BulkSurfaceField.from_bulk(linear_h(bundle, F)[0]), g)

    def quasilinear(v):
        Psi, H = solve_quasilinear_cascade(bundle.cs, g, tg, F, v, bundle.theta,
                                           bundle.theta_s, bundle.masks)
        return Psi, H, modes.coefficients(H.slice(0), g)

    v = sol.v
    Psi_q, H_q, a = quasilinear(v)
    cost = np.sqrt(np.cumsum((a / modes.sigma) ** 2))
    k = int(np.count_nonzero(cost <= CORRECTION_CAP * control_norm(v, g, tg.dt)))
    h0, res = [l2_norm(H_q.slice(0), g)], [float(np.linalg.norm(a[:k]))]
    while not res[-1] <= CHORD_TOL * h0_free:
        if len(res) > MAX_OUTER:
            raise SmallnessViolationError(
                f"the chord did not reach h(.,0) <= {CHORD_TOL:g} x "
                f"{h0_free:.3e} on {k} modes in {MAX_OUTER} steps (last "
                f"{res[-1]:.3e})", step=MAX_OUTER, residual=res[-1])
        v = v + modes.step(a, k)
        Psi_q, H_q, a = quasilinear(v)
        h0.append(l2_norm(H_q.slice(0), g))
        res.append(float(np.linalg.norm(a[:k])))
        if not res[-1] <= 0.5 * res[-2]:
            raise SmallnessViolationError(
                f"chord step {len(res) - 1} did not halve h(.,0) on {k} modes "
                f"({res[-2]:.3e} -> {res[-1]:.3e}); source outside the "
                "small-data radius", step=len(res) - 1, residual=res[-1])

    return SynthesisReport(
        v=v, k=k, h0_steps=h0, residuals=res, h0_free=h0_free,
        log_y_norm_sq=log_add(*bundle.log_source_norms(F).values()),
        quasi_states=(Psi_q, H_q), fi_solution=sol)


# --- the energy functional and its derivative --------------------------------

def evaluate_J(bundle: SynthesisBundle, F: BulkSurfaceField, v: np.ndarray,
               tau: float, direction: BulkSurfaceField) -> float:
    """J at initial datum tau * direction, with the control v applied."""
    g, tg, masks = bundle.grid, bundle.time_grid, bundle.masks
    psi0 = BulkSurfaceField(tau * direction.bulk, tau * direction.surface)
    Psi = solve_quasilinear(bundle.cs, g, tg, F, psi0, v=v, masks=masks)
    return quadratic_energy(Psi, bundle)


def observation_pairing(Psi: BulkSurfaceField, Z: BulkSurfaceField,
                        bundle: SynthesisBundle) -> float:
    """theta int_{O_T} psi z + theta_s int_{Sigma_T} psi_G z_G, with the
    right-slice quadrature of the steppers (duality-exact)."""
    g, masks = bundle.grid, bundle.masks
    w = g.trapezoid_weights() * masks.obs_bulk_nodes
    ws = masks.obs_surface_mask.astype(float)
    bulk = float(np.einsum("cj,j,cj->", Psi.bulk[1:], w, Z.bulk[1:]))
    surf = float(np.einsum("cj,j,cj->", Psi.surface[1:], ws, Z.surface[1:]))
    return bundle.time_grid.dt * (bundle.theta * bulk + bundle.theta_s * surf)


def quadratic_energy(Psi: BulkSurfaceField, bundle: SynthesisBundle) -> float:
    """The windowed energy J: half the observation pairing of Psi with itself."""
    return 0.5 * observation_pairing(Psi, Psi, bundle)


def insensitivity_check(bundle: SynthesisBundle, F: BulkSurfaceField,
                        report: SynthesisReport,
                        directions: list[BulkSurfaceField]) -> list[dict]:
    """Two independent derivative estimators per direction.

    (i) Richardson-extrapolated centered differences of J over
    `TAU_LADDER`, around J(0) = the energy of the report's quasilinear state;
    (ii) the adjoint value <dir, H(.,0)> from the report's quasilinear
    cascade (bulk and surface terms reported separately).  The error
    budget splits FD truncation and the synthesis residual ||h(.,0)||;
    the time step is no term of it, because `solve_backward_varcoef` is
    the exact discrete adjoint of the stepped flow that both estimators
    differentiate.

    The ladder's initial data +-tau * dir of every direction advance as
    one stack in a single quasilinear solve; member k's energy is the J
    that `evaluate_J` gives for its datum.  A direction whose surface is
    not its bulk's trace is refused with a ContractError.
    """
    if not all(d.is_trace_compatible() for d in directions):
        raise ContractError("perturbation direction must be trace-compatible")
    if not directions:
        return []
    g, tg, v = bundle.grid, bundle.time_grid, report.v
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
    energies = iter([quadratic_energy(BulkSurfaceField(b, s), bundle)
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
