import dataclasses
import gc
import math
import sys
import weakref

import numpy as np
import pytest

from bscontrol import insensitize, solvers
from bscontrol.errors import ContractError, SmallnessViolationError
from bscontrol.fi import FISolver, cascade_residual_check
from bscontrol.geometry import (TRACE_TOL, BulkSurfaceField, h3_proxy_norm,
                                l2_norm, normal_derivative, sbp_laplacian)
from bscontrol.insensitize import (CHORD_TOL, ControlModes, control_norm,
                                   control_support, control_to_h0_adjoint,
                                   evaluate_J,
                                   insensitivity_check, linear_h,
                                   quadratic_energy, random_direction,
                                   synthesize)
from bscontrol.solvers import (coefficient_preset, linear_cascade_rows,
                               solve_quasilinear_cascade)

from conftest import (duality_identity_check, make_bundle, node_gradient,
                      nonlinear_parts_A, random_source)


@pytest.fixture(scope="module")
def synth(bundle, source):
    return synthesize(source, bundle)


def _random_states(bundle, rng, scale=1e-3):
    g = bundle.grid
    M = bundle.time_grid.step_count
    x = g.x / g.length
    t = np.linspace(0, 1, M + 1)
    def smooth():
        out = np.zeros((M + 1, g.n_nodes))
        for kx in range(3):
            for kt in range(2):
                out += (rng.standard_normal() / (1 + kx + kt)
                        * np.outer(np.cos(np.pi * kt * t + rng.uniform(0, 6)),
                                   np.cos(np.pi * kx * x + rng.uniform(0, 6))))
        return BulkSurfaceField.from_bulk(scale * out)
    return smooth(), smooth()


def test_random_direction_unit_norm(bundle):
    rng = np.random.default_rng(0)
    d = random_direction(bundle.grid, rng)
    assert h3_proxy_norm(d, bundle.grid) == pytest.approx(1.0, rel=1e-12)
    assert d.is_trace_compatible()


def test_nonlinear_parts_zero_state(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    zero = BulkSurfaceField.zeros(g, M + 1)
    A = nonlinear_parts_A(zero, zero, bundle.cs, bundle.ops)
    for key in ("A1", "A2", "A3", "A4"):
        assert np.all(A[key] == 0)


def test_nonlinear_parts_vanish_for_linear_coefficients(bundle):
    cs = coefficient_preset("constant")   # sigma const, a and b linear
    from bscontrol.solvers import LinearOperatorSet
    ops = LinearOperatorSet.from_coefficients(cs, bundle.grid, bundle.time_grid)
    rng = np.random.default_rng(1)
    Psi, H = _random_states(bundle, rng, scale=0.3)
    A = nonlinear_parts_A(Psi, H, cs, ops)
    for key in ("A1", "A2", "A3", "A4"):
        assert np.abs(A[key]).max() <= 1e-13


def _lambda_direct(Psi, H, v, bundle) -> dict:
    """The full quasilinear cascade rows evaluated directly on cells."""
    cs, masks, g, dt = bundle.cs, bundle.masks, bundle.grid, bundle.time_grid.dt
    M = Psi.n_slices - 1
    pb, ps = Psi.bulk[1:], Psi.surface[1:]
    pb_o, ps_o = Psi.bulk[:-1], Psi.surface[:-1]
    hb, hs = H.bulk[:-1], H.surface[:-1]
    hb_o, hs_o = H.bulk[1:], H.surface[1:]

    L1, L2 = np.zeros((2, M + 1, g.n_nodes))
    L3, L4 = np.zeros((2, M + 1, 2))
    L1[1:] = (pb - pb_o) / dt - cs.sigma(pb) * sbp_laplacian(pb, g) \
        - cs.dsigma(pb) * node_gradient(pb, g)**2 + cs.a(pb) \
        - v[1:] * masks.omega_nodes[None, :]
    L3[1:] = (ps - ps_o) / dt + cs.sigma(ps) * normal_derivative(pb, g) + cs.b(ps)
    L2[1:] = (hb - hb_o) / dt - cs.sigma(pb) * sbp_laplacian(hb, g) \
        + cs.da(pb) * hb - bundle.theta * pb * masks.obs_bulk_nodes[None, :]
    L4[1:] = (hs - hs_o) / dt + cs.sigma(ps) * normal_derivative(hb, g) \
        + cs.db(ps) * hs - bundle.theta_s * ps * masks.obs_surface_mask[None, :]
    return {"L1": L1, "L3": L3, "L2": L2, "L4": L4}


def test_lambda_decomposition(bundle):
    """Lambda computed directly equals the linear rows minus A."""
    rng = np.random.default_rng(2)
    Psi, H = _random_states(bundle, rng)
    M = bundle.time_grid.step_count
    v = np.zeros((M + 1, bundle.grid.n_nodes))
    v[1:, bundle.masks.omega_nodes] = 1e-3 * rng.standard_normal(
        (M, int(bundle.masks.omega_nodes.sum())))
    lam = _lambda_direct(Psi, H, v, bundle)
    rows = linear_cascade_rows(Psi, H, v, bundle.ops, bundle.theta,
                               bundle.theta_s, bundle.masks)
    A = nonlinear_parts_A(Psi, H, bundle.cs, bundle.ops)
    pairs = {"L1": "A1", "L2": "A2", "L3": "A3", "L4": "A4"}
    for lkey, akey in pairs.items():
        gap = np.abs(lam[lkey] - (rows[lkey] - A[akey])).max()
        scale = max(np.abs(lam[lkey]).max(), 1e-12)
        assert gap <= 1e-12 * max(scale, 1.0)


def test_synthesize_zero_source(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    rep = synthesize(BulkSurfaceField.zeros(g, M + 1), bundle)
    assert rep.status == "converged"
    assert rep.iterations == 0 and rep.h0_free == 0.0
    assert np.all(rep.fi_solution.v == 0) and np.all(rep.v == 0)
    assert rep.h0_norm_quasilinear == 0.0


def test_synthesize_linear_coefficients_two_iterations():
    """With the constant preset the quasilinear cascade is the linear one
    up to Newton's tolerance, so the chord steps with the exact derivative
    of a linear map: it converges in at most two steps."""
    bundle, F = make_bundle(preset="constant")
    rep = synthesize(F, bundle)
    assert rep.status == "converged"
    assert rep.iterations <= 2
    assert rep.h0_norm_quasilinear <= CHORD_TOL * rep.h0_free


def test_synthesize_converges_small_data(synth):
    rep = synth
    assert rep.status == "converged"
    assert 1 <= rep.iterations <= 10
    assert rep.h0_steps[1] / rep.h0_steps[0] <= 1e-5
    assert rep.h0_norm_quasilinear <= CHORD_TOL * rep.h0_free
    assert rep.h0_norm_quasilinear <= 1e-12
    H = rep.fi_solution.H
    assert np.all(H.bulk[0] == 0) and np.all(H.surface[0] == 0)


@pytest.mark.parametrize("family", ["gaussian", "random_fourier"])
@pytest.mark.parametrize("N, M", [(32, 64), (64, 128)])
def test_synthesize_cancels_h0(family, N, M):
    """The chord takes ||h_q(.,0)|| below 1e-12 (from 1e-6 to 2e-5 after
    the least-squares solve) on both source families."""
    bundle, F = make_bundle(N=N, M=M, family=family)
    rep = synthesize(F, bundle)
    assert rep.h0_steps[0] > 1e-7
    assert rep.h0_norm_quasilinear <= 1e-12


def test_synthesize_outer_loop_exits(monkeypatch):
    """The outer iteration is the chord, and it has three exits: it
    converges when h_q(.,0) on the modes it cancels is at most
    CHORD_TOL * h0_free, after one least-squares solve; a step that does
    not halve that part raises; and so does a chord that needs more than
    MAX_OUTER steps."""
    bundle, F = make_bundle(N=32, M=64)
    solve = FISolver.solve
    solves = []

    def recording_solve(self, *args, **kwargs):
        solves.append(solve(self, *args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(FISolver, "solve", recording_solve)
    rep = synthesize(F, bundle)
    assert rep.status == "converged" and rep.iterations == 2 and rep.k == 2
    assert len(solves) == 1 and solves[0] is rep.fi_solution
    assert rep.residuals[-1] <= CHORD_TOL * rep.h0_free < rep.residuals[-2]
    assert rep.h0_steps[-1] <= CHORD_TOL * rep.h0_free
    # the quasilinear states are the last step's own
    assert rep.h0_norm_quasilinear == l2_norm(rep.quasi_states[1].slice(0),
                                              bundle.grid)

    monkeypatch.setattr(insensitize, "MAX_OUTER", 1)
    with pytest.raises(SmallnessViolationError, match="in 1 steps") as exc:
        synthesize(F, bundle)
    assert exc.value.step == 1

    monkeypatch.setattr(insensitize, "MAX_OUTER", 30)
    # steps of 0.4 times the chord's leave 0.6 of ||h_q(.,0)||
    full = ControlModes.step
    monkeypatch.setattr(ControlModes, "step",
                        lambda self, a, k: 0.4 * full(self, a, k))
    with pytest.raises(SmallnessViolationError, match="did not halve") as exc:
        synthesize(F, bundle)
    assert exc.value.step == 1


def test_chord_leaves_a_mode_it_cannot_afford(monkeypatch):
    """On acceptance criterion 9's first source, cancelling h_q(.,0) on the
    second mode (sigma_2 = 2.4e-5) would move the control by 9.3 times
    the least-squares control.  The chord leaves that mode: it cancels
    the first, ends within 1 + CORRECTION_CAP times the least-squares
    control, and reports the part of h_q(.,0) left on the second.
    Without the cap it cancels both, and the control grows 9.4 times."""
    b, _ = make_bundle()
    F = random_source(b, np.random.default_rng(19), amplitude=1e-3)
    g, dt = b.grid, b.time_grid.dt
    rep = synthesize(F, b)
    ratio = control_norm(rep.v, g, dt) / control_norm(rep.fi_solution.v, g, dt)
    assert rep.status == "converged" and rep.k == 1 and len(b.control_modes.sigma) == 2
    assert ratio <= 1 + insensitize.CORRECTION_CAP
    assert rep.residuals[-1] <= CHORD_TOL * rep.h0_free
    left = abs(b.control_modes.coefficients(rep.quasi_states[1].slice(0), g)[1])
    assert rep.h0_steps[-1] == pytest.approx(left, rel=1e-6)
    assert rep.h0_steps[-1] > 1e-3 * rep.h0_free

    monkeypatch.setattr(insensitize, "CORRECTION_CAP", math.inf)
    full = synthesize(F, b)
    assert full.k == 2 and full.h0_norm_quasilinear <= 1e-12
    assert control_norm(full.v, g, dt) > 9 * control_norm(full.fi_solution.v, g, dt)


def test_one_cascade_resolve_per_solve(monkeypatch):
    """One synthesis makes one least-squares solve, and that solve's
    cascade is re-solved once, in `FISolution.resolved`: the linear h(.,0)
    norm, the residual check and the estimates all read it.  The
    synthesis' own linear cascades are its scale h0_free and, once per
    bundle, the control modes."""
    bundle, F = make_bundle(N=32, M=64)
    calls = {"cascade": 0, "solve": 0}
    cascade, solve = solvers.solve_linearized_cascade, FISolver.solve

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, module in list(sys.modules.items()):
        if (name.startswith("bscontrol")
                and getattr(module, "solve_linearized_cascade", None) is cascade):
            monkeypatch.setattr(module, "solve_linearized_cascade",
                                counted(cascade, "cascade"))
    monkeypatch.setattr(FISolver, "solve", counted(solve, "solve"))
    bundle.control_modes
    assert calls == {"cascade": 2, "solve": 0}
    rep = synthesize(F, bundle)
    assert calls == {"cascade": 3, "solve": 1}
    rep.h0_norm_linear
    cascade_residual_check(rep.fi_solution)
    rep.fi_solution.lhs_rhs_ratios
    assert calls == {"cascade": 4, "solve": 1}


@pytest.mark.parametrize("length, omega, obs_bulk, center, sigma_rel", [
    (1, "0.25,0.75", "0.35,0.65", 0.45, 1e-12),
    (3, "0.75,2.25", "1.05,1.95", 1.35, 1e-10),
], ids=["length1", "length3"])
def test_control_modes_match_dense_svd(length, omega, obs_bulk, center, sigma_rel):
    """The range finder's triplets against the oracle at 32x64, with the
    masks and the source centre scaled with the length: the explicit G^T,
    from G* on the n unit impulses stacked, then a dense SVD in the
    weights.  G has 2 singular values above the cut at length 1 and 4 at
    length 3, more than the range finder's start block holds."""
    bundle, _ = make_bundle(N=32, M=64, grid__length=length, masks__omega=omega,
                            masks__obs_bulk=obs_bulk, source__center=center)
    g, tg, masks = bundle.grid, bundle.time_grid, bundle.masks
    M, n, dt = tg.step_count, g.n_nodes, tg.dt
    modes = bundle.control_modes
    assert modes is bundle.control_modes
    assert dataclasses.replace(bundle, theta_s=0.0).control_modes is not modes
    support = control_support(bundle)
    assert np.array_equal(support[1:], bundle.tables.live[:, None]
                          & masks.omega_nodes[None, :])
    assert not support[0].any()

    # row j: G* e_j on the support
    Gt = control_to_h0_adjoint(bundle, np.eye(n))[:, support]
    wv = (dt * g.trapezoid_weights() * np.ones((M + 1, 1)))[support]
    wh = g.mass_weights()
    # G = W_h^-1 (W_v G*)^T; its weighted form W_h^1/2 G W_v^-1/2
    Ghat = (np.sqrt(wv) * Gt).T / np.sqrt(wh)
    Uo, so, Vt = np.linalg.svd(Ghat.T, full_matrices=False)
    k = int(np.count_nonzero(so > CHORD_TOL * so[0]))
    assert len(modes.sigma) == k == {1: 2, 3: 4}[length]
    assert modes.sigma == pytest.approx(so[:k], rel=sigma_rel)
    for i in range(k):
        u = Uo[:, i] / np.sqrt(wh)
        v = Vt[i] / np.sqrt(wv)
        sign = np.sign(np.dot(u, modes.U[i]))
        assert np.abs(sign * modes.U[i] - u).max() <= 1e-8 * np.abs(u).max()
        assert np.abs(sign * modes.V[i][support] - v).max() <= 1e-8 * np.abs(v).max()
        assert np.all(modes.V[i][~support] == 0)
    # G V_i = sigma_i U_i through the forward cascade
    GV = linear_h(bundle, v=modes.V)[:, 0]
    assert np.abs(GV - modes.sigma[:, None] * modes.U).max() <= 1e-12 * modes.sigma[0]


def test_quadratic_energy_gates(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    Psi = BulkSurfaceField.from_bulk(np.ones((M + 1, g.n_nodes)))
    base = quadratic_energy(Psi, bundle)
    assert base > 0
    nosurf = dataclasses.replace(bundle, theta_s=0.0)
    only_bulk = quadratic_energy(Psi, nosurf)
    assert only_bulk < base


def test_bundle_solver_is_cached_and_scoped(bundle):
    assert bundle.fi_solver is bundle.fi_solver
    other = dataclasses.replace(bundle, theta_s=0.0)
    assert other.fi_solver is not bundle.fi_solver
    assert other.fi_solver.problem.theta_s == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.theta_s = 0.0


def test_dropped_bundle_frees_its_solver():
    """The cached solver holds no reference back to its bundle, so dropping
    the bundle frees the solver, its scaled matrix and its LU factor at
    once, with no wait for the cycle collector."""
    gc.disable()
    try:
        bundle, F = make_bundle(N=32, M=32)
        bundle.fi_solver.solve(F)
        solver = weakref.ref(bundle.fi_solver)
        At = weakref.ref(bundle.fi_solver.At)
        del bundle
        assert solver() is None
        assert At() is None
    finally:
        gc.enable()


def test_evaluate_J_zero(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    zeroF = BulkSurfaceField.zeros(g, M + 1)
    v = np.zeros((M + 1, g.n_nodes))
    d = BulkSurfaceField.from_bulk(np.cos(np.pi * g.x))
    assert evaluate_J(bundle, zeroF, v, 0.0, d) == 0.0


def test_evaluate_J_at_zero_is_the_report_energy(bundle, source, synth):
    """J(0) along any direction is the energy of the report's quasilinear
    state, bit for bit: the insensitivity check reads it from there."""
    rng = np.random.default_rng(8)
    j0 = quadratic_energy(synth.quasi_states[0], bundle)
    assert j0 > 0
    for _ in range(3):
        d = random_direction(bundle.grid, rng)
        assert evaluate_J(bundle, source, synth.v, 0.0, d) == j0


def test_duality_identity(bundle, source, synth):
    rng = np.random.default_rng(5)
    d = random_direction(bundle.grid, rng)
    v = synth.fi_solution.v
    const = duality_identity_check(bundle, source, v, d, quasilinear=False)
    assert const["relative"] <= 1e-10
    quasi = duality_identity_check(bundle, source, v, d, quasilinear=True)
    assert quasi["relative"] <= 1e-12


def test_duality_zero_direction(bundle, source):
    d = BulkSurfaceField.zeros(bundle.grid)
    out = duality_identity_check(bundle, source, None, d, quasilinear=False)
    assert out["lhs_energy_pairing"] == 0.0
    assert out["rhs_adjoint_pairing"] == 0.0


def test_duality_quasilinear_within_budget():
    # the quasilinear gap is roundoff even at half-unit amplitudes: the
    # backward stepper solves with the transpose of the tangent stepper's
    # Newton Jacobian (measured at most ~1e-14, grid-independent)
    for M in (64, 128):
        b, F = make_bundle(N=32, M=M, amplitude=0.5)
        rng = np.random.default_rng(6)
        d = random_direction(b.grid, rng)
        r = duality_identity_check(b, F, None, d, quasilinear=True)["relative"]
        assert r <= 1e-12


def test_insensitivity_check_structure(bundle, source, synth):
    rng = np.random.default_rng(7)
    directions = [random_direction(bundle.grid, rng)]
    out = insensitivity_check(bundle, source, synth, directions)[0]
    assert abs(out["fd_derivative"]) <= 1e-4
    assert abs(out["adjoint_total"]) <= 1e-4
    assert abs(out["linear_coeff"]) <= 1e-4
    assert out["quadratic_coeff"] > 0
    assert set(out["error_budget"]) == {"fd_truncation", "synthesis_residual"}
    assert out["discrepancy"] <= max(1e-6, 10 * out["error_budget"]["fd_truncation"]
                                     + out["error_budget"]["synthesis_residual"])
    assert out["trend_ok"]


def test_insensitivity_check_refuses_a_direction_off_its_trace(bundle, source, synth):
    d = random_direction(bundle.grid, np.random.default_rng(7))
    d.surface[0] += 1e-6
    with pytest.raises(ContractError, match="trace-compatible"):
        insensitivity_check(bundle, source, synth, [d])


# each takes a datum (or a direction) that must be trace-compatible
TRACE_CHECKED = {
    "solve_linear_forward": lambda b, F, rep, d: solvers.solve_linear_forward(b.ops, F, d),
    "solve_linear_backward": lambda b, F, rep, d: solvers.solve_linear_backward(b.ops, F, d),
    "solve_quasilinear": lambda b, F, rep, d: solvers.solve_quasilinear(
        b.cs, b.grid, b.time_grid, F, d),
    "solve_sensitivity": lambda b, F, rep, d: solvers.solve_sensitivity(
        b.cs, b.grid, b.time_grid, rep.quasi_states[0], d),
    "insensitivity_check": lambda b, F, rep, d: insensitivity_check(b, F, rep, [d]),
}


@pytest.mark.parametrize("name", TRACE_CHECKED)
@pytest.mark.parametrize("offset", [0.5, 2.0])
def test_trace_tolerance_is_trace_tol(bundle, source, synth, name, offset):
    """A surface off its bulk's trace by 0.5 TRACE_TOL is accepted, and
    one off by 2 TRACE_TOL is refused."""
    d = random_direction(bundle.grid, np.random.default_rng(7))
    d.surface[0] += offset * TRACE_TOL
    if offset < 1:
        TRACE_CHECKED[name](bundle, source, synth, d)
    else:
        with pytest.raises(ContractError, match="trace-compatible"):
            TRACE_CHECKED[name](bundle, source, synth, d)


def test_disjoint_support_adjoint_zero(bundle, source, synth):
    # direction supported where h(.,0) vanishes identically: the dead-window
    # structure makes h(.,0) tiny but nonzero; use a direction orthogonal to
    # the bulk observation overlap instead: zero bulk, surface-only is not
    # representable, so take a direction vanishing on the whole grid
    d = BulkSurfaceField.zeros(bundle.grid)
    _, H = solve_quasilinear_cascade(bundle.cs, bundle.grid, bundle.time_grid,
                                     source, synth.v, bundle.theta,
                                     bundle.theta_s, bundle.masks)
    w = bundle.grid.trapezoid_weights()
    assert float(np.dot(w * d.bulk, H.bulk[0]) + np.dot(d.surface, H.surface[0])) == 0.0


def test_norms_homogeneity(bundle, synth):
    sol = synth.fi_solution
    log1 = sol.log_x_norm_sq
    Psi2 = BulkSurfaceField(2 * sol.Psi.bulk, 2 * sol.Psi.surface)
    H2 = BulkSurfaceField(2 * sol.H.bulk, 2 * sol.H.surface)
    log2 = dataclasses.replace(sol, Psi=Psi2, H=H2, v=2 * sol.v).log_x_norm_sq
    assert log2 - log1 == pytest.approx(math.log(4.0), abs=1e-9)


def test_norms_zero(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    zero = BulkSurfaceField.zeros(g, M + 1)
    assert bundle.fi_solver.solve(zero).log_x_norm_sq == -math.inf
    assert all(lg == -math.inf for lg in bundle.log_source_norms(zero).values())
