import math

import numpy as np
import pytest

from bscontrol.errors import ContractError
from bscontrol.fi import (FIProblem, FISolver, apply_residual_R, bilinear_B,
                          cascade_residual_check, galerkin_check, linear_F,
                          operator_symmetry_gap, solution_summary, solve_fi,
                          verify_p1, verify_p2)
from bscontrol.geometry import SpaceTimeField

from conftest import make_problem, random_source


def _random_pair(bundle, rng, scale=1.0):
    g = bundle.grid
    M = bundle.time_grid.step_count
    Y = SpaceTimeField.from_bulk(scale * rng.standard_normal((M + 1, g.n_nodes)))
    Z = SpaceTimeField.from_bulk(scale * rng.standard_normal((M + 1, g.n_nodes)))
    Y.bulk[M] = Y.surface[M] = 0.0
    Z.bulk[0] = Z.surface[0] = 0.0
    return Y, Z


def test_problem_invariants(bundle, source):
    with pytest.raises(ContractError):
        make_problem(bundle, source, theta=0.0)
    with pytest.raises(ContractError):
        make_problem(bundle, source, theta_s=-1.0)


def test_residual_stack_zero_and_theta_gate(bundle, source):
    prob = make_problem(bundle, source)
    g = bundle.grid
    M = bundle.time_grid.step_count
    zero = SpaceTimeField.zeros(g, M + 1)
    stack = apply_residual_R(zero, zero, prob)
    for block in stack.values():
        assert np.all(block == 0)

    # with Z = 0 the adjoint components reduce to the weighted L* rows
    rng = np.random.default_rng(0)
    Y, Z0 = _random_pair(bundle, rng)
    Z0.bulk[:] = 0.0
    Z0.surface[:] = 0.0
    s1 = apply_residual_R(Y, Z0, prob)
    prob0 = make_problem(bundle, source, theta_s=0.0)
    prob0.theta = 123.0  # the coupling multiplies z only
    s2 = apply_residual_R(Y, Z0, prob0)
    assert np.allclose(s1["adjoint_bulk"], s2["adjoint_bulk"])


def test_residual_stack_end_conditions(bundle, source):
    prob = make_problem(bundle, source)
    g = bundle.grid
    M = bundle.time_grid.step_count
    bad = SpaceTimeField.from_bulk(np.ones((M + 1, g.n_nodes)))
    good = SpaceTimeField.zeros(g, M + 1)
    with pytest.raises(ContractError):
        apply_residual_R(bad, good, prob)   # Y must vanish at T
    with pytest.raises(ContractError):
        apply_residual_R(good, bad, prob)   # Z must vanish at 0


def test_bilinear_symmetry_and_positivity(bundle, source):
    prob = make_problem(bundle, source)
    rng = np.random.default_rng(1)
    u = _random_pair(bundle, rng)
    w = _random_pair(bundle, rng)
    Buw, Bwu = bilinear_B(prob, u, w), bilinear_B(prob, w, u)
    assert abs(Buw - Bwu) <= 1e-13 * max(abs(Buw), 1e-300)
    for _ in range(50):
        u = _random_pair(bundle, rng)
        assert bilinear_B(prob, u, u) > 0
    assert operator_symmetry_gap(prob, rng, 5) <= 1e-12


def test_solve_zero_sources(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    zero = SpaceTimeField.zeros(g, M + 1)
    prob = make_problem(bundle, zero)
    sol = solve_fi(prob)
    assert np.all(sol.v == 0)
    assert np.all(sol.Psi.bulk == 0) and np.all(sol.H.bulk == 0)
    assert np.all(sol.H.surface == 0)
    assert sol.backward_error == 0.0


def test_solve_galerkin_and_contract(fi_solved):
    prob, sol = fi_solved
    rng = np.random.default_rng(2)
    gal = galerkin_check(sol, prob, 20, rng)
    assert gal["pass"], gal["max_scaled_residual"]
    chk = cascade_residual_check(sol, prob)
    assert chk["weak_residual_forward"] <= 1e-12
    assert chk["weak_residual_backward"] <= 1e-12
    assert 0 < sol.backward_error <= 1e-14


def test_control_support(fi_solved, bundle):
    _, sol = fi_solved
    outside = ~bundle.masks.omega_nodes
    assert np.all(sol.v[:, outside] == 0.0)


def test_recovered_field_structure(fi_solved, bundle):
    _, sol = fi_solved
    # forward view: initial slice exactly zero; backward view: final slice
    assert np.all(sol.Psi.bulk[0] == 0) and np.all(sol.Psi.surface[0] == 0)
    assert np.all(sol.H.bulk[-1] == 0) and np.all(sol.H.surface[-1] == 0)
    # early cells are weight-dead, hence exactly zero, so h(., first node) = 0
    assert np.all(sol.H.bulk[0] == 0) and np.all(sol.H.surface[0] == 0)
    live = bundle.tables.inv_sq(0) > 0
    dead = ~live
    assert np.all(sol.Psi.bulk[1:][dead] == 0)
    assert np.all(sol.H.bulk[:-1][dead] == 0)
    assert np.all(sol.v[1:][dead] == 0)


def test_verify_p1_p2_finite(fi_solved):
    prob, sol = fi_solved
    p1 = verify_p1(sol, prob)
    p2 = verify_p2(sol, prob)
    for key in ("ratio_c21", "ratio_c41"):
        assert math.isfinite(p1[key]) and p1[key] >= 0
    for key in ("ratio_c25", "ratio_c26", "ratio_c27", "ratio_c28"):
        assert math.isfinite(p2[key]) and p2[key] >= 0


def test_verify_zero_data_ratio_zero(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    prob = make_problem(bundle, SpaceTimeField.zeros(g, M + 1))
    sol = solve_fi(prob)
    p1 = verify_p1(sol, prob)
    assert p1["ratio_c21"] == 0.0 and p1["ratio_c41"] == 0.0


def test_solution_summary_schema(fi_solved):
    prob, sol = fi_solved
    out = solution_summary(sol, prob)
    assert set(out) == {"backward_error", "lhs_rhs_ratios"}
    assert set(out["lhs_rhs_ratios"]) == {"c21", "c41", "c25", "c26", "c27", "c28"}


def test_tame_weights_plumbing_oracle(tame_setup):
    """With synthetic O(1) weights the quadratic form is fully resolvable:
    the re-solved triple satisfies the weak rows to roundoff, the Galerkin
    identity is tight, and the pointwise (c16) representation agrees with
    the re-solved states up to its intrinsic O(h^p)-consistency level
    (it evaluates a small residual of the much larger representer)."""
    bundle, F = tame_setup
    prob = make_problem(bundle, F)
    sol = solve_fi(prob)
    chk = cascade_residual_check(sol, prob)
    assert chk["weak_residual_forward"] <= 1e-12
    assert chk["weak_residual_backward"] <= 1e-12
    assert chk["dist_psi"] <= 5e-3
    assert chk["dist_h"] <= 1e-3
    rng = np.random.default_rng(3)
    gal = galerkin_check(sol, prob, 10, rng)
    assert gal["pass"]


def test_fisolver_reuse_is_linear(tame_setup, bundle, source):
    """Shared factorization: the solve is one fixed linear map of the
    right-hand side.  Exact on resolvable (tame) weights; at faithful
    weights the bare LU solve leaves an additivity gap near 1e-8."""
    tb, tF = tame_setup
    solver = FISolver(make_problem(tb, tF))
    s1 = solver.solve(F=tF)
    s2 = solver.solve(F=SpaceTimeField(2 * tF.bulk, 2 * tF.surface))
    assert np.abs(2 * s1.v - s2.v).max() <= 1e-12 * np.abs(s2.v).max()

    solver = FISolver(make_problem(bundle, source))
    rng = np.random.default_rng(4)
    F2 = random_source(bundle, rng)
    a1 = solver.solve(F=source)
    a2 = solver.solve(F=F2)
    both = SpaceTimeField(source.bulk + F2.bulk, source.surface + F2.surface)
    a12 = solver.solve(F=both)
    scale = np.abs(a12.v).max()
    assert np.abs(a1.v + a2.v - a12.v).max() <= 1e-6 * scale


def test_linear_functional_pairing(bundle, source):
    prob = make_problem(bundle, source)
    rng = np.random.default_rng(5)
    Y, Z = _random_pair(bundle, rng)
    val = linear_F(prob, (Y, Z))
    # direct quadrature of <F, Y>_left; G = 0
    g, dt = bundle.grid, bundle.time_grid.dt
    Hw = g.trapezoid_weights()
    M = bundle.time_grid.step_count
    ref = sum(dt * (np.dot(Hw * source.bulk[c], Y.bulk[c - 1])
                    + source.surface[c, 0] * Y.bulk[c - 1, 0]
                    + source.surface[c, 1] * Y.bulk[c - 1, -1])
              for c in range(1, M + 1))
    assert val == pytest.approx(ref, rel=1e-12)
