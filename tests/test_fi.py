import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bscontrol.errors import ContractError
from bscontrol.fi import cascade_residual_check, galerkin_check
from bscontrol.geometry import SpaceTimeField
from bscontrol.solvers import solve_linearized_cascade

from conftest import apply_residual_R, bilinear_B, linear_F, random_source


def _random_pair(bundle, rng, scale=1.0):
    g = bundle.grid
    M = bundle.time_grid.step_count
    Y = SpaceTimeField.from_bulk(scale * rng.standard_normal((M + 1, g.n_nodes)))
    Z = SpaceTimeField.from_bulk(scale * rng.standard_normal((M + 1, g.n_nodes)))
    Y.bulk[M] = Y.surface[M] = 0.0
    Z.bulk[0] = Z.surface[0] = 0.0
    return Y, Z


def test_problem_invariants(bundle):
    with pytest.raises(ContractError):
        dataclasses.replace(bundle, theta=0.0)
    with pytest.raises(ContractError):
        dataclasses.replace(bundle, theta_s=-1.0)


def test_residual_stack_zero_and_theta_gate(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    zero = SpaceTimeField.zeros(g, M + 1)
    stack = apply_residual_R(zero, zero, bundle)
    for block in stack.values():
        assert np.all(block == 0)

    # with Z = 0 the adjoint components reduce to the weighted L* rows
    rng = np.random.default_rng(0)
    Y, Z0 = _random_pair(bundle, rng)
    Z0.bulk[:] = 0.0
    Z0.surface[:] = 0.0
    s1 = apply_residual_R(Y, Z0, bundle)
    # the coupling multiplies z only
    prob0 = dataclasses.replace(bundle, theta=123.0, theta_s=0.0)
    s2 = apply_residual_R(Y, Z0, prob0)
    assert np.allclose(s1["adjoint_bulk"], s2["adjoint_bulk"])


def test_residual_stack_end_conditions(bundle):
    """A pair outside P is refused: Y nonzero at T, Z nonzero at 0, a
    surface that is not its bulk's trace (here also nonzero at T), or a
    NaN at T."""
    g = bundle.grid
    M = bundle.time_grid.step_count
    bad = SpaceTimeField.from_bulk(np.ones((M + 1, g.n_nodes)))
    good = SpaceTimeField.zeros(g, M + 1)
    Y, _ = _random_pair(bundle, np.random.default_rng(0))
    Y.surface += 5.0
    Y.surface[M] = 7.0
    nan = SpaceTimeField.zeros(g, M + 1)
    nan.bulk[M, 3] = np.nan
    for pair in ((bad, good), (good, bad), (Y, good), (nan, good)):
        with pytest.raises(ContractError):
            apply_residual_R(*pair, bundle)


def test_bilinear_symmetry_and_positivity(bundle):
    rng = np.random.default_rng(1)
    u = _random_pair(bundle, rng)
    w = _random_pair(bundle, rng)
    Buw, Bwu = bilinear_B(bundle, u, w), bilinear_B(bundle, w, u)
    assert abs(Buw - Bwu) <= 1e-13 * max(abs(Buw), 1e-300)
    for _ in range(50):
        u = _random_pair(bundle, rng)
        assert bilinear_B(bundle, u, u) > 0


def test_solver_keeps_only_its_scaled_matrix_and_factor(bundle, fi_solved):
    """After a solve a solver holds its operator, scaling, scaled normal
    matrix, its norm and the LU factor: no residual stack, no row weights."""
    assert fi_solved.problem is bundle.fi_solver.problem
    assert set(vars(bundle.fi_solver)) <= {"problem", "D", "At", "At_inf", "lu"}


def test_solve_zero_sources(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    zero = SpaceTimeField.zeros(g, M + 1)
    sol = bundle.fi_solver.solve(zero)
    assert np.all(sol.v == 0)
    assert np.all(sol.Psi.bulk == 0) and np.all(sol.H.bulk == 0)
    assert np.all(sol.H.surface == 0)
    assert sol.backward_error == 0.0


def test_solve_galerkin_and_contract(fi_solved):
    sol = fi_solved
    rng = np.random.default_rng(2)
    gal = galerkin_check(sol, 20, rng)
    assert gal["pass"], gal["max_scaled_residual"]
    chk = cascade_residual_check(sol)
    assert chk["weak_residual_forward"] <= 1e-12
    assert chk["weak_residual_backward"] <= 1e-12
    assert 0 < sol.backward_error <= 1e-14


def test_replaced_solution_resolves_under_its_own_sources(bundle, fi_solved):
    """`resolved` is cached on its solution; a `dataclasses.replace` copy
    starts without it and re-solves the cascade under its own source."""
    p, rng = fi_solved.problem, np.random.default_rng(31)
    F2 = random_source(bundle, rng)
    before = fi_solved.resolved
    got = dataclasses.replace(fi_solved, F=F2).resolved
    want = solve_linearized_cascade(p.ops, F2, fi_solved.v, p.theta,
                                    p.theta_s, p.masks)
    for a, b in zip(got, want):
        assert a.bulk.tobytes() == b.bulk.tobytes()
        assert a.surface.tobytes() == b.surface.tobytes()
    assert fi_solved.resolved is before


def test_control_support(fi_solved, bundle):
    sol = fi_solved
    outside = ~bundle.masks.omega_nodes
    assert np.all(sol.v[:, outside] == 0.0)


def test_recovered_field_structure(fi_solved, bundle):
    sol = fi_solved
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


def test_lhs_rhs_ratios_finite(fi_solved):
    ratios = fi_solved.lhs_rhs_ratios
    assert set(ratios) == {"c21", "c41", "c25", "c26", "c27", "c28"}
    for key, val in ratios.items():
        assert math.isfinite(val) and val >= 0, key


def test_verify_zero_data_ratio_zero(bundle):
    g = bundle.grid
    M = bundle.time_grid.step_count
    sol = bundle.fi_solver.solve(SpaceTimeField.zeros(g, M + 1))
    ratios = sol.lhs_rhs_ratios
    assert ratios["c21"] == 0.0 and ratios["c41"] == 0.0


def test_ratios_follow_a_replaced_solutions_sources(fi_solved):
    """A `replace` copy measures its ratios against its own source: the
    same (c16) fields against a doubled F give c21 and c41 a quarter of
    the original's, and against a zero source a ContractError."""
    sol = fi_solved
    F2 = SpaceTimeField(2 * sol.F.bulk, 2 * sol.F.surface)
    doubled = dataclasses.replace(sol, F=F2).lhs_rhs_ratios
    for key in ("c21", "c41"):
        assert doubled[key] == pytest.approx(sol.lhs_rhs_ratios[key] / 4, rel=1e-12)
    zero = SpaceTimeField.zeros(sol.problem.grid, sol.F.n_slices)
    zeroed = dataclasses.replace(sol, F=zero)
    with pytest.raises(ContractError, match="identically zero sources"):
        zeroed.lhs_rhs_ratios
    assert "resolved" not in vars(zeroed)   # refused before the re-solve


def test_tame_weights_plumbing_oracle(tame_setup):
    """With synthetic O(1) weights the quadratic form is fully resolvable:
    the re-solved triple satisfies the weak rows to roundoff, the Galerkin
    identity is tight, and the pointwise (c16) representation agrees with
    the re-solved states up to its intrinsic O(h^p)-consistency level
    (it evaluates a small residual of the much larger representer)."""
    bundle, F = tame_setup
    sol = bundle.fi_solver.solve(F)
    chk = cascade_residual_check(sol)
    assert chk["weak_residual_forward"] <= 1e-12
    assert chk["weak_residual_backward"] <= 1e-12
    assert chk["dist_psi"] <= 5e-3
    assert chk["dist_h"] <= 1e-3
    rng = np.random.default_rng(3)
    gal = galerkin_check(sol, 10, rng)
    assert gal["pass"]


def test_fisolver_reuse_is_linear(tame_setup, bundle, source):
    """Shared factorization: the solve is one fixed linear map of the
    right-hand side.  Exact on resolvable (tame) weights; at faithful
    weights the bare LU solve leaves an additivity gap near 1e-8."""
    tb, tF = tame_setup
    solver = tb.fi_solver
    s1 = solver.solve(tF)
    s2 = solver.solve(SpaceTimeField(2 * tF.bulk, 2 * tF.surface))
    assert np.abs(2 * s1.v - s2.v).max() <= 1e-12 * np.abs(s2.v).max()

    solver = bundle.fi_solver
    rng = np.random.default_rng(4)
    F2 = random_source(bundle, rng)
    a1 = solver.solve(source)
    a2 = solver.solve(F2)
    both = SpaceTimeField(source.bulk + F2.bulk, source.surface + F2.surface)
    a12 = solver.solve(both)
    scale = np.abs(a12.v).max()
    assert np.abs(a1.v + a2.v - a12.v).max() <= 1e-6 * scale


def test_linear_functional_pairing(bundle, source):
    rng = np.random.default_rng(5)
    Y, Z = _random_pair(bundle, rng)
    g, dt = bundle.grid, bundle.time_grid.dt
    M = bundle.time_grid.step_count
    val = linear_F(bundle, source, (Y, Z))
    # direct quadrature of <F, Y>_left; Z's half is zero
    Hw = g.trapezoid_weights()
    ref = sum(dt * (np.dot(Hw * source.bulk[c], Y.bulk[c - 1])
                    + source.surface[c, 0] * Y.bulk[c - 1, 0]
                    + source.surface[c, 1] * Y.bulk[c - 1, -1])
              for c in range(1, M + 1))
    assert val == pytest.approx(ref, rel=1e-12)


def _on_one_and_two_blas_threads(script):
    """The stdout of `script`, run with tests/ and src/ on the path in a
    fresh interpreter on one and on two OpenBLAS threads."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    return [subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=path,
                              OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")]


def test_optimality_residual_independent_of_blas_threads():
    """A 64x128 synthesis reports the same optimality residual bits on one
    and on two OpenBLAS threads: its 2-norms are einsum sums, not the BLAS
    dot, which splits long vectors across threads."""
    script = ("from conftest import make_bundle\n"
              "from bscontrol.insensitize import synthesize\n"
              "bundle, F = make_bundle(N=64, M=128, family='random_fourier')\n"
              "print(synthesize(F, bundle).fi_solution.optimality_residual.hex())\n")
    residuals = _on_one_and_two_blas_threads(script)
    assert residuals[0] == residuals[1]


def test_fi_diagnostics_independent_of_blas_threads():
    """The Galerkin check reads the same bits on one and on two OpenBLAS
    threads.  At 64x128 its dof vectors have 16,640 entries, past the
    10,000 at which OpenBLAS splits a ddot across threads; a smaller grid
    would not show a thread-dependent sum."""
    script = ("import numpy as np\n"
              "from conftest import make_bundle\n"
              "from bscontrol.fi import galerkin_check\n"
              "bundle, F = make_bundle(N=64, M=128)\n"
              "sol = bundle.fi_solver.solve(F)\n"
              "gal = galerkin_check(sol, 20, np.random.default_rng(12345))\n"
              "print(repr(gal['max_scaled_residual']))\n")
    values = _on_one_and_two_blas_threads(script)
    assert values[0] == values[1]
