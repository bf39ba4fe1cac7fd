import dataclasses
import math
import warnings

import numpy as np
import pytest

from bscontrol.errors import ConfigurationError, SmallnessViolationError
from bscontrol.geometry import (BulkSurfaceField, SpaceTimeField, build_grid,
                                build_masks, build_time_grid, grad_faces,
                                l2_inner, sbp_laplacian, st_inner)
from bscontrol.solvers import (LinearOperatorSet, apply_L, coefficient_preset,
                               duality_gap, l2_history,
                               solve_adjoint_cascade, solve_backward_varcoef,
                               solve_linear_backward, solve_linear_forward,
                               solve_linearized_cascade, solve_quasilinear,
                               solve_quasilinear_cascade, solve_sensitivity,
                               total_mass, validate_coefficients, weak_residual)


@pytest.fixture(scope="module")
def small():
    g = build_grid(1.0, 32)
    tg = build_time_grid(1.0, 32)
    masks = build_masks(g, (0.25, 0.75), (0.35, 0.65), {"left", "right"}, 0.01)
    cs = coefficient_preset("logistic")
    ops = LinearOperatorSet.from_coefficients(cs, g, tg)
    return g, tg, masks, cs, ops


def test_coefficient_presets_validate():
    for name in ("constant", "affine", "logistic", "polynomial"):
        validate_coefficients(coefficient_preset(name))


def test_validate_coefficients_rejects_non_elliptic():
    """A7 holds only with a positive measured floor of sigma: sigma
    reaching -0.2 (affine) or -0.45 (logistic) on the sample interval, or
    NaN, is rejected."""
    for cs in (coefficient_preset("affine", sigma1=0.6),
               coefficient_preset("logistic", sigma1=1.5),
               dataclasses.replace(coefficient_preset("constant"),
                                   sigma=lambda r: np.full_like(r, math.nan))):
        with pytest.raises(ConfigurationError, match="A7"):
            validate_coefficients(cs)


@pytest.mark.parametrize("name", ["constant", "affine", "logistic", "polynomial"])
@pytest.mark.parametrize("handle", ["dsigma", "da", "db"])
def test_validate_coefficients_rejects_a_wrong_derivative(name, handle):
    """A derivative handle 1e-3 off its function's central difference is
    rejected, and the error names the handle."""
    cs = coefficient_preset(name)
    right = getattr(cs, handle)
    wrong = dataclasses.replace(cs, **{handle: lambda r: right(r) + 1e-3})
    with pytest.raises(ConfigurationError, match=f"derivative {handle} disagrees"):
        validate_coefficients(wrong)


def _handwritten_preset(name, **kw):
    """The six callables of each preset with every derivative written out
    by hand: the oracle of `test_coefficient_presets_bitwise`."""
    zero = np.zeros_like

    def arr(r):
        return np.asarray(r, float)

    def full(c):
        return lambda r: np.full_like(arr(r), c)

    if name == "constant":
        s0, a1, b1 = kw.get("sigma0", 1.0), kw.get("a1", 0.5), kw.get("b1", 0.3)
        return (full(s0), zero, lambda r: a1 * arr(r), full(a1),
                lambda r: b1 * arr(r), full(b1))
    if name == "affine":
        s0, s1 = kw.get("sigma0", 1.0), kw.get("sigma1", 0.2)
        a1, a2 = kw.get("a1", 0.5), kw.get("a2", 0.25)
        b1, b2 = kw.get("b1", 0.3), kw.get("b2", 0.15)
        return (lambda r: s0 + s1 * arr(r), full(s1),
                lambda r: a1 * arr(r) + a2 * arr(r)**2,
                lambda r: a1 + 2 * a2 * arr(r),
                lambda r: b1 * arr(r) + b2 * arr(r)**2,
                lambda r: b1 + 2 * b2 * arr(r))
    if name == "logistic":
        from bscontrol.solvers import _cosh_sq
        s0, s1 = kw.get("sigma0", 1.0), kw.get("sigma1", 0.4)
        a1, b1 = kw.get("a1", 0.5), kw.get("b1", 0.3)
        return (lambda r: s0 + s1 * np.tanh(r), lambda r: s1 / _cosh_sq(r),
                lambda r: a1 * np.tanh(r), lambda r: a1 / _cosh_sq(r),
                lambda r: b1 * np.tanh(r), lambda r: b1 / _cosh_sq(r))
    assert name == "polynomial"
    s0, s2 = kw.get("sigma0", 1.0), kw.get("sigma2", 0.3)
    a1, a3 = kw.get("a1", 0.5), kw.get("a3", 0.2)
    b1 = kw.get("b1", 0.3)
    return (lambda r: s0 + s2 * arr(r)**2, lambda r: 2 * s2 * arr(r),
            lambda r: a1 * arr(r) + a3 * arr(r)**3,
            lambda r: a1 + 3 * a3 * arr(r)**2,
            lambda r: b1 * arr(r), full(b1))


def test_coefficient_presets_bitwise():
    """Every callable of every preset gives the hand-written formula's
    value, type, dtype, shape and signed zeros, on scalars, arrays with
    signed zeros, infinities and NaN, and (B, n) stacks."""
    handles = ("sigma", "dsigma", "a", "da", "b", "db")
    rng = np.random.default_rng(3)
    inputs = [0.0, -0.0, 0.7, -1.3, 0, 2, np.float64(-0.0), np.array(-0.0),
              np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -2.0, 3.0, 40.0,
                        np.inf, -np.inf, np.nan]),
              rng.standard_normal((3, 17)), 0.1 * rng.standard_normal((18, 5))]
    cases = [(name, {}) for name in ("constant", "affine", "logistic",
                                     "polynomial")]
    cases += [("constant", {"a1": 0.0, "b1": 0.0}),
              ("constant", {"a1": 1.0, "b1": 1.0}), ("affine", {"sigma1": 0.5}),
              ("affine", {"sigma1": 0.6}), ("logistic", {"sigma1": 1.5})]
    for name, kw in cases:
        cs = coefficient_preset(name, **kw)
        for handle, oracle in zip(handles, _handwritten_preset(name, **kw)):
            for r in inputs:
                with np.errstate(invalid="ignore"):   # 0 * inf, inf - inf
                    got, want = getattr(cs, handle)(r), oracle(r)
                where = (name, kw, handle, r)
                assert type(got) is type(want), where
                assert np.shape(got) == np.shape(want), where
                assert np.result_type(got) == np.result_type(want), where
                assert np.array_equal(got, want, equal_nan=True), where
                assert np.array_equal(np.signbit(got), np.signbit(want)), where


def test_cosh_sq_overflow_without_warning():
    from bscontrol.solvers import _cosh_sq
    rs = [354.9, -354.9, 355.1, -355.1, 1e3, -1e3, math.nan]
    for r in [*rs, np.array(rs), np.array(rs[:2]), np.array(rs[2:4])]:
        with np.errstate(over="ignore"):
            expected = np.cosh(r)**2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cosh_sq(r)
        assert np.array_equal(got, expected, equal_nan=True), r
    assert _cosh_sq(1e3) == math.inf


def test_coefficient_preset_unknown():
    with pytest.raises(ConfigurationError):
        coefficient_preset("cubic-spline")


def test_coefficient_preset_rejects_unknown_keyword():
    """A misspelt or foreign coefficient raises, naming it and the preset's
    keywords, instead of giving the defaults; known keywords still apply."""
    for name, kw, known in (
            ("affine", {"sigma_1": 5.0}, "sigma0, sigma1, a1, a2, b1, b2"),
            ("polynomial", {"a3": 0.1, "sigma1": 0.2}, "sigma0, sigma2, a1, a3, b1"),
            ("constant", {"a2": 0.1}, "sigma0, a1, b1"),
            ("logistic", {"b2": 0.1, "a0": 1.0}, "sigma0, sigma1, a1, b1")):
        with pytest.raises(ConfigurationError) as err:
            coefficient_preset(name, **kw)
        unknown = sorted(set(kw) - set(known.split(", ")))
        assert f"no keyword {', '.join(unknown)};" in str(err.value)
        assert f"its keywords are {known}" in str(err.value)
    assert coefficient_preset("affine", sigma1=0.5).sigma(1.0) == 1.5
    assert coefficient_preset("logistic", sigma0=2.0).sigma(0.0) == 2.0


def test_apply_L_trivial(small):
    g, tg, masks, cs, ops = small
    M = tg.step_count
    zero = SpaceTimeField.zeros(g, M + 1)
    res = apply_L(zero, ops, "L")
    assert np.all(res.bulk == 0) and np.all(res.surface == 0)
    # constants lie in the kernel when the reactions vanish
    ops0 = LinearOperatorSet.from_coefficients(
        coefficient_preset("constant", a1=0.0, b1=0.0), g, tg)
    const = SpaceTimeField.from_bulk(np.full((M + 1, g.n_nodes), 2.5))
    res = apply_L(const, ops0, "L")
    assert np.abs(res.bulk[1:]).max() <= 1e-11
    assert np.abs(res.surface[1:]).max() <= 1e-11


def test_exact_duality_random_pairs(small):
    g, tg, _, _, ops = small
    M = tg.step_count
    rng = np.random.default_rng(0)
    for _ in range(100):
        Y = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
        W = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
        Y.bulk[0] = Y.surface[0] = 0.0
        W.bulk[M] = W.surface[M] = 0.0
        gap = abs(duality_gap(Y, W, ops))
        scale = (np.linalg.norm(Y.bulk) * np.linalg.norm(W.bulk)
                 * (1 / tg.dt + ops.sigma0 / g.h**2))
        assert gap <= 1e-13 * scale


def test_forward_zero_and_uniform_decay(small):
    g, tg, _, _, _ = small
    M = tg.step_count
    zeroF = SpaceTimeField.zeros(g, M + 1)
    rho0 = 0.7
    ops = LinearOperatorSet(sigma0=1.0, da0=rho0, db0=rho0,
                            grid=g, time_grid=tg)
    psi = solve_linear_forward(ops, zeroF, BulkSurfaceField.zeros(g))
    assert np.all(psi.bulk == 0)
    k = 0.8
    psi = solve_linear_forward(ops, zeroF, BulkSurfaceField.from_bulk(
        np.full(g.n_nodes, k)))
    expect = k * (1 + rho0 * tg.dt) ** (-np.arange(M + 1))
    assert np.abs(psi.bulk - expect[:, None]).max() <= 1e-12


def test_forward_weak_residual_contract(small):
    g, tg, _, _, ops = small
    M = tg.step_count
    rng = np.random.default_rng(1)
    F = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    psi = solve_linear_forward(ops, F, BulkSurfaceField.zeros(g))
    assert weak_residual(ops, psi, F) <= 1e-12


def test_backward_reversal_consistency(small):
    g, tg, _, _, ops = small
    M = tg.step_count
    rng = np.random.default_rng(2)
    G = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    h = solve_linear_backward(ops, G, BulkSurfaceField.zeros(g))
    Grev = SpaceTimeField.zeros(g, M + 1)
    Grev.bulk[1:] = G.bulk[1:][::-1]
    Grev.surface[1:] = G.surface[1:][::-1]
    psi = solve_linear_forward(ops, Grev, BulkSurfaceField.zeros(g))
    assert np.abs(h.bulk - psi.bulk[::-1]).max() <= 1e-13 * max(1, np.abs(h.bulk).max())


def test_backward_uniform_decay(small):
    g, tg, _, _, _ = small
    M = tg.step_count
    rho0 = 0.4
    ops = LinearOperatorSet(sigma0=1.0, da0=rho0, db0=rho0,
                            grid=g, time_grid=tg)
    k = 1.3
    h = solve_linear_backward(ops, SpaceTimeField.zeros(g, M + 1),
                              BulkSurfaceField.from_bulk(np.full(g.n_nodes, k)))
    expect = k * (1 + rho0 * tg.dt) ** (-(M - np.arange(M + 1)))
    assert np.abs(h.bulk - expect[:, None]).max() <= 1e-12


def test_cascade_zero_and_decoupling(small):
    g, tg, masks, _, ops = small
    M = tg.step_count
    zero = SpaceTimeField.zeros(g, M + 1)
    v0 = np.zeros((M + 1, g.n_nodes))
    Psi, H = solve_linearized_cascade(ops, zero, v0, 1.0, 0.5, masks)
    assert np.all(Psi.bulk == 0) and np.all(H.bulk == 0)

    # uncoupled (theta = theta_s = 0), the adjoint cascade's backward Phi
    # sees its own source f1 alone, not the forward K's g1
    rng = np.random.default_rng(3)
    g1 = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    f1 = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    Phi, _ = solve_adjoint_cascade(ops, f1, g1, 0.0, 0.0, masks)
    Phi_only = solve_linear_backward(ops, f1, BulkSurfaceField.zeros(g))
    assert np.abs(Phi.bulk - Phi_only.bulk).max() <= 1e-14 * max(1, np.abs(Phi_only.bulk).max())


def test_cascade_adjoint_representation(small):
    """<h(.,0), zeta0> equals the space-time pairing of the h-sources with
    the forward flow of zeta0 (exact transpose structure)."""
    g, tg, masks, _, ops = small
    M = tg.step_count
    rng = np.random.default_rng(4)
    S = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    h = solve_linear_backward(ops, S, BulkSurfaceField.zeros(g))
    zeta0 = BulkSurfaceField.from_bulk(rng.standard_normal(g.n_nodes))
    z = solve_linear_forward(ops, SpaceTimeField.zeros(g, M + 1), zeta0)
    lhs = l2_inner(h.slice(0), zeta0, g)
    rhs = sum(tg.dt * l2_inner(S.slice(c), z.slice(c), g) for c in range(1, M + 1))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)


def test_quasilinear_trivial_and_uniform(small):
    g, tg, _, _, _ = small
    M = tg.step_count
    zeroF = SpaceTimeField.zeros(g, M + 1)
    cs = coefficient_preset("logistic")
    psi = solve_quasilinear(cs, g, tg, zeroF, BulkSurfaceField.zeros(g))
    assert np.all(psi.bulk == 0)
    csl = coefficient_preset("constant", a1=1.0, b1=1.0)
    k = 0.5
    psi = solve_quasilinear(csl, g, tg, zeroF, BulkSurfaceField.from_bulk(
        np.full(g.n_nodes, k)))
    expect = k * (1 + tg.dt) ** (-np.arange(M + 1))
    assert np.abs(psi.bulk - expect[:, None]).max() <= 1e-11


def test_quasilinear_small_data_closeness(small):
    g, tg, _, cs, ops = small
    M = tg.step_count
    base = np.outer(np.sin(np.pi * np.linspace(0, 1, M + 1)), np.cos(np.pi * g.x))
    ratios = []
    for eps in (1e-2, 1e-3):
        F = SpaceTimeField.from_bulk(eps * base)
        q = solve_quasilinear(cs, g, tg, F, BulkSurfaceField.zeros(g))
        lin = solve_linear_forward(ops, F, BulkSurfaceField.zeros(g))
        err = np.abs(q.bulk - lin.bulk).max()
        ratios.append(err / eps**2)
    assert 0.4 <= ratios[0] / ratios[1] <= 2.5


def test_quasilinear_newton_failure_raises():
    # affine diffusion loses ellipticity once the state leaves the sampling
    # interval; large forcing drives it there and Newton must report the
    # smallness violation rather than return garbage
    g = build_grid(1.0, 32)
    tg = build_time_grid(1.0, 32)
    cs = coefficient_preset("affine", sigma1=0.5)
    M = tg.step_count
    F = SpaceTimeField.from_bulk(np.full((M + 1, g.n_nodes), -50.0))
    with pytest.raises(SmallnessViolationError) as err:
        solve_quasilinear(cs, g, tg, F, BulkSurfaceField.zeros(g))
    assert err.value.step is not None


@pytest.mark.parametrize("B", [None, 3])
@pytest.mark.parametrize("k", [1, 5, 16])
def test_quasilinear_newton_failure_names_its_step(k, B, monkeypatch):
    """With one Newton iteration allowed and a source only in cell k, the
    steps before k converge at once (zero residual) and step k fails: the
    error and its message name step k, for one datum and for a stack."""
    from bscontrol import solvers
    g, tg = build_grid(1.0, 16), build_time_grid(1.0, 16)
    n = g.n_nodes
    bulk = np.zeros((tg.step_count + 1, n))
    bulk[k] = np.cos(np.pi * g.x)
    psi0 = (BulkSurfaceField.zeros(g) if B is None
            else BulkSurfaceField(np.zeros((B, n)), np.zeros((B, 2))))
    monkeypatch.setattr(solvers, "MAX_NEWTON", 1)
    with pytest.raises(SmallnessViolationError) as err:
        solve_quasilinear(coefficient_preset("logistic"), g, tg,
                          SpaceTimeField.from_bulk(bulk), psi0)
    assert err.value.step == k
    assert f"Newton did not converge at step {k} (" in str(err.value)
    assert err.value.residual > 0


def _ladder_data(g):
    """(signed tau, direction) pairs of a 3-direction tau ladder; directions
    of sizes 1, 10 and 40 give the members different Newton counts."""
    data = []
    for k, scale in enumerate((1.0, 10.0, 40.0), start=1):
        d = BulkSurfaceField.from_bulk(scale * np.cos(np.pi * k * g.x))
        data += [(sign * tau, d) for tau in (1e-2, 5e-3, 2.5e-3) for sign in (1, -1)]
    return data


def _stack(data):
    return BulkSurfaceField(np.array([t * d.bulk for t, d in data]),
                            np.array([t * d.surface for t, d in data]))


def test_quasilinear_stack_matches_loop(small, monkeypatch):
    """An 18-member stack follows each member's single-datum solve bit for
    bit, with either Newton guess, while the members need different Newton
    counts and the stack needs fewer banded solves than the loop."""
    from bscontrol import solvers
    g, tg, masks, cs, _ = small
    M = tg.step_count
    F = SpaceTimeField.from_bulk(
        1e-2 * np.outer(np.sin(np.pi * np.linspace(0, 1, M + 1)), np.cos(np.pi * g.x)))
    v = 0.1 * np.random.default_rng(11).standard_normal((M + 1, g.n_nodes))
    data = _ladder_data(g)
    calls = []
    banded = solvers._solve_tridiagonal
    monkeypatch.setattr(solvers, "_solve_tridiagonal",
                        lambda *a, **kw: calls.append(1) or banded(*a, **kw))
    for guess in ("previous", "zero"):
        singles, counts = [], []
        for t, d in data:
            n0 = len(calls)
            singles.append(solve_quasilinear(
                cs, g, tg, F, BulkSurfaceField(t * d.bulk, t * d.surface),
                v=v, masks=masks, newton_guess=guess))
            counts.append(len(calls) - n0)
        assert len(set(counts)) > 1
        n0 = len(calls)
        stack = solve_quasilinear(cs, g, tg, F, _stack(data), v=v, masks=masks,
                                  newton_guess=guess)
        assert len(calls) - n0 < sum(counts)
        assert stack.bulk.shape == (len(data), M + 1, g.n_nodes)
        assert stack.surface.shape == (len(data), M + 1, 2)
        for k, one in enumerate(singles):
            assert np.array_equal(stack.bulk[k], one.bulk), (guess, k)
            assert np.array_equal(stack.surface[k], one.surface), (guess, k)


def test_quasilinear_stack_failure_matches_member():
    """A stack with members outside the small-data regime fails at the step
    of the first to fail, with its residual; two members failing at the
    same step report the lower-index one."""
    g = build_grid(1.0, 32)
    tg = build_time_grid(1.0, 32)
    cs = coefficient_preset("affine", sigma1=0.5)
    F = SpaceTimeField.zeros(g, tg.step_count + 1)

    def alone(c):
        return solve_quasilinear(cs, g, tg, F, BulkSurfaceField.from_bulk(
            np.full(g.n_nodes, c)))

    # -3 drives sigma below zero; -4 and -2.5 both fail at the same step
    for levels, failing in (((0.5, -3.0, -1.0), (-3.0,)),
                            ((0.5, -4.0, -1.0, -2.5), (-4.0, -2.5))):
        data = [(c, BulkSurfaceField.from_bulk(np.ones(g.n_nodes))) for c in levels]
        errors = []
        for c in failing:
            with pytest.raises(SmallnessViolationError) as exc:
                alone(c)
            errors.append(exc.value)
        for c in set(levels) - set(failing):
            alone(c)
        assert len({e.step for e in errors}) == 1
        assert len({e.residual for e in errors}) == len(errors)
        with pytest.raises(SmallnessViolationError) as stacked:
            solve_quasilinear(cs, g, tg, F, _stack(data))
        assert stacked.value.step == errors[0].step
        assert stacked.value.residual == errors[0].residual


def test_quasilinear_cascade_frozen_matches_linear(small):
    g, tg, masks, _, ops = small
    M = tg.step_count
    rng = np.random.default_rng(5)
    S = SpaceTimeField.from_bulk(0.1 * rng.standard_normal((M + 1, g.n_nodes)))
    cs = coefficient_preset("logistic")
    zero_state = SpaceTimeField.zeros(g, M + 1)
    h_var = solve_backward_varcoef(cs, g, tg, zero_state, S,
                                   BulkSurfaceField.zeros(g))
    h_lin = solve_linear_backward(ops, S, BulkSurfaceField.zeros(g))
    assert np.abs(h_var.bulk - h_lin.bulk).max() <= 1e-12 * max(1, np.abs(h_lin.bulk).max())


def test_quasilinear_cascade_control_continuity(small):
    g, tg, masks, cs, _ = small
    M = tg.step_count
    base = SpaceTimeField.from_bulk(
        1e-3 * np.outer(np.sin(np.pi * np.linspace(0, 1, M + 1)), np.cos(np.pi * g.x)))
    v = np.zeros((M + 1, g.n_nodes))
    _, H0 = solve_quasilinear_cascade(cs, g, tg, base, v, 1.0, 0.5, masks)
    eps = 1e-4
    dv = np.zeros_like(v)
    dv[:, masks.omega_nodes] = eps
    _, H1 = solve_quasilinear_cascade(cs, g, tg, base, dv, 1.0, 0.5, masks)
    w = g.trapezoid_weights()
    change = math.sqrt(float(np.dot(w * (H1.bulk[0] - H0.bulk[0]),
                                    H1.bulk[0] - H0.bulk[0])))
    assert change <= 10 * eps and change > 0


def test_sensitivity_trivial_and_frozen(small):
    g, tg, _, cs, ops = small
    M = tg.step_count
    zero_state = SpaceTimeField.zeros(g, M + 1)
    z = solve_sensitivity(cs, g, tg, zero_state, BulkSurfaceField.zeros(g))
    assert np.all(z.bulk == 0)
    d = BulkSurfaceField.from_bulk(np.cos(np.pi * g.x))
    z = solve_sensitivity(cs, g, tg, zero_state, d)
    lin = solve_linear_forward(ops, SpaceTimeField.zeros(g, M + 1), d)
    assert np.abs(z.bulk - lin.bulk).max() <= 1e-12 * np.abs(lin.bulk).max()


def test_sensitivity_tangent_consistency(small):
    g, tg, masks, cs, _ = small
    M = tg.step_count
    F = SpaceTimeField.from_bulk(
        1e-2 * np.outer(np.sin(np.pi * np.linspace(0, 1, M + 1)), np.cos(np.pi * g.x)))
    Psi = solve_quasilinear(cs, g, tg, F, BulkSurfaceField.zeros(g))
    d = BulkSurfaceField.from_bulk(np.cos(np.pi * g.x))
    Z = solve_sensitivity(cs, g, tg, Psi, d)
    errs = []
    for tau in (1e-2, 1e-3, 1e-4):
        pert = BulkSurfaceField(tau * d.bulk, tau * d.surface)
        Pt = solve_quasilinear(cs, g, tg, F, pert)
        diff = (Pt.bulk - Psi.bulk) / tau - Z.bulk
        errs.append(np.abs(diff).max())
    assert errs[0] > errs[1] > errs[2]
    assert 5 <= errs[0] / errs[1] <= 20   # first order in tau
    assert errs[2] <= 1e-3 * np.abs(Z.bulk).max()


def test_mass_conservation_and_dissipation(small):
    g, tg, _, _, _ = small
    M = tg.step_count
    ops = LinearOperatorSet(sigma0=1.0, da0=0.0, db0=0.0,
                            grid=g, time_grid=tg)
    rng = np.random.default_rng(6)
    psi0 = BulkSurfaceField.from_bulk(rng.standard_normal(g.n_nodes))
    psi = solve_linear_forward(ops, SpaceTimeField.zeros(g, M + 1), psi0)
    mass = total_mass(psi, g)
    assert np.abs(np.diff(mass)).max() <= 1e-12 * max(1.0, abs(mass[0]))
    hist = l2_history(psi, g)
    assert np.all(np.diff(hist) <= 1e-14)


def test_uniqueness_gronwall(small):
    g, tg, _, cs, _ = small
    M = tg.step_count
    F = SpaceTimeField.from_bulk(
        1e-2 * np.outer(np.sin(np.pi * np.linspace(0, 1, M + 1)), np.cos(np.pi * g.x)))
    a = solve_quasilinear(cs, g, tg, F, BulkSurfaceField.zeros(g), newton_guess="previous")
    b = solve_quasilinear(cs, g, tg, F, BulkSurfaceField.zeros(g), newton_guess="zero")
    diff = l2_history(SpaceTimeField(a.bulk - b.bulk, a.surface - b.surface), g)
    assert diff.max() <= 1e-10


def energy_norm(Y: SpaceTimeField, grid, dt: float) -> float:
    """Discrete norm of H^1(0,T;L2) cap L2(0,T;H2): value, time derivative,
    gradient and Laplacian, trapezoid/cell quadrature."""
    Yt = SpaceTimeField(np.diff(Y.bulk, axis=0) / dt, np.diff(Y.surface, axis=0) / dt)
    val, tder = (st_inner(U, U, grid, dt) for U in (Y, Yt))
    gf = grad_faces(Y.bulk, grid)
    grad = float(np.sum(gf * gf) * grid.h * dt)
    lap = sbp_laplacian(Y.bulk, grid)
    lp = float(np.einsum("ij,j,ij->", lap, grid.trapezoid_weights(), lap) * dt)
    return float(np.sqrt(val + tder + grad + lp))


def h1_norm(f: BulkSurfaceField, grid) -> float:
    gf = grad_faces(f.bulk, grid)
    return float(np.sqrt(l2_inner(f, f, grid) + np.sum(gf * gf) * grid.h))


def test_energy_estimate_shape(small):
    g, tg, _, _, ops = small
    M = tg.step_count
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(10):
        psi0 = BulkSurfaceField.from_bulk(np.cumsum(rng.standard_normal(g.n_nodes)) * g.h)
        F = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
        psi = solve_linear_forward(ops, F, psi0)
        num = energy_norm(psi, g, tg.dt)
        den = h1_norm(psi0, g) + math.sqrt(
            sum(tg.dt * l2_inner(F.slice(c), F.slice(c), g) for c in range(1, M + 1)))
        ratios.append(num / den)
    assert max(ratios) < 50 and all(math.isfinite(r) for r in ratios)


def test_adjoint_cascade_structure(small):
    g, tg, masks, _, ops = small
    M = tg.step_count
    rng = np.random.default_rng(8)
    f1 = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    g1 = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    Phi, K = solve_adjoint_cascade(ops, f1, g1, 1.0, 0.5, masks)
    assert np.all(Phi.bulk[M] == 0)   # backward variable vanishes at T
    assert np.all(K.bulk[0] == 0)     # forward variable vanishes at 0
    K_only = solve_linear_forward(ops, g1, BulkSurfaceField.zeros(g))
    assert np.abs(K.bulk - K_only.bulk).max() == 0.0


def _dense_to_bands(A, p):
    """LAPACK band storage of a dense matrix with p sub- and super-diagonals;
    asserts nothing lies outside the band."""
    n = A.shape[0]
    ab = np.zeros((2 * p + 1, n))
    for off in range(-p, p + 1):
        ab[p - off, max(off, 0):n + min(off, 0)] = np.diagonal(A, off)
    assert np.count_nonzero(np.triu(A, p + 1)) == np.count_nonzero(np.tril(A, -p - 1)) == 0
    return ab


def test_banded_assembly_matches_strong_rows(small):
    """The directly assembled step matrices equal the strong rows applied
    to the identity columns, at a random nonzero logistic state."""
    from bscontrol.geometry import face_average, stiffness_apply
    from bscontrol.solvers import _quasilinear_jacobian_bands
    g, tg, _, cs, _ = small
    dt, n = tg.dt, g.n_nodes
    Hw, Mw = g.trapezoid_weights(), g.mass_weights()
    rng = np.random.default_rng(9)
    psi = 0.5 * np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
    E = np.eye(n)                      # row j is the identity column e_j

    def lift(pairs):                   # surface rows onto the corner nodes
        out = np.zeros((n, n))
        out[:, 0], out[:, -1] = pairs[:, 0], pairs[:, 1]
        return out

    def close(ab, rows, p):
        ref = _dense_to_bands(rows.T, p)
        assert np.abs(ab - ref).max() <= 1e-13 * np.abs(ref).max()

    # tangent of the quasilinear step: flux sig(psi) G z + sig'(psi) avg(z) G psi
    sig_f, dsig_f = cs.sigma(face_average(psi)), cs.dsigma(face_average(psi))
    drift = np.zeros((n, n))
    flux = dsig_f * np.diff(psi) / g.h * face_average(E)
    drift[:, :-1] -= flux
    drift[:, 1:] += flux
    rows = Mw * E / dt + stiffness_apply(E, g, face_coeff=sig_f) + drift \
        + Hw * cs.da(psi) * E + lift(cs.db(psi[[0, -1]]) * E[:, [0, -1]])
    close(_quasilinear_jacobian_bands(psi, cs, g, dt), rows, 1)

    # solve_sensitivity steps with exactly that matrix
    Psi = SpaceTimeField.from_bulk(np.tile(psi, (tg.step_count + 1, 1)))
    d = BulkSurfaceField.from_bulk(np.cos(np.pi * g.x))
    Z = solve_sensitivity(cs, g, tg, Psi, d)
    step = np.linalg.solve(rows.T, Mw * d.bulk / dt)
    assert np.abs(Z.bulk[1] - step).max() <= 1e-12 * np.abs(step).max()

    # and solve_backward_varcoef with its transpose
    M = tg.step_count
    G = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, n)))
    H = solve_backward_varcoef(cs, g, tg, Psi, G, d)
    rhs = Mw * d.bulk / dt + Hw * G.bulk[M]
    rhs[[0, -1]] += G.surface[M]
    step = np.linalg.solve(rows, rhs)
    assert np.abs(H.bulk[M - 1] - step).max() <= 1e-12 * np.abs(step).max()


def test_st_pairs_match_slice_loop(small):
    """st_inner over the right and the left slices, the pairings of
    `duality_gap`, equals the per-slice l2_inner sums up to summation order."""
    g, tg, _, _, _ = small
    M, dt = tg.step_count, tg.dt
    rng = np.random.default_rng(10)
    A, B = (SpaceTimeField(rng.standard_normal((M + 1, g.n_nodes)),
                           rng.standard_normal((M + 1, 2))) for _ in range(2))
    absA = SpaceTimeField(np.abs(A.bulk), np.abs(A.surface))
    absB = SpaceTimeField(np.abs(B.bulk), np.abs(B.surface))
    for slices, cells in ((slice(1, None), range(1, M + 1)),
                          (slice(None, -1), range(M))):
        ref = sum(dt * l2_inner(A.slice(c), B.slice(c), g) for c in cells)
        scale = sum(dt * l2_inner(absA.slice(c), absB.slice(c), g) for c in cells)
        assert abs(st_inner(A, B, g, dt, slices) - ref) <= 1e-14 * scale
