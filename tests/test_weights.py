import math

import numpy as np
import pytest

from bscontrol.errors import ContractError, ParameterError, ResolutionError
from bscontrol.geometry import SpaceTimeField, build_grid, build_masks, build_time_grid
from bscontrol.weights import (WeightParams, build_chi, build_eta,
                               build_weight_tables, carleman_functional_I,
                               carleman_functional_Jw, check_elementary_estimates,
                               ell_prime, ell_value, m_threshold, validate_params)

from conftest import make_bundle


@pytest.fixture(scope="module")
def geo():
    g = build_grid(1.0, 64)
    m = build_masks(g, (0.25, 0.75), (0.35, 0.65), {"left", "right"}, 0.02)
    return g, m


def test_eta_interpolation_conditions(geo):
    g, m = geo
    eta = build_eta(g, m, 0.5)
    peak = np.argmin(np.abs(g.x - 0.5))
    assert eta.values[peak] == pytest.approx(1.0, abs=1e-12)
    assert eta.values[0] == 0.0 and eta.values[-1] == 0.0
    assert eta.values[1:-1].min() > 0
    i25 = np.argmin(np.abs(g.x - 0.25))
    i75 = np.argmin(np.abs(g.x - 0.75))
    assert eta.deriv[i25] > 0 and eta.deriv[i75] < 0


def test_eta_floor_off_center():
    g = build_grid(1.0, 128)
    m = build_masks(g, (0.3, 0.7), (0.5, 0.9), {"left"}, 0.02)
    eta = build_eta(g, m, 0.6)  # omega1 = (0.56, 0.64)
    assert eta.floor >= 0.5 / max(0.6, 0.4)
    assert eta.floor == pytest.approx(eta.floor_required, rel=2.0)


def test_eta_peak_outside_omega1_rejected(geo):
    g, m = geo
    with pytest.raises(ContractError):
        build_eta(g, m, 0.2)


def test_m_threshold_values():
    # scripted-oracle values for log(5 e^lam - 4)/lam
    assert m_threshold(1.0) == pytest.approx(2.2608678168, abs=1e-9)
    assert m_threshold(2.0) == pytest.approx(1.7474240092, abs=1e-9)
    assert m_threshold(10.0) == pytest.approx(1.1609401592, abs=1e-9)


def test_validate_params():
    ok = validate_params(WeightParams(lam=2.0, m=2.0), horizon=8.0)
    assert ok.s == pytest.approx(72.0)
    with pytest.raises(ParameterError) as err:
        validate_params(WeightParams(lam=1.0, m=2.0), horizon=8.0)
    assert err.value.threshold == pytest.approx(2.2608678168, abs=1e-9)
    validate_params(WeightParams(lam=10.0, m=1.2), horizon=8.0)
    with pytest.raises(ParameterError):
        validate_params(WeightParams(lam=0.5, m=3.0), horizon=8.0)


def test_ell_branches_and_c1_matching():
    assert ell_value(0.25, 1.0) == pytest.approx(0.1875)
    assert ell_value(0.75, 1.0) == pytest.approx(0.25)
    # ell' is continuous at T/2: t(T-t) has slope 0 there
    assert ell_prime(0.5 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-11)
    assert ell_prime(0.5 + 1e-12, 1.0) == 0.0


def test_weight_tables_alpha_beta_agree_first_half(geo):
    g, m = geo
    tg = build_time_grid(8.0, 64)
    eta = build_eta(g, m, 0.5)
    params = validate_params(WeightParams(), tg.horizon)
    t = build_weight_tables(g, tg, eta, params)
    first_half = t.t_mid <= tg.horizon / 2
    assert np.array_equal(t.log_alpha[first_half], t.log_beta[first_half])
    assert np.all(t.beta_hat < 1.25 * t.beta_check)
    assert np.all(np.isfinite(t.log_alpha)) and np.all(np.isfinite(t.log_mu))


def test_weight_tables_xi_zeta_values():
    # with lam=2, m=2 and eta=1 at the peak, the numerator is e^6; at the
    # time cells where the cutoff ell equals T^2/4 = 0.25 the zeta weight is
    # exactly e^6/0.25, and xi agrees wherever t(T-t) = ell (first half)
    g = build_grid(1.0, 64)
    m = build_masks(g, (0.25, 0.75), (0.35, 0.65), {"left"}, 0.01)
    eta = build_eta(g, m, 0.5)
    tg = build_time_grid(1.0, 16)
    params = validate_params(WeightParams(lam=2.0, m=2.0, s_coeff=1.0), 1.0)
    t = build_weight_tables(g, tg, eta, params, min_live_cells=0)
    peak = np.argmin(np.abs(g.x - 0.5))
    late = t.t_mid > 0.5
    zeta = np.exp(t.log_zeta[late][:, peak])
    assert zeta == pytest.approx(math.exp(6.0) / 0.25, rel=1e-12)
    assert zeta[0] == pytest.approx(1613.715, rel=1e-4)
    # xi follows the t(T-t) denominator everywhere
    tTt = t.t_mid * (tg.horizon - t.t_mid)
    assert np.exp(t.log_xi[:, peak]) == pytest.approx(math.exp(6.0) / tTt, rel=1e-12)
    early = t.t_mid <= 0.5
    assert np.array_equal(t.log_xi[early], t.log_zeta[early])


def test_weight_tables_live_window_guard(geo):
    g, m = geo
    eta = build_eta(g, m, 0.5)
    tg = build_time_grid(1.0, 64)   # T too short: mu0^{-2} underflows everywhere
    params = validate_params(WeightParams(), 1.0)
    with pytest.raises(ResolutionError):
        build_weight_tables(g, tg, eta, params)


def test_mu_family_log_decay_near_zero(geo):
    g, m = geo
    eta = build_eta(g, m, 0.5)
    tg = build_time_grid(8.0, 128)
    t = build_weight_tables(g, tg, eta, validate_params(WeightParams(), 8.0))
    # log mu0 decreases from the first midpoint to the second, and the gap
    # grows when the grid is refined (the weight is singular at t=0)
    gap = t.log_mu_k[0][0] - t.log_mu_k[0][1]
    tg2 = build_time_grid(8.0, 256)
    t2 = build_weight_tables(g, tg2, eta, validate_params(WeightParams(), 8.0))
    gap2 = t2.log_mu_k[0][0] - t2.log_mu_k[0][1]
    assert gap > 0 and gap2 > gap


def test_elementary_estimates(bundle):
    rep = check_elementary_estimates(bundle.tables, bundle.time_grid.dt)
    assert rep["identity_max_live"] <= 1e-12
    assert rep["C_mu5_le_mu4"] == pytest.approx(16.0, rel=1e-10)  # ell_max = T^2/4
    assert rep["C_mu1_le_mu0"] == pytest.approx(256.0, rel=1e-10)
    assert rep["C_mu0_le_mu"] <= 1.0
    for key, val in rep.items():
        assert math.isfinite(val), key


def test_elementary_estimates_refinement_stable():
    # the |mu3_t| <= C mu1 constant stabilizes to +-20 percent once the
    # ell-kink at T/2 is resolved; the kink-sensitive constants converge
    # more slowly and are checked for the trend
    b1, _ = make_bundle(N=32, M=128)
    b2, _ = make_bundle(N=32, M=256)
    r1 = check_elementary_estimates(b1.tables, b1.time_grid.dt)
    r2 = check_elementary_estimates(b2.tables, b2.time_grid.dt)
    assert 0.8 <= r1["C_mu3t_le_mu1"] / r2["C_mu3t_le_mu1"] <= 1.25
    assert 0.4 <= r1["C_D_mu3mu1_t"] / r2["C_D_mu3mu1_t"] <= 3.0


def test_chi_structure(geo):
    g, m = geo
    chi = build_chi(g, m)
    assert np.all(chi.values[m.omega3_nodes] == 1.0)
    assert np.all(chi.values[~m.omega_nodes] == 0.0)
    assert chi.values.min() >= 0 and chi.values.max() <= 1.0
    # C^1 consistency of the stored derivative on the ramps
    interior = slice(1, -1)
    fd = np.gradient(chi.values, g.x)
    ramp = (chi.values > 0.01) & (chi.values < 0.99)
    assert np.allclose(fd[ramp], chi.d1[ramp], atol=0.2 * np.abs(chi.d1[ramp]).max())


def test_chi_midpoint_half():
    from bscontrol.weights import _smoothstep
    s, d1, d2 = _smoothstep(np.array([0.0, 0.5, 1.0]))
    assert s == pytest.approx([0.0, 0.5, 1.0])
    assert d1[0] == 0.0 and d1[2] == 0.0
    assert d2[0] == 0.0 and d2[2] == pytest.approx(0.0)


def test_chi_resolution_guard():
    g = build_grid(1.0, 64)
    m = build_masks(g, (0.3, 0.7), (0.5, 0.9), {"left"}, 0.005)
    with pytest.raises(ResolutionError):
        build_chi(g, m)  # right ramp thinner than 2h


def test_carleman_functional_zero_and_two_routes(bundle):
    g, tg = bundle.grid, bundle.time_grid
    M = tg.step_count
    zero = SpaceTimeField.zeros(g, M + 1)
    out = carleman_functional_I(zero, bundle.tables, g, tg.dt)
    assert out["log_total"] == -math.inf

    rng = np.random.default_rng(3)
    smooth = np.outer(np.sin(np.pi * np.linspace(0, 1, M + 1)),
                      np.cos(np.pi * g.x)) + rng.standard_normal() * 0.1
    Phi = SpaceTimeField.from_bulk(smooth)
    for fn in (carleman_functional_I, carleman_functional_Jw):
        out = fn(Phi, bundle.tables, g, tg.dt)
        assert math.isfinite(out["log_total"])
        assert out["components"]["surface_tangential_gradient"] == -math.inf


def test_carleman_functional_monotone_in_s(geo):
    # doubling s multiplies every term weight by e^{-2 s alpha} again
    g, m = geo
    eta = build_eta(g, m, 0.5)
    tg = build_time_grid(8.0, 32)
    params1 = validate_params(WeightParams(s_coeff=1.0), 8.0)
    params2 = validate_params(WeightParams(s_coeff=2.0), 8.0)
    t1 = build_weight_tables(g, tg, eta, params1, min_live_cells=0)
    t2 = build_weight_tables(g, tg, eta, params2, min_live_cells=0)
    Phi = SpaceTimeField.from_bulk(
        np.outer(np.ones(tg.step_count + 1), np.sin(np.pi * g.x)))
    J1 = carleman_functional_Jw(Phi, t1, g, tg.dt)["log_total"]
    J2 = carleman_functional_Jw(Phi, t2, g, tg.dt)["log_total"]
    assert J2 < J1


def test_carleman_functionals_reuse_prepared_weights(bundle):
    """The functionals give the same components on fresh tables as on
    tables whose log-weights were prepared for another field."""
    g, tg = bundle.grid, bundle.time_grid
    fresh, _ = make_bundle()
    rng = np.random.default_rng(4)
    fields = [SpaceTimeField.from_bulk(rng.standard_normal((tg.step_count + 1,
                                                            g.x.size)))
              for _ in range(2)]
    for fn in (carleman_functional_I, carleman_functional_Jw):
        fn(fields[0], bundle.tables, g, tg.dt)
        assert fn(fields[1], bundle.tables, g, tg.dt) \
            == fn(fields[1], fresh.tables, g, tg.dt)


def test_carleman_requires_trace_compatible(bundle):
    g, tg = bundle.grid, bundle.time_grid
    Phi = SpaceTimeField.zeros(g, tg.step_count + 1)
    Phi.surface += 1.0
    with pytest.raises(ContractError):
        carleman_functional_I(Phi, bundle.tables, g, tg.dt)
