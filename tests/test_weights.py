import math

import numpy as np
import pytest

from bscontrol import weights
from bscontrol.errors import ConfigurationError, ContractError
from bscontrol.geometry import SpaceTimeField, build_grid, build_masks, build_time_grid
from bscontrol.weights import (ETA_CHECK_SAMPLES, ETA_KAPPA, _quintic_arc,
                               build_chi, build_eta,
                               build_weight_tables, carleman_functional_I,
                               carleman_functional_Jw, check_elementary_estimates,
                               ell_value, m_threshold, validate_params)

from conftest import make_bundle


@pytest.fixture(scope="module")
def geo():
    g = build_grid(1.0, 64)
    m = build_masks(g, (0.25, 0.75), (0.35, 0.65), {"left", "right"}, 0.02)
    return g, m


def _masks_around(grid, peak):
    """Default-width masks whose omega1 has its midpoint, eta's peak, at
    `peak` (to rounding)."""
    m = build_masks(grid, (0.25, 0.75), (peak - 0.15, peak + 0.15),
                    {"left", "right"}, 0.02)
    assert sum(m.omega1) / 2 == pytest.approx(peak, abs=1e-15)
    return m


def test_eta_interpolation_conditions(geo):
    g, m = geo
    eta = build_eta(g, m)
    peak = np.argmin(np.abs(g.x - 0.5))
    assert eta.values[peak] == pytest.approx(1.0, abs=1e-12)
    assert eta.values[0] == 0.0 and eta.values[-1] == 0.0
    assert eta.values[1:-1].min() > 0
    i25 = np.argmin(np.abs(g.x - 0.25))
    i75 = np.argmin(np.abs(g.x - 0.75))
    # rising through 0.25, falling through 0.75
    assert eta.values[i25 - 1] < eta.values[i25] < eta.values[i25 + 1]
    assert eta.values[i75 - 1] > eta.values[i75] > eta.values[i75 + 1]


def test_eta_floor_off_center():
    g = build_grid(1.0, 128)
    m = build_masks(g, (0.3, 0.7), (0.5, 0.9), {"left"}, 0.02)
    eta = build_eta(g, m)  # omega1 = (0.56, 0.64), so the peak is at 0.6
    assert eta.floor >= 0.5 / max(0.6, 0.4)
    assert eta.floor == pytest.approx(eta.floor_required, rel=2.0)


def _eta_both_arcs(grid, masks):
    """The reference evaluation: both arcs on every sample, np.where picks
    a side, the slopes from np.polyder; the profile's values and its
    gradient floor outside omega1."""
    L, c = grid.length, (masks.omega1[0] + masks.omega1[1]) / 2
    d2_peak = ETA_KAPPA / max(c, L - c)**2
    arc_l = _quintic_arc(d2_peak * c**2)
    arc_r = _quintic_arc(d2_peak * (L - c)**2)

    def eval_eta(x):
        on_left = x <= c
        u = np.where(on_left, x / c, (L - x) / (L - c))
        val = np.where(on_left, np.polyval(arc_l[::-1], u),
                       np.polyval(arc_r[::-1], u))
        dl = np.polyder(np.poly1d(arc_l[::-1]))
        dr = np.polyder(np.poly1d(arc_r[::-1]))
        return val, np.where(on_left, dl(u) / c, -dr(u) / (L - c))

    xs = np.linspace(0.0, L, ETA_CHECK_SAMPLES)
    ders = eval_eta(xs)[1]
    lo, hi = masks.omega1
    floor = float(np.min(np.abs(ders[(xs < lo) | (xs > hi)])))
    values = eval_eta(grid.x)[0]
    values[0] = values[-1] = 0.0
    return values, floor


@pytest.mark.parametrize("cells", [48, 64, 100, 128])
@pytest.mark.parametrize("peak", [0.45, 0.5, 0.55])
def test_eta_one_sided_arcs_match_both_arc_evaluation(cells, peak):
    g = build_grid(1.0, cells)
    m = _masks_around(g, peak)
    eta = build_eta(g, m)
    values, floor = _eta_both_arcs(g, m)
    assert np.array_equal(eta.values, values)
    assert eta.floor == floor


def test_m_threshold_values():
    # scripted-oracle values for log(5 e^lam - 4)/lam
    assert m_threshold(1.0) == pytest.approx(2.2608678168, abs=1e-9)
    assert m_threshold(2.0) == pytest.approx(1.7474240092, abs=1e-9)
    assert m_threshold(10.0) == pytest.approx(1.1609401592, abs=1e-9)


def test_validate_params():
    ok = validate_params(2.0, 2.0, 1.0, horizon=8.0)
    assert ok.s == pytest.approx(72.0)
    # the message prints m_threshold(1.0) = 2.2608678168 to 6 decimals
    with pytest.raises(ConfigurationError, match=r"m=2\.0 too small: .* = 2\.260868$"):
        validate_params(1.0, 2.0, 1.0, horizon=8.0)
    validate_params(10.0, 1.2, 1.0, horizon=8.0)
    with pytest.raises(ConfigurationError, match="lambda must be >= 1"):
        validate_params(0.5, 3.0, 1.0, horizon=8.0)


def test_ell_branches_and_c1_matching():
    assert ell_value(0.25, 1.0) == pytest.approx(0.1875)
    assert ell_value(0.75, 1.0) == pytest.approx(0.25)
    # ell' is continuous at T/2: t(T-t) has slope 0 there, like the
    # constant branch; one-sided differences of step d see slopes d and 0
    d = 1e-6
    left = (ell_value(0.5, 1.0) - ell_value(0.5 - d, 1.0)) / d
    right = (ell_value(0.5 + d, 1.0) - ell_value(0.5, 1.0)) / d
    assert left == pytest.approx(d, rel=1e-3)
    assert right == 0.0


def test_weight_tables_alpha_beta_agree_first_half(geo):
    g, m = geo
    tg = build_time_grid(8.0, 64)
    eta = build_eta(g, m)
    params = validate_params(1.0, 2.3, 1.0, tg.horizon)
    t = build_weight_tables(g, tg, eta, params)
    first_half = t.t_mid <= tg.horizon / 2
    assert np.array_equal(t.log_alpha[first_half], t.log_beta[first_half])
    assert np.all(np.isfinite(t.log_alpha)) and np.all(np.isfinite(t.log_mu))


def test_weight_tables_xi_zeta_values(monkeypatch):
    # with lam=2, m=2 and eta=1 at the peak, the xi numerator is e^6 and the
    # beta numerator e^8 - e^6; at the time cells where the cutoff ell equals
    # T^2/4 = 0.25 the beta weight is exactly (e^8 - e^6)/0.25, and alpha
    # agrees with beta wherever t(T-t) = ell (first half)
    g = build_grid(1.0, 64)
    m = build_masks(g, (0.25, 0.75), (0.35, 0.65), {"left"}, 0.01)
    eta = build_eta(g, m)
    tg = build_time_grid(1.0, 16)
    params = validate_params(2.0, 2.0, 1.0, 1.0)
    monkeypatch.setattr(weights, "MIN_LIVE_CELLS", 0)
    t = build_weight_tables(g, tg, eta, params)
    peak = np.argmin(np.abs(g.x - 0.5))
    late = t.t_mid > 0.5
    beta = np.exp(t.log_beta[late][:, peak])
    assert beta == pytest.approx((math.exp(8.0) - math.exp(6.0)) / 0.25, rel=1e-12)
    assert beta[0] == pytest.approx(10310.12, rel=1e-4)
    # xi follows the t(T-t) denominator everywhere
    tTt = t.t_mid * (tg.horizon - t.t_mid)
    assert np.exp(t.log_xi[:, peak]) == pytest.approx(math.exp(6.0) / tTt, rel=1e-12)
    early = t.t_mid <= 0.5
    assert np.array_equal(t.log_alpha[early], t.log_beta[early])


def test_carleman_tables_built_on_first_read():
    bundle, _ = make_bundle(N=32, M=64)
    assert not {"log_alpha", "log_xi", "log_beta"} & vars(bundle.tables).keys()


@pytest.mark.parametrize("cells", [48, 64, 100, 128])
@pytest.mark.parametrize("peak", [0.45, 0.5, 0.55])
def test_carleman_tables_match_eager_expressions(cells, peak):
    g = build_grid(1.0, cells)
    m = _masks_around(g, peak)
    tg = build_time_grid(8.0, 2 * cells)
    eta = build_eta(g, m)
    params = validate_params(1.0, 2.3, 1.0, tg.horizon)
    t = build_weight_tables(g, tg, eta, params)
    t.carleman_log_weights
    # the oracle: each table evaluated in full from eta and the parameters
    tm, T = tg.midpoints, tg.horizon
    expo = params.lam * (params.m + eta.values)
    log_K = np.log(math.exp(2 * params.lam * params.m) - np.exp(expo))
    log_tT = np.log(tm * (T - tm))
    eager = {"log_alpha": log_K[None, :] - log_tT[:, None],
             "log_xi": expo[None, :] - log_tT[:, None],
             "log_beta": log_K[None, :] - np.log(ell_value(tm, T))[:, None]}
    for name, table in eager.items():
        assert np.array_equal(vars(t)[name], table), name


def test_weight_tables_live_window_guard(geo):
    g, m = geo
    eta = build_eta(g, m)
    tg = build_time_grid(1.0, 64)   # T too short: mu0^{-2} underflows everywhere
    params = validate_params(1.0, 2.3, 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="time cells carry a nonzero"):
        build_weight_tables(g, tg, eta, params)


def test_mu_family_log_decay_near_zero(geo):
    g, m = geo
    eta = build_eta(g, m)
    tg = build_time_grid(8.0, 128)
    t = build_weight_tables(g, tg, eta, validate_params(1.0, 2.3, 1.0, 8.0))
    # log mu0 decreases from the first midpoint to the second, and the gap
    # grows when the grid is refined (the weight is singular at t=0)
    gap = t.log_mu_k[0][0] - t.log_mu_k[0][1]
    tg2 = build_time_grid(8.0, 256)
    t2 = build_weight_tables(g, tg2, eta, validate_params(1.0, 2.3, 1.0, 8.0))
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
    assert np.all(chi[m.omega3_nodes] == 1.0)
    assert np.all(chi[~m.omega_nodes] == 0.0)
    assert chi.min() >= 0 and chi.max() <= 1.0


def test_chi_midpoint_half():
    from bscontrol.weights import _smoothstep
    s = _smoothstep(np.array([0.0, 0.5, 1.0]))
    assert s == pytest.approx([0.0, 0.5, 1.0])


def test_chi_resolution_guard():
    """`build_masks` refuses a right ramp of chi thinner than 2h, so
    `build_chi` never sees one."""
    g = build_grid(1.0, 64)
    with pytest.raises(ConfigurationError, match="ramp widths 0.205, 0.005 < 2h"):
        build_masks(g, (0.3, 0.7), (0.5, 0.9), {"left"}, 0.005)


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


def test_carleman_functional_monotone_in_s(geo, monkeypatch):
    # doubling s multiplies every term weight by e^{-2 s alpha} again
    g, m = geo
    eta = build_eta(g, m)
    tg = build_time_grid(8.0, 32)
    params1 = validate_params(1.0, 2.3, 1.0, 8.0)
    params2 = validate_params(1.0, 2.3, 2.0, 8.0)
    monkeypatch.setattr(weights, "MIN_LIVE_CELLS", 0)
    t1 = build_weight_tables(g, tg, eta, params1)
    t2 = build_weight_tables(g, tg, eta, params2)
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
