import numpy as np
import pytest

from bscontrol.errors import ConfigurationError
from bscontrol.geometry import (BulkSurfaceField, build_grid, build_masks,
                                grad_faces, h3_proxy_norm, l2_inner,
                                normal_derivative, sbp_laplacian)


def test_build_grid_basic():
    g = build_grid(1.0, 8)
    assert g.h == 0.125
    assert build_grid(2.0, 16).h == 0.125
    assert build_grid(1.0, 64).x[32] == 0.5


def test_build_grid_errors():
    with pytest.raises(ConfigurationError):
        build_grid(-1.0, 64)
    with pytest.raises(ConfigurationError):
        build_grid(1.0, 4)


def test_weight_vectors_cached_read_only():
    g = build_grid(1.0, 16)
    Hw, Mw = g.trapezoid_weights(), g.mass_weights()
    assert Hw is g.trapezoid_weights() and Mw is g.mass_weights()
    fresh = np.full(g.n_nodes, g.h)
    fresh[0] = fresh[-1] = 0.5 * g.h
    assert np.array_equal(Hw, fresh)
    fresh[0] += 1.0
    fresh[-1] += 1.0
    assert np.array_equal(Mw, fresh)
    for w in (Hw, Mw):
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0


def test_build_masks_nesting_values():
    g = build_grid(1.0, 128)
    m = build_masks(g, (0.3, 0.7), (0.5, 0.9), {"left"}, 0.02)
    assert m.omega1 == pytest.approx((0.56, 0.64))
    assert m.omega3 == pytest.approx((0.52, 0.68))


def test_build_masks_disjoint_cites_assumption():
    g = build_grid(1.0, 64)
    with pytest.raises(ConfigurationError, match="assumption A3 violated"):
        build_masks(g, (0.1, 0.2), (0.8, 0.9), set(), 0.02)


def test_build_masks_equal_intervals():
    g = build_grid(1.0, 128)
    m = build_masks(g, (0.3, 0.7), (0.3, 0.7), {"left", "right"}, 0.05)
    assert m.omega3 == pytest.approx((0.35, 0.65))


def test_build_masks_too_thin():
    g = build_grid(1.0, 64)
    with pytest.raises(ConfigurationError, match="too thin"):
        build_masks(g, (0.45, 0.55), (0.45, 0.55), set(), 0.02)


def test_mask_nesting_as_sets():
    g = build_grid(1.0, 128)
    m = build_masks(g, (0.25, 0.75), (0.35, 0.65), {"left"}, 0.02)
    assert np.all(~m.omega1_nodes | m.omega3_nodes)
    assert np.all(~m.omega3_nodes | (m.omega_nodes & m.obs_bulk_nodes))


def test_l2_inner_values():
    g = build_grid(1.0, 64)
    ones = BulkSurfaceField.from_bulk(np.ones(g.n_nodes))
    assert l2_inner(ones, ones, g) == pytest.approx(3.0)  # |Omega| + |Gamma|
    zero = BulkSurfaceField.zeros(g)
    assert l2_inner(zero, ones, g) == 0.0
    # trapezoid quadrature is exact on linear integrands
    xf = BulkSurfaceField.from_bulk(g.x.copy())
    assert l2_inner(xf, ones, g) == pytest.approx(1.5, abs=1e-14)


def test_l2_inner_symmetric_bilinear_positive():
    g = build_grid(1.0, 32)
    rng = np.random.default_rng(0)
    a = BulkSurfaceField.from_bulk(rng.standard_normal(g.n_nodes))
    b = BulkSurfaceField.from_bulk(rng.standard_normal(g.n_nodes))
    c = BulkSurfaceField.from_bulk(rng.standard_normal(g.n_nodes))
    assert l2_inner(a, b, g) == pytest.approx(l2_inner(b, a, g), rel=1e-14)
    lhs = l2_inner(BulkSurfaceField(a.bulk + 2 * b.bulk, a.surface + 2 * b.surface), c, g)
    assert lhs == pytest.approx(l2_inner(a, c, g) + 2 * l2_inner(b, c, g), rel=1e-12)
    assert l2_inner(a, a, g) > 0


def test_sbp_on_linear_and_constant():
    g = build_grid(1.0, 64)
    lin = g.x.copy()
    dn = normal_derivative(lin, g)
    assert dn == pytest.approx([-1.0, 1.0], abs=1e-13)
    assert np.allclose(sbp_laplacian(lin, g)[1:-1], 0.0, atol=1e-11)
    const = np.full(g.n_nodes, 3.7)
    assert normal_derivative(const, g) == pytest.approx([0.0, 0.0], abs=1e-12)
    assert np.allclose(sbp_laplacian(const, g), 0.0, atol=1e-10)


def test_sbp_exact_on_quadratics():
    g = build_grid(1.0, 32)
    y = g.x**2
    lap = sbp_laplacian(y, g)
    assert np.allclose(lap, 2.0, atol=1e-10)  # corner rows included


def test_discrete_integration_by_parts_exact():
    g = build_grid(1.0, 64)
    rng = np.random.default_rng(1)
    Hw = g.trapezoid_weights()
    for _ in range(100):
        y = rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        lhs = float(np.dot(Hw * sbp_laplacian(y, g), w))
        grad = float(np.sum(grad_faces(y, g) * grad_faces(w, g)) * g.h)
        dn = normal_derivative(y, g)
        bnd = dn[0] * w[0] + dn[1] * w[-1]
        scale = np.linalg.norm(y) * np.linalg.norm(w) / g.h**2
        assert abs(lhs + grad - bnd) <= 1e-13 * scale


def test_h3_proxy_norm_positive_homogeneous():
    g = build_grid(1.0, 32)
    f = BulkSurfaceField.from_bulk(np.sin(np.pi * g.x))
    n1 = h3_proxy_norm(f, g)
    f2 = BulkSurfaceField(2 * f.bulk, 2 * f.surface)
    assert h3_proxy_norm(f2, g) == pytest.approx(2 * n1, rel=1e-12)
    assert n1 > 0
