"""Property tests of the exact discrete identities on random grids and
coefficients: summation by parts, space-time duality, the agreement of the
sparse residual stack with the matrix-free operators it is built from, and
the weighted space-time norm against a plain sum."""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bscontrol import diagnostics
from bscontrol.fi import _Stack
from bscontrol.geometry import SpaceTimeField, build_grid, build_time_grid
from bscontrol.solvers import LinearOperatorSet, apply_L
from bscontrol.weights import log_st_sq

PROPERTY = settings(max_examples=25, deadline=None, database=None,
                    derandomize=True)


@st.composite
def operators(draw):
    N = draw(st.integers(8, 80))
    M = draw(st.integers(8, 40))
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    return LinearOperatorSet(
        sigma0=draw(st.floats(0.05, 5.0)), da0=draw(coeff), db0=draw(coeff),
        grid=build_grid(draw(st.floats(0.5, 4.0)), N),
        time_grid=build_time_grid(draw(st.floats(0.1, 10.0)), M))


@PROPERTY
@given(N=st.integers(8, 80), length=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_sbp_identity_exact(N, length, seed):
    grid = build_grid(length, N)
    assert diagnostics.sbp_identity_gap(grid, np.random.default_rng(seed), 5) <= 1e-13


@PROPERTY
@given(ops=operators(), seed=st.integers(0, 2**32 - 1))
def test_duality_gap_at_operator_scale(ops, seed):
    gap = diagnostics.duality_battery(ops, np.random.default_rng(seed), n_pairs=3)
    assert gap <= 1e-13


@PROPERTY
@given(ops=operators(), theta=st.floats(0.1, 5.0), theta_s=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_stack_matches_matrix_free(ops, theta, theta_s, seed):
    """Each block of R x equals the matrix-free strong rows: L* Y minus the
    theta coupling (cell c at Y's left slice c-1 and Z's right slice c),
    L Z, and sqrt(chi) Y."""
    g, M = ops.grid, ops.time_grid.step_count
    n = g.n_nodes
    rng = np.random.default_rng(seed)
    mO = rng.random(n) < 0.5
    mS = rng.random(2) < 0.5
    chi = rng.random(n)
    problem = SimpleNamespace(
        grid=g, time_grid=ops.time_grid, ops=ops, theta=theta, theta_s=theta_s,
        masks=SimpleNamespace(obs_bulk_nodes=mO, obs_surface_mask=mS),
        chi=SimpleNamespace(values=chi),
        tables=SimpleNamespace(inv_sq=lambda k: np.ones(M)))
    stack = _Stack(problem)
    x = rng.standard_normal(stack.n_dofs)
    Yf, Zf = stack.unpack(x)
    Y, Z = SpaceTimeField.from_bulk(Yf), SpaceTimeField.from_bulk(Zf)
    LsY, LZ = apply_L(Y, ops, "Lstar"), apply_L(Z, ops, "L")
    expected = (
        LsY.bulk[:-1] - theta * Z.bulk[1:] * mO,
        LsY.surface[:-1] - theta_s * Z.surface[1:] * mS,
        LZ.bulk[1:],
        LZ.surface[1:],
        np.sqrt(chi) * Y.bulk[:-1],
    )
    for got, want in zip(stack.forward_blocks(x), expected):
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


@PROPERTY
@given(N=st.integers(8, 60), M=st.integers(1, 30), length=st.floats(0.1, 10.0),
       dt=st.floats(1e-3, 1.0), faces=st.booleans(), surface=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_log_st_sq_matches_plain_sum(N, M, length, dt, faces, surface, seed):
    """log_st_sq is log dt * sum_c w_c^2 (sum_j q_j bulk_cj^2 + |surface_c|^2),
    with q the trapezoid weights on node rows and h on face rows, and -inf
    for an identically zero field."""
    grid = build_grid(length, N)
    rng = np.random.default_rng(seed)
    log_w = rng.uniform(-5.0, 5.0, M)
    bulk = rng.standard_normal((M, N if faces else N + 1))
    srf = rng.standard_normal((M, 2)) if surface else None
    q = np.full(N, grid.h) if faces else grid.trapezoid_weights()
    total = 0.0
    for c in range(M):
        row = float(np.sum(q * bulk[c]**2))
        if srf is not None:
            row += float(np.sum(srf[c]**2))
        total += math.exp(2 * log_w[c]) * row
    total *= dt
    got = math.exp(log_st_sq(log_w, bulk, srf, grid, dt))
    assert abs(got - total) <= 1e-12 * total
    zero_srf = None if srf is None else np.zeros_like(srf)
    assert log_st_sq(log_w, np.zeros_like(bulk), zero_srf, grid, dt) == -math.inf
