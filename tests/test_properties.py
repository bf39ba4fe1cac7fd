"""Property tests of the exact discrete identities on random grids and
coefficients: summation by parts, space-time duality, the agreement of the
sparse residual stack with the matrix-free operators it is built from, the
weighted space-time norm and the log-sum-exp kernel against plain sums,
per-part log-sum-exp totals against one flat log-sum-exp, a log-weight
prepared once against one prepared per sum, the factored
linear steppers against per-step banded solves, mass conservation of the
linear steppers, and the duality of the quasilinear tangent and adjoint
steppers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solveh_banded

from bscontrol import diagnostics
from bscontrol.errors import ConditioningError
from bscontrol.fi import _Stack
from bscontrol.geometry import (BulkSurfaceField, SpaceTimeField, build_grid,
                                build_time_grid)
from bscontrol.insensitize import PerturbationSpec, duality_identity_check
from bscontrol.solvers import (LinearOperatorSet, _constant_step_bands,
                               _weak_rhs, apply_L, solve_linear_backward,
                               solve_linear_forward, total_mass)
from bscontrol.weights import (LogWeight, log_add, log_st_sq,
                               log_weighted_sq_sum)

from conftest import make_bundle

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


def _plain_lse(a, b):
    """a_max + log fsum(b * exp(a - a_max)) in plain floats."""
    if not a:
        return -math.inf
    a_max = max(a)
    return a_max + math.log(math.fsum(w * math.exp(x - a_max) for x, w in zip(a, b)))


# exponents drawn partly from a few values, so that ties of the maximum occur
EXPONENTS = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-3.0, 0.0, 2.5]))


@PROPERTY
@given(a=st.lists(EXPONENTS, min_size=0, max_size=60), data=st.data())
def test_logsumexp_matches_plain_sum(a, data):
    """The weighted kernel agrees with a plain-float sum for weights from
    1e-30 to 1e30, ties of the maximum, one element and none (-inf)."""
    b = [10.0 ** e for e in data.draw(
        st.lists(st.floats(-30.0, 30.0), min_size=len(a), max_size=len(a)))]
    got = LogWeight(a).log_sum(np.array(b))
    want = _plain_lse(a, b)
    if not a:
        assert got == -math.inf
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@PROPERTY
@given(a=st.lists(st.one_of(EXPONENTS, st.just(-math.inf)), min_size=0, max_size=30))
def test_log_add_matches_plain_sum(a):
    """The unweighted path: log_add drops -inf terms and sums the rest."""
    finite = [x for x in a if x != -math.inf]
    want = _plain_lse(finite, [1.0] * len(finite))
    got = log_add(*a)
    if not finite:
        assert got == -math.inf
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@PROPERTY
@given(parts=st.lists(st.lists(EXPONENTS, min_size=0, max_size=20),
                      min_size=1, max_size=6), data=st.data())
def test_log_add_of_parts_matches_flat_logsumexp(parts, data):
    """A total formed part by part (one log-sum-exp per part, then log_add)
    equals one log-sum-exp over all the parts' terms, as the Carleman
    functionals form theirs from per-component sums."""
    weights = [np.array([10.0 ** e for e in data.draw(
        st.lists(st.floats(-30.0, 30.0), min_size=len(a), max_size=len(a)))])
        for a in parts]
    per_part = log_add(*(LogWeight(a).log_sum(b)
                         for a, b in zip(parts, weights)))
    flat = LogWeight(np.concatenate([np.array(a, dtype=float) for a in parts])
                     ).log_sum(np.concatenate(weights))
    if flat == -math.inf:
        assert per_part == -math.inf
    else:
        assert abs(per_part - flat) <= 1e-12 * max(1.0, abs(flat))


# log-weights across the exponent range of the Carleman weights, with ties
LOG_WEIGHTS = st.one_of(st.floats(-700.0, 700.0),
                        st.sampled_from([-700.0, 0.0, 650.0, 700.0]))


@PROPERTY
@given(M=st.integers(1, 6), n=st.integers(1, 6), data=st.data())
def test_prepared_log_weight_matches_per_sum(M, n, data):
    """A log-weight prepared once and reused for several sums gives each sum
    bit-for-bit as `log_weighted_sq_sum` does from scratch, and as one fresh
    log-sum-exp over the nonzero terms alone.  The values have no zeros,
    zeros at the weight's maximum, or zeros anywhere; the weights have ties
    at the maximum; the quadrature is a scalar, (1, n) or (M, 1)."""
    lw = np.array(data.draw(st.lists(LOG_WEIGHTS, min_size=M * n,
                                     max_size=M * n))).reshape(M, n)
    weight = LogWeight(lw)
    nonzero = st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))
    for zeros in ("none", "at max", "anywhere"):
        values = np.array(data.draw(st.lists(
            st.one_of(nonzero, st.just(0.0)) if zeros == "anywhere"
            else nonzero, min_size=M * n, max_size=M * n))).reshape(M, n)
        if zeros == "at max":
            values[lw == lw.max()] = 0.0
        shape = data.draw(st.sampled_from([(), (1, n), (M, 1)]))
        quad = np.array(data.draw(st.lists(
            st.floats(1e-3, 10.0), min_size=math.prod(shape),
            max_size=math.prod(shape)))).reshape(shape)
        coeff = (quad * values * values).ravel()
        keep = coeff > 0
        want = LogWeight(lw.ravel()[keep]).log_sum(coeff[keep])
        assert weight.sq_sum(values, quad) == want
        assert log_weighted_sq_sum(lw, values, quad) == want


def _per_step_march(ops, S, start, backward):
    """The linear steppers as one solveh_banded call per step."""
    g, tg = ops.grid, ops.time_grid
    M, dt = tg.step_count, tg.dt
    ab = _constant_step_bands(g, dt, ops.sigma0, ops.da0, ops.db0)
    out = np.empty((M + 1, g.n_nodes))
    out[M if backward else 0] = start
    for c in (range(M, 0, -1) if backward else range(1, M + 1)):
        known, new = (c, c - 1) if backward else (c - 1, c)
        rhs = g.mass_weights() * out[known] / dt + _weak_rhs(g, S.bulk[c], S.surface[c])
        out[new] = solveh_banded(ab, rhs)
    return out


@PROPERTY
@given(ops=operators(), backward=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_factored_steppers_match_per_step_solves(ops, backward, seed):
    """Factoring the step matrix once gives every slice of the per-step
    solveh_banded march bit for bit; a matrix that is not positive definite
    raises ConditioningError where solveh_banded raises LinAlgError."""
    g, M = ops.grid, ops.time_grid.step_count
    rng = np.random.default_rng(seed)
    S = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
    start = rng.standard_normal(g.n_nodes)
    solve = solve_linear_backward if backward else solve_linear_forward
    try:
        want = _per_step_march(ops, S, start, backward)
    except LinAlgError:
        with pytest.raises(ConditioningError):
            solve(ops, S, BulkSurfaceField.from_bulk(start))
        return
    got = solve(ops, S, BulkSurfaceField.from_bulk(start))
    assert np.array_equal(got.bulk, want)


@PROPERTY
@given(ops=operators(), backward=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_linear_steppers_conserve_mass(ops, backward, seed):
    """Without reactions and sources, the SBP flux terms cancel in the
    trapezoid-plus-surface mass, which stays constant to roundoff: 1e-12
    relative to the datum's absolute mass, times the diffusion number
    dt sigma0 / h^2 once it exceeds 1, since each step's rounding scales
    with the stiffness part of the step matrix."""
    ops = LinearOperatorSet(sigma0=ops.sigma0, da0=0.0, db0=0.0,
                            grid=ops.grid, time_grid=ops.time_grid)
    g, M = ops.grid, ops.time_grid.step_count
    datum = BulkSurfaceField.from_bulk(
        np.random.default_rng(seed).standard_normal(g.n_nodes))
    zero = SpaceTimeField.zeros(g, M + 1)
    Y = (solve_linear_backward if backward else solve_linear_forward)(ops, zero, datum)
    mass = total_mass(Y, g)
    scale = float(np.abs(datum.bulk) @ g.mass_weights())
    stiff = max(1.0, ops.time_grid.dt * ops.sigma0 / g.h**2)
    assert np.abs(mass - mass[M if backward else 0]).max() <= 1e-12 * scale * stiff


@PROPERTY
@given(preset=st.sampled_from(["constant", "affine", "logistic", "polynomial"]),
       amplitude=st.floats(1e-3, 0.5), M=st.sampled_from([32, 64]),
       seed=st.integers(0, 2**32 - 1))
@example(preset="logistic", amplitude=0.5, M=64, seed=6)
@example(preset="polynomial", amplitude=0.5, M=32, seed=6)
def test_quasilinear_duality_exact(preset, amplitude, M, seed):
    """The backward quasilinear stepper is the transpose of the tangent
    stepper, so the energy pairing theta <psi, z>_O + theta_s <psi_G, z_G>
    equals <z(.,0), h(.,0)> to roundoff for every coefficient family and
    source amplitude."""
    bundle, F = make_bundle(N=32, M=M, preset=preset, amplitude=amplitude)
    d = PerturbationSpec.random(bundle.grid, np.random.default_rng(seed)).direction
    assert duality_identity_check(bundle, F, None, d, quasilinear=True)["relative"] <= 1e-12
