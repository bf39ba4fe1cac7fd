"""Property tests of the exact discrete identities on random grids and
coefficients: summation by parts, space-time duality, the agreement of the
sparse residual stack with the matrix-free operators it is built from, the
weighted space-time norm and the log-sum-exp kernel against plain sums,
log_ratio against math.exp up to overflow,
per-part log-sum-exp totals against one flat log-sum-exp, a log-weight
prepared once against one prepared per sum, the space-time inner
product against per-slice sums and the duality pairings, the per-slice
norm history against its einsum form, the factored
linear steppers against per-step banded solves, mass conservation of the
linear steppers, stacked marches against member marches, the direct
tridiagonal solve against solve_banded, the Newton stop tests' row norms
against np.linalg.norm, the stacked Carleman check against
a per-sample one, the check's `np.errstate` entries against its sample
count, the random source against its tuple-drawn and outer-sum forms, the
duality of the quasilinear tangent and adjoint steppers, both of those
band marches against per-step solve_banded solves, and the adjoint of the
control-to-h(.,0) map."""

import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

from bscontrol.errors import ConditioningError
from bscontrol.fi import _recover_fields, _residual_stack, _unpack_dofs
from bscontrol.geometry import (BulkSurfaceField, build_grid, build_masks,
                                build_time_grid, grad_faces, l2_inner,
                                normal_derivative, sbp_laplacian, st_inner)
from bscontrol.insensitize import (control_support, control_to_h0_adjoint,
                                   linear_h, random_direction)
from bscontrol.solvers import (LinearOperatorSet, _constant_step_bands,
                               _quasilinear_jacobian_bands, _row_norms,
                               _solve_tridiagonal, _weak_rhs, apply_L,
                               coefficient_preset, duality_battery,
                               l2_history, solve_adjoint_cascade,
                               solve_backward_varcoef, solve_linear_backward,
                               solve_linear_forward, solve_sensitivity,
                               total_mass)
from bscontrol import weights
from bscontrol.weights import (LogWeight, _random_smooth_source, _stack_log_sums,
                               carleman_functional_I, carleman_functional_Jw,
                               empirical_carleman_check, log_add, log_ratio,
                               log_sq_sums, log_st_sq, log_weighted_sq_sum)

from conftest import duality_identity_check, make_bundle, stack_blocks

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
    """<lap y, w>_H + <grad y, grad w> = dnu y . w, scaled by |y| |w| / h^2."""
    grid = build_grid(length, N)
    rng = np.random.default_rng(seed)
    Hw = grid.trapezoid_weights()
    for _ in range(5):
        y, w = rng.standard_normal((2, grid.n_nodes))
        lhs = float(np.dot(Hw * sbp_laplacian(y, grid), w))
        mid = float(np.sum(grad_faces(y, grid) * grad_faces(w, grid)) * grid.h)
        dnu = normal_derivative(y, grid)
        bnd = dnu[0] * w[0] + dnu[1] * w[-1]
        scale = (np.linalg.norm(y) * np.linalg.norm(w)) / grid.h**2 + 1e-300
        assert abs(lhs + mid - bnd) / scale <= 1e-13


@PROPERTY
@given(ops=operators(), seed=st.integers(0, 2**32 - 1))
def test_duality_gap_at_operator_scale(ops, seed):
    gap = duality_battery(ops, np.random.default_rng(seed), n_pairs=3)
    assert gap <= 1e-13


def _random_histories(ops, seed, count):
    """`count` space-time fields with independent surface values."""
    rng = np.random.default_rng(seed)
    shape = (ops.time_grid.step_count + 1, ops.grid.n_nodes)
    return [BulkSurfaceField(rng.standard_normal(shape), rng.standard_normal((shape[0], 2)))
            for _ in range(count)]


@PROPERTY
@given(ops=operators(), seed=st.integers(0, 2**32 - 1))
def test_st_inner_matches_slice_sums(ops, seed):
    """st_inner is symmetric and equals dt * sum_c l2_inner(A_c, B_c) up to
    summation order."""
    g, dt = ops.grid, ops.time_grid.dt
    A, B = _random_histories(ops, seed, 2)
    absA, absB = (BulkSurfaceField(np.abs(U.bulk), np.abs(U.surface)) for U in (A, B))
    scale = st_inner(absA, absB, g, dt)
    value = st_inner(A, B, g, dt)
    assert abs(value - st_inner(B, A, g, dt)) <= 1e-13 * scale
    ref = dt * sum(l2_inner(A.slice(c), B.slice(c), g) for c in range(A.n_slices))
    assert abs(value - ref) <= 1e-13 * scale


@PROPERTY
@given(ops=operators(), seed=st.integers(0, 2**32 - 1))
def test_l2_history_matches_einsum_form(ops, seed):
    """l2_history has the bits of its former two-einsum expression, which
    are the norms `trajectory.csv` prints."""
    g = ops.grid
    Y, = _random_histories(ops, seed, 1)
    w = g.trapezoid_weights()
    oracle = np.sqrt(np.einsum("ij,j,ij->i", Y.bulk, w, Y.bulk)
                     + np.einsum("ij,ij->i", Y.surface, Y.surface))
    assert np.array_equal(l2_history(Y, g), oracle)


@PROPERTY
@given(ops=operators(), theta=st.floats(0.1, 5.0), theta_s=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_stack_matches_matrix_free(ops, theta, theta_s, seed):
    """Each block of R x equals the matrix-free strong rows: L* Y minus the
    theta coupling (cell c at Y's left slice c-1 and Z's right slice c),
    L Z, and sqrt(chi) Y.  The (c16) recovery of x gives the same rows
    (with -chi Y for the control) bit for bit under unit weights, and the
    weighted rows, exactly zero on zero-weight cells, under cell weights."""
    g, M = ops.grid, ops.time_grid.step_count
    n = g.n_nodes
    rng = np.random.default_rng(seed)
    mO = rng.random(n) < 0.5
    mS = rng.random(2) < 0.5
    chi = rng.random(n)
    problem = SimpleNamespace(
        grid=g, time_grid=ops.time_grid, ops=ops, theta=theta, theta_s=theta_s,
        masks=SimpleNamespace(obs_bulk_nodes=mO, obs_surface_mask=mS),
        chi=chi,
        tables=SimpleNamespace(inv_sq=lambda k: np.ones(M)))
    x = rng.standard_normal(2 * M * n)
    Yf, Zf = _unpack_dofs(problem, x)
    Y, Z = BulkSurfaceField.from_bulk(Yf), BulkSurfaceField.from_bulk(Zf)
    LsY, LZ = apply_L(Y, ops, "Lstar"), apply_L(Z, ops, "L")
    expected = (
        LsY.bulk[:-1] - theta * Z.bulk[1:] * mO,
        LsY.surface[:-1] - theta_s * Z.surface[1:] * mS,
        LZ.bulk[1:],
        LZ.surface[1:],
        np.sqrt(chi) * Y.bulk[:-1],
    )
    for got, want in zip(stack_blocks(problem, _residual_stack(problem) @ x),
                         expected):
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)

    zero = BulkSurfaceField.zeros(g, M + 1)
    rows = (*expected[:4], -chi * Y.bulk[:-1])

    def recovered():
        sol = _recover_fields(problem, x, 0.0, 0.0, zero)
        return (sol.Psi.bulk[1:], sol.Psi.surface[1:], sol.H.bulk[:-1],
                sol.H.surface[:-1], sol.v[1:])

    for got, want in zip(recovered(), rows):
        assert np.array_equal(got, want)
    w = rng.random(M) * (np.arange(M) % 3 > 0)
    problem.tables = SimpleNamespace(inv_sq=lambda k: w)
    for got, want in zip(recovered(), rows):
        want = w[:, None] * want
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
        assert np.all(got[w == 0] == 0)


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


@pytest.mark.parametrize("lw, want", [([], -math.inf),
                                      ([-math.inf, -math.inf], -math.inf),
                                      ([0.0, math.inf, -3.0], math.inf)])
def test_logsumexp_edge_weights(lw, want):
    """An empty or all -inf weight sums to -inf and a +inf entry to +inf,
    through the direct-sum fallback, without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LogWeight(lw).log_sum(np.ones(len(lw))) == want


def test_logsumexp_overflowing_sum():
    """A finite weight whose shifted sum overflows sums to +inf through
    the direct-sum fallback, without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LogWeight([700.0, 700.0]).log_sum(np.full(2, 1e308)) == math.inf


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
@given(num=st.floats(-1e3, 1e3), den=st.floats(-1e3, 1e3))
@example(num=705.0, den=0.0)
@example(num=709.7, den=0.0)
@example(num=709.8, den=0.0)
def test_log_ratio_exact_up_to_overflow(num, den):
    """exp(num - den) to the bit while it is a double (e^709.78 is the
    largest), +inf beyond it; 0 over anything is 0, and NaN propagates."""
    d = num - den
    if d < 709.78:
        assert log_ratio(num, den) == math.exp(d)
    elif d > 709.79:
        assert log_ratio(num, den) == math.inf
    assert log_ratio(-math.inf, den) == 0.0
    assert log_ratio(num, -math.inf) == math.inf
    assert math.isnan(log_ratio(math.inf, math.inf))


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
    log-sum-exp over the nonzero terms alone, also for each member of a
    stack of values.  The values have no zeros, zeros at the weight's
    maximum, or zeros anywhere; the weights have ties at the maximum; the
    quadrature is a scalar, (1, n) or (M, 1)."""
    lw = np.array(data.draw(st.lists(LOG_WEIGHTS, min_size=M * n,
                                     max_size=M * n))).reshape(M, n)
    weight = LogWeight(lw)
    stack = []
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
        assert (log_sq_sums(values, quad, (weight, weight)) == want).all()
        assert log_weighted_sq_sum(lw, values, quad) == want
        stack.append(values)
    members = [log_sq_sums(v, quad, (weight,))[0, 0] for v in stack]
    assert np.array_equal(log_sq_sums(np.array(stack), quad, (weight,))[0], members)
    # an all-zero member and a zero-width weight sum to -inf
    zero_first = np.array([np.zeros((M, n)), stack[0]])
    assert log_sq_sums(zero_first, quad, (weight,))[0].tolist() == [-math.inf, members[0]]
    empty = LogWeight(np.empty((M, 0)))
    assert log_sq_sums(np.ones((2, M, 0)), 1.0, (empty,)).tolist() == [[-math.inf] * 2]


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
    S = BulkSurfaceField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
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
@given(ops=operators(), backward=st.booleans(), B=st.integers(1, 5),
       stacked_start=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(ops=LinearOperatorSet(sigma0=0.05, da0=-2.0, db0=-2.0,
                               grid=build_grid(1.0, 8),
                               time_grid=build_time_grid(10.0, 8)),
         backward=True, B=3, stacked_start=False, seed=0)
def test_stacked_march_matches_member_marches(ops, backward, B, stacked_start, seed):
    """A stack of B sources, from one datum or a stack of data, marches each
    member bit for bit as its own march does; a step matrix that is not
    positive definite raises ConditioningError for the stack as well."""
    g, M = ops.grid, ops.time_grid.step_count
    rng = np.random.default_rng(seed)
    S = BulkSurfaceField.from_bulk(rng.standard_normal((B, M + 1, g.n_nodes)))
    start = rng.standard_normal((B, g.n_nodes) if stacked_start else g.n_nodes)
    solve = solve_linear_backward if backward else solve_linear_forward
    members = []
    for k in range(B):
        try:
            members.append(solve(ops, BulkSurfaceField(S.bulk[k], S.surface[k]),
                                 BulkSurfaceField.from_bulk(start[k] if stacked_start
                                                            else start)))
        except ConditioningError:
            with pytest.raises(ConditioningError):
                solve(ops, S, BulkSurfaceField.from_bulk(start))
            return
    got = solve(ops, S, BulkSurfaceField.from_bulk(start))
    assert got.bulk.shape == (B, M + 1, g.n_nodes)
    assert got.surface.shape == (B, M + 1, 2)
    for k, one in enumerate(members):
        assert np.array_equal(got.bulk[k], one.bulk)
        assert np.array_equal(got.surface[k], one.surface)


# band entries from a few values, so that singular matrices occur
BAND_ENTRIES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1.0, -1.0]))


@PROPERTY
@given(n=st.integers(2, 12), columns=st.sampled_from([None, 1, 3]),
       bad=st.sampled_from([None, "ab", "b"]), data=st.data())
def test_solve_tridiagonal_matches_solve_banded(n, columns, bad, data):
    """The direct gtsv helper gives solve_banded((1, 1))'s solution bit for
    bit, and its errors: ValueError for a non-finite entry, LinAlgError
    for a singular matrix.  (solve_banded divides instead at n = 1; a step
    matrix has at least two nodes.)"""
    ab = np.array(data.draw(st.lists(BAND_ENTRIES, min_size=3 * n,
                                     max_size=3 * n))).reshape(3, n)
    shape = (n,) if columns is None else (n, columns)
    b = np.array(data.draw(st.lists(BAND_ENTRIES, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    if bad is not None:
        (ab if bad == "ab" else b).flat[data.draw(st.integers(0, n - 1))] = math.nan

    def outcome(solve):
        try:
            return solve()
        except (ValueError, LinAlgError) as exc:
            return type(exc), str(exc)

    want = outcome(lambda: solve_banded((1, 1), ab, b))
    got = outcome(lambda: _solve_tridiagonal(ab, b))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want, equal_nan=True)


@PROPERTY
@given(B=st.integers(1, 20), n=st.integers(9, 513),
       exponents=st.lists(st.one_of(st.none(), st.floats(-150.0, 150.0)),
                          min_size=20, max_size=20),
       seed=st.integers(0, 2**32 - 1))
@example(B=20, n=513, exponents=[None, 150.0, -150.0, 0.0] * 5, seed=0)
def test_row_norms_match_linalg_norm(B, n, exponents, seed):
    """`_row_norms`, np.sqrt(np.vecdot(rows, rows)), equals np.linalg.norm
    of each row bit for bit on (B, n) stacks whose rows are scaled by
    10**e (a zero row where e is None): the quasilinear Newton tolerances
    and stop tests rest on it.  (np.einsum("ij,ij->i") sums in another
    order and does not match.)"""
    rows = np.random.default_rng(seed).standard_normal((B, n))
    for row, e in zip(rows, exponents):
        row *= 0.0 if e is None else 10.0 ** e
    assert np.array_equal(_row_norms(rows), [np.linalg.norm(r) for r in rows])


def _per_sample_carleman_check(n_samples, bundle, rng):
    """`empirical_carleman_check` one sample at a time: a single adjoint
    cascade per sample and the public functionals for its two fields."""
    g, tg, masks, tables = bundle.grid, bundle.time_grid, bundle.masks, bundle.tables
    dt = tg.dt
    quad_b = g.trapezoid_weights()[None, :] * dt
    rhs_w = [[w.lw.reshape(w.shape) for w in tables.carleman_log_weights[key]]
             for key in ("rhs_I", "rhs_J")]

    def draw():
        out = np.empty((tg.step_count + 1, g.n_nodes))
        _random_smooth_source(g, tg, rng, out)
        return BulkSurfaceField.from_bulk(out)

    def mid(a):
        return 0.5 * (a[1:] + a[:-1])

    max_I = max_J = 0.0
    for _ in range(n_samples):
        f1 = draw()
        g1 = draw()
        Phi, K = solve_adjoint_cascade(bundle.ops, f1, g1, bundle.theta,
                                       bundle.theta_s, masks)
        lhs = [log_add(fn(Phi, tables, g, dt)["log_total"],
                       fn(K, tables, g, dt)["log_total"])
               for fn in (carleman_functional_I, carleman_functional_Jw)]
        terms = ((mid(Phi.bulk) * masks.omega3_nodes, quad_b), (mid(f1.bulk), quad_b),
                 (mid(g1.bulk), quad_b), (mid(f1.surface), dt), (mid(g1.surface), dt))
        rhs = [log_add(*(log_weighted_sq_sum(lw, v, q) for lw, (v, q) in zip(ws, terms)))
               for ws in rhs_w]
        max_I = max(max_I, log_ratio(lhs[0], rhs[0]))
        max_J = max(max_J, log_ratio(lhs[1], rhs[1]))
    return {"max_ratio_alpha": max_I, "max_ratio_beta": max_J, "samples": n_samples}


@pytest.fixture(scope="module")
def carleman_bundle():
    return make_bundle(N=32, M=32)[0]


# samples per stack in the test: the stack budget set to three fields
STACK = 3


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(n_samples=st.integers(1, 2 * STACK + 1), seed=st.integers(0, 2**32 - 1))
@example(n_samples=STACK - 1, seed=1)
@example(n_samples=STACK, seed=2)
@example(n_samples=STACK + 1, seed=3)
def test_stacked_carleman_check_matches_per_sample(carleman_bundle, n_samples, seed):
    """The stacked check, with its shared midpoint pieces and coefficients,
    gives the per-sample check's ratios bit for bit, with sample counts
    below, at and above the stack size, and solves stacks of at most that
    many samples."""
    b = carleman_bundle
    field_bytes = 8 * (b.time_grid.step_count + 1) * b.grid.n_nodes
    sizes = []

    def adjoint(f1, g1):
        sizes.append(len(f1.bulk))
        return solve_adjoint_cascade(b.ops, f1, g1, b.theta, b.theta_s, b.masks)

    with mock.patch.object(weights, "CARLEMAN_STACK_BYTES", STACK * field_bytes):
        got = empirical_carleman_check(n_samples, b.tables, b.grid, b.time_grid,
                                       b.masks, adjoint, np.random.default_rng(seed))
    assert got == _per_sample_carleman_check(n_samples, b, np.random.default_rng(seed))
    assert sizes == [STACK] * (n_samples // STACK) + [n_samples % STACK] * (n_samples % STACK > 0)


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_observation_sum_on_omega3_columns(carleman_bundle, seed, data):
    """The check's observation term, summed over omega3's columns against
    its restricted weights, equals `log_weighted_sq_sum` of the omega3-masked
    midpoint values over the full grid bit for bit: for a member with no
    zero, one with exact zeros inside omega3 and one that vanishes there."""
    b = carleman_bundle
    g, tg, masks = b.grid, b.time_grid, b.masks
    M, dt = tg.step_count, tg.dt
    obs = np.flatnonzero(masks.omega3_nodes)
    rng = np.random.default_rng(seed)
    bulk = rng.standard_normal((3, M + 1, g.n_nodes))
    for _ in range(data.draw(st.integers(1, 4))):
        c, j = data.draw(st.integers(0, M - 1)), data.draw(st.sampled_from(list(obs)))
        bulk[1, c:c + 2, j] = 0.0
    bulk[2][:, obs] = 0.0
    Phi = BulkSurfaceField.from_bulk(bulk)
    rhs = []

    def record(*args):
        out = _stack_log_sums(*args)
        rhs.append(out[1])
        return out

    with mock.patch.object(weights, "_stack_log_sums", record):
        empirical_carleman_check(3, b.tables, g, tg, masks,
                                 lambda f1, g1: (Phi, Phi), rng)
    quad_b = g.trapezoid_weights()[None, :] * dt
    phi_obs = 0.5 * (bulk[:, 1:] + bulk[:, :-1]) * masks.omega3_nodes
    for j, key in enumerate(("rhs_I", "rhs_J")):
        w = b.tables.carleman_log_weights[key][0]
        want = [log_weighted_sq_sum(w.lw.reshape(w.shape), v, quad_b) for v in phi_obs]
        assert rhs[0][0, j].tolist() == want
    assert rhs[0][0, :, 2].tolist() == [-math.inf, -math.inf]


def test_carleman_check_errstate_entries_do_not_grow(carleman_bundle):
    """The check's finite log sums enter no `np.errstate`: one check makes
    as many entries with 7 samples as with 1."""
    b = carleman_bundle
    b.tables.carleman_log_weights  # prepared outside the count
    errstate, counts = np.errstate, []
    for n_samples in (1, 7):
        entries = []

        def counted(*args, **kwargs):
            entries.append(kwargs)
            return errstate(*args, **kwargs)

        with mock.patch.object(np, "errstate", counted):
            empirical_carleman_check(
                n_samples, b.tables, b.grid, b.time_grid, b.masks,
                lambda f1, g1: solve_adjoint_cascade(b.ops, f1, g1, b.theta,
                                                     b.theta_s, b.masks),
                np.random.default_rng(n_samples))
        counts.append(len(entries))
    assert counts[1] == counts[0]


def _outer_sum_source(grid, time_grid, rng):
    """The random source as nine outer products added in term order."""
    x = grid.x / grid.length
    t = time_grid.nodes / time_grid.horizon
    out = np.zeros((t.size, x.size))
    for kx in range(3):
        for kt in range(3):
            amp = rng.standard_normal() / (1 + kx + kt)
            phx, pht = rng.uniform(0, 2 * np.pi, size=2)
            out += amp * np.outer(np.cos(2 * np.pi * kt * t + pht),
                                  np.cos(np.pi * kx * x + phx))
    return out


def _tuple_draw_source(grid, time_grid, rng):
    """The separable random source with its draws taken as tuples, one
    `standard_normal` and one `uniform(0, 2 pi, size=2)` per term."""
    x = grid.x / grid.length
    t = time_grid.nodes / time_grid.horizon
    kx, kt = np.divmod(np.arange(9), 3)
    draws = np.array([(rng.standard_normal(), *rng.uniform(0, 2 * np.pi, size=2))
                      for _ in range(9)])
    ct = draws[:, 0] / (1 + kx + kt) * np.cos(2 * np.pi * kt * t[:, None] + draws[:, 2])
    cx = np.cos(np.pi * kx[:, None] * x + draws[:, 1, None])
    return np.einsum("ik,kj->ij", ct, cx)


@PROPERTY
@given(size=st.sampled_from([(32, 32), (64, 128)]), draws=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_random_source_matches_outer_sum(size, draws, seed):
    """The separable random source equals the one drawn as tuples bit for
    bit, and the nine-outer-product sum to 1e-14 relative, and leaves the
    generator where both leave it."""
    g, tg = build_grid(1.7, size[0]), build_time_grid(8.0, size[1])
    rng, tuples, outer = (np.random.default_rng(seed) for _ in range(3))
    out = np.empty((tg.step_count + 1, g.n_nodes))
    for _ in range(draws):
        _random_smooth_source(g, tg, rng, out)
        assert np.array_equal(out, _tuple_draw_source(g, tg, tuples))
        want = _outer_sum_source(g, tg, outer)
        assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()
        assert (rng.bit_generator.state == tuples.bit_generator.state
                == outer.bit_generator.state)


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
    zero = BulkSurfaceField.zeros(g, M + 1)
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
    d = random_direction(bundle.grid, np.random.default_rng(seed))
    assert duality_identity_check(bundle, F, None, d, quasilinear=True)["relative"] <= 1e-12


@PROPERTY
@given(preset=st.sampled_from(["constant", "affine", "logistic", "polynomial"]),
       N=st.integers(8, 48), M=st.integers(8, 24), T=st.floats(0.05, 4.0),
       amplitude=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_band_marches_match_per_step_solve_banded(preset, N, M, T, amplitude, seed):
    """The tangent and the quasilinear adjoint marches equal a per-step
    solve_banded march over the Newton Jacobian bands of a random state
    history (the adjoint with their transposes and a random source), bit
    for bit at every slice."""
    cs = coefficient_preset(preset)
    g, tg = build_grid(1.0, N), build_time_grid(T, M)
    n, dt, Mw, Hw = g.n_nodes, tg.dt, g.mass_weights(), g.trapezoid_weights()
    rng = np.random.default_rng(seed)
    states = BulkSurfaceField.from_bulk(amplitude * rng.standard_normal((M + 1, n)))
    G = BulkSurfaceField(rng.standard_normal((M + 1, n)), rng.standard_normal((M + 1, 2)))
    start = rng.standard_normal(n)
    ab = _quasilinear_jacobian_bands(states.bulk[1:], cs, g, dt)

    want = np.empty((M + 1, n))
    want[0] = start
    for c in range(1, M + 1):
        want[c] = solve_banded((1, 1), ab[:, c - 1], Mw * want[c - 1] / dt)
    got = solve_sensitivity(cs, g, tg, states, BulkSurfaceField.from_bulk(start))
    assert np.array_equal(got.bulk, want)

    want[M] = start
    for c in range(M, 0, -1):
        upper, diag, lower = ab[:, c - 1]
        # the transpose swaps the off-diagonals
        abT = np.array([np.r_[0.0, lower[:-1]], diag, np.r_[upper[1:], 0.0]])
        src = Hw * G.bulk[c]
        src[[0, -1]] += G.surface[c]
        want[c - 1] = solve_banded((1, 1), abT, Mw * want[c] / dt + src)
    got = solve_backward_varcoef(cs, g, tg, states, G, BulkSurfaceField.from_bulk(start))
    assert np.array_equal(got.bulk, want)


@PROPERTY
@given(N=st.integers(16, 48), theta_s=st.sampled_from([0.0, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_control_to_h0_adjoint_identity(N, theta_s, seed):
    """<G v, e> = <v, G* e> in the L2 weights of h(.,0) and of the control
    (dt H_j on the live cells x omega nodes) for random live controls v
    and data e, with 2N time steps and a random live window."""
    rng = np.random.default_rng(seed)
    g, tg = build_grid(1.0, N), build_time_grid(8.0, 2 * N)
    M, n = tg.step_count, g.n_nodes
    ops = LinearOperatorSet(sigma0=rng.uniform(0.5, 2.0), da0=rng.uniform(0.0, 1.0),
                            db0=rng.uniform(0.0, 1.0), grid=g, time_grid=tg)
    masks = build_masks(g, (0.05, 0.95), (0.2, 0.8), {"left", "right"}, 0.01)
    first = int(rng.integers(0, M - 8))
    live = np.zeros(M, bool)
    live[first:] = rng.random(M - first) < 0.9
    bundle = SimpleNamespace(grid=g, time_grid=tg, ops=ops, masks=masks,
                             theta=1.0, theta_s=theta_s,
                             tables=SimpleNamespace(live=live))
    support = control_support(bundle)
    v = np.where(support, rng.standard_normal((M + 1, n)), 0.0)
    e = BulkSurfaceField.from_bulk(rng.standard_normal(n))
    lhs = l2_inner(BulkSurfaceField.from_bulk(linear_h(bundle, v=v)[0]), e, g)
    adj = control_to_h0_adjoint(bundle, e.bulk)
    assert np.all(adj[~support] == 0)
    rhs = st_inner(BulkSurfaceField(v, np.zeros((M + 1, 2))),
                   BulkSurfaceField(adj, np.zeros((M + 1, 2))), g, tg.dt)
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))
