"""The CLI's `diagnose` suites duality and convergence.

The carleman and estimates suites are `weights.empirical_carleman_check`
and `weights.check_elementary_estimates`.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (BulkSurfaceField, SpaceTimeField, build_grid,
                       build_time_grid, st_inner)
from .solvers import (CoefficientSet, LinearOperatorSet, duality_gap,
                      solve_linear_forward)


def duality_battery(ops: LinearOperatorSet, rng, n_pairs: int = 100) -> float:
    """max |<LY,W> - <Y,L*W>| / (||Y|| ||W||) over random admissible pairs."""
    g, tg = ops.grid, ops.time_grid
    M = tg.step_count
    worst = 0.0
    for _ in range(n_pairs):
        Y = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
        W = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, g.n_nodes)))
        Y.bulk[0] = 0.0
        Y.surface[0] = 0.0
        W.bulk[M] = 0.0
        W.surface[M] = 0.0
        gap = abs(duality_gap(Y, W, ops))
        ny, nw = (math.sqrt(st_inner(U, U, g, tg.dt)) for U in (Y, W))
        # the pairing scales like the operator norm ~ 1/dt + sigma/h^2
        scale = ny * nw * (1.0 / tg.dt + ops.sigma0 / g.h**2 + 1.0)
        worst = max(worst, gap / max(scale, 1e-300))
    return worst


def _manufactured_run(cs: CoefficientSet, N: int, M: int,
                      time_profile: str) -> float:
    """Space-time L2 error for psi = profile(t) cos(pi x) on (0,1) x (0,1).

    profile "linear" (1+t) has zero implicit-Euler truncation, isolating
    the spatial order; "decay" e^{-t} carries an O(dt) temporal component.
    """
    grid = build_grid(1.0, N)
    tgrid = build_time_grid(1.0, M)
    ops = LinearOperatorSet.from_coefficients(cs, grid, tgrid)
    x, t = grid.x, tgrid.nodes
    cosx = np.cos(np.pi * x)
    if time_profile == "linear":
        prof, dprof = 1.0 + t, np.ones_like(t)
    elif time_profile == "decay":
        prof, dprof = np.exp(-t), -np.exp(-t)
    else:
        raise ValueError(time_profile)
    exact = prof[:, None] * cosx[None, :]
    f = (dprof[:, None] * cosx[None, :]
         + ops.sigma0 * np.pi**2 * exact + ops.da0 * exact)
    # dnu(psi) = 0 at both ends for cos(pi x) on (0,1)
    fs = dprof[:, None] * cosx[None, [0, -1]] + ops.db0 * exact[:, [0, -1]]
    F = SpaceTimeField(f, fs)
    psi0 = BulkSurfaceField.from_bulk(exact[0])
    Psi = solve_linear_forward(ops, F, psi0)
    err = SpaceTimeField(Psi.bulk - exact, Psi.surface - exact[:, [0, -1]])
    return math.sqrt(st_inner(err, err, grid, tgrid.dt, slice(1, None)))


def convergence_orders(cs: CoefficientSet) -> dict:
    """Observed spatial and temporal orders from manufactured solutions.

    Spatial: linear-in-time profile (no temporal truncation), direct error
    ratios over N in {32, 64, 128} at M = 256.  Temporal: decaying profile
    at N = 256 over M in {64, 128, 256}; the order is estimated from error
    increments so the common spatial component cancels.
    """
    es = [_manufactured_run(cs, N, 256, "linear") for N in (32, 64, 128)]
    spatial = [math.log2(es[i] / es[i + 1]) for i in range(2)]
    et = [_manufactured_run(cs, 256, M, "decay") for M in (64, 128, 256)]
    temporal_inc = math.log2(max(et[0] - et[1], 1e-300) / max(et[1] - et[2], 1e-300))
    return {"spatial_errors": es, "spatial_orders": spatial,
            "temporal_errors": et, "temporal_order": temporal_inc,
            "spatial_order_min": min(spatial)}
