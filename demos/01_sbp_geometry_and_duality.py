"""Grids, summation-by-parts operators, and exact discrete duality.

Everything downstream rests on one identity: the discrete Laplacian,
gradient and normal derivative are built so integration by parts holds to
machine precision, which makes duality, conservation and dissipation
checkable exactly rather than up to O(h).
"""

import numpy as np

from bscontrol import (BulkSurfaceField, SpaceTimeField, build_grid,
                       build_time_grid, coefficient_preset)
from bscontrol.geometry import grad_faces, normal_derivative, sbp_laplacian
from bscontrol.solvers import (LinearOperatorSet, duality_gap, l2_history,
                               solve_linear_forward, total_mass)

grid = build_grid(1.0, 64)
tgrid = build_time_grid(8.0, 128)
print(f"domain (0, {grid.length}), {grid.node_count} cells, h = {grid.h}")

# --- the SBP identity, evaluated on random data -----------------------------
rng = np.random.default_rng(0)
y = rng.standard_normal(grid.n_nodes)
w = rng.standard_normal(grid.n_nodes)
Hw = grid.trapezoid_weights()
lhs = np.dot(Hw * sbp_laplacian(y, grid), w)
grad_term = np.sum(grad_faces(y, grid) * grad_faces(w, grid)) * grid.h
dnu = normal_derivative(y, grid)
boundary = dnu[0] * w[0] + dnu[1] * w[-1]
print(f"<lap y, w> + <grad y, grad w> - dnu.w = {lhs + grad_term - boundary:.3e}")

# linear functions have zero Laplacian and unit normal derivatives
lin = grid.x.copy()
print("normal derivative of x:", normal_derivative(lin, grid))
print("laplacian of x^2 (should be 2 everywhere):",
      sbp_laplacian(grid.x**2, grid)[[0, 10, 32, 64]])

# --- space-time duality of the dynamic-boundary operators -------------------
cs = coefficient_preset("logistic")
ops = LinearOperatorSet.from_coefficients(cs, grid, tgrid)
M = tgrid.step_count
Y = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, grid.n_nodes)))
W = SpaceTimeField.from_bulk(rng.standard_normal((M + 1, grid.n_nodes)))
Y.bulk[0] = Y.surface[0] = 0.0          # forward domain: zero initial slice
W.bulk[M] = W.surface[M] = 0.0          # backward domain: zero terminal slice
print(f"|<L Y, W> - <Y, L* W>| = {abs(duality_gap(Y, W, ops)):.3e}")

# --- conservation and dissipation with zero reactions ------------------------
ops0 = LinearOperatorSet(sigma0=1.0, da0=0.0, db0=0.0,
                         grid=grid, time_grid=tgrid)
psi0 = BulkSurfaceField.from_bulk(np.sin(2 * np.pi * grid.x) + 1.0)
psi = solve_linear_forward(ops0, SpaceTimeField.zeros(grid, M + 1), psi0)
mass = total_mass(psi, grid)
energy = l2_history(psi, grid)
print(f"bulk+surface mass drift over the run: {np.abs(np.diff(mass)).max():.3e}")
print(f"energy monotone decreasing: {bool(np.all(np.diff(energy) <= 0))}")
