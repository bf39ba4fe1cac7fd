"""The Carleman weight system and its empirical estimates.

The weights blow up like exp(C/t) at the initial time, so every table is
kept in log-space and every weighted sum is a log-sum-exp over its terms,
shifted by the largest exponent.  This script
builds the full system, prints the profile of the mu-family, verifies the
algebraic identities, and runs the empirical weighted-observability check
on the adjoint cascade.
"""

import numpy as np

from bscontrol import (build_grid, build_masks, build_time_grid,
                       build_eta, build_chi, build_weight_tables,
                       check_elementary_estimates, coefficient_preset,
                       empirical_carleman_check, m_threshold, validate_params)
from bscontrol.solvers import LinearOperatorSet, solve_adjoint_cascade

grid = build_grid(1.0, 64)
tgrid = build_time_grid(8.0, 128)
masks = build_masks(grid, (0.25, 0.75), (0.35, 0.65), {"left", "right"}, 0.02)

# the admissibility threshold for the profile exponent
for lam in (1.0, 2.0, 10.0):
    print(f"lambda = {lam:5.1f}: m must exceed {m_threshold(lam):.6f}")

params = validate_params(lam=1.0, m=2.3, s_coeff=1.0, horizon=tgrid.horizon)
print(f"frozen parameters: s = {params.s}, lambda = {params.lam}, m = {params.m}")

eta = build_eta(grid, masks)
print(f"eta gradient floor outside the inner region: {eta.floor:.4f} "
      f"(required {eta.floor_required:.4f})")

tables = build_weight_tables(grid, tgrid, eta, params)
print(f"{tables.n_live} of {tgrid.step_count} time cells carry resolvable "
      f"least-squares weights")
mid = tgrid.step_count // 2
print("log mu at quarter / half horizon:",
      tables.log_mu[tgrid.step_count // 4], tables.log_mu[mid])
print("log mu0..mu5 at the half-horizon cell:",
      np.round(tables.log_mu_k[:, mid], 1))

chi = build_chi(grid, masks)
print(f"cutoff: chi = 1 on {int(np.sum(chi == 1.0))} nodes, "
      f"0 outside the control region")

report = check_elementary_estimates(tables, tgrid.dt)
print(f"mu3 mu1^-2 = mu^-1 ell^2 identity, max log-defect (live window): "
      f"{report['identity_max_live']:.2e}")
print(f"mu_k/mu_(k-1) worst ratios: mu1/mu0 = {report['C_mu1_le_mu0']:.1f} "
      f"(= ell_max^2), mu5/mu4 = {report['C_mu5_le_mu4']:.1f} (= ell_max)")
print(f"|mu3_t| <= C mu1 with empirical C = {report['C_mu3t_le_mu1']:.3e}")

# empirical observability constants of the weighted estimates
cs = coefficient_preset("logistic")
ops = LinearOperatorSet.from_coefficients(cs, grid, tgrid)
rng = np.random.default_rng(1)


def adjoint(f1, g1):
    return solve_adjoint_cascade(ops, f1, g1, 1.0, 0.5, masks)


out = empirical_carleman_check(20, tables, grid, tgrid, masks, adjoint, rng)
print(f"empirical constants over {out['samples']} random adjoint samples:")
print(f"  singular-at-both-ends weights: C1 = {out['max_ratio_alpha']:.3e}")
print(f"  singular-at-t=0 weights:       C1 = {out['max_ratio_beta']:.3e}")
