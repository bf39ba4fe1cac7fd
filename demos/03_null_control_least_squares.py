"""Null control of the linearized cascade by weighted least squares.

One solve of the Carleman-weighted normal equations yields the control v
and the state/adjoint pair; the control is supported in the control
region, the recovered backward state vanishes identically on the early
weight-dead cells (the mechanism reaching h(.,0) = 0), and the re-solved
cascade confirms the construction. All weighted estimate ratios are
recorded as regression baselines.
"""

import numpy as np

from bscontrol.cli import build_setup, load_config
from bscontrol.fi import cascade_residual_check, galerkin_check
from bscontrol.geometry import l2_norm

cfg = load_config(None)
bundle, F = build_setup(cfg)

sol = bundle.fi_solver.solve(F)
print(f"sparse LU solve, backward error: {sol.backward_error:.2e}, "
      f"scaled residual: {sol.optimality_residual:.2e}")
print(f"control range: [{sol.v.min():.3e}, {sol.v.max():.3e}], "
      f"supported on {int(bundle.masks.omega_nodes.sum())} nodes")

rng = np.random.default_rng(0)
gal = galerkin_check(sol, 20, rng)
print(f"relative Galerkin optimality over 20 random directions: "
      f"{gal['max_scaled_residual']:.2e} (pass = {gal['pass']})")

chk = cascade_residual_check(sol)
print(f"re-solved cascade weak residuals: forward {chk['weak_residual_forward']:.2e}, "
      f"backward {chk['weak_residual_backward']:.2e}")
print(f"h(., first node): recovered {l2_norm(sol.H.slice(0), bundle.grid):.1e} "
      f"(exact zero by the weight mechanism), re-solved "
      f"{chk['resolved_h0_norm']:.2e}")

print("weighted-estimate ratios (regression baselines):")
for key, val in sol.lhs_rhs_ratios.items():
    print(f"  {key}: {val:.3e}")
