"""Grids, region masks, bulk-surface fields and SBP difference operators.

The spatial domain is the interval (0, L); its boundary is the two points
{0, L}, each carrying a dynamic (surface) value.  The discrete state space
pairs a bulk vector on the N+1 uniform nodes with a surface pair, and its
inner product is trapezoid quadrature on the bulk plus a two-term sum on
the surface (the 1D surface measure is counting measure):

    <(y, yG), (w, wG)> = sum_i H_i y_i w_i + yG_L wG_L + yG_R wG_R.

This module is the one place that writes that product out, at three
granularities: `l2_inner` pairs two slices, `slice_sq_norms` gives the
squared norm of every row of a space-time array, and `st_inner` is the
space-time product dt * sum_c <A_c, B_c> over a range of slices.  Every
other module takes its plain L2 forms from these kernels.

All difference operators are built so the discrete integration-by-parts
identity holds exactly:

    <lap(y), w>_H = -<grad(y), grad(w)>_faces + dnu(y) . w|_boundary

with `lap` the flux-injected SBP Laplacian, `grad` the face gradient and
`dnu` the second-order one-sided outward normal derivative.  Exactness (to
roundoff) is what makes every duality, conservation and adjoint test in
the rest of the package a machine-precision check instead of an O(h) one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on (0, L) with N cells and shared boundary DOFs."""

    length: float
    node_count: int  # number of cells; nodes are 0..N
    x: np.ndarray = field(repr=False)
    h: float = 0.0

    @property
    def n_nodes(self) -> int:
        return self.node_count + 1

    def __post_init__(self):
        # both weight vectors are built once per grid and shared read-only
        trap = np.full(self.n_nodes, self.h)
        trap[0] = trap[-1] = 0.5 * self.h
        mass = trap.copy()
        mass[0] += 1.0
        mass[-1] += 1.0
        trap.flags.writeable = mass.flags.writeable = False
        object.__setattr__(self, "_trapezoid", trap)
        object.__setattr__(self, "_mass", mass)

    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights of the nodes (read-only)."""
        return self._trapezoid

    def mass_weights(self) -> np.ndarray:
        """Bulk trapezoid weights plus unit surface mass at the two corners
        (read-only)."""
        return self._mass


def build_grid(length: float, node_count: int) -> SpatialGrid:
    if not length > 0:
        raise ConfigurationError(f"domain length must be positive, got {length}")
    if node_count < 8:
        raise ConfigurationError(f"need at least 8 cells, got {node_count}")
    x = np.linspace(0.0, length, node_count + 1)
    return SpatialGrid(length=float(length), node_count=int(node_count), x=x,
                       h=float(length) / node_count)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T]; fields live on nodes, weights at midpoints."""

    horizon: float
    step_count: int
    nodes: np.ndarray = field(repr=False)
    dt: float = 0.0

    @property
    def midpoints(self) -> np.ndarray:
        return face_average(self.nodes)


def build_time_grid(horizon: float, step_count: int) -> TimeGrid:
    if not horizon > 0:
        raise ConfigurationError(f"time horizon must be positive, got {horizon}")
    if step_count < 8:
        raise ConfigurationError(f"need at least 8 time steps, got {step_count}")
    nodes = np.linspace(0.0, horizon, step_count + 1)
    return TimeGrid(horizon=float(horizon), step_count=int(step_count),
                    nodes=nodes, dt=float(horizon) / step_count)


def _interval_mask(grid: SpatialGrid, interval: tuple[float, float]) -> np.ndarray:
    a, b = interval
    return (grid.x > a) & (grid.x < b)


@dataclass(frozen=True)
class RegionMasks:
    """Control region, nested observation subregions and observation sets.

    omega1 and omega3 are the nested open subsets of omega & obs_bulk
    obtained by shrinking inward by 3 and 1 nesting margins (omega1 is the
    inner one, where the weight profile peaks).
    """

    omega: tuple[float, float]
    omega1: tuple[float, float]
    omega3: tuple[float, float]
    omega_nodes: np.ndarray = field(repr=False)
    obs_bulk_nodes: np.ndarray = field(repr=False)
    omega1_nodes: np.ndarray = field(repr=False)
    omega3_nodes: np.ndarray = field(repr=False)
    obs_surface_mask: np.ndarray = field(repr=False)  # (2,) bools for (left, right)


def build_masks(grid: SpatialGrid, omega: tuple[float, float],
                obs_bulk: tuple[float, float], obs_surface,
                nesting_margin: float) -> RegionMasks:
    L = grid.length
    for name, (a, b) in (("omega", omega), ("obs_bulk", obs_bulk)):
        if not (0.0 <= a < b <= L):
            raise ConfigurationError(f"{name}=({a}, {b}) is not an interval inside (0, {L})")
    if not (omega[0] > 0.0 and omega[1] < L):
        raise ConfigurationError(
            "assumption A3 violated: closure(omega) must be contained in (0, L), "
            f"got omega={omega}")
    lo = max(omega[0], obs_bulk[0])
    hi = min(omega[1], obs_bulk[1])
    if hi <= lo:
        raise ConfigurationError(
            "assumption A3 violated: omega and the bulk observation region are "
            f"disjoint (omega={omega}, obs_bulk={obs_bulk})")
    if nesting_margin <= 0:
        raise ConfigurationError("nesting_margin must be positive")
    if hi - lo < 6 * grid.h + 4 * nesting_margin:
        raise ConfigurationError(
            f"omega & obs_bulk width {hi - lo:.4g} too thin for 6h + 4*margin "
            f"= {6 * grid.h + 4 * nesting_margin:.4g}; refine the grid or shrink the margin")

    omega1 = (lo + 3 * nesting_margin, hi - 3 * nesting_margin)
    omega3 = (lo + nesting_margin, hi - nesting_margin)
    # the cutoff chi ramps from omega's ends to omega3's over >= 2h
    ramps = (omega3[0] - omega[0], omega[1] - omega3[1])
    if min(ramps) < 2 * grid.h:
        raise ConfigurationError(
            "omega3 is not compactly inside omega at this resolution (ramp "
            f"widths {ramps[0]:.4g}, {ramps[1]:.4g} < 2h = {2 * grid.h:.4g})")

    surf = frozenset(obs_surface)
    if not surf <= {"left", "right"}:
        raise ConfigurationError(f"obs_surface must be a subset of {{left, right}}, got {obs_surface}")

    masks = RegionMasks(
        omega=omega, omega1=omega1, omega3=omega3,
        omega_nodes=_interval_mask(grid, omega),
        obs_bulk_nodes=_interval_mask(grid, obs_bulk),
        omega1_nodes=_interval_mask(grid, omega1),
        omega3_nodes=_interval_mask(grid, omega3),
        obs_surface_mask=np.array(["left" in surf, "right" in surf]),
    )
    for name in ("omega_nodes", "obs_bulk_nodes", "omega1_nodes", "omega3_nodes"):
        if getattr(masks, name).sum() < 3:
            raise ConfigurationError(f"mask {name} covers fewer than 3 grid nodes")
    return masks


# --- fields ---------------------------------------------------------------

@dataclass
class BulkSurfaceField:
    """A bulk vector on the nodes paired with two surface values.

    Surface values are independent of the bulk in general (L2-type pairs,
    e.g. equation residuals).  States of the dynamic-boundary systems are
    trace-compatible: surface == bulk at the two boundary nodes.  A stack of
    B fields has bulk (B, N+1) and surface (B, 2).
    """

    bulk: np.ndarray
    surface: np.ndarray

    @classmethod
    def from_bulk(cls, bulk: np.ndarray) -> "BulkSurfaceField":
        bulk = np.asarray(bulk, dtype=float)
        return cls(bulk=bulk, surface=bulk[..., [0, -1]].copy())

    @classmethod
    def zeros(cls, grid: SpatialGrid) -> "BulkSurfaceField":
        return cls(bulk=np.zeros(grid.n_nodes), surface=np.zeros(2))

    def is_trace_compatible(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.surface - self.bulk[..., [0, -1]]) <= tol))


@dataclass
class SpaceTimeField:
    """Time-indexed bulk/surface arrays: bulk (n_t, N+1), surface (n_t, 2).
    A stack of B histories has bulk (B, n_t, N+1) and surface (B, n_t, 2)."""

    bulk: np.ndarray
    surface: np.ndarray

    @classmethod
    def from_bulk(cls, bulk: np.ndarray) -> "SpaceTimeField":
        bulk = np.asarray(bulk, dtype=float)
        # the copy is C-contiguous (the fancy index is not), and the einsum
        # reductions over surfaces sum in memory order
        return cls(bulk=bulk, surface=bulk[..., [0, -1]].copy())

    @classmethod
    def zeros(cls, grid: SpatialGrid, n_slices: int) -> "SpaceTimeField":
        return cls(bulk=np.zeros((n_slices, grid.n_nodes)), surface=np.zeros((n_slices, 2)))

    @property
    def n_slices(self) -> int:
        return self.bulk.shape[0]

    def slice(self, j: int) -> BulkSurfaceField:
        return BulkSurfaceField(self.bulk[j], self.surface[j])


def l2_inner(a: BulkSurfaceField, b: BulkSurfaceField, grid: SpatialGrid) -> float:
    if a.bulk.shape != b.bulk.shape or a.bulk.shape[-1] != grid.n_nodes:
        raise ContractError("l2_inner: fields live on different grids")
    w = grid.trapezoid_weights()
    return float(np.dot(w * a.bulk, b.bulk) + np.dot(a.surface, b.surface))


def slice_sq_norms(*terms) -> np.ndarray:
    """Per-row squared norms sum_j quad_j values_kj^2 over (values, quad) terms.

    A scalar quad scales the row sum of squares; a vector quad weights each
    column.  Terms are accumulated in the order given.
    """
    sq = 0.0
    for values, quad in terms:
        if np.ndim(quad) == 0:
            sq = sq + np.sum(values**2, axis=1) * quad
        else:
            sq = sq + np.einsum("kj,j,kj->k", values, quad, values)
    return sq


def st_inner(A: SpaceTimeField, B: SpaceTimeField, grid: SpatialGrid, dt: float,
             slices: slice = slice(None)) -> float:
    """dt * sum over `slices` of the bulk-surface inner products (one
    pairwise-summed reduction per part)."""
    return dt * float(
        np.sum(A.bulk[slices] * grid.trapezoid_weights() * B.bulk[slices])
        + np.sum(A.surface[slices] * B.surface[slices]))


def l2_norm(a: BulkSurfaceField, grid: SpatialGrid) -> float:
    return float(np.sqrt(max(l2_inner(a, a, grid), 0.0)))


# --- SBP difference operators ---------------------------------------------
# All operators act on the last axis, so they apply to (N+1,) slices and to
# (n_t, N+1) space-time arrays alike.

def face_average(a: np.ndarray) -> np.ndarray:
    """Means of neighbouring entries on the last axis (faces, time cells)."""
    return 0.5 * (a[..., 1:] + a[..., :-1])


def grad_faces(y: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Face gradient (y_{i+1} - y_i)/h; faces carry quadrature weight h."""
    return np.diff(y, axis=-1) / grid.h


def normal_derivative(y: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Outward normal derivative at (left, right): -y'(0) and +y'(L)."""
    h = grid.h
    left = -(-3 * y[..., 0] + 4 * y[..., 1] - y[..., 2]) / (2 * h)
    right = (3 * y[..., -1] - 4 * y[..., -2] + y[..., -3]) / (2 * h)
    return np.stack([left, right], axis=-1)


def sbp_laplacian(y: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Flux-injected SBP Laplacian.

    Interior rows are the central second difference.  The two corner rows
    are H^{-1}(-A y + e dnu(y)), which reduces to the one-sided second
    difference; with these rows <lap y, w>_H = -<grad y, grad w> + dnu.w
    holds exactly for every pair of node vectors.
    """
    h2 = grid.h * grid.h
    out = np.empty_like(y, dtype=float)
    out[..., 1:-1] = (y[..., 2:] - 2 * y[..., 1:-1] + y[..., :-2]) / h2
    out[..., 0] = (y[..., 0] - 2 * y[..., 1] + y[..., 2]) / h2
    out[..., -1] = (y[..., -1] - 2 * y[..., -2] + y[..., -3]) / h2
    return out


def stiffness_apply(y: np.ndarray, grid: SpatialGrid,
                    face_coeff: np.ndarray) -> np.ndarray:
    """A y = G^T M_faces (c . G y): the coefficient-weighted stiffness.

    <A y, w>_euclid = sum_faces h * c_f * (Gy)_f (Gw)_f for all w.
    """
    g = grad_faces(y, grid) * face_coeff
    out = np.zeros_like(y, dtype=float)
    out[..., :-1] -= g
    out[..., 1:] += g
    return out


def h3_proxy_norm(f: BulkSurfaceField, grid: SpatialGrid) -> float:
    """Discrete H^3 proxy: L2 norms of the value and first 3 divided differences."""
    total = l2_inner(f, f, grid)
    y = f.bulk
    h = grid.h
    for k in range(1, 4):
        d = np.diff(y, n=k) / h**k
        total += float(np.dot(d, d)) * h
    return float(np.sqrt(total))
