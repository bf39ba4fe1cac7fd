"""Carleman weight system: eta profile, alpha/xi/beta/zeta tables, mu family.

Everything is stored and combined in log-space.  The weight exponents
behave like C/t near t = 0 and reach several hundred in natural-log units
even at the most permissive admissible parameters, so plain doubles
overflow; sums of weighted squares are accumulated with a log-sum-exp
kernel (`LogWeight`) and every verification ratio is an exponent
difference.  The Carleman functionals' log-weights depend on the tables
alone, so each is prepared once per table (`WeightTables.carleman_log_weights`)
and reused for every field it weighs.

Time-dependent tables are sampled at the cell midpoints t_{c-1/2}, never
at t = 0 or T where the continuous weights are singular.

Conventions:
  alpha(x,t) = (e^{2*lam*m} - e^{lam*(m+eta(x))}) / (t(T-t))
  xi(x,t)    = e^{lam*(m+eta(x))} / (t(T-t))
  beta, zeta = same numerators over ell(t), where ell(t) = t(T-t) on
               [0, T/2] and T^2/4 on [T/2, T]
  gamma      = beta_hat/5 with beta_hat(t) = max_x beta(x,t)
  mu   = e^{5 s gamma} ell^{3/2}      mu0 = e^{4 s gamma} ell^{3/2}
  mu1  = mu0 ell^2                    mu_k = e^{3 s gamma} ell^{(2k+9)/2},
                                            k = 2..5
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ParameterError, ResolutionError
from .geometry import (RegionMasks, SpaceTimeField, SpatialGrid, TimeGrid,
                       grad_faces, normal_derivative, sbp_laplacian)

LOG_UNDERFLOW = -700.0  # squared inverse weights below e^{-700} become exact 0
LOG_FLOAT_MAX = math.log(sys.float_info.max)    # e^x overflows above this
ETA_KAPPA = -10.0       # eta'' at the peak, times max(c, L-c)^2
ETA_CHECK_SAMPLES = 10_000


class LogWeight:
    """A log-weight prepared for log-sum-exp sums against many coefficient
    arrays: flattened once, and its maximum `a_max`, the maximal entries
    `top` and the shifted exponentials `e` of the rest computed on first use.

    `log_sum` is bit-identical to scipy 1.17's `logsumexp` on positive
    coefficients: `m` is the total coefficient of the maximal entries summed
    over the whole array, and the rest is summed shifted by the maximum.  A
    non-finite result falls back to the direct log sum b * exp(a).
    """

    def __init__(self, log_w):
        log_w = np.asarray(log_w, dtype=float)
        self.shape = log_w.shape
        self.lw = log_w.ravel()

    @cached_property
    def _shifted(self):
        # first read inside log_sum's errstate
        a_max = np.max(self.lw)
        top = self.lw == a_max
        e = np.exp(np.where(top, -np.inf, self.lw) - a_max)
        # a float mask multiplies faster than a boolean one, to the same values
        return a_max, top.astype(float), e

    def log_sum(self, b: np.ndarray) -> float:
        """log sum b * exp(lw) with positive coefficients b; -inf for an
        empty weight."""
        if self.lw.size == 0:
            return -math.inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_max, top, e = self._shifted
            m = (b * top).sum()
            s = (b * e).sum()
            if s != 0:
                s = s / m
            out = np.log1p(s) + np.log(m) + a_max
            if not np.isfinite(out):
                out = np.log((b * np.exp(self.lw)).sum())
        return float(out)

    def sq_sum(self, values, quad) -> float:
        """log( sum quad * exp(lw) * values^2 ), with `values` and `quad`
        broadcast to the weight's shape.

        Entries with values == 0 contribute nothing, and the maximum is
        taken over the contributing entries only; returns -inf for an
        identically zero field.
        """
        v = np.asarray(values, dtype=float)
        # broadcast to the weight's shape and no further
        coeff = np.multiply(quad * v, v, out=np.empty(self.shape)).ravel()
        keep = coeff > 0
        if keep.all():
            return self.log_sum(coeff)
        return LogWeight(self.lw[keep]).log_sum(coeff[keep])


def log_weighted_sq_sum(log_w, values, quad) -> float:
    """log( sum quad * exp(log_w) * values^2 ), accumulated stably.

    `log_w`, `values`, `quad` broadcast together; entries with values == 0
    contribute nothing.  Returns -inf for an identically zero field.
    """
    lw, v, q = np.broadcast_arrays(np.asarray(log_w, dtype=float),
                                   np.asarray(values, dtype=float),
                                   np.asarray(quad, dtype=float))
    return LogWeight(lw).sq_sum(v, q)


def log_st_sq(log_w, bulk, surface, grid: SpatialGrid, dt: float) -> float:
    """log dt * sum_c w_c^2 (||bulk_c||^2 + |surface_c|^2): the weighted
    bulk-plus-surface space-time norm of cell rows, with log w_c = log_w[c].

    Node rows (width N+1) take the trapezoid weights, face rows (width N)
    the spacing h; `surface=None` sums the bulk alone.
    """
    lw = 2 * np.asarray(log_w)[:, None]
    quad = (grid.h * dt if np.shape(bulk)[-1] == grid.node_count
            else grid.trapezoid_weights()[None, :] * dt)
    bulk_sq = log_weighted_sq_sum(lw, bulk, quad)
    if surface is None:
        return bulk_sq
    return log_add(bulk_sq, log_weighted_sq_sum(lw, surface, dt))


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


def log_weighted_sup(log_w, *terms) -> float:
    """log max_k w_k^2 ||row_k||^2 with the row norms of `slice_sq_norms`.

    Rows of zero norm are skipped; returns -inf for an identically zero field.
    """
    sq = slice_sq_norms(*terms)
    pos = sq > 0
    if not np.any(pos):
        return -math.inf
    return float(np.max(2 * np.asarray(log_w)[pos] + np.log(sq[pos])))


def log_add(*log_values: float) -> float:
    vals = [v for v in log_values if v != -math.inf]
    if not vals:
        return -math.inf
    return LogWeight(vals).log_sum(np.ones(len(vals)))


def log_ratio(log_num: float, log_den: float) -> float:
    """exp(log_num - log_den) with the 0/0 -> 0 convention."""
    if log_num == -math.inf:
        return 0.0
    if log_den == -math.inf:
        return math.inf
    return float(math.exp(min(log_num - log_den, 700.0)))


# --- eta profile ------------------------------------------------------------

@dataclass(frozen=True)
class EtaProfile:
    values: np.ndarray
    deriv: np.ndarray
    peak: float
    floor: float           # measured min |eta'| outside omega1
    floor_required: float


def _quintic_arc(kappa_end: float) -> np.ndarray:
    """Coefficients of p(u) = sum c_k u^k with p(0)=0, p'(0)=1, p''(0)=0,
    p(1)=1, p'(1)=0, p''(1)=kappa_end."""
    A = np.zeros((6, 6))
    rhs = np.array([0.0, 1.0, 0.0, 1.0, 0.0, kappa_end])
    powers = np.arange(6)
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    A[2, 2] = 2.0
    A[3] = 1.0
    A[4] = powers
    A[5] = powers * (powers - 1)
    return np.linalg.solve(A, rhs)


def _polyval(coeff: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.polyval(coeff[::-1], u)


def build_eta(grid: SpatialGrid, masks: RegionMasks, peak: float) -> EtaProfile:
    """Piecewise-quintic profile: 0 at both ends, 1 at the peak, monotone arcs.

    The two Hermite arcs share the second derivative at the peak
    (ETA_KAPPA / max(c, L-c)^2 in x units) so eta is C^2.  Monotonicity
    and the gradient floor outside omega1 are verified on ETA_CHECK_SAMPLES
    dense samples; violations raise with the measured floor.
    """
    L, c = grid.length, float(peak)
    if not (masks.omega1[0] < c < masks.omega1[1]):
        raise ContractError(
            f"eta peak {c} must lie strictly inside omega1={masks.omega1}")
    span = max(c, L - c)
    d2_peak = ETA_KAPPA / span**2
    arc_l = _quintic_arc(d2_peak * c**2)
    arc_r = _quintic_arc(d2_peak * (L - c)**2)

    def eval_eta(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        on_left = x <= c
        u = np.where(on_left, x / c, (L - x) / (L - c))
        val = np.where(on_left, _polyval(arc_l, u), _polyval(arc_r, u))
        dl = np.polyder(np.poly1d(arc_l[::-1]))
        dr = np.polyder(np.poly1d(arc_r[::-1]))
        der = np.where(on_left, dl(u) / c, -dr(u) / (L - c))
        return val, der

    xs = np.linspace(0.0, L, ETA_CHECK_SAMPLES)
    vals, ders = eval_eta(xs)
    inside = (xs > 0) & (xs < L)
    if vals[inside].min() <= 0 or vals.max() > 1 + 1e-12:
        raise ContractError("eta profile failed 0 < eta <= 1 on the dense sample")
    # monotone on each side away from the peak
    lo, hi = masks.omega1
    left_of = xs < lo
    right_of = xs > hi
    if ders[left_of].min() <= 0 or ders[right_of].max() >= 0:
        raise ContractError("eta arcs are not strictly monotone outside omega1")
    floor = float(np.min(np.abs(ders[left_of | right_of])))
    required = 0.5 / span
    if floor < required:
        raise ContractError(
            f"eta gradient floor outside omega1 is {floor:.6g}, below the "
            f"required {required:.6g}")

    values, deriv = eval_eta(grid.x)
    values[0] = values[-1] = 0.0
    return EtaProfile(values=values, deriv=deriv, peak=c, floor=floor,
                      floor_required=required)


# --- parameters -------------------------------------------------------------

@dataclass(frozen=True)
class WeightParams:
    lam: float = 1.0
    m: float = 2.3
    s_coeff: float = 1.0      # s = s_coeff * (T + T^2)


@dataclass(frozen=True)
class ValidatedParams:
    lam: float
    m: float
    s: float
    s_coeff: float
    m_threshold: float


def m_threshold(lam: float) -> float:
    return math.log(5.0 * math.exp(lam) - 4.0) / lam


def validate_params(p: WeightParams, horizon: float) -> ValidatedParams:
    if p.lam < 1.0:
        raise ParameterError(f"lambda must be >= 1, got {p.lam}")
    if p.s_coeff < 1.0:
        raise ParameterError(f"s coefficient must be >= 1, got {p.s_coeff}")
    # the weight numerator holds e^{2 lambda m}, and m_threshold, which every
    # admissible m exceeds, is above 1 and holds e^lambda
    if not 2 * p.lam * max(p.m, 1.0) < LOG_FLOAT_MAX:
        raise ParameterError(
            f"lambda = {p.lam}, m = {p.m}: e^(2 lambda max(m, 1)) overflows "
            f"a double; need 2 lambda max(m, 1) < {LOG_FLOAT_MAX:.2f}")
    thr = m_threshold(p.lam)
    if not p.m > thr:
        raise ParameterError(
            f"m={p.m} too small: the beta_hat < 1.25*beta_check condition "
            f"needs m > log(5 e^lambda - 4)/lambda = {thr:.6f}",
            threshold=thr)
    try:
        s = p.s_coeff * (horizon + horizon**2)
    except OverflowError:
        s = math.inf
    if s < 1.0:
        raise ParameterError(f"s = {s} must be >= 1")
    if s == math.inf:
        raise ParameterError(
            f"s = s_coeff (T + T^2) overflows a double at T = {horizon}, "
            f"s_coeff = {p.s_coeff}")
    return ValidatedParams(lam=p.lam, m=p.m, s=s, s_coeff=p.s_coeff,
                           m_threshold=thr)


# --- weight tables ----------------------------------------------------------

def ell_value(t, horizon: float):
    t = np.asarray(t, dtype=float)
    return np.where(t <= horizon / 2, t * (horizon - t), horizon**2 / 4)


def ell_prime(t, horizon: float):
    t = np.asarray(t, dtype=float)
    return np.where(t <= horizon / 2, horizon - 2 * t, 0.0)


@dataclass
class WeightTables:
    params: ValidatedParams
    t_mid: np.ndarray                 # (M,)
    ell: np.ndarray                   # (M,)
    gamma: np.ndarray                 # (M,)
    beta_hat: np.ndarray
    beta_check: np.ndarray
    log_mu: np.ndarray                # (M,)
    log_mu_k: np.ndarray              # (6, M): mu0..mu5
    log_alpha: np.ndarray             # (M, N+1)
    log_xi: np.ndarray
    log_beta: np.ndarray
    log_zeta: np.ndarray
    n_live: int = 0                   # cells where mu0^{-2} survives underflow

    def inv_sq(self, k: int) -> np.ndarray:
        """mu_k^{-2} per cell; exact 0 below the e^{-700} underflow cut."""
        lw = -2.0 * self.log_mu_k[k]
        out = np.where(lw <= LOG_UNDERFLOW, 0.0, np.exp(np.maximum(lw, LOG_UNDERFLOW)))
        return out

    @cached_property
    def carleman_log_weights(self) -> dict:
        """The prepared log-weights of the alpha functional ("I"), the beta
        functional ("Jw"), keyed by component, and of the right-hand sides
        of `empirical_carleman_check` ("rhs_I", "rhs_J", in term order)."""
        s, lam = self.params.s, self.params.lam
        la, lx, lb = self.log_alpha, self.log_xi, self.log_beta
        la_face = 0.5 * (la[:, 1:] + la[:, :-1])
        lx_face = 0.5 * (lx[:, 1:] + lx[:, :-1])
        lb_face = 0.5 * (lb[:, 1:] + lb[:, :-1])
        la_G, lx_G = la[:, [0, -1]], lx[:, [0, -1]]
        log_s = math.log(s)
        lell = np.log(self.ell)[:, None]
        ea, ea_G = -2 * s * np.exp(la), -2 * s * np.exp(la_G)
        eb, eb_G = -2 * s * np.exp(lb), -2 * s * np.exp(lb[:, [0, -1]])

        W = LogWeight
        w_It, w_Jt = W(ea - log_s - lx), W(eb + lell)
        w_ea_G, w_eb_G, w_Jv = W(ea_G), W(eb_G), W(eb - 3 * lell)
        return {
            "I": {"bulk_time_deriv": w_It, "bulk_laplacian": w_It,
                  "bulk_gradient": W(-2 * s * np.exp(la_face)
                                     + math.log(lam**2 * s) + lx_face),
                  "bulk_value": W(ea + math.log(lam**4 * s**3) + 3 * lx),
                  "surface_time_deriv": W(ea_G - log_s - lx_G),
                  "surface_value": W(ea_G + math.log(lam**3 * s**3) + 3 * lx_G),
                  "normal_derivative": W(ea_G + math.log(lam * s) + lx_G)},
            "Jw": {"bulk_time_deriv": w_Jt, "bulk_laplacian": w_Jt,
                   "bulk_gradient": W(-2 * s * np.exp(lb_face) - lell),
                   "bulk_value": w_Jv,
                   "surface_time_deriv": W(eb_G + lell),
                   "surface_value": W(eb_G - 3 * lell),
                   "normal_derivative": W(eb_G - lell)},
            "rhs_I": (W(ea + math.log(s**7 * lam**8) + 7 * lx),
                      W(ea + math.log(s**3 * lam**4) + 3 * lx), W(ea),
                      w_ea_G, w_ea_G),
            "rhs_J": (W(eb - 7 * lell), w_Jv, W(eb), w_eb_G, w_eb_G),
        }


# a large lambda overflows the tables; the beta_hat and n_live checks report it
@np.errstate(over="ignore")
def build_weight_tables(grid: SpatialGrid, time_grid: TimeGrid, eta: EtaProfile,
                        params: ValidatedParams, min_live_cells: int = 8) -> WeightTables:
    lam, m, s = params.lam, params.m, params.s
    T = time_grid.horizon
    tm = time_grid.midpoints
    tT = tm * (T - tm)
    ell = ell_value(tm, T)
    log_ell = np.log(ell)

    # numerators: K(x) = e^{2 lam m} - e^{lam (m + eta)}, positive since m > 1 >= eta
    expo = lam * (m + eta.values)                      # (N+1,)
    K = math.exp(2 * lam * m) - np.exp(expo)
    if K.min() <= 0:
        raise ParameterError("weight numerator must be positive; check m > 1")
    log_K = np.log(K)

    log_alpha = log_K[None, :] - np.log(tT)[:, None]
    log_xi = expo[None, :] - np.log(tT)[:, None]
    log_beta = log_K[None, :] - log_ell[:, None]
    log_zeta = expo[None, :] - log_ell[:, None]

    beta_hat = K.max() / ell
    beta_check = K.min() / ell
    if not np.all(beta_hat < 1.25 * beta_check):
        raise ParameterError("beta_hat < (5/4) beta_check failed; increase m")
    gamma = beta_hat / 5.0

    log_mu = 5 * s * gamma + 1.5 * log_ell
    log_mu_k = np.empty((6, tm.size))
    log_mu_k[0] = 4 * s * gamma + 1.5 * log_ell
    log_mu_k[1] = log_mu_k[0] + 2 * log_ell
    for k in range(2, 6):
        log_mu_k[k] = 3 * s * gamma + (2 * k + 9) / 2 * log_ell

    tables = WeightTables(params=params, t_mid=tm, ell=ell, gamma=gamma,
                          beta_hat=beta_hat, beta_check=beta_check,
                          log_mu=log_mu, log_mu_k=log_mu_k,
                          log_alpha=log_alpha, log_xi=log_xi,
                          log_beta=log_beta, log_zeta=log_zeta)
    tables.n_live = int(np.count_nonzero(tables.inv_sq(0) > 0))
    if tables.n_live < min_live_cells:
        raise ResolutionError(
            f"only {tables.n_live} time cells carry a nonzero mu0^-2 weight "
            f"(need >= {min_live_cells}); the weighted least-squares problem "
            f"degenerates.  Increase T or refine the time grid.")
    return tables


def admissible_time_profile(tables: WeightTables) -> np.ndarray:
    """Normalized profile w(t) with mu(t) w(t) constant: the critical decay
    rate making weighted source norms finite.  Peaks at 1."""
    lm = tables.log_mu
    return np.exp(lm.min() - lm)


def check_elementary_estimates(tables: WeightTables, dt: float) -> dict:
    """Empirical constants for the mu-family inequalities.

    The algebraic identity mu3 mu1^{-2} = mu^{-1} ell^2 is exact in
    log-space and must hold to 1e-12; the algebraic inequalities are
    global exponent differences.  The differential inequalities use
    centered differences on the midpoint grid, restricted to the
    weight-live window: where mu0^{-2} underflows, a time cell cannot
    resolve d/dt of exp(-C/t) and the quotient is unrepresentable (and
    unused by every weighted functional).
    """
    lm, lmk, lell = tables.log_mu, tables.log_mu_k, np.log(tables.ell)
    report = {}
    identity = lmk[3] - 2 * lmk[1] + lm - 2 * lell
    report["identity_mu3_mu1_mu_ell"] = float(np.max(np.abs(identity)))
    # near t=0 the stored logs reach 1e4+, so eps*|log| exceeds 1e-12 there;
    # the tolerance applies where the weights are resolvable
    live0 = tables.inv_sq(0) > 0
    report["identity_max_live"] = float(np.max(np.abs(identity[live0]))) \
        if np.any(live0) else math.nan

    report["C_mu0_le_mu"] = float(np.exp(np.max(lmk[0] - lm)))
    report["C_mu_le_mu5sq"] = float(np.exp(np.max(lm - 2 * lmk[5])))
    for k in range(1, 6):
        report[f"C_mu{k}_le_mu{k - 1}"] = float(np.exp(np.max(lmk[k] - lmk[k - 1])))

    live = tables.inv_sq(0) > 0
    c = slice(1, -1)
    up, dn = slice(2, None), slice(None, -2)
    ok = live[c] & live[up] & live[dn]
    report["live_cells_used"] = int(np.count_nonzero(ok))

    def centered(expo_up, expo_dn):
        vals = (np.exp(np.where(ok, expo_up, -np.inf))
                - np.exp(np.where(ok, expo_dn, -np.inf))) / (2 * dt)
        return float(np.max(np.abs(vals))) if np.any(ok) else math.nan

    # |mu3_t| <= C mu1
    report["C_mu3t_le_mu1"] = centered(lmk[3][up] - lmk[1][c],
                                       lmk[3][dn] - lmk[1][c])
    # (mu3 mu1^{-2})_t <= C mu^{-1}; log(mu3 mu1^{-2}) = -log mu + 2 log ell
    log_D = -lm + 2 * lell
    report["C_D_mu3mu1_t"] = centered(log_D[up] + lm[c], log_D[dn] + lm[c])
    # |mu_k mu_{k,t}| <= C mu_{k-1}^2 for k in 2..5
    for k in range(2, 6):
        report[f"C_mu{k}_mu{k}t"] = centered(
            lmk[k][c] + lmk[k][up] - 2 * lmk[k - 1][c],
            lmk[k][c] + lmk[k][dn] - 2 * lmk[k - 1][c])
    return report


# --- cutoff -----------------------------------------------------------------

@dataclass(frozen=True)
class ChiBump:
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def _smoothstep(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = ((6 * u - 15) * u + 10) * u**3
    d1 = ((30 * u - 60) * u + 30) * u**2
    d2 = ((120 * u - 180) * u + 60) * u
    return s, d1, d2


def build_chi(grid: SpatialGrid, masks: RegionMasks) -> ChiBump:
    """C^2 cutoff: 1 on omega3, smoothstep ramps, exactly 0 outside omega."""
    (oa, ob), (ia, ib) = masks.omega, masks.omega3
    if ia - oa < 2 * grid.h or ob - ib < 2 * grid.h:
        raise ResolutionError(
            "omega3 is not compactly inside omega at this resolution "
            f"(ramp widths {ia - oa:.4g}, {ob - ib:.4g} < 2h = {2 * grid.h:.4g})")
    x = grid.x
    val = np.zeros_like(x)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    val[(x >= ia) & (x <= ib)] = 1.0

    left = (x > oa) & (x < ia)
    u = (x[left] - oa) / (ia - oa)
    s, s1, s2 = _smoothstep(u)
    val[left], d1[left], d2[left] = s, s1 / (ia - oa), s2 / (ia - oa) ** 2

    right = (x > ib) & (x < ob)
    u = (ob - x[right]) / (ob - ib)
    s, s1, s2 = _smoothstep(u)
    val[right], d1[right], d2[right] = s, -s1 / (ob - ib), s2 / (ob - ib) ** 2
    return ChiBump(values=val, d1=d1, d2=d2)


# --- Carleman functionals ---------------------------------------------------

def _midpoint_pieces(Phi: SpaceTimeField, grid: SpatialGrid, dt: float):
    """Cell-midpoint samples of the field, its time derivative, Laplacian,
    face gradient and normal derivative (arrays indexed by cell)."""
    b, srf = Phi.bulk, Phi.surface
    b_mid = 0.5 * (b[1:] + b[:-1])
    s_mid = 0.5 * (srf[1:] + srf[:-1])
    b_t = (b[1:] - b[:-1]) / dt
    s_t = (srf[1:] - srf[:-1]) / dt
    lap = sbp_laplacian(b_mid, grid)
    gradf = grad_faces(b_mid, grid)
    dnu = normal_derivative(b_mid, grid)
    return b_mid, s_mid, b_t, s_t, lap, gradf, dnu


def _carleman_functional(which: str, Phi: SpaceTimeField, tables: WeightTables,
                         grid: SpatialGrid, dt: float) -> dict:
    if not np.allclose(Phi.bulk[:, [0, -1]], Phi.surface, rtol=0, atol=1e-12):
        raise ContractError(
            f"carleman_functional_{which} expects trace-compatible slices")
    weights = tables.carleman_log_weights[which]
    quad_b = grid.trapezoid_weights()[None, :] * dt
    b_mid, s_mid, b_t, s_t, lap, gradf, dnu = _midpoint_pieces(Phi, grid, dt)
    # the tangential surface terms are identically zero in 1D
    terms = {"bulk_time_deriv": (b_t, quad_b), "bulk_laplacian": (lap, quad_b),
             "bulk_gradient": (gradf, grid.h * dt), "bulk_value": (b_mid, quad_b),
             "surface_time_deriv": (s_t, dt),
             "surface_tangential_laplacian": None,
             "surface_tangential_gradient": None,
             "surface_value": (s_mid, dt), "normal_derivative": (dnu, dt)}
    comps = {name: -math.inf if t is None else weights[name].sq_sum(*t)
             for name, t in terms.items()}
    return {"components": comps, "log_total": log_add(*comps.values())}


def carleman_functional_I(Phi: SpaceTimeField, tables: WeightTables,
                          grid: SpatialGrid, dt: float) -> dict:
    """Alpha-weighted functional: e^{-2 s alpha} against (s xi)-power factors.

    Tangential-gradient and Laplace-Beltrami surface terms are identically
    zero in 1D and reported as -inf components.
    """
    return _carleman_functional("I", Phi, tables, grid, dt)


def carleman_functional_Jw(Phi: SpaceTimeField, tables: WeightTables,
                           grid: SpatialGrid, dt: float) -> dict:
    """Beta-weighted functional: e^{-2 s beta} against ell-power factors."""
    return _carleman_functional("Jw", Phi, tables, grid, dt)


def empirical_carleman_check(n_samples: int, tables: WeightTables,
                             grid: SpatialGrid, time_grid: TimeGrid,
                             masks: RegionMasks, adjoint_solver, rng) -> dict:
    """Solve the adjoint cascade for random smooth sources and bound both
    Carleman estimates empirically.

    `adjoint_solver(f1, g1)` must return (Phi, K) solving the adjoint
    cascade: K forward from zero data with source g1, Phi backward from
    zero terminal data with source f1 + theta*K*1_O (surface analogues).
    The returned max LHS/RHS ratios are the empirical constants; the run
    itself is the oracle and its value a regression baseline.
    """
    dt = time_grid.dt
    quad_b = grid.trapezoid_weights()[None, :] * dt
    omega3 = masks.omega3_nodes.astype(float)
    lw_I = tables.carleman_log_weights["rhs_I"]
    lw_J = tables.carleman_log_weights["rhs_J"]

    max_I, max_J = 0.0, 0.0
    for _ in range(n_samples):
        f1, g1 = _random_smooth_source(grid, time_grid, rng), _random_smooth_source(grid, time_grid, rng)
        Phi, K = adjoint_solver(f1, g1)

        lhs_I = log_add(carleman_functional_I(Phi, tables, grid, dt)["log_total"],
                        carleman_functional_I(K, tables, grid, dt)["log_total"])
        lhs_J = log_add(carleman_functional_Jw(Phi, tables, grid, dt)["log_total"],
                        carleman_functional_Jw(K, tables, grid, dt)["log_total"])

        phi_mid = 0.5 * (Phi.bulk[1:] + Phi.bulk[:-1])
        terms = ((phi_mid * omega3[None, :], quad_b),
                 (0.5 * (f1.bulk[1:] + f1.bulk[:-1]), quad_b),
                 (0.5 * (g1.bulk[1:] + g1.bulk[:-1]), quad_b),
                 (0.5 * (f1.surface[1:] + f1.surface[:-1]), dt),
                 (0.5 * (g1.surface[1:] + g1.surface[:-1]), dt))
        rhs_I = log_add(*(lw.sq_sum(v, q) for lw, (v, q) in zip(lw_I, terms)))
        rhs_J = log_add(*(lw.sq_sum(v, q) for lw, (v, q) in zip(lw_J, terms)))

        max_I = max(max_I, log_ratio(lhs_I, rhs_I))
        max_J = max(max_J, log_ratio(lhs_J, rhs_J))
    return {"max_ratio_alpha": max_I, "max_ratio_beta": max_J,
            "samples": n_samples}


def _random_smooth_source(grid: SpatialGrid, time_grid: TimeGrid, rng) -> SpaceTimeField:
    """Random low-frequency space-time field (trace-compatible)."""
    x = grid.x / grid.length
    t = time_grid.nodes / time_grid.horizon
    out = np.zeros((t.size, x.size))
    for kx in range(3):
        for kt in range(3):
            amp = rng.standard_normal() / (1 + kx + kt)
            phx, pht = rng.uniform(0, 2 * np.pi, size=2)
            out += amp * np.outer(np.cos(2 * np.pi * kt * t + pht),
                                  np.cos(np.pi * kx * x + phx))
    return SpaceTimeField.from_bulk(out)


def dump_weight_csv(tables: WeightTables, path) -> None:
    """CSV of the time-only weight profiles (17 significant digits)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "ell", "gamma", "log_mu"]
                   + [f"log_mu{k}" for k in range(6)])
        for i in range(tables.t_mid.size):
            row = [tables.t_mid[i], tables.ell[i], tables.gamma[i], tables.log_mu[i]]
            row += [tables.log_mu_k[k][i] for k in range(6)]
            w.writerow([f"{v:.17g}" for v in row])
