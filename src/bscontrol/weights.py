"""Carleman weight system: eta profile, alpha/xi/beta/zeta tables, mu family.

Everything is stored and combined in log-space.  The weight exponents
behave like C/t near t = 0 and reach several hundred in natural-log units
even at the most permissive admissible parameters, so plain doubles
overflow; sums of weighted squares are accumulated with a one-pass
log-sum-exp kernel (`LogWeight`), which enters `np.errstate` only on its
non-finite fallback, and every verification ratio is an exponent
difference.  The Carleman functionals' log-weights depend on the tables
alone, so each is prepared once per table
(`WeightTables.carleman_log_weights`) and reused for every field it weighs.
`empirical_carleman_check` draws its random sources in place as one product
of separable factors, solves its adjoint cascades in stacks of up to
`CARLEMAN_STACK_BYTES`, squares each field's midpoint pieces once for both
the alpha and the beta functional (`log_sq_sums`), and sums its observation
term over omega3's columns only.

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

from .errors import ConfigurationError, ContractError
from .geometry import (BulkSurfaceField, RegionMasks, SpatialGrid, TimeGrid,
                       face_average, grad_faces, normal_derivative,
                       sbp_laplacian, slice_sq_norms)

LOG_UNDERFLOW = -700.0  # squared inverse weights below e^{-700} become exact 0
MIN_LIVE_CELLS = 8      # fewer live mu0^-2 cells: the least-squares problem degenerates
LOG_FLOAT_MAX = math.log(sys.float_info.max)    # e^x overflows above this
ETA_KAPPA = -10.0       # eta'' at the peak, times max(c, L-c)^2
ETA_CHECK_SAMPLES = 10_000
ETA_PEAK_STEPS = 64     # omega1 is cut in this many steps for the peak search


class LogWeight:
    """A log-weight prepared for log-sum-exp sums against many coefficient
    arrays: flattened once, and its maximum `a_max` and the shifted
    exponentials `e = exp(lw - a_max)` computed on first use.

    `log_sum(b)` is the one-pass log(sum b * e) + a_max, its sum a plain
    `np.einsum` (never BLAS, whose threaded dot makes the bits depend on
    the thread count).  A non-finite result (an all -inf or a +inf weight,
    a zero or overflowing sum) falls back to the direct log sum
    b * exp(lw).  Only that fallback and the first read of a weight with a
    non-finite maximum enter `np.errstate`.
    """

    def __init__(self, log_w):
        log_w = np.asarray(log_w, dtype=float)
        self.shape = log_w.shape
        self.lw = log_w.ravel()

    @cached_property
    def _shifted(self):
        a_max = np.max(self.lw)
        if np.isfinite(a_max):
            return a_max, np.exp(self.lw - a_max)
        with np.errstate(invalid="ignore"):  # inf - inf
            return a_max, np.exp(self.lw - a_max)

    def log_sum(self, b: np.ndarray) -> float:
        """log sum b * exp(lw) with positive coefficients b; -inf for an
        empty weight."""
        if self.lw.size == 0:
            return -math.inf
        a_max, e = self._shifted
        s = np.einsum("i,i->", b, e)  # NaN when a_max is not finite
        if 0 < s < math.inf:
            # log s < 710 cannot push a finite a_max past the double range
            return float(np.log(s) + a_max)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(np.log((b * np.exp(self.lw)).sum()))


def log_sq_sums(values, quad, weights) -> np.ndarray:
    """log( sum quad * exp(lw) * values^2 ) for each prepared weight in
    `weights` and each member of a stack of values: an array
    (len(weights), B), with B = 1 for values of the weights' shape.

    The coefficients quad * values^2 and their positive entries are computed
    once for all the weights, and each sum is `LogWeight.log_sum`'s one-pass
    log(sum c * e) + a_max with its direct-sum fallback.  Entries with
    values == 0 contribute nothing, and the maximum is taken over the
    contributing entries only; an identically zero member gives -inf.  A
    member whose coefficients are all positive sums against the prepared
    weights; only the others (zeros, or a NaN) build the positive mask.
    """
    coeff = quad * values
    coeff *= values
    stack = coeff.shape[:coeff.ndim - len(weights[0].shape)]
    coeff = coeff.reshape(math.prod(stack), -1)
    positive = coeff.min(axis=1, initial=math.inf) > 0
    out = np.empty((len(weights), len(coeff)))
    for k, c in enumerate(coeff):
        if positive[k]:
            out[:, k] = [w.log_sum(c) for w in weights]
        else:
            kp = c > 0
            c = c[kp]
            out[:, k] = [LogWeight(w.lw[kp]).log_sum(c) for w in weights]
    return out


def log_weighted_sq_sum(log_w, values, quad) -> float:
    """log( sum quad * exp(log_w) * values^2 ), accumulated stably.

    `log_w`, `values`, `quad` broadcast together; entries with values == 0
    contribute nothing.  Returns -inf for an identically zero field.
    """
    lw, v, q = np.broadcast_arrays(np.asarray(log_w, dtype=float),
                                   np.asarray(values, dtype=float),
                                   np.asarray(quad, dtype=float))
    return float(log_sq_sums(v, q, (LogWeight(lw),))[0, 0])


def log_st_sq(log_w, bulk, surface, grid: SpatialGrid, dt: float) -> float:
    """log dt * sum_c w_c^2 (||bulk_c||^2 + |surface_c|^2): the weighted
    bulk-plus-surface space-time norm of cell rows, with log w_c = log_w[c].

    Node rows (width N+1) take the trapezoid weights, face rows (width N)
    the spacing h; `surface=None` sums the bulk alone.
    """
    lw = 2 * np.asarray(log_w)[:, None]
    quad = (grid.h * dt if np.shape(bulk)[-1] == grid.cell_count
            else grid.trapezoid_weights()[None, :] * dt)
    bulk_sq = log_weighted_sq_sum(lw, bulk, quad)
    if surface is None:
        return bulk_sq
    return log_add(bulk_sq, log_weighted_sq_sum(lw, surface, dt))


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
    """exp(log_num - log_den), 0 for 0/0 and inf where it overflows."""
    if log_num == -math.inf:
        return 0.0
    try:
        return math.exp(log_num - log_den)
    except OverflowError:
        return math.inf


# --- eta profile ------------------------------------------------------------

@dataclass(frozen=True)
class EtaProfile:
    values: np.ndarray
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


def _horner(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.polyval(p, u) in place, with its products and sums in its order."""
    y = np.full_like(u, p[0])  # np.polyval's 0 * u + p[0]
    for pk in p[1:]:
        y *= u
        y += pk
    return y


def build_eta(grid: SpatialGrid, masks: RegionMasks) -> EtaProfile:
    """Piecewise-quintic profile: 0 at both ends, 1 at the peak, monotone arcs.

    The peak lies in omega1, where the Carleman weights need eta's
    maximum.  It is the midpoint of omega1 when the profile peaked there
    passes its checks (for the default masks the peak is 0.5 exactly);
    otherwise the first that passes of the points lo + k (hi - lo) /
    ETA_PEAK_STEPS, k = 1 .. ETA_PEAK_STEPS - 1, nearest the midpoint
    first.  Near an end of the domain a narrow omega1 can fail at its
    midpoint and pass off it.  When no peak passes, the midpoint's
    ContractError is raised.
    """
    lo, hi = masks.omega1
    # the fractions of the way across omega1, nearest 1/2 first; the first
    # is 1/2 itself, tried as the exact midpoint
    fractions = sorted((k / ETA_PEAK_STEPS for k in range(1, ETA_PEAK_STEPS)),
                       key=lambda f: abs(f - 0.5))
    midpoint_error = None
    for c in ((lo + hi) / 2, *(lo + (hi - lo) * f for f in fractions[1:])):
        try:
            return _eta_peaked_at(grid, masks, c)
        except ContractError as exc:
            midpoint_error = midpoint_error or exc
    raise ContractError(f"{midpoint_error} with the peak at the midpoint of "
                        f"omega1, and no other peak across omega1 passes")


def _eta_peaked_at(grid: SpatialGrid, masks: RegionMasks, c: float) -> EtaProfile:
    """The profile peaked at c.  The two Hermite arcs share the second
    derivative at the peak (ETA_KAPPA / max(c, L-c)^2 in x units) so eta
    is C^2.  Monotonicity and the gradient floor outside omega1 are
    verified on ETA_CHECK_SAMPLES dense samples; violations raise a
    ContractError with the measured floor.  Each arc is evaluated on its
    own side of the peak only."""
    L = grid.length
    span = max(c, L - c)
    d2_peak = ETA_KAPPA / span**2
    # each side's arc and slope coefficients, highest power first, and dx/du
    # (a slope over -(L - c) is the negated slope over L - c to the bit)
    arcs = [(p, p[:-1] * np.arange(5, 0, -1), scale) for p, scale in
            ((_quintic_arc(d2_peak * c**2)[::-1], c),
             (_quintic_arc(d2_peak * (L - c)**2)[::-1], -(L - c)))]

    # eta at x and, with `slopes`, its slope, in one pass over the two sides
    def eval_eta(x: np.ndarray, slopes: bool = False) -> list[np.ndarray]:
        out = [np.empty_like(x) for _ in range(1 + slopes)]
        left = x <= c
        for side, u, (p, dp, scale) in zip(
                (left, ~left), (x[left] / c, (L - x[~left]) / (L - c)), arcs):
            out[0][side] = _horner(p, u)
            if slopes:
                out[1][side] = _horner(dp, u) / scale
        return out

    xs = np.linspace(0.0, L, ETA_CHECK_SAMPLES)
    vals, ders = eval_eta(xs, slopes=True)
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

    values = eval_eta(grid.x)[0]
    values[0] = values[-1] = 0.0
    return EtaProfile(values=values, floor=floor, floor_required=required)


# --- parameters -------------------------------------------------------------

@dataclass(frozen=True)
class ValidatedParams:
    lam: float
    m: float
    s: float


def m_threshold(lam: float) -> float:
    return math.log(5.0 * math.exp(lam) - 4.0) / lam


def validate_params(lam: float, m: float, s_coeff: float,
                    horizon: float) -> ValidatedParams:
    """The weight parameters, checked: lambda >= 1, s_coeff >= 1 and
    m > `m_threshold(lam)`, with e^(2 lambda max(m, 1)) and s = s_coeff
    (T + T^2) >= 1 at T = `horizon` finite doubles."""
    if lam < 1.0:
        raise ConfigurationError(f"lambda must be >= 1, got {lam}")
    if s_coeff < 1.0:
        raise ConfigurationError(f"s coefficient must be >= 1, got {s_coeff}")
    # the weight numerator holds e^{2 lambda m}, and m_threshold, which every
    # admissible m exceeds, is above 1 and holds e^lambda
    if not 2 * lam * max(m, 1.0) < LOG_FLOAT_MAX:
        raise ConfigurationError(
            f"lambda = {lam}, m = {m}: e^(2 lambda max(m, 1)) overflows "
            f"a double; need 2 lambda max(m, 1) < {LOG_FLOAT_MAX:.2f}")
    thr = m_threshold(lam)
    if not m > thr:
        raise ConfigurationError(
            f"m={m} too small: the beta_hat < 1.25*beta_check condition "
            f"needs m > log(5 e^lambda - 4)/lambda = {thr:.6f}")
    try:
        s = s_coeff * (horizon + horizon**2)
    except OverflowError:
        s = math.inf
    if s < 1.0:
        raise ConfigurationError(f"s = {s} must be >= 1")
    if s == math.inf:
        raise ConfigurationError(
            f"s = s_coeff (T + T^2) overflows a double at T = {horizon}, "
            f"s_coeff = {s_coeff}")
    return ValidatedParams(lam=lam, m=m, s=s)


# --- weight tables ----------------------------------------------------------

def ell_value(t, horizon: float):
    t = np.asarray(t, dtype=float)
    return np.where(t <= horizon / 2, t * (horizon - t), horizon**2 / 4)


@dataclass
class WeightTables:
    params: ValidatedParams
    t_mid: np.ndarray                 # (M,)
    ell: np.ndarray                   # (M,)
    gamma: np.ndarray                 # (M,)
    log_mu: np.ndarray                # (M,)
    log_mu_k: np.ndarray              # (6, M): mu0..mu5
    log_K: np.ndarray                 # (N+1,): log of the numerator K(x)
    expo: np.ndarray                  # (N+1,): lam (m + eta(x))
    log_tT: np.ndarray                # (M,): log t(T-t)

    # the (M, N+1) Carleman tables, built on first read: only the Carleman
    # functionals and their check read them, never a synthesis or a sweep
    @cached_property
    def log_alpha(self) -> np.ndarray:
        return self.log_K[None, :] - self.log_tT[:, None]

    @cached_property
    def log_xi(self) -> np.ndarray:
        return self.expo[None, :] - self.log_tT[:, None]

    @cached_property
    def log_beta(self) -> np.ndarray:
        return self.log_K[None, :] - np.log(self.ell)[:, None]

    def inv_sq(self, k: int) -> np.ndarray:
        """mu_k^{-2} per cell; exact 0 below the e^{-700} underflow cut."""
        lw = -2.0 * self.log_mu_k[k]
        out = np.where(lw <= LOG_UNDERFLOW, 0.0, np.exp(np.maximum(lw, LOG_UNDERFLOW)))
        return out

    @cached_property
    def live(self) -> np.ndarray:
        """(M,) bools: the cells where mu0^{-2} survives underflow."""
        return self.inv_sq(0) > 0

    @property
    def n_live(self) -> int:
        return int(np.count_nonzero(self.live))

    @cached_property
    def carleman_log_weights(self) -> dict:
        """The prepared log-weights of the alpha functional ("I"), the beta
        functional ("Jw"), keyed by component, and of the right-hand sides
        of `empirical_carleman_check` ("rhs_I", "rhs_J", in term order)."""
        s, lam = self.params.s, self.params.lam
        la, lx, lb = self.log_alpha, self.log_xi, self.log_beta
        la_face, lx_face, lb_face = map(face_average, (la, lx, lb))
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
                        params: ValidatedParams) -> WeightTables:
    lam, m, s = params.lam, params.m, params.s
    T = time_grid.horizon
    tm = time_grid.midpoints
    ell = ell_value(tm, T)
    log_ell = np.log(ell)

    # numerators: K(x) = e^{2 lam m} - e^{lam (m + eta)}, positive since m > 1 >= eta
    expo = lam * (m + eta.values)                      # (N+1,)
    K = math.exp(2 * lam * m) - np.exp(expo)
    if K.min() <= 0:
        raise ConfigurationError("weight numerator must be positive; check m > 1")
    log_K = np.log(K)

    beta_hat = K.max() / ell
    beta_check = K.min() / ell
    if not np.all(beta_hat < 1.25 * beta_check):
        raise ConfigurationError("beta_hat < (5/4) beta_check failed; increase m")
    gamma = beta_hat / 5.0

    log_mu = 5 * s * gamma + 1.5 * log_ell
    log_mu_k = np.empty((6, tm.size))
    log_mu_k[0] = 4 * s * gamma + 1.5 * log_ell
    log_mu_k[1] = log_mu_k[0] + 2 * log_ell
    for k in range(2, 6):
        log_mu_k[k] = 3 * s * gamma + (2 * k + 9) / 2 * log_ell

    tables = WeightTables(params=params, t_mid=tm, ell=ell, gamma=gamma,
                          log_mu=log_mu, log_mu_k=log_mu_k, log_K=log_K,
                          expo=expo, log_tT=np.log(tm * (T - tm)))
    if tables.n_live < MIN_LIVE_CELLS:
        raise ConfigurationError(
            f"only {tables.n_live} time cells carry a nonzero mu0^-2 weight "
            f"(need >= {MIN_LIVE_CELLS}); the weighted least-squares problem "
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
    live = tables.live
    report["identity_max_live"] = float(np.max(np.abs(identity[live]))) \
        if np.any(live) else math.nan

    report["C_mu0_le_mu"] = float(np.exp(np.max(lmk[0] - lm)))
    report["C_mu_le_mu5sq"] = float(np.exp(np.max(lm - 2 * lmk[5])))
    for k in range(1, 6):
        report[f"C_mu{k}_le_mu{k - 1}"] = float(np.exp(np.max(lmk[k] - lmk[k - 1])))

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

def _smoothstep(u: np.ndarray) -> np.ndarray:
    return ((6 * u - 15) * u + 10) * u**3


def build_chi(grid: SpatialGrid, masks: RegionMasks) -> np.ndarray:
    """C^2 cutoff node values: 1 on omega3, smoothstep ramps, exactly 0
    outside omega; `build_masks` makes each ramp at least 2h wide."""
    (oa, ob), (ia, ib) = masks.omega, masks.omega3
    x = grid.x
    val = np.zeros_like(x)
    val[(x >= ia) & (x <= ib)] = 1.0
    left = (x > oa) & (x < ia)
    val[left] = _smoothstep((x[left] - oa) / (ia - oa))
    right = (x > ib) & (x < ob)
    val[right] = _smoothstep((ob - x[right]) / (ob - ib))
    return val


# --- Carleman functionals ---------------------------------------------------

# the components of both functionals, in summation order; the tangential
# surface terms are identically zero in 1D
CARLEMAN_COMPONENTS = ("bulk_time_deriv", "bulk_laplacian", "bulk_gradient",
                       "bulk_value", "surface_time_deriv",
                       "surface_tangential_laplacian",
                       "surface_tangential_gradient", "surface_value",
                       "normal_derivative")

# bytes of one stacked field in `empirical_carleman_check`, which sets how
# many samples go to each `adjoint_solver` call: 8 at 64x128, 2 at 128x256,
# 1 at 256x512.  Its peak RSS grows with about six stacked fields.  On a
# 2-vCPU host, in interleaved in-process runs, a 64x128 diagnosis took
# 0.082 s in stacks of 8 against 0.093 s in stacks of 4 (the 300 kB budget),
# for 2.3 MB (3%) more peak RSS; at 128x256, 0.243 s in stacks of 2 against
# 0.299 s one at a time, for 3.1 MB (4%) more.
CARLEMAN_STACK_BYTES = 600_000


def carleman_stack(grid: SpatialGrid, time_grid: TimeGrid) -> int:
    """Samples per `adjoint_solver` call of `empirical_carleman_check`."""
    field_bytes = 8 * (time_grid.step_count + 1) * grid.n_nodes
    return max(1, CARLEMAN_STACK_BYTES // field_bytes)


def _cell_mid(a: np.ndarray) -> np.ndarray:
    """Cell-midpoint samples of slice arrays (slices on the second-last axis)."""
    return 0.5 * (a[..., 1:, :] + a[..., :-1, :])


def _midpoint_terms(Phi: BulkSurfaceField, grid: SpatialGrid, dt: float, who: str):
    """Yield (component, values, quad) of each nonzero Carleman component
    at the cell midpoints (values indexed by cell), one at a time and in
    `CARLEMAN_COMPONENTS` order; a stack of fields yields stacked values."""
    b, srf = Phi.bulk, Phi.surface
    if not np.allclose(b[..., [0, -1]], srf, rtol=0, atol=1e-12):
        raise ContractError(f"{who} expects trace-compatible slices")
    quad_b = grid.trapezoid_weights()[None, :] * dt
    b_mid = _cell_mid(b)
    yield "bulk_time_deriv", (b[..., 1:, :] - b[..., :-1, :]) / dt, quad_b
    yield "bulk_laplacian", sbp_laplacian(b_mid, grid), quad_b
    yield "bulk_gradient", grad_faces(b_mid, grid), grid.h * dt
    yield "bulk_value", b_mid, quad_b
    yield "surface_time_deriv", (srf[..., 1:, :] - srf[..., :-1, :]) / dt, dt
    yield "surface_value", _cell_mid(srf), dt
    yield "normal_derivative", normal_derivative(b_mid, grid), dt


def _carleman_functional(which: str, Phi: BulkSurfaceField, tables: WeightTables,
                         grid: SpatialGrid, dt: float) -> dict:
    weights = tables.carleman_log_weights[which]
    comps = dict.fromkeys(CARLEMAN_COMPONENTS, -math.inf)
    for name, v, q in _midpoint_terms(Phi, grid, dt, f"carleman_functional_{which}"):
        comps[name] = float(log_sq_sums(v, q, (weights[name],))[0, 0])
    return {"components": comps, "log_total": log_add(*comps.values())}


def carleman_functional_I(Phi: BulkSurfaceField, tables: WeightTables,
                          grid: SpatialGrid, dt: float) -> dict:
    """Alpha-weighted functional: e^{-2 s alpha} against (s xi)-power factors.

    Tangential-gradient and Laplace-Beltrami surface terms are identically
    zero in 1D and reported as -inf components.
    """
    return _carleman_functional("I", Phi, tables, grid, dt)


def carleman_functional_Jw(Phi: BulkSurfaceField, tables: WeightTables,
                           grid: SpatialGrid, dt: float) -> dict:
    """Beta-weighted functional: e^{-2 s beta} against ell-power factors."""
    return _carleman_functional("Jw", Phi, tables, grid, dt)


def empirical_carleman_check(n_samples: int, tables: WeightTables,
                             grid: SpatialGrid, time_grid: TimeGrid,
                             masks: RegionMasks, adjoint_solver, rng) -> dict:
    """Solve the adjoint cascade for random smooth sources and bound both
    Carleman estimates empirically.

    `adjoint_solver(f1, g1)` takes a stack of B source pairs (bulk
    (B, M+1, N+1)) and must return the stacked (Phi, K) that solve the
    adjoint cascade member by member: K forward from zero data with source
    g1, Phi backward from zero terminal data with source f1 + theta*K*1_O
    (surface analogues).  The samples go to it `carleman_stack` at a time,
    with their sources drawn in sample order (f1, then g1).  Each field's
    midpoint pieces and squared coefficients are computed once and summed
    against both the alpha and the beta weights, so every sample's ratios
    equal those of the two public functionals.  The returned max LHS/RHS
    ratios are the empirical constants; the run itself is the oracle and
    its value a regression baseline.
    """
    lws = tables.carleman_log_weights
    lhs_weights = {name: (lws["I"][name], lws["Jw"][name]) for name in lws["I"]}
    rhs_weights = tuple(zip(lws["rhs_I"], lws["rhs_J"]))
    # the observation term's weights, restricted once to omega3's columns
    obs = np.flatnonzero(masks.omega3_nodes)
    rhs_weights = (tuple(LogWeight(w.lw.reshape(w.shape)[:, obs])
                         for w in rhs_weights[0]),) + rhs_weights[1:]
    stack = min(carleman_stack(grid, time_grid), max(n_samples, 1))
    # the source stacks, allocated once: [f1 or g1, member, slice, node]
    sources = np.empty((2, stack, time_grid.step_count + 1, grid.n_nodes))
    max_I, max_J = 0.0, 0.0
    for first in range(0, n_samples, stack):
        f1, g1 = sources[:, :min(stack, n_samples - first)]
        for f, g in zip(f1, g1):
            _random_smooth_source(grid, time_grid, rng, f)
            _random_smooth_source(grid, time_grid, rng, g)
        lhs, rhs = _stack_log_sums(
            BulkSurfaceField.from_bulk(f1), BulkSurfaceField.from_bulk(g1),
            adjoint_solver, lhs_weights, rhs_weights, grid, time_grid.dt, obs)
        for k in range(len(f1)):
            lhs_I, lhs_J = (log_add(*(log_add(*field[:, j, k]) for field in lhs))
                            for j in (0, 1))
            rhs_I, rhs_J = (log_add(*rhs[:, j, k]) for j in (0, 1))
            max_I = max(max_I, log_ratio(lhs_I, rhs_I))
            max_J = max(max_J, log_ratio(lhs_J, rhs_J))
    return {"max_ratio_alpha": max_I, "max_ratio_beta": max_J,
            "samples": n_samples}


def _stack_log_sums(f1, g1, adjoint_solver, lhs_weights, rhs_weights, grid,
                    dt, obs):
    """Solve one stack of adjoint cascades and return the log sums of its
    Carleman components, (field, component, I or Jw, member) for the fields
    Phi and K, and of its right-hand side terms, (term, I or J, member),
    the observation term over the node columns `obs` alone.

    The fields live only for this call, and their pieces are made one at a
    time, so that the peak memory stays that of a few stacked fields."""
    Phi, K = adjoint_solver(f1, g1)
    quad_b = grid.trapezoid_weights()[None, :] * dt
    lhs = []
    for fld in (Phi, K):
        sums = []
        for name, v, q in _midpoint_terms(fld, grid, dt, "empirical_carleman_check"):
            sums.append(log_sq_sums(v, q, lhs_weights[name]))
            if fld is Phi and name == "bulk_value":
                phi_obs = v[..., obs]
        lhs.append(np.array(sums))
    sources = ((f1.bulk, quad_b), (g1.bulk, quad_b), (f1.surface, dt),
               (g1.surface, dt))
    rhs = [log_sq_sums(phi_obs, quad_b[:, obs], rhs_weights[0])]
    rhs += [log_sq_sums(_cell_mid(a), q, w)
            for (a, q), w in zip(sources, rhs_weights[1:])]
    return lhs, np.array(rhs)


def _random_smooth_source(grid: SpatialGrid, time_grid: TimeGrid, rng,
                          out: np.ndarray) -> None:
    """Write a random low-frequency space-time bulk field (slices x nodes)
    into `out`: the nine terms amp cos(2 pi kt t/T + pht) cos(pi kx x/L + phx),
    kx, kt < 3, with (amp, phx, pht) drawn term by term, summed as one
    product of the amplitude-scaled time factors and the space factors.
    The phases are `rng.uniform(0, 2 pi)`'s own 0 + 2 pi U, drawn in place."""
    x = grid.x / grid.length
    t = time_grid.nodes / time_grid.horizon
    kx, kt = np.divmod(np.arange(9), 3)
    draws = np.empty((9, 3))
    for row in draws:
        row[0] = rng.standard_normal()
        rng.random(out=row[1:])
    draws[:, 1:] *= 2 * np.pi
    ct = draws[:, 0] / (1 + kx + kt) * np.cos(2 * np.pi * kt * t[:, None] + draws[:, 2])
    cx = np.cos(np.pi * kx[:, None] * x + draws[:, 1, None])
    np.einsum("ik,kj->ij", ct, cx, out=out)


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
