"""Slotted-ALOHA success probability, Monte Carlo oracle and optimizer.

With simultaneous transmitters forming a uniform Poisson field of
intensity lam, the aggregate interference W at any point is a one-sided
stable random variable with Laplace transform

    E[exp(-theta W)] = exp(-C lam theta^gamma),    gamma = 2/alpha,

where C = pi Gamma(1 - gamma) without fading and C = pi psi(gamma)
Gamma(1 - gamma) with i.i.d. fading of fractional moment psi(s) = E[F^s].
Its CDF is Kanter's integral (Kanter 1975; Zolotarev 1986)

    Pr(W < x) = (1/pi) int_0^pi exp(-A(t) z) dt,
    A(t) = sin(gamma t)^(gamma/(1-gamma)) sin((1-gamma) t)
           / sin(t)^(1/(1-gamma)),
    z = (C lam)^(1/(1-gamma)) x^(-gamma/(1-gamma)),

whose integrand is positive, so no x loses digits to cancellation.  A(t)
rises from A(0) = gamma^(gamma/(1-gamma)) (1-gamma) to infinity at pi.
The integral is split where A(t) = A(0) + 1/z -- the edge of the thin
layer near pi in the upper tail and of the narrow peak at 0 in the lower
tail, in the spirit of Nolan (1997) -- and each half is a tanh-sinh rule,
whose nodes cluster at the split.

For a link of length r at SIR threshold beta, x = r^(-alpha)/beta and

    z = (C lam r^2 beta^gamma)^(1/(1-gamma)),

so the success probability depends on (r, beta, lam) only through
rho = r sqrt(lam) beta^(1/alpha).  Log-uniform fading F = e^u,
u ~ U[-f, f], also scales the signal by e^u, which moves log z uniformly
over a range of width 2w, w = f gamma/(1-gamma).  The average of
exp(-A z) over that range is the exponential-integral difference
(E1(A z0) - E1(A z0 e^2w)) / (2w), z0 the least faded z, so the fading
integral is again one Kanter integral, split at both ends of the range.

Exponential (unit-mean) fading has the exact closed form

    p = exp(-lam pi Gamma(1-gamma) Gamma(1+gamma) beta^gamma r^2),

which aloha_prob returns for it; it is also an independent cross-check
of the Monte Carlo path.

The Monte Carlo oracle stays geometric, so it is independent of the
stable law it checks: each trial places the K = 128 nearest interferers
exactly and adds the exact conditional mean of the field beyond the K-th.
Their squared distances times pi lam are the first K arrivals of a
unit-rate Poisson process (the ordered-arrival or LePage series; LePage,
Woodroofe & Zinn 1981; Samorodnitsky & Taqqu 1994, 1.4).  The K-th
arrival is one Gamma(K) draw, and given it the first K - 1 are the order
statistics of K - 1 uniforms below it (Kingman 1993; Devroye 1986, ch.
V); the interference sum ignores their order, so they are never sorted.
The fluctuation left out has variance E[F^2] pi lam r_K^(2-2 alpha) /
(alpha-1), about 9e-4 at alpha = 3 against a W scale of about 24.  The
draws are laid out trial-minor, a (K - 1, m) block of uniforms for each
chunk of m trials, so each step is one pass over the block.  The same
generator state and the same number of trials give the same samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FloatRangeError
from .propagation import ChannelModel, psi, sample_fading

# Tanh-sinh rule on [0, 1] with step 1/16: node s_k, its distance 1 - s_k
# to the right end (kept apart so that pi - t keeps its digits near pi),
# and weight.
_TS_TAU = np.arange(-52, 53) / 16.0
_TS_V = 0.5 * np.pi * np.sinh(_TS_TAU)
_TS_LEFT = 1.0 / (1.0 + np.exp(-2.0 * _TS_V))
_TS_RIGHT = 1.0 / (1.0 + np.exp(2.0 * _TS_V))
_TS_WEIGHT = np.pi / 64.0 * np.cosh(_TS_TAU) / np.cosh(_TS_V) ** 2

# The split point is read off log A tabulated at t = pi / (1 + e^-v):
# relative resolution in t near 0 and in pi - t near pi alike.
_SPLIT_V = np.linspace(-20.0, 40.0, 241)
_SPLIT_T = np.pi / (1.0 + np.exp(-_SPLIT_V))
_SPLIT_GAP = np.pi / (1.0 + np.exp(_SPLIT_V))

# Rows evaluated together: bounds each panel's node array at ~0.9 MB, and
# with a fade, whose Gauss-Laguerre sums take 40 entries a node, each
# array at ~2.5 MB through _CHUNK // 40 rows.
_CHUNK = 1024

# Log-uniform fading averages the integrand exp(-a) over a e^s, s uniform
# on [0, 2w], w = f gamma/(1-gamma):
#
#     G(a) = (1/2w) int exp(-a e^s) ds = (E1(a) - E1(b)) / (2w),  b = a e^2w.
#
# G has three forms, none of which cancels:
#   b < _SERIES_EDGE:  the entire series 1 - sum_k (-1)^(k+1) r_k b^k / k!,
#                      r_k = (1 - e^(-2kw)) / (2kw);
#   a >= _E1_EDGE:     E1(a) - E1(b) by Gauss-Laguerre, taken in one sum,
#                      e^-a d/(2w) sum_j w_j (1/(a+t_j) + q/d) / (b+t_j),
#                      d = b - a = b (1 - e^-2w), q = 1 - e^-d;
#   otherwise:         E1(a) - E1(b) as it stands (d > 1, so E1(b) < E1(a)/e).
# E1(x) is -gamma_E - ln x + Ein(x) below _E1_EDGE and the Gauss-Laguerre
# sum e^-x sum_j w_j / (x + t_j) above it: 1e-14 relative against mpmath.
# _SERIES_TERMS terms of either series leave under 1e-16 at their edges.
_E1_EDGE = 2.0
_SERIES_EDGE = 3.0
_SERIES_TERMS = 30
_LAG_T, _LAG_W = np.polynomial.laguerre.laggauss(40)
_EULER = 0.5772156649015329
_TERM_K = np.arange(1, _SERIES_TERMS + 1)
_INV_FACT = 1.0 / np.cumprod(_TERM_K.astype(float))
_EIN_COEF = -(-1.0) ** _TERM_K * _INV_FACT / _TERM_K
# Past these, e^-x is 0 in float64 and e^x would overflow; a fade shift
# w up to _MAX_SHIFT keeps every log z + 2w finite.
_LOG_UNDERFLOW = math.log(746.0)
_LOG_CAP = 700.0
_MAX_SHIFT = 1e300

# The optimizer searches s = C rho^2, C the no-fading constant
# (z = s^(1/(1-gamma))), over _S_BOUNDS by Brent's method in log rho down
# to a relative width _RHO_RTOL: about 13 evaluations.  The optimum sits at
# s in [0.4, 2.1] for alpha from 2.05 to 100 while f gamma <= 1; a wider
# log-uniform fade moves it out to about f gamma / 4 (s = 209 at f = 800,
# alpha = 2.05), so the upper end scales with f gamma there.
_S_BOUNDS = (1e-2, 1e2)
_RHO_RTOL = 1e-5
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0

# The Monte Carlo sampler draws the MC_NEAREST nearest interferers of each
# trial exactly, _MC_CHUNK trials at a time (about 8 MB per array), and
# refuses more than MAX_TRIALS trials (0.8 GB of output).
MC_NEAREST = 128
_MC_CHUNK = 8192
MAX_TRIALS = 10 ** 8


def _stable_constant(g):
    """C = pi Gamma(1 - gamma) of the no-fading field."""
    return math.pi * math.gamma(1.0 - g)


def _exponential_rate(lam, beta, g):
    """K of the exponential-fading success probability p = exp(-K r^2):
    lam pi Gamma(1 - g) Gamma(1 + g) beta^g."""
    return (lam * math.pi * math.gamma(1.0 - g) * math.gamma(1.0 + g)
            * beta ** g)


def _check_intensity(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("intensity must be finite and positive")


def _check_link(lam: float, model: ChannelModel) -> None:
    """The model is checked where it is built; beta = 0 has no finite z."""
    _check_intensity(lam)
    if not (model.beta > 0):
        raise ValueError("SIR threshold must be positive")


def _log_kanter_a(t, pi_minus_t, g):
    """log A(t), with sin(t) taken as sin(min(t, pi - t)) so that neither
    end of [0, pi] loses digits."""
    return (g / (1.0 - g) * np.log(np.sin(g * t))
            + np.log(np.sin((1.0 - g) * t))
            - np.log(np.sin(np.minimum(t, pi_minus_t))) / (1.0 - g))


def _powers(x):
    """(n, _SERIES_TERMS) array of x^k, k = 1.._SERIES_TERMS."""
    return x[:, None] ** _TERM_K


@functools.lru_cache(maxsize=64)
def _split_table(g):
    """log A at the _SPLIT_V grid, read-only (it is shared)."""
    table = _log_kanter_a(_SPLIT_T, _SPLIT_GAP, g)
    table.flags.writeable = False
    return table


def _e1_series(log_x):
    """E1(x) = -gamma_E - ln x + Ein(x) for x < _E1_EDGE, from log x so
    that x may underflow."""
    return -_EULER - log_x + _powers(np.exp(log_x)) @ _EIN_COEF


def _e1_laguerre(x):
    """E1(x) for x >= _E1_EDGE; 0 once e^-x underflows."""
    return np.exp(-x) * ((1.0 / (x[:, None] + _LAG_T)) @ _LAG_W)


def _fade_average(log_a, w):
    """G elementwise from log a (see the comment above _E1_EDGE)."""
    log_b = log_a + 2.0 * w
    out = np.zeros_like(log_a)
    series = log_b < math.log(_SERIES_EDGE)
    x = 2.0 * w * _TERM_K
    coef = -(-1.0) ** _TERM_K * (-np.expm1(-x) / x) * _INV_FACT
    out[series] = 1.0 - _powers(np.exp(log_b[series])) @ coef
    wide = ~series & (log_a < math.log(_E1_EDGE))
    b = np.exp(np.minimum(log_b[wide], _LOG_CAP))
    out[wide] = (_e1_series(log_a[wide]) - _e1_laguerre(b)) / (2.0 * w)
    near = ~series & ~wide & (log_a < _LOG_UNDERFLOW)
    a = np.exp(log_a[near])
    b = np.exp(np.minimum(log_b[near], _LOG_CAP))
    d = b * -np.expm1(-2.0 * w)
    qd = -np.expm1(-d) / d
    s = ((1.0 / (a[:, None] + _LAG_T) + qd[:, None])
         / (b[:, None] + _LAG_T)) @ _LAG_W
    out[near] = np.exp(-a) * (d / (2.0 * w)) * s
    return out


def _kanter_cdf(log_z, g, w=0.0):
    """Pr(W < x) elementwise, from log z (see the module docstring); with
    w > 0 the integrand is averaged over a fade z e^s, s uniform on
    [0, 2w].  Works through a few rows at a time to bound the node arrays
    (see _CHUNK)."""
    log_z = np.asarray(log_z, dtype=float)
    flat = log_z.ravel()
    log_a0 = g / (1.0 - g) * math.log(g) + math.log(1.0 - g)
    table = _split_table(g)
    # Split where A z - A(0) z = e^offset: 1 without a fade, e^(-2w) and 1
    # with one (the corners of G).
    offsets = np.array([0.0] if w == 0.0 else [-2.0 * w, 0.0])
    rows = _CHUNK if w == 0.0 else _CHUNK // _LAG_T.size
    out = np.empty_like(flat)
    for k in range(0, flat.size, rows):
        lz = flat[k:k + rows, None]
        v = np.interp(np.logaddexp(log_a0, offsets - lz), table, _SPLIT_V)
        split, gap = np.pi / (1.0 + np.exp(-v)), np.pi / (1.0 + np.exp(v))
        # Each panel's length from whichever end keeps its digits.
        inner = np.where(v[:, 1:] <= 0.0, split[:, 1:] - split[:, :-1],
                         gap[:, :-1] - gap[:, 1:])
        length = np.concatenate([split[:, :1], inner, gap[:, -1:]], axis=1)
        start = np.concatenate([np.zeros_like(lz), split], axis=1)
        end_gap = np.concatenate([gap, np.zeros_like(lz)], axis=1)
        log_y = _log_kanter_a(start[..., None] + length[..., None] * _TS_LEFT,
                              end_gap[..., None]
                              + length[..., None] * _TS_RIGHT, g)
        log_y += lz[..., None]
        if w == 0.0:
            with np.errstate(over="ignore"):
                f = np.exp(-np.exp(log_y))
        else:
            f = _fade_average(log_y, w)
        total = 0.0
        for j in range(offsets.size + 1):
            total = total + length[:, j] * (f[:, j] @ _TS_WEIGHT)
        out[k:k + rows] = total / np.pi
    # The rule's weights sum to 1 within an ulp, which can lift p = 1 above.
    return np.minimum(out, 1.0).reshape(log_z.shape)


def _scalar_or_array(p):
    return float(p) if np.ndim(p) == 0 else p


def prob_w_below(x, lam: float, alpha: float):
    """Pr(W < x) for the no-fading Poisson interference field of intensity
    lam; ``x`` may be a scalar or an array."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("signal level x must be positive")
    _check_intensity(lam)
    g = ChannelModel(alpha, 0.0).gamma
    log_z = (math.log(_stable_constant(g) * lam) - g * np.log(x)) / (1.0 - g)
    return _scalar_or_array(_kanter_cdf(log_z, g))


def aloha_prob(r, lam: float, model: ChannelModel):
    """Success probability of a link of length r under slotted ALOHA at
    transmitter intensity lam.

    ``r`` may be a scalar or an array.  Without fading this is
    Pr(W < r^(-alpha)/beta); ``log_uniform`` fading uses the fading
    constant and averages over the signal fade, and ``exponential``
    fading has the closed form of :func:`aloha_prob_exponential`.
    """
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0) & (r < math.inf)):
        raise ValueError("link length must be positive and finite")
    _check_link(lam, model)
    g = model.gamma
    if model.fading == "exponential":
        return _scalar_or_array(np.exp(-_exponential_rate(lam, model.beta, g)
                                       * r * r))
    log_z = (math.log(_stable_constant(g) * lam)
             + 2.0 * np.log(r) + g * math.log(model.beta)) / (1.0 - g)
    w = 0.0
    if model.fading == "log_uniform":
        # A signal fade e^u scales x by e^u and z by e^(-u gamma/(1-gamma)),
        # so the faded z runs over z0 e^s, s in [0, 2w], w = f gamma/(1-gamma).
        # The least, z0, carries psi(gamma) e^(-f gamma) = (1 - e^-2v)/(2v),
        # v = f gamma, in place of psi(gamma): no spread overflows it, and
        # log z0 keeps its digits however large w is.
        v = model.spread * g
        w = v / (1.0 - g)
        if not w <= _MAX_SHIFT:
            raise FloatRangeError(
                f"log-uniform spread {model.spread:g} moves log z by {w:.3g}, "
                f"past the {_MAX_SHIFT:g} that log z + 2w keeps finite")
        if w > 0.0:
            log_z = log_z + math.log(-math.expm1(-2 * v) / (2 * v)) / (1 - g)
    return _scalar_or_array(_kanter_cdf(log_z, g, w))


def aloha_prob_exponential(r: float, lam: float, beta: float, alpha: float) -> float:
    """Exact success probability with exponential (unit-mean) fading on
    every link: exp(-lam pi Gamma(1-g) Gamma(1+g) beta^g r^2), g = 2/alpha.

    Raises ValueError unless alpha and beta make a ChannelModel, lam is
    finite and positive and r is finite and non-negative."""
    g = ChannelModel(alpha, beta).gamma
    _check_intensity(lam)
    if not (0 <= r < math.inf):
        raise ValueError("link length must be finite and non-negative")
    return math.exp(-_exponential_rate(lam, beta, g) * r * r)


def _check_trials(lam: float, trials: int) -> None:
    """Refuse an intensity or a trial count that cannot give a valid
    sample, before anything is allocated."""
    _check_intensity(lam)
    if not (1 <= trials <= MAX_TRIALS):
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")


def sample_w(lam: float, alpha: float, trials: int, rng,
             fading: str = "none", spread: float = 1.0) -> np.ndarray:
    """Draw ``trials`` samples of the aggregate interference W.

    Each trial places the MC_NEAREST nearest interferers of the Poisson
    field exactly.  The squared distances r_k^2 = G_k / (pi lam) are the
    arrivals G_1 < ... < G_K of a unit-rate Poisson process; the K-th is
    G_K ~ Gamma(K), and given G_K the first K - 1 arrivals are the order
    statistics of K - 1 i.i.d. uniforms on (0, G_K) (Kingman 1993;
    Devroye 1986, ch. V).  W sums over the interferers in any order, so the
    uniforms are never sorted: r_k^2 = (1 - U_k) r_K^2, where 1 - U_k lies
    in (0, 1] and no trial meets a zero distance.  Fading draws one factor
    F_k per interferer.  The field beyond r_K is again Poisson, so its
    conditional mean E[F] 2 pi lam r_K^(2-alpha)/(alpha-2) is added
    exactly:

        W = sum_k F_k r_k^(-alpha) + E[F] 2 pi lam r_K^(2-alpha)/(alpha-2).

    Truncation error: the fluctuation left out beyond r_K has variance
    E[F^2] pi lam r_K^(2-2 alpha)/(alpha-1); at alpha = 3 and K = 128 that
    is about 9e-4, against a W scale (C lam)^(alpha/2) of about 24.

    The trials are taken _MC_CHUNK at a time, m in a chunk, which draws in
    this order: the m values of G_K; a (K - 1, m) block of U; under
    log-uniform or exponential fading a (K - 1, m) block of fading draws;
    the m fading factors of the K-th interferer.  The block is scaled by
    r_K^2 before the power, so r_K^-alpha is never factored out (U^-alpha/2
    alone overflows at large alpha), and the power is taken as
    exp(-alpha/2 log r_k^2), with the log-uniform exponent u_k, F_k = e^u_k,
    added inside.  The same generator state and the same ``trials`` give
    the same samples; a full chunk reads the same stream as a run of
    exactly _MC_CHUNK trials, but within a chunk ``trials`` samples are
    not a prefix of more, since each draw spans the whole chunk.

    Raises ValueError unless alpha, fading and spread make a ChannelModel,
    lam is finite and positive and 1 <= trials <= MAX_TRIALS.
    """
    ChannelModel(alpha, 0.0, fading, spread)
    _check_trials(lam, trials)
    rng = np.random.default_rng(rng)
    tail = psi(fading, 1.0, spread) * 2.0 * math.pi * lam / (alpha - 2.0)
    h = -0.5 * alpha
    out = np.empty(trials)
    for start in range(0, trials, _MC_CHUNK):
        m = min(_MC_CHUNK, trials - start)
        rk2 = rng.standard_gamma(MC_NEAREST, m) / (math.pi * lam)
        r2 = rng.random((MC_NEAREST - 1, m))
        np.subtract(1.0, r2, out=r2)
        r2 *= rk2
        np.log(r2, out=r2)
        r2 *= h
        if fading == "log_uniform":
            r2 += rng.uniform(-spread, spread, r2.shape)
        np.exp(r2, out=r2)
        if fading == "exponential":
            r2 *= rng.standard_exponential(r2.shape)
        fk = sample_fading(fading, rng, m, spread)
        out[start:start + m] = (r2.sum(axis=0) + fk * rk2 ** h
                                + tail * rk2 ** (1.0 + h))
    return out


def mc_aloha_prob(r: float, lam: float, model: ChannelModel, trials: int,
                  seed=0) -> tuple[float, float]:
    """Monte Carlo success probability of a link of length r.

    Each trial draws a fresh Poisson interferer field around the receiver
    (the probe transmitter is extra and never interferes; see
    :func:`sample_w`) plus fading on every link per the model, and tests
    the SIR condition.  Returns the success fraction and its binomial
    standard error.
    """
    _check_trials(lam, trials)
    if trials < 1000:
        raise ValueError("use at least 1000 trials")
    if not (r > 0):
        raise ValueError("link length must be positive")
    rng = np.random.default_rng(seed)
    if model.beta == 0.0:
        return 1.0, 0.0
    w = sample_w(lam, model.alpha, trials, rng, model.fading, model.spread)
    x = r ** -model.alpha / model.beta
    if model.fading == "none":
        hits = np.count_nonzero(w < x)
    else:
        f_sig = sample_fading(model.fading, rng, trials, model.spread)
        hits = np.count_nonzero(w < x * f_sig)
    p = hits / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def _brent_max(f, a, b, tol):
    """(x, f(x)) at the maximum of a unimodal f on [a, b] by Brent's method
    (Brent 1973, ch. 5): a parabola through the three best points when its
    vertex falls well inside the bracket and shortens the step, a golden
    section step otherwise.  Stops once the bracket is within 2 tol of x
    on both sides, so it is at most 4 tol wide."""
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = tol if x < mid else -tol
        else:
            e = (b if x < mid else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu


@dataclass(frozen=True)
class AlohaResult:
    """Optimizer output: the maximizer of r * p and derived report values."""

    r: float
    p: float
    rp: float
    inv_rp: float


def optimize_range(lam: float, model: ChannelModel) -> AlohaResult:
    """Maximize r * p(lam, r, beta, alpha) over the link length r.

    Under exponential fading p = exp(-K r^2) (aloha_prob_exponential), so
    r p peaks in closed form at r* = (2 K)^(-1/2), where p = e^(-1/2).
    Otherwise p depends on (r, beta, lam) only through rho = r sqrt(lam)
    beta^(1/alpha), so one bounded maximization of rho * p(rho) at
    beta = lam = 1, in log rho, serves every (beta, lam):
    r* = rho* / (sqrt(lam) beta^(1/alpha)).
    """
    _check_link(lam, model)
    if model.fading == "exponential":
        r = (2.0 * _exponential_rate(lam, model.beta, model.gamma)) ** -0.5
        return _result(r, math.exp(-0.5))
    unit = replace(model, beta=1.0)
    log_c = math.log(_stable_constant(model.gamma))

    def rho_p(log_rho):
        rho = math.exp(log_rho)
        return rho * aloha_prob(rho, 1.0, unit)

    s_lo, s_hi = _S_BOUNDS
    if model.fading == "log_uniform":
        s_hi *= max(1.0, model.spread * model.gamma)
    a, b = (0.5 * (math.log(s) - log_c) for s in (s_lo, s_hi))
    log_rho, rho_p_max = _brent_max(rho_p, a, b, _RHO_RTOL / 4.0)
    rho = math.exp(log_rho)
    r = rho / (math.sqrt(lam) * model.beta ** (1.0 / model.alpha))
    return _result(r, rho_p_max / rho)


def _result(r: float, p: float) -> AlohaResult:
    rp = r * p
    return AlohaResult(r, p, rp, 1.0 / rp if rp > 0 else math.inf)


def curve(lam: float, model: ChannelModel, r_values):
    """(r, p, r*p) rows for plot export, all r evaluated in one call."""
    rs = np.asarray(r_values, dtype=float)
    ps = aloha_prob(rs, lam, model)
    return [(float(r), float(p), float(r * p)) for r, p in zip(rs, ps)]
