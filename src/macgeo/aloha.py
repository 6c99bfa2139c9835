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
u ~ U[-f, f], also scales the signal by e^u; the average over u is a
fixed Gauss-Legendre rule.

Exponential (unit-mean) fading has the exact closed form

    p = exp(-lam pi Gamma(1-gamma) Gamma(1+gamma) beta^gamma r^2),

used here as an independent cross-check of the Monte Carlo path.

The Monte Carlo oracle stays geometric, so it is independent of the
stable law it checks: each trial places the K = 128 nearest interferers
exactly from cumulative Exp(1) arrivals (the ordered-arrival or LePage
series; LePage, Woodroofe & Zinn 1981; Samorodnitsky & Taqqu 1994, 1.4)
and adds the exact conditional mean of the field beyond the K-th.  The
fluctuation it leaves out has variance E[F^2] pi lam r_K^(2-2 alpha) /
(alpha-1), about 9e-4 at alpha = 3 against a W scale of about 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedFadingError
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

# Entries evaluated together: bounds each node array at ~0.9 MB.
_CHUNK = 1024

# Gauss-Legendre rule on [-1, 1] for the log-uniform fading average.  It
# holds p to 1e-10 while the fade moves log z by at most _MAX_FADE_SHIFT
# either way (measured against mpmath up to gamma/(1-gamma) = 10).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_MAX_FADE_SHIFT = 10.0

# The optimizer searches s = C rho^2, C the no-fading constant
# (z = s^(1/(1-gamma))), over _S_BOUNDS by golden section in log rho down
# to a relative width _RHO_RTOL: about 30 evaluations.  The optimum sits at
# s in [0.4, 2.1] for alpha from 2.05 to 100 over the whole accepted
# fading range.
_S_BOUNDS = (1e-2, 1e2)
_RHO_RTOL = 1e-5
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The Monte Carlo sampler draws the MC_NEAREST nearest interferers of each
# trial exactly, _MC_CHUNK trials at a time (about 8 MB per array), and
# refuses more than MAX_TRIALS trials (0.8 GB of output).
MC_NEAREST = 128
_MC_CHUNK = 8192
MAX_TRIALS = 10 ** 8


@dataclass(frozen=True)
class SeriesParams:
    """Stable-law parameters for one (lam, beta, alpha)."""

    lam: float
    beta: float
    alpha: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError("intensity must be positive")
        if not (self.beta > 0):
            raise ValueError("SIR threshold must be positive")
        if not (self.alpha > 2):
            raise ValueError("attenuation coefficient must exceed 2")

    @property
    def gamma(self) -> float:
        return 2.0 / self.alpha

    def series_constant(self, fading: str = "none", spread: float = 1.0) -> float:
        """C = pi psi(gamma) Gamma(1 - gamma)."""
        g = self.gamma
        return math.pi * psi(fading, g, spread) * math.gamma(1.0 - g)


def _log_kanter_a(t, pi_minus_t, g):
    """log A(t), with sin(t) taken as sin(min(t, pi - t)) so that neither
    end of [0, pi] loses digits."""
    return (g / (1.0 - g) * np.log(np.sin(g * t))
            + np.log(np.sin((1.0 - g) * t))
            - np.log(np.sin(np.minimum(t, pi_minus_t))) / (1.0 - g))


def _kanter_cdf(log_z, g):
    """Pr(W < x) elementwise, from log z (see the module docstring).
    Works through _CHUNK entries at a time to bound the node arrays."""
    log_z = np.asarray(log_z, dtype=float)
    flat = log_z.ravel()
    log_a0 = g / (1.0 - g) * math.log(g) + math.log(1.0 - g)
    table = _log_kanter_a(_SPLIT_T, _SPLIT_GAP, g)
    out = np.empty_like(flat)
    for k in range(0, flat.size, _CHUNK):
        lz = flat[k:k + _CHUNK, None]
        v = np.interp(np.logaddexp(log_a0, -lz), table, _SPLIT_V)
        split, gap = np.pi / (1.0 + np.exp(-v)), np.pi / (1.0 + np.exp(v))
        total = 0.0
        for start, length, end_gap in ((0.0, split, gap), (split, gap, 0.0)):
            log_a = _log_kanter_a(start + length * _TS_LEFT,
                                  end_gap + length * _TS_RIGHT, g)
            with np.errstate(over="ignore"):
                f = np.exp(-np.exp(log_a + lz))
            total = total + length[:, 0] * (f @ _TS_WEIGHT)
        out[k:k + _CHUNK] = total / np.pi
    # The rule's weights sum to 1 within an ulp, which can lift p = 1 above.
    return np.minimum(out, 1.0).reshape(log_z.shape)


def _scalar_or_array(p):
    return float(p) if np.ndim(p) == 0 else p


def prob_w_below(x, params: SeriesParams):
    """Pr(W < x) for the no-fading Poisson interference field; ``x`` may be
    a scalar or an array."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("signal level x must be positive")
    g = params.gamma
    log_z = (math.log(params.series_constant() * params.lam)
             - g * np.log(x)) / (1.0 - g)
    return _scalar_or_array(_kanter_cdf(log_z, g))


def aloha_prob(r, params: SeriesParams, fading: str = "none",
               spread: float = 1.0):
    """Success probability of a link of length r under slotted ALOHA.

    ``r`` may be a scalar or an array.  ``fading="none"`` evaluates
    Pr(W < r^(-alpha)/beta); ``log_uniform`` uses the fading constant and
    averages over the signal fade.  Exponential fading has its own exact
    form: use :func:`aloha_prob_exponential` or the Monte Carlo path.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("link length must be positive")
    if fading == "exponential":
        raise UnsupportedFadingError(
            "exponential fading has a closed form; use "
            "aloha_prob_exponential or mc_aloha_prob")
    g = params.gamma
    log_z = (math.log(params.series_constant(fading, spread) * params.lam)
             + 2.0 * np.log(r) + g * math.log(params.beta)) / (1.0 - g)
    if fading == "none":
        return _scalar_or_array(_kanter_cdf(log_z, g))
    # A signal fade e^u scales x by e^u and z by e^(-u gamma/(1-gamma)).
    max_shift = spread * g / (1.0 - g)
    if max_shift > _MAX_FADE_SHIFT:
        raise UnsupportedFadingError(
            f"log-uniform spread {spread:g} moves log z by {max_shift:.3g}, "
            f"past the {_MAX_FADE_SHIFT:g} the fading rule resolves; "
            "use mc_aloha_prob")
    shifts = max_shift * _GL_NODES
    p = _kanter_cdf(log_z[..., None] - shifts, g) @ _GL_WEIGHTS / 2.0
    return _scalar_or_array(p)


def aloha_prob_exponential(r: float, lam: float, beta: float, alpha: float) -> float:
    """Exact success probability with exponential (unit-mean) fading on
    every link: exp(-lam pi Gamma(1-g) Gamma(1+g) beta^g r^2), g = 2/alpha."""
    g = 2.0 / alpha
    return math.exp(-lam * math.pi * math.gamma(1.0 - g) * math.gamma(1.0 + g)
                    * beta ** g * r * r)


def laplace_transform_w(theta: float, lam: float, alpha: float,
                        fading: str = "none", spread: float = 1.0) -> float:
    """E[exp(-theta W)] = exp(-pi lam psi(gamma) Gamma(1-gamma) theta^gamma)."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    if theta == 0.0:
        return 1.0
    g = 2.0 / alpha
    return math.exp(-math.pi * lam * psi(fading, g, spread)
                    * math.gamma(1.0 - g) * theta ** g)


def _pow_neg_half(d2: np.ndarray, alpha: float) -> np.ndarray:
    """d2 ** (-alpha/2) with cheap paths for the common exponents."""
    if alpha == 4.0:
        r = 1.0 / d2
        return r * r
    if alpha == 6.0:
        r = 1.0 / d2
        return r * r * r
    if alpha == 3.0:
        return 1.0 / (d2 * np.sqrt(d2))
    return d2 ** (-0.5 * alpha)


def _check_field(lam: float, alpha: float, trials: int) -> None:
    """Refuse a field or a trial count that cannot give a valid sample,
    before anything is allocated."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("intensity must be finite and positive")
    if not (math.isfinite(alpha) and alpha > 2):
        raise ValueError("attenuation coefficient must be finite and exceed 2")
    if not (1 <= trials <= MAX_TRIALS):
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")


def sample_w(lam: float, alpha: float, trials: int, rng,
             fading: str = "none", spread: float = 1.0) -> np.ndarray:
    """Draw ``trials`` samples of the aggregate interference W.

    Each trial places the MC_NEAREST nearest interferers of the Poisson
    field exactly: with cumulative Exp(1) arrivals G_1 < ... < G_K, the
    k-th nearest sits at squared distance r_k^2 = G_k / (pi lam).  Fading
    draws one factor F_k per interferer.  The field beyond r_K is again
    Poisson, so its conditional mean E[F] 2 pi lam r_K^(2-alpha)/(alpha-2)
    is added exactly:

        W = sum_k F_k r_k^(-alpha) + E[F] 2 pi lam r_K^(2-alpha)/(alpha-2).

    Truncation error: the fluctuation left out beyond r_K has variance
    E[F^2] pi lam r_K^(2-2 alpha)/(alpha-1); at alpha = 3 and K = 128 that
    is about 9e-4, against a W scale (C lam)^(alpha/2) of about 24.

    Raises ValueError unless lam is finite and positive, alpha > 2 and
    1 <= trials <= MAX_TRIALS.  The same generator state gives the same
    samples.
    """
    _check_field(lam, alpha, trials)
    rng = np.random.default_rng(rng)
    tail = psi(fading, 1.0, spread) * 2.0 * math.pi * lam / (alpha - 2.0)
    out = np.empty(trials)
    for start in range(0, trials, _MC_CHUNK):
        m = min(_MC_CHUNK, trials - start)
        r2 = np.cumsum(rng.standard_exponential((m, MC_NEAREST)), axis=1)
        r2 /= math.pi * lam
        power = _pow_neg_half(r2, alpha)
        if fading != "none":
            power *= sample_fading(fading, rng, (m, MC_NEAREST), spread)
        out[start:start + m] = (power.sum(axis=1)
                                + tail * r2[:, -1] ** (1.0 - 0.5 * alpha))
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
    _check_field(lam, model.alpha, trials)
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


@dataclass(frozen=True)
class AlohaResult:
    """Optimizer output: the maximizer of r * p and derived report values."""

    r: float
    p: float
    rp: float
    inv_rp: float


def optimize_range(params: SeriesParams, fading: str = "none",
                   spread: float = 1.0) -> AlohaResult:
    """Maximize r * p(lam, r, beta, alpha) over the link length r.

    p depends on (r, beta, lam) only through rho = r sqrt(lam)
    beta^(1/alpha), so one bounded maximization of rho * p(rho) at
    beta = lam = 1, in log rho, serves every (beta, lam):
    r* = rho* / (sqrt(lam) beta^(1/alpha)).
    """
    unit = SeriesParams(1.0, 1.0, params.alpha)
    log_c = math.log(unit.series_constant())

    def rho_p(log_rho):
        rho = math.exp(log_rho)
        return rho * aloha_prob(rho, unit, fading, spread)

    a, b = (0.5 * (math.log(s) - log_c) for s in _S_BOUNDS)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = rho_p(c), rho_p(d)
    while b - a > _RHO_RTOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = rho_p(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = rho_p(d)
    log_rho, rho_p_max = (c, fc) if fc > fd else (d, fd)
    rho = math.exp(log_rho)
    r = rho / (math.sqrt(params.lam) * params.beta ** (1.0 / params.alpha))
    p = rho_p_max / rho
    rp = r * p
    return AlohaResult(r, p, rp, 1.0 / rp if rp > 0 else math.inf)


def curve(params: SeriesParams, r_values, fading: str = "none",
          spread: float = 1.0):
    """(r, p, r*p) rows for plot export, all r evaluated in one call."""
    rs = np.asarray(r_values, dtype=float)
    ps = aloha_prob(rs, params, fading, spread)
    return [(float(r), float(p), float(r * p)) for r, p in zip(rs, ps)]
