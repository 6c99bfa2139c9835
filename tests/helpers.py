"""Shared test oracles.

A direct SIR sum with the probe left out, independent of the library's
near/far field kernel, and a direct reception decision over every
transmitter, independent of the library's pruned batched kernel.

A Poisson-disc sampler of the ALOHA interference, independent of the
library's ordered-arrival sampler.

The alternating series for the interference CDF, in float64 with a
cancellation guard and in high precision (mpmath).  Both are independent
of the library's Kanter-integral evaluator.  The float series is a weak
oracle: it loses up to ~1e-7 under fading, and its guard can miss total
cancellation (at alpha = 6, beta = 10, r = 2 it returns 1.0 for ~6e-39).

For integer attenuation exponents gamma = 2/alpha is rational p/q, so
terms q apart are related by a polynomial factor; the high-precision sum
walks q interleaved recurrence streams and needs mp.gamma only once per
stream.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from macgeo.propagation import psi as psi_f, sample_fading

# Refuse the float series once the largest intermediate term exceeds this
# factor times the final sum.
_CONDITION_LIMIT = 1e12


class SeriesRefused(Exception):
    """The float series lost its digits to cancellation or did not
    converge."""


def _series(x: float, lam: float, gamma: float, C: float,
            max_terms: int, rel_tol: float,
            fading: str = "none", spread: float = 1.0) -> float:
    """Evaluate the alternating stable-CDF series at x.

    Terms are formed from logs (lgamma) so their size is known before
    exponentiation; the running sum uses Kahan compensation.  Raises
    :class:`SeriesRefused` when the condition number passes the guard
    or the terms fail to converge within the budget.
    """
    if not (x > 0):
        raise ValueError("signal level x must be positive")
    log_cl = math.log(C * lam)
    log_x = math.log(x)

    total = 1.0  # n = 0 term by convention
    comp = 0.0
    max_abs = 1.0
    small_streak = 0
    converged = False

    for n in range(1, max_terms + 1):
        ng = n * gamma
        # sin(pi n gamma) vanishes exactly whenever n*gamma is an integer;
        # floating-point sin() only gets within ~1e-16 of zero there, which
        # would otherwise masquerade as series convergence.
        if abs(ng - round(ng)) < 1e-9:
            continue
        s = math.sin(math.pi * ng)
        log_mag = (n * log_cl - math.lgamma(n + 1.0)
                   + math.log(abs(s)) - math.log(math.pi)
                   + math.lgamma(ng) - ng * log_x)
        if fading == "log_uniform":
            log_mag += math.log(psi_f(fading, -ng, spread))
        if log_mag > 700.0:
            raise SeriesRefused(
                "series term overflow; result lost to cancellation")
        mag = math.exp(log_mag)
        term = mag if ((n % 2 == 0) == (s > 0.0)) else -mag

        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t

        max_abs = max(max_abs, mag)
        # Converged once three successive terms sit below the tolerance
        # (one small term can be an accidental near-zero of the sine).
        if mag <= rel_tol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                converged = True
                break
        else:
            small_streak = 0

    if not converged:
        raise SeriesRefused(
            f"series did not converge within {max_terms} terms")
    if abs(total) * _CONDITION_LIMIT < max_abs:
        raise SeriesRefused(
            f"condition number {max_abs / max(abs(total), 1e-300):.3g} "
            "exceeds the cancellation guard")
    return min(1.0, max(0.0, total))


def psi_mp(fading, s, spread):
    if fading == "none":
        return mp.mpf(1)
    if fading == "log_uniform":
        a = spread * s
        if a == 0:
            return mp.mpf(1)
        return mp.sinh(a) / a
    raise ValueError(fading)


def _peak_log_term(x, lam, alpha, fading, spread, max_terms=300_000):
    """Float-side scan of ln|term_n|: (peak value, argmax n, last n)."""
    gamma = 2.0 / alpha
    psi_g = 1.0 if fading == "none" else math.sinh(spread * gamma) / (spread * gamma)
    log_cl = math.log(math.pi * psi_g * math.gamma(1.0 - gamma) * lam)
    log_x = math.log(x)
    peak, n_peak = 0.0, 0
    for n in range(1, max_terms + 1):
        ng = n * gamma
        if abs(ng - round(ng)) < 1e-9:
            continue
        lt = (n * log_cl - math.lgamma(n + 1.0) + math.lgamma(ng)
              - ng * log_x + math.log(abs(math.sin(math.pi * ng))) - math.log(math.pi))
        if fading == "log_uniform":
            a = spread * ng
            lt += (a - math.log(2.0 * a)) if a > 30.0 else math.log(math.sinh(a) / a)
        if lt > peak:
            peak, n_peak = lt, n
        if n > 2 * n_peak + 50 and lt < peak - 60.0:
            return peak, n_peak, n
    return peak, n_peak, max_terms


def mp_prob_w_below(x, lam, alpha, fading="none", spread=1.0,
                    dps=60, max_terms=200_000):
    """Arbitrary-precision sum of the success-probability series.

    Requires integer alpha (rational gamma).  Returns a float in [0, 1];
    raises ValueError when the precision cannot separate the result from
    the cancellation floor.
    """
    frac = Fraction(2, int(alpha))
    if float(frac) != 2.0 / alpha:
        raise ValueError("recurrence form needs an integer alpha")
    p_, q_ = frac.numerator, frac.denominator
    with mp.workdps(dps):
        g = mp.mpf(p_) / q_
        C = mp.pi * psi_mp(fading, g, spread) * mp.gamma(1 - g)
        A = -C * lam
        xm = mp.mpf(x)
        # Terms n = rho + k q for rho = 1..q-1 (n = 0 mod q vanish).
        # t(n+q) = t(n) * A^q * x^(-p) * prod(n gamma + j, j<p) / prod(n+j, 1<=j<=q)
        # with sin(pi n gamma) flipping sign by (-1)^p each stride.
        stride_mul = A ** q_ * xm ** (-p_) * (-1) ** p_
        efg = mp.e ** (spread * g) if fading == "log_uniform" else None

        streams = []
        for rho in range(1, q_):
            ng = rho * g
            t = (A ** rho / mp.factorial(rho) * mp.sinpi(ng) / mp.pi
                 * mp.gamma(ng) * psi_mp(fading, -ng, spread) * xm ** (-ng))
            streams.append([rho, t])

        total = mp.mpf(1)
        max_abs = mp.mpf(1)
        tol = mp.mpf(10) ** (-(dps - 10))
        streak = 0
        for _ in range(max_terms // max(1, q_ - 1) + 2):
            biggest = mp.mpf(0)
            for s in streams:
                n, t = s
                total += t
                mag = abs(t)
                biggest = max(biggest, mag)
                max_abs = max(max_abs, mag)
                # advance to n + q
                num = mp.mpf(1)
                for j in range(p_):
                    num *= n * g + j
                den = mp.mpf(1)
                for j in range(1, q_ + 1):
                    den *= n + j
                fac = stride_mul * num / den
                if fading == "log_uniform":
                    u_old = efg ** n
                    u_new = u_old * efg ** q_
                    fac *= ((u_new - 1 / u_new) / (u_old - 1 / u_old)
                            * mp.mpf(n) / (n + q_))
                s[1] = t * fac
                s[0] = n + q_
            if biggest < tol * max(abs(total), mp.mpf(10) ** -80):
                streak += 1
                if streak >= 3:
                    break
            else:
                streak = 0
        else:
            raise ValueError(f"no convergence within {max_terms} terms")
        if abs(total) < max_abs * mp.mpf(10) ** (-(dps - 15)):
            raise ValueError("insufficient precision for this cell")
        return float(min(1, max(0, total)))


def mp_oracle(x, lam, alpha, fading="none", spread=1.0, dps_cap=1200):
    """mpmath sum at a precision estimated from the peak term, or None when
    that precision would pass ``dps_cap``."""
    peak, _, n_last = _peak_log_term(x, lam, alpha, fading, spread)
    # The result sits near exp(-peak) in the alternating regime, so the
    # working precision must absorb roughly twice the peak.
    dps = int(2.2 * peak / math.log(10.0)) + 30
    for attempt in (dps, int(1.5 * dps) + 20):
        if attempt > dps_cap:
            break
        try:
            return mp_prob_w_below(x, lam, alpha, fading, spread, dps=attempt,
                                   max_terms=max(20_000, 3 * n_last))
        except ValueError:
            continue
    return None


def float_series(x, lam, alpha, fading="none", spread=1.0):
    """The float64 series, or None where it refuses."""
    g = 2.0 / alpha
    C = math.pi * psi_f(fading, g, spread) * math.gamma(1.0 - g)
    try:
        return _series(x, lam, g, C, 400, 1e-10, fading, spread)
    except SeriesRefused:
        return None


def full_sir_and_gradient(i, z, pts, alpha):
    """SIR of transmitter i at z, and its gradient, by a direct sum over
    every interferer: i is left out of the sum instead of subtracted from
    it, so nothing cancels.  Distances are normalized by the nearest
    interferer."""
    z = np.asarray(z, dtype=float)
    dx, dy = z[0] - pts[:, 0], z[1] - pts[:, 1]
    d2 = dx * dx + dy * dy
    d2i, diff_i = d2[i], np.array([dx[i], dy[i]])
    d2, dx, dy = np.delete(d2, i), np.delete(dx, i), np.delete(dy, i)
    m = d2.min()
    u = d2 / m
    q = u ** (-0.5 * alpha - 1.0)
    w = np.sum(q * u)
    dw = (-alpha / m) * np.array([q @ dx, q @ dy])
    ui = d2i / m
    g = ui ** (-0.5 * alpha)
    dg = (-alpha / m) * ui ** (-0.5 * alpha - 1.0) * diff_i
    s = g / w
    return s, (dg - s * dw) / w


def direct_decisions(rx, pts, i, alpha, betas, guard2):
    """Reception decisions of transmitter i at each receiver row of rx, one
    row of the result per beta: g >= beta * w over the full set, with
    squared distances clamped at guard2, powers normalized by the nearest
    transmitter and i left out of w.  No pruning."""
    rx = np.asarray(rx, dtype=float)
    d2 = ((rx[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    d2 = np.maximum(d2, guard2)
    u = d2 / d2.min(axis=1, keepdims=True)
    g = u[:, i] ** (-0.5 * alpha)
    w = (np.delete(u, i, axis=1) ** (-0.5 * alpha)).sum(axis=1)
    return np.array([g >= beta * w for beta in betas])


def disc_sample_w(lam, alpha, trials, rng, fading="none", spread=1.0):
    """Draw ``trials`` samples of the aggregate interference W from a
    Poisson disc of radius max(16, 16/sqrt(lam)) around the evaluation
    point, sampled radially (squared distances are uniform), plus the
    beyond-disc field's exact mean E[F] 2 pi lam R^(2-alpha)/(alpha-2).
    Fading draws one factor per interferer."""
    rng = np.random.default_rng(rng)
    R = max(16.0, 16.0 / math.sqrt(lam))
    mean_count = lam * math.pi * R * R
    tail = psi_f(fading, 1.0, spread) * 2.0 * math.pi * lam \
        * R ** (2.0 - alpha) / (alpha - 2.0)
    out = np.empty(trials)
    chunk = 8192
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        counts = rng.poisson(mean_count, m)
        total = int(counts.sum())
        contrib = rng.uniform(0.0, R * R, total) ** (-0.5 * alpha)
        if fading != "none":
            contrib *= sample_fading(fading, rng, total, spread)
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        sums = np.add.reduceat(contrib, np.minimum(offsets, total - 1))
        sums[counts == 0] = 0.0
        out[done:done + m] = sums
    return out + tail
