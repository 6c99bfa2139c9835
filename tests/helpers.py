"""Shared test oracles.

A direct SIR sum with the probe left out, independent of the library's
near/far field kernel, and a direct reception decision over every
transmitter, independent of the library's pruned batched kernel.

A direct interference sum over a point set, and the homothety of a point
set; the laws behind the field kernel are checked against them.

A membership raster decided one row at a time by the batched decision,
independent of the library's block bounds.

The field raster computed one row at a time (rowwise_raster_field), each
row's squared distances built afresh in row chunks, independent of the
library's column blocks that square each x-offset once per raster; the
per-pair float operations are the same, so the two agree bit for bit.

The integer-hull lattice generator, independent of the library's per-row
clipping of that hull, and the same hull posed as one (N, 2) @ R.T + t
product, independent of the library's column pose.

The field kernel's far moments summed by running products over the whole
far set, independent of the library's blocked matrix products.

A brute lattice sum with a continuum tail, independent of the library's
Ewald-split evaluator of the large-beta range.

A Poisson-disc sampler of the ALOHA interference and a cumulative-Exp(1)
arrival sampler, both independent of the library's order-statistics
sampler, and the Laplace transform of that interference, its mean
oracle.

The alternating series for the interference CDF, in float64 with a
cancellation guard and in high precision (mpmath).  Both are independent
of the library's Kanter-integral evaluator.  The float series is a weak
oracle: it loses up to ~1e-7 under fading, and its guard can miss total
cancellation (at alpha = 6, beta = 10, r = 2 it returns 1.0 for ~6e-39).

For integer attenuation exponents gamma = 2/alpha is rational p/q, so
terms q apart are related by a polynomial factor; the high-precision sum
walks q interleaved recurrence streams and needs mp.gamma only once per
stream.

Kanter's integral under log-uniform fading as an mpmath double quadrature
over the angle t and the fade u, independent of the library's closed-form
fade average; it serves every alpha and every spread, where the series
needs integer alpha and loses its terms to the fade constant at wide
spreads.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from macgeo.aloha import MC_NEAREST
from macgeo.cli import _hop_log, _write_rows_csv
from macgeo.errors import SingularityError
from macgeo.propagation import (CHUNK, EXPANSION_ORDER, SINGULARITY_GUARD,
                                decodes, psi as psi_f, sample_fading)
from macgeo.spatial import (_EDGE_TOL, GridSpec, PointSet, _basis, _pad,
                            _pose, _rotation, gen_grid, grid_density)

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


def mp_fading_quadrature(r, beta, alpha, spread, lam=1.0, dps=15):
    """Log-uniform success probability of a link of length r:

        p = 1/(2 f pi) int_0^pi int_-f^f exp(-A(t) z e^(-u k)) du dt,

    k = gamma/(1-gamma), with Kanter's A(t) and z built with the fading
    constant.  For each t the u-integral is split where
    A(t) z e^(-u k) = 1, the edge of its double-exponential decay."""
    with mp.workdps(dps):
        f = mp.mpf(spread)
        g = 2 / mp.mpf(alpha)
        k = g / (1 - g)
        c = mp.pi * mp.sinh(f * g) / (f * g) * mp.gamma(1 - g) * lam
        log_z = (mp.log(c) + 2 * mp.log(r) + g * mp.log(beta)) / (1 - g)

        def over_u(t):
            log_az = (k * mp.log(mp.sin(g * t)) + mp.log(mp.sin((1 - g) * t))
                      - mp.log(mp.sin(t)) / (1 - g) + log_z)
            edge = log_az / k
            pts = [-f, edge, f] if -f < edge < f else [-f, f]
            return mp.quad(lambda u: mp.exp(-mp.exp(log_az - k * u)), pts)

        return float(mp.quad(over_u, [0, mp.pi / 2, mp.pi]) / (2 * f * mp.pi))


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


def rowwise_membership(i, ps, model, extent, n):
    """(xs, ys, member) of transmitter i's n x n membership raster over
    [-extent, extent]^2 around it, one decodes call per raster row."""
    zi = ps.points[i]
    step = 2.0 * extent / n
    xs = zi[0] - extent + (np.arange(n) + 0.5) * step
    ys = zi[1] - extent + (np.arange(n) + 0.5) * step
    member = np.zeros((n, n), dtype=bool)
    rx = np.empty((n, 2))
    rx[:, 0] = xs
    for iy, y in enumerate(ys):
        rx[:, 1] = y
        member[iy] = decodes(rx, ps, i, model)
    return xs, ys, member


def rowwise_raster_field(ps, alpha, extent, n, quantity="w", i=0):
    """(xs, ys, values) of the n x n field raster over [-extent, extent]^2,
    one raster row at a time: W, or the SIR of transmitter i with the
    squared distances of each receiver normalized by its nearest one.
    Each row's (cells x transmitters) squared distances are built afresh
    in chunks of CHUNK entries or fewer and clamped at the singularity
    guard; every cell's powers are summed over the whole set at once.  W
    past the float range reads inf."""
    step = 2.0 * extent / n
    xs = -extent + (np.arange(n) + 0.5) * step
    ys = xs.copy()
    pts = ps.points
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    a = -0.5 * alpha
    rows = max(1, CHUNK // max(len(pts), 1))
    vals = np.empty((n, n))
    for iy, y in enumerate(ys):
        dy2 = (y - pts[:, 1]) ** 2
        for s in range(0, n, rows):
            sl = slice(s, s + rows)
            d2 = xs[sl, None] - pts[:, 0]
            d2 *= d2
            d2 += dy2
            np.maximum(d2, guard2, out=d2)
            if quantity == "sir":
                s0 = d2.min(axis=1)
                g = (d2[:, i] / s0) ** a
                d2[:, i] = np.inf
                d2 /= s0[:, None]
                np.power(d2, a, out=d2)
                w = d2.sum(axis=1)
                with np.errstate(divide="ignore"):
                    vals[iy, sl] = np.where(w > 0, g / w, np.inf)
            else:
                with np.errstate(over="ignore"):
                    np.power(d2, a, out=d2)
                    vals[iy, sl] = d2.sum(axis=1)
    return xs, ys, vals


def hull_vectors(spec, extent):
    """Lattice vectors k @ A.T of every index k of the integer hull of the
    padded window [-extent, extent]^2 in lattice coordinates, (m, n) in
    row-major order."""
    A, _ = _basis(spec)
    R = _rotation(spec.rotation)
    t = np.asarray(spec.translation, dtype=float)
    e = extent + _pad(A, spec.d)
    corners = np.array([(-e, -e), (-e, e), (e, -e), (e, e)]) - t
    lat_corners = np.linalg.solve(A, (R.T @ corners.T))
    lo = np.floor(lat_corners.min(axis=1)).astype(int) - 1
    hi = np.ceil(lat_corners.max(axis=1)).astype(int) + 1
    m, n = np.meshgrid(np.arange(lo[0], hi[0] + 1),
                       np.arange(lo[1], hi[1] + 1), indexing="ij")
    return np.stack([m.ravel(), n.ravel()], axis=1) @ A.T


def hull_grid(spec, extent):
    """Points of the pattern inside [-extent, extent]^2: every index of the
    integer hull of the padded window in lattice coordinates, posed and
    filtered."""
    return _pose(hull_vectors(spec, extent), spec, extent)


def matmul_pose_grid(spec, extent):
    """The points of :func:`hull_grid`, each in-cell offset added to each
    hull vector and the pose taken as one (N, 2) @ R.T + t product, then
    kept when inside [-extent, extent]^2 (up to the edge tolerance)."""
    _, offs = _basis(spec)
    base = hull_vectors(spec, extent)
    pts = (base[:, None, :] + offs[None, :, :]).reshape(-1, 2)
    pts = pts @ _rotation(spec.rotation).T + np.asarray(spec.translation)
    lim = extent + _EDGE_TOL * spec.d
    return pts[(np.abs(pts[:, 0]) <= lim) & (np.abs(pts[:, 1]) <= lim)]


def running_product_expansion(x, alpha):
    """Coefficients (2, k, k) of the far sum and of its t-derivative from the
    far points' complex offsets x in units of the near radius, as the
    library's local expansion defines them: every moment summed over the
    whole far set, with running products over the points.  Overwrites x."""
    k = EXPANSION_ORDER + 1
    r2inv = 1.0 / (x.real ** 2 + x.imag ** 2)
    inv = np.conj(x, out=x)
    inv *= r2inv
    m = np.zeros((k, k), dtype=complex)
    pk = (r2inv ** (0.5 * alpha)).astype(complex)
    v = np.empty_like(pk)
    for off in range(k):
        v[:] = pk
        for n in range(k - off):
            m[n + off, n] = v.sum()
            v *= r2inv
        pk *= inv
    m += np.tril(m, -1).conj().T
    c = np.ones(k)
    for j in range(1, k):
        c[j] = c[j - 1] * (0.5 * alpha + j - 1) / j
    coef = np.zeros((2, k, k), dtype=complex)
    coef[0] = c[:, None] * m * c[None, :]
    coef[1, :-1] = coef[0, 1:] * np.arange(1, k)[:, None]
    return coef


def brute_lattice_sum(spec, alphas):
    """{alpha: (I, tail)} for the interference I = sum' |z|^(-alpha) at the
    origin of the unit-density pattern: every point within R = max(200, 100
    cell diameters) summed directly, the rest by its continuum estimate
    tail = 2 pi R^(2-alpha)/(alpha-2), which also bounds the error of I."""
    d = spec.d * math.sqrt(grid_density(spec))
    unit = GridSpec(spec.kind, d, spec.k1, spec.k2)
    R = max(200.0, 100.0 * d * max(1.0, spec.k2))
    pts = gen_grid(unit, R * 1.02).points
    d2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    d2 = d2[(d2 > 1e-18) & (d2 <= R * R)]
    out = {}
    for alpha in alphas:
        tail = 2.0 * math.pi * R ** (2.0 - alpha) / (alpha - 2.0)
        out[alpha] = (float(np.sum(d2 ** (-0.5 * alpha))) + tail, tail)
    return out


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


def arrival_sample_w(lam, alpha, trials, rng, fading="none", spread=1.0):
    """Draw ``trials`` samples of the aggregate interference W from the
    MC_NEAREST nearest interferers placed by cumulative Exp(1) arrivals,
    r_k^2 = (E_1 + ... + E_k) / (pi lam), one fading factor per
    interferer, plus the beyond-r_K field's exact mean
    E[F] 2 pi lam r_K^(2-alpha)/(alpha-2)."""
    rng = np.random.default_rng(rng)
    tail = psi_f(fading, 1.0, spread) * 2.0 * math.pi * lam / (alpha - 2.0)
    out = np.empty(trials)
    chunk = 8192
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        r2 = np.cumsum(rng.standard_exponential((MC_NEAREST, m)), axis=0)
        r2 /= math.pi * lam
        power = r2 ** (-0.5 * alpha)
        if fading != "none":
            power *= sample_fading(fading, rng, (MC_NEAREST, m), spread)
        out[done:done + m] = (power.sum(axis=0)
                              + tail * r2[-1] ** (1.0 - 0.5 * alpha))
    return out


def interference(rx, ps, exclude, alpha):
    """Aggregate interference sum_j ||rx - z_j||^(-alpha) over the set,
    summed directly.  ``exclude`` drops one transmitter index (None keeps
    all)."""
    pts = ps.points
    if exclude is not None:
        pts = np.delete(pts, exclude, axis=0)
    if pts.size == 0:
        return 0.0
    diff = pts - np.asarray(rx, dtype=float).reshape(2)
    d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    if d2.min() < (SINGULARITY_GUARD * ps.scale) ** 2:
        raise SingularityError(
            f"evaluation point within {SINGULARITY_GUARD:g} * scale of a transmitter")
    return float(np.sum(d2 ** (-0.5 * alpha)))


def rescale(ps, factor):
    """Homothety: coordinates scale by ``factor``, intensity by 1/factor^2."""
    if not (factor > 0):
        raise ValueError("scale factor must be positive")
    return PointSet(ps.points * factor, ps.density / factor**2,
                    ps.extent * factor)


def laplace_transform_w(theta, lam, alpha, fading="none", spread=1.0):
    """E[exp(-theta W)] = exp(-pi lam psi(gamma) Gamma(1-gamma) theta^gamma)."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    if theta == 0.0:
        return 1.0
    g = 2.0 / alpha
    return math.exp(-math.pi * lam * psi_f(fading, g, spread)
                    * math.gamma(1.0 - g) * theta ** g)


def write_hop_log(packets, path):
    """A simulation's hop log, written as ``macgeo simulate`` writes it."""
    _write_rows_csv(path, *_hop_log(packets))
