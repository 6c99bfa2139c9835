"""Channel gain, aggregate interference, SIR and fading models.

Power-law propagation: the gain between a transmitter at z_j and a
receiver at z is F / ||z - z_j||^alpha with alpha > 2.  Transmit power is
unity and background noise is zero throughout, so reception is governed by
the signal-to-interference ratio alone.

Two random fading models are provided next to the deterministic one:

* ``log_uniform`` -- F = e^u with u ~ Uniform[-f, +f]; bounded, mean
  sinh(f)/f, and all moments finite.
* ``exponential`` -- F ~ Exp(mean 1); the usual Rayleigh-power model.

The names overlap in the literature: "Rayleigh fading" sometimes denotes
the exponential power model (used by the closed-form product for lattice
schemes) and sometimes the bounded e^u model (used for the ALOHA series
plots).  Both are exposed and each analytic routine states which one it
requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergentMomentError, FloatRangeError,
                     SingularityError, UnsupportedFadingError)
from .spatial import PointSet, check_budget, check_evals

FADING_KINDS = ("none", "log_uniform", "exponential")

# log of the largest float64.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# Evaluation closer than this (relative to the set's characteristic
# spacing) to any transmitter is treated as a singularity.
SINGULARITY_GUARD = 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Propagation parameters, checked here and nowhere else: finite
    attenuation alpha > 2, SIR threshold beta >= 0, and the fading model
    (``spread`` > 0 is the half-width f of log-uniform fading; ignored
    otherwise, but finite).  Noise is 0 and transmit power 1."""

    alpha: float
    beta: float
    fading: str = "none"
    spread: float = 1.0

    def __post_init__(self):
        if not (2 < self.alpha < math.inf):
            raise ValueError("attenuation alpha must be finite and exceed 2")
        if not (0 <= self.beta < math.inf):
            raise ValueError("SIR threshold beta must be finite and >= 0")
        if self.fading not in FADING_KINDS:
            raise ValueError(f"unknown fading model {self.fading!r}")
        if not (0 < self.spread < math.inf):
            raise ValueError("fading spread must be finite and positive")

    @property
    def gamma(self) -> float:
        """Stability index 2/alpha of the interference field."""
        return 2.0 / self.alpha


# Near/far split of the field kernel, in units of the set's scale.
# Transmitters within NEAR_RADIUS of the probe are summed exactly; the
# rest enter through a local expansion of order EXPANSION_ORDER about the
# probe.  For queries within VALID_RADIUS of the probe its truncation
# error is of order (VALID_RADIUS / NEAR_RADIUS)^(EXPANSION_ORDER + 1)
# times the far share of the interference; farther queries sum all points.
# Where the attenuation makes every point past a smaller radius worth less
# than 2^-NEGLIGIBLE_BITS of the sum (see Field), only that radius is
# summed and no far term is built.
NEAR_RADIUS = 20.0
EXPANSION_ORDER = 6
VALID_RADIUS = 1.0
NEGLIGIBLE_BITS = 64
# Powers 0..EXPANSION_ORDER of the expansion variable, taken in one call.
_POWERS = np.arange(EXPANSION_ORDER + 1)


# Far points per block of the moment sums.  A block's (k, B) powers of
# rho and (B, k) complex powers of z take about 0.7 MB, within a core's L2
# cache; one small matrix product then adds the block to the moments.
_BLOCK = 4096


def _local_expansion(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Coefficients of the far sum and of its t-derivative, shape (2, k, k)
    with k = EXPANSION_ORDER + 1, from the far points' offsets x + iy from
    the probe in units of the near radius (so x^2 + y^2 > 1).

    sum_j |x_j - t|^-alpha = sum_mn A_mn t^m conj(t)^n.  With
    |x|^-a = x^(-a/2) conj(x)^(-a/2) and the binomial series of
    (1 - t/x)^(-a/2), A_mn = c_m c_n M_mn, where c_m = (a/2)_m / m! and
    M_mn = sum_j |x_j|^-a x_j^-m conj(x_j)^-n; every term is at most 1.
    With z = 1/x, rho = |z|^2 and w = rho^(a/2), M_(q+n)n = sum_j rho_j^n
    w_j z_j^q for the lower triangle m = q + n >= n: one block of _BLOCK
    points at a time, the (k, B) powers rho^n times the (B, k) powers
    w z^q, all read as real (the complex columns as pairs of reals).  A is
    Hermitian.  The second matrix D holds D_mn = (m+1) A_(m+1)n (its last
    row 0), so that with the powers p = t^(0..k-1), p.(A conj p) is the sum
    and p.(D conj p) its d/dt.
    """
    k = EXPANSION_ORDER + 1
    acc = np.zeros((k, 2 * k))
    rho_n = np.empty((k, _BLOCK))
    rho_n[0] = 1.0
    wz = np.empty((_BLOCK, k), dtype=complex)
    for s in range(0, len(x), _BLOCK):
        xb, yb = x[s:s + _BLOCK], y[s:s + _BLOCK]
        b = len(xb)
        rho = np.multiply(xb, xb)
        rho += yb * yb
        np.divide(1.0, rho, out=rho)
        z = np.empty(b, dtype=complex)
        np.multiply(xb, rho, out=z.real)
        np.multiply(yb, rho, out=z.imag)
        np.conjugate(z, out=z)
        rb, cb = rho_n[:, :b], wz[:b]
        for n in range(1, k):
            np.multiply(rb[n - 1], rho, out=rb[n])
        cb[:, 0] = np.power(rho, 0.5 * alpha, out=rho)
        for q in range(1, k):
            np.multiply(cb[:, q - 1], z, out=cb[:, q])
        acc += rb @ cb.view(float)
    # acc[n, q] (as complex) is M_(q+n)n.
    lo_m, lo_n = np.tril_indices(k)
    m = np.zeros((k, k), dtype=complex)
    m[lo_m, lo_n] = acc.view(complex)[lo_n, lo_m - lo_n]
    m += np.tril(m, -1).conj().T
    c = np.ones(k)
    for j in range(1, k):
        c[j] = c[j - 1] * (0.5 * alpha + j - 1) / j
    coef = np.zeros((2, k, k), dtype=complex)
    coef[0] = c[:, None] * m * c[None, :]
    coef[1, :-1] = coef[0, 1:] * _POWERS[1:, None]
    return coef


class Field:
    """SIR of transmitter i over a point set, built once per (set, i, alpha).

    Interferers within the near radius of the probe are summed exactly on
    every query.  With V = ``VALID_RADIUS * scale``, d1 the probe's
    nearest-interferer distance and N the interferers, every valid query
    (within V of the probe) has a term of at least (d1 + V)^-alpha, and a
    point past R lies at least R - V from it.  So past
    R = V + (d1 + V) (N 2^NEGLIGIBLE_BITS)^(1/alpha) the rest of the set
    adds less than 2^-NEGLIGIBLE_BITS of the sum.  Where R is below
    ``NEAR_RADIUS * scale`` (high alpha), R is the near radius and ``coef``
    is None: no far term.  Otherwise the near radius is
    ``NEAR_RADIUS * scale`` and the others enter through a local expansion
    about the probe, ``coef``, built here in one pass.  Queries farther
    than V from the probe take the exact path, the same formula over every
    interferer with no far term; ``exact_queries`` counts them.  Distances
    are normalized by the nearest-transmitter distance (the ratio is
    invariant), so alpha = 100 stays in range, and the probe is never part
    of the interference sum, so nothing cancels.

    Both point sets are held as contiguous x and y columns, so a query is
    one pass of whole-column operations, with no per-point loop and no
    (K, 2) temporaries.  Each path writes into scratch rows of its own,
    so a query allocates no array of the set's length.
    """

    def __init__(self, ps: PointSet, i: int, alpha: float):
        self.ps, self.i, self.alpha = ps, i, alpha
        self.center = ps.points[i]
        self.order = EXPANSION_ORDER
        self.exact_queries = 0
        self._cx, self._cy = self.center.tolist()
        # Every interferer as contiguous x and y rows, the probe left out.
        pts = ps.points
        xy = np.empty((2, len(pts) - 1))
        xy[:, :i] = pts[:i].T
        xy[:, i:] = pts[i + 1:].T
        px, py = self._interferers = xy[0], xy[1]
        d2 = np.subtract(px, self._cx)
        d2 *= d2
        dy2 = np.subtract(py, self._cy)
        dy2 *= dy2
        d2 += dy2
        valid = VALID_RADIUS * ps.scale
        reach = valid + ((math.sqrt(d2.min(initial=math.inf)) + valid)
                         * (len(px) * 2.0 ** NEGLIGIBLE_BITS) ** (1.0 / alpha))
        # With no interferer reach is NaN, and the split (with nothing in
        # it) is kept.
        split = not reach < NEAR_RADIUS * ps.scale
        self._radius = NEAR_RADIUS * ps.scale if split else reach
        near = d2 <= self._radius ** 2
        # Both full-length temporaries end here, after the mask.  Freed
        # before it, they left the heap so that each default-window build
        # in a loop of grid-range jobs faulted about 2 200 pages back in.
        del d2, dy2
        self._near = px[near], py[near]
        self.near_points = len(self._near[0])
        # Scratch rows (dx, dy, d2, q) of each query path; the exact path's
        # are made on its first query.
        self._near_buf = tuple(np.empty((4, self.near_points)))
        self._exact_buf = None
        self.coef = None
        if split:
            far = np.logical_not(near, out=near)
            x, y = px[far], py[far]
            x -= self._cx
            x /= self._radius
            y -= self._cy
            y /= self._radius
            if len(x):
                self.coef = _local_expansion(x, y, alpha)
        self._valid2 = valid ** 2
        self._guard2 = (SINGULARITY_GUARD * ps.scale) ** 2

    def at(self, x: float, y: float):
        """(S, dS/dx, dS/dy) of the probe at the point (x, y), as floats.

        Returns ``(inf, 0, 0)`` when the interference is zero: no
        interferers, or an SIR beyond the float range.  Raises
        :class:`SingularityError` on top of a transmitter.
        """
        hx, hy = x - self._cx, y - self._cy
        hi2 = hx * hx + hy * hy
        if hi2 <= self._valid2:
            (px, py), coef, buf = self._near, self.coef, self._near_buf
        else:
            (px, py), coef = self._interferers, None
            self.exact_queries += 1
            if self._exact_buf is None:
                self._exact_buf = tuple(np.empty((4, len(px))))
            buf = self._exact_buf
        # Bare ufunc calls with positional outputs, the path's own scratch
        # rows: at ~1 300 near points the call overhead is most of the
        # cost, and a fresh array of a large window's length would be
        # mapped and faulted in on every call.
        dx, dy, d2, q = buf
        np.subtract(x, px, dx)
        np.subtract(y, py, dy)
        np.multiply(dx, dx, d2)
        np.multiply(dy, dy, q)
        np.add(d2, q, d2)
        s0 = min(hi2, float(np.minimum.reduce(d2))) if d2.size else hi2
        if s0 < self._guard2:
            raise SingularityError("evaluation on top of a transmitter")
        a = self.alpha
        u = np.divide(d2, s0, d2)
        np.power(u, -0.5 * a - 1.0, q)
        w = float(q.dot(u))
        c = -a / s0
        dwx, dwy = c * float(q.dot(dx)), c * float(q.dot(dy))
        if coef is not None:
            # The far term and its d/dt; for real F, grad_h F is
            # (2/R)(Re, -Im) of the latter.
            tp = (complex(hx, hy) / self._radius) ** _POWERS
            far, dfdt = coef.dot(tp.conj()).dot(tp).tolist()
            scale = (s0 / self._radius ** 2) ** (0.5 * a)
            w += scale * far.real
            dwx += scale * (2.0 / self._radius * dfdt.real)
            dwy += scale * (2.0 / self._radius * -dfdt.imag)
        if w == 0.0:
            return math.inf, 0.0, 0.0
        ui = hi2 / s0
        g = ui ** (-0.5 * a)
        s = g / w
        c = (-a / s0) * (g / ui)
        return s, (c * hx - s * dwx) / w, (c * hy - s * dwy) / w

    def sir_and_gradient(self, rx):
        """(SIR, gradient array) of the probe at rx, a 2-sequence or a
        (1, 2) array (see :meth:`at`)."""
        s, gx, gy = self.at(*np.asarray(rx, dtype=float).reshape(2).tolist())
        return s, np.array((gx, gy))


def sir(i: int, rx, ps: PointSet, alpha: float) -> float:
    """SIR of transmitter i at rx (see :class:`Field`)."""
    return Field(ps, i, alpha).sir_and_gradient(rx)[0]


def sir_and_gradient(i: int, rx, ps: PointSet, alpha: float):
    """(SIR, gradient) of transmitter i at rx (see :class:`Field`)."""
    return Field(ps, i, alpha).sir_and_gradient(rx)


# Batched reception decision: one pruning pass, then the full sum.
#
# Decoding needs g_i >= beta * sum_j g_j >= beta * g_j for every interferer
# j, so a receiver where one interferer alone beats the signal fails
# whatever the rest of the set adds.  With a and b the squared distances
# from the receiver to x_i and to x_j, clamped at the singularity guard, j
# alone wins when a > c2 b, c2 = beta^(-2/alpha): past the Apollonius
# circle of the pair, which at beta = 1 is their bisector, so that for
# beta >= 1 every decoder lies in i's Voronoi cell (Baccelli &
# Blaszczyszyn, Stochastic Geometry and Wireless Networks, 2009).  The pass
# tries i's DECODE_NEIGHBORS nearest transmitters; any subset of the
# interferers leaves the decision exact.  A receiver within the guard of i
# has a = G <= b and is never refused, and beta = 0 refuses nothing.
#
# A refusal must win by the relative DECODE_MARGIN, a - c2 b > margin
# (a + c2 b), and every receiver left takes the full sum, so the result is
# the full sum's decision.  a and b are the full sum's own clamped squared
# distances, bit for bit (_squared_distances).  The full sum takes them to
# the power alpha/2, which scales their relative rounding (and that of c2)
# by alpha/2; the margin, about 2 DECODE_MARGIN on a/b, scales the same way
# and stays far above it at any alpha.  Where the nearest transmitter is
# not i, its normalized term 1 in the sum also covers the rounding of
# subnormal powers.  The comparison is false on a NaN or an inf, which
# therefore refuse nothing.
#
# Every (receivers x transmitters) array is built CHUNK entries or fewer at
# a time (_chunks), so memory stays bounded for any window; blocks of
# 512 KiB also keep the arithmetic on them closer to the cache than larger
# ones.
DECODE_NEIGHBORS = 12
DECODE_MARGIN = 1e-12
CHUNK = 1 << 16
# First block of rows that first_decoder decides; each later block
# doubles.
FIRST_BLOCK = 8


@dataclass
class DecodeCounts:
    """Receivers decided by :func:`decodes`, accumulated over calls:
    ``pruned`` by a single interferer, the rest by the full sum."""

    rows: int = 0
    pruned: int = 0

    @property
    def full(self) -> int:
        return self.rows - self.pruned


def _chunks(rows: int, width: int):
    """Row slices of a (rows, width) array, CHUNK entries or fewer each
    (one row at least)."""
    step = max(1, CHUNK // max(width, 1))
    return (slice(s, s + step) for s in range(0, rows, step))


def _squared_distances(rx: np.ndarray, pts: np.ndarray,
                       guard2: float) -> np.ndarray:
    """(M, N) squared distances from the receivers rx to pts, clamped at
    guard2, built in place: fresh temporaries of that size cost more than
    the arithmetic on them."""
    d2 = np.subtract.outer(rx[:, 0], pts[:, 0])
    d2 *= d2
    dy = np.subtract.outer(rx[:, 1], pts[:, 1])
    dy *= dy
    d2 += dy
    return np.maximum(d2, guard2, out=d2)


def _normalize(d2: np.ndarray, i: int, alpha: float):
    """(g, w) of each row of the clamped squared distances d2: the signal
    of column i and the interference of the rest, with squared distances
    normalized by the row's nearest one, so that extreme alpha neither
    overflows nor underflows.  d2 is overwritten."""
    a = -0.5 * alpha
    s0 = d2.min(axis=1)
    g = (d2[:, i] / s0) ** a
    d2[:, i] = np.inf
    d2 /= s0[:, None]
    np.power(d2, a, out=d2)
    return g, d2.sum(axis=1)


def _normalized_sums(rx: np.ndarray, pts: np.ndarray, i: int, alpha: float,
                     guard2: float):
    """(g, w) at each receiver of rx (see :func:`_normalize`)."""
    g = np.empty(len(rx))
    w = np.empty(len(rx))
    for sl in _chunks(len(rx), len(pts)):
        g[sl], w[sl] = _normalize(_squared_distances(rx[sl], pts, guard2), i,
                                  alpha)
    return g, w


def beaten(rx: np.ndarray, ps: PointSet, i: int,
           model: ChannelModel) -> np.ndarray:
    """Receivers of the (M, 2) array rx where one of i's DECODE_NEIGHBORS
    nearest transmitters alone provably beats the signal (see above):
    they fail whatever the other interferers add."""
    pts = ps.points
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    k = min(DECODE_NEIGHBORS, len(pts) - 1)
    if k < 1:
        return np.zeros(len(rx), dtype=bool)
    d2 = (pts[:, 0] - pts[i, 0]) ** 2 + (pts[:, 1] - pts[i, 1]) ** 2
    d2[i] = np.inf
    near = np.argpartition(d2, k - 1)[:k]
    d2 = _squared_distances(rx, pts[np.append(i, near)], guard2)
    a, c2b = d2[:, :1], d2[:, 1:]
    # c2 is inf at beta = 0 (or past the float range), and refuses nothing.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c2b *= np.float64(model.beta) ** (-2.0 / model.alpha)
        return (a - c2b > DECODE_MARGIN * (a + c2b)).any(axis=1)


def decodes(rx, ps: PointSet, i: int, model: ChannelModel,
            counts: DecodeCounts | None = None) -> np.ndarray:
    """Whether transmitter i clears beta times the interference at each
    receiver of the (M, 2) array rx (the boundary counts as success).

    Powers are normalized by the nearest-transmitter distance, so extreme
    alpha neither overflows nor underflows; distances are clamped at the
    singularity guard, so a receiver on an interferer fails; i is left out
    of the interference.  A receiver is refused before the full sum only
    where one of i's nearest transmitters alone provably beats the signal,
    so the result equals the full sum's decision everywhere.  ``counts``,
    when given, accumulates the receivers seen and refused.  Receivers
    times transmitters above MAX_EVALS raise ValueError before any sum.
    """
    rx = np.asarray(rx, dtype=float).reshape(-1, 2)
    check_evals(len(rx) * len(ps.points), "decode evaluations")
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    rows = np.flatnonzero(~beaten(rx, ps, i, model))
    out = np.zeros(len(rx), dtype=bool)
    g, w = _normalized_sums(rx[rows], ps.points, i, model.alpha, guard2)
    out[rows] = g >= model.beta * w
    if counts is not None:
        counts.rows += len(rx)
        counts.pruned += len(rx) - len(rows)
    return out


def first_decoder(rx, ps: PointSet, i: int, model: ChannelModel,
                  u: np.ndarray | None = None) -> int:
    """Index of the first row of the (M, 2) array rx that receives
    transmitter i, or -1.  Without fading (``u`` None) that is the first
    True of :func:`decodes`, bit for bit: the full sum decides every row
    as it does there, and rows that :func:`beaten` refuses fail it too, so
    a caller may drop them first.  Under exponential fading it is the
    first row whose uniform in ``u`` falls below its
    :func:`fading_success_prob`.  The rows are decided in order,
    FIRST_BLOCK first and twice as many in each next block, up to the
    first block that holds a receiver: at most twice the rows needed, plus
    FIRST_BLOCK."""
    if (u is None) != (model.fading == "none"):
        raise ValueError("first_decoder takes one uniform per row under "
                         "fading and none without")
    rx = np.asarray(rx, dtype=float).reshape(-1, 2)
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    start, size = 0, FIRST_BLOCK
    while start < len(rx):
        block = slice(start, start + size)
        if u is None:
            g, w = _normalized_sums(rx[block], ps.points, i, model.alpha,
                                    guard2)
            hit = np.flatnonzero(g >= model.beta * w)
        else:
            hit = np.flatnonzero(
                u[block] < fading_success_prob(rx[block], ps, i, model))
        if hit.size:
            return start + int(hit[0])
        start += size
        size *= 2
    return -1


def fading_success_prob(rx, ps: PointSet, i: int,
                        model: ChannelModel) -> np.ndarray:
    """Reception probability of transmitter i at each receiver of the
    (M, 2) array rx under exponential (unit-mean) fading on every link:
    prod_j 1 / (1 + beta w_j) over the interferers, w_j = (d_j / r)^(-alpha).
    Each factor is log(1 + e^x), x = log(beta w_j), split at x = 0 so that
    nothing overflows; distances are clamped, and the work budgeted, as in
    :func:`decodes`."""
    if model.fading != "exponential":
        raise UnsupportedFadingError(
            "closed-form product requires exponential fading")
    rx = np.asarray(rx, dtype=float).reshape(-1, 2)
    check_evals(len(rx) * len(ps.points), "fading evaluations")
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    log_beta = math.log(model.beta) if model.beta > 0 else -math.inf
    out = np.empty(len(rx))
    for sl in _chunks(len(rx), len(ps.points)):
        d2 = _squared_distances(rx[sl], ps.points, guard2)
        d2 /= d2[:, i, None]
        x = log_beta - 0.5 * model.alpha * np.log(d2)
        x[:, i] = -np.inf
        lp = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        out[sl] = np.exp(-lp.sum(axis=1))
    return out


def psi(fading: str, s: float, spread: float = 1.0) -> float:
    """Fractional moment E[F^s] of the fading factor.

    none         -> 1
    log_uniform  -> sinh(f s) / (f s), with the s -> 0 limit 1
    exponential  -> Gamma(1 + s), defined for s > -1 only

    Raises FloatRangeError where the moment passes the float range (from
    |f s| = 710 or s = 170); :func:`log_psi` goes on past it.
    """
    lp = log_psi(fading, s, spread)
    if lp > _LOG_FLOAT_MAX:
        raise FloatRangeError(
            f"E[F^s] at s = {s:g} passes the float range; use log_psi")
    if fading == "none":
        return 1.0
    if fading == "log_uniform":
        # sinh itself overflows before sinh(x) / x does.
        x = spread * s
        if abs(x) > 700.0:
            return math.exp(lp)
        return math.sinh(x) / x if x != 0.0 else 1.0
    return math.gamma(1.0 + s)


def log_psi(fading: str, s: float, spread: float = 1.0) -> float:
    """log E[F^s], finite wherever the moment exists; for log-uniform
    fading x - log(2x) + log1p(-e^(-2x)) with x = |f s|, which no finite
    f s overflows."""
    if fading == "none":
        return 0.0
    if fading == "log_uniform":
        x = abs(spread * s)
        if x < 1.0:
            return math.log(math.sinh(x) / x) if x != 0.0 else 0.0
        if not math.isfinite(x):
            raise FloatRangeError(f"log-uniform f s = {spread * s:g} is "
                                  "past the float range")
        return (x - math.log(2.0) - math.log(x)
                + math.log1p(-math.exp(-2.0 * x)))
    if fading == "exponential":
        if s <= -1.0:
            raise DivergentMomentError(
                f"E[F^s] diverges for exponential fading at s = {s}")
        return math.lgamma(1.0 + s)
    raise ValueError(f"unknown fading model {fading!r}")


def sample_fading(fading: str, rng, size=None, spread: float = 1.0):
    """Draw fading factors; deterministic given the generator state.

    ``rng`` may be a seed or a numpy Generator.  Returns a scalar when
    ``size`` is None.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if fading == "none":
        return 1.0 if size is None else np.ones(size)
    if fading == "log_uniform":
        u = rng.uniform(-spread, spread, size=size)
        return np.exp(u)
    if fading == "exponential":
        return rng.exponential(1.0, size=size)
    raise ValueError(f"unknown fading model {fading!r}")


def raster_field(ps: PointSet, alpha: float, extent: float, n: int,
                 quantity: str = "w", i: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the interference field W (``quantity="w"``) or the SIR of
    transmitter i (``quantity="sir"``) on an n x n sample lattice over
    [-extent, extent]^2.

    Sample points are offset half a cell so they never coincide with
    on-lattice transmitters.  W is the plain sum of the powers; a cell
    whose sum passes the float range raises :class:`FloatRangeError`.  The
    SIR leaves transmitter i out of the interference sum and normalizes
    each sample's distances by its nearest one, as :func:`decodes` does,
    so it is scale-free at any alpha; it is inf where the set has no
    interferer, and a cell whose SIR passes the float range otherwise (the
    interference underflows) raises as W does.  Returns (xs, ys, values)
    with values indexed [iy, ix].

    The columns are taken in blocks of CHUNK entries or fewer (one column
    at least).  A block's squared x-offsets to the transmitters are taken
    once; each row then adds its squared y-offsets into one reused buffer.
    """
    if quantity not in ("w", "sir"):
        raise ValueError("quantity must be 'w' or 'sir'")
    if n < 1:
        raise ValueError("the raster needs at least one cell per side")
    if not (0.0 < extent < math.inf):
        raise ValueError("the raster's half-width must be finite and positive")
    check_budget(n * n, "raster cells")
    check_evals(n * n * len(ps.points), "raster evaluations")
    step = 2.0 * extent / n
    xs = -extent + (np.arange(n) + 0.5) * step
    ys = xs.copy()
    px, py = ps.points.T
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    vals = np.empty((n, n))
    cols = min(n, max(1, CHUNK // max(len(px), 1)))
    dx2_buf, d2_buf = np.empty((cols, len(px))), np.empty((cols, len(px)))
    dy2 = np.empty(len(px))
    # Overflow and a zero interference pass the float range: refused below,
    # but for the SIR of a lone transmitter.
    with np.errstate(divide="ignore", over="ignore"):
        for sl in _chunks(n, len(px)):
            x = xs[sl]
            dx2, d2 = dx2_buf[:len(x)], d2_buf[:len(x)]
            np.subtract.outer(x, px, out=dx2)
            np.multiply(dx2, dx2, out=dx2)
            for iy, y in enumerate(ys.tolist()):
                np.subtract(y, py, out=dy2)
                np.multiply(dy2, dy2, out=dy2)
                np.add(dx2, dy2, out=d2)
                np.maximum(d2, guard2, out=d2)
                if quantity == "sir":
                    g, w = _normalize(d2, i, alpha)
                    vals[iy, sl] = g / w
                else:
                    np.power(d2, -0.5 * alpha, out=d2)
                    vals[iy, sl] = d2.sum(axis=1)
    if (quantity == "w" or len(px) > 1) and not np.isfinite(vals).all():
        raise FloatRangeError(f"{quantity.upper()} at alpha = {alpha:g} "
                              "passes the float range at some raster cell")
    return xs, ys, vals
