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

from .errors import DivergentMomentError, SingularityError
from .spatial import PointSet

FADING_KINDS = ("none", "log_uniform", "exponential")

# Evaluation closer than this (relative to the set's characteristic
# spacing) to any transmitter is treated as a singularity.
SINGULARITY_GUARD = 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Propagation parameters: attenuation alpha > 2, SIR threshold beta,
    and the fading model (``spread`` is the half-width f of log-uniform
    fading; ignored otherwise).  Noise is 0 and transmit power 1."""

    alpha: float
    beta: float
    fading: str = "none"
    spread: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 2):
            raise ValueError("attenuation coefficient alpha must exceed 2")
        if not (self.beta >= 0):
            raise ValueError("SIR threshold beta must be non-negative")
        if self.fading not in FADING_KINDS:
            raise ValueError(f"unknown fading model {self.fading!r}")
        if self.fading == "log_uniform" and not (self.spread > 0):
            raise ValueError("log-uniform spread must be positive")

    @property
    def gamma(self) -> float:
        """Stability index 2/alpha of the interference field."""
        return 2.0 / self.alpha


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float).reshape(2)
    return a


# Near/far split of the field kernel, in units of the set's scale.
# Transmitters within NEAR_RADIUS of the probe are summed exactly; the
# rest enter through a local expansion of order EXPANSION_ORDER about the
# probe.  For queries within VALID_RADIUS of the probe its truncation
# error is of order (VALID_RADIUS / NEAR_RADIUS)^(EXPANSION_ORDER + 1)
# times the far share of the interference; farther queries sum all points.
NEAR_RADIUS = 20.0
EXPANSION_ORDER = 6
VALID_RADIUS = 1.0


def _local_expansion(x: np.ndarray, alpha: float) -> np.ndarray:
    """Coefficients A of sum_j |x_j - t|^-alpha = sum_mn A_mn t^m conj(t)^n.

    With |x|^-a = x^(-a/2) conj(x)^(-a/2) and the binomial series of
    (1 - t/x)^(-a/2), A_mn = c_m c_n M_mn, where c_m = (a/2)_m / m! and
    M_mn = sum_j |x_j|^-a x_j^-m conj(x_j)^-n.  The x_j are in units of the
    near radius (|x_j| > 1), so every term is at most 1.  A is Hermitian;
    its lower triangle is built with running products,
    M_mn = sum |x|^-a |x|^-2n x^-(m-n) for m >= n.  Overwrites x.
    """
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
    return c[:, None] * m * c[None, :]


class Field:
    """SIR of transmitter i over a point set, built once per (set, i, alpha).

    Interferers within ``NEAR_RADIUS * scale`` of the probe are summed
    exactly on every query; the others enter through a local expansion
    about the probe, built here in one pass.  Queries farther than
    ``VALID_RADIUS * scale`` from the probe take the exact path, the same
    formula over every interferer with no far term; ``exact_queries``
    counts them.  Distances are normalized by the nearest-transmitter
    distance (the ratio is invariant), so alpha = 100 stays in range, and
    the probe is never part of the interference sum, so nothing cancels.
    """

    def __init__(self, ps: PointSet, i: int, alpha: float):
        self.ps, self.i, self.alpha = ps, i, alpha
        self.center = ps.points[i]
        self.order = EXPANSION_ORDER
        self.exact_queries = 0
        self._radius = NEAR_RADIUS * ps.scale
        dx = ps.points[:, 0] - self.center[0]
        dy = ps.points[:, 1] - self.center[1]
        near = dx * dx + dy * dy <= self._radius ** 2
        far = ~near
        near[i] = far[i] = False
        self._near = ps.points[near]
        self.near_points = len(self._near)
        x = np.empty(np.count_nonzero(far), dtype=complex)
        x.real, x.imag = dx[far], dy[far]
        x /= self._radius
        self._coef = _local_expansion(x, alpha) if len(x) else None
        self._valid2 = (VALID_RADIUS * ps.scale) ** 2
        self._guard2 = (SINGULARITY_GUARD * ps.scale) ** 2

    def sir(self, rx) -> float:
        """SIR of the probe at rx (see :meth:`sir_and_gradient`)."""
        return self.sir_and_gradient(rx)[0]

    def sir_and_gradient(self, rx):
        """(SIR, gradient) of the probe at rx.

        Returns ``(inf, 0)`` when the interference is zero: no interferers,
        or an SIR beyond the float range.  Raises
        :class:`SingularityError` on top of a transmitter.
        """
        z = _as_point(rx)
        h = z - self.center
        hi2 = h[0] * h[0] + h[1] * h[1]
        coef = self._coef
        if hi2 <= self._valid2:
            pts = self._near
        else:
            pts, coef = np.delete(self.ps.points, self.i, axis=0), None
            self.exact_queries += 1
        diff = z - pts
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
        s0 = min(hi2, d2.min()) if len(d2) else hi2
        if s0 < self._guard2:
            raise SingularityError("evaluation on top of a transmitter")
        a = self.alpha
        u = d2 / s0
        q = u ** (-0.5 * a - 1.0)
        w = float(q @ u)
        dw = (-a / s0) * (q @ diff)
        if coef is not None:
            far, dfar = self._far(h)
            scale = (s0 / self._radius ** 2) ** (0.5 * a)
            w += scale * far
            dw += scale * dfar
        if w == 0.0:
            return math.inf, np.zeros(2)
        ui = hi2 / s0
        g = ui ** (-0.5 * a)
        dg = (-a / s0) * (g / ui) * h
        s = g / w
        return float(s), (dg - s * dw) / w

    def _far(self, h):
        """Far interference at offset h from the probe and its gradient, in
        units where a transmitter at the near radius contributes 1."""
        t = complex(h[0], h[1]) / self._radius
        tp = np.empty(self.order + 1, dtype=complex)
        tp[0] = 1.0
        for m in range(1, self.order + 1):
            tp[m] = tp[m - 1] * t
        b = self._coef @ tp.conj()
        # d/dt of the expansion; for real F, grad_h F = (2/R)(Re, -Im) of it.
        dfdt = (tp[:-1] * np.arange(1, self.order + 1)) @ b[1:]
        return (tp @ b).real, (2.0 / self._radius) * np.array([dfdt.real,
                                                                -dfdt.imag])


def sir(i: int, rx, ps: PointSet, alpha: float) -> float:
    """SIR of transmitter i at rx (see :class:`Field`)."""
    return Field(ps, i, alpha).sir(rx)


def sir_and_gradient(i: int, rx, ps: PointSet, alpha: float):
    """(SIR, gradient) of transmitter i at rx (see :class:`Field`)."""
    return Field(ps, i, alpha).sir_and_gradient(rx)


# Batched reception decision, in three passes.
#
# * Voronoi cell (beta >= 1 only).  Decoding needs g_i >= beta * sum_j g_j
#   >= g_j for every interferer j, so a receiver strictly nearer to another
#   transmitter than to i fails: every decoder of i lies in i's Voronoi
#   cell (Baccelli & Blaszczyszyn, Stochastic Geometry and Wireless
#   Networks, 2009).  Below beta = 1 a receiver past a bisector can still
#   decode, so the pass is skipped.  The bisectors between i and its
#   DECODE_CELL_NEIGHBORS nearest transmitters bound a superset of the
#   cell, so the decision stays exact for any count.  Clamping distances
#   at the singularity guard keeps their order, and a receiver within the
#   guard of i is never pruned.
# * Nearest interferers.  A receiver whose DECODE_NEIGHBORS nearest
#   interferers alone beat the signal fails whatever the rest of the set
#   adds.
# * Full sum, DECODE_BLOCK receivers at a time, for every receiver left.
#
# A prune must win by the relative DECODE_MARGIN, which covers summation
# order and the ulp the tree's distances can move the normalization by.
# Below DECODE_MIN_POINTS transmitters the two pruning passes cost more
# than the full sum they can save, so every receiver takes the full sum.
DECODE_CELL_NEIGHBORS = 12
DECODE_NEIGHBORS = 8
DECODE_MARGIN = 1e-12
DECODE_BLOCK = 384
DECODE_MIN_POINTS = 256


@dataclass
class DecodeCounts:
    """Receivers decided by :func:`decodes`, accumulated over calls:
    ``pruned`` by the Voronoi cell (``cell`` of them) or the
    nearest-interferer bound, the rest by the full sum."""

    rows: int = 0
    pruned: int = 0
    cell: int = 0

    @property
    def full(self) -> int:
        return self.rows - self.pruned


def _outside_cell(rx: np.ndarray, pts: np.ndarray, i: int,
                  guard2: float) -> np.ndarray:
    """Receivers of rx provably nearer to one of i's DECODE_CELL_NEIGHBORS
    nearest transmitters x_j than to x_i: with y = rx - x_i and v = x_j -
    x_i, past the bisector 2 y.v = |v|^2 by DECODE_MARGIN (|v|^2 + |y|^2),
    which bounds the rounding of both this test and the full sum's
    distances, near i or far from it."""
    d2 = (pts[:, 0] - pts[i, 0]) ** 2 + (pts[:, 1] - pts[i, 1]) ** 2
    d2[i] = np.inf
    near = np.argpartition(d2, DECODE_CELL_NEIGHBORS - 1)[:DECODE_CELL_NEIGHBORS]
    v = pts[near] - pts[i]
    v2 = v[:, 0] ** 2 + v[:, 1] ** 2
    y = rx - pts[i]
    y2 = y[:, 0] ** 2 + y[:, 1] ** 2
    past = 2.0 * (y @ v.T) - v2 > DECODE_MARGIN * (v2 + y2[:, None])
    return past.any(axis=1) & (y2 * (1.0 - DECODE_MARGIN) > guard2)


def decodes(rx, ps: PointSet, i: int, model: ChannelModel,
            counts: DecodeCounts | None = None) -> np.ndarray:
    """Whether transmitter i clears beta times the interference at each
    receiver of the (M, 2) array rx (the boundary counts as success).

    Powers are normalized by the nearest-transmitter distance, so extreme
    alpha neither overflows nor underflows; distances are clamped at the
    singularity guard, so a receiver on an interferer fails; i is left out
    of the interference.  A receiver is pruned as a failure only when it
    provably lies outside i's Voronoi cell (beta >= 1) or its nearest
    interferers (from ``ps.tree``) already beat the signal, so the result
    equals the full sum's decision everywhere.  ``counts``, when given,
    accumulates the receivers seen and pruned.
    """
    rx = np.asarray(rx, dtype=float).reshape(-1, 2)
    pts = ps.points
    a = -0.5 * model.alpha
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    rows = np.arange(len(rx))
    cell = 0
    if len(pts) >= DECODE_MIN_POINTS:
        if model.beta >= 1.0:
            rows = rows[~_outside_cell(rx, pts, i, guard2)]
            cell = len(rx) - len(rows)
        y = rx[rows]
        idx = ps.tree.query(y, k=DECODE_NEIGHBORS)[1]
        near = pts[idx]
        d2 = y[:, None, 0] - near[..., 0]
        d2 *= d2
        d2 += (y[:, None, 1] - near[..., 1]) ** 2
        np.maximum(d2, guard2, out=d2)
        di = (y[:, 0] - pts[i, 0]) ** 2 + (y[:, 1] - pts[i, 1]) ** 2
        np.maximum(di, guard2, out=di)
        s0 = np.minimum(d2.min(axis=1), di)
        d2[idx == i] = np.inf
        d2 /= s0[:, None]
        np.power(d2, a, out=d2)
        bound = model.beta * d2.sum(axis=1) * (1.0 - DECODE_MARGIN)
        # Written as "not below" so that only a bound that provably wins
        # prunes; anything else (NaN included) takes the full sum.
        rows = rows[~((di / s0) ** a < bound)]
    out = np.zeros(len(rx), dtype=bool)
    for start in range(0, len(rows), DECODE_BLOCK):
        r = rows[start:start + DECODE_BLOCK]
        # One (b, N) block, updated in place (see raster_field).
        d2 = np.subtract.outer(rx[r, 0], pts[:, 0])
        d2 *= d2
        dy = np.subtract.outer(rx[r, 1], pts[:, 1])
        dy *= dy
        d2 += dy
        del dy
        np.maximum(d2, guard2, out=d2)
        s0 = d2.min(axis=1)
        g = (d2[:, i] / s0) ** a
        d2[:, i] = np.inf
        d2 /= s0[:, None]
        np.power(d2, a, out=d2)
        out[r] = g >= model.beta * d2.sum(axis=1)
    if counts is not None:
        counts.rows += len(rx)
        counts.pruned += len(rx) - len(rows)
        counts.cell += cell
    return out


def psi(fading: str, s: float, spread: float = 1.0) -> float:
    """Fractional moment E[F^s] of the fading factor.

    none         -> 1
    log_uniform  -> sinh(f s) / (f s), with the s -> 0 limit 1
    exponential  -> Gamma(1 + s), defined for s > -1 only
    """
    if fading == "none":
        return 1.0
    if fading == "log_uniform":
        x = spread * s
        if x == 0.0:
            return 1.0
        return math.sinh(x) / x
    if fading == "exponential":
        if s <= -1.0:
            raise DivergentMomentError(
                f"E[F^s] diverges for exponential fading at s = {s}")
        return math.gamma(1.0 + s)
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
    on-lattice transmitters.  The SIR leaves transmitter i out of the
    interference sum.  Returns (xs, ys, values) with values indexed
    [iy, ix].
    """
    if quantity not in ("w", "sir"):
        raise ValueError("quantity must be 'w' or 'sir'")
    step = 2.0 * extent / n
    xs = -extent + (np.arange(n) + 0.5) * step
    ys = xs.copy()
    pts = ps.points
    vals = np.empty((n, n))
    for iy, y in enumerate(ys):
        # One (n, N) block per row, updated in place: fresh temporaries
        # of that size cost more than the arithmetic on them.
        d2 = xs[:, None] - pts[None, :, 0]
        d2 *= d2
        d2 += (y - pts[:, 1]) ** 2
        np.maximum(d2, (SINGULARITY_GUARD * ps.scale) ** 2, out=d2)
        if quantity == "sir":
            g = d2[:, i] ** (-0.5 * alpha)
            d2[:, i] = np.inf
        np.power(d2, -0.5 * alpha, out=d2)
        w = d2.sum(axis=1)
        if quantity == "w":
            vals[iy] = w
        else:
            with np.errstate(divide="ignore"):
                vals[iy] = np.where(w > 0, g / w, np.inf)
    return xs, ys, vals

