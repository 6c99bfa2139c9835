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


def gain(tx, rx, alpha: float) -> float:
    """Deterministic gain ||rx - tx||^(-alpha).  Raises on coincidence."""
    d = np.linalg.norm(_as_point(rx) - _as_point(tx))
    if d == 0.0:
        raise SingularityError("transmitter and receiver coincide")
    return float(d ** -alpha)


def _distances_sq(rx, pts: np.ndarray) -> np.ndarray:
    diff = pts - _as_point(rx)
    return diff[:, 0] ** 2 + diff[:, 1] ** 2


def _guard(rx, pts: np.ndarray, scale: float) -> np.ndarray:
    d2 = _distances_sq(rx, pts)
    if d2.size and d2.min() < (SINGULARITY_GUARD * scale) ** 2:
        raise SingularityError(
            f"evaluation point within {SINGULARITY_GUARD:g} * scale of a transmitter")
    return d2


def interference(rx, ps: PointSet, exclude: int | None, alpha: float,
                 truncation_radius: float | None = None) -> float:
    """Aggregate interference sum_j ||rx - z_j||^(-alpha) over the set.

    ``exclude`` drops one transmitter index (None keeps all).  The optional
    truncation radius restricts the sum to transmitters within that
    distance of ``rx``; it exists for convergence studies only.
    """
    pts = ps.points
    if exclude is not None:
        pts = np.delete(pts, exclude, axis=0)
    if pts.size == 0:
        return 0.0
    d2 = _guard(rx, pts, ps.scale)
    if truncation_radius is not None:
        d2 = d2[d2 <= truncation_radius**2]
        if d2.size == 0:
            return 0.0
    return float(np.sum(d2 ** (-0.5 * alpha)))


def sir(i: int, rx, ps: PointSet, alpha: float) -> float:
    """SIR of transmitter i at rx: gain over everyone else's sum.

    Distances are normalized by the nearest transmitter distance before
    powering (the ratio is invariant), so the value stays representable
    for any alpha.  Returns ``inf`` when there are no interferers.
    """
    z = _as_point(rx)
    pts = ps.points
    diff = z - pts
    d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    s0 = d2.min()
    if s0 < (SINGULARITY_GUARD * ps.scale) ** 2:
        raise SingularityError("evaluation on top of a transmitter")
    p = (d2 / s0) ** (-0.5 * alpha)
    w = p.sum() - p[i]
    if w == 0.0:
        return math.inf
    return float(p[i] / w)


def sir_and_gradient(i: int, rx, ps: PointSet, alpha: float):
    """(SIR, gradient) in one pass; the contour tracer's inner loop.

    Works on nearest-distance-normalized powers: with u_j =
    ||z-z_j||^2 / min_k ||z-z_k||^2 the common scale cancels from both the
    ratio and its gradient, keeping alpha = 100 comfortably in range.
    """
    z = _as_point(rx)
    pts = ps.points
    diff = z - pts
    d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    s0 = d2.min()
    if s0 < (SINGULARITY_GUARD * ps.scale) ** 2:
        raise SingularityError("evaluation on top of a transmitter")
    u = d2 / s0
    q = u ** (-0.5 * alpha - 1.0)
    p = q * u                                   # u^(-alpha/2)
    grads = (-alpha / s0) * q[:, None] * diff
    g, dg = p[i], grads[i]
    w = p.sum() - g
    if w == 0.0:
        return math.inf, np.zeros(2)
    dw = grads.sum(axis=0) - dg
    s = g / w
    return float(s), (dg * w - g * dw) / (w * w)


def sir_gradient(i: int, rx, ps: PointSet, alpha: float) -> np.ndarray:
    """Analytic spatial gradient of the SIR of transmitter i at rx.

    Uses grad ||z - z_j||^(-a) = -a ||z - z_j||^(-a-2) (z - z_j) and the
    quotient rule; singular at transmitter locations.
    """
    s, grad = sir_and_gradient(i, rx, ps, alpha)
    if math.isinf(s):
        raise SingularityError("SIR gradient undefined without interferers")
    return grad


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
    on-lattice transmitters.  Returns (xs, ys, values) with values indexed
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
        diff_x = xs[:, None] - pts[None, :, 0]
        diff_y = y - pts[None, :, 1]
        d2 = diff_x**2 + diff_y**2
        d2 = np.maximum(d2, (SINGULARITY_GUARD * ps.scale) ** 2)
        p = d2 ** (-0.5 * alpha)
        if quantity == "w":
            vals[iy] = p.sum(axis=1)
        else:
            g = p[:, i]
            w = p.sum(axis=1) - g
            with np.errstate(divide="ignore"):
                vals[iy] = np.where(w > 0, g / w, np.inf)
    return xs, ys, vals


def save_field_csv(xs, ys, vals, path) -> None:
    """Write a rasterized field as CSV with header ``x,y,value``."""
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                fh.write(f"{x:.12g},{y:.12g},{vals[iy, ix]:.12g}\n")
