"""Normalized range limits of lattice schemes for extreme beta and alpha.

As beta grows the reception region shrinks onto the transmitter, so the
range is set by the interference received at the transmitter itself,
I = sum_j ||z_j||^(-alpha) over the unit-density pattern: the normalized
limit is r1' = beta^(1/alpha) * r -> I^(-1/alpha).  I is taken by Ewald's
split (Ewald 1921; Borwein et al., Lattice Sums Then and Now, 2013) into
two Gaussian-fast sums, one over the pattern's points and one over its
dual lattice, each term an upper incomplete gamma; at large alpha it is a
direct sum whose remainder lies below double precision.

As alpha grows the reception region tends to the Voronoi cell of the
transmitter regardless of beta, giving closed forms for the normalized
range of each pattern (the cell's corner distance, or covering radius,
times sqrt(density)).
"""

from __future__ import annotations

import math

import numpy as np

from .propagation import ChannelModel
from .spatial import (GridSpec, _basis, covering_radius, gen_grid,
                      grid_density)

# From this alpha on the lattice sum is taken directly: Gamma(s) overflows
# past s = 171, and the trapezoid step of _upper_gamma would have to
# shrink like 1/sqrt(s).
DIRECT_SUM_ALPHA = 20.0
# Half-width of the direct-sum window, in nearest spacings.
DIRECT_WINDOW = 32.0
# Both Ewald sums stop where their Gaussian factor, e^(-eta |x|^2) in the
# lattice and e^(-|G|^2 / (4 eta)) in its dual, falls below e^-EWALD_CUT.
EWALD_CUT = 42.0
# Trapezoid step of _upper_gamma's integral: within 1e-15 relative of
# mpmath for the (a, x) the Ewald sums take below DIRECT_SUM_ALPHA.
GAMMA_STEP = 0.125


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma Gamma(a, x) for real a and x > 0 (1-D), by
    t = x (1 + e^v): x^a e^-x int exp(v - x e^v) (1 + e^v)^(a-1) dv,
    with the trapezoid rule from v = -40 to log(745 / x) + 1.  The
    integrand is analytic and falls like e^v on the left and like
    exp(-x e^v) on the right, so the rule converges geometrically; past
    the right end it underflows to 0, and the left tail is below e^-40 of
    it.  The nodes are v0 + h k: np.arange(v0, stop, h) would step by
    (v0 + h) - v0, which falls short of h at v0 = -40."""
    v0 = -40.0
    n = int((math.log(745.0 / x.min()) + 1.0 - v0) / GAMMA_STEP) + 1
    ev = np.exp(v0 + GAMMA_STEP * np.arange(n))
    f = np.exp(-x[:, None] * ev) @ (ev * (1.0 + ev) ** (a - 1.0))
    return x ** a * np.exp(-x) * GAMMA_STEP * f


def _disc(A: np.ndarray, radius: float) -> np.ndarray:
    """(K, 2) lattice vectors A @ k (k integer) within radius of 0."""
    m = np.floor(radius * np.linalg.norm(np.linalg.inv(A), axis=1))
    k = np.stack(np.meshgrid(*(np.arange(-j, j + 1) for j in m)), axis=-1)
    x = k.reshape(-1, 2) @ A.T
    return x[np.sum(x * x, axis=1) <= radius * radius]


def _ewald(spec: GridSpec, s: float) -> float:
    """sum' |x|^-2s over the pattern's points x != 0, for s > 1, by
    Ewald's split at eta = pi (Q the regularized upper incomplete gamma,
    V the cell area, G the dual lattice, o the n_o in-cell offsets):
    sum'_x |x|^-2s Q(s, eta |x|^2) - eta^s / Gamma(s + 1)
    + pi eta^(s-1) / (V Gamma(s)) [n_o / (s - 1)
      + sum_o sum_{G != 0} cos(G.o) E_s(|G|^2 / (4 eta))],
    with E_s(y) = y^(s-1) Gamma(1 - s, y)."""
    eta = math.pi
    A, offs = _basis(spec)
    # Every in-cell offset lies within d of its cell's lattice vector.
    reach = math.sqrt(EWALD_CUT / eta)
    x = (_disc(A, reach + spec.d)[:, None, :] + offs).reshape(-1, 2)
    t = eta * np.sum(x * x, axis=1)
    # Each distinct argument once (x and -x give the same t, G and -G the
    # same y), weighted by its count or its summed phase.
    t, count = np.unique(t[(t > 0.0) & (t <= EWALD_CUT)], return_counts=True)
    G = _disc(2.0 * math.pi * np.linalg.inv(A).T,
              math.sqrt(4.0 * eta * EWALD_CUT))
    y = np.sum(G * G, axis=1) / (4.0 * eta)
    G, y = G[y > 0.0], y[y > 0.0]
    y, at = np.unique(y, return_inverse=True)
    phase = np.bincount(at, np.cos(G @ offs.T).sum(axis=1))
    real = np.sum(count * t ** -s * _upper_gamma(s, t)) - 1.0 / s
    dual = len(offs) / (s - 1.0) + np.sum(
        phase * y ** (s - 1.0) * _upper_gamma(1.0 - s, y))
    volume = abs(np.linalg.det(A))
    return float(eta ** s * real / math.gamma(s)
                 + math.pi * eta ** (s - 1.0) * dual / (volume * math.gamma(s)))


def beta_inf_range(spec: GridSpec, alpha: float) -> float:
    """Normalized maximum range r1' = I^(-1/alpha) of the pattern in the
    large-beta limit, at unit density, which is finite for every finite
    alpha > 2.  Below DIRECT_SUM_ALPHA, I is :func:`_ewald`.  Otherwise
    it is sqrt(s0) (sum' (|z|^2 / s0)^(-alpha/2))^(-1/alpha), with s0 =
    (d k1)^2 the nearest squared spacing, over gen_grid's window of
    DIRECT_WINDOW nearest spacings; at most 4 (rho + 1/2)^2 points lie
    within rho spacings, so the rest add below 5 * 32^(2-alpha) < 1e-20
    of the sum.  Raises ValueError unless alpha is finite and above 2
    (the sum diverges at alpha <= 2), as :class:`ChannelModel` checks
    it."""
    ChannelModel(alpha, 0.0)
    spec = GridSpec(spec.kind, spec.d * math.sqrt(grid_density(spec)),
                    spec.k1, spec.k2)
    if alpha < DIRECT_SUM_ALPHA:
        return _ewald(spec, 0.5 * alpha) ** (-1.0 / alpha)
    s0 = (spec.d * spec.k1) ** 2
    d2 = np.sum(gen_grid(spec, DIRECT_WINDOW * math.sqrt(s0)).points ** 2,
                axis=1)
    total = np.sum((d2[d2 > 0.0] / s0) ** (-0.5 * alpha))
    return float(math.sqrt(s0) * total ** (-1.0 / alpha))


def alpha_inf_range(kind: str, k1: float = 1.0, k2: float = 1.0) -> float:
    """Normalized maximum range in the large-alpha (Voronoi) limit: the
    covering radius of the unit pattern times sqrt(density).

    square       1/sqrt(2)
    hexagonal    2/sqrt(3 sqrt(3))
    triangular   sqrt(2/(3 sqrt(3)))
    rectangular  (1/2) sqrt(((k1/k2)^2 + 1)/(k1/k2)), also for 'linear'

    :class:`GridSpec` refuses an unknown kind or k1 > k2 (ValueError).
    """
    spec = GridSpec(kind, 1.0, k1, k2)
    return covering_radius(spec) * math.sqrt(grid_density(spec))


# Rows of the two standard comparison tables: pattern with aspect ratio.
TABLE_PATTERNS = (
    ("square", 1.0, 1.0),
    ("rectangular", 1.0, 2.0),
    ("rectangular", 1.0, 4.0),
    ("hexagonal", 1.0, 1.0),
    ("triangular", 1.0, 1.0),
)


def beta_inf_table(alpha: float):
    """(pattern, k1/k2, r1') rows for the large-beta comparison table."""
    return [(kind, k1 / k2, beta_inf_range(GridSpec(kind, 1.0, k1, k2), alpha))
            for kind, k1, k2 in TABLE_PATTERNS]


def alpha_inf_table():
    """(pattern, k1/k2, r1) rows for the large-alpha comparison table."""
    return [(kind, k1 / k2, alpha_inf_range(kind, k1, k2))
            for kind, k1, k2 in TABLE_PATTERNS]

