"""Normalized range limits of lattice schemes for extreme beta and alpha.

As beta grows the reception region shrinks onto the transmitter, so the
range is set by the interference received at the transmitter itself,
I = sum_j ||z_j||^(-alpha) over the unit-density pattern: the normalized
limit is r1' = beta^(1/alpha) * r -> I^(-1/alpha).  I is the Epstein zeta
function of the lattice's Gram form, exact by the Chowla-Selberg formula
(Borwein et al., Lattice Sums Then and Now, 2013), or at large alpha a
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

# From this alpha on the lattice sum is taken directly: above it the
# formula's dual series cancels (7e-11 relative on the triangular form at
# alpha 60) and Gamma and K_nu overflow past alpha ~340.
DIRECT_SUM_ALPHA = 20.0
# Half-width of the direct-sum window, in nearest spacings.
DIRECT_WINDOW = 32.0
# Dual-series terms j, k <= DUAL_TERMS; a reduced form has Delta >= 3, so
# the first dropped term carries K_nu(16 pi sqrt(3)) ~ e^-87.
DUAL_TERMS = 16
# Riemann zeta by Euler-Maclaurin: the terms n < ZETA_N summed, and the
# tail's corrections B_2k / (2k)! for k = 1..8 (B_2k the Bernoulli
# numbers).  Within 1e-15 relative of mpmath for s in [1.0001, 40].
ZETA_N = 12
_ZETA_B = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
           -691 / 1307674368000, 1 / 74724249600,
           -3617 / 10670622842880000)
# K_nu(x) by the trapezoid rule in BESSEL_PANELS panels, for x >= pi sqrt(3):
# within 1e-14 relative of mpmath for nu in [0.5, 10] and x up to 700 (the
# bound the tests check; 6.7e-16 at worst on their grid).
BESSEL_PANELS = 64


def _zeta(s: float) -> float:
    """Riemann zeta(s) for real s > 1, by Euler-Maclaurin summation:
    sum_{n<N} n^-s + N^(1-s) / (s - 1) + N^-s / 2
    + sum_k B_2k / (2k)! s (s + 1) ... (s + 2k - 2) N^(-s-2k+1)."""
    n = ZETA_N
    total = math.fsum(m ** -s for m in range(1, n))
    total += n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    term = s * n ** (-s - 1.0)
    for k, b in enumerate(_ZETA_B, start=1):
        total += b * term
        term *= (s + 2 * k - 1) * (s + 2 * k) / (n * n)
    return total


def _bessel_k(nu: float, x: np.ndarray) -> np.ndarray:
    """Modified Bessel K_nu(x) for x >= pi sqrt(3) (1-D), as
    e^-x int_0^T e^(-x (cosh t - 1)) cosh(nu t) dt by the trapezoid rule,
    cosh t - 1 written 2 sinh(t/2)^2.  The integrand is analytic and
    falls like exp(-x e^t / 2), so the rule converges geometrically; T =
    acosh(1 + 800 / x) leaves out below e^-800 of it.  Where e^-x
    underflows to 0 (x past about 745), so does K_nu, and no integral is
    taken."""
    k = np.exp(-x)
    live = k > 0.0
    x = x[live]
    h = np.arccosh(1.0 + 800.0 / x) / BESSEL_PANELS
    t = h[:, None] * np.arange(BESSEL_PANELS + 1)
    f = np.exp(-2.0 * x[:, None] * np.sinh(0.5 * t) ** 2) * np.cosh(nu * t)
    f[:, 0] *= 0.5
    f[:, -1] *= 0.5
    k[live] *= h * f.sum(axis=1)
    return k


def _epstein(b: float, c: float, s: float) -> float:
    """sum' (m^2 + b m n + c n^2)^(-s) for a reduced form (|b| <= 1 <= c),
    by the Chowla-Selberg formula with Delta = 4c - b^2:
    2 zeta(2s) + 2^2s sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) Delta^(s-1/2))
    + 2^(s+5/2) pi^s / (Gamma(s) Delta^(s/2-1/4))
      sum_{j,k>=1} (j/k)^(s-1/2) cos(pi j k b) K_{s-1/2}(pi j k sqrt(Delta))."""
    delta = 4.0 * c - b * b
    nu = s - 0.5
    j = np.arange(1, DUAL_TERMS + 1)[:, None]
    k = j.T
    # K_nu depends on j k alone: one evaluation per distinct product.
    jk, at = np.unique(j * k, return_inverse=True)
    kv = _bessel_k(nu, math.pi * jk * math.sqrt(delta))[at.reshape(j.size, -1)]
    dual = np.sum((j / k) ** nu * np.cos(math.pi * j * k * b) * kv)
    return (2.0 * _zeta(2.0 * s)
            + 4.0 ** s * math.sqrt(math.pi) * math.gamma(nu)
            * _zeta(2.0 * s - 1.0) / (math.gamma(s) * delta ** nu)
            + 2.0 ** (s + 2.5) * math.pi ** s * dual
            / (math.gamma(s) * delta ** (0.5 * s - 0.25)))


def beta_inf_range(spec: GridSpec, alpha: float) -> float:
    """Normalized maximum range r1' = I^(-1/alpha) of the pattern in the
    large-beta limit, at unit density, as sqrt(s0) (sum' (|z|^2 /
    s0)^(-alpha/2))^(-1/alpha) with s0 the nearest squared distance, which
    is finite for every finite alpha > 2.  Below DIRECT_SUM_ALPHA the sum
    is :func:`_epstein` of the basis, and the honeycomb's is (S_tri(d) +
    S_tri(sqrt(3) d)) / 2 (the triangular lattice of spacing d is the
    honeycomb plus its hexagon centres).  Otherwise it runs over gen_grid's
    window of DIRECT_WINDOW nearest spacings; at most 4 (rho + 1/2)^2
    points lie within rho spacings, so the rest add below 5 * 32^(2-alpha)
    < 1e-20 of the sum.  Raises ValueError unless alpha is finite and
    above 2 (the sum diverges at alpha <= 2), as :class:`ChannelModel`
    checks it."""
    ChannelModel(alpha, 0.0)
    spec = GridSpec(spec.kind, spec.d * math.sqrt(grid_density(spec)),
                    spec.k1, spec.k2)
    s = 0.5 * alpha
    A, _ = _basis(spec)
    (a, ab), (_, c) = A.T @ A
    # The honeycomb's basis spans its sublattice of spacing sqrt(3) d.
    s0 = a / 3.0 if spec.kind == "hexagonal" else a
    if alpha < DIRECT_SUM_ALPHA:
        total = _epstein(2.0 * ab / a, c / a, s)
        if spec.kind == "hexagonal":
            total *= 0.5 * (1.0 + 3.0 ** -s)
    else:
        d2 = np.sum(gen_grid(spec, DIRECT_WINDOW * math.sqrt(s0)).points ** 2,
                    axis=1)
        total = np.sum((d2[d2 > 0.0] / s0) ** -s)
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

