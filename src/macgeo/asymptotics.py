"""Normalized range limits of lattice schemes for extreme beta and alpha.

As beta grows the reception region shrinks onto the transmitter, so the
range is set by the interference received at the transmitter itself,
I = sum_j ||z_j||^(-alpha) over the unit-density pattern: the normalized
limit is r1' = beta^(1/alpha) * r -> I^(-1/alpha).  The lattice sum is
taken directly inside a truncation disc and the remainder is folded in
through its continuum estimate 2 pi R^(2-alpha)/(alpha - 2).

As alpha grows the reception region tends to the Voronoi cell of the
transmitter regardless of beta, giving closed forms for the normalized
range of each pattern (corner distance of the cell times sqrt(density)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentSumError
from .propagation import ChannelModel
from .reception import TracerConfig, grid_range
from .spatial import GridSpec, gen_grid, grid_density


@dataclass(frozen=True)
class LatticeSumConfig:
    """Setup for the beta -> infinity lattice sum.

    pattern            any GridSpec; internally rescaled to unit density
    alpha              attenuation exponent (> 2)
    truncation_radius  summation radius at unit density; None picks a
                       radius of 200 unit lengths (and at least 100 cell
                       diameters, keeping the tail estimate honest)
    """

    pattern: GridSpec
    alpha: float
    truncation_radius: float | None = None


def _unit_density_spec(spec: GridSpec) -> GridSpec:
    """Same pattern rescaled so the intensity is exactly 1."""
    lam = grid_density(spec)
    return GridSpec(spec.kind, spec.d * math.sqrt(lam), spec.k1, spec.k2)


def _cell_diameter(spec: GridSpec) -> float:
    return spec.d * max(1.0, spec.k2)


def _lattice_interference(spec: GridSpec, alpha: float, radius: float) -> float:
    """Tail-corrected I = sum ||z||^(-alpha) over the pattern minus origin."""
    ps = gen_grid(spec, radius * 1.02)
    d2 = ps.points[:, 0] ** 2 + ps.points[:, 1] ** 2
    d2 = d2[(d2 > 1e-18) & (d2 <= radius * radius)]
    inner = float(np.sum(d2 ** (-0.5 * alpha)))
    tail = 2.0 * math.pi * radius ** (2.0 - alpha) / (alpha - 2.0)
    return inner + tail


def beta_inf_range(cfg: LatticeSumConfig) -> float:
    """Normalized maximum range r1' = I^(-1/alpha) of the pattern in the
    large-beta limit, at unit density."""
    if cfg.alpha <= 2.0:
        raise DivergentSumError("lattice interference diverges for alpha <= 2")
    spec = _unit_density_spec(cfg.pattern)
    radius = cfg.truncation_radius
    if radius is None:
        radius = max(200.0, 100.0 * _cell_diameter(spec))
    elif radius < 100.0 * _cell_diameter(spec):
        raise ValueError("truncation radius below 100 cell diameters")
    I = _lattice_interference(spec, cfg.alpha, radius)
    return I ** (-1.0 / cfg.alpha)


def alpha_inf_range(kind: str, k1: float = 1.0, k2: float = 1.0) -> float:
    """Normalized maximum range in the large-alpha (Voronoi) limit.

    square       1/sqrt(2)
    hexagonal    2/sqrt(3 sqrt(3))
    triangular   sqrt(2/(3 sqrt(3)))
    rectangular  (1/2) sqrt(((k1/k2)^2 + 1)/(k1/k2)), also for 'linear'
    """
    if kind == "square":
        return 1.0 / math.sqrt(2.0)
    if kind == "hexagonal":
        return 2.0 / math.sqrt(3.0 * math.sqrt(3.0))
    if kind == "triangular":
        return math.sqrt(2.0 / (3.0 * math.sqrt(3.0)))
    if kind in ("rectangular", "linear"):
        rho = k1 / k2
        return 0.5 * math.sqrt((rho * rho + 1.0) / rho)
    raise ValueError(f"unknown grid kind {kind!r}")


def voronoi_limit_check(spec: GridSpec, alpha_large: float,
                        extent: float | None = None,
                        cfg: TracerConfig | None = None) -> dict:
    """Trace the boundary at (beta = 1, alpha_large) and report the
    relative deviation of r1 from the Voronoi-cell closed form.

    At alpha >= 50 transmitters a few cells away are already beneath
    double-precision relevance, so the default window keeps 60 cell
    diameters around the probe."""
    if alpha_large < 50:
        raise ValueError("the Voronoi limit check expects alpha >= 50")
    if extent is None:
        extent = 60.0 * spec.d * max(1.0, spec.k2)
    model = ChannelModel(alpha=alpha_large, beta=1.0)
    res = grid_range(spec, model, extent=extent, cfg=cfg)
    limit = alpha_inf_range(spec.kind, spec.k1, spec.k2)
    return {
        "pattern": spec.kind,
        "k1_over_k2": spec.k1 / spec.k2,
        "alpha": alpha_large,
        "r1_traced": res.r1,
        "r1_limit": limit,
        "rel_deviation": abs(res.r1 - limit) / limit,
    }


# Rows of the two standard comparison tables: pattern with aspect ratio.
TABLE_PATTERNS = (
    ("square", 1.0, 1.0),
    ("rectangular", 1.0, 2.0),
    ("rectangular", 1.0, 4.0),
    ("hexagonal", 1.0, 1.0),
    ("triangular", 1.0, 1.0),
)


def beta_inf_table(alpha: float, truncation_radius: float | None = None):
    """(pattern, k1/k2, r1') rows for the large-beta comparison table."""
    rows = []
    for kind, k1, k2 in TABLE_PATTERNS:
        spec = GridSpec(kind, 1.0, k1, k2)
        val = beta_inf_range(LatticeSumConfig(spec, alpha, truncation_radius))
        rows.append((kind, k1 / k2, val))
    return rows


def alpha_inf_table():
    """(pattern, k1/k2, r1) rows for the large-alpha comparison table."""
    return [(kind, k1 / k2, alpha_inf_range(kind, k1, k2))
            for kind, k1, k2 in TABLE_PATTERNS]


def save_table_csv(rows, path) -> None:
    """Write table rows as CSV with header ``pattern,k1_over_k2,value``."""
    with open(path, "w") as fh:
        fh.write("pattern,k1_over_k2,value\n")
        for kind, ratio, val in rows:
            fh.write(f"{kind},{ratio:.12g},{val:.12g}\n")
