"""Transmitter point sets: regular lattices and uniform Poisson scatters.

Conventions used throughout the package:

* a "point" is any 2-sequence (x, y) in meters; sets of points are
  float64 arrays of shape (N, 2),
* ``extent`` is the half-width of the square observation window, i.e.
  points live in [-extent, extent]^2,
* every point set carries its exact intensity (points per m^2) so that
  dimensionless, density-normalized quantities can be formed later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.spatial import cKDTree

GRID_KINDS = ("square", "rectangular", "hexagonal", "triangular", "linear")

# Boundary test tolerance, relative to the lattice parameter: points that
# land on the window edge up to rotation round-off are kept.
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Description of a regular transmitter pattern.

    kind        one of GRID_KINDS
    d           lattice parameter in meters (> 0); nearest-neighbor spacing
                for square/hexagonal/triangular patterns
    k1, k2      aspect factors of the rectangular/linear patterns: points
                sit at column spacing k1*d on rows spaced k2*d (k1 <= k2);
                forced to 1 for the other kinds
    rotation    pose angle in radians, applied about the origin
    translation pose offset (x, y) in meters
    """

    kind: str
    d: float
    k1: float = 1.0
    k2: float = 1.0
    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if not (self.d > 0 and math.isfinite(self.d)):
            raise ValueError("lattice parameter d must be positive")
        if self.kind in ("rectangular", "linear"):
            if self.k1 <= 0 or self.k2 <= 0:
                raise ValueError("aspect factors must be positive")
            if self.k1 > self.k2:
                raise ValueError("rectangular/linear patterns require k1 <= k2")
        elif not (self.k1 == 1.0 and self.k2 == 1.0):
            raise ValueError(f"{self.kind} pattern has fixed k1 = k2 = 1")


@dataclass(frozen=True)
class PointSet:
    """Immutable set of transmitter locations with known intensity.

    points   (N, 2) float64 array
    density  points per square meter (> 0)
    extent   half-width of the containing square window, meters
    meta     provenance for serialization (kind, d, seed, ...)
    """

    points: np.ndarray
    density: float
    extent: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (N, 2)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not (self.density > 0):
            raise ValueError("density must be positive")
        if not (self.extent > 0):
            raise ValueError("extent must be positive")
        lim = self.extent * (1 + 1e-12) + _EDGE_TOL * self.scale
        if pts.size and np.max(np.abs(pts)) > lim:
            raise ValueError("points fall outside the stated extent")
        if len(pts) > 1:
            order = np.lexsort((pts[:, 1], pts[:, 0]))
            s = pts[order]
            if np.any(np.all(s[1:] == s[:-1], axis=1)):
                raise ValueError("points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @property
    def scale(self) -> float:
        """Characteristic nearest-neighbor length 1/sqrt(density)."""
        return 1.0 / math.sqrt(self.density)

    @cached_property
    def tree(self) -> cKDTree:
        """k-d tree over the points, built on first use."""
        return cKDTree(self.points)


def grid_density(spec: GridSpec) -> float:
    """Exact intensity (points per m^2) of the ideal infinite pattern."""
    d2 = spec.d * spec.d
    if spec.kind == "square":
        return 1.0 / d2
    if spec.kind in ("rectangular", "linear"):
        return 1.0 / (spec.k1 * spec.k2 * d2)
    if spec.kind == "hexagonal":
        return 4.0 / (3.0 * math.sqrt(3.0) * d2)
    if spec.kind == "triangular":
        return 2.0 / (math.sqrt(3.0) * d2)
    raise ValueError(f"unknown grid kind {spec.kind!r}")


def _basis(spec: GridSpec):
    """Primitive vectors and in-cell offsets of the pattern, pre-pose."""
    d = spec.d
    if spec.kind == "square":
        a1, a2 = (d, 0.0), (0.0, d)
        offs = [(0.0, 0.0)]
    elif spec.kind in ("rectangular", "linear"):
        a1, a2 = (spec.k1 * d, 0.0), (0.0, spec.k2 * d)
        offs = [(0.0, 0.0)]
    elif spec.kind == "triangular":
        a1, a2 = (d, 0.0), (0.5 * d, 0.5 * math.sqrt(3.0) * d)
        offs = [(0.0, 0.0)]
    elif spec.kind == "hexagonal":
        # Honeycomb vertices: triangular Bravais lattice with a two-point
        # cell, nearest-neighbor spacing d (three neighbors per vertex).
        a1 = (1.5 * d, 0.5 * math.sqrt(3.0) * d)
        a2 = (1.5 * d, -0.5 * math.sqrt(3.0) * d)
        offs = [(0.0, 0.0), (d, 0.0)]
    else:
        raise ValueError(f"unknown grid kind {spec.kind!r}")
    return np.array([a1, a2]).T, np.array(offs)


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([(c, -s), (s, c)])


def _pad(A: np.ndarray, d: float) -> float:
    """Margin around the window that covers a lattice cell and its offsets."""
    return 2.0 * max(abs(A).sum(axis=1).max(), d)


def _pose(base: np.ndarray, spec: GridSpec, extent: float) -> np.ndarray:
    """World points of the (K, 2) lattice vectors base = k @ A.T, every
    in-cell offset of each, under spec's pose, kept when inside
    [-extent, extent]^2 (the boundary included up to rotation round-off)."""
    _, offs = _basis(spec)
    R = _rotation(spec.rotation)
    t = np.asarray(spec.translation, dtype=float)
    pts = (base[:, None, :] + offs[None, :, :]).reshape(-1, 2)
    pts = pts @ R.T + t
    tol = _EDGE_TOL * spec.d
    keep = (np.abs(pts[:, 0]) <= extent + tol) & (np.abs(pts[:, 1]) <= extent + tol)
    return pts[keep]


def gen_grid(spec: GridSpec, extent: float) -> PointSet:
    """Generate all pattern points inside [-extent, extent]^2.

    The pose transform is world = R(rotation) @ (lattice point) + translation,
    with one lattice point at the origin before the pose is applied.  Points
    exactly on the window boundary are included.
    """
    if not (extent > 0):
        raise ValueError("extent must be positive")
    A, _ = _basis(spec)
    R = _rotation(spec.rotation)
    t = np.asarray(spec.translation, dtype=float)

    # Index bounds: map the (padded) window corners back to lattice
    # coordinates and take the integer hull.
    e = extent + _pad(A, spec.d)
    corners = np.array([(-e, -e), (-e, e), (e, -e), (e, e)]) - t
    lat_corners = np.linalg.solve(A, (R.T @ corners.T))  # shape (2, 4)
    lo = np.floor(lat_corners.min(axis=1)).astype(int) - 1
    hi = np.ceil(lat_corners.max(axis=1)).astype(int) + 1

    m, n = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1),
                       indexing="ij")
    pts = _pose(np.stack([m.ravel(), n.ravel()], axis=1) @ A.T, spec, extent)
    meta = {"kind": spec.kind, "d": spec.d, "k1": spec.k1, "k2": spec.k2,
            "rotation": spec.rotation,
            "translation": list(map(float, spec.translation)),
            "extent": extent, "seed": None}
    return PointSet(pts, grid_density(spec), extent, meta)


@lru_cache(maxsize=8)
def _index_disc(spec: GridSpec, extent: float) -> np.ndarray:
    """Integer indices k of the unposed lattice with |A k| <= sqrt(2) extent
    + pad: shifted to the cell nearest the window's center, they cover every
    pose of the window (a window point lies within sqrt(2) extent of the
    center, and the shift and the in-cell offsets stay inside the pad)."""
    A, _ = _basis(spec)
    radius = math.sqrt(2.0) * extent + _pad(A, spec.d)
    reach = np.ceil(radius * np.linalg.norm(np.linalg.inv(A), axis=1)).astype(int)
    m, n = np.meshgrid(np.arange(-reach[0], reach[0] + 1),
                       np.arange(-reach[1], reach[1] + 1), indexing="ij")
    idx = np.stack([m.ravel(), n.ravel()], axis=1)
    idx = idx[np.hypot(*(idx @ A.T).T) <= radius]
    idx.setflags(write=False)
    return idx


def window_points(spec: GridSpec, extent: float) -> np.ndarray:
    """The points of ``gen_grid(spec, extent)`` as a bare (N, 2) array, in
    another order.  A disc of lattice indices, built once per unposed
    pattern and extent, is shifted to the window's center and posed with
    gen_grid's own arithmetic, so the points are the same floats; no
    PointSet is built, and the disc holds fewer points than the window's
    index hull for a sheared basis."""
    if not (extent > 0):
        raise ValueError("extent must be positive")
    A, _ = _basis(spec)
    R = _rotation(spec.rotation)
    t = np.asarray(spec.translation, dtype=float)
    q = np.rint(np.linalg.solve(A, R.T @ -t)).astype(int)
    disc = _index_disc(replace(spec, rotation=0.0, translation=(0.0, 0.0)), extent)
    return _pose((disc + q) @ A.T, spec, extent)


def gen_poisson(lam: float, extent: float, seed) -> PointSet:
    """Uniform Poisson scatter of intensity lam over [-extent, extent]^2.

    The point count is Poisson(lam * area) and positions are i.i.d.
    uniform; the draw is fully determined by the seed.
    """
    if not (lam > 0):
        raise ValueError("intensity must be positive")
    if not (extent > 0):
        raise ValueError("extent must be positive")
    rng = np.random.default_rng(seed)
    area = (2.0 * extent) ** 2
    n = rng.poisson(lam * area)
    pts = rng.uniform(-extent, extent, size=(n, 2))
    meta = {"kind": "poisson", "lam": lam, "extent": extent,
            "seed": seed if isinstance(seed, int) else None}
    return PointSet(pts, lam, extent, meta)


def with_pose(spec: GridSpec, rotation: float, translation) -> GridSpec:
    """Copy of ``spec`` with a new pose."""
    return replace(spec, rotation=rotation,
                   translation=(float(translation[0]), float(translation[1])))
