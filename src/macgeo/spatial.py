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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

GRID_KINDS = ("square", "rectangular", "hexagonal", "triangular", "linear")
# Largest point set, raster or node population a call may build.
MAX_POINTS = 2_000_000
# Most receiver-transmitter pairs one raster or curve may evaluate: about
# 20 times the 1.04e8 of the largest test raster, and 12 s at the README
# field job's rate (its 1.6e7 take about 0.1 s).
MAX_EVALS = 2_000_000_000

# A cell of a CellIndex is wider than twice its snap radius by this
# relative slack; a snap block reaches half of it past the radius, and a
# disc's block all of it.  That covers the rounding of the cell
# arithmetic (about 1e-13 of a cell at any budget).
CELL_SLACK = 1e-6

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
        if not all(map(math.isfinite, (self.rotation, *self.translation))):
            raise ValueError("pose rotation and translation must be finite")


@dataclass(frozen=True)
class PointSet:
    """Immutable set of transmitter locations with known intensity.

    points   (N, 2) float64 array
    density  points per square meter (> 0)
    extent   half-width of the containing square window, meters

    The constructor checks the shape, that the points are finite and
    inside the extent, the density and the extent, and that the points are
    pairwise distinct, the last with an O(N log N) sort.  :func:`gen_poisson`
    builds its sets through it; :func:`gen_grid` and the simulator, whose
    sets hold all of that by construction, build theirs with no check.
    """

    points: np.ndarray
    density: float
    extent: float

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
            # Each point as one complex number, which sorts by x, then y.
            s = np.sort(pts.view(complex)[:, 0])
            if np.any(s[1:] == s[:-1]):
                raise ValueError("points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _of_distinct(cls, points: np.ndarray, density: float,
                     extent: float) -> PointSet:
        """A PointSet whose contiguous float (N, 2) points, density and
        extent pass every check by construction: none runs, and the points
        are marked read-only, not read."""
        ps = cls.__new__(cls)
        points.setflags(write=False)
        for name, value in (("points", points), ("density", density),
                            ("extent", extent)):
            object.__setattr__(ps, name, value)
        return ps

    def __len__(self):
        return len(self.points)

    @property
    def scale(self) -> float:
        """Characteristic nearest-neighbor length 1/sqrt(density)."""
        return 1.0 / math.sqrt(self.density)


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


def covering_radius(spec: GridSpec) -> float:
    """Largest distance from any point of the plane to its nearest pattern
    point, in meters: the corner distance of the Voronoi cell."""
    if spec.kind == "square":
        return spec.d / math.sqrt(2.0)
    if spec.kind in ("rectangular", "linear"):
        return 0.5 * spec.d * math.hypot(spec.k1, spec.k2)
    if spec.kind == "triangular":
        return spec.d / math.sqrt(3.0)
    return spec.d  # hexagonal: the centre of a honeycomb hexagon


def check_budget(count: float, what: str) -> None:
    """Refuse, before anything is allocated, ``count`` points or cells
    (``what`` names them) above MAX_POINTS."""
    if not (count <= MAX_POINTS):
        raise ValueError(f"{count:.3g} {what} exceed the budget of {MAX_POINTS}")


def check_evals(count: float, what: str) -> None:
    """Refuse, before any sum, ``count`` receiver-transmitter evaluations
    (``what`` names them) above MAX_EVALS."""
    if not (count <= MAX_EVALS):
        raise ValueError(f"{count:.3g} {what} exceed the budget of {MAX_EVALS}")


def gather(a: np.ndarray, b: np.ndarray):
    """The ranges a[k]:b[k], concatenated, and the length of each."""
    lens = b - a
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(a - (ends - lens), lens), lens


class CellIndex:
    """Fixed-radius cell grid over a point set (Bentley, Stanat &
    Williams, *The complexity of finding fixed-radius near neighbors*,
    1977): the package's one neighbour index.  ``radius`` is the snap
    radius, 0 where no snap is asked.

    The nodes' bounding box is cut into square cells of side at least
    2 radius (1 + CELL_SLACK) and at least (longer box side) / sqrt(n),
    so there are no more cells than nodes; the last row and column take
    the remainder.  The nodes are sorted row-major by cell, with a CSR
    ``start`` array (cell c holds the sorted positions
    start[c]:start[c + 1]), contiguous x and y columns in that order, and
    ``order`` mapping a sorted position to its node.  Adjacent cells of a
    row are adjacent in that order, so a block of cells costs one slice
    per cell row.  A coordinate's cell, floor((v - lo) / side) clipped to
    the grid, is monotone in v, so the nodes within a reach of a point lie
    between the cells of the reach's two ends.

    Every query measures a node at x, y from a point at px, py as
    d2 = (x - px)^2 + (y - py)^2, each square a product and the two
    added in that order: the snap takes sqrt(d2) <= radius, the discs
    d2 <= R*R, and the k nearest nodes the least d2.
    """

    def __init__(self, nodes: np.ndarray, radius: float):
        n = len(nodes)
        self._lo = nodes.min(axis=0)
        span = nodes.max(axis=0) - self._lo
        side = max(2.0 * radius * (1.0 + CELL_SLACK),
                   span.max() / math.sqrt(n))
        self.side = side if side > 0 else 1.0
        self._radius = radius
        self._reach = radius * (1.0 + 0.5 * CELL_SLACK)
        # Cells along x (columns) and along y (rows).
        self._n = np.maximum(1, (span // self.side).astype(np.intp))
        cols, rows = (int(k) for k in self._n)
        check_budget(cols * rows, "cells of the node index")
        col, row = self._cells(nodes).T
        cell = row * cols + col
        self.order = np.argsort(cell, kind="stable")
        self.start = np.zeros(cols * rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=cols * rows), out=self.start[1:])
        self.x = nodes[self.order, 0]
        self.y = nodes[self.order, 1]

    def _cells(self, v: np.ndarray) -> np.ndarray:
        """Cell coordinates (column, row) of the points v, shape (..., 2)."""
        k = np.floor((v - self._lo) / self.side)
        # np.clip costs several times more on the few points of a query.
        np.maximum(k, 0, out=k)
        return np.minimum(k, self._n - 1).astype(np.intp)

    def _blocks(self, pts: np.ndarray, e: float):
        """c0, r0, c1, r1: the cells of the corners (x - e, y - e) and
        (x + e, y + e) of each of the (m, 2) points."""
        c = self._cells(np.stack((pts - e, pts + e)))
        return c[0, :, 0], c[0, :, 1], c[1, :, 0], c[1, :, 1]

    def _squared(self, pos: np.ndarray, x, y) -> np.ndarray:
        """d2 from the nodes at sorted positions pos to (x, y)."""
        d2 = np.subtract(self.x[pos], x)
        d2 *= d2
        dy = np.subtract(self.y[pos], y)
        dy *= dy
        d2 += dy
        return d2

    def snap(self, pts: np.ndarray):
        """(dist, idx) of the nearest node within the snap radius of each
        posed point, dist = sqrt(d2) <= radius, the first node in sorted
        order on a tie; inf and -1 where no node is that near.  A point's
        candidates are the nodes of the 2 x 2 block of cells that holds its
        disc of the snap reach, two slices per point (the second empty when
        the disc spans one cell row)."""
        x, y = pts[:, 0], pts[:, 1]
        c0, r0, c1, r1 = self._blocks(pts, self._reach)
        a = np.empty((len(pts), 2), dtype=np.intp)
        b = np.empty_like(a)
        for j, row in enumerate((r0, r1)):
            base = row * self._n[0]
            a[:, j] = self.start[base + c0]
            b[:, j] = self.start[base + c1 + 1]
        b[r1 == r0, 1] = a[r1 == r0, 1]
        pos, lens = gather(a.ravel(), b.ravel())
        cnt = lens.reshape(-1, 2).sum(axis=1)
        d2 = self._squared(pos, np.repeat(x, cnt), np.repeat(y, cnt))
        best = np.full(len(pts), np.inf)
        has = cnt > 0
        best[has] = np.minimum.reduceat(d2, (np.cumsum(cnt) - cnt)[has])
        # Each point's minimum, the first in sorted order on a tie.
        at = np.flatnonzero(d2 == np.repeat(best, cnt))
        owner = np.repeat(np.arange(len(pts)), cnt)[at]
        first = np.ones(len(at), dtype=bool)
        first[1:] = owner[1:] != owner[:-1]
        idx = np.full(len(pts), -1)
        idx[owner[first]] = self.order[pos[at[first]]]
        dist = np.sqrt(best)
        far = dist > self._radius
        dist[far] = np.inf
        idx[far] = -1
        return dist, idx

    def _around(self, pts: np.ndarray, R: float):
        """Sorted positions of the block of cells that holds the disc of
        radius R about each of the (m, 2) points, one slice per cell row,
        the blocks concatenated; their squared distances; and the end of
        each point's block in them."""
        c0, r0, c1, r1 = self._blocks(pts, R * (1.0 + CELL_SLACK))
        rows = r1 - r0 + 1
        first = np.cumsum(rows) - rows
        base = np.arange(rows.sum()) - np.repeat(first - r0, rows)
        base *= self._n[0]
        pos, lens = gather(self.start[base + np.repeat(c0, rows)],
                           self.start[base + np.repeat(c1 + 1, rows)])
        lens = np.add.reduceat(lens, first)
        return pos, self._squared(pos, np.repeat(pts[:, 0], lens),
                                  np.repeat(pts[:, 1], lens)), np.cumsum(lens)

    def disc(self, c, R: float) -> np.ndarray:
        """Sorted indices of the nodes within R of the point c, kept when
        d2 <= R*R."""
        pos, d2, _ = self._around(np.asarray(c, dtype=float).reshape(1, 2), R)
        return np.sort(self.order[pos[d2 <= R * R]])

    def within(self, centers: np.ndarray, R: float, fill: int):
        """(idx, d2): the nodes within R of each of the (m, 2) centers,
        kept when d2 <= R*R, as (m, k) arrays, k the largest count (at
        least 1).  Row j holds centre j's nodes in the index's sorted
        order, then ``fill`` and inf."""
        pos, d2, ends = self._around(centers, R)
        keep = d2 <= R * R
        ck = np.zeros(len(keep) + 1, dtype=np.intp)
        np.cumsum(keep, out=ck[1:])
        cnt = np.diff(ck[ends], prepend=0)
        pos, d2 = pos[keep], d2[keep]
        k = max(int(cnt.max(initial=0)), 1)
        at = np.arange(len(pos)) + np.repeat(
            np.arange(0, len(cnt) * k, k) - (np.cumsum(cnt) - cnt), cnt)
        idx = np.full((len(centers), k), fill, dtype=np.intp)
        dist2 = np.full((len(centers), k), np.inf)
        idx.ravel()[at] = self.order[pos]
        dist2.ravel()[at] = d2
        return idx, dist2

    def k_nearest(self, centers: np.ndarray, k: int, R: float):
        """(dist, idx) of the k nearest nodes of each of the (m, 2)
        centers, unordered, for k at most the number of nodes: the k
        nearest of its disc of radius R, by argpartition, once the disc
        holds k nodes, so that every nearer node is in it.  R doubles for
        the centres whose disc holds fewer."""
        dist = np.empty((len(centers), k))
        idx = np.empty((len(centers), k), dtype=np.intp)
        rows = np.arange(len(centers))
        while rows.size:
            near, d2 = self.within(centers[rows], R, 0)
            done = np.count_nonzero(d2 <= R * R, axis=1) >= k
            if done.any():
                part = np.argpartition(d2[done], k - 1, axis=1)[:, :k]
                idx[rows[done]] = np.take_along_axis(near[done], part, axis=1)
                dist[rows[done]] = np.sqrt(np.take_along_axis(d2[done], part,
                                                              axis=1))
            rows = rows[~done]
            R *= 2.0
        return dist, idx


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
    [-extent, extent]^2 (the boundary included up to rotation round-off).

    The pose works in place on the x and y columns with the rotation's
    four floats, world = (c x - s y + tx, s x + c y + ty); a one-offset
    pattern overwrites base.  The filter copies each kept row as one
    complex item, which numpy moves much faster than a float pair."""
    _, offs = _basis(spec)
    n = len(base)
    pts = base.reshape(n, 1, 2) if len(offs) == 1 else np.empty((n, len(offs), 2))
    for j, (ox, oy) in enumerate(offs):
        np.add(base[:, 0], ox, out=pts[:, j, 0])
        np.add(base[:, 1], oy, out=pts[:, j, 1])
    pts = pts.reshape(-1, 2)
    c, s = math.cos(spec.rotation), math.sin(spec.rotation)
    tx, ty = spec.translation
    x, y = pts[:, 0], pts[:, 1]
    sx = np.multiply(x, s)
    x *= c
    x -= np.multiply(y, s)
    x += tx
    y *= c
    y += sx
    y += ty
    lim = extent + _EDGE_TOL * spec.d
    keep = np.abs(x, out=sx) <= lim
    keep &= np.abs(y, out=sx) <= lim
    return pts.view(complex)[keep, 0].view(float).reshape(-1, 2)


# Float steps at the posed window's reach that the nearest-neighbour
# spacing must exceed for gen_grid to skip the distinctness sort.
_DISTINCT_STEPS = 2.0 ** 20


def gen_grid(spec: GridSpec, extent: float) -> PointSet:
    """Generate all pattern points inside [-extent, extent]^2.

    The pose transform is world = R(rotation) @ (lattice point) + translation,
    with one lattice point at the origin before the pose is applied.  Points
    exactly on the window boundary are included.

    Distinct lattice indices land at least the nearest-neighbour spacing
    d * min(k1, k2) apart, and every computed point is within a few float
    steps of |translation| + extent + pad (the posed window's reach) of its
    exact place.  While the spacing exceeds _DISTINCT_STEPS such steps, no
    two points can round onto one another.  The pose's filter keeps only
    points within the window's edge tolerance, which no NaN or inf passes,
    so the PointSet is then built with no pass over the points.  A window
    whose reach passes about 4e9 spacings (a pose translated that far)
    takes the constructor, whose sort refuses points that rounding
    merged.
    """
    pts = window_points(spec, extent)
    A, _ = _basis(spec)
    reach = math.hypot(*spec.translation) + extent + _pad(A, spec.d)
    if spec.d * min(spec.k1, spec.k2) > _DISTINCT_STEPS * math.ulp(reach):
        return PointSet._of_distinct(pts, grid_density(spec), extent)
    return PointSet(pts, grid_density(spec), extent)


def window_points(spec: GridSpec, extent: float) -> np.ndarray:
    """The points of ``gen_grid(spec, extent)`` as a bare (N, 2) array, with
    no PointSet built (and so no distinctness check)."""
    if not (extent > 0):
        raise ValueError("extent must be positive")
    check_budget(grid_density(spec) * (2.0 * extent) ** 2, "lattice points")
    A, _ = _basis(spec)
    # The pose of lattice_points, written out so that the index array is
    # freed once the product is taken, before the pose.
    return _pose(_hull_indices(spec, extent, A) @ A.T, spec, extent)


def lattice_points(spec: GridSpec, k: np.ndarray, extent: float) -> np.ndarray:
    """World points of the (K, 2) float lattice indices k, every in-cell
    offset of each, under spec's pose, kept when inside [-extent, extent]^2:
    bit for bit the rows :func:`window_points` gives for those indices, as
    each row is posed on its own."""
    A, _ = _basis(spec)
    return _pose(k @ A.T, spec, extent)


def _hull_indices(spec: GridSpec, extent: float, A: np.ndarray) -> np.ndarray:
    """(K, 2) lattice indices (m, n), as floats, whose points under spec's
    pose may lie in [-extent, extent]^2: the integer hull of the padded
    window, each row m clipped to its n range."""
    R = _rotation(spec.rotation)
    t = np.asarray(spec.translation, dtype=float)

    # Index bounds: map the (padded) window corners back to lattice
    # coordinates and take the integer hull.
    e = extent + _pad(A, spec.d)
    corners = np.array([(-e, -e), (-e, e), (e, -e), (e, e)]) - t
    lat_corners = np.linalg.solve(A, (R.T @ corners.T))  # shape (2, 4)
    lo = np.floor(lat_corners.min(axis=1)).astype(int) - 1
    hi = np.ceil(lat_corners.max(axis=1)).astype(int) + 1

    # Clip each row m of the hull to the n whose lattice point m u + n v + t
    # lies in the padded window, one half-plane pair per axis (a row that
    # misses an axis's slab comes out empty); rounding is covered by one
    # index of slack, and the pose's own filter decides what is kept.
    m = np.arange(lo[0], hi[0] + 1)
    n_lo = np.full(len(m), float(lo[1]))
    n_hi = np.full(len(m), float(hi[1]))
    u, v = R @ A[:, 0], R @ A[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(2):
            base = m * u[c] + t[c]
            a, b = (-e - base) / v[c], (e - base) / v[c]
            n_lo = np.fmax(n_lo, np.floor(np.fmin(a, b)) - 1)
            n_hi = np.fmin(n_hi, np.ceil(np.fmax(a, b)) + 1)
    rows = n_hi >= n_lo
    m, n_lo = m[rows], n_lo[rows].astype(int)
    count = n_hi[rows].astype(int) - n_lo + 1
    start = np.cumsum(count) - count
    k = np.empty((count.sum(), 2))
    k[:, 0] = np.repeat(m, count)
    # In integers, exact at any translation, then cast once into k.
    np.subtract(np.arange(len(k)), np.repeat(start - n_lo, count),
                out=k[:, 1])
    return k


@lru_cache(maxsize=64)
def _near_stencil(kind: str, d: float, k1: float, k2: float, radius: float):
    """Pose-free part of :func:`lattice_near`, read-only (it is shared): the
    in-cell offsets, A^-1 and the index steps within a reach of
    floor(radius * |row of A^-1| + 1/2)."""
    A, offs = _basis(GridSpec(kind, d, k1, k2))
    inv = np.linalg.inv(A)
    reach = np.floor(radius * np.linalg.norm(inv, axis=1) + 0.5).astype(int)
    steps = np.mgrid[-reach[0]:reach[0] + 1,
                     -reach[1]:reach[1] + 1].reshape(2, -1).T.astype(float)
    for a in (offs, inv, steps):
        a.flags.writeable = False
    return offs, inv, steps


def lattice_near(spec: GridSpec, centers: np.ndarray, radius: float):
    """(K, 2) float lattice indices of every pattern point within ``radius``
    of a center under spec's pose, and a few more.  Index m of offset o
    lies within the radius of a center of lattice coordinates c (less o)
    only if |m_i - c_i| <= radius |row i of A^-1|, so within
    floor(radius |row i| + 1/2) of rint(c).  Callers cover the rounding
    of c by a small relative slack on the radius."""
    offs, inv, steps = _near_stencil(spec.kind, spec.d, spec.k1, spec.k2,
                                     radius)
    R = _rotation(spec.rotation)
    t = np.asarray(spec.translation, dtype=float)
    local = (np.asarray(centers, dtype=float) - t) @ R  # R^T (c - t) per row
    k = np.rint((local[:, None, :] - offs) @ inv.T)
    return (k[:, :, None, :] + steps).reshape(-1, 2)


def gen_poisson(lam: float, extent: float, seed) -> PointSet:
    """Uniform Poisson scatter of intensity lam over [-extent, extent]^2.

    The point count is Poisson(lam * area) and positions are i.i.d.
    uniform; the draw is fully determined by the seed.
    """
    if not (lam > 0):
        raise ValueError("intensity must be positive")
    if not (extent > 0):
        raise ValueError("extent must be positive")
    area = (2.0 * extent) ** 2
    check_budget(lam * area, "expected Poisson points")
    rng = np.random.default_rng(seed)
    n = rng.poisson(lam * area)
    return PointSet(rng.uniform(-extent, extent, size=(n, 2)), lam, extent)


def with_pose(spec: GridSpec, rotation: float, translation) -> GridSpec:
    """Copy of ``spec`` with a new pose."""
    return replace(spec, rotation=rotation,
                   translation=(float(translation[0]), float(translation[1])))
