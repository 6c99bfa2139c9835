"""Reception-area boundary tracing and maximum transmission range.

The set of points where transmitter i is received with SIR >= beta is
bounded by the level set S_i(z) = beta.  For beta >= 1 that boundary is a
single closed curve around the transmitter; it is followed numerically by
Euler steps along the rotated SIR gradient,

    z(k+1) = z(k) + J grad S / |grad S| * dt,      J = [[0, 1], [-1, 0]],

with a Newton re-projection onto the level set after every step so the
discretization error stays bounded by the contour tolerance instead of
accumulating.  The maximum transmission range is the largest distance from
the transmitter to the curve; it occurs where the distance gradient and
the SIR gradient are parallel, i.e. where their 2D cross product changes
sign along the curve.

For beta < 1 the reception region can be unbounded or split into several
components; the tracer then reports an error and the membership-grid
routines below provide a rasterized fallback.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (MacGeoError, NonClosureError, StationaryPointError,
                     UnboundedReceptionError)
# sir and sir_and_gradient stay importable here: profilers wrap the
# kernel at this module's names.
from .propagation import (ChannelModel, DecodeCounts, Field, decodes,
                          fading_success_prob, sir, sir_and_gradient)
from .spatial import GridSpec, PointSet, gen_grid, grid_density

_log = logging.getLogger(__name__)
_GRAD_FLOOR = 1e-15
_J = np.array([(0.0, 1.0), (-1.0, 0.0)])


@dataclass(frozen=True)
class TracerConfig:
    """Numerical knobs of the contour tracer.

    dt               step length in meters; None resolves to scale/200
    contour_tol      relative SIR tolerance kept on every vertex, in (0, 0.1]
    max_steps        step budget before the non-closure signal (>= 1000)
    start_direction  ray direction (radians) used to find the first vertex
    """

    dt: float | None = None
    contour_tol: float = 1e-6
    max_steps: int = 1_000_000
    start_direction: float = 0.0

    def __post_init__(self):
        if self.dt is not None and not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not (0 < self.contour_tol <= 0.1):
            raise ValueError("contour_tol must lie in (0, 0.1]")
        if self.max_steps < 1000:
            raise ValueError("max_steps must be at least 1000")

    def resolve_dt(self, ps: PointSet) -> float:
        return self.dt if self.dt is not None else ps.scale / 200.0


@dataclass(frozen=True)
class ContourTrace:
    """Closed polyline approximating one reception boundary."""

    vertices: np.ndarray
    max_range_point: np.ndarray
    r_lambda: float
    closed: bool
    steps: int


@dataclass(frozen=True)
class RangeResult:
    """Maximum range bundle for one scheme at one (beta, alpha)."""

    r_lambda: float
    r1: float
    lam: float
    pattern: GridSpec | str


def _project(field, beta, z, tol, max_iter=8):
    """Newton-correct z along grad S until |S - beta|/beta <= tol."""
    s, g = field.sir_and_gradient(z)
    for _ in range(max_iter):
        if abs(s - beta) <= tol * beta:
            return z, s, g
        n2 = g[0] * g[0] + g[1] * g[1]
        if math.sqrt(n2) < _GRAD_FLOOR:
            raise StationaryPointError("vanishing SIR gradient during projection")
        z = z + (beta - s) / n2 * g
        s, g = field.sir_and_gradient(z)
    if abs(s - beta) <= tol * beta:
        return z, s, g
    raise StationaryPointError("Newton projection failed to reach the level set")


def find_contour_start(i: int, ps: PointSet, model: ChannelModel,
                       direction: float, cfg: TracerConfig | None = None):
    """First boundary point: bisection along the ray from the transmitter.

    Marches outward (doubling) until the SIR drops below beta, then
    bisects; the returned point satisfies the tracer's relative tolerance.
    Raises :class:`UnboundedReceptionError` when no crossing exists within
    twice the window extent (possible for beta < 1).
    """
    return _contour_start(Field(ps, i, model.alpha), model.beta, direction,
                          cfg or TracerConfig())


def _contour_start(field, beta, direction, cfg):
    if beta <= 0:
        raise ValueError("contour search requires beta > 0")
    u = np.array([math.cos(direction), math.sin(direction)])
    zi = field.center

    r_in = 1e-3 * field.ps.scale
    r = r_in
    limit = 2.0 * field.ps.extent
    while True:
        val = field.sir(zi + r * u)
        if val < beta:
            break
        r_in = r
        r *= 2.0
        if r > limit:
            raise UnboundedReceptionError(
                f"SIR never drops below beta={beta:g} within the window")
    lo, hi = r_in, r
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = field.sir(zi + mid * u)
        if abs(val - beta) <= cfg.contour_tol * beta:
            return zi + mid * u
        if val >= beta:
            lo = mid
        else:
            hi = mid
    # Interval collapsed to rounding; polish with Newton.
    z, _, _ = _project(field, beta, zi + 0.5 * (lo + hi) * u, cfg.contour_tol)
    return z


def trace_contour(i: int, ps: PointSet, model: ChannelModel,
                  cfg: TracerConfig | None = None) -> ContourTrace:
    """Follow the closed SIR level curve of transmitter i.

    Each Euler predictor step is re-projected onto the level set, so every
    returned vertex obeys |S - beta| <= contour_tol * beta.  The trace
    terminates once it returns within dt of the start (after at least 10
    steps, with a matching heading); exhausting the step budget raises
    :class:`NonClosureError` with the partial trace attached.  One
    :class:`Field` serves every SIR evaluation of the trace.
    """
    cfg = cfg or TracerConfig()
    beta = model.beta
    dt = cfg.resolve_dt(ps)
    field = Field(ps, i, model.alpha)
    z0 = _contour_start(field, beta, cfg.start_direction, cfg)
    z0, _, g0 = _project(field, beta, z0, cfg.contour_tol)
    t0 = _J @ (g0 / np.linalg.norm(g0))

    verts = [z0]
    grads = [g0]
    z, g = z0, g0
    closed = False
    steps = 0
    while steps < cfg.max_steps:
        n = math.hypot(g[0], g[1])
        if n < _GRAD_FLOOR:
            raise StationaryPointError("vanishing SIR gradient on the contour")
        z_pred = z + dt * (_J @ g) / n
        z, s, g = _project(field, beta, z_pred, cfg.contour_tol)
        verts.append(z)
        grads.append(g)
        steps += 1
        if steps >= 10 and math.hypot(*(z - z0)) <= dt:
            heading = _J @ (g / math.hypot(g[0], g[1]))
            if float(heading @ t0) > 0.0:
                closed = True
                break
    vertices = np.array(verts)
    if not closed:
        partial = ContourTrace(vertices, vertices[int(np.argmax(
            np.hypot(vertices[:, 0] - ps.points[i][0],
                     vertices[:, 1] - ps.points[i][1])))],
            float("nan"), False, steps)
        raise NonClosureError(
            f"contour did not close within {cfg.max_steps} steps", trace=partial)

    r_lam, z_max = _max_range_refined(vertices, np.array(grads), field, beta, cfg)
    _log.debug("trace of transmitter %d: %d steps, %d near points, expansion "
               "order %d, %d exact-path queries", i, steps, field.near_points,
               field.order, field.exact_queries)
    return ContourTrace(vertices, z_max, r_lam, True, steps)


def _cross_of(zi, z, g):
    """Cross product of the distance gradient with the SIR gradient."""
    dz = z - zi
    r = math.hypot(dz[0], dz[1])
    return (dz[0] * g[1] - dz[1] * g[0]) / r


def _max_range_refined(vertices, grads, field, beta, cfg):
    """Distance maximizer over the traced curve.

    Locates sign changes of cross(grad D, grad S) between consecutive
    vertices, sharpens each by bisection (with re-projection onto the
    level set), and returns the farthest critical point.  Falls back to
    the farthest raw vertex when no sign change exists.  Among equal
    maxima the point with the smallest polar angle wins.
    """
    zi = field.center
    dz = vertices - zi
    dists = np.hypot(dz[:, 0], dz[:, 1])

    cross = np.array([_cross_of(zi, v, g) for v, g in zip(vertices, grads)])
    candidates = []
    cand_gnorm = []
    m = len(vertices)
    for k in range(m):
        a, b = k, (k + 1) % m
        ca, cb = cross[a], cross[b]
        if ca == 0.0:
            candidates.append(vertices[a])
            cand_gnorm.append(float(np.hypot(*grads[a])))
            continue
        if ca * cb >= 0.0:
            continue
        va, vb = vertices[a], vertices[b]
        zm, gm = va, grads[a]
        for _ in range(48):
            zm = 0.5 * (va + vb)
            zm, _, gm = _project(field, beta, zm, cfg.contour_tol)
            cm = _cross_of(zi, zm, gm)
            if cm == 0.0 or math.hypot(*(va - vb)) < 1e-10 * field.ps.scale:
                break
            if ca * cm > 0.0:
                va, ca = zm, cm
            else:
                vb = zm
        candidates.append(zm)
        cand_gnorm.append(float(np.hypot(*gm)))

    if not candidates:
        k = int(np.argmax(dists))
        return float(dists[k]), vertices[k]

    cand = np.array(candidates)
    d = np.hypot(cand[:, 0] - zi[0], cand[:, 1] - zi[1])
    r_max = float(d.max())
    # Candidates on the level set are only located to within the
    # projection band contour_tol * beta / |grad S|; tie detection has to
    # be at least that wide or exact lattice symmetries break by rounding.
    k_best = int(np.argmax(d))
    slop = 3.0 * cfg.contour_tol * beta / max(cand_gnorm[k_best], _GRAD_FLOOR)
    near = d >= r_max - max(slop, 1e-9 * r_max)
    tied = cand[near]
    ang = np.mod(np.arctan2(tied[:, 1] - zi[1], tied[:, 0] - zi[0]), 2.0 * math.pi)
    best = tied[int(np.argmin(ang))]
    return float(math.hypot(best[0] - zi[0], best[1] - zi[1])), best


def normalized_range(r_lambda: float, lam: float) -> float:
    """Density-normalized range sqrt(lam) * r_lambda (scale invariant)."""
    if not (r_lambda > 0 and lam > 0):
        raise ValueError("range and density must be positive")
    return math.sqrt(lam) * r_lambda


def grid_success_prob_nofading(i: int, rx, ps: PointSet, model: ChannelModel) -> float:
    """Deterministic reception indicator: 1 if r^(-alpha)/beta clears the
    aggregate interference at rx (boundary counts as success), else 0.
    One receiver of :func:`~macgeo.propagation.decodes`."""
    return float(decodes(rx, ps, i, model)[0])


def grid_success_prob_fading(i: int, rx, ps: PointSet, model: ChannelModel) -> float:
    """Reception probability under exponential (unit-mean) power fading on
    every link, prod_j 1 / (1 + beta w_j).  One receiver of
    :func:`~macgeo.propagation.fading_success_prob`."""
    return float(fading_success_prob(rx, ps, i, model)[0])


def membership_grid(i: int, ps: PointSet, model: ChannelModel,
                    extent: float, n: int, counts: DecodeCounts | None = None):
    """Rasterized reception indicator of transmitter i on an n x n lattice
    over [-extent, extent]^2 around the transmitter.

    Works for any beta (including beta < 1 where the region may be
    unbounded or split); cells landing on interferers are non-members.
    Each raster row is one :func:`~macgeo.propagation.decodes` call, which
    adds to ``counts`` when given.  Returns (xs, ys, member) with member
    indexed [iy, ix].
    """
    zi = ps.points[i]
    step = 2.0 * extent / n
    xs = zi[0] - extent + (np.arange(n) + 0.5) * step
    ys = zi[1] - extent + (np.arange(n) + 0.5) * step
    member = np.zeros((n, n), dtype=bool)
    rx = np.empty((n, 2))
    rx[:, 0] = xs
    for iy, y in enumerate(ys):
        rx[:, 1] = y
        member[iy] = decodes(rx, ps, i, model, counts)
    return xs, ys, member


def max_range_membership(i: int, ps: PointSet, model: ChannelModel,
                         extent: float, n: int = 512) -> float:
    """Maximum range from a membership raster: the farthest member cell
    4-connected to the transmitter's own cell.  Fallback for beta < 1
    where the boundary tracer does not apply."""
    counts = DecodeCounts()
    xs, ys, member = membership_grid(i, ps, model, extent, n, counts)
    _log.debug("membership raster of transmitter %d: %d cells, %d pruned by "
               "the nearest interferers, %d full sums", i, counts.rows,
               counts.pruned, counts.full)
    labels, _ = ndimage.label(member)
    zi = ps.points[i]
    ix = int(np.clip(np.searchsorted(xs, zi[0]), 0, n - 1))
    iy = int(np.clip(np.searchsorted(ys, zi[1]), 0, n - 1))
    home = labels[iy, ix]
    if home == 0:
        # Cell center offset pushed the transmitter cell out; use nearest
        # member cell instead.
        yy, xx = np.nonzero(member)
        if yy.size == 0:
            raise MacGeoError("empty reception region on the raster")
        k = int(np.argmin((xs[xx] - zi[0]) ** 2 + (ys[yy] - zi[1]) ** 2))
        home = labels[yy[k], xx[k]]
    yy, xx = np.nonzero(labels == home)
    d = np.hypot(xs[xx] - zi[0], ys[yy] - zi[1])
    return float(d.max())


def origin_index(ps: PointSet, at=(0.0, 0.0)) -> int:
    """Index of the transmitter closest to ``at`` (the probe)."""
    pts = ps.points
    k = int(np.argmin((pts[:, 0] - at[0]) ** 2 + (pts[:, 1] - at[1]) ** 2))
    return k


def grid_range(spec: GridSpec, model: ChannelModel, extent: float = 5000.0,
               cfg: TracerConfig | None = None,
               verify_truncation: bool = False) -> RangeResult:
    """Trace the boundary for the probe transmitter of a grid scheme and
    return (r_lambda, r1).

    The probe is the lattice point at the spec's translation (the window
    center by default).  With ``verify_truncation`` the computation is
    repeated at twice the extent and a relative r1 change above 0.1%
    raises, guarding against a too-small window standing in for the
    infinite pattern.
    """
    lam = grid_density(spec)

    def _run(ext):
        ps = gen_grid(spec, ext)
        i = origin_index(ps, spec.translation)
        ref = np.asarray(spec.translation, dtype=float)
        if math.hypot(*(ps.points[i] - ref)) > 1e-6 * spec.d:
            raise MacGeoError("probe transmitter missing from the window center")
        trace = trace_contour(i, ps, model, cfg)
        if not point_in_polygon(ps.points[i], trace.vertices):
            # The start ray hit an interferer's exclusion-hole boundary
            # (possible for beta < 1), not the probe's outer boundary.
            raise UnboundedReceptionError(
                "traced level-set component does not enclose the probe")
        return trace.r_lambda

    r_lam = _run(extent)
    if verify_truncation:
        r_lam2 = _run(2.0 * extent)
        if abs(r_lam2 - r_lam) > 1e-3 * r_lam:
            raise MacGeoError(
                f"window truncation error above 0.1%: r={r_lam:.6g} vs {r_lam2:.6g}")
    return RangeResult(r_lam, normalized_range(r_lam, lam), lam, spec)


def point_in_polygon(z, vertices: np.ndarray) -> bool:
    """Even-odd ray-crossing test against a closed polyline."""
    x, y = float(z[0]), float(z[1])
    vx, vy = vertices[:, 0], vertices[:, 1]
    x2, y2 = np.roll(vx, -1), np.roll(vy, -1)
    straddle = (vy > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = vx + (y - vy) * (x2 - vx) / (y2 - vy)
    hits = straddle & (xi > x)
    return bool(np.count_nonzero(hits) % 2)


def trace_summary(trace: ContourTrace, spec, model: ChannelModel, lam: float) -> dict:
    """JSON-ready summary of one traced configuration."""
    pattern = spec.kind if isinstance(spec, GridSpec) else str(spec)
    d = spec.d if isinstance(spec, GridSpec) else None
    return {
        "pattern": pattern,
        "d": d,
        "beta": model.beta,
        "alpha": model.alpha,
        "r_lambda": trace.r_lambda,
        "r1": normalized_range(trace.r_lambda, lam),
        "steps": trace.steps,
        "closed": trace.closed,
    }

