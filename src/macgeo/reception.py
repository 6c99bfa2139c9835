"""Reception-area boundary tracing and maximum transmission range.

The set of points where transmitter i is received with SIR >= beta is
bounded by the level set S_i(z) = beta.  For beta >= 1 the region is
star-shaped about the transmitter.  Outside i's Voronoi cell a nearer
interferer j gives S <= g_i / g_j < 1 <= beta.  Inside it every d_j >= t =
|z - z_i|, so along a ray from z_i, d log S / dt = -alpha / t - alpha
sum_j p_j cos_j / d_j < 0 (p_j: j's share of the interference; cos_j: the
cosine between the ray and z_j - z).  So the boundary is one closed curve
that the start ray crosses once, and the trace winds once with strictly
increasing polar angle.  It is followed by Euler steps along the rotated
SIR gradient,

    z(k+1) = z(k) + J grad S / |grad S| * dt,      J = [[0, 1], [-1, 0]],

with a Newton re-projection onto the level set after every step (halved
where it fails to advance) so the discretization error stays bounded by
the contour tolerance instead of accumulating.  The maximum transmission
range is the largest distance from the transmitter to the curve; it
occurs where the distance gradient and the SIR gradient are parallel,
i.e. where their 2D cross product changes sign along the curve.

For beta < 1 the reception region can be unbounded or split into several
components, or the start ray can meet an interferer's exclusion hole; the
tracer then raises (its closed curve must enclose the transmitter), and
grid_range falls back to the membership-grid routines below.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (MacGeoError, NonClosureError, StationaryPointError,
                     UnboundedReceptionError)
# sir and sir_and_gradient stay importable here: profilers wrap the
# kernel at this module's names.
from .propagation import (DECODE_MARGIN, SINGULARITY_GUARD, ChannelModel,
                          Field, _chunks, decodes, fading_success_prob, sir,
                          sir_and_gradient)
from .spatial import (CellIndex, GridSpec, PointSet, check_budget,
                      covering_radius, gather, gen_grid, grid_density)

_log = logging.getLogger(__name__)
_GRAD_FLOOR = 1e-15
_J = np.array([(0.0, 1.0), (-1.0, 0.0)])
# Relative SIR tolerance kept on every traced vertex.
CONTOUR_TOL = 1e-6
# Step budget of one trace before the non-closure signal.
MAX_STEPS = 1_000_000
# Halvings of one step before the tracer gives up on it.
MAX_HALVINGS = 20
# Far ray of the mirror wedge grid_range traces, by pattern: 1/8 of the
# square lattice's curve and 1/4 of the triangular one's, whose square
# window keeps only the axis reflections of its point group.
MIRROR_WEDGE = {"square": math.pi / 4.0, "triangular": math.pi / 2.0}


@dataclass(frozen=True)
class ContourTrace:
    """Polyline approximating one reception boundary: the closed curve, or
    with ``closed`` False an arc of it."""

    vertices: np.ndarray
    max_range_point: np.ndarray
    r_lambda: float
    closed: bool
    steps: int


@dataclass(frozen=True)
class RangeResult:
    """Maximum range bundle for one scheme at one (beta, alpha); ``method``
    says how r_lambda was found, ``"trace"`` or ``"membership"``."""

    r_lambda: float
    r1: float
    method: str


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


def _contour_start(field, beta, direction, dt):
    """A point of the start ray within dt/2 of its first crossing of
    S = beta: the distance from the probe doubles until the first sample
    with S < beta, then that bracket halves while it is wider than dt.
    The tracer's own projection puts the point on the level set."""
    if beta <= 0:
        raise ValueError("contour search requires beta > 0")
    u = np.array([math.cos(direction), math.sin(direction)])
    zi = field.center
    lo = hi = 1e-3 * field.ps.scale
    limit = 2.0 * field.ps.extent
    while field.sir_and_gradient(zi + hi * u)[0] >= beta:
        lo, hi = hi, 2.0 * hi
        if hi > limit:
            raise UnboundedReceptionError(
                f"SIR never drops below beta={beta:g} within the window")
    while hi - lo > dt:
        mid = 0.5 * (lo + hi)
        if field.sir_and_gradient(zi + mid * u)[0] >= beta:
            lo = mid
        else:
            hi = mid
    return zi + 0.5 * (lo + hi) * u


def trace_contour(i: int, ps: PointSet, model: ChannelModel,
                  dt: float | None = None, direction: float = 0.0, *,
                  end: float | None = None) -> ContourTrace:
    """Follow the closed SIR level curve of transmitter i, from the ray at
    angle ``direction`` (radians), in steps of ``dt`` meters (scale/200 by
    default).  With ``end``, a polar angle less than one turn past
    ``direction`` and beta >= 1, only the arc up to the ray at angle
    ``end`` is traced (see :func:`_max_range_refined` for its r_lambda).

    The start ray's crossing is bracketed to within dt and its midpoint is
    projected, like each Euler predictor step after it, onto the level
    set, so every returned vertex obeys |S - beta| <= CONTOUR_TOL * beta.
    A step whose projection lands a step or more from its predictor (at a
    corner narrower than the step) is halved and retried, down to
    dt * 2**-MAX_HALVINGS.  One that lands nearer has advanced along its
    heading t: (z_new - z) . t = h + (z_new - z_pred) . t > 0.
    The trace terminates once it returns within dt of the start (after at
    least 10 steps, with a matching heading), or, for an arc, at the first
    vertex whose polar angle has swept past ``end``: at beta >= 1 it
    increases at every step.  A start point too far from
    the probe for the curve to close in MAX_STEPS steps of dt raises
    ValueError before the first step; exhausting MAX_STEPS raises
    :class:`NonClosureError` with the partial trace attached, and a curve
    that misses the transmitter (an exclusion hole) raises
    :class:`UnboundedReceptionError`.  One :class:`Field` serves every SIR
    evaluation of the trace.
    """
    if dt is None:
        dt = ps.scale / 200.0
    if not (0.0 < dt < math.inf and math.isfinite(direction)):
        raise ValueError("dt must be finite and positive, direction finite")
    beta = model.beta
    if end is not None and not (beta >= 1.0
                                and 0.0 < end - direction < 2.0 * math.pi):
        raise ValueError("an arc needs beta >= 1 and an end angle less than "
                         "one turn past the direction")
    field = Field(ps, i, model.alpha)
    zi = field.center
    z0 = _contour_start(field, beta, direction, dt)
    z0, _, g0 = _project(field, beta, z0, CONTOUR_TOL)
    # A closed curve around the probe through z0 is at least 2 r0 long,
    # and the trace closes within dt of z0.  An accepted step moves a
    # vertex by less than 2 h <= 2 dt (the predictor h, its projection
    # less than h), so closing takes more than (2 r0 - dt) / (2 dt) steps.
    r0 = math.hypot(*(z0 - zi).tolist())
    if 2.0 * r0 - dt > 2.0 * dt * MAX_STEPS:
        raise ValueError(f"a closed curve through the start point at "
                         f"r0 = {r0:.6g} needs more than MAX_STEPS = "
                         f"{MAX_STEPS} steps of dt = {dt:g}")
    t0 = _J @ (g0 / np.linalg.norm(g0))

    verts = [z0]
    grads = [g0]
    z, g = z0, g0
    closed = False
    steps = halvings = 0
    # The polar angle swept since the start, for an arc.
    swept, sweep = 0.0, math.inf if end is None else end - direction
    while steps < MAX_STEPS:
        n = math.hypot(g[0], g[1])
        if n < _GRAD_FLOOR:
            raise StationaryPointError("vanishing SIR gradient on the contour")
        heading, h = _J @ g, dt
        for _ in range(MAX_HALVINGS + 1):
            z_pred = z + h * heading / n
            z_new, _, g_new = _project(field, beta, z_pred, CONTOUR_TOL)
            if math.hypot(*(z_new - z_pred).tolist()) < h:
                break
            h *= 0.5
            halvings += 1
        else:
            raise StationaryPointError("no forward contour step down to "
                                       f"dt * 2**-{MAX_HALVINGS}")
        if end is not None:
            (ax, ay), (bx, by) = (z - zi).tolist(), (z_new - zi).tolist()
            swept += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
        z, g = z_new, g_new
        verts.append(z)
        grads.append(g)
        steps += 1
        if swept >= sweep:
            break
        if end is None and steps >= 10 and math.hypot(*(z - z0)) <= dt:
            heading = _J @ (g / math.hypot(g[0], g[1]))
            if float(heading @ t0) > 0.0:
                closed = True
                break
    vertices = np.array(verts)
    if not (closed or swept >= sweep):
        far = int(np.argmax(np.hypot(*(vertices - zi).T)))
        partial = ContourTrace(vertices, vertices[far], float("nan"), False,
                               steps)
        raise NonClosureError(
            f"contour did not close within {MAX_STEPS} steps", trace=partial)
    ends = ()
    if end is not None:
        # At beta >= 1 the region lies in the probe's Voronoi cell, so the
        # start ray meets no exclusion hole.  The arc's far end is its last
        # chord's crossing of the end ray.
        c, s = math.cos(end), math.sin(end)
        ca, cb = (c * y - s * x for x, y in (vertices[-2:] - zi).tolist())
        va, vb = vertices[-2:]
        ends = (z0, va + ca / (ca - cb) * (vb - va))
    elif not point_in_polygon(zi, vertices):
        raise UnboundedReceptionError(
            f"the curve traced at beta={beta:g} does not enclose transmitter "
            f"{i}: the start ray met an interferer's exclusion hole")

    r_lam, z_max = _max_range_refined(vertices, np.array(grads), field, beta,
                                      ends)
    _log.debug("trace of transmitter %d: %d steps, %d halvings, %d near "
               "points, expansion order %d, %d exact-path queries", i, steps,
               halvings, field.near_points, field.order, field.exact_queries)
    return ContourTrace(vertices, z_max, r_lam, closed, steps)


def _max_range_refined(vertices, grads, field, beta, ends=()):
    """Distance maximizer over the traced curve, or over an arc of it with
    end points ``ends`` (near the level set).

    The trace steps along J grad S / |grad S|, so along the curve the
    distance D = |z - z_i| changes at the rate cross(grad D, grad S) /
    |grad S|: D peaks between consecutive vertices k, k+1 (cyclically on a
    closed curve) where cross[k] >= 0 > cross[k+1].  The root of the chord
    through those two cross values is O(dt^2) from the peak, and D is
    stationary there, so that point, projected onto the level set to
    |S - beta| <= CONTOUR_TOL**2 * beta, reads the peak distance to
    O(dt^4); the largest such peak, or projected end point, is returned.
    An arc between two mirror rays of the curve holds its maximum at a
    peak or on a ray, where grad S points along the ray, so the end's
    projection stays on it.  Minima are never refined: they cannot win.
    Falls back to the farthest raw vertex when no peak is bracketed.
    """
    zi = field.center
    dz = vertices - zi
    dists = np.hypot(dz[:, 0], dz[:, 1])
    cross = (dz[:, 0] * grads[:, 1] - dz[:, 1] * grads[:, 0]) / dists
    nxt = np.roll(cross, -1)
    peaks = np.flatnonzero((cross >= 0.0) & (nxt < 0.0))
    if ends:
        peaks = peaks[peaks < len(vertices) - 1]
    elif not len(peaks):
        k = int(np.argmax(dists))
        return float(dists[k]), vertices[k]

    candidates = [_project(field, beta, z, CONTOUR_TOL ** 2)[0] for z in ends]
    for a in peaks:
        va, vb = vertices[a], vertices[(a + 1) % len(vertices)]
        zm = va + cross[a] / (cross[a] - nxt[a]) * (vb - va)
        candidates.append(_project(field, beta, zm, CONTOUR_TOL ** 2)[0])
    cand = np.array(candidates)
    d = np.hypot(cand[:, 0] - zi[0], cand[:, 1] - zi[1])
    k = int(np.argmax(d))
    return float(d[k]), cand[k]


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


# Membership raster in certified blocks: near sums exact, far sums bounded
# (Barnes & Hut 1986).  The raster is tiled into RASTER_BLOCK x RASTER_BLOCK
# blocks.  With c a block's center and delta the largest distance from c to
# one of its cells, every cell y of the block has |y - x| within delta of
# |c - x| for every transmitter x.
#
# * Block test.  A block fails whole when the signal at its nearest possible
#   distance |c - x_i| - delta loses to the RASTER_NEIGHBORS + 1 nearest
#   transmitters of c (i left out) at their farthest, |c - x_j| + delta.
# * Near/far interval.  In a surviving block, the block test's neighbors,
#   summed exactly per cell, fail most cells.  Where cells are still open,
#   interferers within RASTER_NEAR scales plus delta of c are near, and the
#   rest enter as the interval
#   [sum (|c - x| + delta)^-alpha, sum (|c - x| - delta)^-alpha] (those far
#   from every open block through one interval that all of them share).  A
#   block succeeds whole when the signal at |c - x_i| + delta clears beta
#   times the near transmitters at their nearest plus the upper end.
#   Otherwise the near ones are summed exactly per cell: a cell succeeds
#   when the signal clears beta (near + upper end) and fails when it loses
#   to beta (near + lower end).
# * Full sum.  Cells the bounds leave open go through decodes, so the full
#   sum has the last word.
#
# A bound must win by the relative DECODE_MARGIN, widened for a subnormal
# beta by the absolute rounding of the full sum's products.  Comparisons are
# between logs of sums normalized by their largest term, over distances in
# units of the set's scale, so extreme alpha and beta neither overflow nor
# underflow, and a NaN settles nothing.  Temporary (blocks x points) arrays
# are built in propagation's row chunks, as every full sum is.
RASTER_BLOCK = 8
RASTER_NEIGHBORS = 8
RASTER_NEAR = 3.0
# Cell states: left open for the full sum, member, failed by a cell's own
# bounds, failed with its whole block.
_OPEN, _MEMBER, _FAILED, _BLOCK_FAILED = -1, 1, 0, 2


@dataclass
class RasterCounts:
    """Cells of membership rasters, accumulated over calls: settled by the
    block test (``block``), by the near/far interval (``interval``), or by
    the full sum of :func:`~macgeo.propagation.decodes` (``full``)."""

    cells: int = 0
    block: int = 0
    interval: int = 0

    @property
    def full(self) -> int:
        return self.cells - self.block - self.interval


def _log_power_sum(t: np.ndarray, p: float) -> np.ndarray:
    """log sum_j t_j^-p along the last axis of t, each row normalized by its
    smallest entry.  inf entries add nothing (a row of them gives -inf); a
    row with an entry <= 0, a distance bound that may vanish, gives inf."""
    t0 = t.min(axis=-1, initial=np.inf)
    norm = np.where(np.isinf(t0), 1.0, t0)
    u = t / norm[..., None]
    np.power(u, -p, out=u)
    return np.where(t0 <= 0, np.inf, np.log(u.sum(axis=-1)) - p * np.log(norm))


def membership_grid(i: int, ps: PointSet, model: ChannelModel,
                    extent: float, n: int, counts: RasterCounts | None = None):
    """Rasterized reception indicator of transmitter i on an n x n lattice
    over [-extent, extent]^2 around the transmitter.

    Works for any beta (including beta < 1 where the region may be
    unbounded or split); cells landing on interferers are non-members.
    Blocks of cells are settled by bounds where they provably decide, and
    the remaining cells by :func:`~macgeo.propagation.decodes`, so every
    cell equals the full sum's decision.  ``counts``, when given,
    accumulates how each cell was settled.  Returns (xs, ys, member) with
    member indexed [iy, ix].
    """
    if n < 1:
        raise ValueError("the raster needs at least one cell per side")
    if not (0.0 < extent < math.inf):
        raise ValueError("the raster's half-width must be finite and positive")
    check_budget(n * n, "raster cells")
    zi = ps.points[i]
    step = 2.0 * extent / n
    b = min(RASTER_BLOCK, n)
    nb = -(-n // b)
    # Cell centers, continued past the raster so that every block is full;
    # row k of bxs (bys) holds the x (y) of block column (row) k.
    xs = zi[0] - extent + (np.arange(nb * b) + 0.5) * step
    ys = zi[1] - extent + (np.arange(nb * b) + 0.5) * step
    bxs, bys = xs.reshape(nb, b), ys.reshape(nb, b)
    cx = 0.5 * (bxs[:, 0] + bxs[:, -1])
    cy = 0.5 * (bys[:, 0] + bys[:, -1])
    delta = math.hypot(np.abs(bxs - cx[:, None]).max(),
                       np.abs(bys - cy[:, None]).max())
    # Block by * nb + bx, cell [u, v] is raster cell [by b + u, bx b + v].
    centers = np.stack(np.broadcast_arrays(cx[None, :], cy[:, None]),
                       axis=-1).reshape(-1, 2)
    state = np.full((nb * nb, b, b), _OPEN, dtype=np.int8)
    with np.errstate(all="ignore"):
        _settle_blocks(i, ps, model, centers, bxs, bys, delta, state)
    state = state.reshape(nb, nb, b, b).transpose(0, 2, 1, 3)
    state = state.reshape(nb * b, nb * b)[:n, :n]
    member = state == _MEMBER
    iy, ix = np.nonzero(state == _OPEN)
    member[iy, ix] = decodes(np.column_stack((xs[ix], ys[iy])), ps, i, model)
    if counts is not None:
        counts.cells += n * n
        counts.block += int(np.count_nonzero(state == _BLOCK_FAILED))
        counts.interval += int(np.count_nonzero((state == _MEMBER)
                                                | (state == _FAILED)))
    return xs[:n], ys[:n], member


def _settle_blocks(i, ps, model, centers, bxs, bys, delta, state):
    """Settle the cells of the (blocks, b, b) array state that the bounds
    decide."""
    pts = ps.points
    alpha = model.alpha
    inv_s = 1.0 / ps.scale
    if model.beta > 0:
        margin = (DECODE_MARGIN
                  + 2.0 * np.finfo(float).smallest_subnormal / model.beta)
        win = math.log(model.beta) + math.log1p(margin)
        lose = math.log(model.beta) + math.log1p(-margin)
    else:
        win = lose = -math.inf
    nb = len(bxs)

    def cells(blocks, nidx):
        return _cell_sums(i, ps, alpha, centers[blocks], bxs[blocks % nb],
                          bys[blocks // nb], nidx)

    # Block test.
    index = CellIndex(pts, 0.0)
    k = min(RASTER_NEIGHBORS + 1, len(pts))
    # The first disc holds 1.25 k points on average.
    dist, idx = index.k_nearest(centers, k,
                                math.sqrt(1.25 * k / math.pi) * ps.scale)
    dist[idx == i] = np.inf
    dc = np.hypot(centers[:, 0] - pts[i, 0], centers[:, 1] - pts[i, 1])
    fail = (-alpha * np.log((dc - delta) * inv_s)
            < lose + _log_power_sum((dist + delta) * inv_s, alpha))
    state[fail] = _BLOCK_FAILED

    # The same neighbors, summed exactly per cell, fail most cells of the
    # surviving blocks.
    live = np.flatnonzero(~fail)
    lg, ln = cells(live, idx[live])
    state[live] = np.where(lg - ln < lose, _FAILED, _OPEN)

    # Near/far interval, for blocks with cells still open.
    live = live[(state[live] == _OPEN).any(axis=(1, 2))]
    if not len(live):
        return
    radius = RASTER_NEAR * ps.scale + delta
    # Empty slots point at i, which no sum takes.
    near, d2 = index.within(centers[live], radius, i)
    dist = np.sqrt(d2)
    dist[near == i] = np.inf
    llo, lhi = _far_interval(i, ps, alpha, centers[live], near, radius, delta)
    near_hi = _log_power_sum((dist - delta) * inv_s, alpha)
    whole = (-alpha * np.log((dc[live] + delta) * inv_s)
             >= win + np.logaddexp(near_hi, lhi))
    s = state[live[whole]]
    s[s == _OPEN] = _MEMBER
    state[live[whole]] = s
    keep = ~whole
    live, llo, lhi = live[keep], llo[keep, None, None], lhi[keep, None, None]
    lg, ln = cells(live, near[keep])
    s = state[live]
    s[(s == _OPEN) & (lg - np.logaddexp(ln, lhi) >= win)] = _MEMBER
    s[(s == _OPEN) & (lg - np.logaddexp(ln, llo) < lose)] = _FAILED
    state[live] = s


def _cell_sums(i, ps, alpha, centers, bx, by, nidx):
    """Per cell [u, v] of each block, whose cells sit at (bx[v], by[u]): log
    of the signal and log of the interference from the block's
    transmitters nidx (i left out), over distances in units of the scale,
    clamped as in decodes."""
    pts = ps.points
    inv_s = 1.0 / ps.scale
    guard2 = SINGULARITY_GUARD ** 2
    b = bx.shape[1]
    lg = np.empty((len(centers), b, b))
    ln = np.empty((len(centers), b, b))
    for sl in _chunks(len(centers), b * b * nidx.shape[1]):
        # Offsets from the block's center; a left-out transmitter sits at
        # infinity.
        c = centers[sl]
        ox = (bx[sl] - c[:, :1]) * inv_s
        oy = (by[sl] - c[:, 1:]) * inv_s
        q = (pts[nidx[sl]] - c[:, None, :]) * inv_s
        q[nidx[sl] == i] = np.inf
        dx = ox[:, None, :, None] - q[:, None, None, :, 0]
        dy = oy[:, :, None, None] - q[:, None, None, :, 1]
        d2 = dx * dx + dy * dy
        np.maximum(d2, guard2, out=d2)
        ln[sl] = _log_power_sum(d2, 0.5 * alpha)
        qi = (pts[i] - c) * inv_s
        di = (((ox - qi[:, :1]) ** 2)[:, None, :]
              + ((oy - qi[:, 1:]) ** 2)[:, :, None])
        np.maximum(di, guard2, out=di)
        lg[sl] = -0.5 * alpha * np.log(di)
    return lg, ln


def _far_interval(i, ps, alpha, centers, near, radius, delta):
    """Logs of the lower and upper ends of the far interference of each
    block: every transmitter but i and the block's near ones, at
    |c - x| + delta and |c - x| - delta, in units of the scale.

    Transmitters farther than twice the diagonal of the blocks' bounding
    box plus the near radius from that box enter through one interval
    shared by every block, from their nearest and farthest distances to
    the box; only the rest are summed per block."""
    pts = ps.points
    inv_s = 1.0 / ps.scale
    low, high = centers.min(axis=0), centers.max(axis=0)
    gap = np.hypot(*np.maximum(np.maximum(low - pts, pts - high), 0.0).T)
    reach = np.hypot(*np.maximum(np.abs(pts - low), np.abs(pts - high)).T)
    out = gap > 2.0 * math.hypot(*(high - low)) + radius
    out[i] = False
    out[near] = False
    lo_out = _log_power_sum((reach[out] + delta) * inv_s, alpha)
    hi_out = _log_power_sum((gap[out] - delta) * inv_s, alpha)
    # The rest, with i and the near transmitters at infinity.
    mid = np.flatnonzero(~out)
    pos = np.empty(len(pts), dtype=np.intp)
    pos[mid] = np.arange(len(mid))
    near = pos[near]
    llo = np.empty(len(centers))
    lhi = np.empty(len(centers))
    for sl in _chunks(len(centers), len(mid)):
        d = np.subtract.outer(centers[sl, 0], pts[mid, 0])
        d *= d
        d += np.subtract.outer(centers[sl, 1], pts[mid, 1]) ** 2
        np.sqrt(d, out=d)
        d *= inv_s
        d[:, pos[i]] = np.inf
        np.put_along_axis(d, near[sl], np.inf, axis=1)
        llo[sl] = _log_power_sum(d + delta * inv_s, alpha)
        d -= delta * inv_s
        lhi[sl] = _log_power_sum(d, alpha)
    return np.logaddexp(llo, lo_out), np.logaddexp(lhi, hi_out)


def max_range_membership(i: int, ps: PointSet, model: ChannelModel,
                         extent: float, n: int) -> float:
    """Maximum range from a membership raster: the farthest member cell
    4-connected to the cell that holds the transmitter, or where that
    cell is not a member, to the member cell nearest to the transmitter.
    Fallback for beta < 1 where the boundary tracer does not apply.

    The components are those of the raster's row runs of member cells
    (:func:`_run_components`); the farthest cell of a run is one of its
    two ends."""
    counts = RasterCounts()
    xs, ys, member = membership_grid(i, ps, model, extent, n, counts)
    _log.debug("membership raster of transmitter %d: %d cells, %d settled by "
               "the block test, %d by the near/far interval, %d full sums", i,
               counts.cells, counts.block, counts.interval, counts.full)
    zi = ps.points[i]
    # The transmitter sits extent = n/2 cells from the raster's edges: in
    # cell n // 2 of each axis (on its corner when n is even).
    iy = ix = n // 2
    if not member[iy, ix]:
        yy, xx = np.nonzero(member)
        if yy.size == 0:
            raise MacGeoError("empty reception region on the raster")
        k = int(np.argmin((xs[xx] - zi[0]) ** 2 + (ys[yy] - zi[1]) ** 2))
        iy, ix = yy[k], xx[k]
    start, end, labels = _run_components(member)
    home = np.searchsorted(start, iy * (n + 1) + ix, side="right") - 1
    mine = labels == labels[home]
    row, first = np.divmod(start[mine], n + 1)
    last = end[mine] - 1 - row * (n + 1)
    dy = ys[row] - zi[1]
    d = np.maximum(np.hypot(xs[first] - zi[0], dy),
                   np.hypot(xs[last] - zi[0], dy))
    return float(d.max())


def _run_components(member: np.ndarray):
    """(start, end, labels) of the runs of True in the rows of the 2-D
    boolean array member, as flat indices of member with a False column
    appended, w = width + 1 wide: run k covers start[k]:end[k] of row
    start[k] // w, and labels[k] is the same for two runs exactly when
    they are 4-connected.

    A run of row r meets the runs of row r - 1 that end past its start
    less w and start before its end less w: a contiguous range of the
    runs, found by two binary searches.  Each round hooks the larger
    label of every joined pair under the smaller and then jumps pointers
    until every label is a root (min-propagation with pointer jumping, as
    in Shiloach & Vishkin, *An O(log n) parallel connectivity algorithm*,
    1982); the rounds end when every joined pair agrees."""
    w = member.shape[1] + 1
    flat = np.zeros(member.shape[0] * w + 1, dtype=bool)
    flat[1:].reshape(-1, w)[:, :-1] = member
    # Every run starts and ends at a change, and the appended column ends
    # each row's last one.
    start, end = np.flatnonzero(flat[1:] != flat[:-1]).reshape(-1, 2).T
    lo = np.searchsorted(end, start - w, side="right")
    a, lens = gather(lo, np.maximum(np.searchsorted(start, end - w), lo))
    b = np.repeat(np.arange(len(start)), lens)
    labels = np.arange(len(start))
    while True:
        la, lb = labels[a], labels[b]
        if np.array_equal(la, lb):
            return start, end, labels
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up


def origin_index(ps: PointSet, at=(0.0, 0.0)) -> int:
    """Index of the transmitter closest to ``at`` (the probe); an empty
    point set (a Poisson draw can be one) has none."""
    pts = ps.points
    if not len(pts):
        raise MacGeoError("empty point set: no transmitter to take as the "
                          "probe")
    return int(np.argmin((pts[:, 0] - at[0]) ** 2 + (pts[:, 1] - at[1]) ** 2))


def lattice_probe(spec: GridSpec, extent: float) -> tuple[PointSet, int]:
    """The pattern's points in [-extent, extent]^2 and the index of its
    probe, lattice index (0, 0), which the pose puts exactly on the spec's
    translation (0 c - 0 s + t is t): one equality match finds it."""
    ps = gen_grid(spec, extent)
    hit = np.flatnonzero(ps.points.view(complex)[:, 0]
                         == complex(*spec.translation))
    if not hit.size:
        raise MacGeoError("probe transmitter missing from the window center")
    return ps, int(hit[0])


def grid_range(spec: GridSpec, model: ChannelModel, extent: float = 5000.0,
               verify_truncation: bool = False) -> RangeResult:
    """Maximum range (r_lambda, r1) of the probe transmitter of a grid
    scheme.

    The probe is the lattice point at the spec's translation (the window
    center by default).  At beta >= 1 and the default pose, the square and
    triangular windows are mirror-symmetric about the probe (x -> -x and
    y -> -y, and x <-> y for the square), and so is the curve, so the
    tracer follows one wedge of it, from angle 0 to MIRROR_WEDGE[kind].
    The tracer and, where it finds no closed curve
    around the probe (the beta < 1 regimes where the region is unbounded
    or split), the farthest cell of a membership raster read the same
    lattice window; ``method`` says which one answered.  With
    ``verify_truncation`` the computation is repeated at twice the extent
    and a relative r1 change above 0.1% raises, guarding against a
    too-small window standing in for the infinite pattern.
    """
    lam = grid_density(spec)
    end = None
    if (model.beta >= 1.0 and spec.rotation == 0.0
            and spec.translation == (0.0, 0.0)):
        end = MIRROR_WEDGE.get(spec.kind)

    def _run(ext):
        ps, i = lattice_probe(spec, ext)
        try:
            return trace_contour(i, ps, model, end=end).r_lambda, "trace"
        except (UnboundedReceptionError, NonClosureError):
            pass
        return _raster_range(i, ps, spec, model), "membership"

    r_lam, method = _run(extent)
    if verify_truncation:
        r_lam2, _ = _run(2.0 * extent)
        if abs(r_lam2 - r_lam) > 1e-3 * r_lam:
            raise MacGeoError(
                f"window truncation error above 0.1%: r={r_lam:.6g} vs {r_lam2:.6g}")
    return RangeResult(r_lam, normalized_range(r_lam, lam), method)


def _raster_range(i: int, ps: PointSet, spec: GridSpec,
                  model: ChannelModel) -> float:
    """r_lambda of probe i from a membership raster of 384 cells a side,
    summing every interferer of the lattice window ps, the window the
    tracer reads.  A decoder z needs g_i(z) >= beta g_j(z) for its nearest
    pattern point j, so it lies within reach = max(1, beta^(-1/alpha))
    covering radii of the probe; the raster's half-width is reach times
    1.25 covering radii (at least 4 lattice scales), up to the window's."""
    reach = max(1.0, model.beta ** (-1.0 / model.alpha))
    window = min(ps.extent,
                 reach * max(4.0 * ps.scale, 1.25 * covering_radius(spec)))
    return max_range_membership(i, ps, model, window, n=384)


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


def trace_summary(trace: ContourTrace, spec: GridSpec, model: ChannelModel,
                  lam: float) -> dict:
    """JSON-ready summary of one traced configuration."""
    return {
        "pattern": spec.kind,
        "d": spec.d,
        "beta": model.beta,
        "alpha": model.alpha,
        "r_lambda": trace.r_lambda,
        "r1": normalized_range(trace.r_lambda, lam),
        "steps": trace.steps,
        "closed": trace.closed,
    }

