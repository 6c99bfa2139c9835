import logging
import math
import re
import warnings

import numpy as np
import pytest
from helpers import full_sir_and_gradient, rowwise_membership
from scipy import ndimage
from scipy.spatial import cKDTree

from macgeo import reception
from macgeo.errors import (MacGeoError, NonClosureError,
                           UnboundedReceptionError, UnsupportedFadingError)
from macgeo.propagation import (EXPANSION_ORDER, NEAR_RADIUS, ChannelModel,
                                fading_success_prob, raster_field, sir)
from macgeo.reception import (ContourTrace, RasterCounts, grid_range,
                              grid_success_prob_fading,
                              grid_success_prob_nofading, lattice_probe,
                              max_range_membership, membership_grid,
                              normalized_range, origin_index,
                              point_in_polygon, trace_contour, trace_summary)
from macgeo.spatial import (CellIndex, GridSpec, PointSet, covering_radius,
                            gen_grid, gen_poisson)

APOLLO = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0, 10.0)


def apollo_model(c, alpha=4.0):
    """Two-transmitter threshold with distance ratio c = beta^(1/alpha)."""
    return ChannelModel(alpha=alpha, beta=c ** alpha)


def start_point(model, direction=0.0):
    """First vertex of the trace: the start ray's crossing of the level
    set, already within the tracer's tolerance."""
    return trace_contour(0, APOLLO, model, direction=direction).vertices[0]


def test_start_point_on_apollonius_circle():
    z = start_point(apollo_model(2.0))
    assert z[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert z[1] == 0.0


def test_start_point_monotone_in_beta():
    xs = [start_point(ChannelModel(4.0, b))[0]
          for b in (4.0, 16.0, 81.0, 625.0)]
    assert all(b < a for a, b in zip(xs, xs[1:]))


def test_start_point_symmetry():
    up = start_point(apollo_model(2.0), math.pi / 2)
    dn = start_point(apollo_model(2.0), -math.pi / 2)
    assert up[1] == pytest.approx(-dn[1], rel=1e-9)
    assert up[0] == pytest.approx(dn[0], abs=1e-12)


def test_start_search_brackets_to_one_step(monkeypatch):
    # The start search doubles out to the first sample below beta, then
    # halves that bracket until it is one step dt wide; the tracer's own
    # projection puts the point on the level set.
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    u = np.array([math.cos(0.7), math.sin(0.7)])
    r, march = 1e-3 * ps.scale, 1
    while sir(i, ps.points[i] + r * u, ps, 4.0) >= 10.0:
        r, march = 2.0 * r, march + 1
    bound = march + math.ceil(math.log2(0.5 * r / (ps.scale / 200.0)))

    inside, calls = [False], [0]
    start = reception._contour_start

    query = reception.Field.sir_and_gradient

    def counted_query(self, rx):
        if inside[0]:
            calls[0] += 1
        return query(self, rx)

    def counted_start(*args):
        inside[0] = True
        try:
            return start(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(reception.Field, "sir_and_gradient", counted_query)
    monkeypatch.setattr(reception, "_contour_start", counted_start)
    assert trace_contour(i, ps, ChannelModel(4.0, 10.0), direction=0.7).closed
    assert march < calls[0] <= bound


def test_unbounded_reception_below_beta_one():
    # With two transmitters the SIR tends to 1 far away, so beta = 0.5
    # never crosses along the outward ray.
    with pytest.raises(UnboundedReceptionError):
        trace_contour(0, APOLLO, ChannelModel(4.0, 0.5), direction=math.pi)


def test_trace_matches_apollonius_circle():
    trace = trace_contour(0, APOLLO, apollo_model(2.0))
    assert trace.closed
    center, radius = np.array([-1.0 / 3.0, 0.0]), 2.0 / 3.0
    dev = np.abs(np.hypot(*(trace.vertices - center).T) - radius)
    assert dev.max() < 1e-3 * radius
    assert trace.r_lambda == pytest.approx(1.0, rel=1e-6)
    # Farthest point sits diametrally opposite the interferer.
    assert trace.max_range_point[0] == pytest.approx(-1.0, abs=1e-5)


@pytest.mark.parametrize("c,alpha", [(2.0, 4.0), (3.0, 4.0), (1.5, 3.0),
                                     (4.0, 5.0)])
def test_max_range_apollonius(c, alpha):
    trace = trace_contour(0, APOLLO, apollo_model(c, alpha))
    assert trace.r_lambda == pytest.approx(1.0 / (c - 1.0), rel=1e-3)


def test_first_order_convergence_without_corrector(monkeypatch):
    # With a loose tolerance the Newton corrector stays quiet, so the raw
    # Euler recurrence is exposed: halving dt halves the drift.  Every
    # level set of the two-transmitter field is an Apollonius circle, so
    # the drift is measured against the circle through the actual start
    # vertex, over a quarter arc (well inside the correction band).
    model = apollo_model(2.0)
    arc = 0.25 * 2.0 * math.pi * (2.0 / 3.0)

    monkeypatch.setattr(reception, "CONTOUR_TOL", 0.1)

    def max_dev(dt):
        monkeypatch.setattr(reception, "MAX_STEPS", max(1000, round(arc / dt)))
        try:
            trace_contour(0, APOLLO, model, dt=dt)
            raise AssertionError("expected the fixed-arc budget to stop the trace")
        except NonClosureError as err:
            verts = err.trace.vertices
        z0 = verts[0]
        c0 = math.hypot(z0[0] - 1.0, z0[1]) / math.hypot(z0[0], z0[1])
        center = np.array([-1.0 / (c0 ** 2 - 1.0), 0.0])
        radius = c0 / (c0 ** 2 - 1.0)
        return np.abs(np.hypot(*(verts - center).T) - radius).max()

    e1, e2 = max_dev(arc / 1000.0), max_dev(arc / 2000.0)
    assert 1.5 < e1 / e2 < 2.8


def test_all_vertices_on_level_set():
    assert reception.CONTOUR_TOL == 1e-6
    model = ChannelModel(4.0, 10.0)
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    trace = trace_contour(i, ps, model)
    for v in trace.vertices[:: max(1, len(trace.vertices) // 50)]:
        assert abs(sir(i, v, ps, 4.0) - 10.0) <= 1e-6 * 10.0


def test_square_grid_alpha100_voronoi_corner():
    ps = gen_grid(GridSpec("square", 1.0), 60.0)
    i = origin_index(ps)
    trace = trace_contour(i, ps, ChannelModel(100.0, 1.0))
    assert trace.r_lambda == pytest.approx(1.0 / math.sqrt(2.0), rel=0.02)
    # The refined maximizer lies on a cell diagonal; the smallest-angle
    # tie-break picks the first quadrant one.
    ang = math.atan2(trace.max_range_point[1], trace.max_range_point[0])
    assert ang == pytest.approx(math.pi / 4.0, abs=0.02)


def test_square_grid_fourfold_symmetry():
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    model = ChannelModel(4.0, 10.0)
    rs = []
    for k in range(4):
        rs.append(trace_contour(i, ps, model,
                                direction=k * math.pi / 2.0).r_lambda)
    spread = (max(rs) - min(rs)) / max(rs)
    assert spread < 1e-6


@pytest.mark.parametrize("kind, alpha, beta, maxima", [
    ("square", 4.0, 10.0, 4), ("triangular", 4.0, 10.0, 6),
    ("hexagonal", 3.0, 1.0, 3)])
def test_range_refinement_projects_once_per_maximum(monkeypatch, kind, alpha,
                                                    beta, maxima):
    # One projection for the start, one per step, and one per distance
    # maximum of the curve; minima are never refined.
    project = reception._project
    calls = []

    def counted(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(reception, "_project", counted)
    ps = gen_grid(GridSpec(kind, 1.0), 40.0)
    trace = trace_contour(origin_index(ps), ps, ChannelModel(alpha, beta))
    assert len(calls) == trace.steps + 1 + maxima


def test_normalized_range():
    assert normalized_range(0.7, 1.0) == pytest.approx(0.7)
    assert normalized_range(0.35, 4.0) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        normalized_range(-1.0, 1.0)


def test_grid_range_homothety():
    model = ChannelModel(4.0, 10.0)
    a = grid_range(GridSpec("square", 25.0), model, extent=2000.0)
    b = grid_range(GridSpec("square", 50.0), model, extent=2000.0)
    assert abs(a.r1 - b.r1) / a.r1 < 0.005
    assert b.r_lambda == pytest.approx(2.0 * a.r_lambda, rel=0.005)


def test_trace_refuses_an_exclusion_hole():
    # At beta 1e-5 the SIR stays above beta along the start ray up to the
    # interferer at (1, 0), and the first crossing bounds that
    # interferer's exclusion hole, a closed curve that misses the probe.
    ps = gen_grid(GridSpec("square", 1.0), 20.0)
    with pytest.raises(UnboundedReceptionError, match="exclusion hole"):
        trace_contour(origin_index(ps), ps, ChannelModel(4.0, 1e-5))


@pytest.mark.parametrize("spec", [GridSpec("square", 1.0),
                                  GridSpec("linear", 1.0, 1.0, 64.0),
                                  GridSpec("hexagonal", 1.0)])
def test_raster_range_within_the_covering_bound(spec):
    # A decoder lies within max(1, beta^(-1/alpha)) covering radii of the
    # probe, so the raster's window (1.25 times that) holds the region.
    ps, i = lattice_probe(spec, 200.0)
    for alpha, beta in ((3.0, 1e-3), (4.0, 0.3), (8.0, 2.0)):
        reach = max(1.0, beta ** (-1.0 / alpha))
        r = reception._raster_range(i, ps, spec, ChannelModel(alpha, beta))
        assert 0 < r <= reach * covering_radius(spec)


def test_raster_fallback_builds_one_lattice_window(monkeypatch):
    # The tracer and the raster read the same window: one lattice build.
    builds = []
    real = reception.gen_grid

    def counted(spec, extent):
        builds.append(extent)
        return real(spec, extent)

    monkeypatch.setattr(reception, "gen_grid", counted)
    res = grid_range(GridSpec("square", 1.0), ChannelModel(4.0, 1e-5),
                     extent=40.0)
    assert res.method == "membership"
    assert builds == [40.0]


@pytest.mark.parametrize("kind", ["square", "triangular"])
def test_raster_fallback_sums_every_interferer_the_tracer_sums(monkeypatch,
                                                               kind):
    # At alpha 2.2 far interferers matter: on a wider window both methods
    # read a smaller range, and on every window the raster lies within
    # one of its cells of the traced range.
    spec, model = GridSpec(kind, 1.0), ChannelModel(2.2, 0.3)
    traced = {ext: grid_range(spec, model, extent=ext) for ext in (40.0, 200.0)}
    windows = []
    real_raster = reception.max_range_membership

    def spied(i, ps, channel, extent, n):
        windows.append(extent)
        return real_raster(i, ps, channel, extent, n)

    def refuse(*args, **kwargs):
        raise UnboundedReceptionError("tracer refused for the test")

    monkeypatch.setattr(reception, "max_range_membership", spied)
    monkeypatch.setattr(reception, "trace_contour", refuse)
    rastered = {}
    for ext, want in traced.items():
        got = grid_range(spec, model, extent=ext)
        assert (want.method, got.method) == ("trace", "membership")
        cell = 2.0 * windows[-1] / 384
        assert abs(got.r_lambda - want.r_lambda) <= cell, (ext, got, want)
        rastered[ext] = got.r1
    assert rastered[200.0] < rastered[40.0]


def test_lattice_probe():
    # The probe, lattice index (0, 0), lands exactly on the translation
    # under any pose, and it is the point nearest to it.
    spec = GridSpec("triangular", 2.0, translation=(0.3, -0.4))
    ps, i = lattice_probe(spec, 10.0)
    assert np.array_equal(ps.points, gen_grid(spec, 10.0).points)
    rng = np.random.default_rng(3)
    for kind in ("square", "triangular", "hexagonal", "rectangular"):
        k2 = 2.0 if kind == "rectangular" else 1.0
        for _ in range(4):
            t = tuple(rng.uniform(-9.0, 9.0, 2).tolist())
            spec = GridSpec(kind, 1.3, 1.0, k2, rng.uniform(0.0, 7.0), t)
            ps, i = lattice_probe(spec, 10.0)
            assert tuple(ps.points[i].tolist()) == t
            assert i == origin_index(ps, t)
    with pytest.raises(MacGeoError, match="probe"):
        lattice_probe(GridSpec("square", 1.0, translation=(12.5, 0.0)), 10.0)


def test_membership_grid_budget():
    with pytest.raises(ValueError, match="budget"):
        membership_grid(0, APOLLO, ChannelModel(4.0, 1.0), 1.0, 50_000)


@pytest.mark.parametrize("extent", [-3.0, 0.0, math.nan, math.inf, -math.inf])
def test_membership_grid_refuses_a_bad_half_width(extent):
    # A negative half-width once mirrored the raster into a range of 0.53,
    # zero gave 0.0, and NaN or inf reached scipy after a RuntimeWarning.
    ps = gen_grid(GridSpec("square", 1.0), 4.0)
    i = int(np.argmin(np.hypot(*ps.points.T)))
    model = ChannelModel(4.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (membership_grid, max_range_membership):
            with pytest.raises(ValueError, match="half-width"):
                call(i, ps, model, extent, 8)


def test_grid_range_truncation_guard():
    model = ChannelModel(4.0, 10.0)
    res = grid_range(GridSpec("square", 1.0), model, extent=60.0,
                     verify_truncation=True)
    assert res.r1 > 0
    # At alpha 2.2 the far lattice still moves the range: doubling the
    # window shifts r by 3.6% (0.0888 to 0.0856).
    with pytest.raises(MacGeoError, match="truncation"):
        grid_range(GridSpec("square", 1.0), ChannelModel(2.2, 10.0),
                   extent=60.0, verify_truncation=True)


@pytest.mark.parametrize("kind,want", [("square", 0.3335720878210912),
                                       ("triangular", 0.3341293268989177)])
def test_default_window_r1(kind, want):
    # Full-window r1 at the CLI defaults (10 km map, d = 25 m).
    res = grid_range(GridSpec(kind, 25.0), ChannelModel(4.0, 10.0),
                     extent=5000.0)
    assert res.r1 == pytest.approx(want, rel=1e-6)


def test_default_window_alpha100_trace():
    ps = gen_grid(GridSpec("square", 25.0), 5000.0)
    trace = trace_contour(origin_index(ps), ps, ChannelModel(100.0, 1.0))
    assert normalized_range(trace.r_lambda, ps.density) == \
        pytest.approx(0.7009129728725239, rel=1e-6)


def test_trace_logs_field_counters(caplog):
    caplog.set_level(logging.DEBUG, logger="macgeo")
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    trace = trace_contour(i, ps, ChannelModel(4.0, 10.0))
    near = int(np.count_nonzero(np.hypot(*(ps.points - ps.points[i]).T)
                                <= NEAR_RADIUS * ps.scale)) - 1
    # Most of the Apollonius circle at c = 1.5 (radius 1.2, farthest point
    # 2 from the transmitter) lies beyond the validity radius.
    trace_contour(0, APOLLO, apollo_model(1.5))
    recs = [r for r in caplog.records if r.name == "macgeo.reception"]
    assert [r.levelno for r in recs] == [logging.DEBUG] * 2
    assert recs[0].getMessage() == (
        f"trace of transmitter {i}: {trace.steps} steps, 0 halvings, {near} "
        f"near points, expansion order {EXPANSION_ORDER}, 0 exact-path "
        "queries")
    exact = re.search(r", 1 near points, expansion order \d+, (\d+) "
                      r"exact-path queries$", recs[1].getMessage())
    assert exact and int(exact.group(1)) > 0


def test_trace_halves_its_step_at_a_sharp_corner(monkeypatch):
    # At alpha 100 the curve is nearly the Voronoi square, and one step of
    # dt = 0.02 is wider than its rounded corners: a full step's projection
    # lands on the other edge at (0.5, 0.5), behind the vertex.  Halved
    # steps turn the corner, and r_lambda agrees with the default dt's.
    monkeypatch.setattr(reception, "MAX_STEPS", 5000)
    ps, i = lattice_probe(GridSpec("square", 1.0), 40.0)
    model = ChannelModel(100.0, 1.0)
    coarse = trace_contour(i, ps, model, dt=0.02, direction=0.7)
    fine = trace_contour(i, ps, model, direction=0.7)
    assert coarse.closed and coarse.steps < 300
    assert coarse.r_lambda == pytest.approx(fine.r_lambda, rel=1e-5)


@pytest.mark.parametrize("beta", [1.0, 10.0])
def test_trace_winds_once_with_increasing_polar_angle(beta):
    # For beta >= 1 the reception region is star-shaped about the
    # transmitter (see the reception module), so the traced polar angle
    # increases at every step and winds once around it.
    sets = [lattice_probe(GridSpec(kind, 25.0), 5000.0)
            for kind in ("square", "triangular", "hexagonal")]
    ps = gen_poisson(1.0, 30.0, 11)
    sets.append((ps, origin_index(ps)))
    for ps, i in sets:
        trace = trace_contour(i, ps, ChannelModel(4.0, beta))
        dz = trace.vertices - ps.points[i]
        turn = np.diff(np.unwrap(np.arctan2(dz[:, 1], dz[:, 0])))
        assert np.all(turn > 0.0)
        assert turn.sum() / (2.0 * math.pi) == pytest.approx(1.0, rel=1e-2)


def test_nonclosure_carries_partial_trace(monkeypatch):
    monkeypatch.setattr(reception, "MAX_STEPS", 1000)
    with pytest.raises(NonClosureError) as err:
        trace_contour(0, APOLLO, apollo_model(1.2))
    partial = err.value.trace
    assert isinstance(partial, ContourTrace)
    assert not partial.closed and len(partial.vertices) == 1001


def test_heaviside_success():
    model = apollo_model(2.0)
    # Inside the beta=16 Apollonius circle (analytic membership).
    assert grid_success_prob_nofading(0, (0.2, 0.0), APOLLO, model) == 1.0
    assert grid_success_prob_nofading(0, (0.5, 0.0), APOLLO, model) == 0.0
    assert grid_success_prob_nofading(0, (100.0, 0.0), APOLLO, model) == 0.0
    # Boundary vertex counts as success (>= convention).
    trace = trace_contour(0, APOLLO, model)
    hits = [grid_success_prob_nofading(0, v, APOLLO, model)
            for v in trace.vertices[::40]]
    assert np.mean(hits) > 0.4  # tolerance-wide boundary band


def test_heaviside_agrees_with_winding_number():
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    model = ChannelModel(4.0, 10.0)
    trace = trace_contour(i, ps, model)
    rng = np.random.default_rng(8)
    box = 1.3 * np.abs(trace.vertices).max()
    for _ in range(100):
        z = rng.uniform(-box, box, size=2)
        if np.min(np.hypot(*(ps.points - z).T)) < 1e-3:
            continue
        inside = point_in_polygon(z, trace.vertices)
        hit = grid_success_prob_nofading(i, z, ps, model) == 1.0
        if abs(sir(i, z, ps, model.alpha) - model.beta) > 1e-4 * model.beta:
            assert inside == hit


def test_heaviside_on_an_interferer_fails_quietly():
    ps = gen_grid(GridSpec("square", 1.0), 20.0)
    i = origin_index(ps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_success_prob_nofading(i, (1.0, 0.0), ps,
                                          ChannelModel(4.0, 1.0)) == 0.0


def test_batched_sir_excludes_the_probe():
    # A 2 x 2 raster over [-0.02, 0.02]^2 samples (+-0.01, +-0.01), where
    # the probe's own power is ~1e14 times the interference.
    alpha = 8.0
    ps = gen_grid(GridSpec("square", 1.0), 20.0)
    i = origin_index(ps)
    xs, ys, s = raster_field(ps, alpha, 0.02, 2, quantity="sir", i=i)
    want = np.array([[full_sir_and_gradient(i, (x, y), ps.points, alpha)[0]
                      for x in xs] for y in ys])
    assert np.allclose(s, want, rtol=1e-9, atol=0.0)
    for beta, member in ((want[0, 0] * (1 - 1e-6), True),
                         (want[0, 0] * (1 + 1e-6), False)):
        model = ChannelModel(alpha, beta)
        assert grid_success_prob_nofading(i, (xs[0], ys[0]), ps, model) == member
        _, _, grid = membership_grid(i, ps, model, 0.02, 2)
        assert grid[0, 0] == member


def test_fading_product_basic_values():
    model = ChannelModel(4.0, 1e-12, fading="exponential")
    assert grid_success_prob_fading(0, (0.3, 0.0), APOLLO, model) == \
        pytest.approx(1.0, abs=1e-9)
    equidistant = ChannelModel(4.0, 1.0, fading="exponential")
    assert grid_success_prob_fading(0, (0.5, 0.0), APOLLO, equidistant) == \
        pytest.approx(0.5, rel=1e-12)
    with pytest.raises(UnsupportedFadingError):
        grid_success_prob_fading(0, (0.5, 0.0), APOLLO, ChannelModel(4.0, 1.0))


def test_fading_product_extreme_alpha():
    # At alpha 100 an interferer 1e-3 from the receiver outweighs the holder
    # by 1e400, past the float range; the product stays finite and silent.
    ps = PointSet(np.array([(0.0, 0.0), (10.0, 0.0)]), 1e-2, 20.0)
    model = ChannelModel(100.0, 1.0, fading="exponential")
    rx = np.array([(9.999, 0.0), (1e-3, 0.0), (5.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [grid_success_prob_fading(0, z, ps, model) for z in rx]
        batch = fading_success_prob(rx, ps, 0, model)
    assert got == [0.0, 1.0, 0.5]
    assert batch.tolist() == got


def test_fading_product_monotone():
    ps = gen_grid(GridSpec("square", 1.0), 30.0)
    i = origin_index(ps)
    rx = (0.3, 0.22)
    vals = [grid_success_prob_fading(
        i, rx, ps, ChannelModel(4.0, b, fading="exponential"))
        for b in (0.1, 0.5, 1.0, 5.0, 20.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # Monotone non-increasing in each interference weight: pulling one
    # interferer closer (raising its w_j) can only hurt.
    model = ChannelModel(4.0, 1.0, fading="exponential")
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.4]])
    p_far = grid_success_prob_fading(
        0, rx, PointSet(base, 1.0, 5.0), model)
    closer = base.copy()
    closer[2] = (0.0, 1.1)
    p_near = grid_success_prob_fading(
        0, rx, PointSet(closer, 1.0, 5.0), model)
    assert p_near < p_far


def test_fading_product_matches_bernoulli_mc():
    # Exact draws for interferers within radius 6; the farther lattice
    # enters through its mean (variance there is ~1e-9 of the threshold).
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    beta, alpha = 1.0, 4.0
    model = ChannelModel(alpha, beta, fading="exponential")
    rng = np.random.default_rng(17)
    rx = np.array([0.4, 0.4]) / math.sqrt(2.0)  # r = 0.4 on the diagonal

    p_formula = grid_success_prob_fading(i, rx, ps, model)

    d2 = ((ps.points - rx) ** 2).sum(axis=1)
    r2 = d2[i]
    d2 = np.delete(d2, i)
    w = (d2 / r2) ** (-alpha / 2.0)
    near = w[d2 <= 36.0]
    far_mean = w[d2 > 36.0].sum()
    trials = 200_000
    f_sig = rng.exponential(1.0, trials)
    f_int = rng.exponential(1.0, (trials, len(near)))
    g = f_int @ near + far_mean
    p_hat = np.mean(f_sig >= beta * g)
    se = math.sqrt(p_hat * (1 - p_hat) / trials)
    assert abs(p_hat - p_formula) < 3 * se


def test_membership_grid_and_flood_fill():
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    model = ChannelModel(4.0, 10.0)
    trace = trace_contour(i, ps, model)
    r_member = max_range_membership(i, ps, model, extent=1.0, n=400)
    assert r_member == pytest.approx(trace.r_lambda, rel=0.02)
    # beta < 1 regime: reception reaches past the nearest interferer ring.
    low = ChannelModel(4.0, 0.05)
    r_low = max_range_membership(i, ps, model=low, extent=4.0, n=400)
    assert r_low > trace.r_lambda
    xs, ys, member = membership_grid(i, ps, low, extent=4.0, n=64)
    assert member.any() and not member.all()
    with pytest.raises(ValueError):
        membership_grid(i, ps, low, extent=4.0, n=0)


def test_membership_logs_decision_counts(caplog):
    ps = gen_grid(GridSpec("square", 1.0), 20.0)
    i = origin_index(ps)
    with caplog.at_level(logging.DEBUG, logger="macgeo.reception"):
        max_range_membership(i, ps, ChannelModel(4.0, 0.05), extent=4.0, n=40)
    recs = [r for r in caplog.records if r.name == "macgeo.reception"]
    assert len(recs) == 1
    m = re.search(r"(\d+) cells, (\d+) settled by the block test, (\d+) by "
                  r"the near/far interval, (\d+) full sums$",
                  recs[0].getMessage())
    cells, block, interval, full = map(int, m.groups())
    assert cells == 1600 and block + interval + full == cells
    assert block > 0 and interval > 0


def labelled_range(i, ps, model, extent, n):
    """max_range_membership by scipy's labelling: the farthest cell of the
    4-connected component of the raster cell n // 2 (which holds the
    transmitter), or of the member cell nearest to it."""
    xs, ys, member = membership_grid(i, ps, model, extent, n)
    labels, _ = ndimage.label(member)
    zi = ps.points[i]
    home = labels[n // 2, n // 2]
    if home == 0:
        yy, xx = np.nonzero(member)
        k = np.argmin((xs[xx] - zi[0]) ** 2 + (ys[yy] - zi[1]) ** 2)
        home = labels[yy[k], xx[k]]
    yy, xx = np.nonzero(labels == home)
    return float(np.hypot(xs[xx] - zi[0], ys[yy] - zi[1]).max())


@pytest.mark.parametrize("kind,beta,n", [
    ("square", 0.05, 400), ("square", 1e-5, 384), ("triangular", 0.2, 151),
    ("hexagonal", 0.5, 64), ("rectangular", 0.05, 97), ("poisson", 0.05, 200),
    ("poisson", 0.5, 33)])
def test_membership_range_as_labelled(kind, beta, n, raster_sets):
    # The row-run components and run ends give scipy's labelling's range,
    # bit for bit, at even and odd n.
    ps = raster_sets[kind]
    i = origin_index(ps)
    model = ChannelModel(4.0, beta)
    extent = (8.0 if beta < 0.01 else 4.0) * ps.scale
    assert max_range_membership(i, ps, model, extent, n) == \
        labelled_range(i, ps, model, extent, n)


def test_membership_range_starts_in_the_transmitter_cell():
    # On a 3 x 3 raster the centre cell holds the transmitter, but its x
    # and y round 3e-17 below the transmitter's, where a search over the
    # cell centres took the corner cell [2, 2] (range 0.943).
    # Interferers on the four edge cells leave the centre and each corner
    # a component of its own, so the range is the centre's distance.
    zi, extent, n = 0.1, 1.0, 3
    xs = zi - extent + (np.arange(n) + 0.5) * (2.0 * extent / n)
    assert xs[1] < zi
    ps = PointSet(np.array([(zi, zi), (xs[2], xs[1]), (xs[0], xs[1]),
                            (xs[1], xs[2]), (xs[1], xs[0])]), 5 / 16, 2.0)
    model = ChannelModel(4.0, 0.05)
    member = membership_grid(0, ps, model, extent, n)[2]
    assert np.array_equal(member, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    r = max_range_membership(0, ps, model, extent, n)
    assert r == math.hypot(xs[1] - zi, xs[1] - zi) < 1e-16


def test_membership_range_falls_back_to_the_nearest_member():
    # An interferer on the centre of the transmitter's own cell [2, 2]
    # makes it a non-member; the range is then that of the member cell
    # nearest to the transmitter (one of three at 0.707, the first in
    # row-major order).
    ps = PointSet(np.array([(0.0, 0.0), (0.5, 0.5), (-1.5, 1.5)]), 3 / 16,
                  2.0)
    model = ChannelModel(4.0, 1.0)
    member = membership_grid(0, ps, model, 2.0, 4)[2]
    assert not member[2, 2] and member.any()
    r = max_range_membership(0, ps, model, 2.0, 4)
    assert r == labelled_range(0, ps, model, 2.0, 4)


def test_membership_range_refuses_an_empty_region():
    ps = PointSet(np.array([(0.0, 0.0), (3.0, 3.0)]), 2 / 16, 4.0)
    model = ChannelModel(4.0, 1e12)
    assert not membership_grid(0, ps, model, 2.0, 4)[2].any()
    with pytest.raises(MacGeoError, match="empty reception region"):
        max_range_membership(0, ps, model, 2.0, 4)


@pytest.mark.parametrize("kind", ["square", "rectangular", "poisson"])
def test_block_test_neighbours_are_the_nearest(kind, raster_sets):
    # The block test's k nearest, taken from the batched disc query,
    # against cKDTree's query(k=): the same distances, and the same points
    # wherever the k-th and (k + 1)-th distances differ.  Centres reach
    # past the set's box, where the disc doubles.
    ps = raster_sets[kind]
    rng = np.random.default_rng(53)
    lim = 1.5 * ps.extent
    centers = np.vstack((rng.uniform(-lim, lim, size=(300, 2)),
                         ps.points[:10]))
    tree = cKDTree(ps.points)
    for k in (1, 9, 40):
        dist, idx = CellIndex(ps.points, 0.0).k_nearest(
            centers, k, math.sqrt(1.25 * k / math.pi) * ps.scale)
        order = np.argsort(dist, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        want_d, want_i = tree.query(centers, k=k + 1)
        np.testing.assert_array_equal(dist, want_d[:, :k])
        apart = want_d[:, k - 1] < want_d[:, k]
        np.testing.assert_array_equal(np.sort(idx[apart], axis=1),
                                      np.sort(want_i[apart, :k], axis=1))


@pytest.fixture(scope="module")
def raster_sets():
    """Unit-density square, triangular and hexagonal lattices, a 1:4
    rectangular lattice and a Poisson set, each about 12 scales wide, and
    a square lattice wide enough that most of it lies far from every
    block the bounds leave open."""
    sets = {kind: gen_grid(GridSpec(kind, 1.0), 12.0)
            for kind in ("square", "triangular", "hexagonal")}
    sets["rectangular"] = gen_grid(GridSpec("rectangular", 1.0, 1.0, 4.0), 24.0)
    sets["poisson"] = gen_poisson(1.0, 12.0, 5)
    sets["wide"] = gen_grid(GridSpec("square", 1.0), 40.0)
    return sets


# (alpha, beta, n): rasters smaller than a block and not a multiple of it
# (37 is odd, so one cell sits on i) at every alpha and beta, and full
# size at alpha 4; beta from near the smallest normal number (holes
# around the interferers only) to 10 (a small region).
RASTER_CASES = ([(alpha, beta, n) for alpha in (2.2, 4.0, 100.0)
                 for beta in (1e-300, 1e-5, 0.05, 0.5, 10.0) for n in (2, 37)]
                + [(4.0, beta, 384) for beta in (1e-5, 0.05, 0.5, 10.0)])


@pytest.mark.parametrize("kind", ["square", "triangular", "hexagonal",
                                  "rectangular", "poisson"])
def test_membership_grid_equals_rowwise(kind, raster_sets):
    # Every cell equals the row-by-row full-sum decision.  Below beta 0.01
    # the raster spans 8 scales, enough to reach the region's edge at
    # beta 1e-5.
    ps = raster_sets[kind]
    i = origin_index(ps)
    counts = RasterCounts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta, n in RASTER_CASES:
            model = ChannelModel(alpha, beta)
            extent = (8.0 if beta < 0.01 else 3.0) * ps.scale
            got = membership_grid(i, ps, model, extent, n, counts)
            want = rowwise_membership(i, ps, model, extent, n)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (alpha, beta, n)
    assert counts.block > 0 and counts.interval > 0
    assert counts.full < counts.cells // 100


def test_membership_grid_ties_reach_the_full_sum():
    # Six transmitters: every interferer is near, so the bounds are exact
    # sums, and beta set to a cell's own SIR (and one ulp either side)
    # ties there.  Only the margin keeps such a cell from a bound that
    # rounds differently from the full sum.
    rng = np.random.default_rng(2)
    ps = PointSet(rng.uniform(-3.0, 3.0, (6, 2)), 6.0 / 36.0, 3.0)
    i, n, extent = 0, 16, 2.0
    xs, ys, _ = rowwise_membership(i, ps, ChannelModel(4.0, 1.0), extent, n)
    for alpha in (2.2, 4.0, 100.0):
        for iy, ix in rng.integers(0, n, (12, 2)):
            d2 = (xs[ix] - ps.points[:, 0]) ** 2 + (ys[iy] - ps.points[:, 1]) ** 2
            u = d2 / d2.min()
            sir_cell = u[i] ** (-0.5 * alpha) / np.sum(np.delete(u, i) ** (-0.5 * alpha))
            for beta in (np.nextafter(sir_cell, 0.0), sir_cell,
                         np.nextafter(sir_cell, np.inf)):
                model = ChannelModel(alpha, float(beta))
                got = membership_grid(i, ps, model, extent, n)[2]
                want = rowwise_membership(i, ps, model, extent, n)[2]
                assert np.array_equal(got, want), (alpha, iy, ix, beta)


def test_membership_grid_far_transmitters_share_a_bound(raster_sets):
    # Most of the set lies far from every open block, so it enters through
    # the shared interval.
    ps = raster_sets["wide"]
    i = origin_index(ps)
    for alpha, beta, extent in ((2.2, 0.05, 8.0), (4.0, 0.5, 8.0),
                                (2.2, 0.5, 3.0)):
        model = ChannelModel(alpha, beta)
        got = membership_grid(i, ps, model, extent, 384)
        want = rowwise_membership(i, ps, model, extent, 384)
        assert np.array_equal(got[2], want[2]), (alpha, beta)


def test_trace_export():
    model = apollo_model(2.0)
    trace = trace_contour(0, APOLLO, model)
    summary = trace_summary(trace, GridSpec("square", 1.0), model, 1.0)
    assert summary["closed"] is True
    assert summary["r1"] == pytest.approx(trace.r_lambda)


def test_tracer_config_validation():
    for dt in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            trace_contour(0, APOLLO, apollo_model(2.0), dt=dt)
    for direction in (math.nan, math.inf):
        with pytest.raises(ValueError):
            trace_contour(0, APOLLO, apollo_model(2.0), direction=direction)
