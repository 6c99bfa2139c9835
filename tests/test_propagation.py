import math
import warnings

import numpy as np
import pytest
from helpers import (direct_decisions, full_sir_and_gradient, interference,
                     rescale)

from macgeo.errors import DivergentMomentError, SingularityError
from macgeo.propagation import (DECODE_CELL_NEIGHBORS, DECODE_MIN_POINTS,
                                DECODE_NEIGHBORS, SINGULARITY_GUARD,
                                VALID_RADIUS, ChannelModel, DecodeCounts,
                                Field, _outside_cell, decodes, psi,
                                raster_field, sample_fading, sir,
                                sir_and_gradient)
from macgeo.spatial import (GridSpec, PointSet, gen_grid, gen_poisson,
                            grid_density)


def two_tx(d=1.0):
    return PointSet(np.array([[0.0, 0.0], [d, 0.0]]), 1.0, 10.0 * d)


def test_interference_simple_sums():
    ps = two_tx()
    assert interference((0, 1), ps, None, 4.0) == pytest.approx(1.0 + 2.0 ** -2)
    pts = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]), 1.0, 10.0)
    assert interference((0, 0), pts, None, 4.0) == pytest.approx(1.0625)
    # Additivity over a disjoint split.
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(40, 2))
    whole = PointSet(pts, 1.0, 5.0)
    a = PointSet(pts[:17], 1.0, 5.0)
    b = PointSet(pts[17:], 1.0, 5.0)
    rx = (0.123, 0.456)
    assert interference(rx, whole, None, 3.5) == pytest.approx(
        interference(rx, a, None, 3.5) + interference(rx, b, None, 3.5),
        rel=1e-12)


def test_interference_square_lattice_value():
    # Independent truncated-sum oracle with increasing radius + tail.
    def brute(R):
        m = np.arange(-R, R + 1)
        mm, nn = np.meshgrid(m, m)
        d2 = (mm ** 2 + nn ** 2).astype(float).ravel()
        d2 = d2[(d2 > 0) & (d2 <= R * R)]
        return np.sum(d2 ** -2.0) + 2 * math.pi * R ** -2.0 / 2.0

    assert abs(brute(200) - brute(100)) < 1e-6
    oracle = brute(200)
    assert oracle == pytest.approx(6.0268, abs=1e-3)
    ps = gen_grid(GridSpec("square", 1.0), 120.0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    val = interference((0.0, 0.0), ps, i, 4.0)
    assert val == pytest.approx(oracle, abs=1e-3)
    # Consistency with the large-beta range table: I^(-1/4) ~ 0.638232.
    assert oracle ** -0.25 == pytest.approx(0.638232, abs=1e-4)


def test_sir_values():
    ps = two_tx()
    assert sir(0, (0.5, 0.0), ps, 3.3) == pytest.approx(1.0)
    assert sir(0, (0.25, 0.0), ps, 4.0) == pytest.approx(81.0)
    vals = [sir(0, (r, 0.0), ps, 4.0) for r in (0.4, 0.2, 0.1, 0.05)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    lone = PointSet(np.array([[0.0, 0.0]]), 1.0, 5.0)
    assert math.isinf(sir(0, (1.0, 0.0), lone, 4.0))


def test_sir_scale_covariance():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(30, 2))
    ps = PointSet(pts, 1.0, 5.0)
    rx = np.array([0.7, -0.3])
    for a in (0.25, 4.0, 117.0):
        scaled = rescale(ps, a)
        assert sir(4, a * rx, scaled, 3.7) == pytest.approx(
            sir(4, rx, ps, 3.7), rel=1e-12)


def test_sir_gradient_symmetry_and_sign():
    ps = two_tx()
    g = sir_and_gradient(0, (0.5, 0.8), ps, 4.0)[1]
    # On the perpendicular bisector the gradient has no y-component scale:
    # the SIR is symmetric across the bisector, so the along-bisector
    # derivative vanishes... the bisector here is x = 0.5.
    assert abs(g[1]) < 1e-9 * abs(g[0])
    # Between the transmitters, nearer to 0: moving toward the interferer
    # lowers the SIR, so the gradient points back along -x.
    g2 = sir_and_gradient(0, (0.3, 0.0), ps, 4.0)[1]
    assert g2[0] < 0


def test_sir_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(3, 12)
        pts = rng.uniform(-3, 3, size=(n, 2))
        ps = PointSet(pts, 1.0, 3.0)
        alpha = float(rng.uniform(2.5, 6.0))
        while True:
            rx = rng.uniform(-2.5, 2.5, size=2)
            if np.min(np.hypot(*(pts - rx).T)) > 0.15:
                break
        i = int(rng.integers(n))
        g = sir_and_gradient(i, rx, ps, alpha)[1]
        h = 1e-6
        fd = np.array([
            (sir(i, rx + (h, 0), ps, alpha) - sir(i, rx - (h, 0), ps, alpha)) / (2 * h),
            (sir(i, rx + (0, h), ps, alpha) - sir(i, rx - (0, h), ps, alpha)) / (2 * h)])
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-9 * np.linalg.norm(g))


def test_sir_and_gradient_consistent():
    ps = two_tx()
    s, g = sir_and_gradient(0, (0.31, 0.12), ps, 4.0)
    assert s == pytest.approx(sir(0, (0.31, 0.12), ps, 4.0), rel=1e-12)
    want = full_sir_and_gradient(0, np.array([0.31, 0.12]), ps.points, 4.0)[1]
    assert np.allclose(g, want, rtol=1e-12)


@pytest.mark.parametrize("alpha,rx", [(8.0, (1e-3, 3e-4)),
                                      (8.0, (1e-2, 3e-3)),
                                      (100.0, (0.3, 0.09))])
def test_sir_near_probe_does_not_cancel(alpha, rx):
    # Close to the probe its own power dominates; subtracting it from the
    # total left rounding noise (inf, or 36% high) instead of the
    # interference.
    ps = gen_grid(GridSpec("square", 1.0), 20.0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    want, dwant = full_sir_and_gradient(i, rx, ps.points, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, g = sir_and_gradient(i, rx, ps, alpha)
        assert sir(i, rx, ps, alpha) == pytest.approx(want, rel=1e-9)
    assert s == pytest.approx(want, rel=1e-9)
    assert np.linalg.norm(g - dwant) <= 1e-9 * np.linalg.norm(dwant)


@pytest.fixture(scope="module")
def default_windows():
    """The CLI default map (extent 5000, d = 25) for three lattices, and a
    Poisson set of the square lattice's density."""
    sets = {kind: gen_grid(GridSpec(kind, 25.0), 5000.0)
            for kind in ("square", "triangular", "hexagonal")}
    sets["poisson"] = gen_poisson(grid_density(GridSpec("square", 25.0)),
                                  5000.0, 7)
    return sets


@pytest.mark.parametrize("kind", ["square", "triangular", "hexagonal",
                                  "poisson"])
def test_field_matches_full_sum_at_default_window(kind, default_windows):
    ps = default_windows[kind]
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    rng = np.random.default_rng(17)
    r = VALID_RADIUS * ps.scale * np.sqrt(rng.uniform(0.0, 1.0, 40))
    th = rng.uniform(0.0, 2.0 * math.pi, 40)
    zs = ps.points[i] + np.column_stack([r * np.cos(th), r * np.sin(th)])
    for alpha in (2.5, 3.0, 4.0, 8.0, 100.0):
        field = Field(ps, i, alpha)
        for z in zs:
            s, g = field.sir_and_gradient(z)
            want, dwant = full_sir_and_gradient(i, z, ps.points, alpha)
            assert s == pytest.approx(want, rel=1e-9)
            assert np.max(np.abs(g - dwant)) <= 1e-9 * np.max(np.abs(dwant))
        assert field.exact_queries == 0
    # Beyond the validity radius the query sums every point, and says so.
    z = ps.points[i] + 1.5 * VALID_RADIUS * ps.scale * np.array([0.6, 0.8])
    s, g = field.sir_and_gradient(z)
    assert field.exact_queries == 1
    want, dwant = full_sir_and_gradient(i, z, ps.points, field.alpha)
    assert s == pytest.approx(want, rel=1e-9)
    assert np.max(np.abs(g - dwant)) <= 1e-9 * np.max(np.abs(dwant))


KERNEL_BETAS = (1e-5, 0.05, 1.0, 10.0, 100.0)


@pytest.fixture(scope="module")
def decision_sets():
    """Three unit lattices and a Poisson set of unit density at extent 20,
    and a two-point pair, too small for the bound: every receiver of it
    takes the full sum."""
    sets = {kind: gen_grid(GridSpec(kind, 1.0), 20.0)
            for kind in ("square", "triangular", "hexagonal")}
    sets["poisson"] = gen_poisson(1.0, 20.0, 3)
    sets["pair"] = two_tx()
    return sets


@pytest.mark.parametrize("kind", ["square", "triangular", "hexagonal",
                                  "poisson", "pair"])
def test_decodes_matches_direct_decision(kind, decision_sets):
    ps = decision_sets[kind]
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    counts = DecodeCounts()
    for window in (1.0, 6.0):
        t = -window + (np.arange(40) + 0.5) * (window / 20.0)
        gx, gy = np.meshgrid(t, t)
        rx = ps.points[i] + np.column_stack([gx.ravel(), gy.ravel()])
        for alpha in (2.5, 3.0, 4.0, 8.0, 100.0):
            want = direct_decisions(rx, ps.points, i, alpha, KERNEL_BETAS,
                                    guard2)
            for beta, w in zip(KERNEL_BETAS, want):
                got = decodes(rx, ps, i, ChannelModel(alpha, beta), counts)
                assert np.array_equal(got, w), (window, alpha, beta)
    assert counts.rows == 2 * 5 * 5 * 1600
    assert counts.pruned + counts.full == counts.rows
    if kind == "pair":
        assert counts.pruned == 0
    else:
        assert counts.pruned > counts.rows // 2
        assert 0 < counts.cell < counts.pruned


def test_decodes_near_tie_reaches_full_sum():
    # Pick beta so that beta times the K-nearest bound sits 5e-14 above g:
    # inside the pruning margin, so the row takes the full sum.
    ps = gen_grid(GridSpec("square", 1.0), 20.0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    rx = np.array([[0.37, 0.21]])
    alpha = 4.0
    d2 = ((ps.points - rx) ** 2).sum(axis=1)
    u = d2 / d2.min()
    near = [j for j in np.argsort(d2)[:DECODE_NEIGHBORS] if j != i]
    g = u[i] ** (-0.5 * alpha)
    lower = np.sum(u[near] ** (-0.5 * alpha))
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    for rel, pruned in ((5e-14, 0), (1e-9, 1)):
        beta = g / lower * (1.0 + rel)
        counts = DecodeCounts()
        got = decodes(rx, ps, i, ChannelModel(alpha, beta), counts)
        want = direct_decisions(rx, ps.points, i, alpha, (beta,), guard2)[0]
        assert np.array_equal(got, want) and not got[0]
        assert (counts.rows, counts.pruned, counts.full) == \
            (1, pruned, 1 - pruned)


@pytest.mark.parametrize("kind", ["square", "triangular", "hexagonal"])
def test_decodes_on_voronoi_bisectors(kind, decision_sets):
    # Receivers on the bisector between i and each of its nearest
    # transmitters, and 1e-12 and 1e-9 relative to either side of it.
    ps = decision_sets[kind]
    pts = ps.points
    assert len(pts) >= DECODE_MIN_POINTS
    i = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
    d2 = ((pts - pts[i]) ** 2).sum(axis=1)
    d2[i] = np.inf
    rx, rel = [], []
    for j in np.argsort(d2)[:DECODE_CELL_NEIGHBORS]:
        v = pts[j] - pts[i]
        along = np.array([-v[1], v[0]])
        for t in np.linspace(-1.0, 1.0, 9):
            for r in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9):
                rx.append(pts[i] + 0.5 * (1.0 + r) * v + t * along)
                rel.append(r)
    rx, rel = np.array(rx), np.array(rel)
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    betas = (0.5, 1.0, 10.0)
    for alpha in (3.0, 4.0, 100.0):
        want = direct_decisions(rx, pts, i, alpha, betas, guard2)
        for beta, w in zip(betas, want):
            counts = DecodeCounts()
            got = decodes(rx, ps, i, ChannelModel(alpha, beta), counts)
            assert np.array_equal(got, w), (alpha, beta)
            # The cell pass runs for beta >= 1 only.
            assert (counts.cell > 0) == (beta >= 1.0)
    # A pruned receiver is strictly nearer to another transmitter than to
    # i; every receiver 1e-9 past a bisector is pruned.
    out = _outside_cell(rx, pts, i, guard2)
    d2 = ((rx[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    di = d2[:, i].copy()
    d2[:, i] = np.inf
    assert np.all(d2[out].min(axis=1) < di[out])
    assert np.all(out[rel == 1e-9])


def test_decodes_cell_pass_spares_the_guard():
    # A second transmitter 1e-12 from i: a receiver between them sits past
    # their bisector but within the singularity guard of both, where the
    # clamped distances tie and beta = 1 decodes.
    grid = gen_grid(GridSpec("square", 1.0), 10.0).points
    i = int(np.argmin(np.hypot(grid[:, 0], grid[:, 1])))
    pts = np.vstack([grid, grid[i] + (1e-12, 0.0)])
    ps = PointSet(pts, 1.0, 10.0)
    rx = grid[i] + np.array([[0.9e-12, 0.0], [0.5, 0.5]])
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    want = direct_decisions(rx, pts, i, 4.0, (1.0,), guard2)[0]
    assert want.tolist() == [True, False]
    assert np.array_equal(decodes(rx, ps, i, ChannelModel(4.0, 1.0)), want)


def test_singularity_guard():
    ps = two_tx()
    with pytest.raises(SingularityError):
        sir(0, (1.0 + 1e-12, 0.0), ps, 4.0)


def test_psi_values():
    for fading in ("none", "log_uniform", "exponential"):
        assert psi(fading, 0.0) == pytest.approx(1.0)
    assert psi("exponential", 1.0) == pytest.approx(1.0)
    assert psi("log_uniform", 1.0, 1.0) == pytest.approx(math.sinh(1.0))
    assert psi("log_uniform", -0.5, 2.0) == pytest.approx(math.sinh(-1.0) / -1.0)
    assert psi("none", 3.0) == 1.0
    with pytest.raises(DivergentMomentError):
        psi("exponential", -1.0)


def test_sample_fading_moments():
    rng = np.random.default_rng(42)
    assert sample_fading("none", rng) == 1.0
    x = sample_fading("exponential", rng, size=10 ** 6)
    assert abs(x.mean() - 1.0) < 0.01
    y = sample_fading("log_uniform", rng, size=10 ** 6, spread=1.0)
    assert abs(y.mean() - math.sinh(1.0)) / math.sinh(1.0) < 0.01
    assert np.all(y >= math.exp(-1.0)) and np.all(y <= math.exp(1.0))


@pytest.mark.parametrize("fading,spread", [("log_uniform", 1.0),
                                           ("log_uniform", 0.4),
                                           ("exponential", 1.0)])
@pytest.mark.parametrize("s", [-0.5, 0.5, 1.0])
def test_psi_matches_empirical_moments(fading, spread, s):
    rng = np.random.default_rng(hash((fading, spread, s)) % 2 ** 32)
    f = sample_fading(fading, rng, size=10 ** 6, spread=spread)
    m = f ** s
    se = m.std() / math.sqrt(len(m))
    assert abs(m.mean() - psi(fading, s, spread)) < 3 * se


def test_raster_field(tmp_path):
    ps = gen_grid(GridSpec("square", 1.0), 3.0)
    xs, ys, w = raster_field(ps, 2.5, 3.0, 16, quantity="w")
    assert w.shape == (16, 16) and np.all(w > 0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    xs, ys, s = raster_field(ps, 2.5, 3.0, 16, quantity="sir", i=i)
    # SIR is largest nearest the probe transmitter.
    iy, ix = np.unravel_index(np.argmax(s), s.shape)
    assert math.hypot(xs[ix], ys[iy]) < 0.5


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        ChannelModel(alpha=4.0, beta=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(alpha=4.0, beta=1.0, fading="rician")
    m = ChannelModel(alpha=4.0, beta=0.0)  # beta = 0 allowed for MC limits
    assert m.gamma == pytest.approx(0.5)
