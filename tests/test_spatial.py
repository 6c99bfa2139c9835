import math

import numpy as np
import pytest
from helpers import hull_grid, matmul_pose_grid, rescale
from scipy import stats
from scipy.spatial import cKDTree

from macgeo import spatial
from macgeo.spatial import (GRID_KINDS, MAX_POINTS, CellIndex, GridSpec,
                            PointSet, covering_radius, gen_grid, gen_poisson,
                            grid_density, lattice_near, lattice_points,
                            window_points, with_pose)

SQRT3 = math.sqrt(3.0)


def sorted_pts(ps):
    pts = np.asarray(ps.points)
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


@pytest.mark.parametrize("spec", [
    GridSpec("square", 2.0), GridSpec("rectangular", 1.0, 1.0, 2.0),
    GridSpec("linear", 1.0, 1.0, 16.0), GridSpec("hexagonal", 1.5),
    GridSpec("triangular", 1.0, rotation=0.3, translation=(0.2, -0.1))])
def test_covering_radius_is_the_farthest_nearest_distance(spec):
    # Over a sample of a region a few cells wide, at steps of r/200, the
    # largest distance to the nearest pattern point comes within 1% of the
    # covering radius and never exceeds it.
    r = covering_radius(spec)
    ps = gen_grid(spec, 8.0 * r)
    g = np.linspace(-2.0 * r, 2.0 * r, 801)
    z = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    far = cKDTree(ps.points).query(z)[0].max()
    assert r * (1 - 1e-2) < far <= r * (1 + 1e-12)


def test_point_budget_is_checked_before_allocation():
    # The expected size is refused before any array is built.
    spec = GridSpec("square", 1.0)
    for extent in (0.51 * math.sqrt(MAX_POINTS), 1e12, math.inf):
        with pytest.raises(ValueError, match="budget"):
            window_points(spec, extent)
        with pytest.raises(ValueError, match="budget"):
            gen_poisson(1.0, extent, 0)


def test_square_count_11x11():
    ps = gen_grid(GridSpec("square", 1.0), 5.0)
    assert len(ps) == 121


def test_quarter_turn_square_is_same_set():
    a = gen_grid(GridSpec("square", 1.0), 5.0)
    b = gen_grid(GridSpec("square", 1.0, rotation=math.pi / 2), 5.0)
    assert len(a) == len(b)
    assert np.allclose(sorted_pts(a), sorted_pts(b), atol=1e-9)


def test_triangular_measured_density():
    spec = GridSpec("triangular", 25.0)
    ps = gen_grid(spec, 5000.0)
    target = 2.0 / (SQRT3 * 625.0)
    measured = len(ps) / (2.0 * ps.extent) ** 2
    assert abs(measured - target) / target < 0.005


@pytest.mark.parametrize("spec,expected", [
    (GridSpec("square", 1.0), 1.0),
    (GridSpec("rectangular", 1.0, 1.0, 2.0), 0.5),
    (GridSpec("triangular", 1.0), 2.0 / SQRT3),
    (GridSpec("hexagonal", 2.0), 4.0 / (3.0 * SQRT3 * 4.0)),
    (GridSpec("linear", 1.0, 0.25, 4.0), 1.0),
])
def test_grid_density_closed_forms(spec, expected):
    assert grid_density(spec) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind,k1,k2", [
    ("square", 1, 1), ("rectangular", 1, 2), ("hexagonal", 1, 1),
    ("triangular", 1, 1), ("linear", 0.2, 5.0),
])
def test_measured_density_all_patterns(kind, k1, k2):
    # Generic window edge (not on lattice lines) so the inclusive-boundary
    # rule does not double-count the rim.
    spec = GridSpec(kind, 1.0, k1, k2)
    ps = gen_grid(spec, 100.25 * max(1.0, k2))
    lam = grid_density(spec)
    measured = len(ps) / (2.0 * ps.extent) ** 2
    assert abs(measured - lam) / lam < 0.01


def test_pose_equivariance():
    base = gen_grid(GridSpec("triangular", 1.0), 10.0)
    moved = gen_grid(GridSpec("triangular", 1.0, translation=(0.3, -0.2)), 10.0)
    # Interior points of the translated set are the base points shifted.
    shifted = sorted_pts(base) + (0.3, -0.2)
    inner = shifted[np.max(np.abs(shifted), axis=1) <= 8.0]
    got = sorted_pts(moved)
    for p in inner[:50]:
        assert np.min(np.hypot(got[:, 0] - p[0], got[:, 1] - p[1])) < 1e-9


def test_origin_point_present():
    for kind in ("square", "rectangular", "hexagonal", "triangular"):
        spec = GridSpec(kind, 2.0, 1.0, 2.0 if kind == "rectangular" else 1.0)
        ps = gen_grid(spec, 30.0)
        d = np.hypot(ps.points[:, 0], ps.points[:, 1])
        assert d.min() < 1e-12


def test_degenerate_extent_smaller_than_d():
    ps = gen_grid(GridSpec("square", 10.0), 1.0)
    assert len(ps) <= 1


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec("square", -1.0)
    with pytest.raises(ValueError):
        GridSpec("rectangular", 1.0, 2.0, 1.0)  # k1 > k2
    with pytest.raises(ValueError):
        GridSpec("triangular", 1.0, 1.0, 2.0)  # aspect on non-rect
    with pytest.raises(ValueError):
        GridSpec("pentagonal", 1.0)


@pytest.mark.parametrize("pose", [
    {"rotation": math.nan}, {"rotation": math.inf},
    {"translation": (math.inf, 0.0)}, {"translation": (0.0, math.nan)},
    {"translation": (-math.inf, math.inf)}])
def test_gridspec_refuses_non_finite_pose(pose):
    # Refused at construction: posed, a NaN gives NaN window corners (and an
    # empty window), and rotation=inf a bare math domain error.
    with pytest.raises(ValueError, match="pose"):
        GridSpec("square", 1.0, **pose)
    with pytest.raises(ValueError, match="pose"):
        with_pose(GridSpec("square", 1.0), pose.get("rotation", 0.0),
                  pose.get("translation", (0.0, 0.0)))


def test_poisson_moments_and_determinism():
    lam, extent = 1.0, 50.0
    counts = [len(gen_poisson(lam, extent, seed)) for seed in range(120)]
    mean = np.mean(counts)
    assert abs(mean - 1e4) < 3.0 * 100.0 / math.sqrt(120)
    assert 70 < np.std(counts) < 130
    a = gen_poisson(lam, extent, 7)
    b = gen_poisson(lam, extent, 7)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(ValueError):
        gen_poisson(0.0, extent, 1)


def test_poisson_counts_chi_square():
    # Counts over many seeds vs the Poisson law at significance 0.01.
    lam, extent = 0.125, 10.0  # mean 50
    mean = lam * (2 * extent) ** 2
    counts = np.array([len(gen_poisson(lam, extent, s)) for s in range(1000)])
    lo, hi = int(mean - 3 * math.sqrt(mean)), int(mean + 3 * math.sqrt(mean))
    edges = [-np.inf] + list(range(lo, hi + 1)) + [np.inf]
    obs, _ = np.histogram(counts, bins=edges)
    cdf = stats.poisson(mean).cdf
    probs = np.diff([0] + [cdf(e) for e in edges[1:-1]] + [1])
    exp = probs * len(counts)
    keep = exp >= 5
    obs_k = np.append(obs[keep], obs[~keep].sum())
    exp_k = np.append(exp[keep], exp[~keep].sum())
    chi2 = ((obs_k - exp_k) ** 2 / exp_k).sum()
    pval = stats.chi2(len(obs_k) - 1).sf(chi2)
    assert pval > 0.01


def test_rescale_identity_and_lattice_scaling():
    ps = gen_grid(GridSpec("square", 1.0), 5.0)
    assert np.array_equal(rescale(ps, 1.0).points, ps.points)
    doubled = rescale(ps, 2.0)
    direct = gen_grid(GridSpec("square", 2.0), 10.0)
    assert np.allclose(sorted_pts(doubled), sorted_pts(direct))
    assert doubled.density == pytest.approx(0.25)


def test_rescale_roundtrip():
    rng = np.random.default_rng(5)
    for a in (0.3, 2.0, 7.7, 1e3):
        pts = rng.uniform(-4, 4, size=(40, 2))
        ps = PointSet(pts, density=1.3, extent=4.0)
        back = rescale(rescale(ps, a), 1.0 / a)
        assert np.allclose(back.points, ps.points, rtol=1e-12, atol=1e-12)
        assert back.density == pytest.approx(ps.density, rel=1e-12)


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.0], [0.0, 0.0]]), 1.0, 1.0)  # duplicate
    with pytest.raises(ValueError):
        PointSet(np.array([[3.0, 0.0]]), 1.0, 1.0)  # outside extent
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.0]]), -1.0, 1.0)


def test_with_pose():
    spec = with_pose(GridSpec("square", 1.0), 0.3, (1.0, 2.0))
    assert spec.rotation == 0.3
    assert spec.translation == (1.0, 2.0)


@pytest.mark.parametrize("spec", [
    GridSpec("square", 1.0), GridSpec("triangular", 1.0),
    GridSpec("hexagonal", 0.8), GridSpec("rectangular", 1.0, 0.5, 2.0),
    GridSpec("linear", 0.7, 1.0, 3.0)])
def test_window_points_equal_gen_grid(spec):
    # window_points gives gen_grid's points, float for float, for any
    # pose, anchors near the window's corners and edges included.
    rng = np.random.default_rng(7)
    extent = 6.3
    for k in range(60):
        anchor = rng.uniform(-extent, extent, 2)
        if k % 2:
            anchor = np.sign(anchor) * extent * (1.0 - rng.uniform(0, 1e-3, 2))
        posed = with_pose(spec, rng.uniform(0.0, 2.0 * math.pi), anchor)
        got = window_points(posed, extent)
        want = sorted_pts(gen_grid(posed, extent))
        assert np.array_equal(got[np.lexsort((got[:, 1], got[:, 0]))], want)


@pytest.mark.parametrize("spec", [
    GridSpec("square", 1.0), GridSpec("triangular", 1.7),
    GridSpec("hexagonal", 0.8), GridSpec("rectangular", 1.0, 1.0, 2.5),
    GridSpec("linear", 0.7, 1.0, 10.0)])
def test_gen_grid_equals_hull_generator(spec):
    # Clipping each hull row to the window keeps the same points, float for
    # float, in the same order, under any pose; quarter and half turns make
    # a basis vector's component exactly zero.
    rng = np.random.default_rng(11)
    poses = [(0.0, (0.0, 0.0)), (math.pi / 2, (3.7, -11.2)),
             (math.pi, (-0.5, 0.25)), (math.pi / 3, (1e3, 2.0))]
    poses += [(rng.uniform(-math.pi, math.pi), tuple(rng.uniform(-20, 20, 2)))
              for _ in range(6)]
    for rotation, translation in poses:
        posed = with_pose(spec, rotation, translation)
        for extent in (0.3, 5.0, 40.0):
            assert np.array_equal(gen_grid(posed, extent).points,
                                  hull_grid(posed, extent))


def aspect(kind):
    return {"rectangular": (1.0, 2.0), "linear": (0.5, 4.0)}.get(kind,
                                                                (1.0, 1.0))


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_window_points_match_matmul_pose(kind):
    # The column pose keeps the count and order of one (N, 2) @ R.T + t
    # product over the integer hull, each point within 4 float steps at
    # the posed window's reach, under random rotations and translations.
    k1, k2 = aspect(kind)
    spec = GridSpec(kind, 1.3, k1, k2)
    rng = np.random.default_rng(23)
    extent = 30.0
    A, _ = spatial._basis(spec)
    for _ in range(10):
        translation = tuple(rng.uniform(-50.0, 50.0, 2))
        posed = with_pose(spec, rng.uniform(-math.pi, math.pi), translation)
        got = window_points(posed, extent)
        want = matmul_pose_grid(posed, extent)
        reach = math.hypot(*translation) + extent + spatial._pad(A, spec.d)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 4.0 * math.ulp(reach)


# The simulator's patterns; the 0.05-wide columns put several lattice
# indices within the d/10 snap radius of a point.
NEAR_PATTERNS = [
    GridSpec("square", 1.0), GridSpec("triangular", 1.0),
    GridSpec("hexagonal", 1.0), GridSpec("rectangular", 1.0, 0.05, 1.0),
    GridSpec("linear", 1.0, 0.5, 3.0)]


def random_poses(spec, rng, count):
    return [with_pose(spec, rng.uniform(0.0, 2.0 * math.pi),
                      rng.uniform(-6.0, 6.0, size=2)) for _ in range(count)]


@pytest.mark.parametrize("spec", NEAR_PATTERNS, ids=lambda s: s.kind)
def test_lattice_points_pose_as_the_window(spec):
    # Any subset of the window's hull indices, from one row to half of
    # them, poses to the window_points rows of those indices, bit for bit.
    # With an infinite extent every row of every index is kept, in index
    # order, offsets innermost.
    rng = np.random.default_rng(37)
    extent = 5.0
    A, offs = spatial._basis(spec)
    lim = extent + spatial._EDGE_TOL * spec.d
    for posed in random_poses(spec, rng, 20):
        hull = spatial._hull_indices(posed, extent, A)
        every = lattice_points(posed, hull, math.inf)
        inside = np.all(np.abs(every) <= lim, axis=1)
        assert np.array_equal(every[inside], window_points(posed, extent))
        for size in (1, 3, 17, 200, len(hull) // 2):
            pick = np.zeros(len(hull), dtype=bool)
            pick[rng.choice(len(hull), size=size, replace=False)] = True
            want = every[np.repeat(pick, len(offs)) & inside]
            assert np.array_equal(lattice_points(posed, hull[pick], extent),
                                  want)


@pytest.mark.parametrize("spec", NEAR_PATTERNS, ids=lambda s: s.kind)
@pytest.mark.parametrize("scale", [0.1, 0.7])
def test_lattice_near_covers_the_radius(spec, scale):
    # Every window point within the radius of a centre, found by brute
    # force, is among the posed stencil points.  Centres are random, on
    # window points, and about one radius from them, under random poses.
    rng = np.random.default_rng(41)
    extent, radius = 5.0, scale * spec.d
    found = 0
    for posed in random_poses(spec, rng, 20):
        window = window_points(posed, extent)
        on = window[rng.choice(len(window), size=20)]
        phi = rng.uniform(0.0, 2.0 * math.pi, size=20)
        rim = on + radius * (1.0 - rng.uniform(0.0, 1e-12, size=(20, 1))) \
            * np.column_stack((np.cos(phi), np.sin(phi)))
        centres = np.vstack((rng.uniform(-extent, extent, size=(20, 2)),
                             on, rim))
        k = lattice_near(posed, centres, radius * (1.0 + 1e-6))
        got = lattice_points(posed, k, extent).view(complex).ravel()
        for c in centres:
            near = window[np.hypot(*(window - c).T) <= radius]
            assert np.isin(near.view(complex).ravel(), got).all()
            found += len(near)
    assert found > 40 * 20


def test_lattice_near_poses_one_point_within_a_tenth():
    # On the square lattice at most one point lies within d/10 of any
    # centre, and the stencil poses one index per centre.
    rng = np.random.default_rng(43)
    posed = random_poses(GridSpec("square", 1.0), rng, 1)[0]
    centres = rng.uniform(-5.0, 5.0, size=(50, 2))
    assert lattice_near(posed, centres, 0.1 * (1.0 + 1e-6)).shape == (50, 2)


# A rotated lattice window and a Poisson set, against scipy's k-d tree.
WITHIN_SETS = {
    "lattice": lambda: window_points(GridSpec("triangular", 1.0, rotation=0.3,
                                              translation=(0.2, -0.1)), 12.0),
    "poisson": lambda: gen_poisson(1.0, 12.0, 7).points,
}


@pytest.mark.parametrize("name", WITHIN_SETS)
def test_cell_index_within_as_the_tree(name):
    # The batched disc query keeps what query_ball_point keeps, with
    # d2 = dx*dx + dy*dy, for centres inside, on and outside the set's
    # box and on its points, at radii from below a spacing to the whole
    # box and at one centre's exact distance to a point.
    pts = WITHIN_SETS[name]()
    rng = np.random.default_rng(47)
    centres = np.vstack((rng.uniform(-14.0, 14.0, size=(200, 2)), pts[:20],
                         [(-12.0, -12.0), (12.0, 12.0), (0.0, 12.0)]))
    index = CellIndex(pts, 0.0)
    tree = cKDTree(pts)
    exact = math.sqrt((pts[5, 0] - centres[0, 0]) ** 2
                      + (pts[5, 1] - centres[0, 1]) ** 2)
    fill = len(pts)
    for R in (0.3, 1.0, 2.5, 40.0, exact):
        idx, d2 = index.within(centres, R, fill)
        assert idx.shape == d2.shape and idx.shape[1] >= 1
        assert np.array_equal(idx == fill, np.isinf(d2))
        for c, row, drow in zip(centres, idx, d2):
            want = np.sort(tree.query_ball_point(c, R))
            got = row[row != fill]
            np.testing.assert_array_equal(np.sort(got), want)
            dx, dy = pts[got, 0] - c[0], pts[got, 1] - c[1]
            np.testing.assert_array_equal(drow[row != fill], dx * dx + dy * dy)
        assert idx.shape[1] == max(1, max(len(r) for r in
                                          tree.query_ball_point(centres, R)))
    assert 5 in idx[0]


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_gen_grid_points_are_distinct_without_a_sort(kind, monkeypatch):
    # At the default map (d = 25, extent 5000) and under a rotated and
    # translated pose, gen_grid proves its points distinct instead of
    # sorting them, and they are; the public constructor and gen_poisson
    # still sort.
    def no_sort(*args, **kwargs):
        raise AssertionError("lexsort called")

    k1, k2 = aspect(kind)
    specs = [GridSpec(kind, 25.0, k1, k2),
             GridSpec(kind, 25.0, k1, k2, rotation=0.7,
                      translation=(1234.5, -987.25))]
    with monkeypatch.context() as m:
        m.setattr(spatial.np, "lexsort", no_sort)
        sets = [gen_grid(spec, 5000.0) for spec in specs]
        with pytest.raises(AssertionError, match="lexsort"):
            PointSet(sets[0].points[:2], 1.0, 5000.0)
        with pytest.raises(AssertionError, match="lexsort"):
            gen_poisson(1e-4, 100.0, 0)
    for ps in sets:
        assert len(ps) > 40_000
        s = sorted_pts(ps)
        assert not np.any(np.all(s[1:] == s[:-1], axis=1))


def test_gen_grid_sorts_where_rounding_can_merge_points():
    # Past the float resolution of the posed window the lattice points can
    # round onto one another; the sort then runs and refuses them.
    for translation in ((1e16, 3.0), (1e17, 0.0)):
        with pytest.raises(ValueError, match="pairwise distinct"):
            gen_grid(GridSpec("square", 1.0, translation=translation), 10.0)
    ps = gen_grid(GridSpec("square", 1.0, translation=(3e15, 0.0)), 10.0)
    assert len(ps) == 441
