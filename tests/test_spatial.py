import math

import numpy as np
import pytest
from helpers import rescale
from scipy import stats

from macgeo.spatial import (GridSpec, PointSet, gen_grid, gen_poisson,
                            grid_density, window_points, with_pose)

SQRT3 = math.sqrt(3.0)


def sorted_pts(ps):
    pts = np.asarray(ps.points)
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


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
    # The posed index disc gives gen_grid's points, float for float, for
    # any pose; anchors near the window's corners and edges need the
    # disc's full reach.
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
