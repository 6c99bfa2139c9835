import math
import time
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from helpers import (direct_decisions, full_sir_and_gradient, interference,
                     rescale, rowwise_raster_field, running_product_expansion)

from macgeo import propagation
from macgeo.aloha import mc_aloha_prob
from macgeo.errors import (DivergentMomentError, FloatRangeError, MacGeoError,
                           SingularityError)
from macgeo.propagation import (_BLOCK, CHUNK, DECODE_NEIGHBORS,
                                EXPANSION_ORDER,
                                NEAR_RADIUS, SINGULARITY_GUARD, VALID_RADIUS,
                                ChannelModel, DecodeCounts,
                                Field, decodes, fading_success_prob,
                                first_decoder, log_psi, psi,
                                raster_field, sample_fading, sir,
                                sir_and_gradient)
from macgeo.reception import lattice_probe, origin_index
from macgeo.spatial import (MAX_EVALS, GridSpec, PointSet, gen_grid,
                            gen_poisson, grid_density)


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
    for alpha in (2.5, 3.0, 4.0, 8.0, 30.0, 50.0, 100.0):
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


@pytest.mark.parametrize("kind", ["square", "triangular", "hexagonal",
                                  "poisson"])
def test_field_near_set_sized_by_alpha(kind, default_windows):
    # Up to alpha 20 the default window keeps the NEAR_RADIUS split and its
    # expansion.  At alpha 100 every point past about 4.5 scales adds less
    # than 2^-64 of the sum at a valid query, so only those are summed and
    # no far term is built.
    ps = default_windows[kind]
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    dx, dy = (ps.points - ps.points[i]).T
    within = int(np.count_nonzero(dx * dx + dy * dy
                                  <= (NEAR_RADIUS * ps.scale) ** 2)) - 1
    for alpha in (2.5, 4.0, 8.0, 20.0):
        field = Field(ps, i, alpha)
        assert field.near_points == within
        assert field.coef is not None
    field = Field(ps, i, 100.0)
    assert 0 < field.near_points < 100
    assert field.coef is None


def far_offsets(ps, i):
    """Offsets from point i of the points beyond the near radius, in units
    of that radius: the far set a Field at i expands."""
    dx, dy = (ps.points - ps.points[i]).T / (NEAR_RADIUS * ps.scale)
    far = dx * dx + dy * dy > 1.0
    return dx[far], dy[far]


def reference_expansion(x, y, alpha):
    z = np.empty(len(x), dtype=complex)
    z.real, z.imag = x, y
    return running_product_expansion(z, alpha)


@pytest.mark.parametrize("alpha", [2.05, 4.0, 100.0])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               3 * _BLOCK + 5, "square", "poisson"])
def test_local_expansion_matches_running_products(n, alpha,
                                                  default_windows):
    # The blocked moment sums give the running-product coefficients, and
    # their derivative matrix, at every block edge: far sets that end one
    # short of, on and one past a block, several blocks and a tail, and
    # the default window's lattice and Poisson far sets.  Every term of
    # M_mn is at most |x|^-alpha, so the rounding of A_mn = c_m c_n M_mn is
    # bounded on the scale c_m c_n |A_00| (c_6^2 is 4e14 at alpha 100).
    if isinstance(n, str):
        ps = default_windows[n]
        x, y = far_offsets(ps, int(np.argmin(np.hypot(*ps.points.T))))
    else:
        rng = np.random.default_rng(n)
        r = 1.0 + rng.exponential(3.0, n)
        th = rng.uniform(0.0, 2.0 * math.pi, n)
        x, y = r * np.cos(th), r * np.sin(th)
    got = propagation._local_expansion(x, y, alpha)
    want = reference_expansion(x, y, alpha)
    k = EXPANSION_ORDER + 1
    c = np.cumprod(np.r_[1.0, (0.5 * alpha + np.arange(k - 1))
                         / np.arange(1, k)])
    scale = np.zeros((2, k, k))
    scale[0] = abs(want[0, 0, 0]) * np.outer(c, c)
    scale[1, :-1] = scale[0, 1:] * np.arange(1, k)[:, None]
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("alpha", [2.5, 4.0, 100.0])
def test_field_agrees_with_running_product_moments(alpha, default_windows,
                                                   monkeypatch):
    # The same Field built from the running-product moments answers each
    # query within VALID_RADIUS to 1e-14, far below the expansion's own
    # truncation error.
    ps = default_windows["square"]
    i = int(np.argmin(np.hypot(*ps.points.T)))
    field = Field(ps, i, alpha)
    monkeypatch.setattr(propagation, "_local_expansion", reference_expansion)
    ref = Field(ps, i, alpha)
    rng = np.random.default_rng(31)
    r = VALID_RADIUS * ps.scale * np.sqrt(rng.uniform(1e-4, 1.0, 20))
    th = rng.uniform(0.0, 2.0 * math.pi, 20)
    for z in ps.points[i] + np.column_stack([r * np.cos(th), r * np.sin(th)]):
        s, g = field.sir_and_gradient(z)
        want, dwant = ref.sir_and_gradient(z)
        assert s == pytest.approx(want, rel=1e-14)
        assert np.linalg.norm(g - dwant) <= 1e-14 * np.linalg.norm(dwant)
    assert field.exact_queries == ref.exact_queries == 0


def traced_build(build):
    """(result, bytes it keeps, peak bytes) of build() under tracemalloc."""
    tracemalloc.start()
    try:
        out = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_lattice_builds_stream_no_full_window_temporaries():
    # At the default map (d = 25, extent 5000, 160 801 points) the Field
    # build peaks at most at three times the bytes the Field keeps, and the
    # lattice window at four times the bytes of its points; the whole-set
    # moment passes and the (N, 2) pose took 5.6 times (13.9 MiB each).
    # One more full-window (2, N) temporary breaks either bound.
    (ps, i), probe_kept, probe_peak = traced_build(
        lambda: lattice_probe(GridSpec("square", 25.0), 5000.0))
    assert probe_kept >= ps.points.nbytes
    assert probe_peak <= 4 * probe_kept
    field, kept, peak = traced_build(lambda: Field(ps, i, 4.0))
    assert field.near_points > 0 and kept >= 16 * (len(ps) - 1)
    assert peak <= 3 * kept


def test_field_query_interface():
    # Any 2-point form of rx gives the same answer, and a query on a
    # transmitter raises, on the near path (within VALID_RADIUS of the
    # probe) and the exact one.
    ps = gen_grid(GridSpec("square", 1.0), 30.0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    near, exact = (0.31, -0.42), (1.7, 0.45)
    for alpha in (2.05, 4.0, 100.0):
        field = Field(ps, i, alpha)
        for z in (near, exact):
            forms = (z, list(z), np.array(z), np.array([z]))
            got = [field.sir_and_gradient(rx) for rx in forms]
            for s, g in got:
                assert s == got[0][0] and np.array_equal(g, got[0][1])
        assert field.exact_queries == 4
        for z in ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, -4.0)):
            with pytest.raises(SingularityError):
                field.sir_and_gradient(z)


def test_exact_query_allocates_no_full_length_array():
    # An exact-path query writes into its Field's own scratch rows.  Above
    # 16 384 points a fresh row passes glibc's initial mmap threshold and
    # can be mapped and faulted in on every call, whatever the allocator
    # did before; tracemalloc sees the allocation either way.
    ps, i = lattice_probe(GridSpec("square", 1.0), 100.0)
    assert len(ps) > 16_384
    field = Field(ps, i, 4.0)
    rx = ps.points[i] + (40.3, 3.6)
    first = field.sir_and_gradient(rx)
    tracemalloc.start()
    try:
        again = [field.sir_and_gradient(rx) for _ in range(5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.exact_queries == 6
    assert peak < 8 * len(ps), peak
    for s, g in again:
        assert s == first[0] and np.array_equal(g, first[1])


KERNEL_BETAS = (1e-5, 0.05, 1.0, 10.0, 100.0)


@pytest.fixture(scope="module")
def decision_sets():
    """Three unit lattices and a Poisson set of unit density at extent 20,
    and a two-point pair, whose one interferer is all the pass can try."""
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
    assert counts.pruned > counts.rows // 4


def test_decodes_near_tie_reaches_full_sum():
    # Pick beta so that beta times the nearest interferer's power sits a
    # relative 5e-14 above the signal: inside the pruning margin, so the row
    # takes the full sum.  At 1e-9 the interferer alone refuses it.
    ps = gen_grid(GridSpec("square", 1.0), 20.0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    rx = np.array([[0.37, 0.21]])
    alpha = 4.0
    d2 = ((ps.points - rx) ** 2).sum(axis=1)
    u = d2 / d2.min()
    j = np.argsort(d2)[1]  # (1, 0), one of i's four nearest neighbours
    ratio = (u[i] / u[j]) ** (-0.5 * alpha)
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    for rel, pruned in ((5e-14, 0), (1e-9, 1)):
        beta = ratio * (1.0 + rel)
        counts = DecodeCounts()
        got = decodes(rx, ps, i, ChannelModel(alpha, beta), counts)
        want = direct_decisions(rx, ps.points, i, alpha, (beta,), guard2)[0]
        assert np.array_equal(got, want) and not got[0]
        assert (counts.rows, counts.pruned, counts.full) == \
            (1, pruned, 1 - pruned)


@pytest.mark.parametrize("kind", ["square", "triangular", "hexagonal"])
def test_decodes_on_voronoi_bisectors(kind, decision_sets):
    # Receivers on the Apollonius circle |y| = c |y - v|, c = beta^(-1/alpha),
    # between i and each of its nearest transmitters x_j = x_i + v (the
    # bisector at beta = 1), and 1e-12 and 1e-9 relative to either side of
    # it: y = c (1 + r) v / (c (1 + r) - e^(-i phi)).
    ps = decision_sets[kind]
    pts = ps.points
    i = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
    d2 = ((pts - pts[i]) ** 2).sum(axis=1)
    d2[i] = np.inf
    nearest = np.argsort(d2)[:DECODE_NEIGHBORS]
    rel = np.repeat([-1e-9, -1e-12, 0.0, 1e-12, 1e-9], 9)
    turn = np.exp(-1j * np.tile(np.linspace(0.5, 1.5, 9) * np.pi, 5))
    guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
    for alpha in (3.0, 4.0, 100.0):
        for beta in (0.05, 0.5, 1.0, 10.0):
            c = beta ** (-1.0 / alpha) * (1.0 + rel)
            rx = []
            for j in nearest:
                v = complex(*(pts[j] - pts[i]))
                y = c * v / (c - turn)
                rx.append(pts[i] + np.column_stack((y.real, y.imag)))
            rx = np.concatenate(rx)
            past = np.tile(rel == 1e-9, len(nearest))
            model = ChannelModel(alpha, beta)
            want = direct_decisions(rx, pts, i, alpha, (beta,), guard2)[0]
            assert np.array_equal(decodes(rx, ps, i, model), want), \
                (alpha, beta)
            # Every receiver 1e-9 past a circle is refused without the sum.
            counts = DecodeCounts()
            assert not decodes(rx[past], ps, i, model, counts).any()
            assert counts.pruned == counts.rows == np.count_nonzero(past)


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


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_first_decoder_is_the_first_of_decodes(seed):
    # Receivers around the transmitter nearest the origin of a Poisson set,
    # in a shuffled order and in one with every decoder last (so that the
    # walk crosses several doubling blocks before it finds one).
    ps = gen_poisson(1.0, 12.0, seed)
    rng = np.random.default_rng(seed)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    rx = ps.points[i] + rng.uniform(-3.0, 3.0, size=(600, 2))
    for alpha in (2.5, 4.0, 100.0):
        for beta in (0.0, 0.1, 1.0, 10.0):
            model = ChannelModel(alpha, beta)
            order = rng.permutation(len(rx))
            late = np.argsort(decodes(rx, ps, i, model), kind="stable")
            for rows in (rx[order], rx[late], rx[late[:40]], rx[:0]):
                hits = np.flatnonzero(decodes(rows, ps, i, model))
                want = int(hits[0]) if hits.size else -1
                assert first_decoder(rows, ps, i, model) == want, \
                    (alpha, beta)
    # Receivers on other transmitters: no row decodes.
    far = np.delete(ps.points, i, axis=0)[:50]
    assert first_decoder(far, ps, i, ChannelModel(4.0, 1.0)) == -1


@pytest.mark.parametrize("seed", [5, 6])
def test_first_decoder_fading_is_the_first_draw_below_the_product(seed):
    # Under exponential fading a row receives where its uniform falls below
    # its reception probability; the walk returns the first such row, past
    # several doubling blocks.  The uniforms are required under fading and
    # refused without it.
    ps = gen_poisson(1.0, 12.0, seed)
    rng = np.random.default_rng(seed)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    rx = ps.points[i] + rng.uniform(-3.0, 3.0, size=(300, 2))
    for alpha, beta in ((2.5, 0.1), (4.0, 1.0), (100.0, 10.0)):
        model = ChannelModel(alpha, beta, fading="exponential")
        p = fading_success_prob(rx, ps, i, model)
        late = p.copy()  # no row below its probability but row 250
        late[250] = 0.0
        for u in (rng.random(len(rx)), late, p):
            hits = np.flatnonzero(u < p)
            want = int(hits[0]) if hits.size else -1
            assert first_decoder(rx, ps, i, model, u) == want, (alpha, beta)
        with pytest.raises(ValueError):
            first_decoder(rx, ps, i, model)
    with pytest.raises(ValueError):
        first_decoder(rx, ps, i, ChannelModel(4.0, 1.0), rng.random(len(rx)))


@pytest.mark.parametrize("interferer,candidate,want", [
    ((1.0, 0.0), (5e-4, 0.0), True),        # SIR ~ 1e330: raw powers overflow
    ((4500.0, 0.0), (2500.0, 0.0), False),  # SIR ~ 2e-10: both underflow to 0
])
def test_first_decoder_extreme_alpha(interferer, candidate, want):
    model = ChannelModel(alpha=100.0, beta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tx = PointSet(np.array([(0.0, 0.0), interferer]), 1e-2, 5000.0)
        k = first_decoder(np.array([candidate]), tx, 0, model)
    assert k == (0 if want else -1)


def test_first_decoder_fading_extreme_alpha():
    # The fading product at alpha 100: the candidate 1e-3 from the
    # interferer would overflow a raw distance-ratio power.  Its uniform
    # is not below its probability; the next candidate's is.
    model = ChannelModel(alpha=100.0, beta=1.0, fading="exponential")
    u = np.random.default_rng(0).random(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tx = PointSet(np.array([(0.0, 0.0), (10.0, 0.0)]), 1e-2, 50.0)
        k = first_decoder(np.array([(9.999, 0.0), (1e-3, 0.0)]), tx, 0,
                          model, u)
    assert k == 1


def test_decodes_memory_is_bounded():
    # 900 receivers inside i's Voronoi cell survive the pass; their full
    # sum over 40 401 transmitters is built in bounded row chunks.
    ps = gen_grid(GridSpec("square", 1.0), 100.0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    t = np.linspace(-0.45, 0.45, 30)
    gx, gy = np.meshgrid(t, t)
    rx = ps.points[i] + np.column_stack([gx.ravel(), gy.ravel()])
    counts = DecodeCounts()
    tracemalloc.start()
    try:
        decodes(rx, ps, i, ChannelModel(4.0, 1.0), counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.full == 900
    assert peak < 32 * 2 ** 20


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


def test_psi_overflow_is_typed():
    # sinh(f s) / (f s) passes the float range near f s = 710: psi refuses
    # with a MacGeoError instead of a bare OverflowError, and log_psi
    # carries on in logs.
    for s, spread in ((1.0, 800.0), (-0.5, 2000.0), (10.0, 1e308)):
        with pytest.raises(MacGeoError):
            psi("log_uniform", s, spread)
    with pytest.raises(MacGeoError):
        psi("exponential", 200.0)
    assert log_psi("exponential", 200.0) == math.lgamma(201.0)
    with pytest.raises(MacGeoError):
        mc_aloha_prob(0.3, 1.0, ChannelModel(4.0, 1.0, "log_uniform", 800.0),
                      1000)
    assert psi("log_uniform", 1.0, 715.0) == pytest.approx(
        math.exp(715.0 - math.log(1430.0)), rel=1e-12)
    assert log_psi("log_uniform", 1.0, 800.0) == pytest.approx(
        800.0 - math.log(1600.0), rel=1e-15)
    assert log_psi("log_uniform", 1.0, 1e308) == pytest.approx(1e308)
    assert log_psi("log_uniform", -0.5, 2.0) == pytest.approx(
        math.log(math.sinh(1.0)), rel=1e-15)
    assert abs(log_psi("log_uniform", 1e-9, 1.0) - 1e-18 / 6.0) < 1e-16
    assert log_psi("log_uniform", 0.0, 1.0) == 0.0
    assert log_psi("exponential", 0.5) == pytest.approx(
        math.lgamma(1.5), rel=1e-15)
    assert log_psi("none", 3.0) == 0.0


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
    # crc32, not hash(): str hashes change with every interpreter run.
    rng = np.random.default_rng(zlib.crc32(repr((fading, spread, s)).encode()))
    f = sample_fading(fading, rng, size=10 ** 6, spread=spread)
    m = f ** s
    se = m.std() / math.sqrt(len(m))
    assert abs(m.mean() - psi(fading, s, spread)) < 3 * se


def test_raster_field_refuses_evaluations_past_the_budget():
    # 1001^2 cells pass the cell budget, and 2 025 points the point budget;
    # their product, 2.03e9 evaluations, does not.
    ps = gen_grid(GridSpec("square", 1.0), 22.0)
    assert len(ps) * 1001 ** 2 > MAX_EVALS
    with pytest.raises(ValueError, match="raster evaluations exceed"):
        raster_field(ps, 4.0, 22.0, 1001)


def test_decodes_refuses_evaluations_past_the_budget():
    # 1e6 receivers (one broadcast row, no memory) times 2 025 points,
    # 2.03e9 evaluations: both batched decisions refuse before any sum.
    ps = gen_grid(GridSpec("square", 1.0), 22.0)
    i = origin_index(ps)
    rx = np.broadcast_to((0.5, 0.5), (1_000_000, 2))
    assert len(rx) * len(ps) > MAX_EVALS
    start = time.perf_counter()
    with pytest.raises(ValueError, match="decode evaluations exceed"):
        decodes(rx, ps, i, ChannelModel(4.0, 1.0))
    with pytest.raises(ValueError, match="fading evaluations exceed"):
        fading_success_prob(rx, ps, i, ChannelModel(4.0, 1.0, "exponential"))
    assert time.perf_counter() - start < 1.0


def test_raster_field(tmp_path):
    ps = gen_grid(GridSpec("square", 1.0), 3.0)
    xs, ys, w = raster_field(ps, 2.5, 3.0, 16, quantity="w")
    assert w.shape == (16, 16) and np.all(w > 0)
    i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
    xs, ys, s = raster_field(ps, 2.5, 3.0, 16, quantity="sir", i=i)
    # SIR is largest nearest the probe transmitter.
    iy, ix = np.unravel_index(np.argmax(s), s.shape)
    assert math.hypot(xs[ix], ys[iy]) < 0.5
    # The SIR is scale-free: at alpha 100 raw powers underflow at d = 2000.
    sirs = []
    for d in (1.0, 2000.0):
        ps = gen_grid(GridSpec("square", d), 10.0 * d)
        i = int(np.argmin(np.hypot(ps.points[:, 0], ps.points[:, 1])))
        sirs.append(raster_field(ps, 100.0, 10.0 * d, 4, "sir", i)[2])
    assert np.all(sirs[0] > 0)
    np.testing.assert_allclose(sirs[1], sirs[0], rtol=1e-12, atol=0.0)


# Point sets of the raster oracle test: (set, the raster's half-width, the
# odd and even n).  Below CHUNK points each n leaves a remainder block of
# columns; above it every block is one column.
RASTER_SETS = {
    "poisson": lambda: (gen_poisson(1.0, 20.0, 7), 17.0, (41, 42)),
    "square": lambda: (gen_grid(GridSpec("square", 1.0), 30.0), 30.0,
                       (35, 36)),
    "hexagonal": lambda: (gen_grid(GridSpec("hexagonal", 1.0), 22.0), 20.0,
                          (45, 46)),
    "square-above-chunk": lambda: (gen_grid(GridSpec("square", 1.0), 128.0),
                                   90.0, (3, 2)),
}


@pytest.mark.parametrize("quantity", ["w", "sir"])
@pytest.mark.parametrize("name", list(RASTER_SETS))
def test_raster_field_matches_the_rowwise_raster_bit_for_bit(name, quantity):
    # The column blocks change the order of the work, not one float
    # operation of any cell.  A cell on a transmitter (n = 1 on a lattice)
    # sends W at alpha 100 past the float range, and the SIR's interference
    # below it: refused, where the rows read inf.
    ps, extent, ns = RASTER_SETS[name]()
    per_block = CHUNK // len(ps)
    assert all(n % per_block for n in ns) if per_block else len(ps) > CHUNK
    i = origin_index(ps)
    for alpha in (2.05, 2.5, 4.0, 100.0):
        for n in (1, *ns):
            want = rowwise_raster_field(ps, alpha, extent, n, quantity, i)
            if not np.isfinite(want[2]).all():
                with pytest.raises(FloatRangeError):
                    raster_field(ps, alpha, extent, n, quantity, i)
                continue
            got = raster_field(ps, alpha, extent, n, quantity, i)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (alpha, n)


@pytest.mark.parametrize("quantity", ["w", "sir"])
def test_raster_field_memory_is_bounded(quantity):
    # n * N is nearly eight times CHUNK; no array of that size is built,
    # only blocks of CHUNK entries or fewer besides the n x n output.
    ps, i = lattice_probe(GridSpec("square", 1.0), 25.0)
    n = 200
    assert n * len(ps) > 7 * CHUNK
    tracemalloc.start()
    try:
        vals = raster_field(ps, 4.0, 24.0, n, quantity, i)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(vals).all()
    assert peak < 8 * (3 * CHUNK + n * n), peak


def test_raster_field_w_past_the_float_range_is_refused():
    # W sums raw powers, so a transmitter at squared distance 0.5 from a
    # cell at alpha 2100 passes the float range; refused with no warning.
    # The SIR of a set with no interferer reads inf.
    ps = two_tx()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="float range"):
            raster_field(ps, 2100.0, 1.0, 2, "w")
        lone = PointSet(np.array([[0.2, 0.1]]), 1.0, 1.0)
        assert np.all(raster_field(lone, 4.0, 1.0, 3, "sir")[2] == np.inf)
        assert np.isfinite(raster_field(lone, 4.0, 1.0, 3, "w")[2]).all()


def test_raster_field_sir_past_the_float_range_is_refused():
    # At the cells x = -0.5 the interferer's power is 5**(-alpha/2) of the
    # signal: the SIR reads 3.5e307 at alpha 880, overflows at alpha 890,
    # and divides by an interference underflowed to zero at alpha 2100.
    # Both are refused with no warning, as W is.
    ps = two_tx()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = raster_field(ps, 880.0, 1.0, 2, "sir")[2]
        assert s[0, 0] == pytest.approx(5.0 ** 440, rel=1e-9)
        for alpha in (890.0, 2100.0):
            with pytest.raises(FloatRangeError, match="SIR .*float range"):
                raster_field(ps, alpha, 1.0, 2, "sir")


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        ChannelModel(alpha=4.0, beta=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(alpha=4.0, beta=1.0, fading="rician")
    for alpha, beta, spread in ((math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
                                (4.0, math.inf, 1.0), (4.0, math.nan, 1.0),
                                (4.0, 1.0, 0.0), (4.0, 1.0, -1.0),
                                (4.0, 1.0, math.inf), (4.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            ChannelModel(alpha, beta, "log_uniform", spread)
    m = ChannelModel(alpha=4.0, beta=0.0)  # beta = 0 allowed for MC limits
    assert m.gamma == pytest.approx(0.5)
