import hashlib
import math
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import direct_decisions, write_hop_log
from scipy.spatial import cKDTree

from macgeo.cli import _write_json
from macgeo import multihop
from macgeo.multihop import (SNAP_DIVISOR, SimConfig, progress,
                             run_simulation, select_transmitters)
from macgeo.propagation import SINGULARITY_GUARD, ChannelModel, sir
from macgeo.reception import grid_range
from macgeo.spatial import (CellIndex, GridSpec, PointSet, window_points,
                            with_pose)

MODEL = ChannelModel(alpha=4.0, beta=1.0)


def test_progress_projection():
    assert progress((0, 0), (3, 0), (10, 0)) == pytest.approx(3.0)
    assert progress((0, 0), (0, 2), (10, 0)) == pytest.approx(0.0)
    assert progress((0, 0), (-1.5, 0), (10, 0)) == pytest.approx(-1.5)
    assert progress((1, 1), (2, 2), (1 + 3, 1 + 4)) == pytest.approx(
        (1 * 3 + 1 * 4) / 5.0)
    with pytest.raises(ValueError):
        progress((1, 1), (2, 2), (1, 1))


def test_config_validation():
    spec = GridSpec("square", 1.0)
    with pytest.raises(ValueError):
        SimConfig(0.5, 10.0, spec, MODEL)  # nu below scheme density
    with pytest.raises(ValueError):
        SimConfig(100.0, 10.0, 2.0, ChannelModel(4.0, 1.0, "log_uniform"))
    cfg = SimConfig(100.0, 10.0, spec, MODEL)
    assert cfg.scheme_density == pytest.approx(1.0)
    for lam in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="intensity"):
            SimConfig(100.0, 10.0, lam, MODEL)


def test_population_budget_checked_before_allocation():
    spec = GridSpec("square", 1.0)
    with pytest.raises(ValueError, match="population"):
        SimConfig(100.0, 5000.0, spec, MODEL)  # ~1e10 nodes expected
    SimConfig(100.0, 50.0, spec, MODEL)  # 1e6 nodes stays within budget


@contextmanager
def alarm_after(seconds):
    """Turn a hang into a failure: SIGALRM raises inside the call."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_infeasible_pair_distance_rejected():
    # No source and target 30 apart fit in the inner 0.8 * 8 square.
    cfg = SimConfig(100.0, 8.0, GridSpec("square", 1.0), MODEL, slots=10)
    with alarm_after(5), pytest.raises(ValueError, match="pair distance"):
        run_simulation(cfg, 1, pair_distance=30.0)


def test_pair_draws_are_bounded():
    # A single-node population has no distinct destination.
    cfg = SimConfig(1.0, 0.01, 1.0, MODEL, slots=10)
    with alarm_after(5), pytest.raises(ValueError, match="draws"):
        run_simulation(cfg, 1)


def test_aloha_thinning_fraction():
    rng = np.random.default_rng(0)
    nodes = rng.uniform(-20, 20, size=(8000, 2))
    index = CellIndex(nodes, 0.0)
    cfg = SimConfig(node_density=5.0, extent=20.0, scheme=1.0, model=MODEL)
    q = cfg.scheme_density / cfg.node_density
    counts = [len(select_transmitters(nodes, index, cfg, rng)) for _ in range(30)]
    mean = np.mean(counts)
    se = math.sqrt(len(nodes) * q * (1 - q) / 30)
    assert abs(mean - q * len(nodes)) < 4 * se


def test_aloha_holder_first_law():
    # Holder-first thinning: a slot is built when one of the h distinct
    # holders transmits, which happens with probability 1 - (1 - q)^h;
    # each holder transmits with probability q; the other nodes of a
    # built slot are still thinned with probability q.  A repeated holder
    # draws one mark.  All bounds are 4 standard errors.
    nodes = np.random.default_rng(0).uniform(-5, 5, size=(1000, 2))
    index = CellIndex(nodes, 0.0)
    cfg = SimConfig(node_density=10.0, extent=5.0, scheme=1.0, model=MODEL)
    q = cfg.scheme_density / cfg.node_density
    n, trials = len(nodes), 10000
    holders = np.array([5, 17, 400, 711, 950, 17, 5])
    uniq = np.unique(holders)
    h = uniq.size
    picks = [[], []]
    for k, given in enumerate((holders, uniq)):
        rng = np.random.default_rng(11)
        picks[k] = [select_transmitters(nodes, index, cfg, rng, holders=given)
                    for _ in range(trials)]
    # The repeats change nothing: the unique set draws the same slots.
    for a, b in zip(*picks):
        np.testing.assert_array_equal(a, b)
    built = [tx for tx in picks[0] if tx.size]
    # A slot is built only for a transmitting holder.
    assert all(np.isin(uniq, tx).any() for tx in built)
    p_skip = (1 - q) ** h
    skip = 1 - len(built) / trials
    assert abs(skip - p_skip) < 4 * math.sqrt(p_skip * (1 - p_skip) / trials)
    fires = np.array([np.isin(uniq, tx) for tx in picks[0]])
    se = math.sqrt(q * (1 - q) / trials)
    assert np.all(np.abs(fires.mean(axis=0) - q) < 4 * se)
    others = np.array([np.count_nonzero(~np.isin(tx, uniq)) for tx in built])
    se = math.sqrt((n - h) * q * (1 - q) / len(built))
    assert abs(others.mean() - q * (n - h)) < 4 * se


def test_grid_snapping_dense_population():
    rng = np.random.default_rng(1)
    nu, extent = 500.0, 12.0
    nodes = rng.uniform(-extent, extent, size=(int(nu * (2 * extent) ** 2), 2))
    spec = GridSpec("square", 1.0)
    index = CellIndex(nodes, spec.d / SNAP_DIVISOR)
    cfg = SimConfig(nu, extent, spec, MODEL)
    idx = select_transmitters(nodes, index, cfg, rng)
    virtual = (2 * extent) ** 2 * 1.0
    # Nearly every lattice point finds a node; snapped set density within
    # a couple percent of the scheme density.
    assert len(idx) > 0.97 * virtual
    pos = nodes[idx]
    d, _ = cKDTree(pos).query(pos, k=2)
    assert np.median(d[:, 1]) > 0.7  # snapped points keep the lattice spacing


def test_grid_snapping_sparse_warns():
    # At nu = 2 most lattice points find no node within the d/10 snap
    # radius; the run warns once and counts them over the slots it built,
    # each of which poses about 30^2 points.
    cfg = SimConfig(2.0, 15.0, GridSpec("square", 1.0), MODEL, slots=100, seed=2)
    with pytest.warns(UserWarning, match="snap radius") as record:
        summary, _ = run_simulation(cfg, 4)
    assert len(record) == 1
    assert summary["slots_built"] >= 4
    assert summary["snap_points"] > 0.8 * 30 ** 2 * summary["slots_built"]
    assert summary["snap_misses"] > 0.5 * summary["snap_points"]


@pytest.mark.parametrize("spec", [
    GridSpec("square", 1.0), GridSpec("triangular", 1.0),
    GridSpec("hexagonal", 1.0),
    # The d/10 snap radius spans several of the 0.05-wide columns.
    GridSpec("rectangular", 1.0, k1=0.05, k2=1.0),
])
def test_holder_skip_is_safe(spec):
    # A slot that the holder test skips must be one whose full set holds
    # no live holder; a built slot must be the full set, after the same
    # draws, and hold a live holder.  Holder counts vary so that both
    # outcomes occur.
    rng = np.random.default_rng(7)
    nodes = rng.uniform(-4.0, 4.0, size=(6400, 2))
    index = CellIndex(nodes, spec.d / SNAP_DIVISOR)
    cfg = SimConfig(100.0, 4.0, spec, MODEL)
    outcomes = {"built": 0, "skipped": 0}
    for k in range(600):
        holders = rng.choice(len(nodes), size=1 + k % 12, replace=False)
        held = select_transmitters(nodes, index, cfg, np.random.default_rng(k),
                                   holders=holders)
        full = select_transmitters(nodes, index, cfg, np.random.default_rng(k))
        if held.size:
            np.testing.assert_array_equal(held, full)
            assert np.isin(holders, full).any()
            outcomes["built"] += 1
        else:
            assert not np.isin(holders, full).any()
            outcomes["skipped"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_consecutive_slots_use_fresh_poses():
    rng = np.random.default_rng(3)
    nodes = rng.uniform(-10, 10, size=(40000, 2))
    index = CellIndex(nodes, 1.0 / SNAP_DIVISOR)
    cfg = SimConfig(100.0, 10.0, GridSpec("square", 1.0), MODEL)
    a = select_transmitters(nodes, index, cfg, rng)
    b = select_transmitters(nodes, index, cfg, rng)
    assert not np.array_equal(a, b)


# The cell index against scipy's k-d tree, an independent reference.
INDEX_PATTERNS = [
    GridSpec("square", 1.0), GridSpec("triangular", 1.0),
    GridSpec("hexagonal", 1.0),
    GridSpec("rectangular", 1.0, k1=0.05, k2=1.0),
    GridSpec("linear", 1.0, k1=0.5, k2=3.0),
]


@pytest.mark.parametrize("spec", INDEX_PATTERNS, ids=lambda s: s.kind)
def test_cell_index_snaps_as_the_tree(spec):
    # Random poses of every pattern, anchored inside and outside the node
    # box, over a window wider than the box, so points fall outside it.
    rng = np.random.default_rng(17)
    nodes = rng.uniform(-4.0, 4.0, size=(6400, 2))
    r = spec.d / SNAP_DIVISOR
    index = CellIndex(nodes, r)
    tree = cKDTree(nodes)
    assert len(index.start) - 1 <= len(nodes)
    matched = outside = 0
    for _ in range(40):
        posed = with_pose(spec, rng.uniform(0.0, 2.0 * math.pi),
                          rng.uniform(-6.0, 6.0, size=2))
        pts = window_points(posed, 5.0)
        dist, idx = index.snap(pts)
        want_d, want_i = tree.query(pts, distance_upper_bound=np.nextafter(r, np.inf))
        hit = want_d <= r
        np.testing.assert_array_equal(dist <= r, hit)
        np.testing.assert_array_equal(idx[hit], want_i[hit])
        np.testing.assert_array_equal(dist[hit], want_d[hit])
        matched += np.count_nonzero(hit)
        outside += np.count_nonzero(np.abs(pts).max(axis=1) > 4.0)
    assert matched > 1000 and outside > 500


def test_cell_index_discs_as_the_tree():
    # Random centres, centres on the box's edges and corners and outside
    # it, and radii from below a cell to the whole box, some of them
    # exactly a node's distance.
    rng = np.random.default_rng(29)
    nodes = rng.uniform(-4.0, 4.0, size=(6400, 2))
    index = CellIndex(nodes, 0.1)
    tree = cKDTree(nodes)
    centres = [*rng.uniform(-4.0, 4.0, size=(30, 2)),
               (-4.0, -4.0), (4.0, 4.0), (4.0, 0.3), (0.0, -4.0),
               (5.0, 1.0), (-4.5, -4.5), *nodes[:5]]
    for c in centres:
        c = np.asarray(c, dtype=float)
        j = rng.integers(len(nodes))
        exact = math.sqrt((nodes[j, 0] - c[0]) ** 2 + (nodes[j, 1] - c[1]) ** 2)
        for R in (0.05, 0.3, 2.0, 12.0, exact):
            got = index.disc(c, R)
            want = np.sort(tree.query_ball_point(c, R))
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n,extent", [(6400, 4.0), (40, 4.0), (3, 1.0)])
def test_cell_index_nearest_node_as_the_tree(n, extent):
    # The pair draw's nearest node, in dense and sparse populations, for
    # targets inside and outside the node box.
    rng = np.random.default_rng(31)
    nodes = rng.uniform(-extent, extent, size=(n, 2))
    index = CellIndex(nodes, 0.1)
    tree = cKDTree(nodes)
    for t in rng.uniform(-1.5 * extent, 1.5 * extent, size=(200, 2)):
        assert index.nearest(t) == tree.query(t)[1]


def test_single_hop_delivery():
    spec = GridSpec("square", 1.0)
    cfg = SimConfig(100.0, 6.0, spec, MODEL, slots=400, seed=5)
    summary, packets = run_simulation(cfg, 3, pair_distance=0.3)
    assert summary["delivery_fraction"] == 1.0
    assert summary["mean_hops"] == 1.0
    for rec in packets:
        assert rec.delivered and len(rec.progress_per_hop) == 1


def test_forward_progress_near_max_range():
    spec = GridSpec("triangular", 1.0)
    model = ChannelModel(alpha=4.0, beta=0.5)
    r_lam = grid_range(spec, model, extent=60.0).r_lambda
    cfg = SimConfig(node_density=100.0 * spec.d ** -2 * 2 / math.sqrt(3),
                    extent=5.0 * r_lam + 12.0, scheme=spec, model=model,
                    slots=5000, seed=9)
    summary, packets = run_simulation(cfg, 10, pair_distance=10.0 * r_lam)
    assert summary["delivery_fraction"] == 1.0
    # Mid-path hops (the delivery hop is exempt from max-progress
    # forwarding) track the maximum range within 10%.
    mid = [p for rec in packets for p in rec.progress_per_hop[:-1]]
    assert np.mean(mid) > 0.9 * r_lam


def test_relay_count_against_range_prediction():
    spec = GridSpec("square", 1.0)
    r_lam = grid_range(spec, MODEL, extent=60.0).r_lambda
    L = 10.0 * r_lam
    cfg = SimConfig(100.0, L / 2 + 12.0, spec, MODEL, slots=6000, seed=11)
    summary, _ = run_simulation(cfg, 12, pair_distance=L)
    assert summary["delivery_fraction"] == 1.0
    assert 10.0 <= summary["mean_relays"] <= 11.0


def test_deterministic_logs(tmp_path):
    spec = GridSpec("square", 1.0)
    cfg = SimConfig(100.0, 8.0, spec, MODEL, slots=600, seed=21)
    out = []
    for k in range(2):
        _, packets = run_simulation(cfg, 4, pair_distance=2.0)
        path = tmp_path / f"log{k}.csv"
        write_hop_log(packets, path)
        out.append(path.read_bytes())
    assert out[0] == out[1]


@pytest.mark.parametrize("scheme,digest,beta,extent", [
    (GridSpec("square", 1.0),
     "2101748054ca762cb86a772a6e1cd747f8b769509cdda11ebb643182938b35a3", 1.0, 8.0),
    (1.0,
     "669c98dffa8e024ef6599147123d86afaf6b0f4b3d63659632e96ac99f2378c3", 1.0, 8.0),
    (GridSpec("square", 1.0),
     "40930fd7f65c25b4c21ca8f6f751e3e4e5f9131666945358f4cc2ea9d4fe491b", 10.0, 8.0),
    (GridSpec("triangular", 1.0),
     "3d3fef6f3793a1c45db7d9ffbde7d82ec0270d464078369828b7f082febe84fe", 1.0, 8.0),
    (GridSpec("hexagonal", 1.0),
     "bd31ba57a73e39fbbd3c1cfb87304b9184f749927bee96aafacc723a0de9003d", 1.0, 8.0),
    (GridSpec("square", 1.0),
     "3be9a2bee11e342772508957b0473343c00d2a290c93eeb7864d389e6a45bc42", 10.0, 12.0),
    (GridSpec("hexagonal", 1.0),
     "ba494e1aecd593043e7f27af317db7a17efc630abbc96ba26982e1f2b6a5a383", 1.0, 12.0),
])
def test_hop_log_pinned(tmp_path, scheme, digest, beta, extent):
    # The lattice logs are those of the full-sum simulator that posed a
    # fresh gen_grid lattice every slot, before the pruned reception
    # kernel, the boolean transmitter mask, window_points and the
    # single-interferer pass; none of them may change a hop.  The
    # extent-12 cases date from when slots below a size threshold skipped
    # the pruning; every slot now takes the same path.  The ALOHA log is
    # that of the holder-first draw, which takes the live holders' marks
    # before the other nodes' and so reorders the random stream; its law
    # is checked by test_aloha_holder_first_law.
    cfg = SimConfig(100.0, extent, scheme, ChannelModel(4.0, beta), slots=600,
                    seed=21)
    _, packets = run_simulation(cfg, 4, pair_distance=2.0)
    path = tmp_path / "log.csv"
    write_hop_log(packets, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("scheme,beta,extent,counts", [
    (GridSpec("square", 1.0), 1.0, 8.0, (15, 3832, 162)),
    (1.0, 1.0, 8.0, (21, 0, 0)),
    (GridSpec("square", 1.0), 10.0, 8.0, (21, 5361, 235)),
    (GridSpec("triangular", 1.0), 1.0, 8.0, (14, 4143, 184)),
    (GridSpec("hexagonal", 1.0), 1.0, 8.0, (8, 1581, 81)),
    (GridSpec("square", 1.0), 10.0, 12.0, (22, 12683, 580)),
    (GridSpec("hexagonal", 1.0), 1.0, 12.0, (17, 7540, 370)),
])
def test_slot_counts_pinned(scheme, beta, extent, counts):
    # The slots built and the lattice points posed and missed in them, for
    # the runs of test_hop_log_pinned: a holder test that built a slot with
    # no live holder in it, or skipped one with a holder, moves them.
    cfg = SimConfig(100.0, extent, scheme, ChannelModel(4.0, beta), slots=600,
                    seed=21)
    summary, _ = run_simulation(cfg, 4, pair_distance=2.0)
    assert (summary["slots_built"], summary["snap_points"],
            summary["snap_misses"]) == counts


@pytest.mark.parametrize("scheme,digest", [
    (GridSpec("square", 1.0),
     "e0b3e61d1bf525d6352d2a59efe6958f0d3d4889175ba0a403a541fbd36a31d5"),
    (1.0,
     "356c3ce59914257bf021d30e5d807f09d23db84803c27110cb1cb6d3cf0836da"),
], ids=["square", "aloha"])
def test_fading_hop_log_pinned(tmp_path, scheme, digest):
    # Exponential fading draws one uniform per candidate of a relay step,
    # in sorted node order, whether or not the step decides it; these logs
    # are those of the step that decided every candidate, so they pin
    # where each draw falls in the stream and which candidate it serves.
    cfg = SimConfig(100.0, 8.0, scheme,
                    ChannelModel(4.0, 1.0, fading="exponential"), slots=600,
                    seed=21)
    _, packets = run_simulation(cfg, 4, pair_distance=2.0)
    path = tmp_path / "log.csv"
    write_hop_log(packets, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_fading_randomizes_hop_lengths_paired_seed():
    # Without fading the reception area is deterministic, so no hop can
    # exceed the traced maximum range (snap slack aside).  Exponential
    # fading removes that ceiling: greedy forwarding picks up lucky fades
    # well past it and also suffers short hops.  (Note the raw hop count
    # is *not* monotone under fading for this relay model, precisely
    # because of those lucky long hops.)
    spec = GridSpec("square", 1.0)
    r_lam = grid_range(spec, MODEL, extent=60.0).r_lambda
    base = SimConfig(100.0, 14.0, spec, MODEL, slots=8000, seed=31)
    faded = SimConfig(100.0, 14.0, spec,
                      ChannelModel(4.0, 1.0, fading="exponential"),
                      slots=8000, seed=31)
    s0, p0 = run_simulation(base, 8, pair_distance=4.0)
    s1, p1 = run_simulation(faded, 8, pair_distance=4.0)
    assert s0["delivery_fraction"] == 1.0 and s1["delivery_fraction"] == 1.0

    def hop_lengths(packets):
        return np.array([math.hypot(*(np.asarray(r.hops[h + 1]) - r.hops[h]))
                         for r in packets
                         for h in range(len(r.progress_per_hop))])

    # A snapped lattice occasionally drops a nearest neighbor (no node
    # within the snap radius), which stretches the deterministic area
    # toward the gap, so even the no-fading run sees rare long hops; the
    # fading run blows well past the ceiling routinely.
    h0, h1 = hop_lengths(p0), hop_lengths(p1)
    assert np.mean(h0 > 1.2 * r_lam) < 0.05
    assert np.mean(h1 > 1.2 * r_lam) > 0.15


def test_beta_monotone_delivery_paired_seed():
    spec = GridSpec("square", 1.0)
    lo = SimConfig(100.0, 12.0, spec, ChannelModel(4.0, 1.0), slots=900, seed=41)
    hi = SimConfig(100.0, 12.0, spec, ChannelModel(4.0, 100.0), slots=900, seed=41)
    s_lo, _ = run_simulation(lo, 6, pair_distance=3.0)
    s_hi, _ = run_simulation(hi, 6, pair_distance=3.0)
    assert s_lo["delivery_fraction"] >= s_hi["delivery_fraction"]


@pytest.mark.parametrize("scheme", [GridSpec("square", 1.0), 1.0],
                         ids=["square", "aloha"])
def test_post_hoc_sir_audit(scheme, monkeypatch):
    # Every hop happens in a built slot and clears beta against that
    # slot's transmitters.  A relay hop goes to the decoder of largest
    # forward progress: no other non-transmitting node within the
    # candidate radius whose (progress, -distance to destination) key beats
    # the receiver's decodes, and neither does the destination, which
    # would have taken the packet.  The decisions come from the direct sum.
    # run_simulation selects the transmitters once per slot, in order, so
    # a wrapper records each slot's nodes and set.
    log = []
    select = multihop.select_transmitters

    def recorded(nodes, *args, **kwargs):
        tx_idx = select(nodes, *args, **kwargs)
        log.append((nodes, tx_idx.copy()))
        return tx_idx

    monkeypatch.setattr(multihop, "select_transmitters", recorded)
    cfg = SimConfig(100.0, 8.0, scheme, MODEL, slots=1500, seed=51)
    _, packets = run_simulation(cfg, 4, pair_distance=2.5)
    nodes = log[0][0]
    assert all(entry[0] is nodes for entry in log)
    slot_tx = [tx_idx for _, tx_idx in log]
    radius = 2.0 / math.sqrt(cfg.scheme_density)
    checked = beaten = 0
    for rec in packets:
        dest = rec.destination
        for h, slot in enumerate(rec.hop_slots):
            tx_idx = slot_tx[slot]
            assert tx_idx.size > 0
            pts = nodes[tx_idx]
            frm, to = rec.hops[h], rec.hops[h + 1]
            col = int(np.argmin(np.hypot(pts[:, 0] - frm[0], pts[:, 1] - frm[1])))
            ps = PointSet(pts, cfg.scheme_density, cfg.extent * 1.01)
            assert sir(col, to, ps, cfg.model.alpha) >= cfg.model.beta * (1 - 1e-9)
            checked += 1
            if np.array_equal(to, dest):
                continue
            quiet = np.ones(len(nodes), dtype=bool)
            quiet[tx_idx] = False
            near = np.hypot(*(nodes - frm).T) <= radius
            u = (dest - frm) / math.hypot(*(dest - frm))
            prog = (nodes - frm) @ u
            d_dest = np.hypot(*(nodes - dest).T)
            k = int(np.flatnonzero((nodes == to).all(axis=1))[0])
            p_to, d_to = prog[k], d_dest[k]
            better = quiet & near & ((prog > p_to) | ((prog == p_to)
                                                      & (d_dest < d_to)))
            better |= quiet & (d_dest == 0.0)
            rx = nodes[better]
            guard2 = (SINGULARITY_GUARD * ps.scale) ** 2
            ok = direct_decisions(rx, pts, col, cfg.model.alpha,
                                  (cfg.model.beta,), guard2)[0]
            assert not ok.any(), (slot, rx[ok])
            beaten += len(rx)
    assert checked >= 4 and beaten > 100 * checked


def test_progress_sum_bound():
    # Projected progress over a delivered path covers the source-to-
    # destination distance up to one max range.
    spec = GridSpec("square", 1.0)
    r_lam = 0.55
    cfg = SimConfig(100.0, 10.0, spec, MODEL, slots=4000, seed=61)
    _, packets = run_simulation(cfg, 6, pair_distance=3.0)
    for rec in packets:
        if not rec.delivered:
            continue
        dist = math.hypot(*(rec.destination - rec.source))
        assert sum(rec.progress_per_hop) >= dist - r_lam - 1e-9


def test_exports(tmp_path):
    spec = GridSpec("square", 1.0)
    cfg = SimConfig(100.0, 6.0, spec, MODEL, slots=2500, seed=71)
    with warnings.catch_warnings():
        # About 4% of the lattice points miss at nu = 100: no warning.
        warnings.simplefilter("error")
        summary, packets = run_simulation(cfg, 2, pair_distance=1.5)
    assert 0 < summary["snap_misses"] < 0.1 * summary["snap_points"]
    log = tmp_path / "hops.csv"
    write_hop_log(packets, log)
    lines = log.read_text().splitlines()
    assert lines[0] == "packet_id,slot,hop,from_x,from_y,to_x,to_y,progress"
    assert len(lines) >= 3
    js = tmp_path / "summary.json"
    _write_json(js, summary)
    assert '"delivery_fraction": 1.0' in js.read_text()
