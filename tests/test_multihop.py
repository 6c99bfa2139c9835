import hashlib
import math
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import write_hop_log
from scipy.spatial import cKDTree

from macgeo.cli import _write_json
from macgeo.multihop import (SimConfig, _success_mask, progress,
                             run_simulation, select_transmitters)
from macgeo.propagation import ChannelModel, sir
from macgeo.reception import grid_range
from macgeo.spatial import GridSpec, PointSet

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
        SimConfig(100.0, 10.0, spec, MODEL, snap_radius=0.3)  # >= d/4
    with pytest.raises(ValueError):
        SimConfig(100.0, 10.0, 2.0, ChannelModel(4.0, 1.0, "log_uniform"))
    cfg = SimConfig(100.0, 10.0, spec, MODEL)
    assert cfg.resolved_snap_radius == pytest.approx(0.1)
    assert cfg.scheme_density == pytest.approx(1.0)


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
    tree = cKDTree(nodes)
    cfg = SimConfig(node_density=5.0, extent=20.0, scheme=1.0, model=MODEL)
    q = cfg.scheme_density / cfg.node_density
    counts = [len(select_transmitters(nodes, tree, cfg, rng)) for _ in range(30)]
    mean = np.mean(counts)
    se = math.sqrt(len(nodes) * q * (1 - q) / 30)
    assert abs(mean - q * len(nodes)) < 4 * se


def test_grid_snapping_dense_population():
    rng = np.random.default_rng(1)
    nu, extent = 500.0, 12.0
    nodes = rng.uniform(-extent, extent, size=(int(nu * (2 * extent) ** 2), 2))
    tree = cKDTree(nodes)
    spec = GridSpec("square", 1.0)
    cfg = SimConfig(nu, extent, spec, MODEL)
    idx = select_transmitters(nodes, tree, cfg, rng)
    virtual = (2 * extent) ** 2 * 1.0
    # Nearly every lattice point finds a node; snapped set density within
    # a couple percent of the scheme density.
    assert len(idx) > 0.97 * virtual
    pos = nodes[idx]
    d, _ = cKDTree(pos).query(pos, k=2)
    assert np.median(d[:, 1]) > 0.7  # snapped points keep the lattice spacing


def test_grid_snapping_sparse_warns():
    # At nu = 2 most lattice points find no node within the d/10 snap
    # radius; the run counts them and warns once.
    cfg = SimConfig(2.0, 15.0, GridSpec("square", 1.0), MODEL, slots=5, seed=2)
    with pytest.warns(UserWarning, match="snap radius") as record:
        summary, _ = run_simulation(cfg, 1)
    assert len(record) == 1
    assert summary["snap_points"] > 4 * 30 ** 2
    assert summary["snap_misses"] > 0.5 * summary["snap_points"]


def test_consecutive_slots_use_fresh_poses():
    rng = np.random.default_rng(3)
    nodes = rng.uniform(-10, 10, size=(40000, 2))
    tree = cKDTree(nodes)
    cfg = SimConfig(100.0, 10.0, GridSpec("square", 1.0), MODEL)
    a = select_transmitters(nodes, tree, cfg, rng)
    b = select_transmitters(nodes, tree, cfg, rng)
    assert not np.array_equal(a, b)


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
     "41fab419a815b524407ebd8faa8edbbeccfd5816dde2435b47a5e211479d38e0", 1.0, 8.0),
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
    # Logs of the full-sum simulator that posed a fresh gen_grid lattice
    # every slot, before the pruned reception kernel, the boolean
    # transmitter mask, the posed index disc and the Voronoi-cell pass;
    # none of them may change a hop.  At extent 8 the square and hexagonal
    # lattices stay below DECODE_MIN_POINTS transmitters; at extent 12
    # every slot takes the pruned path.
    cfg = SimConfig(100.0, extent, scheme, ChannelModel(4.0, beta), slots=600,
                    seed=21)
    _, packets = run_simulation(cfg, 4, pair_distance=2.0)
    path = tmp_path / "log.csv"
    write_hop_log(packets, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("interferer,candidate,want", [
    ((1.0, 0.0), (5e-4, 0.0), True),        # SIR ~ 1e330: raw powers overflow
    ((4500.0, 0.0), (2500.0, 0.0), False),  # SIR ~ 2e-10: both underflow to 0
])
def test_success_mask_extreme_alpha(interferer, candidate, want):
    model = ChannelModel(alpha=100.0, beta=1.0)
    cfg = SimConfig(1e-2, 5000.0, 1e-2, model)
    nodes = np.array([(0.0, 0.0), interferer, candidate])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = _success_mask(0, np.array([2]), np.array([0, 1]), nodes, cfg,
                           np.random.default_rng(0))
    assert ok.tolist() == [want]


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


def test_post_hoc_sir_audit():
    spec = GridSpec("square", 1.0)
    cfg = SimConfig(100.0, 8.0, spec, MODEL, slots=1500, seed=51)
    summary, packets = run_simulation(cfg, 4, pair_distance=2.5,
                                      record_transmitters=True)
    nodes = summary["nodes"]
    slot_tx = summary["slot_transmitters"]
    checked = 0
    for rec in packets:
        for h, slot in enumerate(rec.hop_slots):
            tx_idx = slot_tx[slot]
            pts = nodes[tx_idx]
            frm, to = rec.hops[h], rec.hops[h + 1]
            col = int(np.argmin(np.hypot(pts[:, 0] - frm[0], pts[:, 1] - frm[1])))
            ps = PointSet(pts, cfg.scheme_density, cfg.extent * 1.01)
            assert sir(col, to, ps, cfg.model.alpha) >= cfg.model.beta * (1 - 1e-9)
            checked += 1
    assert checked >= 4


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
