"""Slot-based relaying simulation over a random node population.

Nodes are scattered uniformly with density nu; each slot a MAC scheme
activates a subset of them as simultaneous transmitters (every activated
node transmits and therefore interferes, whether or not it carries a
tracked packet).  A tracked packet advances at most one hop per slot and
only when its holder is activated: among the nodes that decode the holder
this slot it is forwarded to the one with the largest forward progress,
the projection of the hop onto the direction of the packet's destination.
A packet whose destination decodes the transmission is delivered
immediately.  Packets that find no forward receiver simply retry in a
later slot until the slot budget runs out.

Schemes:

* ALOHA -- every node transmits independently with probability
  lam / nu, so activated nodes have intensity lam.
* grid  -- a virtual lattice with a fresh random pose is anchored at a
  randomly chosen node each slot; every lattice point is snapped to the
  nearest node within ``snap_radius`` (unmatched points are skipped and
  counted in the run summary).

Each slot poses a lattice index disc built once per run
(``spatial.window_points``: gen_grid's points, float for float).  For
beta >= 1 a decoder needs g_i >= beta * sum_j g_j >= g_j for every
interferer j, so it lies in the holder's Voronoi cell among the slot's
transmitters, and ``propagation.decodes`` refuses candidates past a
bisector before any interference sum.  Below beta = 1 a receiver nearer
to an interferer can still decode, so that pass is skipped.  Neither
shortcut changes a hop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .propagation import ChannelModel, decodes
from .spatial import GridSpec, PointSet, grid_density, window_points, with_pose
# Unused here since slots pose a cached index disc; perfbench's tracer still
# wraps macgeo.multihop.gen_grid, so the name stays importable.
from .spatial import gen_grid  # noqa: F401

# Largest expected node population nu * (2 * extent)^2 a run may draw.
MAX_NODES = 2_000_000
# Source/destination draws per tracked packet before giving up.
PAIR_DRAWS = 10_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup.

    node_density  population intensity nu (per m^2)
    extent        half-width of the square arena, meters
    scheme        GridSpec for a lattice scheme, or a float: the ALOHA
                  transmitter intensity lam
    model         channel model (fading 'none' or 'exponential')
    snap_radius   lattice-point snap tolerance; None -> d/10 (grid only)
    slots         slot budget per run
    seed          root seed; everything downstream derives from it

    The expected population nu * (2 * extent)^2 must stay within
    MAX_NODES; the check runs before anything is drawn.
    """

    node_density: float
    extent: float
    scheme: GridSpec | float
    model: ChannelModel
    snap_radius: float | None = None
    slots: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (self.node_density > 0 and self.extent > 0):
            raise ValueError("node density and extent must be positive")
        if self.slots < 1:
            raise ValueError("slot budget must be positive")
        expected = self.node_density * (2.0 * self.extent) ** 2
        if expected > MAX_NODES:
            raise ValueError(f"expected node population {expected:.3g} exceeds "
                             f"the budget of {MAX_NODES}; lower nu or extent")
        lam = self.scheme_density
        if self.node_density < lam:
            raise ValueError("node density below the scheme's transmitter density")
        if isinstance(self.scheme, GridSpec):
            snap = self.snap_radius
            if snap is not None and not (0 < snap < self.scheme.d / 4):
                raise ValueError("snap radius must lie in (0, d/4)")
        if self.model.fading not in ("none", "exponential"):
            raise ValueError("relaying supports fading 'none' or 'exponential'")

    @property
    def scheme_density(self) -> float:
        return grid_density(self.scheme) if isinstance(self.scheme, GridSpec) \
            else float(self.scheme)

    @property
    def resolved_snap_radius(self) -> float:
        if not isinstance(self.scheme, GridSpec):
            return 0.0
        return self.snap_radius if self.snap_radius is not None else self.scheme.d / 10.0


@dataclass
class PacketRecord:
    """Trajectory of one tracked packet."""

    source: np.ndarray
    destination: np.ndarray
    hops: list = field(default_factory=list)          # positions, source first
    hop_slots: list = field(default_factory=list)     # slot index of each hop
    progress_per_hop: list = field(default_factory=list)
    delivered: bool = False
    delivered_slot: int | None = None
    scheduled_slots: int = 0  # slots in which the current holder transmitted


def progress(tx, rx, dest) -> float:
    """Forward progress: hop displacement projected on the transmitter ->
    destination direction.  Negative for backward relays."""
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    dest = np.asarray(dest, dtype=float)
    u = dest - tx
    n = math.hypot(u[0], u[1])
    if n == 0.0:
        raise ValueError("transmitter already at the destination")
    return float((rx - tx) @ u) / n


@dataclass
class SnapCounts:
    """Virtual lattice points posed, and those that found no node within
    the snap radius, accumulated over the slots of a run."""

    points: int = 0
    misses: int = 0


def select_transmitters(nodes: np.ndarray, tree: cKDTree, cfg: SimConfig,
                        rng: np.random.Generator,
                        counts: SnapCounts | None = None) -> np.ndarray:
    """Indices of the nodes activated this slot (sorted, unique).

    Grid scheme: anchor a freshly rotated copy of the virtual lattice at a
    random node and snap each lattice point to its nearest node within the
    snap radius; ``counts``, when given, accumulates the points posed and
    left unmatched.  ALOHA: Bernoulli thinning with probability lam/nu.
    """
    n = len(nodes)
    if isinstance(cfg.scheme, GridSpec):
        anchor = int(rng.integers(n))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        spec = with_pose(cfg.scheme, theta, nodes[anchor])
        virtual = window_points(spec, cfg.extent)
        r = cfg.resolved_snap_radius
        # The tree keeps only neighbors strictly inside the bound; lifting
        # it one ulp above r leaves `dist <= r` to decide every match.
        dist, idx = tree.query(virtual, distance_upper_bound=np.nextafter(r, np.inf))
        matched = dist <= r
        if counts is not None:
            counts.points += matched.size
            counts.misses += matched.size - int(np.count_nonzero(matched))
        chosen = np.unique(idx[matched])
        if anchor not in chosen:
            chosen = np.union1d(chosen, [anchor])
        return chosen
    q = cfg.scheme_density / cfg.node_density
    return np.nonzero(rng.random(n) < q)[0]


def _success_mask(holder_idx: int, cand_idx: np.ndarray, tx_idx: np.ndarray,
                  nodes: np.ndarray, cfg: SimConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Reception outcome of the holder's transmission at each candidate."""
    model = cfg.model
    col = int(np.nonzero(tx_idx == holder_idx)[0][0])
    cand = nodes[cand_idx]
    if model.fading == "none":
        tx = PointSet(nodes[tx_idx], cfg.scheme_density, cfg.extent)
        return decodes(cand, tx, col, model)
    # Exponential fading: per-candidate success probability is the product
    # 1/(1 + beta w_j) over interferers, then a Bernoulli draw.
    tx_pts = nodes[tx_idx]
    dx = cand[:, None, 0] - tx_pts[None, :, 0]
    dy = cand[:, None, 1] - tx_pts[None, :, 1]
    d2 = dx * dx + dy * dy
    ratio = d2 / d2[:, col, None]
    lp = np.log1p(model.beta * ratio ** (-0.5 * model.alpha))
    lp[:, col] = 0.0
    p_succ = np.exp(-lp.sum(axis=1))
    return rng.random(len(cand_idx)) < p_succ


def relay_step(packet: PacketRecord, holder_idx: int, tx_idx: np.ndarray,
               nodes: np.ndarray, tree: cKDTree, dest_idx: int,
               cfg: SimConfig, rng: np.random.Generator, slot: int,
               candidate_radius: float) -> int:
    """Advance the packet by at most one hop; returns the new holder index.

    Candidate receivers are the non-transmitting nodes within
    ``candidate_radius`` of the holder, plus the destination (so the
    immediate-delivery relaxation is never missed).  Among successful
    receivers the largest forward progress wins; exact ties go to the
    candidate closer to the destination.  With no successful receiver at
    positive progress the packet stays put.
    """
    holder = nodes[holder_idx]
    dest = nodes[dest_idx]
    cand = np.array(tree.query_ball_point(holder, candidate_radius), dtype=int)
    cand = np.setdiff1d(cand, tx_idx, assume_unique=False)
    cand = cand[cand != holder_idx]
    if dest_idx not in cand and dest_idx not in tx_idx and dest_idx != holder_idx:
        cand = np.append(cand, dest_idx)
    if cand.size == 0:
        return holder_idx

    ok = _success_mask(holder_idx, cand, tx_idx, nodes, cfg, rng)
    winners = cand[ok]
    if winners.size == 0:
        return holder_idx

    if dest_idx in winners:
        hop_to = dest_idx
    else:
        pos = nodes[winners]
        u = dest - holder
        u = u / math.hypot(u[0], u[1])
        prog = (pos - holder) @ u
        fwd = prog > 0.0
        if not np.any(fwd):
            return holder_idx
        winners, prog, pos = winners[fwd], prog[fwd], pos[fwd]
        d_dest = np.hypot(pos[:, 0] - dest[0], pos[:, 1] - dest[1])
        best = np.lexsort((d_dest, -prog))[0]
        hop_to = int(winners[best])

    rx = nodes[hop_to]
    packet.hops.append(rx.copy())
    packet.hop_slots.append(slot)
    packet.progress_per_hop.append(progress(holder, rx, dest))
    if hop_to == dest_idx:
        packet.delivered = True
        packet.delivered_slot = slot
    return hop_to


def run_simulation(cfg: SimConfig, n_packets: int,
                   pair_distance: float | None = None,
                   record_transmitters: bool = False):
    """Run the slotted relaying process for ``n_packets`` tracked flows.

    The node population is drawn once; each slot re-runs the scheme's
    transmitter selection and advances every tracked packet whose holder
    was activated.  Source/destination node pairs are random; with
    ``pair_distance`` the destination is instead the node nearest to a
    point at that distance from the source (direction random), which pins
    the end-to-end length for controlled experiments.

    Returns (summary dict, list of PacketRecord); with
    ``record_transmitters`` the summary also carries the per-slot
    transmitter index arrays for post-hoc audits.  The summary counts the
    virtual lattice points posed over the run (``snap_points``, 0 for
    ALOHA) and those left unmatched (``snap_misses``); one warning per run
    flags a miss fraction above 10%.  Fully deterministic for a fixed
    config and seed.
    """
    if n_packets < 1:
        raise ValueError("need at least one tracked packet")
    inner = 0.8 * cfg.extent
    if pair_distance is not None and not (
            0.0 < pair_distance < 2.0 * math.sqrt(2.0) * inner):
        raise ValueError(f"pair distance {pair_distance:g} does not fit in the "
                         f"inner square of half-width {inner:g}")
    root = np.random.SeedSequence(cfg.seed)
    seeds = root.spawn(3)
    rng_nodes = np.random.default_rng(seeds[0])
    rng_pairs = np.random.default_rng(seeds[1])
    rng_slots = np.random.default_rng(seeds[2])

    area = (2.0 * cfg.extent) ** 2
    n = max(1, rng_nodes.poisson(cfg.node_density * area))
    nodes = rng_nodes.uniform(-cfg.extent, cfg.extent, size=(n, 2))
    tree = cKDTree(nodes)

    lam = cfg.scheme_density
    candidate_radius = 2.0 / math.sqrt(lam)

    packets, holders, dest_idx = [], [], []
    for _ in range(n_packets):
        for _ in range(PAIR_DRAWS):
            src = int(rng_pairs.integers(n))
            if pair_distance is None:
                dst = int(rng_pairs.integers(n))
                if dst != src:
                    break
            else:
                theta = rng_pairs.uniform(0.0, 2.0 * math.pi)
                target = nodes[src] + pair_distance * np.array(
                    [math.cos(theta), math.sin(theta)])
                if np.max(np.abs(nodes[src])) < inner and np.max(np.abs(target)) < inner:
                    dst = int(tree.query(target)[1])
                    if dst != src:
                        break
        else:
            raise ValueError(f"no source/destination pair in {PAIR_DRAWS} draws")
        rec = PacketRecord(source=nodes[src].copy(), destination=nodes[dst].copy())
        rec.hops.append(nodes[src].copy())
        packets.append(rec)
        holders.append(src)
        dest_idx.append(dst)

    slot_log = [] if record_transmitters else None
    snaps = SnapCounts()
    for slot in range(cfg.slots):
        tx_idx = select_transmitters(nodes, tree, cfg, rng_slots, snaps)
        if record_transmitters:
            slot_log.append(tx_idx.copy())
        if tx_idx.size == 0:
            continue
        active = np.zeros(n, dtype=bool)
        active[tx_idx] = True
        for k, rec in enumerate(packets):
            if rec.delivered or not active[holders[k]]:
                continue
            rec.scheduled_slots += 1
            holders[k] = relay_step(rec, holders[k], tx_idx, nodes, tree,
                                    dest_idx[k], cfg, rng_slots, slot,
                                    candidate_radius)
        if all(r.delivered for r in packets):
            break

    delivered = [r for r in packets if r.delivered]
    summary = {
        "n_packets": n_packets,
        "n_nodes": int(n),
        "delivery_fraction": len(delivered) / n_packets,
        # Transmissions on a delivered path; the relay count drops the
        # final delivery hop (which is exempt from max-progress
        # forwarding) and is the quantity the ceil(L / max range)
        # prediction counts.
        "mean_hops": (sum(len(r.progress_per_hop) for r in delivered)
                      / len(delivered)) if delivered else math.nan,
        "mean_relays": (sum(len(r.progress_per_hop) - 1 for r in delivered)
                        / len(delivered)) if delivered else math.nan,
        "mean_progress": (sum(sum(r.progress_per_hop) for r in delivered)
                          / sum(len(r.progress_per_hop) for r in delivered))
        if delivered else math.nan,
        "slots_to_delivery": [r.delivered_slot for r in delivered],
        "undelivered": n_packets - len(delivered),
        "snap_misses": snaps.misses,
        "snap_points": snaps.points,
    }
    if snaps.misses > 0.1 * snaps.points:
        warnings.warn(f"{snaps.misses} of {snaps.points} virtual lattice points "
                      "found no node within the snap radius; raise the node "
                      "density", stacklevel=2)
    if record_transmitters:
        summary["slot_transmitters"] = slot_log
        summary["nodes"] = nodes
    return summary, packets

