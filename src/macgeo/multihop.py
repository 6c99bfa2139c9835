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
  nearest node within d / SNAP_DIVISOR (unmatched points are skipped and
  counted in the run summary).

Slots are holder-first: the transmitter set is built only when a live
holder is in it, and any other slot moves no packet.  A lattice slot is
built when the anchor is a live holder or a point of the slot's window
snaps to one: the lattice points near the holders are posed as the
window's (``spatial.lattice_near``, ``spatial.lattice_points``) and
snapped by the build's own snap.  Otherwise the slot ends after its two
draws with no transmitters, so every hop is that of the full build.  An
ALOHA slot first draws one mark per distinct live holder and draws the
other nodes' marks only when a holder transmits.  The marks are
independent, so a built slot's set has the law of a full Bernoulli
thinning given that a holder transmits.  The random stream is not that
of a full draw, so the hops differ from it run by run but not in law.

Each built slot poses gen_grid's points as a bare array
(``spatial.window_points``), with no PointSet.  The population never
moves, so one cell index of it (``spatial.CellIndex``), built per run,
answers every neighbour query of the run: the snap (which the holder
test asks too), the candidate disc and the pair draw's nearest node.

A relay step decides its candidates in winner order: the destination
first, then the forward candidates by decreasing progress, and it stops
at the first that receives.  ``propagation.first_decoder`` walks them,
with or without fading.  Each candidate's outcome depends on its own row
alone (its full interference sum, or under fading its own uniform, drawn
for every candidate whether or not it is decided), so the candidates
after the first success cannot change the hop.  Without fading a decoder
needs g_i >= beta * sum_j g_j >= beta * g_j for every interferer j, so
the step first refuses the forward candidates where one of the holder's
nearest transmitters alone beats them (for beta >= 1, past a bisector of
the holder's Voronoi cell), before it sorts them.  None of these
shortcuts changes a hop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .propagation import ChannelModel, beaten, first_decoder
from .spatial import (CELL_SLACK, CellIndex, GridSpec, PointSet,
                      check_budget, check_evals, grid_density, lattice_near,
                      lattice_points, window_points, with_pose)
# Unused here since slots pose window_points; perfbench's tracer still
# wraps macgeo.multihop.gen_grid, so the name stays importable.
from .spatial import gen_grid  # noqa: F401

# Source/destination draws per tracked packet before giving up.
PAIR_DRAWS = 10_000
# A virtual lattice point snaps to the nearest node within d / SNAP_DIVISOR.
SNAP_DIVISOR = 10.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup.

    node_density  population intensity nu (per m^2)
    extent        half-width of the square arena, meters
    scheme        GridSpec for a lattice scheme, or a float: the ALOHA
                  transmitter intensity lam
    model         channel model (fading 'none' or 'exponential')
    slots         slot budget per run
    seed          root seed; everything downstream derives from it

    The expected population nu * (2 * extent)^2 must stay within
    spatial.MAX_POINTS, and slots times that population within
    spatial.MAX_EVALS (a run may build every slot over every node); both
    checks run before anything is drawn.
    """

    node_density: float
    extent: float
    scheme: GridSpec | float
    model: ChannelModel
    slots: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (self.node_density > 0 and self.extent > 0):
            raise ValueError("node density and extent must be positive")
        if self.slots < 1:
            raise ValueError("slot budget must be positive")
        nodes = self.node_density * (2.0 * self.extent) ** 2
        check_budget(nodes, "expected nodes of the population (lower nu or "
                            "extent)")
        check_evals(self.slots * nodes, "slot-nodes (lower the slots, nu or "
                                        "extent)")
        lam = self.scheme_density
        if not (0 < lam < math.inf):
            raise ValueError("ALOHA transmitter intensity must be finite "
                             "and positive")
        if self.node_density < lam:
            raise ValueError("node density below the scheme's transmitter density")
        if self.model.fading not in ("none", "exponential"):
            raise ValueError("relaying supports fading 'none' or 'exponential'")

    @property
    def scheme_density(self) -> float:
        return grid_density(self.scheme) if isinstance(self.scheme, GridSpec) \
            else float(self.scheme)


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
    """Slots whose transmitter set was built, and the virtual lattice points
    posed and left unmatched in them, accumulated over the slots of a run."""

    slots: int = 0
    points: int = 0
    misses: int = 0


def _holder_snaps(nodes: np.ndarray, index: CellIndex, spec: GridSpec,
                  holders: np.ndarray, r: float, extent: float) -> bool:
    """Whether a point of the slot's lattice window snaps to a holder: the
    lattice indices near the holders, posed and snapped as the build
    poses and snaps the window's.  A point snaps to a holder only within
    r of it by the snap's own arithmetic, so only those points are
    snapped."""
    # Widened by CELL_SLACK, which covers the rounding of the holders'
    # lattice coordinates.
    k = lattice_near(spec, nodes[holders], r * (1.0 + CELL_SLACK))
    pts = lattice_points(spec, k, extent)
    dx = nodes[holders, 0] - pts[:, :1]
    dy = nodes[holders, 1] - pts[:, 1:]
    pts = pts[(np.sqrt(dx * dx + dy * dy) <= r).any(axis=1)]
    if len(pts) == 0:
        return False
    return bool((index.snap(pts)[1][:, None] == holders).any())


def select_transmitters(nodes: np.ndarray, index: CellIndex, cfg: SimConfig,
                        rng: np.random.Generator,
                        counts: SnapCounts | None = None,
                        holders: np.ndarray | None = None) -> np.ndarray:
    """Indices of the nodes activated this slot (sorted, unique).

    Grid scheme: anchor a freshly rotated copy of the virtual lattice at a
    random node and snap each lattice point to its nearest node within the
    snap radius, found by ``index``, the cell index of ``nodes`` built for
    that radius (ALOHA reads no index).  With ``holders`` (node indices),
    the set is built only when the anchor is a holder or a holder is
    snapped; other slots return an empty array after the same draws.
    ALOHA: Bernoulli thinning with probability lam/nu.  With ``holders``,
    each distinct holder's mark is drawn first; the slot returns an empty
    array when none transmits and otherwise draws every other node's mark.
    ``counts``, when given, accumulates the slots built and the lattice
    points posed and left unmatched in them.
    """
    n = len(nodes)
    if isinstance(cfg.scheme, GridSpec):
        anchor = int(rng.integers(n))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        spec = with_pose(cfg.scheme, theta, nodes[anchor])
        r = cfg.scheme.d / SNAP_DIVISOR
        if holders is not None and anchor not in holders and \
                not _holder_snaps(nodes, index, spec, holders, r, cfg.extent):
            return np.empty(0, dtype=int)
        idx = index.snap(window_points(spec, cfg.extent))[1]
        matched = idx >= 0
        if counts is not None:
            counts.slots += 1
            counts.points += matched.size
            counts.misses += matched.size - int(np.count_nonzero(matched))
        chosen = np.unique(idx[matched])
        if anchor not in chosen:
            chosen = np.union1d(chosen, [anchor])
        return chosen
    q = cfg.scheme_density / cfg.node_density
    if holders is not None:
        holders = np.unique(holders)
        fires = rng.random(holders.size) < q
        if not fires.any():
            return np.empty(0, dtype=int)
    if counts is not None:
        counts.slots += 1
    marks = rng.random(n) < q
    if holders is not None:
        marks[holders] = fires
    return np.nonzero(marks)[0]


def relay_step(packet: PacketRecord, holder_idx: int, tx_idx: np.ndarray,
               tx: PointSet, active: np.ndarray, nodes: np.ndarray,
               index: CellIndex, dest_idx: int, cfg: SimConfig,
               rng: np.random.Generator, slot: int,
               candidate_radius: float) -> int:
    """Advance the packet by at most one hop; returns the new holder index.

    ``tx_idx`` (sorted), ``tx`` and the node mask ``active`` are the
    slot's transmitters.  Candidate receivers are the non-transmitting
    nodes within ``candidate_radius`` of the holder (found by ``index``,
    the run's cell index of ``nodes``), plus the destination
    (so the immediate-delivery relaxation is never missed).  The
    destination wins whenever it receives; otherwise the receiver with
    the largest forward progress wins, and exact ties go to the candidate
    closer to the destination.  With no successful receiver at positive
    progress the packet stays put.

    Candidates are decided in that winner order, the destination first,
    and the walk stops at the first that receives; candidates at progress
    <= 0 are never decided, and without fading neither are those that one
    interferer alone beats, refused before the sort.  A candidate's
    outcome depends on its own row alone (its full interference sum, or
    under fading its own uniform, drawn for every candidate in sorted node
    order), so the candidates left undecided cannot change the hop.
    """
    holder = nodes[holder_idx]
    dest = nodes[dest_idx]
    # Sorted, as the exponential-fading draws follow the candidate order.
    cand = index.disc(holder, candidate_radius)
    cand = cand[~active[cand]]
    if dest_idx not in cand and not active[dest_idx]:
        cand = np.append(cand, dest_idx)
    if cand.size == 0:
        return holder_idx
    u = rng.random(len(cand)) if cfg.model.fading != "none" else None

    pos = nodes[cand]
    e = dest - holder
    e = e / math.hypot(e[0], e[1])
    prog = (pos - holder) @ e
    is_dest = cand == dest_idx
    fwd = np.flatnonzero((prog > 0.0) & ~is_dest)
    col = int(np.searchsorted(tx_idx, holder_idx))
    if u is None:
        # A row that one interferer alone beats never decodes, so refusing
        # it before the winner-order sort changes no hop.
        fwd = fwd[~beaten(pos[fwd], tx, col, cfg.model)]
    d_dest = np.hypot(pos[fwd, 0] - dest[0], pos[fwd, 1] - dest[1])
    order = fwd[np.lexsort((d_dest, -prog[fwd]))]
    order = np.concatenate((np.flatnonzero(is_dest), order))
    k = first_decoder(pos[order], tx, col, cfg.model,
                      None if u is None else u[order])
    if k < 0:
        return holder_idx
    hop_to = int(cand[order[k]])

    rx = nodes[hop_to]
    packet.hops.append(rx.copy())
    packet.hop_slots.append(slot)
    packet.progress_per_hop.append(progress(holder, rx, dest))
    if hop_to == dest_idx:
        packet.delivered = True
        packet.delivered_slot = slot
    return hop_to


def run_simulation(cfg: SimConfig, n_packets: int,
                   pair_distance: float | None = None):
    """Run the slotted relaying process for ``n_packets`` tracked flows.

    The node population is drawn once; each slot re-runs the scheme's
    transmitter selection and advances every tracked packet whose holder
    was activated.  Source/destination node pairs are random; with
    ``pair_distance`` the destination is instead the node nearest to a
    point at that distance from the source (direction random), which pins
    the end-to-end length for controlled experiments.

    Returns (summary dict, list of PacketRecord).  The summary counts
    the slots built (``slots_built``: under either scheme, the slots in
    which a live holder transmits) and, over them, the virtual lattice
    points posed (``snap_points``, 0 for ALOHA) and those left unmatched
    (``snap_misses``).  A lattice run warns once, before any draw, when
    the Poisson void probability of the snap disc,
    exp(-nu pi (d / SNAP_DIVISOR)^2), exceeds 10%.  Fully deterministic
    for a fixed config and seed.
    """
    if n_packets < 1:
        raise ValueError("need at least one tracked packet")
    inner = 0.8 * cfg.extent
    if pair_distance is not None and not (
            0.0 < pair_distance < 2.0 * math.sqrt(2.0) * inner):
        raise ValueError(f"pair distance {pair_distance:g} does not fit in the "
                         f"inner square of half-width {inner:g}")
    if isinstance(cfg.scheme, GridSpec):
        void = math.exp(-cfg.node_density * math.pi
                        * (cfg.scheme.d / SNAP_DIVISOR) ** 2)
        if void > 0.1:
            warnings.warn(f"about {void:.0%} of the virtual lattice points will "
                          "find no node within the snap radius; raise the node "
                          "density", stacklevel=2)
    root = np.random.SeedSequence(cfg.seed)
    seeds = root.spawn(3)
    rng_nodes = np.random.default_rng(seeds[0])
    rng_pairs = np.random.default_rng(seeds[1])
    rng_slots = np.random.default_rng(seeds[2])

    area = (2.0 * cfg.extent) ** 2
    n = max(1, rng_nodes.poisson(cfg.node_density * area))
    nodes = rng_nodes.uniform(-cfg.extent, cfg.extent, size=(n, 2))
    nodes.setflags(write=False)
    index = CellIndex(nodes, cfg.scheme.d / SNAP_DIVISOR
                       if isinstance(cfg.scheme, GridSpec) else 0.0)

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
                    _, near = index.k_nearest(target[None], 1, index.side)
                    dst = int(near[0, 0])
                    if dst != src:
                        break
        else:
            raise ValueError(f"no source/destination pair in {PAIR_DRAWS} draws")
        rec = PacketRecord(source=nodes[src].copy(), destination=nodes[dst].copy())
        rec.hops.append(nodes[src].copy())
        packets.append(rec)
        holders.append(src)
        dest_idx.append(dst)

    snaps = SnapCounts()
    for slot in range(cfg.slots):
        live = np.array([h for h, rec in zip(holders, packets) if not rec.delivered])
        tx_idx = select_transmitters(nodes, index, cfg, rng_slots, snaps, live)
        if tx_idx.size == 0:
            continue
        active = np.zeros(n, dtype=bool)
        active[tx_idx] = True
        tx = None  # built on the first holder that transmits
        for k, rec in enumerate(packets):
            if rec.delivered or not active[holders[k]]:
                continue
            if tx is None:
                # Rows of i.i.d. uniform draws in the box, which repeat a
                # point with probability of order n^2 / 2^106.
                tx = PointSet._of_distinct(nodes[tx_idx], lam, cfg.extent)
            holders[k] = relay_step(rec, holders[k], tx_idx, tx, active,
                                    nodes, index, dest_idx[k], cfg, rng_slots,
                                    slot, candidate_radius)
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
        "slots_built": snaps.slots,
        "snap_misses": snaps.misses,
        "snap_points": snaps.points,
    }
    return summary, packets

