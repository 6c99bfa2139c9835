"""Output checks, one per job type, run after timing on the first pass.

``check(job, out_dir)`` returns exactly ``job["ops"]`` tuples
``(label, ok, detail, defect)``.  ``defect`` names a known, documented
program defect when the failure has that defect's signature, else None; a
run is ``correct`` only when every failure carries a known defect.  Known
defects still count as failed operations.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracles as o

# CSV outputs carry 12 significant digits, so values recomputed from other
# written columns agree to about 1e-11.
CSV_RTOL = 1e-10

KNOWN_DEFECTS = {
    "D1": "ALOHA series returns p near 1 where the Kanter integral gives "
          "p < 1e-6: cancellation slips past the guard and the result is "
          "clamped into [0, 1]",
    "D4": "the README simulate example asks for ~1e10 nodes and dies with "
          "an uncaught MemoryError traceback instead of exit code 3",
}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= max(rtol * abs(b), atol)


def _op(label, ok, detail="", defect=None):
    return (label, bool(ok), detail, defect if not ok else None)


def check_grid_range(job, out):
    row = _rows(out)[0]
    ref = o.PINNED_R1[tuple(job["ref"])]
    r1 = float(row["r1"])
    ok = row["method"] == "trace" and _close(r1, ref, o.R1_RTOL)
    return [_op("r1", ok, f"r1={r1!r} pinned {ref!r} ({row['method']})")]


def _square_lattice(d, extent):
    k = int(math.floor(extent / d + 1e-9))
    m = np.arange(-k, k + 1) * d
    x, y = np.meshgrid(m, m, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel()])


def check_trace(job, out):
    kind, beta, alpha, extent = job["ref"]
    d = float(_flag(job["argv"], "--d", 25.0))
    with open(out + ".summary.json") as fh:
        summary = json.load(fh)
    verts = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    pts = _square_lattice(d, extent)
    probe = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
    # Every audited vertex lies on the level set S = beta.
    worst = 0.0
    for z in verts[:: max(1, len(verts) // 64)]:
        d2 = (pts[:, 0] - z[0]) ** 2 + (pts[:, 1] - z[1]) ** 2
        p = (d2 / d2.min()) ** (-0.5 * alpha)
        s = p[probe] / (p.sum() - p[probe])
        worst = max(worst, abs(s - beta) / beta)
    r_lam = summary["r_lambda"]
    far = float(np.hypot(verts[:, 0], verts[:, 1]).max())
    step = d / 200.0
    r1, ref = summary["r1"], o.PINNED_R1[tuple(job["ref"])]
    ok = (summary["closed"] and worst <= 1e-5 and _close(r1, ref, o.R1_RTOL)
          and -1e-6 * r_lam <= r_lam - far <= step
          and abs(r1 - o.voronoi_r1(kind)) <= 0.02 * o.voronoi_r1(kind))
    return [_op("trace", ok, f"r1={r1!r} pinned {ref!r}, worst vertex "
                             f"|S-beta|/beta {worst:.2e}, farthest vertex "
                             f"{far:.6g} vs r_lambda {r_lam:.6g}")]


def check_membership(job, out):
    row = _rows(out)[0]
    ref = o.PINNED_MEMBERSHIP[job["ref"]]
    r1 = float(row["r1"])
    ok = row["method"] == "membership" and _close(r1, ref, o.RASTER_RTOL)
    return [_op("r1", ok, f"r1={r1!r} pinned {ref!r} ({row['method']})")]


def check_field(job, out):
    from macgeo.spatial import gen_poisson  # input generator, not under test

    argv = job["argv"]
    n = int(_flag(argv, "--n", 100))
    lam = float(_flag(argv, "--lam", 1.0))
    alpha = float(_flag(argv, "--alpha", 4.0))
    extent = float(_flag(argv, "--extent", 5000.0))
    pts = gen_poisson(lam, extent, int(_flag(argv, "--seed", 0))).points
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n * n, 3):
        return [_op("raster", False, f"shape {data.shape}, want {(n * n, 3)}")]
    picks = np.random.default_rng(0).choice(n * n, size=min(256, n * n),
                                            replace=False)
    worst = 0.0
    for x, y, val in data[picks]:
        w = float(np.sum(((pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2)
                         ** (-0.5 * alpha)))
        worst = max(worst, abs(val - w) / w)
    return [_op("raster", worst <= 1e-6,
                f"worst relative error {worst:.2e} over {len(picks)} cells")]


def check_fading_curve(job, out):
    argv = job["argv"]
    d = float(_flag(argv, "--d", 25.0))
    extent = float(_flag(argv, "--extent", 5000.0))
    beta = float(_flag(argv, "--beta", 10.0))
    alpha = float(_flag(argv, "--alpha", 4.0))
    pts = _square_lattice(d, extent)
    probe = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
    others = np.delete(pts, probe, axis=0)
    ts = np.linspace(0.02, 0.98, job["ops"])
    rows = _rows(out)
    ops = []
    for k, t in enumerate(ts):
        if k >= len(rows):
            ops.append(_op(f"row{k}", False, "missing"))
            continue
        row = rows[k]
        rx = np.array([t * d, t * d])
        r2 = float(rx @ rx)
        d2 = (others[:, 0] - rx[0]) ** 2 + (others[:, 1] - rx[1]) ** 2
        ratio = (d2 / r2) ** (-0.5 * alpha)      # interferer / signal
        sir = 1.0 / ratio.sum()
        p_fad = float(np.exp(-np.sum(np.log1p(beta * ratio))))
        p0, p1 = float(row["p_nofading"]), float(row["p_fading"])
        tie = abs(sir - beta) <= 1e-9 * beta
        ok = (_close(float(row["r"]), t * d * math.sqrt(2.0), 1e-9)
              and (tie or p0 == float(sir >= beta))
              and _close(p1, p_fad, 1e-9, 1e-300))
        ops.append(_op(f"row{k}", ok, f"r={row['r']}: indicator {p0:g} "
                                      f"(SIR {sir:.6g}), product {p1!r} vs "
                                      f"{p_fad!r}"))
    return ops


def check_asympt_beta(job, out):
    alpha = job["alpha"]
    ops = []
    for row in _rows(out):
        kind, ratio, val = row["pattern"], float(row["k1_over_k2"]), float(row["value"])
        if kind in ("square", "triangular"):
            ref = o.epstein_beta_inf(kind, alpha)
        else:
            ref = o.PINNED_BETA_INF[(alpha, kind, ratio)]
        ops.append(_op(f"{kind}:{ratio:g}", abs(val - ref) <= o.EPSTEIN_ATOL,
                       f"{val!r} vs {ref!r}"))
    return _pad(ops, job)


def check_asympt_alpha(job, out):
    ops = []
    for row in _rows(out):
        kind, ratio, val = row["pattern"], float(row["k1_over_k2"]), float(row["value"])
        ref = o.voronoi_r1(kind, ratio)
        ops.append(_op(f"{kind}:{ratio:g}", _close(val, ref, CSV_RTOL),
                       f"{val!r} vs {ref!r}"))
    return _pad(ops, job)


def _fading_of(label):
    if label == "none":
        return "none", 1.0
    kind, _, spread = label.partition(":")
    if kind != "log-uniform":
        raise ValueError(f"unexpected fading label {label!r}")
    return "log_uniform", float(spread or 1.0)


def _check_optimum(rep):
    beta, alpha = float(rep["beta"]), float(rep["alpha"])
    fading, spread = _fading_of(rep["fading"])
    r1, p, rp = float(rep["r1"]), float(rep["p_at_opt"]), float(rep["rp"])
    r_ref, rp_ref = o.aloha_optimum(beta, alpha, fading, spread)
    p_ref = o.aloha_p(r1, beta, alpha, fading, spread)
    ok = (_close(r1, r_ref, o.OPT_R_RTOL) and abs(p - p_ref) <= o.P_ATOL
          and rp >= (1.0 - o.OPT_RP_RTOL) * rp_ref
          and _close(rp, r1 * p, CSV_RTOL)
          and _close(float(rep["inv_rp"]), 1.0 / rp, CSV_RTOL))
    return _op(f"a={alpha:g} b={beta:g} {rep['fading']}", ok,
               f"r1={r1!r} vs {r_ref!r}, p={p!r} vs {p_ref!r}, "
               f"rp={rp!r} vs max {rp_ref!r}")


def check_optimize(job, out):
    with open(out) as fh:
        return [_check_optimum(json.load(fh))]


def check_optimize_sweep(job, out):
    return _pad([_check_optimum(row) for row in _rows(out)], job)


def check_aloha_curve(job, out):
    argv = job["argv"]
    beta = float(_flag(argv, "--beta", 10.0))
    alpha = float(_flag(argv, "--alpha", 4.0))
    n = int(_flag(argv, "--n", 100))
    rs = np.linspace(float(_flag(argv, "--rmin", 0.02)),
                     float(_flag(argv, "--rmax", 1.0)), n)
    ops = []
    for k, row in enumerate(_rows(out)):
        r, p, rp = float(row["r"]), float(row["p"]), float(row["rp"])
        label = row["method"]
        fading, spread = _fading_of(label.split(":below_resolution")[0])
        ref = o.aloha_p(r, beta, alpha, fading, spread)
        ok = (abs(p - ref) <= o.P_ATOL and _close(rp, r * p, CSV_RTOL)
              and _close(r, rs[k % n], 1e-9))
        defect = "D1" if p - ref > o.P_ATOL and ref < 1e-6 else None
        ops.append(_op(f"{label} r={r:.6g}", ok, f"p={p!r} vs {ref!r}",
                       defect))
    return _pad(ops, job)


def check_exp_rows(job, out):
    alpha = job["args"]["alpha"]
    with open(out) as fh:
        rows = json.load(fh)["rows"]
    ops = [_op(f"b={b:g} r={r:.6g}",
               _close(p, o.aloha_p_exponential(r, b, alpha), 1e-12, 1e-300),
               f"p={p!r}") for b, r, p in rows]
    return _pad(ops, job)


def _mc_op(label, hits, trials, ref):
    se = math.sqrt(ref * (1.0 - ref) / trials)
    p_hat = hits / trials
    ok = abs(p_hat - ref) <= o.MC_SIGMAS * se + o.MC_FLOOR / trials
    return _op(label, ok, f"p_hat={p_hat:.6g} vs {ref:.6g} (se {se:.2g})")


def check_sample_cells(job, out):
    a = job["args"]
    with open(out) as fh:
        res = json.load(fh)
    ops = [_mc_op(f"b={b:g} r={r:g}", hits, res["trials"],
                  o.aloha_p(r, b, a["alpha"], a["fading"], a["spread"]))
           for b, r, hits in res["cells"]]
    return _pad(ops, job)


def check_mc_exponential(job, out):
    a = job["args"]
    with open(out) as fh:
        res = json.load(fh)
    ref = o.aloha_p_exponential(a["r"], a["beta"], a["alpha"])
    return [_mc_op("exponential", round(res["p"] * a["trials"]), a["trials"],
                   ref)]


def check_simulate(job, out):
    """Geometric consistency of the hop log: hops chain, slots increase,
    every hop makes forward progress no larger than its length, relay hops
    stay within the 2/sqrt(lam) candidate radius, and the summary agrees
    with the log.  The lattice run's mean relay count must sit within 10%
    of ceil(L / r_lambda) (acceptance criterion 10)."""
    rows = _rows(out)
    with open(out + ".summary.json") as fh:
        summary = json.load(fh)
    slots = int(_flag(job["argv"], "--slots", 2000))
    radius = 2.0 / math.sqrt(job["lam"])
    by_packet = {}
    for row in rows:
        by_packet.setdefault(int(row["packet_id"]), []).append(row)
    problems = []
    for pid, hops in by_packet.items():
        prev_to, prev_slot = None, -1
        for h, row in enumerate(hops):
            fx, fy = float(row["from_x"]), float(row["from_y"])
            tx, ty = float(row["to_x"]), float(row["to_y"])
            slot, prog = int(row["slot"]), float(row["progress"])
            length = math.hypot(tx - fx, ty - fy)
            if int(row["hop"]) != h or not prev_slot < slot < slots:
                problems.append(f"packet {pid} hop {h}: order")
            if prev_to is not None and (fx, fy) != prev_to:
                problems.append(f"packet {pid} hop {h}: chain broken")
            if not 0.0 < prog <= length * (1 + 1e-9) + 1e-9:
                problems.append(f"packet {pid} hop {h}: progress {prog}")
            if h < len(hops) - 1 and length > radius * (1 + 1e-9):
                problems.append(f"packet {pid} hop {h}: length {length:.4g}")
            prev_to, prev_slot = (tx, ty), slot
    n = int(_flag(job["argv"], "--packets", 5))
    delivered = len(summary["slots_to_delivery"])
    if (summary["n_packets"] != n or summary["undelivered"] != n - delivered
            or not _close(summary["delivery_fraction"], delivered / n, 1e-12)
            or len(by_packet) > n):
        problems.append("summary disagrees with the hop log")
    want = job.get("predicted_relays")
    relays = summary["mean_relays"]
    if want and delivered and abs(relays - want) > 0.1 * want:
        problems.append(f"mean relays {relays:.3f} vs ceil(L/r)={want}")
    return [_op("hop-log", not problems,
                f"{len(rows)} hops, {delivered}/{n} delivered, mean relays "
                f"{relays:.3f}" + ("; " + "; ".join(problems[:5])
                                   if problems else ""))]


def _pad(ops, job):
    """Exactly job['ops'] results: missing rows fail, extra rows fail."""
    want = job["ops"]
    if len(ops) > want:
        ops = ops[:want - 1] + [_op("extra rows", False,
                                    f"{len(ops)} rows, want {want}")]
    return ops + [_op(f"row{k}", False, "missing")
                  for k in range(len(ops), want)]


CHECKS = {
    "grid_range": check_grid_range,
    "trace": check_trace,
    "membership": check_membership,
    "field": check_field,
    "fading_curve": check_fading_curve,
    "asympt_beta": check_asympt_beta,
    "asympt_alpha": check_asympt_alpha,
    "optimize": check_optimize,
    "optimize_sweep": check_optimize_sweep,
    "aloha_curve": check_aloha_curve,
    "exp_rows": check_exp_rows,
    "sample_cells": check_sample_cells,
    "mc_exponential": check_mc_exponential,
    "simulate": check_simulate,
}


def check(job, out_dir):
    """The job's operations; an unreadable output fails all of them."""
    path = os.path.join(out_dir, job["out"])
    try:
        ops = CHECKS[job["type"]](job, path)
    except Exception as exc:  # a malformed output fails its operations
        ops = [_op(f"op{k}", False, f"unreadable output: {type(exc).__name__}: "
                                    f"{exc}") for k in range(job["ops"])]
    return ops
