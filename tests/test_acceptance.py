"""End-to-end acceptance: one test per shipped guarantee, each printing a
PASS/FAIL line with its measured numbers.  Tolerances are fixed here, not
tuned: analytic table entries to 1e-3, tracer limits to 2%, Monte Carlo
agreement to three binomial standard errors (with a two-count floor so
zero-variance cells stay comparable), headline ratios to the stated
windows.
"""

import math
import time

import numpy as np
from helpers import write_hop_log

from macgeo.aloha import (aloha_prob, aloha_prob_exponential, optimize_range,
                          sample_w)
from macgeo.cli import RunConfig, run
from macgeo.multihop import SimConfig, run_simulation
from macgeo.propagation import ChannelModel, sample_fading
from macgeo.reception import (grid_range, grid_success_prob_fading,
                              origin_index, trace_contour)
from macgeo.spatial import GridSpec, PointSet, gen_grid
from macgeo.asymptotics import alpha_inf_range

SE_FLOOR = 2e-6  # two counts at 10^6 trials


def report(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def smoothed_se(hits, n):
    p = hits / n
    p_smooth = (hits + 1) / (n + 2)
    return math.sqrt(max(p * (1 - p), p_smooth * (1 - p_smooth)) / n)


def test_criterion_1_large_beta_table(tmp_path):
    expected = {("square", 1.0): 0.638232, ("rectangular", 0.5): 0.554905,
                ("rectangular", 0.25): 0.409452, ("hexagonal", 1.0): 0.609856,
                ("triangular", 1.0): 0.644845}
    t0 = time.time()
    out = tmp_path / "beta_table.csv"
    run(RunConfig("asympt-beta", {"alpha": 4.0}, 0, str(out), "csv"))
    elapsed = time.time() - t0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    errs = {(r[0], float(r[1])): abs(float(r[2]) - expected[(r[0], float(r[1]))])
            for r in rows}
    ok = len(errs) == 5 and max(errs.values()) < 1e-3 and elapsed < 10.0
    report(1, ok, f"max table error {max(errs.values()):.2e}, {elapsed:.1f}s")


def test_criterion_2_voronoi_limit():
    t0 = time.time()
    devs = {}
    for kind, k1, k2 in [("square", 1, 1), ("hexagonal", 1, 1),
                         ("triangular", 1, 1),
                         ("rectangular", 1.0, 2.0), ("rectangular", 1.0, 4.0)]:
        # At alpha 100 transmitters a few cells away are beneath double
        # precision, so a window of 60 cell diameters stands in for the
        # infinite pattern.
        r1 = grid_range(GridSpec(kind, 25.0, k1, k2), ChannelModel(100.0, 1.0),
                        extent=60.0 * 25.0 * k2).r1
        limit = alpha_inf_range(kind, k1, k2)
        devs[f"{kind}:{k1 / k2:g}"] = abs(r1 - limit) / limit
    elapsed = time.time() - t0
    ok = max(devs.values()) < 0.02 and elapsed < 120.0
    report(2, ok, f"max deviation {max(devs.values()):.3%}, {elapsed:.0f}s "
                  f"({devs})")


def test_criterion_3_apollonius_oracle():
    t0 = time.time()
    worst = 0.0
    cs = np.linspace(1.2, 5.0, 20)
    alphas = [3.0, 4.0, 5.0, 6.0] * 5
    for c, alpha in zip(cs, alphas):
        D = 1.0 if c < 3.0 else 2.0
        pts = PointSet(np.array([[0.0, 0.0], [D, 0.0]]), 1.0 / D ** 2, 20.0 * D)
        model = ChannelModel(alpha=alpha, beta=float(c) ** alpha)
        trace = trace_contour(0, pts, model)
        want = D / (c - 1.0)
        worst = max(worst, abs(trace.r_lambda - want) / want)
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 60.0
    report(3, ok, f"worst relative error {worst:.2e} over 20 pairs, "
                  f"{elapsed:.0f}s")


def test_criterion_4_homothety():
    model = ChannelModel(alpha=4.0, beta=10.0)
    worst = 0.0
    for kind, k1, k2 in [("square", 1, 1), ("rectangular", 1.0, 2.0),
                         ("hexagonal", 1, 1), ("triangular", 1, 1)]:
        r1 = {}
        for d in (25.0, 50.0):
            spec = GridSpec(kind, d, k1, k2)
            r1[d] = grid_range(spec, model, extent=2500.0).r1
        worst = max(worst, abs(r1[25.0] - r1[50.0]) / r1[25.0])
    ok = worst < 0.005
    report(4, ok, f"worst d=25 vs d=50 mismatch {worst:.3%}")


def test_criterion_5_series_vs_monte_carlo():
    t0 = time.time()
    trials = 10 ** 6
    rs = [0.1, 0.2, 0.3, 0.5, 1.0]
    betas = [0.1, 1.0, 10.0, 100.0]
    alphas = [3.0, 4.0, 6.0]
    worst_z, failures = 0.0, []
    for fading, spread in (("none", 1.0), ("log_uniform", 1.0)):
        for ai, alpha in enumerate(alphas):
            rng = np.random.default_rng(1000 + ai + (0 if fading == "none" else 10))
            w = sample_w(1.0, alpha, trials, rng, fading=fading, spread=spread)
            f_sig = (np.ones(trials) if fading == "none"
                     else sample_fading(fading, rng, trials, spread))
            for beta in betas:
                p_lib = aloha_prob(np.array(rs), 1.0,
                                   ChannelModel(alpha, beta, fading, spread))
                for r, p_s in zip(rs, p_lib):
                    x = r ** -alpha / beta
                    hits = int(np.count_nonzero(w < x * f_sig))
                    p_hat = hits / trials
                    se = smoothed_se(hits, trials)
                    cell = f"{fading} a={alpha:g} b={beta:g} r={r:g}"
                    z = abs(p_s - p_hat) / max(se, SE_FLOOR / 3)
                    if abs(p_s - p_hat) > 3 * se + SE_FLOOR:
                        failures.append(f"{cell}: p={p_s:.3g} vs {p_hat:.3g}")
                    worst_z = max(worst_z, z)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600.0
    report(5, ok, f"worst |z| {worst_z:.2f} over 120 cells, {elapsed:.0f}s"
                  + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_exponential_fading_closed_form():
    trials = 400_000
    configs = [(r, beta, alpha, lam)
               for (r, beta) in [(0.1, 1.0), (0.2, 1.0), (0.3, 1.0),
                                 (0.2, 10.0), (0.3, 0.1)]
               for (alpha, lam) in [(4.0, 1.0), (3.0, 1.0)]]
    assert len(configs) == 10
    worst_z = 0.0
    for k, (r, beta, alpha, lam) in enumerate(configs):
        rng = np.random.default_rng(2000 + k)
        w = sample_w(lam, alpha, trials, rng, fading="exponential")
        f_sig = sample_fading("exponential", rng, trials)
        hits = int(np.count_nonzero(w < (r ** -alpha / beta) * f_sig))
        p_hat = hits / trials
        se = smoothed_se(hits, trials)
        p_cf = aloha_prob_exponential(r, lam, beta, alpha)
        worst_z = max(worst_z, abs(p_hat - p_cf) / max(se, SE_FLOOR / 3))
    ok = worst_z < 3.0
    report(6, ok, f"worst |z| {worst_z:.2f} over 10 configurations")


def test_criterion_7_headline_comparison():
    model = ChannelModel(alpha=4.0, beta=10.0)
    tri = grid_range(GridSpec("triangular", 25.0), model, extent=2500.0)
    res = optimize_range(1.0, model)
    range_ratio = tri.r1 / res.r
    capacity_ratio = res.inv_rp / (1.0 / tri.r1)
    ok = 1.7 <= range_ratio <= 2.3 and 2.5 <= capacity_ratio <= 3.5
    report(7, ok, f"range ratio {range_ratio:.3f} (window [1.7, 2.3]), "
                  f"capacity ratio {capacity_ratio:.3f} (window [2.5, 3.5])")


def test_criterion_8_fading_penalty_on_optimum():
    penalties = {}
    for beta in (1.0, 10.0, 100.0):
        base = optimize_range(1.0, ChannelModel(4.0, beta))
        fad = optimize_range(1.0, ChannelModel(4.0, beta, "log_uniform", 1.0))
        penalties[beta] = 1.0 - fad.r / base.r
    ok = all(0.01 <= p <= 0.05 for p in penalties.values())
    report(8, ok, "optimal-range penalty " +
           ", ".join(f"beta={b:g}: {p:.2%}" for b, p in penalties.items()))


def test_criterion_9_grid_fading_product_vs_mc():
    trials = 10 ** 6
    beta, alpha = 1.0, 4.0
    ps = gen_grid(GridSpec("square", 1.0), 40.0)
    i = origin_index(ps)
    model = ChannelModel(alpha, beta, fading="exponential")
    worst_z = 0.0
    for k, t in enumerate(np.linspace(0.05, 0.5, 10)):
        rx = np.array([t, t])
        p_formula = grid_success_prob_fading(i, rx, ps, model)
        d2 = ((ps.points - rx) ** 2).sum(axis=1)
        r2 = d2[i]
        d2 = np.delete(d2, i)
        wgt = (d2 / r2) ** (-alpha / 2.0)
        near = wgt[d2 <= 36.0]
        far_mean = float(wgt[d2 > 36.0].sum())
        rng = np.random.default_rng(3000 + k)
        hits = 0
        chunk = 50_000
        done = 0
        while done < trials:
            m = min(chunk, trials - done)
            g = rng.exponential(1.0, (m, len(near))) @ near + far_mean
            f_sig = rng.exponential(1.0, m)
            hits += int(np.count_nonzero(f_sig >= beta * g))
            done += m
        p_hat = hits / trials
        se = smoothed_se(hits, trials)
        worst_z = max(worst_z, abs(p_hat - p_formula) / max(se, SE_FLOOR / 3))
    ok = worst_z < 3.0
    report(9, ok, f"worst |z| {worst_z:.2f} over 10 diagonal positions")


def test_criterion_10_multihop_consistency(tmp_path):
    spec = GridSpec("square", 1.0)
    model = ChannelModel(alpha=4.0, beta=1.0)
    r_lam = grid_range(spec, model, extent=60.0).r_lambda
    L = 10.0 * r_lam
    predicted = math.ceil(L / r_lam)
    cfg = SimConfig(node_density=100.0, extent=L / 2 + 12.0, scheme=spec,
                    model=model, slots=8000, seed=2024)
    summary, _ = run_simulation(cfg, 24, pair_distance=L)
    relays = summary["mean_relays"]
    delivered = summary["delivery_fraction"]

    logs = []
    small = SimConfig(node_density=100.0, extent=8.0, scheme=spec,
                      model=model, slots=1500, seed=7)
    for k in range(2):
        _, packets = run_simulation(small, 4, pair_distance=2.0)
        path = tmp_path / f"log{k}.csv"
        write_hop_log(packets, path)
        logs.append(path.read_bytes())

    ok = (delivered == 1.0 and abs(relays - predicted) <= 0.1 * predicted
          and logs[0] == logs[1])
    report(10, ok, f"delivery {delivered:.0%}, mean forwarding steps "
                   f"{relays:.2f} vs ceil(L/r)={predicted} "
                   f"(hops incl. delivery {summary['mean_hops']:.2f}), "
                   f"logs byte-identical: {logs[0] == logs[1]}")


def test_criterion_11_figure_sweep_orderings():
    # Coarse stand-in for the continuous figures: the relative ordering of
    # the schemes at the ends of the beta range.
    schemes = [("square", 1.0, 1.0), ("rectangular", 1.0, 2.0),
               ("rectangular", 1.0, 4.0), ("hexagonal", 1.0, 1.0),
               ("triangular", 1.0, 1.0)]

    def r1_of(kind, k1, k2, beta):
        return grid_range(GridSpec(kind, 1.0, k1, k2), ChannelModel(4.0, beta),
                          extent=60.0).r1

    sweeps = {f"{k}:{k1 / k2:g}": [r1_of(k, k1, k2, b)
                                   for b in np.geomspace(0.05, 100.0, 10)]
              for k, k1, k2 in schemes}
    low = {name: vals[0] for name, vals in sweeps.items()}
    high = {name: vals[-1] for name, vals in sweeps.items()}
    monotone = all(all(b < a for a, b in zip(v, v[1:]))
                   for v in sweeps.values())
    ok = (max(low, key=low.get) == "rectangular:0.25"
          and max(high, key=high.get) == "triangular:1" and monotone)
    report(11, ok, f"best at beta=0.05: {max(low, key=low.get)}, "
                   f"best at beta=100: {max(high, key=high.get)}, "
                   f"all sweeps monotone decreasing: {monotone}")
