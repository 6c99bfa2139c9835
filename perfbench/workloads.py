"""Job lists of the benchmark workloads, built from the seed.

A job is a plain dict, so the plan can be handed to the worker process as
JSON:

    id     unique name; also the stem of its output file
    type   which oracle checks it (see checks.py); warm-up runs one tiny
           job of each type
    kind   "cli": ``argv`` goes through ``macgeo.cli.main`` in-process;
           "call": ``fn`` (a function in worker.py) gets ``args``
    out    output file name, written under the pass directory
    ops    operations the job's check covers: one per output row for
           row-producing commands, else one

Two sizes exist: "full" is the measured benchmark, "tiny" the same job
types at toy sizes, used for warm-up, determinism probes and the
self-test.
"""

from __future__ import annotations

import math
import random

import numpy as np

import oracles

WORKLOADS = ("paper-map", "raster", "aloha", "relay")

# Criterion-10 relay setup: r_lambda of the unit square lattice at
# beta = 1, alpha = 4 (traced at extent 60), and L = 10 r_lambda.
RELAY_R_LAMBDA = 0.5472006603783612
RELAY_HOPS = 10
# Slot budget of the relay runs.  A fixed budget makes every run do the
# same number of slots; running to the last delivery instead takes
# 2 400-4 800 slots depending on the seed.  By slot 1 500 about half the
# packets have arrived, enough for the relay-count check.
RELAY_SLOTS = 1500

# The README `simulate` example, run verbatim as an untimed probe.
README_SIMULATE = ["simulate", "--pattern", "square", "--d", "1", "--nu",
                   "100", "--beta", "1", "--distance", "5", "--slots",
                   "4000", "--packets", "8"]

ALOHA_ALPHAS = (3.0, 4.0, 5.0, 6.0, 8.0)
ALOHA_BETAS = (0.1, 1.0, 10.0, 100.0)
MC_CELLS = [[1.0, 0.2], [1.0, 0.5], [10.0, 0.2], [10.0, 0.5]]

# Job types whose tiny form is re-run twice after timing to check that
# identical inputs give byte-identical outputs.
PROBE_TYPES = {
    "paper-map": ("trace",),
    "raster": ("field",),
    "aloha": ("sample_cells", "mc_exponential"),
    "relay": ("simulate",),
}


def _num(x) -> str:
    return repr(float(x))


def _cli(jid, jtype, argv, ext="csv", ops=1, **check):
    return {"id": jid, "type": jtype, "kind": "cli", "argv": argv,
            "out": f"{jid}.{ext}", "ops": ops, **check}


def _call(jid, jtype, fn, args, ops=1, **check):
    return {"id": jid, "type": jtype, "kind": "call", "fn": fn, "args": args,
            "out": f"{jid}.json", "ops": ops, **check}


def _paper_map(seed, tiny):
    extent = 300.0 if tiny else 5000.0
    direction = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    jobs = [_cli(f"grid-{kind}", "grid_range",
                 ["grid-range", "--pattern", kind, "--beta", "10",
                  "--alpha", "4", "--extent", _num(extent)],
                 ref=[kind, 10.0, 4.0, extent])
            for kind in ("triangular", "square")]
    jobs.append(_cli("trace-square", "trace",
                     ["trace", "--pattern", "square", "--beta", "1",
                      "--alpha", "100", "--d", "25", "--extent", _num(extent),
                      "--direction", _num(direction)],
                     ref=["square", 1.0, 100.0, extent]))
    return jobs


def _raster(seed, tiny):
    extent, n = (3.0, 10) if tiny else (40.0, 100)
    jobs = [
        _cli("membership", "membership",
             ["grid-range", "--pattern", "square", "--d", "1", "--extent",
              _num(extent), "--beta", "1e-5", "--alpha", "4"],
             ref=extent),
        _cli("field-poisson", "field",
             ["field", "--pattern", "poisson", "--lam", "1", "--alpha", "2.5",
              "--n", "20" if tiny else "200", "--extent", "3" if tiny else "10",
              "--seed", str(seed)]),
        _cli("fading-curve", "fading_curve",
             ["fading-curve", "--pattern", "square", "--d", "1", "--extent",
              _num(extent), "--n", str(n)], ops=n),
    ]
    for alpha in ((4.0,) if tiny else (3.0, 4.0)):
        jobs.append(_cli(f"asympt-beta-{alpha:g}", "asympt_beta",
                         ["asympt-beta", "--alpha", _num(alpha)], ops=5,
                         alpha=alpha))
    jobs.append(_cli("asympt-alpha", "asympt_alpha", ["asympt-alpha"], ops=5))
    return jobs


def _aloha(seed, tiny):
    alphas = (4.0, 6.0) if tiny else ALOHA_ALPHAS
    betas = (1.0, 100.0) if tiny else ALOHA_BETAS
    fadings = (("none", 1.0),) if tiny else (("none", 1.0), ("log-uniform", 1.0))
    rows = 10 if tiny else 75
    trials = 2000 if tiny else 40_000
    jobs = []
    for label, spread in fadings:
        spec = "none" if label == "none" else f"{label}:{spread:g}"
        for alpha in alphas:
            for beta in betas:
                jobs.append(_cli(f"opt-a{alpha:g}-b{beta:g}-{label}", "optimize",
                                 ["optimize", "--alpha", _num(alpha), "--beta",
                                  _num(beta), "--fading", spec, "--format",
                                  "json"], ext="json"))
    if not tiny:
        # The README sweep.
        jobs.append(_cli("opt-sweep-alpha", "optimize_sweep",
                         ["optimize", "--beta", "10", "--sweep", "alpha",
                          "--values", "3,4,5,6"], ops=4))
    # One r grid per alpha, out to the optimizer's bracket (p < 1e-6) of
    # the smallest beta, so every beta's curve spans its whole support.
    r_hi = {a: oracles.upper_bracket(min(betas), a) for a in alphas}
    for alpha in alphas:
        for beta in betas:
            jobs.append(_cli(f"curve-a{alpha:g}-b{beta:g}", "aloha_curve",
                             ["aloha-curve", "--alpha", _num(alpha), "--beta",
                              _num(beta), "--rmin", "0.02", "--rmax",
                              _num(r_hi[alpha]), "--n", str(rows)], ops=rows))
    # The README curve: no-fading and log-uniform rows.
    readme_rows = rows if tiny else 100
    jobs.append(_cli("curve-readme", "aloha_curve",
                     ["aloha-curve", "--beta", "1", "--alpha", "4", "--fading",
                      "log-uniform:1", "--n", str(readme_rows)],
                     ops=2 * readme_rows))
    exp_rs = 5 if tiny else 25
    for alpha in alphas:
        rs = np.linspace(0.02, r_hi[alpha], exp_rs).tolist()
        jobs.append(_call(f"exp-a{alpha:g}", "exp_rows", "exp_rows",
                          {"alpha": alpha, "betas": list(betas), "rs": rs},
                          ops=len(betas) * exp_rs))
    k = 0
    for fading, spread in (("none", 1.0), ("log_uniform", 1.0)):
        for alpha in ((4.0,) if tiny else (3.0, 4.0, 6.0)):
            jobs.append(_call(f"mc-a{alpha:g}-{fading}", "sample_cells",
                              "sample_cells",
                              {"alpha": alpha, "fading": fading,
                               "spread": spread, "trials": trials,
                               "seed": [seed, k], "cells": MC_CELLS},
                              ops=len(MC_CELLS)))
            k += 1
    for alpha, r, beta in ((3.0, 0.2, 1.0), (4.0, 0.3, 0.1)):
        jobs.append(_call(f"mcexp-a{alpha:g}", "mc_exponential",
                          "mc_exponential",
                          {"r": r, "beta": beta, "alpha": alpha,
                           "trials": trials, "seed": [seed, k]}))
        k += 1
    return jobs


def _relay(seed, tiny):
    if tiny:
        distance, extent, packets, slots = 2.0, 8.0, 4, 300
    else:
        distance = RELAY_HOPS * RELAY_R_LAMBDA
        extent, packets, slots = distance / 2.0 + 12.0, 24, RELAY_SLOTS
    base = ["simulate", "--d", "1", "--nu", "100", "--beta", "1", "--alpha",
            "4", "--distance", _num(distance), "--extent", _num(extent),
            "--slots", str(slots), "--packets", str(packets),
            "--seed", str(seed)]
    return [
        _cli("sim-lattice", "simulate", base + ["--pattern", "square"],
             lam=1.0, predicted_relays=None if tiny else RELAY_HOPS),
        _cli("sim-aloha", "simulate", base + ["--scheme", "aloha", "--lam", "1"],
             lam=1.0, predicted_relays=None),
    ]


_BUILDERS = {"paper-map": _paper_map, "raster": _raster, "aloha": _aloha,
             "relay": _relay}


def jobs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The workload's fixed job list for this seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](seed, size == "tiny")


def plan(workload: str, seed: int, seconds: float, trace: bool,
         size: str = "full") -> dict:
    """Everything the worker process needs for one run."""
    tiny = jobs(workload, seed, "tiny")
    seen, warmup = set(), []
    for job in tiny:
        if job["type"] not in seen:
            seen.add(job["type"])
            warmup.append(job)
    probes = [dict(job, id=f"probe-{job['id']}") for job in tiny
              if job["type"] in PROBE_TYPES[workload]]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "jobs": jobs(workload, seed, size),
            "warmup": warmup, "probes": probes}
