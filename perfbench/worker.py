"""The workload process: runs one plan's jobs in a closed loop.

    python3 perfbench/worker.py <plan.json> <work dir>          timed run
    python3 perfbench/worker.py <plan.json> <work dir> --setup  set-up only

One process runs one job after another.  After an untimed warm-up (one
tiny job per job type) it repeats the whole job list in passes until the
next pass would end past the plan's ``seconds``; a run always completes at
least one pass.  Each pass writes into its own directory; outputs are
hashed after the timed passes.  The tiny determinism probes then run twice
each.  With ``trace`` the layer wrappers are installed for the timed
passes only; without it the speed probe (below) samples the machine's
speed during the timed passes.

The thread environment (BLAS limited to one thread) is set by the parent
before this process starts.  Results go to <work dir>/result.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

from macgeo import aloha, cli
from macgeo.propagation import ChannelModel, sample_fading


def sample_cells(alpha, fading, spread, trials, seed, cells):
    """Monte Carlo success counts from one interference sample: a cell
    (beta, r) succeeds when W < r^-alpha / beta times the signal fading."""
    rng = np.random.default_rng(seed)
    w = aloha.sample_w(1.0, alpha, trials, rng, fading=fading, spread=spread)
    f_sig = (np.ones(trials) if fading == "none"
             else sample_fading(fading, rng, trials, spread))
    hits = [int(np.count_nonzero(w < r ** -alpha / beta * f_sig))
            for beta, r in cells]
    return {"trials": trials, "cells": [[b, r, h] for (b, r), h in
                                        zip(cells, hits)]}


def mc_exponential(r, beta, alpha, trials, seed):
    """mc_aloha_prob under exponential fading on every link."""
    model = ChannelModel(alpha=alpha, beta=beta, fading="exponential")
    p, se = aloha.mc_aloha_prob(r, 1.0, model, trials, seed=seed)
    return {"p": p, "se": se, "trials": trials}


def exp_rows(alpha, betas, rs):
    """The exponential-fading closed form over a (beta, r) grid."""
    return {"rows": [[b, r, aloha.aloha_prob_exponential(r, 1.0, b, alpha)]
                     for b in betas for r in rs]}


CALLS = {"sample_cells": sample_cells, "mc_exponential": mc_exponential,
         "exp_rows": exp_rows}


# A shared host changes this process's speed by tens of percent from one
# second to the next and from one minute to the next, for array and
# interpreter work alike.  The speed probe runs a fixed reference
# computation every REF_INTERVAL_S of wall time during the timed passes, so
# its time is sampled at the same moments the jobs run; a job's time
# divided by the reference time sampled during that job no longer carries
# the host's drift.  The probe's own time is taken out of the job it
# interrupted.
REF_INTERVAL_S = 0.25
JOB_REF_MIN = 3
_REF_X = np.linspace(1.0, 2.0, 160_000)


def reference_unit():
    """A fixed mix of array arithmetic and interpreter work (~7 ms on a
    2.1 GHz Xeon core); its result is unused."""
    s = 0.0
    for _ in range(3):
        s += float(np.sum((_REF_X * _REF_X + 1.0) ** -1.5))
    acc = 0
    for k in range(60_000):
        acc += k % 7
    return s + acc


class SpeedProbe:
    """Runs ``reference_unit`` from a SIGALRM handler every ``interval``
    seconds while started.  ``samples`` holds each run's duration and
    ``spent`` the total time spent in the handler."""

    def __init__(self, interval=REF_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            reference_unit()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def start(self):
        for _ in range(3):
            reference_unit()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_job(job, out_dir, probe=None):
    """Run one job; returns (seconds, exit code, error text or None).  The
    clock covers the macgeo call only; writing a call job's JSON and the
    time ``probe`` spent interrupting it do not count."""
    os.environ["MACGEO_OUTDIR"] = out_dir
    sink = io.StringIO()
    value, rc, err = None, 0, None
    held = probe.spent if probe else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if job["kind"] == "cli":
                rc = cli.main(job["argv"] + ["--out", job["out"]])
            else:
                value = CALLS[job["fn"]](**job["args"])
    except (Exception, SystemExit) as exc:  # a failed job must not end the run
        err = f"{type(exc).__name__}: {exc}"
        rc = None
    elapsed = time.perf_counter() - t0 - ((probe.spent - held) if probe else 0.0)
    if value is not None:
        with open(os.path.join(out_dir, job["out"]), "w") as fh:
            json.dump(value, fh, sort_keys=True)
    if rc not in (0, None) and err is None:
        err = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
    return elapsed, rc, err


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_jobs(jobs, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return {job["id"]: run_job(job, out_dir) for job in jobs}


def digest(out_dir, job):
    """(SHA-256, byte count) over the job's output file and its sidecars."""
    h, size = hashlib.sha256(), 0
    stem = job["out"]
    for name in sorted(os.listdir(out_dir)):
        if name == stem or name.startswith(stem + "."):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            h.update(name.encode())
            h.update(data)
            size += len(data)
    return h.hexdigest(), size


def main(argv):
    plan_path, work = argv[0], argv[1]
    with open(plan_path) as fh:
        plan = json.load(fh)
    run_jobs(plan["warmup"], os.path.join(work, "warmup"))
    if "--setup" in argv:
        return 0

    tracer = probe = None
    if plan["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        probe = SpeedProbe()
        probe.start()
    passes = []
    start = time.perf_counter()
    try:
        while True:
            out_dir = os.path.join(work, f"pass{len(passes)}")
            os.makedirs(out_dir)
            results, job_ref = {}, {}
            for job in plan["jobs"]:
                first = len(probe.samples) if probe else 0
                results[job["id"]] = run_job(job, out_dir, probe)
                job_ref[job["id"]] = probe.samples[first:] if probe else []
            passes.append({"jobs": results, "dir": out_dir, "job_ref": job_ref})
            elapsed = time.perf_counter() - start
            mean = elapsed / len(passes)
            if elapsed + mean > plan["seconds"]:
                break
    finally:
        if tracer is not None:
            tracer.restore()
        if probe is not None:
            probe.stop()
    if probe is not None:
        # A job long enough to hold JOB_REF_MIN samples is scaled by its
        # own; a shorter one by its pass's mean, and a pass too short for
        # the timer by the run's.  A run too short for any sample measures
        # the reference right after.
        run_ref = probe.samples or [_timed(reference_unit) for _ in range(5)]
    for rec in passes:
        rec["wall"] = sum(t for t, _, _ in rec["jobs"].values())
        job_ref = rec.pop("job_ref")
        if probe is not None:
            in_pass = [x for s in job_ref.values() for x in s]
            rec["ref_s"] = statistics.fmean(in_pass or run_ref)
            rec["job_ref_s"] = {
                jid: statistics.fmean(s) if len(s) >= JOB_REF_MIN
                else rec["ref_s"] for jid, s in job_ref.items()}

    for rec in passes:
        outs = {job["id"]: digest(rec["dir"], job) for job in plan["jobs"]}
        rec["hashes"] = {jid: out[0] for jid, out in outs.items()}
        rec["cli_bytes"] = sum(outs[job["id"]][1] for job in plan["jobs"]
                               if job["kind"] == "cli")
    probes = {}
    for tag in ("a", "b"):
        out_dir = os.path.join(work, f"probe-{tag}")
        res = run_jobs(plan["probes"], out_dir)
        for job in plan["probes"]:
            probes.setdefault(job["id"], []).append(
                [res[job["id"]][2], digest(out_dir, job)[0]])

    result = {
        "passes": passes,
        "probes": probes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "scipy": __import__("scipy").__version__},
    }
    if tracer is not None:
        import tracer as tracing
        m = tracer.metrics(len(passes), tracing.span_cost())
        m["traced.wall_s"] = sum(p["wall"] for p in passes) / len(passes)
        m["cli.bytes_written"] = (sum(p["cli_bytes"] for p in passes)
                                  / len(passes))
        result["per_layer"] = m
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
