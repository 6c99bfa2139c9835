"""macgeo benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (``src/macgeo`` next to this
directory); nothing needs installing.  The run

1. times three fresh-process set-ups (import macgeo plus one tiny job per
   job type) and keeps the median as ``setup_s``;
2. starts one worker process, BLAS limited to one thread, that runs the
   workload's fixed job list in a closed loop for about ``--seconds``
   (always at least one whole pass), while a fixed reference computation
   samples the machine's speed every quarter second -- see worker.py; the
   gated times are job times over that reference time;
3. checks the first pass's outputs against independent oracles
   (checks.py), every later pass and the determinism probes against the
   first pass's hashes, and on ``relay`` runs the README ``simulate``
   example under a memory and time limit;
4. prints a report, then one JSON line: ``correct``, ``attempted`` and
   ``failed`` operations, and the metrics -- the end-to-end ones with
   ``--trace 0``, the per-layer ones with ``--trace 1``.

Work files live under perfbench/_work/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 3
# Whole run must end within 180 s; the worker gets what is left after
# set-up, minus room for the checks.
RUN_LIMIT_S = 170.0
CHECK_RESERVE_S = 25.0
# The README simulate probe: address-space cap and wall-clock limit.
PROBE_AS_BYTES = 2 << 30
PROBE_TIMEOUT_S = 60.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, timeout, cwd=None, preexec_fn=None):
    try:
        return subprocess.run(argv, env=child_env(), cwd=cwd, timeout=timeout,
                              capture_output=True, text=True,
                              preexec_fn=preexec_fn)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} exceeded {timeout:.0f} s") from exc


def provenance():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "macgeo").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": h.hexdigest(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg(),
            "thread_env": THREAD_ENV}


def measure_setup(plan_path, work):
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, str(HERE / "worker.py"),
                          str(plan_path), str(work / f"setup{k}"), "--setup"],
                         timeout=60.0)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return statistics.median(times)


def readme_simulate_probe(work):
    """The README example under RLIMIT_AS: pass only on exit 3 without a
    traceback."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_AS_BYTES, PROBE_AS_BYTES))

    out = work / "readme"
    out.mkdir()
    argv = [sys.executable, "-m", "macgeo.cli"] + workloads.README_SIMULATE
    try:
        proc = subprocess.run(argv, env=dict(child_env(), MACGEO_OUTDIR=str(out)),
                              cwd=out, timeout=PROBE_TIMEOUT_S,
                              capture_output=True, text=True, preexec_fn=limit)
    except subprocess.TimeoutExpired:
        return ("readme-simulate", False, "timed out", "D4")
    ok = proc.returncode == 3 and "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    return ("readme-simulate", ok, f"exit {proc.returncode}: {last[0][:200]}",
            None if ok else "D4")


def operations(plan, result, work):
    """Every operation of the run as (job, label, ok, detail, defect)."""
    import checks

    ops = []
    passes = result["passes"]
    first = passes[0]
    for job in plan["jobs"]:
        jid = job["id"]
        _, rc, err = first["jobs"][jid]
        if err is not None:
            job_ops = [(f"op{k}", False, err, None) for k in range(job["ops"])]
        else:
            job_ops = checks.check(job, first["dir"])
        for rec in passes[1:]:
            if rec["jobs"][jid][2] is not None or rec["hashes"][jid] != first["hashes"][jid]:
                # A later pass of the same inputs changed the output.
                job_ops = [(label, False, "output differs between passes", None)
                           for label, *_ in job_ops]
                break
        ops += [(jid,) + op for op in job_ops]
    for jid, ((err_a, h_a), (err_b, h_b)) in result["probes"].items():
        ok = err_a is None and err_b is None and h_a == h_b
        ops.append((jid, "determinism", ok,
                    err_a or err_b or ("" if ok else "outputs differ"), None))
    if plan["workload"] == "relay":
        ops.append(("readme-simulate",) + readme_simulate_probe(work))
    return ops


def pass_times(rec, unit="s"):
    """One pass's job times by job id: in seconds, or with ``unit="ref"``
    each divided by the reference time sampled during it (worker.py)."""
    return {jid: t / (rec["job_ref_s"][jid] if unit == "ref" else 1.0)
            for jid, (t, _, _) in rec["jobs"].items()}


def job_times(result, unit="s"):
    """Each job's time in every pass, by job id."""
    times = {}
    for rec in result["passes"]:
        for jid, t in pass_times(rec, unit).items():
            times.setdefault(jid, []).append(t)
    return times


def end_to_end(result, setup_s, ops):
    passes = result["passes"]
    per_job = job_times(result, "ref")
    failed = sum(1 for op in ops if not op[2])
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(sum(pass_times(p, "ref").values())
                                       for p in passes), "ref"),
        "job_max_ref": (max(statistics.median(ts) for ts in per_job.values()),
                        "ref"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
        "ok_frac": (1.0 - failed / len(ops), "ratio"),
    }


def seconds_report(result):
    """The same times in plain seconds, for the report only: on a shared
    host they swing with its load (see README)."""
    passes = result["passes"]
    per_job = job_times(result)
    if "ref_s" not in passes[0]:
        return {}
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_max_s": max(statistics.median(ts) for ts in per_job.values()),
        "job_p50_s": statistics.median(t for ts in per_job.values() for t in ts),
        "ref_ms": 1e3 * statistics.fmean(p["ref_s"] for p in passes),
    }


def per_layer(result):
    import tracer

    got = result["per_layer"]
    return {name: (got[name], unit) for name, unit in tracer.UNITS.items()}


def run(args, keep=False):
    if not (ROOT / "src" / "macgeo" / "__init__.py").is_file():
        raise BenchError(f"no macgeo sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    prov = provenance()
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.plan(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.size)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        setup_s = measure_setup(plan_path, work)
        budget = RUN_LIMIT_S - CHECK_RESERVE_S - (time.perf_counter() - started)
        proc = run_child([sys.executable, str(HERE / "worker.py"),
                          str(plan_path), str(work / "run")], timeout=budget)
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        result = json.loads((work / "run" / "result.json").read_text())
        ops = operations(plan, result, work)
        if args.trace:
            metrics = per_layer(result)
        else:
            metrics = end_to_end(result, setup_s, ops)
        report = {"provenance": {**prov, **result["versions"]},
                  "passes": len(result["passes"]),
                  "jobs_per_pass": len(plan["jobs"]),
                  "job_s": {jid: statistics.median(ts)
                            for jid, ts in job_times(result).items()},
                  "seconds": seconds_report(result),
                  "failures": [op for op in ops if not op[2]]}
        return plan, result, ops, metrics, report
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


def print_report(args, ops, metrics, report):
    import checks

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {report['passes']} x {report['jobs_per_pass']} jobs")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, value in report["seconds"].items():
        print(f"{name} {value:.6g} (not gated)")
    slowest = sorted(report["job_s"].items(), key=lambda kv: -kv[1])[:8]
    print("slowest jobs (median s over passes): "
          + ", ".join(f"{jid} {t:.4g}" for jid, t in slowest))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    fails = report["failures"]
    print(f"operations {len(ops)}, failed {len(fails)}")
    for jid, label, _, detail, defect in fails[:40]:
        tag = f"[{defect}] " if defect else "[UNEXPECTED] "
        print(f"  FAIL {tag}{jid} {label}: {detail}")
    for defect in sorted({f[4] for f in fails if f[4]}):
        print(f"  {defect}: {checks.KNOWN_DEFECTS[defect]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Toy job sizes, for the self-test.
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so the running child is killed and waited
    # for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _, _, ops, metrics, report = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_report(args, ops, metrics, report)
    failed = sum(1 for op in ops if not op[2])
    correct = all(op[2] or op[4] for op in ops)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
