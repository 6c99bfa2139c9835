"""Self-test of the benchmark at toy sizes (under two minutes).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload
prints every named metric with its unit in both trace modes, that an
injected wrong value, a crashed job and a changed repeat each count as
failed operations, that the speed probe samples only while started and
accounts for its own time, and that without the program's sources the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert NAME.match(w["name"]) and w["name"] not in names
        names.add(w["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and m["name"] not in names, m
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.add(m["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25, m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    """Every metric with its unit; traced self times cover the traced wall
    time up to the tracing overhead; counts repeat exactly."""
    for workload in workloads.WORKLOADS:
        traced = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            res = run_tiny(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert res["correct"], (workload, trace, res)
            assert res["attempted"] >= 1 and 0 <= res["failed"] < res["attempted"]
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                gap = m["traced.wall_s"] - m["traced.self_total_s"]
                assert -1e-6 <= gap <= m["traced.overhead_s"] + 0.05 * m["traced.wall_s"], m
                traced.append({k: v for k, v in m.items()
                               if tracer.UNITS[k] == "count"})
            print(f"ok   {workload} trace {trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")
        assert traced[0] == traced[1], (workload, traced)
        print(f"ok   {workload}: traced counts repeat exactly")


def check_injection():
    args = argparse.Namespace(workload="raster", seed=3, seconds=1.0, trace=0,
                              size="tiny")
    plan, result, ops, _, _ = run.run(args, keep=True)
    work = Path(result["passes"][0]["dir"]).parent.parent
    try:
        base = sum(1 for op in ops if not op[2])
        assert base == 0 and len(result["passes"]) >= 2, ops
        assert all(rec["ref_s"] > 0 for rec in result["passes"]), result

        # A wrong value in one output row.
        out = Path(result["passes"][0]["dir"]) / "asympt-alpha.csv"
        lines = out.read_text().splitlines()
        kind, ratio, value = lines[1].split(",")
        lines[1] = f"{kind},{ratio},{float(value) * 1.001!r}"
        out.write_text("\n".join(lines) + "\n")
        ops = run.operations(plan, result, work)
        bad = [op for op in ops if not op[2]]
        assert len(bad) == 1 and bad[0][0] == "asympt-alpha" and bad[0][4] is None, bad
        print("ok   injected wrong value: 1 unexpected failure")

        # A job that raised fails all of its operations.
        t, _, _ = result["passes"][0]["jobs"]["fading-curve"]
        result["passes"][0]["jobs"]["fading-curve"] = [t, None, "RuntimeError: x"]
        ops = run.operations(plan, result, work)
        bad = [op for op in ops if not op[2] and op[0] == "fading-curve"]
        assert len(bad) == 10, bad
        print("ok   crashed job: all 10 of its operations failed")

        # A later pass whose output hash differs.
        result["passes"][1]["hashes"]["membership"] = "0" * 64
        ops = run.operations(plan, result, work)
        bad = [op for op in ops if not op[2] and op[0] == "membership"]
        assert len(bad) == 1 and "differs" in bad[0][3], bad
        print("ok   changed repeat: counted as a failure")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_speed_probe():
    """The probe samples while started, not after, and accounts for the
    time it takes out of the work it interrupts."""
    import worker

    probe = worker.SpeedProbe(interval=0.05)
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
    finally:
        probe.stop()
    n = len(probe.samples)
    time.sleep(0.2)
    assert n >= 4 and len(probe.samples) == n, probe.samples
    assert sum(probe.samples) <= probe.spent < 0.6, probe.spent
    print(f"ok   speed probe: {n} samples, {probe.spent:.3f} s accounted")


def check_without_program():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "aloha",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc
        print("ok   without sources: exit", proc.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok   BENCHMARK.json format")
    check_injection()
    check_speed_probe()
    check_without_program()
    check_metrics(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
