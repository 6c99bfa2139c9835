import argparse
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import macgeo
from macgeo.aloha import aloha_prob_exponential
from macgeo.cli import (_COMMANDS, EXIT_BAD_PARAM, EXIT_IO, EXIT_NUMERIC,
                        EXIT_OK, RunConfig, _build_parser, main, parse_fading,
                        run, sweep)
from macgeo.propagation import raster_field
from macgeo.reception import origin_index
from macgeo.spatial import GridSpec, gen_grid


def invoke(args, tmp_path, monkeypatch, out_name=None):
    monkeypatch.chdir(tmp_path)
    argv = list(args)
    if out_name is not None:
        argv += ["--out", out_name]
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_parse_fading():
    assert parse_fading("none") == ("none", 1.0)
    assert parse_fading("exponential") == ("exponential", 1.0)
    assert parse_fading("log-uniform:0.5") == ("log_uniform", 0.5)
    assert parse_fading("log-uniform") == ("log_uniform", 1.0)
    with pytest.raises(ValueError):
        parse_fading("rician")


@pytest.mark.parametrize("spread", ["0", "-1", "inf", "nan"])
def test_bad_spread_exits_3(tmp_path, monkeypatch, spread):
    # The spread is checked where the command builds its channel model.
    for command in ("optimize", "aloha-curve"):
        argv = [command, "--fading", f"log-uniform:{spread}"]
        assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["log-uniformX", "log-uniform:1:7"])
def test_fading_typo_exits_3(tmp_path, monkeypatch, capsys, spec):
    # Read loosely, both would run as log-uniform:1 under that label.
    argv = ["aloha-curve", "--fading", spec, "--n", "5"]
    assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    assert "invalid parameter" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_asympt_beta_command(tmp_path, monkeypatch):
    rc = invoke(["asympt-beta", "--alpha", "4"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "asympt_beta.csv")
    assert header == ["pattern", "k1_over_k2", "value"]
    vals = {(r[0], float(r[1])): float(r[2]) for r in rows}
    assert vals[("square", 1.0)] == pytest.approx(0.638232, abs=1e-3)
    assert vals[("triangular", 1.0)] == pytest.approx(0.644845, abs=1e-3)


def test_asympt_alpha_command(tmp_path, monkeypatch):
    rc = invoke(["asympt-alpha"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "asympt_alpha.csv")
    assert header == ["pattern", "k1_over_k2", "value"]
    vals = {r[0]: float(r[2]) for r in rows if r[0] != "rectangular"}
    assert vals["square"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_optimize_json_reproducible(tmp_path, monkeypatch):
    args = ["optimize", "--beta", "10", "--alpha", "4", "--format", "json"]
    assert invoke(args, tmp_path, monkeypatch, "a.json") == EXIT_OK
    assert invoke(args, tmp_path, monkeypatch, "b.json") == EXIT_OK
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    rep = json.loads(a)
    assert set(rep) == {"beta", "alpha", "fading", "r1", "p_at_opt", "rp",
                        "inv_rp"}
    assert rep["r1"] == pytest.approx(0.1905, abs=1e-3)


def test_grid_range_command(tmp_path, monkeypatch):
    rc = invoke(["grid-range", "--pattern", "triangular", "--d", "1",
                 "--extent", "60", "--beta", "10", "--alpha", "4"],
                tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "grid_range.csv")
    assert header == ["pattern", "k1_over_k2", "beta", "alpha", "r_lambda",
                      "r1", "method"]
    assert rows[0][6] == "trace"
    assert float(rows[0][5]) == pytest.approx(0.334, abs=5e-3)


def test_grid_range_low_beta_traces_outer_boundary(tmp_path, monkeypatch):
    rc = invoke(["grid-range", "--pattern", "square", "--d", "1",
                 "--extent", "40", "--beta", "0.05", "--alpha", "4"],
                tmp_path, monkeypatch)
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "grid_range.csv")
    assert rows[0][6] == "trace"
    assert float(rows[0][5]) > 0.8  # reception reaches past the first ring


def test_grid_range_membership_fallback(tmp_path, monkeypatch):
    # beta so small that the SIR never drops below it inside the window:
    # the tracer reports an unbounded region and the raster takes over.
    rc = invoke(["grid-range", "--pattern", "square", "--d", "1",
                 "--extent", "40", "--beta", "1e-5", "--alpha", "4"],
                tmp_path, monkeypatch)
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "grid_range.csv")
    assert rows[0][6] == "membership"
    # The benchmark's pinned r1, at the CSV's precision.
    assert rows[0][5] == f"{7.621982554136137:.12g}"


def test_import_loads_no_scipy(tmp_path):
    # The package imports no scipy; this names a command that would show
    # it should scipy come back: the log-uniform ALOHA path, E1 and all.
    src = os.path.dirname(os.path.dirname(macgeo.__file__))
    code = ("import sys, macgeo, macgeo.cli; "
            "macgeo.cli.main(['aloha-curve', '--fading', 'log-uniform:1', "
            "'--n', '5', '--out', 'c.csv']); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {k: v for k, v in os.environ.items() if k != "MACGEO_OUTDIR"}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**env, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "[]"
    _, rows = read_csv(tmp_path / "c.csv")
    assert [r[3] for r in rows] == ["none"] * 5 + ["log-uniform:1"] * 5


def test_simulate_loads_no_scipy_spatial(tmp_path):
    # The package imports no scipy; this names a command that would show
    # it should scipy.spatial come back: simulate, whose neighbour queries
    # run on spatial.CellIndex in place of a k-d tree.
    src = os.path.dirname(os.path.dirname(macgeo.__file__))
    code = ("import sys, macgeo.cli; "
            "rc = macgeo.cli.main(['simulate', '--nu', '100', '--extent', '4', "
            "'--distance', '1', '--slots', '50', '--packets', '2', "
            "'--out', 's.csv']); "
            "print(rc, 'scipy.spatial' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if k != "MACGEO_OUTDIR"}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**env, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.splitlines()[-1] == f"{EXIT_OK} False"
    assert (tmp_path / "s.csv").stat().st_size > 0


def test_sweep_beta_monotone(tmp_path, monkeypatch):
    rc = invoke(["grid-range", "--pattern", "triangular", "--d", "1",
                 "--extent", "60", "--alpha", "4",
                 "--sweep", "beta", "--values", "2,5,10,20,50"],
                tmp_path, monkeypatch)
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "grid_range.csv")
    r1 = [float(r[5]) for r in rows]
    assert len(r1) == 5
    assert all(b < a for a, b in zip(r1, r1[1:]))


def test_sweep_alpha_optimize_increasing(tmp_path, monkeypatch):
    rc = invoke(["optimize", "--beta", "10",
                 "--sweep", "alpha", "--values", "3,4,5,6"],
                tmp_path, monkeypatch, "opt.csv")
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "opt.csv")
    r1 = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(r1, r1[1:]))


def test_sweep_empty_noop(tmp_path, monkeypatch):
    rc = invoke(["grid-range", "--sweep", "beta", "--values", ""],
                tmp_path, monkeypatch)
    assert rc == EXIT_OK
    assert not (tmp_path / "grid_range.csv").exists()


def test_sweep_rejects_unknown_axis(tmp_path, monkeypatch):
    rc = invoke(["grid-range", "--sweep", "pattern", "--values", "1,2"],
                tmp_path, monkeypatch)
    assert rc == EXIT_BAD_PARAM


def test_compare_normalization(tmp_path, monkeypatch):
    rc = invoke(["compare", "--beta", "10", "--alpha", "4", "--d", "1",
                 "--extent", "60"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "compare.csv")
    assert header == ["scheme", "r1", "inv_rp", "inv_rp_normalized"]
    table = {r[0]: [float(x) for x in r[1:]] for r in rows}
    assert table["triangular"][2] == 1.0
    assert table["aloha"][2] > 2.0  # several times the triangular cost
    assert set(table) == {"triangular", "square", "rectangular(1:2)",
                          "hexagonal", "aloha"}


def test_optimize_exponential_fading_closed_form(tmp_path, monkeypatch):
    # Under exponential fading p = exp(-K r^2), so r p peaks at
    # r = (2 K)^(-1/2), where p = e^(-1/2); the optimizer returns that
    # closed form, to a few ulps.
    args = ["optimize", "--beta", "10", "--alpha", "4", "--fading",
            "exponential", "--format", "json"]
    assert invoke(args, tmp_path, monkeypatch) == EXIT_OK
    rep = json.loads((tmp_path / "optimize.json").read_text())
    g = 0.5
    want = ((2.0 * math.pi * math.gamma(1.0 - g) * math.gamma(1.0 + g))
            ** -0.5 * 10.0 ** -0.25)
    assert want == pytest.approx(0.1789988, abs=1e-7)
    assert rep["fading"] == "exponential"
    assert rep["p_at_opt"] == math.exp(-0.5)
    assert rep["r1"] == pytest.approx(want, rel=4 * 2.0 ** -52, abs=0.0)


def test_aloha_curve_exponential_rows(tmp_path, monkeypatch):
    rc = invoke(["aloha-curve", "--lam", "1", "--beta", "3", "--alpha", "4",
                 "--fading", "exponential", "--rmin", "0.05", "--rmax", "0.8",
                 "--n", "9"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "aloha_curve.csv")
    exp_rows = [r for r in rows if r[3] == "exponential"]
    assert len(exp_rows) == 9 and len(rows) == 18
    for r, p, rp, _ in exp_rows:
        want = aloha_prob_exponential(float(r), 1.0, 3.0, 4.0)
        assert float(p) == pytest.approx(want, rel=1e-11)
        assert float(rp) == pytest.approx(float(r) * want, rel=1e-11)


def test_aloha_curve(tmp_path, monkeypatch):
    rc = invoke(["aloha-curve", "--beta", "1", "--alpha", "4",
                 "--fading", "log-uniform:1", "--rmin", "0.05",
                 "--rmax", "0.8", "--n", "12"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "aloha_curve.csv")
    assert header == ["r", "p", "rp", "method"]
    methods = {r[3] for r in rows}
    assert methods == {"none", "log-uniform:1"}
    assert len(rows) == 24


def test_trace_command(tmp_path, monkeypatch):
    rc = invoke(["trace", "--pattern", "square", "--d", "1", "--extent",
                 "40", "--beta", "10", "--alpha", "4"],
                tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "trace.csv")
    assert header == ["x", "y"] and len(rows) > 100
    summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
    assert summary["closed"] is True
    assert summary["r1"] == pytest.approx(0.3336, abs=2e-3)


def test_fading_curve_command(tmp_path, monkeypatch):
    rc = invoke(["fading-curve", "--pattern", "square", "--d", "1",
                 "--extent", "40", "--beta", "1", "--alpha", "4",
                 "--n", "25"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "fading_curve.csv")
    assert header == ["r", "p_nofading", "p_fading"]
    p0 = [float(r[1]) for r in rows]
    p1 = [float(r[2]) for r in rows]
    assert set(p0) <= {0.0, 1.0}          # Heaviside column
    assert all(0.0 < p < 1.0 for p in p1)  # fading column strictly between
    assert p1[0] > 0.9 and p1[-1] < 0.2


def test_field_command(tmp_path, monkeypatch):
    rc = invoke(["field", "--pattern", "poisson", "--lam", "1",
                 "--extent", "10", "--alpha", "2.5", "--n", "16",
                 "--seed", "9"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "field.csv")
    assert header == ["x", "y", "value"]
    assert len(rows) == 256


def test_field_command_on_a_lattice(tmp_path, monkeypatch):
    rc = invoke(["field", "--pattern", "square", "--d", "1", "--extent", "5",
                 "--n", "16", "--quantity", "sir"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "field.csv")
    ps = gen_grid(GridSpec("square", 1.0), 5.0)
    xs, ys, vals = raster_field(ps, 4.0, 5.0, 16, quantity="sir",
                                i=origin_index(ps))
    want = [[f"{v:.12g}" for v in (x, y, vals[iy, ix])]
            for iy, y in enumerate(ys) for ix, x in enumerate(xs)]
    assert rows == want


@pytest.mark.parametrize("argv, want", [
    (["--pattern", "poisson", "--lam", "1", "--alpha", "2.5", "--n", "3",
      "--extent", "3", "--seed", "1"],
     "x,y,value\n"
     "-2,-2,11.3667655686\n0,-2,28.1010000341\n2,-2,6.96696906657\n"
     "-2,0,138.182424559\n0,0,6.27192934006\n2,0,828.850933227\n"
     "-2,2,181.322255885\n0,2,16.651196988\n2,2,55.4247654722\n"),
    (["--pattern", "square", "--d", "1", "--n", "2", "--extent", "4",
      "--window", "1.5", "--quantity", "sir"],
     "x,y,value\n"
     "-0.75,-0.75,0.0110670217573\n0.75,-0.75,0.0110670217573\n"
     "-0.75,0.75,0.0110670217573\n0.75,0.75,0.0110670217573\n"),
], ids=["poisson-w", "square-sir"])
def test_field_csv_bytes_pinned(tmp_path, monkeypatch, argv, want):
    # Rows run x fastest, then y; every number is %.12g.
    assert invoke(["field", *argv], tmp_path, monkeypatch) == EXIT_OK
    assert (tmp_path / "field.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("flag, value", [
    ("--n", "0"), ("--window", "nan"), ("--window", "-2"),
    ("--window", "0")])
def test_field_refuses_a_raster_it_cannot_build(tmp_path, monkeypatch, capsys,
                                                flag, value):
    argv = ["field", "--pattern", "poisson", "--extent", "3", flag, value]
    assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    assert "invalid parameter" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_trace_on_an_exclusion_hole_exits_5(tmp_path, monkeypatch, capsys):
    # The start ray's first crossing bounds the hole around the interferer
    # at (1, 0); that curve is not the probe's range.
    rc = invoke(["trace", "--pattern", "square", "--d", "1", "--extent", "20",
                 "--beta", "1e-5"], tmp_path, monkeypatch)
    assert rc == EXIT_NUMERIC
    assert "UnboundedReceptionError" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [("--direction", "nan"),
                                         ("--dt", "inf")])
def test_trace_refuses_a_non_finite_step_or_direction(tmp_path, monkeypatch,
                                                       capsys, flag, value):
    # Unrefused, a NaN direction reads as an unbounded region (exit 5) and
    # an infinite step walks into NaN vertices.
    argv = ["trace", "--pattern", "square", "--d", "1", "--extent", "20",
            "--beta", "10", flag, value]
    assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    assert "invalid parameter" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["grid-range", "--extent", "1e6"],
    ["field", "--pattern", "square", "--n", "50000"],
    ["aloha-curve", "--n", "10000000000000"],
    ["fading-curve", "--d", "1", "--extent", "5", "--n", "10000000000000"]])
def test_point_budget_exits_3_before_allocating(tmp_path, argv):
    # Under a 1 GiB address-space limit an allocation of the requested
    # size (tens of GiB) fails at once, so a missing budget check shows as
    # a MemoryError traceback (exit 1), not as a long run.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(macgeo.__file__))
    env = {k: v for k, v in os.environ.items() if k != "MACGEO_OUTDIR"}
    out = subprocess.run([sys.executable, "-m", "macgeo.cli", *argv],
                         capture_output=True, text=True, cwd=tmp_path,
                         preexec_fn=limit, timeout=60,
                         env={**env, "PYTHONPATH": src,
                              "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == EXIT_BAD_PARAM, out.stderr
    assert "exceed the budget" in out.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["aloha-curve", "--n", "0"],
    ["fading-curve", "--d", "1", "--extent", "5", "--n", "0"],
    ["aloha-curve", "--rmax", "inf"],
    ["aloha-curve", "--rmin", "nan"],
    ["aloha-curve", "--rmin", "0"],
    ["aloha-curve", "--rmax", "-1"]])
def test_curve_refuses_an_empty_or_unbounded_range(tmp_path, monkeypatch,
                                                   capsys, argv):
    # Unrefused, --n 0 wrote a header-only file and --rmax inf printed a
    # numpy RuntimeWarning from np.linspace before the library refused it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameter") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("lam", ["nan", "0", "-1", "inf"])
def test_simulate_refuses_a_bad_aloha_intensity(tmp_path, monkeypatch, capsys,
                                                lam):
    # Unrefused, nan thinned every slot to nothing and reported "delivered
    # 0.00%", and 0 raised a ZeroDivisionError from the candidate radius.
    argv = ["simulate", "--scheme", "aloha", "--lam", lam, "--nu", "100",
            "--extent", "4", "--slots", "20", "--packets", "1"]
    assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameter") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_simulate_command(tmp_path, monkeypatch):
    rc = invoke(["simulate", "--pattern", "square", "--d", "1", "--nu",
                 "100", "--extent", "6", "--beta", "1", "--alpha", "4",
                 "--slots", "2500", "--packets", "2", "--distance", "1.5",
                 "--seed", "71"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    header, _ = read_csv(tmp_path / "simulate.csv")
    assert header[:3] == ["packet_id", "slot", "hop"]
    summary = json.loads((tmp_path / "simulate.csv.summary.json").read_text())
    assert summary["delivery_fraction"] == 1.0


def test_config_file_with_flag_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"params": {"alpha": 4.0, "beta": 3.0}, "out": "from_file.json",
         "format": "json"}))
    rc = invoke(["optimize", "--config", str(cfg_path), "--beta", "10"],
                tmp_path, monkeypatch)
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "from_file.json").read_text())
    assert rep["beta"] == 10.0  # flag wins
    assert rep["alpha"] == 4.0  # file value survives


def test_outdir_env(tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("MACGEO_OUTDIR", str(outdir))
    rc = invoke(["asympt-alpha"], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    assert (outdir / "asympt_alpha.csv").exists()


def test_exit_codes(tmp_path, monkeypatch):
    assert invoke(["grid-range", "--pattern", "dodecagonal"],
                  tmp_path, monkeypatch) == EXIT_BAD_PARAM
    assert invoke(["optimize", "--beta", "-3"], tmp_path,
                  monkeypatch) == EXIT_BAD_PARAM
    assert invoke(["asympt-alpha"], tmp_path, monkeypatch,
                  "/nonexistent-dir/x.csv") == EXIT_IO
    for alpha in ("2", "nan", "inf"):
        assert invoke(["asympt-beta", "--alpha", alpha], tmp_path,
                      monkeypatch) == EXIT_BAD_PARAM
    for argv in (["no-such-command"], []):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in _COMMANDS)


@pytest.mark.parametrize("with_config", [False, True])
def test_one_parser_per_call(tmp_path, monkeypatch, with_config):
    # A call builds the parser of its own command only, and --config
    # loads into that same parser.
    built, options = [], []
    init, add = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_add(self, *args, **kwargs):
        options.extend(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add)
    argv = ["optimize", "--beta", "10"]
    if with_config:
        argv += ["--config", write_config(tmp_path, {"params": {"alpha": 5.0}})]
    assert invoke(argv, tmp_path, monkeypatch) == EXIT_OK
    assert built == ["macgeo optimize"]
    flags = _COMMANDS["optimize"][1] + ("out", "config")
    assert sorted(options) == sorted([f"--{f}" for f in flags] + ["-h", "--help"])
    _, rows = read_csv(tmp_path / "optimize.csv")
    assert float(rows[0][1]) == (5.0 if with_config else 4.0)


# Every command that reads --alpha or --beta, at sizes that finish in a
# moment had the value been served.
_SMALL_RUNS = {
    "grid-range": ["--d", "1", "--extent", "20"],
    "trace": ["--d", "1", "--extent", "20"],
    "fading-curve": ["--d", "1", "--extent", "10", "--n", "5"],
    "compare": ["--d", "1", "--extent", "20"],
    "simulate": ["--d", "1", "--nu", "100", "--extent", "4", "--slots",
                 "20", "--packets", "1"],
    "optimize": [],
    "aloha-curve": ["--n", "5"],
    "field": ["--pattern", "poisson", "--extent", "5", "--n", "4"],
    "asympt-beta": [],
}


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command, flag", [
    (name, flag) for name, (_, flags) in _COMMANDS.items()
    for flag in ("alpha", "beta") if flag in flags])
def test_non_finite_alpha_or_beta_exits_3(tmp_path, monkeypatch, capsys,
                                          command, flag, value):
    argv = [command, f"--{flag}", value] + _SMALL_RUNS[command]
    assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    assert "invalid parameter" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_agrees_with_grid_range_below_beta_one(tmp_path, monkeypatch):
    # At beta 1e-5 the tracer finds no crossing in the window; compare
    # falls back to the membership raster as grid-range does.
    args = ["--beta", "1e-5", "--alpha", "4", "--extent", "100"]
    assert invoke(["compare"] + args, tmp_path, monkeypatch) == EXIT_OK
    _, rows = read_csv(tmp_path / "compare.csv")
    table = {r[0]: r[1] for r in rows}
    assert table["square"] == f"{5.42565360246:.12g}"
    for label, kind, k2 in (("triangular", "triangular", "1"),
                            ("square", "square", "1"),
                            ("rectangular(1:2)", "rectangular", "2"),
                            ("hexagonal", "hexagonal", "1")):
        out = f"{kind}.csv"
        assert invoke(["grid-range", "--pattern", kind, "--k2", k2] + args,
                      tmp_path, monkeypatch, out) == EXIT_OK
        _, grid = read_csv(tmp_path / out)
        assert grid[0][6] == "membership"
        assert grid[0][5] == table[label]


def test_readme_simulate_without_extent_rejected(tmp_path, monkeypatch, capsys):
    # The default 5 km half-width at nu = 100 asks for ~1e10 nodes; the
    # budget check must refuse it before any allocation.
    argv = ["simulate", "--pattern", "square", "--d", "1", "--nu", "100",
            "--beta", "1", "--distance", "5", "--slots", "4000",
            "--packets", "8"]
    assert invoke(argv, tmp_path, monkeypatch) == EXIT_BAD_PARAM
    assert "population" in capsys.readouterr().err


def test_run_config_api(tmp_path):
    cfg = RunConfig("asympt-alpha", {}, 0, str(tmp_path / "t.csv"), "csv")
    line = run(cfg)
    assert "asympt-alpha" in line
    with pytest.raises(ValueError):
        run(RunConfig("bogus", {}, 0, str(tmp_path / "x"), "csv"))
    with pytest.raises(ValueError):
        sweep(RunConfig("trace", {}, 0, str(tmp_path / "y"), "csv"),
              "beta", [1.0])


def write_config(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_loses_to_abbreviated_flag(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"params": {"alpha": 4.0, "beta": 3.0}})
    rc = invoke(["optimize", "--config", cfg, "--bet", "10", "--format",
                 "json"], tmp_path, monkeypatch, "o.json")
    assert rc == EXIT_OK
    assert json.loads((tmp_path / "o.json").read_text())["beta"] == 10.0


def test_config_fading_uses_flag_syntax(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"params": {"fading": "log-uniform:1"},
                                  "format": "json"})
    rc = invoke(["optimize", "--config", cfg], tmp_path, monkeypatch)
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "optimize.json").read_text())
    assert rep["fading"] == "log-uniform:1"


@pytest.mark.parametrize("doc", [
    {"command": "simulate"},                  # another command's file
    {"params": {"beta": 3.0}},                # asympt-beta has no --beta
    {"seed": 4},                              # ... and no --seed
    {"params": {"alpha": 4.0}, "extra": 1},   # not a config key at all
])
def test_config_key_without_flag_rejected(tmp_path, monkeypatch, doc):
    cfg = write_config(tmp_path, doc)
    rc = invoke(["asympt-beta", "--config", cfg], tmp_path, monkeypatch)
    assert rc == EXIT_BAD_PARAM
    assert not (tmp_path / "asympt_beta.csv").exists()


def test_unreadable_config_is_an_input_error(tmp_path, monkeypatch, capsys):
    # A missing config file (or a directory) is bad input, not an
    # unwritable output.
    (tmp_path / "adir").mkdir()
    for path in ("nope.json", "adir"):
        rc = invoke(["asympt-alpha", "--config", path], tmp_path, monkeypatch)
        assert rc == EXIT_BAD_PARAM
        assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "asympt_alpha.csv").exists()


def test_flag_of_another_command_rejected(tmp_path, monkeypatch, capsys):
    for argv in (["asympt-alpha", "--slots", "7", "--quantity", "sir",
                  "--seed", "4"],
                 ["asympt-alpha", "--format", "json", "--out", "t.json"]):
        with pytest.raises(SystemExit) as err:
            invoke(argv, tmp_path, monkeypatch)
        assert err.value.code == 2
        assert "macgeo asympt-alpha: error" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
    with pytest.raises(SystemExit):
        main(["asympt-alpha", "--help"])
    out = capsys.readouterr().out
    assert out.startswith("usage: macgeo asympt-alpha [-h] [--out OUT] "
                          "[--config CONFIG]\n")
    assert "--beta" not in out


def test_sweep_refuses_json(tmp_path, monkeypatch):
    rc = invoke(["optimize", "--sweep", "alpha", "--values", "3,4",
                 "--format", "json"], tmp_path, monkeypatch)
    assert rc == EXIT_BAD_PARAM
    assert not list(tmp_path.iterdir())


def test_optimize_default_out_is_csv(tmp_path, monkeypatch):
    assert invoke(["optimize"], tmp_path, monkeypatch) == EXIT_OK
    assert not (tmp_path / "optimize.json").exists()
    header, rows = read_csv(tmp_path / "optimize.csv")
    assert header == ["beta", "alpha", "fading", "r1", "p_at_opt", "rp",
                      "inv_rp"]
    assert len(rows) == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_parse(tmp_path):
    # Each README example parses, and runs to exit 0 onto a fresh output,
    # all in one fresh interpreter that never loads scipy: the package
    # runs on numpy alone.
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip()
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("macgeo ")]
    assert len(commands) >= 13
    code = ("import json, sys\n"
            "from macgeo.cli import _build_parser, main\n"
            "codes = []\n"
            "for k, (command, *args) in enumerate(json.loads(sys.argv[1])):\n"
            "    _build_parser(command).parse_args(args)\n"
            "    out = f'{k}-{command}'\n"
            "    codes.append(main([command, *args, '--out', out]))\n"
            "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(json.dumps([codes, scipy]))\n")
    src = os.path.dirname(os.path.dirname(macgeo.__file__))
    env = {k: v for k, v in os.environ.items() if k != "MACGEO_OUTDIR"}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         check=True, capture_output=True, text=True,
                         cwd=tmp_path, env={**env, "PYTHONPATH": src},
                         timeout=600)
    codes, scipy = json.loads(out.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * len(commands)
    assert scipy == []
    for k, (command, *_) in enumerate(commands):
        assert (tmp_path / f"{k}-{command}").stat().st_size > 0


def test_readme_flag_table_matches_commands():
    text = README.read_text()
    table = dict(re.findall(r"^\| `([a-z-]+)` \| (`--[^|]*`|none) \|$", text,
                            re.M))
    for name, (_, flags) in _COMMANDS.items():
        assert set(re.findall(r"--([a-z0-9]+)", table[name])) == set(flags)


def test_tracer_sites_resolve():
    # perfbench's tracer wraps each (module, attribute) of its SITES at
    # install; one the package no longer has stops every traced run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    for mod, attr, _, _ in tracer.SITES:
        assert hasattr(importlib.import_module(mod), attr), f"{mod}.{attr}"
