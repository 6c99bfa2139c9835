import json
import math
import re
import shlex
from pathlib import Path

import pytest

from macgeo.cli import (_COMMANDS, EXIT_BAD_PARAM, EXIT_IO, EXIT_NUMERIC,
                        EXIT_OK, RunConfig, _build_parser, main, parse_fading,
                        run, sweep)


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
    with pytest.raises(ValueError):
        parse_fading("log-uniform:-1")


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
    assert float(rows[0][5]) > 5.0  # far past the beta >= 1 ranges


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
    assert invoke(["asympt-beta", "--alpha", "2"], tmp_path,
                  monkeypatch) == EXIT_NUMERIC
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


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
    assert not (tmp_path / "t.json").exists()
    with pytest.raises(SystemExit):
        main(["asympt-alpha", "--help"])
    assert "--beta" not in capsys.readouterr().out


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


def test_readme_examples_parse():
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip()
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("macgeo ")]
    assert len(commands) >= 12
    for argv in commands:
        _build_parser().parse_args(argv)  # exits 2 on a flag the command lacks


def test_readme_flag_table_matches_commands():
    text = README.read_text()
    table = dict(re.findall(r"^\| `([a-z-]+)` \| (`--[^|]*`|none) \|$", text,
                            re.M))
    for name, (_, flags) in _COMMANDS.items():
        assert set(re.findall(r"--([a-z0-9]+)", table[name])) == set(flags)
