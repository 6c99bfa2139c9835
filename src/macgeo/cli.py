"""Command-line frontend.

Commands (see README for the full flag reference):

    grid-range   normalized max range of a lattice scheme at (beta, alpha)
    aloha-curve  p(r) and r*p(r) curves for slotted ALOHA
    optimize     maximizer of r*p for slotted ALOHA
    asympt-beta  large-beta lattice-sum table of r1'
    asympt-alpha large-alpha (Voronoi) closed-form table of r1
    trace        reception-boundary vertices + summary for one setup
    fading-curve lattice-scheme success probability along the cell
                 diagonal, deterministic vs exponential fading
    simulate     multi-hop relaying simulation
    compare      ALOHA vs lattice schemes, normalized to the triangular one
    field        raster of the interference field or of one SIR map

Each command takes only the flags it reads (``macgeo <command> --help``).
``--config file.json`` makes the file's ``params``, ``seed``, ``out`` and
``format`` that command's flag defaults, so explicit flags win.

Sweeps: ``--sweep <param> --values a,b,c`` repeats a row-producing command
(grid-range, optimize) once per value and writes one CSV row per value.

Exit codes: 0 ok, 2 usage, 3 invalid parameter or unreadable config,
4 unwritable output, 5 numerical signal from the library (such as a
``field`` Poisson draw with no transmitter, or a W raster cell past the
float range).

Outputs are plot-ready CSV, or JSON for ``--format json`` on grid-range
and optimize; ``--out`` defaults to ``<command>.<format>``, and a relative
path is placed under $MACGEO_OUTDIR when that variable is set.  This
module is the only one that writes files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import aloha, asymptotics, multihop, reception, spatial
from .errors import MacGeoError
from .propagation import (ChannelModel, decodes, fading_success_prob,
                          raster_field)
from .spatial import GridSpec

EXIT_OK = 0
EXIT_BAD_PARAM = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


@dataclass
class RunConfig:
    """One CLI invocation: command, parameter map, seed and output."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str = "out.csv"
    format: str = "csv"


def parse_fading(text: str) -> tuple[str, float]:
    """'none' | 'exponential' | 'log-uniform' | 'log-uniform:f' -> (kind,
    spread); anything else is a ValueError."""
    kind, colon, spread = text.partition(":")
    if kind in ("none", "exponential") and not colon:
        return kind, 1.0
    if kind == "log-uniform":
        return "log_uniform", float(spread) if colon else 1.0
    raise ValueError(f"unknown fading spec {text!r}")


def _fading_label(kind: str, spread: float) -> str:
    if kind == "log_uniform":
        return f"log-uniform:{spread:g}"
    return kind


def _grid_spec(params) -> GridSpec:
    return GridSpec(params["pattern"], params["d"], params["k1"], params["k2"])


def _resolve_out(path: str) -> str:
    base = os.environ.get("MACGEO_OUTDIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _model(p, **fixed) -> ChannelModel:
    """The command's ChannelModel from its parameters (``fixed`` overrides
    them); a command without --beta has no threshold.  Built before any
    other work, so a bad alpha, beta or spread is refused first."""
    keys = dict(alpha=p["alpha"], beta=p.get("beta", 0.0),
                fading=p.get("fading", "none"), spread=p.get("spread", 1.0))
    return ChannelModel(**{**keys, **fixed})


def _grid_range_value(params) -> dict:
    """r1 of a lattice scheme, traced or rastered (see
    :func:`~macgeo.reception.grid_range`)."""
    model = _model(params)
    spec = _grid_spec(params)
    res = reception.grid_range(spec, model, extent=params["extent"])
    return {"pattern": spec.kind, "k1_over_k2": spec.k1 / spec.k2,
            "beta": model.beta, "alpha": model.alpha,
            "r_lambda": res.r_lambda, "r1": res.r1, "method": res.method}


def _write_csv(path, header, lines) -> None:
    """The one CSV writer: a header line, then each string ended by a
    newline (a string may hold several lines)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def _write_rows_csv(path, header, rows) -> None:
    """One CSV line per row, floats as %.12g."""
    _write_csv(path, header, (
        ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
        for row in rows))


def _write_json(path, obj) -> None:
    """The one JSON writer: sorted keys, two-space indent."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_row_table(cfg: RunConfig, rows) -> None:
    """Rows of a one-row command (several for a sweep) as CSV columns, or
    its single row as a JSON object."""
    header = _ROW_COMMANDS[cfg.command][1]
    if cfg.format == "json":
        _write_json(cfg.output_path, rows[0])
    else:
        _write_rows_csv(cfg.output_path, header,
                        [[row[h] for h in header] for row in rows])


def _cmd_grid_range(cfg: RunConfig) -> str:
    row = _grid_range_value(cfg.params)
    _write_row_table(cfg, [row])
    return (f"grid-range {row['pattern']} beta={row['beta']:g} "
            f"alpha={row['alpha']:g}: r1={row['r1']:.6g} ({row['method']})")


def _check_curve_size(n: int) -> None:
    """Refuse a curve of no rows or of more rows than the point budget,
    before anything is allocated."""
    if n < 1:
        raise ValueError("a curve needs at least one row")
    spatial.check_budget(n, "curve rows")


def _cmd_aloha_curve(cfg: RunConfig) -> str:
    p = cfg.params
    model = _model(p)
    _check_curve_size(p["n"])
    if not all(0.0 < p[k] < math.inf for k in ("rmin", "rmax")):
        raise ValueError("rmin and rmax must be finite and positive")
    rs = np.linspace(p["rmin"], p["rmax"], p["n"])
    models = [_model(p, fading="none", spread=1.0)]
    if model.fading != "none":
        models.append(model)
    rows = []
    for m in models:
        label = _fading_label(m.fading, m.spread)
        rows += [(r, pv, rp, label) for r, pv, rp in aloha.curve(p["lam"], m, rs)]
    _write_rows_csv(cfg.output_path, ["r", "p", "rp", "method"], rows)
    return f"aloha-curve: {len(rows)} rows -> {cfg.output_path}"


def _optimize_report(p) -> dict:
    model = _model(p)
    res = aloha.optimize_range(p["lam"], model)
    return {"beta": p["beta"], "alpha": p["alpha"],
            "fading": _fading_label(model.fading, model.spread),
            "r1": res.r * math.sqrt(p["lam"]), "p_at_opt": res.p,
            "rp": res.rp, "inv_rp": res.inv_rp}


def _cmd_optimize(cfg: RunConfig) -> str:
    rep = _optimize_report(cfg.params)
    _write_row_table(cfg, [rep])
    return (f"optimize beta={rep['beta']:g} alpha={rep['alpha']:g} "
            f"fading={rep['fading']}: r1={rep['r1']:.6g} inv_rp={rep['inv_rp']:.6g}")


_TABLE_HEADER = ["pattern", "k1_over_k2", "value"]


def _cmd_asympt_beta(cfg: RunConfig) -> str:
    rows = asymptotics.beta_inf_table(_model(cfg.params).alpha)
    _write_rows_csv(cfg.output_path, _TABLE_HEADER, rows)
    return ("asympt-beta alpha=%g: " % cfg.params["alpha"]
            + ", ".join(f"{k}{'' if r == 1 else f'({r:g})'}={v:.6f}"
                        for k, r, v in rows))


def _cmd_asympt_alpha(cfg: RunConfig) -> str:
    rows = asymptotics.alpha_inf_table()
    _write_rows_csv(cfg.output_path, _TABLE_HEADER, rows)
    return "asympt-alpha: " + ", ".join(f"{k}={v:.4f}" for k, _, v in rows)


def _cmd_trace(cfg: RunConfig) -> str:
    p = cfg.params
    model = _model(p)
    spec = _grid_spec(p)
    ps, i = reception.lattice_probe(spec, p["extent"])
    trace = reception.trace_contour(i, ps, model, dt=p["dt"],
                                    direction=p["direction"])
    _write_rows_csv(cfg.output_path, ["x", "y"], trace.vertices.tolist())
    summary = reception.trace_summary(trace, spec, model, ps.density)
    _write_json(cfg.output_path + ".summary.json", summary)
    return (f"trace {spec.kind} beta={model.beta:g} alpha={model.alpha:g}: "
            f"r1={summary['r1']:.6g}, {trace.steps} steps")


def _cmd_fading_curve(cfg: RunConfig) -> str:
    p = cfg.params
    det_model = _model(p)
    fad_model = _model(p, fading="exponential")
    _check_curve_size(p["n"])
    spec = _grid_spec(p)
    ps, i = reception.lattice_probe(spec, p["extent"])
    spatial.check_evals(p["n"] * len(ps), "curve evaluations")
    # Stop short of the diagonal lattice neighbor where the SIR is singular.
    diag = np.array([spec.d, spec.d])
    ts = np.linspace(0.02, 0.98, p["n"])
    rxs = ps.points[i] + ts[:, None] * diag
    hits = decodes(rxs, ps, i, det_model)
    probs = fading_success_prob(rxs, ps, i, fad_model)
    rows = [[t * math.hypot(*diag), float(hit), float(prob)]
            for t, hit, prob in zip(ts, hits, probs)]
    _write_rows_csv(cfg.output_path, ["r", "p_nofading", "p_fading"], rows)
    return f"fading-curve {spec.kind}: {len(ts)} rows -> {cfg.output_path}"


def _hop_log(packets) -> tuple[list, list]:
    """(header, rows) of the per-hop log of a simulation."""
    header = ["packet_id", "slot", "hop", "from_x", "from_y", "to_x", "to_y",
              "progress"]
    rows = [[pid, slot, h, *rec.hops[h], *rec.hops[h + 1], prog]
            for pid, rec in enumerate(packets)
            for h, (slot, prog) in enumerate(zip(rec.hop_slots,
                                                 rec.progress_per_hop))]
    return header, rows


def _cmd_simulate(cfg: RunConfig) -> str:
    p = cfg.params
    model = _model(p)
    if p["scheme"] == "aloha":
        scheme = p["lam"]
    else:
        scheme = _grid_spec(p)
    sim = multihop.SimConfig(node_density=p["nu"], extent=p["extent"],
                             scheme=scheme, model=model,
                             slots=p["slots"], seed=cfg.seed)
    summary, packets = multihop.run_simulation(sim, p["packets"],
                                               pair_distance=p["distance"])
    _write_rows_csv(cfg.output_path, *_hop_log(packets))
    _write_json(cfg.output_path + ".summary.json", summary)
    return (f"simulate: delivered {summary['delivery_fraction']:.2%}, "
            f"mean hops {summary['mean_hops']:.3g}")


def _cmd_compare(cfg: RunConfig) -> str:
    p = cfg.params
    model = _model(p)
    k1, k2 = p["k1"], p["k2"]
    if k1 == k2:
        k1, k2 = 1.0, 2.0  # degenerate aspect would duplicate the square
    schemes = [("triangular", 1.0, 1.0), ("square", 1.0, 1.0),
               ("rectangular", k1, k2), ("hexagonal", 1.0, 1.0)]
    rows = []
    for kind, k1, k2 in schemes:
        spec = GridSpec(kind, p["d"], k1, k2)
        res = reception.grid_range(spec, model, extent=p["extent"])
        label = kind if kind != "rectangular" else f"rectangular({k1:g}:{k2:g})"
        rows.append([label, res.r1, 1.0 / res.r1])
    rep = _optimize_report({**p, "fading": "none", "spread": 1.0, "lam": 1.0})
    rows.append(["aloha", rep["r1"], rep["inv_rp"]])
    ref = rows[0][2]
    out_rows = [[label, r1, inv, inv / ref] for label, r1, inv in rows]
    _write_rows_csv(cfg.output_path,
                    ["scheme", "r1", "inv_rp", "inv_rp_normalized"], out_rows)
    return "compare: " + ", ".join(f"{r[0]}={r[3]:.3f}" for r in out_rows)


def _cmd_field(cfg: RunConfig) -> str:
    p = cfg.params
    model = _model(p)
    if p["pattern"] == "poisson":
        # raster_field checks the drawn count; the expected one is refused
        # before the draw, whose distinctness sort takes 1 s at 2e6 points.
        spatial.check_evals(p["n"] ** 2 * p["lam"] * (2.0 * p["extent"]) ** 2,
                            "expected raster evaluations")
        ps = spatial.gen_poisson(p["lam"], p["extent"], cfg.seed)
        i = reception.origin_index(ps)
    else:
        ps, i = reception.lattice_probe(_grid_spec(p), p["extent"])
    window = p["extent"] if p["window"] is None else p["window"]
    xs, ys, vals = raster_field(ps, model.alpha, window, p["n"],
                                quantity=p["quantity"], i=i)
    # Each coordinate is formatted once, not once per cell, and one row
    # of vals (indexed [iy, ix]) is boxed and joined into one string at a
    # time.
    xf = [f"{x:.12g}," for x in xs.tolist()]
    yf = [f"{y:.12g}," for y in ys.tolist()]
    rows = ("\n".join([f"{x}{y}{v:.12g}" for x, v in zip(xf, line.tolist())])
            for y, line in zip(yf, vals))
    _write_csv(cfg.output_path, ["x", "y", "value"], rows)
    return f"field: {p['n']}x{p['n']} raster -> {cfg.output_path}"


_GRID_FLAGS = ("pattern", "d", "k1", "k2")

# Command -> (handler, the flags it reads).  Every command also takes
# --out and --config.
_COMMANDS = {
    "grid-range": (_cmd_grid_range, _GRID_FLAGS + (
        "beta", "alpha", "extent", "format", "sweep", "values")),
    "aloha-curve": (_cmd_aloha_curve, (
        "lam", "beta", "alpha", "fading", "rmin", "rmax", "n")),
    "optimize": (_cmd_optimize, (
        "lam", "beta", "alpha", "fading", "format", "sweep", "values")),
    "asympt-beta": (_cmd_asympt_beta, ("alpha",)),
    "asympt-alpha": (_cmd_asympt_alpha, ()),
    "trace": (_cmd_trace, _GRID_FLAGS + (
        "beta", "alpha", "extent", "dt", "direction")),
    "fading-curve": (_cmd_fading_curve, _GRID_FLAGS + (
        "beta", "alpha", "extent", "n")),
    "simulate": (_cmd_simulate, _GRID_FLAGS + (
        "beta", "alpha", "fading", "scheme", "lam", "nu", "extent", "slots",
        "packets", "distance", "seed")),
    "compare": (_cmd_compare, ("d", "k1", "k2", "beta", "alpha", "extent")),
    "field": (_cmd_field, _GRID_FLAGS + (
        "lam", "alpha", "extent", "window", "n", "quantity", "seed")),
}

# The commands that write one row, with its function and CSV columns;
# --format json writes the row as an object instead.  Only these sweep.
_ROW_COMMANDS = {
    "grid-range": (_grid_range_value, ["pattern", "k1_over_k2", "beta",
                                       "alpha", "r_lambda", "r1", "method"]),
    "optimize": (_optimize_report, ["beta", "alpha", "fading", "r1",
                                    "p_at_opt", "rp", "inv_rp"]),
}

_FLAGS = {
    "beta": dict(type=float, default=10.0),
    "alpha": dict(type=float, default=4.0),
    "pattern": dict(default="square",
                    help="square|rectangular|hexagonal|triangular|linear|poisson"),
    "k1": dict(type=float, default=1.0),
    "k2": dict(type=float, default=1.0),
    "d": dict(type=float, default=25.0),
    "extent": dict(type=float, default=5000.0,
                   help="window half-width in meters (default 5000: 10 km side)"),
    "fading": dict(default="none", help="none | exponential | log-uniform[:f]"),
    "lam": dict(type=float, default=1.0),
    "seed": dict(type=int, default=0),
    "out": dict(default=None, help="output file (default <command>.<format>)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "config": dict(default=None,
                   help="JSON file {command, params, seed, out, format} whose "
                        "values become this command's defaults"),
    "sweep": dict(default=None, metavar="PARAM"),
    "values": dict(default="", help="comma-separated sweep values"),
    "rmin": dict(type=float, default=0.02),
    "rmax": dict(type=float, default=1.0),
    "n": dict(type=int, default=100),
    "dt": dict(type=float, default=None),
    "direction": dict(type=float, default=0.0),
    "quantity": dict(choices=("w", "sir"), default="w"),
    "window": dict(type=float, default=None),
    "nu": dict(type=float, default=100.0),
    "slots": dict(type=int, default=2000),
    "packets": dict(type=int, default=5),
    "distance": dict(type=float, default=None),
    "scheme": dict(choices=("grid", "aloha"), default="grid"),
}

# Flags that shape the run rather than the command's parameters.
_RUN_FLAGS = ("config", "out", "format", "seed", "sweep", "values")


def run(cfg: RunConfig) -> str:
    """Dispatch one command; returns the one-line summary."""
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    formats = ("csv", "json") if cfg.command in _ROW_COMMANDS else ("csv",)
    if cfg.format not in formats:
        raise ValueError(f"{cfg.command} writes {' or '.join(formats)}, "
                         f"not {cfg.format!r}")
    cfg.output_path = _resolve_out(cfg.output_path)
    return _COMMANDS[cfg.command][0](cfg)


def sweep(cfg: RunConfig, axis: str, values) -> str:
    """Repeat a row-producing command across ``values`` of one parameter.

    Emits one CSV row per value.  An empty value list writes nothing and
    succeeds.
    """
    if cfg.command not in _ROW_COMMANDS:
        raise ValueError(f"command {cfg.command!r} does not support sweeps")
    if cfg.format != "csv":
        raise ValueError(f"a sweep writes csv, not {cfg.format!r}")
    values = list(values)
    if not values:
        return "sweep: empty value list, nothing to do"
    if axis not in cfg.params or not isinstance(cfg.params[axis], (int, float)):
        raise ValueError(f"{axis!r} is not a numeric parameter of {cfg.command}")
    row_of = _ROW_COMMANDS[cfg.command][0]
    rows = [row_of({**cfg.params, axis: v}) for v in values]
    cfg.output_path = _resolve_out(cfg.output_path)
    _write_row_table(cfg, rows)
    return f"sweep {axis} over {len(values)} values -> {cfg.output_path}"


def _build_parser(command) -> argparse.ArgumentParser:
    """The parser of one command: the flags it reads, --out and --config."""
    ap = argparse.ArgumentParser(prog=f"macgeo {command}")
    for flag in _COMMANDS[command][1] + ("out", "config"):
        ap.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def _config_defaults(path, command) -> dict:
    """The config file's ``params``, ``seed``, ``out`` and ``format`` as
    flag defaults of ``command``.  Refuses a file for another command and
    any key the command has no flag for."""
    with open(path) as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and isinstance(doc.get("params", {}), dict)):
        raise ValueError("a config file holds an object with a 'params' object")
    if doc.get("command", command) != command:
        raise ValueError(f"config file is for {doc['command']!r}, not {command!r}")
    values = {**doc.get("params", {}),
              **{k: doc[k] for k in ("seed", "out", "format") if k in doc}}
    flags = _COMMANDS[command][1] + ("out",)
    unknown = ([k for k in doc if k not in ("command", "params", "seed", "out",
                                            "format")]
               + [k for k in values if k not in flags])
    if unknown:
        raise ValueError(f"{command} has no flag for config key(s) "
                         f"{', '.join(map(repr, unknown))}")
    values = {k: str(v) for k, v in values.items()}
    for key, value in values.items():
        choices = _FLAGS[key].get("choices")
        if choices and value not in choices:
            raise ValueError(f"config {key} must be one of {choices}")
    return values


def _run_config(command, args) -> tuple[RunConfig, str | None, list]:
    opts = vars(args)
    params = {k: v for k, v in opts.items() if k not in _RUN_FLAGS}
    if "fading" in params:
        params["fading"], params["spread"] = parse_fading(params["fading"])
    fmt = opts.get("format", "csv")
    out = args.out or f"{command.replace('-', '_')}.{fmt}"
    cfg = RunConfig(command, params, opts.get("seed", 0), out, fmt)
    values = [float(v) for v in opts.get("values", "").split(",") if v.strip()]
    return cfg, opts.get("sweep"), values


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] not in _COMMANDS:
        # The command list: exits 0 on -h/--help, 2 on anything else.
        top = argparse.ArgumentParser(prog="macgeo", description=__doc__,
                                      formatter_class=argparse.RawDescriptionHelpFormatter)
        top.add_argument("command", choices=_COMMANDS)
        top.parse_args(argv[:1])
    command = argv[0]
    ap = _build_parser(command)
    args = ap.parse_args(argv[1:])
    try:
        if args.config:
            try:
                ap.set_defaults(**_config_defaults(args.config, command))
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_BAD_PARAM
            args = ap.parse_args(argv[1:])
        cfg, axis, values = _run_config(command, args)
        if axis is not None:
            line = sweep(cfg, axis, values)
        else:
            line = run(cfg)
    except ValueError as exc:
        print(f"error: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAM
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except MacGeoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
