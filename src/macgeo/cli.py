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

Sweeps: ``--sweep <param> --values a,b,c`` repeats a row-producing command
(grid-range, optimize) once per value and writes one CSV row per value.

Exit codes: 0 ok, 2 usage, 3 invalid parameter, 4 unwritable output,
5 numerical signal from the library.

Outputs are plot-ready CSV/JSON; a relative ``--out`` is placed under
$MACGEO_OUTDIR when that variable is set.
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
from .errors import MacGeoError, NonClosureError, UnboundedReceptionError
from .propagation import (ChannelModel, decodes, raster_field,
                          save_field_csv)
from .spatial import GridSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_PARAM = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

_SWEEPABLE = ("grid-range", "optimize")


@dataclass
class RunConfig:
    """One CLI invocation: command, parameter map, seed and output."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str = "out.csv"
    format: str = "csv"


def parse_fading(text: str) -> tuple[str, float]:
    """'none' | 'log-uniform:f' | 'exponential' -> (kind, spread)."""
    if text == "none":
        return "none", 1.0
    if text == "exponential":
        return "exponential", 1.0
    if text.startswith("log-uniform"):
        parts = text.split(":")
        spread = float(parts[1]) if len(parts) > 1 else 1.0
        if spread <= 0:
            raise ValueError("log-uniform spread must be positive")
        return "log_uniform", spread
    raise ValueError(f"unknown fading spec {text!r}")


def _fading_label(kind: str, spread: float) -> str:
    if kind == "log_uniform":
        return f"log-uniform:{spread:g}"
    return kind


def _grid_spec(params) -> GridSpec:
    return GridSpec(params["pattern"], params["d"],
                    params.get("k1", 1.0), params.get("k2", 1.0))


def _resolve_out(path: str) -> str:
    base = os.environ.get("MACGEO_OUTDIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _grid_range_value(params, seed) -> dict:
    """r1 of a lattice scheme; tracer first, membership raster for the
    beta < 1 regimes where the boundary is not a single closed curve."""
    spec = _grid_spec(params)
    model = ChannelModel(alpha=params["alpha"], beta=params["beta"])
    extent = params["extent"]
    lam = spatial.grid_density(spec)
    try:
        res = reception.grid_range(spec, model, extent=extent)
        return {"pattern": spec.kind, "k1_over_k2": spec.k1 / spec.k2,
                "beta": model.beta, "alpha": model.alpha,
                "r_lambda": res.r_lambda, "r1": res.r1, "method": "trace"}
    except (UnboundedReceptionError, NonClosureError):
        scale = 1.0 / math.sqrt(lam)
        window = 4.0 * scale * max(1.0, model.beta ** (-1.0 / model.alpha))
        while True:
            window = min(window, extent)
            # Interferers beyond ~3 windows shift the frontier by well
            # under the raster cell; keep the set small.
            ps = spatial.gen_grid(spec, min(extent, 3.0 * window + 5.0 * scale))
            i = reception.origin_index(ps)
            r_lam = reception.max_range_membership(i, ps, model, window, n=384)
            if r_lam < 0.8 * window or window >= extent:
                break
            window *= 2.0
        return {"pattern": spec.kind, "k1_over_k2": spec.k1 / spec.k2,
                "beta": model.beta, "alpha": model.alpha,
                "r_lambda": r_lam,
                "r1": reception.normalized_range(r_lam, lam),
                "method": "membership"}


def _write_rows_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")


def _cmd_grid_range(cfg: RunConfig) -> str:
    row = _grid_range_value(cfg.params, cfg.seed)
    header = ["pattern", "k1_over_k2", "beta", "alpha", "r_lambda", "r1", "method"]
    if cfg.format == "json":
        with open(cfg.output_path, "w") as fh:
            json.dump(row, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        _write_rows_csv(cfg.output_path, header, [[row[h] for h in header]])
    return (f"grid-range {row['pattern']} beta={row['beta']:g} "
            f"alpha={row['alpha']:g}: r1={row['r1']:.6g} ({row['method']})")


def _cmd_aloha_curve(cfg: RunConfig) -> str:
    p = cfg.params
    params = aloha.SeriesParams(p["lam"], p["beta"], p["alpha"])
    rs = np.linspace(p["rmin"], p["rmax"], p["n"])
    fading, spread = p["fading"], p["spread"]
    rows = []
    for kind, spr in (("none", 1.0),) + (((fading, spread),) if fading != "none" else ()):
        label = _fading_label(kind, spr)
        rows += [(r, pv, rp, label) for r, pv, rp in aloha.curve(params, rs, kind, spr)]
    _write_rows_csv(cfg.output_path, ["r", "p", "rp", "method"], rows)
    return f"aloha-curve: {len(rows)} rows -> {cfg.output_path}"


def _optimize_report(p, seed) -> dict:
    params = aloha.SeriesParams(p["lam"], p["beta"], p["alpha"])
    res = aloha.optimize_range(params, p["fading"], p["spread"])
    return {"beta": p["beta"], "alpha": p["alpha"],
            "fading": _fading_label(p["fading"], p["spread"]),
            "r1": res.r * math.sqrt(p["lam"]), "p_at_opt": res.p,
            "rp": res.rp, "inv_rp": res.inv_rp}


def _cmd_optimize(cfg: RunConfig) -> str:
    rep = _optimize_report(cfg.params, cfg.seed)
    if cfg.format == "csv":
        header = ["beta", "alpha", "fading", "r1", "p_at_opt", "rp", "inv_rp"]
        _write_rows_csv(cfg.output_path, header, [[rep[h] for h in header]])
    else:
        with open(cfg.output_path, "w") as fh:
            json.dump(rep, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return (f"optimize beta={rep['beta']:g} alpha={rep['alpha']:g} "
            f"fading={rep['fading']}: r1={rep['r1']:.6g} inv_rp={rep['inv_rp']:.6g}")


def _cmd_asympt_beta(cfg: RunConfig) -> str:
    rows = asymptotics.beta_inf_table(cfg.params["alpha"])
    asymptotics.save_table_csv(rows, cfg.output_path)
    return ("asympt-beta alpha=%g: " % cfg.params["alpha"]
            + ", ".join(f"{k}{'' if r == 1 else f'({r:g})'}={v:.6f}"
                        for k, r, v in rows))


def _cmd_asympt_alpha(cfg: RunConfig) -> str:
    rows = asymptotics.alpha_inf_table()
    asymptotics.save_table_csv(rows, cfg.output_path)
    return "asympt-alpha: " + ", ".join(f"{k}={v:.4f}" for k, _, v in rows)


def _cmd_trace(cfg: RunConfig) -> str:
    p = cfg.params
    spec = _grid_spec(p)
    model = ChannelModel(alpha=p["alpha"], beta=p["beta"])
    ps = spatial.gen_grid(spec, p["extent"])
    i = reception.origin_index(ps)
    tcfg = reception.TracerConfig(dt=p.get("dt"),
                                  start_direction=p.get("direction", 0.0))
    trace = reception.trace_contour(i, ps, model, tcfg)
    reception.save_trace_csv(trace, cfg.output_path)
    summary = reception.trace_summary(trace, spec, model, ps.density)
    with open(cfg.output_path + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (f"trace {spec.kind} beta={model.beta:g} alpha={model.alpha:g}: "
            f"r1={summary['r1']:.6g}, {trace.steps} steps")


def _cmd_fading_curve(cfg: RunConfig) -> str:
    p = cfg.params
    spec = _grid_spec(p)
    ps = spatial.gen_grid(spec, p["extent"])
    i = reception.origin_index(ps)
    det_model = ChannelModel(alpha=p["alpha"], beta=p["beta"])
    fad_model = ChannelModel(alpha=p["alpha"], beta=p["beta"], fading="exponential")
    # Stop short of the diagonal lattice neighbor where the SIR is singular.
    diag = np.array([spec.d, spec.d])
    ts = np.linspace(0.02, 0.98, p["n"])
    rxs = ps.points[i] + ts[:, None] * diag
    hits = decodes(rxs, ps, i, det_model)
    with open(cfg.output_path, "w") as fh:
        fh.write("r,p_nofading,p_fading\n")
        for t, rx, hit in zip(ts, rxs, hits):
            r = t * math.hypot(*diag)
            p1 = reception.grid_success_prob_fading(i, rx, ps, fad_model)
            fh.write(f"{r:.12g},{float(hit):.12g},{p1:.12g}\n")
    return f"fading-curve {spec.kind}: {len(ts)} rows -> {cfg.output_path}"


def _cmd_simulate(cfg: RunConfig) -> str:
    p = cfg.params
    model = ChannelModel(alpha=p["alpha"], beta=p["beta"],
                         fading=p["fading"], spread=p["spread"])
    if p.get("scheme", "grid") == "aloha":
        scheme = p["lam"]
    else:
        scheme = _grid_spec(p)
    sim = multihop.SimConfig(node_density=p["nu"], extent=p["extent"],
                             scheme=scheme, model=model,
                             slots=p["slots"], seed=cfg.seed)
    summary, packets = multihop.run_simulation(sim, p["packets"],
                                               pair_distance=p.get("distance"))
    multihop.save_hop_log_csv(packets, cfg.output_path)
    multihop.save_summary_json(summary, cfg.output_path + ".summary.json")
    return (f"simulate: delivered {summary['delivery_fraction']:.2%}, "
            f"mean hops {summary['mean_hops']:.3g}")


def _cmd_compare(cfg: RunConfig) -> str:
    p = cfg.params
    model = ChannelModel(alpha=p["alpha"], beta=p["beta"])
    k1, k2 = p.get("k1", 1.0), p.get("k2", 1.0)
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
    rep = _optimize_report({**p, "fading": "none", "spread": 1.0, "lam": 1.0},
                           cfg.seed)
    rows.append(["aloha", rep["r1"], rep["inv_rp"]])
    ref = rows[0][2]
    out_rows = [[label, r1, inv, inv / ref] for label, r1, inv in rows]
    _write_rows_csv(cfg.output_path,
                    ["scheme", "r1", "inv_rp", "inv_rp_normalized"], out_rows)
    return "compare: " + ", ".join(f"{r[0]}={r[3]:.3f}" for r in out_rows)


def _cmd_field(cfg: RunConfig) -> str:
    p = cfg.params
    if p.get("pattern") == "poisson":
        ps = spatial.gen_poisson(p["lam"], p["extent"], cfg.seed)
    else:
        ps = spatial.gen_grid(_grid_spec(p), p["extent"])
    window = p.get("window") or p["extent"]
    xs, ys, vals = raster_field(ps, p["alpha"], window, p["n"],
                                quantity=p.get("quantity", "w"),
                                i=reception.origin_index(ps))
    save_field_csv(xs, ys, vals, cfg.output_path)
    return f"field: {p['n']}x{p['n']} raster -> {cfg.output_path}"


_HANDLERS = {
    "grid-range": _cmd_grid_range,
    "aloha-curve": _cmd_aloha_curve,
    "optimize": _cmd_optimize,
    "asympt-beta": _cmd_asympt_beta,
    "asympt-alpha": _cmd_asympt_alpha,
    "trace": _cmd_trace,
    "fading-curve": _cmd_fading_curve,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "field": _cmd_field,
}


def run(cfg: RunConfig) -> str:
    """Dispatch one command; returns the one-line summary."""
    if cfg.command not in _HANDLERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    cfg.output_path = _resolve_out(cfg.output_path)
    return _HANDLERS[cfg.command](cfg)


def sweep(cfg: RunConfig, axis: str, values) -> str:
    """Repeat a row-producing command across ``values`` of one parameter.

    Emits one CSV row per value; each repetition gets a child seed derived
    from the root seed and the value index.  An empty value list writes
    nothing and succeeds.
    """
    if cfg.command not in _SWEEPABLE:
        raise ValueError(f"command {cfg.command!r} does not support sweeps")
    values = list(values)
    if not values:
        return "sweep: empty value list, nothing to do"
    if axis not in cfg.params or not isinstance(cfg.params[axis], (int, float)):
        raise ValueError(f"{axis!r} is not a numeric parameter of {cfg.command}")
    rows = []
    header = None
    for idx, v in enumerate(values):
        child_seed = int(np.random.SeedSequence((cfg.seed, idx)).generate_state(1)[0])
        params = dict(cfg.params)
        params[axis] = v
        if cfg.command == "grid-range":
            row = _grid_range_value(params, child_seed)
            header = ["pattern", "k1_over_k2", "beta", "alpha",
                      "r_lambda", "r1", "method"]
        else:
            row = _optimize_report(params, child_seed)
            header = ["beta", "alpha", "fading", "r1", "p_at_opt", "rp", "inv_rp"]
        rows.append([row[h] for h in header])
    out = _resolve_out(cfg.output_path)
    _write_rows_csv(out, header, rows)
    return f"sweep {axis} over {len(values)} values -> {out}"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="macgeo", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--beta", type=float, default=10.0)
        sp.add_argument("--alpha", type=float, default=4.0)
        sp.add_argument("--pattern", default="square",
                        help="square|rectangular|hexagonal|triangular|linear|poisson")
        sp.add_argument("--k1", type=float, default=1.0)
        sp.add_argument("--k2", type=float, default=1.0)
        sp.add_argument("--d", type=float, default=25.0)
        sp.add_argument("--extent", type=float, default=5000.0,
                        help="window half-width in meters (default 5000: 10 km side)")
        sp.add_argument("--fading", default="none",
                        help="none | log-uniform:f | exponential")
        sp.add_argument("--lam", type=float, default=1.0)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--config", default=None,
                        help="JSON file with {command, params, seed, out, format}; "
                             "explicit flags override it")
        sp.add_argument("--sweep", default=None, metavar="PARAM")
        sp.add_argument("--values", default=None,
                        help="comma-separated sweep values")
        sp.add_argument("--rmin", type=float, default=0.02)
        sp.add_argument("--rmax", type=float, default=1.0)
        sp.add_argument("--n", type=int, default=100)
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--direction", type=float, default=0.0)
        sp.add_argument("--quantity", choices=("w", "sir"), default="w")
        sp.add_argument("--window", type=float, default=None)
        sp.add_argument("--nu", type=float, default=100.0)
        sp.add_argument("--slots", type=int, default=2000)
        sp.add_argument("--packets", type=int, default=5)
        sp.add_argument("--distance", type=float, default=None)
        sp.add_argument("--scheme", choices=("grid", "aloha"), default="grid")
    return ap


_DEFAULT_OUT = {
    "grid-range": "grid_range.csv", "aloha-curve": "aloha_curve.csv",
    "optimize": "optimize.json", "asympt-beta": "asympt_beta.csv",
    "asympt-alpha": "asympt_alpha.csv", "trace": "trace.csv",
    "fading-curve": "fading_curve.csv", "simulate": "simulate.csv",
    "compare": "compare.csv", "field": "field.csv",
}


# Command parameter -> the flag that sets it; --fading sets two.
_PARAM_FLAGS = {key: f"--{key}" for key in (
    "beta", "alpha", "pattern", "k1", "k2", "d", "extent", "fading", "lam",
    "rmin", "rmax", "n", "dt", "direction", "quantity", "window", "nu",
    "slots", "packets", "distance", "scheme")}
_PARAM_FLAGS["spread"] = "--fading"


def _config_from_args(args, argv) -> tuple[RunConfig, str | None, list]:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    params = dict(file_cfg.get("params", {}))

    def given(flag):
        return any(a == flag or a.startswith(flag + "=") for a in argv)

    fading, spread = parse_fading(args.fading)
    values = {**vars(args), "fading": fading, "spread": spread}
    for key, flag in _PARAM_FLAGS.items():
        if key not in params or given(flag):
            params[key] = values[key]

    seed = args.seed if given("--seed") else file_cfg.get("seed", args.seed)
    out = args.out if args.out else file_cfg.get("out", _DEFAULT_OUT[args.command])
    fmt = args.format if given("--format") else file_cfg.get("format", args.format)
    cfg = RunConfig(args.command, params, seed, out, fmt)

    values = []
    if args.values is not None:
        text = args.values.strip()
        values = [float(v) for v in text.split(",") if v.strip()] if text else []
    return cfg, args.sweep, values


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg, axis, values = _config_from_args(args, argv)
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
