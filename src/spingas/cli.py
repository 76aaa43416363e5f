"""Command-line entry point.

Subcommands: simulate, sweep, contour, susceptibility, fit, table2.
All artifacts are written atomically, embed the tool version and
the resolved-configuration hash, and are byte-identical for identical
configurations (the worker count never affects output content, and the
package runs BLAS on one thread from its import on).

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 non-convergence, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_axis, parse_config
from .critfit import (
    FORMS,
    FitError,
    NoTransitionError,
    fit,
    reduced_distance,
    susceptibility,
)
from .dynamics import (
    CompiledModel,
    IntegrationError,
    SimParams,
    integrate,
    steady_state,
)
from .optics import AtomSystem, pump_field
from .sweep import (
    MAP_QUANTITIES,
    SchemaError,
    SweepGrid,
    _contour,
    gnuplot_matrix,
    load_sweep,
    run_sweep,
    save_sweep,
    write_atomic,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGED = 4
EXIT_IO = 5


def _stamp(cfg: RunConfig) -> str:
    return f"# spingas {__version__} config {cfg.hash()}\n"


def _write_json(path: str, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["config_hash"] = cfg.hash()
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True,
                                  default=str) + "\n")


def _read_xy(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The first two columns of a series CSV.  Comment ('#') and blank lines
    are skipped, and a first row that is not numeric is the header."""
    with open(path, newline="") as fh:
        rows = [(k, next(csv.reader([line]))) for k, line in enumerate(fh, 1)
                if line.strip() and not line.startswith("#")]
    if not rows:
        raise ValueError("empty series file")
    try:
        float(rows[0][1][0])
    except ValueError:
        rows = rows[1:]
    xs, ys = [], []
    for k, row in rows:
        if len(row) < 2:
            raise ValueError(f"line {k} of {path} holds no x,y pair: {','.join(row)!r}")
        try:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
        except ValueError as exc:
            raise ValueError(f"line {k} of {path}: {exc}") from None
    if not xs:
        raise ValueError("no data rows in series file")
    return np.array(xs), np.array(ys)


def _cmd_table2(args, cfg: RunConfig) -> int:
    system = AtomSystem(cfg.atom(), cfg["fields", "b_z"])
    pump = pump_field(1.0, detuning=cfg["fields", "pump_detuning"])
    from .optics import transition_probability_table
    rows = transition_probability_table(system, pump)
    print("Pump-photon transition probabilities on the addressed manifold")
    print(f"{'|m_F|':>6} {'p(m -> m+1)':>14} {'p(m -> m-1)':>14} {'difference':>12}")
    for m, up, dn in rows:
        print(f"{m:>6d} {up:>14.10f} {dn:>14.10f} {up - dn:>12.10f}")
    if args.csv:
        buf = _stamp(cfg) + "m,p_up,p_down\n"
        for m, up, dn in rows:
            buf += f"{m},{up:.15g},{dn:.15g}\n"
        write_atomic(args.csv, buf)
    return EXIT_OK


def _cmd_simulate(args, cfg: RunConfig) -> int:
    params = SimParams.from_rates(
        i_over_gamma=args.i, j_over_gamma=args.j, h_over_gamma=args.h,
        gamma=cfg.gamma(), **cfg.sim_kwargs())
    model = CompiledModel(params)
    if args.dump_optics:
        from .spin_algebra import operator_to_csv
        for k, coupling in enumerate(model.couplings):
            write_atomic(f"{args.dump_optics}_w{k}.csv",
                         _stamp(cfg) + operator_to_csv(coupling.w))
        if model.channel is not None:
            rho_e = model.channel.rho_e(model.sub.to_matrix(
                model.seed_coords(params.seed_polarization)))
            write_atomic(f"{args.dump_optics}_rho_e.csv",
                         _stamp(cfg) + operator_to_csv(rho_e))
    if args.t_end is not None:
        traj = integrate(params, t_end=args.t_end, model=model,
                         controls=cfg.controls())
        summary = {"mode": "fixed-horizon", "t_end": args.t_end,
                   "m_final": float(traj.magnetization[-1])}
        nonconverged = False
    else:
        res = steady_state(params, model=model, controls=cfg.controls())
        traj = res.trajectory
        summary = {"mode": "steady", "m_ss": res.m_ss, "tau_s": res.tau,
                   "tau_floored": res.floored, "eps": params.seed_polarization,
                   "converged": res.converged, "stop": res.stop,
                   "steps": res.steps, "nfev": res.nfev, "njev": res.njev}
        nonconverged = not res.converged
    summary["params"] = {"i_over_gamma": args.i, "j_over_gamma": args.j,
                         "h_over_gamma": args.h, "gamma": cfg.gamma(),
                         "projection_mode": params.projection_mode,
                         "seed_polarization": params.seed_polarization}
    final = traj.final_state
    summary["invariants"] = {
        "trace_deviation": abs(float(np.trace(final).real) - 1.0),
        "hermiticity_deviation": float(np.abs(final - final.conj().T).max()),
        "min_eigenvalue": float(np.linalg.eigvalsh(final).min()),
    }
    _write_json(args.out + "_summary.json", summary, cfg)
    if args.trajectory or args.t_end is not None:
        buf = _stamp(cfg) + "t_s,M_z\n"
        for t, m in zip(traj.times, traj.magnetization):
            buf += f"{t:.12g},{m:.12g}\n"
        write_atomic(args.out + "_trajectory.csv", buf)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_NONCONVERGED if nonconverged else EXIT_OK


def _cmd_sweep(args, cfg: RunConfig) -> int:
    grid = SweepGrid.from_rates(cfg["sweep", "i_over_gamma"], cfg["sweep", "j_over_gamma"])
    result = run_sweep(grid, gamma=cfg.gamma(), cmap=cfg.conditions(), workers=cfg.workers(),
                       controls=cfg.controls(), **cfg.sim_kwargs())
    result.provenance["tool_version"] = __version__
    result.provenance["config_hash"] = cfg.hash()
    save_sweep(result, args.out + "_cells.csv", args.out + "_manifest.json",
               header_comment=_stamp(cfg)[2:].strip())
    if args.gnuplot:
        write_atomic(args.out + "_m_abs.gp",
                     _stamp(cfg) + gnuplot_matrix(result, "m_abs"))
        write_atomic(args.out + "_tau.gp",
                     _stamp(cfg) + gnuplot_matrix(result, "tau"))
    n_fail = sum(1 for c in result.cells if not c.converged)
    print(f"sweep complete: {len(result.cells)} cells, {n_fail} unconverged")
    return EXIT_OK


def _cmd_contour(args, cfg: RunConfig) -> int:
    result = load_sweep(args.cells, args.manifest)
    xs, ys, line = _contour(result, args.axis, args.value, args.quantity)
    along, across = "I_over_Gamma", "J_over_Gamma"
    if args.axis == "fixed-I":
        along, across = across, along
    buf = _stamp(cfg) + f"{along},{args.quantity},{across}\n"
    for x, y in zip(xs, ys):
        buf += f"{x:.12g},{y:.12g},{line:.12g}\n"
    write_atomic(args.out, buf)
    print(f"contour with {len(xs)} points written to {args.out}")
    return EXIT_OK


def _cmd_susceptibility(args, cfg: RunConfig) -> int:
    i_values = parse_axis(args.i_values)
    rows = []
    for i in i_values:
        r = susceptibility(i, args.j, dh_over_gamma=args.dh, gamma=cfg.gamma(),
                           controls=cfg.controls(), **cfg.sim_kwargs())
        rows.append((i, r))
        print(f"I/Gamma={i:.4f}: chi*Gamma={r.chi * cfg.gamma():.4f} "
              f"(richardson {r.richardson_change:.2e}"
              f"{', ordered' if r.ordered_flag else ''})")
    buf = _stamp(cfg) + ("I_over_Gamma,chi,chi_coarse,richardson_change,ordered,"
                         "J_over_Gamma,dh_over_Gamma\n")
    for i, r in rows:
        buf += (f"{i:.12g},{r.chi:.12g},{r.chi_coarse:.12g},"
                f"{r.richardson_change:.6g},{int(r.ordered_flag)},"
                f"{args.j:.12g},{r.dh_over_gamma:.12g}\n")
    write_atomic(args.out, buf)
    return EXIT_OK


def _cmd_fit(args, cfg: RunConfig) -> int:
    x, y = _read_xy(args.input)
    result = fit(args.form, x, y, exclude=args.exclude)
    payload = dataclasses.asdict(result)
    payload["weights"] = payload.pop("weight_scheme")
    _write_json(args.out + "_fit.json", payload, cfg)
    if result.form != "delta":
        buf = _stamp(cfg) + "x,y,model,weight,weighted_residual\n"
        for xi, yi, mi, wi, ri in zip(x, y, *result.evaluate(x, y)):
            buf += f"{xi:.12g},{yi:.12g},{mi:.12g},{wi:.12g},{ri:.12g}\n"
        write_atomic(args.out + "_residuals.csv", buf)
        # log-log table of reduced distance against the measured quantity
        buf = _stamp(cfg) + "log10_reduced_distance,log10_y\n"
        for xi, yi in zip(x, y):
            u = reduced_distance(result.form, result.x0, xi)
            if u > 0 and yi > 0:
                buf += f"{np.log10(u):.12g},{np.log10(yi):.12g}\n"
        write_atomic(args.out + "_loglog.csv", buf)
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingas",
        description="Mean-field simulator of the optically driven magnetic "
                    "phase transition in a warm alkali spin gas.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override one configuration value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="pump-photon transition-probability table")
    p.add_argument("--csv", help="also write the table as CSV")

    p = sub.add_parser("simulate", help="single-point steady state / trajectory")
    p.add_argument("--i", type=float, default=0.0, help="pump rate I/Gamma")
    p.add_argument("--j", type=float, default=0.0, help="exchange rate J/Gamma")
    p.add_argument("--h", type=float, default=0.0, help="bias rate H/Gamma")
    p.add_argument("--t-end", type=float, default=None,
                   help="fixed horizon in seconds (default: run to steady state)")
    p.add_argument("--trajectory", action="store_true",
                   help="write the M_z(t) trace as CSV")
    p.add_argument("--dump-optics", default=None, metavar="PREFIX",
                   help="dump the coherence-fraction operators and the "
                        "quasi-steady excited matrix as CSV")
    p.add_argument("--out", default="spingas_run", help="output prefix")

    p = sub.add_parser("sweep", help="grid sweep over (I/Gamma, J/Gamma)")
    p.add_argument("--out", default="spingas_sweep", help="output prefix")
    p.add_argument("--gnuplot", action="store_true",
                   help="emit matrix-format tables for heat maps")

    p = sub.add_parser("contour", help="extract a 1-D series from a sweep")
    p.add_argument("--cells", required=True, help="sweep cells CSV")
    p.add_argument("--manifest", required=True, help="sweep manifest JSON")
    p.add_argument("--axis", choices=("fixed-J", "fixed-I"), required=True)
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--quantity", choices=MAP_QUANTITIES, default="m_abs")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("susceptibility", help="chi = dM/dH along an I scan")
    p.add_argument("--j", type=float, required=True, help="exchange rate J/Gamma")
    p.add_argument("--i-values", required=True,
                   help="axis 'lo:hi:n' or comma list of I/Gamma values")
    p.add_argument("--dh", type=float, default=1e-3, help="bias step (units of Gamma)")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("fit", help="critical-exponent fit of a series")
    p.add_argument("--input", required=True, help="CSV with columns x,y")
    p.add_argument("--form", choices=FORMS, required=True)
    p.add_argument("--exclude", type=int, default=None,
                   help="points near the maximum to drop (default: 0 for "
                        "beta, 2 for gamma/znu)")
    p.add_argument("--out", default="spingas_fit", help="output prefix")
    return parser


_COMMANDS = {
    "table2": _cmd_table2,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "contour": _cmd_contour,
    "susceptibility": _cmd_susceptibility,
    "fit": _cmd_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {}
        for item in args.set:
            key, _, val = item.partition("=")
            if not _:
                raise ConfigError(f"--set expects SEC.KEY=VALUE, got {item!r}")
            overrides[key.strip()] = val.strip()
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args, cfg)
    except (SchemaError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, (SchemaError, OSError)) else EXIT_CONFIG
    except NoTransitionError as exc:
        print(f"no transition: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (IntegrationError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
