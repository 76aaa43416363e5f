"""The three workloads: inputs made from a seed, and one round of calls.

Each workload is a closed loop from a single client: it issues the next
call only when the previous one has returned.  A round performs the same
operations on the same inputs every time; the seed only jitters grid lines
and series points by at most ``JITTER`` of their spacing (in log spacing
for geometric series), so the work stays comparable between seeds.

For each workload, ``<name>_inputs(seed)`` returns plain numbers and
``<name>_round(inp, ctx)`` calls the package once through every operation
and returns a dict of outputs (plain numbers, lists or bytes) with the
round's ``Failures`` record.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# calls go through the module namespaces, so that the tracer's wrappers
# (installed there) see them
from spingas import cli, critfit, dynamics, sweep
from spingas.dynamics import GAMMA_BASE, SimParams

JITTER = 0.02        # largest shift of a point, as a share of its spacing
WORKERS = 2          # pool size: the cores of the reference machine
T1 = 1.0 / GAMMA_BASE


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, name))])


def _jitter_linear(axis, rng):
    """Shift each point of an evenly spaced axis by up to JITTER x spacing;
    the end points only move inward so the span never grows."""
    axis = np.asarray(axis, dtype=float)
    step = axis[1] - axis[0]
    shift = rng.uniform(-JITTER, JITTER, len(axis)) * step
    shift[0] = abs(shift[0])
    shift[-1] = -abs(shift[-1])
    return axis + shift


def _jitter_geometric(lo, hi, n, rng):
    """Geometric series from lo to hi, each point moved by up to JITTER of
    the log spacing."""
    u = np.linspace(math.log(lo), math.log(hi), n)
    du = u[1] - u[0]
    return np.exp(u + rng.uniform(-JITTER, JITTER, n) * du)


class Failures:
    """Operations of one round.  ``attempted`` is fixed by the inputs, so an
    operation skipped because an earlier one failed also counts as failed."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.succeeded = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def call(self, label, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            # IntegrationError and the fit errors are RuntimeErrors
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.succeeded += 1
        return result


# -- phase-map ---------------------------------------------------------------

PHASE_AXIS = (0.5, 6.0, 7)   # I/Gamma and J/Gamma: lo, hi, lines


def phase_map_inputs(seed: int) -> dict:
    rng = _rng("phase-map", seed)
    base = np.linspace(*PHASE_AXIS)
    return {"i_axis": _jitter_linear(base, rng).tolist(),
            "j_axis": _jitter_linear(base, rng).tolist(),
            "attenuation": "path-averaged",
            "eps": 1e-4,
            "workers": WORKERS}


def phase_map_argv(inp: dict, workers: int, out_prefix: str) -> list[str]:
    def axis(values):
        return ",".join(repr(float(v)) for v in values)
    return ["--set", f"sweep.i_over_gamma={axis(inp['i_axis'])}",
            "--set", f"sweep.j_over_gamma={axis(inp['j_axis'])}",
            "--set", f"conditions.attenuation_mode={inp['attenuation']}",
            "--set", f"numerics.seed_polarization={inp['eps']!r}",
            "--set", f"sweep.workers={workers}",
            "sweep", "--out", out_prefix]


def phase_map_round(inp: dict, ctx: dict, workers: int | None = None) -> dict:
    """``spingas sweep`` through the CLI entry point; returns the artifacts."""
    workers = inp["workers"] if workers is None else workers
    prefix = os.path.join(ctx["work_dir"], f"sweep-w{workers}")
    code = cli.main(phase_map_argv(inp, workers, prefix))
    fails = Failures(len(inp["i_axis"]) * len(inp["j_axis"]))
    out = {"exit_code": code, "failures": fails, "cells_csv": b"", "manifest": b""}
    if code != 0:
        fails.errors.append(f"spingas sweep exited with code {code}")
        return out
    with open(prefix + "_cells.csv", "rb") as fh:
        out["cells_csv"] = fh.read()
    with open(prefix + "_manifest.json", "rb") as fh:
        out["manifest"] = fh.read()
    out["artifact_bytes"] = len(out["cells_csv"]) + len(out["manifest"])
    # a cell that raised or did not reach a steady state is a failed operation
    for row in parse_cells(out["cells_csv"]):
        if row["converged"] == "1":
            fails.succeeded += 1
        else:
            fails.errors.append(f"cell I={row['I_over_Gamma']} J={row['J_over_Gamma']}: "
                                f"{row['error'] or 'not converged'}")
    return out


def parse_cells(cells_csv: bytes) -> list[dict]:
    """Rows of a sweep cells CSV as dicts of strings."""
    lines = [ln for ln in cells_csv.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# -- slowdown ----------------------------------------------------------------

SLOW_J = 3.7
SLOW_SERIES = (0.04, 0.50, 12)   # reduced distances I/I0 - 1: lo, hi, points
SLOW_SENS_AT = 0.06              # seed sensitivity at I = (1 + 0.06) I0


def slowdown_inputs(seed: int) -> dict:
    rng = _rng("slowdown", seed)
    lo, hi, n = SLOW_SERIES
    return {"j": SLOW_J,
            "reduced": _jitter_geometric(lo, hi, n, rng).tolist(),
            "sens_reduced": SLOW_SENS_AT * (1.0 + rng.uniform(-JITTER, JITTER)),
            "factors": [1.0, 0.1]}


def slowdown_round(inp: dict, ctx: dict) -> dict:
    # locator, one response time per point, seed sensitivity, z*nu fit
    f = Failures(len(inp["reduced"]) + 3)
    j = inp["j"]
    i0 = f.call("critical_pump_rate", dynamics.critical_pump_rate, j)
    out = {"i0": i0, "failures": f}
    if i0 is None:
        return out
    xs = [i0 * (1.0 + r) for r in inp["reduced"]]
    taus = []
    for x in xs:
        r = f.call(f"response_time({x:.4f})", dynamics.response_time,
                   SimParams.from_rates(i_over_gamma=x, j_over_gamma=j))
        taus.append(None if r is None else r.tau)
    x_sens = i0 * (1.0 + inp["sens_reduced"])
    sens = f.call("seed_sensitivity", dynamics.seed_sensitivity,
                  SimParams.from_rates(i_over_gamma=x_sens, j_over_gamma=j),
                  factors=tuple(inp["factors"]))
    ok = [(x, t) for x, t in zip(xs, taus) if t is not None]
    fit = f.call("fit_znu", critfit.fit_znu, [x for x, _ in ok], [t for _, t in ok],
                 t1_floor=T1)
    out.update(xs=xs, taus=taus, x_sens=x_sens,
               dtau_dlog_eps=None if sens is None else sens["dtau_dlog_eps"],
               znu=None if fit is None else fit.exponent)
    return out


# -- exponents ---------------------------------------------------------------

BETA_J = 3.8
BETA_BELOW = (0.75, 0.97, 3)     # I/I0 on the disordered side, linear
BETA_ABOVE = (0.03, 0.15, 7)     # I/I0 - 1 on the ordered side, geometric
CHI_J = 2.3
CHI_SERIES = (0.04, 0.22, 6)     # 1 - I/I0, geometric
CHI_DH = 5e-4
ISO_H = (1e-3, 4e-2, 4)          # H/Gamma on the critical isotherm, geometric


def exponents_inputs(seed: int) -> dict:
    rng = _rng("exponents", seed)
    below = _jitter_linear(np.linspace(*BETA_BELOW), rng)
    above = _jitter_geometric(*BETA_ABOVE, rng)
    ratios = below.tolist() + (1.0 + above).tolist()
    # the bracket points 0.97 I0 and 1.03 I0 stay exact: the checks use them
    ratios[len(below) - 1], ratios[len(below)] = 0.97, 1.03
    return {"beta_j": BETA_J,
            "beta_ratios": ratios,
            "chi_j": CHI_J,
            "chi_ratios": (1.0 - _jitter_geometric(*CHI_SERIES, rng)).tolist(),
            "chi_dh": CHI_DH,
            "iso_h": _jitter_geometric(*ISO_H, rng).tolist(),
            "workers": WORKERS}


def exponents_round(inp: dict, ctx: dict) -> dict:
    # two locators, the beta points and fit, the chi points and fit, the
    # isotherm points and fit
    f = Failures(2 + len(inp["beta_ratios"]) + len(inp["chi_ratios"])
                 + len(inp["iso_h"]) + 3)
    out = {"failures": f}
    i0_beta = f.call("critical_pump_rate(beta)", dynamics.critical_pump_rate, inp["beta_j"])
    i0_chi = f.call("critical_pump_rate(chi)", dynamics.critical_pump_rate, inp["chi_j"])
    out.update(i0_beta=i0_beta, i0_chi=i0_chi)

    if i0_beta is not None:
        pts = [i0_beta * r for r in inp["beta_ratios"]]
        x, m = sweep.refine_contour("fixed-J", inp["beta_j"], pts, quantity="m_abs",
                              workers=inp["workers"])
        bad = ~np.isfinite(m)
        f.succeeded += int((~bad).sum())
        out["beta_x"], out["beta_m"] = x.tolist(), m.tolist()
        fit = f.call("three_step_fit(beta)", critfit.three_step_fit, x[~bad], m[~bad],
                     critfit.FitSpec(form="beta"))
        out["beta"] = None if fit is None else fit.exponent

    if i0_chi is not None:
        xs, chis = [], []
        for r in inp["chi_ratios"]:
            res = f.call(f"susceptibility({r:.4f})", critfit.susceptibility, i0_chi * r,
                         inp["chi_j"], dh_over_gamma=inp["chi_dh"],
                         check_ordered=False)
            if res is not None:
                xs.append(i0_chi * r)
                chis.append(res.chi * GAMMA_BASE)
        out["chi_x"], out["chi"] = xs, chis
        fit = f.call("fit_gamma", critfit.fit_gamma, xs, chis, exclude=0)
        out["gamma"] = None if fit is None else fit.exponent

        hs, ms = [], []
        for h in inp["iso_h"]:
            res = f.call(f"steady_state(H={h:.2e})", dynamics.steady_state,
                         SimParams.from_rates(i_over_gamma=i0_chi,
                                              j_over_gamma=inp["chi_j"],
                                              h_over_gamma=h,
                                              seed_polarization=0.0))
            if res is not None:
                hs.append(h)
                ms.append(res.m_ss)
        out["iso_h"], out["iso_m"] = hs, ms
        fit = f.call("fit_delta", critfit.fit_delta, hs, ms)
        out["delta"] = None if fit is None else fit.exponent
    return out


# -- registry ----------------------------------------------------------------

def warm_up(name: str, inp: dict) -> None:
    """Fill the per-process calibration caches the round will use, so that
    the timed rounds measure the work and ``setup_s`` the set-up."""
    SimParams.from_rates(i_over_gamma=1.0, j_over_gamma=1.0)
    if name == "exponents":
        SimParams.from_rates(j_over_gamma=inp["chi_j"], h_over_gamma=1e-3)


WORKLOADS = {
    "phase-map": (phase_map_inputs, phase_map_round),
    "slowdown": (slowdown_inputs, slowdown_round),
    "exponents": (exponents_inputs, exponents_round),
}

# cores a workload's timed rounds run on; ``exponents`` is serial except
# for the pool of refine_contour, which needs its WORKERS cores
CORES = {"phase-map": WORKERS, "slowdown": 1, "exponents": WORKERS}
