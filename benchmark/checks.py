"""Output checks of the three workloads.

Every check compares an output with a separate method or with a property
the physics must have, never with a stored copy of an earlier output:

* phase-map: the ordered/disordered verdict of each converged cell against
  the sign of the exact linearization (``slow_mode_rate``) at the cell's
  effective pump rate; the T1 floor of disordered cells; an unconverged
  cell only where a positive slow mode cannot grow out of the seed within
  the time budget; one connected ordered region reaching |M| >= 0.35.
* slowdown: tau rising strictly toward I0, the nearest point beyond 100 T1,
  the seed sensitivity d tau / d ln(eps) against -1/lambda of the slow
  mode, and z*nu in its window.
* exponents: steady states on the two sides of each located boundary,
  chi * Gamma = 1 at I = 0, chi rising toward I0, and beta, gamma, delta
  in their windows.

Each function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import math

import numpy as np

from spingas.critfit import susceptibility
from spingas.dynamics import GAMMA_BASE, CompiledModel, SimParams, steady_state

from workloads import parse_cells

ORDERED_M = 0.01            # |M| above which a state counts as ordered
T1 = 1.0 / GAMMA_BASE
BUDGET_S = 2000.0 / GAMMA_BASE   # default steady-state time budget
WINDOWS = {"beta": (0.45, 0.55), "gamma": (0.85, 1.15), "delta": (2.7, 3.3),
           "znu": (0.85, 1.15)}


def slow_mode(i_over_gamma: float, j_over_gamma: float) -> float:
    p = SimParams.from_rates(i_over_gamma=i_over_gamma, j_over_gamma=j_over_gamma,
                             seed_polarization=0.0)
    return CompiledModel(p).slow_mode_rate()


def _components(mask: np.ndarray) -> int:
    """Number of 4-connected components of a boolean grid."""
    seen = np.zeros_like(mask)
    count = 0
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            r, c = stack.pop()
            for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if (0 <= rr < mask.shape[0] and 0 <= cc < mask.shape[1]
                        and mask[rr, cc] and not seen[rr, cc]):
                    seen[rr, cc] = True
                    stack.append((rr, cc))
    return count


def _window(problems, name, value):
    lo, hi = WINDOWS[name]
    if value is None or not lo <= value <= hi:
        problems.append(f"{name} = {value} outside [{lo}, {hi}]")


def check_phase_map(inp: dict, out: dict) -> list[str]:
    problems = []
    if out["exit_code"] != 0:
        return [f"spingas sweep exited with code {out['exit_code']}"]
    rows = parse_cells(out["cells_csv"])
    ni, nj = len(inp["i_axis"]), len(inp["j_axis"])
    if len(rows) != ni * nj:
        return [f"{len(rows)} cells written, {ni * nj} expected"]
    eps = inp["eps"]
    ordered = np.zeros((nj, ni), dtype=bool)
    m_max = 0.0
    for k, row in enumerate(rows):
        jj, ii = divmod(k, ni)
        i_ax, j_ax = float(row["I_over_Gamma"]), float(row["J_over_Gamma"])
        if i_ax != inp["i_axis"][ii] or j_ax != inp["j_axis"][jj]:
            problems.append(f"cell {k} at ({i_ax}, {j_ax}) is off the input grid")
            continue
        i_eff = float(row["I_effective"])
        m = float(row["M_signed"])
        lam = slow_mode(i_eff, j_ax)
        where = f"cell I_eff={i_eff:.4f} J={j_ax:.4f} (lambda={lam:.4g}/s, M={m:.3g})"
        if row["converged"] != "1":
            # the seed grows like eps*exp(lambda*t): a positive slow mode that
            # cannot reach the ordered branch within the budget is the only
            # accepted reason for a missing steady state
            if not (lam > 0 and lam * BUDGET_S < math.log(1.0 / eps)):
                problems.append(f"{where} did not converge ({row['error']})")
            continue
        is_ordered = abs(m) > ORDERED_M and math.copysign(1.0, m) == math.copysign(1.0, eps)
        if is_ordered != (lam > 0):
            problems.append(f"{where} ordered={is_ordered} disagrees with the slow mode")
        if is_ordered:
            ordered[jj, ii] = True
            m_max = max(m_max, abs(m))
        elif row["tau_floored"] != "1" or not math.isclose(float(row["tau_s"]), T1,
                                                           rel_tol=1e-12):
            problems.append(f"{where} is disordered but tau = {row['tau_s']} "
                            f"(floored={row['tau_floored']}) is not T1")
    n_comp = _components(ordered)
    if n_comp != 1:
        problems.append(f"ordered region has {n_comp} components")
    if m_max < 0.35:
        problems.append(f"max |M| = {m_max:.3f} < 0.35")
    return problems


def check_slowdown(inp: dict, out: dict) -> list[str]:
    problems = []
    taus = out.get("taus")
    if out.get("i0") is None or taus is None or None in taus:
        return ["slowdown series incomplete"]
    order = np.argsort(out["xs"])
    t = np.array(taus)[order]
    if not np.all(np.diff(t) < 0):
        problems.append(f"tau does not rise strictly toward I0: {t.tolist()}")
    if t[0] <= 100 * T1:
        problems.append(f"nearest tau = {t[0]:.4g} s is not beyond 100 T1")
    lam = slow_mode(out["x_sens"], inp["j"])
    expected = -1.0 / lam
    got = out.get("dtau_dlog_eps")
    if got is None or abs(got - expected) > 0.02 * abs(expected):
        problems.append(f"dtau/dln(eps) = {got} differs from -1/lambda = "
                        f"{expected:.6g} by more than 2%")
    _window(problems, "znu", out.get("znu"))
    return problems


def check_exponents(inp: dict, out: dict) -> list[str]:
    problems = []
    for key in ("i0_beta", "i0_chi", "beta", "gamma", "delta"):
        if out.get(key) is None:
            problems.append(f"{key} missing")
    if problems:
        return problems

    # each located boundary separates a disordered state at 0.97 I0 from an
    # ordered one at 1.03 I0; on the beta contour the series holds them
    sides = {}
    for r, m in zip(inp["beta_ratios"], out["beta_m"]):
        if r in (0.97, 1.03):
            sides[("beta", r)] = m
    for r in (0.97, 1.03):
        p = SimParams.from_rates(i_over_gamma=out["i0_chi"] * r,
                                 j_over_gamma=inp["chi_j"])
        sides[("chi", r)] = steady_state(p).m_ss
    for contour in ("beta", "chi"):
        below, above = sides.get((contour, 0.97)), sides.get((contour, 1.03))
        if below is None or above is None or not (
                abs(below) <= ORDERED_M < abs(above)):
            problems.append(f"{contour} boundary: |M| = {below} at 0.97 I0 and "
                            f"{above} at 1.03 I0 are not on opposite sides")

    # at I = 0 the bias response is fixed by calibration: chi * Gamma = 1.
    # The error of a difference quotient is at most the change between
    # steps dh and 2 dh when it grows at least linearly with the step, so
    # the extrapolation 2 chi(dh) - chi(2 dh) must lie within that change.
    r0 = susceptibility(0.0, inp["chi_j"], dh_over_gamma=inp["chi_dh"],
                        check_ordered=False)
    chi0 = (2.0 * r0.chi - r0.chi_coarse) * GAMMA_BASE
    if abs(chi0 - 1.0) > r0.richardson_change:
        problems.append(f"chi*Gamma at I=0 extrapolates to {chi0:.8f}, not 1 within "
                        f"its Richardson change {r0.richardson_change:.2e}")

    order = np.argsort(out["chi_x"])
    chis = np.array(out["chi"])[order]
    if not np.all(np.diff(chis) > 0):
        problems.append(f"chi does not rise toward I0: {chis.tolist()}")
    for name in ("beta", "gamma", "delta"):
        _window(problems, name, out[name])
    return problems


CHECKS = {
    "phase-map": check_phase_map,
    "slowdown": check_slowdown,
    "exponents": check_exponents,
}
