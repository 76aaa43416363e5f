"""Critical-exponent extraction by staged weighted power-law fits.

Four fit forms cover the order parameter, the response to a bias, the
susceptibility, and the dynamic slow-down:

    beta:   M(X)  = M0   (1 - X0/X)^beta      for X > X0, zero below
    delta:  M(H)  = (H/Gamma)^(1/delta)        (log-log slope)
    gamma:  chi(X)= chi0 (X0/X - 1)^(-gamma)   for X < X0
    znu:    tau(X)= tau0 (1 - X0/X)^(-znu)     for X > X0

The three nonlinear forms differ only in two signs, written once in the
table ``_FORM_RULES``: the side of X0 the data live on, which fixes the
reduced distance u = side (1 - X0/X) (u = 1 - X0/X for beta and znu,
X0/X - 1 for gamma), and the sign of the exponent, y = A u^(sign p) (+p for
the vanishing beta form, -p for the divergent gamma and znu forms).  The
model, its Jacobian, the log-log inner fit, the side of the critical-point
candidates and bounds, and the CLI's log-log table all read that table.

The nonlinear forms are fitted in two stages (:func:`three_step_fit`, a
name kept from an earlier three-stage design): a log-log scan over
critical-point candidates, then one bounded least-squares refinement of
the critical point and the exponent, with the amplitude, which enters
linearly, solved in closed form at each step (variable projection; Golub
and Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).  Both run on the data
divided by max x and max |y| and on the weights over their mean, so the
fit does not depend on the data's units.  The form fixes the weights of
every fit: (Gamma/X)^3 for the divergent forms, to compensate
for the finite measured values near the critical point, uniform for beta.
:func:`fit` holds each form's exclusions: by default the divergent forms
drop the points nearest the maximal measured value.

The solver, ``scipy.optimize.least_squares``, is imported on the first fit,
so importing the package, building models and reading sweeps load no
scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    GAMMA_BASE,
    CompiledModel,
    IntegrationControls,
    SimParams,
    _classified,
    steady_state,
)

FORMS = ("beta", "gamma", "znu", "delta")

# The form table, (side, exponent sign), of the module docstring.
_FORM_RULES = {"beta": (+1.0, +1.0), "gamma": (-1.0, -1.0), "znu": (+1.0, -1.0)}

ZERO_LEVEL = 1e-3   # fraction of max |y| treated as "no signal"
N_CANDIDATES = 25   # stage-1 critical-point candidates


class FitError(RuntimeError):
    pass


class NoTransitionError(FitError):
    """Raised when a series shows no critical structure to fit."""


@dataclass(frozen=True)
class FitSpec:
    form: str
    exclude_near_max: int = 0

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown fit form {self.form!r}")
        if self.exclude_near_max < 0:
            raise ValueError("exclusion count must be >= 0")


@dataclass
class FitResult:
    form: str
    exponent: float
    x0: float
    amplitude: float
    exponent_err: float
    x0_err: float
    amplitude_err: float
    residual_norm: float
    n_used: int
    n_excluded: int
    weight_scheme: str
    diagnostics: dict = field(default_factory=dict)

    def evaluate(self, x, y):
        """Model, weight and weighted residual at each point (x, y)."""
        if self.form not in _FORM_RULES:
            raise ValueError(f"the {self.form} form has no per-point evaluation")
        x = np.asarray(x, dtype=float)
        model, _ = _model_and_jac(self.form, np.array([self.amplitude, self.x0,
                                                       self.exponent]), x)
        w = _weights(x, self.weight_scheme)
        return model, w, np.sqrt(w) * (model - y)


def _weights(x: np.ndarray, scheme: str) -> np.ndarray:
    if scheme == "uniform":
        return np.ones_like(x)
    # abscissae are in units of Gamma, so (Gamma/X)^3 = x^-3
    return x ** -3.0


def reduced_distance(form: str, x0, x):
    """u = side (1 - x0/x) of a nonlinear form: positive on its data side."""
    side, _ = _FORM_RULES[form]
    return side * (1.0 - x0 / x)


def _model_and_jac(form: str, params: np.ndarray, x: np.ndarray):
    """Model values and Jacobian columns d/d(amplitude, x0, exponent).

    Beyond x0 a vanishing form is zero and a divergent one infinite."""
    a, x0, p = params
    side, sign = _FORM_RULES[form]
    e = sign * p
    u = reduced_distance(form, x0, x)
    mask = u > 0
    um = np.where(mask, u, 1.0)
    y = np.where(mask, a * um ** e, 0.0 if sign > 0 else np.inf)
    da = np.where(mask, um ** e, 0.0)
    # du/dx0 = -side/x
    dx0 = np.where(mask, (-side * sign) * a * p * um ** (e - 1.0) / x, 0.0)
    dp = np.where(mask, sign * a * um ** e * np.log(um), 0.0)
    return y, np.stack([da, dx0, dp], axis=1)


def weighted_residuals(form: str, params, x, y, w) -> np.ndarray:
    model, _ = _model_and_jac(form, np.asarray(params, dtype=float),
                              np.asarray(x, dtype=float))
    return np.sqrt(w) * (model - y)


def _signal(y: np.ndarray) -> np.ndarray:
    absy = np.abs(y)
    return absy > ZERO_LEVEL * absy.max()


def _stage1_candidates(form: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Critical-point candidates bracketing the onset, widened by 20%."""
    signal = _signal(y)
    if form == "beta" and (~signal).any() and signal.any():
        # last quiet point below the first active point
        first_sig = x[signal].min()
        quiet = x[(~signal) & (x < first_sig)]
        if len(quiet):
            lo, hi = quiet.max(), first_sig
            lo, hi = lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo)
            return np.linspace(max(lo, 1e-9), hi, N_CANDIDATES)
    xa = x[signal] if signal.any() else x
    side, _ = _FORM_RULES[form]
    if side < 0:  # the critical point sits above the data
        return np.linspace(xa.max() * 1.002, xa.max() * 1.6, N_CANDIDATES)
    return np.linspace(xa.min() * 0.5, xa.min() * 0.998, N_CANDIDATES)


def _log_linear_inner(form: str, x0: float, x: np.ndarray, y: np.ndarray,
                      w: np.ndarray):
    """Amplitude and exponent at fixed x0, by weighted log-log regression."""
    u = reduced_distance(form, x0, x)
    ok = (u > 0) & (y > 0)
    if ok.sum() < 3:
        return None
    lu, ly, lw = np.log(u[ok]), np.log(y[ok]), w[ok]
    sw = lw.sum()
    mu_u = (lw * lu).sum() / sw
    mu_y = (lw * ly).sum() / sw
    var = (lw * (lu - mu_u) ** 2).sum()
    if var <= 0:
        return None
    slope = (lw * (lu - mu_u) * (ly - mu_y)).sum() / var
    inter = mu_y - slope * mu_u
    exponent = _FORM_RULES[form][1] * slope
    if exponent <= 0:
        return None
    return math.exp(inter), exponent


def _covariance(jac: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    m, n = jac.shape
    dof = max(m - n, 1)
    s2 = float(residuals @ residuals) / dof
    try:
        cov = np.linalg.inv(jac.T @ jac) * s2
    except np.linalg.LinAlgError:
        cov = np.full((n, n), np.nan)
    return cov


def three_step_fit(x, y, spec: FitSpec) -> FitResult:
    """Weighted fit of one of the critical forms, in two stages (the name
    is kept from an earlier three-stage design).

    Stage 1 scans critical-point candidates by log-log regression.  Stage 2
    refines (x0, exponent) from the best one by one bounded least-squares
    solve, with the amplitude solved in closed form at every step.  Both run
    on x / max x, y / max |y| and the weights over their mean, so rescaling x
    or y rescales x0 or the amplitude and leaves the exponent.  The form
    fixes the weights.  Requires at least 6 points, x finite and > 0, y
    finite."""
    from scipy.optimize import least_squares  # imported on first use

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.form not in _FORM_RULES:
        raise ValueError("use fit_delta for the log-log bias form")
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if not (np.isfinite(x) & (x > 0)).all():
        raise ValueError("x must be finite and > 0")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if len(x) < 6:
        raise ValueError("need at least 6 points to fit")
    order = np.argsort(x)
    x, y = x[order], y[order]
    if np.abs(y).max() == 0:
        raise NoTransitionError("series is identically zero: no transition detected")

    n_excluded = 0
    if spec.exclude_near_max > 0:
        drop = np.argsort(np.abs(y))[-spec.exclude_near_max:]
        keep = np.ones(len(x), dtype=bool)
        keep[drop] = False
        x, y = x[keep], y[keep]
        n_excluded = int((~keep).sum())
        if len(x) < 6:
            raise ValueError("exclusion left fewer than 6 points")
    scheme = "gamma-cubed" if _FORM_RULES[spec.form][1] < 0 else "uniform"
    w = _weights(x, scheme)
    # the fit's units: the results scale back by (amplitude, x0, exponent)
    scale = np.array([np.abs(y).max(), x.max(), 1.0])
    xs, ys, ws = x / scale[1], y / scale[0], w / w.mean()

    best = None
    for x0 in _stage1_candidates(spec.form, xs, ys):
        inner = _log_linear_inner(spec.form, x0, xs, ys, ws)
        if inner is None:
            continue
        a, p = inner
        r = weighted_residuals(spec.form, (a, x0, p), xs, ys, ws)
        r = r[np.isfinite(r)]
        sse = float(r @ r)
        if best is None or sse < best[0]:
            best = (sse, a, x0, p)
    if best is None:
        raise NoTransitionError("no critical-point candidate produced a valid fit")
    p_stage1 = np.array(best[1:]) * scale

    sig = _signal(ys)
    xa = xs[sig] if sig.any() else xs
    if spec.form == "beta":
        lo_x0, hi_x0 = xs.min() * 0.2, 1.0
    elif _FORM_RULES[spec.form][0] < 0:
        lo_x0, hi_x0 = xa.max() * 1.0000001, xa.max() * 3.0
    else:
        lo_x0, hi_x0 = xa.min() * 0.05, xa.min() * 0.9999999
    sw = np.sqrt(ws)

    def projected(q):
        """At (x0, exponent) = q: the amplitude a = sum(w f y) / sum(w f^2) of
        the unit-amplitude model f, the residuals (1e12 where f is infinite)
        and their Jacobian sqrt(w) (a df + f da)."""
        f, df = _model_and_jac(spec.form, np.array([1.0, *q]), xs)
        fin = np.isfinite(f)
        f, df = np.where(fin, f, 0.0), df[:, 1:]
        den = float(ws @ f ** 2)
        a = float(ws @ (f * ys)) / den
        da = ((ws * ys) @ df - 2.0 * a * ((ws * f) @ df)) / den
        jac = sw[:, None] * (a * df + f[:, None] * da)
        return a, np.where(fin, sw * (a * f - ys), 1e12), jac

    lo, hi = [lo_x0, 1e-3], [hi_x0, 50.0]
    sol = least_squares(lambda q: projected(q)[1], np.clip(best[2:], lo, hi),
                        jac=lambda q: projected(q)[2], bounds=(lo, hi),
                        method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14)
    p_fit = np.array([projected(sol.x)[0], *sol.x])
    _, j_fit = _model_and_jac(spec.form, p_fit, xs)
    errs = np.sqrt(np.abs(np.diag(_covariance(sw[:, None] * j_fit, sol.fun)))) * scale
    p_final = p_fit * scale

    r = weighted_residuals(spec.form, p_final, x, y, w)
    r = np.where(np.isfinite(r), r, 0.0)
    stage_log = [{"stage": k, "amplitude": p[0], "x0": p[1], "exponent": p[2]}
                 for k, p in ((1, p_stage1), (2, p_final))]
    return FitResult(
        form=spec.form,
        exponent=float(p_final[2]), x0=float(p_final[1]), amplitude=float(p_final[0]),
        exponent_err=float(errs[2]), x0_err=float(errs[1]), amplitude_err=float(errs[0]),
        residual_norm=float(np.sqrt(r @ r)),
        n_used=len(x), n_excluded=n_excluded, weight_scheme=scheme,
        diagnostics={"stages": stage_log},
    )


@dataclass
class SusceptibilityResult:
    chi: float
    chi_coarse: float
    richardson_change: float
    dh_over_gamma: float
    ordered_flag: bool


def susceptibility(i_over_gamma: float, j_over_gamma: float,
                   dh_over_gamma: float = 1e-3, gamma: float = GAMMA_BASE,
                   check_ordered: bool = True,
                   controls: IntegrationControls | None = None,
                   **sim_kwargs) -> SusceptibilityResult:
    """chi = dM/dH at H = 0 by a symmetric finite difference.

    Runs the +/- bias pair with a zero symmetry-breaking seed so only the
    bias selects the sign, and reports the change of the estimate when the
    step doubles (Richardson consistency).  With ``check_ordered``, points
    where the +/- runs may land on spontaneous branches, so that the
    quotient measures M_spont/dH rather than a response, are flagged: those
    whose unbiased symmetric state a seed would leave, by the rule with
    which :func:`steady_state` classifies runs.  In 'hyperfine+zeeman' mode
    that is the boundary locators' rule, a positive slow-mode rate, which
    flags every point beyond the locator's I0, also those just beyond it
    whose spontaneous |M| is still small (on J = 2.3, I = 1.43, 1.435 and
    1.44 against I0 = 1.4287).  Where the symmetric state is no fixed point
    (see :meth:`CompiledModel.symmetric_fixed_point`), every point is
    flagged.  ``controls`` apply to every steady state."""
    if dh_over_gamma <= 0:
        raise ValueError("dh must be > 0")
    sim_kwargs = dict(sim_kwargs)
    sim_kwargs["seed_polarization"] = 0.0

    def m_at(h):
        p = SimParams.from_rates(i_over_gamma=i_over_gamma,
                                 j_over_gamma=j_over_gamma,
                                 h_over_gamma=h, gamma=gamma, **sim_kwargs)
        return steady_state(p, controls=controls).m_ss

    dh = dh_over_gamma * gamma
    chi = (m_at(dh_over_gamma) - m_at(-dh_over_gamma)) / (2 * dh)
    chi2 = (m_at(2 * dh_over_gamma) - m_at(-2 * dh_over_gamma)) / (4 * dh)
    ordered = check_ordered and _classified(CompiledModel(SimParams.from_rates(
        i_over_gamma=i_over_gamma, j_over_gamma=j_over_gamma, gamma=gamma,
        **sim_kwargs)), eps=1e-4) is None
    return SusceptibilityResult(
        chi=float(chi), chi_coarse=float(chi2),
        richardson_change=float(abs(chi2 - chi) / abs(chi)) if chi != 0 else float("nan"),
        dh_over_gamma=dh_over_gamma, ordered_flag=bool(ordered),
    )


def fit(form: str, x, y, exclude: int | None = None) -> FitResult:
    """Fit a series by its form's rules (``None`` takes the default
    exclusion); an exclusion the form does not take raises ValueError.  The
    form fixes the weights.  beta: uniform weights, 0 points excluded by
    default.  gamma and znu: gamma-cubed weights, 2 points excluded by
    default, and any exclusion reports its ``exclusion_sensitivity``.
    delta: :func:`fit_delta`, uniform weights and no exclusion."""
    if form not in FORMS:
        raise ValueError(f"unknown fit form {form!r}")
    if form == "delta":
        if exclude not in (None, 0):
            raise ValueError("the delta form excludes no points")
        return fit_delta(x, y)
    divergent = _FORM_RULES[form][1] < 0
    if exclude is None:
        exclude = 2 if divergent else 0
    out = three_step_fit(x, y, FitSpec(form, exclude))
    if divergent and exclude > 0:
        alt = three_step_fit(x, y, FitSpec(form))
        out.diagnostics["exclusion_sensitivity"] = out.exponent - alt.exponent
    return out


def fit_gamma(x, chi, exclude: int | None = None) -> FitResult:
    """Susceptibility divergence on the disordered side (see :func:`fit`)."""
    return fit("gamma", x, chi, exclude=exclude)


def fit_znu(x, tau, exclude: int | None = None, t1_floor: float | None = None) -> FitResult:
    """Dynamic slow-down divergence on the ordered side (see :func:`fit`).

    Points at the dark-lifetime floor, tau = ``t1_floor`` to a relative
    1e-12 (the tau :func:`steady_state` gives a floored point), carry no
    divergence information and are dropped; a series entirely at the floor
    has no transition to fit.  A non-finite tau is kept, for the fit to reject."""
    if t1_floor is not None:
        kept = [not math.isclose(t, t1_floor, rel_tol=1e-12) for t in tau]
        if not any(kept):
            raise NoTransitionError("all response times at the T1 floor: "
                                    "no divergence detected")
        x, tau = np.asarray(x, dtype=float)[kept], np.asarray(tau, dtype=float)[kept]
    return fit("znu", x, tau, exclude=exclude)


def fit_delta(h_over_gamma, m) -> FitResult:
    """Log-log slope fit of the bias response M = (H/Gamma)^(1/delta).

    Also fits the one-parameter linear law M = c H and reports which model
    the Bayesian information criterion prefers; away from criticality the
    linear law wins and the power-law result should not be quoted."""
    h = np.asarray(h_over_gamma, dtype=float)
    m = np.asarray(m, dtype=float)
    if not (np.isfinite(h).all() and np.isfinite(m).all()):
        raise ValueError("H and M must be finite")
    ok = (h > 0) & (m > 0)
    if ok.sum() < 4:
        raise FitError("need at least 4 positive (H, M) points")
    h, m = h[ok], m[ok]
    if h.max() / h.min() < 10 ** 1.5:
        raise FitError("bias range must span at least 1.5 decades")
    lh, lm = np.log(h), np.log(m)
    n = len(h)
    var = ((lh - lh.mean()) ** 2).sum()
    slope = ((lh - lh.mean()) * (lm - lm.mean())).sum() / var
    inter = lm.mean() - slope * lh.mean()
    resid = lm - (slope * lh + inter)
    s2 = float(resid @ resid) / max(n - 2, 1)
    slope_err = math.sqrt(s2 / var)
    delta = 1.0 / slope
    delta_err = slope_err / slope ** 2
    # model comparison against the linear law (slope pinned to 1)
    c_lin = math.exp((lm - lh).mean())
    resid_lin = lm - (lh + math.log(c_lin))
    bic_pow = _bic(float(resid @ resid), n, 2)
    bic_lin = _bic(float(resid_lin @ resid_lin), n, 1)
    # a slope indistinguishable from (or within 5% of) unity is reported as
    # the plain pumping law even when the extra parameter shaves residuals
    linear_preferred = bool(bic_lin <= bic_pow
                            or abs(slope - 1.0) < max(2.0 * slope_err, 0.05))
    return FitResult(
        form="delta",
        exponent=float(delta), x0=float("nan"), amplitude=math.exp(inter),
        exponent_err=float(delta_err), x0_err=float("nan"),
        amplitude_err=float(abs(math.exp(inter)) * math.sqrt(s2 / n)),
        residual_norm=float(np.sqrt(resid @ resid)),
        n_used=n, n_excluded=0, weight_scheme="uniform",
        diagnostics={
            "slope": slope, "slope_err": slope_err,
            "bic_power": bic_pow, "bic_linear": bic_lin,
            "linear_preferred": linear_preferred,
            "linear_coefficient": c_lin,
        },
    )


def _bic(sse: float, n: int, k: int) -> float:
    """Bayesian information criterion of a k-parameter least-squares fit to
    n points with residual sum of squares sse; -inf for an exact fit."""
    if sse == 0.0:
        return -math.inf
    return n * math.log(sse / n) + k * math.log(n)


def synthetic_series(form: str, amplitude: float, x0: float, exponent: float,
                     x, noise: float = 0.0, rng: np.random.Generator | None = None):
    """Noisy synthetic data drawn from a fit form (for recovery tests)."""
    x = np.asarray(x, dtype=float)
    y, _ = _model_and_jac(form, np.array([amplitude, x0, exponent]), x)
    y = np.where(np.isfinite(y), y, 0.0)
    if noise > 0:
        rng = rng if rng is not None else np.random.default_rng()
        y = y * (1.0 + noise * rng.standard_normal(len(x)))
    return y
