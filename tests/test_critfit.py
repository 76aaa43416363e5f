import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spingas import critfit
from spingas.critfit import (
    FitError,
    FitSpec,
    NoTransitionError,
    fit,
    fit_delta,
    fit_gamma,
    fit_znu,
    susceptibility,
    synthetic_series,
    three_step_fit,
    weighted_residuals,
    _model_and_jac,
    _weights,
)

GAMMA = 58.0


class TestExactRecovery:
    def test_beta(self):
        x = np.linspace(1.0, 3.2, 40)
        y = synthetic_series("beta", 0.6, 1.6, 0.5, x)
        r = three_step_fit(x, y, FitSpec(form="beta"))
        assert r.exponent == pytest.approx(0.5, rel=1e-6)
        assert r.x0 == pytest.approx(1.6, rel=1e-6)
        assert r.amplitude == pytest.approx(0.6, rel=1e-6)
        assert r.residual_norm < 1e-10

    def test_gamma(self):
        x = np.linspace(0.4, 1.32, 30)
        y = synthetic_series("gamma", 2.0, 1.4, 1.0, x)
        r = three_step_fit(x, y, FitSpec(form="gamma"))
        assert r.exponent == pytest.approx(1.0, rel=1e-6)
        assert r.x0 == pytest.approx(1.4, rel=1e-6)
        assert r.residual_norm < 1e-10

    def test_znu(self):
        x = np.linspace(1.7, 3.4, 30)
        y = synthetic_series("znu", 0.02, 1.6, 1.0, x)
        r = three_step_fit(x, y, FitSpec(form="znu"))
        assert r.exponent == pytest.approx(1.0, rel=1e-6)
        assert r.x0 == pytest.approx(1.6, rel=1e-6)
        assert r.residual_norm < 1e-10

    def test_delta(self):
        h = np.logspace(-1.5, 0.5, 15)
        r = fit_delta(h, h ** (1 / 3.0))
        assert r.exponent == pytest.approx(3.0, rel=1e-9)
        assert not r.diagnostics["linear_preferred"]


class TestNoisyRecovery:
    def test_beta_noise(self):
        rng = np.random.default_rng(11)
        x = np.linspace(1.0, 3.2, 40)
        y = synthetic_series("beta", 0.6, 1.6, 0.5, x, noise=0.01, rng=rng)
        r = three_step_fit(x, y, FitSpec(form="beta"))
        assert r.exponent == pytest.approx(0.5, abs=0.03)
        assert r.x0 == pytest.approx(1.6, abs=0.02)
        assert 0 < r.exponent_err < 0.05

    def test_gamma_noise(self):
        rng = np.random.default_rng(12)
        x = np.linspace(0.4, 1.32, 30)
        y = synthetic_series("gamma", 2.0, 1.4, 1.0, x, noise=0.02, rng=rng)
        r = fit_gamma(x, y)
        assert r.exponent == pytest.approx(1.0, abs=0.1)
        assert r.x0 == pytest.approx(1.4, abs=0.03)
        assert "exclusion_sensitivity" in r.diagnostics
        assert r.diagnostics["exclusion_sensitivity"] != 0.0

    def test_znu_noise(self):
        rng = np.random.default_rng(13)
        x = np.linspace(1.7, 3.4, 30)
        y = synthetic_series("znu", 0.02, 1.6, 1.0, x, noise=0.01, rng=rng)
        r = fit_znu(x, y)
        assert r.exponent == pytest.approx(1.0, abs=0.08)


class TestMechanics:
    def test_weighted_residuals_against_direct_sum(self):
        # oracle: the weighted sum of squares must equal a hand-built sum
        x = np.linspace(0.4, 1.3, 12)
        y = synthetic_series("gamma", 2.0, 1.4, 1.0, x, noise=0.05,
                             rng=np.random.default_rng(4))
        w = _weights(x, "gamma-cubed")
        assert np.allclose(w, (1.0 / x) ** 3)
        params = (2.1, 1.42, 0.95)
        r = weighted_residuals("gamma", params, x, y, w)
        model = 2.1 * (1.42 / x - 1.0) ** -0.95
        direct = sum(w_i * (m_i - y_i) ** 2 for w_i, m_i, y_i in zip(w, model, y))
        assert float(r @ r) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("form, params", [
        ("beta", (0.6, 1.6, 0.5)),
        ("gamma", (2.0, 1.4, 1.0)),
        ("znu", (0.02, 1.6, 1.3)),
    ])
    def test_jacobian_against_central_differences(self, form, params):
        # points on both sides of x0: on the data side every column matches
        # a central difference; beyond x0 the model is flat (0 or inf)
        x0 = params[1]
        x = x0 * np.array([0.5, 0.7, 0.9, 1.1, 1.4, 2.0])
        y, jac = _model_and_jac(form, np.array(params), x)
        data_side = (x > x0) if form != "gamma" else (x < x0)
        assert data_side.any() and (~data_side).any()
        assert np.all(y[~data_side] == (0.0 if form == "beta" else np.inf))
        assert np.all(jac[~data_side] == 0.0)
        xd = x[data_side]
        for k in range(3):
            step = 1e-6 * params[k]
            up, down = np.array(params), np.array(params)
            up[k] += step
            down[k] -= step
            fd = (_model_and_jac(form, up, xd)[0]
                  - _model_and_jac(form, down, xd)[0]) / (2 * step)
            assert np.allclose(jac[data_side, k], fd, rtol=1e-6, atol=0)

    def test_scale_equivariance(self):
        x = np.linspace(1.0, 3.2, 40)
        y = synthetic_series("beta", 0.6, 1.6, 0.5, x)
        r1 = three_step_fit(x, y, FitSpec(form="beta"))
        r2 = three_step_fit(4.2 * x, y, FitSpec(form="beta"))
        assert abs(r1.exponent - r2.exponent) < 1e-8
        assert r2.x0 / r1.x0 == pytest.approx(4.2, rel=1e-8)

    def test_requires_six_points(self):
        with pytest.raises(ValueError):
            three_step_fit([1, 2, 3], [0, 1, 2], FitSpec(form="beta"))

    @pytest.mark.parametrize("form, x", [
        ("znu", np.linspace(-2.0, -0.5, 10)),
        ("gamma", np.linspace(0.0, 1.8, 10)),
        ("beta", np.append(np.linspace(1.0, 3.0, 9), np.nan)),
        ("beta", np.append(np.linspace(1.0, 3.0, 9), np.inf))])
    def test_rejects_invalid_abscissae(self, form, x):
        # the fit forms divide by x and live on x > 0
        with pytest.raises(ValueError, match="finite and > 0"):
            three_step_fit(x, np.linspace(1.0, 2.0, 10), FitSpec(form=form))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_ordinates(self, bad):
        # a NaN (an unconverged cell) or an inf never becomes a fitted point
        x = np.linspace(1.7, 3.2, 20)
        series = {"beta": synthetic_series("beta", 0.6, 1.6, 0.5, x),
                  "gamma": synthetic_series("gamma", 2.0, 3.4, 1.0, x),
                  "znu": synthetic_series("znu", 0.02, 1.6, 1.0, x),
                  "delta": x ** (1 / 3.0)}
        for form, y in series.items():
            y[5] = bad
            with pytest.raises(ValueError, match="must be finite"):
                fit(form, x, y)
        with pytest.raises(ValueError, match="y must be finite"):
            three_step_fit(x, series["beta"], FitSpec(form="beta"))
        with pytest.raises(ValueError, match="y must be finite"):
            fit_znu(x, series["znu"], t1_floor=1 / GAMMA)

    def test_all_zero_series(self):
        x = np.linspace(1, 3, 10)
        with pytest.raises(NoTransitionError):
            three_step_fit(x, np.zeros(10), FitSpec(form="beta"))

    def test_tau_floor_series(self):
        x = np.linspace(1, 3, 10)
        tau = np.full(10, 1 / GAMMA)
        with pytest.raises(NoTransitionError):
            fit_znu(x, tau, t1_floor=1 / GAMMA)

    def test_znu_keeps_ordered_times_just_above_the_floor(self):
        # the last points are genuine response times between T1 and 1.5 T1
        x = np.geomspace(1.7, 20, 14)
        tau = synthetic_series("znu", 0.02, 1.6, 1.0, x)
        assert ((tau > 1 / GAMMA) & (tau <= 1.5 / GAMMA)).sum() >= 2
        r = fit_znu(x, tau, t1_floor=1 / GAMMA)
        assert (r.n_used, r.n_excluded) == (12, 2)
        assert r == fit("znu", x, tau)

    def test_znu_drops_the_points_at_the_floor(self):
        x = np.geomspace(1.7, 20, 14)
        tau = synthetic_series("znu", 0.02, 1.6, 1.0, x)
        tau[6] = 1 / GAMMA  # the tau steady_state gives a floored point
        r = fit_znu(x, tau, t1_floor=1 / GAMMA)
        assert r.n_used == 11
        assert r == fit("znu", np.delete(x, 6), np.delete(tau, 6))

    def test_delta_rejects_bad_input(self):
        with pytest.raises(FitError):
            fit_delta([0.1, 0.2, 0.3, 0.4], [-1, 0.1, 0.2, 0.3])
        with pytest.raises(FitError):
            fit_delta([0.1, 0.12, 0.14, 0.16], [0.1, 0.12, 0.14, 0.16])

    def test_delta_linear_preference(self):
        h = np.logspace(-2, 0, 12)
        r = fit_delta(h, 0.7 * h)
        assert r.diagnostics["linear_preferred"]
        assert r.diagnostics["linear_coefficient"] == pytest.approx(0.7)


class TestFitRules:
    """:func:`fit` decides each form's weights and exclusions; the form
    fixes the weights."""

    @pytest.mark.parametrize("exclude", [3, -1])
    def test_delta_takes_no_exclusion(self, exclude):
        h = np.logspace(-1.5, 0.5, 15)
        with pytest.raises(ValueError, match="excludes no points"):
            fit("delta", h, h ** (1 / 3.0), exclude=exclude)

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="unknown fit form"):
            fit("alpha", np.linspace(1.0, 2.0, 10), np.linspace(1.0, 2.0, 10))

    @pytest.mark.parametrize("form, x0, n_excluded, weights", [
        ("beta", 1.6, 0, "uniform"), ("gamma", 3.4, 2, "gamma-cubed"),
        ("znu", 0.8, 2, "gamma-cubed")])
    def test_defaults_follow_the_form(self, form, x0, n_excluded, weights):
        x = np.linspace(1.0, 3.2, 40)
        r = fit(form, x, synthetic_series(form, 0.6, x0, 0.5, x))
        assert (r.n_excluded, r.weight_scheme) == (n_excluded, weights)
        assert ("exclusion_sensitivity" in r.diagnostics) is (n_excluded > 0)

    def test_delta_is_fit_delta(self):
        h = np.logspace(-1.5, 0.5, 15)
        r = fit("delta", h, h ** (1 / 3.0), exclude=0)
        assert repr(r) == repr(fit_delta(h, h ** (1 / 3.0)))  # x0 is NaN
        assert (r.n_excluded, r.weight_scheme) == (0, "uniform")

    def test_beta_takes_any_exclusion(self):
        x = np.linspace(1.0, 3.2, 40)
        y = synthetic_series("beta", 0.6, 1.6, 0.5, x)
        r = fit("beta", x, y, exclude=3)
        assert (r.n_excluded, r.weight_scheme, r.n_used) == (3, "uniform", 37)
        assert "exclusion_sensitivity" not in r.diagnostics

    def test_named_fits_are_fit(self):
        rng = np.random.default_rng(12)
        x = np.linspace(0.4, 1.32, 30)
        y = synthetic_series("gamma", 2.0, 1.4, 1.0, x, noise=0.02, rng=rng)
        assert fit_gamma(x, y, exclude=1) == fit("gamma", x, y, exclude=1)
        x = np.linspace(1.7, 3.4, 30)
        y = synthetic_series("znu", 0.02, 1.6, 1.0, x, noise=0.01, rng=rng)
        assert fit_znu(x, y) == fit("znu", x, y)

    @pytest.mark.parametrize("named", [fit_gamma, fit_znu])
    def test_named_fits_take_the_default_exclusion_of_fit(self, named):
        assert inspect.signature(named).parameters["exclude"].default is None

    def test_evaluate_is_the_weighted_model(self):
        x = np.linspace(0.4, 1.3, 12)
        y = synthetic_series("gamma", 2.0, 1.4, 1.0, x, noise=0.05,
                             rng=np.random.default_rng(4))
        r = fit("gamma", x, y)
        model, w, wr = r.evaluate(x, y)
        assert np.array_equal(model, r.amplitude * (r.x0 / x - 1.0) ** -r.exponent)
        assert np.array_equal(w, x ** -3.0)
        assert np.array_equal(wr, np.sqrt(w) * (model - y))
        h = np.logspace(-1.5, 0.5, 15)
        with pytest.raises(ValueError, match="no per-point evaluation"):
            fit("delta", h, h ** (1 / 3.0)).evaluate(h, h)


def _series_grid(form, x0, n, gap, span):
    """n abscissae on the data side of x0 for the divergent forms, nearest
    at relative distance ``gap`` and farthest at x0 * span (znu) or
    x0 / span (gamma); on both sides, from x0 / span to x0 * span, for beta."""
    if form == "beta":
        return np.linspace(x0 / span, x0 * span, n)
    if form == "gamma":
        return np.linspace(x0 / span, x0 * (1.0 - gap), n)
    return np.linspace(x0 * (1.0 + gap), x0 * span, n)


def _used_points(x, y, n_excluded):
    """The points a fit keeps after dropping its n_excluded largest |y|."""
    keep = np.sort(np.argsort(np.abs(y))[:len(y) - n_excluded])
    return x[keep], y[keep]


class TestRecoveryProperty:
    """:func:`fit` recovers the parameters of a noiseless synthetic series,
    gives the same exponent for a series in other units, and
    :meth:`FitResult.evaluate` gives the residual the fit reports."""

    @settings(max_examples=45, derandomize=True, database=None, deadline=None)
    @given(form=st.sampled_from(("beta", "gamma", "znu")),
           exponent=st.floats(0.2, 3.0), x0=st.floats(0.3, 10.0),
           amplitude=st.floats(1e-12, 1e12), n=st.integers(8, 30),
           gap=st.floats(0.005, 0.1), span=st.floats(1.5, 4.0))
    # small series, which a solver tolerance in the data's units stops early
    @example(form="gamma", exponent=0.8, x0=1.4, amplitude=1e-7, n=30, gap=0.0571,
             span=3.5)
    @example(form="znu", exponent=0.8, x0=1.6, amplitude=1e-7, n=30, gap=0.0625,
             span=2.125)
    def test_noiseless_series_is_recovered(self, form, exponent, x0, amplitude,
                                           n, gap, span):
        x = _series_grid(form, x0, n, gap, span)
        y = synthetic_series(form, amplitude, x0, exponent, x)
        r = fit(form, x, y)
        assert r.exponent == pytest.approx(exponent, rel=1e-6)
        assert r.x0 == pytest.approx(x0, rel=1e-6)
        assert r.amplitude == pytest.approx(amplitude, rel=1e-6)
        _, _, wr = r.evaluate(*_used_points(x, y, r.n_excluded))
        assert np.sqrt(wr @ wr) == pytest.approx(r.residual_norm, rel=1e-12, abs=1e-300)

    @settings(max_examples=15, derandomize=True, database=None, deadline=None)
    @given(form=st.sampled_from(("beta", "gamma", "znu")),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 30))
    def test_evaluate_gives_the_residual_norm_of_a_noisy_fit(self, form, seed, n):
        x = _series_grid(form, 1.6, n, 0.02, 2.5)
        y = synthetic_series(form, 0.6, 1.6, 0.8, x, noise=0.05,
                             rng=np.random.default_rng(seed))
        r = fit(form, x, y)
        _, _, wr = r.evaluate(*_used_points(x, y, r.n_excluded))
        assert r.residual_norm > 0
        assert np.sqrt(wr @ wr) == pytest.approx(r.residual_norm, rel=1e-12)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(form=st.sampled_from(("beta", "gamma", "znu")),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 30),
           log_k=st.floats(-2.0, 2.0), log_c=st.floats(-12.0, 12.0))
    def test_rescaled_series_gives_the_same_fit(self, form, seed, n, log_k, log_c):
        x = _series_grid(form, 1.6, n, 0.02, 2.5)
        y = synthetic_series(form, 0.6, 1.6, 0.8, x, noise=0.05,
                             rng=np.random.default_rng(seed))
        k, c = 10.0 ** log_k, 10.0 ** log_c
        r, rs = fit(form, x, y), fit(form, k * x, c * y)
        assert rs.exponent == pytest.approx(r.exponent, rel=1e-6)
        assert rs.x0 == pytest.approx(k * r.x0, rel=1e-6)
        assert rs.amplitude == pytest.approx(c * r.amplitude, rel=1e-6)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(delta=st.floats(1.0, 6.0), amplitude=st.floats(1e-2, 1e2),
           n=st.integers(4, 30), decades=st.floats(1.5, 4.0))
    @example(delta=1.0, amplitude=1.0, n=4, decades=2.0)  # exact fits, log(0) in the BIC
    def test_noiseless_bias_response_is_recovered(self, delta, amplitude, n, decades):
        h = np.logspace(-decades, 0.0, n)
        r = fit("delta", h, amplitude * h ** (1.0 / delta))
        assert r.exponent == pytest.approx(delta, rel=1e-9)
        assert r.amplitude == pytest.approx(amplitude, rel=1e-9)


class TestSusceptibility:
    def test_disordered_limit(self):
        # analytic oracle: M = H/(H + Gamma) gives chi(0) = 1/Gamma
        r = susceptibility(0.0, 2.3, dh_over_gamma=1e-3, check_ordered=False)
        assert r.chi * GAMMA == pytest.approx(1.0, rel=0.01)
        assert r.richardson_change < 0.01

    def test_growth_toward_boundary(self):
        lo = susceptibility(0.5, 2.3, check_ordered=False)
        hi = susceptibility(1.2, 2.3, check_ordered=False)
        assert hi.chi > lo.chi > 0

    def test_ordered_flagged(self):
        r = susceptibility(2.5, 3.5, dh_over_gamma=1e-3)
        assert r.ordered_flag

    @pytest.mark.parametrize("i, kwargs, ordered", [
        (1.42, {}, False), (1.44, {}, True),
        # a symmetric state that is no fixed point
        (0.5, {"projection_mode": "hyperfine", "b_z": 1e-4}, True)])
    def test_ordered_flag_needs_no_steady_state(self, monkeypatch, i, kwargs, ordered):
        # the slow-mode sign on either side of I0(2.3) = 1.4287, with the
        # four runs of the finite differences and no other steady state
        runs = []
        run = critfit.steady_state

        def counted(*args, **kw):
            runs.append(args)
            return run(*args, **kw)
        monkeypatch.setattr(critfit, "steady_state", counted)
        assert susceptibility(i, 2.3, **kwargs).ordered_flag is ordered
        assert len(runs) == 4

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            susceptibility(0.5, 2.3, dh_over_gamma=0.0)
