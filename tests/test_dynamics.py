import gc
import json
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spingas import dynamics as dyn
from spingas import optics
from spingas.dynamics import (
    PROJECTION_MODES,
    CompiledModel,
    IntegrationControls,
    IntegrationError,
    SimParams,
    Trajectory,
    absorption_rate_unit,
    bias_rate_unit,
    critical_pump_rate,
    gamma_of_temperature,
    integrate,
    project_coherences,
    response_time,
    seed_sensitivity,
    spin_exchange_term,
    steady_state,
)
from spingas.optics import (
    DopplerSpec,
    FieldAction,
    OpticalChannel,
    atom_system,
    bias_field,
    cesium_collisions,
    couple_field,
    excited_quasi_steady,
    pump_field,
)
from spingas.cli import main
from spingas.sweep import SweepGrid, run_sweep
from conftest import random_density

GAMMA = 58.0


class LsodaRun:
    """One run of the LSODA driver, seen through the compiled step function
    it calls: the time and state of every accepted step, from t = 0, and
    LSODA's own counts (iwork[11] is nfev, iwork[12] njev), read after
    every call.  ``faults`` maps the number of an accepted step (the first
    is 1) to a function that writes a fault into the state LSODA returned
    there, in place, before the driver sees it.  ``step`` is the spy that
    the run calls in place of the step function."""

    def __init__(self, step, faults):
        self.times, self.states = [], []
        self.nfev = self.njev = 0

        def spy(*args):
            if not self.times:
                self.times.append(args[2])
                self.states.append(args[1].copy())
            y, t, istate = step(*args)
            if istate > 0:
                self.times.append(t)
                fault = faults.get(len(self.times) - 1)
                if fault:
                    fault(y)
                self.states.append(y.copy())
            iwork = args[9]
            self.nfev, self.njev = int(iwork[11]), int(iwork[12])
            return y, t, istate
        self.step = spy

    @property
    def t(self):
        return self.times[-1]

    @property
    def y(self):
        return self.states[-1]


@pytest.fixture()
def faults():
    """Faults for the runs of ``solvers`` (see :class:`LsodaRun`)."""
    return {}


@pytest.fixture()
def solvers(monkeypatch, faults):
    """Every LSODA run that ``_integrate_coords`` makes, in order; a run
    fetches the step function once."""
    made = []
    step = dyn._lsoda_step()

    def spy():
        made.append(LsodaRun(step, faults))
        return made[-1].step
    monkeypatch.setattr(dyn, "_lsoda_step", spy)
    return made


def assert_solver_counts(counts, solver):
    """The reported counts are the solver's own, as ``int``."""
    reported = [counts[k] for k in ("nfev", "njev")]
    assert reported == [solver.nfev, solver.njev]
    assert all(type(c) is int for c in reported)


def project_superop(sub, sop):
    """Reference projection of a full-space superoperator into subspace
    coordinates, one basis matrix at a time."""
    out = np.empty((sub.n, sub.n))
    for k, e in enumerate(np.eye(sub.n)):
        rho_k = sub.to_matrix(e)
        out[:, k] = sub.from_matrix((sop @ rho_k.reshape(-1)).reshape(rho_k.shape))
    return out


def rotated(model, mat):
    """A map ``mat`` of subspace coordinates in the model's unit-trace
    chart: Q^T mat [Q | u], acting on (z, 1)."""
    q = model.m_basis
    return q.T @ mat @ np.column_stack([q, model.u])


def chart_generator(model):
    """The model's linear generator [lin | lin_offset], acting on (z, 1)."""
    return np.column_stack([model.lin, model.lin_offset])


def reference_rhs(model, s):
    """d s/dt from the full-space reference path ``rhs_matrix``."""
    return model.sub.from_matrix(model.rhs_matrix(model.sub.to_matrix(s)))


def reference_magnetization(model, s):
    """Tr(rho F_z) / F_max of the coordinates ``s``."""
    return np.trace(model.sub.to_matrix(s) @ model.fz).real / model.f_max


def reference_jacobian(model):
    """d(reference_rhs)/ds in the n subspace coordinates, from the
    full-space reference path: the projected ``lin_superop`` plus
    qJ sum_j [(m_j.s) Q_j + (Q_j s) m_j^T], where m_j.s = Tr(rho S_j) and
    Q_j s holds the coordinates of the j-th exchange bracket of rho.
    Checked against finite differences below."""
    sub = model.sub
    lin = project_superop(sub, model.lin_superop)
    basis = [sub.to_matrix(e) for e in np.eye(sub.n)]
    m_rows = np.array([[np.trace(rho @ s).real for rho in basis]
                       for s in model.s_ops.matrices])
    brackets = [dyn._exchange_vector_bracket(rho, model.s_ops) for rho in basis]
    q_mats = [np.column_stack([sub.from_matrix(b[j]) for b in brackets]) for j in range(3)]

    def jacobian(s):
        out = lin.copy()
        if model.qj > 0:
            for m, q_mat in zip(m_rows, q_mats):
                out += model.qj * ((m @ s) * q_mat + np.outer(q_mat @ s, m))
        return out
    return jacobian


class TestExchangeTerm:
    def test_vanishes_on_mixed_state(self, system):
        # the isotropic part alone vanishes: direct component summation
        rho0 = np.eye(16) / 16
        s_mats = system.ops_g["S"].matrices
        iso = 0.75 * rho0 - sum(s @ rho0 @ s for s in s_mats)
        assert np.abs(iso).max() < 1e-14
        out = spin_exchange_term(rho0, 300.0, system.ops_g["S"])
        assert np.abs(out).max() < 1e-12

    def test_zero_rate(self, system, rng):
        out = spin_exchange_term(random_density(rng), 0.0, system.ops_g["S"])
        assert np.abs(out).max() == 0.0

    def test_conserves_total_spin(self, system, rng):
        fz = system.ops_g["F"].z
        for _ in range(100):
            out = spin_exchange_term(random_density(rng), 265.0, system.ops_g["S"])
            assert abs(np.trace(fz @ out).real) < 1e-10

    def test_trace_free_and_hermitian(self, system, rng):
        out = spin_exchange_term(random_density(rng), 265.0, system.ops_g["S"])
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12

    def test_phi_form_identity(self, system, rng):
        # independent construction: -qJ[3/4 rho - S rho S - sum_j M_j(...)]
        rho = random_density(rng)
        s_mats = system.ops_g["S"].matrices
        qj = 211.0
        m = [np.trace(rho @ s).real for s in s_mats]
        explicit = -(0.75 * rho - sum(s @ rho @ s for s in s_mats))
        crosses = [
            s_mats[1] @ rho @ s_mats[2] - s_mats[2] @ rho @ s_mats[1],
            s_mats[2] @ rho @ s_mats[0] - s_mats[0] @ rho @ s_mats[2],
            s_mats[0] @ rho @ s_mats[1] - s_mats[1] @ rho @ s_mats[0],
        ]
        for mj, sj, cross in zip(m, s_mats, crosses):
            explicit = explicit + mj * (rho @ sj + sj @ rho - 2j * cross)
        explicit *= qj
        out = spin_exchange_term(rho, qj, system.ops_g["S"])
        assert np.abs(out - explicit).max() < 1e-12

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(beta=st.floats(-3.0, 3.0), qj=st.floats(1.0, 1e5))
    def test_annihilates_spin_temperature_states(self, system, beta, qj):
        # exact oracle: exchange conserves F_z and drives to exp(beta F_z)/Z,
        # so it vanishes there (rounding is ~1e-16 qj; a random rho gives ~1e-2 qj)
        rho = expm(beta * system.ops_g["F"].z)
        rho /= np.trace(rho).real
        out = spin_exchange_term(rho, qj, system.ops_g["S"])
        assert np.abs(out).max() <= 1e-13 * qj


class TestProjection:
    def test_diagonal_unchanged(self, system, rng):
        rho = np.diag(rng.random(16)).astype(complex)
        rho /= np.trace(rho)
        for mode in ("hyperfine", "hyperfine+zeeman", "none"):
            out = project_coherences(rho, mode, system.basis_g)
            assert np.abs(out - rho).max() == 0.0

    def test_hyperfine_blocks_removed(self, system, rng):
        rho = random_density(rng)
        out = project_coherences(rho, "hyperfine", system.basis_g)
        sl3 = system.basis_g.block_slice(3)
        sl4 = system.basis_g.block_slice(4)
        assert np.abs(out[sl3, sl4]).max() == 0.0
        assert np.abs(out[sl4, sl3]).max() == 0.0
        # within-manifold coherences survive
        assert np.abs(out[sl3, sl3] - np.diag(np.diag(out[sl3, sl3]))).max() > 0

    def test_zeeman_mode_leaves_diagonal_only(self, system, rng):
        out = project_coherences(random_density(rng), "hyperfine+zeeman", system.basis_g)
        assert np.abs(out - np.diag(np.diag(out))).max() == 0.0

    def test_trace_preserved_exactly(self, system, rng):
        rho = random_density(rng)
        for mode in ("hyperfine", "hyperfine+zeeman"):
            out = project_coherences(rho, mode, system.basis_g)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


class TestCompiledModel:
    @pytest.mark.parametrize("mode", ["hyperfine+zeeman", "hyperfine"])
    def test_coords_match_matrix_path(self, mode, rng):
        p = SimParams.from_rates(i_over_gamma=1.5, j_over_gamma=3.0,
                                 h_over_gamma=0.4, projection_mode=mode,
                                 b_z=1e-4 if mode == "hyperfine" else 1.0)
        model = CompiledModel(p)
        s = model.sub.from_matrix(random_density(rng))
        rho = model.sub.to_matrix(s)
        d_coords = model.rhs_coords(s)
        d_ref = model.sub.from_matrix(model.rhs_matrix(rho))
        assert np.abs(d_coords - d_ref).max() < 1e-9 * max(np.abs(d_ref).max(), 1.0)

    @pytest.mark.parametrize("mode, n", [("hyperfine+zeeman", 16),
                                         ("hyperfine", 130), ("none", 256)])
    def test_jacobian_matches_finite_differences(self, mode, n, rng):
        p = SimParams.from_rates(i_over_gamma=1.5, j_over_gamma=3.0,
                                 h_over_gamma=0.4, projection_mode=mode)
        model = CompiledModel(p)
        assert model.sub.n == n
        jacobian, lin = reference_jacobian(model), project_superop(model.sub, model.lin_superop)
        tr_row = np.zeros(n)
        tr_row[:model.sub.dim] = 1.0
        q = model.m_basis
        for _ in range(2):
            s = model.sub.from_matrix(random_density(rng))
            jac = jacobian(s)
            # the rhs is quadratic, so central differences are exact up to
            # rounding; compare against the nonlinear part being tested
            h = 1e-4
            fd = np.column_stack([reference_rhs(model, s + e) - reference_rhs(model, s - e)
                                  for e in h * np.eye(n)]) / (2 * h)
            feedback = np.abs(jac - lin).max()
            assert feedback > 1.0
            assert np.abs(jac - fd).max() < 1e-4 * feedback
            # trace conservation: the trace row of the Jacobian vanishes
            assert np.abs(tr_row @ jac).max() < 1e-12 * np.abs(jac).max()
            # and the solver's Jacobian is its rotation into the chart
            chart_jac = model.jac(0.0, model.chart(s))
            assert np.abs(chart_jac - q.T @ jac @ q).max() <= 1e-12 * np.abs(jac).max()

    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    @pytest.mark.parametrize("j_over_gamma", [0.0, 3.0])
    def test_chart_operators_are_the_rotated_reference(self, mode, j_over_gamma, rng):
        # the solver's callbacks and readout against the full-space
        # reference path, and the Jacobian against central differences of
        # the callback: the rhs is quadratic, so these are exact up to
        # rounding at h = 1
        p = SimParams.from_rates(i_over_gamma=1.5, j_over_gamma=j_over_gamma,
                                 h_over_gamma=0.4, projection_mode=mode)
        model = CompiledModel(p)
        q = model.m_basis
        for _ in range(2):
            s = model.sub.from_matrix(random_density(rng))
            z = model.chart(s)
            rhs = q.T @ reference_rhs(model, s)
            assert np.abs(model.rhs(0.0, z) - rhs).max() <= 1e-12 * np.abs(rhs).max()
            jac = np.column_stack([model.rhs(0.0, z + e) - model.rhs(0.0, z - e)
                                   for e in np.eye(z.size)]) / 2.0
            assert np.abs(model.jac(0.0, z) - jac).max() <= 1e-12 * np.abs(jac).max()
            # M, dM/dt's linear form and feedback factors, the populations
            values = model.readout @ z + model.readout_offset
            populations = s[:model.sub.dim] if mode == "hyperfine+zeeman" else []
            assert values.size == 2 + 2 * model.k + len(populations)
            assert np.abs(values[[0, *range(2 + 2 * model.k, values.size)]]
                          - [reference_magnetization(model, s), *populations]).max() <= 1e-12
            rate = np.trace(model.rhs_matrix(model.sub.to_matrix(s)) @ model.fz).real
            assert (abs(model.rate(values[None])[0] - rate / model.f_max)
                    <= 1e-12 * np.abs(rhs).max())

    @pytest.mark.parametrize("mode, j_over_gamma, b_z, k", [
        ("hyperfine+zeeman", 0.0, 1.0, 0),
        ("hyperfine+zeeman", 3.0, 1.0, 1),
        ("hyperfine", 3.0, 1e-4, 3),
        ("none", 3.0, 1e-4, 3),
    ])
    def test_callbacks_equal_the_stacked_product_to_the_bit(self, mode, j_over_gamma,
                                                            b_z, k, rng):
        # the callbacks against the sequential sum for any number k of
        # feedback components: v = W z + w, then v_lin + v_m1 v_Q1 +
        # v_m2 v_Q2 + ... and its Jacobian, added in that order, with W and
        # w stacked as CompiledModel does, from its generator and the
        # cached feedback parts
        p = SimParams.from_rates(1.5, j_over_gamma, 0.4, projection_mode=mode, b_z=b_z)
        model = CompiledModel(p)
        n = model.m_basis.shape[1]
        parts = dyn._ground_parts(p.atom, p.b_z, p.projection_mode)
        feedback = parts.feedback if model.qj > 0 else ()
        assert len(feedback) == model.k == k
        stacked = np.vstack([chart_generator(model)] + [m[None, :] for m, _ in feedback]
                            + [model.qj * block for _, block in feedback])
        w_mat, w_off = np.ascontiguousarray(stacked[:, :-1]), stacked[:, -1]
        for _ in range(3):
            z = model.chart(model.sub.from_matrix(random_density(rng)))
            v = w_mat @ z
            v += w_off
            rhs, jac = v[:n], w_mat[:n]
            for i in range(k):
                m, block = n + i, slice(n + k + i * n, n + k + (i + 1) * n)
                rhs = rhs + v[m] * v[block]
                jac = jac + v[m] * w_mat[block] + np.outer(v[block], w_mat[m])
            for got, ref in ((model.rhs(0.0, z), rhs), (model.jac(0.0, z), jac)):
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    def test_overflowing_intensity_fails_without_warnings(self, mode):
        # I = 1e300 Gamma overflows the pump amplitude; the finite check is
        # the one rule that stops it, so no numpy warning comes first
        p = SimParams.from_rates(i_over_gamma=1e300, j_over_gamma=3.0, projection_mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="the generator is not finite"):
                CompiledModel(p)

    def test_rhs_traceless(self, rng):
        p = SimParams.from_rates(i_over_gamma=2.0, j_over_gamma=2.5)
        model = CompiledModel(p)
        for _ in range(10):
            out = model.rhs_matrix(random_density(rng))
            assert abs(np.trace(out)) < 1e-10 * GAMMA

    def test_unpolarized_dark_fixed_point(self):
        p = SimParams(j_exchange=0.0)
        model = CompiledModel(p)
        rhs = model.rhs_matrix(np.eye(16) / 16)
        assert np.abs(rhs).max() < 1e-12 * GAMMA

    def test_magnetization_normalization(self):
        p = SimParams()
        model = CompiledModel(p)
        stretched = np.zeros((16, 16), dtype=complex)
        stretched[model.system.basis_g.index(4, 4),
                  model.system.basis_g.index(4, 4)] = 1.0
        assert model.magnetization(model.sub.from_matrix(stretched)) == pytest.approx(1.0)


class TestIntegration:
    def test_dark_relaxation_rate(self):
        p = SimParams(seed_polarization=5e-3)
        traj = integrate(p, t_end=3.0 / GAMMA)
        mask = traj.magnetization > 0
        rate = -np.polyfit(traj.times[mask], np.log(traj.magnetization[mask]), 1)[0]
        assert rate == pytest.approx(GAMMA, rel=0.05)
        assert rate == pytest.approx(GAMMA, rel=1e-4)

    def test_response_crossing_on_exponential(self):
        # synthetic saturating exponential: the 63% crossing must equal the
        # time constant within 0.5%
        tau0 = 0.1
        t = np.linspace(0, 1.0, 4000)
        m = 0.4 * (1 - np.exp(-t / tau0))
        traj = Trajectory(times=t, magnetization=m, final_state=np.eye(16) / 16,
                          rates=0.4 / tau0 * np.exp(-t / tau0))
        # 63% of the final value of this trace, mapped back to the time axis
        target_fraction = 0.63 * 0.4 / m[-1]
        crossing = traj.response_crossing(target_fraction)
        assert crossing == pytest.approx(-tau0 * math.log(1 - 0.63), rel=5e-3)
        # or against the explicit final value
        assert traj.response_crossing(0.63, final=0.4) == crossing

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_hermite_crossing_recovers_a_cubic(self, sign):
        # M(t) = sign (0.63 + (t - t*) + 0.5 (t - t*)^3), sampled at six
        # times with its rate, crosses 63% of |M| = 1 at t*: the cubic
        # Hermite interpolant is the cubic itself
        t_star = 0.4372
        t = np.linspace(0.0, 1.0, 6)
        m = sign * (0.63 + (t - t_star) + 0.5 * (t - t_star) ** 3)
        rates = sign * (1.0 + 1.5 * (t - t_star) ** 2)
        traj = Trajectory(times=t, magnetization=m, final_state=np.eye(16) / 16,
                          rates=rates)
        assert traj.response_crossing(0.63, final=sign) == pytest.approx(t_star, rel=0,
                                                                         abs=1e-14)

    def test_hermite_crossing_takes_the_first_of_three(self):
        # between two samples the cubic rises through the target, falls
        # back below it and rises again: the first crossing is the answer
        roots = (0.2, 0.5, 0.9)
        poly = np.polynomial.Polynomial.fromroots(roots)
        t = np.array([0.0, 1.0])
        traj = Trajectory(times=t, magnetization=0.5 + poly(t),
                          final_state=np.eye(16) / 16, rates=poly.deriv()(t))
        assert traj.response_crossing(0.5, final=1.0) == pytest.approx(0.2, rel=0, abs=1e-15)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(y=st.tuples(st.integers(-256, -1), st.integers(0, 256)),
           d=st.tuples(st.integers(-512, 512), st.integers(-512, 512)))
    def test_first_root_is_brents_root(self, y, d):
        # the Hermite cubic of a crossing, from values y0 < 0 <= y1 and
        # scaled rates d0, d1 (multiples of 1/64, so the coefficients are
        # exact): the first monotone piece that ends at or above 0, from
        # the turns numpy finds, brackets the root Brent's method takes
        from scipy.optimize import brentq

        (y0, y1), (d0, d1) = np.array(y) / 64, np.array(d) / 64
        c = (y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1, 2.0 * (y0 - y1) + d0 + d1)
        cubic = np.polynomial.Polynomial(c)
        turns = sorted(x.real for x in cubic.deriv().roots() if x.imag == 0 and 0 < x.real < 1)
        lo = 0.0
        for hi in turns + [1.0]:
            if cubic(hi) >= 0:
                break
            lo = hi
        ref = brentq(cubic, lo, hi, xtol=1e-15)
        # a well-conditioned root: the rounding of the cubic, about
        # eps sum|c_k|, moves it by well under 1e-15
        assume(abs(cubic.deriv()(ref)) >= 0.1 * sum(map(abs, c)))
        assert abs(dyn._first_root(*c) - ref) <= 2e-15

    def test_zero_seed_symmetry(self):
        p = SimParams.from_rates(i_over_gamma=2.0, j_over_gamma=3.0,
                                 seed_polarization=0.0)
        traj = integrate(p, t_end=20 / GAMMA)
        assert np.abs(traj.magnetization).max() < 1e-9

    def test_seed_sign_equivariance(self):
        p = SimParams.from_rates(i_over_gamma=2.0, j_over_gamma=3.0)
        model = CompiledModel(p)
        plus = steady_state(replace(p, seed_polarization=+1e-4), model=model)
        minus = steady_state(replace(p, seed_polarization=-1e-4), model=model)
        assert plus.m_ss > 0.1
        assert abs(plus.m_ss + minus.m_ss) < 1e-6

    def test_invariants_enforced(self, rng):
        p = SimParams.from_rates(i_over_gamma=1.0, j_over_gamma=2.0)
        model = CompiledModel(p)
        traj = integrate(p, t_end=5 / GAMMA, model=model)
        rho = traj.final_state
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_step_budget_enforced(self, monkeypatch, solvers):
        # by step 1000 LSODA has switched from Adams, which uses no
        # Jacobian, to BDF (at about step 860)
        p = SimParams.from_rates(i_over_gamma=2.0, j_over_gamma=3.0)
        monkeypatch.setattr(dyn, "MAX_STEPS", 1000)
        with pytest.raises(IntegrationError) as info:
            integrate(p, t_end=1.0)
        diag = info.value.diagnostics
        assert diag["steps"] == 1000
        assert_solver_counts(diag, solvers[-1])
        assert diag["nfev"] >= 1000 and diag["njev"] > 0

    def test_unresolvable_run_fails_fast(self):
        # 'hyperfine' keeps the Zeeman coherences, whose precession at
        # b_z = 1 G sets LSODA's step: 2000/Gamma would take ~1.7e9 steps
        p = SimParams.from_rates(0.5, 2.3, projection_mode="hyperfine")
        with pytest.raises(IntegrationError, match="step budget exhausted") as info:
            steady_state(p)
        diag = info.value.diagnostics
        assert diag["steps"] == dyn.BUDGET_PROJECTION_STEPS
        assert diag["projected_steps"] == pytest.approx(
            diag["steps"] * 2000.0 / GAMMA / diag["t"])
        assert diag["projected_steps"] > 1e9 > dyn.MAX_STEPS

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            integrate(SimParams(), t_end=0.0)


class TestSteadyState:
    def test_disordered_no_pump(self):
        res = steady_state(SimParams.from_rates(0.0, 2.3, seed_polarization=0.0))
        assert abs(res.m_ss) < 1e-9
        assert res.converged

    def test_ordered_interior(self):
        res = steady_state(SimParams.from_rates(4.5, 3.8))
        assert res.converged
        assert abs(res.m_ss) > 0.35

    def test_weak_bias_susceptibility(self):
        # disordered-limit calibration: dM/dH = 1/Gamma at H -> 0
        dh = 1e-3
        mp = steady_state(SimParams.from_rates(0.0, 2.3, h_over_gamma=dh,
                                               seed_polarization=0.0)).m_ss
        assert mp / dh == pytest.approx(1.0, rel=0.02)


class TestResponseTime:
    def test_floor_in_disordered_phase(self):
        r = response_time(SimParams.from_rates(0.3, 1.0))
        assert r.floored
        assert r.tau == pytest.approx(1.0 / GAMMA)

    def test_critical_slowdown(self):
        i0 = critical_pump_rate(3.7)
        r = response_time(SimParams.from_rates(i0 * 1.1, 3.7))
        assert not r.floored
        assert r.tau > 10.0 / GAMMA

    @pytest.mark.parametrize("i, j, floored", [(0.3, 1.0, True), (2.0, 3.0, False)])
    def test_one_rule_for_every_caller(self, i, j, floored, tmp_path, capsys):
        p = SimParams.from_rates(i, j)
        res = steady_state(p)
        assert res.floored is floored
        expected = (res.tau, res.floored)
        r = response_time(p)
        assert (r.tau, r.floored) == expected
        cell = run_sweep(SweepGrid.from_rates([i], [j]), workers=1).cells[0]
        assert (cell.tau_s, cell.tau_floored) == expected
        out = str(tmp_path / "r")
        assert main(["simulate", "--i", str(i), "--j", str(j), "--out", out]) == 0
        summary = json.loads(open(out + "_summary.json").read())
        assert (summary["tau_s"], summary["tau_floored"]) == expected
        assert summary["stop"] == res.stop == ("symmetric" if floored else "fixed-point")
        assert [summary[k] for k in ("steps", "nfev", "njev")] == [
            res.steps, res.nfev, res.njev]
        assert "nlu" not in summary

    def test_unconverged_run_has_no_tau(self):
        res = steady_state(SimParams.from_rates(2.0, 3.0), max_time=0.01)
        assert not res.converged
        assert abs(res.m_ss) < dyn.TAU_FLOOR_M
        assert res.tau is None
        assert res.floored is False
        assert res.stop == "budget"
        assert res.t_converge == res.trajectory.times[-1]
        assert res.rho_ss is res.trajectory.final_state

    def test_seed_sensitivity_report(self):
        p = SimParams.from_rates(1.5, 3.7)
        rep = seed_sensitivity(p, factors=(1.0, 0.1))
        assert rep["tau_by_factor"][0.1] > rep["tau_by_factor"][1.0]
        assert rep["dtau_dlog_eps"] < 0

    @pytest.mark.parametrize("run", [
        lambda p, model: steady_state(p, model=model),
        lambda p, model: response_time(p, model=model),
        lambda p, model: seed_sensitivity(p, model=model),
        lambda p, model: integrate(p, t_end=0.01, model=model)],
        ids=["steady_state", "response_time", "seed_sensitivity", "integrate"])
    def test_model_of_other_parameters_is_rejected(self, run):
        # with the (2, 3) model this point would end at M_ss = 0.546
        model = CompiledModel(SimParams.from_rates(2.0, 3.0))
        with pytest.raises(ValueError, match="other parameters"):
            run(SimParams.from_rates(0.3, 1.0), model)

    def test_seed_sensitivity_validates_every_seed(self):
        # 200 x the default seed 1e-4 is 0.02, beyond |seed| <= 0.01
        p = SimParams.from_rates(1.06 * critical_pump_rate(3.7), 3.7)
        with pytest.raises(ValueError, match="seed_polarization"):
            seed_sensitivity(p, factors=(1.0, 200.0))


class TestHelpers:
    def test_gamma_of_temperature(self):
        assert gamma_of_temperature(75.0) == 58.0
        assert gamma_of_temperature(87.0) == pytest.approx(58.0 + 0.35 * 12)

    def test_boundary_locator_regression(self):
        assert critical_pump_rate(3.7) == pytest.approx(0.8156, abs=0.01)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SimParams(gamma=-1.0)
        with pytest.raises(ValueError):
            SimParams(seed_polarization=0.5)
        with pytest.raises(ValueError):
            SimParams(projection_mode="bogus")
        for bad in ({"gamma": math.nan}, {"gamma": math.inf},
                    {"j_exchange": math.nan}, {"b_z": math.nan},
                    {"seed_polarization": math.nan}, {"seed_polarization": -math.inf}):
            with pytest.raises(ValueError, match="finite"):
                SimParams(**bad)

    @pytest.mark.parametrize("rates", [(math.nan, 3.0), (2.0, math.inf),
                                       (2.0, 3.0, math.nan), (0.3, 1.0, -math.inf)])
    def test_axis_rates_must_be_finite(self, rates):
        # a NaN pump rate would otherwise build a pump-free model
        with pytest.raises(ValueError, match="must be finite"):
            SimParams.from_rates(*rates)

    @pytest.mark.parametrize("kwargs, match", [
        ({"rtol": math.nan}, "rtol"), ({"rtol": math.inf}, "rtol"),
        ({"rtol": 0.0}, "rtol"), ({"rtol": -1.0}, "rtol"),
        ({"atol": math.nan}, "atol"), ({"atol": math.inf}, "atol"),
        ({"atol": -1.0}, "atol"), ({"max_step": math.nan}, "max_step")])
    def test_integration_controls_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            IntegrationControls(**kwargs)

    def test_non_finite_horizon_is_rejected(self):
        with pytest.raises(ValueError, match="t_end"):
            integrate(SimParams(), t_end=math.nan)
        for max_time in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="max_time must be > 0"):
                steady_state(SimParams.from_rates(2.0, 3.0), max_time=max_time)


class TestBoundaryLocator:
    @pytest.mark.parametrize("axis, fixed", [("I", 2.3), ("I", 3.7), ("I", 3.8), ("J", 4.5)])
    def test_exact_root_in_few_compiles(self, monkeypatch, axis, fixed):
        # the slow mode changes sign within x0 (1 +- 1e-8), found in at
        # most 12 compiles
        compiles = []
        init = CompiledModel.__init__

        def counting_init(self, params):
            compiles.append(params)
            init(self, params)
        monkeypatch.setattr(CompiledModel, "__init__", counting_init)
        locate = critical_pump_rate if axis == "I" else dyn.critical_exchange_rate
        x0 = locate(fixed)
        assert len(compiles) <= 12

        def rate(x):
            i, j = (x, fixed) if axis == "I" else (fixed, x)
            return CompiledModel(SimParams.from_rates(i, j, seed_polarization=0.0)).slow_mode_rate()
        assert rate(x0 * (1 - 1e-8)) < 0 < rate(x0 * (1 + 1e-8))

    @pytest.mark.parametrize("bracket, match", [
        ((1.0, 40.0), "unstable already at I/Gamma = 1.0 at J/Gamma = 3.7"),
        ((0.05, 0.5), "no instability up to I/Gamma = 0.5 at J/Gamma = 3.7")])
    def test_bracket_ends_on_one_side_are_rejected(self, monkeypatch, bracket, match):
        # I0(3.7) = 0.8154 lies outside both brackets
        monkeypatch.setattr(dyn, "LOCATOR_BRACKET", bracket)
        with pytest.raises(ValueError, match=match):
            critical_pump_rate(3.7)


class TestSteadyDetection:
    def test_stiff_point_converges(self):
        # extreme exchange rate
        p = SimParams.from_rates(i_over_gamma=0.2, j_over_gamma=150.0,
                                 seed_polarization=0.0)
        res = steady_state(p, max_time=300.0 / GAMMA)
        assert res.converged
        assert abs(res.m_ss) < 1e-6

    def test_max_step_control(self):
        # dark decay has the analytic answer M(t) = eps * exp(-Gamma t)
        p = SimParams(j_exchange=0.0, seed_polarization=1e-3)
        horizon = 1.0 / GAMMA
        free = integrate(p, t_end=horizon)
        capped = integrate(p, t_end=horizon,
                           controls=IntegrationControls(max_step=horizon / 200))
        assert len(capped.times) > 200 > len(free.times)
        exact = 1e-3 * math.exp(-1.0)
        # abs=0: approx's default abs=1e-12 is 2.7e-9 of this value
        assert capped.magnetization[-1] == pytest.approx(exact, rel=1e-9, abs=0)
        assert free.magnetization[-1] == pytest.approx(exact, rel=1e-4)

    def test_slow_disordered_cell_converges(self):
        # slow mode -0.173 /s
        res = steady_state(SimParams.from_rates(2.881422, 1.827586))
        assert res.converged
        assert abs(res.m_ss) < 1e-3

    def test_model_released_after_steady_state(self):
        # the solver is a reference cycle; it must not pin the model
        p = SimParams.from_rates(2.0, 3.0)
        model = CompiledModel(p)
        ref = weakref.ref(model)
        gc.disable()
        try:
            res = steady_state(p, model=model)
            del model
            assert ref() is None
        finally:
            gc.enable()
        assert res.converged

    def test_symmetric_fixed_point_and_rate(self):
        p = SimParams.from_rates(i_over_gamma=2.0, j_over_gamma=3.0,
                                 seed_polarization=0.0)
        model = CompiledModel(p)
        s_star = model.coords(model.symmetric_fixed_point())
        assert np.abs(reference_rhs(model, s_star)).max() < 1e-9 * GAMMA
        assert reference_magnetization(model, s_star) == pytest.approx(0.0, abs=1e-12)
        # (2, 3) is in the ordered phase: fluctuations grow
        assert model.slow_mode_rate() > 0
        p0 = SimParams.from_rates(i_over_gamma=0.3, j_over_gamma=1.0,
                                  seed_polarization=0.0)
        assert CompiledModel(p0).slow_mode_rate() < 0


class TestCachedParts:
    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    def test_chart_generator_matches_projected_full_generator(self, mode):
        p = SimParams.from_rates(i_over_gamma=1.5, j_over_gamma=3.0,
                                 h_over_gamma=0.4, projection_mode=mode)
        model = CompiledModel(p)
        ref = rotated(model, project_superop(model.sub, model.lin_superop))
        assert np.abs(chart_generator(model) - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("i_over_gamma", [0.05, 40.0])
    def test_optical_part_matches_channel(self, i_over_gamma):
        # the ends of the boundary locators' bracket
        p = SimParams.from_rates(i_over_gamma=i_over_gamma)
        field = p.pump
        action = dyn._field_action(p.atom, p.b_z, p.projection_mode,
                                   field.scaled(1.0), p.coll, p.doppler)
        r_opt = np.real(action.superop(field.amplitude_sq)[0])
        model = CompiledModel(p)
        channel = OpticalChannel(model.system, [couple_field(
            field, model.system, p.coll, p.doppler)], p.coll)
        ref = project_superop(model.sub, channel.ground_superop)
        assert np.abs(r_opt - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("mode, change", [
        ("hyperfine+zeeman", {"coll": replace(cesium_collisions(),
                                              gamma_c=2 * math.pi * 1e9)}),
        ("hyperfine+zeeman", {"doppler": DopplerSpec(width=1e9)}),
        # b_z acts through the Zeeman coherences, which hyperfine mode keeps
        ("hyperfine", {"b_z": 2.0})])
    def test_cache_key_covers_parameters(self, mode, change):
        kwargs = dict(i_over_gamma=1.5, j_over_gamma=3.0, projection_mode=mode)
        base = CompiledModel(SimParams.from_rates(**kwargs))
        other = CompiledModel(SimParams.from_rates(**kwargs, **change))
        gen = chart_generator(other)
        assert (np.abs(gen - chart_generator(base)).max()
                > 1e-4 * np.abs(chart_generator(base)).max())
        # not the base point's cached parts under a rescaled calibration
        ref = rotated(other, project_superop(other.sub, other.lin_superop))
        assert np.abs(gen - ref).max() < 1e-12 * np.abs(ref).max()

    def test_cached_arrays_are_read_only(self):
        p = SimParams.from_rates(i_over_gamma=1.5, j_over_gamma=3.0)
        model = CompiledModel(p)
        parts = dyn._ground_parts(p.atom, p.b_z, p.projection_mode)
        m_row, block = parts.feedback[0]
        for arr in (block, m_row, parts.h, parts.t_map, parts.f_map, model.m_basis,
                    model.system.h_g, model.u):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the point's own generator is a fresh array
        model.lin[0, 0] += 0.0

    def test_pump_only_model_matches_reference(self, rng):
        # fields enter the generator through the cached unit-intensity parts
        p = SimParams.from_rates(i_over_gamma=3.0, j_over_gamma=0.0)
        model = CompiledModel(p)
        assert model.qj == 0.0
        s = model.sub.from_matrix(random_density(rng))
        d_ref = model.sub.from_matrix(model.rhs_matrix(model.sub.to_matrix(s)))
        assert np.abs(model.rhs_coords(s) - d_ref).max() < 1e-9 * np.abs(d_ref).max()


class TestGeneratorProperty:
    """The compiled generator against the full-space reference ``rhs_matrix``
    on random unit-trace states, over random points and every projection
    mode: the two agree, the derivative is Hermitian and traceless, and the
    exchange part is the projected exchange term and leaves Tr(F_z rho)
    unchanged.  The bounds are relative to max |rhs|; rounding gives ~1e-15."""

    @settings(max_examples=24, derandomize=True, database=None, deadline=None)
    @given(mode=st.sampled_from(PROJECTION_MODES), i=st.floats(0.0, 6.0),
           j=st.floats(0.0, 6.0), h=st.floats(-1.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rhs_conserves_what_the_reference_conserves(self, mode, i, j, h, seed):
        p = SimParams.from_rates(i, j, h, projection_mode=mode)
        model = CompiledModel(p)
        s = model.sub.from_matrix(random_density(np.random.default_rng(seed)))
        rho = model.sub.to_matrix(s)
        full = model.rhs_matrix(rho)
        bound = 1e-12 * np.abs(full).max()
        d = model.rhs_coords(s)
        assert np.abs(d - model.sub.from_matrix(full)).max() <= bound
        assert abs(np.trace(full)) <= bound
        assert abs(d[:model.sub.dim].sum()) <= bound
        assert np.abs(full - full.conj().T).max() <= bound
        exchange = d - CompiledModel(replace(p, j_exchange=0.0)).rhs_coords(s)
        reference = model.sub.from_matrix(spin_exchange_term(rho, model.qj, model.s_ops))
        assert np.abs(exchange - reference).max() <= bound
        assert abs(model.magnetization(exchange)) <= bound

def full_space_bias_unit(p: SimParams, shape) -> float:
    """Gamma |dM/d(intensity)| of the linear response at the fully mixed
    state rho0, solved on the full dim_g^2 generator with the linearized
    mean-spin feedback: (L + rho0 tr^T) delta = -D rho0 for the unit
    field's action D."""
    system = atom_system(p.atom, p.b_z)
    dg = system.dim_g
    l_h, l_gamma, l_phi = dyn._ground_superops(p.atom, p.b_z)
    qj = p.coll.q_slowdown * p.j_exchange
    lin = l_h + p.gamma * l_gamma + qj * l_phi
    for s in system.ops_g["S"].matrices:
        lin = lin + (qj / 4.0) * np.outer(s.reshape(-1), s.T.reshape(-1))
    vec_id = np.eye(dg).reshape(-1)
    rho0 = vec_id / dg
    action = FieldAction(system, couple_field(shape, system, p.coll, p.doppler),
                         p.coll, t_map=rho0[:, None])
    source = action.superop(1.0)[0][:, 0]
    delta = np.linalg.solve(lin + np.outer(rho0, vec_id), -source).reshape(dg, dg)
    f_max = max(f for f, _ in system.basis_g.states)
    return p.gamma * abs(np.trace(delta @ system.ops_g["F"].z).real) / f_max


class TestCalibrations:
    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bias_unit_is_the_full_space_linear_response(self, mode, sign):
        shape = bias_field(1.0, sign=sign)
        for gamma in (40.0, 58.0):
            for j in (0.0, 2.3, 3.7):
                p = SimParams(gamma=gamma, j_exchange=dyn.EXCHANGE_AXIS_SCALE * j * gamma,
                              projection_mode=mode)
                ref = full_space_bias_unit(p, shape)
                assert bias_rate_unit(p, shape) == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    def test_pump_unit_is_the_mixed_state_absorption(self, mode):
        p = SimParams(projection_mode=mode)
        system = atom_system(p.atom, p.b_z)
        for shape in (pump_field(1.0), bias_field(1.0)):
            coupling = couple_field(shape, system, p.coll, p.doppler)
            rho_e = excited_quasi_steady(np.eye(system.dim_g) / system.dim_g,
                                         [coupling], system, p.coll)
            ref = p.coll.gamma_q * np.trace(rho_e).real
            assert absorption_rate_unit(p, shape) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_one_field_action_per_beam(self, monkeypatch):
        # a b_z of no other test, so that no cache holds these beams yet
        built = []
        init = FieldAction.__init__

        def counted(self, *args, **kwargs):
            built.append(args[1].field)
            init(self, *args, **kwargs)
        monkeypatch.setattr(FieldAction, "__init__", counted)
        for j in (0.0, 1.0, 2.3, 3.7):
            CompiledModel(SimParams.from_rates(2.0, j, 0.1, b_z=0.77))
        assert len(built) == 2

    def test_beams_share_their_field_independent_parts(self, monkeypatch):
        # a b_z of no other test, so that no cache holds these parts yet
        generators = []
        build = optics.excited_superoperator

        def counted(system, couplings, coll):
            if not couplings:
                generators.append(system.b_z)
            return build(system, couplings, coll)
        monkeypatch.setattr(optics, "excited_superoperator", counted)
        misses = optics._excited_parts.cache_info().misses
        p = SimParams.from_rates(2.0, 3.0, 0.1, b_z=0.66)
        CompiledModel(p)
        assert generators == [0.66]
        assert optics._excited_parts.cache_info().misses == misses + 1
        ground = dyn._ground_parts(p.atom, p.b_z, p.projection_mode)
        # each beam's action against one that builds A0 and P for itself
        cached = [dyn._field_action(p.atom, p.b_z, p.projection_mode, f.scaled(1.0),
                                    p.coll, p.doppler) for f in p.fields()]
        assert cached[0]._a0 is cached[1]._a0 and cached[0]._repop is cached[1]._repop
        monkeypatch.setattr(optics, "_excited_parts", optics._excited_parts.__wrapped__)
        for f, action in zip(p.fields(), cached):
            own = FieldAction(ground.system,
                              couple_field(f.scaled(1.0), ground.system, p.coll, p.doppler),
                              p.coll, t_map=ground.t_map, f_map=ground.f_map)
            for part, ref in zip(action.superop(f.amplitude_sq), own.superop(f.amplitude_sq)):
                assert np.array_equal(part, ref)


class TestSolverCounts:
    def test_steady_state_reports_solver_counts(self, solvers):
        res = steady_state(SimParams.from_rates(2.0, 3.0))
        assert res.steps == len(res.trajectory.times) - 1
        assert_solver_counts(vars(res), solvers[-1])
        assert res.njev > 0
        assert res.nfev >= res.steps

    def test_failure_diagnostics_carry_counts(self, solvers):
        # a linear right-hand side that turns to noise once LSODA runs BDF
        # (from about the 1,350th call): the corrector no longer converges,
        # and the failed call's istate (-5, repeated convergence failures)
        # is reported with the counts
        model = CompiledModel(SimParams.from_rates(2.0, 3.0))
        rng = np.random.default_rng(0)
        calls = []

        def rhs(_t, z):
            calls.append(1)
            return (1e3 * rng.standard_normal(z.size) if len(calls) > 1600
                    else model.lin @ z + model.lin_offset)
        model.rhs = rhs
        with pytest.raises(IntegrationError, match="solver failed: Unexpected istate") as info:
            dyn._integrate_coords(model, model.seed_coords(1e-4), 1.0,
                                  IntegrationControls())
        diag = info.value.diagnostics
        assert set(diag) == {"t", "h", "istate", "steps", "nfev", "njev"}
        assert diag["istate"] == -5
        assert diag["steps"] == len(solvers[-1].times) - 1 > 0
        assert diag["t"] == solvers[-1].t
        assert diag["nfev"] == len(calls)
        assert_solver_counts(diag, solvers[-1])
        assert diag["njev"] > 0

    def test_non_finite_state_in_bdf_carries_counts(self, solvers):
        # a linear right-hand side that turns non-finite once LSODA runs BDF:
        # the first non-finite state fails the run
        model = CompiledModel(SimParams.from_rates(2.0, 3.0))
        calls = []

        def rhs(_t, z):
            calls.append(1)
            return (np.full_like(z, np.nan) if len(calls) > 1600
                    else model.lin @ z + model.lin_offset)
        model.rhs = rhs
        with (pytest.raises(IntegrationError, match="solver failed: non-finite state") as info,
              np.errstate(invalid="ignore")):
            dyn._integrate_coords(model, model.seed_coords(1e-4), 1.0,
                                  IntegrationControls())
        diag = info.value.diagnostics
        assert diag["steps"] > 0
        assert diag["nfev"] == len(calls)
        assert_solver_counts(diag, solvers[-1])
        assert diag["njev"] > 0

    def test_nonfinite_rhs_is_an_integration_error(self, solvers):
        # NaN from the fourth call: the first non-finite state must surface
        # at once as IntegrationError, which a sweep cell catches
        model = CompiledModel(SimParams.from_rates(2.0, 3.0))
        solver_rhs = model.rhs
        calls = []

        def rhs(t, z):
            calls.append(1)
            return np.full_like(z, np.nan) if len(calls) >= 4 else solver_rhs(t, z)
        model.rhs = rhs
        with (pytest.raises(IntegrationError, match="solver failed") as info,
              np.errstate(over="ignore", invalid="ignore")):
            dyn._integrate_coords(model, model.seed_coords(1e-4), 1.0,
                                  IntegrationControls())
        diag = info.value.diagnostics
        assert set(diag) == {"t", "h", "steps", "nfev", "njev"}
        assert diag["nfev"] == len(calls) <= 10
        # still in LSODA's Adams mode, which makes no Jacobian
        assert_solver_counts(diag, solvers[-1])

    def test_work_arrays_do_not_accumulate(self):
        # the compiled driver keeps a reference to the rwork and iwork of
        # each call, so a pair made per run would never be freed
        p = SimParams.from_rates(2.0, 3.0)
        model = CompiledModel(p)
        integrate(p, t_end=0.002, model=model)
        n = model.m_basis.shape[1]  # the solver's dimension
        one_run = 8 * (22 + 9 * n + n * n) + 4 * (20 + n)  # LSODA's lrw, liw
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(200):
                integrate(p, t_end=0.002, model=model)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # the arrays are made in dynamics._lsoda
        made_there = [tracemalloc.Filter(True, dyn.__file__)]
        growth = sum(stat.size_diff for stat in after.filter_traces(made_there).compare_to(
            before.filter_traces(made_there), "filename"))
        assert growth < one_run

    def test_concurrent_runs_borrow_their_own_work_arrays(self):
        # runs in threads interleave their steps; a shared pair of work
        # arrays would mix their LSODA states
        p = SimParams.from_rates(2.0, 3.0)
        model = CompiledModel(p)
        ref = integrate(p, t_end=0.002, model=model).magnetization
        results = [None] * 4

        def run(k):
            results[k] = integrate(p, t_end=0.002, model=model).magnetization
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for mags in results:
            assert np.array_equal(mags, ref)

    def test_scipy_internals_mean_what_the_loop_takes_them_for(self, monkeypatch):
        # the loop reads nfev and njev from LSODA's iwork[11] and [12], and
        # hands the compiled driver its one-step task (itask 5), t_end as
        # its critical time in rwork[0] and the rest of its arrays as
        # scipy's ode builds them; none of these is public, so check them
        # against the callbacks' own calls and against stock LSODA, whose
        # step() takes one step and never passes its t_bound
        from scipy.integrate import LSODA

        model = CompiledModel(SimParams.from_rates(2.0, 3.0))
        calls = {"rhs": 0, "jac": 0}

        def counted(name, callback):
            def wrapped(t, z):
                calls[name] += 1
                return callback(t, z)
            return wrapped
        rhs, jac = model.rhs, model.jac
        model.rhs, model.jac = counted("rhs", rhs), counted("jac", jac)
        times = []
        step = dyn._lsoda_step()

        def one_call(*args):
            z, t, istate = step(*args)
            times.append(t)
            return z, t, istate
        monkeypatch.setattr(dyn, "_lsoda_step", lambda: one_call)
        t_end, controls = 1.0, IntegrationControls()
        s0 = model.seed_coords(1e-4)
        counts = dyn._integrate_coords(model, s0, t_end, controls)[5]
        assert calls["jac"] > 0  # the run reached BDF
        assert (counts["nfev"], counts["njev"]) == (calls["rhs"], calls["jac"])
        assert counts["steps"] == len(times)
        stock = LSODA(rhs, 0.0, model.chart(s0), t_end,
                      rtol=controls.rtol, atol=controls.atol, jac=jac)
        stock_times = []
        while stock.status == "running":
            stock.step()
            stock_times.append(stock.t)
        assert times == stock_times
        assert times[-1] == t_end and np.all(np.diff(times) > 0)
        assert (stock.nfev, stock.njev) == (calls["rhs"], calls["jac"])


def _shift(model, delta_s):
    """A fault that adds ``delta_s``, in subspace coordinates, to the state."""
    shift = model.m_basis.T @ delta_s

    def fault(z):
        z += shift
    return fault


def _negative_population(model, amount=3e-9):
    """A fault that moves population 0, and ``amount`` more, onto
    population 1: the trace stays and population 0 becomes -amount."""
    q, u = model.m_basis, model.u

    def fault(z):
        move = q[0] @ z + u[0] + amount
        delta = np.zeros(model.sub.n)
        delta[0], delta[1] = -move, move
        z += q.T @ delta
    return fault


def _non_finite(value):
    """A fault that writes ``value`` into the last coordinate of the state."""
    def fault(z):
        z[-1] = value
    return fault


def _fault_model(mode):
    """A point that takes over 1,000 steps in 0.5 s in either mode."""
    kwargs = {} if mode == "hyperfine+zeeman" else {"b_z": 1e-4}
    return CompiledModel(SimParams.from_rates(2.0, 3.0, projection_mode=mode, **kwargs))


def _run(model, t_end=0.5, **kwargs):
    return dyn._integrate_coords(model, model.seed_coords(1e-4), t_end,
                                 IntegrationControls(), **kwargs)


class TestBlockChecks:
    """Positivity and M are read for a block of accepted steps at a time.
    The trajectory is still every accepted step, and each failure is the
    one, at the step, that a check of each step in turn would raise."""

    @pytest.mark.parametrize("t_end, stop_at_fixed_point, stop", [
        (3.0, True, "fixed-point"), (0.5, False, "budget")])
    def test_trajectory_is_every_accepted_step(self, solvers, t_end, stop_at_fixed_point,
                                               stop):
        model = _fault_model("hyperfine+zeeman")
        times, mags, rates, _, end, counts = _run(model, t_end,
                                                  stop_at_fixed_point=stop_at_fixed_point)
        run = solvers[-1]
        assert end == stop
        assert counts["steps"] % dyn.CHECK_BLOCK != 0  # a partly filled last block
        assert times.tolist() == run.times
        assert len(times) == counts["steps"] + 1
        # M of each accepted step, as one readout row of its state would give it
        ref = [model.readout[0] @ z + model.readout_offset[0] for z in run.states[1:]]
        assert np.abs(mags[1:] - ref).max() <= 1e-17
        # and dM/dt of each recorded state, as M's row applied to the callback
        ref = [model.readout[0] @ model.rhs(0.0, z) for z in run.states]
        assert len(rates) == len(times)
        assert np.abs(rates - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_budget_raise_after_a_partly_filled_block(self, monkeypatch, solvers):
        monkeypatch.setattr(dyn, "MAX_STEPS", 300)
        model = _fault_model("hyperfine+zeeman")
        with pytest.raises(IntegrationError, match="step budget exhausted") as info:
            _run(model)
        run = solvers[-1]
        diag = info.value.diagnostics
        assert diag["steps"] == len(run.times) - 1 == 300
        assert diag["t"] == run.t
        assert_solver_counts(diag, run)

    @pytest.mark.parametrize("mode", ["hyperfine+zeeman", "hyperfine"])
    @pytest.mark.parametrize("step", [5, 256, 300])
    def test_positivity_loss_raises_at_its_step(self, solvers, faults, mode, step):
        model = _fault_model(mode)
        faults[step] = _negative_population(model)
        with pytest.raises(IntegrationError, match="state lost positivity") as info:
            _run(model)
        run = solvers[-1]
        diag = info.value.diagnostics
        assert set(diag) == {"t", "min_eig"}
        assert diag["t"] == run.times[step]
        s = model.coords(run.states[step])
        assert diag["min_eig"] == pytest.approx(model.sub.min_eigenvalue(s), rel=0, abs=1e-15)
        assert diag["min_eig"] < -dyn.POSITIVITY_TOL

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("step", [5, 300])
    def test_non_finite_state_raises_at_its_step(self, solvers, faults, value, step):
        model = _fault_model("hyperfine+zeeman")
        faults[step] = _non_finite(value)
        with (pytest.raises(IntegrationError, match="solver failed: non-finite state") as info,
              np.errstate(invalid="ignore")):
            _run(model)
        run = solvers[-1]
        diag = info.value.diagnostics
        assert set(diag) == {"t", "h", "steps", "nfev", "njev"}
        assert (diag["t"], diag["h"]) == (run.times[step],
                                          run.times[step] - run.times[step - 1])
        assert diag["steps"] == step - 1
        assert_solver_counts(diag, run)

    @pytest.mark.parametrize("later", ["non-finite", "budget"])
    def test_positivity_loss_is_raised_before_a_later_failure(
            self, monkeypatch, solvers, faults, later):
        model = _fault_model("hyperfine+zeeman")
        faults[300] = _negative_population(model)
        if later == "non-finite":
            faults[303] = _non_finite(np.nan)
        else:
            monkeypatch.setattr(dyn, "MAX_STEPS", 303)
        with (pytest.raises(IntegrationError, match="state lost positivity") as info,
              np.errstate(invalid="ignore")):
            _run(model)
        assert info.value.diagnostics["t"] == solvers[-1].times[300]


def _trace_exact_integration(model, t_end):
    """M at ``t_end`` from the seed, integrated with one population
    eliminated so the trace stays exactly one (the generator's column sums
    are rounded at about 1e-11 /s, which a long run in all n state
    coordinates turns into a trace drift)."""
    from scipy.integrate import solve_ivp

    def full(y):
        return np.append(y, 1.0 - y.sum())

    def rhs(_t, y):
        return model.rhs_coords(full(y))[:-1]

    jacobian = reference_jacobian(model)

    def jac(_t, y):
        jj = jacobian(full(y))
        return jj[:-1, :-1] - jj[:-1, -1:]
    y0 = model.seed_coords(model.params.seed_polarization)[:-1]
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="Radau", jac=jac,
                    rtol=1e-10, atol=1e-14)
    return model.magnetization(full(sol.y[:, -1]))


class TestExactStops:
    """A steady state converges only on an exact fixed point: without
    integrating on a symmetric state the seed cannot leave, and by a
    checked Newton solve near an ordered one.  These oracles integrate
    instead."""

    def test_classified_cells_relax_under_integration(self):
        # a fixed-horizon run over the whole time budget
        axis = np.linspace(0.5, 6.0, 12)
        classified = 0
        for i in axis:
            for j in axis:
                p = SimParams.from_rates(i, j)
                model = CompiledModel(p)
                if dyn._classified(model, p.seed_polarization) is None:
                    continue
                classified += 1
                traj = integrate(p, t_end=2000.0 / GAMMA, model=model)
                assert abs(traj.magnetization[-1]) < p.seed_polarization, (i, j)
        assert classified >= 30

    def test_classified_run_reports_the_symmetric_state(self):
        p = SimParams.from_rates(0.3, 1.0)
        model = CompiledModel(p)
        res = steady_state(p, model=model)
        assert res.stop == "symmetric"
        assert (res.converged, res.floored, res.tau) == (True, True, p.t1)
        assert (res.steps, res.nfev, res.njev) == (0, 0, 0)
        assert res.trajectory.times.tolist() == [0.0]
        s_star = model.coords(model.symmetric_fixed_point())
        assert res.m_ss == model.magnetization(s_star)
        assert np.array_equal(res.rho_ss, model.sub.to_matrix(s_star))

    def test_classified_run_records_the_seed_rate(self):
        # the one recorded time of a classified run carries dM/dt at the
        # seed, as every integrated run's does
        p = SimParams.from_rates(0.3, 1.0)
        model = CompiledModel(p)
        res = steady_state(p, model=model)
        assert res.stop == "symmetric"
        seed = model.seed_coords(p.seed_polarization)
        run = dyn._integrate_coords(model, seed, 1e-6, IntegrationControls())
        assert res.trajectory.magnetization.tolist() == run[1][:1].tolist()
        assert res.trajectory.rates.tolist() == run[2][:1].tolist()
        rate = np.trace(model.rhs_matrix(model.sub.to_matrix(seed)) @ model.fz).real
        assert res.trajectory.rates[0] == pytest.approx(rate / model.f_max, rel=1e-12)
        assert rate < 0  # the seed relaxes back

    @pytest.mark.parametrize("i_over_i0, i, j", [(1.04, None, 3.7), (None, 2.0, 3.0)])
    def test_newton_stop_matches_long_integration(self, i_over_i0, i, j):
        if i is None:
            i = i_over_i0 * critical_pump_rate(j)
        p = SimParams.from_rates(i, j)
        model = CompiledModel(p)
        res = steady_state(p, model=model)
        assert res.stop == "fixed-point"
        assert res.m_ss == pytest.approx(_trace_exact_integration(model, 40.0), rel=1e-11)
        # the response time is taken against |M_ss|, inside the recorded run
        mags = np.abs(res.trajectory.magnetization)
        assert mags[-1] >= dyn.RESPONSE_FRACTION * abs(res.m_ss)
        assert res.tau == res.trajectory.response_crossing(dyn.RESPONSE_FRACTION,
                                                           res.m_ss)

    @pytest.mark.parametrize("i_over_i0, i, j", [(1.04, None, 3.7), (None, 2.0, 3.0)])
    def test_long_run_keeps_unit_trace(self, i_over_i0, i, j):
        # the column sums of the generator are rounded at about 1e-11 /s,
        # but every state of the chart has unit trace, so a long run cannot
        # drift off it, nor M off the Newton fixed point
        if i is None:
            i = i_over_i0 * critical_pump_rate(j)
        p = SimParams.from_rates(i, j)
        model = CompiledModel(p)
        traj = integrate(p, t_end=120.0, model=model)
        assert abs(np.trace(traj.final_state).real - 1.0) <= 1e-14
        res = steady_state(p, model=model)
        assert res.stop == "fixed-point"
        assert traj.magnetization[-1] == pytest.approx(res.m_ss, rel=1e-12)

    @staticmethod
    def radau_response_time(p):
        """``steady_state``'s tau at ``p``, at its default rtol, and the 63%
        crossing of an independent integrator, scipy's Radau IIA at rtol
        1e-12, root-found on its dense output."""
        from scipy.integrate import solve_ivp
        model = CompiledModel(p)
        res = steady_state(p, model=model)

        def crossing(_t, y):
            return abs(model.magnetization(y)) - dyn.RESPONSE_FRACTION * abs(res.m_ss)
        crossing.terminal = True
        jacobian = reference_jacobian(model)
        sol = solve_ivp(lambda _t, y: model.rhs_coords(y), (0.0, 2000.0 / GAMMA),
                        model.seed_coords(p.seed_polarization), method="Radau",
                        jac=lambda _t, y: jacobian(y), rtol=1e-12, atol=1e-14,
                        events=crossing)
        return res.tau, sol.t_events[0][0]

    @pytest.mark.parametrize("i_over_i0, i, j", [(None, 2.0, 3.0), (1.06, None, 3.7)])
    def test_response_time_matches_stock_radau(self, i_over_i0, i, j):
        if i is None:
            i = i_over_i0 * critical_pump_rate(j)
        tau, reference = self.radau_response_time(SimParams.from_rates(i, j))
        assert tau == pytest.approx(reference, rel=1e-7)

    def test_hyperfine_response_time_matches_stock_radau(self):
        # the demo-06 point, with the Zeeman coherences kept
        p = SimParams.from_rates(1.15 * critical_pump_rate(2.6), 2.6,
                                 projection_mode="hyperfine", b_z=1e-4)
        tau, reference = self.radau_response_time(p)
        assert tau == pytest.approx(reference, rel=1e-7)

    @pytest.mark.parametrize("i_over_i0, i, j", [(None, 2.0, 3.0), (1.06, None, 3.7),
                                                 (None, 1.417, 2.333)])
    def test_loose_tolerance_keeps_the_response_time(self, i_over_i0, i, j):
        # the solver's rtol applies to M itself, not to the populations
        # near 1/16 beside which the 1e-4 seed is a small difference, so even
        # rtol 1e-4 resolves the seed's growth (3e-2 to 8e-2 off otherwise)
        if i is None:
            i = i_over_i0 * critical_pump_rate(j)
        p = SimParams.from_rates(i, j)
        model = CompiledModel(p)
        q, n = model.m_basis, model.sub.n
        # the unit-trace chart: n - 1 orthonormal trace-free directions, led by M
        assert q.shape == (n, n - 1)
        assert np.allclose(q.T @ q, np.eye(n - 1))
        tr_row = np.zeros(n)
        tr_row[:model.sub.dim] = 1.0
        assert np.abs(tr_row @ q).max() <= 1e-14
        fz_row = np.array([reference_magnetization(model, e) for e in np.eye(n)])
        assert abs(fz_row @ q[:, 0]) == pytest.approx(np.linalg.norm(fz_row))
        # so M is read off z alone: fz . s = c z_0, since fz . u = 0
        assert fz_row @ model.u == 0.0
        assert np.abs(fz_row @ q - model.readout[0]).max() <= 1e-15
        tight = steady_state(p, model=model)
        loose = steady_state(p, model=model, controls=IntegrationControls(rtol=1e-4))
        assert loose.steps < tight.steps
        assert loose.tau == pytest.approx(tight.tau, rel=1e-3)

    def test_zero_seed_ordered_run_is_classified(self):
        # the symmetric sector is invariant, so a zero seed stays on the
        # symmetric state, a fixed point that Newton rejects as unstable
        p = SimParams.from_rates(2.0, 3.0, seed_polarization=0.0)
        model = CompiledModel(p)
        z_star = model.symmetric_fixed_point()
        assert model.stable_fixed_point(z_star) is None
        res = steady_state(p, model=model)
        assert res.stop == "symmetric"
        assert res.steps == 0
        assert res.m_ss == model.magnetization(model.coords(z_star))

    def test_hyperfine_symmetric_state_is_no_fixed_point(self):
        # the linear solve keeps transverse coherences that the feedback
        # acts on, so neither the slow mode nor the classification applies
        i0 = critical_pump_rate(2.6)
        p = SimParams.from_rates(1.15 * i0, 2.6, projection_mode="hyperfine", b_z=1e-4)
        model = CompiledModel(p)
        with pytest.raises(IntegrationError, match="no fixed point"):
            model.symmetric_fixed_point()
        with pytest.raises(IntegrationError, match="no fixed point"):
            model.slow_mode_rate()
        res = steady_state(p, model=model)
        assert res.stop == "fixed-point"
        assert res.steps > 0
        assert abs(res.m_ss) > 0.2

    def test_bias_runs_are_never_classified(self):
        # (0.3, 1) without the bias is classified
        p = SimParams.from_rates(0.3, 1.0, h_over_gamma=1e-3, seed_polarization=0.0)
        res = steady_state(p)
        assert res.stop != "symmetric"
        assert res.steps > 0
        assert res.m_ss > 0

    @pytest.mark.parametrize("i_over_i0, i, j, kwargs", [
        (None, 0.3, 1.0, {}), (None, 2.0, 3.0, {}), (None, 6.0, 6.0, {}),
        (1.04, None, 3.7, {}), (None, 0.5, 2.3, {"h_over_gamma": 1e-3}),
        (1.15, None, 2.6, {"projection_mode": "hyperfine", "b_z": 1e-4})])
    def test_converged_runs_end_on_an_exact_fixed_point(self, i_over_i0, i, j, kwargs):
        if i is None:
            i = i_over_i0 * critical_pump_rate(j)
        p = SimParams.from_rates(i, j, **kwargs)
        model = CompiledModel(p)
        res = steady_state(p, model=model)
        assert res.converged
        assert res.stop in ("symmetric", "fixed-point")
        s = model.sub.from_matrix(res.rho_ss)
        assert np.abs(model.rhs_coords(s)).max() <= dyn.FIXED_POINT_RESIDUAL * GAMMA

    def test_newton_gate_reads_the_solvers_derivative(self, solvers):
        # the gate evaluates the solver's callback at the accepted state,
        # once, at the first accepted step of each STEADY_WINDOW_T1 / Gamma
        # window; the solver's own calls come from its integrator's run
        model = CompiledModel(SimParams.from_rates(2.0, 3.0))
        solver_rhs = model.rhs
        reads = []

        def rhs(t, z):
            if sys._getframe(1).f_code is dyn._integrate_coords.__code__:
                solver = solvers[-1]
                assert t == solver.t
                assert np.array_equal(z, solver.y)
                reads.append(solver.t)
            return solver_rhs(t, z)
        model.rhs = rhs
        model.stable_fixed_point = lambda _z: None  # never stops the run
        times, *_ = dyn._integrate_coords(model, model.seed_coords(1e-4), 40.0 / GAMMA,
                                          IntegrationControls(), stop_at_fixed_point=True)
        expected, due = [], 0.0
        for t in times[1:]:
            if t >= due:
                expected.append(t)
                due = t + dyn.STEADY_WINDOW_T1 / GAMMA
        assert reads == expected
        assert len(reads) >= 7
