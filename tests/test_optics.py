import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from spingas import optics
from spingas.dynamics import PROJECTION_MODES, SimParams, Subspace
from spingas.optics import (
    AtomSystem,
    DopplerSpec,
    FieldAction,
    OpticalChannel,
    OpticalField,
    OpticsError,
    bias_field,
    cesium_collisions,
    cesium_doppler,
    coherence_fraction,
    couple_field,
    excited_quasi_steady,
    excited_source,
    excited_superoperator,
    field_coupling_matrix,
    pump_field,
    repopulation,
    stationary,
    transition_probability_table,
)
from conftest import random_density


class TestCoherenceFraction:
    def test_zero_field(self, system, collisions, doppler):
        w = coherence_fraction(pump_field(0.0), system, collisions, doppler)
        assert np.abs(w).max() == 0.0

    def test_stationary_matches_direct_resolvent(self, system, collisions):
        # independent oracle: dense solve of H_e X - X H_g + (-D - i g) X = X0
        pump = pump_field(1.0)
        w = coherence_fraction(pump, system, collisions, stationary())
        x = field_coupling_matrix(pump, system)
        dtot = pump.detuning + system.hyperfine_offset(3, 4)
        big = (np.kron(system.h_e, np.eye(16))
               - np.kron(np.eye(16), system.h_g.T)
               + (-dtot - 1j * collisions.gamma_c) * np.eye(256))
        w_ref = np.linalg.solve(big, x.reshape(-1)).reshape(16, 16)
        assert np.abs(w - w_ref).max() < 1e-12 * np.abs(w_ref).max()

    def test_quadrature_convergence(self, system, collisions):
        w40 = coherence_fraction(pump_field(1.0), system, collisions, cesium_doppler(order=40))
        w80 = coherence_fraction(pump_field(1.0), system, collisions, cesium_doppler(order=80))
        rel = np.linalg.norm(w40 - w80) / np.linalg.norm(w80)
        assert rel < 1e-6

    def test_linearity_in_amplitude(self, system, collisions, doppler):
        w1 = coherence_fraction(pump_field(1.0), system, collisions, doppler)
        w4 = coherence_fraction(pump_field(4.0), system, collisions, doppler)
        assert np.abs(w4 - 2.0 * w1).max() == 0.0

    def test_doppler_width_default(self):
        # thermal 1/e half-width of k.v near 2*pi*237 MHz at 87 C
        width = optics.doppler_width(87.0)
        assert width / (2 * math.pi) == pytest.approx(237e6, rel=0.02)

    def test_doppler_nodes(self):
        nodes, weights = stationary().nodes()
        assert list(nodes) == [0.0] and list(weights) == [1.0]
        nodes, weights = DopplerSpec(1e9, 40).nodes()
        assert weights.sum() == pytest.approx(1.0)


class TestExcitedQuasiSteady:
    def test_dark_states(self, system, collisions, doppler):
        cpl = couple_field(pump_field(3e12), system, collisions, doppler)
        for m in (4, -4):
            rho = np.zeros((16, 16), dtype=complex)
            rho[system.basis_g.index(4, m), system.basis_g.index(4, m)] = 1.0
            rho_e = excited_quasi_steady(rho, [cpl], system, collisions)
            assert np.abs(rho_e).max() < 1e-12

    def test_zero_coupling_gives_zero(self, system, collisions, doppler):
        cpl = couple_field(pump_field(0.0), system, collisions, doppler)
        rho_e = excited_quasi_steady(np.eye(16) / 16, [cpl], system, collisions)
        assert np.abs(rho_e).max() == 0.0

    def test_weak_pump_linearity(self, system, collisions, doppler):
        rho0 = np.eye(16) / 16
        t1 = np.trace(excited_quasi_steady(
            rho0, [couple_field(pump_field(1e-6), system, collisions, doppler)],
            system, collisions)).real
        t2 = np.trace(excited_quasi_steady(
            rho0, [couple_field(pump_field(2e-6), system, collisions, doppler)],
            system, collisions)).real
        assert t2 / t1 == pytest.approx(2.0, rel=0.01)

    def test_hermitian_psd(self, system, collisions, doppler, rng):
        cpl = couple_field(pump_field(3e12), system, collisions, doppler)
        for _ in range(5):
            rho_e = excited_quasi_steady(random_density(rng), [cpl], system, collisions)
            assert np.abs(rho_e - rho_e.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(rho_e).min() >= -1e-9


class TestFieldAction:
    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    @pytest.mark.parametrize("beam", ["pump", "bias"])
    def test_real_solve_matches_the_complex_solve(self, system, collisions, doppler,
                                                  mode, beam):
        # oracle: X(a) = solve(A0 + a S, -a B T) of the whole excited level in
        # complex arithmetic, from the beam at intensity a, whose drain is a S
        # and source a B, against the real solve on the reached blocks: both
        # bias signs, from 0.01 to 100 times the beam's calibrated unit
        for h in (1.0, -1.0) if beam == "bias" else (0.0,):
            unit = getattr(SimParams.from_rates(1.0, 0.0, h), beam)
            t_map, t_maps = self.subspace_maps(system, mode, unit)
            cpl = couple_field(unit.scaled(1.0), system, collisions, doppler)
            action = FieldAction(system, cpl, collisions, t_map=t_map)
            for scale in (0.01, 0.1, 1.0, 10.0, 100.0):
                a = scale * unit.amplitude_sq
                cpl_a = couple_field(unit.scaled(a), system, collisions, doppler)
                ref = np.linalg.solve(excited_superoperator(system, [cpl_a], collisions),
                                      -excited_source([cpl_a]) @ np.hstack(t_maps))
                got = action.excited(a)
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_production_pump_solves_one_parity_block(self, system, collisions, doppler):
        # the x pump's drain changes m by 0 or 2 on either side, so A0 + a S
        # keeps the parity of m - m' of an excited entry; populations reach
        # the even block only
        pump = SimParams.from_rates(2.0, 3.0).pump
        cpl = couple_field(pump.scaled(1.0), system, collisions, doppler)
        t_map, _ = self.subspace_maps(system, "hyperfine+zeeman", pump)
        action = FieldAction(system, cpl, collisions, t_map=t_map)
        drain = optics._hermitian_block(optics._stimulated_drain(cpl, 16), 16)
        blocks = optics._diagonal_blocks((action._a0 != 0) | (drain != 0))
        diag, up, _ = optics._hermitian_index(16)
        rows, cols = np.divmod(np.concatenate([diag, up, up]), 16)
        m = np.array([float(mf) for _, mf in system.basis_e.states])
        parity = (m[rows] - m[cols]) % 2
        assert sorted(len(b) for b in blocks) == [128, 128]
        assert all(np.ptp(parity[b]) == 0 for b in blocks)
        reached = [b for b, *_ in action._blocks]
        assert len(reached) == 1 and len(reached[0]) == 128
        assert (parity[reached[0]] == 0).all()

    def test_singular_block_raises(self, doppler):
        # no quench, no spin destruction and no Zeeman splitting: A0 is the
        # commutator with a diagonal H_e, which annihilates the populations
        system = AtomSystem(b_z=0.0)
        coll = replace(cesium_collisions(), gamma_q=0.0, gamma_p=0.0)
        pump = pump_field(1.0)
        t_map, _ = self.subspace_maps(system, "hyperfine+zeeman", pump)
        action = FieldAction(system, couple_field(pump, system, coll, doppler), coll,
                             t_map=t_map)
        with pytest.raises(OpticsError, match="singular"):
            action.excited(0.0)

    def test_pi_rotation_is_the_exponential(self, system):
        lam, v = np.linalg.eigh(system.ops_g["F"].x)
        dense = v @ np.diag(np.exp(-1j * math.pi * lam)) @ v.conj().T
        assert np.abs(system.ground_pi_rotation_x() - dense).max() < 1e-13

    @staticmethod
    def subspace_maps(system, mode, field):
        """The subspace's t_map, and the source maps of ``field``: t_map,
        and for a linear field also its pi-about-x rotation."""
        sub = Subspace(mode, system.basis_g)
        t_map = np.stack([sub.to_matrix(e).reshape(-1) for e in np.eye(sub.n)], axis=1)
        t_maps = [t_map]
        if field.wants_symmetrization():
            u = system.ground_pi_rotation_x()
            t_maps.append(np.kron(u, u.conj()) @ t_map)
        return t_map, t_maps

    def test_non_hermitian_t_map_raises(self, system, collisions, doppler):
        cpl = couple_field(pump_field(1.0), system, collisions, doppler)
        for t_map in (np.eye(256), np.eye(256)[:, [1]]):  # the identity; vec(e_01) alone
            with pytest.raises(ValueError, match="not Hermitian"):
                FieldAction(system, cpl, collisions, t_map=t_map)


class TestRepopulation:
    def test_zero(self, system, collisions):
        out = repopulation(np.zeros((16, 16)), system.dipole, collisions)
        assert np.abs(out).max() == 0.0

    def test_trace_identity(self, system, collisions, rng):
        # oracle: direct summation over the three Cartesian components
        for _ in range(10):
            rho_e = random_density(rng)
            out = repopulation(rho_e, system.dipole, collisions)
            direct = sum(d.conj().T @ rho_e @ d for d in system.dipole.matrices)
            assert np.abs(out - (2 * collisions.gamma_q / 3) * direct).max() < 1e-12
            ratio = np.trace(out).real / (collisions.gamma_q * np.trace(rho_e).real)
            assert abs(ratio - 1.0) < 1e-10

    def test_isotropic_source_is_axial(self, system, collisions):
        out = repopulation(np.eye(16) / 16, system.dipole, collisions)
        fz = system.ops_g["F"].z
        assert np.abs(out @ fz - fz @ out).max() < 1e-12 * np.abs(out).max()


class TestTransitionTable:
    def test_exact_rationals(self, system):
        rows = transition_probability_table(system, pump_field(1.0))
        expected = {0: (Fraction(1, 2), Fraction(1, 2)),
                    1: (Fraction(15, 21), Fraction(6, 21)),
                    2: (Fraction(7, 8), Fraction(1, 8)),
                    3: (Fraction(28, 29), Fraction(1, 29))}
        assert len(rows) == 4
        for m, up, dn in rows:
            assert up == pytest.approx(float(expected[m][0]), abs=1e-12)
            assert dn == pytest.approx(float(expected[m][1]), abs=1e-12)

    def test_requires_transverse_polarization(self, system):
        longitudinal = OpticalField(1.0, (0, 0, 1.0), 0.0, (Fraction(3), Fraction(4)))
        with pytest.raises(ValueError):
            transition_probability_table(system, longitudinal)


class TestOpticalChannel:
    def test_trace_conservation(self, system, collisions, doppler, rng):
        cpls = [couple_field(pump_field(3e12), system, collisions, doppler),
                couple_field(bias_field(1e12), system, collisions, doppler)]
        channel = OpticalChannel(system, cpls, collisions)
        for _ in range(5):
            out = channel.apply(random_density(rng))
            assert abs(np.trace(out)) < 1e-10

    def test_matches_quasi_steady_single_field(self, system, collisions, doppler, rng):
        cpl = couple_field(pump_field(3e12), system, collisions, doppler)
        channel = OpticalChannel(system, [cpl], collisions)
        rho = random_density(rng)
        ref = excited_quasi_steady(rho, [cpl], system, collisions)
        assert np.abs(channel.rho_e(rho) - ref).max() < 1e-12 * max(np.abs(ref).max(), 1e-30)

    def test_symmetrized_pump_has_no_z_bias(self, system, collisions, doppler):
        # x-polarized channel at B = 1 G: the fully mixed state must produce
        # no magnetization rate once the residual circularity is removed
        cpl = couple_field(pump_field(3e12), system, collisions, doppler)
        channel = OpticalChannel(system, [cpl], collisions)
        fz = system.ops_g["F"].z
        rate = np.trace(fz @ channel.apply(np.eye(16) / 16)).real
        assert abs(rate) < 1e-9 * channel.absorption_rate(np.eye(16) / 16)

    def test_absorption_rate_linear(self, system, collisions, doppler):
        rho0 = np.eye(16) / 16
        c1 = OpticalChannel(system, [couple_field(pump_field(1e12), system, collisions, doppler)], collisions)
        c2 = OpticalChannel(system, [couple_field(pump_field(2e12), system, collisions, doppler)], collisions)
        r1, r2 = c1.absorption_rate(rho0), c2.absorption_rate(rho0)
        assert r1 > 0
        assert r2 / r1 == pytest.approx(2.0, rel=1e-6)

    def test_bias_field_couples_both_manifolds(self, system, collisions, doppler):
        x = field_coupling_matrix(bias_field(1.0), system)
        sl4 = system.basis_g.block_slice(4)
        assert np.abs(x[:, sl4]).max() > 0
        x_pump = field_coupling_matrix(pump_field(1.0), system)
        assert np.abs(x_pump[:, sl4]).max() == 0.0
