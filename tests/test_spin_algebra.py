import math
from fractions import Fraction

import numpy as np
import pytest

from spingas import spin_algebra as sa


def product_state_count(i_n, s_e):
    """Independent oracle for the basis size: direct product-state counting."""
    return int((2 * Fraction(i_n) + 1) * (2 * Fraction(s_e) + 1))


class TestBasis:
    def test_cesium_ground(self):
        basis = sa.build_basis(sa.cesium(), "ground")
        assert basis.dimension == 16
        assert [float(f) for f in basis.f_values] == [3.0, 4.0]
        assert len([s for s in basis.states if s[0] == 3]) == 7
        assert len([s for s in basis.states if s[0] == 4]) == 9

    def test_uncoupled_limit(self):
        spec = sa.AtomSpec(nuclear_spin=0, electron_spin=Fraction(1, 2),
                           a_ground=0.0, a_excited=0.0, g_ground=1.0, g_excited=1.0)
        basis = sa.build_basis(spec, "ground")
        assert basis.dimension == 2
        assert [float(f) for f in basis.f_values] == [0.5]

    def test_i_three_halves(self):
        spec = sa.AtomSpec(nuclear_spin=Fraction(3, 2), electron_spin=Fraction(1, 2),
                           a_ground=1.0, a_excited=1.0, g_ground=1.0, g_excited=1.0)
        basis = sa.build_basis(spec, "ground")
        assert basis.dimension == product_state_count("3/2", "1/2") == 8
        assert [float(f) for f in basis.f_values] == [1.0, 2.0]

    def test_ordering_is_ascending_f_then_m(self):
        basis = sa.build_basis(sa.cesium(), "ground")
        fs = [float(f) for f, _ in basis.states]
        assert fs == sorted(fs)
        for f in (3, 4):
            ms = [float(m) for ff, m in basis.states if ff == f]
            assert ms == sorted(ms) == list(np.arange(-f, f + 1))

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            sa.AtomSpec(nuclear_spin=0.3, electron_spin=0.5,
                        a_ground=0.0, a_excited=0.0, g_ground=0.0, g_excited=0.0)

    def test_manifest(self):
        basis = sa.build_basis(sa.cesium(), "ground")
        manifest = basis.manifest()
        assert manifest["states"][0] == {"index": 0, "F": "3", "m_F": "-3"}
        assert len(manifest["states"]) == 16


class TestClebschGordan:
    def test_two_spin_half(self):
        assert sa.clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(1 / math.sqrt(2))
        assert sa.clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / math.sqrt(2))

    def test_stretched_state(self):
        for j in (0.5, 1, 2.5, 3):
            assert sa.clebsch_gordan(j, j, j, j, 2 * j, 2 * j) == pytest.approx(1.0)

    def test_unitarity(self):
        j1, j2 = Fraction(3), Fraction(1, 2)
        for m1 in np.arange(-3, 4):
            for m2 in (-0.5, 0.5):
                total = sum(
                    sa.clebsch_gordan(j1, m1, j2, m2, J, Fraction(m1) + Fraction(m2)) ** 2
                    for J in (Fraction(5, 2), Fraction(7, 2))
                    if abs(m1 + m2) <= J)
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_selection_zeros(self):
        assert sa.clebsch_gordan(1, 1, 1, -1, 2, 1) == 0.0  # M != m1 + m2
        assert sa.clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle violation

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            sa.clebsch_gordan(1, 2, 1, 0, 2, 2)  # |m| > j
        with pytest.raises(ValueError):
            sa.clebsch_gordan(0.3, 0.1, 1, 0, 1, 0)

    def test_equal_arguments_share_one_cache_entry(self):
        sa.clebsch_gordan.cache_clear()
        a = sa.clebsch_gordan(3.5, 0.5, 0.5, 0.5, 4, 1)
        b = sa.clebsch_gordan(Fraction(7, 2), sa.HALF, sa.HALF, sa.HALF, 4, 1)
        assert a == b
        assert sa.clebsch_gordan.cache_info().currsize == 1

    def test_against_sympy(self):
        sympy_wigner = pytest.importorskip("sympy.physics.quantum.cg")
        from sympy import Rational
        rng = np.random.default_rng(5)
        doubled = rng.integers(0, 8, size=(40, 3))
        for dj1, dj2, k in doubled:
            j1, j2 = Rational(int(dj1), 2), Rational(int(dj2), 2)
            for dJ in range(abs(dj1 - dj2), dj1 + dj2 + 1, 2):
                J = Rational(int(dJ), 2)
                m1 = j1 - int(k) % (dj1 + 1)
                for dm2 in range(-dj2, dj2 + 1, 2):
                    m2 = Rational(int(dm2), 2)
                    if abs(m1 + m2) > J:
                        continue
                    ours = sa.clebsch_gordan(j1, m1, j2, m2, J, m1 + m2)
                    ref = float(sympy_wigner.CG(j1, m1, j2, m2, J, m1 + m2).doit())
                    assert ours == pytest.approx(ref, abs=1e-13)


class TestOperators:
    def test_commutators(self, system):
        for ops in (system.ops_g, system.ops_e):
            for name in ("S", "I", "F"):
                x, y, z = ops[name].matrices
                assert np.abs(x @ y - y @ x - 1j * z).max() < 1e-12
                assert np.abs(y @ z - z @ y - 1j * x).max() < 1e-12
                assert np.abs(z @ x - x @ z - 1j * y).max() < 1e-12

    def test_f_is_sum(self, system):
        for i in range(3):
            s = system.ops_g["S"].matrices[i]
            nuc = system.ops_g["I"].matrices[i]
            f = system.ops_g["F"].matrices[i]
            assert np.abs(f - s - nuc).max() < 1e-12

    def test_built_once_per_basis_and_read_only(self, system):
        ops = sa.angular_momentum_operators(system.basis_g)
        assert ops["S"] is system.ops_g["S"]
        with pytest.raises(ValueError):
            ops["S"].z.matrix[0, 0] = 1.0
        with pytest.raises(TypeError):
            ops["S"] = ops["F"]

    def test_traceless(self, system):
        assert abs(np.trace(system.ops_g["S"].z.matrix)) < 1e-12

    def test_fz_eigenvalues(self, system):
        eig = np.sort(np.diag(system.ops_g["F"].z.matrix).real)
        expected = np.sort(np.concatenate([np.arange(-3, 4), np.arange(-4, 5)]))
        assert np.allclose(eig, expected, atol=1e-12)

    def test_f_squared_blocks(self, system):
        f2 = sum(m @ m for m in system.ops_g["F"].matrices)
        basis = system.basis_g
        sl4 = basis.block_slice(4)
        sl3 = basis.block_slice(3)
        assert np.allclose(np.diag(f2)[sl4].real, 20.0, atol=1e-12)
        assert np.allclose(np.diag(f2)[sl3].real, 12.0, atol=1e-12)
        assert np.abs(f2 - np.diag(np.diag(f2))).max() < 1e-12

    def test_coupling_unitary(self, system):
        from spingas.spin_algebra import coupling_unitary
        u = coupling_unitary(system.basis_g)
        assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-12


class TestHamiltonians:
    def test_hyperfine_interval(self, system):
        # Lande interval oracle: E(F) = A/2 [F(F+1) - I(I+1) - S(S+1)],
        # so the 3-4 splitting is 4A = 2*pi*9.2e9 for A = 2*pi*2.3e9.
        h = sa.hyperfine_hamiltonian(system.spec, system.basis_g, "ground").matrix
        d = np.diag(h).real
        split = d[-1] - d[0]
        assert split == pytest.approx(4 * system.spec.a_ground, rel=1e-14)
        assert split / (2 * math.pi) == pytest.approx(9.2e9, rel=1e-12)

    def test_zero_coupling(self, system):
        spec = sa.AtomSpec(nuclear_spin=Fraction(7, 2), electron_spin=Fraction(1, 2),
                           a_ground=0.0, a_excited=0.0,
                           g_ground=1.0, g_excited=1.0)
        basis = sa.build_basis(spec, "ground")
        h = sa.hyperfine_hamiltonian(spec, basis, "ground").matrix
        assert np.abs(h).max() == 0.0

    def test_hyperfine_symmetries(self, system):
        h = sa.hyperfine_hamiltonian(system.spec, system.basis_g, "ground").matrix
        f2 = sum(m @ m for m in system.ops_g["F"].matrices)
        fz = system.ops_g["F"].z.matrix
        assert np.abs(h @ f2 - f2 @ h).max() < 1e-12 * np.abs(h).max()
        assert np.abs(h @ fz - fz @ h).max() < 1e-12 * np.abs(h).max()

    def test_zeeman_scale(self, system):
        h = sa.zeeman_hamiltonian(system.spec, 1.0, system.basis_g, "ground").matrix
        # spectral norm is g B max|S_z| = g B / 2
        norm = np.linalg.norm(h, ord=2)
        assert 2 * norm == pytest.approx(2 * math.pi * 2.8e6, rel=1e-12)
        assert np.abs(h - h.conj().T).max() < 1e-12 * norm

    def test_zeeman_zero_field(self, system):
        h = sa.zeeman_hamiltonian(system.spec, 0.0, system.basis_g, "ground").matrix
        assert np.abs(h).max() == 0.0

    def test_zeeman_axial_symmetry(self, system):
        h = sa.zeeman_hamiltonian(system.spec, 1.0, system.basis_g, "ground").matrix
        fz = system.ops_g["F"].z.matrix
        assert np.abs(h @ fz - fz @ h).max() < 1e-12 * np.abs(h).max()


class TestDipole:
    def test_selection_rules(self, system):
        sph = sa.spherical_components(system.dipole)
        for q, mat in sph.items():
            for r, (fe, me) in enumerate(system.basis_e.states):
                for c, (fg, mg) in enumerate(system.basis_g.states):
                    if abs(mat[r, c]) > 1e-14:
                        assert me == mg + q
                        assert abs(fe - fg) <= 1

    def test_closure_both_sides(self, system):
        sph = sa.spherical_components(system.dipole)
        up = sum(sph[q] @ sph[q].conj().T for q in (-1, 0, 1))
        dn = sum(sph[q].conj().T @ sph[q] for q in (-1, 0, 1))
        assert np.abs(up - 1.5 * np.eye(16)).max() < 1e-12
        assert np.abs(dn - 1.5 * np.eye(16)).max() < 1e-12

    def test_x_polarization_is_sigma_pm(self, system):
        # x-linear light carries only q = +/-1: no matrix element preserves m
        from spingas.spin_algebra import polarization_vector
        dx = system.dipole.dot(polarization_vector("x"))
        for r, (fe, me) in enumerate(system.basis_e.states):
            for c, (fg, mg) in enumerate(system.basis_g.states):
                if abs(dx[r, c]) > 1e-14:
                    assert abs(me - mg) == 1

    def test_stretched_states_decoupled_from_pump_manifold(self, system):
        # the maximally polarized states live in F=4 and have no element on
        # the F_g=3 pump transition
        sph = sa.spherical_components(system.dipole)
        sl3 = system.basis_g.block_slice(3)
        for m in (4, -4):
            col = system.basis_g.index(4, m)
            assert col not in range(sl3.start, sl3.stop)
        # and the x-polarized coupling restricted to F_g=3 annihilates them
        from spingas.optics import field_coupling_matrix, pump_field
        x = field_coupling_matrix(pump_field(1.0), system)
        for m in (4, -4):
            assert np.abs(x[:, system.basis_g.index(4, m)]).max() == 0.0


class TestExport:
    def test_operator_csv(self, system):
        op = sa.Operator(np.array([[1.0, 2j], [0.0, -1.0]]), "a", "b")
        text = sa.operator_to_csv(op)
        lines = text.strip().splitlines()
        assert lines[0] == "row,col,re,im"
        assert lines[1] == "0,0,1,0"
        assert lines[2].startswith("0,1,0,2")
        assert len(lines) == 5
