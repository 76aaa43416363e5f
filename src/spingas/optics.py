"""Optical coupling of the ground manifold through the pressure-broadened
excited level.

The optical coherence between the levels follows the fields quasi-statically
because collisional dephasing (gamma_c) dominates every other optical scale.
Eliminating it gives, per field, a coherence-fraction operator

    w = < E^-1 (E0 . D) >_v,   E(X) = H_e X - X H_g + (k.v - Delta - i gamma_c) X,

velocity-averaged over the 1-D Maxwell-Boltzmann distribution of the Doppler
shift k.v by Gauss-Hermite quadrature.  The excited-level matrix then solves a
linear quasi-steady equation driven by i(X rho_g w^+ - w rho_g X^+), and the
ground level sees three channels: depletion, stimulated return, and quench
repopulation (2 gamma_q / 3) sum_i D_i^+ rho_e D_i.  The depletion keeps the
dissipative (anti-Hermitian) part of its kernel X^+ w only: the Hermitian
part, the coherent light shift, is left out, as it commutes out of the
populations that the production 'hyperfine+zeeman' chart keeps.

Each field addresses the ground hyperfine manifold of its reference
transition only; the other manifold sits a full ground hyperfine splitting
away and is treated as uncoupled, which makes the stretched states of the
non-addressed manifold exactly dark.

All of this is linear in rho_g.  :class:`FieldAction` assembles one field's
ground-level action between fixed input and output maps, as a function of
the field intensity; :class:`OpticalChannel` is the whole ground-level
action as one superoperator, assembled from it.

Every map involved takes Hermitian matrices to Hermitian matrices, so the
excited-level solve runs in real arithmetic: a Hermitian d x d matrix has
the real coordinates of its d diagonal entries and of the real and
imaginary parts of its d(d-1)/2 upper entries (:func:`_hermitian_rows`).
Rotation about z splits that solve into independent blocks
(:class:`FieldAction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import units
from .spin_algebra import (
    EXCITED,
    GROUND,
    AtomSpec,
    VectorOperator,
    angular_momentum_operators,
    build_basis,
    cesium,
    dipole_operator,
    hyperfine_hamiltonian,
    polarization_vector,
    spherical_components,
    zeeman_hamiltonian,
)

# Cs D1 kinematics for the default Doppler width.
CS_MASS_KG = 132.905 * 1.66053906660e-27
D1_WAVELENGTH_M = 894.6e-9
BOLTZMANN_J_PER_K = 1.380649e-23


class OpticsError(RuntimeError):
    """Raised when the optical linear algebra cannot be carried out."""


@dataclass(frozen=True)
class OpticalField:
    """One optical beam: intensity proxy, polarization, detuning.

    ``detuning`` is an angular frequency relative to ``reference_transition``
    (F_ground, F_excited); positive values are blue.  ``polarization`` is a
    named unit vector ('x', 'y', 'sigma+', 'sigma-') or an explicit complex
    3-vector of unit norm.

    With ``restrict_to_reference`` the beam couples only the ground manifold
    of its reference transition, making the other manifold exactly dark; the
    linear pump uses this (its stretched-state darkness drives the
    alignment), while the circular bias keeps the full far-detuned coupling
    so strong bias pumping can empty every non-stretched state.

    A linearly polarized beam ('x' or 'y') is symmetrized
    (:meth:`wants_symmetrization`): that removes the residual effective
    circularity it acquires from the Zeeman splitting of the optical
    denominators (the channel is averaged with its 180-degree-about-x
    rotation, the numerical analogue of actively zeroing the beam's circular
    component).  Circular and explicit-vector polarizations are not.
    """

    amplitude_sq: float
    polarization: str | tuple
    detuning: float
    reference_transition: tuple[Fraction, Fraction]
    restrict_to_reference: bool = True

    def wants_symmetrization(self) -> bool:
        return isinstance(self.polarization, str) and self.polarization in ("x", "y")

    def __post_init__(self):
        if self.amplitude_sq < 0:
            raise ValueError("amplitude_sq must be >= 0")
        fg, fe = self.reference_transition
        object.__setattr__(self, "reference_transition",
                           (Fraction(fg), Fraction(fe)))
        vec = self.polarization_vector()
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError("polarization vector must have unit norm")

    def polarization_vector(self) -> np.ndarray:
        if isinstance(self.polarization, str):
            return polarization_vector(self.polarization)
        return np.asarray(self.polarization, dtype=complex)

    def scaled(self, amplitude_sq: float) -> "OpticalField":
        return replace(self, amplitude_sq=amplitude_sq)


def pump_field(amplitude_sq: float = 1.0, detuning: float | None = None) -> OpticalField:
    """x-linear alignment beam, blue-detuned 700 MHz from F_g=3 -> F_e=4."""
    if detuning is None:
        detuning = units.frequency("700 MHz")
    return OpticalField(amplitude_sq, "x", detuning, (Fraction(3), Fraction(4)))


def bias_field(amplitude_sq: float = 1.0, sign: int = +1,
               detuning: float | None = None) -> OpticalField:
    """Circular bias beam, blue-detuned 1.2 GHz from F_g=3 -> F_e=4."""
    if detuning is None:
        detuning = units.frequency("1.2 GHz")
    pol = "sigma+" if sign >= 0 else "sigma-"
    return OpticalField(amplitude_sq, pol, detuning, (Fraction(3), Fraction(4)),
                        restrict_to_reference=False)


@dataclass(frozen=True)
class CollisionParams:
    """Collisional rates (angular frequencies / rates in rad/s or 1/s)."""

    gamma_c: float       # optical dephasing
    gamma_q: float       # quenching of the excited level
    gamma_p: float       # excited-level electron-spin destruction
    q_slowdown: float    # nuclear slow-down factor of electron-spin rates

    def __post_init__(self):
        if not self.gamma_c > 0:  # the elimination of the optical coherences needs it
            raise ValueError("gamma_c must be > 0")
        for name in ("gamma_q", "gamma_p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.q_slowdown <= 1:
            raise ValueError("q_slowdown must exceed 1")


def cesium_collisions() -> CollisionParams:
    return CollisionParams(
        gamma_c=units.frequency("1.86 GHz"),
        gamma_q=units.frequency("265 MHz"),
        gamma_p=units.frequency("219 MHz"),
        q_slowdown=4.57,
    )


@dataclass(frozen=True)
class DopplerSpec:
    """1-D thermal average of the Doppler shift k.v.

    ``width`` is the 1/e half-width of k.v in rad/s; order-n Gauss-Hermite
    quadrature integrates the Maxwell-Boltzmann weight exactly for
    polynomials up to degree 2n-1.  width=0 (or order=1) reduces to the
    stationary-atom limit.
    """

    width: float
    quadrature_order: int = 40

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if self.quadrature_order < 1:
            raise ValueError("quadrature_order must be >= 1")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        if self.width == 0.0:
            return np.array([0.0]), np.array([1.0])
        t, wts = np.polynomial.hermite.hermgauss(self.quadrature_order)
        return self.width * t, wts / math.sqrt(math.pi)


def doppler_width(temperature_c: float = 87.0) -> float:
    """1/e half-width of k.v for a cesium vapor on the D1 line, rad/s."""
    t_k = temperature_c + 273.15
    if t_k < 0:
        raise ValueError(f"temperature {temperature_c} C is below absolute zero")
    v = math.sqrt(2.0 * BOLTZMANN_J_PER_K * t_k / CS_MASS_KG)
    return 2.0 * math.pi / D1_WAVELENGTH_M * v


def cesium_doppler(temperature_c: float = 87.0, order: int = 40) -> DopplerSpec:
    return DopplerSpec(width=doppler_width(temperature_c), quadrature_order=order)


def stationary() -> DopplerSpec:
    return DopplerSpec(width=0.0, quadrature_order=1)


class AtomSystem:
    """Bases, operators and Hamiltonians of one atom in a static field."""

    def __init__(self, spec: AtomSpec | None = None, b_z: float = 1.0):
        self.spec = spec if spec is not None else cesium()
        self.b_z = float(b_z)
        self.basis_g = build_basis(self.spec, GROUND)
        self.basis_e = build_basis(self.spec, EXCITED)
        self.ops_g = angular_momentum_operators(self.basis_g)
        self.ops_e = angular_momentum_operators(self.basis_e)
        self.dim_g = self.basis_g.dimension
        self.dim_e = self.basis_e.dimension
        self.h_g = (hyperfine_hamiltonian(self.spec, self.basis_g)
                    + zeeman_hamiltonian(self.spec, self.b_z, self.basis_g))
        self.h_e = (hyperfine_hamiltonian(self.spec, self.basis_e)
                    + zeeman_hamiltonian(self.spec, self.b_z, self.basis_e))
        self.dipole = dipole_operator(self.basis_g, self.basis_e)
        self.dipole_sph = spherical_components(self.dipole)
        self._eig_g = _block_eigh(self.h_g)
        self._eig_e = _block_eigh(self.h_e)

    def ground_projector(self, f) -> np.ndarray:
        p = np.zeros((self.dim_g, self.dim_g))
        sl = self.basis_g.block_slice(f)
        p[sl, sl] = np.eye(sl.stop - sl.start)
        return p.astype(complex)

    def ground_pi_rotation_x(self) -> np.ndarray:
        """Unitary of a 180-degree rotation about x on the ground level,
        exp(-i pi F_x) |F, m> = exp(-i pi F) |F, -m>, with its zeros exact."""
        basis = self.basis_g
        u = np.zeros((self.dim_g, self.dim_g), dtype=complex)
        for k, (f, m) in enumerate(basis.states):
            u[basis.index(f, -m), k] = (1, -1j, -1, 1j)[int(2 * f) % 4]
        return u

    def hyperfine_offset(self, f_g, f_e) -> float:
        """Hyperfine-level separation of a named transition (Zeeman ignored)."""
        hf_g = hyperfine_hamiltonian(self.spec, self.basis_g)
        hf_e = hyperfine_hamiltonian(self.spec, self.basis_e)
        ig = self.basis_g.block_slice(f_g).start
        ie = self.basis_e.block_slice(f_e).start
        return float(hf_e[ie, ie].real - hf_g[ig, ig].real)


def _diagonal_blocks(link: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the graph whose edges are
    the True entries of the square ``link``: a matrix with that pattern of
    nonzeros is block diagonal on them."""
    link = link | link.T
    free = np.ones(len(link), dtype=bool)
    blocks = []
    while free.any():
        reach = np.zeros_like(free)
        reach[np.argmax(free)] = True
        while True:
            grown = reach | link[reach].any(axis=0)
            if (grown == reach).all():
                break
            reach = grown
        free &= ~reach
        blocks.append(np.flatnonzero(reach))
    return blocks


def _block_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a Hermitian matrix, taken on each of its
    diagonal blocks, so that the eigenvectors vanish exactly off the blocks
    (a dense eigh leaves rounding noise there)."""
    lam, vecs = np.empty(len(h)), np.zeros_like(h)
    for b in _diagonal_blocks(h != 0):
        lam[b], vecs[np.ix_(b, b)] = np.linalg.eigh(h[np.ix_(b, b)])
    return lam, vecs


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=8)
def atom_system(spec: AtomSpec, b_z: float) -> AtomSystem:
    """Shared, read-only :class:`AtomSystem` of ``(spec, b_z)``, built once
    per process (the exact Clebsch-Gordan sums dominate its cost)."""
    system = AtomSystem(spec, b_z)
    for a in (system.h_g, system.h_e, *system._eig_g, *system._eig_e,
              *system.dipole.matrices, *system.dipole_sph.values()):
        _frozen(a)
    return system


def field_coupling_matrix(field: OpticalField, system: AtomSystem) -> np.ndarray:
    """E0 (eps . D) restricted to the field's reference ground manifold."""
    eps = field.polarization_vector()
    x = math.sqrt(field.amplitude_sq) * system.dipole.dot(eps)
    if not field.restrict_to_reference:
        return x
    f_g, _ = field.reference_transition
    return x @ system.ground_projector(f_g)


def coherence_fraction(field: OpticalField, system: AtomSystem,
                       coll: CollisionParams, doppler: DopplerSpec) -> np.ndarray:
    """Velocity-averaged quasi-steady coherence operator w (excited x ground)."""
    x = field_coupling_matrix(field, system)
    f_g, f_e = field.reference_transition
    delta_tot = field.detuning + system.hyperfine_offset(f_g, f_e)
    lam_e, v_e = system._eig_e
    lam_g, v_g = system._eig_g
    x_eig = v_e.conj().T @ x @ v_g
    base = lam_e[:, None] - lam_g[None, :] - delta_tot - 1j * coll.gamma_c
    kvs, wts = doppler.nodes()
    acc = np.zeros_like(x_eig)
    for kv, wt in zip(kvs, wts):
        acc += wt * (x_eig / (base + kv))
    return v_e @ acc @ v_g.conj().T


@dataclass(frozen=True)
class FieldCoupling:
    """Precomputed per-field operators feeding the quasi-steady solve."""

    field: OpticalField
    x: np.ndarray
    w: np.ndarray


def couple_field(field: OpticalField, system: AtomSystem, coll: CollisionParams,
                 doppler: DopplerSpec) -> FieldCoupling:
    return FieldCoupling(
        field=field,
        x=field_coupling_matrix(field, system),
        w=coherence_fraction(field, system, coll, doppler),
    )


# --- superoperator helpers (row-major vec: vec(A X B) = kron(A, B.T) vec X) ---

def _sop_left(a: np.ndarray, dim: int) -> np.ndarray:
    return np.kron(a, np.eye(dim))


def _sop_right(b: np.ndarray, dim: int) -> np.ndarray:
    return np.kron(np.eye(dim), b.T)


def _sop_sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b.T)


# --- real Hermitian coordinates of a d x d matrix in row-major vec form ---

@lru_cache(maxsize=4)
def _hermitian_index(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec positions of the diagonal, of the upper entries (i < j) and of
    the lower entries (j, i) in the same order."""
    i, j = np.triu_indices(dim, 1)
    return tuple(_frozen(a) for a in (np.arange(dim) * (dim + 1), i * dim + j, j * dim + i))


def _hermitian_rows(vecs: np.ndarray, dim: int) -> np.ndarray:
    """Real coordinates of the columns ``vecs``, vec forms of Hermitian
    matrices: the diagonal, then the real and imaginary upper parts."""
    diag, up, _ = _hermitian_index(dim)
    return np.concatenate([vecs[diag].real, vecs[up].real, vecs[up].imag])


def _hermitian_vecs(coords: np.ndarray, dim: int) -> np.ndarray:
    """The inverse of :func:`_hermitian_rows`: complex vec forms."""
    diag, up, lo = _hermitian_index(dim)
    k = len(up)
    out = np.empty((dim * dim,) + coords.shape[1:], dtype=complex)
    out[diag] = coords[:dim]
    out[up] = coords[dim:dim + k] + 1j * coords[dim + k:]
    out[lo] = out[up].conj()
    return out


def _hermitian_block(sop: np.ndarray, dim: int) -> np.ndarray:
    """The real matrix, in Hermitian coordinates, of a superoperator that
    maps Hermitian matrices to Hermitian matrices: the coordinates of its
    images of the basis matrices e_kk, e_ij + e_ji and i (e_ij - e_ji),
    gathered from the diagonal and upper rows."""
    diag, up, lo = _hermitian_index(dim)
    rows = sop[np.concatenate([diag, up])]
    cols = np.concatenate([rows[:, diag], rows[:, up] + rows[:, lo],
                           1j * (rows[:, up] - rows[:, lo])], axis=1)
    return np.concatenate([cols.real, cols[dim:].imag])


def _stimulated_drain(coupling: FieldCoupling, de: int) -> np.ndarray:
    g_e = coupling.x @ coupling.w.conj().T
    return -1j * (_sop_left(g_e, de) - _sop_right(g_e.conj().T, de))


def excited_superoperator(system: AtomSystem, couplings: list[FieldCoupling],
                          coll: CollisionParams) -> np.ndarray:
    """Generator of the excited-level matrix: commutator, quench, spin
    destruction, and the stimulated drains of every field."""
    de = system.dim_e
    eye = np.eye(de * de)
    h_e = system.h_e
    a = -1j * (_sop_left(h_e, de) - _sop_right(h_e, de))
    a -= coll.gamma_q * eye
    s_ops = system.ops_e["S"].matrices
    a -= coll.gamma_p * (0.75 * eye - sum(_sop_sandwich(s, s) for s in s_ops))
    for c in couplings:
        a += _stimulated_drain(c, de)
    return a


def excited_source(couplings: list[FieldCoupling]) -> np.ndarray:
    """Superoperator mapping vec(rho_g) to the excited-level feeding term
    i (X rho_g w^+ - w rho_g X^+), summed over fields."""
    if not couplings:
        raise ValueError("at least one field coupling is required")
    shape = couplings[0].x.shape
    src = np.zeros((shape[0] * shape[0], shape[1] * shape[1]), dtype=complex)
    for c in couplings:
        src += 1j * (_sop_sandwich(c.x, c.w.conj().T) - _sop_sandwich(c.w, c.x.conj().T))
    return src


def excited_quasi_steady(rho_g: np.ndarray, couplings: list[FieldCoupling],
                         system: AtomSystem, coll: CollisionParams) -> np.ndarray:
    """Solve the quasi-steady excited-level matrix for a given ground state."""
    a = excited_superoperator(system, couplings, coll)
    src = excited_source(couplings) @ np.asarray(rho_g, dtype=complex).reshape(-1)
    try:
        vec = np.linalg.solve(a, -src)
    except np.linalg.LinAlgError as exc:
        residual = float(np.linalg.norm(src))
        raise OpticsError(f"quasi-steady solve failed (|source| = {residual:.3e})") from exc
    rho_e = vec.reshape(system.dim_e, system.dim_e)
    return 0.5 * (rho_e + rho_e.conj().T)


def repopulation(rho_e: np.ndarray, dipole: VectorOperator,
                 coll: CollisionParams) -> np.ndarray:
    """Quench return to the ground level, (2 gamma_q / 3) sum_i D_i^+ rho_e D_i.

    Conserves atoms: Tr(out) = gamma_q Tr(rho_e)."""
    out = np.zeros((dipole.x.shape[1],) * 2, dtype=complex)
    for d in dipole.matrices:
        out += d.conj().T @ rho_e @ d
    return (2.0 * coll.gamma_q / 3.0) * out


def _mul(f: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """``f @ b``, where an ``f`` of None stands for the identity."""
    return b if f is None else f @ b


@lru_cache(maxsize=8)
def _excited_parts(spec: AtomSpec, b_z: float,
                   coll: CollisionParams) -> tuple[np.ndarray, np.ndarray]:
    """The parts of a field action that no field enters, shared read-only:
    the excited generator A0 in real Hermitian coordinates and the quench
    repopulation P (see :class:`FieldAction`)."""
    system = atom_system(spec, b_z)
    a0 = _hermitian_block(excited_superoperator(system, [], coll), system.dim_e)
    repop = (2.0 * coll.gamma_q / 3.0) * sum(
        _sop_sandwich(d.conj().T, d) for d in system.dipole.matrices)
    return _frozen(a0), _frozen(repop)


class FieldAction:
    """Action of one field on the ground level as a function of its
    intensity, between fixed maps: ``t_map`` takes its columns to vec(rho_g)
    and ``f_map`` takes vec(rho_g) to its rows (None is the identity).

    Scaling the coupling's intensity by a scales the depletion kernel D, the
    stimulated return K and the excited-level source B by a, and the
    stimulated drain S of the excited generator A0 + a S; so with
    X(a) = a (A0 + a S)^-1 (-B T) the action is

        F [a D + (a K + P) X(a)] T,    P = quench repopulation.

    Only the dim_e^2 solve depends on a other than through a factor, and it
    runs against the columns of B T alone.  A0 and P involve no field, so
    every action of one atom system and set of collisions shares them
    (:func:`_excited_parts`).  A linearly polarized field is
    averaged with its pi-about-x rotation C
    (:meth:`OpticalField.wants_symmetrization`): the second
    half of the columns is B C T and of the rows F C^-1.

    The solve is real.  A0 + a S maps Hermitian matrices to Hermitian
    matrices, and so does B, so B T and B C T have Hermitian columns when
    the columns of ``t_map`` are Hermitian; then A0, S and the columns are
    kept in the real Hermitian coordinates of the excited matrix, and X(a)
    is a real solve scattered back to complex vec form.  A ``t_map``
    whose source columns are not Hermitian raises ``ValueError``.

    The solve runs on blocks.  Rotation about z gives A0 one block for each
    |m - m'| of the excited entries |m><m'|; the drain S of a circular beam
    keeps them apart, and that of a linear beam joins them into the two
    parities of m - m'.  The blocks are the connected components of the
    nonzeros of A0 and of S, found once per action
    (:func:`_diagonal_blocks`); those zeros are exact, since the eigenbases
    and the pi rotation of :class:`AtomSystem` vanish exactly off their
    blocks.  Only the blocks that the source columns reach are solved, and
    X(a) is zero on the others: the x pump on the populations
    ('hyperfine+zeeman') solves one of its two blocks of 128.
    """

    def __init__(self, system: AtomSystem, coupling: FieldCoupling,
                 coll: CollisionParams, *, t_map: np.ndarray, f_map: np.ndarray | None = None):
        dg, de = system.dim_g, system.dim_e
        x, w = coupling.x, coupling.w
        self._de = de
        self._a0, self._repop = _excited_parts(system.spec, system.b_z, coll)
        drain = _hermitian_block(_stimulated_drain(coupling, de), de)
        g = x.conj().T @ w
        anti = (g - g.conj().T) / 2j
        dep = -(_sop_left(anti, dg) + _sop_right(anti, dg))
        self._ret = 1j * (_sop_sandwich(w.conj().T, x) - _sop_sandwich(x.conj().T, w))
        t_maps, self._f_maps = [t_map], [f_map]
        if coupling.field.wants_symmetrization():
            u = system.ground_pi_rotation_x()
            t_maps.append(np.kron(u, u.conj()) @ t_map)
            self._f_maps.append(_mul(f_map, np.kron(u.conj().T, u.T)))
        self.weight = 1.0 / len(t_maps)
        src = excited_source([coupling])
        cols = np.hstack([src @ t for t in t_maps])
        diag, up, lo = _hermitian_index(de)
        skew = max(np.abs(cols[diag].imag).max(), np.abs(cols[up] - cols[lo].conj()).max())
        if skew > 1e-12 * np.abs(cols).max():
            raise ValueError("the source columns B t_map are not Hermitian")
        # the blocks of A0 + a S, from the nonzeros of A0 and S apart (so no
        # sum can hide a coupling), that the source columns reach
        source = _hermitian_rows(cols, de)
        reached = source.any(axis=1)
        self._shape = source.shape
        self._blocks = [(b, _frozen(self._a0[np.ix_(b, b)]), _frozen(drain[np.ix_(b, b)]),
                         _frozen(-source[b]))
                        for b in _diagonal_blocks((self._a0 != 0) | (drain != 0))
                        if reached[b].any()]
        self.depletion = _frozen(self.weight * sum(
            _mul(f, dep @ t) for f, t in zip(self._f_maps, t_maps)))

    @cached_property
    def _left(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(F K, F P) of each half; built on the first ground-level use."""
        return [(_frozen(_mul(f, self._ret)), _frozen(_mul(f, self._repop)))
                for f in self._f_maps]

    def excited(self, a: float) -> np.ndarray:
        """X(a), the quasi-steady excited matrices of the source columns,
        in complex vec form."""
        coords = np.zeros(self._shape)
        for rows, a0, drain, minus_b in self._blocks:
            try:
                coords[rows] = np.linalg.solve(a0 + a * drain, minus_b)
            except np.linalg.LinAlgError as exc:
                raise OpticsError("quasi-steady excited solve is singular") from exc
        return _hermitian_vecs(a * coords, self._de)

    def superop(self, a: float) -> tuple[np.ndarray, np.ndarray]:
        """The ground-level action at intensity scale a, and X(a)."""
        x = self.excited(a)
        out = a * self.depletion
        for (k, p), xb in zip(self._left, np.hsplit(x, len(self._left))):
            out = out + self.weight * ((a * k + p) @ xb)
        return out, x


class OpticalChannel:
    """Compiled linear action of a set of fields on the ground-level matrix.

    The full channel (depletion, stimulated return, quench repopulation
    through the quasi-steady excited solve) is linear in rho_g, so it is
    assembled once into ``ground_superop`` (dim_g^2 x dim_g^2) plus the map
    ``excited_map`` giving the quasi-steady excited matrix: the sum of the
    fields' :class:`FieldAction`, taken on a Hermitian basis H of the ground
    matrices (which spans every complex matrix) and multiplied by H^-1, so
    that each is the field's complex-linear map on vec(rho_g).
    """

    def __init__(self, system: AtomSystem, couplings: list[FieldCoupling],
                 coll: CollisionParams):
        self.system = system
        self.coll = coll
        dg, de = system.dim_g, system.dim_e
        # Fields are assembled independently: each gets its own quasi-steady
        # solve (cross-field stimulated terms are smaller than the per-field
        # ones by the same pump-rate/gamma_q factor, i.e. negligible), which
        # keeps every per-field channel exactly atom-conserving and lets a
        # linearly polarized channel be parity-symmetrized on its own.
        basis = _hermitian_vecs(np.eye(dg * dg), dg)
        inverse = basis.conj().T / np.sum(np.abs(basis) ** 2, axis=0)[:, None]
        self.ground_superop = np.zeros((dg * dg, dg * dg), dtype=complex)
        self.excited_map = np.zeros((de * de, dg * dg), dtype=complex)
        for c in couplings:
            g_sop, x = FieldAction(system, c, coll, t_map=basis).superop(1.0)
            self.ground_superop += g_sop @ inverse
            self.excited_map += x[:, :dg * dg] @ inverse

    def rho_e(self, rho_g: np.ndarray) -> np.ndarray:
        vec = self.excited_map @ np.asarray(rho_g, dtype=complex).reshape(-1)
        m = vec.reshape(self.system.dim_e, self.system.dim_e)
        return 0.5 * (m + m.conj().T)

    def apply(self, rho_g: np.ndarray) -> np.ndarray:
        vec = self.ground_superop @ np.asarray(rho_g, dtype=complex).reshape(-1)
        return vec.reshape(self.system.dim_g, self.system.dim_g)

    def absorption_rate(self, rho_g: np.ndarray) -> float:
        """Photon absorption rate: gamma_q times the excited population."""
        return float(self.coll.gamma_q * np.trace(self.rho_e(rho_g)).real)


def transition_probability_table(system: AtomSystem,
                                 pump: OpticalField) -> list[tuple[int, float, float]]:
    """Probabilities of m -> m +/- 1 absorption on the pump's reference
    transition, for each spin projection m >= 0 of the addressed ground
    manifold; rows are normalized squared sigma+/- dipole elements."""
    eps = pump.polarization_vector()
    if abs(eps[2]) > 1e-12:
        raise ValueError("transition table requires a transverse polarization")
    f_g, f_e = pump.reference_transition
    sph = system.dipole_sph
    rows = []
    for m in range(int(f_g) + 1):
        col = system.basis_g.index(f_g, m)
        up = dn = 0.0
        if abs(m + 1) <= f_e:
            up = abs(sph[+1][system.basis_e.index(f_e, m + 1), col]) ** 2
        if abs(m - 1) <= f_e:
            dn = abs(sph[-1][system.basis_e.index(f_e, m - 1), col]) ** 2
        total = up + dn
        rows.append((m, up / total, dn / total))
    return rows
