"""Coupled hyperfine basis and operators for an alkali D1 system.

The electronic ground level (L=0) and the first excited level (L=1, J=1/2)
each split into two hyperfine manifolds F = I -/+ 1/2.  All operators are
expressed in the coupled ``|F, m_F>`` basis, ordered by ascending F and then
ascending m_F; that ordering is part of the on-disk format of every exported
matrix.

Energies are angular frequencies in rad/s throughout (see :mod:`spingas.units`).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import units

HALF = Fraction(1, 2)

GROUND = "ground"
EXCITED = "excited"


def _as_half_integer(x, name: str = "spin") -> Fraction:
    f = Fraction(x).limit_denominator(2)
    if f != Fraction(x) or f.denominator not in (1, 2):
        raise ValueError(f"{name} must be a half-integer, got {x!r}")
    return f


def _fact(x: Fraction) -> int:
    if x.denominator != 1:
        raise ValueError(f"factorial argument {x} is not an integer")
    if x < 0:
        raise ValueError(f"factorial argument {x} is negative")
    return math.factorial(int(x))


@lru_cache(maxsize=None)
def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Condon-Shortley coefficient <j1 m1; j2 m2 | J M>.

    Zero when M != m1 + m2 or the triangle rule fails; raises ``ValueError``
    for non-half-integer arguments or |m| > j.  Cached: equal arguments of
    any numeric type (3.5, Fraction(7, 2)) share one entry.
    """
    j1, m1 = _as_half_integer(j1, "j1"), _as_half_integer(m1, "m1")
    j2, m2 = _as_half_integer(j2, "j2"), _as_half_integer(m2, "m2")
    J, M = _as_half_integer(J, "J"), _as_half_integer(M, "M")
    for j, m, nm in ((j1, m1, "m1"), (j2, m2, "m2"), (J, M, "M")):
        if abs(m) > j or (j + m).denominator != 1:
            raise ValueError(f"{nm}={m} is not a valid projection for j={j}")
    if M != m1 + m2:
        return 0.0
    if J < abs(j1 - j2) or J > j1 + j2 or (j1 + j2 + J).denominator != 1:
        return 0.0
    # Racah's closed form, evaluated in exact rational arithmetic; the only
    # rounding is the final square root.
    pre = Fraction(2 * J + 1) \
        * Fraction(_fact(j1 + j2 - J) * _fact(j1 - j2 + J) * _fact(-j1 + j2 + J),
                   _fact(j1 + j2 + J + 1)) \
        * (_fact(J + M) * _fact(J - M)
           * _fact(j1 - m1) * _fact(j1 + m1)
           * _fact(j2 - m2) * _fact(j2 + m2))
    ksum = Fraction(0)
    k_min = max(Fraction(0), j2 - J - m1, j1 + m2 - J)
    k_max = min(j1 + j2 - J, j1 - m1, j2 + m2)
    k = k_min
    while k <= k_max:
        denom = (_fact(k) * _fact(j1 + j2 - J - k) * _fact(j1 - m1 - k)
                 * _fact(j2 + m2 - k) * _fact(J - j2 + m1 + k)
                 * _fact(J - j1 - m2 + k))
        ksum += Fraction((-1) ** int(k), denom)
        k += 1
    return float(ksum) * math.sqrt(float(pre))


@dataclass(frozen=True)
class AtomSpec:
    """Atomic constants of the alkali species (angular frequencies, rad/s)."""

    nuclear_spin: Fraction
    electron_spin: Fraction
    a_ground: float
    a_excited: float
    g_ground: float   # rad/s per gauss
    g_excited: float  # rad/s per gauss

    def __post_init__(self):
        object.__setattr__(self, "nuclear_spin", _as_half_integer(self.nuclear_spin, "nuclear_spin"))
        object.__setattr__(self, "electron_spin", _as_half_integer(self.electron_spin, "electron_spin"))
        if self.nuclear_spin < 0 or self.electron_spin < 0:
            raise ValueError("spins must be non-negative")


def cesium() -> AtomSpec:
    """Cs D1 constants: I=7/2 with the hyperfine and Zeeman couplings used
    throughout the package defaults."""
    return AtomSpec(
        nuclear_spin=Fraction(7, 2),
        electron_spin=HALF,
        a_ground=units.frequency("2.3 GHz"),
        a_excited=units.frequency("290 MHz"),
        g_ground=units.frequency_per_gauss("2.8 MHz/G"),
        g_excited=units.frequency_per_gauss("0.9 MHz/G"),
    )


@dataclass(frozen=True)
class CoupledBasis:
    """Ordered |F, m_F> basis of one level (ascending F, then ascending m_F)."""

    level: str
    states: tuple[tuple[Fraction, Fraction], ...]
    nuclear_spin: Fraction
    electron_spin: Fraction

    @property
    def dimension(self) -> int:
        return len(self.states)

    @property
    def f_values(self) -> tuple[Fraction, ...]:
        seen: list[Fraction] = []
        for f, _ in self.states:
            if f not in seen:
                seen.append(f)
        return tuple(seen)

    def index(self, f, m) -> int:
        return self.states.index((Fraction(f), Fraction(m)))

    def block_slice(self, f) -> slice:
        idx = [i for i, (fv, _) in enumerate(self.states) if fv == Fraction(f)]
        return slice(idx[0], idx[-1] + 1)

    def manifest(self) -> dict:
        return {
            "level": self.level,
            "ordering": "ascending F, then ascending m_F",
            "states": [
                {"index": i, "F": str(f), "m_F": str(m)}
                for i, (f, m) in enumerate(self.states)
            ],
        }


def build_basis(spec: AtomSpec, level: str) -> CoupledBasis:
    """Enumerate the coupled basis of the requested level."""
    if level not in (GROUND, EXCITED):
        raise ValueError(f"level must be '{GROUND}' or '{EXCITED}', got {level!r}")
    i_n, s_e = spec.nuclear_spin, spec.electron_spin
    states = []
    f = abs(i_n - s_e)
    while f <= i_n + s_e:
        m = -f
        while m <= f:
            states.append((f, m))
            m += 1
        f += 1
    return CoupledBasis(level=level, states=tuple(states),
                        nuclear_spin=i_n, electron_spin=s_e)


@dataclass(frozen=True)
class Operator:
    matrix: np.ndarray
    row_basis: str
    col_basis: str

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))


@dataclass(frozen=True)
class VectorOperator:
    x: Operator
    y: Operator
    z: Operator

    @property
    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.x.matrix, self.y.matrix, self.z.matrix)

    def dot(self, vec) -> np.ndarray:
        vx, vy, vz = vec
        return vx * self.x.matrix + vy * self.y.matrix + vz * self.z.matrix


def _ladder_matrices(j: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(jx, jy, jz) for a single spin j on the ascending-m basis."""
    n = int(2 * j + 1)
    m = np.array([float(-j + k) for k in range(n)])
    jz = np.diag(m)
    jp = np.zeros((n, n))
    for k in range(n - 1):
        jp[k + 1, k] = math.sqrt(float(j * (j + 1)) - m[k] * (m[k] + 1))
    jx = 0.5 * (jp + jp.T)
    jy = -0.5j * (jp - jp.T)
    return jx.astype(complex), jy.astype(complex), jz.astype(complex)


def coupling_unitary(basis: CoupledBasis) -> np.ndarray:
    """Unitary from the product basis |m_e> x |m_I> (electronic-projection
    major, each ascending) to the coupled basis."""
    je, i_n = basis.electron_spin, basis.nuclear_spin
    ne, ni = int(2 * je + 1), int(2 * i_n + 1)
    u = np.zeros((basis.dimension, ne * ni))
    for row, (f, mf) in enumerate(basis.states):
        for a in range(ne):
            me = -je + a
            for b in range(ni):
                mi = -i_n + b
                if me + mi != mf:
                    continue
                u[row, a * ni + b] = clebsch_gordan(je, me, i_n, mi, f, mf)
    return u.astype(complex)


@lru_cache(maxsize=8)
def angular_momentum_operators(basis: CoupledBasis) -> MappingProxyType[str, VectorOperator]:
    """S (electronic, within-manifold), I (nuclear) and F = I + S in the
    coupled basis; built once per basis, read-only and shared."""
    je, i_n = basis.electron_spin, basis.nuclear_spin
    ni = int(2 * i_n + 1)
    ne = int(2 * je + 1)
    u = coupling_unitary(basis)
    se = _ladder_matrices(je)
    inuc = _ladder_matrices(i_n)
    tag = basis.level

    def vec(prod_components) -> VectorOperator:
        ops = []
        for comp in prod_components:
            mat = u @ comp @ u.conj().T
            mat.flags.writeable = False
            ops.append(Operator(mat, tag, tag))
        return VectorOperator(*ops)

    s_prod = [np.kron(c, np.eye(ni)) for c in se]
    i_prod = [np.kron(np.eye(ne), c) for c in inuc]
    f_prod = [a + b for a, b in zip(s_prod, i_prod)]
    return MappingProxyType({"S": vec(s_prod), "I": vec(i_prod), "F": vec(f_prod)})


def hyperfine_hamiltonian(spec: AtomSpec, basis: CoupledBasis, level: str) -> Operator:
    """H_hf = A I.S, diagonal in the coupled basis."""
    if level != basis.level:
        raise ValueError("basis level does not match requested level")
    a = spec.a_ground if level == GROUND else spec.a_excited
    i_n, s_e = basis.nuclear_spin, basis.electron_spin
    diag = []
    for f, _ in basis.states:
        k = float(f * (f + 1) - i_n * (i_n + 1) - s_e * (s_e + 1)) / 2.0
        diag.append(a * k)
    return Operator(np.diag(diag), basis.level, basis.level)


def zeeman_hamiltonian(spec: AtomSpec, b_z: float, basis: CoupledBasis,
                       level: str) -> Operator:
    """H_Z = g B S_z for a field b_z (gauss) along the quantization axis."""
    if level != basis.level:
        raise ValueError("basis level does not match requested level")
    g = spec.g_ground if level == GROUND else spec.g_excited
    sz = angular_momentum_operators(basis)["S"].z.matrix
    return Operator(g * b_z * sz, basis.level, basis.level)


def dipole_operator(basis_g: CoupledBasis, basis_e: CoupledBasis) -> VectorOperator:
    """Cartesian dipole blocks coupling ground to excited (rows: excited).

    Built from the D1 orbital matrix element <L=1, m_L=q| r_q |L=0, 0> with
    electron and nuclear spins as spectators, then expressed between the two
    coupled bases.  Normalized so that sum_q D_q D_q^dag = (3/2) * identity
    on the excited level, which makes the quench repopulation channel
    (2 gamma_q / 3) sum_i D_i^dag rho_e D_i exactly atom-conserving with a
    unit reduced amplitude.
    """
    s_e = basis_g.electron_spin
    i_n = basis_g.nuclear_spin
    if s_e != HALF:
        raise ValueError("D1 dipole construction assumes electron spin 1/2")
    je = basis_e.electron_spin  # J' = 1/2 for the D1 excited level
    dim_g, dim_e = basis_g.dimension, basis_e.dimension

    d_sph = {}
    for q in (-1, 0, 1):
        mat = np.zeros((dim_e, dim_g))
        for col, (fg, mg) in enumerate(basis_g.states):
            for row, (fe, me) in enumerate(basis_e.states):
                if me != mg + q:
                    continue
                amp = 0.0
                ms = -s_e
                while ms <= s_e:
                    mi = mg - ms
                    if abs(mi) <= i_n and abs(q + ms) <= je:
                        amp += (
                            clebsch_gordan(s_e, ms, i_n, mi, fg, mg)
                            * clebsch_gordan(1, q, s_e, ms, je, q + ms)
                            * clebsch_gordan(je, q + ms, i_n, mi, fe, me)
                        )
                    ms += 1
                mat[row, col] = amp
        d_sph[q] = mat.astype(complex)

    total = sum(d_sph[q] @ d_sph[q].conj().T for q in (-1, 0, 1))
    scale = total[0, 0].real
    if not np.allclose(total, scale * np.eye(dim_e), atol=1e-12 * max(scale, 1.0)):
        raise AssertionError("dipole closure is not isotropic on the excited level")
    norm = math.sqrt(1.5 / scale)
    for q in d_sph:
        d_sph[q] = d_sph[q] * norm

    dx = (d_sph[-1] - d_sph[+1]) / math.sqrt(2.0)
    dy = 1j * (d_sph[-1] + d_sph[+1]) / math.sqrt(2.0)
    dz = d_sph[0]
    mk = lambda m: Operator(m, basis_e.level, basis_g.level)
    return VectorOperator(mk(dx), mk(dy), mk(dz))


def spherical_components(d: VectorOperator) -> dict[int, np.ndarray]:
    """Spherical components q=-1,0,+1 of a Cartesian vector operator."""
    dx, dy, dz = d.matrices
    return {
        +1: -(dx + 1j * dy) / math.sqrt(2.0),
        0: dz,
        -1: (dx - 1j * dy) / math.sqrt(2.0),
    }


def polarization_vector(kind: str) -> np.ndarray:
    """Unit complex polarization vectors in the Cartesian basis.

    'x' and 'y' are linear; 'sigma+'/'sigma-' are circular about z, chosen so
    that eps.D equals the q=+1/-1 spherical dipole component.
    """
    if kind == "x":
        return np.array([1.0, 0.0, 0.0], dtype=complex)
    if kind == "y":
        return np.array([0.0, 1.0, 0.0], dtype=complex)
    if kind == "sigma+":
        return np.array([-1.0, -1.0j, 0.0]) / math.sqrt(2.0)
    if kind == "sigma-":
        return np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)
    raise ValueError(f"unknown polarization {kind!r}")


def operator_to_csv(op: Operator) -> str:
    """Dense CSV dump (row, col, re, im) for debugging."""
    buf = io.StringIO()
    buf.write("row,col,re,im\n")
    mat = op.matrix
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            v = mat[i, j]
            buf.write(f"{i},{j},{v.real:.17g},{v.imag:.17g}\n")
    return buf.getvalue()
