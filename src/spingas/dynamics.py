"""Nonlinear mean-field dynamics of the ground-level density matrix.

The equation of motion combines the ground Hamiltonian commutator, the
optical channels of :mod:`spingas.optics`, isotropic spin destruction at a
rate Gamma (uniform relaxation toward the fully mixed state, the
wall/diffusion channel), and binary spin-exchange collisions acting on the
electron spin at a rate q*J:

    d rho/dt = -i [H_g, rho] + optics(rho) - Gamma (rho - Tr(rho)/16)
               + qJ [ phi(rho) - rho + sum_j M_j (rho S_j + S_j rho
                                                  - 2i (S x rho S)_j) ]

with phi(rho) = rho/4 + S.rho S and M = Tr(rho S).  The quadratic M-term
re-aligns the electron spin along the vapor's own mean spin; it conserves
Tr(F_z rho) exactly and is the only nonlinearity.  Every solve runs in
one chart of the unit-trace states: z = Q^T (s - u), the departure of the
real coordinates s of the coherence-projected subspace from the fully
mixed state u, in an orthonormal basis Q of the trace-free directions led
by M (:class:`CompiledModel`); no solve needs a border for the trace.
There a point sums its linear generator once, acting on (z, 1),

    G = G_H + Gamma G_Gamma + qJ G_phi + Q^T R_opt(a) [Q | u],

plus the bilinear feedback.  Every term but R_opt depends only on (atom,
b_z, projection mode): it is projected once into subspace coordinates,
Re(F L T) with fixed maps T (coords -> vec rho) and F (vec rho -> coords),
and cached, with the feedback parts, as its chart block Q^T R [Q | u].
R_opt depends on the field intensity a only through the excited-level
solve, so a field's a-independent parts are cached too and a new point
costs one real excited-level solve per field, on the blocks its source
reaches (:class:`spingas.optics.FieldAction`), and one rotation of the
fields' summed action (:func:`_field_action`).  The generator is stiff
(decay rates up to about 8e3 /s beside a slow mode near zero), so it is
integrated with LSODA, which switches to BDF where the problem is stiff,
on the analytic Jacobian, at atol 1e-14 and an rtol that applies to M
itself (:func:`_integrate_coords`): 1e-10 for a trajectory, 1e-8 for a
steady state by default (:class:`IntegrationControls`).  The loop of
:func:`_integrate_coords` calls ODEPACK's compiled LSODA driver, loaded
from scipy's extension file alone (:func:`_lsoda_step`), one step at a
time itself, on work arrays reused from run to run (:func:`_lsoda`); it
checks that each accepted step is finite and reads M, dM/dt and positivity
for a block of steps at a time.

A steady state (:func:`steady_state`) converges only on an exact fixed
point.  Without a bias field, a symmetric state that is an exact fixed point
is the answer, found without integrating, when the seed cannot leave it: the
seed is zero or the slow mode is negative.  Otherwise a checked Newton solve
near the integrated state ends the run on the fixed point it converges to,
and a run that finds none by its time budget has not converged.

Projection modes follow the two truncation levels used for the production
phase diagrams: 'hyperfine' zeros the F=3 <-> F=4 blocks, and
'hyperfine+zeeman' additionally zeros all off-diagonal elements.  The
reported magnetization is M_z = Tr(rho F_z) / F_max, normalized so the
stretched states give +/-1.

Rate axes.  The pump intensity knob I, the exchange knob J and the bias
knob H are expressed in calibrated axis units; those of I and J are chosen
to reproduce the reference experiment's phase-diagram coordinates
(critical pump rate near 1.4 Gamma on the J = 2.3 Gamma contour, left knee
near J = 1.7 Gamma):

* one axis unit of I corresponds to ``PUMP_AXIS_SCALE`` photon absorptions
  per second per unpolarized atom;
* one axis unit of J corresponds to ``EXCHANGE_AXIS_SCALE`` units of the
  model's exchange rate (the electron-spin collision rate is q_slowdown
  times that);
* the bias rate H is the beam's pumping rate dM/dt on the fully mixed
  state, which makes the weak-bias response at I = 0 exactly
  dM/dH = 1/Gamma (:func:`bias_rate_unit`).

Both beams are calibrated on the fully mixed state through the same cached
field action that :class:`CompiledModel` uses (:func:`_mixed_state_rates`).
The two constants are package-level calibration conventions, playing the
same role as the empirical intensity-to-rate coefficients used to label the
measured diagrams; they rescale the axes only and do not affect topology,
exponents, or any other dimensionless prediction.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .optics import (
    AtomSystem,
    CollisionParams,
    DopplerSpec,
    FieldAction,
    FieldCoupling,
    OpticalChannel,
    OpticalField,
    _frozen,
    _hermitian_rows,
    _hermitian_vecs,
    atom_system,
    bias_field,
    cesium_collisions,
    cesium_doppler,
    couple_field,
    pump_field,
)
from .spin_algebra import AtomSpec, VectorOperator, cesium

MODE_FULL = "none"
MODE_HF = "hyperfine"
MODE_HFZ = "hyperfine+zeeman"
PROJECTION_MODES = (MODE_HFZ, MODE_HF, MODE_FULL)

GAMMA_BASE = 58.0  # 1/s, dark spin-destruction rate at the reference temperature
GAMMA_SLOPE = 0.35  # 1/s per degree C
GAMMA_T_REF_C = 75.0  # degrees C, where Gamma = GAMMA_BASE

# Axis calibrations (see module docstring).
PUMP_AXIS_SCALE = 32.0
EXCHANGE_AXIS_SCALE = 5.0


def gamma_of_temperature(temperature_c: float) -> float:
    """Linear temperature law of the dark relaxation rate, 1/s."""
    return GAMMA_BASE + GAMMA_SLOPE * (temperature_c - GAMMA_T_REF_C)


class IntegrationError(RuntimeError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SimParams:
    """Complete parameter record of one simulation point.

    Field amplitudes are in the internal intensity unit; use
    :meth:`from_rates` to specify pump, exchange and bias strengths as rates
    in units of Gamma on the calibrated axes.  ``j_exchange`` is the model
    exchange rate J entering the equation as qJ.  ``seed_polarization``,
    M_z of the seeded unpolarized state, is the only seed of every run.
    """

    atom: AtomSpec = field(default_factory=cesium)
    coll: CollisionParams = field(default_factory=cesium_collisions)
    doppler: DopplerSpec = field(default_factory=cesium_doppler)
    pump: OpticalField | None = None
    bias: OpticalField | None = None
    gamma: float = GAMMA_BASE
    j_exchange: float = 0.0
    b_z: float = 1.0
    projection_mode: str = MODE_HFZ
    seed_polarization: float = 1e-4

    def __post_init__(self):
        for name in ("gamma", "j_exchange", "b_z", "seed_polarization"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.j_exchange < 0:
            raise ValueError("j_exchange must be >= 0")
        if abs(self.seed_polarization) > 0.01:
            raise ValueError("|seed_polarization| must be <= 0.01")
        if self.projection_mode not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {self.projection_mode!r}")

    @property
    def t1(self) -> float:
        return 1.0 / self.gamma

    @classmethod
    def from_rates(cls, i_over_gamma: float = 0.0, j_over_gamma: float = 0.0,
                   h_over_gamma: float = 0.0, gamma: float = GAMMA_BASE,
                   pump_detuning: float | None = None,
                   bias_detuning: float | None = None, **kwargs) -> "SimParams":
        """Build parameters from axis-rate ratios I/Gamma, J/Gamma, H/Gamma;
        the bias beam is sigma+ for H > 0 and sigma- for H < 0.

        The pump and bias beams are calibrated at their detunings (angular
        frequencies; ``None`` keeps the defaults of :func:`pump_field` and
        :func:`bias_field`)."""
        if not all(map(math.isfinite, (i_over_gamma, j_over_gamma, h_over_gamma))):
            raise ValueError("axis rates I/Gamma, J/Gamma and H/Gamma must be finite")
        if i_over_gamma < 0 or j_over_gamma < 0:
            raise ValueError("axis rates I/Gamma and J/Gamma must be >= 0")
        base = cls(gamma=gamma,
                   j_exchange=EXCHANGE_AXIS_SCALE * j_over_gamma * gamma,
                   **kwargs)
        pump = None
        if i_over_gamma > 0:
            shape = pump_field(1.0, detuning=pump_detuning)
            pump = shape.scaled(i_over_gamma * gamma / alignment_rate_unit(base, shape))
        bias = None
        if h_over_gamma != 0.0:
            shape = bias_field(1.0, sign=1 if h_over_gamma > 0 else -1,
                               detuning=bias_detuning)
            bias = shape.scaled(abs(h_over_gamma * gamma) / bias_rate_unit(base, shape))
        return replace(base, pump=pump, bias=bias)

    def fields(self) -> list[OpticalField]:
        return [f for f in (self.pump, self.bias)
                if f is not None and f.amplitude_sq > 0]


@dataclass
class Trajectory:
    """Recorded magnetization history M_z(t) = Tr(rho F_z)/F_max, with its
    rate dM/dt at each recorded time."""

    times: np.ndarray
    magnetization: np.ndarray
    final_state: np.ndarray   # the fixed point when a run stopped on one
    rates: np.ndarray

    def response_crossing(self, fraction_of_final: float,
                          final: float | None = None) -> float | None:
        """First time |M| crosses ``fraction_of_final`` x |final| (default:
        the last recorded M), on the cubic Hermite interpolant of M and
        dM/dt at the two recorded times that bracket it (Hairer, Norsett
        and Wanner, *Solving ODEs I*, II.6)."""
        final = self.magnetization[-1] if final is None else final
        target = fraction_of_final * abs(final)
        absm = np.abs(self.magnetization)
        above = np.nonzero(absm >= target)[0]
        if len(above) == 0:
            return None
        k = above[0]
        if k == 0:
            return float(self.times[0])
        t0, t1 = self.times[k - 1], self.times[k]
        # |M| is sign x M wherever it reaches the target in [t0, t1]
        sign, h = math.copysign(1.0, self.magnetization[k]), float(t1 - t0)
        y0, y1 = float(sign * self.magnetization[k - 1] - target), float(absm[k] - target)
        d0, d1 = sign * h * float(self.rates[k - 1]), sign * h * float(self.rates[k])
        return float(t0 + h * _first_root(
            y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1, 2.0 * (y0 - y1) + d0 + d1))


def _first_root(c0: float, c1: float, c2: float, c3: float) -> float:
    """The least x in [0, 1] at which the cubic c0 + c1 x + c2 x^2 + c3 x^3,
    negative at 0 and not at 1, reaches 0: bisection, to a bracket of
    1e-15, on the first of its monotone pieces that ends at or above 0."""
    def cubic(x):
        return c0 + x * (c1 + x * (c2 + x * c3))
    # the turns, where c1 + 2 c2 x + 3 c3 x^2 = 0
    if c3 == 0.0:
        turns = [-c1 / (2.0 * c2)] if c2 else []
    else:
        disc = c2 * c2 - 3.0 * c1 * c3
        turns = [] if disc < 0 else [(-c2 + r) / (3.0 * c3)
                                     for r in (math.sqrt(disc), -math.sqrt(disc))]
    lo = 0.0
    for hi in sorted(x for x in turns if 0.0 < x < 1.0):
        if cubic(hi) >= 0:
            break
        lo = hi
    else:
        hi = 1.0
        if cubic(hi) < 0:  # 0 at 1, rounded below
            return hi
    while hi - lo > 1e-15:  # cubic(lo) < 0 <= cubic(hi)
        mid = 0.5 * (lo + hi)
        if cubic(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Subspace:
    """Real coordinates of the coherence-projected Hermitian matrices: the
    ``rows`` kept of the Hermitian coordinates of
    :func:`spingas.optics._hermitian_rows` (the diagonal, then the real and
    the imaginary upper entries, in ``triu_indices`` order)."""

    def __init__(self, mode: str, basis_g):
        if mode not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {mode!r}")
        self.mode = mode
        self.dim = dim = basis_g.dimension
        f_of = np.array([f for f, _ in basis_g.states])
        i, j = np.triu_indices(dim, 1)
        kept = (f_of[i] == f_of[j]) if mode == MODE_HF else np.full(i.size, mode == MODE_FULL)
        upper = np.flatnonzero(kept)
        self.rows = _frozen(np.concatenate([np.arange(dim), dim + upper,
                                            dim + i.size + upper]))
        self.n = self.rows.size

    def to_matrix(self, s: np.ndarray) -> np.ndarray:
        coords = np.zeros(self.dim * self.dim)
        coords[self.rows] = s
        return _hermitian_vecs(coords, self.dim).reshape(self.dim, self.dim)

    def from_matrix(self, rho: np.ndarray) -> np.ndarray:
        """The coordinates of the Hermitian part of ``rho``."""
        herm = 0.5 * (rho + rho.conj().T)
        return _hermitian_rows(herm.reshape(-1), self.dim)[self.rows]

    def project_matrix(self, rho: np.ndarray) -> np.ndarray:
        return self.to_matrix(self.from_matrix(rho))

    def min_eigenvalue(self, s: np.ndarray) -> float:
        if self.mode == MODE_HFZ:
            return float(s[:self.dim].min())
        return float(np.linalg.eigvalsh(self.to_matrix(s)).min())


def project_coherences(rho_g: np.ndarray, mode: str, basis_g) -> np.ndarray:
    """Zero the rapidly oscillating coherences of a ground-level matrix.

    'hyperfine' removes the blocks between the two hyperfine manifolds;
    'hyperfine+zeeman' additionally removes off-diagonals within each
    manifold.  The diagonal, and hence the trace, is untouched.
    """
    sub = Subspace(mode, basis_g)
    out = sub.project_matrix(np.asarray(rho_g, dtype=complex))
    if not math.isclose(np.trace(out).real, np.trace(rho_g).real,
                        rel_tol=0, abs_tol=1e-12):
        raise AssertionError("coherence projection moved the trace")
    return out


def exchange_phi(rho: np.ndarray, s_ops: VectorOperator) -> np.ndarray:
    """phi(rho) = rho/4 + S.rho S, the nuclear-preserving collision kernel."""
    out = 0.25 * rho.astype(complex)
    for s in s_ops.matrices:
        out = out + s @ rho @ s
    return out


def _exchange_vector_bracket(rho: np.ndarray, s_ops: VectorOperator) -> list[np.ndarray]:
    """Hermitian brackets rho S_j + S_j rho - 2i (S x rho S)_j for j=x,y,z."""
    sx, sy, sz = s_ops.matrices
    srs = [[sa @ rho @ sb for sb in (sx, sy, sz)] for sa in (sx, sy, sz)]
    out = []
    for j, (sj, (k, l)) in enumerate(zip((sx, sy, sz), ((1, 2), (2, 0), (0, 1)))):
        cross = srs[k][l] - srs[l][k]
        out.append(rho @ sj + sj @ rho - 2j * cross)
    return out


def spin_exchange_term(rho_g: np.ndarray, qj: float, s_ops: VectorOperator) -> np.ndarray:
    """Spin-exchange collision term at electron-spin rate qj.

    Conserves Tr(F_z rho) and vanishes on the fully mixed state.  The
    mean-spin feedback enters with the sign that restores the electron spin
    along the vapor average; the collision-conservation check in the test
    suite pins that sign."""
    if qj == 0.0:
        return np.zeros_like(rho_g, dtype=complex)
    rho = np.asarray(rho_g, dtype=complex)
    m = np.array([np.trace(rho @ s).real for s in s_ops.matrices])
    out = exchange_phi(rho, s_ops) - rho
    for mj, bracket in zip(m, _exchange_vector_bracket(rho, s_ops)):
        if mj != 0.0:
            out = out + mj * bracket
    return qj * out


@lru_cache(maxsize=8)
def _ground_superops(atom: AtomSpec, b_z: float) -> tuple[np.ndarray, ...]:
    """Full-space superoperators (L_H, L_Gamma, L_phi) of the Hamiltonian
    commutator, of spin destruction per unit Gamma and of the linear
    exchange kernel phi(rho) - rho per unit qJ."""
    system = atom_system(atom, b_z)
    dg = system.dim_g
    eye_sop = np.eye(dg * dg)
    h_g = system.h_g
    l_h = -1j * (np.kron(h_g, np.eye(dg)) - np.kron(np.eye(dg), h_g.T))
    vec_id = np.eye(dg).reshape(-1)
    l_gamma = np.outer(vec_id / dg, vec_id) - eye_sop
    phi_sop = 0.25 * eye_sop
    for s in system.ops_g["S"].matrices:
        phi_sop = phi_sop + np.kron(s, s.T)
    return _frozen(l_h), _frozen(l_gamma), _frozen(phi_sop - eye_sop)


@dataclass(frozen=True)
class _GroundParts:
    """Parameter-independent parts of the generator, each a map R of the
    subspace coordinates kept as its block Q^T R [Q | u] in the unit-trace
    chart of :class:`CompiledModel`, which acts on (z, 1)."""

    system: AtomSystem
    sub: Subspace
    m_basis: np.ndarray    # Q: n x (n-1), orthonormal, orthogonal to the trace, led by M
    u: np.ndarray          # the fully mixed state
    extended: np.ndarray   # [Q | u]: (z, 1) -> s
    t_map: np.ndarray      # coords -> vec rho (columns)
    f_map: np.ndarray      # vec rho -> coords, as Re(f_map @ v)
    h: np.ndarray          # the Hamiltonian commutator
    gamma: np.ndarray      # spin destruction per unit Gamma
    phi: np.ndarray        # the exchange kernel phi(rho) - rho per unit qJ
    feedback: tuple        # (m_j [Q | u], Q^T Q_j [Q | u]) of each active j
    m_scale: float         # c, where M = fz_row . s = c q_0 . s
    f_max: float


@lru_cache(maxsize=8)
def _ground_parts(atom: AtomSpec, b_z: float, mode: str) -> _GroundParts:
    system = atom_system(atom, b_z)
    dg = system.dim_g
    sub = Subspace(mode, system.basis_g)
    n = sub.n
    t_map = _hermitian_vecs(np.eye(dg * dg)[:, sub.rows], dg)
    f_map = t_map.conj().T / np.sum(np.abs(t_map) ** 2, axis=0)[:, None]
    f_max = float(max(f for f, _ in system.basis_g.states))
    fz_row = np.real(system.ops_g["F"].z.T.reshape(-1) @ t_map) / f_max
    tr_row = np.zeros(n)
    tr_row[:dg] = 1.0
    # Tr F_z = 0, so fz_row is orthogonal to tr_row and leads the rest
    q = np.ascontiguousarray(
        np.linalg.qr(np.column_stack([tr_row, fz_row, np.eye(n)]))[0][:, 1:])
    u = sub.from_matrix(np.eye(dg) / dg)
    extended = np.column_stack([q, u])

    def project(vecs):   # columns vec(L rho_k) -> the real n x n block
        return np.real(f_map @ vecs)

    def chart(r):        # a map of the coordinates -> its block Q^T r [Q | u]
        return _frozen(q.T @ r @ extended)

    h, gamma, phi = (chart(project(sop @ t_map)) for sop in _ground_superops(atom, b_z))
    s_ops = system.ops_g["S"]
    brackets = [_exchange_vector_bracket(t_map[:, k].reshape(dg, dg), s_ops)
                for k in range(n)]
    feedback = []
    for j, s in enumerate(s_ops.matrices):
        m_row = np.real(s.T.reshape(-1) @ t_map)
        q_mat = project(np.stack([b[j].reshape(-1) for b in brackets], axis=1))
        if np.abs(m_row).max() > 1e-14 and np.abs(q_mat).max() > 1e-14:
            feedback.append((_frozen(m_row @ extended), chart(q_mat)))
    return _GroundParts(system, sub, _frozen(q), _frozen(u), _frozen(extended),
                        _frozen(t_map), _frozen(f_map), h, gamma, phi, tuple(feedback),
                        float(fz_row @ q[:, 0]), f_max)


@lru_cache(maxsize=16)
def _field_action(atom: AtomSpec, b_z: float, mode: str, shape: OpticalField,
                  coll: CollisionParams, doppler: DopplerSpec) -> FieldAction:
    """A unit-intensity field's action in subspace coordinates.  At
    I/Gamma = 1e12 its depletion and return terms reach 4.6e15 /s, against
    entries of 2.9e9 /s.  On single coordinates the two halves of a linear
    beam round as mirror images, so the action keeps the m -> -m symmetry
    to the bit and the symmetric state stays free of M; on the chart's
    columns that state took M = -5.6e-5 and 1500 times its residual bound."""
    ground = _ground_parts(atom, b_z, mode)
    coupling = couple_field(shape, ground.system, coll, doppler)
    return FieldAction(ground.system, coupling, coll,
                       t_map=ground.t_map, f_map=ground.f_map)


class CompiledModel:
    """Fully assembled generator of one parameter point in the unit-trace
    chart z = Q^T (s - u) of the module docstring (``m_basis`` and ``u``,
    read-only): every s = Q z + u has unit trace, so LSODA, the fixed
    points and the slow mode all run on z.

    The linear generator ``lin @ z + lin_offset`` is summed once from the
    cached parts (:class:`_GroundParts`).  One stacked product v = W z + w
    yields it and both factors of each of the ``k`` bilinear feedback
    terms: W stacks ``lin``, the rows m_j Q and the blocks qJ Q^T Q_j Q for
    each active j, and w the same maps applied to u, so that

        dz/dt = v_lin + v_m1 v_Q1 + v_m2 v_Q2 + ...,

    summed in that order.  Its Jacobian is
    lin + sum_j (v_mj qJ Q^T Q_j Q + v_Qj (m_j Q)^T).

    ``rhs`` and ``jac`` are the solver's callbacks, closures over plain
    arrays, so a solver does not pin the model.  Each call works in arrays
    of its own, so concurrent runs share no work buffer.

    ``readout @ z + readout_offset`` gives the quantities every accepted
    step is recorded and checked on.  M = fz . s, and fz = c q_0 with
    fz . u = 0, so M = c z_0 and dM/dt = c (dz/dt)_0: the readout holds M;
    then dM/dt as its linear form c lin_0 followed by the two factors m_j s
    and qJ c (Q^T Q_j s)_0 of each feedback term (``rate``); then, in
    'hyperfine+zeeman', the populations.

    ``rhs_coords`` gives d(state)/dt of a unit-trace state s in the real
    subspace coordinates, Q f(Q^T (s - u)), for the fixed-point residual
    checks.  The full-space ``lin_superop``, ``channel`` and ``couplings``
    behind the reference path ``rhs_matrix`` are built on first use.  A
    generator that is not finite, as from a field whose intensity
    overflows, raises ``IntegrationError``."""

    def __init__(self, params: SimParams):
        self.params = params
        parts = _ground_parts(params.atom, params.b_z, params.projection_mode)
        self.system, self.sub, self.f_max = parts.system, parts.sub, parts.f_max
        self.fz = self.system.ops_g["F"].z
        self.s_ops = self.system.ops_g["S"]
        self.qj = params.coll.q_slowdown * params.j_exchange
        self.m_basis, self.u, self._m_scale = parts.m_basis, parts.u, parts.m_scale

        gen = parts.h + params.gamma * parts.gamma
        if self.qj > 0:
            gen += self.qj * parts.phi
        fields = params.fields()
        if fields:
            # an overflowing intensity is caught by the finite check below
            with np.errstate(invalid="ignore", over="ignore"):
                optical = sum(np.real(_field_action(
                    params.atom, params.b_z, params.projection_mode, f.scaled(1.0),
                    params.coll, params.doppler).superop(f.amplitude_sq)[0])
                    for f in fields)
                gen += self.m_basis.T @ optical @ parts.extended
        if not np.isfinite(gen).all():
            raise IntegrationError("the generator is not finite")
        feedback = parts.feedback if self.qj > 0 else ()
        n, k = gen.shape[0], len(feedback)
        self.k = k
        stacked = np.vstack([gen] + [m[None, :] for m, _ in feedback]
                            + [self.qj * block for _, block in feedback])
        w_mat, w_off = np.ascontiguousarray(stacked[:, :-1]), stacked[:, -1].copy()
        lin = self.lin = w_mat[:n]
        self.lin_offset = w_off[:n]
        dot = w_mat.dot
        # each feedback term's index of v_mj and slice of v_Qj
        terms = [(n + i, slice(n + k + i * n, n + k + (i + 1) * n)) for i in range(k)]

        def rhs(_t, z):
            v = dot(z)
            v += w_off
            out = v[:n]
            for m, block in terms:
                term = v[block]
                term *= v[m]
                term += out
                out = term
            return out

        def jac(_t, z):
            v = dot(z)
            v += w_off
            out = lin.copy()
            for m, block in terms:
                out += w_mat[block] * v[m]
                out += np.outer(v[block], w_mat[m])
            return out

        self.rhs, self.jac = rhs, jac
        c = self._m_scale
        rows = [np.eye(1, n + 1)[0] * c, c * gen[0]]
        for m, block in feedback:
            rows += [m, (self.qj * c) * block[0]]
        if self.sub.mode == MODE_HFZ:
            rows.extend(parts.extended[:self.sub.dim])
        rows = np.array(rows)
        self.readout = np.ascontiguousarray(rows[:, :-1])
        self.readout_offset = rows[:, -1].copy()

    @cached_property
    def couplings(self) -> list[FieldCoupling]:
        p = self.params
        return [couple_field(f, self.system, p.coll, p.doppler) for f in p.fields()]

    @cached_property
    def channel(self) -> OpticalChannel | None:
        if not self.couplings:
            return None
        return OpticalChannel(self.system, self.couplings, self.params.coll)

    @cached_property
    def lin_superop(self) -> np.ndarray:
        """The full-space linear generator (reference path)."""
        l_h, l_gamma, l_phi = _ground_superops(self.params.atom, self.params.b_z)
        lin = l_h + self.params.gamma * l_gamma
        if self.qj > 0:
            lin = lin + self.qj * l_phi
        if self.channel is not None:
            lin = lin + self.channel.ground_superop
        return lin

    def rate(self, values: np.ndarray) -> np.ndarray:
        """dM/dt from readout ``values``, one row of them per state."""
        pairs = values[:, 2:2 + 2 * self.k]
        return values[:, 1] + (pairs[:, ::2] * pairs[:, 1::2]).sum(axis=1)

    def chart(self, s: np.ndarray) -> np.ndarray:
        """The chart coordinates z = Q^T (s - u) of a unit-trace state s."""
        return self.m_basis.T @ (s - self.u)

    def coords(self, z: np.ndarray) -> np.ndarray:
        """The state s = Q z + u of chart coordinates z."""
        return self.m_basis @ z + self.u

    def rhs_coords(self, s: np.ndarray) -> np.ndarray:
        return self.m_basis @ self.rhs(0.0, self.chart(s))

    def rhs_matrix(self, rho_g: np.ndarray) -> np.ndarray:
        """Reference full-matrix evaluation (same channels, no projection)."""
        rho = np.asarray(rho_g, dtype=complex)
        out = (self.lin_superop @ rho.reshape(-1)).reshape(rho.shape)
        if self.qj > 0:
            m = np.array([np.trace(rho @ s).real for s in self.s_ops.matrices])
            for mj, bracket in zip(m, _exchange_vector_bracket(rho, self.s_ops)):
                if mj != 0.0:
                    out = out + (self.qj * mj) * bracket
        return out

    def magnetization(self, s: np.ndarray) -> float:
        """M = fz . s, as c q_0 . s."""
        return self._m_scale * float(self.m_basis[:, 0] @ s)

    def seed_coords(self, eps: float) -> np.ndarray:
        """Fully mixed state displaced along z so that M_z(0) = eps."""
        rho = np.eye(self.sub.dim) / self.sub.dim
        if eps != 0.0:
            fz2 = float(np.trace(self.fz @ self.fz).real)
            rho = rho + eps * self.f_max / fz2 * self.fz.real
        return self.sub.from_matrix(rho)

    @cached_property
    def residual_bound(self) -> float:
        """The largest max|rhs_coords| of an exact fixed point:
        FIXED_POINT_RESIDUAL Gamma, plus n eps times the largest entry of
        the chart generator (``lin``, ``lin_offset``) for the rounding of
        its products.  That term is over 1000 times smaller with entries up
        to about 1e4 /s, but entries of 2.9e9 /s (I/Gamma from about 1e8
        on) round the exact symmetric state's residual to up to 1.4e-7 /s."""
        largest = max(float(np.abs(self.lin).max()), float(np.abs(self.lin_offset).max()))
        return (FIXED_POINT_RESIDUAL * self.params.gamma
                + self.sub.n * np.finfo(float).eps * largest)

    def symmetric_fixed_point(self) -> np.ndarray:
        """The magnetization-free stationary state, in chart coordinates z.

        On the even sector the mean-spin feedback vanishes, so the fixed
        point solves the linear block of the generator in the unit-trace
        chart, ``lin @ z = -lin_offset``.  Where the feedback does not
        vanish on that solution (the 'hyperfine' mode keeps transverse
        coherences), it is no fixed point and this raises
        ``IntegrationError``."""
        z = np.linalg.solve(self.lin, -self.lin_offset)
        residual = float(np.abs(self.rhs_coords(self.coords(z))).max())
        if residual > self.residual_bound:
            raise IntegrationError("the symmetric state is no fixed point",
                                   {"residual": residual})
        return z

    def stable_fixed_point(self, z: np.ndarray) -> np.ndarray | None:
        """Newton's solution of f(z) = 0 in the unit-trace chart, started
        from ``z``: the step J dz = -f on the chart's right-hand side f and
        Jacobian J, done when no coordinate of s = Q z + u moves by more
        than NEWTON_STEP_TOL.  Returns the chart coordinates when Newton
        converges to an exact (max|rhs_coords| <= ``residual_bound``),
        positive and linearly stable state, where every eigenvalue is
        negative; ``None`` otherwise."""
        q = self.m_basis
        try:
            for _ in range(NEWTON_MAX_ITER):
                dz = np.linalg.solve(self.jac(0.0, z), -self.rhs(0.0, z))
                z = z + dz
                if np.abs(q @ dz).max() <= NEWTON_STEP_TOL:  # False on NaN
                    break
            else:
                return None
            stable = self._growth_rate(z) < 0
        except np.linalg.LinAlgError:
            return None
        s = self.coords(z)
        if (not stable
                or np.abs(self.rhs_coords(s)).max() > self.residual_bound
                or self.sub.min_eigenvalue(s) < -POSITIVITY_TOL):
            return None
        return z

    def _growth_rate(self, z: np.ndarray) -> float:
        """Largest real eigenvalue of the Jacobian at chart coordinates
        ``z``: the slowest mode's rate."""
        return float(np.linalg.eigvals(self.jac(0.0, z)).real.max())

    def slow_mode_rate(self) -> float:
        """Largest growth rate of fluctuations about the symmetric state.

        Positive values mark the ordered phase; the boundary is the zero
        crossing.  Uses the exact linearization, including the mean-spin
        feedback of the exchange term."""
        return self._growth_rate(self.symmetric_fixed_point())


@dataclass
class IntegrationControls:
    """Tolerances and step cap of the integrator.

    Each entry point's default rtol is the loosest decade at which the
    accuracy bound on its own output holds, at atol 1e-14.  For
    :func:`integrate`, whose output is M(t), that is this class's 1e-10:
    LSODA meets the dark decay's analytic answer to 1e-9 relative with a
    capped step (``tests/test_dynamics.py``), where rtol 1e-9 is off by
    1.2e-9.  For :func:`steady_state` and its callers, whose M_ss is exact
    (Newton) and whose tau is the Hermite crossing of the run, it is
    STEADY_RTOL = 1e-8: tau within 1e-7 relative of stock Radau, where rtol
    1e-7 is off by up to 2.6e-7."""

    rtol: float = 1e-10
    atol: float = 1e-14
    max_step: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ValueError("rtol must be finite and > 0")
        if not (math.isfinite(self.atol) and self.atol >= 0):
            raise ValueError("atol must be finite and >= 0")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be > 0")


# Checks on every accepted step: the step budget, a finite state and
# positivity.  From BUDGET_PROJECTION_STEPS accepted steps on, a run also
# fails once its steps, extrapolated to t_end at its mean step, exceed
# MAX_STEPS: a run that resolves the Zeeman precession of the 'hyperfine'
# and 'none' modes at b_z = 1 G would need about 1.7e9 steps.  Positivity
# and M are read for up to CHECK_BLOCK accepted steps at a time.
MAX_STEPS = 50_000_000
CHECK_BLOCK = 256
BUDGET_PROJECTION_STEPS = 20_000
POSITIVITY_TOL = 1e-9
# Below this |M_ss| a converged point is disordered and reports the dark
# lifetime T1 as its response time.
TAU_FLOOR_M = 1e-3
# A state is an exact fixed point when max|rhs_coords| is at most
# FIXED_POINT_RESIDUAL Gamma, plus rounding (CompiledModel.residual_bound).
FIXED_POINT_RESIDUAL = 1e-9
# Fixed-point stop: when the derivative f at the first accepted state of a
# STEADY_WINDOW_T1 / Gamma window is small, |dM/dt| <= NEWTON_GATE Gamma |M|
# + STEADY_ABS_RATE Gamma and rms(f) <= NEWTON_GATE Gamma / dim_g, a
# Newton solve from the current state (NEWTON_MAX_ITER iterations, done
# when a step moves no coordinate by more than NEWTON_STEP_TOL) may end the
# run on a stable fixed point within NEWTON_DISTANCE / dim_g rms of it.
NEWTON_GATE = 1e-2
STEADY_ABS_RATE = 1e-9
STEADY_WINDOW_T1 = 5.0
NEWTON_MAX_ITER = 8
NEWTON_STEP_TOL = 1e-10
NEWTON_DISTANCE = 0.1
# The response time is the crossing of this fraction of |M_ss|, on a run
# to a steady state at this default rtol (see IntegrationControls).
RESPONSE_FRACTION = 0.63
STEADY_RTOL = 1e-8
# The boundary locators find the root in ln(axis rate /Gamma) over this
# bracket, to this absolute tolerance in the logarithm (Brent's xtol).
LOCATOR_BRACKET = (0.05, 40.0)
LOCATOR_TOL = 1e-12


# LSODA's arrays, lent to runs by the dimension of their state.  The
# compiled driver keeps a reference to the rwork and iwork it is handed on
# every call, so arrays made for each run would stay in memory for good.
_LSODA_WORK: dict[int, list[tuple[np.ndarray, ...]]] = {}


@lru_cache(maxsize=None)
def _lsoda_step():
    """ODEPACK's LSODA driver (Petzold, SIAM J. Sci. Stat. Comput. 4, 136,
    1983), as scipy compiles it: ``lsoda(f, y, t, tout, rtol, atol, itask,
    istate, rwork, iwork, jac, jt, f_args, tfirst, jac_args, state_doubles,
    state_ints)`` returns (y, t, istate), with y updated in place.  It is
    loaded on first use from the ``integrate/_odepack`` extension file
    alone, so no scipy package is imported and nothing enters
    ``sys.modules``."""
    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    spec = importlib.machinery.FileFinder(
        os.path.join(scipy_dir, "integrate"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec("scipy.integrate._odepack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.lsoda


@contextmanager
def _lsoda(n: int, t_end: float, controls: IntegrationControls):
    """LSODA's arrays for a run of ``n`` coordinates to ``t_end``, set as
    ``scipy.integrate.ode``'s "lsoda" integrator sets them for a full
    Jacobian (jt 1) and its defaults: at most 500 steps a call, Adams
    orders up to 12 and BDF orders up to 5, and ``controls.max_step`` as
    the step cap (0 is none).  rwork[0] holds ``t_end`` as the critical
    time, which LSODA's one-step task (itask 5) never passes.  The arrays
    are lent from ``_LSODA_WORK`` and taken back when the run ends, also
    on a raise; a nested or concurrent run borrows another set.  Yields
    (rwork, iwork, state_doubles, state_ints); LSODA counts its
    right-hand-side calls in iwork[11] and its Jacobians in iwork[12]."""
    free = _LSODA_WORK.setdefault(n, [])
    try:
        work = free.pop()
    except IndexError:
        work = (np.empty(max(20 + 16 * n, 22 + 9 * n + n * n)), np.empty(20 + n, np.int32),
                np.empty(240), np.empty(48, np.int32))
    for array in work:
        array.fill(0)
    rwork, iwork = work[:2]
    rwork[0], rwork[5] = t_end, controls.max_step or 0.0
    iwork[5:9] = 500, 0, 12, 5
    try:
        yield work
    finally:
        free.append(work)


def _integrate_coords(model: CompiledModel, s0: np.ndarray, t_end: float,
                      controls: IntegrationControls,
                      stop_at_fixed_point: bool = False):
    """ODEPACK's LSODA on ``model`` with its analytic Jacobian, in the
    unit-trace chart z = Q^T (s - u) of :class:`CompiledModel`, whose first
    coordinate is along M, stepped one accepted step at a time.  LSODA
    switches between Adams and BDF methods as the problem turns stiff, so
    its steps are set by the dynamics rather than by the fast decays, and
    its Newton iterations run in compiled code.  It weighs each
    coordinate's error by its own size, so in this chart its rtol bounds
    the error of M relative to |M|, not to the populations near 1/dim
    beside which a 1e-4 seed is a small difference: at rtol 1e-4, tau at
    I = 2, J = 3 (Gamma) is off by 4e-5 relative here and by 3e-2 in the
    populations themselves.

    The loop calls the compiled driver (:func:`_lsoda_step`) itself, once
    per accepted step (itask 5), with the model's callbacks and the
    arrays of :func:`_lsoda`, and tracks LSODA's ``istate``: the C calls
    and arguments of ``scipy.integrate.LSODA`` without its Python layers,
    so the trajectory is the same to the bit.

    Every accepted step is checked against the step budget (see
    ``BUDGET_PROJECTION_STEPS``) and for a finite state, one dot product
    z . z of the solver's state; a failed call (its ``istate`` < 0 in the
    diagnostics) or a non-finite state raises
    ``IntegrationError("solver failed: ...")``.  M, dM/dt and positivity
    (the populations in 'hyperfine+zeeman', else the least eigenvalue of
    s = Q z + u) are read for a block of up to CHECK_BLOCK steps in one
    readout product (:class:`CompiledModel`): when the block is full, at
    the end of the run and before any raise.  So the first step to lose
    positivity is reported, at most CHECK_BLOCK steps late but before any
    later step's failure.  A Newton gate reads M of its state alone, from
    the first readout row.

    Returns (times, magnetizations, rates, z_final, stop, counts), where
    ``rates`` holds dM/dt at the recorded times, ``stop`` is 'fixed-point'
    or 'budget' (``t_end`` reached) and ``counts`` holds the accepted
    ``steps`` and the solver's ``nfev`` and ``njev`` as ``int``, read from
    LSODA's iwork.

    With ``stop_at_fixed_point`` the run ends earlier, on the exact fixed
    point, when :meth:`CompiledModel.stable_fixed_point` finds one near the
    state whose magnetization M* has the sign of M(t) and which |M(t)| has
    already brought within RESPONSE_FRACTION of |M*|; then ``z_final`` is
    that fixed point, while the recorded trajectory ends at the last
    accepted step.  The solve is tried when the derivative at the accepted
    state is small (see ``NEWTON_GATE``); that gate is read at the first
    accepted step of each STEADY_WINDOW_T1 / Gamma window, on the solver's
    derivative dz/dt, whose norm equals that of ds/dt since Q is
    orthonormal; its rms is taken over the n coordinates of s."""
    gamma = model.params.gamma
    step, rhs, jac = _lsoda_step(), model.rhs, model.jac
    rtol, atol = controls.rtol, controls.atol
    m_q, rows_t, offsets = model.readout[0], model.readout.T, model.readout_offset
    populations = model.sub.mode == MODE_HFZ
    dim, n, first_population = model.sub.dim, model.sub.n, 2 + 2 * model.k
    z, t, h, istate = model.chart(s0), 0.0, None, 1
    values = z[None] @ rows_t + offsets
    times, mags, rates = [0.0], values[:, 0].tolist(), model.rate(values).tolist()
    stop = "budget"
    next_newton = 0.0
    n_steps = 0
    block, block_t = np.empty((CHECK_BLOCK, z.size)), []

    def flush():
        """Check the pending steps for positivity, in order, and record
        their times, M and dM/dt."""
        z_block = block[:len(block_t)]
        values = z_block @ rows_t + offsets
        min_eigs = (values[:, first_population:].min(axis=1) if populations
                    else np.array([model.sub.min_eigenvalue(model.coords(zk)) for zk in z_block]))
        lost = np.flatnonzero(min_eigs < -POSITIVITY_TOL)
        if lost.size:
            raise IntegrationError("state lost positivity",
                                   {"t": block_t[lost[0]], "min_eig": float(min_eigs[lost[0]])})
        times.extend(block_t)
        mags.extend(values[:, 0].tolist())
        rates.extend(model.rate(values).tolist())
        block_t.clear()

    with _lsoda(z.size, t_end, controls) as (rwork, iwork, doubles, ints):

        def counts():
            return {"steps": n_steps, "nfev": int(iwork[11]), "njev": int(iwork[12])}

        while t < t_end:
            if n_steps >= MAX_STEPS or (n_steps >= BUDGET_PROJECTION_STEPS
                                        and n_steps * t_end > MAX_STEPS * t):
                flush()
                raise IntegrationError("step budget exhausted",
                                       {"t": t, "projected_steps": n_steps * t_end / t,
                                        **counts()})
            z, t_next, istate = step(rhs, z, t, t_end, rtol, atol, 5, istate, rwork, iwork,
                                     jac, 1, (), 1, (), doubles, ints)
            if istate < 0:
                flush()
                raise IntegrationError("solver failed: Unexpected istate in LSODA.",
                                       {"t": t, "h": h, "istate": istate, **counts()})
            h, t = t_next - t, t_next
            if not math.isfinite(z @ z):
                flush()
                raise IntegrationError("solver failed: non-finite state",
                                       {"t": t, "h": h, **counts()})
            n_steps += 1
            block[len(block_t)] = z  # a copy: the runner updates z in place
            block_t.append(t)
            if len(block_t) == CHECK_BLOCK:
                flush()
            if stop_at_fixed_point and t >= next_newton:
                m = float(m_q @ z) + offsets[0]
                next_newton = t + STEADY_WINDOW_T1 / gamma
                f = model.rhs(t, z)
                if (abs(float(m_q @ f))
                        <= NEWTON_GATE * gamma * abs(m) + STEADY_ABS_RATE * gamma
                        and math.sqrt(float(f @ f) / n) <= NEWTON_GATE * gamma / dim):
                    z_star = model.stable_fixed_point(z)
                    if z_star is not None:
                        m_star = float(m_q @ z_star) + offsets[0]
                        d = z_star - z  # rms over the n coordinates of s
                        near = math.sqrt(float(d @ d) / n) <= NEWTON_DISTANCE / dim
                        if (near and np.sign(m_star) == np.sign(m)
                                and abs(m) >= RESPONSE_FRACTION * abs(m_star)):
                            stop = "fixed-point"
                            z = z_star
                            break
        flush()
        return np.array(times), np.array(mags), np.array(rates), z, stop, counts()


def _model_for(params: SimParams, model: CompiledModel | None) -> CompiledModel:
    """``model``, which must be compiled for ``params`` up to the seed, or
    a new model of ``params``."""
    if model is None:
        return CompiledModel(params)
    if replace(model.params, seed_polarization=params.seed_polarization) != params:
        raise ValueError("the model was compiled for other parameters")
    return model


def integrate(params: SimParams, t_end: float,
              controls: IntegrationControls | None = None,
              model: CompiledModel | None = None) -> Trajectory:
    """Integrate the projected dynamics from the seeded unpolarized state
    for ``t_end`` seconds.  A ``model`` must be compiled for ``params``
    up to the seed, or this raises ``ValueError``."""
    if not t_end > 0:
        raise ValueError("t_end must be > 0")
    model = _model_for(params, model)
    controls = controls or IntegrationControls()
    s0 = model.seed_coords(params.seed_polarization)
    times, mags, rates, z, _, _ = _integrate_coords(model, s0, t_end, controls)
    return Trajectory(times=times, magnetization=mags,
                      final_state=model.sub.to_matrix(model.coords(z)), rates=rates)


@dataclass
class SteadyResult:
    """A run to steady state and its response time ``tau``: the
    RESPONSE_FRACTION (63%) crossing of |M| against |M_ss|, or T1
    (``floored``) when |M_ss| < TAU_FLOOR_M; ``None`` when the run did not
    converge.  ``stop`` says how the run ended: on an exact fixed point,
    'symmetric' (classified without integrating) or 'fixed-point' (Newton
    stop), or 'budget' (``max_time`` reached, not converged).  ``steps``
    counts the accepted steps; ``nfev`` and ``njev`` are the solver's
    right-hand-side and Jacobian counts (LSODA factorizes once per
    Jacobian)."""

    m_ss: float
    trajectory: Trajectory
    tau: float | None
    floored: bool
    stop: str
    steps: int
    nfev: int
    njev: int

    @property
    def converged(self) -> bool:
        return self.stop != "budget"

    @property
    def rho_ss(self) -> np.ndarray:
        return self.trajectory.final_state

    @property
    def t_converge(self) -> float:
        return float(self.trajectory.times[-1])


def _classified(model: CompiledModel, eps: float) -> np.ndarray | None:
    """The symmetric fixed point, in chart coordinates, when it is the
    run's answer without integrating: no bias field, an exact fixed point,
    and a seed ``eps`` that cannot leave it, because it is zero (the
    symmetric sector is invariant) or the slow mode is negative (a small
    seed relaxes back)."""
    bias = model.params.bias
    if bias is not None and bias.amplitude_sq > 0:
        return None
    try:
        z_star = model.symmetric_fixed_point()
    except IntegrationError:  # not a fixed point outside 'hyperfine+zeeman'
        return None
    if eps == 0.0 or model._growth_rate(z_star) < 0:
        return z_star
    return None


def steady_state(params: SimParams, max_time: float | None = None,
                 controls: IntegrationControls | None = None,
                 model: CompiledModel | None = None) -> SteadyResult:
    """The steady state reached from the unpolarized state seeded with
    ``params.seed_polarization``.

    A run converges only on an exact fixed point: without integrating when
    the symmetric state is one that the seed cannot leave and no bias field
    breaks the symmetry ('symmetric'; see :func:`_classified`), or on the
    fixed point of a checked Newton solve once the integration has come
    close ('fixed-point'; see :func:`_integrate_coords`).  A run that
    reaches ``max_time`` (default 2000/Gamma) first has not converged
    ('budget').  Without ``controls`` the run takes rtol STEADY_RTOL (see
    :class:`IntegrationControls`).  A ``model`` must be compiled for
    ``params`` up to the seed, or this raises ``ValueError``."""
    model = _model_for(params, model)
    if max_time is None:
        max_time = 2000.0 / params.gamma
    controls = controls or IntegrationControls(rtol=STEADY_RTOL)
    s0 = model.seed_coords(params.seed_polarization)
    z = _classified(model, params.seed_polarization)
    if z is not None:
        # the seed's M and dM/dt, read as an integrated run reads them
        values = model.chart(s0)[None] @ model.readout.T + model.readout_offset
        times, mags, rates = np.zeros(1), values[:, 0], model.rate(values)
        stop, counts = "symmetric", {"steps": 0, "nfev": 0, "njev": 0}
    else:
        times, mags, rates, z, stop, counts = _integrate_coords(
            model, s0, max_time, controls, stop_at_fixed_point=True)
    s = model.coords(z)
    traj = Trajectory(times=times, magnetization=mags,
                      final_state=model.sub.to_matrix(s), rates=rates)
    m_ss = model.magnetization(s)
    tau, floored = None, False
    if stop != "budget":
        floored = abs(m_ss) < TAU_FLOOR_M
        tau = params.t1 if floored else traj.response_crossing(RESPONSE_FRACTION, m_ss)
    return SteadyResult(m_ss=m_ss, trajectory=traj, tau=tau, floored=floored,
                        stop=stop, **counts)


def response_time(params: SimParams, max_time: float | None = None,
                  controls: IntegrationControls | None = None,
                  model: CompiledModel | None = None) -> SteadyResult:
    """The steady state of :func:`steady_state`, seeded from ``params``,
    raising unless it has a response time ``tau``."""
    res = steady_state(params, max_time=max_time, controls=controls, model=model)
    if not res.converged:
        raise IntegrationError("no steady state within the time budget",
                               {"t_max": res.t_converge, "m_last": res.m_ss})
    if res.tau is None:
        raise IntegrationError("response never crossed 63% of steady value", {})
    return res


def seed_sensitivity(params: SimParams, factors: tuple[float, ...] = (1.0, 0.1),
                     model: CompiledModel | None = None) -> dict:
    """Response time at the seeds ``params.seed_polarization`` x
    ``factors``, each run on a copy of ``params`` with that seed (so one
    beyond 0.01 in magnitude raises ``ValueError``).

    Near criticality tau grows logarithmically as the seed shrinks; the
    report carries d tau / d ln(eps) so it can be published next to tau."""
    model = _model_for(params, model)
    eps0 = params.seed_polarization
    taus = {f: response_time(replace(params, seed_polarization=eps0 * f), model=model).tau
            for f in factors}
    out = {"eps_base": eps0, "tau_by_factor": taus}
    fs = sorted(taus)
    if len(fs) >= 2 and fs[0] != fs[-1]:
        out["dtau_dlog_eps"] = ((taus[fs[-1]] - taus[fs[0]])
                                / math.log(fs[-1] / fs[0]))
    return out


def _critical_rate(axis: str, fixed: float) -> float:
    """The zero crossing of the symmetric state's slow-mode growth rate
    along the axis rate ``axis`` ('I' or 'J') with the other rate held at
    ``fixed``, for the default parameters: Brent's root of the rate on
    u = ln(axis rate) over LOCATOR_BRACKET, to LOCATOR_TOL in u.  The rate
    is cached on u, so Brent's method re-uses the two compiles that check
    the signs of the bracket ends; an end on the wrong side raises
    ``ValueError``."""
    from scipy.optimize import brentq  # imported on first use

    other = "J" if axis == "I" else "I"
    lo, hi = LOCATOR_BRACKET

    @lru_cache(maxsize=None)
    def rate(u):
        x = math.exp(u)
        i, j = (x, fixed) if axis == "I" else (fixed, x)
        p = SimParams.from_rates(i_over_gamma=i, j_over_gamma=j, seed_polarization=0.0)
        return CompiledModel(p).slow_mode_rate()
    u_lo, u_hi = math.log(lo), math.log(hi)
    if rate(u_hi) < 0:
        raise ValueError(f"no instability up to {axis}/Gamma = {hi} "
                         f"at {other}/Gamma = {fixed}")
    if rate(u_lo) > 0:
        raise ValueError(f"unstable already at {axis}/Gamma = {lo} "
                         f"at {other}/Gamma = {fixed}")
    return math.exp(brentq(rate, u_lo, u_hi, xtol=LOCATOR_TOL))


def critical_pump_rate(j_over_gamma: float) -> float:
    """Critical axis rate I/Gamma on a fixed-J contour: the zero crossing of
    the symmetric state's slow-mode growth rate, Brent's root on ln I over
    the fixed LOCATOR_BRACKET to LOCATOR_TOL (see :func:`_critical_rate`)."""
    return _critical_rate("I", j_over_gamma)


def critical_exchange_rate(i_over_gamma: float) -> float:
    """Critical axis rate J/Gamma on a fixed-I contour, located as by
    :func:`critical_pump_rate`."""
    return _critical_rate("J", i_over_gamma)


# --- rate calibrations -------------------------------------------------------

@lru_cache(maxsize=16)
def _mixed_state_rates(atom: AtomSpec, b_z: float, mode: str, shape: OpticalField,
                       coll: CollisionParams, doppler: DopplerSpec) -> tuple[float, float]:
    """The photon absorption rate gamma_q Tr(rho_e) and the pumping rate
    dM/dt of a unit-intensity field on the fully mixed state u, read off the
    field's cached :func:`_field_action`."""
    ground = _ground_parts(atom, b_z, mode)
    action = _field_action(atom, b_z, mode, shape, coll, doppler)
    superop, x = action.superop(1.0)
    de = ground.system.dim_e
    # the first n columns are the unrotated excited matrices
    rho_e = (x[:, :ground.sub.n] @ ground.u).reshape(de, de)
    absorption = float(coll.gamma_q * np.trace(rho_e).real)
    rate = ground.m_basis[:, 0] @ (np.real(superop) @ ground.u)  # fz = c q_0
    return absorption, ground.m_scale * float(rate)


def absorption_rate_unit(params: SimParams, shape: OpticalField | None = None) -> float:
    """Photon absorption rate of the fully mixed state per unit intensity."""
    shape = shape if shape is not None else pump_field(1.0)
    return _mixed_state_rates(params.atom, params.b_z, params.projection_mode,
                              shape.scaled(1.0), params.coll, params.doppler)[0]


def alignment_rate_unit(params: SimParams, shape: OpticalField | None = None) -> float:
    """Axis rate I per unit intensity of the alignment pump.

    One axis unit corresponds to PUMP_AXIS_SCALE photon absorptions per
    second per unpolarized atom (see module docstring)."""
    return absorption_rate_unit(params, shape) / PUMP_AXIS_SCALE


def bias_rate_unit(params: SimParams, shape: OpticalField) -> float:
    """Bias rate H per unit intensity, fixed by the disordered-limit pumping
    law dM/dH = 1/Gamma of the linearized steady response at I = 0.

    That response needs no solve.  At the fully mixed state u the
    Hamiltonian commutes with F_z, exchange and its linearized feedback
    conserve Tr(F_z rho), and Tr F_z = 0, so spin destruction alone moves
    M: the response delta to a field's pumping rate D obeys
    Gamma fz.delta = fz.D u.  So H := Gamma dM/d(intensity) is |dM/dt| of
    the unit field at u, for every Gamma and J."""
    unit = abs(_mixed_state_rates(params.atom, params.b_z, params.projection_mode,
                                  shape.scaled(1.0), params.coll, params.doppler)[1])
    if unit == 0:
        raise RuntimeError("bias calibration produced a vanishing rate")
    return unit
