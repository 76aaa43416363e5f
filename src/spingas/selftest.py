"""Built-in invariant suite behind the `spingas selftest` subcommand.

A compact version of the checks the full test suite runs: operator algebra,
dipole closure, the exact transition-probability table, channel
conservation laws, and short dynamical invariant runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dynamics import (
    CompiledModel,
    SimParams,
    integrate,
    spin_exchange_term,
    steady_state,
)
from .optics import (
    AtomSystem,
    OpticalChannel,
    cesium_collisions,
    cesium_doppler,
    couple_field,
    excited_quasi_steady,
    pump_field,
    repopulation,
    transition_probability_table,
)
from .spin_algebra import clebsch_gordan


def _random_density(rng, dim=16):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def run_selftest(verbose: bool = True) -> bool:
    rng = np.random.default_rng(2024)
    system = AtomSystem()
    coll = cesium_collisions()
    dop = cesium_doppler()
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # angular-momentum algebra
    worst = 0.0
    for ops in (system.ops_g, system.ops_e):
        for key in ("S", "I", "F"):
            x, y, z = ops[key].matrices
            worst = max(worst,
                        np.abs(x @ y - y @ x - 1j * z).max(),
                        np.abs(y @ z - z @ y - 1j * x).max(),
                        np.abs(z @ x - x @ z - 1j * y).max())
    check("commutation relations", worst < 1e-12, f"worst {worst:.2e}")

    # Clebsch-Gordan unitarity on a random column
    j1, j2 = 3, 0.5
    total = 0.0
    for m1 in np.arange(-j1, j1 + 1):
        for m2 in (-0.5, 0.5):
            s = sum(clebsch_gordan(j1, m1, j2, m2, J, m1 + m2) ** 2
                    for J in (2.5, 3.5) if abs(m1 + m2) <= J)
            total = max(total, abs(s - 1.0))
    check("Clebsch-Gordan unitarity", total < 1e-12, f"worst {total:.2e}")

    # transition-probability table
    rows = transition_probability_table(system, pump_field(1.0))
    expected = {0: 0.5, 1: 15 / 21, 2: 7 / 8, 3: 28 / 29}
    worst = max(abs(up - expected[m]) for m, up, _ in rows)
    check("transition-probability table", worst < 1e-12, f"worst {worst:.2e}")

    # dipole closure
    sph = system.dipole_sph
    closure = sum(sph[q] @ sph[q].conj().T for q in (-1, 0, 1))
    worst = np.abs(closure - 1.5 * np.eye(16)).max()
    check("dipole closure", worst < 1e-12, f"worst {worst:.2e}")

    # quench repopulation conserves atoms
    rho_e = _random_density(rng)
    out = repopulation(rho_e, system.dipole, coll)
    ratio = np.trace(out).real / (coll.gamma_q * np.trace(rho_e).real)
    check("quench conserves atoms", abs(ratio - 1) < 1e-10, f"ratio-1 {ratio - 1:.2e}")

    # stretched states are dark to the pump
    cpl = couple_field(pump_field(3e12), system, coll, dop)
    dark = np.zeros((16, 16), dtype=complex)
    dark[system.basis_g.index(4, 4), system.basis_g.index(4, 4)] = 1.0
    rho_e = excited_quasi_steady(dark, [cpl], system, coll)
    check("stretched-state darkness", np.abs(rho_e).max() < 1e-12,
          f"max {np.abs(rho_e).max():.2e}")

    # optical channel conserves the ground trace
    ch = OpticalChannel(system, [cpl], coll)
    drift = abs(np.trace(ch.apply(_random_density(rng))))
    check("optical channel trace", drift < 1e-10, f"|Tr| {drift:.2e}")

    # exchange conserves Tr(F_z rho)
    fz = system.ops_g["F"].z.matrix
    worst = 0.0
    for _ in range(20):
        out = spin_exchange_term(_random_density(rng), 300.0, system.ops_g["S"])
        worst = max(worst, abs(np.trace(fz @ out).real))
    check("exchange conserves Tr(F_z rho)", worst < 1e-10, f"worst {worst:.2e}")

    # zero-seed symmetry
    p = SimParams.from_rates(i_over_gamma=2.0, j_over_gamma=3.0,
                             seed_polarization=0.0)
    traj = integrate(p, t_end=10 / p.gamma)
    worst = float(np.abs(traj.magnetization).max())
    check("zero-seed symmetry", worst < 1e-9, f"max|M| {worst:.2e}")

    # seed sign equivariance
    model = CompiledModel(SimParams.from_rates(2.0, 3.0))
    mp = steady_state(replace(model.params, seed_polarization=+1e-4), model=model).m_ss
    mm = steady_state(replace(model.params, seed_polarization=-1e-4), model=model).m_ss
    check("seed sign equivariance", abs(mp + mm) < 1e-6, f"|M+ + M-| {abs(mp + mm):.2e}")

    ok = all(flag for _, flag, _ in checks)
    if verbose:
        for name, flag, detail in checks:
            print(f"[{'PASS' if flag else 'FAIL'}] {name}: {detail}")
        print("selftest", "PASSED" if ok else "FAILED")
    return ok
