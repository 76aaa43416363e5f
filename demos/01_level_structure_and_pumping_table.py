"""Level structure of the model atom and the photon-by-photon pumping table.

Walks through the coupled basis of both levels, the hyperfine and Zeeman
energies, and the probabilities with which a single linearly polarized
photon kicks the spin projection up or down -- the microscopic origin of
the alignment drive.
"""

import numpy as np

from spingas import AtomSystem, pump_field, transition_probability_table
from spingas.spin_algebra import hyperfine_hamiltonian

system = AtomSystem()

print("Ground-level basis (index, F, m_F):")
for entry in system.basis_g.manifest()["states"]:
    print(f"  {entry['index']:>2}  F={entry['F']}  m_F={entry['m_F']:>4}")

h_hf = hyperfine_hamiltonian(system.spec, system.basis_g)
split = (np.diag(h_hf).real.max() - np.diag(h_hf).real.min()) / (2 * np.pi * 1e9)
print(f"\nGround hyperfine splitting: {split:.3f} GHz")

h_e = hyperfine_hamiltonian(system.spec, system.basis_e)
split_e = (np.diag(h_e).real.max() - np.diag(h_e).real.min()) / (2 * np.pi * 1e9)
print(f"Excited hyperfine splitting: {split_e:.3f} GHz")

print("\nSpin-projection transition probabilities for one pump photon")
print("(x-polarized light on the lower ground manifold):")
print(f"{'m':>3} {'p(m -> m+1)':>14} {'p(m -> m-1)':>14} {'net drive':>12}")
for m, up, dn in transition_probability_table(system, pump_field(1.0)):
    print(f"{m:>3} {up:>14.6f} {dn:>14.6f} {up - dn:>12.6f}")
print("\nThe net drive grows with m: each absorbed photon preferentially "
      "pushes the spin toward the stretched states, which the pump cannot "
      "excite at all -- that one-way funnel is the alignment mechanism.")
