"""Critical exponents of the transition, extracted the production way.

Builds refined one-dimensional cuts through the phase boundary and runs the
staged power-law fits for the order parameter (beta), the susceptibility
divergence (gamma), and the critical isotherm (delta).  All three land on
the mean-field values 1/2, 1, 3.
"""

import numpy as np

from spingas import SimParams, steady_state
from spingas.critfit import FitSpec, fit_delta, fit_gamma, susceptibility, three_step_fit
from spingas.dynamics import GAMMA_BASE, critical_pump_rate
from spingas.sweep import refine_contour

i0 = critical_pump_rate(3.8)
print(f"critical pump rate on the J = 3.8 Gamma contour: I0 = {i0:.4f} Gamma")
xs = i0 * np.concatenate([np.linspace(0.75, 0.97, 5),
                          1 + np.geomspace(0.015, 0.15, 14)])
x, y = refine_contour("fixed-J", 3.8, xs, quantity="m_abs")
r = three_step_fit(x, y, FitSpec(form="beta"))
print(f"order parameter:  beta = {r.exponent:.3f} +- {r.exponent_err:.3f}  "
      f"(mean-field 0.5), fitted I0 = {r.x0:.4f}")

i0 = critical_pump_rate(2.3)
xs = i0 * (1 - np.geomspace(0.03, 0.22, 10))
chi = np.array([susceptibility(i, 2.3, dh_over_gamma=5e-4,
                               check_ordered=False).chi * GAMMA_BASE for i in xs])
r = fit_gamma(xs, chi)
print(f"susceptibility:   gamma = {r.exponent:.3f} +- {r.exponent_err:.3f}  "
      f"(mean-field 1), fitted I0 = {r.x0:.4f}")

hs = np.geomspace(2e-4, 2e-2, 8)
ms = [steady_state(SimParams.from_rates(i0, 2.3, h_over_gamma=h,
                                        seed_polarization=0.0)).m_ss for h in hs]
r = fit_delta(hs, np.array(ms))
print(f"critical isotherm: delta = {r.exponent:.3f} +- {r.exponent_err:.3f}  "
      f"(mean-field 3)")
