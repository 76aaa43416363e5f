"""Desk-scale phase diagram of the driven spin gas.

Sweeps the pump-rate / exchange-rate plane, prints a coarse text heat map,
and demonstrates the attenuation-driven re-entrance: at fixed optical
power, raising the density first orders the vapor and then disorders it
again as the light is absorbed along the cell.

Writes the full-resolution cells CSV next to this script.
"""

import os

import numpy as np

from spingas import ConditionsMap, SweepGrid, density_scan, run_sweep, save_sweep

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

cmap = ConditionsMap(attenuation_mode="path-averaged")
grid = SweepGrid.from_rates(np.linspace(0.5, 6.0, 14), np.linspace(0.5, 6.0, 14))
result = run_sweep(grid, cmap=cmap)
save_sweep(result, os.path.join(OUT, "phase_diagram_cells.csv"),
           os.path.join(OUT, "phase_diagram_manifest.json"))

mat = result.matrix("m_abs")
shades = " .:-=+*#%@"
print("|M| map (rows: J/Gamma rising upward; columns: I/Gamma rising right)")
for jj in reversed(range(mat.shape[0])):
    row = "".join(shades[min(int(v * (len(shades) - 1) / 0.8), len(shades) - 1)]
                  for v in mat[jj])
    print(f"  J={grid.j_over_gamma[jj]:4.1f} |{row}|")
print(f"         {'I/Gamma 0.5 ... 6.0':>{mat.shape[1] + 2}}")
print(f"max |M| on the grid: {mat.max():.3f}")

print("\nRe-entrance at fixed power (unattenuated I = 4 Gamma):")
scan = density_scan(4.0, np.geomspace(3e10, 2e13, 10), cmap=cmap)
for cell in scan.cells:
    print(f"  n = {cell.n:9.2e} cm^-3  J/Gamma = {cell.j_over_gamma:7.2f}  "
          f"effective I/Gamma = {cell.i_effective:5.2f}  |M| = {cell.m_abs:.4f}")
print("The ordered window closes at high density because absorption "
      "starves the pump along the cell.")
