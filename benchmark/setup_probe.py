"""Set-up cost of a fresh process: import the package, calibrate the pump
and bias axes and compile the first model.

Run by ``run.py`` in a child process (``python3 setup_probe.py``), which
times the whole process."""

from spingas.dynamics import CompiledModel, SimParams

CompiledModel(SimParams.from_rates(i_over_gamma=2.0, j_over_gamma=3.0,
                                   h_over_gamma=1e-3))
