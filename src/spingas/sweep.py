"""Phase-diagram sweeps on the calibrated (I/Gamma, J/Gamma) axes: grids,
parallel execution, persistence.

The vapor density n of a J line, J = n <sigma_ex v> (optionally divided by
the slow-down q), attenuates its pump to I * attenuation(n): the point
value exp(-n sigma_e L), its path average (1 - exp(-n sigma_e L)) /
(n sigma_e L), or off.  Each cell runs an independent steady-state and
response-time simulation.  With several workers the cells run in forked
processes that claim one cell at a time and send their cells back when
none is left; results are deterministic and independent of the worker
count because cells never share state.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import importlib.util
import io
import itertools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import traceback
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from . import units
from .dynamics import (
    GAMMA_BASE,
    TAU_FLOOR_M,
    CompiledModel,
    IntegrationControls,
    IntegrationError,
    SimParams,
    steady_state,
)

SCHEMA_VERSION = 2

# The pressure-broadened absorption line: peak cross-section (cm^2), HWHM.
LINE_PEAK_CM2 = 2.2e-11
LINE_HWHM = units.frequency("137 MHz")

ATTENUATION_MODES = ("point", "path-averaged", "off")
J_CONVENTIONS = ("collision-rate", "measured")


def lorentzian_cross_section(detuning: float | None = None) -> float:
    """Absorption cross-section in the Lorentzian wing, cm^2: roughly
    8e-13 cm^2 at the default pump detuning."""
    if detuning is None:
        detuning = units.frequency("700 MHz")
    return LINE_PEAK_CM2 * LINE_HWHM ** 2 / (detuning ** 2 + LINE_HWHM ** 2)


@dataclass(frozen=True)
class ConditionsMap:
    """Physical constants mapping the vapor density to J and to the pump's
    attenuation."""

    sigma_ex_v: float = 7e-10          # cm^3/s
    sigma_e: float = field(default_factory=lorentzian_cross_section)
    cell_length: float = 1.5           # cm
    attenuation_mode: str = "path-averaged"
    j_convention: str = "collision-rate"  # or "measured" (divides by q)
    q_slowdown: float = 4.57

    def __post_init__(self):
        for name in ("sigma_ex_v", "sigma_e", "cell_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.attenuation_mode not in ATTENUATION_MODES:
            raise ValueError(f"unknown attenuation mode {self.attenuation_mode!r}")
        if self.j_convention not in J_CONVENTIONS:
            raise ValueError(f"unknown J convention {self.j_convention!r}")

    def attenuation(self, n: float) -> float:
        od = n * self.sigma_e * self.cell_length
        if self.attenuation_mode == "off" or od == 0.0:
            return 1.0
        if self.attenuation_mode == "point":
            return math.exp(-od)
        return (1.0 - math.exp(-od)) / od

    def j_from_density(self, n: float) -> float:
        """The exchange rate J (1/s) at density n (cm^-3)."""
        if n < 0:
            raise ValueError("density must be >= 0")
        q = self.q_slowdown if self.j_convention == "measured" else 1.0
        return n * self.sigma_ex_v / q

    def density_from_j(self, j_rate: float) -> float:
        q = self.q_slowdown if self.j_convention == "measured" else 1.0
        return j_rate / self.sigma_ex_v * q


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular grid of sweep points on the (I/Gamma, J/Gamma) axes.

    ``densities`` holds the vapor density of each J line, which attenuates
    its pump, or NaN where the line has none (no attenuation)."""

    i_over_gamma: tuple[float, ...]
    j_over_gamma: tuple[float, ...]
    densities: tuple[float, ...]

    def __post_init__(self):
        for name in ("i_over_gamma", "j_over_gamma"):
            ax = getattr(self, name)
            if len(ax) == 0:
                raise ValueError(f"{name} axis is empty")
            if not all(map(math.isfinite, ax)):
                raise ValueError(f"{name} axis values must be finite")
            if any(b <= a for a, b in zip(ax, ax[1:])):
                raise ValueError(f"{name} axis must be strictly increasing")

    @classmethod
    def from_rates(cls, i_over_gamma, j_over_gamma,
                   cmap: ConditionsMap | None = None,
                   gamma: float = GAMMA_BASE) -> "SweepGrid":
        """Grid on the rate axes; densities derived from J when a map is
        given (so attenuation can be applied)."""
        i_ax = tuple(float(x) for x in i_over_gamma)
        j_ax = tuple(float(x) for x in j_over_gamma)
        if cmap is not None:
            dens = tuple(cmap.density_from_j(j * gamma) for j in j_ax)
        else:
            dens = tuple(float("nan") for _ in j_ax)
        return cls(i_over_gamma=i_ax, j_over_gamma=j_ax, densities=dens)

    def cells(self):
        for jj, j in enumerate(self.j_over_gamma):
            for ii, i in enumerate(self.i_over_gamma):
                yield ii, jj, i, j


@dataclass
class CellResult:
    i_over_gamma: float
    j_over_gamma: float
    n: float
    i_effective: float
    m_signed: float
    tau_s: float
    tau_floored: bool
    converged: bool
    eps: float
    error: str = ""

    @property
    def m_abs(self) -> float:
        return abs(self.m_signed)


_FLOAT = (lambda v: f"{v:.17g}", float)
_FLAG = (lambda v: str(int(v)), lambda s: bool(int(s)))
_TEXT = (str, str)

# The cells CSV, one entry per column in file order: the header name, the
# CellResult attribute, and the writer and parser of its text.  A column
# whose attribute is a property restates fields for readers of the file;
# the loader checks it and stores nothing from it.
CELL_COLUMNS = (
    ("n", "n", *_FLOAT),
    ("J_over_Gamma", "j_over_gamma", *_FLOAT),
    ("I_over_Gamma", "i_over_gamma", *_FLOAT),
    ("I_effective", "i_effective", *_FLOAT),
    ("M_signed", "m_signed", *_FLOAT),
    ("M_abs", "m_abs", *_FLOAT),
    ("tau_s", "tau_s", *_FLOAT),
    ("tau_floored", "tau_floored", *_FLAG),
    ("converged", "converged", *_FLAG),
    ("eps", "eps", *_FLOAT),
    ("error", "error", *_TEXT),
)
_CELL_FIELDS = {f.name for f in fields(CellResult)}

# Readout name -> CellResult attribute.  The grid maps read |M| and tau; a
# refined line also reads the signed magnetization, for the critical fits.
QUANTITIES = {"m_abs": "m_abs", "tau": "tau_s", "m_signed": "m_signed"}
MAP_QUANTITIES = ("m_abs", "tau")


@dataclass
class SweepResult:
    grid: SweepGrid
    cells: list[CellResult]
    provenance: dict

    def cell(self, ii: int, jj: int) -> CellResult:
        return self.cells[jj * len(self.grid.i_over_gamma) + ii]

    def matrix(self, quantity: str) -> np.ndarray:
        """The (J, I) map of 'm_abs' or 'tau'; any other name raises ValueError."""
        if quantity not in MAP_QUANTITIES:
            raise ValueError(f"quantity must be 'm_abs' or 'tau', not {quantity!r}")
        ni, nj = len(self.grid.i_over_gamma), len(self.grid.j_over_gamma)
        return np.array([getattr(c, QUANTITIES[quantity]) for c in self.cells]).reshape(nj, ni)


def _sweep_task(args):
    i_axis, j_axis, i_eff, n, gamma, sim_kwargs, max_time, controls = args
    p = SimParams.from_rates(i_over_gamma=i_eff, j_over_gamma=j_axis,
                             gamma=gamma, **sim_kwargs)
    nan = float("nan")
    m_ss, tau, floored, converged, error = nan, nan, False, False, ""
    try:
        res = steady_state(p, max_time=max_time, controls=controls)
        # an unconverged run keeps its partial magnetization, flagged
        m_ss, floored, converged = res.m_ss, res.floored, res.converged
        tau = nan if res.tau is None else res.tau
        if not converged:
            error = f"no steady state within {res.t_converge:.1f} s"
    except IntegrationError as exc:
        error = str(exc)
    return CellResult(
        i_over_gamma=i_axis, j_over_gamma=j_axis, n=n,
        i_effective=i_eff, m_signed=m_ss, tau_s=tau,
        tau_floored=floored, converged=converged, eps=p.seed_polarization,
        error=error)


def default_workers() -> int:
    """Worker count when the caller names none: the cores this process may
    run on (its CPU affinity, where the platform reports one), at most 8."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(8, cores))


def _pin_blas_threads() -> int | None:
    """Run the OpenBLAS libraries that the numpy and scipy wheels bundle
    (``numpy.libs``, ``scipy.libs``) on one thread, in this process and the
    workers it forks, and return that count; ``None``, with a warning, when
    neither library is found.  Environment variables cannot do this once
    numpy is imported, and the thread count changes the blocking of the LU
    factorizations and so the last bits of every solve.  Opening a library
    that is already loaded returns that same library."""
    pinned = None
    for pkg in ("numpy", "scipy"):
        spec = importlib.util.find_spec(pkg)
        libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), pkg + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads"):
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(1)
                    pinned = 1
                    break
    if pinned is None:
        warnings.warn("no bundled OpenBLAS library found: the BLAS thread count "
                      "is not pinned", RuntimeWarning, stacklevel=2)
    return pinned


# Pinned once, when the package is imported (``spingas/__init__`` imports
# this module), so that library calls, sweeps and commands alike run on it.
BLAS_THREADS = _pin_blas_threads()


def _claim_tasks(tasks: list, claimed, send) -> None:
    """A forked worker's loop: take the next unclaimed task index from the
    shared counter ``claimed`` until none is left, then send the cells as
    one {index: cell} dict over ``send``, or the exception a cell raised
    with its traceback text."""
    try:
        cells = {}
        while True:
            with claimed.get_lock():
                k = claimed.value
                claimed.value = k + 1
            if k >= len(tasks):
                break
            cells[k] = _sweep_task(tasks[k])
        send.send(cells)
    except Exception as exc:
        send.send((exc, traceback.format_exc()))


def _run_tasks(tasks: list, workers: int, base: SimParams) -> list:
    """The cells of ``_sweep_task`` over the tasks, in task order.

    With more than one worker and more than two tasks, the cells run in
    ``min(workers, len(tasks))`` forked processes that inherit the task
    list and claim one task at a time from a shared counter, so no worker
    idles while another still holds a batch of cells.  Each sends its cells
    once, at the end, over its own pipe.  An exception a cell raised in a
    worker is raised here, caused by a ``RuntimeError`` that holds the
    worker's traceback; a worker that exits without sending raises
    ``RuntimeError`` with its exit code.  No worker outlives the call.
    The model of ``base`` is compiled here first, so the workers inherit
    its cached parts and calibrations instead of each building them again.
    ``scipy.integrate``, which the integrator imports on first use, is
    imported here too, so that no worker pays for that import."""
    if workers <= 1 or len(tasks) <= 2:
        return list(map(_sweep_task, tasks))
    CompiledModel(base)
    import scipy.integrate  # noqa: F401
    ctx = multiprocessing.get_context("fork")
    claimed = ctx.Value("l", 0)
    children = {}  # the receiving end of each worker's pipe -> the worker
    try:
        for _ in range(min(workers, len(tasks))):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_claim_tasks, args=(tasks, claimed, send))
            child.start()
            send.close()  # so that the pipe reads EOF once the worker has gone
            children[recv] = child
        cells = {}
        pending = list(children)
        while pending:
            for recv in multiprocessing.connection.wait(pending):
                pending.remove(recv)
                try:
                    sent = recv.recv()
                except EOFError:
                    child = children[recv]
                    child.join()
                    raise RuntimeError(f"a sweep worker exited with code {child.exitcode} "
                                       "before sending its cells") from None
                if isinstance(sent, tuple):
                    exc, trace = sent
                    raise exc from RuntimeError(f"raised in a sweep worker:\n{trace}")
                cells.update(sent)
        for child in children.values():
            child.join()  # each exits on its own once its cells are sent
        return [cells[k] for k in range(len(tasks))]
    finally:
        for recv, child in children.items():
            if child.is_alive():
                child.kill()
            child.join()
            recv.close()


def run_sweep(grid: SweepGrid, gamma: float = GAMMA_BASE,
              cmap: ConditionsMap | None = None,
              workers: int | None = None,
              max_time: float | None = None,
              controls: IntegrationControls | None = None,
              **sim_kwargs) -> SweepResult:
    """Run steady-state and response-time simulations over a grid.

    ``sim_kwargs`` are further :class:`SimParams` fields of every cell
    (projection_mode, seed_polarization, b_z, atom, coll, doppler,
    light_shift, ...), with the :class:`SimParams` defaults for the rest;
    the manifest records the first three as resolved, and the conditions
    map if a grid line has a density (else ``null``).  Cell failures are
    recorded per cell and never abort the sweep.  The output is bitwise
    independent of the worker count."""
    cmap = cmap if cmap is not None else ConditionsMap()
    workers = workers if workers is not None else default_workers()
    base = SimParams.from_rates(i_over_gamma=1.0, j_over_gamma=1.0,
                                gamma=gamma, **sim_kwargs)
    attenuated = any(map(math.isfinite, grid.densities))
    tasks = []
    for _, jj, i_axis, j_axis in grid.cells():
        n = grid.densities[jj]
        att = cmap.attenuation(n) if math.isfinite(n) else 1.0
        tasks.append((i_axis, j_axis, i_axis * att, n, gamma, sim_kwargs,
                      max_time, controls))
    return SweepResult(
        grid=grid, cells=_run_tasks(tasks, workers, base),
        provenance={
            "schema_version": SCHEMA_VERSION,
            "code_version": __version__,
            "gamma": gamma,
            "projection_mode": base.projection_mode,
            "seed_polarization": base.seed_polarization,
            "b_z": base.b_z,
            **{name: getattr(cmap, name) if attenuated else None for name in (
                "attenuation_mode", "sigma_e", "sigma_ex_v", "cell_length", "j_convention")},
            "blas_threads": BLAS_THREADS,
            "migrations": [],
        })


def _contour(result: SweepResult, axis: str, value: float, quantity: str):
    """The grid line nearest ``value`` on ``axis``, the ``quantity`` of its
    cells, NaN wherever the cell did not converge, so that no contour or
    fit reads a partial magnetization, and the value of the line read."""
    along = np.array(result.grid.i_over_gamma)
    across = np.array(result.grid.j_over_gamma)
    cells = np.array(result.cells, dtype=object).reshape(len(across), len(along))
    if axis == "fixed-I":  # the transpose of a fixed-J line
        along, across, cells = across, along, cells.T
    elif axis != "fixed-J":
        raise ValueError("axis must be 'fixed-J' or 'fixed-I'")
    if not across[0] <= value <= across[-1]:
        raise ValueError(f"{axis[-1]}/Gamma = {value} outside grid range")
    k = np.argmin(np.abs(across - value))
    return along, np.array([getattr(c, QUANTITIES[quantity]) if c.converged else math.nan
                            for c in cells[k]]), float(across[k])


def extract_contour(result: SweepResult, axis: str, value: float,
                    quantity: str = "m_abs") -> tuple[np.ndarray, np.ndarray]:
    """1-D series of 'm_abs' or 'tau' along the nearest grid line, NaN
    wherever the cell did not converge.

    ``axis='fixed-J'`` returns (I/Gamma, quantity) on the J line nearest
    ``value``; ``axis='fixed-I'`` the transpose.  No interpolation between
    lines is attempted (nearest-grid-line semantics)."""
    if quantity not in MAP_QUANTITIES:
        raise ValueError(f"quantity must be 'm_abs' or 'tau', not {quantity!r}")
    return _contour(result, axis, value, quantity)[:2]


def refine_contour(axis: str, value: float, points, quantity: str = "m_signed",
                   **sweep_kwargs) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-D series for fitting: :func:`run_sweep` on the one grid
    line through ``points``, which must be strictly increasing.

    ``axis='fixed-J'`` varies I/Gamma over ``points`` at J/Gamma = value;
    ``axis='fixed-I'`` varies J/Gamma; any other axis raises ValueError.
    ``quantity`` is 'm_signed', 'm_abs' or 'tau', read as in
    :func:`extract_contour`.  ``sweep_kwargs`` (gamma, workers, max_time,
    controls and :class:`SimParams` fields) go to :func:`run_sweep`."""
    if quantity not in QUANTITIES:
        raise ValueError(f"quantity must be 'm_signed', 'm_abs' or 'tau', not {quantity!r}")
    if axis not in ("fixed-J", "fixed-I"):
        raise ValueError("axis must be 'fixed-J' or 'fixed-I'")
    line = (points, [value]) if axis == "fixed-J" else ([value], points)
    return _contour(run_sweep(SweepGrid.from_rates(*line), **sweep_kwargs),
                    axis, value, quantity)[:2]


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file renamed over
    it, with no newline translation; an ``OSError`` propagates."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_sweep(result: SweepResult, csv_path: str, manifest_path: str,
               header_comment: str | None = None) -> None:
    """Write the per-cell CSV and a JSON manifest (atomic rename)."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    w = csv.writer(buf)
    w.writerow([name for name, *_ in CELL_COLUMNS])
    for c in result.cells:
        w.writerow([write(getattr(c, attr)) for _, attr, write, _ in CELL_COLUMNS])
    write_atomic(csv_path, buf.getvalue())
    manifest = {
        "provenance": result.provenance,
        "grid": {f.name: [None if math.isnan(x) else x for x in getattr(result.grid, f.name)]
                 for f in fields(SweepGrid)},
    }
    write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class SchemaError(RuntimeError):
    pass


def load_sweep(csv_path: str, manifest_path: str) -> SweepResult:
    """Lossless load of a saved sweep; older schema versions are migrated
    with a note in the provenance."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read manifest: {exc}") from exc
    prov = manifest.get("provenance", {})
    version = prov.get("schema_version")
    migrations = list(prov.get("migrations", []))
    legacy = version == 0
    if legacy:
        migrations.append("migrated schema 0 -> 1: filled a missing tau_floored "
                          "from the floor rule, converged and M_abs < TAU_FLOOR_M")
    dropped = {"phi"} if version in (0, 1) else set()  # a pump power no sweep set
    if dropped:
        migrations.append("migrated schema 1 -> 2: dropped the phi column and the grid's powers")
    elif version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported sweep schema version {version!r}")
    prov["schema_version"] = SCHEMA_VERSION
    prov["migrations"] = migrations
    gspec = manifest.get("grid")
    if gspec is None:
        raise SchemaError("manifest lacks the grid block")
    cells = []
    try:
        grid = SweepGrid(**{f.name: tuple(math.nan if x is None else x for x in gspec[f.name])
                            for f in fields(SweepGrid)})
        with open(csv_path, newline="") as fh:
            # only the comment lines above the header: a quoted error text
            # may hold lines that start with '#'
            reader = csv.DictReader(itertools.dropwhile(lambda line: line.startswith("#"), fh))
            if reader.fieldnames is None or \
                    set(reader.fieldnames) - {c[0] for c in CELL_COLUMNS} - dropped:
                raise SchemaError(f"unexpected CSV columns {reader.fieldnames!r}")
            for k, row in enumerate(reader, 1):
                if None in row or None in row.values():  # DictReader's rest key, rest value
                    raise SchemaError(f"sweep CSV row {k}: {'more' if None in row else 'fewer'}"
                                      " fields than the header")
                values = {attr: parse(row[name]) for name, attr, _, parse in CELL_COLUMNS
                          if attr in _CELL_FIELDS and name in row}
                if legacy:  # schema 0 has no tau_floored column: the floor rule fills it
                    values.setdefault("tau_floored", values["converged"]
                                      and abs(values["m_signed"]) < TAU_FLOOR_M)
                cells.append(CellResult(**values))
                for name, attr, write, _ in CELL_COLUMNS:
                    if attr not in _CELL_FIELDS and write(getattr(cells[-1], attr)) != row[name]:
                        raise SchemaError(f"sweep CSV row {k}: {name} {row[name]!r} is not "
                                          f"the {attr} of the row's fields")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"cannot parse the sweep's grid or CSV: {exc}") from exc
    expected = len(grid.i_over_gamma) * len(grid.j_over_gamma)
    if len(cells) != expected:
        raise SchemaError(f"expected {expected} cells, found {len(cells)}")
    return SweepResult(grid=grid, cells=cells, provenance=prov)


def gnuplot_matrix(result: SweepResult, quantity: str = "m_abs") -> str:
    """Nonuniform-matrix text block for gnuplot heat maps."""
    gi = result.grid.i_over_gamma
    gj = result.grid.j_over_gamma
    mat = result.matrix(quantity)
    lines = [" ".join([str(len(gi))] + [f"{x:.10g}" for x in gi])]
    for jj, j in enumerate(gj):
        lines.append(" ".join([f"{j:.10g}"] + [f"{v:.10g}" for v in mat[jj]]))
    return "\n".join(lines) + "\n"


def density_scan(power_i_over_gamma: float, densities,
                 cmap: ConditionsMap | None = None, gamma: float = GAMMA_BASE,
                 workers: int | None = None, **sim_kwargs) -> SweepResult:
    """Fixed-power scan across vapor density (the re-entrance cut): the
    unattenuated pump axis rate stays constant while J grows with n and the
    effective I drops by attenuation."""
    cmap = cmap if cmap is not None else ConditionsMap()
    densities = tuple(float(n) for n in densities)
    j_ax = tuple(cmap.j_from_density(n) / gamma for n in densities)
    grid = SweepGrid(i_over_gamma=(power_i_over_gamma,), j_over_gamma=j_ax, densities=densities)
    return run_sweep(grid, gamma=gamma, cmap=cmap, workers=workers, **sim_kwargs)
