import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spingas
from spingas.sweep import (
    CellResult,
    ConditionsMap,
    SchemaError,
    SweepGrid,
    SweepResult,
    density_scan,
    extract_contour,
    gnuplot_matrix,
    load_sweep,
    lorentzian_cross_section,
    map_conditions,
    refine_contour,
    run_sweep,
    save_sweep,
)

GAMMA = 58.0


class TestMapConditions:
    def test_zero_density(self):
        cmap = ConditionsMap()
        j, i = map_conditions(0.0, 5.0, cmap)
        assert j == 0.0
        assert cmap.attenuation(0.0) == 1.0

    def test_j_linear_in_density(self):
        cmap = ConditionsMap()
        j1, _ = map_conditions(1e12, 1.0, cmap)
        j2, _ = map_conditions(2e12, 1.0, cmap)
        assert j2 == pytest.approx(2 * j1)
        assert j1 == pytest.approx(1e12 * cmap.sigma_ex_v)

    def test_i_linear_without_attenuation(self):
        cmap = ConditionsMap(attenuation_mode="off")
        _, i1 = map_conditions(1e12, 1.0, cmap)
        _, i2 = map_conditions(1e12, 2.0, cmap)
        assert i2 == 2 * i1

    def test_path_average_closed_form(self):
        # oracle: (1/L) integral_0^L exp(-n sigma y) dy = (1 - e^-OD)/OD
        cmap = ConditionsMap(attenuation_mode="path-averaged")
        n = 1.0 / (cmap.sigma_e * cmap.cell_length)  # OD = 1
        assert cmap.attenuation(n) == pytest.approx(1 - math.exp(-1.0), rel=1e-12)

    def test_point_attenuation(self):
        cmap = ConditionsMap(attenuation_mode="point")
        n = 2.0 / (cmap.sigma_e * cmap.cell_length)
        assert cmap.attenuation(n) == pytest.approx(math.exp(-2.0))

    def test_monotonicity(self):
        cmap = ConditionsMap()
        ns = np.linspace(1e11, 5e13, 40)
        js = [map_conditions(n, 1.0, cmap)[0] for n in ns]
        i_eff = [map_conditions(n, 1.0, cmap)[1] for n in ns]
        assert all(b > a for a, b in zip(js, js[1:]))
        assert all(b <= a for a, b in zip(i_eff, i_eff[1:]))

    def test_measured_convention(self):
        cmap = ConditionsMap(j_convention="measured")
        j, _ = map_conditions(1e12, 1.0, cmap)
        assert j == pytest.approx(1e12 * cmap.sigma_ex_v / cmap.q_slowdown)

    def test_cross_section_estimate(self):
        # pump-detuned wing value close to 8e-13 cm^2
        assert lorentzian_cross_section() == pytest.approx(8.1e-13, rel=0.05)


class TestGrid:
    def test_from_rates(self):
        grid = SweepGrid.from_rates([0.5, 1.0], [1.0, 2.0, 3.0], cmap=ConditionsMap())
        assert len(list(grid.cells())) == 6
        assert all(math.isfinite(n) for n in grid.densities)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            SweepGrid.from_rates([1.0, 0.5], [1.0])
        with pytest.raises(ValueError):
            SweepGrid.from_rates([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_axis_values(self, bad):
        with pytest.raises(ValueError, match="i_over_gamma axis values must be finite"):
            SweepGrid.from_rates([0.5, bad], [1.0])
        with pytest.raises(ValueError, match="j_over_gamma axis values must be finite"):
            SweepGrid.from_rates([0.5], [bad])

    def test_from_physical(self):
        cmap = ConditionsMap()
        grid = SweepGrid.from_physical([1e12, 2e12], [5.0, 10.0], cmap)
        assert grid.j_over_gamma[0] == pytest.approx(1e12 * cmap.sigma_ex_v / GAMMA)
        assert grid.i_over_gamma[1] == pytest.approx(cmap.s_axis * 10.0 / GAMMA)


@pytest.fixture(scope="module")
def tiny_sweep():
    grid = SweepGrid.from_rates([0.2, 0.4], [0.8, 1.2], cmap=None)
    return run_sweep(grid, workers=1)


class TestRunSweep:
    def test_deep_disordered_grid(self, tiny_sweep):
        for cell in tiny_sweep.cells:
            assert cell.converged
            assert cell.m_abs < 1e-6
            assert cell.tau_s == pytest.approx(1.0 / GAMMA)
            assert cell.tau_floored

    def test_worker_independence(self, tiny_sweep):
        grid = SweepGrid.from_rates([0.2, 0.4], [0.8, 1.2], cmap=None)
        again = run_sweep(grid, workers=2)
        for a, b in zip(tiny_sweep.cells, again.cells):
            assert a.m_signed == b.m_signed
            assert a.tau_s == b.tau_s
            assert a.converged == b.converged

    def test_refine_contour_worker_independence(self):
        points = [0.4, 0.6, 2.0]
        serial = refine_contour("fixed-J", 3.8, points, workers=1)
        pooled = refine_contour("fixed-J", 3.8, points, workers=2)
        assert serial[1].tobytes() == pooled[1].tobytes()
        assert abs(serial[1][2]) > 0.2

    def test_workers_inherit_scipy_integrate(self):
        # the integrator imports scipy.integrate on first use; the pool
        # imports it before it forks, so that no worker pays for the import
        src = os.path.dirname(os.path.dirname(spingas.__file__))
        script = ("import os, sys\n"
                  "from spingas import sweep\n"
                  "task = sweep._sweep_task\n"
                  "def logged(args):\n"
                  "    print(os.getpid(), 'scipy.integrate' in sys.modules, flush=True)\n"
                  "    return task(args)\n"
                  "sweep._sweep_task = logged\n"
                  "assert 'scipy.integrate' not in sys.modules\n"
                  "print('main', os.getpid(), flush=True)\n"
                  "sweep.run_sweep(sweep.SweepGrid.from_rates([0.2, 0.4], [0.8, 1.2],\n"
                  "                                           cmap=None), workers=2)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                             capture_output=True, text=True).stdout.split("\n")
        main_pid = out[0].split()[1]
        calls = [line.split() for line in out[1:] if line]
        assert len(calls) == 4
        assert main_pid not in {pid for pid, _ in calls}  # the pool's workers ran them
        assert all(seen == "True" for _, seen in calls)

    @staticmethod
    def _bytes_under_blas_threads(args, paths):
        """The files at ``paths`` that ``python args`` writes under 1 and
        under 2 OpenBLAS threads."""
        src = os.path.dirname(os.path.dirname(spingas.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, *args], env=env, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)
            outputs.append([open(path, "rb").read() for path in paths])
        return outputs

    def test_blas_thread_count_does_not_reach_the_bytes(self, tmp_path):
        # OpenBLAS reads its thread count at numpy's import; the sweep pins
        # one thread whatever the environment asked for
        script = ("import sys\n"
                  "from spingas.sweep import SweepGrid, run_sweep, save_sweep\n"
                  "res = run_sweep(SweepGrid.from_rates([2.0], [3.0]), workers=1)\n"
                  "assert res.provenance['blas_threads'] == 1\n"
                  "save_sweep(res, sys.argv[1], sys.argv[2])\n")
        paths = [str(tmp_path / "cells.csv"), str(tmp_path / "manifest.json")]
        one, two = self._bytes_under_blas_threads(["-c", script, *paths], paths)
        assert one == two

    def test_blas_thread_count_does_not_reach_the_cli_bytes(self, tmp_path):
        # every command pins it, not only the sweep
        out = str(tmp_path / "run")
        args = ["-m", "spingas.cli", "simulate", "--i", "1.2", "--j", "3.7",
                "--trajectory", "--out", out]
        one, two = self._bytes_under_blas_threads(
            args, [out + "_summary.json", out + "_trajectory.csv"])
        assert one == two

    def test_roundtrip(self, tiny_sweep, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        back = load_sweep(csv_path, man_path)
        assert back.grid.i_over_gamma == tiny_sweep.grid.i_over_gamma
        for a, b in zip(tiny_sweep.cells, back.cells):
            assert b.m_signed == pytest.approx(a.m_signed, abs=1e-15)
            assert b.tau_s == pytest.approx(a.tau_s, abs=1e-15)
            assert b.converged == a.converged

    def test_corrupted_csv(self, tiny_sweep, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        with open(csv_path, "w") as fh:
            fh.write("garbage,columns\n1,2\n")
        with pytest.raises(SchemaError):
            load_sweep(csv_path, man_path)

    def test_schema_version_checked(self, tiny_sweep, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        manifest = json.load(open(man_path))
        manifest["provenance"]["schema_version"] = 99
        json.dump(manifest, open(man_path, "w"))
        with pytest.raises(SchemaError):
            load_sweep(csv_path, man_path)

    def test_old_schema_migrates_with_note(self, tiny_sweep, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        manifest = json.load(open(man_path))
        manifest["provenance"]["schema_version"] = 0
        json.dump(manifest, open(man_path, "w"))
        back = load_sweep(csv_path, man_path)
        assert back.provenance["schema_version"] == 1
        assert any("migrated" in note for note in back.provenance["migrations"])

    def test_schema_0_without_floor_column_gets_the_floor_rule(self, tmp_path):
        grid = SweepGrid.from_rates([1.0, 2.0, 3.0], [2.0])
        cells = [CellResult(i_over_gamma=i, j_over_gamma=2.0, n=math.nan, phi=math.nan,
                            i_effective=i, m_signed=m, m_abs=m, tau_s=tau,
                            tau_floored=False, converged=conv, eps=1e-4)
                 for i, m, tau, conv in ((1.0, 5e-4, 1.0 / GAMMA, True),
                                         (2.0, 0.5, 0.2, True),
                                         (3.0, 5e-4, math.nan, False))]
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(SweepResult(grid=grid, cells=cells, provenance={"schema_version": 0}),
                   csv_path, man_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(csv_path, "w", newline="") as fh:
            w = csv.DictWriter(fh, [c for c in rows[0] if c != "tau_floored"],
                               extrasaction="ignore")
            w.writeheader()
            w.writerows(rows)
        back = load_sweep(csv_path, man_path)
        assert [c.tau_floored for c in back.cells] == [True, False, False]
        assert any("floor rule" in note for note in back.provenance["migrations"])


class TestContours:
    def test_fixed_j(self, tiny_sweep):
        xs, ys = extract_contour(tiny_sweep, "fixed-J", 0.8)
        assert list(xs) == [0.2, 0.4]
        assert all(y < 1e-6 for y in ys)

    def test_fixed_i(self, tiny_sweep):
        xs, ys = extract_contour(tiny_sweep, "fixed-I", 0.4, quantity="tau")
        assert list(xs) == [0.8, 1.2]
        assert np.allclose(ys, 1.0 / GAMMA)

    def test_out_of_range(self, tiny_sweep):
        with pytest.raises(ValueError):
            extract_contour(tiny_sweep, "fixed-J", 9.0)

    def test_unknown_quantity_is_rejected(self, tiny_sweep):
        for call in (lambda: extract_contour(tiny_sweep, "fixed-J", 0.8, quantity="m_signed"),
                     lambda: gnuplot_matrix(tiny_sweep, "M_abs"),
                     lambda: refine_contour("fixed-J", 3.8, [0.4], workers=1,
                                            quantity="tau_s")):
            with pytest.raises(ValueError, match="quantity"):
                call()

    def test_refine_contour(self):
        xs, ys = refine_contour("fixed-J", 3.8, [0.4, 2.0], workers=1)
        assert abs(ys[0]) < 1e-6
        assert abs(ys[1]) > 0.2

    def test_refine_contour_unconverged_is_nan(self):
        # (1.0, 3.8) needs about 1.9 s to settle, (0.4, 3.8) about 0.6 s
        for quantity in ("m_abs", "m_signed", "tau"):
            xs, ys = refine_contour("fixed-J", 3.8, [0.4, 1.0], workers=1,
                                    quantity=quantity, max_time=1.0)
            assert np.isfinite(ys[0])
            assert math.isnan(ys[1])


class TestOutputs:
    def test_gnuplot_matrix(self, tiny_sweep):
        text = gnuplot_matrix(tiny_sweep)
        lines = text.strip().splitlines()
        assert lines[0].split()[0] == "2"
        assert len(lines) == 3

    def test_density_scan_axes(self):
        cmap = ConditionsMap(attenuation_mode="off")
        scan = density_scan(0.3, [5e10, 1e11], cmap=cmap, workers=1)
        assert len(scan.cells) == 2
        assert scan.cells[0].j_over_gamma < scan.cells[1].j_over_gamma
