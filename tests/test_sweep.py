import contextlib
import csv
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spingas
from spingas import sweep
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
    refine_contour,
    run_sweep,
    save_sweep,
)

GAMMA = 58.0
OUT = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "out")
DATA = os.path.join(os.path.dirname(__file__), "data")
CONDITION_KEYS = ("attenuation_mode", "sigma_e", "sigma_ex_v", "cell_length", "j_convention")


class TestConditionsMap:
    def test_zero_density(self):
        cmap = ConditionsMap()
        assert cmap.j_from_density(0.0) == 0.0
        assert cmap.attenuation(0.0) == 1.0

    def test_j_linear_in_density(self):
        cmap = ConditionsMap()
        j1 = cmap.j_from_density(1e12)
        j2 = cmap.j_from_density(2e12)
        assert j2 == pytest.approx(2 * j1)
        assert j1 == pytest.approx(1e12 * cmap.sigma_ex_v)

    def test_no_attenuation_when_off(self):
        cmap = ConditionsMap(attenuation_mode="off")
        assert cmap.attenuation(1e12) == cmap.attenuation(1e14) == 1.0

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
        js = [cmap.j_from_density(n) for n in ns]
        att = [cmap.attenuation(n) for n in ns]
        assert all(b > a for a, b in zip(js, js[1:]))
        assert all(b <= a for a, b in zip(att, att[1:]))

    @pytest.mark.parametrize("convention", ["collision-rate", "measured"])
    def test_density_and_j_are_inverse(self, convention):
        cmap = ConditionsMap(j_convention=convention)
        assert cmap.density_from_j(cmap.j_from_density(3e12)) == pytest.approx(3e12)

    def test_measured_convention(self):
        cmap = ConditionsMap(j_convention="measured")
        j = cmap.j_from_density(1e12)
        assert j == pytest.approx(1e12 * cmap.sigma_ex_v / cmap.q_slowdown)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            ConditionsMap().j_from_density(-1.0)

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


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(*_):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_overflowing_cell_does_not_abort_the_sweep(self):
        # the pump intensity of I = 1e300 Gamma overflows to a NaN generator
        cells = run_sweep(SweepGrid.from_rates([1.0, 1e300], [3.0]), workers=1).cells
        assert cells[0].converged and not cells[0].error
        assert not cells[1].converged
        assert cells[1].error == "the generator is not finite"
        assert math.isnan(cells[1].m_signed)

    def test_refine_contour_worker_independence(self):
        points = [0.4, 0.6, 2.0]
        serial = refine_contour("fixed-J", 3.8, points, workers=1)
        pooled = refine_contour("fixed-J", 3.8, points, workers=2)
        assert serial[1].tobytes() == pooled[1].tobytes()
        assert abs(serial[1][2]) > 0.2

    def test_workers_inherit_scipy_integrate(self):
        # the integrator imports scipy.integrate on first use; the sweep
        # imports it before it forks, so that no worker pays for the import
        src = os.path.dirname(os.path.dirname(spingas.__file__))
        script = ("import os, sys\n"
                  "from spingas import sweep\n"
                  "task = sweep._sweep_task\n"
                  "def logged(args):\n"
                  "    os.write(1, f'{os.getpid()} {\"scipy.integrate\" in sys.modules}\\n'.encode())\n"
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
        assert main_pid not in {pid for pid, _ in calls}  # the forked workers ran them
        assert all(seen == "True" for _, seen in calls)

    def test_saved_sweep_is_independent_of_the_worker_count(self, tmp_path):
        # ordered and disordered cells; 7 workers are more than the 6 cells
        grid = SweepGrid.from_rates([0.4, 1.5, 3.0], [3.0, 3.8])
        saved = []
        for workers in (1, 2, 3, 7):
            result = run_sweep(grid, workers=workers)
            assert [c.tau_floored for c in result.cells] == [True, False, False] * 2
            paths = [tmp_path / f"w{workers}_cells.csv", tmp_path / f"w{workers}_manifest.json"]
            save_sweep(result, *map(str, paths))
            saved.append([path.read_bytes() for path in paths])
        assert all(files == saved[0] for files in saved[1:])

    def test_every_cell_runs_once_with_more_workers_than_cores(self, monkeypatch, tmp_path):
        # a lost update of the shared counter would run a cell twice or never
        log = str(tmp_path / "claims")

        def claim(args):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{args[0]!r} {args[1]!r}\n".encode())
            os.close(fd)
            return args[0], args[1]
        monkeypatch.setattr(sweep, "_sweep_task", claim)
        grid = SweepGrid.from_rates(range(1, 21), range(1, 11))
        with deadline(60):
            cells = run_sweep(grid, workers=sweep.default_workers() + 2).cells
        expected = [(i, j) for j in grid.j_over_gamma for i in grid.i_over_gamma]
        assert cells == expected
        with open(log) as fh:
            assert sorted(fh.read().splitlines()) == sorted(f"{i!r} {j!r}" for i, j in expected)
        assert multiprocessing.active_children() == []

    @staticmethod
    def _fail_at_i_04(monkeypatch, fail):
        """Make every cell at I/Gamma = 0.4 call ``fail`` before its run."""
        task = sweep._sweep_task

        def failing(args):
            if args[0] == 0.4:
                fail()
            return task(args)
        monkeypatch.setattr(sweep, "_sweep_task", failing)

    def test_an_exception_in_a_worker_is_raised_in_the_caller(self, monkeypatch):
        def fail():
            raise ZeroDivisionError("a failing cell")
        self._fail_at_i_04(monkeypatch, fail)
        with deadline(60), pytest.raises(ZeroDivisionError, match="a failing cell") as info:
            run_sweep(SweepGrid.from_rates([0.2, 0.4], [0.8, 1.2]), workers=2)
        assert "ZeroDivisionError: a failing cell" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_exits_without_sending_raises(self, monkeypatch):
        self._fail_at_i_04(monkeypatch, lambda: os._exit(3))
        with deadline(60), pytest.raises(RuntimeError, match="exited with code 3"):
            run_sweep(SweepGrid.from_rates([0.2, 0.4], [0.8, 1.2]), workers=2)
        assert multiprocessing.active_children() == []

    def test_default_workers_counts_the_cores_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sweep.default_workers() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        assert sweep.default_workers() == 8

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
        # OpenBLAS reads its thread count at numpy's import; the package
        # pins one thread at its own import, whatever the environment asked for
        script = ("import sys\n"
                  "from spingas.sweep import SweepGrid, run_sweep, save_sweep\n"
                  "res = run_sweep(SweepGrid.from_rates([2.0], [3.0]), workers=1)\n"
                  "assert res.provenance['blas_threads'] == 1\n"
                  "save_sweep(res, sys.argv[1], sys.argv[2])\n")
        paths = [str(tmp_path / "cells.csv"), str(tmp_path / "manifest.json")]
        one, two = self._bytes_under_blas_threads(["-c", script, *paths], paths)
        assert one == two

    def test_blas_thread_count_does_not_reach_a_library_call(self, tmp_path):
        # the package pins one thread when it is imported, so a plain
        # steady state (demo 06's 'hyperfine' point) needs no sweep or command
        script = ("import sys\n"
                  "from spingas import SimParams, critical_pump_rate, steady_state\n"
                  "p = SimParams.from_rates(critical_pump_rate(2.6) * 1.15, 2.6,\n"
                  "                         projection_mode='hyperfine', b_z=1e-4)\n"
                  "res = steady_state(p)\n"
                  "open(sys.argv[1], 'w').write(repr((res.m_ss, res.tau, res.steps)))\n")
        path = str(tmp_path / "steady.txt")
        one, two = self._bytes_under_blas_threads(["-c", script, path], [path])
        assert one == two

    def test_blas_thread_count_does_not_reach_the_cli_bytes(self, tmp_path):
        # nor the artifacts of the other commands
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

    def test_roundtrip_of_failed_cells_is_exact(self, tmp_path):
        # (1.0, 3.8) needs about 1.9 s to settle; I = 1e300 Gamma overflows
        result = run_sweep(SweepGrid.from_rates([0.4, 1.0, 1e300], [3.8]), workers=1,
                           max_time=1.0)
        assert [c.error for c in result.cells] == [
            "", "no steady state within 1.0 s", "the generator is not finite"]
        paths = [str(tmp_path / name) for name in ("a.csv", "a.json", "b.csv", "b.json")]
        save_sweep(result, *paths[:2])
        back = load_sweep(*paths[:2])
        save_sweep(back, *paths[2:])
        for a, b in zip(result.cells, back.cells):
            np.testing.assert_equal(astuple(b), astuple(a))
        assert math.isnan(back.cells[1].tau_s) and math.isnan(back.cells[2].m_signed)
        for first, second in (paths[0::2], paths[1::2]):
            assert open(first, "rb").read() == open(second, "rb").read()

    def test_error_text_lines_that_start_with_a_hash_survive_the_roundtrip(self, tmp_path):
        # only the comment lines above the header are skipped on load
        grid = SweepGrid.from_rates([1.0], [2.0])
        cell = CellResult(i_over_gamma=1.0, j_over_gamma=2.0, n=math.nan,
                          i_effective=1.0, m_signed=math.nan, tau_s=math.nan,
                          tau_floored=False, converged=False, eps=1e-4, error="a\n#b")
        paths = [str(tmp_path / "cells.csv"), str(tmp_path / "manifest.json")]
        save_sweep(SweepResult(grid=grid, cells=[cell], provenance={"schema_version": 2}),
                   *paths, header_comment="a header comment")
        assert load_sweep(*paths).cells[0].error == "a\n#b"

    def test_committed_phase_diagram_resaves_byte_for_byte(self, tmp_path):
        committed = [os.path.join(OUT, "phase_diagram_cells.csv"),
                     os.path.join(OUT, "phase_diagram_manifest.json")]
        again = [str(tmp_path / "cells.csv"), str(tmp_path / "manifest.json")]
        save_sweep(load_sweep(*committed), *again)
        for path, copy in zip(committed, again):
            assert open(path, "rb").read() == open(copy, "rb").read()

    def test_schema_1_pair_migrates_to_schema_2(self, tmp_path):
        # demo 03's phase diagram as schema 1 saved it, with the always-NaN
        # phi column and the grid's powers
        old = [str(tmp_path / "cells.csv"), str(tmp_path / "manifest.json")]
        for name, path in zip(("schema1_cells.csv", "schema1_manifest.json"), old):
            shutil.copy(os.path.join(DATA, name), path)
        back = load_sweep(*old)
        assert back.provenance["schema_version"] == 2
        assert back.provenance["migrations"] == [
            "migrated schema 1 -> 2: dropped the phi column and the grid's powers"]
        again = [str(tmp_path / "again.csv"), str(tmp_path / "again.json")]
        save_sweep(back, *again)
        # the same cells and manifest as the current code writes for that sweep
        assert open(again[0], "rb").read() == \
            open(os.path.join(OUT, "phase_diagram_cells.csv"), "rb").read()
        manifest = json.load(open(again[1]))
        assert manifest["provenance"].pop("migrations") == back.provenance["migrations"]
        current = json.load(open(os.path.join(OUT, "phase_diagram_manifest.json")))
        assert current["provenance"].pop("migrations") == []
        assert manifest == current and "powers" not in manifest["grid"]

    def test_manifest_records_the_conditions_only_where_applied(self, tiny_sweep):
        # no grid line has a density, so no cell was attenuated
        assert all(math.isnan(n) for n in tiny_sweep.grid.densities)
        assert all(c.i_effective == c.i_over_gamma for c in tiny_sweep.cells)
        assert [tiny_sweep.provenance[k] for k in CONDITION_KEYS] == [None] * 5
        cmap = ConditionsMap(attenuation_mode="point", j_convention="measured")
        attenuated = run_sweep(SweepGrid.from_rates([0.2], [0.8], cmap=cmap),
                               cmap=cmap, workers=1)
        assert attenuated.cells[0].i_effective < 0.2
        assert [attenuated.provenance[k] for k in CONDITION_KEYS] == \
            [getattr(cmap, k) for k in CONDITION_KEYS]

    def test_m_abs_that_is_not_the_abs_of_m_signed_is_rejected(self, tiny_sweep, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("M_abs")
        rows[2][col] = repr(float(rows[2][col]) + 0.25)
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(SchemaError, match="row 2: M_abs"):
            load_sweep(csv_path, man_path)

    @pytest.mark.parametrize("change, what", [(lambda row: row + ["extra", "7"], "more"),
                                              (lambda row: row[:-1], "fewer")],
                             ids=["more", "fewer"])
    def test_row_of_other_length_than_the_header_is_rejected(self, tiny_sweep, tmp_path,
                                                             change, what):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3] = change(rows[3])
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(SchemaError, match=f"row 3: {what} fields than the header"):
            load_sweep(csv_path, man_path)

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

    def test_grid_block_lacking_an_axis_is_a_schema_error(self, tiny_sweep, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        manifest = json.load(open(man_path))
        del manifest["grid"]["densities"]
        json.dump(manifest, open(man_path, "w"))
        with pytest.raises(SchemaError, match="densities"):
            load_sweep(csv_path, man_path)

    def test_old_schema_migrates_with_note(self, tiny_sweep, tmp_path):
        csv_path = str(tmp_path / "cells.csv")
        man_path = str(tmp_path / "manifest.json")
        save_sweep(tiny_sweep, csv_path, man_path)
        manifest = json.load(open(man_path))
        manifest["provenance"]["schema_version"] = 0
        json.dump(manifest, open(man_path, "w"))
        back = load_sweep(csv_path, man_path)
        assert back.provenance["schema_version"] == 2
        assert any("migrated" in note for note in back.provenance["migrations"])

    def test_schema_0_without_floor_column_gets_the_floor_rule(self, tmp_path):
        grid = SweepGrid.from_rates([1.0, 2.0, 3.0], [2.0])
        cells = [CellResult(i_over_gamma=i, j_over_gamma=2.0, n=math.nan,
                            i_effective=i, m_signed=m, tau_s=tau,
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


@pytest.fixture(scope="module")
def unconverged_sweep():
    # (1.0, 3.8) needs about 1.9 s to settle, (0.4, 3.8) about 0.6 s
    return run_sweep(SweepGrid.from_rates([0.4, 1.0], [3.8]), workers=1, max_time=1.0)


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

    @pytest.mark.parametrize("axis", ["fixed-H", "J"])
    def test_refine_contour_rejects_an_unknown_axis(self, axis):
        with pytest.raises(ValueError, match="axis"):
            refine_contour(axis, 3.8, [0.4], workers=1)

    @pytest.mark.parametrize("points", [[2.0, 0.4], [0.4, 0.4], []])
    def test_refine_contour_rejects_points_not_strictly_increasing(self, points):
        with pytest.raises(ValueError, match="axis"):
            refine_contour("fixed-I", 3.8, points, workers=1)

    def test_refine_contour_unconverged_is_nan(self):
        # (1.0, 3.8) needs about 1.9 s to settle, (0.4, 3.8) about 0.6 s
        for quantity in ("m_abs", "m_signed", "tau"):
            xs, ys = refine_contour("fixed-J", 3.8, [0.4, 1.0], workers=1,
                                    quantity=quantity, max_time=1.0)
            assert np.isfinite(ys[0])
            assert math.isnan(ys[1])

    @pytest.mark.parametrize("quantity", ["m_abs", "tau"])
    def test_unconverged_cell_reads_nan(self, unconverged_sweep, quantity):
        cell = unconverged_sweep.cell(1, 0)
        assert not cell.converged and cell.m_abs > 0.1
        _, ys = extract_contour(unconverged_sweep, "fixed-J", 3.8, quantity=quantity)
        assert np.isfinite(ys[0]) and math.isnan(ys[1])
        _, ys = extract_contour(unconverged_sweep, "fixed-I", 1.0, quantity=quantity)
        assert math.isnan(ys[0])
        _, refined = refine_contour("fixed-J", 3.8, [0.4, 1.0], workers=1,
                                    quantity=quantity, max_time=1.0)
        np.testing.assert_array_equal(refined, extract_contour(
            unconverged_sweep, "fixed-J", 3.8, quantity=quantity)[1])
        # the maps keep the partial magnetization
        assert unconverged_sweep.matrix("m_abs")[0, 1] == cell.m_abs

    def test_cli_contour_reads_nan_for_an_unconverged_cell(self, unconverged_sweep, tmp_path):
        from spingas.cli import main
        prefix = str(tmp_path / "sw")
        save_sweep(unconverged_sweep, prefix + "_cells.csv", prefix + "_manifest.json")
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--cells", prefix + "_cells.csv",
                     "--manifest", prefix + "_manifest.json", "--axis", "fixed-J",
                     "--value", "3.8", "--quantity", "m_abs", "--out", out]) == 0
        rows = [line for line in open(out).read().splitlines() if not line.startswith("#")]
        assert rows[0] == "I_over_Gamma,m_abs,J_over_Gamma"
        assert rows[2] == "1,nan,3.8"

    @pytest.mark.parametrize("axis, value, header, line", [
        ("fixed-J", 0.9, "I_over_Gamma,m_abs,J_over_Gamma", 0.8),
        ("fixed-J", 0.95, "I_over_Gamma,m_abs,J_over_Gamma", 0.8),
        ("fixed-J", 1.05, "I_over_Gamma,m_abs,J_over_Gamma", 1.2),
        ("fixed-I", 0.35, "J_over_Gamma,m_abs,I_over_Gamma", 0.4)])
    def test_cli_contour_records_the_line_it_read(self, tiny_sweep, tmp_path,
                                                   axis, value, header, line):
        from spingas.cli import _read_xy, main
        prefix = str(tmp_path / "sw")
        save_sweep(tiny_sweep, prefix + "_cells.csv", prefix + "_manifest.json")
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--cells", prefix + "_cells.csv",
                     "--manifest", prefix + "_manifest.json", "--axis", axis,
                     "--value", str(value), "--out", out]) == 0
        rows = [r for r in open(out).read().splitlines() if not r.startswith("#")]
        assert rows[0] == header
        assert [float(r.split(",")[2]) for r in rows[1:]] == [line, line]
        # `spingas fit --input` still reads the line's x and y
        xs, ys = _read_xy(out)
        want_x, want_y = extract_contour(tiny_sweep, axis, value)
        np.testing.assert_array_equal(xs, want_x)
        np.testing.assert_allclose(ys, want_y, rtol=1e-11)


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


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# error texts: the characters that CSV quoting, line splitting and the
# comment rule act on, among any others
ERROR_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n#'), st.characters()), max_size=12)


@st.composite
def sweep_results(draw):
    axis = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=3, unique=True).map(sorted)
    i_ax, j_ax = draw(axis), draw(axis)
    grid = SweepGrid(i_over_gamma=tuple(i_ax), j_over_gamma=tuple(j_ax),
                     densities=tuple(draw(st.lists(ANY_FLOAT, min_size=len(j_ax),
                                                   max_size=len(j_ax)))))
    cell = st.builds(CellResult, i_over_gamma=ANY_FLOAT, j_over_gamma=ANY_FLOAT,
                     n=ANY_FLOAT, i_effective=ANY_FLOAT, m_signed=ANY_FLOAT,
                     tau_s=ANY_FLOAT, tau_floored=st.booleans(),
                     converged=st.booleans(), eps=ANY_FLOAT, error=ERROR_TEXT)
    n = len(i_ax) * len(j_ax)
    cells = draw(st.lists(cell, min_size=n, max_size=n))
    return SweepResult(grid=grid, cells=cells,
                       provenance={"schema_version": 2, "migrations": []})


def _cells(error, m_signed=0.5):
    return SweepResult(
        grid=SweepGrid.from_rates([1.0], [2.0]),
        cells=[CellResult(i_over_gamma=1.0, j_over_gamma=2.0, n=math.nan, i_effective=1.0,
                          m_signed=m_signed, tau_s=math.inf, tau_floored=True,
                          converged=False, eps=-math.inf, error=error)],
        provenance={"schema_version": 2, "migrations": []})


class TestRoundtripProperty:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(result=sweep_results(),
           header=st.none() | st.text(st.characters(exclude_characters="\r\n"),
                                      max_size=8))
    @example(result=_cells("a\n#b"), header="a header")
    @example(result=_cells('x, "y"\r\n# z\r'), header=None)
    @example(result=_cells("\r", m_signed=-0.0), header="")
    @example(result=_cells("#\n#", m_signed=math.nan), header="#")
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, result, header):
        tmp = tmp_path_factory.mktemp("roundtrip")
        first = [str(tmp / "a.csv"), str(tmp / "a.json")]
        again = [str(tmp / "b.csv"), str(tmp / "b.json")]
        save_sweep(result, *first, header_comment=header)
        back = load_sweep(*first)
        save_sweep(back, *again, header_comment=header)
        for a, b in zip(first, again):
            assert open(a, "rb").read() == open(b, "rb").read()
        for a, b in zip(result.cells, back.cells):
            np.testing.assert_equal(astuple(b), astuple(a))
