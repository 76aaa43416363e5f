import json
import math
import os
import time

import numpy as np
import pytest

from spingas import dynamics as dyn
from spingas.cli import main
from spingas.config import ConfigError, parse_config


@pytest.fixture()
def lsoda_rtols(monkeypatch):
    """The rtol of every LSODA run, in order."""
    seen = []
    build = dyn._lsoda

    def spy(model, s0, t_end, controls):
        seen.append(controls.rtol)
        return build(model, s0, t_end, controls)
    monkeypatch.setattr(dyn, "_lsoda", spy)
    return seen


class TestConfig:
    def test_defaults_match_reference_values(self):
        cfg = parse_config()
        assert cfg.gamma() == 58.0
        coll = cfg.collisions()
        assert coll.q_slowdown == 4.57
        assert coll.gamma_c == pytest.approx(2 * math.pi * 1.86e9)
        assert coll.gamma_q == pytest.approx(2 * math.pi * 265e6)
        assert coll.gamma_p == pytest.approx(2 * math.pi * 219e6)
        assert cfg["fields", "pump_detuning"] == pytest.approx(2 * math.pi * 7e8)
        assert cfg["fields", "bias_detuning"] == pytest.approx(2 * math.pi * 1.2e9)
        assert cfg["fields", "b_z"] == 1.0
        atom = cfg.atom()
        assert float(atom.nuclear_spin) == 3.5
        assert atom.a_ground == pytest.approx(2 * math.pi * 2.3e9)
        assert all(v == "default" for v in cfg.provenance.values())

    def test_file_and_provenance(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[relaxation]\ngamma = 70 /s\n")
        cfg = parse_config(str(path))
        assert cfg.gamma() == 70.0
        assert cfg.provenance[("relaxation", "gamma")] == "user"
        assert cfg.provenance[("collisions", "q_slowdown")] == "default"

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[relaxation]\nbogus = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert "line 2" in str(err.value)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[nonsense]\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_missing_unit_tag(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[relaxation]\ngamma = 58\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert "relaxation.gamma" in str(err.value)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"relaxation.gamma": "-5 /s"})
        assert "relaxation.gamma" in str(err.value)

    @pytest.mark.parametrize("value", ["0", "-7e-10"])
    def test_nonpositive_exchange_coefficient_rejected(self, value):
        # only the conditions map reads it, so it is checked where it is parsed
        with pytest.raises(ConfigError, match="> 0") as err:
            parse_config(overrides={"collisions.sigma_ex_v": value})
        assert "collisions.sigma_ex_v" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "numerics.rtol", "numerics.atol", "numerics.seed_polarization",
        "collisions.sigma_ex_v", "conditions.sigma_e", "conditions.cell_length",
        "conditions.s_axis"])
    def test_non_finite_value_rejected_with_key_and_line(self, tmp_path, key, value):
        section, _, name = key.partition(".")
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{name} = {value}\n")
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config(str(path))
        assert f"[{key}] (line 2)" in str(err.value)

    @pytest.mark.parametrize("axis", ["nan:6:3", "0.5:inf:3", "0.5,nan"])
    def test_non_finite_axis_rejected(self, axis):
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config(overrides={"sweep.i_over_gamma": axis})
        assert "[sweep.i_over_gamma]" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("conditions.j_convention", "foo"), ("sweep.workers", "-3"),
        ("sweep.workers", "0"), ("sweep.workers", "two"), ("sweep.workers", "1.5"),
        ("numerics.light_shift", "on"), ("numerics.light_shift", "ture"),
        ("numerics.light_shift", "2")])
    def test_unknown_choice_rejected_with_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={key: value})
        assert f"[{key}]" in str(err.value)

    @pytest.mark.parametrize("value, on", [("true", True), ("YES", True), ("1", True),
                                           ("False", False), ("no", False), ("0", False)])
    def test_light_shift_switch(self, value, on):
        cfg = parse_config(overrides={"numerics.light_shift": value})
        assert cfg["numerics", "light_shift"] is on

    def test_temperature_law(self):
        cfg = parse_config(overrides={"relaxation.temperature_c": "87"})
        assert cfg.gamma() == pytest.approx(58.0 + 0.35 * 12)

    def test_hash_ignores_workers(self):
        a = parse_config()
        b = parse_config(overrides={"sweep.workers": "3"})
        c = parse_config(overrides={"relaxation.gamma": "70 /s"})
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()


class TestCli:
    def test_table2_csv(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        assert main(["table2", "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# spingas")
        row = lines[2].split(",")
        assert float(row[1]) == pytest.approx(0.5, abs=1e-12)
        captured = capsys.readouterr()
        assert "0.9655172414" in captured.out

    def test_simulate_and_reproducibility(self, tmp_path, capsys):
        prefix = str(tmp_path / "runA")
        rc = main(["simulate", "--i", "0.4", "--j", "1.0", "--t-end", "0.02",
                   "--out", prefix])
        assert rc == 0
        first = open(prefix + "_summary.json").read()
        first_traj = open(prefix + "_trajectory.csv").read()
        rc = main(["simulate", "--i", "0.4", "--j", "1.0", "--t-end", "0.02",
                   "--out", prefix])
        assert rc == 0
        assert open(prefix + "_summary.json").read() == first
        assert open(prefix + "_trajectory.csv").read() == first_traj
        payload = json.loads(first)
        assert payload["tool_version"]
        assert payload["config_hash"]
        assert payload["mode"] == "fixed-horizon" and "steady" not in payload

    def test_sweep_contour_pipeline(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[sweep]\ni_over_gamma = 0.2,0.4\nj_over_gamma = 0.8,1.2\n")
        prefix = str(tmp_path / "sw")
        rc = main(["--config", str(cfgfile), "sweep", "--out", prefix, "--gnuplot"])
        assert rc == 0
        assert os.path.exists(prefix + "_cells.csv")
        assert os.path.exists(prefix + "_m_abs.gp")
        out_csv = str(tmp_path / "contour.csv")
        rc = main(["contour", "--cells", prefix + "_cells.csv",
                   "--manifest", prefix + "_manifest.json",
                   "--axis", "fixed-J", "--value", "0.8", "--out", out_csv])
        assert rc == 0
        body = open(out_csv).read().splitlines()
        assert body[1] == "I_over_Gamma,m_abs"

    def test_fit_roundtrip(self, tmp_path):
        from spingas.critfit import synthetic_series
        x = np.linspace(1.0, 3.2, 40)
        y = synthetic_series("beta", 0.6, 1.6, 0.5, x)
        series = tmp_path / "series.csv"
        series.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)))
        prefix = str(tmp_path / "fit")
        rc = main(["fit", "--input", str(series), "--form", "beta", "--out", prefix])
        assert rc == 0
        payload = json.load(open(prefix + "_fit.json"))
        assert payload["exponent"] == pytest.approx(0.5, rel=1e-5)
        assert os.path.exists(prefix + "_residuals.csv")
        assert os.path.exists(prefix + "_loglog.csv")

    @staticmethod
    def _series(tmp_path, x, y):
        series = tmp_path / "series.csv"
        series.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)))
        return str(series)

    @pytest.mark.parametrize("form, x0, n_excluded, weights", [
        ("beta", 1.6, 0, "uniform"), ("gamma", 3.4, 2, "gamma-cubed"),
        ("znu", 0.8, 2, "gamma-cubed")])
    def test_fit_defaults_follow_the_form(self, tmp_path, form, x0, n_excluded, weights):
        from spingas.critfit import synthetic_series
        x = np.linspace(1.0, 3.2, 40)
        series = self._series(tmp_path, x, synthetic_series(form, 0.6, x0, 0.5, x))
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", series, "--form", form, "--out", prefix]) == 0
        payload = json.load(open(prefix + "_fit.json"))
        assert (payload["n_excluded"], payload["weights"]) == (n_excluded, weights)

    @pytest.mark.parametrize("form, weights", [
        ("gamma", "uniform"), ("znu", "uniform"), ("delta", "gamma-cubed")])
    def test_fit_rejects_weights_the_form_ignores(self, tmp_path, form, weights):
        series = self._series(tmp_path, np.linspace(1.0, 3.2, 40), np.linspace(1.0, 2.0, 40))
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", series, "--form", form,
                     "--weights", weights, "--out", prefix]) == 2
        assert not os.path.exists(prefix + "_fit.json")

    def test_fit_rejects_an_exclusion_the_form_ignores(self, tmp_path):
        series = self._series(tmp_path, np.linspace(1.0, 3.2, 40), np.linspace(1.0, 2.0, 40))
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", series, "--form", "delta",
                     "--exclude", "5", "--out", prefix]) == 2
        assert not os.path.exists(prefix + "_fit.json")

    def test_fit_rejects_nonpositive_abscissae(self, tmp_path):
        series = self._series(tmp_path, np.linspace(0.0, 3.2, 40), np.linspace(1.0, 2.0, 40))
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", series, "--form", "beta", "--out", prefix]) == 2
        assert not os.path.exists(prefix + "_fit.json")

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "nope.csv"),
                   "--form", "beta", "--out", str(tmp_path / "f")])
        assert rc == 5
        assert not os.path.exists(str(tmp_path / "f_fit.json"))
        # an output that cannot be written is an I/O error for every command
        from spingas.critfit import synthetic_series
        x = np.linspace(1.0, 3.2, 40)
        series = self._series(tmp_path, x, synthetic_series("beta", 0.6, 1.6, 0.5, x))
        sweep = ["--set", "sweep.i_over_gamma=0.2", "--set", "sweep.j_over_gamma=0.8",
                 "sweep"]
        prefix = str(tmp_path / "sw")
        assert main(sweep + ["--out", prefix]) == 0
        bad = str(tmp_path / "missing" / "out")
        for argv in (["table2", "--csv", bad],
                     ["simulate", "--i", "0.3", "--j", "1.0", "--out", bad],
                     sweep + ["--out", bad],
                     ["contour", "--cells", prefix + "_cells.csv",
                      "--manifest", prefix + "_manifest.json",
                      "--axis", "fixed-J", "--value", "0.8", "--out", bad],
                     ["susceptibility", "--j", "2.3", "--i-values", "0.0", "--out", bad],
                     ["fit", "--input", series, "--form", "beta", "--out", bad]):
            capsys.readouterr()
            assert main(argv) == 5, argv
            assert "input error" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "missing"))

    def test_overflowing_rate_is_a_numerical_failure(self, tmp_path, capsys):
        # I = 1e300 Gamma overflows the pump intensity to a NaN generator
        rc = main(["simulate", "--i", "1e300", "--j", "3", "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "the generator is not finite" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r_summary.json"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[relaxation]\ngamma = -2 /s\n")
        rc = main(["--config", str(bad), "table2"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_bad_j_convention_is_a_config_error(self, tmp_path, capsys, command):
        out = str(tmp_path / "r")
        rc = main(["--set", "conditions.j_convention=foo", "--set", "sweep.i_over_gamma=0.2",
                   "--set", "sweep.j_over_gamma=0.8", command, "--out", out])
        assert rc == 2
        assert "[conditions.j_convention]" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        checks = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[")]
        assert checks and all(line.startswith("[PASS]") for line in checks)

    def test_failing_selftest_check_is_a_numerical_failure(self, monkeypatch, capsys):
        from spingas import selftest
        monkeypatch.setattr(selftest, "clebsch_gordan", lambda *args: 0.0)
        assert main(["selftest"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] Clebsch-Gordan unitarity" in out
        assert "selftest FAILED" in out

    @pytest.mark.parametrize("flag", ["--i", "--j", "--h", "--seed"])
    def test_simulate_rejects_non_finite_input(self, tmp_path, capsys, flag):
        # a NaN pump rate used to run a pump-free cell and report it converged
        rates = {"--i": "2", "--j": "3", flag: "nan"}
        argv = [a for item in rates.items() for a in item]
        rc = main(["simulate", *argv, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r_summary.json"))

    def test_set_overrides(self, tmp_path, capsys):
        rc = main(["--set", "numerics.seed_polarization=2e-4", "simulate",
                   "--i", "0.0", "--j", "0.5", "--t-end", "0.01",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        payload = json.loads(open(str(tmp_path / "r_summary.json")).read())
        assert payload["params"]["seed_polarization"] == 2e-4

    def test_numerics_tolerances_reach_simulate_and_sweep(self, tmp_path, capsys):
        # m_ss is the exact fixed point at any tolerance; tau follows the run
        def m_ss_tau(*overrides):
            sets = [a for o in overrides for a in ("--set", o)]
            rc = main(sets + ["simulate", "--i", "2", "--j", "3",
                              "--out", str(tmp_path / "r")])
            assert rc == 0
            summary = json.loads((tmp_path / "r_summary.json").read_text())
            return summary["m_ss"], summary["tau_s"]

        tight = m_ss_tau()
        loose = m_ss_tau("numerics.rtol=1e-4")
        assert loose[1] != tight[1]
        assert loose == pytest.approx(tight, rel=1e-3)

        from spingas.sweep import ConditionsMap, SweepGrid, run_sweep, save_sweep
        axes = ["--set", "sweep.i_over_gamma=0.4,2.0", "--set", "sweep.j_over_gamma=3.0",
                "--set", "sweep.workers=1"]

        def rows(path):
            return [r for r in open(path).read().splitlines() if not r.startswith("#")]

        prefix = str(tmp_path / "sw")
        assert main(axes + ["sweep", "--out", prefix]) == 0
        cmap = ConditionsMap()
        direct = run_sweep(SweepGrid.from_rates((0.4, 2.0), (3.0,), cmap=cmap),
                           cmap=cmap, workers=1)
        save_sweep(direct, str(tmp_path / "direct.csv"))
        assert rows(prefix + "_cells.csv") == rows(str(tmp_path / "direct.csv"))
        assert main(axes + ["--set", "numerics.rtol=1e-4", "sweep",
                            "--out", prefix]) == 0
        assert rows(prefix + "_cells.csv") != rows(str(tmp_path / "direct.csv"))

    def test_sweep_receives_physical_settings(self, tmp_path, capsys):
        axes = ["--set", "sweep.i_over_gamma=2.0", "--set", "sweep.j_over_gamma=2.0,3.0",
                "--set", "sweep.workers=1"]

        def rows(*overrides):
            sets = [a for o in overrides for a in ("--set", o)]
            prefix = str(tmp_path / "sw")
            assert main(axes + sets + ["sweep", "--out", prefix]) == 0
            return [r for r in open(prefix + "_cells.csv").read().splitlines()
                    if not r.startswith("#")]

        assert rows("collisions.gamma_c=1 GHz") != rows()

    def test_susceptibility_receives_tolerances(self, tmp_path, capsys, lsoda_rtols):
        # observed on the steady states' integrations themselves: each ends
        # on its exact fixed point, so the written row no longer depends on
        # the tolerance
        def rtols(*overrides):
            sets = [a for o in overrides for a in ("--set", o)]
            out = str(tmp_path / "chi.csv")
            lsoda_rtols.clear()
            assert main(sets + ["susceptibility", "--j", "2.3", "--i-values", "1.2",
                                "--out", out]) == 0
            return list(lsoda_rtols)

        assert rtols("numerics.rtol=1e-4") == [1e-4] * 4
        assert rtols() == [dyn.STEADY_RTOL] * 4

    def test_unset_tolerances_leave_each_entry_point_its_default(self, tmp_path, capsys,
                                                                 lsoda_rtols):
        # a fixed horizon runs at the trajectory default, a steady state
        # (simulate and sweep alike) at its own; a set rtol reaches all
        assert parse_config().controls() is None
        out = str(tmp_path / "r")
        commands = {
            "trajectory": ["simulate", "--i", "2", "--j", "3", "--t-end", "0.05",
                           "--out", out],
            "simulate": ["simulate", "--i", "2", "--j", "3", "--out", out],
            "sweep": ["--set", "sweep.i_over_gamma=2.0", "--set", "sweep.j_over_gamma=3.0",
                      "--set", "sweep.workers=1", "sweep", "--out", out]}

        def rtols(*overrides):
            sets = [a for o in overrides for a in ("--set", o)]
            seen = {}
            for name, argv in commands.items():
                lsoda_rtols.clear()
                assert main(sets + argv) == 0
                seen[name] = list(lsoda_rtols)
            return seen

        assert rtols() == {"trajectory": [1e-10], "simulate": [dyn.STEADY_RTOL],
                           "sweep": [dyn.STEADY_RTOL]}
        assert dyn.IntegrationControls().rtol == 1e-10
        assert rtols("numerics.rtol=1e-6") == {name: [1e-6] for name in commands}
        assert parse_config(overrides={"numerics.atol": "1e-13"}).controls() == \
            dyn.IntegrationControls(atol=1e-13)

    def test_simulate_far_beyond_the_bracket_is_classified(self, tmp_path, capsys):
        # the generator's entries reach 2.9e9 /s, whose rounding leaves the
        # symmetric state a residual above 1e-9 Gamma; it is still the exact
        # fixed point, so the run is not integrated (slow mode -122 /s)
        out = str(tmp_path / "r")
        start = time.perf_counter()
        assert main(["simulate", "--i", "1e12", "--j", "3", "--out", out]) == 0
        assert time.perf_counter() - start < 1.0
        summary = json.loads(open(out + "_summary.json").read())
        assert (summary["stop"], summary["steps"]) == ("symmetric", 0)

    @pytest.mark.parametrize("override", ["fields.pump_detuning=300 MHz",
                                          "fields.bias_detuning=300 MHz"],
                             ids=["pump", "bias"])
    def test_detunings_reach_simulate(self, override, tmp_path, capsys):
        def summary(*overrides):
            sets = [a for o in overrides for a in ("--set", o)]
            out = str(tmp_path / "r")
            assert main(sets + ["simulate", "--i", "2", "--j", "3", "--h", "0.05",
                                "--out", out]) == 0
            payload = json.loads(open(out + "_summary.json").read())
            return payload["m_ss"], payload["tau_s"]

        assert summary(override) != summary()

    def test_susceptibility_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "chi.csv")
        rc = main(["susceptibility", "--j", "2.3", "--i-values", "0.0,0.4",
                   "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[1].startswith("I_over_Gamma")
        first = float(lines[2].split(",")[1])
        assert first * 58.0 == pytest.approx(1.0, rel=0.02)

    def test_dump_optics(self, tmp_path):
        rc = main(["simulate", "--i", "0.5", "--j", "1.0", "--t-end", "0.01",
                   "--dump-optics", str(tmp_path / "opt"),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        w_csv = (tmp_path / "opt_w0.csv").read_text().splitlines()
        assert w_csv[1] == "row,col,re,im"
        assert len(w_csv) == 2 + 256
        assert os.path.exists(tmp_path / "opt_rho_e.csv")

    def test_mode_and_seed_flags(self, tmp_path):
        rc = main(["--set", "fields.b_z=0.1 mG",
                   "simulate", "--i", "0.5", "--j", "1.0", "--t-end", "0.005",
                   "--mode", "hyperfine", "--seed", "1e-3",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        payload = json.loads((tmp_path / "r_summary.json").read_text())
        assert payload["params"]["projection_mode"] == "hyperfine"
        assert payload["params"]["seed_polarization"] == 1e-3
        assert payload["invariants"]["trace_deviation"] < 1e-9
