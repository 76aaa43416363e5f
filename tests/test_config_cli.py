import itertools
import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingas import dynamics as dyn
from spingas.cli import main
from spingas.config import _SCHEMA, ConfigError, parse_config
from spingas.optics import doppler_width
from spingas.sweep import ConditionsMap, SweepGrid


@pytest.fixture()
def lsoda_rtols(monkeypatch):
    """The rtol of every LSODA run, in order, as the compiled driver sees it."""
    seen = []
    step = dyn._lsoda_step()

    def spy(*args):
        if args[7] == 1:  # istate 1: the first call of a run
            seen.append(args[4])
        return step(*args)
    monkeypatch.setattr(dyn, "_lsoda_step", lambda: spy)
    return seen


_SIM = dyn.SimParams()
_GRID = SweepGrid((1.0,), (1.0,))
# Each float key -> (unit tag, its owner's default instance or None, the
# owner's field it sets, the law from the value to that field or None).
# The tags scale by 1, so the owner sees the drawn float itself.
_NUMERIC_KEYS = {
    "atom.a_ground": ("/s", _SIM.atom, "a_ground", None),
    "atom.a_excited": ("/s", _SIM.atom, "a_excited", None),
    "atom.g_ground": ("/s/G", _SIM.atom, "g_ground", None),
    "atom.g_excited": ("/s/G", _SIM.atom, "g_excited", None),
    "collisions.gamma_c": ("/s", _SIM.coll, "gamma_c", None),
    "collisions.gamma_q": ("/s", _SIM.coll, "gamma_q", None),
    "collisions.gamma_p": ("/s", _SIM.coll, "gamma_p", None),
    "collisions.q_slowdown": ("", _SIM.coll, "q_slowdown", None),
    "collisions.sigma_ex_v": ("", ConditionsMap(), "sigma_ex_v", None),
    "relaxation.gamma": ("/s", _SIM, "gamma", None),
    "relaxation.temperature_c": ("", _SIM, "gamma", dyn.gamma_of_temperature),
    "fields.b_z": ("G", _SIM, "b_z", None),
    "fields.pump_detuning": ("/s", None, None, None),
    "fields.bias_detuning": ("/s", None, None, None),
    "doppler.width": ("/s", _SIM.doppler, "width", None),
    "doppler.temperature_c": ("", _SIM.doppler, "width", doppler_width),
    "numerics.rtol": ("", dyn.IntegrationControls(), "rtol", None),
    "numerics.atol": ("", dyn.IntegrationControls(), "atol", None),
    "numerics.seed_polarization": ("", _SIM, "seed_polarization", None),
    "conditions.sigma_e": ("", ConditionsMap(), "sigma_e", None),
    "conditions.cell_length": ("", ConditionsMap(), "cell_length", None),
    "sweep.i_over_gamma": ("", _GRID, "i_over_gamma", lambda x: (x,)),
    "sweep.j_over_gamma": ("", _GRID, "j_over_gamma", lambda x: (x,)),
}


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

    def test_file_value_is_read(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[relaxation]\ngamma = 70 /s\n")
        cfg = parse_config(str(path))
        assert cfg.gamma() == 70.0

    @pytest.mark.parametrize("text", ["[relaxation]\nbogus = 3\n",
                                      "[numerics]\nlight_shift = false\n"])
    def test_unknown_key_rejected_with_line(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown key") as err:
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

    @pytest.mark.parametrize("key, value, message", [
        ("collisions.q_slowdown", "0.5", "exceed 1"), ("collisions.q_slowdown", "1", "exceed 1"),
        ("collisions.gamma_c", "0 MHz", "> 0"), ("collisions.gamma_q", "-1 MHz", ">= 0"),
        ("collisions.gamma_p", "-1 MHz", ">= 0"), ("numerics.atol", "-1e-14", ">= 0"),
        ("numerics.rtol", "0", "> 0"), ("doppler.width", "-1 MHz", ">= 0"),
        ("doppler.quadrature_order", "0", ">= 1"), ("atom.nuclear_spin", "3.3", "half-integer"),
        ("atom.nuclear_spin", "-1/2", "non-negative"),
        ("relaxation.temperature_c", "-200", "gamma must be > 0"),
        ("doppler.temperature_c", "-300", "below absolute zero"),
        ("sweep.i_over_gamma", "2,1", "strictly increasing"),
        ("sweep.i_over_gamma", "-1,0.5", ">= 0")])
    def test_out_of_range_value_rejected_with_the_owners_rule(self, key, value, message):
        # the object that reads the value decides its range
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(overrides={key: value})
        assert f"[{key}]" in str(err.value)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(x=st.sampled_from([0.0, -0.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan])
           | st.floats())
    @pytest.mark.parametrize("key", sorted(_NUMERIC_KEYS))
    def test_a_value_is_accepted_exactly_when_its_owner_accepts_it(self, key, x):
        tag, owner, name, law = _NUMERIC_KEYS[key]
        try:
            value = x if law is None else law(x)
            accepted = all(map(math.isfinite, np.atleast_1d(value)))
            if accepted and owner is not None:
                replace(owner, **{name: value})
        except ValueError:
            accepted = False
        try:
            parse_config(overrides={key: f"{x!r} {tag}".strip()})
        except ConfigError as exc:
            assert not accepted and f"[{key}]" in str(exc)
        else:
            assert accepted

    def test_zero_atol_is_accepted(self):
        assert parse_config(overrides={"numerics.atol": "0"}).controls().atol == 0.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "numerics.rtol", "numerics.atol", "numerics.seed_polarization",
        "collisions.sigma_ex_v", "conditions.sigma_e", "conditions.cell_length"])
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
        ("sweep.workers", "0"), ("sweep.workers", "two"), ("sweep.workers", "1.5")])
    def test_unknown_choice_rejected_with_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={key: value})
        assert f"[{key}]" in str(err.value)

    def test_temperature_law(self):
        cfg = parse_config(overrides={"relaxation.temperature_c": "87"})
        assert cfg.gamma() == pytest.approx(58.0 + 0.35 * 12)

    def test_temperature_alone_sets_gamma(self):
        assert parse_config(overrides={"relaxation.temperature_c": "80"}).gamma() == 59.75

    def test_doppler_width_defaults_to_its_owners(self):
        from spingas.optics import doppler_width
        assert parse_config().doppler().width == doppler_width()
        assert parse_config(overrides={"doppler.temperature_c": "60"}).doppler().width == \
            doppler_width(60.0)
        assert parse_config(overrides={"doppler.width": "200 MHz"}).doppler().width == \
            pytest.approx(2 * math.pi * 2e8)

    @pytest.mark.parametrize("first, second", [
        (("relaxation.gamma", "58 /s"), ("relaxation.temperature_c", "80")),
        (("doppler.width", "200 MHz"), ("doppler.temperature_c", "87"))])
    def test_both_keys_of_one_value_are_rejected(self, tmp_path, first, second):
        # from --set and from a file alike
        with pytest.raises(ConfigError) as err:
            parse_config(overrides=dict([first, second]))
        assert first[0] in str(err.value) and second[0] in str(err.value)
        section = first[0].partition(".")[0]
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n" + "".join(
            f"{key.partition('.')[2]} = {value}\n" for key, value in (first, second)))
        with pytest.raises(ConfigError, match=f"{first[0]} and {second[0]}"):
            parse_config(str(path))

    def test_equal_hashes_give_equal_values(self):
        # every value Gamma and the Doppler width are derived from is hashed
        options = {"relaxation.gamma": [None, "58 /s", "60 /s"],
                   "relaxation.temperature_c": [None, "75", "80"],
                   "doppler.width": [None, "200 MHz"],
                   "doppler.temperature_c": [None, "87", "60"]}
        seen = {}
        for choice in itertools.product(*options.values()):
            try:
                cfg = parse_config(overrides={key: value for key, value in zip(options, choice)
                                              if value is not None})
            except ConfigError:
                continue
            values = (cfg.gamma(), cfg.doppler())
            assert seen.setdefault(cfg.hash(), values) == values
        assert len(seen) == 5 * 4  # the valid settings of Gamma times those of the width

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

    def test_out_of_range_q_slowdown_is_a_config_error(self, capsys):
        assert main(["--set", "collisions.q_slowdown=0.5", "simulate",
                     "--i", "0.4", "--j", "1.0", "--t-end", "0.02"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: q_slowdown must exceed 1")
        assert "[collisions.q_slowdown]" in err

    def test_out_of_range_temperature_is_a_config_error(self, capsys):
        # checked as Gamma when the key is parsed, before any command runs
        assert main(["--set", "relaxation.temperature_c=-200", "table2"]) == 2
        assert "[relaxation.temperature_c]" in capsys.readouterr().err

    def test_retired_light_shift_key_is_a_config_error(self, capsys):
        assert main(["--set", "numerics.light_shift=false", "table2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unknown key 'numerics.light_shift'")

    @pytest.mark.parametrize("axis", ["i_over_gamma", "j_over_gamma"])
    def test_negative_sweep_axis_is_a_config_error(self, tmp_path, capsys, axis):
        # SweepGrid's sign rule, reported with its key before any cell runs
        rc = main(["--set", f"sweep.{axis}=-1,0.5", "sweep", "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and f"[sweep.{axis}]" in err
        assert ">= 0" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("value", ["1/0", "0/0"])
    def test_zero_denominator_is_a_config_error(self, value, capsys):
        assert main(["--set", f"atom.nuclear_spin={value}", "table2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad value")
        assert "zero denominator" in err and "[atom.nuclear_spin]" in err

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
        assert body[1] == "I_over_Gamma,m_abs,J_over_Gamma"

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

    def test_fit_rejects_an_exclusion_the_form_ignores(self, tmp_path):
        series = self._series(tmp_path, np.linspace(1.0, 3.2, 40), np.linspace(1.0, 2.0, 40))
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", series, "--form", "delta",
                     "--exclude", "5", "--out", prefix]) == 2
        assert not os.path.exists(prefix + "_fit.json")

    @pytest.mark.parametrize("form", ["beta", "gamma", "znu", "delta"])
    def test_fit_artifacts_are_the_library_fit(self, tmp_path, form):
        from spingas.critfit import fit, synthetic_series
        rng = np.random.default_rng(7)
        if form == "delta":
            x = np.geomspace(2e-4, 2e-2, 10)
            y = x ** (1 / 3.0) * (1 + 0.01 * rng.standard_normal(10))
        else:
            x = np.linspace(1.0, 3.2, 30)
            x0 = {"beta": 1.6, "gamma": 3.4, "znu": 0.8}[form]
            y = synthetic_series(form, 0.6, x0, 0.5, x, noise=0.01, rng=rng)
        series = self._series(tmp_path, [repr(float(v)) for v in x],
                              [repr(float(v)) for v in y])
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", series, "--form", form, "--out", prefix]) == 0
        payload = json.load(open(prefix + "_fit.json"))
        r = fit(form, x, y)
        expected = {
            "form": r.form, "exponent": r.exponent, "exponent_err": r.exponent_err,
            "x0": r.x0, "x0_err": r.x0_err, "amplitude": r.amplitude,
            "amplitude_err": r.amplitude_err, "residual_norm": r.residual_norm,
            "n_used": r.n_used, "n_excluded": r.n_excluded, "weights": r.weight_scheme,
            "diagnostics": r.diagnostics, "tool_version": payload["tool_version"],
            "config_hash": payload["config_hash"]}
        # compared as JSON text, where NaN (delta's x0) equals itself
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            expected, sort_keys=True, default=str)
        if form == "delta":
            assert not os.path.exists(prefix + "_residuals.csv")
            return
        rows = open(prefix + "_residuals.csv").read().splitlines()[2:]
        assert rows == [",".join(f"{v:.12g}" for v in point)
                        for point in zip(x, y, *r.evaluate(x, y))]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fit_rejects_a_non_finite_ordinate(self, tmp_path, capsys, bad):
        from spingas.critfit import synthetic_series
        x = np.linspace(1.7, 3.2, 20)
        y = [str(v) for v in synthetic_series("beta", 0.6, 1.6, 0.5, x)]
        y[5] = bad
        series = self._series(tmp_path, x, y)
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", series, "--form", "beta", "--out", prefix]) == 2
        assert "y must be finite" in capsys.readouterr().err
        assert not os.path.exists(prefix + "_fit.json")

    def test_fit_rejects_a_row_without_a_pair(self, tmp_path, capsys):
        from spingas.critfit import synthetic_series
        x = np.linspace(1.7, 3.2, 20)
        rows = [f"{a},{b}" for a, b in zip(x, synthetic_series("beta", 0.6, 1.6, 0.5, x))]
        series = tmp_path / "series.csv"
        # blank lines are skipped; a row with one field is an error
        series.write_text("# comment\nx,y\n\n" + "\n".join(rows) + "\n\n")
        prefix = str(tmp_path / "fit")
        assert main(["fit", "--input", str(series), "--form", "beta", "--out", prefix]) == 0
        assert json.load(open(prefix + "_fit.json"))["n_used"] == 20
        rows[7] = rows[7].split(",")[0]
        series.write_text("# comment\nx,y\n\n" + "\n".join(rows) + "\n\n")
        prefix = str(tmp_path / "cut")
        capsys.readouterr()
        assert main(["fit", "--input", str(series), "--form", "beta", "--out", prefix]) == 2
        assert "line 11 of" in capsys.readouterr().err
        assert not os.path.exists(prefix + "_fit.json")
        # a value that is not a number is named by its file and line too
        series.write_text("x,y\n1,2\n2,abc\n")
        assert main(["fit", "--input", str(series), "--form", "beta", "--out", prefix]) == 2
        assert f"line 3 of {series}: could not convert string to float: 'abc'" in \
            capsys.readouterr().err
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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--i", "nan", "--j", "3"], ["simulate", "--i", "2", "--j", "nan"],
        ["simulate", "--i", "2", "--j", "3", "--h", "nan"],
        ["--set", "numerics.seed_polarization=nan", "simulate", "--i", "2", "--j", "3"]],
        ids=["--i", "--j", "--h", "seed"])
    def test_simulate_rejects_non_finite_input(self, tmp_path, capsys, argv):
        # a NaN pump rate used to run a pump-free cell and report it converged
        rc = main([*argv, "--out", str(tmp_path / "r")])
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
        direct = run_sweep(SweepGrid.from_rates((0.4, 2.0), (3.0,)), cmap=cmap, workers=1)
        save_sweep(direct, str(tmp_path / "direct.csv"), str(tmp_path / "direct.json"))
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

    @pytest.mark.parametrize("key", sorted(
        [f"{section}.{key}" for section, key in _SCHEMA if section == "conditions"]
        + ["collisions.sigma_ex_v"]))
    def test_condition_keys_reach_the_sweep_cells(self, tmp_path, capsys, key):
        # at a disordered point, which is classified without integrating
        value = {"conditions.sigma_e": "1e-12", "conditions.cell_length": "3.0",
                 "conditions.attenuation_mode": "point",
                 "conditions.j_convention": "measured",
                 "collisions.sigma_ex_v": "1e-9"}[key]

        def rows(*overrides):
            sets = [a for o in overrides for a in ("--set", o)]
            prefix = str(tmp_path / "sw")
            assert main(["--set", "sweep.i_over_gamma=0.4", "--set", "sweep.j_over_gamma=3.0",
                         *sets, "sweep", "--out", prefix]) == 0
            return [r for r in open(prefix + "_cells.csv").read().splitlines()
                    if not r.startswith("#")]

        assert rows(f"{key}={value}") != rows()

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

    def test_susceptibility_rows_record_j_and_dh(self, tmp_path, capsys):
        from spingas.cli import _read_xy
        out = str(tmp_path / "chi.csv")
        assert main(["susceptibility", "--j", "3.0", "--dh", "2e-3", "--i-values", "0.0,0.4",
                     "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[1] == ("I_over_Gamma,chi,chi_coarse,richardson_change,ordered,"
                            "J_over_Gamma,dh_over_Gamma")
        rows = [line.split(",") for line in lines[2:]]
        assert [row[-2:] for row in rows] == [["3", "0.002"]] * 2
        # spingas fit --input still reads I and chi
        i_values, chi = _read_xy(out)
        assert (list(i_values), list(chi)) == ([0.0, 0.4], [float(row[1]) for row in rows])

    def test_dump_optics(self, tmp_path):
        rc = main(["simulate", "--i", "0.5", "--j", "1.0", "--t-end", "0.01",
                   "--dump-optics", str(tmp_path / "opt"),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        w_csv = (tmp_path / "opt_w0.csv").read_text().splitlines()
        assert w_csv[1] == "row,col,re,im"
        assert len(w_csv) == 2 + 256
        assert os.path.exists(tmp_path / "opt_rho_e.csv")

    @pytest.mark.parametrize("argv", [["simulate", "--mode", "hyperfine"],
                                      ["simulate", "--seed", "1e-3"],
                                      ["fit", "--input", "x.csv", "--form", "beta",
                                       "--weights", "uniform"]],
                             ids=["mode", "seed", "weights"])
    def test_removed_flags_exit_2(self, argv, capsys):
        # each of these set a value the config hash never saw
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_mode_and_seed_come_from_the_config(self, tmp_path):
        overrides = {"fields.b_z": "0.1 mG", "numerics.projection_mode": "hyperfine",
                     "numerics.seed_polarization": "1e-3"}
        sets = [a for item in overrides.items() for a in ("--set", "=".join(item))]
        rc = main([*sets, "simulate", "--i", "0.5", "--j", "1.0", "--t-end", "0.005",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        payload = json.loads((tmp_path / "r_summary.json").read_text())
        assert payload["params"]["projection_mode"] == "hyperfine"
        assert payload["params"]["seed_polarization"] == 1e-3
        assert payload["invariants"]["trace_deviation"] < 1e-9
        assert payload["config_hash"] == parse_config(overrides=overrides).hash()
        assert payload["config_hash"] != parse_config(
            overrides={"fields.b_z": "0.1 mG"}).hash()
