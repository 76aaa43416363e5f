"""Run configuration: a single structured-text format with explicit unit
tags on every physical quantity.

The file is INI-like::

    [collisions]
    gamma_c = 1.86 GHz
    q_slowdown = 4.57

Every field has a default matching the reference parameter set, unknown
keys are rejected with line numbers, and each resolved field records
whether it came from the file/flags or from the defaults.  The canonical
resolved form is hashed into every output artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import units
from .dynamics import PROJECTION_MODES, IntegrationControls, gamma_of_temperature
from .optics import CollisionParams, DopplerSpec, doppler_width
from .spin_algebra import AtomSpec
from .sweep import (ATTENUATION_MODES, J_CONVENTIONS, ConditionsMap,
                    lorentzian_cross_section)


class ConfigError(ValueError):
    """Configuration problem with a precise field path."""

    def __init__(self, message: str, where: str | None = None, line: int | None = None):
        loc = ""
        if where:
            loc += f" [{where}]"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.where = where
        self.line = line


def _axis(text: str) -> tuple[float, ...]:
    """Parse 'lo:hi:n' (linear) or a comma list into a strictly increasing axis."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("axis ranges use lo:hi:n")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1 or hi <= lo:
            raise ValueError("axis range must have hi > lo and n >= 1")
        if n == 1:
            return (lo,)
        step = (hi - lo) / (n - 1)
        return tuple(lo + k * step for k in range(n))
    vals = tuple(float(v) for v in text.split(",") if v.strip())
    if not vals:
        raise ValueError("empty axis")
    return vals


_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag(text: str) -> bool:
    if text.lower() not in _FLAGS:
        raise ValueError("expected true/false, yes/no or 1/0")
    return _FLAGS[text.lower()]


# (section, key) -> (parser, default-as-text)
_SCHEMA: dict[tuple[str, str], tuple] = {
    ("atom", "nuclear_spin"): (units.parse_fraction, "7/2"),
    ("atom", "a_ground"): (units.frequency, "2.3 GHz"),
    ("atom", "a_excited"): (units.frequency, "290 MHz"),
    ("atom", "g_ground"): (units.frequency_per_gauss, "2.8 MHz/G"),
    ("atom", "g_excited"): (units.frequency_per_gauss, "0.9 MHz/G"),
    ("collisions", "gamma_c"): (units.frequency, "1.86 GHz"),
    ("collisions", "gamma_q"): (units.frequency, "265 MHz"),
    ("collisions", "gamma_p"): (units.frequency, "219 MHz"),
    ("collisions", "q_slowdown"): (units.plain_number, "4.57"),
    ("collisions", "sigma_ex_v"): (float, "7e-10"),
    ("relaxation", "gamma"): (units.frequency, "58 /s"),
    ("relaxation", "temperature_c"): (units.plain_number, ""),
    ("fields", "b_z"): (units.magnetic_field, "1 G"),
    ("fields", "pump_detuning"): (units.frequency, "700 MHz"),
    ("fields", "bias_detuning"): (units.frequency, "1.2 GHz"),
    ("doppler", "width"): (units.frequency, ""),
    ("doppler", "temperature_c"): (units.plain_number, "87"),
    ("doppler", "quadrature_order"): (int, "40"),
    ("numerics", "rtol"): (float, ""),
    ("numerics", "atol"): (float, ""),
    ("numerics", "projection_mode"): (str, "hyperfine+zeeman"),
    ("numerics", "seed_polarization"): (float, "1e-4"),
    ("numerics", "light_shift"): (_flag, "false"),
    ("conditions", "sigma_e"): (float, ""),
    ("conditions", "cell_length"): (float, "1.5"),
    ("conditions", "s_axis"): (float, "10.0"),
    ("conditions", "attenuation_mode"): (str, "path-averaged"),
    ("conditions", "j_convention"): (str, "collision-rate"),
    ("sweep", "i_over_gamma"): (_axis, "0.5:6:30"),
    ("sweep", "j_over_gamma"): (_axis, "0.5:6:30"),
    ("sweep", "workers"): (str, "auto"),
}


@dataclass
class RunConfig:
    values: dict
    provenance: dict

    def __getitem__(self, key: tuple[str, str]):
        return self.values[key]

    def atom(self) -> AtomSpec:
        v = self.values
        return AtomSpec(
            nuclear_spin=Fraction(v[("atom", "nuclear_spin")]).limit_denominator(2),
            electron_spin=Fraction(1, 2),
            a_ground=v[("atom", "a_ground")],
            a_excited=v[("atom", "a_excited")],
            g_ground=v[("atom", "g_ground")],
            g_excited=v[("atom", "g_excited")],
        )

    def collisions(self) -> CollisionParams:
        v = self.values
        return CollisionParams(
            gamma_c=v[("collisions", "gamma_c")],
            gamma_q=v[("collisions", "gamma_q")],
            gamma_p=v[("collisions", "gamma_p")],
            q_slowdown=v[("collisions", "q_slowdown")],
        )

    def doppler(self) -> DopplerSpec:
        v = self.values
        width = v[("doppler", "width")]
        if width is None:
            width = doppler_width(v[("doppler", "temperature_c")])
        return DopplerSpec(width=width,
                           quadrature_order=v[("doppler", "quadrature_order")])

    def gamma(self) -> float:
        v = self.values
        t = v[("relaxation", "temperature_c")]
        if self.provenance[("relaxation", "temperature_c")] == "user" and \
           self.provenance[("relaxation", "gamma")] == "default":
            return gamma_of_temperature(t)
        return v[("relaxation", "gamma")]

    def conditions(self) -> ConditionsMap:
        v = self.values
        sigma_e = v[("conditions", "sigma_e")]
        if sigma_e is None:
            sigma_e = lorentzian_cross_section(v[("fields", "pump_detuning")])
        return ConditionsMap(
            sigma_ex_v=v[("collisions", "sigma_ex_v")],
            s_axis=v[("conditions", "s_axis")],
            sigma_e=sigma_e,
            cell_length=v[("conditions", "cell_length")],
            attenuation_mode=v[("conditions", "attenuation_mode")],
            j_convention=v[("conditions", "j_convention")],
            q_slowdown=v[("collisions", "q_slowdown")],
        )

    def workers(self) -> int | None:
        w = self.values[("sweep", "workers")]
        return None if w == "auto" else int(w)

    def sim_kwargs(self) -> dict:
        v = self.values
        return {
            "atom": self.atom(),
            "coll": self.collisions(),
            "doppler": self.doppler(),
            "b_z": v[("fields", "b_z")],
            "projection_mode": v[("numerics", "projection_mode")],
            "seed_polarization": v[("numerics", "seed_polarization")],
            "light_shift": v[("numerics", "light_shift")],
            "pump_detuning": v[("fields", "pump_detuning")],
            "bias_detuning": v[("fields", "bias_detuning")],
        }

    def controls(self) -> IntegrationControls | None:
        """The tolerances set for every integration, or ``None``, which
        leaves each entry point at its own default (see
        :class:`spingas.dynamics.IntegrationControls`)."""
        tols = {key: self.values[("numerics", key)] for key in ("rtol", "atol")
                if self.values[("numerics", key)] is not None}
        return IntegrationControls(**tols) if tols else None

    def canonical(self) -> dict:
        out = {}
        for (section, key), value in sorted(self.values.items()):
            if (section, key) == ("sweep", "workers"):
                continue  # the worker count must not change any output
            out[f"{section}.{key}"] = value if not isinstance(value, tuple) else list(value)
        return out

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_value(section: str, key: str, raw: str, line: int | None):
    parser, _ = _SCHEMA[(section, key)]
    raw = raw.strip()
    if raw == "":
        return None
    try:
        value = parser(raw)
    except (ValueError, units.UnitError) as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}", f"{section}.{key}", line) from exc
    _validate(section, key, value, line)
    return value


def _validate(section: str, key: str, value, line: int | None):
    where = f"{section}.{key}"
    numbers = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
        raise ConfigError(f"value must be finite, got {value}", where, line)
    positive = {("relaxation", "gamma"), ("collisions", "gamma_c"),
                ("collisions", "q_slowdown"), ("collisions", "sigma_ex_v"),
                ("conditions", "sigma_e"),
                ("conditions", "cell_length"), ("conditions", "s_axis"),
                ("numerics", "rtol"), ("numerics", "atol")}
    if (section, key) in positive and value is not None and value <= 0:
        raise ConfigError(f"value must be > 0, got {value}", where, line)
    if (section, key) == ("numerics", "projection_mode") and value not in PROJECTION_MODES:
        raise ConfigError(f"unknown projection mode {value!r}", where, line)
    if (section, key) == ("numerics", "seed_polarization") and abs(value) > 0.01:
        raise ConfigError("|seed_polarization| must be <= 0.01", where, line)
    if (section, key) == ("conditions", "attenuation_mode") and value not in ATTENUATION_MODES:
        raise ConfigError(f"unknown attenuation mode {value!r}", where, line)
    if (section, key) == ("conditions", "j_convention") and value not in J_CONVENTIONS:
        raise ConfigError(f"unknown J convention {value!r}", where, line)
    if (section, key) == ("sweep", "workers") and value != "auto" and \
            not (value.isdecimal() and int(value) >= 1):
        raise ConfigError(f"workers must be 'auto' or an integer >= 1, got {value!r}",
                          where, line)


def parse_config(path: str | None = None,
                 overrides: dict[str, str] | None = None) -> RunConfig:
    """Resolve a configuration from an optional file plus flag overrides.

    Overrides use dotted keys ('relaxation.gamma').  Unknown keys, missing
    unit tags, and out-of-range values are rejected with the offending
    field path and line."""
    values = {}
    provenance = {}
    for (section, key), (_, default) in _SCHEMA.items():
        values[(section, key)] = _parse_value(section, key, default, None)
        provenance[(section, key)] = "default"

    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        section = None
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if text.startswith("[") and text.endswith("]"):
                section = text[1:-1].strip()
                if not any(s == section for s, _ in _SCHEMA):
                    raise ConfigError(f"unknown section {section!r}", line=lineno)
                continue
            if "=" not in text:
                raise ConfigError(f"expected 'key = value', got {text!r}", line=lineno)
            if section is None:
                raise ConfigError("key outside any [section]", line=lineno)
            key, _, raw_val = text.partition("=")
            key = key.strip()
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r}", section, lineno)
            values[(section, key)] = _parse_value(section, key, raw_val, lineno)
            provenance[(section, key)] = "user"

    for dotted, raw_val in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown key {dotted!r}")
        values[(section, key)] = _parse_value(section, key, raw_val, None)
        provenance[(section, key)] = "user"

    return RunConfig(values=values, provenance=provenance)
