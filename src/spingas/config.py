"""Run configuration: a single structured-text format with explicit unit
tags on every physical quantity.

The file is INI-like::

    [collisions]
    gamma_c = 1.86 GHz
    q_slowdown = 4.57

Every field has a default matching the reference parameter set, and
unknown keys are rejected with line numbers.  ``_SCHEMA`` names each key's
owner once, which builds and checks its value; a temperature's owner is
the law whose output sets Gamma or the Doppler width, so each takes at
most one of its two keys.  The canonical resolved form, hashed into every
output artifact, so fixes every value a run reads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

from . import units
from .dynamics import IntegrationControls, SimParams, gamma_of_temperature
from .optics import CollisionParams, DopplerSpec, doppler_width
from .spin_algebra import AtomSpec
from .sweep import ConditionsMap, SweepGrid, lorentzian_cross_section


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


def parse_axis(text: str) -> tuple[float, ...]:
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


# (section, key) -> (parser, default-as-text, owner).  The owner is the
# object whose field of the key's name the value sets; a law, (target key,
# law), whose output sets the target's field; or None.
_LAW_GAMMA = (("relaxation", "gamma"), gamma_of_temperature)
_LAW_WIDTH = (("doppler", "width"), doppler_width)
_SCHEMA: dict[tuple[str, str], tuple] = {
    ("atom", "nuclear_spin"): (units.parse_fraction, "7/2", AtomSpec),
    ("atom", "a_ground"): (units.frequency, "2.3 GHz", AtomSpec),
    ("atom", "a_excited"): (units.frequency, "290 MHz", AtomSpec),
    ("atom", "g_ground"): (units.frequency_per_gauss, "2.8 MHz/G", AtomSpec),
    ("atom", "g_excited"): (units.frequency_per_gauss, "0.9 MHz/G", AtomSpec),
    ("collisions", "gamma_c"): (units.frequency, "1.86 GHz", CollisionParams),
    ("collisions", "gamma_q"): (units.frequency, "265 MHz", CollisionParams),
    ("collisions", "gamma_p"): (units.frequency, "219 MHz", CollisionParams),
    ("collisions", "q_slowdown"): (units.plain_number, "4.57", CollisionParams),
    ("collisions", "sigma_ex_v"): (float, "7e-10", ConditionsMap),
    ("relaxation", "gamma"): (units.frequency, "", SimParams),
    ("relaxation", "temperature_c"): (units.plain_number, "", _LAW_GAMMA),
    ("fields", "b_z"): (units.magnetic_field, "1 G", SimParams),
    ("fields", "pump_detuning"): (units.frequency, "700 MHz", None),
    ("fields", "bias_detuning"): (units.frequency, "1.2 GHz", None),
    ("doppler", "width"): (units.frequency, "", DopplerSpec),
    ("doppler", "temperature_c"): (units.plain_number, "", _LAW_WIDTH),
    ("doppler", "quadrature_order"): (int, "40", DopplerSpec),
    ("numerics", "rtol"): (float, "", IntegrationControls),
    ("numerics", "atol"): (float, "", IntegrationControls),
    ("numerics", "projection_mode"): (str, "hyperfine+zeeman", SimParams),
    ("numerics", "seed_polarization"): (float, "1e-4", SimParams),
    ("conditions", "sigma_e"): (float, "", ConditionsMap),
    ("conditions", "cell_length"): (float, "1.5", ConditionsMap),
    ("conditions", "attenuation_mode"): (str, "path-averaged", ConditionsMap),
    ("conditions", "j_convention"): (str, "collision-rate", ConditionsMap),
    ("sweep", "i_over_gamma"): (parse_axis, "0.5:6:30", SweepGrid),
    ("sweep", "j_over_gamma"): (parse_axis, "0.5:6:30", SweepGrid),
    ("sweep", "workers"): (str, "auto", None),
}

# The default instance of each owner object.  The grid's is one cell: only
# its axis rule is read, one axis at a time.
_SIM = SimParams()
_DEFAULTS = {type(owner): owner for owner in (
    _SIM, _SIM.atom, _SIM.coll, _SIM.doppler, IntegrationControls(), ConditionsMap(),
    SweepGrid((1.0,), (1.0,), (math.nan,)))}


def _target(section: str, key: str, value) -> tuple:
    """The owner, field and value that a key's value sets; a law's input
    sets its target's field to the law's output."""
    owner = _SCHEMA[section, key][2]
    if isinstance(owner, tuple):
        (section, key), law = owner
        owner, value = _SCHEMA[section, key][2], law(value)
    return owner, key, value


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key: tuple[str, str]):
        return self.values[key]

    def _set(self, owner: type) -> dict:
        """The values set for the fields of ``owner``."""
        targets = (_target(section, key, value)
                   for (section, key), value in self.values.items() if value is not None)
        return {name: value for own, name, value in targets if own is owner}

    def _build(self, owner: type, **borrowed):
        """``owner``'s default with the values set for its fields."""
        return replace(_DEFAULTS[owner], **{**borrowed, **self._set(owner)})

    def atom(self) -> AtomSpec:
        return self._build(AtomSpec)

    def collisions(self) -> CollisionParams:
        return self._build(CollisionParams)

    def doppler(self) -> DopplerSpec:
        return self._build(DopplerSpec)

    def gamma(self) -> float:
        return self._build(SimParams).gamma

    def conditions(self) -> ConditionsMap:
        """The conditions map; its q is the collisions', and sigma_e
        defaults to the line's cross-section at the pump detuning."""
        v = self.values
        return self._build(ConditionsMap, q_slowdown=v["collisions", "q_slowdown"],
                           sigma_e=lorentzian_cross_section(v["fields", "pump_detuning"]))

    def workers(self) -> int | None:
        w = self.values[("sweep", "workers")]
        return None if w == "auto" else int(w)

    def sim_kwargs(self) -> dict:
        """The :meth:`SimParams.from_rates` keywords: the parts, the
        :class:`SimParams` fields set but Gamma (see :meth:`gamma`), and the
        detunings."""
        sim = self._set(SimParams)
        sim.pop("gamma", None)
        return {"atom": self.atom(), "coll": self.collisions(), "doppler": self.doppler(),
                **sim, "pump_detuning": self.values["fields", "pump_detuning"],
                "bias_detuning": self.values["fields", "bias_detuning"]}

    def controls(self) -> IntegrationControls | None:
        """The tolerances set for every integration, or ``None``, which
        leaves each entry point at its own default (see
        :class:`spingas.dynamics.IntegrationControls`)."""
        return self._build(IntegrationControls) if self._set(IntegrationControls) else None

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
    """Parse a value and check it by replacing it into its owner's default;
    a law's input is checked as the law's output."""
    raw = raw.strip()
    if raw == "":
        return None
    where = f"{section}.{key}"
    try:
        value = _SCHEMA[section, key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}", where, line) from exc
    try:
        owner, name, checked = _target(section, key, value)
        numbers = checked if isinstance(checked, tuple) else (checked,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            raise ValueError(f"value must be finite, got {checked}")
        if owner is not None:
            replace(_DEFAULTS[owner], **{name: checked})
    except ValueError as exc:
        raise ConfigError(str(exc), where, line) from exc
    if where == "sweep.workers" and value != "auto" and \
            not (value.isdecimal() and int(value) >= 1):
        raise ConfigError(f"workers must be 'auto' or an integer >= 1, got {value!r}",
                          where, line)
    return value


def parse_config(path: str | None = None,
                 overrides: dict[str, str] | None = None) -> RunConfig:
    """Resolve a configuration from an optional file plus flag overrides.

    Overrides use dotted keys ('relaxation.gamma').  Unknown keys, missing
    unit tags, and out-of-range values are rejected with the offending
    field path and line, and so are both keys of one derived value."""
    values = {(section, key): _parse_value(section, key, default, None)
              for (section, key), (_, default, _) in _SCHEMA.items()}

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

    for dotted, raw_val in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown key {dotted!r}")
        values[(section, key)] = _parse_value(section, key, raw_val, None)

    for (section, key), (_, _, owner) in _SCHEMA.items():
        if isinstance(owner, tuple) and None not in (values[owner[0]], values[section, key]):
            raise ConfigError(f"{'.'.join(owner[0])} and {section}.{key} set the same "
                              "value: set one of them")
    return RunConfig(values=values)
