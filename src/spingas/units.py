"""Unit handling.

Every energy, rate, and detuning inside the package is stored as an angular
frequency in rad/s.  Values are created from tagged strings ("2.3 GHz",
"58 /s", "1 G", "2.8 MHz/G") or from (value, unit) pairs, so a bare float
never silently crosses an interface with the wrong 2*pi factor.

Quantities quoted in Hz-family units are by convention ordinary frequencies
and are multiplied by 2*pi on entry.  Set ``angular_input=True`` on the
parsing helpers to treat them as already-angular instead; the choice is a
single documented switch so it can be flipped globally from configuration.
"""

from __future__ import annotations

import math
import re

TWO_PI = 2.0 * math.pi

# Multipliers to ordinary frequency in Hz (before any 2*pi).
_FREQ_SCALE = {
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
    "thz": 1e12,
}

# Units that are already rates (no 2*pi convention applies).
_RATE_UNITS = {"/s", "1/s", "s^-1", "s-1", "rad/s"}

_NUMBER_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*(.*)$")


class UnitError(ValueError):
    """Raised for unparseable or dimensionally wrong unit tags."""


def _split(text: str) -> tuple[float, str]:
    m = _NUMBER_RE.match(text)
    if m is None:
        raise UnitError(f"cannot parse quantity {text!r}")
    return float(m.group(1)), m.group(2).strip()


def parse_fraction(text: str) -> float:
    """Parse a plain or slash-fraction number like ``7/2``."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def frequency(value: str | float, unit: str | None = None,
              angular_input: bool = False) -> float:
    """Convert a tagged frequency/rate to an angular frequency in rad/s.

    Accepts Hz-family units (ordinary frequency unless ``angular_input``)
    and rate units ("/s", "rad/s"), which are taken verbatim.
    """
    if isinstance(value, str):
        if unit is not None:
            raise UnitError("pass either a tagged string or (value, unit)")
        value, unit = _split(value)
    if unit is None:
        raise UnitError("frequency value requires a unit tag")
    key = unit.lower().strip()
    if key in _RATE_UNITS:
        return float(value)
    if key in _FREQ_SCALE:
        scale = _FREQ_SCALE[key]
        factor = 1.0 if angular_input else TWO_PI
        return float(value) * scale * factor
    raise UnitError(f"unknown frequency unit {unit!r}")


def frequency_per_gauss(value: str | float, unit: str | None = None,
                        angular_input: bool = False) -> float:
    """Convert a gyromagnetic-style tag ("2.8 MHz/G") to rad/s per gauss."""
    if isinstance(value, str):
        value, unit = _split(value)
    if unit is None:
        raise UnitError("field-coupling value requires a unit tag")
    key = unit.lower().strip()
    if not key.endswith("/g"):
        raise UnitError(f"expected a per-gauss unit, got {unit!r}")
    return frequency(value, key[:-2], angular_input=angular_input)


def magnetic_field(value: str | float, unit: str | None = None) -> float:
    """Convert a field tag to gauss."""
    if isinstance(value, str):
        value, unit = _split(value)
    if unit is None:
        raise UnitError("magnetic field requires a unit tag")
    key = unit.lower().strip()
    scale = {"g": 1.0, "mg": 1e-3, "ug": 1e-6, "t": 1e4, "mt": 10.0}.get(key)
    if scale is None:
        raise UnitError(f"unknown magnetic-field unit {unit!r}")
    return float(value) * scale


def plain_number(value: str | float) -> float:
    """Parse a dimensionless number, rejecting any trailing unit tag."""
    if isinstance(value, str):
        num, rest = _split(value)
        if rest:
            raise UnitError(f"unexpected unit tag {rest!r} on dimensionless value")
        return num
    return float(value)
