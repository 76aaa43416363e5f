"""Unit handling.

Every energy, rate, and detuning inside the package is stored as an angular
frequency in rad/s.  Each parser takes one tagged string ("2.3 GHz",
"58 /s", "1 G", "2.8 MHz/G"), so a bare float never silently crosses an
interface with the wrong 2*pi factor.

Quantities quoted in Hz-family units are ordinary frequencies and are
multiplied by 2*pi on entry; rate units ("/s", "rad/s") are taken verbatim.
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


def frequency(text: str) -> float:
    """Convert a tagged frequency/rate to an angular frequency in rad/s.

    Accepts Hz-family units (ordinary frequency) and rate units ("/s",
    "rad/s"), which are taken verbatim.
    """
    value, unit = _split(text)
    key = unit.lower()
    if key in _RATE_UNITS:
        return value
    if key in _FREQ_SCALE:
        return value * _FREQ_SCALE[key] * TWO_PI
    raise UnitError(f"unknown frequency unit {unit!r}")


def frequency_per_gauss(text: str) -> float:
    """Convert a gyromagnetic-style tag ("2.8 MHz/G") to rad/s per gauss."""
    text = text.strip()
    if not text.lower().endswith("/g"):
        raise UnitError(f"expected a per-gauss unit, got {text!r}")
    return frequency(text[:-2])


def magnetic_field(text: str) -> float:
    """Convert a field tag to gauss."""
    value, unit = _split(text)
    scale = {"g": 1.0, "mg": 1e-3, "ug": 1e-6, "t": 1e4, "mt": 10.0}.get(unit.lower())
    if scale is None:
        raise UnitError(f"unknown magnetic-field unit {unit!r}")
    return value * scale


def plain_number(text: str) -> float:
    """Parse a dimensionless number, rejecting any trailing unit tag."""
    value, rest = _split(text)
    if rest:
        raise UnitError(f"unexpected unit tag {rest!r} on dimensionless value")
    return value
