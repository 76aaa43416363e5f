import math

import pytest

from spingas import units


def test_frequency_ordinary_gets_two_pi():
    assert units.frequency("2.3 GHz") == pytest.approx(2 * math.pi * 2.3e9)
    assert units.frequency("700 MHz") == pytest.approx(2 * math.pi * 7e8)


def test_rates_taken_verbatim():
    assert units.frequency("58 /s") == 58.0
    assert units.frequency("58 s^-1") == 58.0
    assert units.frequency("10 rad/s") == 10.0


def test_per_gauss():
    assert units.frequency_per_gauss("2.8 MHz/G") == pytest.approx(2 * math.pi * 2.8e6)
    with pytest.raises(units.UnitError):
        units.frequency_per_gauss("2.8 MHz")


def test_magnetic_field():
    assert units.magnetic_field("1 G") == 1.0
    assert units.magnetic_field("0.1 mG") == pytest.approx(1e-4)


def test_missing_or_unknown_units_rejected():
    with pytest.raises(units.UnitError):
        units.frequency("2.3")
    with pytest.raises(units.UnitError):
        units.frequency("2.3 parsec")
    with pytest.raises(units.UnitError):
        units.plain_number("4.57 GHz")


def test_fractions():
    assert units.parse_fraction("7/2") == 3.5
    assert units.parse_fraction("4") == 4.0


@pytest.mark.parametrize("text", ["1/0", "0/0", "7/-0", " 3 / 0.0 "])
def test_fraction_with_zero_denominator_rejected(text):
    with pytest.raises(units.UnitError, match="zero denominator"):
        units.parse_fraction(text)
