from fractions import Fraction

import pytest

from liegeom import ZeroDenominator
from liegeom.rationals import format_rational, make_rational, parse_rational


def test_reduction():
    assert make_rational(2, 4) == Fraction(1, 2)


def test_zero_numerator():
    value = make_rational(0, 5)
    assert value == 0
    assert value.denominator == 1


def test_sign_normalisation():
    value = make_rational(3, -6)
    assert value == Fraction(-1, 2)
    assert value.denominator > 0


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        make_rational(1, 0)


@pytest.mark.parametrize("text, expected", [
    ("3", Fraction(3)),
    ("-3", Fraction(-3)),
    ("+2/4", Fraction(1, 2)),
    ("7/3", Fraction(7, 3)),
    ("-10/4", Fraction(-5, 2)),
    ("5/-2", Fraction(-5, 2)),
])
def test_parse(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1.5", "1/2/3", "1 /2", "/3",
                                  "1\n", "1/2\n", "\u0661/\u0662"])
def test_parse_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDenominator):
        parse_rational("1/0")


@pytest.mark.parametrize("value, text", [
    (Fraction(3), "3"),
    (Fraction(-1, 2), "-1/2"),
    (Fraction(0), "0"),
    (Fraction(10, 5), "2"),
])
def test_format(value, text):
    assert format_rational(value) == text


def test_format_parse_round_trip():
    for num in range(-6, 7):
        for den in range(1, 7):
            value = Fraction(num, den)
            assert parse_rational(format_rational(value)) == value
