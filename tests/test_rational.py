from fractions import Fraction

import pytest

from quasibessel.rational import as_rational, gcf, lcd, parse_decimal


def test_parse_decimal_examples():
    assert parse_decimal("0.8") == Fraction(4, 5)
    assert parse_decimal("3") == Fraction(3)
    assert parse_decimal("2.1") == Fraction(21, 10)
    assert parse_decimal("-1.25") == Fraction(-5, 4)
    assert parse_decimal("+0.50") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "1e5", "0x10", "1/2", "abc", "1.2.3", ".5", "nan"])
def test_parse_decimal_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_decimal(bad)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.8)
    assert as_rational(Fraction(4, 5)) == Fraction(4, 5)
    assert as_rational(3) == Fraction(3)
    assert as_rational("0.8") == Fraction(4, 5)


def test_lcd_examples():
    assert lcd([Fraction(4, 5), Fraction(1, 2), Fraction(2, 1)]) == 10
    assert lcd([Fraction(3, 1), Fraction(3, 10), Fraction(3, 5)]) == 10
    assert lcd([Fraction(1)]) == 1


def test_gcf_examples():
    assert gcf([30, 3, 6]) == 3
    assert gcf([20, 8, 5]) == 1
    assert gcf([7]) == 7


def test_lcd_gcf_degenerate_cases():
    with pytest.raises(ValueError):
        lcd([])
    with pytest.raises(ValueError):
        gcf([])
    with pytest.raises(ValueError):
        gcf([4, 0])
    # single-element identities
    q = Fraction(7, 12)
    assert lcd([q]) == q.denominator
