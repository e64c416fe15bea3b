from fractions import Fraction

import pytest

from quasibessel.rational import as_rational, parse_decimal


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
