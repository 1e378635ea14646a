import math
from fractions import Fraction

import pytest

from entrokit.values import EntropyValue


def test_constructors_collapse():
    assert EntropyValue.log_of(1, 5).is_zero()
    assert EntropyValue.log_of(7, 0).is_zero()
    assert not EntropyValue.log_of(2).is_zero()
    assert EntropyValue.infinity().kind == "infinite"


def test_log_base_must_be_integral():
    for base, multiplier in ((2.5, 1), (Fraction(7, 2), 2), (0, 1), (-3, 1)):
        with pytest.raises(ValueError):
            EntropyValue.log_of(base, multiplier)
    assert EntropyValue.log_of(Fraction(4, 1)) == EntropyValue.log_of(4)
    assert EntropyValue.log_of(Fraction(4, 1)).base == 4


def test_as_float():
    assert EntropyValue.zero().as_float() == 0.0
    assert EntropyValue.log_of(2, 3).as_float() == pytest.approx(3 * math.log(2))
    assert EntropyValue.log_of(5, Fraction(1, 2)).as_float() == pytest.approx(math.log(5) / 2)
    assert EntropyValue.infinity().as_float() == math.inf


def test_json_never_floats_exact_values():
    enc = EntropyValue.log_of(2, 3).to_json()
    assert enc == {"kind": "exact_log", "base": 2, "multiplier": "3/1"}
    assert EntropyValue.zero().to_json() == {"kind": "exact_zero"}

