import math
from fractions import Fraction

import pytest

from entrokit.errors import Incomparable
from entrokit.values import EntropyValue


def test_constructors_collapse():
    assert EntropyValue.log_of(1, 5).is_zero()
    assert EntropyValue.log_of(7, 0).is_zero()
    assert not EntropyValue.log_of(2).is_zero()
    assert EntropyValue.infinity().is_infinite()


def test_log_base_must_be_integral():
    for base, multiplier in ((2.5, 1), (Fraction(7, 2), 2), (0, 1), (-3, 1)):
        with pytest.raises(ValueError):
            EntropyValue.log_of(base, multiplier)
    for base in (2.5, "7/2"):
        with pytest.raises(ValueError):
            EntropyValue.from_json({"kind": "exact_log", "base": base,
                                    "multiplier": "1/1"})
    assert EntropyValue.log_of(Fraction(4, 1)) == EntropyValue.log_of(4)
    assert EntropyValue.log_of(Fraction(4, 1)).base == 4


def test_as_float():
    assert EntropyValue.zero().as_float() == 0.0
    assert EntropyValue.log_of(2, 3).as_float() == pytest.approx(3 * math.log(2))
    assert EntropyValue.log_of(5, Fraction(1, 2)).as_float() == pytest.approx(math.log(5) / 2)
    assert EntropyValue.infinity().as_float() == math.inf


def test_addition():
    a = EntropyValue.log_of(2)
    b = EntropyValue.log_of(2, 2)
    assert (a + b).multiplier == 3
    assert (a + EntropyValue.zero()) == a
    assert (a + EntropyValue.infinity()).is_infinite()
    mixed = a + EntropyValue.approximate(1.0, 1e-3)
    assert mixed.kind == "approx"
    assert mixed.value == pytest.approx(math.log(2) + 1.0, abs=1e-9)


def test_scaling():
    assert EntropyValue.log_of(3).scaled(2).multiplier == 2
    assert EntropyValue.log_of(3).scaled(0).is_zero()
    assert EntropyValue.infinity().scaled(5).is_infinite()


def test_exact_comparison_cross_base():
    # 3*log(2) > 1*log(7) because 8 > 7
    assert EntropyValue.log_of(2, 3).compare(EntropyValue.log_of(7)) == 1
    # 2*log(8) == 3*log(4)
    assert EntropyValue.log_of(8, 2).compare(EntropyValue.log_of(4, 3)) == 0
    assert EntropyValue.log_of(8, 2).same_value(EntropyValue.log_of(4, 3))
    assert EntropyValue.zero().compare(EntropyValue.log_of(2)) == -1
    assert EntropyValue.infinity().compare(EntropyValue.log_of(2)) == 1


def test_fractional_multiplier_comparison():
    # (1/2) log 4 == log 2
    assert EntropyValue.log_of(4, Fraction(1, 2)).compare(EntropyValue.log_of(2)) == 0


def test_interval_comparison_and_incomparable():
    a = EntropyValue.approximate(1.0, 0.1)
    b = EntropyValue.approximate(2.0, 0.1)
    assert a.compare(b) == -1
    c = EntropyValue.approximate(1.05, 0.1)
    with pytest.raises(Incomparable):
        a.compare(c)
    assert a.same_value(c)


def test_json_round_trip():
    for v in (EntropyValue.zero(),
              EntropyValue.log_of(2, Fraction(3, 2)),
              EntropyValue.approximate(0.162357, 1e-10),
              EntropyValue.infinity()):
        assert EntropyValue.from_json(v.to_json()) == v


def test_json_never_floats_exact_values():
    enc = EntropyValue.log_of(2, 3).to_json()
    assert enc == {"kind": "exact_log", "base": 2, "multiplier": "3/1"}
    assert EntropyValue.zero().to_json() == {"kind": "exact_zero"}


# ----------------------------------------------------------------------
# sums and rational multiples enclose the exact result

try:
    from hypothesis import given, strategies as st
except ImportError:  # the property tests below need hypothesis
    given = None

if given is not None:
    _values = st.floats(-1e300, 1e300)
    _errors = st.floats(0, 1e300)
    _scales = st.fractions(min_value=0, max_value=1000, max_denominator=10 ** 6)

    def _encloses(v, lo, hi):
        """True when the approx value v contains the exact interval [lo, hi]."""
        mid, err = Fraction(v.value), Fraction(v.error)
        return mid - err <= lo and hi <= mid + err

    def test_scaled_third_contains_third():
        assert _encloses(EntropyValue.approximate(1.0, 0.0).scaled(Fraction(1, 3)),
                         Fraction(1, 3), Fraction(1, 3))

    @given(_values, _errors, _scales)
    def test_scaled_encloses_exact_product(value, error, k):
        v = EntropyValue.approximate(value, error).scaled(k)
        lo, hi = Fraction(value) - Fraction(error), Fraction(value) + Fraction(error)
        assert v.is_zero() if k == 0 else _encloses(v, k * lo, k * hi)

    @given(_values, _errors, _values, _errors)
    def test_sum_encloses_exact_sum(v1, e1, v2, e2):
        v = EntropyValue.approximate(v1, e1) + EntropyValue.approximate(v2, e2)
        mid = Fraction(v1) + Fraction(v2)
        radius = Fraction(e1) + Fraction(e2)
        assert _encloses(v, mid - radius, mid + radius)
