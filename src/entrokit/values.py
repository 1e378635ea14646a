"""Tagged entropy values.

Every entropy in the toolkit is a non-negative extended real, but the *kind*
of the number matters: values proved zero by exact arithmetic must stay
distinguishable from values that merely round to zero.  An ``EntropyValue``
is one of

  exact_zero            -- proved 0 by an exact path, never by thresholding
  exact_log(b, q)       -- exactly q*log(b) for an integer base b >= 2 and a
                           non-negative rational multiplier q
  approx(v, e)          -- a float v with a certified error bound e
  infinite              -- +infinity

Comparisons between two exact values are decided exactly (by comparing
integer powers); anything involving an approx value is decided by interval
arithmetic and raises Incomparable when the intervals overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import Incomparable

_EXACT_KINDS = ("exact_zero", "exact_log", "infinite")


@dataclass(frozen=True)
class EntropyValue:
    kind: str
    base: int = 0
    multiplier: Fraction = Fraction(0)
    value: float = 0.0
    error: float = 0.0

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "EntropyValue":
        return EntropyValue("exact_zero")

    @staticmethod
    def log_of(base: int, multiplier=1) -> "EntropyValue":
        """q*log(base), collapsing to exact zero when the product vanishes."""
        b, q = Fraction(base), Fraction(multiplier)
        if b.denominator != 1 or b <= 0:
            raise ValueError("log base must be a positive integer")
        if q < 0:
            raise ValueError("multiplier must be non-negative")
        if b == 1 or q == 0:
            return EntropyValue.zero()
        return EntropyValue("exact_log", base=b.numerator, multiplier=q)

    @staticmethod
    def approximate(value: float, error: float) -> "EntropyValue":
        if error < 0:
            raise ValueError("error bound must be non-negative")
        return EntropyValue("approx", value=float(value), error=float(error))

    @staticmethod
    def infinity() -> "EntropyValue":
        return EntropyValue("infinite")

    # -- inspection ---------------------------------------------------

    def is_exact(self) -> bool:
        return self.kind in _EXACT_KINDS

    def is_zero(self) -> bool:
        return self.kind == "exact_zero"

    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def as_float(self) -> float:
        if self.kind == "exact_zero":
            return 0.0
        if self.kind == "exact_log":
            return float(self.multiplier) * math.log(self.base)
        if self.kind == "approx":
            return self.value
        return math.inf

    def interval(self) -> tuple[float, float]:
        """Enclosing interval; exact kinds get a one-ulp-scale pad for the
        float conversion, approx kinds use their certified bound."""
        if self.kind == "approx":
            return (self.value - self.error, self.value + self.error)
        v = self.as_float()
        if math.isinf(v):
            return (math.inf, math.inf)
        pad = 4.0 * abs(v) * 2.0**-52
        return (v - pad, v + pad)

    def _ball(self) -> tuple[Fraction, Fraction]:
        """(centre, radius) of a finite value's enclosing interval, exactly:
        approx(v, e) gives v and e themselves, not v - e and v + e rounded."""
        if self.kind == "approx":
            return Fraction(self.value), Fraction(self.error)
        lo, hi = map(Fraction, self.interval())
        return (lo + hi) / 2, (hi - lo) / 2

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "EntropyValue") -> "EntropyValue":
        if self.is_infinite() or other.is_infinite():
            return EntropyValue.infinity()
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.kind == "exact_log" and other.kind == "exact_log" and self.base == other.base:
            return EntropyValue.log_of(self.base, self.multiplier + other.multiplier)
        (mid1, radius1), (mid2, radius2) = self._ball(), other._ball()
        return _enclose(mid1 + mid2, radius1 + radius2)

    def scaled(self, k) -> "EntropyValue":
        """k * self for a non-negative rational k."""
        k = Fraction(k)
        if k < 0:
            raise ValueError("scale factor must be non-negative")
        if self.is_zero() or k == 0:
            return EntropyValue.zero()
        if self.is_infinite():
            return EntropyValue.infinity()
        if self.kind == "exact_log":
            return EntropyValue.log_of(self.base, self.multiplier * k)
        return _enclose(Fraction(self.value) * k, Fraction(self.error) * k)

    # -- comparison ---------------------------------------------------

    def compare(self, other: "EntropyValue") -> int:
        """-1, 0, or +1; raises Incomparable on overlapping approx intervals."""
        if self.is_exact() and other.is_exact():
            return _compare_exact(self, other)
        lo1, hi1 = self.interval()
        lo2, hi2 = other.interval()
        if hi1 < lo2:
            return -1
        if hi2 < lo1:
            return 1
        raise Incomparable(f"intervals [{lo1}, {hi1}] and [{lo2}, {hi2}] overlap")

    def same_value(self, other: "EntropyValue", slack: float = 0.0) -> bool:
        """True when the two values provably agree within their bounds plus slack."""
        if self.is_exact() and other.is_exact():
            return _compare_exact(self, other) == 0
        if self.is_infinite() or other.is_infinite():
            return self.is_infinite() and other.is_infinite()
        lo1, hi1 = self.interval()
        lo2, hi2 = other.interval()
        return lo1 - slack <= hi2 and lo2 - slack <= hi1

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "exact_zero":
            return {"kind": "exact_zero"}
        if self.kind == "exact_log":
            q = self.multiplier
            return {"kind": "exact_log", "base": self.base,
                    "multiplier": f"{q.numerator}/{q.denominator}"}
        if self.kind == "approx":
            return {"kind": "approx", "value": self.value, "error": self.error}
        return {"kind": "infinite"}

    @staticmethod
    def from_json(obj: dict) -> "EntropyValue":
        kind = obj["kind"]
        if kind == "exact_zero":
            return EntropyValue.zero()
        if kind == "exact_log":
            return EntropyValue.log_of(obj["base"], Fraction(obj["multiplier"]))
        if kind == "approx":
            return EntropyValue.approximate(float(obj["value"]), float(obj["error"]))
        if kind == "infinite":
            return EntropyValue.infinity()
        raise ValueError(f"unknown entropy value kind {kind!r}")

    def __str__(self) -> str:
        if self.kind == "exact_zero":
            return "0 (exact)"
        if self.kind == "exact_log":
            q = self.multiplier
            mult = str(q) if q != 1 else ""
            return f"{mult + '*' if mult else ''}log {self.base} = {self.as_float():.12g}"
        if self.kind == "approx":
            return f"{self.value:.12g} (+/- {self.error:.3g})"
        return "infinity"


def _enclose(mid: Fraction, radius: Fraction) -> EntropyValue:
    """An approx value whose interval contains [mid - radius, mid + radius]:
    mid rounded to a double, and the radius plus that rounding, rounded up."""
    value = float(mid)
    bound = radius + abs(Fraction(value) - mid)
    error = float(bound)
    if error < bound:
        error = math.nextafter(error, math.inf)
    return EntropyValue.approximate(value, error)


def _compare_exact(a: EntropyValue, b: EntropyValue) -> int:
    if a.is_infinite() or b.is_infinite():
        if a.is_infinite() and b.is_infinite():
            return 0
        return 1 if a.is_infinite() else -1
    qa = a.multiplier if a.kind == "exact_log" else Fraction(0)
    qb = b.multiplier if b.kind == "exact_log" else Fraction(0)
    if qa == 0 or qb == 0:
        if qa == 0 and qb == 0:
            return 0
        return 1 if qa > 0 else -1
    # qa*log(ba) ? qb*log(bb)  <=>  ba**(pa*rb) ? bb**(pb*ra)  over the integers
    pa, ra = qa.numerator, qa.denominator
    pb, rb = qb.numerator, qb.denominator
    left = a.base ** (pa * rb)
    right = b.base ** (pb * ra)
    return (left > right) - (left < right)
