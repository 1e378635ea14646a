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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

