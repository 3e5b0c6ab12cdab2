"""Truncated formal power series with exact coefficients.

One class, ``Series``, over either of two coefficient rings: every
coefficient is a ``Fraction`` (a series in x over the rationals) or every
coefficient is a ``Poly`` (a series in t whose coefficients are polynomials
in x, used for exponential generating function work).  A coefficient list
that mixes the two is promoted to ``Poly``.

A series carries an explicit truncation order N: exactly N + 1 coefficients
are stored and arithmetic never pretends to know anything past the N-th
power.  Binary operations truncate to the smaller of the two orders.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

from .polynomial import Poly, _as_fraction


class Series:
    """Immutable truncated series whose coefficients are Fraction or Poly."""

    __slots__ = ("coeffs", "order")

    coeffs: tuple
    order: int

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = tuple(coeffs)
        if any(isinstance(c, Poly) for c in cs):
            cs = tuple(c if isinstance(c, Poly) else Poly((c,)) for c in cs)
        else:
            cs = tuple(_as_fraction(c) for c in cs)
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        if len(cs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> Series:
        """p as a series in its own variable, truncated at order."""
        return cls(tuple(p.coefficient(i) for i in range(order + 1)), order)

    @classmethod
    def constant(cls, value, order: int) -> Series:
        """The constant series value; a Poly value gives a Poly series."""
        return cls((value,) + (0,) * order, order)

    def coefficient(self, i: int):
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __add__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), n)

    def __neg__(self) -> Series:
        return Series(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> Series:
        """Product with a scalar, a Poly in the series variable, or a Series."""
        if isinstance(other, (int, Fraction)):
            return Series(tuple(c * other for c in self.coeffs), self.order)
        if isinstance(other, Poly):
            # Outer factor first: the product loop skips its zero coefficients.
            return Series.from_poly(other, self.order) * self
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Poly() if isinstance(self.coeffs[0], Poly) else Fraction(0)] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return Series(out, n)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Series({[str(c) for c in self.coeffs]}, order={self.order})"


def expand_quotient(p: Poly, d: int, order: int) -> Series:
    """Truncated expansion of p(x) / (1 - x)^d through x^order.

    Convolves p with the binomial coefficients C(k + d - 1, d - 1) of the
    expansion of (1 - x)^(-d).
    """
    if d < 1:
        raise ValueError("denominator power must be >= 1")
    if order < p.degree:
        raise ValueError("truncation order must reach the numerator degree")
    out = [Fraction(0)] * (order + 1)
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        for n in range(i, order + 1):
            out[n] += c * comb(n - i + d - 1, d - 1)
    return Series(out, order)


def series_t_divide(num: Series, den: Series) -> Series:
    """Exact truncated quotient num/den of series in t.

    The t^0 coefficient of the denominator must be a nonzero constant; a
    denominator with a removable zero or a polynomial unit at t^0 (such as
    e^t - 1 or the generating kernels with a 1 - x front factor) has to be
    rearranged by the caller first, e.g. by cancelling the offending factor
    against the numerator.
    """
    lead = den.coeffs[0]
    if isinstance(lead, Poly):
        lead = lead.coefficient(0) if lead.degree == 0 else 0
    if not lead:
        raise ValueError(
            "denominator t^0 coefficient must be a nonzero constant; "
            "rearrange the quotient before dividing"
        )
    inv = Fraction(1) / lead
    n = min(num.order, den.order)
    out: list = []
    for k in range(n + 1):
        acc = num.coeffs[k]
        for j in range(1, k + 1):
            acc = acc - den.coeffs[j] * out[k - j]
        out.append(acc * inv)
    return Series(out, n)
