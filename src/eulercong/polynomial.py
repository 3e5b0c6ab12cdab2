"""Dense univariate polynomials with exact rational coefficients.

A single representation serves every polynomial in the package: coefficients
are ``fractions.Fraction`` values stored lowest degree first with trailing
zeros stripped, so the zero polynomial is the empty tuple and ``degree ==
len(coeffs) - 1`` otherwise.  The indeterminate is purely positional; the
same class is used for polynomials in x, in t, and in the shift symbol S.

The canonical textual form is a space-separated list of "p/q" coefficients,
lowest degree first, with the denominator omitted when it is 1:
``"0 1 1"`` is x + x**2 and ``"0 -1/8 1/2"`` is -x/8 + x**2/2.  The zero
polynomial is ``"0"``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Poly:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> Poly:
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def constant(cls, value: Scalar) -> Poly:
        return cls((value,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of the i-th power (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash like it too.
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0]) if self.coeffs else 0

    def __add__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Poly:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        point = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _shift_ints(ns: list[int], a: int, b: int) -> list[int]:
    """Integer Horner: the coefficients of sum ns[i] * (b*u + a)^i in u."""
    acc: list[int] = []
    for n in reversed(ns):
        acc = [a * r + b * s for r, s in zip(acc + [0], [0] + acc)]
        acc[0] += n
    return acc


def taylor_shift(p: Poly, c: Scalar) -> Poly:
    """Return q with q(u) = p(u + c), the expansion of p around -c.

    With c = a/b and D the lcm of p's denominators, p(u + c) equals
    sum D*p_i*b^(deg-i) * (b*u + a)^i / (D*b^deg): integer Horner on the
    numerators, then one division per coefficient.  O(deg^2) integer
    operations.
    """
    c = _as_fraction(c)
    if p.is_zero:
        return p
    a, b, deg = c.numerator, c.denominator, p.degree
    d = lcm(*(x.denominator for x in p.coeffs))
    ns = [x.numerator * (d // x.denominator) * b ** (deg - i) for i, x in enumerate(p.coeffs)]
    scale = d * b**deg
    return Poly(Fraction(n, scale) for n in _shift_ints(ns, a, b))


def compose_monomial(p: Poly, m: int) -> Poly:
    """Return p(x^m): coefficient i of p moves to degree m*i."""
    if m < 1:
        raise ValueError("monomial composition needs m >= 1")
    if m == 1 or p.is_zero:
        return p
    out = [Fraction(0)] * (m * p.degree + 1)
    for i, c in enumerate(p.coeffs):
        out[m * i] = c
    return Poly(out)


def negate_variable(p: Poly) -> Poly:
    """Return p(-x): odd-degree coefficients change sign."""
    return Poly(tuple(-c if i & 1 else c for i, c in enumerate(p.coeffs)))


def remainder_mod_power(p: Poly, c: Scalar, k: int) -> tuple[Poly, Poly]:
    """Split p against (x - c)^k: return (remainder, quotient).

    The remainder has degree < k and p == quotient*(x - c)**k + remainder
    exactly.  Computed by shifting to c, cutting the coefficient list at k,
    and shifting both halves back; no long division.
    """
    if k < 1:
        raise ValueError("modulus exponent must be >= 1")
    c = _as_fraction(c)
    shifted = taylor_shift(p, c)
    low = Poly(shifted.coeffs[:k])
    high = Poly(shifted.coeffs[k:])
    return taylor_shift(low, -c), taylor_shift(high, -c)


def binom_poly(a: int, n: int) -> Poly:
    """Binomial polynomial C(t + a, n) = (t+a)(t+a-1)...(t+a-n+1)/n! in t."""
    if n < 0:
        raise ValueError("binomial order must be >= 0")
    prod = Poly.one()
    for i in range(n):
        prod = prod * Poly((a - i, 1))
    return prod / factorial(n)


def parse_poly(text: str) -> Poly:
    """Parse the canonical "p/q p/q ..." coefficient string."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty polynomial string")
    try:
        return Poly(tuple(Fraction(tok) for tok in tokens))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed coefficient string {text!r}: {exc}") from None


def poly_text(p: Poly) -> str:
    """Canonical textual form, lowest degree first; zero renders as "0"."""
    if p.is_zero:
        return "0"
    return " ".join(str(c) for c in p.coeffs)


def format_poly(p: Poly, var: str = "x", descending: bool = False) -> str:
    """Human-readable rendering, e.g. "x + 11x^2 + 11x^3 + x^4".

    Ascending order suits series numerators; descending suits monic
    characteristic polynomials ("t^2 - 3t + 3").
    """
    if p.is_zero:
        return "0"
    terms = [(i, c) for i, c in enumerate(p.coeffs) if c != 0]
    if descending:
        terms.reverse()
    parts: list[str] = []
    for i, c in terms:
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            coeff = "" if mag == 1 else str(mag)
            power = var if i == 1 else f"{var}^{i}"
            body = coeff + power
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)
