"""Truncated Taylor-jet arithmetic.

A :class:`Jet` stores the coefficients of a truncated Taylor expansion about
the evaluation point; coefficient ``k`` equals the k-th derivative divided by
``k!``, so multiplication is a plain coefficient convolution.  The conversion
factor ``k!`` is applied only by :meth:`Jet.derivative`.

Coefficients are usually floats, but they may themselves be jets: nesting
one parameter inside another is how the rest of the package obtains spatial
partial derivatives of composed fields (a first-order jet seeded in one
coordinate whose coefficients are jets in another parameter).  The code below
therefore only assumes ring arithmetic on coefficients.
"""

from __future__ import annotations

import math

MAX_ORDER = 5


class Jet:
    """Truncated Taylor series: ``coeffs[k]`` is the k-th derivative over k!."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not 1 <= len(coeffs) <= MAX_ORDER + 1:
            raise ValueError(f"jet order must be in [0, {MAX_ORDER}]")
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        zero = 0.0 if isinstance(value, (int, float)) else value * 0.0
        return cls((value,) + (zero,) * order)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        """Seed jet for an independent variable: value + 1*eps."""
        if order == 0:
            return cls((value,))
        zero = 0.0 if isinstance(value, (int, float)) else value * 0.0
        one = 1.0 if isinstance(value, (int, float)) else zero + 1.0
        return cls((value, one) + (zero,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, k: int):
        """k-th derivative recovered from the jet (k! times coefficient k)."""
        return math.factorial(k) * self.coeffs[k]

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.coeffs[: order + 1])

    def __repr__(self):
        return f"Jet{self.coeffs!r}"

    def __eq__(self, other):
        return isinstance(other, Jet) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def _align(self, other: "Jet"):
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n], other.coeffs[:n]

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(tuple(x + y for x, y in zip(a, b)))
        if isinstance(other, (int, float)):
            return Jet((self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(tuple(x - y for x, y in zip(a, b)))
        if isinstance(other, (int, float)):
            return Jet((self.coeffs[0] - other,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(
                tuple(
                    sum(a[i] * b[k - i] for i in range(k + 1))
                    for k in range(len(a))
                )
            )
        if isinstance(other, (int, float)):
            return Jet(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(_div_coeffs(a, b))
        if isinstance(other, (int, float)):
            return Jet(tuple(c / other for c in self.coeffs))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet.constant(other, self.order) / self
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        return powi(self, n)


def _div_coeffs(a, b):
    b0 = b[0]
    if const_term(b0) == 0.0:
        raise ZeroDivisionError("division by zero constant term")
    out = []
    for k in range(len(a)):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc - b[j] * out[k - j]
        out.append(acc / b0)
    return tuple(out)


def const_term(x) -> float:
    """Innermost constant term of a possibly nested jet."""
    while isinstance(x, Jet):
        x = x.coeffs[0]
    return float(x)


def truncate(x, order: int):
    return x.truncated(order) if isinstance(x, Jet) else x


def dt(x: Jet) -> Jet:
    """Derivative with respect to the jet parameter (order drops by one)."""
    if x.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    return Jet(tuple((k + 1) * x.coeffs[k + 1] for k in range(x.order)))


def antiderivative(x: Jet, c0) -> Jet:
    """Antiderivative with given constant term (order grows by one)."""
    return Jet((c0,) + tuple(x.coeffs[k] / (k + 1) for k in range(x.order + 1)))


# -- elementary functions (float or Jet argument) ---------------------------


def exp(x):
    if isinstance(x, (int, float)):
        return math.exp(x)
    a = x.coeffs
    out = [exp(a[0])]
    for k in range(1, len(a)):
        acc = 1 * a[1] * out[k - 1]
        for j in range(2, k + 1):
            acc = acc + j * a[j] * out[k - j]
        out.append(acc / k)
    return Jet(out)


def log(x):
    if isinstance(x, (int, float)):
        if x <= 0.0:
            raise ValueError("log of non-positive value")
        return math.log(x)
    a = x.coeffs
    if const_term(a[0]) <= 0.0:
        raise ValueError("log of non-positive value")
    out = [log(a[0])]
    for k in range(1, len(a)):
        acc = k * a[k]
        for j in range(1, k):
            acc = acc - j * out[j] * a[k - j]
        out.append(acc / (k * a[0]))
    return Jet(out)


def sqrt(x):
    if isinstance(x, (int, float)):
        if x < 0.0:
            raise ValueError("sqrt of negative value")
        return math.sqrt(x)
    a = x.coeffs
    c0 = const_term(a[0])
    if c0 < 0.0:
        raise ValueError("sqrt of negative value")
    if c0 == 0.0 and len(a) > 1:
        raise ValueError("sqrt of zero has no truncated series")
    out = [sqrt(a[0])]
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out.append(acc / (2 * out[0]))
    return Jet(out)


def _sincos(x: Jet):
    a = x.coeffs
    a0 = a[0]
    if isinstance(a0, Jet):
        s0, c0 = _sincos(a0)
    else:
        s0, c0 = math.sin(a0), math.cos(a0)
    s, c = [s0], [c0]
    for k in range(1, len(a)):
        accs = 1 * a[1] * c[k - 1]
        accc = 1 * a[1] * s[k - 1]
        for j in range(2, k + 1):
            accs = accs + j * a[j] * c[k - j]
            accc = accc + j * a[j] * s[k - j]
        s.append(accs / k)
        c.append(-accc / k)
    return Jet(s), Jet(c)


def _sinhcosh(x: Jet):
    a = x.coeffs
    a0 = a[0]
    if isinstance(a0, Jet):
        s0, c0 = _sinhcosh(a0)
    else:
        s0, c0 = math.sinh(a0), math.cosh(a0)
    s, c = [s0], [c0]
    for k in range(1, len(a)):
        accs = 1 * a[1] * c[k - 1]
        accc = 1 * a[1] * s[k - 1]
        for j in range(2, k + 1):
            accs = accs + j * a[j] * c[k - j]
            accc = accc + j * a[j] * s[k - j]
        s.append(accs / k)
        c.append(accc / k)
    return Jet(s), Jet(c)


def sin(x):
    if isinstance(x, (int, float)):
        return math.sin(x)
    return _sincos(x)[0]


def cos(x):
    if isinstance(x, (int, float)):
        return math.cos(x)
    return _sincos(x)[1]


def sinh(x):
    if isinstance(x, (int, float)):
        return math.sinh(x)
    return _sinhcosh(x)[0]


def cosh(x):
    if isinstance(x, (int, float)):
        return math.cosh(x)
    return _sinhcosh(x)[1]


def powi(x, n: int):
    """Integer power by left-to-right square-and-multiply (negative via
    reciprocal): about 2 log2(n) products, so x^3 is (x * x) * x."""
    if isinstance(x, (int, float)):
        return float(x) ** n
    if n == 0:
        return Jet.constant(1.0, x.order)
    if n < 0:
        return Jet.constant(1.0, x.order) / powi(x, -n)
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out
