"""Truncated Taylor-jet arithmetic.

A :class:`Jet` stores the coefficients of a truncated Taylor expansion about
the evaluation point; coefficient ``k`` equals the k-th derivative divided by
``k!``, so multiplication is a plain coefficient convolution, and ``dt``
multiplies coefficient k + 1 by k + 1.

Coefficients are floats, or float arrays over samples, one element per
sample (a curve's frame bundle over its grid): the elementwise operations are
the per-sample float ones, the elementary functions map libm over the
elements (``_mapped``) and ``powi`` takes each element's float ``**``.  A
check on a constant term (``failing``) then fails where it fails at any
sample, and raises PerSampleCheck, for the caller to replay per sample; a
branch (``agreed``) is taken where every sample takes it, and raises
PerSampleCheck with its test array where the samples split, for the caller
to run each side of the split as one group.  The package takes spatial partial
derivatives from generated derivative trees (``codegen``) and order-1 jet
rays; a ray's base and slope may both be sample arrays, one element per
pair of a point and a direction (``submanifold.axis_derivatives``), each
with the bits of that point's float ray along that direction.
Coefficients may also be jets themselves, one parameter nested inside
another, which gives mixed partials of composed fields: the tests use that
as the reference for the generated code.  The code below therefore only
assumes ring arithmetic on coefficients.

The product is the inner loop of every curve frame, so it is written out
without a loop, one kernel per coefficient count: ``_MUL[n]`` convolves the
first n coefficients of two jets, for n = 1 .. MAX_ORDER + 1, and
``Jet.__mul__`` picks the kernel by the shorter operand.  One template
(``_kernel``) writes every kernel at import: coefficient k is
``a[0]*b[k] + a[1]*b[k-1] + ... + a[k]*b[0]``, added left to right (a loop
over the terms measured slower per product, also on sample arrays).  Unlike
``sum``, which starts from the integer 0, that keeps the sign of a zero.
Sums, differences and quotients of two jets also keep the shorter length
(``map`` over two tuples stops at the shorter one).  The series of exp, of
sin with cos and of sinh with cosh share one sum (``_chain``), and the two
pairs one recurrence (``_pair``).

Results built in this module skip the length check of ``Jet.__init__``
(``_new``): every operation keeps or shortens operands that were checked when
they were built, and ``antiderivative``, the one that lengthens a jet, checks
the bound itself.  Jets built anywhere else go through ``Jet(...)``.
"""

from __future__ import annotations

import math
from operator import add as _add, sub as _sub

from numpy import array, ndarray

MAX_ORDER = 5


class PerSampleCheck(Exception):
    """A check on sample arrays fails at some sample, or a branch splits them.
    ``test`` is None where only a replay per sample can say at which sample,
    and with what error (``failing``); for a split (``agreed``) it is the
    branch's bool test array, True at the samples that take the branch, so
    the caller may run the two groups apart."""

    def __init__(self, test=None):
        super().__init__()
        self.test = test


def failing(test) -> bool:
    """Whether a check raises: ``test`` itself where it is a bool (one
    sample), and for a bool array over samples False where no sample fails
    it, else PerSampleCheck, before any message naming one sample is built."""
    if not isinstance(test, ndarray):
        return test
    if test.any():
        raise PerSampleCheck
    return False


def agreed(test) -> bool:
    """Whether to take a branch: ``test`` itself where it is a bool (one
    sample), and for a bool array over samples True where every sample takes
    it (also where there is none), False where none does, else
    PerSampleCheck carrying ``test``, for the caller to run the samples
    that take the branch and the rest as two groups."""
    if not isinstance(test, ndarray):
        return test
    if test.all():
        return True
    if test.any():
        raise PerSampleCheck(test)
    return False


class Jet:
    """Truncated Taylor series: ``coeffs[k]`` is the k-th derivative over k!.

    A float array is a scalar to a jet (each coefficient times the array,
    elementwise), in either operand order: ``__array_ufunc__ = None`` makes
    numpy hand ``array * jet`` to the jet rather than build an object array
    of jets, one per element.
    """

    __slots__ = ("coeffs",)
    __array_ufunc__ = None

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not 1 <= len(coeffs) <= MAX_ORDER + 1:
            raise ValueError(f"jet order must be in [0, {MAX_ORDER}]")
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        zero = 0.0 if isinstance(value, (int, float, ndarray)) else value * 0.0
        return cls((value,) + (zero,) * order)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        """Seed jet for an independent variable: value + 1*eps."""
        if order == 0:
            return cls((value,))
        zero = 0.0 if isinstance(value, (int, float, ndarray)) else value * 0.0
        one = 1.0 if isinstance(value, (int, float, ndarray)) else zero + 1.0
        return cls((value, one) + (zero,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> "Jet":
        return _new(self.coeffs[: order + 1])

    def __repr__(self):
        return f"Jet{self.coeffs!r}"

    def __eq__(self, other):
        return isinstance(other, Jet) and self.coeffs == other.coeffs

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return _new(tuple(map(_add, self.coeffs, other.coeffs)))
        if isinstance(other, (int, float, ndarray)):
            return _new((self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        if isinstance(other, Jet):
            return _new(tuple(map(_sub, self.coeffs, other.coeffs)))
        if isinstance(other, (int, float, ndarray)):
            return _new((self.coeffs[0] - other,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.coeffs, other.coeffs
            na, nb = len(a), len(b)
            return _new(_MUL[na if na <= nb else nb](a, b))
        if isinstance(other, (int, float, ndarray)):
            return _new(tuple([c * other for c in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _new(_div_coeffs(self.coeffs, other.coeffs))
        if isinstance(other, (int, float, ndarray)):
            return _new(tuple([c / other for c in self.coeffs]))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, ndarray)):
            return Jet.constant(other, self.order) / self
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        return powi(self, n)


def _new(coeffs: tuple) -> Jet:
    """A jet on a coefficient tuple whose length is already known to be valid."""
    jet = object.__new__(Jet)
    jet.coeffs = coeffs
    return jet


# -- product kernels: _MUL[n] convolves the first n coefficients -------------


def _kernel(n: int):
    """``_mul<n>(a, b)``, written out: coefficient k is
    ``a[0] * b[k] + a[1] * b[k - 1] + ... + a[k] * b[0]``, added left to right."""
    terms = (" + ".join(f"a[{i}] * b[{k - i}]" for i in range(k + 1)) for k in range(n))
    source = f"def _mul{n}(a, b): return ({''.join(f'{term}, ' for term in terms)})"
    scope = {}
    exec(compile(source, f"<_mul{n}>", "exec"), scope)
    return scope[f"_mul{n}"]


_MUL = (None, *map(_kernel, range(1, MAX_ORDER + 2)))


def _div_coeffs(a, b):
    b0 = b[0]
    if failing(const_term(b0) == 0.0):
        raise ZeroDivisionError("division by zero constant term")
    out = []
    for k in range(min(len(a), len(b))):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc - b[j] * out[k - j]
        out.append(acc / b0)
    return tuple(out)


def const_term(x) -> float:
    """Innermost constant term of a possibly nested jet; arrays pass through."""
    while isinstance(x, Jet):
        x = x.coeffs[0]
    return x if type(x) is float or isinstance(x, ndarray) else float(x)


def dt(x: Jet) -> Jet:
    """Derivative with respect to the jet parameter (order drops by one)."""
    if x.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    c = x.coeffs
    return _new(tuple([(k + 1) * c[k + 1] for k in range(x.order)]))


def antiderivative(x: Jet, c0) -> Jet:
    """Antiderivative with given constant term (order grows by one)."""
    if x.order >= MAX_ORDER:
        raise ValueError(f"jet order must be in [0, {MAX_ORDER}]")
    c = x.coeffs
    return _new((c0,) + tuple([c[k] / (k + 1) for k in range(len(c))]))


# -- elementary functions (float, float array or Jet argument) --------------


def _mapped(f, x: ndarray) -> ndarray:
    """``f``, a ``math`` function, of each element of a float array: libm's
    bits, where numpy's own exp, log, sinh and cosh can differ in the last
    one.  A domain error or overflow raises ``math``'s own error.  Where a
    jet takes sin with cos (sinh with cosh), an array takes only the one
    asked for: each pair raises on the same inputs."""
    return array(list(map(f, x.tolist())))


def exp(x):
    if isinstance(x, (int, float)):
        return math.exp(x)
    if isinstance(x, ndarray):
        return _mapped(math.exp, x)
    a = x.coeffs
    out = [exp(a[0])]
    for k in range(1, len(a)):
        out.append(_chain(a, out, k) / k)
    return _new(tuple(out))


def _chain(a, v, k: int):
    """``1*a[1]*v[k-1] + 2*a[2]*v[k-2] + ... + k*a[k]*v[0]``, added left to
    right: k times coefficient k of y where y' = x' u, for x on ``a`` and u
    on ``v``."""
    acc = 1 * a[1] * v[k - 1]
    for j in range(2, k + 1):
        acc = acc + j * a[j] * v[k - j]
    return acc


def log(x):
    if isinstance(x, (int, float)):
        if x <= 0.0:
            raise ValueError("log of non-positive value")
        return math.log(x)
    if isinstance(x, ndarray):
        return _mapped(math.log, x)
    a = x.coeffs
    if failing(const_term(a[0]) <= 0.0):
        raise ValueError("log of non-positive value")
    out = [log(a[0])]
    for k in range(1, len(a)):
        acc = k * a[k]
        for j in range(1, k):
            acc = acc - j * out[j] * a[k - j]
        out.append(acc / (k * a[0]))
    return _new(tuple(out))


def sqrt(x):
    if isinstance(x, (int, float)):
        if x < 0.0:
            raise ValueError("sqrt of negative value")
        return math.sqrt(x)
    if isinstance(x, ndarray):
        return _mapped(math.sqrt, x)
    a = x.coeffs
    c0 = const_term(a[0])
    if failing(c0 < 0.0):
        raise ValueError("sqrt of negative value")
    if len(a) > 1 and failing(c0 == 0.0):
        raise ValueError("sqrt of zero has no truncated series")
    out = [sqrt(a[0])]
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out.append(acc / (2 * out[0]))
    return _new(tuple(out))


def _pair(x: Jet, f, g, sign: float):
    """``(f(x), g(x))`` for sin and cos (``sign`` -1.0) or sinh and cosh
    (+1.0), which satisfy f' = g and g' = sign * f."""
    a = x.coeffs
    a0 = a[0]
    if type(a0) is float or not isinstance(a0, (Jet, ndarray)):
        s0, c0 = f(a0), g(a0)
    elif isinstance(a0, Jet):
        s0, c0 = _pair(a0, f, g, sign)
    else:
        s0, c0 = _mapped(f, a0), _mapped(g, a0)
    s, c = [s0], [c0]
    for k in range(1, len(a)):
        accs, accc = _chain(a, c, k), _chain(a, s, k)
        s.append(accs / k)
        c.append((-accc if sign < 0.0 else accc) / k)
    return _new(tuple(s)), _new(tuple(c))


def sin(x):
    if isinstance(x, (int, float)):
        return math.sin(x)
    if isinstance(x, ndarray):
        return _mapped(math.sin, x)
    return _pair(x, math.sin, math.cos, -1.0)[0]


def cos(x):
    if isinstance(x, (int, float)):
        return math.cos(x)
    if isinstance(x, ndarray):
        return _mapped(math.cos, x)
    return _pair(x, math.sin, math.cos, -1.0)[1]


def sinh(x):
    if isinstance(x, (int, float)):
        return math.sinh(x)
    if isinstance(x, ndarray):
        return _mapped(math.sinh, x)
    return _pair(x, math.sinh, math.cosh, 1.0)[0]


def cosh(x):
    if isinstance(x, (int, float)):
        return math.cosh(x)
    if isinstance(x, ndarray):
        return _mapped(math.cosh, x)
    return _pair(x, math.sinh, math.cosh, 1.0)[1]


def powi(x, n: int):
    """Integer power x^n.  A float takes Python's ``**``, and a float array
    each element's ``**``, so an array has the bits, and raises the errors
    (0.0 to a negative power, an overflow), of its floats.  A jet takes
    left-to-right square-and-multiply (negative via reciprocal): about
    2 log2(n) products, so x^3 is (x * x) * x."""
    if isinstance(x, (int, float)):
        return float(x) ** n
    if isinstance(x, ndarray):
        return array([v ** n for v in x.tolist()], dtype=float)
    if n <= 0:
        one = _new((1.0,) + (0.0,) * x.order)
        return one if n == 0 else one / powi(x, -n)
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out
