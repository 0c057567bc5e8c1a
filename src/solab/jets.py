"""Truncated Taylor arithmetic for the chart language: batched forward-mode
jets (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).

A :class:`Jet` carries the value of a scalar expression at a batch of points,
``value`` of shape ``(N,)``, and up to its order the gradient ``(N, n)`` and
Hessian ``(N, n, n)`` with respect to the chart parameters.  A jet of order 0
or 1 holds no higher arrays and computes none, so value sweeps (quadrature
grids, level-set scans, root solves) pay for values only.

Beyond the ring operations, each piece of the language is written once:

* ``FUNCTIONS`` is the table of its functions.  A row holds f, f' and f''
  (f' and f'' as functions of v and f(v), so ``sin`` reuses its value for
  f'' and ``exp`` computes e^v once) and the row's domain rules; ``call``
  applies a row to a constant or a jet, and ``Jet._compose`` calls f' only
  for a jet with a gradient and f'' only for one with a Hessian.
* ``divide`` and ``power`` hold the rules of ``/`` and ``^`` for constant
  and jet operands alike.

A broken rule raises :class:`DomainError` at the placeholder node ``_NODE``;
``dsl`` re-raises it with the source of the failing subexpression.  Jets are
never written after construction, so they are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_NODE = "<expression>"  # callers re-raise DomainError with the source snippet


class Jet:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=None, hess=None):
        self.value = value
        self.grad = grad
        self.hess = hess

    # -- constructors --------------------------------------------------------

    @staticmethod
    def parameter(points: np.ndarray, index: int, order: int = 2) -> "Jet":
        """Seed jet for parameter ``index`` (0-based) at a batch of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        npts, dim = points.shape
        value = points[:, index].copy()
        if order == 0:
            return Jet(value)
        grad = np.zeros((npts, dim))
        grad[:, index] = 1.0
        if order == 1:
            return Jet(value, grad)
        return Jet(value, grad, np.zeros((npts, dim, dim)))

    @property
    def order(self) -> int:
        if self.hess is not None:
            return 2
        if self.grad is not None:
            return 1
        return 0

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value + other.value,
                None if self.grad is None else self.grad + other.grad,
                None if self.hess is None else self.hess + other.hess,
            )
        return Jet(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            -self.value,
            None if self.grad is None else -self.grad,
            None if self.hess is None else -self.hess,
        )

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value - other.value,
                None if self.grad is None else self.grad - other.grad,
                None if self.hess is None else self.hess - other.hess,
            )
        return Jet(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(
                self.value * other,
                None if self.grad is None else self.grad * other,
                None if self.hess is None else self.hess * other,
            )
        u, w = self, other
        value = u.value * w.value
        grad = hess = None
        if u.grad is not None:
            grad = u.grad * w.value[:, None] + w.grad * u.value[:, None]
        if u.hess is not None:
            cross = u.grad[:, :, None] * w.grad[:, None, :]
            hess = (
                u.hess * w.value[:, None, None]
                + w.hess * u.value[:, None, None]
                + cross
                + cross.transpose(0, 2, 1)
            )
        return Jet(value, grad, hess)

    __rmul__ = __mul__

    # -- composition with a scalar function ----------------------------------

    def _compose(self, f, df, ddf):
        """Chain rule through a scalar function with value f = f(v): gradient
        f'(v)∇v and Hessian f'(v)∇²v + f''(v)∇v∇vᵀ, where f' = df(v, f) and
        f'' = ddf(v, f) are called only up to the jet's order."""
        if self.grad is None:
            return Jet(f)
        d1 = df(self.value, f)
        grad = d1[:, None] * self.grad
        if self.hess is None:
            return Jet(f, grad)
        outer = self.grad[:, :, None] * self.grad[:, None, :]
        hess = d1[:, None, None] * self.hess + ddf(self.value, f)[:, None, None] * outer
        return Jet(f, grad, hess)


def _monomial(c, v, k):
    """c v^k for integer k, with negative powers guarded by the caller; a zero
    coefficient gives zeros, so no unused power divides by a zero base."""
    if c == 0:
        return np.zeros_like(v)
    return c * (v**k if k >= 0 else 1.0 / v ** (-k))


# -- the function table --------------------------------------------------------

# name: (f, f'(v, f(v)), f''(v, f(v)), domain rules as (broken(v, order), message)
# pairs checked in turn; order 0 for a constant)
FUNCTIONS = {
    "sin": (np.sin, lambda v, s: np.cos(v), lambda v, s: -s, ()),
    "cos": (np.cos, lambda v, c: -np.sin(v), lambda v, c: -c, ()),
    "tan": (np.tan, lambda v, t: 1.0 + t * t, lambda v, t: 2.0 * t * (1.0 + t * t),
            # |tan v| >= 2^52: the doubles nearest a pole
            ((lambda v, order: np.abs(np.cos(v)) <= 2.0**-52 * np.abs(np.sin(v)),
              "tangent pole"),)),
    "sinh": (np.sinh, lambda v, s: np.cosh(v), lambda v, s: s, ()),
    "cosh": (np.cosh, lambda v, c: np.sinh(v), lambda v, c: c, ()),
    "tanh": (np.tanh, lambda v, t: 1.0 - t * t, lambda v, t: -2.0 * t * (1.0 - t * t), ()),
    "exp": (np.exp, lambda v, e: e, lambda v, e: e, ()),
    "log": (np.log, lambda v, f: 1.0 / v, lambda v, f: -1.0 / (v * v),
            ((lambda v, order: v <= 0.0, "logarithm of a nonpositive value"),)),
    "sqrt": (np.sqrt, lambda v, s: 0.5 / s, lambda v, s: -0.25 / (s * v),
             ((lambda v, order: v < 0.0, "square root of a negative value"),
              (lambda v, order: order > 0 and v == 0.0,
               "square root not differentiable at zero"))),
    "abs": (np.abs, lambda v, a: np.sign(v), lambda v, a: np.zeros_like(v),
            ((lambda v, order: order > 0 and v == 0.0,
              "absolute value not differentiable at zero"),)),
}


def call(name: str, x):
    """The table's function ``name`` at a constant or a jet."""
    f, df, ddf, domain = FUNCTIONS[name]
    jet = isinstance(x, Jet)
    v = x.value if jet else x
    for broken, why in domain:
        if np.any(broken(v, x.order if jet else 0)):
            raise DomainError(_NODE, why)
    return x._compose(f(v), df, ddf) if jet else f(v)


# -- division and powers -------------------------------------------------------


def divide(a, b):
    """a / b for constants and jets; a zero divisor anywhere is an error."""
    if np.any((b.value if isinstance(b, Jet) else b) == 0.0):
        raise DomainError(_NODE, "division by zero")
    if not isinstance(b, Jet):
        return a * (1.0 / b) if isinstance(a, Jet) else a / b
    inv = 1.0 / b.value
    reciprocal = b._compose(inv, lambda v, i: -i * i, lambda v, i: 2.0 * i**3)
    return a * reciprocal if isinstance(a, Jet) else reciprocal * a


def power(a, b):
    """a ^ b for constants and jets.

    A jet exponent names a parameter, so it runs as exp(b log a) and needs a
    positive base, whatever values it takes on a batch; a point's value
    thus depends neither on its batch nor on the jet's order.  A constant
    integer exponent (under 1e9 in size over a jet base) takes any base but
    zero to a negative power; any other constant exponent needs a positive
    base."""
    jet_base = isinstance(a, Jet)
    v = a.value if jet_base else a
    if jet_base and isinstance(b, Jet):
        if np.any(v <= 0.0):
            raise DomainError(_NODE, "power with non-constant exponent needs positive base")
        return call("exp", b * call("log", a))
    integer = not isinstance(b, Jet) and b == round(b) and not (jet_base and abs(b) >= 1e9)
    if not integer and np.any(v <= 0.0):
        raise DomainError(_NODE, "non-integer exponent needs positive base")
    if integer and b < 0 and np.any(v == 0.0):
        raise DomainError(_NODE, "zero base with negative exponent")
    if not jet_base:
        return call("exp", b * np.log(a)) if isinstance(b, Jet) else a ** b
    k = float(b)
    if integer:
        k = int(round(k))
        return a._compose(
            v**k,
            lambda v, f: _monomial(k, v, k - 1),
            lambda v, f: _monomial(k * (k - 1), v, k - 2),
        )
    return a._compose(
        v**k, lambda v, f: k * v ** (k - 1.0), lambda v, f: k * (k - 1.0) * v ** (k - 2.0)
    )
