"""Second-order forward-mode jets with array values: value, gradient, Hessian.

Every differential-geometric quantity in this package is evaluated pointwise
through one jet type.  A Jet at the point x of an n-dimensional chart holds a
value ``val`` of any fiber shape S (a scalar, a C^m section, an endomorphism,
a form on the 2^n blade axis, a form-valued section, ...), its gradient ``d``
shaped (n, *S) and its Hessian ``dd`` shaped (n, n, *S): derivative axes
first, fiber axes last.  A jet may carry fewer orders (``d`` or ``dd`` set to
None); arithmetic intersects the available orders, which is how operator
compositions lose one order per derivative taken.  Products follow the
truncated Taylor rules of Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., SIAM 2008, ch. 13.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_NUMBER_TYPES = (int, float, complex, np.number)
_ALL = slice(None)


def check_point(x: np.ndarray, y: np.ndarray) -> None:
    """Raise unless two jets' points agree; callers test ``x is y`` first."""
    if x is not y and not np.array_equal(x, y):
        raise ValueError("jets live at different points")


def _pad(a, lead: int, k: int):
    """Insert k unit fiber axes right after the ``lead`` derivative axes of a.

    numpy aligns trailing axes, so a derivative array of lower fiber rank
    than its partner needs these axes for its derivative axes to stay in
    front.
    """
    if a is None or k <= 0:
        return a
    return a.reshape(a.shape[:lead] + (1,) * k + a.shape[lead:])


class Jet:
    """2-jet at the point x of a chart, with values of any fiber shape.

    ``val`` has the fiber shape S, ``d`` is (n, *S) or None and ``dd`` is
    (n, n, *S) or None, with n = len(x).  Instances are treated as immutable;
    arithmetic allocates new arrays.  ``*``, ``/`` and ``**`` act elementwise
    on the fiber, broadcasting like numpy; ``@`` is the fiber matrix product,
    a 1-D fiber being a row on the left and a column on the right.
    """

    __slots__ = ("x", "val", "d", "dd")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, x: np.ndarray, val, d=None, dd=None):
        self.x = x
        self.val = val
        self.d = d
        self.dd = dd

    @staticmethod
    def constant(c, x, order: int = 2) -> "Jet":
        c = np.asarray(c, dtype=complex)
        n = len(x)
        d = np.zeros((n,) + c.shape, dtype=complex) if order >= 1 else None
        dd = np.zeros((n, n) + c.shape, dtype=complex) if order >= 2 else None
        return Jet(x, c, d, dd)

    # -- introspection ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def order(self) -> int:
        if self.dd is not None:
            return 2
        if self.d is not None:
            return 1
        return 0

    def partial(self, k: int) -> "Jet":
        """The jet of the k-th partial derivative (one order lower)."""
        if self.d is None:
            raise ValueError("jet carries no first-order data")
        return Jet(self.x, self.d[k], self.dd[k] if self.dd is not None else None)

    def map(self, f: Callable[[np.ndarray], np.ndarray]) -> "Jet":
        """Apply a fiber-linear map, given as f acting on the trailing fiber
        axes of an array with any leading axes, to every order."""
        return Jet(self.x, f(self.val), *(None if a is None else f(a)
                                          for a in (self.d, self.dd)))

    def conj(self) -> "Jet":
        return self.map(np.conj)

    def norm(self) -> float:
        """Euclidean norm of the value."""
        return float(np.sqrt(np.sum(np.abs(self.val) ** 2)))

    def __getitem__(self, idx) -> "Jet":
        """Index the fiber axes, numpy style."""
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.x, self.val[idx],
                   None if self.d is None else self.d[(_ALL,) + idx],
                   None if self.dd is None else self.dd[(_ALL, _ALL) + idx])

    def __len__(self) -> int:
        return len(self.val)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self) -> str:
        return f"Jet(shape={np.shape(self.val)}, order={self.order})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.x is not self.x:
                check_point(self.x, other.x)
            k = np.ndim(self.val) - np.ndim(other.val)
            d = dd = None
            if self.d is not None and other.d is not None:
                d = _pad(self.d, 1, -k) + _pad(other.d, 1, k)
                if self.dd is not None and other.dd is not None:
                    dd = _pad(self.dd, 2, -k) + _pad(other.dd, 2, k)
            return Jet(self.x, self.val + other.val, d, dd)
        val = self.val + other
        shape = np.shape(val)
        if shape == np.shape(self.val):
            return Jet(self.x, val, self.d, self.dd)
        k = len(shape) - np.ndim(self.val)
        return Jet(self.x, val, *(None if a is None else
                                  np.broadcast_to(_pad(a, lead, k), a.shape[:lead] + shape)
                                  for lead, a in ((1, self.d), (2, self.dd))))

    __radd__ = __add__

    def __neg__(self):
        return self.map(np.negative)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _NUMBER_TYPES):
            return Jet(self.x, self.val * other,
                       *(None if a is None else a * other for a in (self.d, self.dd)))
        return _product(self, other, np.multiply)

    def __rmul__(self, other):
        if isinstance(other, _NUMBER_TYPES):
            return self * other
        return _product(other, self, np.multiply)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._inv()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self._inv() * other

    def _inv(self) -> "Jet":
        w = 1.0 / self.val
        return self._chain(w, -w * w, 2.0 * w ** 3)

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            if p == 0:
                return Jet.constant(np.ones(np.shape(self.val)), self.x, self.order)
            v = self.val
            return self._chain(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))
        raise TypeError("only integer powers; use jet_sqrt/jet_exp for the rest")

    # -- chain rule core ----------------------------------------------------

    def _chain(self, f, fp, fpp) -> "Jet":
        """Compose elementwise with a function given f(v), f'(v), f''(v)."""
        d = dd = None
        if self.d is not None:
            d = fp * self.d
            if self.dd is not None:
                dd = fpp * (self.d[:, None] * self.d[None]) + fp * self.dd
        return Jet(self.x, f, d, dd)


def _product(a, b, op) -> Jet:
    """op(a, b) for an op bilinear on the fiber (np.multiply or np.matmul),
    by the product rule; one of a, b may be a constant array."""
    if not isinstance(b, Jet) or not isinstance(a, Jet):
        jet, const = (a, np.asarray(b)) if isinstance(a, Jet) else (b, np.asarray(a))
        k = const.ndim - np.ndim(jet.val)
        f = ((lambda t: op(t, const)) if jet is a else (lambda t: op(const, t)))
        return Jet(jet.x, f(jet.val), *(None if t is None else f(_pad(t, lead, k))
                                       for lead, t in ((1, jet.d), (2, jet.dd))))
    if a.x is not b.x:
        check_point(a.x, b.x)
    k = np.ndim(a.val) - np.ndim(b.val)
    d = dd = None
    if a.d is not None and b.d is not None:
        ad, bd = _pad(a.d, 1, -k), _pad(b.d, 1, k)
        d = op(ad, b.val) + op(a.val, bd)
        if a.dd is not None and b.dd is not None:
            cross = op(ad[:, None], bd[None])
            dd = (op(_pad(a.dd, 2, -k), b.val) + cross + cross.swapaxes(0, 1)
                  + op(a.val, _pad(b.dd, 2, k)))
    return Jet(a.x, op(a.val, b.val), d, dd)


def _matmul(a, b) -> Jet:
    """a @ b on the fiber axes: a 1-D left factor is lifted to a row and a
    1-D right factor to a column, so derivative axes never meet the product."""
    if not isinstance(a, Jet):
        a = np.asarray(a)
    if not isinstance(b, Jet):
        b = np.asarray(b)
    row = np.ndim(a.val if isinstance(a, Jet) else a) == 1
    col = np.ndim(b.val if isinstance(b, Jet) else b) == 1
    if row:
        a = a[None, :]
    if col:
        b = b[:, None]
    out = _product(a, b, np.matmul)
    if col:
        out = out[..., 0]
    if row:
        out = out[..., 0] if col else out[..., 0, :]
    return out


# -- lifted scalar functions (work on plain numbers and on jets) -----------


def _is_jet(x) -> bool:
    return isinstance(x, Jet)


def jet_sqrt(x):
    if _is_jet(x):
        r = np.sqrt(x.val)
        return x._chain(r, 0.5 / r, -0.25 / (r * x.val))
    return np.sqrt(x)


def jet_exp(x):
    if _is_jet(x):
        e = np.exp(x.val)
        return x._chain(e, e, e)
    return np.exp(x)


def jet_log(x):
    if _is_jet(x):
        v = x.val
        return x._chain(np.log(v), 1.0 / v, -1.0 / (v * v))
    return np.log(x)


def jet_sin(x):
    if _is_jet(x):
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(s, c, -s)
    return np.sin(x)


def jet_cos(x):
    if _is_jet(x):
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(c, -s, -c)
    return np.cos(x)


def jet_abs(x):
    """|x| for real-valued jets away from zero."""
    if _is_jet(x):
        s = np.where(np.real(x.val) >= 0, 1.0, -1.0)
        return x._chain(np.abs(x.val), s, 0.0)
    return abs(x)


def seed_point(x: Sequence[float], order: int = 2) -> Jet:
    """The coordinate functions at x as one jet with fiber (n,), seeded for
    differentiation: d[k, i] = delta_ki."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    return Jet(x, x, np.eye(n) if order >= 1 else None,
               np.zeros((n, n, n)) if order >= 2 else None)
