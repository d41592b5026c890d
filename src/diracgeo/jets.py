"""Second-order forward-mode jets: value, gradient, Hessian with exact chain rules.

Every differential-geometric quantity in this package is evaluated pointwise
through these jets, so derivatives are exact to machine precision.  A jet may
carry fewer orders (``d`` or ``dd`` set to ``None``); arithmetic intersects
the available orders, which is how operator compositions lose one order per
derivative taken.  SJet is scalar; SectionJet and MatrixJet carry a C^m
fiber vector and an endomorphism of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

Number = Union[int, float, complex]
_NUMBER_TYPES = (int, float, complex, np.integer, np.floating, np.complexfloating)


class SJet:
    """Scalar 2-jet at a point of an n-dimensional chart.

    val: value; d: gradient (n,) or None; dd: Hessian (n, n) or None.
    Instances are treated as immutable; arithmetic allocates new arrays.
    """

    __slots__ = ("n", "val", "d", "dd")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, n: int, val, d=None, dd=None):
        self.n = n
        self.val = val
        self.d = d
        self.dd = dd

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(c: Number, n: int, order: int = 2) -> "SJet":
        d = np.zeros(n, dtype=complex) if order >= 1 else None
        dd = np.zeros((n, n), dtype=complex) if order >= 2 else None
        return SJet(n, complex(c), d, dd)

    @staticmethod
    def variable(value: Number, i: int, n: int, order: int = 2) -> "SJet":
        d = None
        dd = None
        if order >= 1:
            d = np.zeros(n, dtype=complex)
            d[i] = 1.0
        if order >= 2:
            dd = np.zeros((n, n), dtype=complex)
        return SJet(n, complex(value), d, dd)

    # -- introspection ----------------------------------------------------

    @property
    def order(self) -> int:
        if self.dd is not None:
            return 2
        if self.d is not None:
            return 1
        return 0

    def partial(self, k: int) -> "SJet":
        """The jet of the k-th partial derivative (one order lower)."""
        if self.d is None:
            raise ValueError("jet carries no first-order data")
        d = self.dd[k].copy() if self.dd is not None else None
        return SJet(self.n, self.d[k], d, None)

    def conj(self) -> "SJet":
        d = np.conj(self.d) if self.d is not None else None
        dd = np.conj(self.dd) if self.dd is not None else None
        return SJet(self.n, np.conj(self.val), d, dd)

    def __repr__(self) -> str:
        return f"SJet(val={self.val!r}, order={self.order})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SJet):
            d = self.d + other.d if self.d is not None and other.d is not None else None
            dd = self.dd + other.dd if self.dd is not None and other.dd is not None else None
            return SJet(self.n, self.val + other.val, d, dd)
        if isinstance(other, _NUMBER_TYPES):
            return SJet(self.n, self.val + other, self.d, self.dd)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        d = -self.d if self.d is not None else None
        dd = -self.dd if self.dd is not None else None
        return SJet(self.n, -self.val, d, dd)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SJet):
            a, b = self, other
            val = a.val * b.val
            d = None
            dd = None
            if a.d is not None and b.d is not None:
                d = a.d * b.val + a.val * b.d
                if a.dd is not None and b.dd is not None:
                    cross = np.outer(a.d, b.d)
                    dd = a.dd * b.val + cross + cross.T + a.val * b.dd
            return SJet(self.n, val, d, dd)
        if isinstance(other, _NUMBER_TYPES):
            d = self.d * other if self.d is not None else None
            dd = self.dd * other if self.dd is not None else None
            return SJet(self.n, self.val * other, d, dd)
        return NotImplemented

    __rmul__ = __mul__

    def _inv(self) -> "SJet":
        w = 1.0 / self.val
        d = None
        dd = None
        if self.d is not None:
            d = -self.d * w * w
            if self.dd is not None:
                dd = -self.dd * w * w + 2.0 * np.outer(self.d, self.d) * w ** 3
        return SJet(self.n, w, d, dd)

    def __truediv__(self, other):
        if isinstance(other, SJet):
            return self * other._inv()
        if isinstance(other, _NUMBER_TYPES):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER_TYPES):
            return self._inv() * other
        return NotImplemented

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            if p == 0:
                return SJet.constant(1.0, self.n, self.order)
            v = self.val
            fp = p * v ** (p - 1)
            fpp = p * (p - 1) * v ** (p - 2)
            return self._chain(v ** p, fp, fpp)
        raise TypeError("only integer powers; use jet_sqrt/jet_exp for the rest")

    # -- chain rule core ----------------------------------------------------

    def _chain(self, f, fp, fpp) -> "SJet":
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        d = None
        dd = None
        if self.d is not None:
            d = fp * self.d
            if self.dd is not None:
                dd = fpp * np.outer(self.d, self.d) + fp * self.dd
        return SJet(self.n, f, d, dd)


# -- lifted scalar functions (work on plain numbers and on jets) -----------


def _is_jet(x) -> bool:
    return isinstance(x, SJet)


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
        s = 1.0 if np.real(x.val) >= 0 else -1.0
        return x * s
    return abs(x)


def as_jet(x, n: int, order: int = 2) -> SJet:
    return x if isinstance(x, SJet) else SJet.constant(x, n, order)


def seed_point(x: Sequence[float], order: int = 2) -> list:
    """Jets of the coordinate functions at x, seeded for differentiation."""
    n = len(x)
    return [SJet.variable(x[i], i, n, order) for i in range(n)]


# -- small dense linear algebra over jets -----------------------------------


def jet_mat_from_arrays(g: np.ndarray, dg, d2g) -> list:
    """Matrix of jets out of value/first/second derivative arrays.

    dg[k, i, j] = partial_k g_ij and d2g[l, k, i, j] = partial_l partial_k g_ij;
    either may be None to produce lower-order jets.
    """
    n = g.shape[0]
    out = []
    for i in range(g.shape[0]):
        row = []
        for j in range(g.shape[1]):
            d = np.ascontiguousarray(dg[:, i, j]).astype(complex) if dg is not None else None
            dd = np.ascontiguousarray(d2g[:, :, i, j]).astype(complex) if d2g is not None else None
            row.append(SJet(n, complex(g[i, j]), d, dd))
        out.append(row)
    return out


def jet_det(m: list) -> SJet:
    """Determinant of a square matrix of jets by cofactor expansion."""
    k = len(m)
    if k == 1:
        return m[0][0]
    total = None
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * jet_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


# -- fiber-valued jets --------------------------------------------------------


@dataclass
class SectionJet:
    """C^m-valued jet: v, d[i] = partial_i v, dd[i, j] = partial_i partial_j v."""

    n: int
    x: np.ndarray
    v: np.ndarray
    d: Optional[np.ndarray] = None
    dd: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return self.v.shape[0]

    @property
    def order(self) -> int:
        if self.dd is not None:
            return 2
        if self.d is not None:
            return 1
        return 0

    def partial(self, k: int) -> "SectionJet":
        if self.d is None:
            raise ValueError("section jet carries no first-order data")
        dd = self.dd[k].copy() if self.dd is not None else None
        return SectionJet(self.n, self.x, self.d[k], dd, None)

    def __add__(self, o: "SectionJet") -> "SectionJet":
        d = self.d + o.d if self.d is not None and o.d is not None else None
        dd = self.dd + o.dd if self.dd is not None and o.dd is not None else None
        return SectionJet(self.n, self.x, self.v + o.v, d, dd)

    def __sub__(self, o: "SectionJet") -> "SectionJet":
        return self + o.scale(-1.0)

    def scale(self, s) -> "SectionJet":
        d = self.d * s if self.d is not None else None
        dd = self.dd * s if self.dd is not None else None
        return SectionJet(self.n, self.x, self.v * s, d, dd)

    def scale_jet(self, s: SJet) -> "SectionJet":
        """Multiply by a scalar jet, intersecting orders."""
        d = dd = None
        if self.d is not None and s.d is not None:
            d = s.val * self.d + np.outer(s.d, self.v)
            if self.dd is not None and s.dd is not None:
                cross = np.einsum("i,jm->ijm", s.d, self.d)
                dd = (s.val * self.dd + cross + np.transpose(cross, (1, 0, 2))
                      + np.einsum("ij,m->ijm", s.dd, self.v))
        return SectionJet(self.n, self.x, s.val * self.v, d, dd)

    @staticmethod
    def constant(v: Sequence, n: int, x, order: int = 2) -> "SectionJet":
        v = np.asarray(v, dtype=complex)
        m = v.shape[0]
        d = np.zeros((n, m), dtype=complex) if order >= 1 else None
        dd = np.zeros((n, n, m), dtype=complex) if order >= 2 else None
        return SectionJet(n, np.asarray(x, dtype=float), v, d, dd)


@dataclass
class MatrixJet:
    """End(C^m)-valued jet at a point."""

    n: int
    val: np.ndarray
    d: Optional[np.ndarray] = None
    dd: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return self.val.shape[0]

    @property
    def order(self) -> int:
        if self.dd is not None:
            return 2
        if self.d is not None:
            return 1
        return 0

    def partial(self, k: int) -> "MatrixJet":
        if self.d is None:
            raise ValueError("matrix jet carries no first-order data")
        dd = self.dd[k].copy() if self.dd is not None else None
        return MatrixJet(self.n, self.d[k], dd, None)

    def __add__(self, o: "MatrixJet") -> "MatrixJet":
        d = self.d + o.d if self.d is not None and o.d is not None else None
        dd = self.dd + o.dd if self.dd is not None and o.dd is not None else None
        return MatrixJet(self.n, self.val + o.val, d, dd)

    def __sub__(self, o: "MatrixJet") -> "MatrixJet":
        return self + o.scale(-1.0)

    def scale(self, s) -> "MatrixJet":
        d = self.d * s if self.d is not None else None
        dd = self.dd * s if self.dd is not None else None
        return MatrixJet(self.n, self.val * s, d, dd)

    def __matmul__(self, o: "MatrixJet") -> "MatrixJet":
        val = self.val @ o.val
        d = dd = None
        if self.d is not None and o.d is not None:
            d = self.d @ o.val + self.val @ o.d
            if self.dd is not None and o.dd is not None:
                cross = self.d[:, None] @ o.d[None, :]
                dd = (self.dd @ o.val + cross + cross.transpose(1, 0, 2, 3)
                      + self.val @ o.dd)
        return MatrixJet(self.n, val, d, dd)

    def commutator(self, o: "MatrixJet") -> "MatrixJet":
        return (self @ o) - (o @ self)

    def apply(self, s: SectionJet) -> SectionJet:
        v = self.val @ s.v
        d = dd = None
        if self.d is not None and s.d is not None:
            d = self.d @ s.v + s.d @ self.val.T
            if self.dd is not None and s.dd is not None:
                cross = s.d @ self.d.transpose(0, 2, 1)   # [i, j] = d_i A d_j s
                dd = (self.dd @ s.v + cross + cross.transpose(1, 0, 2)
                      + s.dd @ self.val.T)
        return SectionJet(s.n, s.x, v, d, dd)

    @staticmethod
    def constant(mat: np.ndarray, n: int, order: int = 2) -> "MatrixJet":
        mat = np.asarray(mat, dtype=complex)
        m = mat.shape[0]
        d = np.zeros((n, m, m), dtype=complex) if order >= 1 else None
        dd = np.zeros((n, n, m, m), dtype=complex) if order >= 2 else None
        return MatrixJet(n, mat, d, dd)

    @staticmethod
    def zero(m: int, n: int, order: int = 2) -> "MatrixJet":
        return MatrixJet.constant(np.zeros((m, m)), n, order)
