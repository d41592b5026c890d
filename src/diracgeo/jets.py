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

Sample axis.  x may also be a stack of P points, shaped (P, n); the jet then
holds P jets at once, one per point, with ``val`` (P, *S), ``d`` (P, n, *S)
and ``dd`` (P, n, n, *S).  The batch shape x.shape[:-1] leads every array,
every method takes its axis offsets from it, and one numpy call evaluates
all samples, the way ``vmap`` batches a per-point program.  Indexing,
``len`` and iteration address fiber axes, never samples.  A plain array
operand is a fiber constant shared by every sample; ``scale`` multiplies
each sample by its own number.

Index axis.  A coordinate-indexed family (the gammas c(dx^i), connection
matrices A_i, curvatures F_ik) is one jet whose first fiber axes are the
coordinate indices: fiber (n, m, m), or (n, n, m, m) for F_ik.  ``fam[i]``
is member i, ``len`` and iteration run over the members, ``sum`` contracts
the index, and products broadcast over it like numpy's.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Sequence

import numpy as np

_NUMBER_TYPES = (int, float, complex, np.number)
_ALL = slice(None)


def check_point(x: np.ndarray, y: np.ndarray) -> None:
    """Raise unless two jets' points agree; the same array passes uncompared."""
    if x is not y and not np.array_equal(x, y):
        raise ValueError("jets live at different points")


def sample_max(a, nb: int):
    """Largest entry magnitude per sample of the ``nb`` leading sample axes of
    a (a number when nb is 0); a NaN entry makes its sample NaN."""
    return np.max(np.abs(a), axis=tuple(range(nb, np.ndim(a))))


def relative(diff, *scales):
    """diff over the largest of the scales, floored at 1, so that a tolerance
    means the same on every chart; arrays act per sample, and a NaN in any
    operand stays NaN."""
    return diff / reduce(np.maximum, scales, 1.0)


def relative_gap(a, b, nb: int = 1):
    """Per sample of the ``nb`` leading axes, the largest entry of |a - b|
    relative to the larger side."""
    return relative(sample_max(a - b, nb), sample_max(a, nb), sample_max(b, nb))


def _pad(a, lead: int, k: int):
    """Insert k unit axes right after the first ``lead`` axes of a.

    numpy aligns trailing axes, so an array of lower fiber rank than its
    partner needs these axes for its sample and derivative axes to stay in
    front.  With ``lead`` 0 numpy's own broadcasting does the same.
    """
    if a is None or k <= 0 or lead == 0:
        return a
    return a.reshape(a.shape[:lead] + (1,) * k + a.shape[lead:])


class Jet:
    """2-jet at the point x of a chart, with values of any fiber shape.

    ``val`` has the fiber shape S, ``d`` is (n, *S) or None and ``dd`` is
    (n, n, *S) or None, with n = x.shape[-1]; a stack of points x (P, n)
    puts the sample axis P in front of all three.  Instances are treated as
    immutable; arithmetic allocates new arrays.  ``*``, ``/`` and ``**`` act
    elementwise on the fiber, broadcasting like numpy; ``@`` is the fiber
    matrix product, a 1-D fiber being a row on the left and a column on the
    right.
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
        """The constant fiber value c at every sample of x."""
        c = np.asarray(c, dtype=complex)
        batch, n = np.shape(x)[:-1], np.shape(x)[-1]
        d = np.zeros(batch + (n,) + c.shape, dtype=complex) if order >= 1 else None
        dd = np.zeros(batch + (n, n) + c.shape, dtype=complex) if order >= 2 else None
        return Jet(x, np.broadcast_to(c, batch + c.shape) if batch else c, d, dd)

    # -- introspection ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def nb(self) -> int:
        """Number of sample axes: 0, or 1 for a stack of points."""
        return self.x.ndim - 1

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
        idx = (_ALL,) * self.nb + (k,)
        return Jet(self.x, self.d[idx], self.dd[idx] if self.dd is not None else None)

    def truncate(self, order: int) -> "Jet":
        """The same jet carrying at most ``order`` orders."""
        return Jet(self.x, self.val, self.d if order >= 1 else None,
                   self.dd if order >= 2 else None)

    def gradient(self) -> "Jet":
        """The jet of all partial derivatives, one order lower: a family with
        fiber (n, *S) whose slot k is the k-th partial."""
        if self.d is None:
            raise ValueError("jet carries no first-order data")
        return Jet(self.x, self.d, self.dd)

    def map(self, f: Callable[[np.ndarray], np.ndarray]) -> "Jet":
        """Apply a fiber-linear map, given as f acting on the trailing fiber
        axes of an array with any leading axes, to every order."""
        return Jet(self.x, f(self.val), *(None if a is None else f(a)
                                          for a in (self.d, self.dd)))

    def scale(self, s) -> "Jet":
        """Multiply each sample by its own number; s has the batch shape."""
        s = np.asarray(s)
        return Jet(self.x, *(None if a is None else
                             a * s.reshape(s.shape + (1,) * (a.ndim - s.ndim))
                             for a in (self.val, self.d, self.dd)))

    def sum(self) -> "Jet":
        """Sum over the first fiber axis: contracts the index of a family."""
        r = np.ndim(self.val) - self.nb
        return self.map(lambda a: a.sum(axis=-r))

    def conj(self) -> "Jet":
        return self.map(np.conj)

    def norm(self) -> float:
        """Euclidean norm of the value, over all samples."""
        return float(np.sqrt(np.sum(np.abs(self.val) ** 2)))

    def __getitem__(self, idx) -> "Jet":
        """Index the fiber axes, numpy style."""
        if not isinstance(idx, tuple):
            idx = (idx,)
        lead = (_ALL,) * self.nb
        return Jet(self.x, self.val[lead + idx],
                   None if self.d is None else self.d[lead + (_ALL,) + idx],
                   None if self.dd is None else self.dd[lead + (_ALL, _ALL) + idx])

    def __len__(self) -> int:
        return self.val.shape[self.nb]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self) -> str:
        return f"Jet(shape={np.shape(self.val)}, order={self.order})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        nb = self.nb
        if isinstance(other, Jet):
            if other.x is not self.x:
                check_point(self.x, other.x)
            k = np.ndim(self.val) - np.ndim(other.val)
            d = dd = None
            if self.d is not None and other.d is not None:
                d = _pad(self.d, nb + 1, -k) + _pad(other.d, nb + 1, k)
                if self.dd is not None and other.dd is not None:
                    dd = _pad(self.dd, nb + 2, -k) + _pad(other.dd, nb + 2, k)
            return Jet(self.x, _pad(self.val, nb, -k) + _pad(other.val, nb, k), d, dd)
        k = np.ndim(other) - (np.ndim(self.val) - nb)
        val = _pad(self.val, nb, k) + other
        shape = np.shape(val)
        if shape == np.shape(self.val):
            return Jet(self.x, val, self.d, self.dd)
        return Jet(self.x, val, *(None if a is None else np.broadcast_to(
            _pad(a, lead, k), a.shape[:lead] + shape[nb:])
            for lead, a in ((nb + 1, self.d), (nb + 2, self.dd))))

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
                return Jet.constant(np.ones(np.shape(self.val)[self.nb:]), self.x,
                                    self.order)
            v = self.val
            return self._chain(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))
        raise TypeError("only integer powers; use jet_sqrt for square roots")

    # -- chain rule core ----------------------------------------------------

    def _chain(self, f, fp, fpp) -> "Jet":
        """Compose elementwise with a function given f(v), f'(v), f''(v)."""
        nb = self.nb
        d = dd = None
        if self.d is not None:
            d = _pad(fp, nb, 1) * self.d
            if self.dd is not None:
                dd = (_pad(fpp, nb, 2) * (_pad(self.d, nb + 1, 1) * _pad(self.d, nb, 1))
                      + _pad(fp, nb, 2) * self.dd)
        return Jet(self.x, f, d, dd)


def _product(a, b, op) -> Jet:
    """op(a, b) for an op bilinear on the fiber (np.multiply or np.matmul),
    by the product rule; one of a, b may be a constant fiber array."""
    if not isinstance(b, Jet) or not isinstance(a, Jet):
        jet, const = (a, np.asarray(b)) if isinstance(a, Jet) else (b, np.asarray(a))
        nb = jet.nb
        k = const.ndim - (np.ndim(jet.val) - nb)
        f = ((lambda t: op(t, const)) if jet is a else (lambda t: op(const, t)))
        return Jet(jet.x, *(None if t is None else f(_pad(t, lead, k)) for lead, t in
                            ((nb, jet.val), (nb + 1, jet.d), (nb + 2, jet.dd))))
    if a.x is not b.x:
        check_point(a.x, b.x)
    nb = a.nb
    k = np.ndim(a.val) - np.ndim(b.val)
    av, bv = _pad(a.val, nb, -k), _pad(b.val, nb, k)
    d = dd = None
    if a.d is not None and b.d is not None:
        ad, bd = _pad(a.d, nb + 1, -k), _pad(b.d, nb + 1, k)
        d = op(ad, _pad(bv, nb, 1)) + op(_pad(av, nb, 1), bd)
        if a.dd is not None and b.dd is not None:
            # summed in place, in the order of the expression it replaces
            dd = op(_pad(a.dd, nb + 2, -k), _pad(bv, nb, 2)).astype(
                np.result_type(a.val, a.d, a.dd, b.val, b.d, b.dd), copy=False)
            cross = op(_pad(ad, nb + 1, 1), _pad(bd, nb, 1))
            dd += cross
            dd += cross.swapaxes(nb, nb + 1)
            del cross
            dd += op(_pad(av, nb, 2), _pad(b.dd, nb + 2, k))
    return Jet(a.x, op(av, bv), d, dd)


def _matmul(a, b) -> Jet:
    """a @ b on the fiber axes: a 1-D left factor is lifted to a row and a
    1-D right factor to a column, so derivative axes never meet the product."""
    if not isinstance(a, Jet):
        a = np.asarray(a)
    if not isinstance(b, Jet):
        b = np.asarray(b)
    row = (a.ndim if isinstance(a, np.ndarray) else np.ndim(a.val) - a.nb) == 1
    col = (b.ndim if isinstance(b, np.ndarray) else np.ndim(b.val) - b.nb) == 1
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


def index_contract(family: Jet, v: Jet) -> Jet:
    """sum_i M_i v_i for a family of matrices M, fiber (n, p, q), and a family
    of vectors v, fiber (n, q), or of blocks of K columns, fiber (n, q, K):
    one product summed over the index axis."""
    col = np.ndim(v.val) - v.nb == 2
    return (family @ v[..., None])[..., 0].sum() if col else (family @ v).sum()


def jet_sqrt(x: Jet) -> Jet:
    r = np.sqrt(x.val)
    return x._chain(r, 0.5 / r, -0.25 / (r * x.val))


def seed_point(x: Sequence[float], order: int = 2) -> Jet:
    """The coordinate functions at x (n,), or at each row of a stack (P, n), as
    one jet with fiber (n,), seeded for differentiation: d[k, i] = delta_ki."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return Jet(x, x, np.broadcast_to(np.eye(n), x.shape + (n,)) if order >= 1 else None,
               np.zeros(x.shape + (n, n)) if order >= 2 else None)
