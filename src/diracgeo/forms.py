"""Jet-valued differential forms and first-order operators on them.

A form is a Jet whose fiber is the blade axis of length 2^n, slot M for the
blade with bitmask M; a vector field is a Jet with fiber (n,).  Every operator
here is a product with the fixed structure tensors of ``clifford.blade_tables``
and consumes jet orders instead of discretizing: applying a first-order
operator to an order-k input yields an order-(k-1) output with no truncation
error, so composite identities (d^2 = 0, Cartan relations, dual-route
coderivatives) hold to rounding; iota and the wedge contract their dense table
with one operand first (``_bilinear``).  The blade axis may be followed by
further fiber axes: a form-valued section (2^n, m), which
``exterior_derivative`` and ``iota_vector`` carry along, or a block of K forms
(2^n, K), one column per degree or draw, on which the star, both coderivatives,
D = d + d* and the wedge and pairing of two blocks act column by column.  d*
takes its sign per output blade M, so it is defined on any form.  PolyField is
the one polynomial coefficient field type the checks draw from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iterproduct
from math import prod
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .charts import MetricJet
from .clifford import blade_tables, grades, reorder_sign, wedge_table
from .jets import Jet, check_point, frozen, index_contract, point_stack


class JetOrderError(ValueError):
    """An operator needed more derivative orders than the jet carries."""


# ---------------------------------------------------------------------------
# forms on the blade axis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tables(kind: str, n: int) -> tuple:
    """T[i, a, b] of "iota" or "wedge" as the matrices of v -> M(v), u -> M'(u)^T."""
    table = (blade_tables(n)[1] if kind == "iota" else wedge_table(n)).real
    return frozen((table.reshape(-1, 1 << n).T.copy(),
                   table.transpose(0, 2, 1).reshape(len(table), -1)))


def _bilinear(kind: str, u: Jet, v: Jet) -> Jet:
    """sum_ib T[i, a, b] u_i v_b, v's blade axis b followed by any fiber axes,
    which u's own axes after its blade axis meet from the right (two blocks
    (2^n, K): column by column).  Curried through M(v) = sum_b T[., ., b] v_b
    and M'(u) = sum_i u_i T[i]: d = u' M(v) + M'(u) v' and dd = u'' M(v) +
    M'(u) v'' + C + C^T, C[k, l] = u'_k M(v'_l), each term one matmul batched
    over the samples and fiber axes, whose rows are the derivative axes."""
    check_point(u.x, v.x)
    n, order = u.n, min(u.order, v.order)
    s, r = u.val.ndim - 2, v.val.ndim - 2
    t = max(s, r)

    def rows(a, k: int, m: int) -> np.ndarray:
        """(samples, k fiber axes padded to t, m derivative axes as one, blade)."""
        a = np.moveaxis(a, range(1, m + 2), range(-m - 1, 0)) if k else a
        return a.reshape(a.shape[:1] + (1,) * (t - k) + a.shape[1:1 + k] + (-1, a.shape[-1]))

    def curry(a, table):
        return (a.reshape(-1, a.shape[-1]) @ table).reshape(a.shape[:-1] + (-1, 1 << n))

    t_v, t_u = _tables(kind, n)
    U = [rows(a, s, m) for m, a in enumerate((u.val, u.d, u.dd)[:order + 1])]
    V = [rows(a, r, m) for m, a in enumerate((v.val, v.d, v.dd)[:order + 1])]
    Mv = curry(V[0], t_v)[..., 0, :, :]
    out = [(U[0] @ Mv)[..., 0, :]]
    if order:
        Mu = curry(U[0], t_u)[..., 0, :, :]
        out.append(U[1] @ Mv + V[1] @ Mu)
    if order == 2:
        C = U[1][..., None, :, :] @ curry(V[1], t_v)
        out.append((U[2] @ Mv + V[2] @ Mu).reshape(C.shape) + C + C.swapaxes(-3, -2))
    return Jet(u.x, *(np.moveaxis(a, range(-m - 1, 0), range(1, m + 2)) if t else a
                      for m, a in enumerate(out)))


def wedge_forms(a: Jet, b: Jet) -> Jet:
    return _bilinear("wedge", a, b)


# ---------------------------------------------------------------------------
# polynomial coefficient fields (test-section plumbing)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def exponent_table(n: int, degree: int) -> np.ndarray:
    """Exponents of the monomials of total degree <= degree, shape (T, n).

    Rows follow ``itertools.product`` order, the order in which coefficients
    are drawn, so a seed picks the same field on every version.
    """
    rows = [e for e in _iterproduct(range(degree + 1), repeat=n) if sum(e) <= degree]
    return frozen(np.array(rows, dtype=np.int64).reshape(len(rows), n))


_JET_TABLES: Dict[tuple, tuple] = {}


def _jet_table(exponents: np.ndarray) -> tuple:
    """Monomials U, and indices (R, T) into U with multipliers (R, T), such
    that row r of the jet of x^E is mults[r] * x^U[index[r]].

    Row 0 is the monomial, row 1 + k its partial d_k, row 1 + n + k n + l its
    second partial d_k d_l (Griewank & Walther, Evaluating Derivatives, ch. 13).
    Cached per exponent table.
    """
    key = (exponents.shape, exponents.tobytes())
    hit = _JET_TABLES.get(key)
    if hit is None:
        T, n = exponents.shape
        eye = np.eye(n, dtype=np.int64)
        p1 = exponents[None] - eye[:, None]                # [k, t, i]
        m1 = exponents.T.astype(float)                     # e_k
        p2 = p1[:, None] - eye[None, :, None]              # [k, l, t, i]
        m2 = m1[:, None] * p1.transpose(0, 2, 1)           # e_k (e_l - delta_kl)
        powers = np.concatenate([exponents[None], p1, p2.reshape(n * n, T, n)])
        mults = np.concatenate([np.ones((1, T)), m1, m2.reshape(n * n, T)])
        # a zero multiplier marks a vanished term; clip its negative power
        monos, index = np.unique(np.maximum(powers, 0).reshape(-1, n), axis=0,
                                 return_inverse=True)
        hit = _JET_TABLES[key] = frozen((monos, index.reshape(mults.shape), mults))
    return hit


def _jet_rows(n: int, order: int) -> int:
    """The number of jet rows (value, d_k, d_k d_l) up to ``order``."""
    return (1, 1 + n, 1 + n + n * n)[order]


def _monomial_rows(exponents: np.ndarray, x, order: int) -> np.ndarray:
    """The jet rows of every monomial x^E at x, shape (..., rows, T): all
    monomial jets at all points at once, for a product with coefficients
    (P, T, E)."""
    monos, index, mults = _jet_table(exponents)
    rows = _jet_rows(exponents.shape[1], order)
    values = np.multiply.reduce(np.asarray(x, dtype=float)[..., None, :] ** monos, axis=-1)
    return mults[:rows] * values[..., index[:rows]]


def _split_rows(out: np.ndarray, n: int, order: int, shape: tuple) -> tuple:
    """Jet rows (..., rows, slots) as views shaped S, (n, *S), (n, n, *S) behind
    the leading axes, for a fiber S of ``shape``; orders above ``order`` are None."""
    lead = out.shape[:-2]
    d = out[..., 1:1 + n, :].reshape(lead + (n,) + shape) if order >= 1 else None
    dd = out[..., 1 + n:, :].reshape(lead + (n, n) + shape) if order >= 2 else None
    return out[..., 0, :].reshape(lead + shape), d, dd


@dataclass
class PolyField:
    """P polynomial fields sum_t coeffs[k, t] x^exponents[t] with values in
    C^shape, over one exponent table: coeffs (P, T, *S), field k evaluated at
    point k of a stack x (P, n), and a stack of one at every point.

    The fiber shape says what the field is: () a scalar, (n,) a vector
    field, (m,) a section, (m, m) an endomorphism.  With ``masks`` the first
    fiber axis is a list of blades: its slot b holds the coefficients of
    blade ``masks[b]``, and ``eval`` places them on the 2^n blade axis, so
    (B,) is a form and (B, m) a form-valued section.
    """

    n: int
    exponents: np.ndarray
    coeffs: np.ndarray
    masks: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        terms = self.coeffs.shape[1:]
        if self.exponents.shape != terms[:1] + (self.n,):
            raise ValueError(f"exponents {self.exponents.shape} do not match "
                             f"{terms[0]} terms in {self.n} variables")
        if self.masks is not None and terms[1:2] != (len(self.masks),):
            raise ValueError("a form field needs one blade mask per slot of its "
                             "first fiber axis")

    @staticmethod
    def stack(fields: Sequence["PolyField"]) -> "PolyField":
        """Stacks of fields with one exponent table as one stack; forms whose
        masks differ are first spread onto the full blade axis."""
        f0 = fields[0]
        if any(f.masks != f0.masks for f in fields):
            fields = [f.on_blade_axis() for f in fields]
        return PolyField(f0.n, f0.exponents, np.concatenate([f.coeffs for f in fields]),
                         fields[0].masks)

    def on_blade_axis(self) -> "PolyField":
        """The same form with its slots placed on the 2^n blade axis."""
        lead = self.coeffs.shape[:2]
        coeffs = np.zeros(lead + (1 << self.n,) + self.coeffs.shape[3:], dtype=complex)
        coeffs[:, :, list(self.masks)] = self.coeffs
        return PolyField(self.n, self.exponents, coeffs)

    def jet(self, x, order: int = 2):
        """Value, gradient and Hessian at x, shaped S, (n, *S), (n, n, *S),
        behind the leading axes of x; orders above ``order`` are None.  The
        monomial jets meet the coefficients in one product."""
        lead, fiber = self.coeffs.shape[:2], self.coeffs.shape[2:]
        rows = _monomial_rows(self.exponents, x, order) @ self.coeffs.reshape(lead + (prod(fiber),))
        return _split_rows(rows, self.n, order, fiber)

    def eval(self, x, order: int = 2) -> Jet:
        """The jet at the stack of points x, with a form's slots placed on the
        blade axis."""
        if self.masks is not None:
            return self.on_blade_axis().eval(x, order)
        x = point_stack(x)
        return Jet(x, *self.jet(x, order))


class FieldLayout(NamedTuple):
    """A random PolyField's variables, fiber shape, degree, coefficient kind
    and blade masks: the arguments of ``random_poly_field``."""

    n: int
    shape: tuple = ()
    degree: int = 2
    complex_coeffs: bool = False
    masks: Optional[Tuple[int, ...]] = None

    @staticmethod
    def form(n: int, p: int, complex_coeffs: bool = False, degree: int = 2) -> "FieldLayout":
        masks = tuple(m for m in range(1 << n) if bin(m).count("1") == p)
        return FieldLayout(n, (len(masks),), degree, complex_coeffs, masks)

    @property
    def size(self) -> int:
        """The uniform draws of one field."""
        terms = len(exponent_table(self.n, self.degree))
        return prod(self.shape) * terms * (1 + self.complex_coeffs)


def poly_fields(draws: np.ndarray, layouts: Sequence[FieldLayout]) -> list:
    """The fields of ``layouts`` cut in turn from uniform(-1, 1) draws, each
    entries row-major, then terms, then real before imaginary part: draw
    rows (P, D) give a stack of P fields per layout."""
    P, out, at = len(draws), [], 0
    for lay in layouts:
        exps = exponent_table(lay.n, lay.degree)
        block, at = draws[:, at:at + lay.size], at + lay.size
        block = block.view(complex) if lay.complex_coeffs else block.astype(complex)
        coeffs = block.reshape(P, -1, len(exps)).swapaxes(-1, -2)
        out.append(PolyField(lay.n, exps, np.ascontiguousarray(coeffs).reshape(
            (P, len(exps)) + lay.shape), lay.masks))
    return out


def random_poly_field(rng, n: int, shape: tuple = (), degree: int = 2,
                      complex_coeffs: bool = False,
                      masks: Optional[Tuple[int, ...]] = None) -> PolyField:
    """Random polynomial field, a stack of one, coefficients uniform in
    [-1, 1], drawn in one call in the order of ``poly_fields``: the same
    stream as the loop of scalar draws it replaces."""
    lay = FieldLayout(n, tuple(shape), degree, complex_coeffs, masks)
    return poly_fields(rng.uniform(-1.0, 1.0, (1, lay.size)), [lay])[0]


# ---------------------------------------------------------------------------
# metric-free operators: d, iota, wedge, Lie
# ---------------------------------------------------------------------------


def exterior_derivative(j: Jet) -> Jet:
    """d = eps_i partial_i on the blade axis (the first fiber axis)."""
    if j.d is None:
        raise JetOrderError("exterior derivative needs an order >= 1 jet")
    eps = blade_tables(j.n)[0]
    table = eps.transpose(1, 0, 2).reshape(len(eps[0]), -1)      # [a, (i, b)]

    def apply(a, lead):
        shape = a.shape[:lead] + a.shape[lead + 1:]
        return (table @ a.reshape(a.shape[:lead] + (table.shape[1], -1))).reshape(shape)

    return Jet(j.x, apply(j.d, 1), apply(j.dd, 2) if j.dd is not None else None)


def iota_vector(X: Jet, j: Jet) -> Jet:
    """Interior product with the tautological pairing <dx^i, X> = X^i."""
    return _bilinear("iota", X, j)


def lie_derivative(X: Jet, j: Jet) -> Jet:
    """Via d iota(X) + iota(X) d, the algebraic characterization of L_X."""
    return exterior_derivative(iota_vector(X, j)) + iota_vector(X, exterior_derivative(j))


def vector_bracket(X: Jet, Y: Jet) -> Jet:
    """[X, Y]^i = X^a d_a Y^i - Y^a d_a X^i."""
    return X @ Y.gradient() - Y @ X.gradient()


# ---------------------------------------------------------------------------
# metric-dependent pieces
# ---------------------------------------------------------------------------


def sqrt_det_jet(mj: MetricJet) -> Jet:
    return Jet(mj.x, mj.sqrt_abs_det, mj.dsqrt, mj.ddsqrt)


def volume_form(mj: MetricJet) -> Jet:
    """sqrt|det g| dx^1 ^ ... ^ dx^n at the points of ``mj``."""
    top = np.eye(1 << mj.n)[-1]
    return Jet(mj.x, *(np.multiply.outer(a, top) for a in
                       (mj.sqrt_abs_det, mj.dsqrt, mj.ddsqrt)))


def gram_pairing(a: Jet, b: Jet, mj: MetricJet):
    """Sesquilinear pairing: blades of equal degree paired by det g^{i_a j_b};
    one complex number per sample, and per column of two blocks (2^n, K)."""
    check_point(a.x, b.x)
    raised = (mj.compound_inverse @ b.truncate(0)).val
    return np.sum(np.conj(a.val) * raised, axis=1)


@lru_cache(maxsize=None)
def _complement_signs(n: int) -> np.ndarray:
    """s[M] = sign of the permutation (blade(M^c), blade(M)), M^c the complement."""
    full = (1 << n) - 1
    return frozen(np.array([float(reorder_sign(full ^ m, m)) for m in range(1 << n)]))


def _star(j: Jet, mj: MetricJet, signs: np.ndarray) -> Jet:
    """signs[M] times blade M^c of sqrt|det g| Lambda(g^-1) conj(j), on the
    blade axis; M^c = 2^n - 1 - M, so the complement reverses the axis."""
    raised = mj.compound_inverse @ (j.conj() * sqrt_det_jet(mj))
    r = j.val.ndim - 1
    signs = signs.reshape((-1,) + (1,) * (r - 1))
    return raised.map(lambda a: np.flip(a, -r) * signs)


def hodge_star(j: Jet, mj: MetricJet, orientation: int = 1) -> Jet:
    """Antilinear star sqrt|det g| P Lambda(g^-1) conj(j): conjugates
    coefficients, raises them with g^-1 and complements blades."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return _star(j, mj, orientation * _complement_signs(j.n))


def coderivative_hodge(j: Jet, mj: MetricJet) -> Jet:
    """d* = (-1)^(n(|M|+2)+1) sgn(det g) * d * on output blade M, which is
    (-1)^(n(p+1)+1) sgn(det g) * d * on degree-p input: a sign per blade, so
    d* is defined on any form.  The star enters twice, so d* does not depend
    on the orientation."""
    signs = _complement_signs(j.n) * -(-1.0) ** (j.n * grades(j.n))
    return _star(exterior_derivative(hodge_star(j, mj)), mj, signs).scale(np.sign(mj.det))


def covariant_derivative(j: Jet, mj: MetricJet) -> Jet:
    """Levi-Civita nabla_a = partial_a + A_a of a form jet, the direction a
    on the first fiber axis."""
    return j.gradient() + mj.exterior_connection @ j


def coderivative_connection(j: Jet, mj: MetricJet) -> Jet:
    """d* = -iota(nabla) = -g^aj iota_j nabla_a, the connection route."""
    return -index_contract(mj.raised_iota, covariant_derivative(j, mj))


def forms_dirac(j: Jet, mj: MetricJet) -> Jet:
    """c(dx^a) nabla_a with the Clifford action c = epsilon - iota."""
    return index_contract(mj.exterior_gammas, covariant_derivative(j, mj))


def laplace_beltrami(f: Jet, mj: MetricJet):
    """Positive-spectrum scalar Laplacian -g^ij (d_i d_j f - Gamma^k_ij d_k f)
    on a block of scalars, fiber (K,): one complex number per sample and column."""
    check_point(mj.x, f.x)
    if f.dd is None:
        raise JetOrderError("laplace_beltrami needs an order-2 jet")
    hess = f.dd - np.einsum("...kc,...kij->...ijc", f.d, mj.christoffel)
    return -np.sum(mj.g_inv[..., None] * hess, axis=(-3, -2))
