"""Jet-valued differential forms and first-order operators on them.

A form is a Jet whose fiber is the blade axis of length 2^n, slot M for the
blade with bitmask M; a vector field is a Jet with fiber (n,).  Every
operator here is a product with the fixed structure tensors of
``clifford.blade_tables`` and consumes jet orders instead of discretizing:
applying a first-order operator to an order-k input yields an order-(k-1)
output with no truncation error, so composite identities (d^2 = 0, Cartan
relations, dual-route coderivatives) hold to rounding.  The blade axis may
be followed by further fiber axes (form-valued sections, fiber (2^n, m)),
which ``exterior_derivative`` and ``iota_vector`` carry along.
PolyField is the one polynomial coefficient field type the checks draw from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iterproduct
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .charts import MetricJet
from .clifford import blade_tables, contract, grades, reorder_sign, wedge_table
from .jets import Jet, check_point


class JetOrderError(ValueError):
    """An operator needed more derivative orders than the jet carries."""


class DegreeError(ValueError):
    """Operation requires a degree-homogeneous form."""


# ---------------------------------------------------------------------------
# forms on the blade axis
# ---------------------------------------------------------------------------


def degrees(j: Jet) -> set:
    """Degrees of the blades whose jet is not identically zero."""
    live = j.val != 0
    for a in (j.d, j.dd):
        if a is not None:
            live = live | np.any(a.reshape(-1, a.shape[-1]) != 0, axis=0)
    return set(grades(j.n)[live].tolist())


def degree(j: Jet) -> int:
    degs = degrees(j)
    if len(degs) > 1:
        raise DegreeError(f"mixed degrees {sorted(degs)}")
    return degs.pop() if degs else 0


def coefficient(j: Jet, indices: Sequence[int]) -> complex:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return complex(j.val[mask])


def _weighted(table: np.ndarray, w: Jet) -> Jet:
    """Operator jet sum_i w_i table[i] from the weight jet w (fiber (n,))."""
    return w.map(lambda a: contract(a, table))


def wedge_forms(a: Jet, b: Jet) -> Jet:
    return _weighted(wedge_table(a.n), a) @ b


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
    table = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    table.setflags(write=False)
    return table


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
        hit = (monos, index.reshape(mults.shape), mults)
        for a in hit:
            a.setflags(write=False)
        _JET_TABLES[key] = hit
    return hit


@dataclass
class PolyField:
    """Polynomial field sum_t coeffs[t] x^exponents[t] with values in C^shape.

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
        if self.exponents.shape != (len(self.coeffs), self.n):
            raise ValueError(f"exponents {self.exponents.shape} do not match "
                             f"{len(self.coeffs)} terms in {self.n} variables")
        if self.masks is not None and self.coeffs.shape[1:2] != (len(self.masks),):
            raise ValueError("a form field needs one blade mask per slot of its "
                             "first fiber axis")

    def _rows(self, x, order: int) -> np.ndarray:
        """Jet rows (value, d_k, d_k d_l) by fiber slot, shape (rows, slots).

        All monomial jets are evaluated at once and contracted with the
        coefficients in one product.
        """
        monos, index, mults = _jet_table(self.exponents)
        rows = (1, 1 + self.n, 1 + self.n + self.n ** 2)[order]
        values = np.multiply.reduce(np.asarray(x, dtype=float) ** monos, axis=1)
        coeffs = self.coeffs.reshape(len(self.coeffs), prod(self.coeffs.shape[1:]))
        return (mults[:rows] * values[index[:rows]]) @ coeffs

    def jet(self, x, order: int = 2):
        """Value, gradient and Hessian at x, shaped S, (n, *S), (n, n, *S);
        orders above ``order`` are None."""
        n = self.n
        shape = self.coeffs.shape[1:]
        out = self._rows(x, order)
        d = out[1:1 + n].reshape((n,) + shape) if order >= 1 else None
        dd = out[1 + n:].reshape((n, n) + shape) if order >= 2 else None
        return out[0].reshape(shape), d, dd

    def eval(self, x, order: int = 2) -> Jet:
        """The jet at x, with a form's slots placed on the blade axis."""
        x = np.asarray(x, dtype=float)
        parts = self.jet(x, order)
        if self.masks is None:
            return Jet(x, *parts)

        def on_blade_axis(a, lead):
            if a is None:
                return None
            out = np.zeros(a.shape[:lead] + (1 << self.n,) + a.shape[lead + 1:],
                           dtype=complex)
            out[(slice(None),) * lead + (list(self.masks),)] = a
            return out

        return Jet(x, *map(on_blade_axis, parts, (0, 1, 2)))

    @staticmethod
    def zero(n: int, shape: tuple = ()) -> "PolyField":
        return PolyField(n, np.zeros((0, n), dtype=np.int64),
                         np.zeros((0,) + tuple(shape), dtype=complex))


def blade_field(n: int, fields: Dict[int, PolyField], shape: tuple) -> PolyField:
    """One field of fiber (2^n, *shape) out of fields of fiber ``shape`` keyed
    by blade mask, over the union of their monomials; absent blades are zero."""
    rows: Dict[tuple, int] = {}
    for f in fields.values():
        for e in map(tuple, f.exponents.tolist()):
            rows.setdefault(e, len(rows))
    coeffs = np.zeros((len(rows), 1 << n) + tuple(shape), dtype=complex)
    for mask, f in fields.items():
        coeffs[[rows[e] for e in map(tuple, f.exponents.tolist())], mask] = f.coeffs
    exponents = np.array(list(rows), dtype=np.int64).reshape(len(rows), n)
    return PolyField(n, exponents, coeffs)


def random_poly_field(rng, n: int, shape: tuple = (), degree: int = 2,
                      complex_coeffs: bool = False,
                      masks: Optional[Tuple[int, ...]] = None) -> PolyField:
    """Random polynomial field, coefficients uniform in [-1, 1].

    The draw order is entries row-major, then terms, then real before
    imaginary part: one vectorized call gives the same stream as the loop
    of scalar draws it replaces.
    """
    exps = exponent_table(n, degree)
    size = (prod(shape), len(exps))
    if complex_coeffs:
        draws = rng.uniform(-1.0, 1.0, size=size + (2,)).view(complex)[..., 0]
    else:
        draws = rng.uniform(-1.0, 1.0, size=size).astype(complex)
    coeffs = np.ascontiguousarray(draws.T).reshape((len(exps),) + tuple(shape))
    return PolyField(n, exps, coeffs, masks)


def random_poly_scalar(rng, n: int, degree: int = 2,
                       complex_coeffs: bool = False) -> PolyField:
    return random_poly_field(rng, n, (), degree, complex_coeffs)


def random_poly_vector(rng, n: int, degree: int = 2) -> PolyField:
    return random_poly_field(rng, n, (n,), degree)


def random_poly_form(rng, n: int, p: int, degree: int = 2,
                     complex_coeffs: bool = False) -> PolyField:
    masks = tuple(m for m in range(1 << n) if bin(m).count("1") == p)
    return random_poly_field(rng, n, (len(masks),), degree, complex_coeffs,
                             masks=masks)


# ---------------------------------------------------------------------------
# metric-free operators: d, iota, wedge, Lie
# ---------------------------------------------------------------------------


def exterior_derivative(j: Jet) -> Jet:
    """d = eps_i partial_i on the blade axis (the first fiber axis)."""
    if j.d is None:
        raise JetOrderError("exterior derivative needs an order >= 1 jet")
    eps = blade_tables(j.n)[0]
    val = np.einsum("iab,ib...->a...", eps, j.d)
    d = np.einsum("iab,kib...->ka...", eps, j.dd) if j.dd is not None else None
    return Jet(j.x, val, d)


def iota_vector(X: Jet, j: Jet) -> Jet:
    """Interior product with the tautological pairing <dx^i, X> = X^i."""
    return _weighted(blade_tables(j.n)[1], X) @ j


def lie_derivative(X: Jet, j: Jet) -> Jet:
    """Via d iota(X) + iota(X) d, the algebraic characterization of L_X."""
    return exterior_derivative(iota_vector(X, j)) + iota_vector(X, exterior_derivative(j))


def _gradient(X: Jet) -> Jet:
    """The jet of the derivatives d[k, ...] of X, fiber (n, *S), one order lower."""
    if X.d is None:
        raise JetOrderError("gradient needs an order >= 1 jet")
    return Jet(X.x, X.d, X.dd)


def vector_bracket(X: Jet, Y: Jet) -> Jet:
    """[X, Y]^i = X^a d_a Y^i - Y^a d_a X^i."""
    return X @ _gradient(Y) - Y @ _gradient(X)


def pair_vector_form(X: Jet, v: Jet) -> Jet:
    """<X, v> for a 1-form jet v."""
    if not degrees(v) <= {1}:
        raise DegreeError("pairing defined against 1-forms")
    return X @ v[1 << np.arange(v.n)]


# ---------------------------------------------------------------------------
# metric-dependent pieces
# ---------------------------------------------------------------------------


def sqrt_det_jet(mj: MetricJet) -> Jet:
    return Jet(mj.x, mj.sqrt_abs_det, mj.dsqrt, mj.ddsqrt)


def volume_form(mj: MetricJet, x, orientation: int = 1) -> Jet:
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    top = np.zeros(1 << mj.n)
    top[-1] = orientation
    return Jet(np.asarray(x, dtype=float), *(np.multiply.outer(a, top) for a in
                                             (mj.sqrt_abs_det, mj.dsqrt, mj.ddsqrt)))


def gram_pairing(a: Jet, b: Jet, mj: MetricJet) -> complex:
    """Sesquilinear pairing: blades of equal degree paired by det g^{i_a j_b}."""
    check_point(a.x, b.x)
    return complex(np.conj(a.val) @ mj.compound_inverse.val @ b.val)


@lru_cache(maxsize=None)
def _complement_signs(n: int) -> np.ndarray:
    """P[M, M^c] = sign of the permutation (blade(M^c), blade(M)), M^c the complement."""
    full = (1 << n) - 1
    out = np.zeros((1 << n, 1 << n))
    for m in range(1 << n):
        out[m, full ^ m] = reorder_sign(full ^ m, m)
    out.setflags(write=False)
    return out


def hodge_star(j: Jet, mj: MetricJet, orientation: int = 1) -> Jet:
    """Antilinear star sqrt|det g| P Lambda(g^-1) conj(j): conjugates
    coefficients, raises them with g^-1 and complements blades."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    raised = mj.compound_inverse @ (j.conj() * sqrt_det_jet(mj))
    signs = orientation * _complement_signs(j.n).T
    return raised.map(lambda a: a @ signs)


def _det_sign(mj: MetricJet) -> int:
    return 1 if mj.det > 0 else -1


def coderivative_hodge(j: Jet, mj: MetricJet, orientation: int = 1) -> Jet:
    """d* = (-1)^(n(p+1)+1) sgn(det g) * d * on degree-p input."""
    if not degrees(j):
        return Jet.constant(np.zeros(1 << j.n), j.x)
    p = degree(j)
    n = mj.n
    sign = (-1) ** (n * (p + 1) + 1) * _det_sign(mj)
    return hodge_star(exterior_derivative(hodge_star(j, mj, orientation)),
                      mj, orientation) * float(sign)


@lru_cache(maxsize=None)
def _derivation_table(n: int) -> np.ndarray:
    """eps_m iota_j, shape (n, n, 2^n, 2^n): the derivation replacing dx^j by dx^m."""
    eps, iota = blade_tables(n)
    out = np.einsum("mab,jbc->mjac", eps, iota)
    out.setflags(write=False)
    return out


def levi_civita_exterior_connection(mj: MetricJet) -> List[Jet]:
    """Connection matrices A_a of the Levi-Civita derivative on form coefficients.

    nabla_a dx^j = -Gamma^j_am dx^m extends to forms as the derivation
    A_a = -Gamma^j_am eps_m iota_j, so nabla_a = partial_a + A_a on the blade
    axis; A_a carries a 1-jet.
    """
    table = _derivation_table(mj.n)
    val = -np.einsum("jam,mjxy->axy", mj.christoffel, table)
    d = -np.einsum("ljam,mjxy->alxy", mj.dchristoffel, table)
    return [Jet(mj.x, val[a], d[a]) for a in range(mj.n)]


def exterior_gammas(mj: MetricJet) -> List[Jet]:
    """Clifford action c(dx^i) = eps_i - g^ij iota_j on the blade axis, with
    the exact jets of g^-1."""
    eps, iota = blade_tables(mj.n)
    val = eps - contract(mj.g_inv, iota)
    d = -contract(mj.dg_inv, iota)
    dd = -contract(mj.d2g_inv, iota)
    return [Jet(mj.x, val[i], d[:, i], dd[:, :, i]) for i in range(mj.n)]


def covariant_derivative(j: Jet, mj: MetricJet) -> List[Jet]:
    """Levi-Civita nabla_a = partial_a + A_a of a form jet, one jet per direction a."""
    return [j.partial(a) + A @ j
            for a, A in enumerate(levi_civita_exterior_connection(mj))]


def coderivative_connection(j: Jet, mj: MetricJet) -> Jet:
    """d* = -iota(nabla) = -g^aj iota_j nabla_a, the connection route."""
    iota = blade_tables(j.n)[1]
    val, d = -contract(mj.g_inv, iota), -contract(mj.dg_inv, iota)
    terms = [Jet(mj.x, val[a], d[:, a]) @ nab
             for a, nab in enumerate(covariant_derivative(j, mj))]
    return sum(terms[1:], terms[0])


def forms_dirac(j: Jet, mj: MetricJet) -> Jet:
    """c(dx^a) nabla_a with the Clifford action c = epsilon - iota."""
    terms = [gam @ nab
             for gam, nab in zip(exterior_gammas(mj), covariant_derivative(j, mj))]
    return sum(terms[1:], terms[0])


def laplace_beltrami(f: Jet, mj: MetricJet) -> complex:
    """Positive-spectrum scalar Laplacian -g^ij (d_i d_j f - Gamma^k_ij d_k f)."""
    if f.dd is None:
        raise JetOrderError("laplace_beltrami needs an order-2 jet")
    return -complex(np.sum(mj.g_inv * (f.dd - np.tensordot(f.d, mj.christoffel, 1))))
