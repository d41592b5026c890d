"""Jet-valued differential forms and first-order operators on them.

A FormJet holds a form's coefficient jets on the blade axis of length 2^n,
slot M for the blade with bitmask M, in the layout of a SectionJet.  Every
operator here is a product with the fixed structure tensors of
``clifford.blade_tables`` and consumes jet orders instead of discretizing:
applying a first-order operator to an order-k input yields an order-(k-1)
output with no truncation error, so composite identities (d^2 = 0, Cartan
relations, dual-route coderivatives) hold to rounding.
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
from .jets import MatrixJet, SectionJet, SJet


class JetOrderError(ValueError):
    """An operator needed more derivative orders than the jet carries."""


class DegreeError(ValueError):
    """Operation requires a degree-homogeneous form."""


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


@dataclass
class VectorJet:
    """Vector field jet: components X^i as scalar jets at a common point."""

    n: int
    x: np.ndarray
    comps: List[SJet]

    @property
    def order(self) -> int:
        return min(c.order for c in self.comps)

    def values(self) -> np.ndarray:
        return np.array([c.val for c in self.comps])

    def jet(self):
        """Components as arrays X[i], d[k, i] = d_k X^i, dd[k, l, i];
        orders the components do not all carry are None."""
        order = self.order
        d = dd = None
        if order >= 1:
            d = np.array([c.d for c in self.comps]).T
        if order >= 2:
            dd = np.moveaxis(np.array([c.dd for c in self.comps]), 0, -1)
        return self.values(), d, dd


def _orders(*arrays) -> tuple:
    return tuple(a for a in arrays if a is not None)


@dataclass
class FormJet:
    """Differential form jet on the blade axis, laid out as a SectionJet with
    m = 2^n: val[M] is the coefficient of blade M, d[k, M] = d_k val[M] and
    dd[k, l, M] = d_k d_l val[M]; orders the jet does not carry are None."""

    n: int
    x: np.ndarray
    val: np.ndarray
    d: Optional[np.ndarray] = None
    dd: Optional[np.ndarray] = None
    chart: str = ""

    def __post_init__(self):
        if self.val.shape != (1 << self.n,):
            raise ValueError(f"form values of shape {self.val.shape} do not fill "
                             f"the {1 << self.n} blades of n={self.n}")

    @property
    def order(self) -> int:
        return len(_orders(self.d, self.dd))

    def partial(self, k: int) -> "FormJet":
        """The jet of the k-th partial derivative (one order lower)."""
        if self.d is None:
            raise JetOrderError("form jet carries no first-order data")
        dd = self.dd[k] if self.dd is not None else None
        return FormJet(self.n, self.x, self.d[k], dd, None, self.chart)

    def degrees(self) -> set:
        """Degrees of the blades whose jet is not identically zero."""
        live = self.val != 0
        for a in _orders(self.d, self.dd):
            live = live | np.any(a.reshape(-1, a.shape[-1]) != 0, axis=0)
        return set(grades(self.n)[live].tolist())

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise DegreeError(f"mixed degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def coefficient(self, indices: Sequence[int]) -> complex:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return complex(self.val[mask])

    def norm(self) -> float:
        """Euclidean norm of the pointwise coefficient vector."""
        return float(np.sqrt(np.sum(np.abs(self.val) ** 2)))

    def _compat(self, other: "FormJet") -> None:
        if self.n != other.n or (self.x is not other.x
                                 and not np.array_equal(self.x, other.x)):
            raise ValueError("form jets live at different points")

    def __add__(self, other: "FormJet") -> "FormJet":
        self._compat(other)
        d = self.d + other.d if self.d is not None and other.d is not None else None
        dd = self.dd + other.dd if self.dd is not None and other.dd is not None else None
        return FormJet(self.n, self.x, self.val + other.val, d, dd, self.chart)

    def __sub__(self, other: "FormJet") -> "FormJet":
        return self + other.scale(-1.0)

    def scale(self, s) -> "FormJet":
        d = self.d * s if self.d is not None else None
        dd = self.dd * s if self.dd is not None else None
        return FormJet(self.n, self.x, self.val * s, d, dd, self.chart)

    @staticmethod
    def zero(n: int, x, chart: str = "") -> "FormJet":
        dim = 1 << n
        return FormJet(n, np.asarray(x, dtype=float), np.zeros(dim, dtype=complex),
                       np.zeros((n, dim), dtype=complex),
                       np.zeros((n, n, dim), dtype=complex), chart)


def _weighted(n: int, table: np.ndarray, val, d, dd) -> MatrixJet:
    """Matrix jet of sum_i w_i table[i] from the weight jets w[i], d[k, i], dd[k, l, i]."""
    return MatrixJet(n, *(None if w is None else contract(w, table) for w in (val, d, dd)))


def _apply(op: MatrixJet, j: FormJet) -> FormJet:
    """Apply an operator jet on the blade axis to a form jet, product rule included."""
    s = op.apply(SectionJet(j.n, j.x, j.val, j.d, j.dd))
    return FormJet(j.n, j.x, s.v, s.d, s.dd, j.chart)


def wedge_forms(a: FormJet, b: FormJet) -> FormJet:
    a._compat(b)
    return _apply(_weighted(a.n, wedge_table(a.n), a.val, a.d, a.dd), b)


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

    The fiber shape says what the field is: () a scalar, (m,) a section,
    (m, m) an endomorphism, (B,) a form whose slot b holds the coefficient
    of blade ``masks[b]``.  An (n,) field with ``kind="vector"`` is a vector
    field.  ``kind`` is inferred from the shape and masks when left empty.
    """

    n: int
    exponents: np.ndarray
    coeffs: np.ndarray
    kind: str = ""
    masks: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.exponents.shape != (len(self.coeffs), self.n):
            raise ValueError(f"exponents {self.exponents.shape} do not match "
                             f"{len(self.coeffs)} terms in {self.n} variables")
        if not self.kind:
            self.kind = ("form" if self.masks is not None else
                         {1: "scalar", 2: "section", 3: "matrix"}.get(self.coeffs.ndim, ""))
        if self.kind not in ("scalar", "vector", "section", "matrix", "form"):
            raise ValueError(f"no field kind {self.kind!r} for fiber shape "
                             f"{self.coeffs.shape[1:]}")
        if self.kind == "form" and (self.masks is None
                                    or self.coeffs.shape[1:] != (len(self.masks),)):
            raise ValueError("a form field needs one blade mask per fiber slot")

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

    def eval(self, x, order: int = 2, chart: str = ""):
        """The jet at x in the container of the field's kind."""
        x = np.asarray(x, dtype=float)
        n = self.n
        if self.kind == "section":
            return SectionJet(n, x, *self.jet(x, order))
        if self.kind == "matrix":
            return MatrixJet(n, *self.jet(x, order))
        if self.kind == "form":
            def on_blade_axis(a):
                if a is None:
                    return None
                out = np.zeros(a.shape[:-1] + (1 << n,), dtype=complex)
                out[..., list(self.masks)] = a
                return out

            return FormJet(n, x, *map(on_blade_axis, self.jet(x, order)), chart=chart)
        # one scalar jet per slot, from contiguous rows of the transposed jet
        slots = self._rows(x, order).T.copy()
        jets = [SJet(n, v, row[1:1 + n] if order >= 1 else None,
                     row[1 + n:].reshape(n, n) if order >= 2 else None)
                for v, row in zip(slots[:, 0].tolist(), slots)]
        if self.kind == "scalar":
            return jets[0]
        return VectorJet(n, x, jets)

    @staticmethod
    def zero(n: int, shape: tuple = ()) -> "PolyField":
        return PolyField(n, np.zeros((0, n), dtype=np.int64),
                         np.zeros((0,) + tuple(shape), dtype=complex))


def random_poly_field(rng, n: int, shape: tuple = (), degree: int = 2,
                      complex_coeffs: bool = False, kind: str = "",
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
    return PolyField(n, exps, coeffs, kind, masks)


def random_poly_scalar(rng, n: int, degree: int = 2,
                       complex_coeffs: bool = False) -> PolyField:
    return random_poly_field(rng, n, (), degree, complex_coeffs)


def random_poly_vector(rng, n: int, degree: int = 2) -> PolyField:
    return random_poly_field(rng, n, (n,), degree, kind="vector")


def random_poly_form(rng, n: int, p: int, degree: int = 2,
                     complex_coeffs: bool = False) -> PolyField:
    masks = tuple(m for m in range(1 << n) if bin(m).count("1") == p)
    return random_poly_field(rng, n, (len(masks),), degree, complex_coeffs,
                             masks=masks)


# ---------------------------------------------------------------------------
# metric-free operators: d, iota, wedge, Lie
# ---------------------------------------------------------------------------


def exterior_derivative(j: FormJet) -> FormJet:
    """d = eps_i partial_i on the blade axis."""
    if j.d is None:
        raise JetOrderError("exterior derivative needs an order >= 1 jet")
    eps = blade_tables(j.n)[0]
    val = np.einsum("iab,ib->a", eps, j.d)
    d = np.einsum("iab,kib->ka", eps, j.dd) if j.dd is not None else None
    return FormJet(j.n, j.x, val, d, None, j.chart)


def iota_vector(X: VectorJet, j: FormJet) -> FormJet:
    """Interior product with the tautological pairing <dx^i, X> = X^i."""
    if not np.array_equal(X.x, j.x):
        raise ValueError("vector and form jets live at different points")
    return _apply(_weighted(j.n, blade_tables(j.n)[1], *X.jet()), j)


def lie_derivative(X: VectorJet, j: FormJet) -> FormJet:
    """Via d iota(X) + iota(X) d, the algebraic characterization of L_X."""
    return exterior_derivative(iota_vector(X, j)) + iota_vector(X, exterior_derivative(j))


def vector_bracket(X: VectorJet, Y: VectorJet) -> VectorJet:
    if not np.array_equal(X.x, Y.x):
        raise ValueError("vector jets live at different points")
    comps = []
    for i in range(X.n):
        acc = None
        for a in range(X.n):
            t = X.comps[a] * Y.comps[i].partial(a) - Y.comps[a] * X.comps[i].partial(a)
            acc = t if acc is None else acc + t
        comps.append(acc)
    return VectorJet(X.n, X.x, comps)


def pair_vector_form(X: VectorJet, v: FormJet) -> SJet:
    """<X, v> for a 1-form jet v."""
    if not v.degrees() <= {1}:
        raise DegreeError("pairing defined against 1-forms")
    slots = 1 << np.arange(v.n)
    acc = SJet.constant(0.0, X.n, order=2)
    for i, m in enumerate(slots):
        c = SJet(v.n, v.val[m], *(a[..., m] for a in _orders(v.d, v.dd)))
        acc = acc + X.comps[i] * c
    return acc


# ---------------------------------------------------------------------------
# metric-dependent pieces
# ---------------------------------------------------------------------------


def sqrt_det_jet(mj: MetricJet) -> SJet:
    return SJet(mj.n, mj.sqrt_abs_det, mj.dsqrt.astype(complex),
                mj.ddsqrt.astype(complex))


def volume_form(mj: MetricJet, x, orientation: int = 1, chart: str = "") -> FormJet:
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    vol = FormJet.zero(mj.n, x, chart)
    top = (1 << mj.n) - 1
    vol.val[top] = orientation * mj.sqrt_abs_det
    vol.d[:, top] = orientation * mj.dsqrt
    vol.dd[:, :, top] = orientation * mj.ddsqrt
    return vol


def _compound_inverse_metric(mj: MetricJet, order: int) -> MatrixJet:
    """Lambda(g^-1) on the blade axis with jets to ``order``.

    Column M is (g^-1 dx^{i_1}) ^ ... ^ (g^-1 dx^{i_p}), so entry [M', M] is
    the minor det g^{-1}[rows M', cols M].
    """
    n = mj.n
    eps = blade_tables(n)[0]
    metric = (mj.g_inv, mj.dg_inv, mj.d2g_inv)[:order + 1]
    cols = [SectionJet.constant(np.eye(1 << n)[0], n, mj.x, order)]
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        gen = MatrixJet(n, *(contract(a[..., low], eps) for a in metric))
        cols.append(gen.apply(cols[mask & (mask - 1)]))
    parts = ("v", "d", "dd")[:order + 1]
    return MatrixJet(n, *(np.moveaxis(np.array([getattr(c, k) for c in cols]), 0, -1)
                          for k in parts))


def gram_pairing(a: FormJet, b: FormJet, mj: MetricJet) -> complex:
    """Sesquilinear pairing: blades of equal degree paired by det g^{i_a j_b}."""
    a._compat(b)
    return complex(np.conj(a.val) @ _compound_inverse_metric(mj, 0).val @ b.val)


@lru_cache(maxsize=None)
def _complement_signs(n: int) -> np.ndarray:
    """P[M, M^c] = sign of the permutation (blade(M^c), blade(M)), M^c the complement."""
    full = (1 << n) - 1
    out = np.zeros((1 << n, 1 << n))
    for m in range(1 << n):
        out[m, full ^ m] = reorder_sign(full ^ m, m)
    out.setflags(write=False)
    return out


def hodge_star(j: FormJet, mj: MetricJet, orientation: int = 1) -> FormJet:
    """Antilinear star sqrt|det g| P Lambda(g^-1) conj(j): conjugates
    coefficients, raises them with g^-1 and complements blades."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    conj = SectionJet(j.n, j.x, *(np.conj(a) if a is not None else None
                                  for a in (j.val, j.d, j.dd)))
    raised = _compound_inverse_metric(mj, 2).apply(conj.scale_jet(sqrt_det_jet(mj)))
    signs = orientation * _complement_signs(j.n).T
    return FormJet(j.n, j.x, *(a @ signs if a is not None else None
                               for a in (raised.v, raised.d, raised.dd)), chart=j.chart)


def _det_sign(mj: MetricJet) -> int:
    return 1 if mj.det > 0 else -1


def coderivative_hodge(j: FormJet, mj: MetricJet, orientation: int = 1) -> FormJet:
    """d* = (-1)^(n(p+1)+1) sgn(det g) * d * on degree-p input."""
    if not j.degrees():
        return FormJet.zero(j.n, j.x, j.chart)
    p = j.degree()
    n = mj.n
    sign = (-1) ** (n * (p + 1) + 1) * _det_sign(mj)
    return hodge_star(exterior_derivative(hodge_star(j, mj, orientation)),
                      mj, orientation).scale(float(sign))


@lru_cache(maxsize=None)
def _derivation_table(n: int) -> np.ndarray:
    """eps_m iota_j, shape (n, n, 2^n, 2^n): the derivation replacing dx^j by dx^m."""
    eps, iota = blade_tables(n)
    out = np.einsum("mab,jbc->mjac", eps, iota)
    out.setflags(write=False)
    return out


def levi_civita_exterior_connection(mj: MetricJet) -> List[MatrixJet]:
    """Connection matrices A_a of the Levi-Civita derivative on form coefficients.

    nabla_a dx^j = -Gamma^j_am dx^m extends to forms as the derivation
    A_a = -Gamma^j_am eps_m iota_j, so nabla_a = partial_a + A_a on the blade
    axis; A_a carries a 1-jet.
    """
    table = _derivation_table(mj.n)
    val = -np.einsum("jam,mjxy->axy", mj.christoffel, table)
    d = -np.einsum("ljam,mjxy->alxy", mj.dchristoffel, table)
    return [MatrixJet(mj.n, val[a], d[a]) for a in range(mj.n)]


def exterior_gammas(mj: MetricJet) -> List[MatrixJet]:
    """Clifford action c(dx^i) = eps_i - g^ij iota_j on the blade axis, with
    the exact jets of g^-1."""
    eps, iota = blade_tables(mj.n)
    val = eps - contract(mj.g_inv, iota)
    d = -contract(mj.dg_inv, iota)
    dd = -contract(mj.d2g_inv, iota)
    return [MatrixJet(mj.n, val[i], d[:, i], dd[:, :, i]) for i in range(mj.n)]


def covariant_derivative(j: FormJet, mj: MetricJet) -> List[FormJet]:
    """Levi-Civita nabla_a = partial_a + A_a of a form jet, one FormJet per direction a."""
    return [j.partial(a) + _apply(A, j)
            for a, A in enumerate(levi_civita_exterior_connection(mj))]


def coderivative_connection(j: FormJet, mj: MetricJet) -> FormJet:
    """d* = -iota(nabla) = -g^aj iota_j nabla_a, the connection route."""
    iota = blade_tables(j.n)[1]
    val, d = -contract(mj.g_inv, iota), -contract(mj.dg_inv, iota)
    terms = [_apply(MatrixJet(j.n, val[a], d[:, a]), nab)
             for a, nab in enumerate(covariant_derivative(j, mj))]
    return sum(terms[1:], terms[0])


def forms_dirac(j: FormJet, mj: MetricJet) -> FormJet:
    """c(dx^a) nabla_a with the Clifford action c = epsilon - iota."""
    terms = [_apply(gam, nab)
             for gam, nab in zip(exterior_gammas(mj), covariant_derivative(j, mj))]
    return sum(terms[1:], terms[0])


def laplace_beltrami(f: SJet, mj: MetricJet) -> complex:
    """Positive-spectrum scalar Laplacian -g^ij (d_i d_j f - Gamma^k_ij d_k f)."""
    if f.dd is None:
        raise JetOrderError("laplace_beltrami needs an order-2 jet")
    return -complex(np.sum(mj.g_inv * (f.dd - np.tensordot(f.d, mj.christoffel, 1))))
