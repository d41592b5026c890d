"""Jet-valued differential forms and first-order operators on them.

A FormJet holds, per blade bitmask, a coefficient jet of order 0, 1 or 2
at a fixed point. Every operator here consumes jet orders instead of
discretizing: applying a first-order operator to an order-k input yields
an order-(k-1) output with no truncation error, so composite identities
(d^2 = 0, Cartan relations, dual-route coderivatives) hold to rounding.
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
from .clifford import (blade_indices, dict_contract_weights, dict_epsilon_gen,
                       dict_sum, dict_wedge, reorder_sign)
from .jets import SJet, jet_det


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


@dataclass
class FormJet:
    """Differential form jet: blade bitmask -> coefficient jet."""

    n: int
    x: np.ndarray
    coeffs: Dict[int, SJet]
    chart: str = ""

    def __post_init__(self):
        for m in self.coeffs:
            if not 0 <= m < (1 << self.n):
                raise ValueError(f"blade mask {m} out of range for n={self.n}")

    @property
    def order(self) -> int:
        if not self.coeffs:
            return 2
        return min(c.order for c in self.coeffs.values())

    def degrees(self) -> set:
        return {bin(m).count("1") for m, c in self.coeffs.items()}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise DegreeError(f"mixed degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def coefficient(self, indices: Sequence[int]) -> complex:
        mask = 0
        for i in indices:
            mask |= 1 << i
        c = self.coeffs.get(mask)
        return complex(c.val) if c is not None else 0.0j

    def values(self) -> Dict[int, complex]:
        return {m: complex(c.val) for m, c in self.coeffs.items()}

    def norm(self) -> float:
        """Euclidean norm of the pointwise coefficient vector."""
        return float(np.sqrt(sum(abs(c.val) ** 2 for c in self.coeffs.values())))

    def grade_part(self, p: int) -> "FormJet":
        keep = {m: c for m, c in self.coeffs.items() if bin(m).count("1") == p}
        return FormJet(self.n, self.x, keep, self.chart)

    def conj(self) -> "FormJet":
        return FormJet(self.n, self.x, {m: c.conj() for m, c in self.coeffs.items()},
                       self.chart)

    def _compat(self, other: "FormJet") -> None:
        if self.n != other.n or not np.array_equal(self.x, other.x):
            raise ValueError("form jets live at different points")

    def __add__(self, other: "FormJet") -> "FormJet":
        self._compat(other)
        return FormJet(self.n, self.x, dict_sum(self.coeffs, other.coeffs), self.chart)

    def __sub__(self, other: "FormJet") -> "FormJet":
        return self + other.scale(-1.0)

    def scale(self, s) -> "FormJet":
        return FormJet(self.n, self.x, {m: c * s for m, c in self.coeffs.items()},
                       self.chart)

    @staticmethod
    def zero(n: int, x, chart: str = "") -> "FormJet":
        return FormJet(n, np.asarray(x, dtype=float), {}, chart)


def wedge_forms(a: FormJet, b: FormJet) -> FormJet:
    a._compat(b)
    return FormJet(a.n, a.x, dict_wedge(a.coeffs, b.coeffs), a.chart)


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
        if self.kind in ("section", "matrix"):
            from .bundles import MatrixJet, SectionJet
            val, d, dd = self.jet(x, order)
            if self.kind == "section":
                return SectionJet(n, x, val, d, dd)
            return MatrixJet(n, val, d, dd)
        # one scalar jet per slot, from contiguous rows of the transposed jet
        slots = self._rows(x, order).T.copy()
        jets = [SJet(n, v, row[1:1 + n] if order >= 1 else None,
                     row[1 + n:].reshape(n, n) if order >= 2 else None)
                for v, row in zip(slots[:, 0].tolist(), slots)]
        if self.kind == "scalar":
            return jets[0]
        if self.kind == "vector":
            return VectorJet(n, x, jets)
        return FormJet(n, x, dict(zip(self.masks, jets)), chart)

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
    if j.coeffs and j.order < 1:
        raise JetOrderError("exterior derivative needs an order >= 1 jet")
    out: Dict[int, SJet] = {}
    for m, c in j.coeffs.items():
        for i in range(j.n):
            bit = 1 << i
            if m & bit:
                continue
            term = c.partial(i)
            s = reorder_sign(bit, m)
            key = m | bit
            add = term if s > 0 else -term
            out[key] = out[key] + add if key in out else add
    return FormJet(j.n, j.x, out, j.chart)


def iota_vector(X: VectorJet, j: FormJet) -> FormJet:
    """Interior product with the tautological pairing <dx^i, X> = X^i."""
    if not np.array_equal(X.x, j.x):
        raise ValueError("vector and form jets live at different points")
    return FormJet(j.n, j.x, dict_contract_weights(X.comps, j.coeffs), j.chart)


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
    if v.coeffs and v.degrees() != {1}:
        raise DegreeError("pairing defined against 1-forms")
    acc = SJet.constant(0.0, X.n, order=2)
    for m, c in v.coeffs.items():
        i = blade_indices(m)[0]
        acc = acc + X.comps[i] * c
    return acc


# ---------------------------------------------------------------------------
# metric-dependent pieces
# ---------------------------------------------------------------------------


def metric_inverse_jets(mj: MetricJet) -> list:
    """g^{ij} as order-2 scalar jets."""
    n = mj.n
    return [[SJet(n, mj.g_inv[i, j], mj.dg_inv[:, i, j].astype(complex),
                  mj.d2g_inv[:, :, i, j].astype(complex))
             for j in range(n)] for i in range(n)]


def sqrt_det_jet(mj: MetricJet) -> SJet:
    return SJet(mj.n, mj.sqrt_abs_det, mj.dsqrt.astype(complex),
                mj.ddsqrt.astype(complex))


def christoffel_jets(mj: MetricJet) -> np.ndarray:
    """Gamma^k_ij as order-1 jets, indexed [k, i, j]."""
    from .curvature import christoffel, dchristoffel

    gam = christoffel(mj)
    dgam = dchristoffel(mj)
    n = mj.n
    out = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[k, i, j] = SJet(n, complex(gam[k, i, j]),
                                    dgam[:, k, i, j].astype(complex), None)
    return out


def volume_form(mj: MetricJet, x, orientation: int = 1, chart: str = "") -> FormJet:
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    top = (1 << mj.n) - 1
    return FormJet(mj.n, np.asarray(x, dtype=float),
                   {top: sqrt_det_jet(mj) * float(orientation)}, chart)


def gram_pairing(a: FormJet, b: FormJet, mj: MetricJet) -> complex:
    """Sesquilinear pairing: blades of equal degree paired by det g^{i_a j_b}."""
    a._compat(b)
    ginv = mj.g_inv
    total = 0.0j
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            ia, ib = blade_indices(ma), blade_indices(mb)
            if len(ia) != len(ib):
                continue
            if ia:
                gram = np.linalg.det(ginv[np.ix_(ia, ib)])
            else:
                gram = 1.0
            total += np.conj(complex(ca.val)) * complex(cb.val) * gram
    return total


def _perm_sign_sorted(j_list: List[int], m_list: List[int]) -> int:
    """Sign of the permutation (j_list, m_list) of 0..n-1, both halves sorted."""
    inv = 0
    for j in j_list:
        inv += sum(1 for m in m_list if m < j)
    return -1 if inv % 2 else 1


def hodge_star(j: FormJet, mj: MetricJet, orientation: int = 1) -> FormJet:
    """Antilinear star: conjugates coefficients, complements blades."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    n = mj.n
    ginv = metric_inverse_jets(mj)
    sd = sqrt_det_jet(mj)
    full = (1 << n) - 1
    out: Dict[int, SJet] = {}
    for m, c in j.coeffs.items():
        idx = blade_indices(m)
        k = len(idx)
        cconj = c.conj()
        # coefficient of each output blade M of degree n-k:
        #   sqrt|det g| * det(g^{-1}[rows idx, cols comp(M)]) * sign(perm(comp(M), M))
        for mm in range(1 << n):
            if bin(mm).count("1") != n - k:
                continue
            cols = blade_indices(full & ~mm)
            if k:
                minor = [[ginv[r][cc] for cc in cols] for r in idx]
                det = jet_det(minor)
            else:
                det = SJet.constant(1.0, n, order=2)
            sgn = _perm_sign_sorted(cols, blade_indices(mm))
            term = sd * det * float(orientation * sgn) * cconj
            out[mm] = out[mm] + term if mm in out else term
    return FormJet(n, j.x, out, j.chart)


def _det_sign(mj: MetricJet) -> int:
    return 1 if mj.det > 0 else -1


def coderivative_hodge(j: FormJet, mj: MetricJet, orientation: int = 1) -> FormJet:
    """d* = (-1)^(n(p+1)+1) sgn(det g) * d * on degree-p input."""
    if not j.coeffs:
        return FormJet(j.n, j.x, {}, j.chart)
    p = j.degree()
    n = mj.n
    sign = (-1) ** (n * (p + 1) + 1) * _det_sign(mj)
    return hodge_star(exterior_derivative(hodge_star(j, mj, orientation)),
                      mj, orientation).scale(float(sign))


def covariant_derivative(j: FormJet, mj: MetricJet, gamma=None) -> List[FormJet]:
    """Levi-Civita nabla_a of a form jet, one FormJet per direction a.

    Uses nabla dx^j = -Gamma^j_ik dx^i (x) dx^k on each blade factor.
    """
    if gamma is None:
        gamma = christoffel_jets(mj)
    n = j.n
    outs = []
    for a in range(n):
        acc: Dict[int, SJet] = {}
        for mask, c in j.coeffs.items():
            idx = blade_indices(mask)
            t = c.partial(a)
            acc[mask] = acc[mask] + t if mask in acc else t
            for pos, ip in enumerate(idx):
                rest = mask & ~(1 << ip)
                sgn_pos = -1 if pos % 2 else 1
                for m in range(n):
                    if (1 << m) & rest:
                        continue
                    g = gamma[ip, a, m]
                    term = g * c * (-1.0 * sgn_pos * reorder_sign(1 << m, rest))
                    key = rest | (1 << m)
                    acc[key] = acc[key] + term if key in acc else term
        outs.append(FormJet(n, j.x, acc, j.chart))
    return outs


def coderivative_connection(j: FormJet, mj: MetricJet, gamma=None) -> FormJet:
    """d* = -iota(nabla), the connection route."""
    nab = covariant_derivative(j, mj, gamma)
    ginv = metric_inverse_jets(mj)
    n = j.n
    acc = FormJet(n, j.x, {}, j.chart)
    for a in range(n):
        acc = acc + FormJet(n, j.x,
                            dict_contract_weights(ginv[a], nab[a].coeffs),
                            j.chart).scale(-1.0)
    return acc


def forms_dirac(j: FormJet, mj: MetricJet, gamma=None) -> FormJet:
    """c(dx^a) nabla_a with the Clifford action c = epsilon - iota."""
    nab = covariant_derivative(j, mj, gamma)
    ginv = metric_inverse_jets(mj)
    n = j.n
    acc = FormJet(n, j.x, {}, j.chart)
    for a in range(n):
        eps = dict_epsilon_gen(a, nab[a].coeffs)
        cot = dict_contract_weights(ginv[a], nab[a].coeffs)
        acc = acc + FormJet(n, j.x, eps, j.chart)
        acc = acc + FormJet(n, j.x, cot, j.chart).scale(-1.0)
    return acc


def laplace_beltrami(f: SJet, mj: MetricJet, gamma: np.ndarray = None) -> complex:
    """Positive-spectrum scalar Laplacian -g^ij (d_i d_j f - Gamma^k_ij d_k f)."""
    if f.dd is None:
        raise JetOrderError("laplace_beltrami needs an order-2 jet")
    if gamma is None:
        from .curvature import christoffel

        gamma = christoffel(mj)
    s = 0.0j
    for i in range(mj.n):
        for jj in range(mj.n):
            t = f.dd[i, jj]
            for k in range(mj.n):
                t = t - gamma[k, i, jj] * f.d[k]
            s += mj.g_inv[i, jj] * t
    return -s
