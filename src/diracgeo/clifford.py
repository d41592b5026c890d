"""Clifford algebras over nondegenerate symmetric bilinear forms.

Elements live on the blade axis: a complex vector of length 2^n whose slot M
holds the coefficient of the blade with bitmask M (bit i set = generator dx^i
present).  The same storage backs exterior elements and Clifford elements;
``quantize``/``symbol`` reinterpret the coordinates without touching them.

Every operation is a product with fixed structure tensors on that axis, the
bitmap-blade tables of Dorst, Fontijne & Mann, *Geometric Algebra for
Computer Science* (2007), ch. 19: ``blade_tables`` holds the wedge eps_i and
the contraction iota_i by each generator, and ``product_table`` the action
c(q(e_M)) for c(dx^i) = eps_i - B_ij iota_j, with q from ``quantize_blades``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import prod
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class DegenerateFormError(ValueError):
    """Bilinear form fails the nondegeneracy floor."""


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebras or kinds."""


# ---------------------------------------------------------------------------
# blade bitmask tables
# ---------------------------------------------------------------------------


def blade_indices(mask: int) -> List[int]:
    """Ascending generator indices present in a blade bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def reorder_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation blade(a), blade(b); disjoint masks."""
    a >>= 1
    total = 0
    while a:
        total += (a & b).bit_count()
        a >>= 1
    return -1 if total & 1 else 1


@lru_cache(maxsize=None)
def grades(n: int) -> np.ndarray:
    """Degree of every blade on the 2^n axis."""
    out = np.array([m.bit_count() for m in range(1 << n)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def blade_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sign matrices on the 2^n blade axis, each shaped (n, 2^n, 2^n).

    eps[i] is left wedge by dx^i; iota[i] is contraction with the i-th
    coordinate vector, iota_i(dx^{j_1} ^ ... ^ dx^{j_p}) =
    sum_t (-1)^(t-1) delta_{i j_t} (blade without j_t).
    """
    dim = 1 << n
    masks = np.arange(dim)
    eps = np.zeros((n, dim, dim))
    iota = np.zeros((n, dim, dim))
    for i in range(n):
        bit = 1 << i
        below = np.array([(m & (bit - 1)).bit_count() for m in range(dim)])
        sign = np.where(below % 2, -1.0, 1.0)
        has = (masks & bit) != 0
        eps[i, masks[~has] | bit, masks[~has]] = sign[~has]
        iota[i, masks[has] ^ bit, masks[has]] = sign[has]
    for t in (eps, iota):
        t.setflags(write=False)
    return eps, iota


def contract(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] table[i], as one matrix product."""
    out = weights @ table.reshape(len(table), prod(table.shape[1:]))
    return out.reshape(weights.shape[:-1] + table.shape[1:])


# a module function, not a closure: a recursive closure is a reference cycle
# that would keep every quantized jet alive until the cyclic collector runs
def _quantized_blade(gammas, q: dict, mask: int):
    if mask not in q:
        gam = gammas[(mask & -mask).bit_length() - 1]
        rest = _quantized_blade(gammas, q, mask & (mask - 1))
        left, right = gam @ rest, rest @ gam
        q[mask] = (left + right if mask.bit_count() % 2 else left - right) * 0.5
    return q[mask]


def quantize_blades(gammas, one) -> Callable[[int], object]:
    """The quantization map M -> q(dx^M) from the gammas c(dx^i) and the unit,
    q(dx^i ^ w) = (gamma^i q(w) + (-1)^|w| q(w) gamma^i) / 2 for i the lowest
    index of M (Hestenes & Sobczyk 1984, ch. 1).  Blades are built on first
    use by indexing, @, + and scalar *, so arrays and jets both work."""
    return partial(_quantized_blade, gammas,
                   {0: one, **{1 << i: gammas[i] for i in range(len(gammas))}})


def product_table(pairing: np.ndarray) -> np.ndarray:
    """Q[M] = c(q(e_M)) on the blade axis for c(dx^i) = eps_i - pairing[i, j] iota_j,
    by ``quantize_blades``; column 0 of Q[M] is e_M, the symbol.  A zero
    pairing gives the wedge table, with exact entries.  A stack of pairings
    (..., n, n) gives the stack of their tables (..., 2^n, 2^n, 2^n), in
    one recursion over the blades with every product batched."""
    n, dim = pairing.shape[-1], 1 << pairing.shape[-1]
    eps, iota = blade_tables(n)
    # generator axis in front, so that gammas[i] is c(dx^i) at every sample
    gammas = np.moveaxis(eps - contract(pairing, iota), -3, 0)
    one = np.broadcast_to(np.eye(dim, dtype=complex), gammas.shape[1:])
    q = quantize_blades(gammas, one)
    table = np.stack([q(mask) for mask in range(dim)], axis=-3)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def wedge_table(n: int) -> np.ndarray:
    """W[M] = left exterior multiplication by the blade e_M."""
    return product_table(np.zeros((n, n)))


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearForm:
    """Nondegenerate symmetric pairing on covectors, B[i, j] = (dx^i, dx^j).

    Symmetric means max |B - B^T| <= 1e-12 * max |B|, and degenerate means
    min |eigenvalue| <= 1e-12 * max |eigenvalue|: neither test depends on
    the scale of B.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("bilinear form must be a square matrix")
        if not np.max(np.abs(m - m.T), initial=0.0) <= 1e-12 * np.max(np.abs(m), initial=0.0):
            raise ValueError("bilinear form must be symmetric")
        mags = np.abs(np.linalg.eigvalsh(m))
        if mags.min() <= 1e-12 * mags.max():
            raise DegenerateFormError(
                f"min |eigenvalue| {mags.min():.3e} <= 1e-12 * max |eigenvalue| "
                f"{mags.max():.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def table(self) -> np.ndarray:
        """Action matrices of the quantized blades, built once per form."""
        return product_table(self.matrix)


EXTERIOR = "exterior"
CLIFFORD = "clifford"


@dataclass
class MultivectorElement:
    """Multivector in symbol coordinates over a fixed algebra.

    ``coeffs`` is the complex vector on the 2^n blade axis.
    kind "exterior": plain element of the exterior algebra (wedge calculus).
    kind "clifford": element of Cl(B) stored via the symbol isomorphism.
    """

    n: int
    coeffs: np.ndarray
    kind: str = EXTERIOR
    form: Optional[BilinearForm] = None

    def __post_init__(self):
        if self.kind not in (EXTERIOR, CLIFFORD):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == CLIFFORD and self.form is None:
            raise ValueError("clifford elements need a bilinear form")
        if self.form is not None and self.form.n != self.n:
            raise AlgebraMismatchError("form dimension does not match element")
        self.coeffs = np.array(self.coeffs, dtype=complex)
        if self.coeffs.shape != (1 << self.n,):
            raise ValueError(f"coefficients of shape {self.coeffs.shape} do not "
                             f"fill the {1 << self.n} blades of n={self.n}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(c, n: int, kind: str = EXTERIOR,
               form: Optional[BilinearForm] = None) -> "MultivectorElement":
        return MultivectorElement.blade([], n, c, kind, form)

    @staticmethod
    def covector(components: Sequence, kind: str = EXTERIOR,
                 form: Optional[BilinearForm] = None) -> "MultivectorElement":
        n = len(components)
        coeffs = np.zeros(1 << n, dtype=complex)
        coeffs[1 << np.arange(n)] = components
        return MultivectorElement(n, coeffs, kind, form)

    @staticmethod
    def blade(indices: Iterable[int], n: int, coeff=1.0, kind: str = EXTERIOR,
              form: Optional[BilinearForm] = None) -> "MultivectorElement":
        mask = 0
        for i in indices:
            if mask & (1 << i):
                raise ValueError("repeated index in blade")
            mask |= 1 << i
        coeffs = np.zeros(1 << n, dtype=complex)
        coeffs[mask] = coeff
        return MultivectorElement(n, coeffs, kind, form)

    # -- structure ----------------------------------------------------------

    def _compat(self, other: "MultivectorElement") -> None:
        if self.n != other.n or self.kind != other.kind:
            raise AlgebraMismatchError("operands from different algebras")
        if (self.form is None) != (other.form is None):
            raise AlgebraMismatchError("operands disagree about the form")
        if self.form is not None and other.form is not None \
                and self.form is not other.form \
                and not np.array_equal(self.form.matrix, other.form.matrix):
            raise AlgebraMismatchError("operands carry different forms")

    def _like(self, coeffs: np.ndarray) -> "MultivectorElement":
        return MultivectorElement(self.n, coeffs, self.kind, self.form)

    def coefficient(self, indices: Iterable[int]) -> complex:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return complex(self.coeffs[mask])

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def __add__(self, other):
        if isinstance(other, MultivectorElement):
            self._compat(other)
            return MultivectorElement(self.n, self.coeffs + other.coeffs,
                                      self.kind, self.form or other.form)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, MultivectorElement):
            return self + (other * (-1.0))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._like(self.coeffs * other)
        if isinstance(other, MultivectorElement):
            self._compat(other)
            if self.kind == CLIFFORD:
                return clifford_product(self, other)
            return wedge(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __repr__(self):
        terms = []
        for m in np.flatnonzero(self.coeffs):
            idx = "".join(str(i + 1) for i in blade_indices(int(m)))
            label = f"e{idx}" if idx else "1"
            terms.append(f"{complex(self.coeffs[m])!r}*{label}")
        body = " + ".join(terms) if terms else "0"
        return f"<{self.kind} {body}>"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def wedge(a: MultivectorElement, b: MultivectorElement) -> MultivectorElement:
    """Exterior product; defined on exterior-kind elements."""
    a._compat(b)
    if a.kind != EXTERIOR:
        raise AlgebraMismatchError("wedge acts on exterior elements; take symbol() first")
    return a._like(contract(a.coeffs, wedge_table(a.n)) @ b.coeffs)


def action_matrix(a: MultivectorElement) -> np.ndarray:
    """Matrix of c(a) acting on the exterior module."""
    if a.kind != CLIFFORD:
        raise AlgebraMismatchError("action_matrix takes a clifford element")
    return contract(a.coeffs, a.form.table)


def clifford_product(a: MultivectorElement, b: MultivectorElement) -> MultivectorElement:
    """Geometric product of Clifford elements (symbol coordinates in, out)."""
    a._compat(b)
    if a.kind != CLIFFORD:
        raise AlgebraMismatchError("clifford_product needs clifford-kind elements")
    return a._like(action_matrix(a) @ b.coeffs)


def quantize(a: MultivectorElement, b: BilinearForm) -> MultivectorElement:
    """Reinterpret an exterior element as the Clifford element with that symbol."""
    if a.kind != EXTERIOR:
        raise AlgebraMismatchError("quantize takes an exterior element")
    if b.n != a.n:
        raise AlgebraMismatchError("form dimension mismatch")
    return MultivectorElement(a.n, a.coeffs, CLIFFORD, b)


def symbol(a: MultivectorElement) -> MultivectorElement:
    """Symbol of a Clifford element: the same coordinates, exterior kind."""
    if a.kind != CLIFFORD:
        raise AlgebraMismatchError("symbol takes a clifford element")
    return MultivectorElement(a.n, a.coeffs, EXTERIOR, None)


def parity_matrix(n: int) -> np.ndarray:
    return np.diag((-1.0) ** grades(n)).astype(complex)


# ---------------------------------------------------------------------------
# chirality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiralityElement:
    """Chirality Gamma = i^(n/2+s) e^1...e^n for an oriented orthonormal system.

    s (``negative_count``) counts negative eigenvalues of B; s = 0 reproduces
    the i^(n/2) phase, s > 0 is this package's documented extension keeping
    Gamma^2 = 1 (flag it in reports).
    """

    element: MultivectorElement
    phase: complex
    negative_count: int
    orientation: int


def chirality(b: BilinearForm, orientation: int = 1) -> ChiralityElement:
    n = b.n
    if n % 2:
        raise ValueError("chirality needs even dimension")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    vals, vecs = np.linalg.eigh(b.matrix)
    s = int(np.sum(vals < 0))
    basis = vecs / np.sqrt(np.abs(vals))
    if np.linalg.det(basis) < 0:
        basis[:, 0] = -basis[:, 0]
    prod = None
    for a in range(n):
        gen = MultivectorElement.covector(basis[:, a].astype(complex), CLIFFORD, b)
        prod = gen if prod is None else clifford_product(prod, gen)
    phase = 1j ** ((n // 2 + s) % 4)
    gamma = prod * (phase * orientation)
    square = clifford_product(gamma, gamma)
    if (square - MultivectorElement.scalar(1.0, n, CLIFFORD, b)).norm() > 1e-9:
        raise AssertionError("chirality construction failed to square to one")
    return ChiralityElement(gamma, phase * orientation, s, orientation)
