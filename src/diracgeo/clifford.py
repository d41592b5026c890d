"""Clifford algebras over nondegenerate symmetric bilinear forms.

Elements live on the blade axis: a complex vector of length 2^n whose slot M
holds the coefficient of the blade with bitmask M (bit i set = generator dx^i
present), and a stack of them is an array (..., 2^n).  A Clifford element is
stored by its symbol: ``quantize`` turns symbol coefficients into the operator
they act by on the exterior module, and ``symbol`` reads an operator's action
on the vacuum, so the two are inverse (BGV, *Heat Kernels and Dirac
Operators*, 1992, sec. 3.1).

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
from typing import Callable, List, Tuple

import numpy as np

from .jets import frozen


class DegenerateFormError(ValueError):
    """Bilinear form fails the nondegeneracy floor."""


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
    return frozen(np.array([m.bit_count() for m in range(1 << n)]))


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
    return frozen((eps, iota))


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
        q[mask] = frozen((left + right if mask.bit_count() % 2 else left - right) * 0.5)
    return q[mask]


def quantize_blades(gammas, one) -> Callable[[int], object]:
    """The quantization map M -> q(dx^M) from the gammas c(dx^i) and the unit,
    q(dx^i ^ w) = (gamma^i q(w) + (-1)^|w| q(w) gamma^i) / 2 for i the lowest
    index of M (Hestenes & Sobczyk 1984, ch. 1).  Blades are built on first
    use by indexing, @, + and scalar *, so arrays and jets both work, and
    are read-only, as is the unit."""
    return partial(_quantized_blade, gammas,
                   {0: frozen(one), **{1 << i: frozen(gammas[i]) for i in range(len(gammas))}})


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
    return frozen(np.stack([q(mask) for mask in range(dim)], axis=-3))


@lru_cache(maxsize=None)
def wedge_table(n: int) -> np.ndarray:
    """W[M] = left exterior multiplication by the blade e_M."""
    return product_table(np.zeros((n, n)))


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------


def _checked_pairing(matrix) -> np.ndarray:
    """A pairing, or a stack of them (..., n, n), as floats, once every member
    passes the floors of ``BilinearForm``; the first member that fails raises."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("bilinear form must be a square matrix")
    flat = m.reshape((-1,) + m.shape[-2:])
    asym = np.max(np.abs(flat - np.swapaxes(flat, 1, 2)), axis=(1, 2), initial=0.0)
    if not np.all(asym <= 1e-12 * np.max(np.abs(flat), axis=(1, 2), initial=0.0)):
        raise ValueError("bilinear form must be symmetric")
    mags = np.abs(np.linalg.eigvalsh(flat))
    lo, hi = mags.min(axis=1), mags.max(axis=1)
    bad = np.flatnonzero(lo <= 1e-12 * hi)
    if bad.size:
        k = bad[0]
        raise DegenerateFormError(
            f"min |eigenvalue| {lo[k]:.3e} <= 1e-12 * max |eigenvalue| {hi[k]:.3e}")
    return m


@dataclass(frozen=True)
class BilinearForm:
    """Nondegenerate symmetric pairing on covectors, B[i, j] = (dx^i, dx^j).

    Symmetric means max |B - B^T| <= 1e-12 * max |B|, and degenerate means
    min |eigenvalue| <= 1e-12 * max |eigenvalue|: neither test depends on
    the scale of B.
    """

    matrix: np.ndarray

    def __post_init__(self):
        if np.ndim(self.matrix) != 2:
            raise ValueError("bilinear form must be a square matrix")
        object.__setattr__(self, "matrix", _checked_pairing(self.matrix))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def table(self) -> np.ndarray:
        """Action matrices of the quantized blades, built once per form."""
        return product_table(self.matrix)


# ---------------------------------------------------------------------------
# operations on coefficient stacks
# ---------------------------------------------------------------------------


def quantize(w, table: np.ndarray) -> np.ndarray:
    """The operator q(w) = sum_M w_M table[M], shaped (..., 2^n, 2^n), of
    symbol coefficients w (..., 2^n) against a ``product_table`` stack
    (..., 2^n, 2^n, 2^n).  The leading axes of w are the table's stack
    axes; any further axes of w share their member's table."""
    w = np.asarray(w)
    dim, lead = table.shape[-1], table.shape[:-3]
    if w.shape[:len(lead)] != lead or w.shape[-1:] != (dim,):
        raise ValueError(f"coefficients {w.shape} do not fit the tables {table.shape}")
    act = w.reshape(lead + (-1, dim)) @ table.reshape(lead + (dim, dim * dim))
    return act.reshape(w.shape + (dim,))


def symbol(a: np.ndarray) -> np.ndarray:
    """Symbol coefficients (..., 2^n) of operators a (..., 2^n, 2^n): their
    action on the vacuum, column 0."""
    return a[..., 0]


def clifford_product(x, y, table: np.ndarray) -> np.ndarray:
    """Clifford product x y of symbol coefficient stacks, c(x) acting on y,
    with ``quantize``'s pairing of x against the table stack; with
    ``wedge_table(n)`` it is the exterior product."""
    return (quantize(x, table) @ np.asarray(y)[..., None])[..., 0]


def parity_matrix(n: int) -> np.ndarray:
    return np.diag((-1.0) ** grades(n)).astype(complex)


def chirality(pairing, orientation: int = 1) -> np.ndarray:
    """Chirality G = i^(n/2+s) e^1...e^n of each pairing of a stack (..., n, n),
    as symbol coefficients (..., 2^n).

    The e^a are the pairing's eigenvectors scaled to |(e^a, e^a)| = 1, the
    first negated where their determinant is negative, and s counts the
    negative eigenvalues.  s = 0 is the i^(n/2) phase; s > 0 is this
    package's extension keeping G^2 = 1.  ``orientation`` -1 negates G.  The
    pairings must pass the floors of ``BilinearForm``.
    """
    pairing = _checked_pairing(pairing)
    n = pairing.shape[-1]
    if n % 2:
        raise ValueError("chirality needs even dimension")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    vals, vecs = np.linalg.eigh(pairing)
    basis = vecs / np.sqrt(np.abs(vals))[..., None, :]
    basis[..., 0] *= np.where(np.linalg.det(basis) < 0, -1.0, 1.0)[..., None]
    gens = np.zeros(basis.shape[:-2] + (n, 1 << n), dtype=complex)
    gens[..., 1 << np.arange(n)] = np.swapaxes(basis, -1, -2)
    table = product_table(pairing)
    g = gens[..., 0, :]
    for a in range(1, n):
        g = clifford_product(g, gens[..., a, :], table)
    phase = np.array([1j ** k for k in range(4)])[(n // 2 + np.sum(vals < 0, axis=-1)) % 4]
    return g * (phase * orientation)[..., None]
