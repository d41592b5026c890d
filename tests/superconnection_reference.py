"""Loop reference for the superconnection builder.

This is the builder the package used before it drew every superconnection
of a stack straight into one coefficient array: each base seed is built in
turn, each blade draws its own ``random_parity_matrix`` from its own
generator, the blades are merged by ``blade_field`` over the union of their
monomials, and a stack writes the fields of its seeds one after the other.
Tests compare the blade entries of ``bundles.superconnection_from_degrees``
against its blades, bit for bit, and ``SuperconnectionData.eval`` against its
dense field evaluated at the same points, to rounding.

``graded_product`` is ``bundles._graded_product`` as it summed all 2^n x 2^n
blade pairs (I, M), before it took the 3^n pairs with I inside M only; tests
compare the two to rounding.
"""

from __future__ import annotations

import numpy as np

from diracgeo import bundles as bnd
from diracgeo.clifford import grades, wedge_table
from diracgeo.forms import PolyField
from diracgeo.jets import Jet

PRESET_DEGREES = {"zero": None, "constant": 0, "linear": 1, "random": 2}


def blade_field(n: int, fields: dict, shape: tuple) -> PolyField:
    """One field of fiber (2^n, *shape) out of fields of fiber ``shape`` keyed
    by blade mask, over the union of their monomials; absent blades are zero."""
    rows = {}
    for f in fields.values():
        for e in map(tuple, f.exponents.tolist()):
            rows.setdefault(e, len(rows))
    coeffs = np.zeros((len(rows), 1 << n) + tuple(shape), dtype=complex)
    for mask, f in fields.items():
        coeffs[[rows[e] for e in map(tuple, f.exponents.tolist())], mask] = f.coeffs
    exponents = np.array(list(rows), dtype=np.int64).reshape(len(rows), n)
    return PolyField(n, exponents, coeffs)


def superconnection_field(n: int, m: int, eta: np.ndarray, degree_specs: dict,
                         base_seed=0) -> tuple:
    """The superconnection field, fiber (2^n, m, m), and its blades by mask.

    A sequence of base seeds gives a stacked field and blades that are views
    of it; a single seed gives each blade on its own exponent table.
    """
    if np.ndim(base_seed):
        fields = [superconnection_field(n, m, eta, degree_specs, int(seed))[0]
                  for seed in base_seed]
        field = PolyField(n, fields[0].exponents, np.stack([f.coeffs for f in fields]),
                          stacked=True)
        return field, {mask: PolyField(n, field.exponents, field.coeffs[:, :, mask],
                                       stacked=True)
                       for mask in range(1 << n) if mask.bit_count() in degree_specs}
    blades = {}
    for mask in range(1 << n):
        p = mask.bit_count()
        if p not in degree_specs:
            continue
        hit = bnd._PRESET.fullmatch(degree_specs[p].strip())
        degree, seed = PRESET_DEGREES[hit[1] or "random"], int(hit[2] or base_seed)
        if degree is None:
            blades[mask] = PolyField(n, np.zeros((0, n), dtype=np.int64),
                                     np.zeros((0, m, m), dtype=complex))
        else:
            rng = np.random.default_rng(seed * 100003 + mask * 101 + 7)
            blades[mask] = bnd.random_parity_matrix(rng, n, eta, 1 if p % 2 else -1,
                                                    degree=degree)
    return blade_field(n, blades, (m, m)), blades


def koszul_wedge(n: int, odd: int) -> tuple:
    """Left wedge by blade I, carried past the degree of blade K, as two
    (2^n, 2^n) tables over (I, M): dx^I ^ e_K = sign[I, M] e_M for the one
    K = index[I, M] = M ^ I when I is inside M (sign 0 otherwise), with the
    Koszul factor (-1)^((|I| + odd)|K|) folded into the sign."""
    g = grades(n)
    blades = np.arange(1 << n)
    inner, outer = blades[:, None], blades[None, :]
    index = outer ^ inner
    koszul = np.where((g[inner] + odd) % 2 == 1, (-1.0) ** g[index], 1.0)
    sign = np.where(inner & outer == inner,
                    wedge_table(n)[inner, outer, index].real * koszul, 0.0)
    return index, sign


def graded_product(omega: Jet, right: Jet, odd: int) -> Jet:
    """sum_I dx^I ^ (omega_I right_K) on the blade axis, with the sign
    (-1)^((|I| + odd)|K|) on the degree-|K| part of ``right``, as one fiber
    product over every blade pair: omega (2^n, m, m) as [a, (b, I)] times
    right (2^n, m, p) spread over the wedge table into [(b, I), (M, c)]."""
    index, sign = koszul_wedge(omega.n, odd)
    dim, m, p = right.val.shape[-3:]

    def spread(r):           # [..., K, b, c] -> [..., (b, I), (M, c)]
        t = np.take(np.moveaxis(r, -3, -2), index, axis=-2)   # [..., b, I, M, c]
        t *= sign[:, :, None]
        return t.reshape(t.shape[:-4] + (m * dim, dim * p))

    def fold(w):             # [..., I, a, b] -> [..., a, (b, I)]
        return np.moveaxis(w, -3, -1).reshape(w.shape[:-3] + (m, m * dim))

    def unfold(t):           # [..., a, (M, c)] -> [..., M, a, c]
        return np.swapaxes(t.reshape(t.shape[:-1] + (dim, p)), -3, -2)

    return (omega.map(fold) @ right.map(spread)).map(unfold)
