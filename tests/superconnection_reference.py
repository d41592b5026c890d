"""Loop reference for the superconnection builder.

This is the builder the package used before it drew every superconnection
of a stack straight into one coefficient array: each base seed is built in
turn, each blade draws its own ``random_parity_matrix`` from its own
generator, the blades are merged by ``blade_field`` over the union of their
monomials, and a stack writes the fields of its seeds one after the other.
Tests compare ``bundles.superconnection_from_degrees`` against it, bit for
bit.
"""

from __future__ import annotations

import numpy as np

from diracgeo import bundles as bnd
from diracgeo.forms import PolyField

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
            blades[mask] = PolyField.zero(n, (m, m))
        else:
            rng = np.random.default_rng(seed * 100003 + mask * 101 + 7)
            blades[mask] = bnd.random_parity_matrix(rng, n, eta, 1 if p % 2 else -1,
                                                    degree=degree)
    return blade_field(n, blades, (m, m)), blades
