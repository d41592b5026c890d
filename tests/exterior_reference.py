"""References for the two exterior-algebra kernels as the package computed
them before they became batched products.

``bilinear`` is the gathered product sum_ib T[i, a, b] u_i v_b: the nonzero
entries of the structure table are gathered from both operands as full jets,
multiplied and scattered to a.  ``compound_inverse`` builds Lambda(g^-1)
column by column, each column one order-2 ``Jet`` product of a dense
generator sum_i g^il eps_i with the column before.  Tests compare
``forms._bilinear`` and ``MetricJet.compound_inverse`` against both, to
rounding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from diracgeo.clifford import blade_tables, contract, wedge_table
from diracgeo.jets import Jet


@lru_cache(maxsize=None)
def sparse_table(kind: str, n: int) -> tuple:
    """Nonzero entries (i, b) of the structure table T[i, a, b] of ``kind``
    ("iota" or "wedge") and the (entries, a) matrix scattering them to a."""
    table = blade_tables(n)[1] if kind == "iota" else wedge_table(n)
    i, a, b = np.nonzero(table)
    scatter = np.zeros((len(i), table.shape[1]))
    scatter[np.arange(len(i)), a] = table[i, a, b].real
    return i, b, scatter


def bilinear(kind: str, u: Jet, v: Jet) -> Jet:
    """sum_ib T[i, a, b] u_i v_b, v's blade axis b followed by any fiber axes,
    which u's own axes after its blade axis meet from the right."""
    i, b, scatter = sparse_table(kind, u.n)
    r = v.val.ndim - 2
    terms = u[(i,) + (None,) * (r + 2 - u.val.ndim)] * v[b]
    if r == 0:
        return terms.map(lambda t: t @ scatter)
    return terms.map(lambda t: np.moveaxis(np.moveaxis(t, -r - 1, -1) @ scatter,
                                           -1, -r - 1))


def compound_inverse(mj) -> Jet:
    """Lambda(g^-1) as a 2-jet: column M = (g^-1 dx^l) ^ column M without its
    lowest index l, one ``Jet`` product per blade."""
    eps = blade_tables(mj.n)[0]
    metric = (mj.g_inv, mj.dg_inv, mj.d2g_inv)
    cols = [Jet.constant(np.eye(1 << mj.n)[0], mj.x)]
    for mask in range(1, 1 << mj.n):
        low = (mask & -mask).bit_length() - 1
        gen = Jet(mj.x, *(contract(a[..., low], eps) for a in metric))
        cols.append(gen @ cols[mask & (mask - 1)])
    return Jet(mj.x, *(np.stack([getattr(c, k) for c in cols], axis=-1)
                       for k in ("val", "d", "dd")))
