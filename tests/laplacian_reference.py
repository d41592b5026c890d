"""Per-call references for the operators that now act on blocks of sections.

``lap_identity_residual`` is the defining identity of a Laplacian-type
operator as the package computed it before the probes became one block: one
operator call per probe 1, x^k and x^k x^l (k <= l), each a one-column block.  ``dirac_square`` is
the einsum expansion of D^2 on one section, every coefficient built anew,
from before the index sums became products of folded rows.  Tests compare
the block routes against both, to rounding.
"""

from __future__ import annotations

import numpy as np

from diracgeo.jets import Jet, relative, sample_max, seed_point


def probes(mj, x, m: int) -> list:
    """The probe jets in call order: 1, then x^k, then x^k x^l for k <= l."""
    x = np.asarray(x, dtype=float)
    probe = Jet.constant(np.ones(m), x)
    coords = seed_point(x)
    upper = np.triu_indices(mj.n)
    return ([probe] + [probe * c for c in coords]
            + [probe * (coords[k] * coords[l]) for k, l in zip(*upper)])


def lap_identity_residual(apply_h, mj, x, m: int):
    """[[H, f], g] psi + 2 (df, dg) psi for f = x^k, g = x^l, one operator
    call per probe, relative per sample to the operator values it reads."""
    n = mj.n
    x = np.asarray(x, dtype=float)
    ps = probes(mj, x, m)
    h = [apply_h(p[:, None])[..., 0] for p in ps]
    h_0 = h[0][..., None, None, :]
    h_coord = np.stack(h[1:n + 1], axis=-2)
    upper = np.triu_indices(n)
    pair = np.empty((n, n), dtype=int)
    pair[upper] = pair[upper[::-1]] = np.arange(len(upper[0]))
    h_fg = np.stack(h[n + 1:], axis=-2)[..., pair, :]
    h_f, h_g = h_coord[..., :, None, :], h_coord[..., None, :, :]
    xk, xl = x[..., :, None, None], x[..., None, :, None]
    resid = (h_fg - xl * h_f - xk * h_g + xk * xl * h_0
             + 2.0 * mj.g_inv[..., None] * ps[0].val[..., None, None, :])

    def peak(a):
        return np.max(np.abs(a), axis=-1, keepdims=True)

    return sample_max(relative(np.abs(resid), peak(h_fg), np.abs(xl) * peak(h_f),
                               np.abs(xk) * peak(h_g), np.abs(xk * xl) * peak(h_0)),
                      nb=x.ndim - 1)


def _commutator(a, b):
    return a @ b - b @ a


def dirac_square(D, j: Jet) -> np.ndarray:
    """D^2 psi on one section 2-jet, fiber (m,), by einsum contractions."""
    g, a, Z, v = D.gam.val, D.A.val, D.Z.val, j.val
    z = Z[..., None, :, :]
    mk = j.d + np.einsum("...kab,...b->...ka", a, v)
    mm = (j.dd + np.einsum("...ikab,...b->...ika", D.A.d, v)
          + np.einsum("...kab,...ib->...ika", a, j.d)
          + np.einsum("...iab,...kb->...ika", a, mk))
    coeff = D.gam.d + _commutator(a[..., :, None, :, :], g[..., None, :, :, :])
    inner = (np.einsum("...kab,...ikb->...ia", g, mm)
             + np.einsum("...ikab,...kb->...ia", coeff, mk)
             + np.einsum("...iab,...b->...ia", D.Z.d + _commutator(a, z), v))
    return (np.einsum("...iab,...ib->...a", g, inner)
            + np.einsum("...iab,...ib->...a", g @ z + z @ g, mk)
            + np.einsum("...ab,...b->...a", Z, np.einsum("...ab,...b->...a", Z, v)))
