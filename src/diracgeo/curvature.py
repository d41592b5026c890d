"""Levi-Civita identities read off a metric jet: the divergence routes, the
log-det identity and the curvature two-form.

The tensors themselves (Christoffel symbols, Riemann, Ricci and scalar
curvature) are cached on ``MetricJet``, whose docstring states their index
conventions.  A metric jet lives at a stack of points x (P, n) and gives
residuals per sample.
"""

from __future__ import annotations

import numpy as np

from .charts import MetricJet
from .clifford import product_table
from .jets import Jet, check_point, sample_max


# ---------------------------------------------------------------------------
# first-order operations on fields evaluated at the sample points
# ---------------------------------------------------------------------------


def divergence_via_density(mj: MetricJet, X: Jet):
    """div X = |g|^-1/2 d_i(|g|^1/2 X^i) for a vector field 1-jet X, fiber (n,)."""
    check_point(mj.x, X.x)
    return np.trace(X.d, axis1=-2, axis2=-1) + np.einsum("...i,...i->...", X.val, mj.dh)


def divergence_via_connection(mj: MetricJet, X: Jet):
    """div X as the contraction iota(nabla X) = d_i X^i + Gamma^i_ia X^a."""
    check_point(mj.x, X.x)
    return (np.trace(X.d, axis1=-2, axis2=-1)
            + np.einsum("...iia,...a->...", mj.christoffel, X.val))


def log_det_identity_residual(mj: MetricJet):
    """Max-norm residual of d_k h = Gamma^i_ik and of its derivative
    d_l d_k h = d_l Gamma^i_ik, with h = log|det g|^(1/2), per sample."""
    return sample_max(mj.dh - np.einsum("...jij->...i", mj.christoffel),
                      mj.ddh - np.einsum("...liik->...lk", mj.dchristoffel))


# ---------------------------------------------------------------------------
# curvature two-form with values in the Clifford algebra
# ---------------------------------------------------------------------------


def curvature_two_form_residual(mj: MetricJet):
    """Check [S_ij, dx^k] = riemann[l, k, i, j] dx^l for every i, j, k, per
    sample, where S_ij = -1/4 lowered[k, l, i, j] dx^k dx^l (Clifford
    products) has symbols s[..., i, j, blade], on the product tables of g^-1
    at every sample: S_ij dx^k is one batched matrix product of s with them."""
    n, dim = mj.n, 1 << mj.n
    covectors = 1 << np.arange(n)
    table = product_table(mj.g_inv)
    gens = table[..., covectors, :, :]
    pairs = np.einsum("...kab,...lb->...kla", gens, gens[..., 0])
    s = -0.25 * np.einsum("...klij,...kla->...ija", mj.lowered, pairs)
    batch = s.shape[:-3]
    right = s.reshape(batch + (n * n, dim)) @ table.reshape(batch + (dim, dim * dim))
    right = right.reshape(batch + (n, n, dim, dim))[..., covectors]   # S_ij dx^k, [i, j, a, k]
    left = np.einsum("...kab,...ijb->...ijak", gens, s)                # dx^k S_ij
    target = np.zeros_like(right)
    target[..., covectors, :] = np.einsum("...lkij->...ijlk", mj.riemann)
    err = np.sqrt(np.sum(np.abs(right - left - target) ** 2, axis=-2))
    return np.max(err, axis=(-3, -2, -1))
