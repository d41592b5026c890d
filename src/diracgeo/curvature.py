"""Levi-Civita data: Christoffel symbols, curvature tensors, derived identities.

Conventions (all verified against frozen unit-value tests):
  Gamma[k, i, j]      = Gamma^k_ij (symmetric in i, j)
  dGamma[l, k, i, j]  = d_l Gamma^k_ij
  riemann[i, j, k, l] = <dx_i-component of [nabla_k, nabla_l] dx^j>
                      = d_l Gamma^j_ki - d_k Gamma^j_li
                        + Gamma^j_lm Gamma^m_ki - Gamma^j_km Gamma^m_li
  lowered[i, j, k, l] = g_jm riemann[i, m, k, l]   (the all-lower tensor)
  ricci_ij = g^km lowered[m, i, k, j];  scalar = g^ij ricci_ij
so the unit 2-sphere has scalar +2.

Stack convention: a metric jet at a stack of points x (P, n) gives curvature
data with the sample axis P in front of every array (``scalar`` is (P,)), and
residuals per sample; the einsums run over a ``...`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import MetricJet
from .clifford import product_table
from .jets import sample_max


def christoffel(mj: MetricJet) -> np.ndarray:
    """Gamma[k, i, j], computed once per metric jet."""
    return mj.christoffel


def dchristoffel(mj: MetricJet) -> np.ndarray:
    """dGamma[l, k, i, j] = d_l Gamma^k_ij, computed once per metric jet."""
    return mj.dchristoffel


@dataclass
class CurvatureData:
    """Everything Levi-Civita at one point, or at each point of a stack."""

    mj: MetricJet
    christoffel: np.ndarray
    dchristoffel: np.ndarray
    riemann: np.ndarray
    lowered: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray


def curvature_data(mj: MetricJet) -> CurvatureData:
    gamma, dgamma = christoffel(mj), dchristoffel(mj)
    riem = (np.einsum("...ljki->...ijkl", dgamma) - np.einsum("...kjli->...ijkl", dgamma)
            + np.einsum("...jlm,...mki->...ijkl", gamma, gamma)
            - np.einsum("...jkm,...mli->...ijkl", gamma, gamma))
    low = np.einsum("...jm,...imkl->...ijkl", mj.g, riem)
    ric = np.einsum("...km,...mikj->...ij", mj.g_inv, low)
    scalar = np.einsum("...ij,...ij->...", mj.g_inv, ric)
    return CurvatureData(mj, gamma, dgamma, riem, low, ric, scalar)


# ---------------------------------------------------------------------------
# first-order operations on fields evaluated at a point
# ---------------------------------------------------------------------------


def gradient(mj: MetricJet, df: np.ndarray) -> np.ndarray:
    """Components of grad f from the differential df_i = d_i f."""
    return np.einsum("...ij,...j->...i", mj.g_inv, df)


def divergence_via_density(mj: MetricJet, x_val: np.ndarray, dx_val: np.ndarray):
    """div X = |g|^-1/2 d_i(|g|^1/2 X^i); dx_val[..., a, i] = d_a X^i."""
    return np.trace(dx_val, axis1=-2, axis2=-1) + np.einsum("...i,...i->...", x_val, mj.dh)


def divergence_via_connection(mj: MetricJet, gamma: np.ndarray,
                              x_val: np.ndarray, dx_val: np.ndarray):
    """div X as the contraction iota(nabla X) = d_i X^i + Gamma^i_ia X^a."""
    return (np.trace(dx_val, axis1=-2, axis2=-1)
            + np.einsum("...iia,...a->...", gamma, x_val))


def log_det_identity_residual(mj: MetricJet, gamma: np.ndarray):
    """Max-norm residual of d_k h = Gamma^i_ik and of its derivative
    d_l d_k h = d_l Gamma^i_ik, with h = log|det g|^(1/2), per sample."""
    nb = np.ndim(mj.x) - 1
    return np.maximum(sample_max(mj.dh - np.einsum("...jij->...i", gamma), nb),
                      sample_max(mj.ddh - np.einsum("...liik->...lk", mj.dchristoffel), nb))


# ---------------------------------------------------------------------------
# curvature two-form with values in the Clifford algebra
# ---------------------------------------------------------------------------


def curvature_two_form_residual(mj: MetricJet, cd: CurvatureData):
    """Check [S_ij, dx^k] = riemann[l, k, i, j] dx^l for every i, j, k, per
    sample, where S_ij = -1/4 lowered[k, l, i, j] dx^k dx^l (Clifford
    products) has symbols s[..., i, j, blade], on the stacked product tables
    of g^-1: S_ij dx^k is one batched matrix product of s with the tables."""
    n, dim = mj.n, 1 << mj.n
    covectors = 1 << np.arange(n)
    table = product_table(mj.g_inv)
    gens = table[..., covectors, :, :]
    pairs = np.einsum("...kab,...lb->...kla", gens, gens[..., 0])
    s = -0.25 * np.einsum("...klij,...kla->...ija", cd.lowered, pairs)
    batch = s.shape[:-3]
    right = s.reshape(batch + (n * n, dim)) @ table.reshape(batch + (dim, dim * dim))
    right = right.reshape(batch + (n, n, dim, dim))[..., covectors]   # S_ij dx^k, [i, j, a, k]
    left = np.einsum("...kab,...ijb->...ijak", gens, s)                # dx^k S_ij
    target = np.zeros_like(right)
    target[..., covectors, :] = np.einsum("...lkij->...ijlk", cd.riemann)
    err = np.sqrt(np.sum(np.abs(right - left - target) ** 2, axis=-2))
    return np.max(err, axis=(-3, -2, -1))
