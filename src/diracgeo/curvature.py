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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import MetricJet
from .clifford import BilinearForm, contract


def christoffel(mj: MetricJet) -> np.ndarray:
    """Gamma[k, i, j], computed once per metric jet."""
    return mj.christoffel


def dchristoffel(mj: MetricJet) -> np.ndarray:
    """dGamma[l, k, i, j] = d_l Gamma^k_ij, computed once per metric jet."""
    return mj.dchristoffel


def riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    return (np.einsum("ljki->ijkl", dgamma) - np.einsum("kjli->ijkl", dgamma)
            + np.einsum("jlm,mki->ijkl", gamma, gamma)
            - np.einsum("jkm,mli->ijkl", gamma, gamma))


def lowered_riemann(mj: MetricJet, riem: np.ndarray) -> np.ndarray:
    return np.einsum("jm,imkl->ijkl", mj.g, riem)


def ricci_and_scalar(mj: MetricJet, low: np.ndarray):
    ric = np.einsum("km,mikj->ij", mj.g_inv, low)
    scal = float(np.einsum("ij,ij->", mj.g_inv, ric))
    return ric, scal


@dataclass
class CurvatureData:
    """Everything Levi-Civita at one point."""

    mj: MetricJet
    christoffel: np.ndarray
    dchristoffel: np.ndarray
    riemann: np.ndarray
    lowered: np.ndarray
    ricci: np.ndarray
    scalar: float


def curvature_data(mj: MetricJet) -> CurvatureData:
    gamma = christoffel(mj)
    dgamma = dchristoffel(mj)
    riem = riemann(gamma, dgamma)
    low = lowered_riemann(mj, riem)
    ric, scal = ricci_and_scalar(mj, low)
    return CurvatureData(mj, gamma, dgamma, riem, low, ric, scal)


# ---------------------------------------------------------------------------
# first-order operations on fields evaluated at a point
# ---------------------------------------------------------------------------


def gradient(mj: MetricJet, df: np.ndarray) -> np.ndarray:
    """Components of grad f from the differential df_i = d_i f."""
    return mj.g_inv @ np.asarray(df)


def divergence_via_density(mj: MetricJet, x_val: np.ndarray, dx_val: np.ndarray) -> complex:
    """div X = |g|^-1/2 d_i(|g|^1/2 X^i); dx_val[a, i] = d_a X^i."""
    s = complex(np.trace(dx_val))
    s += complex(np.asarray(x_val) @ mj.dh)
    return s


def divergence_via_connection(mj: MetricJet, gamma: np.ndarray,
                              x_val: np.ndarray, dx_val: np.ndarray) -> complex:
    """div X as the contraction iota(nabla X) = d_i X^i + Gamma^i_ia X^a."""
    s = complex(np.trace(dx_val))
    for i in range(mj.n):
        for a in range(mj.n):
            s += gamma[i, i, a] * x_val[a]
    return s


def volume_coefficient(mj: MetricJet, orientation: int = 1) -> float:
    """Coefficient of dx^1 ^ ... ^ dx^n in the metric volume form."""
    return orientation * mj.sqrt_abs_det


def log_det_identity_residual(mj: MetricJet, gamma: np.ndarray) -> float:
    """Max-norm residual of d_k h = Gamma^i_ik and of its derivative
    d_l d_k h = d_l Gamma^i_ik, with h = log|det g|^(1/2)."""
    return float(max(np.max(np.abs(mj.dh - np.einsum("jij->i", gamma))),
                     np.max(np.abs(mj.ddh - np.einsum("liik->lk", mj.dchristoffel)))))


# ---------------------------------------------------------------------------
# curvature two-form with values in the Clifford algebra
# ---------------------------------------------------------------------------


def curvature_two_form(b: BilinearForm, low: np.ndarray) -> np.ndarray:
    """Symbols of S_ij = -1/4 lowered[k, l, i, j] dx^k dx^l (Clifford products),
    indexed [i, j, blade]."""
    gens = b.table[1 << np.arange(b.n)]
    pairs = np.einsum("kab,lb->kla", gens, gens[:, :, 0])
    return -0.25 * np.einsum("klij,kla->ija", low, pairs)


def curvature_two_form_residual(mj: MetricJet, cd: CurvatureData) -> float:
    """Check [S_ij, dx^k] = riemann[l, k, i, j] dx^l for every i, j, k."""
    n = mj.n
    b = BilinearForm(mj.g_inv)
    s = curvature_two_form(b, cd.lowered)
    covectors = 1 << np.arange(n)
    right = contract(s, b.table)[..., covectors]                  # S_ij dx^k, [i, j, a, k]
    left = np.einsum("kab,ijb->ijak", b.table[covectors], s)      # dx^k S_ij
    target = np.zeros_like(right)
    target[:, :, covectors] = np.einsum("lkij->ijlk", cd.riemann)
    return float(np.max(np.sqrt(np.sum(np.abs(right - left - target) ** 2, axis=2))))
