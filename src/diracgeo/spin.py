"""Spinor modules, spin-c connections, and Dirac operators on Riemannian charts.

The spinor fiber is the exterior algebra of C^(n/2) with gamma matrices built
from creation/annihilation operators; coordinate gammas come from an
orthonormal frame, so everything reduces to the bundle machinery with
m = 2^(n/2).  The coordinate gammas c(dx^a) and the connection matrices
Omega_a are each one jet with the index a on the first fiber axis, fiber
(n, m, m).

Stack convention: as in ``bundles``, the metric jet, frame, connection and
sections live at a stack of points x (P, n), plain arrays carry the sample
axis in front and every residual is returned per sample.  A section
is a block of K columns, fiber (m, K), one per draw: the Dirac routes and
the Lichnerowicz residual act on each column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Optional, Tuple

import numpy as np

from .bundles import (DiracOperatorData, ModuleSpec, _fold, _fold_index,
                      apply_dirac, canonical_laplacian, dirac_square)
from .charts import MetricJet
from .clifford import blade_tables, contract
from .jets import (Jet, check_point, frozen, jet_sqrt, relative, relative_gap, sample_max,
                   seed_point)


class SpinSignatureError(ValueError):
    """Frame construction is only available on Riemannian charts here."""


# ---------------------------------------------------------------------------
# orthonormal frames
# ---------------------------------------------------------------------------


def _sylvester_sqrt(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray):
    """Jets of the symmetric square root S with S S = g, for a stack g
    (P, n, n) positive definite.

    First and second derivatives solve S' S + S S' = g' in the eigenbasis.
    """
    w, v = np.linalg.eigh(g)
    if np.min(w) <= 0:
        raise SpinSignatureError("metric is not positive definite at the point")
    sq = np.sqrt(w)
    denom, vt = sq[..., :, None] + sq[..., None, :], np.swapaxes(v, -1, -2)
    s = (v * sq[..., None, :]) @ vt

    def solve(rhs: np.ndarray) -> np.ndarray:
        # the derivative axes of rhs sit between the sample and matrix axes
        lead = tuple(range(1, rhs.ndim - 2))
        vk, vtk, dk = (np.expand_dims(a, lead) for a in (v, vt, denom))
        return vk @ ((vtk @ rhs @ vk) / dk) @ vtk

    ds = solve(dg)
    # [k, l]: d_k d_l g - d_l S d_k S - d_k S d_l S
    dk, dl = ds[..., :, None, :, :], ds[..., None, :, :, :]
    dds = solve(d2g - dl @ dk - dk @ dl)
    return s, ds, dds


@dataclass
class FrameField:
    """Coframe co[k, i] = <d_k, e^i> and inverse inv[i, k] = <e_i, dx^k> of the jet mj."""

    mj: MetricJet
    co: Jet
    inv: Jet


def build_frame_from_metric(mj: MetricJet) -> FrameField:
    chart = mj.chart
    n = mj.n
    if chart.lam_fn is not None:
        lam = chart.lam_fn(seed_point(mj.x, order=2))
        if np.any(np.real(lam.val) <= 0):
            raise SpinSignatureError("conformal factor not positive at the point")
        return FrameField(mj, np.eye(n) / lam, lam * np.eye(n))
    if not chart.riemannian:
        raise SpinSignatureError(
            f"chart {chart.name!r} is indefinite; frames exist here only in the "
            f"conformal closed form")
    sqrt = Jet(mj.x, *_sylvester_sqrt(mj.g, mj.dg, mj.d2g))
    # S commutes with g = S S, so S^-1 = S g^-1
    return FrameField(mj, sqrt, sqrt @ Jet(mj.x, mj.g_inv, mj.dg_inv, mj.d2g_inv))


def frame_invariant_residual(frame: FrameField):
    """The largest orthonormality, duality and inverse-metric residual per
    sample, the last relative to max|g^-1|."""
    mj, co, inv = frame.mj, frame.co.val, frame.inv.val
    eye = np.eye(mj.n)
    return np.maximum(
        sample_max(np.swapaxes(co, -1, -2) @ mj.g_inv @ co - eye, inv @ co - eye),
        relative(sample_max(np.swapaxes(inv, -1, -2) @ inv - mj.g_inv),
                 sample_max(mj.g_inv)))


# ---------------------------------------------------------------------------
# spinor module
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def spinor_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The frame gammas Gamma_a, (n, dim, dim), and the chirality of the
    polarization module on the exterior algebra of C^(n/2), dim = 2^(n/2),
    read-only."""
    if n % 2:
        raise ValueError("spinor module needs even dimension")
    half = n // 2
    eps, cot = blade_tables(half)
    dim = 1 << half
    gammas = np.empty((n, dim, dim), dtype=complex)
    gammas[0::2] = cot - eps
    gammas[1::2] = 1j * (cot + eps)
    # (-1)^half times the product over modes k of 1 - 2 N_k, N_k = eps_k cot_k
    chi = reduce(np.matmul, np.eye(dim) - 2.0 * (eps @ cot),
                 np.eye(dim, dtype=complex) * (-1.0) ** half)
    return frozen((gammas, chi))


def coordinate_gammas(frame: FrameField) -> Jet:
    """c(dx^k) = sum_i <e_i, dx^k> Gamma_i with jets from the frame, fiber
    (n, dim, dim)."""
    gammas = spinor_tables(frame.mj.n)[0]
    return frame.inv.map(lambda a: contract(np.swapaxes(a, -1, -2), gammas))


def spin_module(n: int) -> ModuleSpec:
    """Bundle-level module spec whose gammas come from the metric square root."""
    chi = spinor_tables(n)[1]
    return ModuleSpec(len(chi), chi, lambda mj: coordinate_gammas(build_frame_from_metric(mj)))


# ---------------------------------------------------------------------------
# spin connection
# ---------------------------------------------------------------------------


def frame_connection_coefficients(frame: FrameField) -> Jet:
    """(e_j, nabla_{d_a} e_k) as a 1-jet w0 with fiber [a, j, k].

    w0 pairs the coordinate-direction derivative of e_k with e_j;
    antisymmetric in (j, k) by metric compatibility.
    """
    mj, inv = frame.mj, frame.inv
    ge = inv @ Jet(mj.x, mj.g, mj.dg, mj.d2g)  # ge[j, m] = <e_j, d_m> lowered
    # Gamma^m_ab on the fiber [a, b, m], so nab[a, k, m] = (nabla_{d_a} e_k)^m
    gamma = Jet(mj.x, np.moveaxis(mj.christoffel, -3, -1),
                np.moveaxis(mj.dchristoffel, -3, -1))
    nab = inv.gradient() + inv @ gamma
    return ge @ nab.map(lambda t: np.swapaxes(t, -1, -2))


@dataclass
class SpinConnectionData:
    """U(1) potential plus frame term: Omega_a = A_a/2 - w0[a,j,k] G_j G_k / 4,
    with the frame it was built from, and so its metric jet."""

    frame: FrameField
    a_pot: Jet                  # A_a, fiber (n,)
    w0: Jet                     # (e_j, nabla_{d_a} e_k), fiber (n, n, n)
    omega: Jet                  # Omega_a, fiber (n, dim, dim)

    @cached_property
    def dirac(self) -> DiracOperatorData:
        """The Dirac operator c(dx^a)(partial_a + Omega_a) as bundle data,
        built on first use."""
        mj, dim = self.frame.mj, self.omega.val.shape[-1]
        return DiracOperatorData(mj, *frozen((
            coordinate_gammas(self.frame), self.omega, Jet.constant(np.zeros((dim, dim)), mj.x))))


def build_spin_connection(frame: FrameField, a_pot: Optional[Jet] = None) -> SpinConnectionData:
    """The spin-c connection of ``frame`` and the imaginary U(1) potential
    ``a_pot`` (zero unless given), all at the points of the frame's metric jet."""
    mj, gammas = frame.mj, spinor_tables(frame.mj.n)[0]
    if a_pot is None:
        a_pot = Jet.constant(np.zeros(mj.n), mj.x)
    if np.max(np.abs(a_pot.val.real)) > 1e-12 or (
            a_pot.d is not None and np.max(np.abs(a_pot.d.real)) > 1e-12):
        raise ValueError("spin-c potential must be purely imaginary")
    w0 = frame_connection_coefficients(frame)
    anti = float(np.max(np.abs(w0.val + np.swapaxes(w0.val, -1, -2))))
    if anti > 1e-9:
        raise ValueError(f"frame coefficients not antisymmetric ({anti:.2e})")
    gg = np.einsum("jab,kbc->jkac", gammas, gammas)
    frame_term = w0.map(lambda t: -0.25 * np.einsum("...jk,jkxy->...xy", t, gg))
    potential = Jet(a_pot.x, a_pot.val, a_pot.d)[:, None, None] * (0.5 * np.eye(gammas.shape[-1]))
    return SpinConnectionData(frame, a_pot, w0, potential + frame_term)


# ---------------------------------------------------------------------------
# Dirac operators
# ---------------------------------------------------------------------------


def spin_dirac(scd: SpinConnectionData, j: Jet) -> np.ndarray:
    """c(dx^a)(partial_a + Omega_a) psi on a block of section 1-jets, fiber (m, K)."""
    if j.d is None:
        raise ValueError("spin Dirac needs an order-1 section jet")
    return apply_dirac(scd.dirac, j)


def spin_dirac_alpha(scd: SpinConnectionData, j: Jet) -> np.ndarray:
    """Dual route: slash(d) + slash(A)/2 - q(2 alpha_1 + 3 alpha_3)/4.

    alpha_1 sums (e_j, nabla_{e_i} e_i-slot) over the frame; alpha_3 is the
    antisymmetrized cubic with (e_j, [e_i, e_k]) coefficients.  psi is a
    block, fiber (m, K).
    """
    out = _slash(scd.dirac.gam.val, j, scd.a_pot)
    # (e_j, nabla_{e_i} e_k) = <e_i, dx^a> w0[a, j, k]
    w = np.einsum("...ia,...ajk->...ijk", scd.frame.inv.val, scd.w0.val)
    g = spinor_tables(scd.frame.mj.n)[0]
    q1 = contract(np.einsum("...iji->...j", w), g)
    wt = w - np.swapaxes(w, -3, -1)  # (e_j, [e_i, e_k]) by torsion freeness
    # the antisymmetrized cubic on the increasing triples a < b < c
    alt = sum(sg * np.einsum(f"...{p}->...abc", wt) for p, sg in
              (("abc", 1), ("bca", 1), ("cab", 1), ("bac", -1), ("acb", -1), ("cba", -1)))
    a, b, c = np.indices(wt.shape[-3:])
    cubes = g[:, None, None] @ g[None, :, None] @ g[None, None, :]  # gamma_a gamma_b gamma_c
    q3 = np.einsum("...abc,abcxw->...xw", alt / 6.0 * ((a < b) & (b < c)), cubes)
    return out - 0.25 * ((2.0 * q1 + 3.0 * q3) @ j.val)


def _slash(gammas: np.ndarray, j: Jet, a_pot: Jet) -> np.ndarray:
    """gamma^a (partial_a + A_a / 2) psi at each point, on a block psi (m, K):
    the index a folded into the fiber, one product."""
    check_point(a_pot.x, j.x)
    return _fold_index(gammas) @ _fold(
        j.d + 0.5 * a_pot.val[..., :, None, None] * j.val[..., None, :, :])


def conformal_dirac(scd: SpinConnectionData, j: Jet) -> np.ndarray:
    """Closed form L (slash(d) + slash(A)/2) L^{-1} with L^2 = lambda^(n-1), on
    a block psi (m, K)."""
    chart = scd.frame.mj.chart
    if chart.lam_fn is None:
        raise ValueError("conformal closed form needs a conformal chart")
    lam = chart.lam_fn(seed_point(j.x, order=2))
    if np.any(np.real(lam.val) <= 0):
        raise ValueError("conformal factor not positive at the point")
    biglam = jet_sqrt(lam) ** (chart.n - 1)
    return ((biglam.val * lam.val)[..., None, None]
            * _slash(spinor_tables(chart.n)[0], j * (1.0 / biglam), scd.a_pot))


# ---------------------------------------------------------------------------
# Lichnerowicz and chirality checks
# ---------------------------------------------------------------------------


def lichnerowicz_residual(scd: SpinConnectionData, j: Jet):
    """Norm of D_A^2 psi - (lap^S + r_M/4 + q(F)/2) psi, F = dA, per sample
    and column of a block psi (m, K).

    Scaled by the larger of the two sides so the value is a relative error.
    """
    if j.dd is None:
        raise ValueError("Lichnerowicz test needs an order-2 section jet")
    D, mj = scd.dirac, scd.frame.mj
    lhs = dirac_square(D, j)
    rhs = canonical_laplacian(scd.omega, mj, j)
    rhs = rhs + 0.25 * mj.scalar[..., None, None] * j.val
    # q(F) = F_ab gamma^a gamma^b / 2 for F_ab = d_a A_b - d_b A_a
    g = D.gam.val
    da = scd.a_pot.d
    qf = 0.5 * np.einsum("...ab,...axy,...byz->...xz", da - np.swapaxes(da, -1, -2), g, g)
    rhs = rhs + 0.5 * (qf @ j.val)
    return relative_gap(lhs, rhs, cols=True)


def chirality_action_checks(scd: SpinConnectionData) -> dict:
    """Per sample: anticommutation with the gammas, commutation with the connection."""
    g, chi = scd.dirac.gam.val, spinor_tables(scd.frame.mj.n)[1]
    r1 = sample_max(chi @ g + g @ chi)
    om = scd.omega.val
    r2 = sample_max(chi @ om - om @ chi)
    sq = float(np.max(np.abs(chi @ chi - np.eye(len(chi)))))
    return {"gamma_anticommutation": r1, "connection_commutation": r2,
            "chirality_squares_to_one": sq}
