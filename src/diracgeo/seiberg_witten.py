"""Monopole equations and the two functional forms on the flat 4-torus.

Fields are band-limited Fourier series on [0, 2pi)^4 with the flat metric and
identity frame. The U(1) potential is i times a real trigonometric polynomial;
the spinor lives in one chirality block of the rank-4 spinor module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .spin import spin_module_data

N_DIM = 4
TWO_PI = 2.0 * np.pi

# component indices of the two chirality blocks in the rank-4 spinor fiber
BLOCK_INDICES = {"+": (0, 3), "-": (1, 2)}

_SMD = spin_module_data(N_DIM)
GAMMAS = _SMD.gammas

_PAIRS = [(j, k) for j in range(N_DIM) for k in range(j + 1, N_DIM)]
_ROWS, _COLS = (np.array(ix) for ix in zip(*_PAIRS))

# star on the pair components F[j, k], j < k, in _PAIRS order: star(e^0 ^ e^1)
# = e^2 ^ e^3, star(e^0 ^ e^2) = -e^1 ^ e^3, star(e^0 ^ e^3) = e^1 ^ e^2
_STAR = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


class SWConfigError(ValueError):
    """Malformed or inconsistent monopole configuration."""


@dataclass
class SWConfig:
    grid: int
    band: int
    block: str
    a_modes: Dict[Tuple[int, Tuple[int, int, int, int]], complex]
    psi_modes: Dict[Tuple[int, Tuple[int, int, int, int]], complex]

    def hermitized_a(self) -> Dict[Tuple[int, Tuple[int, int, int, int]], complex]:
        """Symmetrize so each component is a real field (before the i factor)."""
        out: Dict[Tuple[int, Tuple[int, int, int, int]], complex] = {}
        for (a, k), c in self.a_modes.items():
            mk = tuple(-i for i in k)
            out[(a, k)] = out.get((a, k), 0.0j) + 0.5 * c
            out[(a, mk)] = out.get((a, mk), 0.0j) + 0.5 * np.conj(c)
        return out


def sw_config_from_dict(cfg: dict) -> SWConfig:
    try:
        grid = int(cfg["grid"])
        band = int(cfg["band"])
        block = str(cfg.get("chirality_block", "+"))
        raw_a = cfg.get("a_modes", [])
        raw_psi = cfg.get("psi_modes", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise SWConfigError(f"bad monopole config: {exc}") from exc
    if block not in BLOCK_INDICES:
        raise SWConfigError(f"chirality block must be '+' or '-', got {block!r}")
    if band < 0 or grid < 1:
        raise SWConfigError("grid and band must be positive")
    # the quartic |psi|^4 term reaches frequency 4*band per axis; the
    # trapezoid rule integrates it exactly only above that (Orszag 1971)
    if grid < 4 * band + 1:
        raise SWConfigError(
            f"grid {grid} is below the quadrature bound 4*band+1 = "
            f"{4 * band + 1} for band {band} (Nyquist limit of |psi|^4)")
    allowed = BLOCK_INDICES[block]
    a_modes: Dict[Tuple[int, Tuple[int, int, int, int]], complex] = {}
    for row in raw_a:
        if len(row) != 7:
            raise SWConfigError("a_modes rows are [component, k1..k4, re, im]")
        a = int(row[0])
        k = tuple(int(v) for v in row[1:5])
        if not 0 <= a < N_DIM:
            raise SWConfigError(f"potential component {a} out of range")
        if any(abs(v) > band for v in k):
            raise SWConfigError(f"mode {k} exceeds band {band}")
        a_modes[(a, k)] = a_modes.get((a, k), 0.0j) + complex(row[5], row[6])
    psi_modes: Dict[Tuple[int, Tuple[int, int, int, int]], complex] = {}
    for row in raw_psi:
        if len(row) != 7:
            raise SWConfigError("psi_modes rows are [component, k1..k4, re, im]")
        c = int(row[0])
        k = tuple(int(v) for v in row[1:5])
        if not 0 <= c < _SMD.dim:
            raise SWConfigError(f"spinor component {c} out of range")
        if c not in allowed:
            raise SWConfigError(
                f"spinor component {c} lies outside the declared chirality "
                f"block {block!r}")
        if any(abs(v) > band for v in k):
            raise SWConfigError(f"mode {k} exceeds band {band}")
        psi_modes[(c, k)] = psi_modes.get((c, k), 0.0j) + complex(row[5], row[6])
    return SWConfig(grid, band, block, a_modes, psi_modes)


def load_sw_config(path: str) -> SWConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SWConfigError(f"config is not valid JSON: {exc}") from exc
    return sw_config_from_dict(data)


def random_sw_config(rng, band: int = 2, grid: int = 16, block: str = "+",
                     n_a_modes: int = 6, n_psi_modes: int = 4) -> SWConfig:
    rows_a: List[list] = []
    for _ in range(n_a_modes):
        a = int(rng.integers(0, N_DIM))
        k = [int(rng.integers(-band, band + 1)) for _ in range(N_DIM)]
        z = rng.normal() + 1j * rng.normal()
        rows_a.append([a] + k + [z.real, z.imag])
    rows_p: List[list] = []
    comps = BLOCK_INDICES[block]
    for _ in range(n_psi_modes):
        c = comps[int(rng.integers(0, 2))]
        k = [int(rng.integers(-band, band + 1)) for _ in range(N_DIM)]
        z = rng.normal() + 1j * rng.normal()
        rows_p.append([c] + k + [z.real, z.imag])
    return sw_config_from_dict({"grid": grid, "band": band,
                                "chirality_block": block,
                                "a_modes": rows_a, "psi_modes": rows_p})


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def potential_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values A_a(x) and derivatives dA[a, b] = partial_a A_b, purely imaginary."""
    x = np.asarray(x, dtype=float)
    val = np.zeros(N_DIM, dtype=complex)
    dval = np.zeros((N_DIM, N_DIM), dtype=complex)
    for (a, k), c in cfg.hermitized_a().items():
        kv = np.asarray(k, dtype=float)
        ph = c * np.exp(1j * float(kv @ x))
        val[a] += 1j * ph
        dval[:, a] += 1j * (1j * kv) * ph
    return val, dval


def spinor_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values psi(x) in C^4 and derivatives dpsi[a, c]."""
    x = np.asarray(x, dtype=float)
    val = np.zeros(_SMD.dim, dtype=complex)
    dval = np.zeros((N_DIM, _SMD.dim), dtype=complex)
    for (c, k), z in cfg.psi_modes.items():
        kv = np.asarray(k, dtype=float)
        ph = z * np.exp(1j * float(kv @ x))
        val[c] += ph
        dval[:, c] += 1j * kv * ph
    return val, dval


def curvature_at(cfg: SWConfig, x) -> np.ndarray:
    """F = dA as the antisymmetric array F[a, b] = dA_b/dx_a - dA_a/dx_b."""
    _, dval = potential_at(cfg, x)
    return dval - dval.T


# ---------------------------------------------------------------------------
# algebraic pieces
# ---------------------------------------------------------------------------


def block_projector(block: str) -> np.ndarray:
    """(1 + s star) / 2 on the pair components F[j, k], j < k, with s = +1
    on the + block and -1 on the - block: Q(psi) is self-dual on S+ and
    anti-self-dual on S-, so this is the half of F its equation pairs with."""
    sign = 1.0 if block == "+" else -1.0
    return 0.5 * (np.eye(len(_PAIRS)) + sign * _STAR)


def block_part(f: np.ndarray, block: str) -> np.ndarray:
    """The block's half (F +- star F) / 2 of an antisymmetric 2-form array."""
    v = block_projector(block) @ f[_ROWS, _COLS]
    out = np.zeros_like(f)
    out[_ROWS, _COLS], out[_COLS, _ROWS] = v, -v
    return out


def quadratic_form(psi: np.ndarray) -> np.ndarray:
    """Q[j, k] = -<psi, G_j G_k psi> / 4 on ordered pairs, antisymmetrized."""
    q = np.zeros((N_DIM, N_DIM), dtype=complex)
    for j, k in _PAIRS:
        v = -0.25 * np.vdot(psi, GAMMAS[j] @ GAMMAS[k] @ psi)
        q[j, k], q[k, j] = v, -v
    return q


def form_norm_sq(f: np.ndarray) -> float:
    """Squared norm summed over ordered index pairs."""
    return float(sum(abs(f[j, k]) ** 2 for j, k in _PAIRS))


def quadratic_identity_residual(psi: np.ndarray) -> float:
    """|Q(psi)|^2 - |psi|^4 / 8, relative to the size of |psi|^4 / 8."""
    nrm = float(np.real(np.vdot(psi, psi)))
    scale = max(1.0, nrm * nrm / 8.0)
    return abs(form_norm_sq(quadratic_form(psi)) - nrm * nrm / 8.0) / scale


def sw_residuals(cfg: SWConfig, x) -> Dict[str, float]:
    """Pointwise residuals of the two monopole equations at x."""
    aval, _ = potential_at(cfg, x)
    psi, dpsi = spinor_at(cfg, x)
    dirac = np.zeros(_SMD.dim, dtype=complex)
    for a in range(N_DIM):
        dirac += GAMMAS[a] @ (dpsi[a] + 0.5 * aval[a] * psi)
    resid = block_part(curvature_at(cfg, x), cfg.block) - quadratic_form(psi)
    return {
        "dirac": float(np.max(np.abs(dirac))),
        "curvature": float(max(abs(resid[j, k]) for j, k in _PAIRS)),
        "quadratic_identity": quadratic_identity_residual(psi),
    }


# ---------------------------------------------------------------------------
# grid evaluation and the two functional forms
# ---------------------------------------------------------------------------


def _synthesis_matrix(band: int, grid: int) -> np.ndarray:
    """E[k + band, m] = exp(i k x_m) at x_m = 2 pi m / grid, |k| <= band: the
    inverse DFT restricted to the band, with k m reduced mod grid first so
    the phases are the FFT's twiddles."""
    k = np.arange(-band, band + 1)
    return np.exp(1j * TWO_PI / grid * np.mod(np.outer(k, np.arange(grid)), grid))


def _spectrum(modes: Dict[Tuple[int, tuple], complex], comps: Sequence[int],
              band: int) -> np.ndarray:
    """Coefficients of the listed components on the (2 band + 1)^4 cube."""
    out = np.zeros((len(comps),) + (2 * band + 1,) * N_DIM, dtype=complex)
    for (c, k), z in modes.items():
        out[(comps.index(c),) + tuple(v + band for v in k)] += z
    return out


def sw_functional(cfg: SWConfig) -> Dict[str, float]:
    """Both integral forms of the monopole functional and their gap.

    The first integrates the squared equation residuals; the second uses the
    connection Laplacian, the block's half of the curvature, and the quartic
    term.  Quadrature is the uniform trapezoid rule, exact for integrands
    below the grid's alias limit.

    Only the fields the integrands read are built, as one stack of spectra
    on the (2 band + 1)^4 frequency cube with derivatives as i k multipliers,
    and synthesized on the grid by four contractions with ``exp(i k x_j)``.
    The spinor keeps only its two block components.
    """
    grid, band = cfg.grid, cfg.band
    blk = list(BLOCK_INDICES[cfg.block])
    opp = [c for c in range(_SMD.dim) if c not in blk]
    freq = np.arange(-band, band + 1)
    ik = 1j * np.stack(np.meshgrid(*(freq,) * N_DIM, indexing="ij"))
    a_hat = 1j * _spectrum(cfg.hermitized_a(), range(N_DIM), band)
    psi_hat = _spectrum(cfg.psi_modes, blk, band)
    da_hat = ik[:, None] * a_hat                        # d_a A_b
    dpsi_hat = ik[:, None] * psi_hat                    # d_a psi_c
    vals = np.concatenate([
        a_hat,
        da_hat[_ROWS, _COLS] - da_hat[_COLS, _ROWS],    # F_jk, j < k
        np.einsum("aa...->...", da_hat)[None],          # div A
        psi_hat,
        dpsi_hat.reshape((-1,) + psi_hat.shape[1:]),
        np.sum(ik ** 2, axis=0) * psi_hat,              # Laplacian of psi
    ])
    # each contraction takes the leading frequency axis and appends a grid axis
    synth = _synthesis_matrix(band, grid)
    for _ in range(N_DIM):
        vals = np.tensordot(vals, synth, axes=(1, 0))
    aval, f, diva, psi, dpsi, lap = np.split(
        vals, np.cumsum([N_DIM, len(_PAIRS), 1, len(blk), N_DIM * len(blk)]))
    dpsi = dpsi.reshape((N_DIM,) + psi.shape)

    # Dirac term: D = sum_a G_a (d_a + A_a / 2) psi maps the block to the other
    gam = GAMMAS[:, opp][:, :, blk]
    dirac = np.tensordot(gam, dpsi + 0.5 * aval[:, None] * psi,
                         axes=([0, 2], [0, 1]))
    dirac_sq = np.sum(np.abs(dirac) ** 2, axis=0)

    # the block's half of the curvature and the spinor quadratic form
    fblock = np.tensordot(block_projector(cfg.block), f, axes=1)
    gjk = np.stack([GAMMAS[j] @ GAMMAS[k] for j, k in _PAIRS])[:, blk][:, :, blk]
    q = -0.25 * np.tensordot(gjk, np.conj(psi)[:, None] * psi, axes=2)
    resid_sq = np.sum(np.abs(fblock - q) ** 2, axis=0)
    fblock_sq = np.sum(np.abs(fblock) ** 2, axis=0)

    # connection Laplacian: -sum_a (d_a + A_a/2)^2 psi, paired with psi
    nabla_sq = (lap + (0.5 * diva + 0.25 * np.sum(aval ** 2, axis=0)) * psi
                + np.einsum("a...,ac...->c...", aval, dpsi))
    lap_pair = -np.sum(np.real(np.conj(psi) * nabla_sq), axis=0)

    psi_sq = np.sum(np.abs(psi) ** 2, axis=0)

    vol_factor = TWO_PI ** N_DIM / grid ** N_DIM
    w1 = float(np.sum(dirac_sq + resid_sq)) * vol_factor
    w2 = float(np.sum(lap_pair + fblock_sq + psi_sq ** 2 / 8.0)) * vol_factor
    denom = max(abs(w1), abs(w2), 1e-30)
    return {"w_equations": w1, "w_weitzenbock": w2,
            "gap": abs(w1 - w2), "relative_gap": abs(w1 - w2) / denom}
