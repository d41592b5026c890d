"""Monopole equations and the two functional forms on the flat 4-torus.

Fields are band-limited Fourier series on [0, 2pi)^4 with the flat metric and
identity frame. The U(1) potential is i times a real trigonometric polynomial;
the spinor lives in one chirality block of the rank-4 spinor module.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .charts import config_integer
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

# G_j G_k on the pairs j < k, in _PAIRS order
_GJK = np.stack([GAMMAS[j] @ GAMMAS[k] for j, k in _PAIRS])


class SWConfigError(ValueError):
    """Malformed or inconsistent monopole configuration."""


@dataclass
class SWConfig:
    grid: int
    band: int
    block: str
    a_modes: Dict[Tuple[int, Tuple[int, int, int, int]], complex]
    psi_modes: Dict[Tuple[int, Tuple[int, int, int, int]], complex]


def _modes(rows, name: str, band: int, comps: Sequence[int],
           outside: str) -> Dict[Tuple[int, tuple], complex]:
    """The [component, k1..k4, re, im] rows, summed by (component, k)."""
    if not isinstance(rows, list):
        raise SWConfigError(f"{name} must be a list of rows")
    out: Dict[Tuple[int, tuple], complex] = {}
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 7:
            raise SWConfigError(f"{name} rows are [component, k1..k4, re, im]")
        c = config_integer(row[0], f"{name} component", SWConfigError)
        k = tuple(config_integer(v, "mode index", SWConfigError) for v in row[1:5])
        if c not in comps:
            raise SWConfigError(f"{name} component {c} {outside}")
        if any(abs(v) > band for v in k):
            raise SWConfigError(f"mode {k} exceeds band {band}")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and math.isfinite(v) for v in row[5:]):
            raise SWConfigError(f"re, im {row[5:]!r} must be finite numbers")
        out[(c, k)] = out.get((c, k), 0.0j) + complex(row[5], row[6])
    return out


def sw_config_from_dict(cfg: dict) -> SWConfig:
    try:
        grid = config_integer(cfg["grid"], "grid", SWConfigError)
        band = config_integer(cfg["band"], "band", SWConfigError)
        block = str(cfg.get("chirality_block", "+"))
    except (KeyError, TypeError) as exc:
        raise SWConfigError(f"bad monopole config: {exc}") from exc
    if block not in BLOCK_INDICES:
        raise SWConfigError(f"chirality block must be '+' or '-', got {block!r}")
    if grid < 1:
        raise SWConfigError(f"grid must be positive, got {grid}")
    if band < 0:
        raise SWConfigError(f"band must be non-negative, got {band}")
    # the quartic |psi|^4 term reaches frequency 4*band per axis; the
    # trapezoid rule integrates it exactly only above that (Orszag 1971)
    if grid < 4 * band + 1:
        raise SWConfigError(
            f"grid {grid} is below the quadrature bound 4*band+1 = "
            f"{4 * band + 1} for band {band} (Nyquist limit of |psi|^4)")
    return SWConfig(grid, band, block,
                    _modes(cfg.get("a_modes", []), "a_modes", band, range(N_DIM),
                           "out of range"),
                    _modes(cfg.get("psi_modes", []), "psi_modes", band,
                           BLOCK_INDICES[block], "lies outside the declared "
                           f"chirality block {block!r}"))


def load_sw_config(path: str) -> SWConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SWConfigError(f"config is not valid JSON: {exc}") from exc
    return sw_config_from_dict(data)


def random_sw_config(rng, band: int = 2, grid: int = 16, block: str = "+",
                     n_a_modes: int = 6, n_psi_modes: int = 4) -> SWConfig:
    def rows(count, component):
        out = []
        for _ in range(count):
            c = component()
            k = [int(rng.integers(-band, band + 1)) for _ in range(N_DIM)]
            z = rng.normal() + 1j * rng.normal()
            out.append([c] + k + [z.real, z.imag])
        return out

    comps = BLOCK_INDICES[block]
    # the potential rows are drawn first, then the spinor rows
    rows_a = rows(n_a_modes, lambda: int(rng.integers(0, N_DIM)))
    rows_p = rows(n_psi_modes, lambda: comps[int(rng.integers(0, 2))])
    return sw_config_from_dict({"grid": grid, "band": band,
                                "chirality_block": block,
                                "a_modes": rows_a, "psi_modes": rows_p})


# ---------------------------------------------------------------------------
# spectra and their evaluation
# ---------------------------------------------------------------------------


def _spectra(cfg: SWConfig) -> Tuple[np.ndarray, np.ndarray]:
    """A and psi on the (2 band + 1)^4 frequency cube, (4, *cube) each.  Each
    potential component is i times a real field: the modes at k and -k
    share the coefficient and its conjugate half and half."""
    band = cfg.band
    a_hat, psi_hat = np.zeros((2, N_DIM) + (2 * band + 1,) * N_DIM, dtype=complex)
    for hat, modes in ((a_hat, cfg.a_modes), (psi_hat, cfg.psi_modes)):
        for (c, k), z in modes.items():
            hat[(c,) + tuple(v + band for v in k)] += z
    return 0.5j * (a_hat + np.conj(np.flip(a_hat, axis=(1, 2, 3, 4)))), psi_hat


def _synthesis_matrix(band: int, grid: int) -> np.ndarray:
    """E[k + band, m] = exp(i k x_m) at x_m = 2 pi m / grid, |k| <= band: the
    inverse DFT restricted to the band, with k m reduced mod grid first so
    the phases are the FFT's twiddles."""
    k = np.arange(-band, band + 1)
    return np.exp(1j * TWO_PI / grid * np.mod(np.outer(k, np.arange(grid)), grid))


def _series_at(spec: np.ndarray, band: int, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values (..., C) and partials (..., 4, C) of the C trig series spec on
    the frequency cube at x, a point (4,) or a stack (P, 4): the phases
    exp(i k.x) of the modes present, contracted with their coefficients."""
    modes = np.nonzero(np.any(spec, axis=0))
    k = np.stack(modes) - band
    phase = np.exp(1j * (np.asarray(x, dtype=float) @ k))
    coef = spec[(slice(None),) + modes].T
    return phase @ coef, (1j * k * phase[..., None, :]) @ coef


def potential_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values A_a(x) and derivatives dA[a, b] = partial_a A_b, purely
    imaginary; a stack of points x (P, 4) puts P in front."""
    return _series_at(_spectra(cfg)[0], cfg.band, x)


def spinor_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values psi(x) in C^4 and derivatives dpsi[a, c], as ``potential_at``."""
    return _series_at(_spectra(cfg)[1], cfg.band, x)


def curvature_at(cfg: SWConfig, x) -> np.ndarray:
    """F = dA as the antisymmetric array F[a, b] = dA_b/dx_a - dA_a/dx_b."""
    _, dval = potential_at(cfg, x)
    return dval - np.swapaxes(dval, -1, -2)


# ---------------------------------------------------------------------------
# algebraic pieces; each acts on the last axes and broadcasts over the rest
# ---------------------------------------------------------------------------


def block_projector(block: str) -> np.ndarray:
    """(1 + s star) / 2 on the pair components F[j, k], j < k, with s = +1
    on the + block and -1 on the - block: Q(psi) is self-dual on S+ and
    anti-self-dual on S-, so this is the half of F its equation pairs with."""
    sign = 1.0 if block == "+" else -1.0
    return 0.5 * (np.eye(len(_PAIRS)) + sign * _STAR)


def _pair_form(v: np.ndarray) -> np.ndarray:
    """The antisymmetric 4 x 4 array with pair components v[..., p]."""
    out = np.zeros(v.shape[:-1] + (N_DIM, N_DIM), dtype=v.dtype)
    out[..., _ROWS, _COLS], out[..., _COLS, _ROWS] = v, -v
    return out


def block_part(f: np.ndarray, block: str) -> np.ndarray:
    """The block's half (F +- star F) / 2 of an antisymmetric 2-form array."""
    return _pair_form(f[..., _ROWS, _COLS] @ block_projector(block).T)


def quadratic_form(psi: np.ndarray) -> np.ndarray:
    """Q[j, k] = -<psi, G_j G_k psi> / 4 on ordered pairs, antisymmetrized."""
    return _pair_form(-0.25 * np.einsum("...r,prs,...s->...p", np.conj(psi), _GJK, psi))


def form_norm_sq(f: np.ndarray):
    """Squared norm summed over ordered index pairs."""
    return np.sum(np.abs(f[..., _ROWS, _COLS]) ** 2, axis=-1)


def quadratic_identity_residual(psi: np.ndarray):
    """|Q(psi)|^2 - |psi|^4 / 8, relative to the size of |psi|^4 / 8."""
    quartic = np.sum(np.abs(psi) ** 2, axis=-1) ** 2 / 8.0
    return np.abs(form_norm_sq(quadratic_form(psi)) - quartic) / np.maximum(1.0, quartic)


def sw_residuals(cfg: SWConfig, x) -> Dict[str, float]:
    """Pointwise residuals of the two monopole equations at x; arrays over
    the samples of a stack x (P, 4)."""
    aval, _ = potential_at(cfg, x)
    psi, dpsi = spinor_at(cfg, x)
    dirac = np.einsum("arc,...ac->...r", GAMMAS,
                      dpsi + 0.5 * aval[..., :, None] * psi[..., None, :])
    resid = block_part(curvature_at(cfg, x), cfg.block) - quadratic_form(psi)
    return {
        "dirac": np.max(np.abs(dirac), axis=-1),
        "curvature": np.max(np.abs(resid[..., _ROWS, _COLS]), axis=-1),
        "quadratic_identity": quadratic_identity_residual(psi),
    }


# ---------------------------------------------------------------------------
# the two functional forms
# ---------------------------------------------------------------------------


def sw_functional(cfg: SWConfig) -> Dict[str, float]:
    """Both integral forms of the monopole functional and their gap.

    The first integrates the squared equation residuals; the second uses the
    connection Laplacian, the block's half of the curvature, and the quartic
    term.  Every integrand has frequency at most 4 band per axis, so the
    trapezoid rule is exact on 4 band + 1 points (Orszag 1971); the sum runs
    on min(grid, 4 band + 1), so at or above that bound neither the value
    nor the cost depends on ``grid``, and below it (a config built directly)
    it aliases.  Only the fields the integrands read are synthesized, from
    their spectra on the frequency cube, derivatives as i k multipliers.
    """
    band = cfg.band
    grid = min(cfg.grid, 4 * band + 1)
    blk = list(BLOCK_INDICES[cfg.block])
    opp = [c for c in range(_SMD.dim) if c not in blk]
    a_hat, psi_hat = _spectra(cfg)
    psi_hat = psi_hat[blk]
    freq = np.arange(-band, band + 1)
    ik = 1j * np.stack(np.meshgrid(*(freq,) * N_DIM, indexing="ij"))
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
    q = -0.25 * np.tensordot(_GJK[:, blk][:, :, blk], np.conj(psi)[:, None] * psi, axes=2)
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
