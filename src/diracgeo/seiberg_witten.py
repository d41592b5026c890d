"""Monopole equations and the two functional forms on the flat 4-torus.

Fields are band-limited Fourier series on [0, 2pi)^4 with the flat metric and
identity frame. The U(1) potential is i times a real trigonometric polynomial;
the spinor lives in one chirality block of the rank-4 spinor module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .spin import spin_module_data

N_DIM = 4
TWO_PI = 2.0 * np.pi

# component indices of the two chirality blocks in the rank-4 spinor fiber
BLOCK_INDICES = {"+": (0, 3), "-": (1, 2)}

_SMD = spin_module_data(N_DIM)
GAMMAS = _SMD.gammas

# self-dual pairing on 2-form indices: star(e^a ^ e^b) = sign e^c ^ e^d
_STAR_PAIRS = [((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0),
               ((0, 3), (1, 2), 1.0)]

_PAIRS = [(j, k) for j in range(N_DIM) for k in range(j + 1, N_DIM)]


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


def self_dual_part(f: np.ndarray) -> np.ndarray:
    """(F + star F) / 2 for an antisymmetric 2-form array on flat R^4."""
    out = np.zeros_like(f)
    for (a, b), (c, d), sg in _STAR_PAIRS:
        plus_ab = 0.5 * (f[a, b] + sg * f[c, d])
        plus_cd = 0.5 * (f[c, d] + sg * f[a, b])
        out[a, b], out[b, a] = plus_ab, -plus_ab
        out[c, d], out[d, c] = plus_cd, -plus_cd
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
    fplus = self_dual_part(curvature_at(cfg, x))
    resid = fplus - quadratic_form(psi)
    return {
        "dirac": float(np.max(np.abs(dirac))),
        "curvature": float(max(abs(resid[j, k]) for j, k in _PAIRS)),
        "quadratic_identity": quadratic_identity_residual(psi),
    }


# ---------------------------------------------------------------------------
# grid evaluation and the two functional forms
# ---------------------------------------------------------------------------


def _grid_field(coeffs: Dict[tuple, complex], grid: int) -> np.ndarray:
    """Values of sum_k c_k exp(i k.x) on the uniform grid, via inverse FFT."""
    c = np.zeros((grid,) * N_DIM, dtype=complex)
    for k, z in coeffs.items():
        idx = tuple(v % grid for v in k)
        c[idx] += z
    return np.fft.ifftn(c) * grid ** N_DIM


def _derived(coeffs: Dict[tuple, complex], axis: int) -> Dict[tuple, complex]:
    return {k: 1j * k[axis] * z for k, z in coeffs.items()}


def sw_functional(cfg: SWConfig) -> Dict[str, float]:
    """Both integral forms of the monopole functional and their gap.

    The first integrates the squared equation residuals; the second uses the
    connection Laplacian, the self-dual curvature norm, and the quartic term.
    Quadrature is the uniform trapezoid rule, exact for integrands below the
    grid's alias limit.
    """
    grid = cfg.grid
    herm = cfg.hermitized_a()
    a_coeffs: List[Dict[tuple, complex]] = [{} for _ in range(N_DIM)]
    for (a, k), c in herm.items():
        a_coeffs[a][k] = a_coeffs[a].get(k, 0.0j) + 1j * c
    psi_coeffs: List[Dict[tuple, complex]] = [{} for _ in range(_SMD.dim)]
    for (c, k), z in cfg.psi_modes.items():
        psi_coeffs[c][k] = psi_coeffs[c].get(k, 0.0j) + z

    aval = [_grid_field(a_coeffs[a], grid) for a in range(N_DIM)]
    da = [[_grid_field(_derived(a_coeffs[b], a), grid) for b in range(N_DIM)]
          for a in range(N_DIM)]
    psi = [_grid_field(psi_coeffs[c], grid) for c in range(_SMD.dim)]
    dpsi = [[_grid_field(_derived(psi_coeffs[c], a), grid)
             for c in range(_SMD.dim)] for a in range(N_DIM)]
    ddpsi = [[_grid_field(_derived(_derived(psi_coeffs[c], a), a), grid)
              for c in range(_SMD.dim)] for a in range(N_DIM)]

    shape = aval[0].shape

    # Dirac term: D = sum_a G_a (d_a + A_a / 2) psi
    dirac = [np.zeros(shape, dtype=complex) for _ in range(_SMD.dim)]
    for a in range(N_DIM):
        for r in range(_SMD.dim):
            row = np.zeros(shape, dtype=complex)
            for c in range(_SMD.dim):
                g = GAMMAS[a][r, c]
                if g != 0:
                    row += g * (dpsi[a][c] + 0.5 * aval[a] * psi[c])
            dirac[r] += row
    dirac_sq = sum(np.abs(d) ** 2 for d in dirac)

    # curvature, self-dual part, and the spinor quadratic form on the grid
    f = {}
    for j, k in _PAIRS:
        f[(j, k)] = da[j][k] - da[k][j]
    fplus = {}
    for (a, b), (c, d), sg in _STAR_PAIRS:
        fplus[(a, b)] = 0.5 * (f[(a, b)] + sg * f[(c, d)])
        fplus[(c, d)] = 0.5 * (f[(c, d)] + sg * f[(a, b)])
    q = {}
    for j, k in _PAIRS:
        gjk = GAMMAS[j] @ GAMMAS[k]
        acc = np.zeros(shape, dtype=complex)
        for r in range(_SMD.dim):
            for c in range(_SMD.dim):
                if gjk[r, c] != 0:
                    acc += np.conj(psi[r]) * gjk[r, c] * psi[c]
        q[(j, k)] = -0.25 * acc

    resid_sq = np.zeros(shape, dtype=float)
    fplus_sq = np.zeros(shape, dtype=float)
    for j, k in _PAIRS:
        resid_sq += np.abs(fplus[(j, k)] - q[(j, k)]) ** 2
        fplus_sq += np.abs(fplus[(j, k)]) ** 2

    # connection Laplacian: -sum_a (d_a + A_a/2)^2 psi
    lap = [np.zeros(shape, dtype=complex) for _ in range(_SMD.dim)]
    for a in range(N_DIM):
        for c in range(_SMD.dim):
            lap[c] -= (ddpsi[a][c] + 0.5 * da[a][a] * psi[c]
                       + aval[a] * dpsi[a][c] + 0.25 * aval[a] ** 2 * psi[c])
    lap_pair = np.zeros(shape, dtype=float)
    for c in range(_SMD.dim):
        lap_pair += np.real(np.conj(psi[c]) * lap[c])

    psi_sq = sum(np.abs(p) ** 2 for p in psi)

    vol_factor = TWO_PI ** N_DIM / grid ** N_DIM
    w1 = float(np.sum(dirac_sq + resid_sq)) * vol_factor
    w2 = float(np.sum(lap_pair + fplus_sq + psi_sq ** 2 / 8.0)) * vol_factor
    denom = max(abs(w1), abs(w2), 1e-30)
    return {"w_equations": w1, "w_weitzenbock": w2,
            "gap": abs(w1 - w2), "relative_gap": abs(w1 - w2) / denom}
