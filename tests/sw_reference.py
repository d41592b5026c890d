"""Per-field FFT reference for the monopole functional.

This is the grid evaluation the package used before ``sw_functional`` moved
onto the band-limited spectrum and then off the grid altogether, to sums
over the config's Fourier modes folded mod the quadrature size: every field
and derivative the integrands could read, all four spinor components
included, is its own ``grid^4`` spectrum taken to the full configured grid
by an inverse FFT, and the integrands, Q(psi) included, are loops over
components on that grid.  It shares none of the mode-sum code, so it also
checks their folding below the quadrature bound, where both alias alike.
The one change from that code is the curvature projector: it takes the
chirality block's sign, so (F + star F)/2 on the + block and (F - star F)/2
on the - block.  Tests compare ``sw_functional`` against it.

``cube_mode_arrays`` is how the package built the mode arrays of A and psi
before it built them from the mode lists: both fields on the (2 band + 1)^4
frequency cube, hermitized on the cube, and the nonzero rows read back.

``potential_at`` and ``spinor_at`` are the package's pointwise evaluators as
they were before they shared the spectra of ``sw_functional``: one Python
loop over the config's modes at a single point.  ``hermitized_a`` is the
mode-by-mode hermitization of the potential that the package now does on
its spectrum.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from diracgeo.seiberg_witten import GAMMAS, N_DIM, TWO_PI, SWConfig

SPINOR_DIM = 4

# star(e^a ^ e^b) = sign e^c ^ e^d on flat R^4
STAR_PAIRS = [((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0),
              ((0, 3), (1, 2), 1.0)]

PAIRS = [(j, k) for j in range(N_DIM) for k in range(j + 1, N_DIM)]


def grid_field(coeffs: Dict[tuple, complex], grid: int) -> np.ndarray:
    """Values of sum_k c_k exp(i k.x) on the uniform grid, via inverse FFT."""
    c = np.zeros((grid,) * N_DIM, dtype=complex)
    for k, z in coeffs.items():
        idx = tuple(v % grid for v in k)
        c[idx] += z
    return np.fft.ifftn(c) * grid ** N_DIM


def derived(coeffs: Dict[tuple, complex], axis: int) -> Dict[tuple, complex]:
    return {k: 1j * k[axis] * z for k, z in coeffs.items()}


def hermitized_a(cfg: SWConfig) -> Dict[tuple, complex]:
    """Symmetrize so each component is a real field (before the i factor)."""
    out: Dict[tuple, complex] = {}
    for (a, k), c in cfg.a_modes.items():
        mk = tuple(-i for i in k)
        out[(a, k)] = out.get((a, k), 0.0j) + 0.5 * c
        out[(a, mk)] = out.get((a, mk), 0.0j) + 0.5 * np.conj(c)
    return out


def cube_mode_arrays(cfg: SWConfig) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Frequencies (M, 4) and coefficients (M, 4) of A and of psi, read off
    the frequency cube: each potential component is i times a real field, so
    the modes at k and -k share the coefficient and its conjugate half and
    half."""
    band = cfg.band
    a_hat, psi_hat = np.zeros((2, N_DIM) + (2 * band + 1,) * N_DIM, dtype=complex)
    for hat, modes in ((a_hat, cfg.a_modes), (psi_hat, cfg.psi_modes)):
        for (c, k), z in modes.items():
            hat[(c,) + tuple(v + band for v in k)] += z
    out = []
    for spec in (0.5j * (a_hat + np.conj(np.flip(a_hat, axis=(1, 2, 3, 4)))), psi_hat):
        modes = np.nonzero(np.any(spec, axis=0))
        out.append((np.stack(modes, axis=-1) - band, spec[(slice(None),) + modes].T))
    return out


def potential_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values A_a(x) and derivatives dA[a, b] = partial_a A_b, purely imaginary."""
    x = np.asarray(x, dtype=float)
    val = np.zeros(N_DIM, dtype=complex)
    dval = np.zeros((N_DIM, N_DIM), dtype=complex)
    for (a, k), c in hermitized_a(cfg).items():
        kv = np.asarray(k, dtype=float)
        ph = c * np.exp(1j * float(kv @ x))
        val[a] += 1j * ph
        dval[:, a] += 1j * (1j * kv) * ph
    return val, dval


def spinor_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values psi(x) in C^4 and derivatives dpsi[a, c]."""
    x = np.asarray(x, dtype=float)
    val = np.zeros(SPINOR_DIM, dtype=complex)
    dval = np.zeros((N_DIM, SPINOR_DIM), dtype=complex)
    for (c, k), z in cfg.psi_modes.items():
        kv = np.asarray(k, dtype=float)
        ph = z * np.exp(1j * float(kv @ x))
        val[c] += ph
        dval[:, c] += 1j * kv * ph
    return val, dval


def sw_functional(cfg: SWConfig) -> Dict[str, float]:
    """Both integral forms of the monopole functional and their gap."""
    grid = cfg.grid
    duality = 1.0 if cfg.block == "+" else -1.0
    a_coeffs: List[Dict[tuple, complex]] = [{} for _ in range(N_DIM)]
    for (a, k), c in hermitized_a(cfg).items():
        a_coeffs[a][k] = a_coeffs[a].get(k, 0.0j) + 1j * c
    psi_coeffs: List[Dict[tuple, complex]] = [{} for _ in range(SPINOR_DIM)]
    for (c, k), z in cfg.psi_modes.items():
        psi_coeffs[c][k] = psi_coeffs[c].get(k, 0.0j) + z

    aval = [grid_field(a_coeffs[a], grid) for a in range(N_DIM)]
    da = [[grid_field(derived(a_coeffs[b], a), grid) for b in range(N_DIM)]
          for a in range(N_DIM)]
    psi = [grid_field(psi_coeffs[c], grid) for c in range(SPINOR_DIM)]
    dpsi = [[grid_field(derived(psi_coeffs[c], a), grid)
             for c in range(SPINOR_DIM)] for a in range(N_DIM)]
    ddpsi = [[grid_field(derived(derived(psi_coeffs[c], a), a), grid)
              for c in range(SPINOR_DIM)] for a in range(N_DIM)]

    shape = aval[0].shape

    # Dirac term: D = sum_a G_a (d_a + A_a / 2) psi
    dirac = [np.zeros(shape, dtype=complex) for _ in range(SPINOR_DIM)]
    for a in range(N_DIM):
        for r in range(SPINOR_DIM):
            row = np.zeros(shape, dtype=complex)
            for c in range(SPINOR_DIM):
                g = GAMMAS[a][r, c]
                if g != 0:
                    row += g * (dpsi[a][c] + 0.5 * aval[a] * psi[c])
            dirac[r] += row
    dirac_sq = sum(np.abs(d) ** 2 for d in dirac)

    # curvature, its half for the block, and the spinor quadratic form
    f = {}
    for j, k in PAIRS:
        f[(j, k)] = da[j][k] - da[k][j]
    fblock = {}
    for (a, b), (c, d), sg in STAR_PAIRS:
        fblock[(a, b)] = 0.5 * (f[(a, b)] + duality * sg * f[(c, d)])
        fblock[(c, d)] = 0.5 * (f[(c, d)] + duality * sg * f[(a, b)])
    q = {}
    for j, k in PAIRS:
        gjk = GAMMAS[j] @ GAMMAS[k]
        acc = np.zeros(shape, dtype=complex)
        for r in range(SPINOR_DIM):
            for c in range(SPINOR_DIM):
                if gjk[r, c] != 0:
                    acc += np.conj(psi[r]) * gjk[r, c] * psi[c]
        q[(j, k)] = -0.25 * acc

    resid_sq = np.zeros(shape, dtype=float)
    fblock_sq = np.zeros(shape, dtype=float)
    for j, k in PAIRS:
        resid_sq += np.abs(fblock[(j, k)] - q[(j, k)]) ** 2
        fblock_sq += np.abs(fblock[(j, k)]) ** 2

    # connection Laplacian: -sum_a (d_a + A_a/2)^2 psi
    lap = [np.zeros(shape, dtype=complex) for _ in range(SPINOR_DIM)]
    for a in range(N_DIM):
        for c in range(SPINOR_DIM):
            lap[c] -= (ddpsi[a][c] + 0.5 * da[a][a] * psi[c]
                       + aval[a] * dpsi[a][c] + 0.25 * aval[a] ** 2 * psi[c])
    lap_pair = np.zeros(shape, dtype=float)
    for c in range(SPINOR_DIM):
        lap_pair += np.real(np.conj(psi[c]) * lap[c])

    psi_sq = sum(np.abs(p) ** 2 for p in psi)

    vol_factor = TWO_PI ** N_DIM / grid ** N_DIM
    w1 = float(np.sum(dirac_sq + resid_sq)) * vol_factor
    w2 = float(np.sum(lap_pair + fblock_sq + psi_sq ** 2 / 8.0)) * vol_factor
    denom = max(abs(w1), abs(w2), 1e-30)
    return {"w_equations": w1, "w_weitzenbock": w2,
            "gap": abs(w1 - w2), "relative_gap": abs(w1 - w2) / denom}
