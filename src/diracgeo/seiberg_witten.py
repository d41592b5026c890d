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
from functools import cached_property, lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .charts import config_integer, config_keys
from .jets import relative
from .spin import spin_module_data

N_DIM = 4
TWO_PI = 2.0 * np.pi

# component indices of the two chirality blocks in the rank-4 spinor fiber
BLOCK_INDICES = {"+": (0, 3), "-": (1, 2)}
# the top-level keys of a monopole config
SW_CONFIG_KEYS = ("grid", "band", "chirality_block", "a_modes", "psi_modes")

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

    @cached_property
    def series(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """(frequencies, coefficients) of A and of psi, built on first use;
        the mode lists are not to change after it."""
        return (_mode_arrays(self.a_modes, hermitize=True),
                _mode_arrays(self.psi_modes, hermitize=False))


def _mode_arrays(modes, hermitize: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Frequencies (M, 4), sorted, and coefficients (M, 4) per component of
    the series with the (component, k): z modes, rows exactly zero dropped;
    ``hermitize`` makes it i times a real field, z / 2 at k, conj z / 2 at -k."""
    rows = list(modes.items())
    if hermitize:
        rows += [((c, tuple(-v for v in k)), z.conjugate()) for (c, k), z in rows]
    # equal k merged: each component summed from +0 in row order
    merged: Dict[tuple, list] = {}
    for (c, k), z in rows:
        merged.setdefault(k, [0j] * N_DIM)[c] += z
    k = sorted(merged)
    coef = np.array([merged[q] for q in k], dtype=complex).reshape(-1, N_DIM)
    coef = 0.5j * coef if hermitize else coef
    keep = np.any(coef, axis=1)
    return np.array(k, dtype=int).reshape(-1, N_DIM)[keep], coef[keep]


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
        if max(map(abs, k)) > band:
            raise SWConfigError(f"mode {k} exceeds band {band}")
        if not all((type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool))
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
    config_keys(cfg, SW_CONFIG_KEYS, SWConfigError)
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
# evaluation of the mode arrays
# ---------------------------------------------------------------------------


def _series_at(series, x) -> np.ndarray:
    """The phases exp(i k.x), (..., M), of the trig series ``series`` = (k,
    coefficients) at x, a point (4,) or a stack (P, 4): its values are their
    product with the coefficients, its partials that of ``_partials``."""
    return np.exp(1j * (np.asarray(x, dtype=float) @ series[0].T))


def _partials(series, phase: np.ndarray) -> np.ndarray:
    """Partials (..., 4, C) of the C series from their phases."""
    return (1j * series[0].T * phase[..., None, :]) @ series[1]


def potential_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values A_a(x) and derivatives dA[a, b] = partial_a A_b, purely
    imaginary; a stack of points x (P, 4) puts P in front."""
    phase = _series_at(cfg.series[0], x)
    return phase @ cfg.series[0][1], _partials(cfg.series[0], phase)


def spinor_at(cfg: SWConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Values psi(x) in C^4 and derivatives dpsi[a, c], as ``potential_at``."""
    phase = _series_at(cfg.series[1], x)
    return phase @ cfg.series[1][1], _partials(cfg.series[1], phase)


def spinor_values_at(cfg: SWConfig, x) -> np.ndarray:
    """The values of ``spinor_at`` alone."""
    return _series_at(cfg.series[1], x) @ cfg.series[1][1]


def curvature_at(cfg: SWConfig, x) -> np.ndarray:
    """F = dA on the pair components F[a, b] = dA_b/dx_a - dA_a/dx_b, a < b,
    in _PAIRS order."""
    dval = _partials(cfg.series[0], _series_at(cfg.series[0], x))
    return dval[..., _ROWS, _COLS] - dval[..., _COLS, _ROWS]


# ---------------------------------------------------------------------------
# algebraic pieces; each acts on the last axes and broadcasts over the rest.
# A 2-form is held on its six pair components F[j, k], j < k, in _PAIRS order
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def block_projector(block: str) -> np.ndarray:
    """(1 + s star) / 2 on the pair components F[j, k], j < k, with s = +1
    on the + block and -1 on the - block, read-only: Q(psi) is self-dual on
    S+ and anti-self-dual on S-, so this is the half of F its equation pairs with."""
    out = 0.5 * (np.eye(len(_PAIRS)) + (1.0 if block == "+" else -1.0) * _STAR)
    out.setflags(write=False)
    return out


def quadratic_pairs(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Q(phi, psi)[j, k] = -<phi, G_j G_k psi> / 4 on the pair components;
    sesquilinear, and Q(psi) = Q(psi, psi)."""
    return -0.25 * np.einsum("...r,prs,...s->...p", np.conj(phi), _GJK, psi)


def quadratic_identity_residual(psi: np.ndarray, q=None):
    """|Q(psi)|^2 - |psi|^4 / 8 relative to |psi|^4 / 8; q is ``quadratic_pairs(psi, psi)``."""
    quartic = np.sum(np.abs(psi) ** 2, axis=-1) ** 2 / 8.0
    q = quadratic_pairs(psi, psi) if q is None else q
    return relative(np.abs(np.sum(np.abs(q) ** 2, axis=-1) - quartic), quartic)


def sw_residuals(cfg: SWConfig, x) -> Dict[str, float]:
    """Pointwise residuals of the two monopole equations at x; arrays over
    the samples of a stack x (P, 4)."""
    aval, _ = potential_at(cfg, x)
    psi, dpsi = spinor_at(cfg, x)
    dirac = np.einsum("arc,...ac->...r", GAMMAS,
                      dpsi + 0.5 * aval[..., :, None] * psi[..., None, :])
    resid = curvature_at(cfg, x) @ block_projector(cfg.block).T - quadratic_pairs(psi, psi)
    return {
        "dirac": np.max(np.abs(dirac), axis=-1),
        "curvature": np.max(np.abs(resid), axis=-1),
        "quadratic_identity": quadratic_identity_residual(psi),
    }


# ---------------------------------------------------------------------------
# the two functional forms
# ---------------------------------------------------------------------------


def sw_functional(cfg: SWConfig) -> Dict[str, float]:
    """Both integral forms of the monopole functional and their gap.

    The first integrates the squared equation residuals; the second uses the
    connection Laplacian, the block's half of the curvature, and the quartic
    term.  Each is the trapezoid rule on N = min(grid, 4 band + 1) points per
    axis, summed with no grid: conj(X) Y for trig series X, Y sums to
    (2 pi)^4 sum_r conj(X_r) Y_r once their frequencies are reduced mod N and
    equal ones merged.  psi, A and F live on their own modes, A psi, div A psi
    and A.d psi on sums k + l of an A and a psi mode, Q(psi) and |psi|^2 on
    differences of psi modes; derivatives are i k multipliers.  As A is i
    times a real field, <psi, A_a A_a psi> = -|A_a psi|^2: A.A psi is never
    formed.  At or above 4 band + 1 the rule is exact (Orszag 1971) and
    ``grid`` sets neither value nor cost; below, the sum aliases as a grid's.

    A and psi are read from the mode arrays ``SWConfig.series``, built once
    per config; the cost is O(M_A M_psi + M_psi^2) in their row counts.
    """
    n = min(cfg.grid, 4 * cfg.band + 1)
    (ka, a), (kp, p) = cfg.series
    dpsi = 1j * kp[:, :, None] * p[:, None, :]                    # d_a psi_c
    da = 1j * ka[:, :, None] * a[:, None, :]                      # d_j A_k
    half_ga = np.einsum("ka,arc->krc", 0.5 * a, GAMMAS)
    mult = 1j * (0.5 * (ka * a).sum(axis=1)[:, None] + a @ kp.T)
    # the key sets, and the series on each with the mode axes of its keys in
    # front: on the psi modes l, psi, sum_a G_a d_a psi and the Laplacian of
    # psi; on the sums k + l, A_a psi, sum_a G_a A_a psi / 2 and (div A / 2 +
    # A.d) psi, whose multiplier on psi_l is i (k / 2 + l).A_k; on the A modes
    # k, the block's half of F; on the differences l' - l, Q and |psi|^2
    keys = [kp, ka[:, None] + kp, ka, kp - kp[:, None]]
    parts = [
        np.concatenate([p, np.einsum("arc,lac->lr", GAMMAS, dpsi),
                        -(kp ** 2).sum(axis=1)[:, None] * p], axis=1),
        np.concatenate([a[:, None, :, None] * p[None, :, None],
                        (half_ga @ p.T).swapaxes(1, 2)[:, :, None],
                        mult[:, :, None, None] * p[None, :, None]], axis=2),
        (da[:, _ROWS, _COLS] - da[:, _COLS, _ROWS]) @ block_projector(cfg.block).T,
        np.concatenate([quadratic_pairs(p[:, None], p[None, :]),
                        (np.conj(p) @ p.T)[..., None]], axis=-1)]
    # every part with its frequencies reduced mod n and equal ones summed: one
    # bincount over the real and imaginary parts of a block matrix that holds
    # each part in its own rows and columns, zeros elsewhere; its columns are
    # psi, D psi and lap psi (4 each), A_a psi (4 x 4), the two sums (4 each),
    # the half of F (6), Q (6) and |psi|^2
    folded, slot = np.unique(np.mod(np.concatenate([k.reshape(-1, N_DIM) for k in keys]), n)
                             @ n ** np.arange(N_DIM), return_inverse=True)
    rows = np.cumsum([0] + [k.size // N_DIM for k in keys])
    block = np.zeros((len(slot), 49), complex)
    for x, r0, r1, c0, c1 in zip(parts, rows, rows[1:], (0, 12, 36, 42), (12, 36, 42, 49)):
        block[r0:r1, c0:c1] = x.reshape(r1 - r0, c1 - c0)
    out = np.bincount((slot[:, None] * 98 + np.arange(98)).ravel(), block.view(float).ravel(),
                      len(folded) * 98).view(complex).reshape(len(folded), 49)
    cuts = (0, 4, 8, 12, 28, 32, 36, 42, 48, 49)
    psi, dirac, lap, a_psi, dirac_a, nabla_a, fblock, q, psi_sq = (
        out[:, i:j] for i, j in zip(cuts, cuts[1:]))

    def norm_sq(x):
        return np.vdot(x, x).real

    # D = sum_a G_a (d_a + A_a / 2) psi; the connection Laplacian
    # -sum_a (d_a + A_a / 2)^2 psi paired with psi is, but for its A.A term
    # |A psi|^2 / 4, -Re <psi, (Laplacian + div A / 2 + A.d) psi>
    w1 = (norm_sq(dirac + dirac_a) + norm_sq(fblock - q)) * TWO_PI ** N_DIM
    w2 = (-np.vdot(psi, lap + nabla_a).real + norm_sq(a_psi) / 4.0 + norm_sq(fblock)
          + norm_sq(psi_sq) / 8.0) * TWO_PI ** N_DIM
    denom = max(abs(w1), abs(w2), 1e-30)
    return {"w_equations": w1, "w_weitzenbock": w2,
            "gap": abs(w1 - w2), "relative_gap": abs(w1 - w2) / denom}
