"""Superconnections on graded bundles and their Dirac operators, quantized by
the one map q of ``clifford.quantize_blades``.

Fiber objects are jets: a section is a Jet with fiber (m,), an endomorphism
field one with fiber (m, m), a form-valued section one with fiber (2^n, m)
and the coefficients of a superconnection one with fiber (2^n, m, m), the
blade axis first.  Coordinate families are one jet with the index axis
first: the gammas gamma^i and connection matrices A_i have fiber (n, m, m),
the curvature F_ik fiber (n, n, m, m).  Missing orders propagate through
arithmetic, so operator compositions consume derivative orders with no
truncation error.

Stack convention: every operator takes a point x (n,) or a stack of points x
(P, n), the metric jet, superconnection and sections at the same stack.
Plain arrays then carry the sample axis in front, as jets do (a section
value is (P, m)), and residuals are returned per sample, shape (P,).  The
einsums run over a ``...`` prefix: a single point is the same code.

Grading conventions: eta is a diagonal +-1 involution; a matrix is even when
it commutes with eta, odd when it anticommutes. The degree-p component of a
superconnection must have eta-parity (-1)^(p+1).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .charts import MetricJet, config_integer, config_keys
from .clifford import blade_indices, grades, parity_matrix, quantize_blades, wedge_table
from .forms import (PolyField, blade_field, exponent_table, exterior_derivative,
                    exterior_gammas, iota_vector,
                    levi_civita_exterior_connection,  # re-exported for bundle callers
                    random_poly_field, vector_bracket)
from .jets import Jet, check_point, relative, sample_max, seed_point


class ParityError(ValueError):
    """Superconnection component with the wrong eta-parity."""


class CliffordConnectionError(ValueError):
    """Twisting curvature failed to supercommute with the Clifford action."""


# ---------------------------------------------------------------------------
# polynomial fiber fields
# ---------------------------------------------------------------------------


def random_poly_section(rng, n: int, m: int, degree: int = 2) -> PolyField:
    return random_poly_field(rng, n, (m,), degree, complex_coeffs=True)


@lru_cache(maxsize=None)
def _sign_products(sig: tuple) -> np.ndarray:
    """sig_r sig_c for eta = diag(sig): +1 on even matrix entries, -1 on odd."""
    out = np.outer(sig, sig)
    out.setflags(write=False)
    return out


def random_parity_matrix(rng, n: int, eta: np.ndarray, parity: int,
                         degree: int = 1) -> PolyField:
    """Polynomial matrix field with the requested eta-parity (+1 even, -1 odd)."""
    allowed = _sign_products(tuple(np.diag(eta).real)) == parity
    entries = random_poly_field(rng, n, (int(allowed.sum()),), degree,
                                complex_coeffs=True)
    coeffs = np.zeros((len(entries.coeffs),) + allowed.shape, dtype=complex)
    coeffs[:, allowed] = entries.coeffs
    return PolyField(n, entries.exponents, coeffs)


# ---------------------------------------------------------------------------
# module spec: gammas acting on the fiber
# ---------------------------------------------------------------------------


@dataclass
class ModuleSpec:
    """Fiber data: dimension, grading involution, and x-dependent gammas."""

    m: int
    eta: np.ndarray
    gamma_provider: Callable[[MetricJet], Jet]
    name: str = ""

    def gammas(self, mj: MetricJet) -> Jet:
        """The gammas c(dx^i) at mj as one jet with fiber (n, m, m)."""
        return self.gamma_provider(mj)


def exterior_module(n: int) -> ModuleSpec:
    """Clifford action on the full exterior algebra, gammas c(dx^i) = eps - iota."""
    return ModuleSpec(1 << n, parity_matrix(n), exterior_gammas, name="exterior")


def module_invariant_residual(ms: ModuleSpec, mj: MetricJet):
    """Max residual of the Clifford relation and gamma oddness, per sample."""
    gam = ms.gammas(mj)
    g = gam.val
    gi, gj = g[..., :, None, :, :], g[..., None, :, :, :]
    anti = gi @ gj + gj @ gi + 2.0 * mj.g_inv[..., None, None] * np.eye(ms.m)
    return np.maximum(sample_max(anti, gam.nb), sample_max(ms.eta @ g + g @ ms.eta, gam.nb))


# ---------------------------------------------------------------------------
# superconnections
# ---------------------------------------------------------------------------


@dataclass
class SuperconnectionData:
    """Blade-keyed coefficients: mask I -> omega_I(x), plus d implied.

    Degree-1 masks store the A_i of the operator dx^i (x) (partial_i + A_i).
    ``field`` holds all blades, fiber (2^n, m, m), built once at construction;
    on a stack (P base seeds) it is stacked and the blades are views of it.
    """

    n: int
    m: int
    eta: np.ndarray
    blades: Dict[int, PolyField]
    field: Optional[PolyField] = None

    def __post_init__(self):
        if self.field is None:
            self.field = blade_field(self.n, self.blades, (self.m, self.m))
        self.validate_parity()

    def validate_parity(self) -> None:
        """Blade I must have eta-parity (-1)^(|I|+1): one test over the field."""
        required = np.where(grades(self.n) % 2, 1, -1)
        # real and imaginary parts side by side: comparing floats is the fast path
        nonzero = np.ascontiguousarray(self.field.coeffs).view(float) != 0
        live = np.logical_or.reduce(nonzero.reshape((-1,) + nonzero.shape[-3:]))
        bad = ((live[..., 0::2] | live[..., 1::2])
               & (_sign_products(tuple(np.diag(self.eta).real)) != required[:, None, None]))
        if bad.any():
            mask, r, c = np.argwhere(bad)[0]
            raise ParityError(f"blade {blade_indices(int(mask))} entry ({r},{c}) "
                              f"breaks the degree-parity rule")

    def eval_blades(self, x, order: int = 2) -> Jet:
        """omega_I(x) on the blade axis, fiber (2^n, m, m); absent blades are zero."""
        return self.field.eval(x, order)


# a coefficient preset is a name or "random(seed)"; each name sets the
# polynomial degree of the coefficients, and "zero" draws nothing
_PRESET = re.compile(r"(zero|constant|linear|random)|random\s*\(\s*([+-]?\d+)\s*\)")
_PRESET_DEGREES = {"zero": None, "constant": 0, "linear": 1, "random": 2}


@lru_cache(maxsize=None)
def _layout(n: int, sig: tuple, degrees: tuple) -> tuple:
    """Where the draws land when the degree-p blades are polynomials of degree
    ``degrees[p]`` (None: not drawn), for eta = diag(sig): the union exponent
    table, merged as ``forms.blade_field`` merges; per blade mask, its rows in
    that table and its count of real draws; and the flat indices into
    (T, 2^n, m, m) of all draws, blade by blade, each in its draw order
    [entry, term] over the entries of its parity."""
    union: Dict[tuple, int] = {}
    rows, sizes, dest = [], [], [np.zeros(0, dtype=np.int64)]
    for mask in range(1 << n):
        p = mask.bit_count()
        exps = [] if degrees[p] is None else exponent_table(n, degrees[p]).tolist()
        rows.append(np.array([union.setdefault(tuple(e), len(union)) for e in exps],
                             dtype=np.int64))
        entries = np.flatnonzero(_sign_products(sig) == (1 if p % 2 else -1))
        dest.append((((rows[-1] << n) + mask) * len(sig) ** 2 + entries[:, None]).ravel())
        sizes.append(2 * dest[-1].size)
    exponents = np.array(list(union), dtype=np.int64).reshape(-1, n)
    dest = np.concatenate(dest)
    for a in (exponents, dest, *rows):
        a.setflags(write=False)
    return exponents, tuple(rows), tuple(sizes), dest


def superconnection_from_degrees(n: int, m: int, eta: np.ndarray,
                                 degree_specs: Dict[int, str],
                                 base_seed=0) -> SuperconnectionData:
    """Build coefficients per degree from preset names.

    Presets: "zero", "constant", "linear", "random" or "random(seed)"; seeds
    are non-negative integers.  Blade I of base seed s draws once, from its
    generator seeded s 100003 + I 101 + 7.
    P base seeds give one stack, for a stack of points x (P, n): every draw
    lands in one (P, T, 2^n, m, m) array, and the blades are views of it.  A
    single seed gives each blade on its own rows of the exponent table.
    """
    stacked = np.ndim(base_seed) > 0
    seeds = [config_integer(seed, "seed", low=0)
             for seed in (base_seed if stacked else [base_seed])]
    if not seeds:
        raise ValueError("a stack of superconnections needs at least one seed")
    presets = {}
    for p, spec in degree_specs.items():
        hit = _PRESET.fullmatch(spec.strip())
        if hit is None:
            raise ValueError(f"unknown coefficient preset {spec!r}")
        own = hit[2] and config_integer(int(hit[2]), f"seed of preset {spec!r}", low=0)
        presets[p] = _PRESET_DEGREES[hit[1] or "random"], own
    exponents, rows, sizes, dest = _layout(n, tuple(np.diag(eta).real), tuple(
        presets.get(p, (None,))[0] for p in range(n + 1)))
    fixed = [presets.get(mask.bit_count(), (None, None))[1] for mask in range(1 << n)]
    coeffs = np.zeros((len(seeds), len(exponents), 1 << n, m, m), dtype=complex)
    for k, seed in enumerate(seeds):
        draws = [np.empty(0)] + [np.random.default_rng(
            (seed if fixed[mask] is None else fixed[mask]) * 100003 + mask * 101 + 7
        ).uniform(-1.0, 1.0, size) for mask, size in enumerate(sizes) if size]
        coeffs[k].reshape(-1)[dest] = np.concatenate(draws).view(complex)
    blades = {mask: PolyField(n, exponents, coeffs[:, :, mask], stacked=True) if stacked
              else PolyField(n, exponents[rows[mask]], coeffs[0, rows[mask], mask])
              for mask in range(1 << n) if mask.bit_count() in presets}
    return SuperconnectionData(n, m, eta, blades, PolyField(
        n, exponents, coeffs if stacked else coeffs[0], stacked=stacked))


SUPERCONNECTION_CONFIG_KEYS = ("fiber_dimension", "grading", "degrees", "seed")


def superconnection_from_config(cfg: dict, n: int,
                                ms: Optional[ModuleSpec] = None) -> SuperconnectionData:
    if not isinstance(cfg, dict):
        raise ValueError("superconnection config must be a JSON object")
    config_keys(cfg, SUPERCONNECTION_CONFIG_KEYS)
    if ms is None:
        ms = exterior_module(n)
    m = cfg.get("fiber_dimension", ms.m)
    if m != ms.m:
        raise ValueError(f"config fiber_dimension {m} does not match module rank {ms.m}")
    if "grading" in cfg:
        grading = np.asarray(cfg["grading"], dtype=float)
        if grading.shape != (m,) or not np.array_equal(np.abs(grading), np.ones(m)):
            raise ValueError("grading must be a +-1 vector of fiber dimension")
        if not np.allclose(np.diag(grading), ms.eta):
            raise ValueError("config grading does not match the module grading")
    degrees = cfg.get("degrees", {})
    if not isinstance(degrees, dict):
        raise ValueError("degrees must be an object mapping degree to preset")
    degree_specs = {}
    for k, v in degrees.items():
        p = int(k)
        if p in degree_specs:
            raise ValueError(f"degree {p} is named twice in the config")
        if not 0 <= p <= n:
            raise ValueError(f"degree {p} out of range for n={n}")
        degree_specs[p] = str(v)
    seed = config_integer(cfg.get("seed", 0), "seed")
    return superconnection_from_degrees(n, ms.m, ms.eta, degree_specs, base_seed=seed)


def load_superconnection_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# form-valued sections and the superconnection action
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _koszul_wedge(n: int, odd: int) -> tuple:
    """Left wedge by blade I, carried past the degree of blade K, as two
    (2^n, 2^n) tables over (I, M): dx^I ^ e_K = sign[I, M] e_M for the one
    K = index[I, M] = M ^ I when I is inside M (sign 0 otherwise), with the
    Koszul factor (-1)^((|I| + odd)|K|) folded into the sign."""
    g = grades(n)
    blades = np.arange(1 << n)
    inner, outer = blades[:, None], blades[None, :]
    index = outer ^ inner
    koszul = np.where((g[inner] + odd) % 2 == 1, (-1.0) ** g[index], 1.0)
    sign = np.where(inner & outer == inner,
                    wedge_table(n)[inner, outer, index].real * koszul, 0.0)
    for a in (index, sign):
        a.setflags(write=False)
    return index, sign


def _graded_product(omega: Jet, right: Jet, odd: int) -> Jet:
    """sum_I dx^I ^ (omega_I right_K) on the blade axis, with the sign
    (-1)^((|I| + odd)|K|) on the degree-|K| part of ``right``.

    omega has fiber (2^n, m, m) and right (2^n, m, p).  The blade sum is one
    fiber product: omega as [a, (b, I)] times right spread over the wedge
    table into [(b, I), (M, c)].
    """
    index, sign = _koszul_wedge(omega.n, odd)
    dim, m, p = right.val.shape[-3:]

    def spread(r):           # [..., K, b, c] -> [..., (b, I), (M, c)]
        t = np.take(np.moveaxis(r, -3, -2), index, axis=-2)   # [..., b, I, M, c]
        t *= sign[:, :, None]
        return t.reshape(t.shape[:-4] + (m * dim, dim * p))

    def fold(w):             # [..., I, a, b] -> [..., a, (b, I)]
        return np.moveaxis(w, -3, -1).reshape(w.shape[:-3] + (m, m * dim))

    def unfold(t):           # [..., a, (M, c)] -> [..., M, a, c]
        return np.swapaxes(t.reshape(t.shape[:-1] + (dim, p)), -3, -2)

    return (omega.map(fold) @ right.map(spread)).map(unfold)


def apply_superconnection(omega: Jet, fs: Jet) -> Jet:
    """ID(fs) = d fs + sum_I dx^I (x) omega_I fs, with graded tensor signs.

    omega_I has eta-parity (-1)^(|I|+1), so acting on a degree-K component
    picks up the Koszul sign (-1)^((|I|+1)|K|).  fs has fiber (2^n, m).
    """
    return exterior_derivative(fs) + _graded_product(omega, fs[..., None], 1)[..., 0]


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


@dataclass
class DiracOperatorData:
    """First-order operator gamma^i (partial_i + A_i) + Z with coefficient jets;
    gam and A are families with fiber (n, m, m)."""

    x: np.ndarray
    gam: Jet
    A: Jet
    Z: Jet
    eta: np.ndarray

    @property
    def n(self) -> int:
        return len(self.gam)

    @property
    def m(self) -> int:
        return self.Z.val.shape[-1]

    @cached_property
    def square_coefficients(self) -> tuple:
        """The coefficients of D^2 that depend on D alone: d_i g^k + [A_i, g^k]
        indexed [i, k], then [A_i, Z], d_i Z + [A_i, Z] and g^i Z + Z g^i
        indexed [i].  Built on first use: an operator of order 0 carries no
        d_i Z."""
        g, a = self.gam.val, self.A.val
        z = self.Z.val[..., None, :, :]
        az = _commutator(a, z)
        return (self.gam.d + _commutator(a[..., :, None, :, :], g[..., None, :, :, :]),
                az, self.Z.d + az, g @ z + z @ g)


def quantize_superconnection(S: SuperconnectionData, mj: MetricJet,
                             ms: ModuleSpec, x, order: int = 2) -> DiracOperatorData:
    """The Dirac operator gamma^i (partial_i + A_i) + Z of a superconnection,
    with Z = sum over blades M of degree other than 1 of q(dx^M) omega_M and
    q the quantization map of ``clifford.quantize_blades`` on the gammas.  A and
    Z carry ``order`` orders, the gammas two; all blades are evaluated at once."""
    if S.m != ms.m:
        raise ValueError("superconnection fiber dimension does not match module")
    x = np.asarray(x, dtype=float)
    gam = ms.gammas(mj)
    omega = S.field.eval(x, order)
    # the family A_i: the degree-1 blades, on the index axis
    A = omega[[1 << i for i in range(mj.n)]]
    q = quantize_blades(gam.truncate(order), np.eye(ms.m))
    Z = sum((q(mask) @ omega[mask]
             for mask in S.blades if mask.bit_count() != 1),
            Jet.constant(np.zeros((ms.m, ms.m)), x, order))
    return DiracOperatorData(x, gam, A, Z, ms.eta)


def apply_dirac(D: DiracOperatorData, j: Jet) -> np.ndarray:
    if D.x is not j.x:
        check_point(D.x, j.x)
    if j.val.shape[-1] != D.m:
        raise ValueError("fiber dimension mismatch")
    return (np.einsum("...ab,...b->...a", D.Z.val, j.val)
            + np.einsum("...iab,...ib->...a", D.gam.val,
                        j.d + np.einsum("...iab,...b->...ia", D.A.val, j.val)))


def dirac_commutator_residual(D: DiracOperatorData, f: Jet, j: Jet) -> Tuple:
    """Per sample, the largest entry of [D, f] psi - c(df) psi, absolute and
    relative to the larger of D(f psi) and f D(psi) (floored at 1)."""
    t1 = apply_dirac(D, j * f)
    t2 = f.val[..., None] * apply_dirac(D, j)
    rhs = np.einsum("...i,...ia->...a", f.d,
                    np.einsum("...iab,...b->...ia", D.gam.val, j.val))
    diff = sample_max(t1 - t2 - rhs, j.nb)
    return diff, relative(diff, sample_max(t1, j.nb), sample_max(t2, j.nb))


def _second_covariant(A: Jet, j: Jet):
    """M_k psi and M_i M_k psi for M_k = partial_k + A_k on a section 2-jet,
    indexed [k, a] and [i, k, a]."""
    a = A.val
    mk = j.d + np.einsum("...kab,...b->...ka", a, j.val)
    mm = (j.dd + np.einsum("...ikab,...b->...ika", A.d, j.val)
          + np.einsum("...kab,...ib->...ika", a, j.d)
          + np.einsum("...iab,...kb->...ika", a, mk))
    return mk, mm


def dirac_square(D: DiracOperatorData, j: Jet) -> np.ndarray:
    """Direct expansion of D^2 on an order-2 jet."""
    if j.dd is None:
        raise ValueError("dirac_square needs an order-2 section jet")
    g, Z = D.gam.val, D.Z.val
    dgam, _, dz, anti = D.square_coefficients
    mk, mm = _second_covariant(D.A, j)
    # gamma^i applied to gamma^k M_i M_k psi, to (partial_i gamma^k + [A_i,
    # gamma^k]) M_k psi and to (partial_i Z + [A_i, Z]) psi
    inner = (np.einsum("...kab,...ikb->...ia", g, mm)
             + np.einsum("...ikab,...kb->...ia", dgam, mk)
             + np.einsum("...iab,...b->...ia", dz, j.val))
    return (np.einsum("...iab,...ib->...a", g, inner)
            + np.einsum("...iab,...ib->...a", anti, mk)
            + np.einsum("...ab,...b->...a", Z, np.einsum("...ab,...b->...a", Z, j.val)))


# ---------------------------------------------------------------------------
# canonical Laplacian and decomposition
# ---------------------------------------------------------------------------


def canonical_laplacian(A: Jet, mj: MetricJet, j: Jet,
                        route: str = "local") -> np.ndarray:
    """-g^ik (nabla_i nabla_k - Gamma^l_ik nabla_l) on a section 2-jet."""
    if route == "local":
        mk, mm = _second_covariant(A, j)
        return -(np.einsum("...ik,...ika->...a", mj.g_inv, mm)
                 - np.einsum("...k,...ka->...a", _trace_gamma(mj), mk))
    if route == "trace":
        # materialize eta_k = nabla_k psi as a 1-jet family, apply the
        # tensor-bundle connection, contract with -g
        eta = j.gradient() + A @ j
        cov = (eta.d + np.einsum("...iab,...kb->...ika", A.val, eta.val)
               - np.einsum("...lik,...la->...ika", mj.christoffel, eta.val))
        return -np.einsum("...ik,...ika->...a", mj.g_inv, cov)
    raise ValueError(f"unknown route {route!r}")


def lap_identity_residual(apply_h: Callable[[Jet], np.ndarray],
                          mj: MetricJet, x, m: int):
    """Defining test [[H, f], g] psi + 2 (df, dg) psi for f=x^k, g=x^l.

    The residual is relative, per sample: scaled by the largest operator
    value entering the double commutator, so the test is meaningful on any
    chart.
    """
    n = mj.n
    x = np.asarray(x, dtype=float)
    probe = Jet.constant(np.ones(m), x)
    coords = seed_point(x)
    h_0 = apply_h(probe)[..., None, None, :]
    h_coord = np.stack([apply_h(probe * c) for c in coords], axis=-2)
    # x^k x^l is symmetric in (k, l): one operator call per unordered pair
    upper = np.triu_indices(n)
    pair = np.empty((n, n), dtype=int)
    pair[upper] = pair[upper[::-1]] = np.arange(len(upper[0]))
    h_fg = np.stack([apply_h(probe * (coords[k] * coords[l]))
                     for k, l in zip(*upper)], axis=-2)[..., pair, :]
    # indexed [..., k, l, a] with f = x^k, g = x^l
    h_f, h_g = h_coord[..., :, None, :], h_coord[..., None, :, :]
    xk, xl = x[..., :, None, None], x[..., None, :, None]
    resid = (h_fg - xl * h_f - xk * h_g + xk * xl * h_0
             + 2.0 * mj.g_inv[..., None] * probe.val[..., None, None, :])

    def peak(a):
        return np.max(np.abs(a), axis=-1, keepdims=True)

    return sample_max(relative(np.abs(resid), peak(h_fg), np.abs(xl) * peak(h_f),
                               np.abs(xk) * peak(h_g), np.abs(xk * xl) * peak(h_0)),
                      coords.nb)


@dataclass
class LaplacianData:
    """Second-order operator as a black box plus coefficient jets.

    The operator is H = S^ik partial_i partial_k + T^k partial_k + U with
    S^ik = -g^ik id enforced by the Laplacian test; T carries 1-jets, fiber
    (n, m, m), so the decomposition can reach the derivative of the
    recovered connection.
    """

    n: int
    m: int
    x: np.ndarray
    apply: Callable[[Jet], np.ndarray]
    T: Jet
    U: np.ndarray


def _trace_gamma(mj: MetricJet) -> np.ndarray:
    """g^ij Gamma^k_ij, indexed [..., k]."""
    return np.einsum("...ij,...kij->...k", mj.g_inv, mj.christoffel)


def _trace_gamma_jet(mj: MetricJet, m: int) -> Jet:
    """The 1-jet of g^ij Gamma^k_ij id, fiber (n, m, m)."""
    d = (np.einsum("...lij,...kij->...lk", mj.dg_inv, mj.christoffel)
         + np.einsum("...ij,...lkij->...lk", mj.g_inv, mj.dchristoffel))
    return Jet(mj.x, *(a[..., None, None] * np.eye(m) for a in (_trace_gamma(mj), d)))


def _lower_index(metric: Jet, family: Jet) -> Jet:
    """sum_k metric[i, k] family[k] for a family of matrices, as one product."""
    m = family.val.shape[-1]
    flat = family.map(lambda a: a.reshape(a.shape[:-2] + (m * m,)))
    return (metric @ flat).map(lambda a: a.reshape(a.shape[:-1] + (m, m)))


def laplacian_from_connection(A: Jet, F: np.ndarray,
                              mj: MetricJet, x) -> LaplacianData:
    """H = canonical Laplacian of A plus zero-order F."""
    m = F.shape[-1]
    x = np.asarray(x, dtype=float)

    def apply_h(j: Jet) -> np.ndarray:
        return canonical_laplacian(A, mj, j) + np.einsum("...ab,...b->...a", F, j.val)

    # T^k = -2 g^ik A_i + g^ij Gamma^k_ij id
    T = _lower_index(Jet(x, mj.g_inv, mj.dg_inv), A) * -2.0 + _trace_gamma_jet(mj, m)
    U = _zero_order_of_connection(A, mj) + F.astype(complex)
    return LaplacianData(mj.n, m, x, apply_h, T, U)


def _zero_order_of_connection(A: Jet, mj: MetricJet) -> np.ndarray:
    """Zero-order block of the canonical Laplacian itself."""
    a = A.val
    term = (A.d + a[..., :, None, :, :] @ a[..., None, :, :, :]
            - np.einsum("...lik,...lab->...ikab", mj.christoffel, a))
    return -np.einsum("...ik,...ikab->...ab", mj.g_inv, term)


def laplacian_from_dirac(D: DiracOperatorData, mj: MetricJet) -> LaplacianData:
    """Coefficient jets of D^2 collected from the operator expansion.

    With M_k = partial_k + A_k the square expands to
      D^2 = g^i g^k M_i M_k + g^i (d_i g^k + [A_i, g^k]) M_k
          + g^i (d_i Z + [A_i, Z]) + (g^i Z + Z g^i) M_i + Z^2
    so the first-order coefficient (of partial_k) is
      T^k = g^k g^i A_i + g^i g^k A_i + g^i (d_i g^k + [A_i, g^k])
          + g^k Z + Z g^k
          = g^k W + W g^k + g^i d_i g^k,   W = g^i A_i + Z,
    since g^i g^k A_i + g^i [A_i, g^k] = g^i A_i g^k.
    """
    g, a, Z = D.gam.val, D.A.val, D.Z.val
    # T is read to first order only, so its products run on 1-jets
    g1 = D.gam.truncate(1)
    W = (g1 @ D.A.truncate(1)).sum() + D.Z.truncate(1)
    T = g1 @ W + W @ g1 + (g1[:, None] @ D.gam.gradient()).sum()
    # U: the same expansion with every derivative of the section dropped
    dgam, az, _, anti = D.square_coefficients
    ai, ak = a[..., :, None, :, :], a[..., None, :, :, :]
    inner = ((g[..., None, :, :, :] @ (D.A.d + ai @ ak) + dgam @ ak).sum(axis=-3)
             + D.Z.d + az)
    U = Z @ Z + (g @ inner).sum(axis=-3) + (anti @ a).sum(axis=-3)
    return LaplacianData(D.n, D.m, np.asarray(D.x, dtype=float), partial(dirac_square, D),
                         T, U)


def laplacian_decompose(L: LaplacianData, mj: MetricJet):
    """Recover (A_i with 1-jets, fiber (n, m, m), and F) from the coefficient
    jets per the probe family: A_i = g_ik (g^jl Gamma^k_jl - T^k) / 2."""
    A = _lower_index(Jet(L.x, mj.g, mj.dg), _trace_gamma_jet(mj, L.m) - L.T) * 0.5
    return A, L.U - _zero_order_of_connection(A, mj)


# ---------------------------------------------------------------------------
# curvatures
# ---------------------------------------------------------------------------


def _commutator(a, b):
    return a @ b - b @ a


def connection_curvature(A: Jet) -> Jet:
    """F_ik = partial_i A_k - partial_k A_i + [A_i, A_k], fiber (n, n, m, m)."""
    dA = A.gradient()
    return (dA - dA.map(lambda t: np.swapaxes(t, -4, -3))
            + _commutator(A[:, None], A[None]))


def superconnection_curvature(S: SuperconnectionData, x) -> Jet:
    """ID^2 at x as an endomorphism on the blade axis, fiber (2^n, m, m).

    F = sum_{I,c} dx^c ^ dx^I (x) partial_c omega_I
      + sum_{I,J} (-1)^((|I|+1)|J|) dx^I ^ dx^J (x) omega_I omega_J.
    F acts pointwise, so it is returned as a 0-jet: its value.
    """
    omega = S.eval_blades(np.asarray(x, dtype=float), order=1)
    value = Jet(omega.x, omega.val)
    return exterior_derivative(omega) + _graded_product(value, value, 1)


def apply_form_endomorphism(F: Jet, fs: Jet) -> Jet:
    """Apply a form-valued endomorphism with graded tensor signs
    (-1)^(|F||K|) on the degree-K part of fs."""
    return _graded_product(F, fs[..., None], 0)[..., 0]


def twisting_curvature(FE: Jet, lowered: np.ndarray, gammas: Jet, tol: float = 1e-9):
    """F^tw_ik = F^E_ik - c(S_ik), S_ik = -1/4 lowered[k,l,i,k'] dx^k dx^l,
    returned with fiber axes [i, k, a, b], and its residual per sample.

    Raises CliffordConnectionError when the result fails to supercommute
    with every gamma at some sample (the input connection was not a Clifford
    connection).
    """
    g, nb = gammas.val, gammas.nb
    ftw = FE.val + 0.25 * np.einsum("...abik,...abxy->...ikxy", lowered,
                                    g[..., :, None, :, :] @ g[..., None, :, :, :])
    scale = sample_max(lowered, nb) + sample_max(FE.val, nb)
    worst = sample_max(_commutator(ftw[..., None, :, :], g[..., None, None, :, :, :]), nb)
    if np.any(worst > tol * np.maximum(1.0, scale)):
        raise CliffordConnectionError(
            f"twisting curvature fails to supercommute with the Clifford action "
            f"(residual {np.max(worst):.3e}); the connection is not a Clifford "
            f"connection")
    return ftw, worst


# ---------------------------------------------------------------------------
# kernel projector
# ---------------------------------------------------------------------------


def _lowered_gammas(mj: MetricJet, ms: ModuleSpec) -> tuple:
    """The gammas gamma^i and their lowered family g_ij gamma^j, both (n, m, m)."""
    g = ms.gammas(mj).val
    return g, np.einsum("...ij,...jab->...iab", mj.g, g)


def kernel_projector(mj: MetricJet, ms: ModuleSpec):
    """Maps (c, b, p) with c(b(phi)) = phi and p = b c a projector of rank m.

    c: T*M (x) E -> E collapses dx^i (x) phi to gamma^i phi;
    b: E -> T*M (x) E is phi -> -(1/n) dx^i (x) g_ij gamma^j phi.
    """
    n, m = mj.n, ms.m
    g, low = _lowered_gammas(mj, ms)
    c = np.swapaxes(g, -3, -2).reshape(g.shape[:-3] + (m, n * m))
    b = -low.reshape(low.shape[:-3] + (n * m, m)) / n
    return c, b, b @ c


def clifford_of_metric(mj: MetricJet, ms: ModuleSpec) -> np.ndarray:
    """c(omega) for omega = g_ij dx^i dx^j; equals -n times the identity."""
    g, low = _lowered_gammas(mj, ms)
    return (g @ low).sum(axis=-3)


# ---------------------------------------------------------------------------
# special superconnections
# ---------------------------------------------------------------------------


def is_special_superconnection(S: SuperconnectionData, points: Sequence,
                               tol: float = 1e-12):
    """True iff every degree >= 2 component vanishes at all sample points,
    and the largest such component.  A stack of P superconnections gets one
    verdict and one value per member, each read at every point."""
    points = np.asarray(points, dtype=float).reshape(-1, S.n)
    if S.field.stacked:
        points = np.broadcast_to(points[:, None], (len(points), len(S.field.coeffs), S.n))
    omega = S.field.jet(points, order=0)[0][..., grades(S.n) >= 2, :, :]
    worst = np.max(np.abs(omega), axis=(0, -3, -2, -1), initial=0.0)
    if not S.field.stacked:
        worst = float(worst)
    return worst <= tol, worst


def special_identity_residual(S: SuperconnectionData, x, X: Jet, Y: Jet,
                              fs: Jet) -> float:
    """Residual of [[ID, iota(X)], iota(Y)] = iota([X, Y]) on a form-section."""
    omega = S.eval_blades(np.asarray(x, dtype=float), order=2)

    def ID(z: Jet) -> Jet:
        return apply_superconnection(omega, z)

    def comm1(z: Jet) -> Jet:
        return ID(iota_vector(X, z)) + iota_vector(X, ID(z))

    lhs = comm1(iota_vector(Y, fs)) - iota_vector(Y, comm1(fs))
    rhs = iota_vector(vector_bracket(X, Y), fs)
    return (lhs - rhs).norm()
