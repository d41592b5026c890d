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

Stack convention: every operator lives at a stack of points x (P, n), the
metric jet, superconnection and sections at the same stack; an operator
holds the metric jet it was built at, and its points are ``mj.x``.  Plain
arrays carry the sample axis in front, as jets do, and residuals are
returned per sample, shape (P,).  The section operators take a block of
sections, fiber (m, K), one column per probe or draw (a value (P, m, K)):
sums over an index and the fiber are then one product with a row
(``_fold_index``), and the laplacian, commutator, affine and Weitzenbock
checks make one operator call per route.

Grading conventions: eta is a diagonal +-1 involution; a matrix is even when
it commutes with eta, odd when it anticommutes. The degree-p component of a
superconnection must have eta-parity (-1)^(p+1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import attrgetter
from typing import Callable, Dict, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from .charts import MetricJet, config_integer, config_keys
from .clifford import blade_indices, grades, parity_matrix, quantize_blades, wedge_table
from .forms import (PolyField, _jet_rows, _monomial_rows, _split_rows, exponent_table,
                    exterior_derivative, iota_vector, random_poly_field, vector_bracket)
from .jets import (Jet, _product, check_point, frozen, point_stack, relative, relative_gap,
                   sample_max, seed_point)


class ParityError(ValueError):
    """Superconnection component with the wrong eta-parity."""


class CliffordConnectionError(ValueError):
    """Twisting curvature failed to supercommute with the Clifford action."""


# ---------------------------------------------------------------------------
# polynomial fiber fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _allowed(sig: tuple, parity: int) -> np.ndarray:
    """The (m, m) entries of eta-parity ``parity`` (+1 even, -1 odd) for
    eta = diag(sig): where sig_r sig_c = parity."""
    return frozen(np.outer(sig, sig) == parity)


def random_parity_matrix(rng, n: int, eta: np.ndarray, parity: int,
                         degree: int = 1) -> PolyField:
    """Polynomial matrix field, a stack of one, with the requested eta-parity
    (+1 even, -1 odd)."""
    allowed = _allowed(tuple(np.diag(eta).real), parity)
    entries = random_poly_field(rng, n, (int(allowed.sum()),), degree,
                                complex_coeffs=True)
    coeffs = np.zeros(entries.coeffs.shape[:2] + allowed.shape, dtype=complex)
    coeffs[..., allowed] = entries.coeffs
    return PolyField(n, entries.exponents, coeffs)


# ---------------------------------------------------------------------------
# module spec: gammas acting on the fiber
# ---------------------------------------------------------------------------


@dataclass
class ModuleSpec:
    """Fiber data: dimension, grading involution, and the x-dependent gammas
    c(dx^i) at a metric jet, as one jet with fiber (n, m, m)."""

    m: int
    eta: np.ndarray
    gammas: Callable[[MetricJet], Jet]
    _maps: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False, compare=False)

    def quantization(self, mj: MetricJet, order: int) -> Callable[[int], Jet]:
        """``clifford.quantize_blades`` on the gammas at ``mj`` to ``order``
        orders: one map per (metric jet, order), kept while the jet lives."""
        maps = self._maps.setdefault(mj, {})
        if order not in maps:
            maps[order] = quantize_blades(self.gammas(mj).truncate(order), np.eye(self.m))
        return maps[order]


def exterior_module(n: int) -> ModuleSpec:
    """Clifford action on the full exterior algebra, gammas c(dx^i) = eps - iota."""
    return ModuleSpec(1 << n, parity_matrix(n), attrgetter("exterior_gammas"))


def module_invariant_residual(ms: ModuleSpec, mj: MetricJet):
    """Per sample, the larger residual of the Clifford relation, relative to
    its products gamma^i gamma^j (which grow with |g^-1|), and of gamma oddness."""
    gam = ms.gammas(mj)
    g = gam.val
    prods = g[..., :, None, :, :] @ g[..., None, :, :, :]
    anti = prods + prods.swapaxes(-4, -3) + 2.0 * mj.g_inv[..., None, None] * np.eye(ms.m)
    return np.maximum(relative(sample_max(anti), sample_max(prods)),
                      sample_max(ms.eta @ g + g @ ms.eta))


# ---------------------------------------------------------------------------
# superconnections
# ---------------------------------------------------------------------------


class SuperconnectionData:
    """Blade-keyed coefficients: mask I -> omega_I(x), plus d implied.

    Degree-1 masks store the A_i of the operator dx^i (x) (partial_i + A_i).
    Blade I holds only the entries its eta-parity (-1)^(|I|+1) allows, as a
    stack of P fields of fiber (E_I,) over its own exponent table, coeffs
    (P, T_I, E_I): P superconnections, member k at point k of a stack of
    points, and a stack of one at every point.  These entries are the only
    coefficients held: ``eval`` places their values on the blade axis.

    A blade given here is a field of fiber (m, m), whose conversion to
    entries is the parity check, made at once; or a function that takes the
    (m, m) mask of its allowed entries and returns them for a stack of
    ``stack`` members, called on the blade's first read and kept.
    """

    def __init__(self, n: int, m: int, eta: np.ndarray, blades: Dict[int, object],
                 stack: int = 1):
        if np.shape(eta) != (m, m):
            raise ValueError(f"grading of shape {np.shape(eta)} does not fit fiber dimension {m}")
        self.n, self.m, self.eta, self.masks = n, m, eta, tuple(blades)
        self.sig = tuple(np.diag(eta).real)
        given = [b.coeffs for b in blades.values() if isinstance(b, PolyField)]
        self.size = len(given[0]) if given else stack
        self._parts = {mask: self._parity_entries(mask, b) if isinstance(b, PolyField) else b
                       for mask, b in blades.items()}

    def allowed(self, mask: int) -> np.ndarray:
        """The (m, m) entries blade ``mask`` may fill."""
        return _allowed(self.sig, 1 if mask.bit_count() % 2 else -1)

    def _parity_entries(self, mask: int, blade: PolyField) -> PolyField:
        allowed = self.allowed(mask)
        live = np.any(blade.coeffs[..., ~allowed] != 0, axis=(0, 1))
        if live.any():
            r, c = np.argwhere(~allowed)[np.argmax(live)]
            raise ParityError(f"blade {blade_indices(mask)} entry ({r},{c}) "
                              f"breaks the degree-parity rule")
        return PolyField(self.n, blade.exponents, frozen(blade.coeffs[..., allowed]))

    def entries(self, mask: int) -> PolyField:
        """Blade ``mask``'s allowed entries, coeffs (P, T, E), read-only.  A drawn
        blade is drawn on its first read and kept, so its generator is seeded once."""
        part = self._parts[mask]
        if callable(part):
            part = self._parts[mask] = part(self.allowed(mask))
            frozen(part.coeffs)
        return part

    def eval(self, x, order: int = 2) -> Jet:
        """omega_I at the stack of points x on the blade axis, fiber
        (2^n, m, m), to ``order``; absent blades are zero.  Each exponent
        table's monomial jets are evaluated once, and each blade's product
        with them fills its entries."""
        x = point_stack(x)
        out = np.zeros(x.shape[:-1] + (_jet_rows(self.n, order), self.m * self.m << self.n),
                       dtype=complex)
        monomials = {}
        for mask in self.masks:
            e = self.entries(mask)
            if len(e.exponents):
                if (key := e.exponents.tobytes()) not in monomials:
                    monomials[key] = _monomial_rows(e.exponents, x, order)
                out[..., mask * self.m * self.m + np.flatnonzero(self.allowed(mask))] = (
                    monomials[key] @ e.coeffs)
        return Jet(x, *_split_rows(out, self.n, order, (1 << self.n, self.m, self.m)))

    def select(self, members: range) -> "SuperconnectionData":
        """Stack members ``members`` as copies of their entries: once the blades
        are read, the selection seeds no generator and holds none of this
        stack's arrays."""
        rows, held = slice(members.start, members.stop, members.step), {}
        for mask in self.masks:
            e = self.entries(mask)
            held[mask] = PolyField(self.n, e.exponents, e.coeffs[rows].copy())
        return SuperconnectionData(self.n, self.m, self.eta, {
            mask: lambda _, e=e: e for mask, e in held.items()}, stack=len(members))


# a coefficient preset is a name or "random(seed)"; each name sets the
# polynomial degree of the coefficients, and "zero" (degree -1, no terms) draws nothing
_PRESET = re.compile(r"(zero|constant|linear|random)|random\s*\(\s*([+-]?\d+)\s*\)")
_PRESET_DEGREES = {"zero": -1, "constant": 0, "linear": 1, "random": 2}


def _draw_blade(mask: int, exps: np.ndarray, seeds: list, allowed: np.ndarray) -> PolyField:
    """Blade ``mask``'s allowed entries as polynomials with terms ``exps``, per
    seed s from the generator seeded s 100003 + mask 101 + 7 in the order
    [entry, term], real part before imaginary."""
    draws = np.zeros((len(seeds), int(allowed.sum()), len(exps), 2))
    for k, seed in enumerate(seeds if len(exps) else []):
        np.random.default_rng(seed * 100003 + mask * 101 + 7).random(out=draws[k])
    draws *= 2.0                # -1 + 2 u: the uniform(-1, 1) draw, bit for bit
    draws -= 1.0
    return PolyField(exps.shape[1], exps, draws.view(complex)[..., 0].swapaxes(1, 2))


def superconnection_from_degrees(n: int, m: int, eta: np.ndarray,
                                 degree_specs: Dict[int, str],
                                 base_seeds: Sequence[int]) -> SuperconnectionData:
    """Build coefficients per degree from preset names.

    Presets: "zero", "constant", "linear", "random" or "random(seed)"; seeds
    are non-negative integers.  Blade I of base seed s draws its allowed
    entries from its own generator, seeded s 100003 + I 101 + 7, on its first
    read, and keeps them: drawing it later or never changes no value.  P base
    seeds give one stack, for points x (P, n), and one seed a stack of one;
    ``select`` copies some members' entries out of it.
    """
    seeds = [config_integer(seed, "seed", low=0) for seed in base_seeds]
    if not seeds:
        raise ValueError("a stack of superconnections needs at least one seed")
    presets = {}
    for p, spec in degree_specs.items():
        hit = _PRESET.fullmatch(spec.strip())
        if hit is None:
            raise ValueError(f"unknown coefficient preset {spec!r}")
        own = hit[2] and config_integer(int(hit[2]), f"seed of preset {spec!r}", low=0)
        presets[p] = (exponent_table(n, _PRESET_DEGREES[hit[1] or "random"]),
                      seeds if own is None else [own] * len(seeds))
    return SuperconnectionData(n, m, eta, {
        mask: partial(_draw_blade, mask, *presets[p])
        for mask in range(1 << n) if (p := mask.bit_count()) in presets}, len(seeds))


SUPERCONNECTION_CONFIG_KEYS = ("fiber_dimension", "grading", "degrees", "seed")


def superconnection_from_config(cfg: dict, n: int, ms: ModuleSpec) -> SuperconnectionData:
    if not isinstance(cfg, dict):
        raise ValueError("superconnection config must be a JSON object")
    config_keys(cfg, SUPERCONNECTION_CONFIG_KEYS)
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
    return superconnection_from_degrees(n, ms.m, ms.eta, degree_specs, [seed])


# ---------------------------------------------------------------------------
# form-valued sections and the superconnection action
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _live_pairs(n: int, odd: int) -> tuple:
    """The pairs (I, M) with I inside M, the only ones where dx^I ^ e_K = +-e_M
    (K = M ^ I): I and K of each, and the (2^n, pairs) matrix summing pair (I, M)
    onto M with that sign times the Koszul factor (-1)^((|I| + odd)|K|)."""
    g, blades = grades(n), np.arange(1 << n)
    inner, outer = np.nonzero(blades[:, None] & blades == blades[:, None])
    rest = outer ^ inner
    fold = np.zeros((1 << n, len(inner)))
    fold[outer, np.arange(len(inner))] = wedge_table(n)[inner, outer, rest].real * np.where(
        (g[inner] + odd) % 2 == 1, (-1.0) ** g[rest], 1.0)
    return frozen((inner, rest, fold))


def _graded_product(omega: Jet, right: Jet, odd: int) -> Jet:
    """sum_I dx^I ^ (omega_I right_K) on the blade axis, with the sign
    (-1)^((|I| + odd)|K|) on the degree-|K| part of ``right``.

    omega has fiber (2^n, m, m) and right (2^n, m, p).  Each order is one
    batched product of omega_I and right_K over the 3^n live pairs (I, M), I
    inside M, whose pair axis a constant signed matrix sums onto M.
    """
    i, k, fold = _live_pairs(omega.n, odd)

    def live(a, b):          # [..., I, a, b] x [..., K, b, c] -> [..., M, a, c]
        t = np.take(a, i, axis=-3) @ np.take(b, k, axis=-3)
        return (fold @ t.reshape(*t.shape[:-2], -1)).reshape(*t.shape[:-3], -1, *t.shape[-2:])

    return _product(omega, right, live)


def apply_superconnection(omega: Jet, fs: Jet) -> Jet:
    """ID(fs) = d fs + sum_I dx^I (x) omega_I fs, with graded tensor signs.

    omega_I has eta-parity (-1)^(|I|+1), so acting on a degree-K component
    picks up the Koszul sign (-1)^((|I|+1)|K|).  fs has fiber (2^n, m); the
    product is taken only to the orders of d fs, the ones the sum keeps.
    """
    d = exterior_derivative(fs)
    return d + _graded_product(omega, fs.truncate(d.order)[..., None], 1)[..., 0]


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


@dataclass
class DiracOperatorData:
    """First-order operator gamma^i (partial_i + A_i) + Z with coefficient jets
    at the points of the metric jet ``mj`` it was built at; gam and A are
    families with fiber (n, m, m)."""

    mj: MetricJet
    gam: Jet
    A: Jet
    Z: Jet

    @property
    def m(self) -> int:
        return self.Z.val.shape[-1]

    @cached_property
    def square_coefficients(self) -> tuple:
        """The coefficients of D^2 that depend on D alone, each sum over an index
        and the fiber one product with a row (``_fold_index``): the row of the
        gammas [a, (i, b)], of d_i g^k + [A_i, g^k] [i, a, (k, b)] and of
        g^i Z + Z g^i [a, (i, b)], and d_i Z + [A_i, Z] indexed [i].  Built on
        first use: an operator of order 0 carries no d_i Z."""
        g, a, z = self.gam.val, self.A.val, self.Z.val[..., None, :, :]
        dgam = self.gam.d + _commutator(a[..., :, None, :, :], g[..., None, :, :, :])
        return frozen((_fold_index(g), _fold_index(dgam), _fold_index(g @ z + z @ g),
                       self.Z.d + _commutator(a, z)))


def quantize_superconnection(omega: Jet, masks: Sequence[int], mj: MetricJet,
                             ms: ModuleSpec) -> DiracOperatorData:
    """The Dirac operator gamma^i (partial_i + A_i) + Z of a superconnection
    evaluated on the blade axis (``S.eval``), omega: A_i are its degree-1
    blades, Z = sum over the blades M of ``masks`` of degree other than 1 of
    q(dx^M) omega_M, q = ``ms.quantization``; A, Z carry omega's orders, the gammas two."""
    check_point(omega.x, mj.x)
    if omega.val.shape[-1] != ms.m:
        raise ValueError("superconnection fiber dimension does not match module")
    q = ms.quantization(mj, omega.order)
    # the family A_i: the degree-1 blades, on the index axis
    A = omega[[1 << i for i in range(mj.n)]]
    Z = sum((q(mask) @ omega[mask] for mask in masks if mask.bit_count() != 1),
            Jet.constant(np.zeros((ms.m, ms.m)), omega.x, omega.order))
    return DiracOperatorData(mj, ms.gammas(mj), A, Z)


def _fold_index(t: np.ndarray) -> np.ndarray:
    """[..., i, a, b] -> the row [..., a, (i, b)], so sum_i t_i X_i = row @ _fold(X)."""
    return np.swapaxes(t, -3, -2).reshape(t.shape[:-3] + (t.shape[-2], -1))


def _fold(t: np.ndarray) -> np.ndarray:
    """[..., i, b, c] -> [..., (i, b), c]."""
    return t.reshape(t.shape[:-3] + (-1, t.shape[-1]))


def apply_dirac(D: DiracOperatorData, j: Jet) -> np.ndarray:
    """D psi on a block of section 1-jets, fiber (m, K)."""
    check_point(D.mj.x, j.x)
    if j.val.shape[1:-1] != (D.m,):
        raise ValueError(f"a section block needs fiber (m, K) with m = {D.m}, "
                         f"not {j.val.shape[1:]}")
    v = j.val
    return D.Z.val @ v + _fold_index(D.gam.val) @ _fold(j.d + D.A.val @ v[..., None, :, :])


def dirac_commutator_residual(D: DiracOperatorData, f: Jet, j: Jet) -> Tuple:
    """Per sample, the largest entry of [D, f] psi - c(df) psi, absolute and
    relative to the larger of D(f psi) and f D(psi) (floored at 1), per sample
    and column of a block j (m, K), with one scalar f per column (K,)."""
    t1, t2 = apply_dirac(D, j * f), f.val[:, None] * apply_dirac(D, j)
    rhs = _fold_index(D.gam.val) @ _fold(f.d[:, :, None] * j.val[..., None, :, :])
    diff = sample_max(t1 - t2 - rhs, cols=True)
    return diff, relative(diff, sample_max(t1, t2, cols=True))


def _second_covariant(A: Jet, j: Jet):
    """M_k psi and M_i M_k psi for M_k = partial_k + A_k on a block of section
    2-jets, fiber (m, K), indexed [k, a, c] and [i, k, a, c]."""
    check_point(A.x, j.x)
    a, v, dd = _fold(A.val), j.val, j.dd.shape       # a as the rows [(k, a), b]
    mk = j.d + (a @ v).reshape(j.d.shape)
    # summed in place into the first product, one block alive at a time
    mm = (_fold(_fold(A.d)) @ v).reshape(dd)
    mm += j.dd
    mm += (a[..., None, :, :] @ j.d).reshape(dd)
    mm += A.val[..., :, None, :, :] @ mk[..., None, :, :, :]
    return mk, mm


def dirac_square(D: DiracOperatorData, j: Jet) -> np.ndarray:
    """Direct expansion of D^2 on a block of order-2 section jets, fiber (m, K)."""
    if j.dd is None:
        raise ValueError("dirac_square needs an order-2 section jet")
    g, dgam, anti, dz = D.square_coefficients
    Z, v = D.Z.val, j.val
    mk, mm = _second_covariant(D.A, j)
    # gamma^i applied to gamma^k M_i M_k psi, to (partial_i gamma^k + [A_i,
    # gamma^k]) M_k psi and to (partial_i Z + [A_i, Z]) psi, each sum one product
    inner = (g[..., None, :, :] @ _fold(mm) + dgam @ _fold(mk)[..., None, :, :]
             + dz @ v[..., None, :, :])
    return g @ _fold(inner) + anti @ _fold(mk) + Z @ (Z @ v)


# ---------------------------------------------------------------------------
# canonical Laplacian and decomposition
# ---------------------------------------------------------------------------


def canonical_laplacian(A: Jet, mj: MetricJet, j: Jet,
                        route: str = "local") -> np.ndarray:
    """-g^ik (nabla_i nabla_k - Gamma^l_ik nabla_l) on a block of section
    2-jets, fiber (m, K)."""
    check_point(mj.x, j.x)
    if route == "local":
        mk, mm = _second_covariant(A, j)
        return -(np.einsum("...ik,...ikac->...ac", mj.g_inv, mm)
                 - np.einsum("...k,...kac->...ac", _trace_gamma(mj), mk))
    if route == "trace":
        # materialize eta_k = nabla_k psi as a 1-jet family, apply the
        # tensor-bundle connection, contract with -g
        eta = j.gradient() + A @ j
        cov = (eta.d + A.val[..., :, None, :, :] @ eta.val[..., None, :, :, :]
               - np.einsum("...lik,...lac->...ikac", mj.christoffel, eta.val))
        return -np.einsum("...ik,...ikac->...ac", mj.g_inv, cov)
    raise ValueError(f"unknown route {route!r}")


def lap_identity_residual(H: LaplacianData):
    """Defining test [[H, f], g] psi + 2 (df, dg) psi for f=x^k, g=x^l, at the
    points of H's metric jet.

    The residual is relative, per sample: scaled by the largest operator
    value entering the double commutator, so the test is meaningful on any
    chart.
    """
    mj, n, x = H.mj, H.mj.n, H.mj.x
    coords = seed_point(x)
    # the probes 1, x^k and x^k x^l are the products of (1, x^0, ..., x^n-1)
    # with itself, symmetric: one column per unordered pair, one operator call
    ext = coords.map(lambda a: np.concatenate([0 * a[..., :1], a], -1)) + np.eye(n + 1)[0]
    upper = np.triu_indices(n + 1)
    pair = np.empty((n + 1, n + 1), dtype=int)
    pair[upper] = pair[upper[::-1]] = np.arange(len(upper[0]))
    probe = (ext[:, None] * ext[None, :])[upper][None] * np.ones((H.m, 1))
    h = np.moveaxis(H.apply(probe), -1, -2)[..., pair, :]
    # indexed [..., k, l, a] with f = x^k, g = x^l
    h_0, h_fg = h[..., :1, :1, :], h[..., 1:, 1:, :]
    h_f, h_g = h[..., 1:, :1, :], h[..., :1, 1:, :]
    xk, xl = x[..., :, None, None], x[..., None, :, None]
    resid = h_fg - xl * h_f - xk * h_g + xk * xl * h_0 + 2.0 * mj.g_inv[..., None]

    def peak(a):
        return np.max(np.abs(a), axis=-1, keepdims=True)

    return sample_max(relative(np.abs(resid), peak(h_fg), np.abs(xl) * peak(h_f),
                               np.abs(xk) * peak(h_g), np.abs(xk * xl) * peak(h_0)))


@dataclass
class LaplacianData:
    """Second-order operator as a black box plus coefficient jets, at the
    points of the metric jet ``mj`` it was built at.

    The operator is H = S^ik partial_i partial_k + T^k partial_k + U with
    S^ik = -g^ik id enforced by the Laplacian test; T carries 1-jets, fiber
    (n, m, m), so the decomposition can reach the derivative of the
    recovered connection.  T, from ``first_order``, and U, H on the identity
    block (the constant sections), are built on first read.
    """

    mj: MetricJet
    m: int
    apply: Callable[[Jet], np.ndarray]
    first_order: Callable[[], Jet]
    T = cached_property(lambda self: frozen(self.first_order()))
    U = cached_property(lambda self: frozen(self.apply(Jet.constant(np.eye(self.m), self.mj.x))))


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


def laplacian_from_connection(A: Jet, F: np.ndarray, mj: MetricJet) -> LaplacianData:
    """H = canonical Laplacian of A plus zero-order F, at the points of ``mj``."""
    m = F.shape[-1]

    def apply_h(j: Jet) -> np.ndarray:
        return canonical_laplacian(A, mj, j) + F @ j.val

    # T^k = -2 g^ik A_i + g^ij Gamma^k_ij id
    return LaplacianData(mj, m, apply_h, lambda: _lower_index(
        Jet(mj.x, mj.g_inv, mj.dg_inv), A) * -2.0 + _trace_gamma_jet(mj, m))


def laplacian_from_dirac(D: DiracOperatorData) -> LaplacianData:
    """Coefficient jets of D^2 collected from the operator expansion, at D's
    metric jet.

    With M_k = partial_k + A_k the square expands to
      D^2 = g^i g^k M_i M_k + g^i (d_i g^k + [A_i, g^k]) M_k
          + g^i (d_i Z + [A_i, Z]) + (g^i Z + Z g^i) M_i + Z^2
    so the first-order coefficient (of partial_k) is
      T^k = g^k g^i A_i + g^i g^k A_i + g^i (d_i g^k + [A_i, g^k])
          + g^k Z + Z g^k
          = g^k W + W g^k + g^i d_i g^k,   W = g^i A_i + Z,
    since g^i g^k A_i + g^i [A_i, g^k] = g^i A_i g^k."""
    def first_order() -> Jet:
        # T is read to first order only, so its products run on 1-jets
        g1 = D.gam.truncate(1)
        W = (g1 @ D.A.truncate(1)).sum() + D.Z.truncate(1)
        return g1 @ W + W @ g1 + (g1[:, None] @ D.gam.gradient()).sum()

    return LaplacianData(D.mj, D.m, partial(dirac_square, D), first_order)


def laplacian_decompose(L: LaplacianData):
    """Recover (A_i with 1-jets, fiber (n, m, m), and F) at L's metric jet from
    the coefficient jets per the probe family: A_i = g_ik (g^jl Gamma^k_jl - T^k) / 2."""
    mj = L.mj
    A = _lower_index(Jet(mj.x, mj.g, mj.dg), _trace_gamma_jet(mj, L.m) - L.T) * 0.5
    return A, L.U - canonical_laplacian(A, mj, Jet.constant(np.eye(L.m), mj.x))


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


def superconnection_curvature(omega: Jet) -> Jet:
    """ID^2 as an endomorphism on the blade axis, fiber (2^n, m, m), from the
    blades omega of a superconnection evaluated to order >= 1 (``S.eval``).

    F = sum_{I,c} dx^c ^ dx^I (x) partial_c omega_I
      + sum_{I,J} (-1)^((|I|+1)|J|) dx^I ^ dx^J (x) omega_I omega_J.
    F acts pointwise, so it is returned as a 0-jet: its value.
    """
    value = Jet(omega.x, omega.val)
    return exterior_derivative(omega) + _graded_product(value, value, 1)


def apply_form_endomorphism(F: Jet, fs: Jet) -> Jet:
    """Apply a form-valued endomorphism with graded tensor signs
    (-1)^(|F||K|) on the degree-K part of fs."""
    return _graded_product(F, fs[..., None], 0)[..., 0]


def twisting_curvature(FE: Jet, mj: MetricJet, gammas: Jet):
    """F^tw_ik = F^E_ik - c(S_ik), S_ik = -1/4 R[k,l,i,k'] dx^k dx^l for R = mj.lowered,
    returned with fiber axes [i, k, a, b], and its residual per sample relative
    to the terms that cancel, (|F^E| + |R| |gamma gamma|) |gamma|.

    Raises CliffordConnectionError when the result fails to supercommute
    with every gamma, to 1e-9, at some sample (the input connection was not
    a Clifford connection).
    """
    check_point(FE.x, mj.x)
    check_point(gammas.x, mj.x)
    g, lowered = gammas.val, mj.lowered
    prods = g[..., :, None, :, :] @ g[..., None, :, :, :]
    ftw = FE.val + 0.25 * np.einsum("...abik,...abxy->...ikxy", lowered, prods)
    scale = sample_max(FE.val) + sample_max(lowered) * sample_max(prods)
    worst = relative(sample_max(_commutator(ftw[..., None, :, :], g[..., None, None, :, :, :])),
                     scale * sample_max(g))
    if np.any(worst > 1e-9):
        raise CliffordConnectionError(
            f"twisting curvature fails to supercommute with the Clifford action "
            f"(residual {np.max(worst):.3e}); the connection is not a Clifford "
            f"connection")
    return ftw, worst


# ---------------------------------------------------------------------------
# kernel projector
# ---------------------------------------------------------------------------


def kernel_projector(mj: MetricJet, ms: ModuleSpec):
    """Maps (c, b, p) with c(b(phi)) = phi and p = b c a projector of rank m.

    c: T*M (x) E -> E collapses dx^i (x) phi to gamma^i phi;
    b: E -> T*M (x) E is phi -> -(1/n) dx^i (x) g_ij gamma^j phi.
    """
    g = ms.gammas(mj).val
    c, b = _fold_index(g), -_fold(np.einsum("...ij,...jab->...iab", mj.g, g)) / mj.n
    return c, b, b @ c


# ---------------------------------------------------------------------------
# special superconnections
# ---------------------------------------------------------------------------


def is_special_superconnection(S: SuperconnectionData, points: Sequence):
    """True iff every degree >= 2 component vanishes, to 1e-12, at all sample
    points, and the largest component of the blades read: those blades, in
    turn, until every member has a component above 1e-12, which decides its
    verdict: one verdict and one value per member of the stack, each read
    at every point."""
    points = np.broadcast_to(point_stack(points)[:, None], (len(points), S.size, S.n))
    worst = np.zeros(S.size)
    for mask in S.masks:
        if mask.bit_count() >= 2:
            omega = S.entries(mask).jet(points, order=0)[0]
            worst = np.maximum(worst, np.max(np.abs(omega), axis=(0, 2), initial=0.0))
            if np.all(worst > 1e-12):
                break
    return worst <= 1e-12, worst


def special_identity_residual(S: SuperconnectionData, X: Jet, Y: Jet, fs: Jet):
    """Residual of [[ID, iota(X)], iota(Y)] = iota([X, Y]) on a form-section,
    per sample at the points of fs, relative to both sides."""
    omega = S.eval(fs.x, order=2)

    def ID(z: Jet) -> Jet:
        return apply_superconnection(omega, z)

    def comm1(z: Jet) -> Jet:
        return ID(iota_vector(X, z)) + iota_vector(X, ID(z))

    lhs = comm1(iota_vector(Y, fs)) - iota_vector(Y, comm1(fs))
    rhs = iota_vector(vector_bracket(X, Y), fs)
    return relative_gap(lhs.val, rhs.val)
