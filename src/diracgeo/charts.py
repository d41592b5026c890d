"""Coordinate charts with smooth metrics and exact pointwise metric jets.

A chart's ``metric_fn`` takes the coordinates as one vector and is written
against generic array arithmetic, so the same function body evaluates on a
plain float array (tests) and on the coordinate jet of ``seed_point`` at a
point or a stack (exact metric jets, and the rejection check of random
charts).  Constant metrics return a plain array.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .clifford import blade_tables, contract
from .jets import Jet, frozen, seed_point


class ChartDomainError(ValueError):
    """Point lies outside the chart's domain."""


class DegenerateMetricError(ValueError):
    """Metric fails symmetry/nondegeneracy/signature requirements at a point."""


def config_integer(value, what: str, error=ValueError, low=None) -> int:
    """An integral number as an int, at least ``low`` if given; int() would
    truncate 9.7 and take True."""
    if type(value) is not int and (isinstance(value, bool) or not (isinstance(
            value, numbers.Integral) or isinstance(value, float) and value.is_integer())):
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be at least {low}, got {value!r}")
    return int(value)


def config_keys(cfg: dict, accepted, error=ValueError) -> None:
    """Reject a top-level key of a config that its reader would ignore."""
    for key in cfg:
        if key not in accepted:
            raise error(f"unknown config key {key!r}; accepted keys are "
                        f"{', '.join(accepted)}")


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart, shared read-only: dimension, metric, domain."""

    name: str
    n: int
    negatives: int                       # count of negative metric eigenvalues
    metric_fn: Callable                  # coordinate vector -> (n, n) metric
    domain: Callable[[np.ndarray], bool] = field(default=lambda x: True)
    period: Optional[float] = None       # 2*pi on torus charts
    sample_radius: float = 1.5
    lam_fn: Optional[Callable] = None    # lambda of a conformal chart g = lambda^-2 delta
    scalar: Optional[float] = None       # the scalar curvature, where it is known

    @property
    def riemannian(self) -> bool:
        return self.negatives == 0

    def validate_point(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ChartDomainError(
                f"chart {self.name!r} expects {self.n} coordinates, got {x.shape}")
        if not self.domain(x):
            raise ChartDomainError(f"point {x.tolist()} outside domain of {self.name!r}")
        return x

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        if self.period is not None:
            return rng.uniform(0.0, self.period, size=self.n)
        for _ in range(1000):
            x = rng.uniform(-self.sample_radius, self.sample_radius, size=self.n)
            if self.domain(x):
                return x
        raise ChartDomainError(f"could not sample a domain point of {self.name!r}")


class MetricJet:
    """Metric with exact derivatives at one point, or at each of a stack of
    points x (P, n), every array then carrying the sample axis P in front.

    dg[k, i, j] = d_k g_ij and d2g[l, k, i, j] = d_l d_k g_ij.  Inverse-metric
    and volume-factor jets are derived once here; the Levi-Civita data and
    the metric-only operator jets on the blade axis (Lambda(g^-1), the
    Levi-Civita connection, g^ij iota_j and the gammas) are built once, on
    first use.  All are shared, and read-only.

    Conventions (all verified against frozen unit-value tests):
      christoffel[k, i, j]     = Gamma^k_ij (symmetric in i, j)
      dchristoffel[l, k, i, j] = d_l Gamma^k_ij
      riemann[i, j, k, l] = <dx_i-component of [nabla_k, nabla_l] dx^j>
                          = d_l Gamma^j_ki - d_k Gamma^j_li
                            + Gamma^j_lm Gamma^m_ki - Gamma^j_km Gamma^m_li
      lowered[i, j, k, l] = g_jm riemann[i, m, k, l]   (the all-lower tensor)
      ricci_ij = g^km lowered[m, i, k, j];  scalar = g^ij ricci_ij
    so the unit 2-sphere has scalar +2 (``scalar`` is (P,) on a stack).
    """

    def __init__(self, chart: Chart, x: np.ndarray, g: np.ndarray,
                 dg: np.ndarray, d2g: np.ndarray):
        self.chart = chart
        self.x = x
        self.n = chart.n
        # views: making them read-only leaves the caller's arrays writable
        self.g, self.dg, self.d2g = (np.asarray(a).view() for a in (g, dg, d2g))
        self.g_inv = np.linalg.inv(g)

        # d(g^-1) = -g^-1 (dg) g^-1 ; second derivatives by one more product
        # rule, with term[l, k] = g^-1 (d_l g) g^-1 (d_k g) g^-1
        gi = self.g_inv[..., None, :, :]
        self.dg_inv = -gi @ dg @ gi
        term = -((gi @ dg)[..., :, None, :, :] @ self.dg_inv[..., None, :, :, :])
        gi = gi[..., None, :, :]
        self.d2g_inv = term + term.swapaxes(-4, -3) - gi @ d2g @ gi

        # Jacobi's formula for h = log sqrt|det g|: d_k h = tr(g^-1 d_k g) / 2
        # and d_l d_k h = (tr(g^-1 d_l d_k g) + tr(d_l(g^-1) d_k g)) / 2
        gi = self.g_inv
        self.det = np.linalg.det(g)
        self.sqrt_abs_det = np.sqrt(np.abs(self.det))
        self.dh = 0.5 * np.einsum("...ij,...kji->...k", gi, dg)
        self.ddh = 0.5 * (np.einsum("...ij,...lkji->...lk", gi, d2g)
                          + np.einsum("...lij,...kji->...lk", self.dg_inv, dg))
        dh, s = self.dh, self.sqrt_abs_det[..., None]
        self.dsqrt = s * dh
        self.ddsqrt = s[..., None] * (self.ddh + dh[..., :, None] * dh[..., None, :])
        frozen((self.g, self.dg, self.d2g, self.g_inv, self.dg_inv, self.d2g_inv, self.det,
                self.sqrt_abs_det, self.dh, self.ddh, self.dsqrt, self.ddsqrt))

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma[k, i, j] = Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
        return frozen(0.5 * np.einsum("...kl,...ijl->...kij", self.g_inv,
                                      _first_kind(self.dg)))

    @cached_property
    def dchristoffel(self) -> np.ndarray:
        """dGamma[m, k, i, j] = d_m Gamma^k_ij."""
        return frozen(0.5 * (
            np.einsum("...mkl,...ijl->...mkij", self.dg_inv, _first_kind(self.dg))
            + np.einsum("...kl,...mijl->...mkij", self.g_inv, _first_kind(self.d2g))))

    @cached_property
    def riemann(self) -> np.ndarray:
        gamma, dgamma = self.christoffel, self.dchristoffel
        return frozen(
            np.einsum("...ljki->...ijkl", dgamma) - np.einsum("...kjli->...ijkl", dgamma)
            + np.einsum("...jlm,...mki->...ijkl", gamma, gamma)
            - np.einsum("...jkm,...mli->...ijkl", gamma, gamma))

    @cached_property
    def lowered(self) -> np.ndarray:
        return frozen(np.einsum("...jm,...imkl->...ijkl", self.g, self.riemann))

    @cached_property
    def ricci(self) -> np.ndarray:
        return frozen(np.einsum("...km,...mikj->...ij", self.g_inv, self.lowered))

    @cached_property
    def scalar(self) -> np.ndarray:
        return frozen(np.einsum("...ij,...ij->...", self.g_inv, self.ricci))

    @cached_property
    def compound_inverse(self) -> Jet:
        """Lambda(g^-1) on the blade axis as a 2-jet, for the Hodge star and
        the Gram pairing: column M is (g^-1 dx^{i_1}) ^ ... ^ (g^-1 dx^{i_p}),
        so entry [M', M] is the minor det g^-1[rows M', cols M].  Lambda is a
        homomorphism whose differential is the derivation delta(X) = X_mj eps_m
        iota_j, so with B_k = g d_k g^-1 and d_l B_k = g d_l d_k g^-1 - B_l B_k,
        d_k Lambda(g^-1) = Lambda(g^-1) delta(B_k) and d_l d_k Lambda(g^-1) =
        d_l Lambda(g^-1) delta(B_k) + Lambda(g^-1) delta(d_l B_k)."""
        n = self.n
        gens = contract(self.g_inv.swapaxes(-1, -2), blade_tables(n)[0])  # [l] = g^il eps_i
        val = np.ones(self.g.shape[:-2] + (1, 1), complex) * np.eye(1 << n)  # column 0 is e_0
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            val[..., mask] = (gens[..., low, :, :] @ val[..., mask & (mask - 1), None])[..., 0]
        table = _derivation_table(n).reshape((n * n,) + val.shape[-2:])
        g = self.g[..., None, :, :]
        B = g @ self.dg_inv
        dB = g[..., None, :, :] @ self.d2g_inv - B[..., :, None, :, :] @ B[..., None, :, :, :]
        delta_B, delta_dB = (contract(a.reshape(a.shape[:-2] + (-1,)), table) for a in (B, dB))
        d = val[..., None, :, :] @ delta_B
        dd = (d[..., :, None, :, :] @ delta_B[..., None, :, :, :]
              + val[..., None, None, :, :] @ delta_dB)
        return frozen(Jet(self.x, val, d, dd))

    @cached_property
    def exterior_connection(self) -> Jet:
        """A_a of nabla_a = partial_a + A_a on the blade axis, the derivation
        -Gamma^j_am eps_m iota_j: one 1-jet with fiber (n, 2^n, 2^n)."""
        table = _derivation_table(self.n)
        return frozen(Jet(self.x, -np.einsum("...jam,mjxy->...axy", self.christoffel, table),
                          -np.einsum("...ljam,mjxy->...laxy", self.dchristoffel, table)))

    @cached_property
    def raised_iota(self) -> Jet:
        """g^ij iota_j, fiber (n, 2^n, 2^n), as the 1-jet of g^-1: it multiplies
        nabla of a jet, which carries at most one order."""
        iota = blade_tables(self.n)[1]
        return frozen(Jet(self.x, contract(self.g_inv, iota), contract(self.dg_inv, iota)))

    @cached_property
    def exterior_gammas(self) -> Jet:
        """Clifford action c(dx^i) = eps_i - g^ij iota_j on the blade axis: one
        2-jet with fiber (n, 2^n, 2^n)."""
        eps, iota = blade_tables(self.n)  # the sign on the metric spares a negated copy
        return frozen(Jet(self.x, *(contract(-a, iota) for a in
                                    (self.g_inv, self.dg_inv, self.d2g_inv))) + eps)


@lru_cache(maxsize=None)
def _derivation_table(n: int) -> np.ndarray:
    """eps_m iota_j, shape (n, n, 2^n, 2^n): the derivation replacing dx^j by dx^m."""
    return frozen(np.einsum("mab,jbc->mjac", *blade_tables(n)))


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """[..., i, j, l] -> dg[..., i, j, l] + dg[..., j, i, l] - dg[..., l, i, j]."""
    return dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)


def metric_jet(chart: Chart, x) -> MetricJet:
    """Evaluate the chart metric and its first two derivatives at x, or at
    every row of a stack of points (P, n) in one batched evaluation."""
    x = np.asarray(x, dtype=float)
    for row in (x if x.ndim == 2 else [x]):
        chart.validate_point(row)
    n = chart.n
    raw = chart.metric_fn(seed_point(x, order=2))
    if isinstance(raw, Jet):
        g, dg, d2g = raw.val, raw.d, raw.dd
    else:
        g = np.broadcast_to(raw, x.shape[:-1] + (n, n))
        dg, d2g = np.zeros(g.shape + (n,)), np.zeros(g.shape + (n, n))
    if np.max(np.abs(np.imag(g)), initial=0.0) > 1e-12:
        raise DegenerateMetricError("metric entries must be real")
    g, dg, d2g = np.real(g), np.real(dg), np.real(d2g)
    # one test per sample and per condition; the first failing sample raises
    # its first failure, symmetry before degeneracy before signature
    eig = np.linalg.eigvalsh(g).reshape(-1, n)
    mags, flat = np.abs(eig), g.reshape(-1, n, n)
    neg = np.sum(eig < 0, axis=-1)
    asym = ~(np.max(np.abs(flat - flat.swapaxes(-1, -2)), axis=(-2, -1))
             <= 1e-10 * np.max(np.abs(flat), axis=(-2, -1)))
    degen = mags.min(-1) <= 1e-10 * mags.max(-1)
    bad = np.flatnonzero(asym | degen | (neg != chart.negatives))
    if bad.size:
        k = bad[0]
        pt, mag = x.reshape(-1, n)[k].tolist(), mags[k]
        if asym[k]:
            raise DegenerateMetricError(f"metric not symmetric at {pt}")
        if degen[k]:
            raise DegenerateMetricError(
                f"metric degenerate at {pt}: min |eigenvalue| {mag.min():.3e} "
                f"<= 1e-10 * max |eigenvalue| {mag.max():.3e}")
        raise DegenerateMetricError(
            f"signature drifted at {pt}: {neg[k]} negative directions, "
            f"expected {chart.negatives}")
    # symmetrize derivative arrays in (i, j) to kill representation roundoff
    dg = 0.5 * (dg + dg.swapaxes(-1, -2))
    d2g = 0.5 * (d2g + d2g.swapaxes(-1, -2))
    d2g = 0.5 * (d2g + d2g.swapaxes(-4, -3))
    return MetricJet(chart, x, g, dg, d2g)


# ---------------------------------------------------------------------------
# built-in charts
# ---------------------------------------------------------------------------


def _const_metric(m: np.ndarray):
    def metric_fn(xs):
        return m

    return metric_fn


def flat_chart(n: int) -> Chart:
    """Euclidean R^n with the identity metric."""
    return Chart(f"flat{n}", n, 0, _const_metric(np.eye(n)), scalar=0.0)


def minkowski_chart() -> Chart:
    """R^4 with signature (-, +, +, +)."""
    return Chart("minkowski4", 4, 1, _const_metric(np.diag([-1.0, 1, 1, 1])), scalar=0.0)


def torus_chart(n: int) -> Chart:
    """Flat torus, coordinates periodic with period 2*pi."""
    return Chart(f"torus{n}", n, 0, _const_metric(np.eye(n)),
                 period=2.0 * np.pi, scalar=0.0)


def conformal_chart(n: int, which: str) -> Chart:
    """Conformally flat chart g = lambda^-2 delta.

    which = "sphere":    lambda = (1 + |x|^2)/2, the unit round sphere;
    which = "hyperbolic": lambda = (1 - |x|^2)/2 on the open unit ball;
    their scalar curvature is n(n - 1) and -n(n - 1).
    """
    sign = {"sphere": 1.0, "hyperbolic": -1.0}[which]

    def lam(xs):
        return (1.0 + sign * (xs @ xs)) * 0.5

    def metric_fn(xs):
        w = lam(xs)
        return np.eye(n) / (w * w)

    if which == "hyperbolic":
        domain = lambda x: float(np.dot(x, x)) < 1.0 - 1e-9
        radius = 0.55
        name = f"hyperbolic{n}"
    else:
        domain = lambda x: True
        radius = 1.2
        name = f"sphere{n}"
    return Chart(name, n, 0, metric_fn, domain=domain, sample_radius=radius,
                 lam_fn=lam, scalar=sign * n * (n - 1))


def polynomial_chart(n: int, seed: int = 7, scale: float = 0.04) -> Chart:
    """delta plus a small random symmetric quadratic perturbation.

    Rejection-sampled: coefficients are redrawn until the metric stays
    comfortably positive definite on the sampling box.
    """
    radius = 0.9
    # every attempt is tested on the same points, as one stack in one call
    probe = seed_point(np.random.default_rng(seed + 99).uniform(-radius, radius, (200, n)),
                       order=0)
    for attempt in range(64):
        rng = np.random.default_rng(seed + 1000 * attempt)
        s0 = rng.uniform(-1, 1, size=(n, n)) * scale
        s0 = 0.5 * (s0 + s0.T)
        s1 = rng.uniform(-1, 1, size=(n, n, n)) * scale
        s1 = 0.5 * (s1 + np.transpose(s1, (1, 0, 2)))
        s2 = rng.uniform(-1, 1, size=(n, n, n, n)) * scale
        s2 = 0.5 * (s2 + np.transpose(s2, (1, 0, 2, 3)))
        s2 = 0.5 * (s2 + np.transpose(s2, (0, 1, 3, 2)))

        def metric_fn(xs, g0=np.eye(n) + s0, s1=s1, s2=s2):
            return g0 + s1 @ xs + (s2 @ xs) @ xs

        if np.min(np.linalg.eigvalsh(metric_fn(probe).val)) >= 0.5:
            return Chart(f"poly{n}", n, 0, metric_fn, sample_radius=radius)
    raise DegenerateMetricError("could not draw a positive definite polynomial metric")


_BUILDERS: dict = {}


def _register(chart: Chart) -> Chart:
    _BUILDERS[chart.name] = chart
    return chart


def registry() -> dict:
    if not _BUILDERS:
        for n in (2, 3, 4):
            _register(flat_chart(n))
            _register(torus_chart(n))
            _register(polynomial_chart(n))
        _register(minkowski_chart())
        for n in (2, 4):
            _register(conformal_chart(n, "sphere"))
            _register(conformal_chart(n, "hyperbolic"))
    return _BUILDERS


def get_chart(name: str) -> Chart:
    reg = registry()
    if name not in reg:
        raise KeyError(f"unknown chart {name!r}; available: {sorted(reg)}")
    return reg[name]


def chart_from_config(cfg: dict) -> Chart:
    """Build a chart from a config mapping.

    Keys: name, dimension, kind in {flat, minkowski, torus, conformal,
    polynomial}; "lambda" in {sphere, hyperbolic} for conformal; coefficients
    [seed, scale] for polynomial.
    """
    config_keys(cfg, ("name", "dimension", "kind", "lambda", "coefficients"))
    try:
        kind = cfg["kind"]
        n = config_integer(cfg["dimension"], "dimension", low=1)
    except KeyError as exc:
        raise ValueError(f"chart config missing key {exc}") from exc
    if kind == "flat":
        chart = flat_chart(n)
    elif kind == "minkowski":
        if n != 4:
            raise ValueError("minkowski chart is four-dimensional")
        chart = minkowski_chart()
    elif kind == "torus":
        chart = torus_chart(n)
    elif kind == "conformal":
        lam = cfg.get("lambda", "sphere")
        if lam not in ("sphere", "hyperbolic"):
            raise ValueError(f"unknown conformal factor {lam!r}")
        chart = conformal_chart(n, lam)
    elif kind == "polynomial":
        coeffs = cfg.get("coefficients", [7, 0.04])
        if len(coeffs) != 2:
            raise ValueError("polynomial chart coefficients are [seed, scale]")
        chart = polynomial_chart(n, config_integer(coeffs[0], "polynomial seed", low=0),
                                 float(coeffs[1]))
    else:
        raise ValueError(f"unknown chart kind {kind!r}")
    return replace(chart, name=str(cfg["name"])) if "name" in cfg else chart


def load_chart_config(path: str) -> Chart:
    with open(path, "r", encoding="utf-8") as fh:
        return chart_from_config(json.load(fh))
