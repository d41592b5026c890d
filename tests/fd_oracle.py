"""Finite-difference curvature oracle.

Derivatives of the metric come from 4th-order central stencils applied to
metric values only, and the tensors are assembled with einsum, so nothing
here shares a derivative route with the jet machinery under test.
"""

import numpy as np

from diracgeo.charts import metric_jet


def metric_value(chart, x) -> np.ndarray:
    return np.asarray(metric_jet(chart, np.asarray(x, dtype=float)[None]).g[0],
                      dtype=float)


def _d1(f, x, a: int, h: float):
    e = np.zeros(len(x))
    e[a] = h
    return (-f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)) / (12 * h)


def _d2_same(f, x, a: int, h: float):
    e = np.zeros(len(x))
    e[a] = h
    return (-f(x + 2 * e) + 16 * f(x + e) - 30 * f(x)
            + 16 * f(x - e) - f(x - 2 * e)) / (12 * h * h)


def fd_metric_derivatives(chart, x, h: float = 1e-3):
    """g, dg[a,i,j] = d_a g_ij, d2g[a,b,i,j] = d_a d_b g_ij by stencils."""
    x = np.asarray(x, dtype=float)
    n = len(x)

    def f(y):
        return metric_value(chart, y)

    g = f(x)
    dg = np.empty((n, n, n))
    for a in range(n):
        dg[a] = _d1(f, x, a, h)
    d2g = np.empty((n, n, n, n))
    for a in range(n):
        d2g[a, a] = _d2_same(f, x, a, h)
        for b in range(a + 1, n):
            def da(y, a=a):
                return _d1(f, y, a, h)
            mixed = _d1(da, x, b, h)
            d2g[a, b] = mixed
            d2g[b, a] = mixed
    return g, dg, d2g


def fd_jet(f, x, h: float = 1e-3):
    """Value, gradient [a, ...] and Hessian [a, b, ...] of an array-valued f
    by the same stencils; exact up to rounding for polynomials of degree <= 4."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    d = np.stack([_d1(f, x, a, h) for a in range(n)])
    dd = np.stack([np.stack([_d2_same(f, x, a, h) if a == b else
                             _d1(lambda y, a=a: _d1(f, y, a, h), x, b, h)
                             for b in range(n)]) for a in range(n)])
    return f(x), d, dd


def fd_curvature(chart, x, h: float = 1e-3):
    """Christoffel, Riemann (index layout [i,j,k,l] as in the library),
    Ricci, and scalar curvature, all from finite differences."""
    g, dg, d2g = fd_metric_derivatives(chart, x, h)
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("ik,akl,lj->aij", ginv, dg, ginv)

    term = (dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg))
    gam = 0.5 * np.einsum("kl,ijl->kij", ginv, term)
    dterm = (d2g + np.einsum("mjil->mijl", d2g) - np.einsum("mlij->mijl", d2g))
    dgam = (0.5 * np.einsum("mkl,ijl->mkij", dginv, term)
            + 0.5 * np.einsum("kl,mijl->mkij", ginv, dterm))

    riem = (np.einsum("ljki->ijkl", dgam) - np.einsum("kjli->ijkl", dgam)
            + np.einsum("jlm,mki->ijkl", gam, gam)
            - np.einsum("jkm,mli->ijkl", gam, gam))
    low = np.einsum("jm,imkl->ijkl", g, riem)
    ric = np.einsum("km,mikj->ij", ginv, low)
    scal = float(np.einsum("ij,ij->", ginv, ric))
    return gam, riem, ric, scal


def fd_scalar(chart, x, h: float = 1e-3) -> float:
    return fd_curvature(chart, x, h)[3]
