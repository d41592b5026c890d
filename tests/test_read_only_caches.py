"""Every value a cache shares is read-only, through ``jets.frozen``: the checks
that share a quantization map, a set of D^2 coefficients or a stack of drawn
blades stay independent only if none of them can change it."""

import dataclasses

import numpy as np
import pytest

from diracgeo import bundles as bnd
from diracgeo import forms
from diracgeo import seiberg_witten as swm
from diracgeo import spin as sp
from diracgeo.charts import get_chart, metric_jet
from diracgeo.clifford import product_table
from diracgeo.seiberg_witten import random_sw_config
from diracgeo.suites import run_suite

XS = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2]])


def _superconnection(mj, ms):
    S = bnd.superconnection_from_degrees(2, ms.m, ms.eta, {0: "random", 1: "random",
                                                           2: "random"}, [3, 5, 7])
    return S, bnd.quantize_superconnection(S.eval(mj.x), S.masks, mj, ms)


def _quantization(mj, ms):
    q = ms.quantization(mj, 2)
    return q(0), q(3).val, q(3).d, q(3).dd


def _laplacian(mj, ms):
    H = bnd.laplacian_from_dirac(_superconnection(mj, ms)[1])
    return H.T.val, H.T.d, H.U


def _drawn_entries(mj, ms):
    S = _superconnection(mj, ms)[0]
    return tuple(S.entries(mask).coeffs for mask in S.masks)


def _given_entries(mj, ms):
    field = bnd.random_parity_matrix(np.random.default_rng(2), 2, ms.eta, 1, degree=1)
    return (bnd.SuperconnectionData(2, ms.m, ms.eta, {1: field}).entries(1).coeffs,)


def _spin_dirac(mj, ms):
    scd = sp.build_spin_connection(sp.build_frame_from_metric(mj))
    D = scd.dirac
    return D.gam.val, D.gam.d, D.A.val, D.A.d, D.Z.d


# each case builds a cache and returns the arrays it shares
CACHES = {
    "forms._tables": lambda mj, ms: forms._tables("iota", 2) + forms._tables("wedge", 2),
    "ModuleSpec.quantization": _quantization,
    "DiracOperatorData.square_coefficients":
        lambda mj, ms: _superconnection(mj, ms)[1].square_coefficients,
    "LaplacianData.T and U": _laplacian,
    "SWConfig.series": lambda mj, ms: sum(random_sw_config(np.random.default_rng(3)).series, ()),
    "SpinConnectionData.dirac": _spin_dirac,
    "SuperconnectionData.entries/drawn": _drawn_entries,
    "SuperconnectionData.entries/given": _given_entries,
    "seiberg_witten constants": lambda mj, ms: (swm.GAMMAS, swm._STAR, swm._GJK, swm._ROWS,
                                                swm._COLS),
    "spin.spinor_tables": lambda mj, ms: sp.spinor_tables(2) + sp.spinor_tables(4),
    # frozen already before the rule was one helper
    "MetricJet.christoffel": lambda mj, ms: (mj.christoffel, mj.exterior_gammas.d),
    "clifford.product_table": lambda mj, ms: (product_table(mj.g_inv),),
}


@pytest.mark.parametrize("cache", CACHES)
def test_a_shared_cache_cannot_be_written(cache):
    mj = metric_jet(get_chart("sphere2"), XS)
    arrays = CACHES[cache](mj, bnd.exterior_module(2))
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 7


def test_a_registered_chart_cannot_be_written():
    # the registry shares one Chart per name: a write to sphere2's scalar
    # curvature used to fail every later levi-civita-scalar-reference on it
    chart = get_chart("sphere2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        chart.scalar = 3.0
    assert get_chart("sphere2").scalar == 2.0
    assert run_suite("levi-civita", chart="sphere2", seed=1, samples=3).passed
