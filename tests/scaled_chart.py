"""A built-in chart with its metric rescaled, as the suites see it."""

import dataclasses
from contextlib import contextmanager

import pytest

from diracgeo import charts, suites


@contextmanager
def scaled(chart: str, lam: float):
    """While open, the suites read ``chart`` with its metric multiplied by
    ``lam``: the conformal factor of g = lambda^-2 delta is multiplied by
    lam^(-1/2) and the scalar-curvature reference by 1/lam.  Yields the
    scaled chart."""
    base = charts.get_chart(chart)
    lam_fn = base.lam_fn and (lambda x: lam ** -0.5 * base.lam_fn(x))
    out = dataclasses.replace(base, metric_fn=lambda x: lam * base.metric_fn(x),
                              lam_fn=lam_fn)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "get_chart", lambda name: out)
        if chart in suites.SCALAR_REFERENCE:
            mp.setitem(suites.SCALAR_REFERENCE, chart, suites.SCALAR_REFERENCE[chart] / lam)
        yield out
