"""A chart with its metric rescaled, as the suites read it."""

import dataclasses

from diracgeo.charts import Chart


def scaled(chart: Chart, lam: float) -> Chart:
    """``chart`` with its metric multiplied by ``lam``: the conformal factor
    of g = lambda^-2 delta is multiplied by lam^(-1/2) and the scalar
    curvature, where the chart knows it, by 1/lam."""
    lam_fn = chart.lam_fn and (lambda x: lam ** -0.5 * chart.lam_fn(x))
    scalar = None if chart.scalar is None else chart.scalar / lam
    return dataclasses.replace(chart, metric_fn=lambda x: lam * chart.metric_fn(x),
                               lam_fn=lam_fn, scalar=scalar)
