"""Jet-based differential geometry with Clifford modules and Dirac operators.

Everything evaluates pointwise on second-order jets: charts supply metric
jets, the Clifford layer turns them into module actions, and the bundle,
spin, and monopole layers build the operators whose defining identities the
verification suites check.
"""

from .bundles import (DiracOperatorData, ModuleSpec, SuperconnectionData,
                      apply_dirac, canonical_laplacian, dirac_square,
                      exterior_module, is_special_superconnection,
                      kernel_projector, laplacian_decompose,
                      laplacian_from_connection, laplacian_from_dirac,
                      quantize_superconnection, superconnection_from_config,
                      superconnection_from_degrees)
from .charts import (Chart, ChartDomainError, MetricJet, chart_from_config,
                     get_chart, load_chart_config, metric_jet, registry)
from .clifford import BilinearForm, chirality, clifford_product, quantize, symbol
from .curvature import CurvatureData, curvature_data
from .forms import (PolyField, coderivative_connection, coderivative_hodge,
                    exterior_derivative, forms_dirac, gram_pairing,
                    hodge_star, iota_vector, laplace_beltrami, lie_derivative,
                    vector_bracket, volume_form, wedge_forms)
from .jets import Jet, jet_sqrt, seed_point
from .report import CheckResult, VerificationReport
from .seiberg_witten import (SWConfig, SWConfigError, load_sw_config,
                             random_sw_config, sw_functional, sw_residuals)
from .spin import (SpinSignatureError, build_spin_connection,
                   conformal_dirac, lichnerowicz_residual, spin_dirac,
                   spin_module, spin_module_data)
from .suites import SUITE_NAMES, SuiteUsageError, run_suite

__version__ = "0.1.0"

__all__ = [
    "BilinearForm", "Chart", "ChartDomainError", "CheckResult",
    "CurvatureData", "DiracOperatorData", "Jet", "MetricJet",
    "ModuleSpec", "PolyField", "SUITE_NAMES", "SWConfig",
    "SWConfigError", "SpinSignatureError", "SuiteUsageError",
    "SuperconnectionData", "VerificationReport", "apply_dirac",
    "build_spin_connection", "canonical_laplacian",
    "chart_from_config", "chirality", "clifford_product",
    "coderivative_connection", "coderivative_hodge", "conformal_dirac",
    "curvature_data", "dirac_square", "exterior_derivative",
    "exterior_module", "forms_dirac", "get_chart", "gram_pairing",
    "hodge_star", "iota_vector", "is_special_superconnection", "jet_sqrt",
    "kernel_projector",
    "laplace_beltrami", "laplacian_decompose", "laplacian_from_connection",
    "laplacian_from_dirac", "lichnerowicz_residual", "lie_derivative",
    "load_chart_config", "load_sw_config", "metric_jet", "quantize",
    "quantize_superconnection", "random_sw_config", "registry", "run_suite",
    "seed_point", "spin_dirac", "spin_module", "spin_module_data",
    "superconnection_from_config", "superconnection_from_degrees",
    "sw_functional", "sw_residuals", "symbol", "vector_bracket",
    "volume_form", "wedge_forms",
]
