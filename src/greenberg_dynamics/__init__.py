"""Discrete dynamics toolkit for the normalized Greenberg traffic model.

The flow-density relation q = v0 * k * ln(kj / k) is iterated as a
one-dimensional map; the package covers the continuous diagrams, orbit
generation, fixed-point and stability analysis, bifurcation scans,
Lyapunov-exponent sweeps and CSV/JSON/SVG emitters, plus a CLI.
"""

from .analysis import (
    BifurcationScan,
    FixedPointReport,
    LyapunovCurve,
    StabilityCertificate,
    bifurcation_scan,
    classify_fixed_point,
    detect_period,
    exponential_stability_check,
    fixed_point,
    lyapunov_curve,
    lyapunov_exponent,
)
from .dynamics import (
    Orbit,
    SensitivityResult,
    cobweb_path,
    iterate,
    map_derivative,
    sensitivity_experiment,
)
from .errors import (
    ArgumentError,
    DomainError,
    EscapeError,
    SpecError,
)
from .emit import DiagramPayload, PlotSpec, render_svg, write_csv, write_json, write_svg
from .model import (
    TrafficParams,
    TrafficState,
    diagram_samples,
    flow_of_density,
    optimum_point,
    state_of_density,
    velocity_of_density,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BifurcationScan",
    "DiagramPayload",
    "DomainError",
    "EscapeError",
    "FixedPointReport",
    "LyapunovCurve",
    "Orbit",
    "PlotSpec",
    "SensitivityResult",
    "SpecError",
    "StabilityCertificate",
    "TrafficParams",
    "TrafficState",
    "bifurcation_scan",
    "classify_fixed_point",
    "cobweb_path",
    "detect_period",
    "diagram_samples",
    "exponential_stability_check",
    "fixed_point",
    "flow_of_density",
    "iterate",
    "lyapunov_curve",
    "lyapunov_exponent",
    "map_derivative",
    "optimum_point",
    "render_svg",
    "sensitivity_experiment",
    "state_of_density",
    "velocity_of_density",
    "write_csv",
    "write_json",
    "write_svg",
]
