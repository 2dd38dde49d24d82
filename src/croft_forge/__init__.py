"""Constant-diameter bodies, stripe-cut packings, and their density.

Builds a family of planar constant-diameter-2 bodies from an
antisymmetric piecewise-constant radius perturbation, places rotated
copies on a 3-colored hexagonal lattice, cuts width-2 stripes across
every nearest-neighbor edge, and analyzes the packing density of the
remainders to second order in the family parameter.
"""

from .body import (
    ArcBody,
    BodyError,
    body_area,
    boundary_point,
    build_body,
    croft_constants,
    cut_disc_density,
    diameter_profile,
)
from .lattice import (
    cut_parameters,
    default_config,
    place_body,
    verify_avoidance,
)
from .segments import (
    PairCut,
    minimize_pair_shift,
    minimize_pair_shift_tilt,
    series_coefficients,
)
from .stepfn import (
    StepFunction,
    StepFunctionError,
    make_step_function,
    reference_step_function,
    zero_step_function,
)
from .svgout import (
    render_body_svg,
    render_lattice_svg,
    render_tortoise_svg,
    write_svg,
)
from .tortoise import (
    ConvergenceError,
    DensityRecord,
    body_area_coefficient,
    fit_eps2_coefficient,
    fit_net_coefficient,
    scan,
    series_cut_coefficients,
    series_net_coefficient,
    tortoise_area,
    write_scan_csv,
    write_scan_json,
)
from .ansatz import (
    QuadraticForm,
    assemble_quadratic_form,
    c2_net,
    closure_project,
    eigen_signature,
    jacobi_eigh,
)

__version__ = "0.1.0"

__all__ = [
    "ArcBody",
    "BodyError",
    "ConvergenceError",
    "DensityRecord",
    "PairCut",
    "QuadraticForm",
    "StepFunction",
    "StepFunctionError",
    "assemble_quadratic_form",
    "body_area",
    "body_area_coefficient",
    "boundary_point",
    "build_body",
    "c2_net",
    "closure_project",
    "croft_constants",
    "cut_disc_density",
    "cut_parameters",
    "default_config",
    "diameter_profile",
    "eigen_signature",
    "fit_eps2_coefficient",
    "fit_net_coefficient",
    "jacobi_eigh",
    "make_step_function",
    "minimize_pair_shift",
    "minimize_pair_shift_tilt",
    "place_body",
    "reference_step_function",
    "render_body_svg",
    "render_lattice_svg",
    "render_tortoise_svg",
    "scan",
    "series_coefficients",
    "series_cut_coefficients",
    "series_net_coefficient",
    "tortoise_area",
    "verify_avoidance",
    "write_scan_csv",
    "write_scan_json",
    "write_svg",
    "zero_step_function",
]
