"""Exact symbolic calculus on twisted quantum Euclidean planes and spheres.

The coordinate exchange phases q_{ab} stay symbolic (Laurent monomials over
Q(i, sqrt2)); every identity the engine verifies — differential calculus,
Haar functional, integration cycle, Hodge stars, Clifford machinery, the
instanton charge — is checked with exact arithmetic, and up to D = 9
independently cross-checked by a numeric classical-manifold x
torus-representation model.
"""

from .chern import (GammaRep, Matrix, character_tau, charge,
                    charge_from_curvature, charge_integral, clifford_trace,
                    curvature, instanton_projector)
from .exprio import ExprSyntaxError, format_element, format_scalar, parse_expr
from .haar import haar_plane, lambda_coefficient, laplacian, partial_derivative
from .ncalg import Element, normal_order
from .oracle import TorusRep, check_element, check_sphere_class
from .qphase import DeformationContext, ExactScalar
from .sphere import (central_quadric, hodge_sphere,
                     in_quotient_ideal, integrate_form, omega_form,
                     pairing_sphere, reduce_mod_c, sphere_equal,
                     top_decompose, volume_form)
from .suites import SuiteReport, run_suite
from .tensorcalc import (antisym_w, antisym_w_bruteforce, epsilon_q,
                         epsilon_qinv, hodge_plane, lambda_entry,
                         pairing_plane, volume_element)

__all__ = [
    "DeformationContext", "ExactScalar",
    "Element", "normal_order",
    "lambda_entry", "epsilon_q", "epsilon_qinv", "antisym_w",
    "antisym_w_bruteforce", "pairing_plane", "hodge_plane", "volume_element",
    "partial_derivative", "laplacian", "lambda_coefficient", "haar_plane",
    "central_quadric", "reduce_mod_c", "omega_form",
    "volume_form", "top_decompose", "integrate_form", "sphere_equal",
    "in_quotient_ideal", "pairing_sphere", "hodge_sphere",
    "GammaRep", "Matrix", "clifford_trace",
    "instanton_projector", "curvature", "character_tau", "charge",
    "charge_integral", "charge_from_curvature",
    "TorusRep", "check_element", "check_sphere_class",
    "parse_expr", "format_element", "format_scalar", "ExprSyntaxError",
    "run_suite", "SuiteReport",
]

__version__ = "0.1.0"
