"""Curvature tensors, curvature invariants, and the Riemann singular value problem."""

from .algebra import (InvariantReport, NPTetrad, compute_invariants, inner,
                      invariant_i, kretschmann, np_scalars, ricci,
                      ricci_scalar, weyl, weyl_self_contraction)
from .errors import (BadCase, BadTetrad, DifferentiationFailure,
                     DimensionTooSmall, InvalidInput, NoConvergence,
                     OutOfDomain, RiemSVPError, SingularMetric, WrongSignature)
from .geometry import (CurvatureData, MetricSpec, SymmetryReport, christoffel,
                       metric_at, riemann, verify_tensor_symmetries)
from .svp import (Quadruple, SolverConfig, SVPSolution, closed_form_sigma,
                  kerr_reduced_solve, lorentz_mixed_sign_check, meigen_reduce,
                  multistart, orbit, residual, residual_norm,
                  schwarzschild_reduced_solve, sigma_from_tensor, sigma_values,
                  wedge_det_defect, wedge_matrix)
from . import catalog

__version__ = "0.1.0"
