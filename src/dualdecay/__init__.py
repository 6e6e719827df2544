"""Dual systems of polynomially localized Riesz bases on the integer lattice.

Builds localized basis families, assembles Gramian finite sections, inverts
them to synthesize the dual system, and measures every explicit decay
constant involved, including the headline dual-decay bound.
"""

from .constants import (BoundCalibration, CalibrationCase, ECalibration, RecursionTrace,
                        TheoreticalBound, calibrate_lattice_sum_bound,
                        calibrate_E, compute_W, recursion_trace,
                        theoretical_D, verify_convolution_discrete, w_sum)
from .duals import (DualSystem, biorthogonality_residual, coefficient_decay_fit,
                    gram_duals_check, invert_section, synthesize_dual,
                    synthesize_duals)
from .errors import (ConfigError, ConvergenceError, EnvelopeClaimError, HypothesisViolation,
                     InvariantFailure, NotRieszError, SingularSectionError)
from .gramian import (DecayMatrix, RieszBounds, apply_derivation, assemble, inner_product,
                      offdiag_fit, riesz_bounds, schur_bound, sections)
from .lattice import (BasisSet, GeneratorSpec, Grid, LatticeWindow, decay_exponent,
                      envelope_constant, make_basis, measure_decay, radial_profile,
                      validate_claimed_envelope)

__version__ = "0.1.0"
