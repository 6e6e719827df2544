"""Dual systems of polynomially localized Riesz bases on the integer lattice.

Builds localized basis families, assembles Gramian finite sections, inverts
them to synthesize the dual system, and measures every explicit decay
constant involved, including the headline dual-decay bound.
"""

from .constants import (BoundCalibration, CalibrationCase, ECalibration,
                        TheoreticalBound, calibrate_lattice_sum_bound,
                        calibrate_E, recursion_trace, verify_convolution_discrete, w_sum)
from .duals import (biorthogonality_residual, coefficient_decay_fit, gram_duals_check,
                    invert_section, synthesize_dual, synthesize_duals)
from .errors import (ConfigError, ConvergenceError, EnvelopeClaimError, HypothesisViolation,
                     InvariantFailure, NotRieszError, SingularSectionError)
from .gramian import (DecayMatrix, RieszBounds, apply_derivation, assemble, offdiag_fit,
                      riesz_bounds, schur_bound, sections)
from .lattice import (BasisSet, GeneratorSpec, Grid, LatticeWindow, decay_exponent,
                      envelope_constant, measure_decay)

__version__ = "0.1.0"
