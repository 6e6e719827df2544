"""Exception types mapped to distinct CLI exit codes."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """Run configuration could not be parsed or validated.  Exit code 2."""


class HypothesisViolation(ValueError):
    """A parameter set violates the standing hypotheses (C >= 1, integer
    t > d, s > d + t).  Exit code 3."""


class ConvergenceError(RuntimeError):
    """Finite-section inversion did not stabilize within budget.  Exit code 4."""


class SingularSectionError(ConvergenceError):
    """A finite section is not positive definite."""


class NotRieszError(RuntimeError):
    """A section eigenvalue is <= 0: not a Riesz sequence at this resolution."""


class InvariantFailure(RuntimeError):
    """A hard invariant check failed.  Exit code 5."""


class EnvelopeClaimError(InvariantFailure, ValueError):
    """A measured envelope constant exceeds the claimed C.  Exit code 5."""


@contextmanager
def family_errors(name: str):
    """Prefix `family '<name>': ` to the message of a config, envelope, Riesz
    or convergence error raised inside, keeping its type and so its exit code."""
    try:
        yield
    except (ConfigError, EnvelopeClaimError, NotRieszError, ConvergenceError) as exc:
        exc.args = (f"family {name!r}: {exc}",)
        raise
