"""Error taxonomy shared by all modules.

Every failure mode a caller can meaningfully react to gets its own class;
the CLI maps these onto exit codes.
"""


class L4NormError(Exception):
    """Base class for all library errors."""


class ParameterError(L4NormError):
    """Invalid physical parameters (rejected at construction)."""


class CollisionError(L4NormError):
    """State too close to one of the primaries.

    `which` is "first" (radiating primary) or "second" (oblate primary).
    """

    def __init__(self, which, r):
        self.which = which
        self.r = r
        super().__init__(f"collision with {which} primary (r={r:.3e})")


class ConvergenceError(L4NormError):
    """Iterative solver failed to converge; carries the last iterate."""

    def __init__(self, message, last=None):
        self.last = last
        super().__init__(message)


class SingularJacobianError(L4NormError):
    """Newton step hit a (near-)singular Jacobian."""


class DomainError(L4NormError):
    """The parameter point lies outside the domain the normalization covers
    (unstable, resonant, or a divisor too small); the CLI exits 4."""


class StabilityDomainError(DomainError):
    """Linearized system is not of center x center type.

    `eigenvalues` carries the offending spectrum for diagnostics.
    """

    def __init__(self, message, eigenvalues=None):
        self.eigenvalues = eigenvalues
        super().__init__(message)


class ResonanceError(DomainError):
    """Frequencies violate a non-resonance requirement."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class SmallDivisorError(DomainError):
    """A divisor fell below the floor separating small from resonant.

    `factor` names the offending combination, `value` its magnitude.
    """

    def __init__(self, factor, value):
        self.factor = factor
        self.value = value
        super().__init__(f"small divisor {factor} = {value:.3e}")


class CriticalTermError(DomainError):
    """A forcing series carries a critical harmonic that cannot be inverted."""

    def __init__(self, harmonic, coefficient):
        self.harmonic = harmonic
        self.coefficient = coefficient
        super().__init__(
            f"critical harmonic {harmonic} present with coefficient {coefficient:.3e}"
        )


class ContractError(L4NormError):
    """An operation received input violating its documented contract."""


class ConfigError(L4NormError):
    """Bad run configuration (unknown key, out-of-range value, ...)."""
