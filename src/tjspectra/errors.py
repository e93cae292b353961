"""Exception hierarchy shared by all modules."""


class TjspectraError(Exception):
    """A failure the CLI reports from its input (exit 1), or an
    InternalConsistencyError (exit 2); every class here derives from it.

    A library function given an argument outside its domain raises the
    built-in ValueError, or TypeError for a wrong type: ``Poly``,
    ``pow_terms``, ``colength_oracle``, ``local_std_basis``,
    ``mple_failure_bound``, ``prop41_step``, ``remark32_compare``,
    ``closed_form_tau_delta_322`` and the statistics do so.
    ``Spectrum.value_at`` raises IndexError outside 1..mu, as a tuple does.
    Spectrum construction keeps EmptySpectrum, ValueOutOfRange and
    SymmetryViolation, because it also checks every family's spectrum."""


# --- spectrum construction ---

class EmptySpectrum(TjspectraError):
    pass


class ValueOutOfRange(TjspectraError):
    pass


class SymmetryViolation(TjspectraError):
    pass


# --- family generators ---

class InvalidFamilyParameters(TjspectraError):
    pass


class DegenerateExponent(InvalidFamilyParameters):
    pass


class GcdViolation(InvalidFamilyParameters):
    pass


class Condition81Violated(TjspectraError):
    """Lattice-generated Tjurina count disagrees with the local-algebra engine."""


# --- polynomial engine ---

class PolySyntaxError(TjspectraError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TooManyVariables(TjspectraError):
    pass


class NonIsolatedSingularity(TjspectraError):
    pass


class NonzeroConstantTerm(TjspectraError):
    pass


class DegreeTooLarge(TjspectraError):
    """A term of total degree beyond ``localg.MAX_DEGREE``."""


class InternalConsistencyError(TjspectraError):
    """A self-check that should be impossible to fail has failed."""
