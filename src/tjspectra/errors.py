"""Exception hierarchy shared by all modules."""


class TjspectraError(Exception):
    """Base of every exception class in this module; the CLI exits 2 on
    InternalConsistencyError and 1 on the others.  A misused library call
    (``Poly``, ``pow_terms``, ``colength_oracle``, ``local_std_basis``,
    ``mple_failure_bound``, ``closed_form_tau_delta_322``, the statistics)
    raises the built-in TypeError or ValueError instead."""


# --- spectrum construction / statistics ---

class EmptySpectrum(TjspectraError):
    pass


class ValueOutOfRange(TjspectraError):
    pass


class SymmetryViolation(TjspectraError):
    pass


class EmptySubset(TjspectraError):
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


# --- conjecture evaluation ---

class GapZero(TjspectraError):
    pass


class IndexNotInSubset(TjspectraError):
    pass


class SubsetTooSmall(TjspectraError):
    pass


class NotSingleSwap(TjspectraError):
    pass


class WrongDirection(TjspectraError):
    pass


class EvenC(TjspectraError):
    pass


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
