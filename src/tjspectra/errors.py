"""Exception hierarchy shared by all modules: one class per CLI outcome."""


class TjspectraError(Exception):
    """A failure the CLI reports from its input (exit 1), or an
    InternalConsistencyError (exit 2); every class here derives from it.

    A library function given an argument outside its domain raises the
    built-in ValueError, or TypeError for a wrong type: ``Poly``,
    ``pow_terms``, ``colength_oracle``, ``local_std_basis``,
    ``mple_failure_bound``, ``prop41_step``, ``remark32_compare``,
    ``enumerate_candidates``, ``closed_form_tau_delta_322``, and
    ``make_spectrum``, ``spectrum_of_numerators`` and ``stats_of_values``
    (with ``subset_stats``), whose L and value-type checks all live in
    ``spectra._numerators``, do so.
    The one exception is an nvars outside [1, 3]: ``Poly`` and
    ``parse_poly`` raise TjspectraError("nvars must be in [1, 3]") for it,
    which ``--nvars 4`` reaches (exit 1).  ``parse_poly`` also raises the
    engine's TjspectraError for a group power whose degree is beyond
    ``poly.MAX_DEGREE``, before it expands it.
    ``Spectrum.value_at`` raises IndexError outside 1..mu, as a tuple does.
    A family spectrum that fails its own range or symmetry check is an
    InternalConsistencyError (exit 2)."""


class InvalidFamilyParameters(TjspectraError):
    """The family's ``validate()`` rejects the tuple; ``sweep`` skips it."""


class PolySyntaxError(TjspectraError):
    """The grammar failed at ``position``; ``args`` is (message, position),
    so the error survives pickling, as ``sweep --jobs`` needs."""

    def __init__(self, message, position):
        super().__init__(message, position)
        self.position = position

    def __str__(self):
        return "{} (at position {})".format(*self.args)


class InternalConsistencyError(TjspectraError):
    """A self-check that should be impossible to fail has failed."""
