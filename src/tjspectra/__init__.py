"""Exact spectra of isolated hypersurface singularities, Tjurina subspectra,
and variance-defect checks for the (generalized) Hertling conjecture."""

from .spectra import Spectrum, SubsetStats, make_spectrum, stats_of_values, subset_stats
from .families import (FAMILIES, BrieskornParams, PuiseuxParams, SwhParams,
                       ThreeMonomialParams, TjurinaInstance, brieskorn_instance,
                       puiseux_instance, puiseux_spectrum, swh_instance,
                       three_monomial_instance)
from .conjecture import (CandidateRecord, EnumerationResult, Thm31Verdict,
                         closed_form_tau_delta_322, enumerate_candidates,
                         mple_failure_bound, prop41_step, remark32_compare,
                         thm31_verdict)
from .poly import Poly, jacobian, parse_poly
from .localg import (StdBasisResult, colength_oracle, local_std_basis, milnor,
                     tjurina)
from .rational import decimal_str, format_ratio

__version__ = "0.1.0"
