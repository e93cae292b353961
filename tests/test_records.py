"""The record classes as callers see them: constructor parameters, keyword
construction, immutability, pickling and repr, for every public record, and
tuple unpacking and equality for the named tuples."""

import inspect
import pickle
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from tjspectra import (BrieskornParams, CandidateRecord, EnumerationResult, Poly,
                       PuiseuxParams, Spectrum, StdBasisResult, SubsetStats, SwhParams,
                       ThreeMonomialParams, Thm31Verdict, TjurinaInstance,
                       enumerate_candidates, jacobian, local_std_basis, parse_poly,
                       prop41_step, remark32_compare, stats_of_values, thm31_verdict)
from tjspectra.conjecture import Prop41Outcome, SwapComparison


def _spectrum():
    return BrieskornParams(5, 4).instance().spectrum


def _std_basis():
    return local_std_basis(jacobian(parse_poly("x^5+y^4+x^3*y^2")))


# class, its constructor's parameter names in order, and a sample instance
RECORDS = [
    (Spectrum, ["values", "nums", "L"], _spectrum),
    (SubsetStats, ["tau", "L", "s1", "s2", "k_min", "k_max"],
     lambda: stats_of_values([F(1, 3), F(1, 2), F(5, 4)])),
    (TjurinaInstance, ["spectrum", "tjurina_indices", "defining_poly", "family_tag", "swh",
                       "subset_assumed", "tau_checked"], lambda: SwhParams(7, 7, 1, 1).instance()),
    (BrieskornParams, ["a", "b"], lambda: BrieskornParams(5, 4)),
    (SwhParams, ["a", "b", "c", "d"], lambda: SwhParams(7, 7, 1, 1)),
    (ThreeMonomialParams, ["a", "b", "c", "d"], lambda: ThreeMonomialParams(2, 4, 7, 6)),
    (PuiseuxParams, ["a", "b", "d", "q", "r"], lambda: PuiseuxParams(3, 2, 2, 1, 1)),
    (Thm31Verdict, ["tjurina", "mu_ne_tau", "av_condition", "width_condition", "cond_3_3",
                    "guaranteed_failure"],
     lambda: thm31_verdict(SwhParams(7, 7, 1, 1).instance())),
    (Prop41Outcome, ["hypothesis_42", "extremes_preserved", "guaranteed"],
     lambda: prop41_step(_spectrum(), range(1, 9), 4)),
    (SwapComparison, ["case", "prediction"],
     lambda: remark32_compare([F(1, 2), F(3, 4)], [F(1, 2), F(1, 4)])),
    (CandidateRecord, ["tau_prime", "j", "missing", "stats"],
     lambda: enumerate_candidates(_spectrum(), 3).records[-1]),
    (EnumerationResult, ["k", "slack", "clamped", "records"],
     lambda: enumerate_candidates(_spectrum(), 3)),
    (Poly, ["terms", "nvars"], lambda: parse_poly("x^2-3*x*y^4+y^3")),
    (StdBasisResult, ["generators", "lead_exponents", "colength"], _std_basis),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, make", RECORDS, ids=IDS)
def test_constructor_parameters(cls, names, make):
    assert list(inspect.signature(cls).parameters) == names


@pytest.mark.parametrize("cls, names, make", RECORDS, ids=IDS)
def test_keyword_construction(cls, names, make):
    record = make()
    again = cls(**{name: getattr(record, name) for name in names})
    assert type(again) is cls
    assert again == record


@pytest.mark.parametrize("cls, names, make", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, names, make):
    record = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("cls, names, make", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, names, make):
    record = make()
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls
    assert again == record
    assert all(getattr(again, name) == getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, names, make", RECORDS, ids=IDS)
def test_repr_names_each_field(cls, names, make):
    record = make()
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__name__}({shown})"


NAMED_TUPLES = [record for record in RECORDS if record[0] is not Poly]


@pytest.mark.parametrize("cls, names, make", NAMED_TUPLES,
                         ids=[cls.__name__ for cls, _, _ in NAMED_TUPLES])
def test_named_tuple_records_unpack_and_equal_a_tuple(cls, names, make):
    record = make()
    assert tuple(record) == tuple(getattr(record, name) for name in names)
    assert record == tuple(record)


def test_std_basis_result_hashes_only_with_no_generators():
    with pytest.raises(TypeError):
        hash(_std_basis())
    hash(StdBasisResult((), (), 0))


def test_poly_is_unhashable():
    with pytest.raises(TypeError):
        hash(parse_poly("x^2+y^3"))


def test_poly_equals_only_a_poly():
    p = parse_poly("x^2+y^3")
    assert p == Poly(dict(p.terms), p.nvars)
    assert p != parse_poly("x^2+y^2")
    for other in [(p.terms, p.nvars), p.terms, SimpleNamespace(terms=p.terms, nvars=p.nvars),
                  str(p)]:
        assert not p == other
        assert p != other
