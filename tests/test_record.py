"""The immutable result records: HomologyReport, PairStratum and
ExactnessCertificate keep the behaviour of frozen dataclasses."""

import copy
import pickle
from fractions import Fraction

import pytest

from schouten.chains import Chain
from schouten.contraction import ExactnessCertificate, PairStratum
from schouten.homology import HomologyReport, betti


def _report(**change):
    fields = dict(n=2, m=3, w=0, h=0, dim=60, dim_lower=18, dim_upper=120,
                  rank_out=14, rank_in=46, betti=0)
    fields.update(change)
    return HomologyReport(**fields)


def _certificate(coeff=1):
    U = Chain(2, {(((1, 2), (1, 1)), ((1, 2), (1, 1))): Fraction(coeff)})
    V = Chain(2, {(((1,), (0, 0)), ((1, 2), (1, 1)), ((2,), (1, 0))): Fraction(1, 2)})
    return ExactnessCertificate(2, 2, U, V, (Fraction(3), Fraction(1)), (Fraction(1),))


def test_homology_report_equality_hash_repr():
    a = HomologyReport(2, 3, 0, 0, 60, 18, 120, 14, 46, 0)
    assert a == _report() and hash(a) == hash(_report())
    assert a != _report(rank_in=45) and a != _report(dim_lower=17)
    assert a != (2, 3, 0, 0, 60, 18, 120, 14, 46, 0)
    assert len({a, _report(), _report(betti=1)}) == 2
    assert repr(a) == ("HomologyReport(n=2, m=3, w=0, h=0, dim=60, dim_lower=18, "
                       "dim_upper=120, rank_out=14, rank_in=46, betti=0)")
    assert betti(2, 3, 0, 0) == a
    assert a.csv_row() == "2,3,0,0,60,14,46,0"


def test_pair_stratum_equality_hash_repr():
    s = PairStratum(1, 2, 1)
    assert s == PairStratum(a1=1, b1=2, w=1) and hash(s) == hash(PairStratum(1, 2, 1))
    assert s != PairStratum(1, 1, 1) and s != PairStratum(1, 2, 2)
    assert repr(s) == "PairStratum(a1=1, b1=2, w=1)"
    assert s.is_tl is False and PairStratum(1, 3, 1).is_tl is True


def test_certificate_equality_repr_and_no_hash():
    c = _certificate()
    assert c == _certificate() and c != _certificate(coeff=2)
    assert repr(c) == ("ExactnessCertificate(n=2, w=2, cycle=Chain(2, <1 terms>), "
                       "primitive=Chain(2, <1 terms>), "
                       "annihilator=(Fraction(3, 1), Fraction(1, 1)), "
                       "quotient=(Fraction(1, 1),))")
    with pytest.raises(TypeError):
        hash(c)    # Chains are mutable and unhashable


@pytest.mark.parametrize("record", [_report(), PairStratum(1, 0, 0), _certificate()],
                         ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 7)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == before


@pytest.mark.parametrize("record", [_report(), PairStratum(1, 0, 0), _certificate()],
                         ids=lambda r: type(r).__name__)
def test_copy_and_pickle_round_trip(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_constructor_arguments_are_checked():
    with pytest.raises(TypeError):
        HomologyReport(2, 3, 0, 0)
    with pytest.raises(TypeError):
        _report(rank=1)
    with pytest.raises(TypeError):
        HomologyReport(2, 3, 0, 0, 60, 18, 120, 14, 46, 0, 1)
    with pytest.raises(TypeError):
        HomologyReport(2, 3, 0, 0, 60, 18, 120, 14, 46, n=2)
    with pytest.raises(ValueError):
        PairStratum(a1=0, b1=0, w=0)
