"""Equality and hashing of the library's frozen records: those that hold
arrays compare by identity, the array-free ones by value."""

import dataclasses

import numpy as np
import pytest

from circleinterp import (
    LaurentPolynomial,
    NodalFamily,
    convergence_sweep,
    estimate_conditions,
    estimate_modulus,
    finite_verblunsky,
    interpolate,
    interval_nodes_from_measure,
    make_degree_plan,
    parse_corpus,
    roots_of_unimodular,
    trig_interpolate_symmetric,
)
from conftest import chebyshev1_weight

ARRAY_RECORDS = {
    "NodalSystem": lambda: roots_of_unimodular(4, 1.0),
    "CircleInterpolant": lambda: interpolate(roots_of_unimodular(4, 1.0), make_degree_plan(4, 0.5),
                                             np.ones(4)),
    "LaurentPolynomial": lambda: LaurentPolynomial(1, 1, np.ones(3)),
    "IntervalNodalSystem": lambda: interval_nodes_from_measure(chebyshev1_weight, 4),
    "TrigPolynomial": lambda: trig_interpolate_symmetric(chebyshev1_weight, 4, np.cos),
    "ModulusProfile": lambda: estimate_modulus(parse_corpus("lipschitz"), [0.1, 0.2], grid_size=1024),
    "SweepResult": lambda: convergence_sweep(NodalFamily(kind="roots-of-unimodular", tau=1.0), 0.5,
                                             [4], parse_corpus("lipschitz"), error_grid=64),
}

VALUE_RECORDS = {
    "DegreePlan": lambda: make_degree_plan(8, 0.5),
    "MeasureSpec": lambda: finite_verblunsky([0.5]),
    "NodalConditionReport": lambda: estimate_conditions(roots_of_unimodular(8, 1.0)),
    "CorpusFunction": lambda: parse_corpus("holder:0.6"),
    "NodalFamily": lambda: NodalFamily(kind="para-orthogonal", tau=1.0, measure=finite_verblunsky([0.5])),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_array_free_records_compare_by_value(name):
    a = VALUE_RECORDS[name]()
    b = dataclasses.replace(a)  # a copy with the same field values
    assert type(a).__name__ == name
    assert a is not b and a == b
    assert hash(a) == hash(b)
