"""Class numbers by reduced-form enumeration, against a reduction oracle."""

import pytest

from hilbertmod.classnumbers import class_number, is_discriminant, reduced_forms

from oracles import class_number_by_reduction, reduce_form, reduced_forms_scan


def test_spot_values():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-23) == 3
    assert reduced_forms(-23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]


def test_validation():
    for bad in (0, 5, -1, -2, -5, -6):
        assert not is_discriminant(bad)
        with pytest.raises(ValueError):
            class_number(bad)
    assert is_discriminant(-3)
    assert is_discriminant(-4)


def test_forms_satisfy_reduction_inequalities():
    for D in range(-100, 0):
        if not is_discriminant(D):
            continue
        for a, b, c in reduced_forms(D):
            assert b * b - 4 * a * c == D
            assert abs(b) <= a <= c
            if abs(b) == a or a == c:
                assert b >= 0
            # reducing a reduced form changes nothing
            assert reduce_form(a, b, c) == (a, b, c)


def test_against_reduction_oracle():
    for D in range(-100, 0):
        if not is_discriminant(D):
            continue
        count, reduced_set = class_number_by_reduction(D)
        assert class_number(D) == count, D
        assert set(reduced_forms(D)) == reduced_set, D


def test_h_is_at_least_one():
    for D in range(-400, 0):
        if is_discriminant(D):
            assert class_number(D) >= 1, D


def test_against_a_outer_scan():
    # -100003 is fundamental, -400012 = -4 * 100003 with 100003 prime, and
    # -100075 = -25 * 4003 has imprimitive forms 5 * (a, b, c) to skip.
    for D in [*range(-4000, -2), -100003, -400012, -100075]:
        if is_discriminant(D):
            assert reduced_forms(D) == reduced_forms_scan(D), D
