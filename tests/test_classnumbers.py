"""Class numbers by reduced-form enumeration, against a reduction oracle."""

import random

import pytest

from hilbertmod.classnumbers import _sqrt_mod, is_discriminant, reduced_forms
from hilbertmod.cyclicreps import _primes_up_to

from oracles import (
    class_number_by_reduction,
    reduce_form,
    reduced_forms_scan,
    reduced_forms_trial_division,
)


def test_spot_values():
    assert len(reduced_forms(-3)) == 1
    assert len(reduced_forms(-4)) == 1
    assert len(reduced_forms(-23)) == 3
    assert reduced_forms(-23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]


def test_validation():
    for bad in (0, 5, -1, -2, -5, -6):
        assert not is_discriminant(bad)
        with pytest.raises(ValueError):
            reduced_forms(bad)
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
        assert len(reduced_forms(D)) == count, D
        assert set(reduced_forms(D)) == reduced_set, D


def test_h_is_at_least_one():
    for D in range(-400, 0):
        if is_discriminant(D):
            assert len(reduced_forms(D)) >= 1, D


def test_against_a_outer_scan():
    # -100003 is fundamental, -400012 = -4 * 100003 with 100003 prime, and
    # -100075 = -25 * 4003 has imprimitive forms 5 * (a, b, c) to skip.
    for D in [*range(-4000, -2), -100003, -400012, -100075]:
        if is_discriminant(D):
            assert reduced_forms(D) == reduced_forms_scan(D), D
    # Non-fundamental D heavy in one prime, so that the roots of n mod p^e
    # are lifted from roots mod p | D, which lift to none or to p roots each.
    for D in (-2**20, -4 * 3**10, -3 * 7**6, -4 * 5**8):
        assert is_discriminant(D), D
        assert reduced_forms(D) == reduced_forms_scan(D), D


def test_sieve_against_trial_division():
    # Seeded D up to 10^7 of both parities, D = -4m, the imprimitive
    # -100075 = -25 * 4003, and -6537839, whose many small split primes give
    # h = 3872.
    rng = random.Random(20151)
    odd = [-(4 * rng.randrange(1, 2_500_000) - 1) for _ in range(12)]
    even = [-4 * rng.randrange(1, 2_500_000) for _ in range(12)]
    small = [D for D in (-rng.randrange(3, 10**5) for _ in range(60)) if is_discriminant(D)]
    for D in [*odd, *even, *small, -4 * 999983, -100075, -6537839]:
        assert reduced_forms(D) == reduced_forms_trial_division(D), D
    assert len(reduced_forms(-6537839)) == 3872


def test_sqrt_mod_against_brute_force():
    for p in _primes_up_to(2000)[1:]:
        roots = {}
        for s in range(1, p):
            roots.setdefault(s * s % p, set()).add(s)
        for a in range(1, p):
            assert _sqrt_mod(a, p) in roots.get(a, {None}), (a, p)
        assert _sqrt_mod(0, p) == 0


def test_primes_up_to():
    assert _primes_up_to(1) == []
    assert _primes_up_to(2) == [2]
    assert _primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(_primes_up_to(2000)) == 303
