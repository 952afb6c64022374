"""Class numbers by reduced-form enumeration, against a reduction oracle."""

import random
from math import isqrt

import pytest

from hilbertmod.classnumbers import _sqrt_mod, is_discriminant, reduced_forms
from hilbertmod.cyclicreps import _primes_up_to

from oracles import (
    class_number_by_reduction,
    reduce_form,
    reduced_forms_scan,
    reduced_forms_trial_division,
)


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


def test_against_a_outer_scan():
    # Every discriminant in [-10^4, -3] (5000 of them; the scan always emits
    # the principal form, so each has h >= 1).  -100003 is fundamental,
    # -400012 = -4 * 100003 with 100003 prime, and -100075 = -25 * 4003 has
    # imprimitive forms 5 * (a, b, c) to skip.
    for D in [*range(-10**4, -2), -100003, -400012, -100075]:
        if is_discriminant(D):
            assert reduced_forms(D) == reduced_forms_scan(D), D
    # Non-fundamental D heavy in one prime, so that the roots of n mod p^e
    # are lifted from roots mod p | D, which lift to none or to p roots each.
    for D in (-2**20, -4 * 3**10, -3 * 7**6, -4 * 5**8):
        assert is_discriminant(D), D
        assert reduced_forms(D) == reduced_forms_scan(D), D


def test_sieve_against_trial_division():
    # Seeded D up to 10^7 of both parities (seed 20151), D = -4m, the
    # imprimitive -100075 = -25 * 4003, and -6537839, whose many small split
    # primes give h = 3872.  Then 40 distinct discriminants drawn uniformly
    # from [-10^7, -3] with seed 29, and two near the cap of 10^8:
    # -99996959 (h = 19400) and -99999988 = -4 * 24999997 (h = 1640).
    rng = random.Random(20151)
    odd = [-(4 * rng.randrange(1, 2_500_000) - 1) for _ in range(12)]
    even = [-4 * rng.randrange(1, 2_500_000) for _ in range(12)]
    small = [D for D in (-rng.randrange(3, 10**5) for _ in range(60)) if is_discriminant(D)]
    rng, drawn = random.Random(29), {}
    while len(drawn) < 40:
        D = rng.randrange(-10**7, -2)
        if is_discriminant(D):
            drawn[D] = None
    near_cap = [-99996959, -99999988]
    for D in [*odd, *even, *small, -4 * 999983, -100075, -6537839, *drawn, *near_cap]:
        assert reduced_forms(D) == reduced_forms_trial_division(D), D
    assert [len(reduced_forms(D)) for D in (-6537839, *near_cap)] == [3872, 19400, 1640]


def test_sqrt_mod_against_brute_force():
    # Every odd prime reduced_forms can need, up to isqrt(10^8 // 3) = 5773:
    # every residue mod the primes below 2000, and above 2000 10 squares and
    # 10 non-squares per prime, drawn with seed 5773.
    rng = random.Random(5773)
    for p in _primes_up_to(isqrt(10**8 // 3))[1:]:
        squares = {s * s % p for s in range(1, p)}
        if p < 2000:
            tried = range(1, p)
        else:
            others = sorted(set(range(1, p)) - squares)
            tried = rng.sample(sorted(squares), 10) + rng.sample(others, 10)
        for a in tried:
            r = _sqrt_mod(a, p)
            if a in squares:
                assert r is not None and 0 < r < p and r * r % p == a, (a, p)
            else:
                assert r is None, (a, p)
        assert _sqrt_mod(0, p) == 0


def test_primes_up_to():
    assert _primes_up_to(1) == []
    assert _primes_up_to(2) == [2]
    assert _primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(_primes_up_to(2000)) == 303
