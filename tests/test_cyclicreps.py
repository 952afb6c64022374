"""Representation counts against independent character-orbit oracles."""

import random

import pytest

from hilbertmod import quadfield
from hilbertmod.cyclicreps import (
    c_count,
    is_prime,
    kp_count,
    prime_powers,
    q_count,
    r_count,
    rep_counts,
    rp_count,
)

from oracles import (
    complex_type_orbits,
    kp_formula,
    local_galois_subgroup,
    orbit_partition,
    prime_divisors,
    prime_powers_by_trial_division,
    rational_irred_orbits,
    real_irred_orbits,
    rp_formula,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_input_validation():
    with pytest.raises(ValueError):
        q_count(0)
    with pytest.raises(ValueError):
        r_count(-1)
    with pytest.raises(ValueError):
        kp_count(6, 4)
    with pytest.raises(ValueError):
        rp_count(6, 1)


def test_closed_forms_against_character_orbits():
    for n in range(1, 501):
        assert r_count(n) == real_irred_orbits(n), n
        assert c_count(n) == complex_type_orbits(n), n
        assert q_count(n) == rational_irred_orbits(n), n


def test_parity_identities():
    for n in range(1, 501):
        assert r_count(n) + c_count(n) == n
        assert r_count(n) - c_count(n) == (1 if n % 2 else 2)
        assert q_count(n) <= r_count(n) <= n


def test_local_counts_against_divisor_formula():
    for n in range(1, 201):
        for p in SMALL_PRIMES:
            assert kp_count(n, p) == kp_formula(n, p), (n, p)
            assert rp_count(n, p) == rp_formula(n, p), (n, p)


def test_orbit_partition_burnside():
    # The multiplier subgroup really partitions Z/n, and the partition size
    # is what kp_count reports; over the p-regular part n' the subgroup is
    # <p>, and its orbits are what rp_count reports.
    for n in list(range(1, 61)) + [1024, 2187, 44100]:
        for p in (2, 3, 5):
            subgroup = local_galois_subgroup(n, p)
            orbits = orbit_partition(n, subgroup)
            assert len(orbits) == kp_count(n, p), (n, p)
            n_prime = n
            while n_prime % p == 0:
                n_prime //= p
            cosets = orbit_partition(n_prime, local_galois_subgroup(n_prime, p))
            assert len(cosets) == rp_count(n, p), (n, p)


def test_local_subgroup_is_a_subgroup():
    for n in (12, 36, 45, 100):
        for p in (2, 3, 5):
            h = local_galois_subgroup(n, p)
            assert 1 % n in h
            assert all(a * b % n in h for a in h for b in h)


def test_rep_counts_reads_the_separate_counts_off_one_factorization():
    # rep_counts factors n once; the rank rows rely on it giving exactly
    # what the separate per-prime counts give.
    rng = random.Random(271828)
    for n in [*range(1, 3000), *(rng.randrange(1, 10**7) for _ in range(500))]:
        rc = rep_counts(n)
        assert rc.local == tuple((p, kp_count(n, p), rp_count(n, p))
                                 for p in prime_divisors(n)), n
        assert rc.q == q_count(n), n


def test_prime_powers_against_trial_division():
    # The small-prime table ends at 3137, the last prime <= sqrt(10^7); past it
    # the search goes on with odd f, so squares and products of the next
    # primes 3163 and 3167, and d up to 10^12, still factor completely.  The
    # square-free test stops at the cube root and judges the cofactor left,
    # a prime square (10007^2, 999983^2, 2 * 999983^2) or a product of two
    # primes (3163 * 3167) among them.
    rng = random.Random(3162)
    seeded = [rng.randrange(1, 10**12 + 1) for _ in range(20)]
    edges = [3163**2, 3167**2, 3163 * 3167, 3137**2, 2 * 3163**2, 999999999989, 10**12,
             10007**2, 999983**2, 2 * 999983**2]
    for n in [*range(10**5), *seeded, *edges]:
        expected = prime_powers_by_trial_division(n)
        assert list(prime_powers(n)) == expected, n
        assert is_prime(n) == (expected == [(n, 1)]), n
        assert quadfield.is_square_free(n) == (n >= 1 and all(a == 1 for _, a in expected)), n


class _CountingInt(int):
    """An int that counts the remainders taken of it and of its quotients."""

    remainders = 0

    def __mod__(self, f):
        _CountingInt.remainders += 1
        return int(self) % f

    def __floordiv__(self, f):
        return _CountingInt(int(self) // f)


def test_square_free_test_stops_at_the_first_square():
    # 4 * 999999999989: the square 2^2 comes first, and the trial division
    # up to the large prime's cube root never runs.
    _CountingInt.remainders = 0
    assert not quadfield.is_square_free(_CountingInt(4 * 999999999989))
    assert _CountingInt.remainders < 10
    assert quadfield.is_square_free(2 * 999999999989)


def test_square_free_test_divides_only_up_to_the_cube_root():
    # The prime 999999999989, the MAX_D ledger's d: 446 small
    # primes and the odd f from 3163 to 9999, about 3,900 remainders, where
    # trial division up to its square root takes about 5 * 10^5.
    _CountingInt.remainders = 0
    assert quadfield.is_square_free(_CountingInt(999999999989))
    assert _CountingInt.remainders <= 4000
