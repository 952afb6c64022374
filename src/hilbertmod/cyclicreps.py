"""Representation counts for finite cyclic groups Z_n over R, Q, Q_p and F_p.

The five counts are

* ``r_count(n)``: real irreducible representations,
* ``c_count(n)``: real irreducibles of complex type,
* ``q_count(n)``: rational irreducibles (one per divisor of n),
* ``kp_count(n, p)``: irreducibles over the p-adic field Q_p,
* ``rp_count(n, p)``: irreducibles over the prime field F_p.

The local counts are orbit counts of the character indices Z/n under a
multiplier subgroup of (Z/n)*, and both have closed forms.  Write
n = p^a * m with p not dividing m.  Over F_p only m survives and the
multiplier group is <p mod m>, whose orbits are the p-cosets of Z/m.  The
indices j with m / gcd(j, m) = e are the phi(e) units of Z/e scaled by
m/e, and <p> permutes them freely in orbits of size ord_e(p), so
r_p = sum over e | m of phi(e) / ord_e(p).

Over Q_p the Galois group of Q_p(zeta_n) is (units mod p^a) x <p mod m>,
the totally ramified part times the unramified part generated by
Frobenius.  Its orbits on Z/p^a x Z/m are the a+1 p-adic valuation levels
times the p-cosets of Z/m, so k_p = (a+1) * r_p.

ord_e(p) is the lcm of ord_(q^k)(p) over the prime powers q^k || e, so the
sum runs over orders, not divisors: {order: total phi(e)} grows by one
prime q^b || m at a time.  ord_q(p) comes by exponent descent on q - 1,
and ord_(q^k)(p) is ord_(q^(k-1))(p) or q times it, one modular power each.
The tests re-derive both counts by orbit walks and by Burnside's lemma.
"""

from __future__ import annotations

from itertools import chain, compress, count
from math import isqrt, lcm, prod

from ._record import Record

__all__ = [
    "MAX_ORDER",
    "require_order",
    "RepCounts",
    "q_count",
    "r_count",
    "c_count",
    "kp_count",
    "rp_count",
    "rep_counts",
    "factorize",
    "prime_powers",
    "prime_divisors",
    "is_prime",
]


# Largest group order accepted; it bounds the trial-division factorizations
# of n and of q - 1 for each prime q | n that the counts rest on.
MAX_ORDER = 10**7


def require_order(n: int) -> None:
    """The one group-order domain of the package: raise unless 1 <= n <= 10^7."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"group order must be in [1, 10^7], got {n}")


def _primes_up_to(n: int) -> list[int]:
    """The primes <= n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


# The primes up to sqrt(MAX_ORDER) = 3162, enough to factor every group order.
_SMALL_PRIMES = _primes_up_to(isqrt(MAX_ORDER))


def prime_powers(n: int):
    """Yield (p, a) for each prime power p^a exactly dividing n, ascending p.

    Trial division by the small primes, then by the odd numbers past them
    (only the square-free test of d up to 10^12 gets that far), lazily: a
    caller that stops early (a square-free test meeting its first square)
    skips the rest of the search.  Every n < 2 yields nothing.
    """
    for f in chain(_SMALL_PRIMES, count(_SMALL_PRIMES[-1] + 2, 2)):
        if f * f > n:
            break
        if n % f == 0:
            a = 0
            while n % f == 0:
                n //= f
                a += 1
            yield f, a
    if n > 1:
        yield n, 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: a} of n, ascending p."""
    return dict(prime_powers(n))


def is_prime(p: int) -> bool:
    """Primality: p is its own least prime factor."""
    return next(prime_powers(p), None) == (p, 1)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(factorize(n))


def q_count(n: int) -> int:
    """Number of rational irreducibles of Z_n: the number of divisors of n."""
    require_order(n)
    return prod(a + 1 for a in factorize(n).values())


def r_count(n: int) -> int:
    """Number of real irreducibles of Z_n.

    Complex characters come in conjugate pairs; the orbit count is
    (n+1)/2 for odd n and n/2 + 1 for even n, both n // 2 + 1.
    """
    require_order(n)
    return n // 2 + 1


def c_count(n: int) -> int:
    """Number of real irreducibles of Z_n of complex type.

    These are the genuine conjugate pairs: (n-1)/2 for odd n,
    (n-2)/2 for even n, both (n - 1) // 2.
    """
    require_order(n)
    return (n - 1) // 2


def _p_cosets(factors: dict[int, int], p: int) -> int:
    """Number of p-cosets of Z/m, for m the prime-to-p part of the n whose
    factorization is factors: sum of phi(e)/ord_e(p) over e | m."""
    weights = {1: 1}  # {ord_e(p): sum of phi(e)} over e | the part of m merged so far
    for q, b in factors.items():
        if q != p:
            order, merged = q - 1, dict(weights)
            for r, _ in prime_powers(q - 1):
                while order % r == 0 and pow(p, order // r, q) == 1:
                    order //= r
            for k in range(1, b + 1):  # order = ord_(q^k)(p), phi = phi(q^k)
                if k > 1 and pow(p, order, q**k) != 1:
                    order *= q
                phi = (q - 1) * q ** (k - 1)
                for o, w in weights.items():
                    o = lcm(o, order)
                    merged[o] = merged.get(o, 0) + w * phi
            weights = merged
    return sum(w // o for o, w in weights.items())


def _local_factors(n: int, p: int) -> dict[int, int]:
    """factorize(n), once n is a group order and p a prime."""
    require_order(n)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return factorize(n)


def kp_count(n: int, p: int) -> int:
    """Number of irreducible Q_p-representations of Z_n: (a+1) * r_p, p^a || n."""
    factors = _local_factors(n, p)
    return (factors.get(p, 0) + 1) * _p_cosets(factors, p)


def rp_count(n: int, p: int) -> int:
    """Number of irreducible F_p-representations of Z_n.

    Only the prime-to-p part m of n matters; the count is the number of
    p-cosets of Z/m.
    """
    return _p_cosets(_local_factors(n, p), p)


class RepCounts(Record):
    """All five counts for one cyclic group, with the per-prime table
    covering exactly the primes dividing n."""

    __slots__ = ("n", "r", "c", "q", "local")  # local: (p, k_p, r_p), ascending p

    def __init__(self, n: int, r: int, c: int, q: int,
                 local: tuple[tuple[int, int, int], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "local", local)


def _q_and_local(n: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """q(n) and the (p, k_p, r_p) triples of Z_n, ascending p, read off one
    factorization of n: all that the q = -1 rank rows need."""
    require_order(n)
    factors = factorize(n)
    local = []
    for p, a in factors.items():
        r_p = _p_cosets(factors, p)
        local.append((p, (a + 1) * r_p, r_p))
    return prod(a + 1 for a in factors.values()), tuple(local)


def rep_counts(n: int) -> RepCounts:
    """All counts of Z_n, read off one factorization of n."""
    q, local = _q_and_local(n)
    return RepCounts(n=n, r=r_count(n), c=c_count(n), q=q, local=local)
