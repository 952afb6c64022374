"""Representation counts for finite cyclic groups Z_n over R, Q, Q_p and F_p.

The five counts are

* ``r_count(n)``: real irreducible representations,
* ``c_count(n)``: real irreducibles of complex type,
* ``q_count(n)``: rational irreducibles (one per divisor of n),
* ``kp_count(n, p)``: irreducibles over the p-adic field Q_p,
* ``rp_count(n, p)``: irreducibles over the prime field F_p.

The local counts are orbit counts of the character indices Z/n under a
multiplier subgroup of (Z/n)*.  Over Q_p the Galois group of Q_p(zeta_n)
decomposes as (full units mod p^a) x <p mod m> for n = p^a * m with p not
dividing m: the first factor is the totally ramified part, the second the
unramified part generated by Frobenius.  Over F_p only the p-regular part
n' of n survives and the multiplier subgroup is <p mod n'> (its orbits
are the p-cosets of Z/n').  Both are computed by explicit orbit enumeration; the test suite
re-derives them through an independent divisor-sum formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

__all__ = [
    "RepCounts",
    "q_count",
    "r_count",
    "c_count",
    "kp_count",
    "rp_count",
    "rep_counts",
    "local_galois_subgroup",
    "prime_divisors",
    "is_prime",
]


def _require_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")


def is_prime(p: int) -> bool:
    """Primality by trial division; inputs here are tiny."""
    if p < 2:
        return False
    for f in range(2, isqrt(p) + 1):
        if p % f == 0:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def prime_divisors(n: int) -> tuple[int, ...]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def q_count(n: int) -> int:
    """Number of rational irreducibles of Z_n: the number of divisors of n."""
    _require_order(n)
    count = 0
    for k in range(1, isqrt(n) + 1):
        if n % k == 0:
            count += 1 if k * k == n else 2
    return count


def r_count(n: int) -> int:
    """Number of real irreducibles of Z_n.

    Complex characters come in conjugate pairs; the orbit count is
    (n+1)/2 for odd n and n/2 + 1 for even n.
    """
    _require_order(n)
    return (n + 1) // 2 if n % 2 else n // 2 + 1


def c_count(n: int) -> int:
    """Number of real irreducibles of Z_n of complex type.

    These are the genuine conjugate pairs: (n-1)/2 for odd n,
    (n-2)/2 for even n.
    """
    _require_order(n)
    return (n - 1) // 2 if n % 2 else (n - 2) // 2


def _power_closure(g: int, modulus: int) -> frozenset:
    """The cyclic subgroup <g> of Z/modulus under multiplication."""
    g %= modulus
    seen = {g}
    cur = g
    while True:
        cur = cur * g % modulus
        if cur in seen:
            return frozenset(seen)
        seen.add(cur)


def local_galois_subgroup(n: int, p: int) -> frozenset:
    """The multiplier subgroup of (Z/n)* acting on Q_p-character orbits.

    With n = p^a * m, p not dividing m, this is every unit t of Z/n whose
    reduction mod m lies in <p>; the reduction mod p^a is unrestricted.
    """
    _require_order(n)
    _require_prime(p)
    m = n
    while m % p == 0:
        m //= p
    frobenius_powers = _power_closure(p, m)  # {0} when m == 1
    return frozenset(
        t for t in range(n) if gcd(t, n) == 1 and t % m in frobenius_powers
    )


def _orbit_count(n: int, multipliers) -> int:
    """Number of orbits of Z/n under a multiplier subgroup of (Z/n)*."""
    seen = bytearray(n)
    count = 0
    for x in range(n):
        if seen[x]:
            continue
        count += 1
        for h in multipliers:
            seen[x * h % n] = 1
    return count


def kp_count(n: int, p: int) -> int:
    """Number of irreducible Q_p-representations of Z_n, by orbit enumeration."""
    subgroup = local_galois_subgroup(n, p)
    return _orbit_count(n, subgroup)


def rp_count(n: int, p: int) -> int:
    """Number of irreducible F_p-representations of Z_n.

    Only the prime-to-p part n' of n matters; the count is the number of
    p-cosets, the orbits of Z/n' under multiplication by p.
    """
    _require_order(n)
    _require_prime(p)
    n_prime = n
    while n_prime % p == 0:
        n_prime //= p
    return _orbit_count(n_prime, _power_closure(p, n_prime))


@dataclass(frozen=True)
class RepCounts:
    """All five counts for one cyclic group, with the per-prime table
    covering exactly the primes dividing n."""

    n: int
    r: int
    c: int
    q: int
    local: tuple[tuple[int, int, int], ...]  # (p, k_p, r_p), ascending p

    def local_as_dict(self) -> dict:
        return {p: (kp, rp) for p, kp, rp in self.local}


def rep_counts(n: int) -> RepCounts:
    _require_order(n)
    local = tuple((p, kp_count(n, p), rp_count(n, p)) for p in prime_divisors(n))
    return RepCounts(n=n, r=r_count(n), c=c_count(n), q=q_count(n), local=local)
