"""Class numbers of imaginary quadratic discriminants.

h(D) is the number of classes of primitive positive-definite binary
quadratic forms a*x^2 + b*x*y + c*y^2 of discriminant D = b^2 - 4ac < 0.
Each class contains exactly one reduced form: |b| <= a <= c with b >= 0
whenever |b| = a or a = c, and gcd(a, b, c) = 1 (only primitive forms are
counted; conventions differ, so this is worth stating).

The reduced forms are grown from b (Cohen, A Course in Computational
Algebraic Number Theory, Alg. 5.3.5).  Reduction forces
|b| <= a <= sqrt(|D|/3), and b = D mod 2.  For each such b >= 0, a runs
over the divisors of n = (b^2 - D)/4 in [max(b, 1), sqrt(n)] and c = n/a;
the mirror (a, -b, c) is reduced too exactly when 0 < b < a < c.

All the n are factored by one sieve over b rather than one by one.  With
b = 2k + b0 (b0 = D mod 2), n_k = ((2k + b0)^2 - D)/4 is a polynomial in
k, so a prime p divides n_k exactly when k is a root of it mod p: for odd
p, k = (+-sqrt(D) - b0)/2 mod p (sqrt(D) mod p by Tonelli-Shanks), which
is two roots when (D/p) = 1, one when p | D and none otherwise; for p = 2
the rows k = 0 and k = 1 are tested directly.  Each prime p <= sqrt(max n)
is divided out of the rows it hits, and each hit grows that row's list of
divisors <= sqrt(n_k) by the powers of p.  What is left of n_k after those
primes is 1 or a prime larger than sqrt(n_k), so the lists are complete.
The work is about sqrt(|D|) log log |D| steps plus one per divisor, where
trying every candidate a costs about |D|; below |D| = 10^5 the sieve's
fixed cost makes it up to about 0.2 ms slower than that.  |D| is capped
at MAX_ABS_DISCRIMINANT = 10^8, where one enumeration takes tens of ms.
"""

from __future__ import annotations

from math import gcd, isqrt

from .cyclicreps import _primes_up_to

__all__ = ["MAX_ABS_DISCRIMINANT", "is_discriminant", "reduced_forms"]

MAX_ABS_DISCRIMINANT = 10**8


def is_discriminant(D: int) -> bool:
    """True for negative D congruent to 0 or 1 mod 4."""
    return D < 0 and D % 4 in (0, 1)


def _require_discriminant(D: int) -> None:
    if not is_discriminant(D):
        raise ValueError(f"{D} is not a negative discriminant (need D < 0, D = 0 or 1 mod 4)")
    if -D > MAX_ABS_DISCRIMINANT:
        raise ValueError(f"|D| must be at most 10^8, got D = {D}")


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, or None for a non-residue
    (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        f = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, f * f % p, t * f * f % p, r * f % p
    return r


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b, c) of discriminant D, sorted."""
    _require_discriminant(D)
    b0 = D % 2
    bs = range(b0, isqrt(-D // 3) + 1, 2)  # b = 2k + b0 in row k
    ns = [(b * b - D) // 4 for b in bs]
    bounds = [isqrt(n) for n in ns]  # a <= sqrt(n_k)
    divisors_of = [[1] for _ in bs]  # the divisors <= sqrt(n_k) found so far
    for p in _primes_up_to(bounds[-1]):
        if p == 2:
            hits = [k for k, n in enumerate(ns[:2]) if n % 2 == 0]
        else:
            s = _sqrt_mod(D, p)
            if s is None:
                continue
            half = (p + 1) // 2  # 1/2 mod p
            hits = {(s - b0) * half % p, (-s - b0) * half % p}
        for first in hits:
            for k in range(first, len(bs), p):
                n, bound, divisors = ns[k], bounds[k], divisors_of[k]
                grown = divisors
                while n % p == 0:
                    n //= p
                    grown = [d * p for d in grown if d * p <= bound]
                    divisors += grown
    forms = []
    for b, n, divisors in zip(bs, ns, divisors_of):
        low = max(b, 1)
        for a in divisors:
            if a >= low:
                c = n // a
                if gcd(a, b, c) == 1:
                    forms.append((a, b, c))
                    if 0 < b < a < c:
                        forms.append((a, -b, c))
    return sorted(forms)

