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
the mirror (a, -b, c) is reduced too exactly when 0 < b < a < c.  |D| is
capped at MAX_ABS_DISCRIMINANT = 10^8, where one enumeration takes about
0.5 s.
"""

from __future__ import annotations

from math import gcd, isqrt

__all__ = ["MAX_ABS_DISCRIMINANT", "is_discriminant", "reduced_forms", "class_number"]

MAX_ABS_DISCRIMINANT = 10**8


def is_discriminant(D: int) -> bool:
    """True for negative D congruent to 0 or 1 mod 4."""
    return D < 0 and D % 4 in (0, 1)


def _require_discriminant(D: int) -> None:
    if not is_discriminant(D):
        raise ValueError(f"{D} is not a negative discriminant (need D < 0, D = 0 or 1 mod 4)")
    if -D > MAX_ABS_DISCRIMINANT:
        raise ValueError(f"|D| must be at most 10^8, got D = {D}")


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b, c) of discriminant D, sorted."""
    _require_discriminant(D)
    forms = []
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        n = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(n) + 1):
            if n % a == 0 and gcd(a, b, n // a) == 1:
                c = n // a
                forms.append((a, b, c))
                if 0 < b < a < c:
                    forms.append((a, -b, c))
    return sorted(forms)


def class_number(D: int) -> int:
    """h(D): the number of reduced primitive forms (always >= 1)."""
    return len(reduced_forms(D))
